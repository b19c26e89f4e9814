"""Record the exact-zero patterns and objectives of the mc workloads at the default seed.

    python3 perfbench/make_reference.py

Writes perfbench/reference.json. The run checks later code against it: a fit
whose exact-zero pattern moved fails unless its objective went down. Record it
only from a commit whose fits are trusted.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

from bridgelab import cli  # noqa: E402
from bridgelab.config import parse_config  # noqa: E402

import oracles  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def main() -> int:
    ref = {}
    tmp = Path(tempfile.mkdtemp(dir=BENCH_DIR.parent))
    try:
        for w in WORKLOADS.values():
            if w.command != "mc":
                continue
            cfg = w.write_config(tmp, DEFAULT_SEED, smoke=False)
            out = tmp / w.name
            if cli.main(["mc", "--config", str(cfg), "--out", str(out), "--threads", "1"]) != 0:
                return 1
            ec = parse_config(str(cfg))
            fits = oracles.read_replications(str(out / "replications.csv"), ec.mc.truth.p)
            ref[w.name] = {"seed": DEFAULT_SEED, **{k: list(v) if isinstance(v, tuple) else v
                                                    for k, v in w.full.items()},
                           "fits": oracles.fits_as_reference(fits)}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    (BENCH_DIR / "reference.json").write_text(json.dumps(ref) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
