"""Time the layers of the limit sampler and the two benchmark commands, in process.

    python tools/bench_layers.py                          # this checkout alone
    python tools/bench_layers.py --base ../parent         # interleaved with another checkout
    python tools/bench_layers.py --smoke                  # one call each, nothing written

Run from the repository root. For each checkout (a directory holding `src/bridgelab`),
a fresh worker process imports bridgelab from that checkout's `src` and makes
CALLS warm calls of each layer:

- `spawned_normals`: `util.spawned_normals(seed, 10000, 2)`, the normals of one
  `limit` command;
- `box_argmin_block`: the first 4,096-draw `solver.box_argmin` call of `limit` on
  the `limit-standard` config (a diagonal C0), with the arguments that
  `sample_limit_argmin` passes it;
- `seeded_generators`: every generator of `util.seeded_generators` over 800
  seeds of `util.derived_seeds`;
- `cli_limit` and `cli_mc`: `cli.main` on the `limit-standard` and
  `sparse-campaign` configs, which `perfbench/workloads.py` writes.

With `--base` the workers of the two checkouts alternate for ROUNDS rounds, the
first of each pair switching side every round, so that a drift of the host's
speed falls on both. The record (host and versions as `perfbench/run.py` records
them, and per checkout and layer the minimum and median of all calls, in ms) goes
to BENCH_limit_sampler.json. `--smoke` makes one call of each layer in one round
and writes nothing.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_limit_sampler.json"
ROUNDS, CALLS = 30, 4  # rounds of a --base run; warm calls of each layer per worker
SEED = 20250809  # perfbench's default seed, the acceptance campaign's master seed
LAYERS = ("spawned_normals", "box_argmin_block", "seeded_generators", "cli_limit", "cli_mc")


def _layers(src: Path, work: Path) -> dict:
    """The layer callables, with bridgelab imported from `src`."""
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    import workloads
    from bridgelab import asymptotics, cli
    from bridgelab.util import derived_seeds, seeded_generators, spawned_normals

    configs = {name: workloads.WORKLOADS[name].write_config(work, SEED, smoke=False)
               for name in ("limit-standard", "sparse-campaign")}
    limit_argv = ["limit", "--config", str(configs["limit-standard"])]
    mc_argv = ["mc", "--config", str(configs["sparse-campaign"]), "--out", str(work / "mc"), "--threads", "1"]

    blocks = []  # the arguments of each box_argmin call of one limit command
    box_argmin = asymptotics.box_argmin
    asymptotics.box_argmin = lambda *args: blocks.append(args) or box_argmin(*args)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(limit_argv)
    finally:
        asymptotics.box_argmin = box_argmin
    block = blocks[0]
    if block[2].shape[0] != 4096:
        raise RuntimeError(f"the first sampler block holds {block[2].shape[0]} draws, not 4,096")
    seeds = derived_seeds((SEED, 800), range(800))

    def run_cli(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"cli.main({argv}) exited {code}")

    def every_generator():
        for _ in seeded_generators(seeds):
            pass

    return {
        "spawned_normals": lambda: spawned_normals(SEED, 10_000, 2),
        "box_argmin_block": lambda: box_argmin(*block),
        "seeded_generators": every_generator,
        "cli_limit": lambda: run_cli(limit_argv),
        "cli_mc": lambda: run_cli(mc_argv),
    }


def worker(src: Path, calls: int) -> dict:
    """{layer: [seconds of each warm call]}, after one unmeasured call of each layer."""
    with tempfile.TemporaryDirectory() as tmp:
        layers = _layers(src, Path(tmp))
        out = {}
        for name in LAYERS:
            fn = layers[name]
            fn()
            times = []
            for _ in range(calls):
                t0 = time.perf_counter()
                fn()
                times.append(time.perf_counter() - t0)
            out[name] = times
    return out


def run_worker(checkout: Path, smoke: bool) -> dict:
    argv = [sys.executable, __file__, "--worker", str(checkout / "src")] + (["--smoke"] if smoke else [])
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True, cwd=ROOT)
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", type=Path, default=None, help="a second checkout to interleave with this one")
    ap.add_argument("--smoke", action="store_true", help="one call each in one round; write nothing")
    ap.add_argument("--worker", type=Path, default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    rounds, calls = (1, 1) if args.smoke else (ROUNDS, CALLS)
    if args.worker is not None:
        print(json.dumps(worker(args.worker, calls)))
        return 0

    sides = {"change": ROOT} if args.base is None else {"base": args.base.resolve(), "change": ROOT}
    times = {side: {name: [] for name in LAYERS} for side in sides}
    for r in range(rounds):
        order = list(sides) if r % 2 == 0 else list(sides)[::-1]
        for side in order:
            for name, values in run_worker(sides[side], args.smoke).items():
                times[side][name].extend(values)
        sys.stderr.write(f"[bench_layers] round {r + 1}/{rounds} done\n")

    sys.path.insert(0, str(ROOT / "perfbench"))
    import run  # perfbench/run.py: its host and version record (scipy None where it is missing)

    record = {"host": run.host_record(), "versions": run.versions(),
              "seed": SEED, "rounds": rounds, "calls_per_round": calls,
              "layers": {name: {side: {"min_ms": 1e3 * min(times[side][name]),
                                       "median_ms": 1e3 * statistics.median(times[side][name]),
                                       "calls": len(times[side][name])} for side in sides}
                         for name in LAYERS}}
    if "base" in sides:
        for entry in record["layers"].values():
            entry["median_ratio"] = entry["change"]["median_ms"] / entry["base"]["median_ms"]
    text = json.dumps(record, indent=2) + "\n"
    if args.smoke:
        sys.stdout.write(text)
    else:
        OUT.write_text(text, encoding="utf-8")
        sys.stderr.write(f"[bench_layers] wrote {OUT}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
