"""Summarize and compare benchmark run records.

    python3 perfbench/compare.py .perfbench/results/*-t0-*.json
    python3 perfbench/compare.py BASE.json ... --vs NEW.json ...

For each workload and metric it prints the median, the quartile spread as a
share of the median, and with `--vs` the change of the new median against the
base median, judged by the bound in BENCHMARK.json. Records from different
hosts, interpreter or library versions, or run scales are refused: their
numbers do not measure the same thing.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(paths: list[str]) -> list[dict]:
    return [json.loads(Path(p).read_text(encoding="utf-8")) for p in paths]


def identity(rec: dict) -> tuple:
    """What must match for two records to be comparable."""
    return (json.dumps(rec["host"], sort_keys=True), json.dumps(rec["versions"], sort_keys=True))


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile distance / median)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def mixed_scale(records: list[dict]) -> str | None:
    """The first workload whose runs differ in scale or run length, if any."""
    scales: dict[tuple, str] = {}
    for rec in records:
        scale = json.dumps([rec["scale"], rec["seconds"], rec["smoke"]], sort_keys=True)
        if scales.setdefault((rec["workload"], rec["trace"]), scale) != scale:
            return rec["workload"]
    return None


def group(records: list[dict]) -> dict[tuple, dict[str, list[float]]]:
    out: dict[tuple, dict[str, list[float]]] = {}
    for rec in records:
        for name, value in rec["metrics"].items():
            out.setdefault((rec["workload"], rec["trace"]), {}).setdefault(name, []).append(value)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", nargs="+", help="run records (.perfbench/results/*.json)")
    ap.add_argument("--vs", nargs="+", default=None, help="records to compare against the base")
    args = ap.parse_args(argv)

    base = load(args.base)
    new = load(args.vs) if args.vs else []
    idents = {identity(r) for r in base + new}
    if len(idents) > 1:
        sys.stderr.write("refusing: the records come from different hosts or versions:\n")
        for host, vers in sorted(idents):
            sys.stderr.write(f"  host {host}  versions {vers}\n")
        return 2
    mixed = mixed_scale(base + new)
    if mixed:
        sys.stderr.write(f"refusing: the {mixed} records differ in scale or run length\n")
        return 2
    failed = sum(r["failed"] for r in base + new)
    bounds = {m["name"]: m for m in json.loads(BENCHMARK.read_text(encoding="utf-8"))["end_to_end"]}

    gb, gn = group(base), group(new)
    worse = 0
    for key in sorted(gb):
        workload, trace = key
        print(f"{workload} (trace {trace}, {len(next(iter(gb[key].values())))} runs)")
        for name, values in gb[key].items():
            med, spr = spread(values)
            line = f"  {name:34s} median {med:<12.6g} spread {spr:6.3f}"
            if name in bounds:
                line += f"  bound {bounds[name]['bound']}"
            if key in gn and name in gn[key]:
                nmed, nspr = spread(gn[key][name])
                change = (nmed - med) / med if med else 0.0
                line += f" | new {nmed:<12.6g} spread {nspr:6.3f} change {change:+.3f}"
                if name in bounds:
                    loss = change if bounds[name]["better"] == "lower" else -change
                    if loss > bounds[name]["bound"]:
                        line += "  WORSE"
                        worse += 1
            print(line)
    if failed:
        print(f"{failed} failed operations across the records")
    return 1 if worse or failed else 0


if __name__ == "__main__":
    sys.exit(main())
