"""bridgelab benchmark: runs one workload through the real CLI and prints its metrics.

    python3 perfbench/run.py --workload sparse-campaign --seed 1 --seconds 56 --trace 0

Run from the repository root. Each timed command is a fresh process with
`src` on PYTHONPATH that imports `bridgelab.cli`, parses the config and calls
`cli.main` -- what `python -m bridgelab.cli` does -- with clock marks between
the steps, so one process yields wall time, set-up time, throughput of
`cli.main` and peak RSS. The `--threads 2` determinism check runs the CLI as
`python -m bridgelab.cli`. With `--trace 1` the run repeats the command
in-process under the outside-in tracer and reports per-layer metrics.
Every output is checked against independent oracles; the last line of stdout
is one JSON object with `correct`, `attempted`, `failed` and `metrics`.
A run record (host, versions, commit, seed, scale) goes to
`.perfbench/results/`; `perfbench/compare.py` compares such records.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
RESULTS = OUT / "results"
DEADLINE_S = 170.0       # a run must end within 180 s
OUTPUT_FILES = ("replications.csv", "tail.csv", "summary.json")
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}

# The timed command. argv: marks file, config, draws file ("" for none), CLI args.
# CLOCK_MONOTONIC is shared by every process on the host, so the parent turns
# the set-up mark into the time from its spawn to the end of set-up.
CHILD = """
import json, sys, time
import bridgelab.cli as cli
cli.parse_config(sys.argv[2])
setup_end = time.monotonic()
drawn = []
if sys.argv[3]:
    sample = cli.sample_limit_argmin
    def keep(*args, **kwargs):
        drawn.append(sample(*args, **kwargs))
        return drawn[-1]
    cli.sample_limit_argmin = keep
t0 = time.perf_counter()
code = cli.main(sys.argv[4:])
command_s = time.perf_counter() - t0
sys.stdout.flush()
if drawn:
    import numpy
    numpy.save(sys.argv[3], drawn[0])
with open(sys.argv[1], "w") as fh:
    json.dump({"setup_end": setup_end, "command_s": command_s}, fh)
sys.exit(code)
"""


def log(msg: str) -> None:
    sys.stderr.write(f"[perfbench] {msg}\n")
    sys.stderr.flush()


# ---------------------------------------------------------------------------
# run record
# ---------------------------------------------------------------------------


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def host_record() -> dict:
    cpu = next((ln.split(":", 1)[1].strip() for ln in _read("/proc/cpuinfo").splitlines()
                if ln.startswith("model name")), platform.processor() or "unknown")
    return {"nproc": os.cpu_count(), "cpu_model": cpu}


def loadavg() -> list[float]:
    return [float(x) for x in _read("/proc/loadavg").split()[:3]] or [-1.0, -1.0, -1.0]


def versions() -> dict:
    out = {"python": platform.python_version()}
    for lib in ("numpy", "scipy"):
        try:
            out[lib] = importlib.import_module(lib).__version__
        except ImportError:
            out[lib] = None
    return out


def git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"commit": None, "dirty": None}

    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=20).stdout.strip()
    try:
        return {"commit": git("rev-parse", "HEAD") or None,
                "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}
    except (OSError, subprocess.SubprocessError):
        return {"commit": None, "dirty": None}


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------


class Bench:
    """One benchmark invocation: its workload, its scratch directory and its tallies."""

    def __init__(self, workload, seed: int, smoke: bool, work: Path):
        from bridgelab.config import parse_config

        self.w = workload
        self.seed = seed
        self.smoke = smoke
        self.work = work
        self.started = time.monotonic()
        self.config = workload.write_config(work, seed, smoke)
        self.ec = parse_config(str(self.config))
        self.ops = workload.ops_per_command(smoke)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.attempted = 0
        self.failed = 0
        self.commands = 0
        self.reference: dict | None = None   # outputs of the first good command
        self.ref_dir: Path | None = None
        self.matching = 0                    # commands whose outputs equal the reference
        self.samples = None                  # limit draws kept by the first command
        self.problems: list[str] = []
        self.spawned = 0.0                   # monotonic clock at the last spawn

    # -- the CLI command --------------------------------------------------

    def argv(self, out_dir: Path, threads: int = 1) -> list[str]:
        if self.w.command == "mc":
            return ["mc", "--config", str(self.config), "--out", str(out_dir),
                    "--threads", str(threads)]
        return ["limit", "--config", str(self.config)]

    def _out_dir(self) -> Path:
        self.commands += 1
        return self.work / f"out-{self.commands}"

    def _outputs(self, out_dir: Path, stdout: bytes) -> dict:
        if self.w.command == "limit":
            return {"stdout": stdout}
        return {name: (out_dir / name).read_bytes() if (out_dir / name).is_file() else None
                for name in OUTPUT_FILES}

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)

    def spawn(self, cmd: list[str], stdout_path: Path) -> tuple[int, float, float, str]:
        """Run a fresh process; (exit code, wall seconds, peak RSS MB, stderr)."""
        err_path = stdout_path.with_suffix(".err")
        with open(stdout_path, "wb") as out, open(err_path, "wb") as err:
            self.spawned = time.monotonic()
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=str(ROOT))
            killer = threading.Timer(max(self.remaining(), 1.0), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0, err_path.read_text(errors="replace")

    def account(self, ok: bool, outputs: dict, what: str, ops: int | None = None) -> None:
        """Tally one command and its operations against the reference outputs."""
        ops = self.ops if ops is None else ops
        self.attempted += 1 + ops
        if ok and self.reference is None:
            self.reference = outputs
        if ok and outputs == self.reference:
            self.matching += 1 if ops else 0
            return
        self.failed += 1 + ops
        self.problems.append(f"{what}: " + ("non-zero exit" if not ok else
                                            "outputs differ from the first command's"))

    def fresh_command(self) -> dict:
        """One timed command in a fresh process; its samples of every end-to-end metric."""
        out_dir = self._out_dir()
        marks = self.work / f"marks-{self.commands}.json"
        drawn = self.work / "draws.npy"
        capture = self.samples is None and self.w.command == "limit"
        code, wall, rss, err = self.spawn(
            [sys.executable, "-c", CHILD, str(marks), str(self.config),
             str(drawn) if capture else "", *self.argv(out_dir)],
            self.work / f"cmd-{self.commands}.out")
        spawned = self.spawned
        stdout = (self.work / f"cmd-{self.commands}.out").read_bytes()
        if code != 0:
            log(f"command exited {code}: {err.strip()[-400:]}")
        self._keep(out_dir, code == 0, self._outputs(out_dir, stdout), "fresh command")
        if capture and drawn.is_file():
            import numpy as np

            self.samples = np.load(drawn)
        if not marks.is_file():
            return {}
        m = json.loads(marks.read_text(encoding="utf-8"))
        return {"wall_s": wall, "setup_s": m["setup_end"] - spawned,
                "ops_per_s": self.ops / m["command_s"], "peak_rss_mb": rss}

    def threads_check(self, threads: int = 2) -> None:
        """The determinism check: `python -m bridgelab.cli` with more workers, byte for byte."""
        if self.w.command != "mc":
            return
        out_dir = self._out_dir()
        code, _, _, err = self.spawn(
            [sys.executable, "-m", "bridgelab.cli", *self.argv(out_dir, threads)],
            self.work / f"cmd-{self.commands}.out")
        if code != 0:
            log(f"command exited {code}: {err.strip()[-400:]}")
        self.account(code == 0, self._outputs(out_dir, b""), f"--threads {threads}", ops=0)
        shutil.rmtree(out_dir, ignore_errors=True)

    def inprocess_command(self, tracer=None) -> float:
        from bridgelab import cli

        out_dir = self._out_dir()
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                if tracer is None:
                    code = cli.main(self.argv(out_dir))
                    dur = time.perf_counter() - t0
                else:
                    code, dur = tracer.command(cli.main, self.argv(out_dir))
        except Exception:  # a crash is a failed command, not a failed benchmark
            log(traceback.format_exc(limit=-3))
            code, dur = 1, time.perf_counter() - t0
        self._keep(out_dir, code == 0, self._outputs(out_dir, buf.getvalue().encode()),
                   "in-process command")
        return dur

    def _keep(self, out_dir: Path, ok: bool, outputs: dict, what: str) -> None:
        first = self.reference is None and ok
        self.account(ok, outputs, what)
        if first:
            self.ref_dir = out_dir
        else:
            shutil.rmtree(out_dir, ignore_errors=True)

    def importtime(self) -> dict:
        code, _, _, err = self.spawn(
            [sys.executable, "-X", "importtime", "-c", "import bridgelab.cli"],
            self.work / "importtime.out")
        if code != 0:
            raise RuntimeError(f"import process failed: {err.strip()[-400:]}")
        from tracer import import_breakdown

        return import_breakdown(err)

    # -- correctness ------------------------------------------------------

    def check_reference(self) -> None:
        """Oracle-check the reference outputs; every matching command shares the verdict."""
        import oracles

        if self.reference is None:
            return
        if self.w.command == "mc":
            fits = oracles.read_replications(str(self.ref_dir / "replications.csv"),
                                             self.ec.mc.truth.p)
            ref = json.loads((BENCH_DIR / "reference.json").read_text(encoding="utf-8"))
            expected = oracles.read_reference(ref, self.w.name, self.seed,
                                              self.w.mc_settings(self.smoke))
            bad = oracles.check_mc(self.ec.mc, fits, separable=self.ec.mc.design.kind
                                   == "standardized-orthonormal", reference=expected)
            if bad:
                self.problems.append(f"{len(bad)} fits failed, first: {bad[0]}")
            bad_ops = len(bad)
        else:
            if self.samples is None:
                self.problems.append("no limit command kept its draws to check")
                bad_ops = self.ops
            else:
                payload = json.loads(self.reference["stdout"])
                summary_ok, bad = oracles.check_limit(self.ec, payload, self.samples)
                if not summary_ok:
                    self.problems.append("limit summary is not bit-equal to the CLI's JSON")
                if bad:
                    self.problems.append(f"{len(bad)} draws beaten by the grid, first: {bad[0]}")
                bad_ops = len(bad) + (0 if summary_ok else 1)
        self.failed += bad_ops * self.matching


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def median(xs):
    return statistics.median(xs) if xs else 0.0


def repeat(b: Bench, t0: float, seconds: float, step) -> None:
    """Call `step` until the next call would end `seconds` past `t0`; at least once.

    Each call is one round of every measurement, so the medians taken over the
    rounds span the whole run rather than one stretch of it.
    """
    longest = 0.0
    while True:
        s0 = time.monotonic()
        step()
        longest = max(longest, time.monotonic() - s0)
        if (time.monotonic() - t0 + longest > seconds
                or b.remaining() < 2.5 * longest + 30.0):
            return


def end_to_end(b: Bench, seconds: float) -> tuple[dict, dict]:
    samples: dict[str, list[float]] = {name: [] for name in E2E_UNITS}

    def step():
        for name, value in b.fresh_command().items():
            samples[name].append(value)

    repeat(b, time.monotonic(), seconds, step)
    b.threads_check()
    if not samples["wall_s"]:
        raise RuntimeError("no command completed; " + "; ".join(b.problems))
    return {name: (median(samples[name]), unit) for name, unit in E2E_UNITS.items()}, samples


def per_layer(b: Bench, seconds: float) -> tuple[dict, dict]:
    from tracer import LAYER_UNITS, Tracer, layer_metrics

    t0 = time.monotonic()
    imports = b.importtime()
    b.fresh_command()  # the outputs (and limit draws) the oracles check
    tracer = Tracer()
    plain, traced = [], []

    def step():
        if len(plain) % 2:  # alternate which goes first, so warm-up favours neither
            with tracer.installed():
                traced.append(b.inprocess_command(tracer))
            plain.append(b.inprocess_command())
        else:
            plain.append(b.inprocess_command())
            with tracer.installed():
                traced.append(b.inprocess_command(tracer))

    repeat(b, t0, seconds, step)
    b.threads_check()
    values = layer_metrics(tracer.spans, len(traced), b.ec.mc.truth.p)
    values.update(imports)
    values["cli.output_bytes"] = float(sum(len(v) for v in b.reference.values() if v)) \
        if b.reference else 0.0
    values["trace.overhead_frac"] = median(traced) / median(plain) - 1.0
    metrics = {name: (values[name], unit) for name, unit in LAYER_UNITS.items()}
    RESULTS.mkdir(parents=True, exist_ok=True)
    with open(RESULTS / f"{b.w.name}-s{b.seed}-spans-{os.getpid()}.jsonl", "w",
              encoding="utf-8") as fh:
        for rec in tracer.to_records():
            fh.write(json.dumps(rec) + "\n")
    return metrics, {"plain_s": plain, "traced_s": traced}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=56.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny replication counts, for the benchmark's own tests")
    args = ap.parse_args(argv)

    if not (SRC / "bridgelab" / "cli.py").is_file():
        log(f"no bridgelab sources under {SRC}; run from a checkout of the repository")
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import DEFAULT_SEED, WORKLOADS

    if args.workload not in WORKLOADS:
        log(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
        return 2
    workload = WORKLOADS[args.workload]
    seed = DEFAULT_SEED if args.seed is None else args.seed
    record = {"workload": workload.name, "seed": seed, "trace": args.trace,
              "seconds": args.seconds, "smoke": args.smoke,
              "scale": {"command": workload.command, "ops_per_command":
                        workload.ops_per_command(args.smoke), **workload.mc_settings(args.smoke)},
              "host": host_record(), "loadavg_start": loadavg(),
              "started": time.strftime("%Y-%m-%dT%H:%M:%S%z")}
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        b = Bench(workload, seed, args.smoke, work)
        run = per_layer if args.trace else end_to_end
        metrics, samples = run(b, args.seconds)
        t_check = time.monotonic()
        b.check_reference()
        record["check_s"] = time.monotonic() - t_check
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in b.problems:
        log(problem)

    record.update(versions=versions(), git=git_state(), loadavg_end=loadavg(),
                  attempted=b.attempted, failed=b.failed, problems=b.problems,
                  metrics={k: v for k, (v, _) in metrics.items()}, samples=samples)
    RESULTS.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (RESULTS / f"{workload.name}-s{seed}-t{args.trace}-{stamp}-{os.getpid()}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": b.failed == 0,
        "attempted": b.attempted,
        "failed": b.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
