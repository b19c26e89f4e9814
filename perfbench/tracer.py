"""Outside-in tracing of bridgelab: spans and counters around the calls into each layer.

Nothing in the package is edited. The tracer replaces, for the length of a
traced command, the names a caller module imported from another module, since
that is where a cross-layer call resolves (`solver.scalar_prox_interval`,
`montecarlo.minimize`, `cli.run_replications`, ...). Coarse boundaries get one
span per call; hot boundaries get counters (calls and time) attributed to the
enclosing span. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import importlib
import re
import statistics
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

PER_N = (50, 200, 800, 3200)  # the n values with their own fit-time median


@dataclass
class Span:
    name: str
    parent: int | None
    ident: tuple | None
    start: float
    dur: float = 0.0
    child_time: float = 0.0
    attrs: dict = field(default_factory=dict)
    # counter name -> [calls, time, time not nested in another counter]
    counters: dict = field(default_factory=dict)

    def self_time(self) -> float:
        return self.dur - self.child_time - sum(c[2] for c in self.counters.values())


def _fit_attrs(args, result):
    return {"starts": result.restarts_used, "sweeps": result.iterations,
            "converged": bool(result.converged)}


def _sampler_attrs(args, result):
    return {"draws": int(result.shape[0])}


def _rep_ident(args):
    return (int(args[2]), int(args[3]))  # _solve_one(cfg, X, n, rep)


# (module, name, span or counter name, ident-from-args, attrs-from-result)
SPANS = (
    ("cli", "parse_config", "config.parse", None, None),
    ("cli", "run_replications", "montecarlo.run_replications", None, None),
    ("cli", "tail_curve", "montecarlo.tail", None, None),
    ("cli", "sparsity_curve", "montecarlo.selection", None, None),
    ("cli", "moment_trajectory", "montecarlo.moments", None, None),
    ("cli", "pldi_probe", "montecarlo.pldi", None, None),
    ("cli", "compare_to_limit", "montecarlo.limit_distance", None, None),
    ("cli", "limit_law", "asymptotics.limit_law", None, None),
    ("cli", "sample_limit_argmin", "asymptotics.sampler", None, _sampler_attrs),
    ("cli", "generate_design", "model.design", None, None),
    ("cli", "gram", "model.design", None, None),
    ("cli", "_write_replications_csv", "cli.write", None, None),
    ("cli", "_write_tail_csv", "cli.write", None, None),
    ("cli", "canonical_json", "cli.write", None, None),
    ("montecarlo", "generate_design", "model.design", None, None),
    ("montecarlo", "gram", "model.design", None, None),
    ("montecarlo", "_solve_one", "montecarlo.replicate", _rep_ident, None),
    ("montecarlo", "minimize", "solver.minimize", None, _fit_attrs),
    ("montecarlo", "sample_limit_argmin", "asymptotics.sampler", None, _sampler_attrs),
)
COUNTERS = (
    ("montecarlo", "simulate_responses", "model.simulate"),
    ("solver", "scalar_prox_interval", "penalty.prox"),
    ("solver", "contrast_value", "contrast.value"),
    ("contrast", "penalty_total", "penalty.total"),
    ("asymptotics", "power_prox_candidates", "penalty.power_prox"),
)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._counter_depth = 0

    def _span_wrapper(self, name, fn, ident_of, attrs_of):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            ident = ident_of(args) if ident_of else (parent.ident if parent else None)
            sp = Span(name=name, parent=id(parent) if parent else None, ident=ident,
                      start=perf_counter())
            stack.append(sp)
            try:
                result = fn(*args, **kwargs)
                if attrs_of:
                    sp.attrs = attrs_of(args, result)
                return result
            finally:
                sp.dur = perf_counter() - sp.start
                stack.pop()
                if parent is not None:
                    parent.child_time += sp.dur
                spans.append(sp)
        return traced

    def _counter_wrapper(self, name, fn):
        stack = self._stack

        def counted(*args, **kwargs):
            self._counter_depth += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self._counter_depth -= 1
                c = stack[-1].counters.get(name)
                if c is None:
                    c = stack[-1].counters[name] = [0, 0.0, 0.0]
                c[0] += 1
                c[1] += dt
                if self._counter_depth == 0:
                    c[2] += dt
        return counted

    @contextmanager
    def installed(self):
        """Wrap every traced name for the duration of the block, then restore it."""
        saved = []
        try:
            for mod, attr, name, ident_of, attrs_of in SPANS:
                m = importlib.import_module(f"bridgelab.{mod}")
                saved.append((m, attr, getattr(m, attr)))
                setattr(m, attr, self._span_wrapper(name, getattr(m, attr), ident_of, attrs_of))
            for mod, attr, name in COUNTERS:
                m = importlib.import_module(f"bridgelab.{mod}")
                saved.append((m, attr, getattr(m, attr)))
                setattr(m, attr, self._counter_wrapper(name, getattr(m, attr)))
            yield self
        finally:
            for m, attr, original in reversed(saved):
                setattr(m, attr, original)

    def command(self, fn, *args):
        """Run one command under a root span; returns (result, seconds)."""
        wrapped = self._span_wrapper("cli.main", fn, lambda a: None, None)
        t0 = perf_counter()
        result = wrapped(*args)
        return result, perf_counter() - t0

    def to_records(self) -> list[dict]:
        return [{"name": s.name, "id": id(s), "parent": s.parent, "ident": s.ident,
                 "start": s.start, "dur": s.dur, "self": s.self_time(), "attrs": s.attrs,
                 "counters": s.counters} for s in self.spans]


def _quantile(values, q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[int(q) - 1]


def layer_metrics(spans: list[Span], commands: int, p: int) -> dict[str, float]:
    """Per-layer numbers for one traced command (totals divided by `commands`)."""
    k = float(max(commands, 1))
    by_name: dict[str, list[Span]] = {}
    counters: dict[str, list[float]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        for cname, c in s.counters.items():
            acc = counters.setdefault(cname, [0, 0.0])
            acc[0] += c[0]
            acc[1] += c[1]

    def total(name):
        return sum(s.dur for s in by_name.get(name, ())) / k

    def self_of(prefix):
        return sum(s.self_time() for s in spans if s.name.startswith(prefix)) / k

    def calls(cname):
        return counters.get(cname, [0, 0.0])[0] / k

    def secs(cname):
        return counters.get(cname, [0, 0.0])[1] / k

    fits = by_name.get("solver.minimize", [])
    fit_ms = [s.dur * 1e3 for s in fits]
    n_fits = len(fits) / k
    starts = sum(s.attrs["starts"] for s in fits)
    prox_in_fits = sum(s.counters.get("penalty.prox", [0])[0] for s in fits)
    value_in_fits = sum(s.counters.get("contrast.value", [0])[0] for s in fits)
    draws = sum(s.attrs.get("draws", 0) for s in by_name.get("asymptotics.sampler", [])) / k
    sampler_s = total("asymptotics.sampler")

    def per_fit(x):
        return x / len(fits) if fits else 0.0

    m = {
        "penalty.prox_calls": calls("penalty.prox"),
        "penalty.prox_s": secs("penalty.prox"),
        "penalty.prox_us": 1e6 * secs("penalty.prox") / calls("penalty.prox") if calls("penalty.prox") else 0.0,
        "penalty.power_prox_calls": calls("penalty.power_prox"),
        "penalty.power_prox_s": secs("penalty.power_prox"),
        "penalty.total_s": secs("penalty.total"),
        "solver.fits": n_fits,
        "solver.fit_samples": float(len(fits)),
        "solver.fit_ms_p50": statistics.median(fit_ms) if fit_ms else 0.0,
        "solver.fit_ms_p99": _quantile(fit_ms, 99),
        "solver.starts_per_fit": per_fit(starts),
        "solver.prox_calls_per_fit": per_fit(prox_in_fits),
        "solver.sweeps_per_start": prox_in_fits / (p * starts) if starts else 0.0,
        "solver.winner_sweeps": per_fit(sum(s.attrs["sweeps"] for s in fits)),
        "solver.nonconverged": sum(not s.attrs["converged"] for s in fits) / k,
        "solver.self_s": self_of("solver."),
        "contrast.value_calls_per_fit": per_fit(value_in_fits),
        "contrast.value_s": secs("contrast.value"),
        "model.design_s": total("model.design"),
        "model.simulate_calls": calls("model.simulate"),
        "model.simulate_s": secs("model.simulate"),
        "montecarlo.replicate_s": total("montecarlo.replicate"),
        "montecarlo.self_s": self_of("montecarlo."),
        "montecarlo.aggregate_s": sum(total(f"montecarlo.{a}") for a in
                                      ("tail", "selection", "moments", "pldi", "limit_distance")),
        "montecarlo.tail_s": total("montecarlo.tail"),
        "montecarlo.selection_s": total("montecarlo.selection"),
        "montecarlo.moments_s": total("montecarlo.moments"),
        "montecarlo.limit_distance_s": total("montecarlo.limit_distance"),
        "asymptotics.draws": draws,
        "asymptotics.sampler_s": sampler_s,
        "asymptotics.draw_us": 1e6 * sampler_s / draws if draws else 0.0,
        "asymptotics.self_s": self_of("asymptotics."),
        "cli.write_s": total("cli.write"),
        "config.parse_s": total("config.parse"),
    }
    for n in PER_N:
        at_n = [s.dur * 1e3 for s in fits if s.ident and s.ident[0] == n]
        m[f"solver.fit_ms_p50.n{n}"] = statistics.median(at_n) if at_n else 0.0
    return m


LAYER_UNITS = {
    "penalty.prox_calls": "count",
    "penalty.prox_s": "s",
    "penalty.prox_us": "us",
    "penalty.power_prox_calls": "count",
    "penalty.power_prox_s": "s",
    "penalty.total_s": "s",
    "solver.fits": "count",
    "solver.fit_samples": "count",
    "solver.fit_ms_p50": "ms",
    "solver.fit_ms_p99": "ms",
    **{f"solver.fit_ms_p50.n{n}": "ms" for n in PER_N},
    "solver.starts_per_fit": "count",
    "solver.prox_calls_per_fit": "count",
    "solver.sweeps_per_start": "count",
    "solver.winner_sweeps": "count",
    "solver.nonconverged": "count",
    "solver.self_s": "s",
    "contrast.value_calls_per_fit": "count",
    "contrast.value_s": "s",
    "model.design_s": "s",
    "model.simulate_calls": "count",
    "model.simulate_s": "s",
    "montecarlo.replicate_s": "s",
    "montecarlo.self_s": "s",
    "montecarlo.aggregate_s": "s",
    "montecarlo.tail_s": "s",
    "montecarlo.selection_s": "s",
    "montecarlo.moments_s": "s",
    "montecarlo.limit_distance_s": "s",
    "asymptotics.draws": "count",
    "asymptotics.sampler_s": "s",
    "asymptotics.draw_us": "us",
    "asymptotics.self_s": "s",
    "cli.write_s": "s",
    "cli.output_bytes": "bytes",
    "config.parse_s": "s",
    "import.scipy_s": "s",
    "import.numpy_s": "s",
    "import.bridgelab_s": "s",
    "trace.overhead_frac": "ratio",
}

_IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s+)(\S+)")


def import_breakdown(importtime_stderr: str) -> dict[str, float]:
    """Seconds spent importing scipy, numpy and bridgelab, from `-X importtime`.

    A package's time is the cumulative time of its outermost imports (those
    with no ancestor of the same package), so bridgelab's includes the numpy
    and scipy imports it triggers.
    """
    entries = []
    for line in importtime_stderr.splitlines():
        mt = _IMPORT_LINE.match(line)
        if mt:
            entries.append((len(mt.group(3)) - 1, mt.group(4), int(mt.group(2))))
    totals = {"scipy": 0, "numpy": 0, "bridgelab": 0}
    stack: list[tuple[int, str]] = []
    # the log is post-order; reversed, every module follows its ancestors
    for depth, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        top = name.split(".")[0]
        if top in totals and all(a.split(".")[0] != top for _, a in stack):
            totals[top] += cumulative
        stack.append((depth, name))
    return {f"import.{k}_s": v / 1e6 for k, v in totals.items()}
