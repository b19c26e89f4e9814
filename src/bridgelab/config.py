"""Config-file parsing: flat key-value sections, strict unknown-key rejection.

The format is INI-style and diff-friendly. Unknown sections or keys are
errors, not warnings: silently misconfiguring gamma or the schedule exponent
would change which limit theory applies. `_KEYS` lists every allowed key with
its reader; every value present is read up front, and a key missing from the
file takes the default of the spec that uses it.
"""

from __future__ import annotations

import configparser
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from types import GenericAlias

import numpy as np

from .errors import ConfigError, InvalidInputError, InvalidSpecError
from .model import DESIGN_KINDS, NOISE_FAMILIES, DesignSpec, NoiseSpec, TrueParameter
from .montecarlo import MCConfig
from .penalty import FAMILIES, LOG2, PenaltySpec, TuningSchedule, default_divergence_scale
from .solver import Box, SolverOptions
from .util import require_finite

# {section: {key: reader}}: int, float, str, list[cast] (comma-separated) or a
# tuple of the allowed words.
_KEYS = {
    "model": {"p0": int, "rho0": list[float], "design": DESIGN_KINDS, "bound": float,
              "noise": NOISE_FAMILIES, "sigma": float, "rho_min": float,
              "design_file": str, "response_file": str},
    "penalty": {"family": FAMILIES, "gamma": float, "a": float, "tau_c": float,
                "tau_e": float},
    "schedule": {"c": float, "e": float},
    "solver": {"box_half": float, "box_lo": list[float], "box_hi": list[float],
               "tolerance": float, "max_sweeps": int},
    "mc": {"n": int, "n_grid": list[int], "replications": int, "seed": int,
           "r_grid": list[float], "moment_orders": list[float], "tail_orders": list[float]},
    "output": {"dir": str},
    "check": {"beta": float, "delta": float, "n_grid": list[int], "r_grid": list[float],
              "a_probes": list[float], "b_probes": list[float]},
}


@dataclass
class CheckSettings:
    beta: float = 0.25
    delta: float = 0.25
    n_grid: tuple[int, ...] = (16, 64, 256, 1024, 4096)
    r_grid: tuple[float, ...] = tuple(float(x) for x in np.geomspace(1.0, 1024.0, 21))
    a_probes: tuple[float, ...] = (0.5, 1.0, 2.0)
    b_probes: tuple[float, ...] = (0.5, 1.0, 2.0, 4.0)

    def __post_init__(self):
        if not (0.0 < self.beta < 0.5):
            raise InvalidSpecError(f"beta: must lie in (0, 1/2), got {self.beta}")
        if not (0.0 < self.delta < math.inf):
            raise InvalidSpecError(f"delta: must be positive and finite, got {self.delta}")
        for key in ("n_grid", "r_grid"):
            grid = getattr(self, key)
            if len(grid) < 3 or not grid[0] > 0 or any(not b > a for a, b in zip(grid, grid[1:])):
                raise InvalidSpecError(f"{key}: must be at least 3 strictly increasing positive values, got {grid}")
        require_finite(r_grid=self.r_grid, a_probes=self.a_probes, b_probes=self.b_probes)
        if 0.0 in self.a_probes:
            raise InvalidSpecError(f"a_probes: every shift probe a must be nonzero, got {self.a_probes}")


@dataclass
class ExperimentConfig:
    """Parsed experiment: the MCConfig plus CLI-level settings and the raw echo."""

    mc: MCConfig
    n_single: int
    out_dir: str
    check: CheckSettings
    responses: np.ndarray | None  # Y for `estimate`, read from [model] response_file
    raw: dict = field(default_factory=dict)


def check_design_grid(n_grid: tuple[int, ...]) -> tuple[int, ...]:
    """The n at which `check` draws its designs: [mc] n_grid, or 50, 200, 800 when it has fewer than 3."""
    return n_grid if len(n_grid) >= 3 else (50, 200, 800)


def _fail(section: str, key: str, msg: str):
    raise ConfigError(f"[{section}] {key}: {msg}")


@contextmanager
def _section(name: str):
    """Report a spec's ValueError as a config error of section [name]."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"[{name}] {exc}") from exc


def _read(section: str, key: str, text: str):
    """Convert one value by its `_KEYS` reader; a malformed value names its field."""
    reader = _KEYS[section][key]
    if isinstance(reader, tuple):
        if text not in reader:
            _fail(section, key, f"must be one of {reader}, got {text!r}")
        return text
    try:
        if isinstance(reader, GenericAlias):  # list[cast]
            return tuple(reader.__args__[0](tok.strip()) for tok in text.split(",") if tok.strip())
        return reader(text)
    except ValueError:
        expected = {int: "an integer", float: "a number"}.get(reader, "a comma-separated list")
        _fail(section, key, f"expected {expected}, got {text!r}")


def _given(values: dict, *keys: str, **renamed: str) -> dict:
    """The keys present in one section, as keyword arguments of the spec that
    holds their defaults (`renamed` maps an argument name to its key)."""
    names = {**{key: key for key in keys}, **renamed}
    return {arg: values[key] for arg, key in names.items() if key in values}


def _require_finite_schedule(sch: TuningSchedule, ns, section: str, c: str, e: str) -> None:
    """A config error naming the keys c and e of [section] unless c * n**e is finite at every n in ns."""
    for n in ns:
        try:
            sch.value(n)
        except InvalidInputError:
            raise ConfigError(f"[{section}] {c} * n**{e} overflows at n={n} ({c}={sch.c}, {e}={sch.e})") from None


def _require_divergence_scale(pen: PenaltySpec, ns) -> None:
    """A config error naming the keys q_n derives from unless `check`'s divergence
    scale q_n (`default_divergence_scale`) is finite and positive at every n in ns."""
    sch = pen.schedule
    for n in ns:
        try:
            qn = default_divergence_scale(pen).value(n)
        except (InvalidSpecError, InvalidInputError):  # a coefficient c^2 or a q_n that overflows
            qn = math.inf
        if not 0.0 < qn < math.inf:
            keys, values = "[schedule] c, e", f"c={sch.c}, e={sch.e}"
            if pen.family == "bridge":
                keys, values = keys + " and [penalty] gamma", values + f", gamma={pen.gamma}"
            raise ConfigError(f"{keys} give the divergence scale q_n = {qn} at n={n}, "
                              f"not finite and positive ({values})")


def _load_csv(key: str, path: str, ndmin: int) -> np.ndarray:
    try:
        return np.loadtxt(path, delimiter=",", ndmin=ndmin)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"[model] {key}: cannot read {path}: {exc}") from exc


def load_raw(path: str) -> dict:
    """Read the file into {section: {key: string}}; build_config checks the keys."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    return {section: {key: value.strip() for key, value in parser.items(section)}
            for section in parser.sections()}


def build_config(raw: dict, command: str | None = None) -> ExperimentConfig:
    """Validate the raw mapping and assemble the MCConfig. Given a CLI command, an
    explicit-matrix design must have the rows of every n it builds a design at."""
    for section, keys in raw.items():
        if section not in _KEYS:
            raise ConfigError(f"unknown section [{section}]")
        for key in keys:
            if key not in _KEYS[section]:
                raise ConfigError(f"[{section}] unknown key {key!r}")
    values = {s: {k: _read(s, k, text) for k, text in raw.get(s, {}).items()} for s in _KEYS}
    model, pen, sched, sol, mcv = (values[s] for s in ("model", "penalty", "schedule", "solver", "mc"))

    if "rho0" not in model:
        _fail("model", "rho0", "required (the nonzero-block true values)")
    kind = model.get("design", "standardized-orthonormal")
    matrix = None
    if kind == "explicit-matrix":
        path = model.get("design_file")
        if path is None:
            _fail("model", "design_file", "required for explicit-matrix designs")
        matrix = tuple(tuple(float(v) for v in row) for row in _load_csv("design_file", path, 2))
    with _section("model"):
        truth = TrueParameter(p0=model.get("p0", 0), rho0=model["rho0"], **_given(model, "rho_min"))
        design = DesignSpec(kind=kind, p=truth.p, matrix=matrix, **_given(model, "bound"))
        noise = NoiseSpec(family=model.get("noise", "gaussian"), sigma=model.get("sigma", 1.0))

    family = pen.get("family")
    if family is None:
        _fail("penalty", "family", "required")
    with _section("penalty"):
        schedule = TuningSchedule(c=sched.get("c", 1.0), e=sched.get("e", 0.5))
        tau = (TuningSchedule(c=pen.get("tau_c", 1.0), e=pen.get("tau_e", -1.5))
               if family == "selo" else None)
        penalty = PenaltySpec(family=family, schedule=schedule, gamma=pen.get("gamma"),
                              a=pen.get("a", 3.7 if family == "scad" else None), tau=tau)

    p = truth.p
    with _section("solver"):
        if "box_lo" in sol or "box_hi" in sol:  # box_half is then ignored
            cube = Box.cube(p)
            sides = (sol.get("box_lo", cube.lo), sol.get("box_hi", cube.hi))
            box = Box(*(side * p if len(side) == 1 else side for side in sides))
        else:
            box = Box.cube(p, **_given(sol, half="box_half"))
        solver = SolverOptions(**_given(sol, "tolerance", "max_sweeps"))

    n_grid = mcv.get("n_grid", (50, 200, 800))
    with _section("mc"):
        mc = MCConfig(design=design, noise=noise, truth=truth, penalty=penalty, n_grid=n_grid,
                      replications=mcv.get("replications", 200),
                      master_seed=mcv.get("seed", 12345), box=box, solver=solver,
                      **_given(mcv, "r_grid", "moment_orders", "tail_orders"))
    with _section("check"):
        check = CheckSettings(**values["check"])

    n_single = mcv.get("n", n_grid[0])
    if n_single < p:
        _fail("mc", "n", f"n={n_single} < p={p}: a fit needs at least p rows")
    # the n at which the command evaluates lambda_n; limit reads only lambda0 = c
    used = {"estimate": (n_single,), "mc": n_grid, "check": (*check.n_grid, *n_grid),
            "limit": ()}.get(command, (n_single, *n_grid))
    _require_finite_schedule(penalty.schedule, used, "schedule", "c", "e")
    if tau is not None:
        _require_finite_schedule(tau, (n_single, *n_grid, *used), "penalty", "tau_c", "tau_e")
        over = [n for n in used if not math.isfinite(2.0 * n * penalty.schedule.value(n) / LOG2)]
        if over:  # the SELO value would be inf * log1p(0) = nan at t = 0
            raise ConfigError(f"[schedule] SELO bound 2n * c * n**e / log 2 overflows at n={over[0]} "
                              f"(c={schedule.c}, e={schedule.e})")
    underflow = [n for n in (n_single, *n_grid) if tau is not None and tau.value(n) == 0.0]
    if underflow:
        _fail("penalty", "tau_c", f"tau_n = tau_c * n^tau_e underflows to 0 at n={underflow[0]}")
    if command == "check":  # q_n divides the divergence values and scales the cross-block sequence
        design_grid = () if kind == "explicit-matrix" else check_design_grid(n_grid)
        _require_divergence_scale(penalty, (*check.n_grid, *design_grid))
        if design_grid:  # the design-condition rates scale by n**delta
            try:
                float(design_grid[-1]) ** check.delta
            except OverflowError:
                _fail("check", "delta", f"n**delta overflows at n={design_grid[-1]} (delta={check.delta})")
    responses = None
    if "response_file" in model:
        responses = _load_csv("response_file", model["response_file"], 1)
        if responses.shape != (n_single,):
            _fail("model", "response_file", f"holds {responses.size} values in {len(responses)} rows "
                                            f"but [mc] n requests one column of n={n_single}")
    if kind == "explicit-matrix":
        requested = {"estimate": [("n", n_single)],
                     "mc": [("n_grid", n) for n in n_grid],
                     "limit": [("n_grid", n_grid[-1])]}.get(command, [])
        for key, n in requested:
            if n != len(matrix):
                _fail("model", "design_file",
                      f"holds {len(matrix)} rows but [mc] {key} requests n={n}")

    return ExperimentConfig(mc=mc, n_single=n_single, out_dir=values["output"].get("dir", "out"),
                            check=check, responses=responses, raw=raw)


def parse_config(path: str, command: str | None = None) -> ExperimentConfig:
    return build_config(load_raw(path), command)
