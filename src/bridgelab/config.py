"""Config-file parsing: flat key-value sections, strict unknown-key rejection.

The format is INI-style and diff-friendly. Unknown sections or keys are
errors, not warnings: silently misconfiguring gamma or the schedule exponent
would change which limit theory applies.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .model import DESIGN_KINDS, NOISE_FAMILIES, DesignSpec, NoiseSpec, TrueParameter
from .montecarlo import MCConfig
from .penalty import FAMILIES, PenaltySpec, TuningSchedule
from .solver import Box, SolverOptions

_ALLOWED = {
    "model": {"p0", "rho0", "design", "bound", "noise", "sigma", "rho_min",
              "design_file", "response_file"},
    "penalty": {"family", "gamma", "a", "tau_c", "tau_e"},
    "schedule": {"c", "e"},
    "solver": {"box_half", "box_lo", "box_hi", "tolerance", "max_sweeps"},
    "mc": {"n", "n_grid", "replications", "seed", "r_grid", "moment_orders",
           "tail_orders"},
    "output": {"dir"},
    "check": {"beta", "delta", "n_grid", "r_grid", "a_probes", "b_probes"},
}

_DEFAULT_CHECK_N_GRID = (16, 64, 256, 1024, 4096)
_DEFAULT_CHECK_R_GRID = tuple(float(x) for x in np.geomspace(1.0, 1024.0, 21))
_DEFAULT_A_PROBES = (0.5, 1.0, 2.0)
_DEFAULT_B_PROBES = (0.5, 1.0, 2.0, 4.0)


@dataclass
class CheckSettings:
    beta: float = 0.25
    delta: float = 0.25
    n_grid: tuple[int, ...] = _DEFAULT_CHECK_N_GRID
    r_grid: tuple[float, ...] = _DEFAULT_CHECK_R_GRID
    a_probes: tuple[float, ...] = _DEFAULT_A_PROBES
    b_probes: tuple[float, ...] = _DEFAULT_B_PROBES


@dataclass
class ExperimentConfig:
    """Parsed experiment: the MCConfig plus CLI-level settings and the raw echo."""

    mc: MCConfig
    n_single: int
    out_dir: str
    check: CheckSettings
    response_file: str | None
    raw: dict = field(default_factory=dict)


def _fail(section: str, key: str, msg: str):
    raise ConfigError(f"[{section}] {key}: {msg}")


def _get(raw: dict, section: str, key: str, default=None) -> str | None:
    return raw.get(section, {}).get(key, default)


def _parse_float(raw, section, key, default):
    text = _get(raw, section, key)
    if text is None:
        return default
    try:
        return float(text)
    except ValueError:
        _fail(section, key, f"expected a number, got {text!r}")


def _parse_int(raw, section, key, default):
    text = _get(raw, section, key)
    if text is None:
        return default
    try:
        return int(text)
    except ValueError:
        _fail(section, key, f"expected an integer, got {text!r}")


def _parse_list(raw, section, key, default, cast):
    text = _get(raw, section, key)
    if text is None:
        return default
    try:
        return tuple(cast(tok.strip()) for tok in text.split(",") if tok.strip())
    except ValueError:
        _fail(section, key, f"expected a comma-separated list, got {text!r}")


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
    for section in raw:
        if section not in _ALLOWED:
            raise ConfigError(f"unknown section [{section}]")
        for key in raw[section]:
            if key not in _ALLOWED[section]:
                raise ConfigError(f"[{section}] unknown key {key!r}")

    rho0 = _parse_list(raw, "model", "rho0", None, float)
    if rho0 is None:
        _fail("model", "rho0", "required (the nonzero-block true values)")
    p0 = _parse_int(raw, "model", "p0", 0)
    rho_min = _parse_float(raw, "model", "rho_min", 0.5)
    try:
        truth = TrueParameter(p0=p0, rho0=rho0, rho_min=rho_min)
    except ValueError as exc:
        raise ConfigError(f"[model] {exc}") from exc

    kind = _get(raw, "model", "design", "standardized-orthonormal")
    if kind not in DESIGN_KINDS:
        _fail("model", "design", f"must be one of {DESIGN_KINDS}, got {kind!r}")
    bound = _parse_float(raw, "model", "bound", 10.0)
    matrix = None
    if kind == "explicit-matrix":
        path = _get(raw, "model", "design_file")
        if path is None:
            _fail("model", "design_file", "required for explicit-matrix designs")
        try:
            data = np.loadtxt(path, delimiter=",", ndmin=2)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"[model] design_file: cannot read {path}: {exc}") from exc
        matrix = tuple(tuple(float(v) for v in row) for row in data)
    try:
        design = DesignSpec(kind=kind, p=truth.p, bound=bound, matrix=matrix)
    except ValueError as exc:
        raise ConfigError(f"[model] {exc}") from exc

    family_noise = _get(raw, "model", "noise", "gaussian")
    if family_noise not in NOISE_FAMILIES:
        _fail("model", "noise", f"must be one of {NOISE_FAMILIES}, got {family_noise!r}")
    sigma = _parse_float(raw, "model", "sigma", 1.0)
    try:
        noise = NoiseSpec(family=family_noise, sigma=sigma)
    except ValueError as exc:
        raise ConfigError(f"[model] {exc}") from exc

    family = _get(raw, "penalty", "family")
    if family is None:
        _fail("penalty", "family", "required")
    if family not in FAMILIES:
        _fail("penalty", "family", f"must be one of {FAMILIES}, got {family!r}")
    c = _parse_float(raw, "schedule", "c", 1.0)
    e = _parse_float(raw, "schedule", "e", 0.5)
    try:
        schedule = TuningSchedule(c=c, e=e)
        gamma = _parse_float(raw, "penalty", "gamma", None)
        a = _parse_float(raw, "penalty", "a", 3.7 if family == "scad" else None)
        tau = None
        if family == "selo":
            tau = TuningSchedule(c=_parse_float(raw, "penalty", "tau_c", 1.0),
                                 e=_parse_float(raw, "penalty", "tau_e", -1.5))
        penalty = PenaltySpec(family=family, schedule=schedule, gamma=gamma, a=a, tau=tau)
    except ValueError as exc:
        raise ConfigError(f"[penalty] {exc}") from exc

    p = truth.p
    if _get(raw, "solver", "box_lo") is not None or _get(raw, "solver", "box_hi") is not None:
        lo = _parse_list(raw, "solver", "box_lo", (-10.0,) * p, float)
        hi = _parse_list(raw, "solver", "box_hi", (10.0,) * p, float)
        if len(lo) == 1:
            lo = lo * p
        if len(hi) == 1:
            hi = hi * p
    else:
        half = _parse_float(raw, "solver", "box_half", 10.0)
        lo, hi = (-half,) * p, (half,) * p
    try:
        box = Box(lo=lo, hi=hi)
        solver = SolverOptions(
            tolerance=_parse_float(raw, "solver", "tolerance", 1e-10),
            max_sweeps=_parse_int(raw, "solver", "max_sweeps", 10_000),
        )
    except ValueError as exc:
        raise ConfigError(f"[solver] {exc}") from exc

    n_grid = _parse_list(raw, "mc", "n_grid", (50, 200, 800), int)
    try:
        mc = MCConfig(
            design=design,
            noise=noise,
            truth=truth,
            penalty=penalty,
            n_grid=n_grid,
            replications=_parse_int(raw, "mc", "replications", 200),
            master_seed=_parse_int(raw, "mc", "seed", 12345),
            box=box,
            solver=solver,
            r_grid=_parse_list(raw, "mc", "r_grid", (0.25, 0.5, 1.0, 2.0, 4.0, 8.0), float),
            moment_orders=_parse_list(raw, "mc", "moment_orders", (2.0, 4.0), float),
            tail_orders=_parse_list(raw, "mc", "tail_orders", (2.0, 4.0), float),
        )
    except ValueError as exc:
        raise ConfigError(f"[mc] {exc}") from exc

    check = CheckSettings(
        beta=_parse_float(raw, "check", "beta", 0.25),
        delta=_parse_float(raw, "check", "delta", 0.25),
        n_grid=_parse_list(raw, "check", "n_grid", _DEFAULT_CHECK_N_GRID, int),
        r_grid=_parse_list(raw, "check", "r_grid", _DEFAULT_CHECK_R_GRID, float),
        a_probes=_parse_list(raw, "check", "a_probes", _DEFAULT_A_PROBES, float),
        b_probes=_parse_list(raw, "check", "b_probes", _DEFAULT_B_PROBES, float),
    )
    if not (0.0 < check.beta < 0.5):
        _fail("check", "beta", f"must lie in (0, 1/2), got {check.beta}")

    n_single = _parse_int(raw, "mc", "n", n_grid[0])
    if n_single < p:
        _fail("mc", "n", f"n={n_single} < p={p}: a fit needs at least p rows")
    if kind == "explicit-matrix":
        requested = {"estimate": [("n", n_single)],
                     "mc": [("n_grid", n) for n in n_grid],
                     "limit": [("n_grid", n_grid[-1])]}.get(command, [])
        for key, n in requested:
            if n != len(matrix):
                _fail("model", "design_file",
                      f"holds {len(matrix)} rows but [mc] {key} requests n={n}")

    return ExperimentConfig(
        mc=mc,
        n_single=n_single,
        out_dir=_get(raw, "output", "dir", "out"),
        check=check,
        response_file=_get(raw, "model", "response_file"),
        raw=raw,
    )


def parse_config(path: str, command: str | None = None) -> ExperimentConfig:
    return build_config(load_raw(path), command)


def config_from_echo(echo: dict) -> ExperimentConfig:
    """Rebuild the experiment from a summary.json config echo (round-trip)."""
    raw = {str(s): {str(k): str(v) for k, v in kv.items()} for s, kv in echo.items()}
    return build_config(raw)
