"""Seed derivation, the spec finiteness check, per-row dots, boundedness
heuristics, condition reports, line fits, and byte-stable serialization helpers."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidSpecError

PLAUSIBLY_BOUNDED = "plausibly-bounded"
GROWING = "growing"


def derive_seed(*parts: int) -> int:
    """Derive a 64-bit seed from integer parts, independent of call order elsewhere.

    Built on numpy's SeedSequence so that streams for distinct part tuples are
    statistically independent and the mapping is stable across platforms.
    """
    ss = np.random.SeedSequence([int(p) & 0xFFFFFFFFFFFFFFFF for p in parts])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def require_finite(**values) -> None:
    """Raise InvalidSpecError naming the first value (a float or a tuple of
    floats) that holds a nan or an infinity; None passes."""
    for name, value in values.items():
        if value is not None and not np.all(np.isfinite(value)):
            raise InvalidSpecError(f"{name} must be finite, got {value}")


def spawn_rng(*parts: int) -> np.random.Generator:
    """Generator seeded by :func:`derive_seed` of the given parts."""
    return np.random.default_rng(derive_seed(*parts))


def row_squares(A: np.ndarray) -> np.ndarray:
    """Sum of squares per row of a 2-D array: one dot per row, the bits of each
    row's own `r @ r` (np.einsum and np.sum(A**2, axis=1) add in other orders)."""
    return (A[:, None, :] @ A[:, :, None]).ravel()


def boundedness_verdict(values, ratio: float = 2.0, floor: float = 1e-10) -> str:
    """Classify a finite-n sequence as plausibly bounded or growing.

    "growing" requires both a last-to-first ratio above `ratio` and monotone
    increase on the top half of the grid. Values at or below `floor` count as
    zero, so float-roundoff sequences (e.g. n^delta times a 1e-16 residual)
    stay bounded. Asymptotic boundedness is not decidable from finite data;
    this is a diagnostic, not a proof.
    """
    v = np.asarray(values, dtype=float)
    if v.size < 2:
        return PLAUSIBLY_BOUNDED
    first, last = v[0], v[-1]
    if last <= floor:
        return PLAUSIBLY_BOUNDED
    ratio_exceeded = (first <= floor) or (last / first > ratio)
    top = v[v.size // 2:]
    monotone_top = bool(np.all(np.diff(top) > 0.0))
    return GROWING if (ratio_exceeded and monotone_top) else PLAUSIBLY_BOUNDED


@dataclass
class ConditionReport:
    """Finite-n diagnostic for one design- or penalty-side condition: its
    values over the n-grid (and probes, when it has them) and a verdict."""

    condition: str
    n_grid: tuple[int, ...]
    values: np.ndarray | tuple[float, ...]
    verdict: str
    probes: tuple | None = None
    fitted_exponent: float | None = None
    fit_error: float | None = None
    kappa: int | None = None
    detail: dict = field(default_factory=dict)
    note: str = ""

    def to_jsonable(self) -> dict:
        out = {"condition": self.condition, "n_grid": list(self.n_grid)}
        if self.probes is not None:
            out["probes"] = [list(p) if isinstance(p, tuple) else p for p in self.probes]
        out["values"] = np.asarray(self.values).tolist()
        out["verdict"] = self.verdict
        for key in ("fitted_exponent", "fit_error", "kappa"):
            if getattr(self, key) is not None:
                out[key] = getattr(self, key)
        if self.detail:
            out["detail"] = self.detail
        if self.note:
            out["note"] = self.note
        return out


def fit_line(x, y) -> tuple[float, float] | None:
    """Least-squares slope of y on x and the RMS residual of the line, or None
    when x has fewer than two distinct values."""
    if x.size < 2 or float(np.ptp(x)) == 0.0:
        return None
    A = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    return float(coef[0]), float(np.sqrt(np.mean((A @ coef - y) ** 2)))


def format_float(x: float) -> str:
    """Full-precision decimal text for CSV cells ('.' decimal, no separators)."""
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    xf = float(x)
    if math.isnan(xf):
        return "nan"
    if math.isinf(xf):
        return "inf" if xf > 0 else "-inf"
    return format(xf, ".17g")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        xf = float(obj)
        if math.isnan(xf):
            return "nan"
        if math.isinf(xf):
            return "inf" if xf > 0 else "-inf"
        return xf
    return obj


def canonical_json(obj) -> str:
    """Deterministic JSON text: fixed separators, round-trip-exact floats, trailing newline.

    Non-finite floats are emitted as the strings "inf"/"-inf"/"nan" so the
    output stays strict JSON.
    """
    return json.dumps(_jsonable(obj), indent=2, separators=(",", ": ")) + "\n"
