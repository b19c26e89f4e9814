"""Global minimization of the penalized contrast over a compact box.

Cyclic exact coordinate descent from a deterministic multistart set, with a
brute-force nested-grid oracle for low dimensions. Exact zeros come from the
scalar prox, never from thresholding, so zero-hit events are well defined.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .contrast import Contrast, contrast_value
from .errors import InvalidInputError, InvalidSpecError
from .penalty import scalar_prox_interval
from .util import require_finite

MAX_STARTS = 63
PATTERN_COORDS = 6  # zero-support patterns of multistart sets cover this many leading coordinates


def tiebreak_argmin(groups: np.ndarray, objectives: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Per group, the index of the first row in the order of objective, then
    coordinate magnitudes, then the signed point (the earliest row on a full
    tie). Groups must be sorted; one stable lexsort.

    Magnitudes come before the signed lexicographic order so that exact-zero
    coordinates beat ulp-level perturbations when objectives tie; this keeps
    zero-hit events well defined. `minimize`, `sample_limit_argmin` and
    `pseudo_true` pick with it among the endpoints of one start rule:
    `zeroed_starts` of their unpenalized stationary point.
    """
    order = np.lexsort((*points.T[::-1], *np.abs(points).T[::-1], objectives, groups))
    g = groups[order]
    return order[np.concatenate(([True], g[1:] != g[:-1]))]


@dataclass(frozen=True)
class Box:
    """Per-coordinate closed intervals [lo_j, hi_j]; the compact parameter space."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        for name in ("lo", "hi"):  # Python floats, which the descent reads directly
            object.__setattr__(self, name, tuple(map(float, getattr(self, name))))
        if len(self.lo) != len(self.hi):
            raise InvalidSpecError("box lo/hi lengths differ")
        require_finite(box_lo=self.lo, box_hi=self.hi)
        if any(not (a < b) for a, b in zip(self.lo, self.hi)):
            raise InvalidSpecError("box needs lo_j < hi_j in every coordinate")

    @classmethod
    def cube(cls, p: int, half: float = 10.0) -> "Box":
        return cls(lo=(-half,) * p, hi=(half,) * p)

    @property
    def p(self) -> int:
        return len(self.lo)

    def lo_array(self) -> np.ndarray:
        return np.asarray(self.lo, dtype=float)

    def hi_array(self) -> np.ndarray:
        return np.asarray(self.hi, dtype=float)

    def contains(self, theta) -> bool:
        theta = np.asarray(theta, dtype=float)
        return bool(np.all(theta >= self.lo_array()) and np.all(theta <= self.hi_array()))

    def clip(self, theta) -> np.ndarray:
        return np.clip(np.asarray(theta, dtype=float), self.lo_array(), self.hi_array())

    def on_boundary(self, theta, tol: float = 1e-9):
        """Whether theta is within tol of a face; per row for a stacked (R, p) array."""
        theta = np.asarray(theta, dtype=float)
        near = np.any((theta - self.lo_array() <= tol) | (self.hi_array() - theta <= tol), axis=-1)
        return near if theta.ndim > 1 else bool(near)


@dataclass(frozen=True)
class SolverOptions:
    tolerance: float = 1e-10
    max_sweeps: int = 10_000

    def __post_init__(self):
        if not (self.tolerance > 0.0):
            raise InvalidSpecError("tolerance must be positive")
        require_finite(tolerance=self.tolerance)  # inf would stop every descent after one sweep
        if self.max_sweeps < 1:
            raise InvalidSpecError("max_sweeps must be >= 1")


@dataclass
class EstimateResult:
    """Minimizer of the contrast over the box, with exact-zero bookkeeping."""

    theta_hat: np.ndarray
    z_hat: np.ndarray
    rho_hat: np.ndarray
    objective: float
    exact_zero_flags: np.ndarray
    restarts_used: int
    converged: bool
    iterations: int

    @classmethod
    def at(cls, c: Contrast, theta: np.ndarray, objective: float, restarts_used: int,
           converged: bool, iterations: int) -> "EstimateResult":
        """The result at theta, split into its zero and nonzero blocks."""
        p0 = c.dataset.p0
        return cls(theta_hat=theta, z_hat=theta[:p0].copy(), rho_hat=theta[p0:].copy(),
                   objective=objective, exact_zero_flags=(theta[:p0] == 0.0),
                   restarts_used=restarts_used, converged=converged, iterations=iterations)


class DesignFactor:
    """The design-only work of a fit, done once per X and shared by its fits:
    the finiteness check, Q = X'X as Python lists and pinv(X) for the OLS
    start. pinv cuts singular values at max(n, p) eps times the largest, as
    lstsq(rcond=None) does, so rank-deficient designs keep the minimum-norm
    solution. Holds X; `minimize` uses it only for that very X object."""

    def __init__(self, X: np.ndarray):
        if not np.all(np.isfinite(X)):
            raise InvalidInputError("design contains non-finite values")
        self.X, self.Q = X, (X.T @ X).tolist()
        self.pinv = np.linalg.pinv(X, rcond=max(X.shape) * np.finfo(float).eps)


@functools.lru_cache
def _keep_mask(coords: tuple[int, ...], p: int) -> np.ndarray:
    """Read-only (2**k + 1, p) mask of `zeroed_starts` for k coords, built once per (coords, p)."""
    k = len(coords)
    # bit j of subset i, first coordinate most significant: itertools.product's order
    zeroed = (np.arange(1, 2 ** k)[:, None] >> np.arange(k)[::-1]) & 1
    keep = np.ones((2 ** k + 1, p), dtype=bool)
    keep[1] = False
    keep[2:, list(coords)] = zeroed == 0
    keep.flags.writeable = False
    return keep


def zeroed_starts(base: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Per row of base, in order: the row, the origin, and the row with each
    nonempty subset of `coords` set to 0 (subsets in `itertools.product` order)."""
    keep = _keep_mask(tuple(coords.tolist()), base.shape[1])
    return np.where(keep, base[:, None, :], 0.0).reshape(-1, keep.shape[1])


def _multistart_points(Y: np.ndarray, box: Box, factor: DesignFactor) -> np.ndarray:
    """(k, p) starts from the data alone: the OLS point pinv(X) Y, the origin,
    and OLS with each nonempty subset of its first PATTERN_COORDS coordinates
    set to 0 (`zeroed_starts`), clipped to the box.

    Support patterns target the support-indexed basins of the nonconvex
    penalties; capped at MAX_STARTS starts, byte-duplicate rows dropped in order.
    """
    ols = factor.pinv @ Y
    starts = box.clip(zeroed_starts(ols[None], np.arange(min(ols.size, PATTERN_COORDS)))[:MAX_STARTS])
    first = {row.tobytes(): i for i, row in reversed(list(enumerate(starts)))}  # earliest row wins
    return starts[sorted(first.values())]


def _coordinate_descent(c: Contrast, box: Box, opts: SolverOptions, start: np.ndarray,
                        gram: tuple, memo: dict) -> tuple[list[float], bool, int]:
    """Cyclic exact coordinate descent in Gram form, Q = X'X and q = X'Y.

    Coordinate j moves to the prox of b = theta_j + (q_j - sum_k Q_jk theta_k) / Q_jj
    in Python floats: O(p) per update, no residual, so the cost is flat in n.
    `memo` maps (j, b) to the prox value, a pure function of b's value within
    one fit, so a hit returns the same bits.
    """
    (Q, q), pen, n, lo, hi = gram, c.penalty, c.n, box.lo, box.hi
    theta = start.tolist()
    for sweeps in range(1, opts.max_sweeps + 1):
        max_move = 0.0
        for j, Qj in enumerate(Q):
            if Qj[j] == 0.0:
                # column identically zero: only the penalty sees theta_j
                new = 0.0 if lo[j] <= 0.0 <= hi[j] else (lo[j] if abs(lo[j]) < abs(hi[j]) else hi[j])
            else:
                g = q[j]  # a plain loop: sum() of floats is compensated from Python 3.12
                for Qjk, t in zip(Qj, theta):
                    g -= Qjk * t
                b = theta[j] + g / Qj[j]
                new = memo.get((j, b))
                if new is None:
                    new = memo[j, b] = scalar_prox_interval(pen, n, Qj[j], b, lo[j], hi[j])
            if new != theta[j]:
                max_move = max(max_move, abs(new - theta[j]))
                theta[j] = new
        if max_move <= opts.tolerance:
            return theta, True, sweeps
    return theta, False, opts.max_sweeps


def minimize(c: Contrast, box: Box | None = None, opts: SolverOptions | None = None,
             factor: DesignFactor | None = None) -> EstimateResult:
    """Best terminal point of coordinate descent over the multistart set.

    A function of (X, Y, penalty, box) alone: the starts are those of
    `_multistart_points`, built from Y, never from the generating truth.
    Deterministic: identical inputs give bit-identical results; ties across
    restarts break by `tiebreak_argmin`. `factor` (built here when absent or
    made from another X) gives X'X and the OLS start pinv(X) Y, so a fit forms
    only X'Y. One prox memo serves all starts. After every descent, one
    `contrast_value` call scores the table of starts and endpoints by the exact
    residual objective (the Gram-form RSS cancels when RSS << Y'Y). A start is
    kept verbatim if descent cannot improve it, so the returned objective never
    exceeds any multistart objective. Of the starts that reached the returned
    point, `converged` says whether any converged and `iterations` counts the
    first converged one's sweeps (else the first's).
    """
    if box is None:
        box = Box.cube(c.p)
    if box.p != c.p:
        raise InvalidInputError(f"box has {box.p} coordinates, contrast has {c.p}")
    if opts is None:
        opts = SolverOptions()
    if factor is None or factor.X is not c.dataset.X:
        factor = DesignFactor(c.dataset.X)
    if not np.all(np.isfinite(c.dataset.Y)):
        raise InvalidInputError("responses contain non-finite values")

    starts = _multistart_points(c.dataset.Y, box, factor)
    gram, memo = (factor.Q, (c.dataset.X.T @ c.dataset.Y).tolist()), {}
    runs = (_coordinate_descent(c, box, opts, start, gram, memo) for start in starts)
    ends, conv, sweeps = map(np.array, zip(*runs))
    k = len(starts)
    values = contrast_value(c, np.concatenate((starts, ends)))
    start_obj, obj = values[:k], values[k:]
    back = obj > start_obj  # float-pathological sweep; keep the start itself
    if back.any():
        ends[back], obj[back], conv[back], sweeps[back] = starts[back], start_obj[back], True, 0

    i = j = tiebreak_argmin(np.zeros(k, dtype=int), obj, ends)[0]
    if not conv[i]:  # flags of the first converged start that reached the winner, if any
        reached = np.flatnonzero((obj == obj[i]) & np.all(ends == ends[i], axis=1) & conv)
        j = reached[0] if reached.size else i
    if not np.isfinite(obj[i]):
        raise InvalidInputError(f"the objective overflows: {obj[i]} at the best of {k} starts")
    return EstimateResult.at(c, ends[i], float(obj[i]), k, bool(conv[j]), int(sweeps[j]))


def _lattice_points(center: np.ndarray, span: np.ndarray, box: Box,
                    points_per_axis: int, zero_coords: tuple[int, ...]) -> np.ndarray:
    lo = np.maximum(box.lo_array(), center - span)
    hi = np.minimum(box.hi_array(), center + span)
    axes = [np.linspace(lo[j], hi[j], points_per_axis) for j in range(center.size)]
    # the full lattice, then every subset of zero-block coordinates pinned to
    # exactly 0, so exact-zero minima are representable on the lattice
    pinnable = [j for j in zero_coords if box.lo[j] <= 0.0 <= box.hi[j]]
    subsets = itertools.chain.from_iterable(
        itertools.combinations(pinnable, r) for r in range(len(pinnable) + 1))
    return np.vstack([np.stack(np.meshgrid(*[np.zeros(1) if j in pinned else axes[j]
                                             for j in range(center.size)], indexing="ij"),
                               axis=-1).reshape(-1, center.size) for pinned in subsets])


def grid_oracle(c: Contrast, box: Box | None = None, stages: int = 4,
                points_per_axis: int = 41) -> EstimateResult:
    """Nested-grid brute-force argmin; the independent check for `minimize`.

    Evaluates the full lattice (plus all zero-pinned sub-lattices of the zero
    block), recenters on the best point with the span shrunk by 4/points_per_axis,
    and repeats. Monotone across stages because the running best is kept.
    Refuses p > 3 as a cost guard.
    """
    if box is None:
        box = Box.cube(c.p)
    if c.p > 3:
        raise InvalidInputError("grid oracle refuses p > 3 (cost guard)")
    if points_per_axis < 11:
        raise InvalidInputError("points_per_axis must be >= 11")
    if stages < 1:
        raise InvalidInputError("stages must be >= 1")

    zero_coords = tuple(range(c.dataset.p0))
    lo, hi = box.lo_array(), box.hi_array()
    center = 0.5 * (lo + hi)
    span = 0.5 * (hi - lo)
    best_obj = math.inf
    best_pt = center.copy()
    for _ in range(stages):
        pts = _lattice_points(center, span, box, points_per_axis, zero_coords)
        vals = contrast_value(c, pts)
        low = vals == np.min(vals)
        # the running best goes first, so it keeps a full tie
        objs = np.r_[best_obj, vals[low]]
        cands = np.vstack([best_pt, pts[low]])
        i = tiebreak_argmin(np.zeros(objs.size, dtype=int), objs, cands)[0]
        best_obj, best_pt = float(objs[i]), cands[i]
        center = best_pt.copy()
        span = span * (4.0 / points_per_axis)

    return EstimateResult.at(c, best_pt, best_obj, stages, True, stages)
