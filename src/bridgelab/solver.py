"""Global minimization of the penalized contrast over a compact box.

Cyclic exact coordinate descent from a deterministic multistart set, with a
brute-force nested-grid oracle for low dimensions. Exact zeros come from the
scalar prox, never from thresholding, so zero-hit events are well defined.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .contrast import Contrast, contrast_on_points, contrast_value
from .errors import InvalidInputError, InvalidSpecError
from .penalty import scalar_prox_interval

MAX_STARTS = 64
PATTERN_COORDS = 6  # zero-support patterns of multistart sets cover this many leading coordinates


def tiebreak_key(objective: float, theta: np.ndarray) -> tuple:
    """Order candidates by objective, then coordinate magnitudes, then sign.

    Magnitudes come before the signed lexicographic order so that exact-zero
    coordinates beat ulp-level perturbations when objectives tie; this keeps
    zero-hit events and noiseless recovery well defined.
    """
    return (objective, tuple(np.abs(theta)), tuple(theta))


def tiebreak_argmin(groups: np.ndarray, objectives: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Per group, the index of the row that tiebreak_key ranks first (the
    earliest row on a full tie). Groups must be sorted; one stable lexsort."""
    order = np.lexsort((*points.T[::-1], *np.abs(points).T[::-1], objectives, groups))
    g = groups[order]
    return order[np.r_[True, g[1:] != g[:-1]]]


@dataclass(frozen=True)
class Box:
    """Per-coordinate closed intervals [lo_j, hi_j]; the compact parameter space."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise InvalidSpecError("box lo/hi lengths differ")
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


def _multistart_points(c: Contrast, box: Box) -> list[np.ndarray]:
    """OLS projection, origin, generating truth, and zero-support patterns of OLS.

    Support patterns target the support-indexed basins of the nonconvex
    penalties; capped at MAX_STARTS starts, duplicates dropped.
    """
    ols = box.clip(np.linalg.lstsq(c.dataset.X, c.dataset.Y, rcond=None)[0])
    origin = box.clip(np.zeros(c.p))
    starts = [ols, origin, box.clip(c.dataset.truth.theta)]
    k = min(c.p, PATTERN_COORDS)
    for mask in itertools.product((False, True), repeat=k):
        if len(starts) >= MAX_STARTS:
            break
        starts.append(np.where(mask + (False,) * (c.p - k), origin, ols))
    return list({s.tobytes(): s for s in starts}.values())


def _gram(c: Contrast) -> tuple[list, list]:
    X, Y = c.dataset.X, c.dataset.Y
    return (X.T @ X).tolist(), (X.T @ Y).tolist()


def _coordinate_descent(c: Contrast, box: Box, opts: SolverOptions, start: np.ndarray,
                        gram: tuple | None = None,
                        memo: dict | None = None) -> tuple[np.ndarray, bool, int]:
    """Cyclic exact coordinate descent in Gram form, Q = X'X and q = X'Y.

    Coordinate j moves to the prox of b = theta_j + (q_j - sum_k Q_jk theta_k) / Q_jj
    in Python floats: O(p) per update, no residual, so the cost is flat in n.
    `memo` maps (j, b) to the prox value, a pure function of b within one fit,
    so a hit returns the same bits; b = +-0.0 (one dict key) bypasses it.
    """
    Q, q = gram or _gram(c)
    memo = {} if memo is None else memo
    pen, n, lo, hi = c.penalty, c.n, box.lo_array().tolist(), box.hi_array().tolist()
    theta = start.astype(float).tolist()
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
                new = memo.get((j, b)) if b else None
                if new is None:
                    new = memo[j, b] = scalar_prox_interval(pen, n, Qj[j], b, lo[j], hi[j])
            if new != theta[j]:
                max_move = max(max_move, abs(new - theta[j]))
                theta[j] = new
        if max_move <= opts.tolerance:
            return np.array(theta), True, sweeps
    return np.array(theta), False, opts.max_sweeps


def minimize(c: Contrast, box: Box | None = None,
             opts: SolverOptions | None = None) -> EstimateResult:
    """Best terminal point of coordinate descent over the multistart set.

    Deterministic: identical inputs give bit-identical results; ties across
    restarts break toward the smaller objective, then smaller coordinate
    magnitudes, then the lexicographically smaller point. A start is kept
    verbatim if descent cannot improve it, so the returned objective never
    exceeds any multistart objective. Points are compared on the exact
    residual objective (the Gram-form RSS cancels when RSS << Y'Y), evaluated
    once per distinct point; one prox memo serves all starts. `converged` is
    true when any start that reached the returned point converged.
    """
    if box is None:
        box = Box.cube(c.p)
    if box.p != c.p:
        raise InvalidInputError(f"box has {box.p} coordinates, contrast has {c.p}")
    if opts is None:
        opts = SolverOptions()
    if not (np.all(np.isfinite(c.dataset.X)) and np.all(np.isfinite(c.dataset.Y))):
        raise InvalidInputError("design or responses contain non-finite values")

    starts = _multistart_points(c, box)
    gram, memo, values = _gram(c), {}, {}

    def value(theta: np.ndarray) -> float:
        key = theta.tobytes()
        if key not in values:
            values[key] = contrast_value(c, theta)
        return values[key]

    best = None
    for start in starts:
        theta, conv, sweeps = _coordinate_descent(c, box, opts, start, gram, memo)
        obj, start_obj = value(theta), value(start)
        if obj > start_obj:  # float-pathological sweep; keep the start itself
            theta, obj, conv, sweeps = start.copy(), start_obj, True, 0
        key = tiebreak_key(obj, theta)
        if best is None or key < best[0]:
            best = [key, theta, obj, conv, sweeps]
        elif key == best[0]:
            best[3] = best[3] or conv

    _, theta, obj, conv, sweeps = best
    return EstimateResult.at(c, theta, obj, len(starts), conv, sweeps)


def _lattice_points(center: np.ndarray, span: np.ndarray, box: Box,
                    points_per_axis: int, zero_coords: tuple[int, ...]) -> np.ndarray:
    lo = np.maximum(box.lo_array(), center - span)
    hi = np.minimum(box.hi_array(), center + span)
    axes = [np.linspace(lo[j], hi[j], points_per_axis) for j in range(center.size)]
    blocks = []
    free_all = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, center.size)
    blocks.append(free_all)
    # every subset of zero-block coordinates pinned to exactly 0, so exact-zero
    # minima are representable on the lattice
    pinnable = [j for j in zero_coords if box.lo[j] <= 0.0 <= box.hi[j]]
    for r in range(1, len(pinnable) + 1):
        for subset in itertools.combinations(pinnable, r):
            free = [j for j in range(center.size) if j not in subset]
            if free:
                grid = np.stack(np.meshgrid(*[axes[j] for j in free], indexing="ij"),
                                axis=-1).reshape(-1, len(free))
            else:
                grid = np.zeros((1, 0))
            pts = np.zeros((grid.shape[0], center.size))
            pts[:, free] = grid
            blocks.append(pts)
    return np.vstack(blocks)


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
        vals = contrast_on_points(c, pts)
        low = vals == np.min(vals)
        # the running best goes first, so it keeps a full tie
        objs = np.r_[best_obj, vals[low]]
        cands = np.vstack([best_pt, pts[low]])
        i = tiebreak_argmin(np.zeros(objs.size, dtype=int), objs, cands)[0]
        best_obj, best_pt = float(objs[i]), cands[i]
        center = best_pt.copy()
        span = span * (4.0 / points_per_axis)

    return EstimateResult.at(c, best_pt, best_obj, stages, True, stages)
