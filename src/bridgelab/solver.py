"""Global minimization of the penalized contrast over a compact box.

Cyclic exact coordinate descent from a deterministic multistart set, run by
one elementwise kernel on every start of a block of fits at once, with a
brute-force nested-grid oracle for low dimensions. Exact zeros come from the
prox, never from thresholding, so zero-hit events are well defined.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .contrast import Contrast, contrast_value
from .errors import InvalidInputError, InvalidSpecError
from .penalty import PenaltySpec, penalty_value, prox_array
from .penalty import scalar_prox_interval  # noqa: F401  (perfbench/tracer.py wraps it; ROADMAP item 1)
from .util import require_finite, rows_times

PATTERN_COORDS = 6  # zero-support patterns of multistart sets cover this many leading coordinates
FACE_TOL = 1e-9  # Box.on_boundary: a coordinate this close to a face touches it


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
        for name in ("lo", "hi"):  # Python floats, whatever the input's type
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

    def on_boundary(self, theta):
        """Whether theta is within FACE_TOL of a face; per row for a stacked (R, p) array."""
        theta = np.asarray(theta, dtype=float)
        near = np.any((theta - self.lo_array() <= FACE_TOL) | (self.hi_array() - theta <= FACE_TOL), axis=-1)
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
    """Minimizer of the contrast over the box and how the search reached it."""

    theta_hat: np.ndarray
    objective: float
    restarts_used: int
    converged: bool
    iterations: int


class DesignFactor:
    """The design-only work of a fit, done once per X and shared by its fits:
    the finiteness check, Q = X'X and pinv(X) for the OLS start. pinv cuts
    singular values at max(n, p) eps times the largest, as lstsq(rcond=None)
    does, so rank-deficient designs keep the minimum-norm solution. Holds X;
    `minimize` uses it only for that very X object."""

    def __init__(self, X: np.ndarray):
        if not np.all(np.isfinite(X)):
            raise InvalidInputError("design contains non-finite values")
        self.X, self.Q = X, X.T @ X
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


def _multistart_points(ols: np.ndarray, box: Box) -> tuple[np.ndarray, np.ndarray]:
    """Starts from the data alone, and the fit of each, for the fits whose OLS
    points pinv(X) Y are the rows of `ols`: per fit the OLS point, the origin
    and OLS with each nonempty subset of its first PATTERN_COORDS coordinates
    set to 0 (`zeroed_starts`; these target the support-indexed basins of the
    nonconvex penalties), clipped to the box, byte-duplicate rows dropped in order."""
    m, p = ols.shape
    starts = box.clip(zeroed_starts(ols, np.arange(min(p, PATTERN_COORDS))))
    fit = np.repeat(np.arange(m), starts.shape[0] // m)
    bits = starts.view(np.int64)
    order = np.lexsort((*bits.T[::-1], fit))  # stable: a fit's equal rows keep their order
    same = np.all(bits[order[1:]] == bits[order[:-1]], axis=1) & (fit[order[1:]] == fit[order[:-1]])
    keep = np.ones(fit.size, dtype=bool)
    keep[order[1:][same]] = False  # every copy after the earliest
    return starts[keep], fit[keep]


def box_descent(Q, q, pens: list[PenaltySpec], n: int, starts, lo=-np.inf, hi=np.inf,
                tolerance: float = 1e-13, max_sweeps: int = 2000):
    """Cyclic exact coordinate descent on u'Qu - 2q'u + sum_j p_j(u_j) over
    lo <= u <= hi (p_j = pens[j] at n) from every row of `starts` at once, each
    with its row of q (or one shared q). Coordinate j moves to `prox_array` of
    b = (q_j - sum_{k != j} Q_jk u_k) / Q_jj, or to the point of [lo_j, hi_j]
    nearest 0 where Q_jj = 0 (only the penalty sees u_j). A row stops after its
    first sweep that moves no coordinate by more than `tolerance`, or after
    `max_sweeps`; sums run elementwise in index order, so a row's endpoint does
    not depend on the other rows. Returns (endpoints, sweeps, converged)."""
    Q = np.asarray(Q, dtype=float)
    p = Q.shape[0]
    lo, hi = np.broadcast_to(lo, p), np.broadcast_to(hi, p)
    U = np.clip(np.asarray(starts, dtype=float), lo, hi)
    q = np.broadcast_to(np.asarray(q, dtype=float), U.shape)
    Q_off = Q - np.diag(np.diag(Q))
    sweeps, converged = np.full(U.shape[0], max_sweeps), np.zeros(U.shape[0], dtype=bool)
    active = np.arange(U.shape[0])
    # an overflowing b (a near-singular Q) gives inf or nan candidates, which never win
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for sweep in range(1, max_sweeps + 1):
            if active.size == 0:
                break
            u, qa = U[active], q[active]
            max_move = np.zeros(active.size)
            for j in range(p):
                if Q[j, j] == 0.0:
                    new = np.full(active.size, np.clip(0.0, lo[j], hi[j]) + 0.0)
                else:
                    b = (qa[:, j] - rows_times(u, Q_off[:, j:j + 1])[:, 0]) / Q[j, j]
                    new = prox_array(pens[j], n, Q[j, j], b, lo[j], hi[j])
                max_move = np.maximum(max_move, np.abs(new - u[:, j]))
                u[:, j] = new
            U[active] = u
            moving = max_move > tolerance
            sweeps[active[~moving]], converged[active[~moving]] = sweep, True
            active = active[moving]
    return U, sweeps, converged


def minimize_block(contrasts: list[Contrast], box: Box, opts: SolverOptions,
                   factor: DesignFactor) -> list[EstimateResult]:
    """`minimize` on fits that share factor.X, the penalty and n, each with its
    own Y: one `box_descent` call, stopped by `opts`, runs every start
    (`_multistart_points`) of every fit, and a fit's bits do not depend on the
    others. One `contrast_value` call per fit then scores its starts and
    endpoints by the exact residual objective (the Gram-form RSS cancels when
    RSS << Y'Y). A start is kept verbatim if descent cannot improve it, so the
    returned objective never exceeds any multistart objective, and
    `tiebreak_argmin` picks each fit's winner. Of the starts that reached it,
    `converged` says whether any converged and `iterations` counts the first
    converged one's sweeps (else the first's)."""
    X, pen, n = factor.X, contrasts[0].penalty, contrasts[0].n
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf in a sum is nan
        qs = np.array([X.T @ c.dataset.Y for c in contrasts])
    bad = np.flatnonzero(~np.all(np.isfinite(qs), axis=1))
    if bad.size:  # a non-finite Y makes q non-finite too
        if not np.all(np.isfinite(contrasts[bad[0]].dataset.Y)):
            raise InvalidInputError("responses contain non-finite values")
        raise InvalidInputError(f"X'Y overflows: {qs[bad[0]].tolist()}")
    lo, hi = box.lo_array(), box.hi_array()
    for j in np.flatnonzero(np.diag(factor.Q) != 0.0):
        penalty_value(pen, n, max(-lo[j], hi[j]))  # a bridge value that overflows in the box raises

    S, group = _multistart_points(np.array([factor.pinv @ c.dataset.Y for c in contrasts]), box)
    counts = np.bincount(group, minlength=len(contrasts))
    first = np.concatenate(([0], np.cumsum(counts)))
    ends, sweeps, conv = box_descent(factor.Q, qs[group], [pen] * X.shape[1], n, S,
                                     lo, hi, opts.tolerance, opts.max_sweeps)
    start_obj, obj = np.empty(S.shape[0]), np.empty(S.shape[0])
    for c, a, z in zip(contrasts, first, first[1:]):
        values = contrast_value(c, np.concatenate((S[a:z], ends[a:z])))
        start_obj[a:z], obj[a:z] = values[:z - a], values[z - a:]
    back = obj > start_obj  # float-pathological sweep; keep the start itself
    ends[back], obj[back], conv[back], sweeps[back] = S[back], start_obj[back], True, 0

    win = tiebreak_argmin(group, obj, ends)
    bad = np.flatnonzero(~np.isfinite(obj[win]))
    if bad.size:
        raise InvalidInputError(f"the objective overflows: {obj[win[bad[0]]]} "
                                f"at the best of {counts[bad[0]]} starts")
    # flags of the first converged start that reached the winner, if any
    w = win[group]
    reached = np.flatnonzero(conv & (obj == obj[w]) & np.all(ends == ends[w], axis=1))
    fits, earliest = np.unique(group[reached], return_index=True)
    flag = win.copy()
    flag[fits] = reached[earliest]
    flag = np.where(conv[win], win, flag)
    return [EstimateResult(ends[i], float(obj[i]), int(k), bool(conv[j]), int(sweeps[j]))
            for i, j, k in zip(win, flag, counts)]


def minimize(c: Contrast, box: Box | None = None, opts: SolverOptions | None = None,
             factor: DesignFactor | None = None) -> EstimateResult:
    """Best terminal point of coordinate descent over the multistart set:
    `minimize_block` on one fit, a function of (X, Y, penalty, box) alone (the
    starts are built from Y, never from the generating truth). `factor` (built
    here when absent or made from another X) gives X'X and pinv(X)."""
    if box is None:
        box = Box.cube(c.p)
    if box.p != c.p:
        raise InvalidInputError(f"box has {box.p} coordinates, contrast has {c.p}")
    if opts is None:
        opts = SolverOptions()
    if factor is None or factor.X is not c.dataset.X:
        factor = DesignFactor(c.dataset.X)
    return minimize_block([c], box, opts, factor)[0]


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

    return EstimateResult(best_pt, best_obj, stages, True, stages)
