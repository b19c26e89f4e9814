"""Global minimization of the penalized contrast over a compact box.

Cyclic exact coordinate descent from a deterministic multistart set, run by
one elementwise kernel on every start of a block of fits at once, and one
argmin around it (`box_argmin`: starts, ranking, pick) that the fits, the
limit sampler and the pseudo-true point share. Exact zeros come from the
prox, never from thresholding, so zero-hit events are well defined.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .contrast import Contrast, contrast_value
from .errors import InvalidInputError, InvalidSpecError
from .model import Dataset
from .penalty import PenaltySpec, checked_penalty_value, penalty_value, prox_array
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
    zero-hit events well defined. `box_argmin`, the one argmin of fits, limit
    draws and the pseudo-true point, picks with it and no other code does.
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


def ols_pinv(X: np.ndarray) -> np.ndarray:
    """pinv(X) of the OLS start pinv(X) Y: singular values cut at max(n, p) eps
    times the largest, as lstsq(rcond=None) does, so rank-deficient designs
    keep the minimum-norm solution."""
    return np.linalg.pinv(X, rcond=max(X.shape) * np.finfo(float).eps)


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


def box_argmin(Q, q, base, coords, pens: list[PenaltySpec], n: int, lo=-np.inf, hi=np.inf,
               tolerance: float = 1e-13, max_sweeps: int = 2000):
    """Argmin over lo <= u <= hi of (u - b)'Q(u - b) + sum_j p_j(u_j) per row b of
    `base`, a stationary point Q b = q (q one row, or one per b): the one argmin
    of fits, limit draws and the pseudo-true point. Starts: `zeroed_starts` of
    b clipped to the box, byte duplicates of one b dropped in order; b alone if
    Q is diagonal and base finite, as every start then ends on the same bits.
    One `box_descent` call runs them. Starts and endpoints are ranked by the
    objective, summed elementwise so no row's value depends on the others; a
    start is kept where its descent ends higher, and `tiebreak_argmin` picks.
    Returns (winner per b, endpoints, ranking values, b of each, sweeps, converged)."""
    Q, base = np.asarray(Q, dtype=float), np.asarray(base, dtype=float)
    m, p = base.shape
    lo, hi = np.broadcast_to(lo, p), np.broadcast_to(hi, p)
    if np.any(Q[~np.eye(p, dtype=bool)]) or not np.all(np.isfinite(base)):
        starts = np.clip(zeroed_starts(base, coords), lo, hi)
        row = np.repeat(np.arange(m), starts.shape[0] // m)
        key = np.column_stack((row, starts.view(np.int64)))
        order = np.lexsort(key.T[::-1])  # stable: a b's equal starts keep their order
        copies = order[1:][np.all(key[order[1:]] == key[order[:-1]], axis=1)]  # all but the earliest
        starts, row = np.delete(starts, copies, axis=0), np.delete(row, copies)
    else:
        starts, row = np.clip(base, lo, hi), np.arange(m)
    ends, sweeps, conv = box_descent(Q, np.broadcast_to(q, base.shape)[row], pens, n, starts,
                                     lo, hi, tolerance, max_sweeps)
    b, ones = base[row], np.ones((p, 1))

    def rank(U):  # starts and endpoints apart: at p = 2 a 4,096-draw block's temporaries stay at 64 KiB
        d, penalties = U - b, np.stack([penalty_value(pen, n, u) for pen, u in zip(pens, U.T)], axis=1)
        return (rows_times(rows_times(d, Q) * d, ones) + rows_times(penalties, ones))[:, 0]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing value is inf or nan and never wins
        start_value, value = rank(starts), rank(ends)
    back = value > start_value  # float-pathological sweep; keep the start itself
    ends[back], value[back], conv[back], sweeps[back] = starts[back], start_value[back], True, 0
    return tiebreak_argmin(row, value, ends), ends, value, row, sweeps, conv


def minimize_block(X: np.ndarray, Y: np.ndarray, pen: PenaltySpec, n: int, box: Box, opts: SolverOptions):
    """`minimize` on the fits of the rows of Y, which share X, the penalty and
    n: X'X and pinv(X) are formed once, q = X'Y and the OLS points pinv(X) Y
    by one stacked matmul each, and one `box_argmin` call from the OLS points,
    stopped by `opts`, fits them all (zero patterns of the first PATTERN_COORDS
    coordinates target the nonconvex penalties' basins); a fit's bits do not
    depend on the others. Its ranking is Z_n less RSS(OLS), as X'(Y - X OLS) = 0;
    one block `contrast_value` call scores the winners alone by the exact
    residual objective. Of the starts that end on the winner's bits, `converged`
    says whether any converged and `iterations` counts the first converged
    one's sweeps (else the winner's). Returns per-fit arrays (theta_hat,
    objective, converged, iterations, starts)."""
    if not np.all(np.isfinite(X)):
        raise InvalidInputError("design contains non-finite values")
    Q = X.T @ X
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf in a sum is nan
        qs = np.matmul(X.T, Y[:, :, None])[:, :, 0]
    bad = np.flatnonzero(~np.all(np.isfinite(qs), axis=1))
    if bad.size:  # a non-finite Y makes q non-finite too
        if not np.all(np.isfinite(Y[bad[0]])):
            raise InvalidInputError("responses contain non-finite values")
        raise InvalidInputError(f"X'Y overflows: {qs[bad[0]].tolist()}")
    lo, hi = box.lo_array(), box.hi_array()
    checked_penalty_value(pen, n, np.maximum(-lo, hi)[np.diag(Q) != 0.0])  # at the far box ends

    m, p = Y.shape[0], X.shape[1]
    win, ends, _, group, sweeps, conv = box_argmin(
        Q, qs, np.matmul(ols_pinv(X), Y[:, :, None])[:, :, 0], np.arange(min(p, PATTERN_COORDS)),
        [pen] * p, n, lo, hi, opts.tolerance, opts.max_sweeps)
    counts = np.bincount(group, minlength=m)
    obj = contrast_value(Contrast(Dataset(X=X, Y=Y, truth=None, n=n), pen), ends[win], np.arange(m))
    bad = np.flatnonzero(~np.isfinite(obj))
    if bad.size:
        raise InvalidInputError(f"the objective overflows: {obj[bad[0]]} at the best of {counts[bad[0]]} starts")
    # flags of the first converged start with the winner's bits, if any; the winner is the first with them
    bits = ends.view(np.int64)
    reached = np.flatnonzero(conv & np.all(bits == bits[win[group]], axis=1))
    fits, earliest = np.unique(group[reached], return_index=True)
    flag = win.copy()
    flag[fits] = reached[earliest]
    return ends[win], obj, conv[flag], sweeps[flag], counts


def minimize(c: Contrast, box: Box | None = None, opts: SolverOptions | None = None) -> EstimateResult:
    """Best terminal point of coordinate descent over the multistart set:
    `minimize_block` on one fit, a function of (X, Y, penalty, box) alone (the
    starts are built from Y, never from the generating truth)."""
    if box is None:
        box = Box.cube(c.p)
    if box.p != c.p:
        raise InvalidInputError(f"box has {box.p} coordinates, contrast has {c.p}")
    theta, obj, conv, iterations, starts = minimize_block(
        c.dataset.X, np.asarray(c.dataset.Y, dtype=float)[None], c.penalty, c.n, box, opts or SolverOptions())
    return EstimateResult(theta[0], float(obj[0]), int(starts[0]), bool(conv[0]), int(iterations[0]))
