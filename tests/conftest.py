"""Shared test oracles: independent brute-force references for the exact solvers,
and the paper's localized fields and decompositions that the tests check the
package against. None of these is run by a command."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from bridgelab.contrast import Contrast, contrast_value
from bridgelab.errors import InvalidInputError
from bridgelab.model import Dataset, generate_design, simulate_responses
from bridgelab.penalty import PenaltySpec, TuningSchedule, penalty_total, penalty_value
from bridgelab.solver import Box, EstimateResult, box_descent, tiebreak_argmin
from bridgelab.util import fit_line, rows_times

# the p_n = 0 spec of unpenalized fits and degenerate checks
NO_PENALTY = PenaltySpec(family="none", schedule=TuningSchedule(c=0.0, e=0.0))

DELTA_TRUE_NOISE = "true-noise"
DELTA_ESTIMATED = "estimated"


def make_dataset(design, truth, noise, n: int, design_seed: int, noise_seed: int) -> Dataset:
    """generate_design then simulate_responses, with the generating truth attached."""
    X = generate_design(design, n, design_seed)
    return Dataset(X=X, Y=simulate_responses(X, truth, noise, noise_seed), truth=truth, n=n)


def box_contains(box: Box, theta) -> bool:
    """Whether theta lies in the closed box."""
    theta = np.asarray(theta, dtype=float)
    return bool(np.all(theta >= box.lo_array()) and np.all(theta <= box.hi_array()))


def multistart_argmin(Q, q, base, starts, pens, n, lo=-np.inf, hi=np.inf, tolerance=1e-13, max_sweeps=2000):
    """`solver.box_argmin` rebuilt on a given start set, with no duplicate drop and
    no one-start rule: `starts` holds k rows per row b of `base`, in order. Every
    start, clipped to the box, descends by `box_descent` with its b's row of q;
    starts and endpoints are ranked by (u - b)'Q(u - b) + sum_j p_j(u_j), each sum
    in index order; a start is kept where its endpoint ranks higher, and
    `tiebreak_argmin` picks per b. Returns (winners, endpoints, sweeps, converged)."""
    base = np.asarray(base, dtype=float)
    k = starts.shape[0] // base.shape[0]
    b = np.repeat(base, k, axis=0)
    starts = np.clip(starts, lo, hi)
    ends, sweeps, conv = box_descent(Q, np.repeat(np.broadcast_to(q, base.shape), k, axis=0), pens, n,
                                     starts, lo, hi, tolerance, max_sweeps)
    ones = np.ones((base.shape[1], 1))

    def rank(U):
        d = U - b
        penalties = np.stack([penalty_value(pen, n, u) for pen, u in zip(pens, U.T)], axis=1)
        return (rows_times(rows_times(d, Q) * d, ones) + rows_times(penalties, ones))[:, 0]

    with np.errstate(over="ignore", invalid="ignore"):
        start_values, values = rank(starts), rank(ends)
    back = values > start_values
    ends[back], values[back], sweeps[back], conv[back] = starts[back], start_values[back], 0, True
    return tiebreak_argmin(np.arange(ends.shape[0]) // k, values, ends), ends, sweeps, conv


def scalar_objective(pen, n, c, b, x):
    return c * (np.asarray(x, dtype=float) - b) ** 2 + penalty_value(pen, n, x)


def prox_grid_oracle(pen, n, c, b, stages=3, points=2001, pad=1.0):
    """Nested-grid argmin of the scalar prox objective over [-|b|-pad, |b|+pad].

    Independent of the prox implementation: pure lattice evaluation with the
    exact-zero point injected at every stage.
    """
    center = 0.0
    span = abs(b) + pad
    best_x, best_f = 0.0, float(scalar_objective(pen, n, c, b, 0.0))
    for _ in range(stages):
        xs = np.linspace(center - span, center + span, points)
        xs = np.append(xs, 0.0)
        fs = scalar_objective(pen, n, c, b, xs)
        i = int(np.argmin(fs))
        if fs[i] < best_f:
            best_f = float(fs[i])
            best_x = float(xs[i])
        center = best_x
        span *= 4.0 / points
    return best_x, best_f


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

    zero_coords = tuple(range(c.dataset.truth.p0))
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


@dataclass
class PlaqParts:
    """Linear term, quadratic term, and remainder evaluator of the localized contrast.

    M_n(u) = delta . u + (1/2) u' Gamma0 u + remainder(u), exactly, where
    delta = -(2/sqrt(n)) sum_i eps_i X_i, Gamma0 = 2 C0, and the remainder
    collects (C_n - C0)[u,u] plus the penalty difference along u/sqrt(n).
    """

    delta: np.ndarray
    gamma0: np.ndarray
    remainder: object  # u -> float; closure over immutable data
    delta_source: str  # "true-noise" in simulation mode, "estimated" otherwise

    def reconstruct(self, u) -> float:
        u = np.asarray(u, dtype=float)
        return float(self.delta @ u + 0.5 * u @ self.gamma0 @ u + self.remainder(u))


def local_field(c: Contrast, theta0, u, rate: float | None = None) -> float:
    """M_n(u) = Z_n(theta0 + rate*u) - Z_n(theta0) with rate = n^-1/2 by default."""
    theta0 = np.asarray(theta0, dtype=float)
    u = np.asarray(u, dtype=float)
    if rate is None:
        rate = 1.0 / math.sqrt(c.n)
    if not (rate > 0.0):
        raise InvalidInputError("rate must be positive")
    return contrast_value(c, theta0 + rate * u) - contrast_value(c, theta0)


def plaq_decompose(c: Contrast, theta0, C0) -> PlaqParts:
    """Split the localized contrast at theta0 into linear + quadratic + remainder.

    The decomposition is algebra, not approximation: the reconstruction
    identity holds to float tolerance for every dataset, penalty, and
    localization point. Residuals at theta0 play the role of the noise; when
    theta0 is the dataset's generating truth they are the true noise,
    otherwise the parts are flagged as estimated.
    """
    theta0 = np.asarray(theta0, dtype=float)
    C0 = np.asarray(C0, dtype=float)
    X, Y, n = c.dataset.X, c.dataset.Y, c.n
    eps = Y - X @ theta0
    source = DELTA_TRUE_NOISE if np.array_equal(theta0, c.dataset.truth.theta) else DELTA_ESTIMATED
    delta = -(2.0 / math.sqrt(n)) * (X.T @ eps)
    gamma0 = 2.0 * C0
    C_n = X.T @ X / n
    pen = c.penalty
    base_pen = penalty_total(pen, n, theta0)

    def remainder(u) -> float:
        u = np.asarray(u, dtype=float)
        quad = float(u @ (C_n - C0) @ u)
        pen_diff = penalty_total(pen, n, theta0 + u / math.sqrt(n)) - base_pen
        return quad + pen_diff

    return PlaqParts(delta=delta, gamma0=gamma0, remainder=remainder, delta_source=source)


def yn_field(c: Contrast, theta, theta0) -> float:
    """-(1/n) (Z_n(theta) - Z_n(theta0)); the population limit is -C0[theta-theta0]^2."""
    theta = np.asarray(theta, dtype=float)
    theta0 = np.asarray(theta0, dtype=float)
    return -(contrast_value(c, theta) - contrast_value(c, theta0)) / c.n


def profile_field(c: Contrast, u, rho, theta0=None) -> tuple[float, dict]:
    """Zero-block localization at a pinned nonzero block:
    Z_n(u/sqrt(n), rho) - Z_n(0, rho).

    Returns the field value and the diagnostic parts (-S . u, D_n[u,u], the
    zero-block penalty sum); their total reconstructs the value exactly. S is
    the score (2/sqrt(n)) sum_i {eps_i - (rho - rho0).X_i^(rho)} X_i^(z).
    """
    ds = c.dataset
    p0, p1 = ds.truth.p0, ds.truth.p1
    u = np.asarray(u, dtype=float)
    rho = np.asarray(rho, dtype=float)
    if u.shape != (p0,) or rho.shape != (p1,):
        raise InvalidInputError(
            f"expected u of shape ({p0},) and rho of shape ({p1},)")
    theta0 = ds.truth.theta if theta0 is None else np.asarray(theta0, dtype=float)
    rho0 = theta0[p0:]
    n = ds.n

    theta_u = np.concatenate([u / math.sqrt(n), rho])
    theta_0 = np.concatenate([np.zeros(p0), rho])
    value = contrast_value(c, theta_u) - contrast_value(c, theta_0)

    Xz, Xr = ds.X[:, :p0], ds.X[:, p0:]
    eps = ds.Y - ds.X @ theta0
    # theta0 has a zero z-block in the sparse setup, where this reduces to the
    # score eps - (rho - rho0).X^(rho); the z-block term keeps the identity
    # exact for arbitrary localization points.
    w = eps + Xz @ theta0[:p0] - Xr @ (rho - rho0)
    score = (2.0 / math.sqrt(n)) * (Xz.T @ w)
    D_n = Xz.T @ Xz / n
    pen_sum = penalty_total(c.penalty, n, u / math.sqrt(n))
    parts = {
        "linear": float(-score @ u),
        "quadratic": float(u @ D_n @ u),
        "penalty": float(pen_sum),
        "score": score,
    }
    return float(value), parts


def fit_tail_slope(r, p_hat, cutoff: float) -> tuple[float | None, str]:
    """Least-squares slope of log p_hat on log r over the informative range."""
    r = np.asarray(r, dtype=float)
    p_hat = np.asarray(p_hat, dtype=float)
    mask = p_hat >= cutoff
    fit = fit_line(np.log(r[mask]), np.log(p_hat[mask]))
    if fit is None:
        if np.all(p_hat == 0.0):
            return None, "all mass at 0"
        return None, "informative range too short for a slope fit"
    return fit[0], ""


def random_penalty(rng, families=("bridge", "scad", "selo"), gammas=(0.5, 1.0, 2.0)):
    """A sane random PenaltySpec for randomized comparison tests."""
    family = families[rng.integers(0, len(families))]
    c = float(rng.uniform(0.05, 3.0))
    e = float(rng.uniform(-0.5, 0.6))
    schedule = TuningSchedule(c=c, e=e)
    if family == "bridge":
        gamma = float(gammas[rng.integers(0, len(gammas))])
        return PenaltySpec(family="bridge", schedule=schedule, gamma=gamma)
    if family == "scad":
        return PenaltySpec(family="scad", schedule=TuningSchedule(c=float(rng.uniform(0.01, 0.5)), e=e),
                           a=float(rng.uniform(2.2, 5.0)))
    tau = TuningSchedule(c=float(rng.uniform(0.01, 1.0)), e=float(rng.uniform(-1.5, 0.0)))
    return PenaltySpec(family="selo", schedule=TuningSchedule(c=float(rng.uniform(0.01, 0.5)), e=e),
                       tau=tau)
