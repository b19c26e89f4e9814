"""Limit objects: regime classification, the limit random field and its argmin
sampler, sparse-limit parameters, and the pseudo-true point for the
lambda_n/n -> lambda0 > 0 regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, UnsupportedRegimeError
from .penalty import TuningSchedule, power_prox_candidates
from .solver import PATTERN_COORDS, Box, tiebreak_argmin, zeroed_starts
from .util import spawned_normals

REGIME_STANDARD = "standard"
REGIME_SPARSE_NORMAL = "sparse-normal"
REGIME_SPARSE_SLOW = "sparse-slow"
REGIME_PSEUDO_TRUE = "pseudo-true"


@dataclass
class Regime:
    """Asymptotic regime selected by the schedule exponent and the bridge index."""

    tag: str
    lambda0: float | None
    rate_limits: dict = field(default_factory=dict)


@dataclass
class LimitLaw:
    """Regime tag plus the limit-distribution ingredients it implies."""

    regime: Regime
    gamma: float
    sigma2: float
    C0: np.ndarray | None = None
    theta0: np.ndarray | None = None
    B0: np.ndarray | None = None
    rho0: np.ndarray | None = None
    upsilon: np.ndarray | None = None
    bias: np.ndarray | None = None
    cov: np.ndarray | None = None
    drift: np.ndarray | None = None
    pseudo_true_point: np.ndarray | None = None
    pseudo_zero_flags: np.ndarray | None = None
    rate_descriptors: dict = field(default_factory=dict)


def _limit_of_ratio(c: float, e: float, x: float) -> float:
    """lim_n c * n^e / n^x as an element of [0, inf]."""
    if c == 0.0:
        return 0.0
    if e < x:
        return 0.0
    if e == x:
        return c
    return math.inf


def regime_classify(gamma: float, schedule: TuningSchedule) -> Regime:
    """Map (gamma, lambda_n = c n^e) to the regime its limit theorem covers.

    The tag depends only on e and gamma; the constant c enters only through
    lambda0 when e hits the critical exponent. Exponents above 1, and the cell
    gamma >= 1 with e in (1/2, 1), are rejected: no theorem covers them.
    """
    if not (gamma > 0.0):
        raise InvalidInputError(f"gamma must be positive, got {gamma}")
    c, e = schedule.c, schedule.e
    crit = min(1.0, gamma) / 2.0
    limits = {
        "critical": _limit_of_ratio(c, e, crit),
        "gamma_half": _limit_of_ratio(c, e, gamma / 2.0),
        "sqrt_n": _limit_of_ratio(c, e, 0.5),
        "linear": _limit_of_ratio(c, e, 1.0),
    }
    if c == 0.0:
        return Regime(tag=REGIME_STANDARD, lambda0=0.0, rate_limits=limits)
    if e > 1.0:
        raise UnsupportedRegimeError(
            f"schedule exponent e={e} > 1: the penalty dominates the squared loss "
            "and no limit theorem covers it")
    if e == 1.0:
        return Regime(tag=REGIME_PSEUDO_TRUE, lambda0=c, rate_limits=limits)
    if e <= crit:
        lam0 = c if e == crit else 0.0
        return Regime(tag=REGIME_STANDARD, lambda0=lam0, rate_limits=limits)
    if gamma < 1.0:
        if e <= 0.5:
            lam0 = c if e == 0.5 else 0.0
            return Regime(tag=REGIME_SPARSE_NORMAL, lambda0=lam0, rate_limits=limits)
        return Regime(tag=REGIME_SPARSE_SLOW, lambda0=None, rate_limits=limits)
    raise UnsupportedRegimeError(
        f"gamma={gamma} >= 1 with exponent e={e} in (1/2, 1) is uncovered: "
        "root-n asymptotics need e <= 1/2 and the sparse regimes need gamma < 1")


def penalty_regime(penalty) -> tuple[float, Regime]:
    """(gamma, regime) of a penalty spec: the bridge index, or gamma = 2 for the
    unpenalized spec; the other families have no schedule-exponent regime."""
    if penalty.family == "bridge":
        gamma = penalty.gamma
    elif penalty.family == "none":
        gamma = 2.0
    else:
        raise UnsupportedRegimeError(
            f"regime classification applies to the bridge family, not {penalty.family}")
    return gamma, regime_classify(gamma, penalty.schedule)


def _v0_penalty_terms(gamma: float, lambda0: float, theta0: np.ndarray):
    """Separable penalty of the limit field: linear coefficients t and power
    terms s|u|^g per coordinate, selected by the gamma branch."""
    p = theta0.size
    t = np.zeros(p)
    s = np.zeros(p)
    g = np.ones(p)
    if lambda0 > 0.0:
        nz = theta0 != 0.0
        if gamma > 1.0:
            t = gamma * lambda0 * np.sign(theta0) * np.abs(theta0) ** (gamma - 1.0)
        elif gamma == 1.0:
            t[nz] = lambda0 * np.sign(theta0[nz])
            s[~nz] = lambda0
        else:
            s[~nz] = lambda0
            g[~nz] = gamma
    return t, s, g


def limit_field_v0(u, W, gamma: float, lambda0: float, C0, theta0) -> float:
    """Evaluate the limit field at u for a realized Gaussian W.

    V0(u) = -2 W.u + u'C0 u plus, per branch: a linear tilt for gamma > 1, the
    sign/absolute mix for gamma = 1, and |u_j|^gamma only on the true-zero
    coordinates for gamma < 1.
    """
    return float(v0_on_points(np.asarray(u, dtype=float)[None, :], W, gamma, lambda0, C0, theta0)[0])


def v0_on_points(points, W, gamma: float, lambda0: float, C0, theta0) -> np.ndarray:
    """Vectorized limit-field evaluation over rows of `points`, for one W or
    for one row of W per point. Each row is evaluated on its own."""
    pts, W, C0, theta0 = (np.asarray(a, dtype=float) for a in (points, W, C0, theta0))
    t, s, g = _v0_penalty_terms(gamma, lambda0, theta0)
    quad = np.sum(_rows_times(pts, C0) * pts, axis=1)
    return (-2.0 * np.sum(W * pts, axis=1) + quad + np.sum(t * pts, axis=1)
            + np.sum(s * np.abs(pts) ** g, axis=1))


def _rows_times(X: np.ndarray, M: np.ndarray) -> np.ndarray:
    """X @ M from elementwise products summed in index order, so a row's result
    does not depend on the other rows (a BLAS kernel's rounding may)."""
    out = X[:, :1] * M[0]
    for k in range(1, M.shape[0]):
        out = out + X[:, k:k + 1] * M[k]
    return out


def _coordinate_min(c: float, b: np.ndarray, s: float, g: float, lo: float, hi: float):
    """argmin over [lo, hi] of c(x-b)^2 + s|x|^g for every element of b.

    Candidates are the literal 0, the finite box ends and the power prox
    root, each where it lies in the box; the smallest (value, |x|, x) wins.
    """
    if s == 0.0:
        return np.clip(b, lo, hi)
    best, best_v = np.zeros(b.shape), np.full(b.shape, np.inf)
    fixed = [x for x in (0.0, lo, hi) if lo <= x <= hi and math.isfinite(x)]
    for x in fixed + [power_prox_candidates(c, b, s, g)]:
        d = x - b
        v = c * d * d + s * np.abs(x) ** g
        ax, a_best = np.abs(x), np.abs(best)
        take = (v < best_v) | ((v == best_v) & ((ax < a_best) | ((ax == a_best) & (x < best))))
        take &= (lo <= x) & (x <= hi)
        best = np.where(take, x, best)
        best_v = np.where(take, v, best_v)
    return best


def box_descent(Q, q, s, g, starts, lo=-np.inf, hi=np.inf) -> np.ndarray:
    """Coordinate descent on u'Qu - 2q'u + sum_j s_j |u_j|^g_j over lo <= u <= hi
    (Q symmetric positive definite), on every row of `starts` (with its row of
    q, or one shared q) at once.

    Each row follows its own rules: exact coordinate minimization by
    `_coordinate_min`, and a stop after its first sweep that moves no
    coordinate by more than 1e-13 (or after 2000 sweeps). Sums are formed
    elementwise in index order, so a row's endpoint does not depend on the
    other rows.
    """
    Q = np.asarray(Q, dtype=float)
    p = Q.shape[0]
    lo, hi = np.broadcast_to(lo, p), np.broadcast_to(hi, p)
    U = np.clip(np.asarray(starts, dtype=float), lo, hi)
    q = np.broadcast_to(np.asarray(q, dtype=float), U.shape)
    Q_off = Q - np.diag(np.diag(Q))
    active = np.arange(U.shape[0])
    for _ in range(2000):
        if active.size == 0:
            break
        u, qa = U[active], q[active]
        max_move = np.zeros(active.size)
        for j in range(p):
            b = (qa[:, j] - _rows_times(u, Q_off[:, j:j + 1])[:, 0]) / Q[j, j]
            new = _coordinate_min(Q[j, j], b, s[j], g[j], lo[j], hi[j])
            max_move = np.maximum(max_move, np.abs(new - u[:, j]))
            u[:, j] = new
        U[active] = u
        active = active[max_move > 1e-13]
    return U


_SAMPLER_BLOCK = 4096  # draws per kernel call: bounds the sampler's working memory


def sample_limit_argmin(law: LimitLaw, R: int, seed: int) -> np.ndarray:
    """Draw R argmin samples of the standard-regime limit field.

    Per draw: W ~ N(0, sigma^2 C0) from the normals of the k-th child of
    `SeedSequence(seed).spawn(R)` (`util.spawned_normals`). The field is then
    minimized from a multistart set by `box_descent` (closed form when the
    effective penalty is smooth), with the start chosen by the solver's
    tie-break. Draws go through the kernel in fixed blocks with elementwise
    rules, so draw k depends only on (law, seed, k). Raises InvalidInputError,
    before any draw, when the field's linear tilt t is not finite.
    """
    if law.regime.tag != REGIME_STANDARD:
        raise InvalidInputError(
            f"argmin sampling is defined for the standard regime, got {law.regime.tag}")
    C0 = np.asarray(law.C0, dtype=float)
    theta0 = np.asarray(law.theta0, dtype=float)
    eig = np.linalg.eigvalsh(C0)
    if eig[0] <= 0.0:
        raise InvalidInputError("C0 must be positive definite")
    p = C0.shape[0]
    sigma = math.sqrt(law.sigma2)
    lam0 = law.regime.lambda0 or 0.0
    t, s, g = _v0_penalty_terms(law.gamma, lam0, theta0)
    if not np.all(np.isfinite(t)):
        raise InvalidInputError(f"the limit field's linear tilt overflows: t = {t.tolist()}")

    W_all = sigma * _rows_times(spawned_normals(seed, R, p), np.linalg.cholesky(C0).T)
    # stationary point of the smooth part: C0 u = W - t/2
    base = _rows_times(W_all - 0.5 * t, np.linalg.inv(C0).T)
    if np.all(s == 0.0):
        return base

    # starts per draw: base, origin, and zero patterns of the first
    # PATTERN_COORDS nonconvex coordinates
    nonconvex = np.flatnonzero((s > 0.0) & (g < 1.0))[:PATTERN_COORDS]
    n_starts = 1 + 2 ** nonconvex.size
    samples = np.empty((R, p))
    for a in range(0, R, _SAMPLER_BLOCK):
        W = np.repeat(W_all[a:a + _SAMPLER_BLOCK], n_starts, axis=0)
        U = box_descent(C0, W - 0.5 * t, s, g, zeroed_starts(base[a:a + _SAMPLER_BLOCK], nonconvex))
        vals = v0_on_points(U, W, law.gamma, lam0, C0, theta0)
        draw = np.arange(U.shape[0]) // n_starts
        samples[a:a + _SAMPLER_BLOCK] = U[tiebreak_argmin(draw, vals, U)]
    return samples


def sparse_limit_params(gamma: float, lambda0: float, B0, sigma2: float, rho0):
    """(Upsilon, bias, covariance) of the nonzero-block limit law.

    Upsilon_l = (gamma/2) sgn(rho0_l) |rho0_l|^(gamma-1); bias = -lambda0 B0^-1
    Upsilon; covariance = sigma^2 B0^-1.
    """
    if not (0.0 < gamma < 1.0):
        raise InvalidInputError(f"sparse limit requires gamma in (0,1), got {gamma}")
    B0 = np.atleast_2d(np.asarray(B0, dtype=float))
    rho0 = np.atleast_1d(np.asarray(rho0, dtype=float))
    if np.any(rho0 == 0.0):
        raise InvalidInputError("rho0 entries must be nonzero")
    if B0.shape[0] != B0.shape[1] or B0.shape[0] != rho0.size:
        raise InvalidInputError("B0 must be square and match rho0")
    eig = np.linalg.eigvalsh(B0)
    if eig[0] <= 0.0:
        raise InvalidInputError("B0 must be positive definite")
    upsilon = 0.5 * gamma * np.sign(rho0) * np.abs(rho0) ** (gamma - 1.0)
    B0_inv = np.linalg.inv(B0)
    bias = -lambda0 * B0_inv @ upsilon
    cov = sigma2 * B0_inv
    return upsilon, bias, cov


def pseudo_true(C0, lambda0: float, gamma: float, theta0, box: Box | None = None):
    """argmin over the box of (theta-theta0)'C0(theta-theta0) + lambda0 sum |theta_j|^gamma.

    Returns (point, exact-zero flags); the flags define the pseudo-true split.
    Deterministic: multistart over zero-support patterns with the lexicographic
    tie-break. Raises InvalidInputError when the best objective is not finite.
    """
    C0 = np.asarray(C0, dtype=float)
    theta0 = np.asarray(theta0, dtype=float)
    p = theta0.size
    if box is None:
        box = Box.cube(p)
    if lambda0 == 0.0:
        point = theta0.copy()
        return point, point == 0.0
    if lambda0 < 0.0:
        raise InvalidInputError("lambda0 must be >= 0")
    eig = np.linalg.eigvalsh(C0)
    if eig[0] <= 0.0:
        raise InvalidInputError("C0 must be positive definite")

    starts = zeroed_starts(theta0[None, :], np.arange(min(p, PATTERN_COORDS)))
    th = box_descent(C0, C0 @ theta0, np.full(p, lambda0), np.full(p, gamma), starts,
                     box.lo_array(), box.hi_array())
    d = th - theta0
    objective = np.sum(_rows_times(d, C0) * d, axis=1) + lambda0 * np.sum(np.abs(th) ** gamma, axis=1)
    i = tiebreak_argmin(np.zeros(th.shape[0], dtype=int), objective, th)[0]
    if not np.isfinite(objective[i]):
        raise InvalidInputError(f"the pseudo-true objective overflows: {objective[i]} at every start")
    return th[i], th[i] == 0.0


def limit_law(gamma: float, schedule: TuningSchedule, sigma2: float, C0,
              theta0, p0: int, box: Box | None = None) -> LimitLaw:
    """Assemble the LimitLaw for the classified regime from model ingredients."""
    regime = regime_classify(gamma, schedule)
    C0 = np.asarray(C0, dtype=float)
    theta0 = np.asarray(theta0, dtype=float)
    rate_descriptors = {
        "s_n_exponent": -1.0,
        "eps_n_exponent": -0.5,
        "alpha_n_exponent": schedule.e - gamma / 2.0,
        "beta_n_exponent": 0.0,
    }
    law = LimitLaw(regime=regime, gamma=gamma, sigma2=sigma2,
                   rate_descriptors=rate_descriptors)
    if regime.tag == REGIME_STANDARD:
        law.C0 = C0
        law.theta0 = theta0
        return law
    if regime.tag in (REGIME_SPARSE_NORMAL, REGIME_SPARSE_SLOW):
        B0 = C0[p0:, p0:]
        rho0 = theta0[p0:]
        lam0 = regime.lambda0 if regime.tag == REGIME_SPARSE_NORMAL else 0.0
        upsilon, bias, cov = sparse_limit_params(gamma, lam0 or 0.0, B0, sigma2, rho0)
        law.B0 = B0
        law.rho0 = rho0
        law.upsilon = upsilon
        law.cov = cov
        if regime.tag == REGIME_SPARSE_NORMAL:
            law.bias = bias
        else:
            law.drift = -np.linalg.inv(B0) @ upsilon
        return law
    point, flags = pseudo_true(C0, regime.lambda0, gamma, theta0, box=box)
    law.C0 = C0
    law.theta0 = theta0
    law.pseudo_true_point = point
    law.pseudo_zero_flags = flags
    return law
