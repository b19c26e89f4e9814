"""Limit objects: regime classification, the limit random field and its argmin
sampler, sparse-limit parameters, and the pseudo-true point for the
lambda_n/n -> lambda0 > 0 regime.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, UnsupportedRegimeError
from .penalty import TuningSchedule, power_prox_candidates
from .solver import Box, tiebreak_key

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
    u = np.asarray(u, dtype=float)
    W = np.asarray(W, dtype=float)
    C0 = np.asarray(C0, dtype=float)
    theta0 = np.asarray(theta0, dtype=float)
    t, s, g = _v0_penalty_terms(gamma, lambda0, theta0)
    return _v0_value(u, W, C0, t, s, g)


def _v0_value(u, W, C0, t, s, g) -> float:
    """limit_field_v0 on float arrays with the penalty terms already derived."""
    return float(-2.0 * W @ u + u @ C0 @ u + t @ u + np.sum(s * np.abs(u) ** g))


def v0_on_points(points, W, gamma: float, lambda0: float, C0, theta0) -> np.ndarray:
    """Vectorized limit-field evaluation over rows of `points`."""
    pts = np.asarray(points, dtype=float)
    W = np.asarray(W, dtype=float)
    C0 = np.asarray(C0, dtype=float)
    theta0 = np.asarray(theta0, dtype=float)
    t, s, g = _v0_penalty_terms(gamma, lambda0, theta0)
    quad = np.einsum("ij,jk,ik->i", pts, C0, pts)
    pen = np.abs(pts) ** g[None, :] @ s + pts @ t
    return -2.0 * pts @ W + quad + pen


def _separable_cd(C0: np.ndarray, diag: np.ndarray, W: np.ndarray, t: np.ndarray,
                  s: np.ndarray, g: np.ndarray, start: np.ndarray, tol: float = 1e-13,
                  max_sweeps: int = 500) -> np.ndarray:
    """Coordinate descent on -2W.u + u'C0u + t.u + sum s_j |u_j|^g_j; diag = diag(C0)."""
    u = start.copy()
    p = u.size
    for _ in range(max_sweeps):
        max_move = 0.0
        for j in range(p):
            off = float(C0[j] @ u) - diag[j] * u[j]
            b = (W[j] - off - 0.5 * t[j]) / diag[j]
            if s[j] == 0.0:
                new = b
            else:
                cands = power_prox_candidates(diag[j], b, s[j], g[j])
                if 0.0 not in cands:
                    cands = cands + [0.0]
                best, key = None, None
                for x in cands:
                    d = x - b
                    val = diag[j] * d * d + s[j] * abs(x) ** g[j]
                    k = (val, abs(x), x)
                    if key is None or k < key:
                        key, best = k, x
                new = best
            move = abs(new - u[j])
            if move > max_move:
                max_move = move
            u[j] = new
        if max_move <= tol:
            break
    return u


def sample_limit_argmin(law: LimitLaw, R: int, seed: int) -> np.ndarray:
    """Draw R argmin samples of the standard-regime limit field.

    Per draw: W ~ N(0, sigma^2 C0) from a seed spawned deterministically for
    (seed, draw index), then the field is minimized by the same
    coordinate-descent machinery as the finite-n solver (closed form when the
    effective penalty is smooth).
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

    L = np.linalg.cholesky(C0)
    children = np.random.SeedSequence(seed).spawn(R)
    Z = np.empty((R, p))
    for k, child in enumerate(children):
        Z[k] = np.random.default_rng(child).standard_normal(p)
    W_all = sigma * (Z @ L.T)

    if np.all(s == 0.0):
        # smooth field: stationarity gives u = C0^-1 (W - t/2) exactly
        return np.linalg.solve(C0, (W_all - 0.5 * t).T).T

    nonconvex = np.flatnonzero((s > 0.0) & (g < 1.0))
    masks = list(itertools.product((False, True), repeat=min(nonconvex.size, 6)))
    diag = np.diag(C0)
    samples = np.empty((R, p))
    for k in range(R):
        W = W_all[k]
        base = np.linalg.solve(C0, W - 0.5 * t)
        starts = [base, np.zeros(p)]
        for mask in masks:
            pt = base.copy()
            for idx, on in zip(nonconvex, mask):
                if on:
                    pt[idx] = 0.0
            starts.append(pt)
        best, key = None, None
        for st in starts:
            u = _separable_cd(C0, diag, W, t, s, g, st)
            val = _v0_value(u, W, C0, t, s, g)
            kk = tiebreak_key(val, u)
            if key is None or kk < key:
                key, best = kk, u
        samples[k] = best
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
    tie-break.
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

    diag = np.diag(C0)
    lo, hi = box.lo_array(), box.hi_array()

    def objective(th: np.ndarray) -> float:
        d = th - theta0
        return float(d @ C0 @ d + lambda0 * np.sum(np.abs(th) ** gamma))

    def descend(start: np.ndarray) -> np.ndarray:
        th = box.clip(start)
        for _ in range(2000):
            max_move = 0.0
            for j in range(p):
                d = th - theta0
                off = float(C0[j] @ d) - diag[j] * d[j]
                b = theta0[j] - off / diag[j]
                cands = [x for x in power_prox_candidates(diag[j], b, lambda0, gamma)
                         if lo[j] <= x <= hi[j]]
                cands.extend([lo[j], hi[j]])
                if lo[j] <= 0.0 <= hi[j] and 0.0 not in cands:
                    cands.append(0.0)
                best, key = None, None
                for x in cands:
                    dd = x - b
                    val = diag[j] * dd * dd + lambda0 * abs(x) ** gamma
                    k = (val, abs(x), x)
                    if key is None or k < key:
                        key, best = k, x
                move = abs(best - th[j])
                if move > max_move:
                    max_move = move
                th[j] = best
            if max_move <= 1e-13:
                break
        return th

    starts = [theta0.copy(), np.zeros(p)]
    kmask = min(p, 6)
    for mask in itertools.product((False, True), repeat=kmask):
        pt = theta0.copy()
        for j in range(kmask):
            if mask[j]:
                pt[j] = 0.0
        starts.append(pt)

    best, key = None, None
    for st in starts:
        th = descend(st)
        kk = tiebreak_key(objective(th), th)
        if key is None or kk < key:
            key, best = kk, th
    return best, best == 0.0


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
