"""Limit objects: regime classification, the limit random field and its argmin
sampler, sparse-limit parameters, and the pseudo-true point for the
lambda_n/n -> lambda0 > 0 regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, UnsupportedRegimeError
from .penalty import PenaltySpec, TuningSchedule
from .penalty import power_prox_candidates  # noqa: F401  (perfbench/tracer.py wraps it; ROADMAP item 1)
from .solver import PATTERN_COORDS, Box, box_descent, tiebreak_argmin, zeroed_starts
from .util import rows_times, spawned_normals

REGIME_STANDARD = "standard"
REGIME_SPARSE_NORMAL = "sparse-normal"
REGIME_SPARSE_SLOW = "sparse-slow"
REGIME_PSEUDO_TRUE = "pseudo-true"


@dataclass
class LimitLaw:
    """A regime's limit law in the shape `limit` prints it: `params` holds the
    regime's own parameters in print order. C0 and theta0 are set in the
    standard regime only, whose argmin sampler reads them."""

    regime: dict
    gamma: float
    sigma2: float
    rate_descriptors: dict
    params: dict = field(default_factory=dict)
    C0: np.ndarray | None = None
    theta0: np.ndarray | None = None


def _limit_of_ratio(c: float, e: float, x: float) -> float:
    """lim_n c * n^e / n^x as an element of [0, inf]."""
    if c == 0.0:
        return 0.0
    if e < x:
        return 0.0
    if e == x:
        return c
    return math.inf


def regime_classify(gamma: float, schedule: TuningSchedule) -> dict:
    """Map (gamma, lambda_n = c n^e) to the regime its limit theorem covers, as the
    block {"tag", "lambda0", "rate_limits"} that estimate, check and limit print.

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
        tag, lam0 = REGIME_STANDARD, 0.0
    elif e > 1.0:
        raise UnsupportedRegimeError(
            f"schedule exponent e={e} > 1: the penalty dominates the squared loss "
            "and no limit theorem covers it")
    elif e == 1.0:
        tag, lam0 = REGIME_PSEUDO_TRUE, c
    elif e <= crit:
        tag, lam0 = REGIME_STANDARD, c if e == crit else 0.0
    elif gamma < 1.0 and e <= 0.5:
        tag, lam0 = REGIME_SPARSE_NORMAL, c if e == 0.5 else 0.0
    elif gamma < 1.0:
        tag, lam0 = REGIME_SPARSE_SLOW, None
    else:
        raise UnsupportedRegimeError(
            f"gamma={gamma} >= 1 with exponent e={e} in (1/2, 1) is uncovered: "
            "root-n asymptotics need e <= 1/2 and the sparse regimes need gamma < 1")
    return {"tag": tag, "lambda0": lam0, "rate_limits": limits}


def penalty_gamma(penalty) -> float:
    """The index gamma that selects a penalty's regime: the bridge index, or
    gamma = 2 for the unpenalized spec; the other families have no
    schedule-exponent regime."""
    if penalty.family == "bridge":
        return penalty.gamma
    if penalty.family == "none":
        return 2.0
    raise UnsupportedRegimeError(
        f"regime classification applies to the bridge family, not {penalty.family}")


def _v0_penalty_terms(gamma: float, lambda0: float, theta0: np.ndarray):
    """Separable penalty of the limit field: linear coefficients t and power
    terms s|u|^g per coordinate, selected by the gamma branch. Raises
    InvalidInputError, without a numpy warning, when t is not finite."""
    p = theta0.size
    t = np.zeros(p)
    s = np.zeros(p)
    g = np.ones(p)
    if lambda0 > 0.0:
        nz = theta0 != 0.0
        if gamma > 1.0:
            with np.errstate(over="ignore", invalid="ignore"):
                t = gamma * lambda0 * np.sign(theta0) * np.abs(theta0) ** (gamma - 1.0)
            if not np.all(np.isfinite(t)):
                raise InvalidInputError(f"the limit field's linear tilt overflows: t = {t.tolist()}")
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
    quad = np.sum(rows_times(pts, C0) * pts, axis=1)
    return (-2.0 * np.sum(W * pts, axis=1) + quad + np.sum(t * pts, axis=1)
            + np.sum(s * np.abs(pts) ** g, axis=1))


def _power_penalties(s, g) -> list[PenaltySpec]:
    """The terms s_j |u_j|^g_j of the limit field as penalties at n = 1: bridge
    with lambda = s_j and gamma = g_j (lambda = 0 where the term is absent)."""
    return [PenaltySpec(family="bridge", schedule=TuningSchedule(c=sj, e=0.0), gamma=gj)
            for sj, gj in zip(s.tolist(), g.tolist())]


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
    tag = law.regime["tag"]
    if tag != REGIME_STANDARD:
        raise InvalidInputError(f"argmin sampling is defined for the standard regime, got {tag}")
    C0, theta0 = law.C0, law.theta0
    eig = np.linalg.eigvalsh(C0)
    if eig[0] <= 0.0:
        raise InvalidInputError("C0 must be positive definite")
    p = C0.shape[0]
    sigma = math.sqrt(law.sigma2)
    lam0 = law.regime["lambda0"] or 0.0
    t, s, g = _v0_penalty_terms(law.gamma, lam0, theta0)

    W_all = sigma * rows_times(spawned_normals(seed, R, p), np.linalg.cholesky(C0).T)
    # stationary point of the smooth part: C0 u = W - t/2
    base = rows_times(W_all - 0.5 * t, np.linalg.inv(C0).T)
    if np.all(s == 0.0):
        return base

    # starts per draw: base, origin, and zero patterns of the first
    # PATTERN_COORDS nonconvex coordinates
    nonconvex = np.flatnonzero((s > 0.0) & (g < 1.0))[:PATTERN_COORDS]
    n_starts = 1 + 2 ** nonconvex.size
    pens = _power_penalties(s, g)
    samples = np.empty((R, p))
    for a in range(0, R, _SAMPLER_BLOCK):
        W = np.repeat(W_all[a:a + _SAMPLER_BLOCK], n_starts, axis=0)
        U = box_descent(C0, W - 0.5 * t, pens, 1, zeroed_starts(base[a:a + _SAMPLER_BLOCK], nonconvex))[0]
        vals = v0_on_points(U, W, law.gamma, lam0, C0, theta0)
        draw = np.arange(U.shape[0]) // n_starts
        samples[a:a + _SAMPLER_BLOCK] = U[tiebreak_argmin(draw, vals, U)]
    return samples


def sparse_limit_params(gamma: float, lambda0: float, B0, sigma2: float, rho0):
    """(Upsilon, bias, covariance) of the nonzero-block limit law.

    Upsilon_l = (gamma/2) sgn(rho0_l) |rho0_l|^(gamma-1); bias = -lambda0 B0^-1
    Upsilon (the sparse-slow drift at lambda0 = 1); covariance = sigma^2 B0^-1.
    Raises InvalidInputError, without a numpy warning, when one of them is not
    finite (a B0 near the subnormal range overflows B0^-1).
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
    with np.errstate(over="ignore", invalid="ignore"):
        upsilon = 0.5 * gamma * np.sign(rho0) * np.abs(rho0) ** (gamma - 1.0)
        B0_inv = np.linalg.inv(B0)
        bias = -lambda0 * B0_inv @ upsilon
        cov = sigma2 * B0_inv
    overflowing = [name for name, value in (("Upsilon", upsilon), ("B0^-1 Upsilon", bias),
                                           ("sigma^2 B0^-1", cov)) if not np.all(np.isfinite(value))]
    if overflowing:
        raise InvalidInputError(f"the sparse limit law is not finite: {' and '.join(overflowing)} overflow "
                                f"(B0 has smallest eigenvalue {eig[0]}, rho0 = {rho0.tolist()})")
    return upsilon, bias, cov


def pseudo_true(C0, lambda0: float, gamma: float, theta0, box: Box | None = None):
    """argmin over the box of (theta-theta0)'C0(theta-theta0) + lambda0 sum |theta_j|^gamma.

    Returns (point, exact-zero flags); the flags define the pseudo-true split.
    Deterministic: multistart over zero-support patterns with the lexicographic
    tie-break. Raises InvalidInputError when the best objective is not finite,
    before the descent (and without a numpy warning) when the quadratic term
    overflows at every point of the box.
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
    # on the box, (theta-theta0)'C0(theta-theta0) >= eig_min |theta0 - clip(theta0)|^2
    gap = math.sqrt(eig[0]) * math.hypot(*(theta0 - box.clip(theta0)))
    if not math.isfinite(gap * gap):
        raise InvalidInputError("the pseudo-true objective overflows: inf at every point of the box")

    starts = zeroed_starts(theta0[None, :], np.arange(min(p, PATTERN_COORDS)))
    th = box_descent(C0, C0 @ theta0, _power_penalties(np.full(p, lambda0), np.full(p, gamma)), 1, starts,
                     box.lo_array(), box.hi_array())[0]
    d = th - theta0
    objective = np.sum(rows_times(d, C0) * d, axis=1) + lambda0 * np.sum(np.abs(th) ** gamma, axis=1)
    i = tiebreak_argmin(np.zeros(th.shape[0], dtype=int), objective, th)[0]
    if not np.isfinite(objective[i]):
        raise InvalidInputError(f"the pseudo-true objective overflows: {objective[i]} at every start")
    return th[i], th[i] == 0.0


def limit_law(gamma: float, schedule: TuningSchedule, sigma2: float, C0,
              theta0, p0: int, box: Box | None = None) -> LimitLaw:
    """Assemble the LimitLaw for the classified regime from model ingredients."""
    regime = regime_classify(gamma, schedule)
    tag, lam0 = regime["tag"], regime["lambda0"]
    C0 = np.asarray(C0, dtype=float)
    theta0 = np.asarray(theta0, dtype=float)
    law = LimitLaw(regime=regime, gamma=gamma, sigma2=sigma2, rate_descriptors={
        "s_n_exponent": -1.0,
        "eps_n_exponent": -0.5,
        "alpha_n_exponent": schedule.e - gamma / 2.0,
        "beta_n_exponent": 0.0,
    })
    if tag == REGIME_STANDARD:
        law.C0, law.theta0 = C0, theta0
    elif tag == REGIME_PSEUDO_TRUE:
        point, flags = pseudo_true(C0, lam0, gamma, theta0, box=box)
        law.params = {"pseudo_true_point": point, "pseudo_zero_flags": flags}
    else:
        # the sparse-slow drift -B0^-1 Upsilon is the bias at lambda0 = 1
        sparse_normal = tag == REGIME_SPARSE_NORMAL
        upsilon, bias, cov = sparse_limit_params(gamma, lam0 if sparse_normal else 1.0, C0[p0:, p0:],
                                                 sigma2, theta0[p0:])
        law.params = ({"upsilon": upsilon, "bias": bias, "cov": cov} if sparse_normal
                      else {"upsilon": upsilon, "drift": bias, "rate": "n over lambda_n"})
    return law
