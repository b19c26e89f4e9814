"""Penalty families (bridge, SCAD, seamless-L0), exact scalar subproblems, and condition checkers.

The scalar proximal solve is exact up to the one-dimensional root finds: for
each family the candidate minimizers of c(x-b)^2 + p_n(x) are enumerated
(literal 0, branch stationary points, branch junctions) and compared, so exact
zeros are produced without thresholding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, InvalidSpecError
from .util import PLAUSIBLY_BOUNDED, ConditionReport, boundedness_verdict, fit_line

FAMILIES = ("bridge", "scad", "selo", "none")

# Stable condition ids used in reports and cmd_check JSON.
COND_DIVERGENCE = "divergence-lower-bound"
COND_GROWTH_CAP = "polynomial-growth-cap"
COND_SHIFT = "root-n-shift-continuity"

LOG2 = math.log(2.0)
_TINY = 2.0 ** -1022  # smallest normal float


@dataclass(frozen=True)
class TuningSchedule:
    """Power-form tuning sequence lambda_n = c * n**e.

    c = 0 encodes the unpenalized schedule (lambda_n identically 0); the
    regularized families require c > 0 to be effective.
    """

    c: float
    e: float

    def __post_init__(self):
        if not (self.c >= 0.0) or not math.isfinite(self.c):
            raise InvalidSpecError(f"schedule coefficient must be >= 0, got {self.c}")
        if not math.isfinite(self.e):
            raise InvalidSpecError(f"schedule exponent must be finite, got {self.e}")

    def value(self, n: int) -> float:
        if n < 1:
            raise InvalidInputError(f"schedule evaluated at n={n} < 1")
        return self.c * float(n) ** self.e


@dataclass(frozen=True)
class PenaltySpec:
    """A penalty family p_n plus its tuning schedule.

    bridge: p_n(t) = lambda_n * |t|**gamma, gamma > 0
    scad:   three-branch form with extra parameter a > 2 (linear, quadratic
            blend, then constant n*(a+1)*lambda_n^2/2)
    selo:   (2*n*lambda_n / log 2) * log(|t|/(|t|+tau_n) + 1), bounded by
            2*n*lambda_n, with its own tau schedule
    none:   p_n identically 0 (unpenalized least squares)
    """

    family: str
    schedule: TuningSchedule
    gamma: float | None = None
    a: float | None = None
    tau: TuningSchedule | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidSpecError(f"unknown penalty family {self.family!r}")
        if self.family == "bridge":
            if self.gamma is None or not (self.gamma > 0.0):
                raise InvalidSpecError("bridge penalty requires gamma > 0")
        elif self.family == "scad":
            if self.a is None or not (self.a > 2.0):
                raise InvalidSpecError("scad penalty requires a > 2")
        elif self.family == "selo":
            if self.tau is None or self.tau.c <= 0.0:
                raise InvalidSpecError("selo penalty requires a positive tau schedule")


def zero_penalty() -> PenaltySpec:
    """The p_n = 0 spec used for unpenalized fits and degenerate checks."""
    return PenaltySpec(family="none", schedule=TuningSchedule(c=0.0, e=0.0))


def _value_scalar(pen: PenaltySpec, n: int, t: float) -> float:
    """Scalar penalty evaluation on the hot path (pure python float math)."""
    at = abs(t)
    if pen.family == "none":
        return 0.0
    lam = pen.schedule.value(n)
    if lam == 0.0:
        return 0.0
    if pen.family == "bridge":
        return lam * at ** pen.gamma
    if pen.family == "scad":
        a = pen.a
        if at <= lam:
            return n * lam * at
        if at <= a * lam:
            return -n * (at * at - 2.0 * a * lam * at + lam * lam) / (2.0 * (a - 1.0))
        return n * (a + 1.0) * lam * lam / 2.0
    # selo
    tau = pen.tau.value(n)
    return (2.0 * n * lam / LOG2) * math.log1p(at / (at + tau))


def penalty_value(pen: PenaltySpec, n: int, t):
    """Evaluate p_n at t; accepts scalars or arrays, returns the same shape.

    Even in t, 0 at 0, and branchwise exact (no smoothing of the SCAD
    junctions or of the kink at the origin).
    """
    at = np.abs(np.asarray(t, dtype=float))
    scalar = at.ndim == 0
    if scalar:
        return _value_scalar(pen, n, float(at))
    if pen.family == "none":
        return np.zeros_like(at)
    lam = pen.schedule.value(n)
    if lam == 0.0:
        return np.zeros_like(at)
    if pen.family == "bridge":
        return lam * at ** pen.gamma
    if pen.family == "scad":
        a = pen.a
        return np.select(
            [at <= lam, at <= a * lam],
            [n * lam * at, -n * (at * at - 2.0 * a * lam * at + lam * lam) / (2.0 * (a - 1.0))],
            default=n * (a + 1.0) * lam * lam / 2.0,
        )
    tau = pen.tau.value(n)
    return (2.0 * n * lam / LOG2) * np.log1p(at / (at + tau))


def penalty_total(pen: PenaltySpec, n: int, theta) -> float:
    """Sum of p_n over the coordinates of theta."""
    theta = np.asarray(theta, dtype=float)
    return float(np.sum(penalty_value(pen, n, theta)))


# ---------------------------------------------------------------------------
# Exact scalar proximal solves
# ---------------------------------------------------------------------------


def _bracketed_newton(h, hprime, lo: float, hi: float, x: float | None = None) -> float:
    """Root of increasing h on [lo, hi] with h(lo) <= 0 <= h(hi).

    Newton from x (default the midpoint), clipped into the shrinking bracket;
    bisection whenever the Newton step leaves it. Stops at float resolution:
    once a Newton correction is at most 2 ulp of x, or once the bisection
    midpoint equals an end of the bracket. The iteration cap is only a safety
    net. Deterministic.
    """
    if x is None:
        x = 0.5 * (lo + hi)
    for _ in range(200):
        hx = h(x)
        if hx == 0.0:
            return x
        if hx > 0.0:
            hi = x
        else:
            lo = x
        d = hprime(x)
        if d > 0.0:
            step = x - hx / d
            if abs(step - x) <= 2.0 * math.ulp(x):
                return min(max(step, lo), hi)
        else:
            step = lo  # force bisection
        if not (lo < step < hi):
            step = 0.5 * (lo + hi)
            if step == lo or step == hi:
                break
        x = step
    return 0.5 * (lo + hi)


def _bracketed_newton_array(h, hprime, lo: np.ndarray, hi: np.ndarray,
                            x: np.ndarray) -> np.ndarray:
    """_bracketed_newton on every element at once: each element runs the scalar
    iteration and leaves at its own exit, so its root does not depend on the
    others. h and hprime take (x, idx), the iterates and their indices."""
    root = np.empty_like(x)
    idx = np.arange(x.size)
    for _ in range(200):
        if idx.size == 0:
            break
        hx = h(x, idx)
        lo, hi = np.where(hx > 0.0, lo, x), np.where(hx > 0.0, x, hi)
        d = hprime(x, idx)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = np.where(d > 0.0, x - hx / d, lo)
        close = (d > 0.0) & (np.abs(newton - x) <= 2.0 * np.spacing(x))
        bisect = ~((lo < newton) & (newton < hi))
        step = np.where(bisect, 0.5 * (lo + hi), newton)
        found = hx == 0.0
        done = found | close | (bisect & ((step == lo) | (step == hi)))
        value = np.where(found, x, np.where(close, np.clip(newton, lo, hi), step))
        root[idx[done]] = value[done]
        idx, x, lo, hi = (v[~done] for v in (idx, step, lo, hi))
    root[idx] = 0.5 * (lo + hi)
    return root


def power_prox_candidates(c: float, b: float, lam: float, gamma: float) -> list[float]:
    """Candidate minimizers of c(x-b)^2 + lam*|x|**gamma (bridge-type scalar solve).

    With an ndarray b (c and lam scalars or arrays of b's shape) the solve
    runs elementwise and returns one array of b's shape: the nonzero
    candidate where the scalar call has one, else 0.0. Callers compare it
    with the literal 0, as they add 0 to the scalar list.
    """
    if isinstance(b, np.ndarray):
        return _power_prox_array(c, b, lam, gamma)
    if lam == 0.0:
        return [b]
    if b == 0.0:
        return [0.0]
    s = 1.0 if b > 0.0 else -1.0
    beta = abs(b)
    if gamma == 1.0:
        st = beta - lam / (2.0 * c)
        return [0.0] if st <= 0.0 else [s * st]
    if gamma == 2.0:
        return [c * b / (c + lam)]
    if gamma > 1.0:
        # h rises from -2c*beta at 0. From this upper bound of the root Newton
        # runs to it monotonically (for gamma < 2, where h is concave, after
        # one step to its left). A bound below the normal floats is the root
        # to within 2.2e-308 and is kept: h' may overflow there.
        h = lambda x: 2.0 * c * (x - beta) + lam * gamma * x ** (gamma - 1.0)
        hp = lambda x: 2.0 * c + lam * gamma * (gamma - 1.0) * x ** (gamma - 2.0)
        hi = beta
        if lam * gamma * beta ** (gamma - 1.0) > 2.0 * c * beta:
            hi = (2.0 * c * beta / (lam * gamma)) ** (1.0 / (gamma - 1.0))
        return [s * (hi if hi < _TINY else _bracketed_newton(h, hp, 0.0, hi, hi))]
    # 0 < gamma < 1: nonconvex; at most one interior local minimum beyond the
    # dip of h, compared against the exact-zero candidate.
    x_star = (lam * gamma * (1.0 - gamma) / (2.0 * c)) ** (1.0 / (2.0 - gamma))
    if x_star >= beta:
        return [0.0]
    h = lambda x: 2.0 * c * (x - beta) + lam * gamma * x ** (gamma - 1.0)
    if h(x_star) > 0.0:
        return [0.0]
    hp = lambda x: 2.0 * c + lam * gamma * (gamma - 1.0) * x ** (gamma - 2.0)
    root = _bracketed_newton(h, hp, x_star, beta)
    return [0.0, s * root]


def _power_prox_array(c, b: np.ndarray, lam, gamma: float) -> np.ndarray:
    """power_prox_candidates elementwise, with the scalar call's rules."""
    c, b, lam = np.broadcast_arrays(np.asarray(c, dtype=float), np.asarray(b, dtype=float),
                                    np.asarray(lam, dtype=float))
    beta, sign = np.abs(b), np.where(b > 0.0, 1.0, -1.0)
    if gamma == 1.0:
        st = beta - lam / (2.0 * c)
        out = np.where(st > 0.0, sign * st, 0.0)
    elif gamma == 2.0:
        out = c * b / (c + lam)
    else:
        live = np.flatnonzero((lam != 0.0) & (b != 0.0))
        cl, bl, ll = c.flat[live], beta.flat[live], lam.flat[live]
        h = lambda x, i: 2.0 * cl[i] * (x - bl[i]) + ll[i] * gamma * x ** (gamma - 1.0)
        hp = lambda x, i: 2.0 * cl[i] + ll[i] * gamma * (gamma - 1.0) * x ** (gamma - 2.0)
        if gamma > 1.0:
            root = bl.copy()
            lower = ll * gamma * bl ** (gamma - 1.0) > 2.0 * cl * bl
            root[lower] = (2.0 * cl[lower] * bl[lower] / (ll[lower] * gamma)) ** (1.0 / (gamma - 1.0))
            k = np.flatnonzero(root >= _TINY)
            lo, hi, x = np.zeros(k.size), root[k], root[k]
        else:
            root = np.zeros(live.size)
            x_star = (ll * gamma * (1.0 - gamma) / (2.0 * cl)) ** (1.0 / (2.0 - gamma))
            k = np.flatnonzero(x_star < bl)
            k = k[h(x_star[k], k) <= 0.0]
            lo, hi, x = x_star[k], bl[k], 0.5 * (x_star[k] + bl[k])
        root[k] = _bracketed_newton_array(lambda x, i: h(x, k[i]), lambda x, i: hp(x, k[i]),
                                          lo, hi, x)
        out = np.zeros(b.shape)
        out.flat[live] = np.where(root == 0.0, 0.0, sign.flat[live] * root)
    return np.where(lam == 0.0, b, np.where(b == 0.0, 0.0, out))


def _scad_candidates(c: float, b: float, lam: float, n: int, a: float) -> list[float]:
    if lam == 0.0 or b == 0.0:
        return [b]
    s = 1.0 if b > 0.0 else -1.0
    beta = abs(b)
    cands = [0.0, s * lam, s * a * lam]
    x1 = beta - n * lam / (2.0 * c)
    if 0.0 < x1 <= lam:
        cands.append(s * x1)
    denom = 2.0 * c - n / (a - 1.0)
    if denom != 0.0:
        x2 = (2.0 * c * beta - n * a * lam / (a - 1.0)) / denom
        if lam < x2 <= a * lam:
            cands.append(s * x2)
    if beta > a * lam:
        cands.append(b)
    return cands


def _selo_candidates(c: float, b: float, lam: float, n: int, tau: float) -> list[float]:
    if lam == 0.0:
        return [b]
    if b == 0.0:
        return [0.0]
    s = 1.0 if b > 0.0 else -1.0
    beta = abs(b)
    coef = 2.0 * n * lam / LOG2

    def dpen(x: float) -> float:
        return coef * tau / ((x + tau) * (2.0 * x + tau))

    def h(x: float) -> float:
        return 2.0 * c * (x - beta) + dpen(x)

    def hp(x: float) -> float:
        return 2.0 * c - coef * tau * (4.0 * x + 3.0 * tau) / ((x + tau) * (2.0 * x + tau)) ** 2

    # h is convex on [0, beta] with h(beta) > 0; an interior local minimum of
    # the objective exists only where h crosses 0 from below.
    if hp(beta) <= 0.0:
        return [0.0]
    if hp(0.0) >= 0.0:
        x_h = 0.0
    else:
        lo, hi = 0.0, beta
        for _ in range(120):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            if hp(mid) < 0.0:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-16 * (1.0 + hi):
                break
        x_h = 0.5 * (lo + hi)
    if h(x_h) > 0.0:
        return [0.0]
    root = _bracketed_newton(h, hp, x_h, beta)
    return [0.0, s * root]


def _prox_candidates(pen: PenaltySpec, n: int, c: float, b: float) -> list[float]:
    if pen.family == "none":
        return [b]
    lam = pen.schedule.value(n)
    if pen.family == "bridge":
        return power_prox_candidates(c, b, lam, pen.gamma)
    if pen.family == "scad":
        return _scad_candidates(c, b, lam, n, pen.a)
    return _selo_candidates(c, b, lam, n, pen.tau.value(n))


def scalar_prox(pen: PenaltySpec, n: int, c: float, b: float) -> float:
    """Global minimizer of x -> c*(x-b)^2 + p_n(x), c > 0.

    Returns a literal 0.0 when the zero candidate wins, so downstream sparsity
    events are exact rather than thresholded.
    """
    return scalar_prox_interval(pen, n, c, b, -math.inf, math.inf)


def scalar_prox_interval(pen: PenaltySpec, n: int, c: float, b: float,
                         lo: float, hi: float) -> float:
    """Minimizer of x -> c*(x-b)^2 + p_n(x) over [lo, hi], comparing the
    stationary candidates inside, the finite ends and 0 (when inside).

    Smallest objective wins; ties go toward smaller |x|, then toward negative x,
    then to the first candidate.
    """
    if not (c > 0.0):
        raise InvalidInputError(f"prox curvature must be positive, got {c}")
    cands = [x for x in _prox_candidates(pen, n, c, b) if lo <= x <= hi]
    cands += [end for end in (lo, hi) if math.isfinite(end)]
    if lo <= 0.0 <= hi and 0.0 not in cands:
        cands.append(0.0)

    def obj(x: float) -> float:
        d = x - b
        return c * d * d + _value_scalar(pen, n, x)

    return min(cands, key=lambda x: (obj(x), abs(x), x))


# ---------------------------------------------------------------------------
# Condition checkers
# ---------------------------------------------------------------------------


def default_divergence_scale(pen: PenaltySpec) -> TuningSchedule:
    """Family-natural q_n: lambda_n/n^(gamma/2) for bridge, the bound scale otherwise."""
    sch = pen.schedule
    if pen.family == "bridge":
        return TuningSchedule(c=max(sch.c, 0.0), e=sch.e - pen.gamma / 2.0)
    if pen.family == "scad":
        return TuningSchedule(c=max(sch.c * sch.c, 0.0), e=1.0 + 2.0 * sch.e)
    if pen.family == "selo":
        return TuningSchedule(c=sch.c, e=1.0 + sch.e)
    return TuningSchedule(c=1.0, e=0.0)


def _sphere_infimum(pen: PenaltySpec, n: int, r: float, p0: int) -> float:
    """inf over |u| = r of sum_k p_n(u_k/sqrt(n)), in closed form.

    With s_k = u_k^2 the sum is sum_k f(s_k), f(s) = p_n(sqrt(s/n)), over the
    simplex sum_k s_k = r^2. For SCAD, SELO and bridge with gamma <= 2, p_n' is
    nonnegative and nonincreasing on t > 0, so f'(s) = p_n'(t)/(2 sqrt(n s))
    (t = sqrt(s/n)) is nonincreasing and f is concave: its minimum over the
    simplex sits at a vertex, all mass on one axis (Horst & Tuy, Global
    Optimization, 1996). For bridge with gamma >= 2, f is convex and by Jensen
    the minimum puts mass r^2/p0 on every axis. Both are among the allocations
    of equal mass on k axes, k = 1..p0, so the least of those is the infimum.
    """
    rn = r / math.sqrt(n)
    return min(k * _value_scalar(pen, n, rn / math.sqrt(k)) for k in range(1, p0 + 1))


def check_divergence_condition(pen: PenaltySpec, n_grid, r_grid,
                               q_n: TuningSchedule | None = None,
                               p0: int = 1) -> ConditionReport:
    """Check the scaled sphere infimum inf_{|u|=r} sum_k p_n(u_k/sqrt(n)) / q_n.

    Satisfied when, for every n on the grid, the curve in r is nondecreasing,
    grows by more than x2 from the smallest to largest r, and keeps growing by
    more than x2 over the top half of the r-grid (the saturation check that
    separates bounded penalties from divergent ones). Also fits a power r^s to
    the scaled curve.
    """
    n_grid = tuple(int(n) for n in n_grid)
    r_grid = tuple(float(r) for r in r_grid)
    if len(n_grid) == 0 or len(r_grid) < 3:
        raise InvalidInputError("divergence check needs a nonempty n-grid and >= 3 r values")
    if any(r <= 0 for r in r_grid) or any(b <= a for a, b in zip(r_grid, r_grid[1:])):
        raise InvalidInputError("r-grid must be positive and strictly increasing")
    if p0 < 1:
        raise InvalidInputError("p0 must be >= 1")
    q = q_n if q_n is not None else default_divergence_scale(pen)

    vals = np.empty((len(n_grid), len(r_grid)))
    for i, n in enumerate(n_grid):
        qn = q.value(n)
        if qn <= 0.0:
            raise InvalidInputError(f"q_n must be positive, got {qn} at n={n}")
        for j, r in enumerate(r_grid):
            vals[i, j] = _sphere_infimum(pen, n, r, p0) / qn

    mid = len(r_grid) // 2
    ok = True
    for i in range(len(n_grid)):
        row = vals[i]
        nondec = bool(np.all(np.diff(row) >= -1e-9 * max(1.0, float(np.max(np.abs(row))))))
        grow_total = row[-1] > 2.0 * row[0]
        grow_tail = row[-1] > 2.0 * row[mid]
        if not (nondec and grow_total and grow_tail):
            ok = False
            break

    pos = vals > 0.0
    logr = np.broadcast_to(np.log(np.asarray(r_grid)), vals.shape)
    fitted, fit_err = fit_line(logr[pos], np.log(vals[pos])) or (None, None)

    return ConditionReport(
        condition=COND_DIVERGENCE,
        n_grid=n_grid,
        probes=r_grid,
        values=vals,
        verdict="satisfied" if ok else "not-satisfied",
        fitted_exponent=fitted,
        fit_error=fit_err,
        detail={"q_n": {"c": q.c, "e": q.e}, "p0": p0},
    )


def check_smooth_conditions(pen: PenaltySpec, n_grid, a_probes, b_probes,
                            beta: float) -> tuple[ConditionReport, ConditionReport]:
    """Finite-n surrogates for the growth cap sup_n p_n(a)/n^(1/2+beta) < inf
    and the root-n shift bound |p_n(a + b/sqrt(n)) - p_n(a)| <= c_{a,b} |b|^kappa.

    Returns (growth_report, shift_report). The shift condition is a limsup at
    fixed probes; the probe sets are a documented knob, not a claim.
    """
    n_grid = tuple(int(n) for n in n_grid)
    a_probes = tuple(float(a) for a in a_probes)
    b_probes = tuple(float(b) for b in b_probes)
    if len(n_grid) < 3:
        raise InvalidInputError("smooth-condition check needs >= 3 grid points")
    if any(a == 0.0 for a in a_probes):
        raise InvalidInputError("shift probes require a != 0")
    if not (0.0 < beta < 0.5):
        raise InvalidInputError(f"beta must lie in (0, 1/2), got {beta}")

    growth = np.empty((len(a_probes), len(n_grid)))
    for i, a in enumerate(a_probes):
        for j, n in enumerate(n_grid):
            growth[i, j] = _value_scalar(pen, n, a) / float(n) ** (0.5 + beta)
    growth_ok = all(boundedness_verdict(growth[i]) == PLAUSIBLY_BOUNDED
                    for i in range(len(a_probes)))
    growth_report = ConditionReport(
        condition=COND_GROWTH_CAP,
        n_grid=n_grid,
        probes=a_probes,
        values=growth,
        verdict="satisfied" if growth_ok else "not-satisfied",
        detail={"beta": beta},
    )

    diffs = np.empty((len(a_probes), len(b_probes), len(n_grid)))
    for i, a in enumerate(a_probes):
        for j, b in enumerate(b_probes):
            for k, n in enumerate(n_grid):
                diffs[i, j, k] = abs(_value_scalar(pen, n, a + b / math.sqrt(n))
                                     - _value_scalar(pen, n, a))
    shift_ok = all(
        boundedness_verdict(diffs[i, j]) == PLAUSIBLY_BOUNDED
        for i in range(len(a_probes)) for j in range(len(b_probes))
    )
    # Level of each (a, b) sequence over the top half of the grid = the
    # finite-n limsup surrogate; kappa is the smallest power keeping the
    # levels bounded across |b|.
    half = len(n_grid) // 2
    levels = diffs[:, :, half:].max(axis=2)
    order = np.argsort(np.abs(np.asarray(b_probes)))
    kappa = None
    for cand in (1, 2):
        ratios = levels / np.abs(np.asarray(b_probes))[None, :] ** cand
        ok = all(boundedness_verdict(ratios[i, order]) == PLAUSIBLY_BOUNDED
                 for i in range(len(a_probes)))
        if ok:
            kappa = cand
            break
    shift_report = ConditionReport(
        condition=COND_SHIFT,
        n_grid=n_grid,
        probes=tuple((a, b) for a in a_probes for b in b_probes),
        values=diffs,
        verdict="satisfied" if shift_ok else "not-satisfied",
        kappa=kappa,
        detail={"levels": levels.tolist()},
    )
    return growth_report, shift_report
