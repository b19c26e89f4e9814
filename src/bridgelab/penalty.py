"""Penalty families (bridge, SCAD, seamless-L0), exact one-dimensional subproblems, and condition checkers.

The proximal solve is exact up to the one-dimensional root finds: for each
family the candidate minimizers of c(x-b)^2 + p_n(x) are enumerated (literal
0, branch stationary points, branch junctions) and compared, so exact zeros
are produced without thresholding. It runs elementwise on an array of b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, InvalidSpecError
from .util import PLAUSIBLY_BOUNDED, boundedness_verdict, fit_line, require_finite

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
        try:
            value = self.c * float(n) ** self.e
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise InvalidInputError(f"schedule c * n**e overflows at n={n} (c={self.c}, e={self.e})")
        return value


@dataclass(frozen=True)
class PenaltySpec:
    """A penalty family p_n plus its tuning schedule.

    bridge: p_n(t) = lambda_n * |t|**gamma, gamma > 0
    scad:   three-branch form with extra parameter a > 2 (linear, quadratic
            blend, then constant n*(a+1)*lambda_n^2/2)
    selo:   (2*n*lambda_n / log 2) * log(|t|/(|t|+tau_n) + 1), bounded by
            2*n*lambda_n, with its own tau schedule
    none:   p_n identically 0 (unpenalized least squares): lambda_n = 0 whatever schedule is given
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
        else:  # none; frozen, so set as Box sets its floats
            object.__setattr__(self, "schedule", TuningSchedule(c=0.0, e=0.0))
        require_finite(gamma=self.gamma, a=self.a)


def penalty_value(pen: PenaltySpec, n: int, t):
    """Evaluate p_n at t elementwise: an array gives an array of its shape, a
    scalar a float with the bits of its one-element array call.

    Even in t, 0 at 0, and branchwise exact (no smoothing of the SCAD
    junctions or of the kink at the origin).
    """
    t = np.asarray(t, dtype=float)
    at = np.abs(np.atleast_1d(t))  # a scalar runs the ufunc loops of a one-element array
    lam = pen.schedule.value(n)
    if lam == 0.0:
        value = np.zeros_like(at)
    elif pen.family == "bridge":
        value = lam * at ** pen.gamma
    elif pen.family == "scad":
        a = pen.a
        value = np.where(at <= lam, n * lam * at,
                         np.where(at <= a * lam, -n * (at * at - 2.0 * a * lam * at + lam * lam) / (2.0 * (a - 1.0)),
                                  n * (a + 1.0) * lam * lam / 2.0))
    else:
        value = (2.0 * n * lam / LOG2) * np.log1p(at / (at + pen.tau.value(n)))
    return float(value[0]) if t.ndim == 0 else value


def checked_penalty_value(pen: PenaltySpec, n: int, t):
    """`penalty_value` with numpy's overflow and invalid-value errors held,
    refusing a bridge value that overflows at a finite |t|: InvalidInputError
    names the first such t."""
    with np.errstate(over="ignore", invalid="ignore"):
        value = penalty_value(pen, n, t)
    if pen.family == "bridge":
        over = np.flatnonzero(np.isinf(value) & np.isfinite(t))
        if over.size:
            at = abs(float(np.ravel(t)[over[0]]))
            raise InvalidInputError(f"bridge penalty lambda_n * |t|**gamma overflows at n={n}, |t|={at} "
                                    f"(lambda_n={pen.schedule.value(n)}, gamma={pen.gamma})")
    return value


def penalty_total(pen: PenaltySpec, n: int, theta) -> float:
    """Sum of p_n over the coordinates of theta."""
    return float(np.sum(penalty_value(pen, n, theta)))


# ---------------------------------------------------------------------------
# Exact proximal solves, elementwise
# ---------------------------------------------------------------------------


def _bracketed_newton_array(h, hprime, lo: np.ndarray, hi: np.ndarray, x: np.ndarray,
                            *args: np.ndarray) -> np.ndarray:
    """Root of increasing h on [lo, hi] with h(lo) <= 0 <= h(hi), for every element at once.

    Newton from x, clipped into the shrinking bracket; bisection whenever the
    Newton step leaves it. Each element stops at float resolution, at its own
    exit: once its Newton correction is at most 2 ulp of x, or once its
    bisection midpoint equals an end of its bracket. So its root does not
    depend on the others, and the iteration cap is only a safety net. h and
    hprime take (x, *args), args being per-element parameters of x's shape.
    """
    root = np.empty_like(x)
    idx = np.arange(x.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(200):
            if idx.size == 0:
                break
            hx = h(x, *args)
            above = hx > 0.0
            lo, hi = np.where(above, lo, x), np.where(above, x, hi)
            d = hprime(x, *args)
            rising = d > 0.0
            newton = np.where(rising, x - hx / d, lo)
            close = rising & (np.abs(newton - x) <= 2.0 * np.spacing(x))
            bisect = ~((lo < newton) & (newton < hi))
            step = np.where(bisect, 0.5 * (lo + hi), newton)
            found = hx == 0.0
            done = found | close | (bisect & ((step == lo) | (step == hi)))
            if not done.any():
                x = step
                continue
            value = np.where(found, x, np.where(close, np.clip(newton, lo, hi), step))
            root[idx[done]] = value[done]
            keep = ~done
            idx, x, lo, hi = idx[keep], step[keep], lo[keep], hi[keep]
            args = tuple(a[keep] for a in args)
    root[idx] = 0.5 * (lo + hi)
    return root


def power_prox_candidates(c, b: np.ndarray, lam, gamma: float) -> np.ndarray:
    """The nonzero candidate minimizer of c(x-b)^2 + lam*|x|**gamma for every
    element of b (c and lam scalars or arrays of b's shape), else 0.0; callers
    compare it with the literal 0. lam = 0 gives b, and b = +-0 gives +0.0.
    """
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
        h = lambda x, c, beta, lam: 2.0 * c * (x - beta) + lam * gamma * x ** (gamma - 1.0)
        hp = lambda x, c, beta, lam: 2.0 * c + lam * gamma * (gamma - 1.0) * x ** (gamma - 2.0)
        if gamma > 1.0:
            # h rises from -2c*beta at 0. From this upper bound of the root Newton
            # runs to it monotonically (for gamma < 2, where h is concave, after
            # one step to its left). A bound below the normal floats is the root
            # to within 2.2e-308 and is kept: h' may overflow there.
            root = bl.copy()
            lower = ll * gamma * bl ** (gamma - 1.0) > 2.0 * cl * bl
            root[lower] = (2.0 * cl[lower] * bl[lower] / (ll[lower] * gamma)) ** (1.0 / (gamma - 1.0))
            k = np.flatnonzero(root >= _TINY)
            lo, hi, x = np.zeros(k.size), root[k], root[k]
        else:
            # nonconvex: at most one interior local minimum, beyond the dip of h
            root = np.zeros(live.size)
            x_star = (ll * gamma * (1.0 - gamma) / (2.0 * cl)) ** (1.0 / (2.0 - gamma))
            k = np.flatnonzero(x_star < bl)
            k = k[h(x_star[k], cl[k], bl[k], ll[k]) <= 0.0]
            lo, hi, x = x_star[k], bl[k], 0.5 * (x_star[k] + bl[k])
        root[k] = _bracketed_newton_array(h, hp, lo, hi, x, cl[k], bl[k], ll[k])
        out = np.zeros(b.shape)
        out.flat[live] = np.where(root == 0.0, 0.0, sign.flat[live] * root)
    return np.where(lam == 0.0, b, np.where(b == 0.0, 0.0, out))


def _scad_candidates_array(c: float, b: np.ndarray, lam: float, n: int, a: float) -> list[np.ndarray]:
    """SCAD's candidates on b's side, elementwise: the junctions lam and a lam,
    each branch's stationary point where it lies in its branch and b itself
    where the penalty is flat (0.0 where one does not apply)."""
    s, beta = np.where(b > 0.0, 1.0, -1.0), np.abs(b)
    x1 = beta - n * lam / (2.0 * c)
    cands = [s * lam, s * (a * lam), np.where((0.0 < x1) & (x1 <= lam), s * x1, 0.0)]
    denom = 2.0 * c - n / (a - 1.0)
    if denom != 0.0:
        x2 = (2.0 * c * beta - n * a * lam / (a - 1.0)) / denom
        cands.append(np.where((lam < x2) & (x2 <= a * lam), s * x2, 0.0))
    return cands + [np.where(beta > a * lam, b, 0.0)]


def _selo_candidates_array(c: float, b: np.ndarray, lam: float, n: int, tau: float) -> list[np.ndarray]:
    """SELO's interior candidate, elementwise (0.0 where there is none)."""
    s, beta = np.where(b > 0.0, 1.0, -1.0), np.abs(b)
    coef = 2.0 * n * lam / LOG2

    # p_n'(x) = coef tau / (u v), u = x + tau, v = 2x + tau. h, h' and h'' divide by u
    # and v one at a time, so no product of small factors underflows to a zero divisor.
    def dpen(x):
        return coef * (tau / (2.0 * x + tau)) / (x + tau)

    def hp(x):
        return 2.0 * c - dpen(x) * (1.0 / (x + tau) + 2.0 / (2.0 * x + tau))

    def hpp(x):
        iu, iv = 1.0 / (x + tau), 2.0 / (2.0 * x + tau)
        return dpen(x) * ((iu + iv) * (iu + iv) + iu * iu + iv * iv)

    # h is convex on [0, beta] with h(beta) > 0; an interior local minimum of the objective
    # exists only where h crosses 0 from below, right of its dip (the root of increasing h').
    # h'(x) >= 2c - coef tau / x^3, so the dip lies below cbrt(coef tau / 2c): twice that
    # bounds its search, which a tiny tau would otherwise halve its way down from beta.
    k = np.flatnonzero(hp(beta) > 0.0)
    if hp(0.0) >= 0.0:
        dip = np.zeros(k.size)
    else:
        bound = 2.0 * np.cbrt(coef * tau / (2.0 * c))  # 0 where coef tau underflows: no bound then
        top = np.minimum(beta[k], bound if bound > 0.0 else np.inf)
        dip = _bracketed_newton_array(hp, hpp, np.zeros(k.size), top, 0.5 * top)
    h = lambda x, beta: 2.0 * c * (x - beta) + dpen(x)
    rising = h(dip, beta[k]) <= 0.0
    k, dip = k[rising], dip[rising]
    root = _bracketed_newton_array(h, lambda x, beta: hp(x), dip, beta[k], 0.5 * (dip + beta[k]), beta[k])
    out = np.zeros(b.shape)
    out[k] = s[k] * root
    return [out]


def _least(pen: PenaltySpec, n: int, c, b: np.ndarray, cands: list, lo: float, hi: float) -> np.ndarray:
    """Elementwise, the candidate of least c(x-b)^2 + p_n(x) in [lo, hi] among the
    literal 0 and the finite ends (where they lie in it) and the arrays `cands`:
    the smallest (value, |x|, x), the earliest on a full tie. A value that
    overflows is inf, which loses to every finite one."""
    fixed = [x for x in (0.0, lo, hi) if lo <= x <= hi and math.isfinite(x)]
    C = np.array(cands)
    # p_n once for the fixed candidates and once for the others, nan outside [lo, hi]: it never wins
    pens = [*penalty_value(pen, n, np.array(fixed)),
            *np.where((lo <= C) & (C <= hi), penalty_value(pen, n, C), np.nan)]
    best, best_v = np.full(b.shape, np.inf), np.full(b.shape, np.inf)
    for x, px in zip(fixed + cands, pens):
        d = x - b
        v = c * d * d + px
        ax, a_best = np.abs(x), np.abs(best)
        take = (v < best_v) | ((v == best_v) & ((ax < a_best) | ((ax == a_best) & (x < best))))
        best = np.where(take, x, best)
        best_v = np.where(take, v, best_v)
    return best


def prox_array(pen: PenaltySpec, n: int, c: float, b: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Minimizer over [lo, hi] of x -> c*(x-b)^2 + p_n(x), c > 0, for every element of b.

    `_least` picks among the family's stationary points (bridge through
    `power_prox_candidates`, SCAD in closed form, SELO by two root finds), so
    a zero is the literal +0.0, never a thresholded value; p_n = 0 gives
    clip(b). Callers hold numpy's overflow and invalid-value errors: a b that
    overflows gives inf or nan candidates, which never win."""
    lam = pen.schedule.value(n)
    if lam == 0.0:
        return np.clip(b, lo, hi) + 0.0  # + 0.0 turns -0.0 into +0.0
    if pen.family == "bridge":
        cands = [power_prox_candidates(c, b, lam, pen.gamma)]
    elif pen.family == "scad":
        cands = _scad_candidates_array(c, b, lam, n, pen.a)
    else:
        cands = _selo_candidates_array(c, b, lam, n, pen.tau.value(n))
    return _least(pen, n, c, b, cands, lo, hi)


def scalar_prox_interval(pen: PenaltySpec, n: int, c: float, b: float,
                         lo: float, hi: float) -> float:
    """Minimizer of x -> c*(x-b)^2 + p_n(x) over [lo, hi]: `prox_array` on one element.

    Smallest objective wins; ties go toward smaller |x|, then toward negative x.
    A bridge value that overflows at a finite end raises InvalidInputError, as
    in `minimize`; elsewhere a candidate whose value overflows just loses.
    """
    if not (c > 0.0):
        raise InvalidInputError(f"prox curvature must be positive, got {c}")
    checked_penalty_value(pen, n, [end for end in (lo, hi) if math.isfinite(end)])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return float(prox_array(pen, n, c, np.array([float(b)]), lo, hi)[0])


# ---------------------------------------------------------------------------
# Condition checkers
# ---------------------------------------------------------------------------


def default_divergence_scale(pen: PenaltySpec) -> TuningSchedule:
    """Family-natural q_n: lambda_n/n^(gamma/2) for bridge, the bound scale n lambda_n^2 (SCAD)
    or n lambda_n (SELO) otherwise, and 1 when lambda_n = 0 (every `none` spec)."""
    sch = pen.schedule
    if sch.c == 0.0:
        return TuningSchedule(c=1.0, e=0.0)
    if pen.family == "bridge":
        return TuningSchedule(c=sch.c, e=sch.e - pen.gamma / 2.0)
    if pen.family == "scad":
        return TuningSchedule(c=sch.c * sch.c, e=1.0 + 2.0 * sch.e)
    return TuningSchedule(c=sch.c, e=1.0 + sch.e)


def _sphere_infimum(pen: PenaltySpec, n: int, r: np.ndarray, p0: int) -> np.ndarray:
    """inf over |u| = r of sum_k p_n(u_k/sqrt(n)), in closed form, for every r of an array.

    With s_k = u_k^2 the sum is sum_k f(s_k), f(s) = p_n(sqrt(s/n)), over the
    simplex sum_k s_k = r^2. For SCAD, SELO and bridge with gamma <= 2, p_n' is
    nonnegative and nonincreasing on t > 0, so f'(s) = p_n'(t)/(2 sqrt(n s))
    (t = sqrt(s/n)) is nonincreasing and f is concave: its minimum over the
    simplex sits at a vertex, all mass on one axis (Horst & Tuy, Global
    Optimization, 1996). For bridge with gamma >= 2, f is convex and by Jensen
    the minimum puts mass r^2/p0 on every axis. Both are among the allocations
    of equal mass on k axes, k = 1..p0, so the least of those is the infimum.
    """
    k = np.arange(1, p0 + 1)
    return np.min(k * checked_penalty_value(pen, n, (r / math.sqrt(n))[:, None] / np.sqrt(k)), axis=1)


def check_divergence_condition(pen: PenaltySpec, n_grid, r_grid, p0: int = 1) -> dict:
    """Check the scaled sphere infimum inf_{|u|=r} sum_k p_n(u_k/sqrt(n)) / q_n,
    with q_n = default_divergence_scale(pen).

    Satisfied when, for every n on the grid, the curve in r is nondecreasing,
    grows by more than x2 from the smallest to largest r, and keeps growing by
    more than x2 over the top half of the r-grid (the saturation check that
    separates bounded penalties from divergent ones). Also fits a power r^s to
    the scaled curve. Returns the condition's block of `check`'s JSON. The
    grids are `CheckSettings`', p0 >= 1 and q_n > 0 on n_grid (`build_config`).
    """
    n_grid = tuple(int(n) for n in n_grid)
    r_grid = tuple(float(r) for r in r_grid)
    q = default_divergence_scale(pen)

    vals = np.empty((len(n_grid), len(r_grid)))
    for i, n in enumerate(n_grid):
        vals[i] = _sphere_infimum(pen, n, np.array(r_grid), p0) / q.value(n)

    # per n: nondecreasing in r, and more than x2 from the first r and from the middle r to the last
    slack = -1e-9 * np.maximum(1.0, np.max(np.abs(vals), axis=1, keepdims=True))
    ok = bool(np.all(np.all(np.diff(vals, axis=1) >= slack, axis=1) & (vals[:, -1] > 2.0 * vals[:, 0])
                     & (vals[:, -1] > 2.0 * vals[:, len(r_grid) // 2])))

    report = {"condition": COND_DIVERGENCE, "n_grid": list(n_grid), "probes": list(r_grid),
              "values": vals.tolist(), "verdict": "satisfied" if ok else "not-satisfied"}
    pos = vals > 0.0
    logr = np.broadcast_to(np.log(np.asarray(r_grid)), vals.shape)
    fit = fit_line(logr[pos], np.log(vals[pos]))
    if fit is not None:
        report["fitted_exponent"], report["fit_error"] = fit
    report["detail"] = {"q_n": {"c": q.c, "e": q.e}, "p0": p0}
    return report


def check_smooth_conditions(pen: PenaltySpec, n_grid, a_probes, b_probes,
                            beta: float) -> tuple[dict, dict]:
    """Finite-n surrogates for the growth cap sup_n p_n(a)/n^(1/2+beta) < inf
    and the root-n shift bound |p_n(a + b/sqrt(n)) - p_n(a)| <= c_{a,b} |b|^kappa.

    Returns the growth and the shift blocks of `check`'s JSON. The shift
    condition is a limsup at fixed probes; the probe sets are a documented
    knob, not a claim. The settings are `CheckSettings`': n_grid >= 3
    increasing values, every a nonzero and beta in (0, 1/2).
    """
    n_grid = tuple(int(n) for n in n_grid)
    a_probes = tuple(float(a) for a in a_probes)
    b_probes = tuple(float(b) for b in b_probes)

    # p_n at every a and every a + b/sqrt(n), one call per n: values[k] is (1 + len(b), len(a)) at n_grid[k]
    a_arr, b_arr = np.array(a_probes), np.array(b_probes)
    values = np.array([checked_penalty_value(pen, n, np.vstack((a_arr, a_arr + (b_arr / math.sqrt(n))[:, None])))
                       for n in n_grid])
    growth = np.array([v[0] / float(n) ** (0.5 + beta) for v, n in zip(values, n_grid)]).T
    growth_ok = all(boundedness_verdict(row) == PLAUSIBLY_BOUNDED for row in growth)
    growth_report = {"condition": COND_GROWTH_CAP, "n_grid": list(n_grid), "probes": list(a_probes),
                     "values": growth.tolist(), "verdict": "satisfied" if growth_ok else "not-satisfied",
                     "detail": {"beta": beta}}

    diffs = np.abs(values[:, 1:] - values[:, :1]).transpose(2, 1, 0)
    shift_ok = all(boundedness_verdict(row) == PLAUSIBLY_BOUNDED for row in diffs.reshape(-1, len(n_grid)))
    # Level of each (a, b) sequence over the top half of the grid = the
    # finite-n limsup surrogate; kappa, when one is found, is the smallest
    # power keeping the levels bounded across |b|.
    half = len(n_grid) // 2
    levels = diffs[:, :, half:].max(axis=2)
    order = np.argsort(np.abs(b_arr))
    shift_report = {"condition": COND_SHIFT, "n_grid": list(n_grid),
                    "probes": [[a, b] for a in a_probes for b in b_probes],
                    "values": diffs.tolist(), "verdict": "satisfied" if shift_ok else "not-satisfied"}
    for cand in (1, 2):
        ratios = levels[:, order] / np.abs(b_arr[order]) ** cand
        if all(boundedness_verdict(row) == PLAUSIBLY_BOUNDED for row in ratios):
            shift_report["kappa"] = cand
            break
    shift_report["detail"] = {"levels": levels.tolist()}
    return growth_report, shift_report
