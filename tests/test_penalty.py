import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from bridgelab import penalty as penalty_mod
from bridgelab.errors import InvalidInputError, InvalidSpecError
from bridgelab.penalty import (
    PenaltySpec,
    TuningSchedule,
    check_divergence_condition,
    check_smooth_conditions,
    penalty_total,
    penalty_value,
    power_prox_candidates,
    scalar_prox,
    scalar_prox_interval,
    zero_penalty,
)
from conftest import prox_grid_oracle, random_penalty, scalar_objective


def bridge(c, e, gamma):
    return PenaltySpec(family="bridge", schedule=TuningSchedule(c=c, e=e), gamma=gamma)


def scad(c, e, a=3.7):
    return PenaltySpec(family="scad", schedule=TuningSchedule(c=c, e=e), a=a)


def selo(c, e, tau_c=1.0, tau_e=-1.5):
    return PenaltySpec(family="selo", schedule=TuningSchedule(c=c, e=e),
                       tau=TuningSchedule(c=tau_c, e=tau_e))


# ---------------------------------------------------------------------------
# values
# ---------------------------------------------------------------------------


def test_bridge_value_l1():
    assert penalty_value(bridge(2.0, 0.0, 1.0), 1, -3.0) == 6.0


def test_scad_flat_branch_value():
    # third branch: n (a+1) lambda^2 / 2 once |t| > a*lambda
    pen = scad(0.1, 0.0, a=3.7)
    assert_allclose(penalty_value(pen, 100, 1.0), 100 * 4.7 * 0.01 / 2.0, rtol=1e-15)
    assert penalty_value(pen, 100, 1.0) == pytest.approx(2.35)


def test_scad_branches_continuous():
    pen = scad(0.2, 0.0, a=3.0)
    lam = 0.2
    for t in (lam, 3.0 * lam):
        below = penalty_value(pen, 50, t - 1e-12)
        above = penalty_value(pen, 50, t + 1e-12)
        assert abs(above - below) < 1e-6


def test_selo_zero_and_saturation():
    pen = selo(0.5, 0.0)
    assert penalty_value(pen, 10, 0.0) == 0.0
    # limit 2 n lambda = 10
    assert penalty_value(pen, 10, 1e12) == pytest.approx(10.0, rel=1e-9)


def test_penalty_total_examples():
    assert penalty_total(zero_penalty(), 5, np.zeros(4)) == 0.0
    pen = bridge(4.0, 0.0, 0.5)
    assert penalty_total(pen, 1, np.array([1.0, 4.0])) == pytest.approx(12.0)


def test_penalty_total_summation_orders():
    pen = bridge(0.7, 0.1, 0.5)
    rng = np.random.default_rng(3)
    theta = rng.normal(size=17)
    loop = sum(penalty_value(pen, 40, t) for t in theta)
    assert penalty_total(pen, 40, theta) == pytest.approx(loop, abs=1e-12)


@given(t=st.floats(-50, 50, allow_subnormal=False), fam=st.sampled_from(["bridge", "scad", "selo"]),
       gamma=st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0]))
@settings(max_examples=80, deadline=None)
def test_penalty_even_nonnegative_zero_at_zero(t, fam, gamma):
    if fam == "bridge":
        pen = bridge(1.3, 0.2, gamma)
    elif fam == "scad":
        pen = scad(0.3, -0.2)
    else:
        pen = selo(0.3, -0.2)
    v = penalty_value(pen, 25, t)
    assert v >= 0.0
    assert v == penalty_value(pen, 25, -t)
    assert penalty_value(pen, 25, 0.0) == 0.0
    if abs(t) > 1e-100:  # below that, |t|**gamma can underflow to 0
        assert v > 0.0  # strictly positive off 0 for all three families


def test_schedule_validation():
    with pytest.raises(InvalidSpecError):
        TuningSchedule(c=-1.0, e=0.5)
    with pytest.raises(InvalidSpecError):
        PenaltySpec(family="bridge", schedule=TuningSchedule(1.0, 0.5), gamma=0.0)
    with pytest.raises(InvalidSpecError):
        PenaltySpec(family="scad", schedule=TuningSchedule(1.0, 0.5), a=2.0)
    with pytest.raises(InvalidSpecError):
        PenaltySpec(family="nope", schedule=TuningSchedule(1.0, 0.5))


# ---------------------------------------------------------------------------
# scalar prox
# ---------------------------------------------------------------------------


def test_prox_soft_threshold_closed_form():
    pen = bridge(1.0, 0.0, 1.0)
    assert scalar_prox(pen, 1, 1.0, 1.0) == pytest.approx(0.5, abs=1e-15)
    assert scalar_prox(pen, 1, 1.0, 0.4) == 0.0
    assert scalar_prox(pen, 1, 1.0, -1.0) == pytest.approx(-0.5, abs=1e-15)


def test_prox_bridge_half_matches_grid_oracle():
    pen = bridge(2.0, 0.0, 0.5)
    x = scalar_prox(pen, 1, 1.0, 2.0)
    x_oracle, _ = prox_grid_oracle(pen, 1, 1.0, 2.0, pad=2.0)
    assert x == pytest.approx(x_oracle, abs=1e-6)


def test_prox_scad_flat_region_identity():
    pen = scad(0.1, 0.0, a=3.7)
    # far beyond a*lambda the penalty is flat, so the quadratic wins exactly
    assert scalar_prox(pen, 10, 2.0, 5.0) == 5.0


def test_unpenalized_spec_holds_lambda_zero_whatever_its_schedule():
    # the spec holds lambda_n = 0, so the value, the prox and the regime read one schedule
    assert PenaltySpec(family="none", schedule=TuningSchedule(1.0, 0.5)) == zero_penalty()


def test_prox_zero_penalty_identity():
    assert scalar_prox(zero_penalty(), 7, 3.0, -1.234) == -1.234


def test_prox_rejects_nonpositive_curvature():
    with pytest.raises(InvalidInputError):
        scalar_prox(zero_penalty(), 1, 0.0, 1.0)


@given(seed=st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_prox_beats_fallback_grid(seed):
    rng = np.random.default_rng(seed)
    pen = random_penalty(rng)
    n = int(rng.integers(1, 200))
    c = float(rng.uniform(0.05, 20.0))
    b = float(rng.uniform(-6.0, 6.0))
    x = scalar_prox(pen, n, c, b)
    fx = float(scalar_objective(pen, n, c, b, x))
    grid = np.linspace(-abs(b) - 1.0, abs(b) + 1.0, 10_000)
    fg = float(np.min(scalar_objective(pen, n, c, b, grid)))
    assert fx <= fg + 1e-10
    assert fx <= float(scalar_objective(pen, n, c, b, b)) + 1e-12
    assert fx <= float(scalar_objective(pen, n, c, b, 0.0)) + 1e-12


@given(seed=st.integers(0, 10**6), gamma=st.sampled_from([0.3, 0.5, 1.0, 1.7, 2.0]))
@settings(max_examples=40, deadline=None)
def test_prox_bridge_monotone_in_b(seed, gamma):
    rng = np.random.default_rng(seed)
    pen = bridge(float(rng.uniform(0.1, 2.0)), float(rng.uniform(-0.3, 0.4)), gamma)
    n = int(rng.integers(1, 100))
    c = float(rng.uniform(0.1, 10.0))
    ladder = np.sort(rng.uniform(0.0, 5.0, size=8))
    outs = [abs(scalar_prox(pen, n, c, float(b))) for b in ladder]
    assert all(b2 >= b1 - 1e-12 for b1, b2 in zip(outs, outs[1:]))


def test_prox_interval_respects_box():
    pen = bridge(1.0, 0.0, 1.0)
    x = scalar_prox_interval(pen, 1, 1.0, 5.0, -1.0, 2.0)
    assert -1.0 <= x <= 2.0
    # unconstrained solution 4.5 is clipped to the best feasible point
    assert x == pytest.approx(2.0)


def test_prox_interval_raises_where_a_bridge_value_overflows_at_a_finite_end():
    pen = bridge(1e10, 0.0, 3.0)
    for lo, hi in ((-1e200, 1e200), (-1.0, 1e200), (-1e200, math.inf)):
        with pytest.raises(InvalidInputError, match="overflows"):
            scalar_prox_interval(pen, 1, 1.0, 0.5, lo, hi)
    assert scalar_prox_interval(pen, 1, 1.0, 0.5, -1.0, 1.0) == scalar_prox(pen, 1, 1.0, 0.5)


@pytest.mark.parametrize("pen", [bridge(1.0, 0.0, 0.5), bridge(1.0, 0.0, 1.5), bridge(0.0, 0.0, 0.5),
                                 scad(0.2, 0.0), selo(0.2, 0.0), zero_penalty()],
                         ids=["bridge-0.5", "bridge-1.5", "bridge-lam0", "scad", "selo", "none"])
def test_prox_zero_rule_is_positive_zero_in_every_family(pen):
    # b = +-0 gives the literal +0.0 wherever the box holds 0, and the end
    # nearest 0 where it does not
    for b in (0.0, -0.0):
        zeros = [scalar_prox(pen, 10, 2.0, b)] + [
            scalar_prox_interval(pen, 10, 2.0, b, lo, hi)
            for lo, hi in ((-1.0, 1.0), (0.0, 2.0), (-2.0, 0.0), (-2.0, -0.0))]
        assert all(x == 0.0 and math.copysign(1.0, x) == 1.0 for x in zeros), zeros
        for (lo, hi), end in (((0.2, 2.0), 0.2), ((-2.0, -0.2), -0.2)):
            assert scalar_prox_interval(pen, 10, 2.0, b, lo, hi) == end


@pytest.mark.parametrize("tau", [1e-300, 1e-200, 1e-80])
def test_selo_prox_is_finite_for_tiny_tau(tau):
    # the products (x + tau)(2x + tau) of the SELO slopes underflow to 0 near
    # x = 0 for such tau; the prox must still return a finite minimizer
    rng = np.random.default_rng(3)
    for c, b, lam in _log_uniform_prox_inputs(5, 300):
        n = int(rng.integers(1, 5000))
        pen = selo(lam, 0.0, tau_c=tau, tau_e=0.0)
        x = scalar_prox(pen, n, c, b)
        assert math.isfinite(x) and (x == 0.0 or abs(x) <= abs(b))
        obj = lambda t: scalar_objective(pen, n, c, b, t)
        assert obj(x) <= min(obj(0.0), obj(b))


def _half_thresholding_root(c, b, lam):
    """Interior gamma = 1/2 root in closed form (Xu, Chang, Xu & Zhang, 2012):
    z = sqrt(x) is the largest root of z^3 - beta z + lam/(4c) = 0."""
    beta = abs(b)
    k = lam / (4.0 * c)
    z = 2.0 * math.sqrt(beta / 3.0) * math.cos(
        math.acos(-(3.0 * k / (2.0 * beta)) * math.sqrt(3.0 / beta)) / 3.0)
    return math.copysign(z * z, b)


def _three_halves_root(c, b, lam):
    """gamma = 3/2 root: z = sqrt(x) solves 2c z^2 + 1.5 lam z - 2c beta = 0."""
    beta = abs(b)
    z = 4.0 * c * beta / (1.5 * lam + math.sqrt(2.25 * lam * lam + 16.0 * c * c * beta))
    return math.copysign(z * z, b)


def _log_uniform_prox_inputs(seed, size):
    """(c, b, lam) spanning five to six decades each, b of either sign."""
    rng = np.random.default_rng(seed)
    c = 10.0 ** rng.uniform(-2.0, 3.0, size)
    b = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-3.0, 3.0, size)
    lam = 10.0 ** rng.uniform(-3.0, 3.0, size)
    return [(float(ci), float(bi), float(li)) for ci, bi, li in zip(c, b, lam)]


def _log_uniform_prox_arrays(seed, size):
    """The inputs of `_log_uniform_prox_inputs` as the arrays c, b, lam."""
    return np.array(_log_uniform_prox_inputs(seed, size)).T


@pytest.mark.parametrize("gamma, closed_form", [(0.5, _half_thresholding_root),
                                                 (1.5, _three_halves_root)],
                         ids=["half-thresholding", "three-halves"])
def test_power_prox_root_matches_closed_form_to_64_ulp(gamma, closed_form):
    c, b, lam = _log_uniform_prox_arrays(20251018, 6000)
    roots = power_prox_candidates(c, b, lam, gamma)
    ulps = []
    for ci, bi, li, root in zip(c, b, lam, roots):
        if root == 0.0:
            assert gamma < 1.0  # no interior local minimum: only the literal 0
            continue
        ref = closed_form(ci, bi, li)
        ulps.append(abs(root - ref) / math.ulp(ref))
    ulps = np.array(ulps)
    assert ulps.size >= 2000
    assert np.max(ulps) <= 64.0, (
        f"{int(np.sum(ulps > 64.0))} of {ulps.size} roots beyond 64 ulp, worst {np.max(ulps)}")


def _count_root_find_evaluations(monkeypatch):
    """Patch the root finder to record how often each element's h is evaluated."""
    evaluations = []
    newton = penalty_mod._bracketed_newton_array

    def counted(h, hprime, lo, hi, x, *args):
        count = np.zeros(x.size, dtype=int)

        def h_counted(x, *args):
            np.add.at(count, args[-1], 1)
            return h(x, *args[:-1])

        root = newton(h_counted, lambda x, *a: hprime(x, *a[:-1]), lo, hi, x, *args, np.arange(x.size))
        evaluations.extend(count.tolist())
        return root

    monkeypatch.setattr(penalty_mod, "_bracketed_newton_array", counted)
    return evaluations


@pytest.mark.parametrize("gamma", [0.3, 0.5, 0.7, 1.5, "selo"])
def test_prox_root_finds_stop_at_float_resolution(monkeypatch, gamma):
    # every element of a root find must meet its stopping rule long before the 200-iteration cap
    evaluations = _count_root_find_evaluations(monkeypatch)
    rng = np.random.default_rng(7)
    if gamma == "selo":
        for c, b, lam in _log_uniform_prox_inputs(11, 3000):
            pen = selo(lam, 0.0, tau_c=10.0 ** rng.uniform(-4.0, 0.0), tau_e=0.0)
            scalar_prox(pen, int(rng.integers(1, 5000)), c, b)
    else:
        power_prox_candidates(*_log_uniform_prox_arrays(11, 3000)[[0, 1, 2]], gamma)
    assert len(evaluations) >= 1000
    assert max(evaluations) <= 60
    if gamma == 1.5:
        # roots far below beta, where a start at the midpoint of [0, beta]
        # halved its way down (47 and 66 evaluations)
        for lam in (1e3, 1e6):
            evaluations.clear()
            root = power_prox_candidates(0.01, np.array([0.001]), lam, 1.5)[0]
            assert evaluations[0] <= 15
            ref = _three_halves_root(0.01, 0.001, lam)
            assert abs(root - ref) <= 64.0 * math.ulp(ref)


@pytest.mark.parametrize("gamma", [0.3, 0.5, 0.7, 1.0, 1.5, 2.0])
def test_power_prox_candidates_are_elementwise(gamma):
    # an element's candidate does not depend on the other elements: a permuted
    # call, calls on chunks of 1 to 109 elements and one-element calls give the
    # same bits, c and lam as arrays or as scalars alike; roots land within 64
    # ulp of the closed forms (gamma = 0.3 and 0.7: the decimal reference below)
    c, b, lam = _log_uniform_prox_arrays(20251019, 6000)
    vec = power_prox_candidates(c, b, lam, gamma)
    assert isinstance(vec, np.ndarray) and vec.shape == b.shape
    perm = np.random.default_rng(3).permutation(b.size)
    assert power_prox_candidates(c[perm], b[perm], lam[perm], gamma).tobytes() == vec[perm].tobytes()
    chunks = np.split(np.arange(b.size), np.cumsum(np.arange(1, 110)))
    assert np.concatenate([power_prox_candidates(c[i], b[i], lam[i], gamma) for i in chunks]).tobytes() == vec.tobytes()
    alone = [power_prox_candidates(ci, np.array([bi]), li, gamma)[0] for ci, bi, li in zip(c[:300], b[:300], lam[:300])]
    assert vec[:300].tobytes() == np.array(alone).tobytes()
    assert power_prox_candidates(c[0], b, lam[0], gamma).tobytes() == power_prox_candidates(
        np.full(b.shape, c[0]), b, np.full(b.shape, lam[0]), gamma).tobytes()
    closed_form = {0.5: _half_thresholding_root, 1.5: _three_halves_root,
                   1.0: lambda c, b, lam: math.copysign(max(abs(b) - lam / (2.0 * c), 0.0), b),
                   2.0: lambda c, b, lam: c * b / (c + lam)}.get(gamma)
    if closed_form is not None:
        for ci, bi, li, x in zip(c, b, lam, vec):
            if x != 0.0:
                ref = closed_form(ci, bi, li)
                assert abs(x - ref) <= 64.0 * math.ulp(ref)
    assert np.any(vec == 0.0) == (gamma <= 1.0)
    assert not np.any(np.signbit(vec[vec == 0.0]))


def _decimal_tenth_root(m):
    """m^(1/10) to the decimal context's precision: Newton from the float root."""
    z = Decimal(float(m) ** 0.1)
    for _ in range(4):
        z -= (z ** 10 - m) / (10 * z ** 9)
    return z


@pytest.mark.parametrize("k", [3, 7])
def test_nonconvex_power_root_matches_a_50_digit_bisection(k):
    # gamma = k/10 < 1. With x = z^10, z^(10-k) h(x) = 2c z^(10-k) (z^10 - beta)
    # + lam gamma =: g(z) has the sign of h(x) = 2c(x - beta) + lam gamma x^(gamma-1)
    # and only integer powers, so a decimal bisection of g is an exact reference.
    # g falls, then rises on z > 0, least at z^10 = (10-k) beta / (20-k): an
    # interior local minimum exists exactly where that least value is <= 0, and
    # it is g's larger root. Each root is within 64 ulp of it, or, where h is
    # near-tangent (its slope h'(x) far below 2c), within the error that 4 ulp of
    # h's term 2c(beta - x) make: on these draws one root, 69 ulp off at
    # h'(x) = 0.039 * 2c
    gamma = k / 10
    c, b, lam = _log_uniform_prox_arrays(20251019, 6000)
    roots = power_prox_candidates(c, b, lam, gamma)
    count = 0
    with localcontext() as ctx:
        ctx.prec = 50
        for ci, bi, li, x in zip(c, b, lam, roots):
            two_c, beta, lam_gamma = 2 * Decimal(ci), Decimal(abs(bi)), Decimal(li) * k / 10
            g = lambda z: two_c * z ** (10 - k) * (z ** 10 - beta) + lam_gamma
            z_least = _decimal_tenth_root(beta * (10 - k) / (20 - k))
            assert (g(z_least) <= 0) == (x != 0.0), (ci, bi, li)
            if x == 0.0:
                continue
            ref = float(_decimal_bisect(g, z_least, _decimal_tenth_root(beta), Decimal("1e-25")) ** 10)
            slope = 2.0 * ci + li * gamma * (gamma - 1.0) * ref ** (gamma - 2.0)
            bound = max(64.0 * math.ulp(ref), 4.0 * 2.0 ** -52 * 2.0 * ci * (abs(bi) - ref) / slope)
            assert abs(abs(x) - ref) <= bound, (ci, bi, li, x, ref)
            assert math.copysign(1.0, x) == math.copysign(1.0, bi)
            count += 1
    assert count >= 3000


def test_power_prox_array_edge_values():
    # lam = 0 returns b itself, b = +-0 gives +0, and the sign follows b
    b = np.array([0.0, -0.0, 2.0, -2.0])
    assert power_prox_candidates(1.0, b, 0.0, 0.5).tobytes() == b.tobytes()
    out = power_prox_candidates(1.0, b, 1.0, 0.5)
    assert out[0] == 0.0 and not np.signbit(out[0]) and not np.signbit(out[1])
    root = _half_thresholding_root(1.0, 2.0, 1.0)
    assert abs(out[2] - root) <= 64.0 * math.ulp(root) and out[3] == -out[2]


def _selo_h(c, beta, coef, tau, x):
    """h(x) = 2c(x - beta) + coef tau / ((x + tau)(2x + tau)), exactly in the current decimal context."""
    return 2 * c * (x - beta) + coef * tau / ((x + tau) * (2 * x + tau))


def _decimal_bisect(f, lo, hi, rel=Decimal("1e-40")):
    """The sign change of f on [lo, hi] (f(lo) <= 0 < f(hi)), to `rel` of hi."""
    while hi - lo > hi * rel:
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if f(mid) <= 0 else (lo, mid)
    return (lo + hi) / 2


def test_selo_root_matches_a_50_digit_bisection_to_274_ulp():
    # h is rational in x, so a decimal bisection holds the elementwise SELO root to
    # an exact reference: first the dip (the root of the increasing h'), then the
    # root of h right of it. Near-tangent h make the root ill-conditioned; 274 ulp
    # is the largest error the scalar root find made on such draws
    rng = np.random.default_rng(29)
    ulps = []
    for c, b, lam in _log_uniform_prox_inputs(31, 1500):
        n, tau = int(rng.integers(1, 5000)), float(10.0 ** rng.uniform(-4.0, 0.0))
        (x,) = penalty_mod._selo_candidates_array(c, np.array([b]), lam, n, tau)
        dc, beta, coef, dt = Decimal(c), Decimal(abs(b)), Decimal(2.0 * n * lam / penalty_mod.LOG2), Decimal(tau)
        h = lambda t: _selo_h(dc, beta, coef, dt, t)
        hp = lambda t: 2 * dc - coef * dt * (4 * t + 3 * dt) / ((t + dt) * (2 * t + dt)) ** 2
        with localcontext() as ctx:
            ctx.prec = 50
            dip = Decimal(0) if hp(Decimal(0)) >= 0 else _decimal_bisect(hp, Decimal(0), beta)
            # an interior root exists exactly where the float path finds one
            assert (hp(beta) > 0 and h(dip) <= 0) == (x[0] != 0.0), (c, b, lam, n, tau)
            if x[0] == 0.0:
                continue
            ref = float(_decimal_bisect(h, dip, beta))
        ulps.append(abs(abs(x[0]) - ref) / math.ulp(ref))
        assert math.copysign(1.0, x[0]) == math.copysign(1.0, b)
        assert scalar_prox(selo(lam, 0.0, tau_c=tau, tau_e=0.0), n, c, b) in (0.0, x[0])
    assert len(ulps) >= 500
    assert max(ulps) <= 274.0, f"worst {max(ulps)} ulp"


def _scad_exact_values(c, b, lam, n, a, lo, hi):
    """SCAD's candidates in [lo, hi] with their exact values of c(x-b)^2 + p_n(x),
    in rationals, sorted by (value, |x|, x)."""
    c, b, lam, n, a, lo, hi = (Fraction(v) for v in (c, b, lam, n, a, lo, hi))
    s, beta = (1 if b > 0 else -1), abs(b)

    def pen(x):
        t = abs(x)
        if t <= lam:
            return n * lam * t
        if t <= a * lam:
            return -n * (t * t - 2 * a * lam * t + lam * lam) / (2 * (a - 1))
        return n * (a + 1) * lam * lam / 2

    cands = [Fraction(0), lo, hi, s * lam, s * a * lam]
    x1 = beta - n * lam / (2 * c)
    if 0 < x1 <= lam:
        cands.append(s * x1)
    denom = 2 * c - n / (a - 1)
    if denom != 0:
        x2 = (2 * c * beta - n * a * lam / (a - 1)) / denom
        if lam < x2 <= a * lam:
            cands.append(s * x2)
    if beta > a * lam:
        cands.append(b)
    return sorted(((c * (x - b) ** 2 + pen(x), abs(x), x) for x in set(cands) if lo <= x <= hi))


def test_scad_prox_matches_an_exact_rational_enumeration():
    # the elementwise SCAD prox picks the exact minimizer among SCAD's candidates,
    # enumerated in rationals: exactly where that is 0 or a box end, else within
    # 4 ulp of the inputs' scale max(|b|, a lambda) (the float candidates are
    # rounded differences of such numbers). Draws whose best two exact values
    # lie within 1e-12 relative of each other would be skipped: either is a minimizer
    rng = np.random.default_rng(17)
    checked = zeros = skipped = 0
    for _ in range(60):
        a, n = float(rng.uniform(2.1, 5.0)), int(rng.integers(1, 400))
        pen = scad(float(10.0 ** rng.uniform(-2.0, 0.0)), 0.0, a=a)
        c, lo, hi = float(n * rng.uniform(0.2, 2.0)), float(-rng.uniform(0.5, 10.0)), float(rng.uniform(0.5, 10.0))
        lam = pen.schedule.value(n)
        b = rng.choice([-1.0, 1.0], 40) * lam * 10.0 ** rng.uniform(-1.0, 1.5, 40)
        for bi, x in zip(b.tolist(), penalty_mod.prox_array(pen, n, c, b, lo, hi).tolist()):
            (best, _, ref), (second, _, _) = _scad_exact_values(c, bi, lam, n, a, lo, hi)[:2]
            if second - best <= abs(best) * Fraction(1, 10 ** 12):
                skipped += 1
                continue
            if ref == 0 or ref in (lo, hi):
                assert x == float(ref), (bi, x, ref)
            assert abs(x - float(ref)) <= 4.0 * math.ulp(max(abs(bi), a * lam)), (bi, x, float(ref))
            zeros += x == 0.0
            checked += 1
    assert checked >= 2000 and 100 <= zeros < checked and skipped <= 40


# ---------------------------------------------------------------------------
# condition checkers
# ---------------------------------------------------------------------------

N_GRID = (16, 64, 256, 1024, 4096)
R_GRID = tuple(float(x) for x in np.geomspace(1.0, 1024.0, 21))


def test_divergence_bridge_exact_power():
    for gamma in (0.25, 0.5, 0.75):
        pen = bridge(1.0, 0.35, gamma)
        rep = check_divergence_condition(pen, N_GRID, R_GRID, p0=1)
        assert rep["verdict"] == "satisfied"
        # scaled infimum is exactly r^gamma, so the fitted power is exact
        assert abs(rep["fitted_exponent"] - gamma) <= 1e-3
        assert_allclose(rep["values"][0], np.asarray(R_GRID) ** gamma, rtol=1e-12)


def test_divergence_bridge_two_dim_sphere_matches_dense_search():
    pen = bridge(1.0, 0.3, 0.5)
    n, r = 64, 7.0
    rep = check_divergence_condition(pen, (n, 128, 256), (1.0, r, 50.0), p0=2)
    rn = r / math.sqrt(n)
    ang = np.linspace(0.0, math.pi / 2.0, 20001)
    dense = np.min(penalty_value(pen, n, rn * np.cos(ang))
                   + penalty_value(pen, n, rn * np.sin(ang)))
    q = pen.schedule.value(n) / n ** 0.25
    assert rep["values"][0][1] == pytest.approx(dense / q, abs=1e-8)
    # concavity: the infimum sits on a coordinate axis
    assert rep["values"][0][1] == pytest.approx(r ** 0.5, rel=1e-12)


@pytest.mark.parametrize("p0", [3, 5])
@pytest.mark.parametrize("pen", [
    bridge(1.0, 0.3, 0.5),
    bridge(1.0, 0.3, 2.0),
    bridge(1.0, 0.3, 3.0),
    scad(1.0, -0.25),
    selo(1.0, -0.25),
], ids=["bridge-0.5", "bridge-2", "bridge-3", "scad", "selo"])
def test_divergence_sphere_infimum_matches_random_search(pen, p0):
    # independent minimum over the sphere |u| = r: 20,000 random directions
    # plus the one-axis and the equal-mass points
    n_grid, r_grid = (16, 256), (0.5, 4.0, 40.0)
    rep = check_divergence_condition(pen, n_grid, r_grid, p0=p0)
    rng = np.random.default_rng(p0)
    dirs = rng.standard_normal((20_000, p0))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    dirs = np.vstack([dirs, np.eye(p0)[:1], np.full((1, p0), 1.0 / math.sqrt(p0))])
    q = penalty_mod.default_divergence_scale(pen)
    for i, n in enumerate(n_grid):
        for j, r in enumerate(r_grid):
            sums = np.sum(penalty_value(pen, n, r * dirs / math.sqrt(n)), axis=1)
            assert rep["values"][i][j] * q.value(n) == pytest.approx(np.min(sums), rel=1e-12)
            if pen.family == "bridge" and pen.gamma > 2.0:
                # convex case: equal mass on all p0 axes beats one axis
                assert sums[-1] < sums[-2]


def test_divergence_rejects_bounded_penalties():
    rep = check_divergence_condition(scad(1.0, -0.25), N_GRID, R_GRID, p0=1)
    assert rep["verdict"] == "not-satisfied"
    rep = check_divergence_condition(selo(1.0, -0.25), N_GRID, R_GRID, p0=1)
    assert rep["verdict"] == "not-satisfied"


def test_divergence_input_validation():
    with pytest.raises(InvalidInputError):
        check_divergence_condition(bridge(1.0, 0.3, 0.5), (), R_GRID, p0=1)
    with pytest.raises(InvalidInputError):
        check_divergence_condition(bridge(1.0, 0.3, 0.5), N_GRID, (3.0, 2.0, 1.0), p0=1)


def test_smooth_conditions_scad_schedule():
    # lambda_n = n^(beta - 1/2) with beta = 1/4 keeps both surrogates bounded
    pen = scad(1.0, -0.25)
    growth, shift = check_smooth_conditions(pen, N_GRID, (0.5, 1.0, 2.0),
                                            (0.5, 1.0, 2.0, 4.0), beta=0.25)
    assert growth["verdict"] == "satisfied"
    assert shift["verdict"] == "satisfied"
    assert shift["kappa"] == 1


def test_smooth_conditions_smooth_bridge():
    pen = bridge(1.0, 0.5, 2.0)
    growth, shift = check_smooth_conditions(pen, N_GRID, (0.5, 1.0, 2.0),
                                            (0.5, 1.0, 2.0, 4.0), beta=0.25)
    assert shift["verdict"] == "satisfied"
    assert shift["kappa"] == 1


def test_smooth_conditions_degenerate_zero_penalty():
    growth, shift = check_smooth_conditions(zero_penalty(), N_GRID, (0.5, 1.0),
                                            (1.0, 2.0), beta=0.25)
    assert growth["verdict"] == "satisfied"
    assert shift["verdict"] == "satisfied"
    assert np.all(np.array(growth["values"]) == 0.0)
    assert np.all(np.array(shift["values"]) == 0.0)


def test_smooth_conditions_flags_sparse_slow_bridge():
    # lambda_n = n^0.6 with gamma < 1: the root-n shift grows like n^0.1, so a
    # wide grid is needed before the x2 heuristic can see it
    pen = bridge(1.0, 0.6, 0.5)
    wide = (16, 256, 4096, 65536, 1048576)
    _, shift = check_smooth_conditions(pen, wide, (1.0,), (1.0,), beta=0.25)
    assert shift["verdict"] == "not-satisfied"


def test_smooth_conditions_rejects_zero_probe():
    with pytest.raises(InvalidInputError):
        check_smooth_conditions(zero_penalty(), N_GRID, (0.0,), (1.0,), beta=0.25)
