import math

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


def test_prox_tie_breaks_toward_smaller_magnitude():
    # with b = 0 every family returns the literal 0
    for pen in (bridge(1.0, 0.0, 0.5), scad(0.2, 0.0), selo(0.2, 0.0), zero_penalty()):
        assert scalar_prox(pen, 10, 2.0, 0.0) == 0.0


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


@pytest.mark.parametrize("gamma, closed_form", [(0.5, _half_thresholding_root),
                                                 (1.5, _three_halves_root)],
                         ids=["half-thresholding", "three-halves"])
def test_power_prox_root_matches_closed_form_to_64_ulp(gamma, closed_form):
    ulps = []
    for c, b, lam in _log_uniform_prox_inputs(20251018, 6000):
        cands = power_prox_candidates(c, b, lam, gamma)
        if gamma < 1.0 and len(cands) < 2:
            continue  # no interior local minimum: only the literal 0
        ref = closed_form(c, b, lam)
        ulps.append(abs(cands[-1] - ref) / math.ulp(ref))
    ulps = np.array(ulps)
    assert ulps.size >= 2000
    assert np.max(ulps) <= 64.0, (
        f"{int(np.sum(ulps > 64.0))} of {ulps.size} roots beyond 64 ulp, worst {np.max(ulps)}")


@pytest.mark.parametrize("gamma", [0.3, 0.5, 0.7, 1.5, "selo"])
def test_prox_root_finds_stop_at_float_resolution(monkeypatch, gamma):
    # every root find must meet its stopping rule long before the 200-iteration cap
    evaluations = []
    newton = penalty_mod._bracketed_newton

    def counted(h, hprime, lo, hi, *start):
        count = [0]

        def h_counted(x):
            count[0] += 1
            return h(x)

        root = newton(h_counted, hprime, lo, hi, *start)
        evaluations.append(count[0])
        return root

    monkeypatch.setattr(penalty_mod, "_bracketed_newton", counted)
    rng = np.random.default_rng(7)
    for c, b, lam in _log_uniform_prox_inputs(11, 3000):
        if gamma == "selo":
            pen = selo(lam, 0.0, tau_c=10.0 ** rng.uniform(-4.0, 0.0), tau_e=0.0)
            scalar_prox(pen, int(rng.integers(1, 5000)), c, b)
        else:
            scalar_prox(bridge(lam, 0.0, gamma), 1, c, b)
    assert len(evaluations) >= 1000
    assert max(evaluations) <= 60
    if gamma == 1.5:
        # roots far below beta, where a start at the midpoint of [0, beta]
        # halved its way down (47 and 66 evaluations)
        for lam in (1e3, 1e6):
            evaluations.clear()
            root = power_prox_candidates(0.01, 0.001, lam, 1.5)[0]
            assert evaluations[0] <= 15
            ref = _three_halves_root(0.01, 0.001, lam)
            assert abs(root - ref) <= 64.0 * math.ulp(ref)


@pytest.mark.parametrize("gamma", [0.3, 0.5, 0.7, 1.0, 1.5, 2.0])
def test_power_prox_array_matches_scalar(gamma):
    # the elementwise solve makes the scalar zero decisions and lands within
    # 64 ulp of the scalar root and of the closed forms
    inputs = np.array(_log_uniform_prox_inputs(20251019, 6000))
    c, b, lam = inputs.T
    vec = power_prox_candidates(c, b, lam, gamma)
    assert isinstance(vec, np.ndarray) and vec.shape == b.shape
    closed_form = {0.5: _half_thresholding_root, 1.5: _three_halves_root}.get(gamma)
    for i, (ci, bi, li) in enumerate(inputs):
        nonzero = [x for x in power_prox_candidates(ci, bi, li, gamma) if x != 0.0]
        assert len(nonzero) <= 1
        if not nonzero:
            assert vec[i] == 0.0 and not np.signbit(vec[i])
            continue
        assert abs(vec[i] - nonzero[0]) <= 64.0 * math.ulp(nonzero[0])
        if closed_form is not None:
            ref = closed_form(ci, bi, li)
            assert abs(vec[i] - ref) <= 64.0 * math.ulp(ref)
    assert np.any(vec == 0.0) == (gamma < 1.0 or gamma == 1.0)


def test_power_prox_array_edge_values():
    # lam = 0 returns b itself, b = +-0 gives +0, and the sign follows b
    b = np.array([0.0, -0.0, 2.0, -2.0])
    assert power_prox_candidates(1.0, b, 0.0, 0.5).tobytes() == b.tobytes()
    out = power_prox_candidates(1.0, b, 1.0, 0.5)
    assert out[0] == 0.0 and not np.signbit(out[0]) and not np.signbit(out[1])
    root = power_prox_candidates(1.0, 2.0, 1.0, 0.5)[1]
    assert abs(out[2] - root) <= 64.0 * math.ulp(root) and out[3] == -out[2]


# ---------------------------------------------------------------------------
# condition checkers
# ---------------------------------------------------------------------------

N_GRID = (16, 64, 256, 1024, 4096)
R_GRID = tuple(float(x) for x in np.geomspace(1.0, 1024.0, 21))


def test_divergence_bridge_exact_power():
    for gamma in (0.25, 0.5, 0.75):
        pen = bridge(1.0, 0.35, gamma)
        rep = check_divergence_condition(pen, N_GRID, R_GRID, p0=1)
        assert rep.verdict == "satisfied"
        # scaled infimum is exactly r^gamma, so the fitted power is exact
        assert abs(rep.fitted_exponent - gamma) <= 1e-3
        assert_allclose(rep.values[0], np.asarray(R_GRID) ** gamma, rtol=1e-12)


def test_divergence_bridge_two_dim_sphere_matches_dense_search():
    pen = bridge(1.0, 0.3, 0.5)
    n, r = 64, 7.0
    rep = check_divergence_condition(pen, (n, 128, 256), (1.0, r, 50.0), p0=2)
    rn = r / math.sqrt(n)
    ang = np.linspace(0.0, math.pi / 2.0, 20001)
    dense = np.min(penalty_value(pen, n, rn * np.cos(ang))
                   + penalty_value(pen, n, rn * np.sin(ang)))
    q = pen.schedule.value(n) / n ** 0.25
    assert rep.values[0][1] == pytest.approx(dense / q, abs=1e-8)
    # concavity: the infimum sits on a coordinate axis
    assert rep.values[0][1] == pytest.approx(r ** 0.5, rel=1e-12)


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
            assert rep.values[i, j] * q.value(n) == pytest.approx(np.min(sums), rel=1e-12)
            if pen.family == "bridge" and pen.gamma > 2.0:
                # convex case: equal mass on all p0 axes beats one axis
                assert sums[-1] < sums[-2]


def test_divergence_rejects_bounded_penalties():
    rep = check_divergence_condition(scad(1.0, -0.25), N_GRID, R_GRID, p0=1)
    assert rep.verdict == "not-satisfied"
    rep = check_divergence_condition(selo(1.0, -0.25), N_GRID, R_GRID, p0=1)
    assert rep.verdict == "not-satisfied"


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
    assert growth.verdict == "satisfied"
    assert shift.verdict == "satisfied"
    assert shift.kappa == 1


def test_smooth_conditions_smooth_bridge():
    pen = bridge(1.0, 0.5, 2.0)
    growth, shift = check_smooth_conditions(pen, N_GRID, (0.5, 1.0, 2.0),
                                            (0.5, 1.0, 2.0, 4.0), beta=0.25)
    assert shift.verdict == "satisfied"
    assert shift.kappa == 1


def test_smooth_conditions_degenerate_zero_penalty():
    growth, shift = check_smooth_conditions(zero_penalty(), N_GRID, (0.5, 1.0),
                                            (1.0, 2.0), beta=0.25)
    assert growth.verdict == "satisfied"
    assert shift.verdict == "satisfied"
    assert np.all(growth.values == 0.0)
    assert np.all(shift.values == 0.0)


def test_smooth_conditions_flags_sparse_slow_bridge():
    # lambda_n = n^0.6 with gamma < 1: the root-n shift grows like n^0.1, so a
    # wide grid is needed before the x2 heuristic can see it
    pen = bridge(1.0, 0.6, 0.5)
    wide = (16, 256, 4096, 65536, 1048576)
    _, shift = check_smooth_conditions(pen, wide, (1.0,), (1.0,), beta=0.25)
    assert shift.verdict == "not-satisfied"


def test_smooth_conditions_rejects_zero_probe():
    with pytest.raises(InvalidInputError):
        check_smooth_conditions(zero_penalty(), N_GRID, (0.0,), (1.0,), beta=0.25)
