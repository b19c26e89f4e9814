import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from bridgelab import asymptotics
from bridgelab.asymptotics import (
    REGIME_PSEUDO_TRUE,
    REGIME_SPARSE_NORMAL,
    REGIME_SPARSE_SLOW,
    REGIME_STANDARD,
    limit_field_v0,
    limit_law,
    pseudo_true,
    regime_classify,
    sample_limit_argmin,
    sparse_limit_params,
    v0_on_points,
)
from bridgelab.errors import InvalidInputError, UnsupportedRegimeError
from bridgelab.penalty import TuningSchedule
from bridgelab.solver import Box
from bridgelab.util import spawned_normals


def sched(c, e):
    return TuningSchedule(c=c, e=e)


# ---------------------------------------------------------------------------
# regime classification
# ---------------------------------------------------------------------------


def test_regime_examples():
    assert regime_classify(0.5, sched(1.0, 0.6)).tag == REGIME_SPARSE_SLOW
    r = regime_classify(0.5, sched(3.0, 0.5))
    assert r.tag == REGIME_SPARSE_NORMAL and r.lambda0 == 3.0
    r = regime_classify(2.0, sched(1.0, 0.5))
    assert r.tag == REGIME_STANDARD and r.lambda0 == 1.0
    r = regime_classify(0.5, sched(0.5, 1.0))
    assert r.tag == REGIME_PSEUDO_TRUE and r.lambda0 == 0.5
    r = regime_classify(0.5, sched(2.0, 0.4))
    assert r.tag == REGIME_SPARSE_NORMAL and r.lambda0 == 0.0


def test_regime_rejections():
    with pytest.raises(UnsupportedRegimeError):
        regime_classify(0.5, sched(1.0, 1.2))
    with pytest.raises(UnsupportedRegimeError):
        regime_classify(2.0, sched(1.0, 0.75))
    with pytest.raises(InvalidInputError):
        regime_classify(0.0, sched(1.0, 0.5))


def test_regime_tag_invariant_to_constant():
    for c in (0.1, 1.0, 7.0):
        assert regime_classify(0.5, sched(c, 0.6)).tag == REGIME_SPARSE_SLOW
        assert regime_classify(0.5, sched(c, 0.4)).tag == REGIME_SPARSE_NORMAL
    # lambda0 depends on c only at the critical exponent
    assert regime_classify(0.5, sched(7.0, 0.4)).lambda0 == 0.0
    assert regime_classify(0.5, sched(7.0, 0.5)).lambda0 == 7.0


def test_regime_zero_schedule_is_standard():
    r = regime_classify(0.5, sched(0.0, 0.9))
    assert r.tag == REGIME_STANDARD and r.lambda0 == 0.0


def test_regime_rate_limits():
    r = regime_classify(0.5, sched(1.0, 0.6))
    assert r.rate_limits["gamma_half"] == math.inf
    assert r.rate_limits["sqrt_n"] == math.inf
    assert r.rate_limits["linear"] == 0.0


# ---------------------------------------------------------------------------
# limit field
# ---------------------------------------------------------------------------


def test_v0_zero_at_origin_all_branches():
    C0 = np.eye(2)
    W = np.array([0.3, -0.7])
    th = np.array([0.0, 1.0])
    for gamma, lam0 in ((0.5, 1.0), (1.0, 1.0), (2.0, 1.0), (1.5, 0.0)):
        assert limit_field_v0(np.zeros(2), W, gamma, lam0, C0, th) == 0.0


def test_v0_lambda0_zero_is_pure_quadratic():
    rng = np.random.default_rng(0)
    C0 = np.array([[2.0, 0.3], [0.3, 1.0]])
    W = rng.normal(size=2)
    th = np.array([0.0, 1.0])
    for gamma in (0.5, 1.0, 2.0):
        u = rng.normal(size=2)
        assert limit_field_v0(u, W, gamma, 0.0, C0, th) == pytest.approx(
            -2.0 * W @ u + u @ C0 @ u)


def test_v0_gamma_below_one_indicator_kills_nonzero_coords():
    rng = np.random.default_rng(1)
    W = rng.normal(size=2)
    th = np.array([0.5, 1.0])  # no true zeros
    u = rng.normal(size=2)
    assert limit_field_v0(u, W, 0.5, 3.0, np.eye(2), th) == pytest.approx(
        -2.0 * W @ u + u @ u)


def test_v0_gamma_one_mix():
    W = np.array([0.2, -0.1])
    th = np.array([0.0, -2.0])
    u = np.array([0.7, 0.4])
    lam0 = 1.3
    expect = -2.0 * W @ u + u @ u + lam0 * (abs(u[0]) + u[1] * (-1.0))
    assert limit_field_v0(u, W, 1.0, lam0, np.eye(2), th) == pytest.approx(expect)


def test_v0_gamma_above_one_tilt():
    W = np.array([0.2, -0.1])
    th = np.array([0.5, -2.0])
    u = np.array([0.7, 0.4])
    gamma, lam0 = 1.5, 0.8
    tilt = gamma * lam0 * (u[0] * 1.0 * 0.5 ** 0.5 + u[1] * (-1.0) * 2.0 ** 0.5)
    assert limit_field_v0(u, W, gamma, lam0, np.eye(2), th) == pytest.approx(
        -2.0 * W @ u + u @ u + tilt)


# ---------------------------------------------------------------------------
# argmin sampler
# ---------------------------------------------------------------------------


def _standard_law(gamma, c, e, C0, theta0, sigma2=1.0):
    return limit_law(gamma, sched(c, e), sigma2, C0, np.asarray(theta0, dtype=float),
                     p0=int(np.sum(np.asarray(theta0) == 0.0)))


def test_sampler_lambda0_zero_closed_form():
    C0 = np.array([[1.5, 0.4], [0.4, 1.0]])
    law = _standard_law(2.0, 1.0, 0.3, C0, [1.0, 1.0])
    assert law.regime.lambda0 == 0.0
    S = sample_limit_argmin(law, 64, seed=9)
    # stationarity: W = C0 u exactly, and the recovered W must have the right law
    L = np.linalg.cholesky(C0)
    children = np.random.SeedSequence(9).spawn(64)
    Z = np.stack([np.random.default_rng(ch).standard_normal(2) for ch in children])
    W = Z @ L.T
    assert_allclose(S, np.linalg.solve(C0, W.T).T, atol=1e-8)


def test_sampler_covariance_matches_closed_form():
    law = _standard_law(2.0, 1.0, 0.4, np.eye(2), [1.0, 1.0])
    S = sample_limit_argmin(law, 20_000, seed=5)
    assert_allclose(np.cov(S.T), np.eye(2), atol=0.05)


def test_sampler_gamma_below_one_has_mass_at_zero():
    law = _standard_law(0.5, 1.0, 0.25, np.eye(2), [0.0, 1.0])
    assert law.regime.tag == REGIME_STANDARD and law.regime.lambda0 == 1.0
    S = sample_limit_argmin(law, 100, seed=3)
    assert np.mean(S[:, 0] == 0.0) > 0.0
    assert np.all(S[:, 1] != 0.0)


def test_sampler_gamma_below_one_matches_lattice_oracle():
    law = _standard_law(0.5, 1.0, 0.25, np.eye(2), [0.0, 1.0])
    S = sample_limit_argmin(law, 100, seed=3)
    L = np.linalg.cholesky(np.eye(2))
    children = np.random.SeedSequence(3).spawn(100)
    for k in (0, 17, 55, 99):
        W = np.random.default_rng(children[k]).standard_normal(2) @ L.T
        axes = np.linspace(-8.0, 8.0, 801)
        grid = np.stack(np.meshgrid(axes, axes, indexing="ij"), axis=-1).reshape(-1, 2)
        grid = np.vstack([grid, np.column_stack([np.zeros(801), axes])])
        vals = v0_on_points(grid, W, 0.5, 1.0, np.eye(2), np.array([0.0, 1.0]))
        sampler_val = limit_field_v0(S[k], W, 0.5, 1.0, np.eye(2), np.array([0.0, 1.0]))
        assert sampler_val <= float(np.min(vals)) + 1e-8


CORRELATED_C0 = np.array([[1.0, 0.6], [0.6, 1.5]])


@pytest.mark.parametrize("gamma", [0.3, 0.5, 0.7, 1.0])
@pytest.mark.parametrize("C0", [np.eye(2), CORRELATED_C0], ids=["identity", "correlated"])
def test_sampler_matches_lattice_oracle(gamma, C0):
    theta0 = np.array([0.0, 1.0])
    law = _standard_law(gamma, 1.0, min(1.0, gamma) / 2.0, C0, theta0)
    assert law.regime.tag == REGIME_STANDARD and law.regime.lambda0 == 1.0
    S = sample_limit_argmin(law, 100, seed=3)
    assert np.any(S[:, 0] == 0.0) and np.any(S[:, 0] != 0.0)
    L = np.linalg.cholesky(C0)
    children = np.random.SeedSequence(3).spawn(100)
    axes = np.linspace(-8.0, 8.0, 801)
    grid = np.stack(np.meshgrid(axes, axes, indexing="ij"), axis=-1).reshape(-1, 2)
    grid = np.vstack([grid, np.column_stack([np.zeros(801), axes])])
    # under the correlated C0, draws 16, 40 and 98 end in different local
    # minima from different starts
    for k in (0, 16, 17, 40, 55, 98, 99):
        W = np.random.default_rng(children[k]).standard_normal(2) @ L.T
        vals = v0_on_points(grid, W, gamma, 1.0, C0, theta0)
        assert limit_field_v0(S[k], W, gamma, 1.0, C0, theta0) <= float(np.min(vals)) + 1e-8


def test_sampler_draws_independent_of_count_and_block_size(monkeypatch):
    # draw k depends only on (law, seed, k): the same bits for any prefix R
    # and any kernel block size
    C0 = np.array([[1.0, 0.3, 0.1], [0.3, 1.2, -0.2], [0.1, -0.2, 0.9]])
    law = _standard_law(0.5, 1.0, 0.25, C0, [0.0, 0.0, 1.0])
    full = sample_limit_argmin(law, 10_000, seed=21)
    assert np.mean(full[:, :2] == 0.0) > 0.1
    for R in (1, 137):
        assert sample_limit_argmin(law, R, seed=21).tobytes() == full[:R].tobytes()
    monkeypatch.setattr(asymptotics, "_SAMPLER_BLOCK", 1000)
    assert sample_limit_argmin(law, 10_000, seed=21).tobytes() == full.tobytes()
    monkeypatch.setattr(asymptotics, "_SAMPLER_BLOCK", 7)
    assert sample_limit_argmin(law, 137, seed=21).tobytes() == full[:137].tobytes()


def _spawned_normals_loop(seed, R, p):
    Z = np.empty((R, p))
    for k, child in enumerate(np.random.SeedSequence(seed).spawn(R)):
        Z[k] = np.random.default_rng(child).standard_normal(p)
    return Z


# seeds of 1, 2, 3 and 5 uint32 words: the last one fills the 4-word pool
# without padding and mixes its fifth word in with the spawn key
@pytest.mark.parametrize("seed", [20250809, 2 ** 40 + 7, 2 ** 64 + 12345, 2 ** 128 + 99])
@pytest.mark.parametrize("R", [0, 1, 137, 4097])
@pytest.mark.parametrize("p", [1, 2, 8])
def test_spawned_normals_match_spawned_generators(seed, R, p):
    Z = spawned_normals(seed, R, p)
    assert Z.shape == (R, p)
    assert Z.tobytes() == _spawned_normals_loop(seed, R, p).tobytes()


@pytest.mark.parametrize("seed, R", [(0, 2 ** 32), (-1, 5)])
def test_spawned_normals_rejects_before_allocating(monkeypatch, seed, R):
    def no_allocation(*args, **kwargs):
        raise AssertionError("allocated before the argument check")
    for name in ("empty", "full", "arange"):
        monkeypatch.setattr(np, name, no_allocation)
    with pytest.raises(InvalidInputError):
        spawned_normals(seed, R, 2)


def test_sampler_draws_through_spawned_normals(monkeypatch):
    C0 = np.array([[1.0, 0.6], [0.6, 1.5]])
    law = limit_law(0.5, sched(1.0, 0.25), 1.0, C0, np.array([0.0, 1.0]), p0=1,
                    box=Box(lo=(-3.0, -2.0), hi=(2.0, 4.0)))
    assert law.regime.tag == REGIME_STANDARD
    S = sample_limit_argmin(law, 300, seed=31)
    monkeypatch.setattr(asymptotics, "spawned_normals", _spawned_normals_loop)
    assert sample_limit_argmin(law, 300, seed=31).tobytes() == S.tobytes()


def test_sampler_gamma_above_one_stationarity():
    C0 = np.array([[1.2, 0.2], [0.2, 0.9]])
    law = _standard_law(1.5, 2.0, 0.25, C0, [0.0, 1.0])
    S = sample_limit_argmin(law, 50, seed=7)
    L = np.linalg.cholesky(C0)
    children = np.random.SeedSequence(7).spawn(50)
    gamma, lam0 = 1.5, law.regime.lambda0
    th = np.array([0.0, 1.0])
    t = gamma * lam0 * np.sign(th) * np.abs(th) ** (gamma - 1.0)
    for k in range(50):
        W = np.random.default_rng(children[k]).standard_normal(2) @ L.T
        grad = -2.0 * W + 2.0 * C0 @ S[k] + t
        assert np.linalg.norm(grad) <= 1e-6


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_sampler_refuses_an_overflowing_tilt_before_drawing(monkeypatch):
    # gamma = 4 tilts by 4 lambda0 |theta0|^3, which overflows for theta0 = 1e300
    law = limit_law(4.0, sched(1.0, 0.5), 1.0, np.eye(2), np.array([0.0, 1e300]), p0=1)
    assert law.regime.tag == REGIME_STANDARD
    monkeypatch.setattr(asymptotics, "spawned_normals", None)  # a draw would raise TypeError
    with pytest.raises(InvalidInputError, match="tilt overflows"):
        sample_limit_argmin(law, 10, seed=0)


def test_sampler_requires_standard_regime():
    law = limit_law(0.5, sched(1.0, 0.5), 1.0, np.eye(2), np.array([0.0, 1.0]), p0=1)
    with pytest.raises(InvalidInputError):
        sample_limit_argmin(law, 10, seed=0)


# ---------------------------------------------------------------------------
# sparse limit parameters
# ---------------------------------------------------------------------------


def test_sparse_limit_params_unit_example():
    ups, bias, cov = sparse_limit_params(0.5, 2.0, np.eye(1), 1.0, [1.0])
    assert ups[0] == pytest.approx(0.25)
    assert bias[0] == pytest.approx(-0.5)
    assert cov[0, 0] == pytest.approx(1.0)


def test_sparse_limit_params_zero_lambda0():
    _, bias, cov = sparse_limit_params(0.5, 0.0, np.eye(2), 4.0, [1.0, -1.0])
    assert_array_equal(bias, np.zeros(2))
    assert_allclose(cov, 4.0 * np.eye(2))


def test_sparse_limit_params_diagonal_inverse():
    _, _, cov = sparse_limit_params(0.5, 1.0, np.diag([1.0, 4.0]), 4.0, [1.0, 1.0])
    assert_allclose(cov, np.diag([4.0, 1.0]))


def test_sparse_limit_upsilon_scaling():
    gamma = 0.5
    ups1, _, _ = sparse_limit_params(gamma, 1.0, np.eye(1), 1.0, [1.5])
    ups2, _, _ = sparse_limit_params(gamma, 1.0, np.eye(1), 1.0, [3.0])
    assert ups2[0] == pytest.approx(2.0 ** (gamma - 1.0) * ups1[0])


def test_sparse_limit_params_validation():
    with pytest.raises(InvalidInputError):
        sparse_limit_params(1.5, 1.0, np.eye(1), 1.0, [1.0])
    with pytest.raises(InvalidInputError):
        sparse_limit_params(0.5, 1.0, np.zeros((1, 1)), 1.0, [1.0])
    with pytest.raises(InvalidInputError):
        sparse_limit_params(0.5, 1.0, np.eye(1), 1.0, [0.0])


# ---------------------------------------------------------------------------
# pseudo-true point
# ---------------------------------------------------------------------------


def test_pseudo_true_lambda0_zero_returns_theta0():
    th = np.array([0.0, 1.0])
    pt, flags = pseudo_true(np.eye(2), 0.0, 0.5, th)
    assert_array_equal(pt, th)
    assert_array_equal(flags, [True, False])


def test_pseudo_true_soft_threshold_example():
    pt, flags = pseudo_true(np.eye(1), 1.0, 1.0, np.array([1.0]))
    assert pt[0] == pytest.approx(0.5, abs=1e-10)
    assert not flags[0]


def test_pseudo_true_small_theta_collapses_to_zero():
    pt, flags = pseudo_true(np.eye(1), 1.0, 0.5, np.array([0.3]))
    assert pt[0] == 0.0
    assert flags[0]
    # 1-d nested-grid oracle agreement
    xs = np.linspace(-1.0, 1.0, 400001)
    vals = (xs - 0.3) ** 2 + np.abs(xs) ** 0.5
    assert (pt[0] - xs[np.argmin(vals)]) == pytest.approx(0.0, abs=1e-5)


def test_pseudo_true_odd_in_theta0():
    th = np.array([0.4, -1.3])
    C0 = np.array([[1.0, 0.2], [0.2, 1.5]])
    a, _ = pseudo_true(C0, 0.7, 0.5, th)
    b, _ = pseudo_true(C0, 0.7, 0.5, -th)
    assert_allclose(a, -b, atol=1e-12)


@pytest.mark.parametrize("gamma", [0.5, 1.0, 1.5])
def test_pseudo_true_respects_a_box_without_the_origin(gamma):
    # the box ends are candidates and 0 is not; the point must match a 2-D grid
    from bridgelab.solver import Box

    C0 = np.array([[1.0, 0.4], [0.4, 2.0]])
    theta0 = np.array([0.45, -1.5])
    box = Box(lo=(0.5, -3.0), hi=(0.6, -0.8))
    pt, flags = pseudo_true(C0, 0.1, gamma, theta0, box=box)
    assert box.contains(pt) and not np.any(flags)

    def objective(th):
        d = th - theta0
        return np.einsum("ij,jk,ik->i", d, C0, d) + 0.1 * np.sum(np.abs(th) ** gamma, axis=1)

    axes = [np.linspace(box.lo[j], box.hi[j], 1201) for j in range(2)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
    assert objective(pt[None, :])[0] <= float(np.min(objective(grid))) + 1e-12


def test_limit_law_assembly_sparse_normal():
    law = limit_law(0.5, sched(1.0, 0.5), 1.0, np.eye(2), np.array([0.0, 1.0]), p0=1)
    assert law.regime.tag == REGIME_SPARSE_NORMAL
    assert law.bias[0] == pytest.approx(-0.25)
    assert law.cov[0, 0] == pytest.approx(1.0)


def test_limit_law_assembly_pseudo_true():
    law = limit_law(0.5, sched(0.5, 1.0), 1.0, np.eye(2), np.array([0.0, 1.0]), p0=1)
    assert law.regime.tag == REGIME_PSEUDO_TRUE
    assert law.pseudo_true_point[0] == 0.0
    assert law.pseudo_zero_flags[0]
    assert law.pseudo_true_point[1] == pytest.approx(0.8656, abs=1e-3)
