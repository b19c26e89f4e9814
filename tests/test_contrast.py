import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bridgelab.contrast import Contrast, contrast_value
from bridgelab.errors import InvalidInputError
from bridgelab.model import Dataset, DesignSpec, NoiseSpec, TrueParameter
from bridgelab.penalty import PenaltySpec, TuningSchedule, penalty_total
from conftest import (
    DELTA_ESTIMATED,
    DELTA_TRUE_NOISE,
    NO_PENALTY,
    local_field,
    make_dataset,
    plaq_decompose,
    profile_field,
    yn_field,
)


def _bridge(c, e, gamma):
    return PenaltySpec(family="bridge", schedule=TuningSchedule(c, e), gamma=gamma)


def _dataset(n=30, sigma=1.0, seed=5, p0=1, rho0=(1.0,), kind="standardized-orthonormal"):
    truth = TrueParameter(p0=p0, rho0=rho0)
    return make_dataset(DesignSpec(kind=kind, p=truth.p), truth,
                        NoiseSpec("gaussian", sigma), n, design_seed=seed, noise_seed=seed + 1)


def test_contrast_ols_optimality_without_penalty():
    ds = _dataset()
    c = Contrast(dataset=ds, penalty=NO_PENALTY)
    ols, *_ = np.linalg.lstsq(ds.X, ds.Y, rcond=None)
    rss = float(np.sum((ds.Y - ds.X @ ols) ** 2))
    assert contrast_value(c, ols) == pytest.approx(rss, rel=1e-12)
    rng = np.random.default_rng(0)
    for _ in range(25):
        other = ols + rng.normal(scale=0.5, size=2)
        assert contrast_value(c, other) >= contrast_value(c, ols) - 1e-9


def test_contrast_zero_at_truth_noiseless():
    ds = _dataset(sigma=0.0)
    c = Contrast(dataset=ds, penalty=NO_PENALTY)
    assert contrast_value(c, ds.truth.theta) == 0.0


def test_contrast_value_on_stacks_matches_single_points():
    # every row of an (m, p) stack has the bits of its own single-point call
    # and of the single-point definition on the same X: at p up to 12 (numpy's
    # pairwise sum unrolls beyond 8 terms), for C- and F-ordered designs,
    # contiguous, strided, transposed and reversed stacks, m up to 10,000 and
    # n up to 3200
    rng = np.random.default_rng(3)
    pens = (NO_PENALTY, _bridge(0.8, 0.3, 0.5),
            PenaltySpec(family="scad", schedule=TuningSchedule(0.5, -0.25), a=3.7),
            PenaltySpec(family="selo", schedule=TuningSchedule(0.002, 0.0), tau=TuningSchedule(0.1, -0.5)))
    for sigma, p0, rho0, n, m in ((1.0, 1, (1.0,), 50, 6), (1.0, 3, (1.0, -2.0), 3200, 6),
                                  (0.0, 8, (0.5, 1.5, -1.0, 2.0), 50, 6), (1.0, 1, (1.0,), 50, 10_000)):
        ds = _dataset(n=n, sigma=sigma, seed=p0, p0=p0, rho0=rho0, kind="bounded-random-frozen")
        p = ds.p
        # near the truth of noiseless data the penalty's last bits reach the sum
        near = ds.truth.theta + rng.normal(scale=1e-3, size=(6, p))
        stack = np.vstack([rng.normal(scale=2.0, size=(m, p)), near, np.zeros(p), ds.truth.theta,
                           np.where(rng.random(p) < 0.5, 0.0, rng.normal(size=p))])
        layouts = (stack, np.repeat(stack, 2, axis=1)[:, ::2], np.ascontiguousarray(stack.T).T,
                   stack[::-1])
        for X in (ds.X, np.asfortranarray(ds.X)):
            resid = [ds.Y - X @ row for row in stack]
            for pen in pens if m < 1000 else pens[1:2]:
                c = Contrast(dataset=Dataset(X=X, Y=ds.Y, truth=ds.truth, n=n), penalty=pen)
                expect = [float(r @ r) + penalty_total(pen, n, row) for r, row in zip(resid, stack)]
                for rows, order in zip(layouts, (expect, expect, expect, expect[::-1])):
                    values = contrast_value(c, rows)
                    assert values.shape == (rows.shape[0],)
                    assert values.tolist() == order
                if m < 1000:
                    assert expect == [contrast_value(c, row) for row in stack]
                assert contrast_value(c, stack[:1])[0] == contrast_value(c, stack[0])


def test_contrast_value_stack_zero_at_truth_noiseless():
    ds = _dataset(sigma=0.0)
    c = Contrast(dataset=ds, penalty=NO_PENALTY)
    values = contrast_value(c, np.vstack([np.ones(2), ds.truth.theta]))
    assert values[1] == 0.0 and values[0] > 0.0


def test_contrast_value_rejects_wrong_shapes():
    ds = _dataset()
    c = Contrast(dataset=ds, penalty=NO_PENALTY)
    for bad in (np.zeros(3), np.zeros((2, 2, 2)), np.zeros((4, 3)), np.float64(1.0)):
        with pytest.raises(InvalidInputError):
            contrast_value(c, bad)


def test_contrast_matches_two_pass_recomputation():
    ds = _dataset(n=40, seed=9)
    c = Contrast(dataset=ds, penalty=_bridge(0.8, 0.3, 0.5))
    rng = np.random.default_rng(1)
    for _ in range(20):
        theta = rng.normal(size=2)
        resid = [float(ds.Y[i] - theta @ ds.X[i]) for i in range(ds.n)]
        manual = sum(r * r for r in resid)
        manual += sum(0.8 * ds.n ** 0.3 * abs(t) ** 0.5 for t in theta)
        assert contrast_value(c, theta) == pytest.approx(manual, rel=1e-10)


def test_local_field_zero_at_origin():
    ds = _dataset()
    c = Contrast(dataset=ds, penalty=_bridge(1.0, 0.5, 1.0))
    assert local_field(c, ds.truth.theta, np.zeros(2)) == 0.0


def test_plaq_identity_random_points():
    rng = np.random.default_rng(12)
    for trial in range(10):
        ds = _dataset(n=int(rng.integers(10, 60)), seed=int(rng.integers(1, 10**6)),
                      kind="bounded-random-frozen")
        c = Contrast(dataset=ds, penalty=_bridge(0.5, 0.4, 0.5))
        C0 = ds.X.T @ ds.X / ds.n + 0.01 * np.eye(2)  # any C0: the identity is algebraic
        parts = plaq_decompose(c, ds.truth.theta, C0)
        assert parts.delta_source == DELTA_TRUE_NOISE
        for _ in range(10):
            u = rng.normal(scale=3.0, size=2)
            mn = local_field(c, ds.truth.theta, u)
            rec = parts.reconstruct(u)
            assert abs(mn - rec) <= 1e-9 * (1.0 + abs(mn))


def test_plaq_delta_zero_noiseless():
    ds = _dataset(sigma=0.0)
    c = Contrast(dataset=ds, penalty=_bridge(1.0, 0.5, 0.5))
    parts = plaq_decompose(c, ds.truth.theta, np.eye(2))
    assert_allclose(parts.delta, 0.0, atol=0)
    assert_allclose(parts.gamma0, 2.0 * np.eye(2), atol=0)


def test_plaq_remainder_penalty_only_on_standardized_design():
    ds = _dataset(n=50, seed=3)
    c = Contrast(dataset=ds, penalty=NO_PENALTY)
    parts = plaq_decompose(c, ds.truth.theta, np.eye(2))
    rng = np.random.default_rng(2)
    for _ in range(10):
        u = rng.normal(size=2, scale=2.0)
        # C_n = I to float precision and the penalty is off, so r_n is ~0
        assert abs(parts.remainder(u)) <= 1e-10 * (1.0 + u @ u)


def test_plaq_estimated_flag():
    ds = _dataset()
    c = Contrast(dataset=ds, penalty=NO_PENALTY)
    parts = plaq_decompose(c, ds.truth.theta + 0.1, np.eye(2))
    assert parts.delta_source == DELTA_ESTIMATED


def test_plaq_antisymmetric_part_quadratic_penalty():
    # gamma = 2: (M(u) - M(-u))/2 = delta.u + 2 lambda_n theta0.u / sqrt(n)
    ds = _dataset(n=40, seed=8)
    lam_c, lam_e = 0.7, 0.4
    c = Contrast(dataset=ds, penalty=_bridge(lam_c, lam_e, 2.0))
    parts = plaq_decompose(c, ds.truth.theta, np.eye(2))
    lam_n = lam_c * ds.n ** lam_e
    rng = np.random.default_rng(4)
    for _ in range(10):
        u = rng.normal(size=2, scale=2.0)
        odd = 0.5 * (local_field(c, ds.truth.theta, u) - local_field(c, ds.truth.theta, -u))
        closed = parts.delta @ u + 2.0 * lam_n * (ds.truth.theta @ u) / math.sqrt(ds.n)
        assert odd == pytest.approx(closed, rel=1e-9, abs=1e-9)


def test_yn_field_zero_and_sign_convention():
    ds = _dataset()
    c = Contrast(dataset=ds, penalty=_bridge(1.0, 0.5, 1.0))
    th0 = ds.truth.theta
    assert yn_field(c, th0, th0) == 0.0
    th = th0 + np.array([0.3, -0.2])
    # definition symmetry: swapping the roles flips the sign exactly
    assert yn_field(c, th, th0) == -yn_field(c, th0, th)
    assert yn_field(c, th, th0) == pytest.approx(
        -(contrast_value(c, th) - contrast_value(c, th0)) / ds.n)


def test_yn_field_noiseless_unpenalized_closed_form():
    ds = _dataset(sigma=0.0, n=25, seed=10)
    c = Contrast(dataset=ds, penalty=NO_PENALTY)
    C_n = ds.X.T @ ds.X / ds.n
    rng = np.random.default_rng(3)
    for _ in range(10):
        th = ds.truth.theta + rng.normal(size=2)
        d = th - ds.truth.theta
        assert yn_field(c, th, ds.truth.theta) == pytest.approx(-(d @ C_n @ d), rel=1e-10)


def test_yn_field_trend_toward_population_limit():
    # at fixed theta, |Y_n + C0[d,d]| shrinks along the n-grid (averaged over seeds)
    truth = TrueParameter(p0=1, rho0=(1.0,))
    th = truth.theta + np.array([0.4, -0.3])
    d = th - truth.theta
    gaps = []
    for n in (50, 400, 3200):
        vals = []
        for seed in range(30):
            ds = make_dataset(DesignSpec(kind="standardized-orthonormal", p=2), truth,
                              NoiseSpec("gaussian", 1.0), n, design_seed=7, noise_seed=seed)
            c = Contrast(dataset=ds, penalty=NO_PENALTY)
            vals.append(yn_field(c, th, truth.theta) + d @ d)
        gaps.append(float(np.mean(np.abs(vals))))
    assert gaps[2] < gaps[0]


def test_profile_field_zero_at_origin_and_reconstruction():
    rng = np.random.default_rng(9)
    ds = _dataset(n=35, seed=6, kind="bounded-random-frozen")
    c = Contrast(dataset=ds, penalty=_bridge(0.6, 0.45, 0.5))
    value, _ = profile_field(c, np.zeros(1), ds.truth.rho0_array)
    assert value == 0.0
    for _ in range(100):
        u = rng.normal(size=1, scale=2.0)
        rho = ds.truth.rho0_array + rng.normal(size=1, scale=0.5)
        value, parts = profile_field(c, u, rho)
        rec = parts["linear"] + parts["quadratic"] + parts["penalty"]
        assert abs(value - rec) <= 1e-9 * (1.0 + abs(value))


def test_profile_field_noiseless_at_rho0():
    ds = _dataset(sigma=0.0, n=30, seed=2)
    c = Contrast(dataset=ds, penalty=_bridge(0.6, 0.45, 0.5))
    u = np.array([1.7])
    value, parts = profile_field(c, u, ds.truth.rho0_array)
    assert_allclose(parts["score"], 0.0, atol=1e-12)
    assert value == pytest.approx(parts["quadratic"] + parts["penalty"], rel=1e-12)
    assert parts["quadratic"] >= 0.0
