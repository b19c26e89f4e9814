import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from bridgelab.errors import InvalidInputError, InvalidSpecError
from bridgelab.model import (
    COND_CROSS_ROOT_N,
    COND_CROSS_SCALED,
    COND_GRAM_RATE,
    COND_NONZERO_GRAM_RATE,
    COND_ZERO_GRAM,
    Dataset,
    DesignSpec,
    NoiseSpec,
    TrueParameter,
    check_design_conditions,
    generate_design,
    gram,
    simulate_responses,
)
from bridgelab.penalty import TuningSchedule


def test_true_parameter_split():
    truth = TrueParameter(p0=2, rho0=(1.0, -2.0))
    assert truth.p == 4
    assert_array_equal(truth.theta, [0.0, 0.0, 1.0, -2.0])
    with pytest.raises(InvalidSpecError):
        TrueParameter(p0=1, rho0=(0.1,))  # below the margin
    with pytest.raises(InvalidSpecError):
        TrueParameter(p0=1, rho0=(0.0,))  # the sparse limit laws divide by |rho0|
    with pytest.raises(InvalidSpecError):
        TrueParameter(p0=0, rho0=())


def test_standardized_design_is_orthonormal():
    spec = DesignSpec(kind="standardized-orthonormal", p=2)
    X = generate_design(spec, 4, seed=7)
    C = X.T @ X / 4
    assert_allclose(C, np.eye(2), atol=1e-12)
    assert_allclose(X.mean(axis=0), 0.0, atol=1e-12)


def test_standardized_design_needs_n_ge_p():
    spec = DesignSpec(kind="standardized-orthonormal", p=3)
    with pytest.raises(InvalidSpecError):
        generate_design(spec, 2, seed=0)


def test_explicit_matrix_design_and_gram():
    rows = tuple((1.0, 0.0) for _ in range(6))
    spec = DesignSpec(kind="explicit-matrix", p=2, matrix=rows)
    X = generate_design(spec, 6, seed=0)
    rep = gram(X, (1, 1))
    assert_allclose(rep.C_n, [[1.0, 0.0], [0.0, 0.0]], atol=0)
    assert (rep.D_n.tolist(), rep.B_n.tolist()) == ([[1.0]], [[0.0]])


def test_bounded_random_frozen_rows_and_determinism():
    spec = DesignSpec(kind="bounded-random-frozen", p=3, bound=2.0)
    X1 = generate_design(spec, 100, seed=1)
    X2 = generate_design(spec, 100, seed=1)
    assert_array_equal(X1, X2)
    assert np.max(np.linalg.norm(X1, axis=1)) <= 2.0
    X3 = generate_design(spec, 100, seed=2)
    assert not np.array_equal(X1, X3)


def test_simulate_noiseless_exact():
    truth = TrueParameter(p0=1, rho0=(2.0,))
    X = generate_design(DesignSpec(kind="standardized-orthonormal", p=2), 20, seed=3)
    Y = simulate_responses(X, truth, NoiseSpec(family="gaussian", sigma=0.0), seed=9)
    assert_array_equal(Y, X @ truth.theta)


def test_simulate_seed_bit_identical():
    truth = TrueParameter(p0=0, rho0=(1.0,))
    X = np.ones((50, 1))
    a = simulate_responses(X, truth, NoiseSpec(family="gaussian", sigma=1.0), seed=11)
    b = simulate_responses(X, truth, NoiseSpec(family="gaussian", sigma=1.0), seed=11)
    assert_array_equal(a, b)


def test_simulate_clt_band_zero_mean():
    n = 10**5
    truth = TrueParameter(p0=0, rho0=(1.0,))
    X = np.zeros((n, 1))
    Y = simulate_responses(X, truth, NoiseSpec(family="gaussian", sigma=1.0), seed=21)
    assert abs(Y.mean()) <= 4.0 / np.sqrt(n)


@pytest.mark.parametrize("family", ["scaled-uniform", "scaled-rademacher", "gaussian"])
def test_noise_variance_calibration(family):
    n = 10**5
    truth = TrueParameter(p0=0, rho0=(1.0,))
    X = np.zeros((n, 1))
    Y = simulate_responses(X, truth, NoiseSpec(family=family, sigma=1.0), seed=33)
    assert Y.var() == pytest.approx(1.0, rel=0.05)
    assert abs(Y.mean()) <= 4.0 / np.sqrt(n)


def test_simulate_dimension_mismatch():
    truth = TrueParameter(p0=1, rho0=(1.0,))
    with pytest.raises(InvalidInputError):
        simulate_responses(np.ones((5, 3)), truth, NoiseSpec("gaussian", 1.0), seed=0)


def test_gram_standardized_blocks():
    X = generate_design(DesignSpec(kind="standardized-orthonormal", p=3), 60, seed=5)
    rep = gram(X, (2, 1))
    assert_allclose(rep.C_n, np.eye(3), atol=1e-12)
    assert_allclose(rep.D_n, np.eye(2), atol=1e-12)
    assert_allclose(rep.B_n, np.eye(1), atol=1e-12)
    assert_allclose(rep.cross, 0.0, atol=1e-10)


def test_gram_constant_rows_cross():
    n = 9
    X = np.ones((n, 2))
    rep = gram(X, (1, 1))
    assert_allclose(rep.C_n, np.ones((2, 2)), atol=0)
    assert rep.cross[0, 0] == pytest.approx(np.sqrt(n))


def test_gram_matches_bruteforce_accumulation():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(37, 3))
    rep = gram(X, (1, 2))
    brute = sum(np.outer(X[i], X[i]) for i in range(37)) / 37
    assert_allclose(rep.C_n, brute, atol=1e-12)


def test_gram_permutation_invariant():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(25, 2))
    rep1 = gram(X, (1, 1))
    perm = rng.permutation(25)
    rep2 = gram(X[perm], (1, 1))
    assert_allclose(rep1.C_n, rep2.C_n, atol=1e-12)
    assert_allclose(rep1.cross, rep2.cross, atol=1e-12)


def test_gram_corner_blocks_bit_exact():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(30, 3))
    rep = gram(X, (2, 1))
    assert_array_equal(rep.D_n, rep.C_n[:2, :2])
    assert_array_equal(rep.B_n, rep.C_n[2:, 2:])


def _designs_over(spec, ns, seed=1):
    return [(n, generate_design(spec, n, seed)) for n in ns]


def test_design_conditions_standardized_all_bounded():
    spec = DesignSpec(kind="standardized-orthonormal", p=2)
    designs = _designs_over(spec, (50, 200, 800))
    rep = check_design_conditions(designs, np.eye(2), 0.25,
                                  TuningSchedule(1.0, 0.1), (1, 1))
    for cond in (COND_GRAM_RATE, COND_CROSS_SCALED, COND_CROSS_ROOT_N,
                 COND_ZERO_GRAM, COND_NONZERO_GRAM_RATE):
        assert rep[cond]["verdict"] == "plausibly-bounded"
        assert max(rep[cond]["values"]) <= 1e-9


def test_design_conditions_drifting_scale_flagged():
    # column scale 1 + n^(-delta/2) makes n^delta |C_n - I| grow like n^(delta/2)
    delta = 0.5
    base = DesignSpec(kind="standardized-orthonormal", p=2)
    designs = []
    for n in (50, 200, 800, 3200):
        X = generate_design(base, n, seed=4)
        designs.append((n, (1.0 + n ** (-delta / 2.0)) * X))
    rep = check_design_conditions(designs, np.eye(2), delta,
                                  TuningSchedule(1.0, 0.1), (1, 1))
    assert rep[COND_GRAM_RATE]["verdict"] == "growing"


def test_dataset_of_a_drawn_design_and_responses():
    truth = TrueParameter(p0=1, rho0=(1.0,))
    X = generate_design(DesignSpec(kind="standardized-orthonormal", p=2), 40, 1)
    ds = Dataset(X=X, Y=simulate_responses(X, truth, NoiseSpec("gaussian", 1.0), 2), truth=truth, n=40)
    assert ds.n == 40 and ds.truth.p0 == 1 and ds.truth.p1 == 1
    assert ds.X.shape == (40, 2) and ds.Y.shape == (40,)
