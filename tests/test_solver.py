import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from bridgelab import solver
from bridgelab.contrast import Contrast, contrast_value
from bridgelab.errors import InvalidInputError
from bridgelab.model import (
    Dataset,
    DesignSpec,
    NoiseSpec,
    TrueParameter,
    generate_design,
    simulate_responses,
)
from bridgelab.montecarlo import design_seed, replication_seed
from bridgelab.penalty import PenaltySpec, TuningSchedule, prox_array, scalar_prox_interval
from bridgelab.solver import (
    PATTERN_COORDS,
    Box,
    SolverOptions,
    _keep_mask,
    box_argmin,
    box_descent,
    minimize,
    minimize_block,
    ols_pinv,
    tiebreak_argmin,
    zeroed_starts,
)
from conftest import NO_PENALTY, box_contains, grid_oracle, make_dataset, multistart_argmin, random_penalty


def _bridge(c, e, gamma):
    return PenaltySpec(family="bridge", schedule=TuningSchedule(c, e), gamma=gamma)


def _tiebreak_key(objective, theta):
    """The tie-break order as a tuple key: objective, then coordinate
    magnitudes, then the signed point; the reference for `tiebreak_argmin`."""
    return (objective, tuple(np.abs(theta)), tuple(theta))


def _bits(res):
    return (res.theta_hat.tobytes(), res.objective, res.converged, res.iterations,
            res.restarts_used)


def _starts(c, box):
    """A fit's full start set, built by hand: OLS, the origin, then OLS under each
    nonempty zero pattern of its first PATTERN_COORDS coordinates in product
    order, clipped to the box, byte duplicates dropped with the first one kept."""
    ols = ols_pinv(c.dataset.X) @ c.dataset.Y
    k = min(c.p, PATTERN_COORDS)
    rows = [ols, np.zeros(c.p)]
    rows += [np.where(np.array(mask + (False,) * (c.p - k)), 0.0, ols)
             for mask in itertools.product((False, True), repeat=k) if any(mask)]
    kept = []
    for row in box.clip(rows):
        if not any(row.tobytes() == other.tobytes() for other in kept):
            kept.append(row)
    return np.array(kept)


def _kernel_starts(monkeypatch):
    """The start rows of each `box_descent` call that `solver` makes, recorded by a spy."""
    calls = []

    def spy(Q, q, pens, n, starts, *args):
        calls.append(np.array(starts))
        return box_descent(Q, q, pens, n, starts, *args)
    monkeypatch.setattr(solver, "box_descent", spy)
    return calls


def _multistart_fit(c, box, opts=SolverOptions()):
    """`multistart_argmin` of one fit from every row of `_starts`, with q = X'Y and
    the OLS point formed as `minimize_block` forms them."""
    X, Y = c.dataset.X, c.dataset.Y[None, :, None]
    base, q = np.matmul(ols_pinv(X), Y)[:, :, 0], np.matmul(X.T, Y)[:, :, 0]
    return multistart_argmin(X.T @ X, q, base, _starts(c, box), [c.penalty] * c.p, c.n,
                             box.lo_array(), box.hi_array(), opts.tolerance, opts.max_sweeps)


def _multistart_bits(c, box, opts=SolverOptions()):
    """`_bits` of the fit `_multistart_fit` picks, but for restarts_used: the exact
    objective of its winner, and converged and iterations of the first converged
    start that ends on the winner's bits (else the winner's)."""
    win, ends, sweeps, conv = _multistart_fit(c, box, opts)
    theta = ends[win[0]]
    same = [i for i in range(ends.shape[0]) if ends[i].tobytes() == theta.tobytes()]
    flag = next((i for i in same if conv[i]), win[0])
    return theta.tobytes(), contrast_value(c, theta), bool(conv[flag]), int(sweeps[flag])


def _descend(c, box, opts, starts):
    """The descents from the rows of `starts` by the kernel `minimize` runs, on
    the Gram data of one fit: (endpoints, converged, sweeps), one per row."""
    X, Y = c.dataset.X, c.dataset.Y
    ends, sweeps, conv = box_descent(X.T @ X, X.T @ Y, [c.penalty] * c.p, c.n, starts,
                                     box.lo_array(), box.hi_array(), opts.tolerance, opts.max_sweeps)
    return ends, conv, sweeps


def _contrast(pen, n=30, sigma=1.0, seed=5, p0=1, rho0=(1.0,),
              kind="standardized-orthonormal"):
    truth = TrueParameter(p0=p0, rho0=rho0)
    ds = make_dataset(DesignSpec(kind=kind, p=truth.p), truth,
                      NoiseSpec("gaussian", sigma), n, design_seed=seed, noise_seed=seed + 1)
    return Contrast(dataset=ds, penalty=pen)


def test_box_validation_and_membership():
    box = Box(lo=(-1.0, -2.0), hi=(1.0, 2.0))
    assert box_contains(box, [0.0, 0.0])
    assert not box_contains(box, [1.5, 0.0])
    assert box.on_boundary([1.0, 0.0])
    with pytest.raises(Exception):
        Box(lo=(1.0,), hi=(1.0,))


def test_unpenalized_minimize_recovers_ols():
    c = _contrast(NO_PENALTY, n=40, seed=2)
    res = minimize(c, Box.cube(2, half=50.0))
    ols, *_ = np.linalg.lstsq(c.dataset.X, c.dataset.Y, rcond=None)
    assert_allclose(res.theta_hat, ols, atol=1e-8)
    assert res.converged


def test_l1_standardized_matches_soft_threshold():
    lam_c, lam_e = 2.0, 0.4
    c = _contrast(_bridge(lam_c, lam_e, 1.0), n=50, seed=7)
    res = minimize(c, Box.cube(2, half=50.0))
    X, Y, n = c.dataset.X, c.dataset.Y, c.n
    beta = X.T @ Y / n
    lam = lam_c * n ** lam_e
    expect = np.sign(beta) * np.maximum(np.abs(beta) - lam / (2.0 * n), 0.0)
    assert_allclose(res.theta_hat, expect, atol=1e-8)


def test_minimize_beats_grid_oracle_on_nonconvex_instance():
    c = _contrast(_bridge(1.0, 0.5, 0.5), n=30, seed=11, kind="bounded-random-frozen")
    box = Box.cube(2)
    res = minimize(c, box)
    oracle = grid_oracle(c, box, stages=3, points_per_axis=41)
    assert res.objective <= oracle.objective + 1e-8 * (1.0 + abs(oracle.objective))


def test_minimize_oracle_dominance_small_sample():
    rng = np.random.default_rng(2024)
    for _ in range(40):
        pen = random_penalty(rng)
        p0 = int(rng.integers(0, 3))
        p1 = int(rng.integers(1, 3 - p0)) if p0 < 2 else 1
        rho0 = tuple(float(rng.uniform(0.5, 2.0) * (1 if rng.random() < 0.5 else -1))
                     for _ in range(p1))
        n = int(rng.integers(max(p0 + p1, 5), 50))
        c = _contrast(pen, n=n, seed=int(rng.integers(1, 10**6)), p0=p0, rho0=rho0,
                      kind="bounded-random-frozen")
        box = Box.cube(p0 + p1)
        res = minimize(c, box)
        oracle = grid_oracle(c, box, stages=3, points_per_axis=41)
        assert res.objective <= oracle.objective + 1e-8 * (1.0 + abs(oracle.objective))


def test_minimize_never_above_multistart_objectives():
    c = _contrast(_bridge(1.0, 0.6, 0.5), n=30, seed=4)
    box = Box.cube(2)
    res = minimize(c, box)
    for start in _starts(c, box):
        assert res.objective <= contrast_value(c, start)


@pytest.mark.parametrize("p0, box, count", [
    (1, Box.cube(2), 4),
    (4, Box(lo=(-2.0,) * 7 + (0.5,), hi=(2.0,) * 8), 2 ** PATTERN_COORDS + 1),
])
def test_fit_starts_follow_their_definition(monkeypatch, p0, box, count):
    # on a Gram matrix with nonzero off-diagonal entries, the one kernel call of a
    # fit runs the hand-built start set, row for row and bit for bit
    c = _contrast(_bridge(1.0, 0.5, 0.5), n=40, seed=8, p0=p0,
                  rho0=(1.0, -1.5, 0.8, 1.2)[:box.p - p0])
    calls = _kernel_starts(monkeypatch)
    res = minimize(c, box)
    expected = _starts(c, box)
    assert len(expected) == count == res.restarts_used
    assert len(calls) == 1
    assert calls[0].tobytes() == expected.tobytes()


_NONCONVEX_FAMILIES = pytest.mark.parametrize("pen", [
    _bridge(1.0, 0.6, 0.5),
    PenaltySpec(family="scad", schedule=TuningSchedule(0.5, -0.25), a=3.7),
    PenaltySpec(family="selo", schedule=TuningSchedule(0.05, 0.0), tau=TuningSchedule(0.1, -0.5)),
], ids=["bridge-0.5", "scad", "selo"])


def _diagonal_gram_contrast(pen, design, seed):
    # one column, or Hadamard columns repeated 25 times (X'X = 100 I with exact zeros
    # off the diagonal); coefficients from 0 up, so that some fits hit zero
    rng = np.random.default_rng(seed)
    if design == "p1":
        X = rng.standard_normal((40, 1))
    else:
        X = np.tile([[1.0, 1.0, 1.0], [1.0, -1.0, 1.0], [1.0, 1.0, -1.0], [1.0, -1.0, -1.0]], (25, 1))
    Y = X @ (0.15 * (seed % 4) * np.arange(1, X.shape[1] + 1)) + rng.standard_normal(X.shape[0])
    return Contrast(dataset=Dataset(X=X, Y=Y, truth=None, n=X.shape[0]), penalty=pen)


@_NONCONVEX_FAMILIES
@pytest.mark.parametrize("design", ["p1", "orthogonal-columns"])
def test_diagonal_gram_fits_run_one_start_with_the_bits_of_every_start(monkeypatch, pen, design):
    # with no nonzero off-diagonal entry in X'X, every start of a fit ends on the same
    # bits, so the OLS start alone gives theta_hat, objective, converged and iterations
    # of the full start set
    calls = _kernel_starts(monkeypatch)
    zeros = 0
    for seed in range(12):
        c = _diagonal_gram_contrast(pen, design, seed)
        res = minimize(c, Box.cube(c.p))
        assert res.restarts_used == 1 and calls[-1].shape[0] == 1
        assert _bits(res)[:4] == _multistart_bits(c, Box.cube(c.p))
        zeros += int(np.count_nonzero(res.theta_hat == 0.0))
    assert zeros > 0


@_NONCONVEX_FAMILIES
@pytest.mark.parametrize("p", [3, 5, 8])
def test_ranked_winner_is_within_1e14_of_the_best_exact_endpoint(monkeypatch, pen, p):
    # fits rank their endpoints by (u - OLS)'X'X(u - OLS) + penalty, which is Z_n less
    # RSS(OLS) in exact arithmetic; on correlated designs the winner's exact objective
    # stays within 1e-14 relative of the least exact objective among the fit's endpoints
    returned = []

    def spy(*args):
        returned.append(box_argmin(*args))
        return returned[-1]
    monkeypatch.setattr(solver, "box_argmin", spy)
    rng = np.random.default_rng(1000 + p)
    n, R = 60, 100
    X = rng.standard_normal((n, p)) @ (np.eye(p) + 0.6 * np.eye(p, k=1) + 0.3 * np.eye(p, k=2))
    theta = np.where(np.arange(p) < p // 2, 0.0, rng.uniform(0.5, 2.0, p))
    Y = X @ theta + rng.standard_normal((R, n))
    _, obj, *_ = minimize_block(X, Y, pen, n, Box.cube(p), SolverOptions())
    win, ends, _, group, *_ = returned[0]
    exact = contrast_value(Contrast(Dataset(X=X, Y=Y, truth=None, n=n), pen), ends, group)
    best = np.minimum.reduceat(exact, np.flatnonzero(np.diff(group, prepend=-1)))
    assert_array_equal(obj, exact[win])
    assert np.all(obj <= best + 1e-14 * np.abs(best))
    assert np.any(np.bincount(group) > 1)


@pytest.mark.parametrize("pen", [
    _bridge(1.0, 0.6, 0.5),
    _bridge(1.0, 0.4, 1.5),
    PenaltySpec(family="scad", schedule=TuningSchedule(0.5, -0.25), a=3.7),
    PenaltySpec(family="selo", schedule=TuningSchedule(0.05, 0.0), tau=TuningSchedule(0.1, -0.5)),
    NO_PENALTY,
], ids=["bridge-0.5", "bridge-1.5", "scad", "selo", "none"])
@pytest.mark.parametrize("kind, p0, p", [
    ("standardized-orthonormal", 1, 2),
    ("bounded-random-frozen", 4, 8),
])
def test_fit_never_reads_the_generating_truth(pen, kind, p0, p):
    # the estimator is a function of (X, Y, penalty, box): truths with other nonzero
    # entries, or with a zero block of another size, give the same bits on one data set
    rng = np.random.default_rng(31)
    X = generate_design(DesignSpec(kind=kind, p=p), 60, 17)
    box = Box.cube(p)
    near = TrueParameter(p0=p0, rho0=(1.0,) * (p - p0))
    far = TrueParameter(p0=p0, rho0=(-3.0,) * (p - p0))
    resized = TrueParameter(p0=p0 - 1, rho0=(2.0,) * (p - p0 + 1))
    for _ in range(4):
        Y = X @ near.theta + rng.standard_normal(60)
        fits = [minimize(Contrast(dataset=Dataset(X=X, Y=Y, truth=truth, n=60), penalty=pen), box)
                for truth in (near, far, resized)]
        assert _bits(fits[0]) == _bits(fits[1]) == _bits(fits[2])


def test_exact_zero_is_fixed_point():
    c = _contrast(_bridge(1.0, 0.6, 0.5), n=100, seed=6)
    box = Box.cube(2)
    res = minimize(c, box)
    assert res.theta_hat[0] == 0.0
    rerun, _, _ = _descend(c, box, SolverOptions(), res.theta_hat[None])
    assert rerun[0, 0] == 0.0


def test_minimize_deterministic():
    c = _contrast(_bridge(0.5, 0.5, 0.5), n=25, seed=3)
    r1 = minimize(c, Box.cube(2))
    r2 = minimize(c, Box.cube(2))
    assert_array_equal(r1.theta_hat, r2.theta_hat)
    assert r1.objective == r2.objective
    assert r1.iterations == r2.iterations


def test_minimize_respects_box():
    c = _contrast(NO_PENALTY, n=40, seed=2)
    box = Box(lo=(-0.1, -0.1), hi=(0.1, 0.1))
    res = minimize(c, box)
    assert box_contains(box, res.theta_hat)
    assert box.on_boundary(res.theta_hat)  # OLS is far outside this tiny box


def test_minimize_rejects_nonfinite_data():
    c = _contrast(NO_PENALTY, n=10, seed=1)
    c.dataset.Y[0] = np.nan
    with pytest.raises(InvalidInputError):
        minimize(c, Box.cube(2))
    c = _contrast(NO_PENALTY, n=10, seed=1)
    c.dataset.X[3, 1] = np.inf
    with pytest.raises(InvalidInputError):
        minimize(c, Box.cube(2))


def test_converged_if_any_start_reaching_the_winner_converged():
    # a binding box and a 2-sweep cap: several starts often reach the winning
    # point, and only some of them within the cap
    truth = TrueParameter(p0=2, rho0=(1.0,))
    design = DesignSpec(kind="bounded-random-frozen", p=truth.p)
    noise = NoiseSpec("gaussian", 1.0)
    pen, box, opts = _bridge(1.0, 0.6, 0.5), Box.cube(truth.p, half=0.8), SolverOptions(max_sweeps=2)
    first_start_not_converged = 0
    for n in (30, 60):
        X = generate_design(design, n, design_seed(8, n))
        for rep in range(100):
            Y = simulate_responses(X, truth, noise, replication_seed(8, n, rep))
            c = Contrast(dataset=Dataset(X=X, Y=Y, truth=truth, n=n), penalty=pen)
            res = minimize(c, box, opts)
            # (converged, sweeps) of each start whose endpoint, or the start itself
            # where the endpoint ranks higher, has the winner's bits
            _, ends, sweeps, conv = _multistart_fit(c, box, opts)
            reached = [(cv, sw) for end, cv, sw in zip(ends, conv, sweeps)
                       if end.tobytes() == res.theta_hat.tobytes()]
            assert res.converged == any(conv for conv, _ in reached)
            # the sweeps of the first such start that converged, else of the first
            assert res.iterations == next((s for conv, s in reached if conv), reached[0][1])
            first_start_not_converged += res.converged and not reached[0][0]
    # fits where the first start to reach the winner stopped at the cap but a
    # later one converged: their sweep count comes from that later start
    assert first_start_not_converged > 0


def test_grid_oracle_quadratic_argmin():
    c = _contrast(NO_PENALTY, n=30, sigma=0.0, seed=9, p0=0, rho0=(2.0,))
    res = grid_oracle(c, Box.cube(1), stages=4, points_per_axis=41)
    assert res.theta_hat[0] == pytest.approx(2.0, abs=1e-3)


def test_grid_oracle_monotone_in_stages():
    c = _contrast(_bridge(1.0, 0.5, 0.5), n=30, seed=13, kind="bounded-random-frozen")
    box = Box.cube(2)
    objs = [grid_oracle(c, box, stages=s, points_per_axis=21).objective for s in (1, 2, 3, 4)]
    assert all(b <= a + 1e-15 for a, b in zip(objs, objs[1:]))


def test_grid_oracle_represents_exact_zero():
    c = _contrast(_bridge(2.0, 0.6, 0.5), n=100, seed=6)
    res = grid_oracle(c, Box.cube(2), stages=2, points_per_axis=21)
    assert res.theta_hat[0] == 0.0


def test_grid_oracle_objective_is_the_exact_objective():
    # the oracle scores its lattices with the one evaluator, so its objective
    # is contrast_value at its point, bit for bit
    rng = np.random.default_rng(77)
    for trial in range(30):
        pen = random_penalty(rng)
        p0 = int(rng.integers(0, 3))
        p1 = int(rng.integers(1, 4 - p0))
        rho0 = tuple(float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)) for _ in range(p1))
        c = _contrast(pen, n=int(rng.integers(5, 200)), seed=int(rng.integers(1, 10**6)), p0=p0,
                      rho0=rho0, kind="bounded-random-frozen")
        res = grid_oracle(c, Box.cube(c.p), stages=2, points_per_axis=21)
        assert res.objective == contrast_value(c, res.theta_hat), trial


def test_grid_oracle_cost_guard():
    truth = TrueParameter(p0=2, rho0=(1.0, 1.0))
    ds = make_dataset(DesignSpec(kind="standardized-orthonormal", p=4), truth,
                      NoiseSpec("gaussian", 1.0), 20, design_seed=1, noise_seed=2)
    c = Contrast(dataset=ds, penalty=NO_PENALTY)
    with pytest.raises(InvalidInputError):
        grid_oracle(c, Box.cube(4))


def test_zero_column_coordinate_goes_to_zero():
    rows = tuple((1.0, 0.0) for _ in range(12))
    truth = TrueParameter(p0=1, rho0=(1.0,))
    X = np.asarray(rows)
    Y = X @ truth.theta  # noiseless; second column is identically zero
    # column order: zero block first, so put the dead column in the zero block
    ds = Dataset(X=X[:, ::-1].copy(), Y=Y, truth=truth, n=12)
    c = Contrast(dataset=ds, penalty=NO_PENALTY)
    res = minimize(c, Box.cube(2))
    assert res.theta_hat[0] == 0.0


def test_tiebreak_argmin_matches_tiebreak_key():
    # per group, the vectorized pick equals the first minimum of the tuple key,
    # with exact objective ties, equal magnitudes of both signs and signed zeros
    rng = np.random.default_rng(8)
    groups = np.sort(rng.integers(0, 40, 400))
    objectives = rng.choice([0.5, 1.0, 1.5], groups.size)
    points = rng.choice([-1.0, -0.0, 0.0, 1.0, 2.0], size=(groups.size, 3))
    winners = tiebreak_argmin(groups, objectives, points)
    expected = []
    for grp in np.unique(groups):
        rows = np.flatnonzero(groups == grp)
        expected.append(min(rows, key=lambda i: _tiebreak_key(objectives[i], points[i])))
    assert winners.tolist() == expected


@pytest.mark.parametrize("m", [0, 1, 60])
def test_tiebreak_argmin_on_one_row_groups_is_the_lexsort_order(m):
    # strictly increasing groups hold one row each, so the pick is every row,
    # in the order the full lexsort gives
    rng = np.random.default_rng(m)
    groups = np.sort(rng.choice(10 * m + 1, m, replace=False))
    objectives = rng.choice([0.5, 1.0, rng.standard_normal()], m)
    points = rng.choice([-1.0, -0.0, 0.0, 1.0, rng.standard_normal()], size=(m, 3))
    order = np.lexsort((*points.T[::-1], *np.abs(points).T[::-1], objectives, groups))
    winners = tiebreak_argmin(groups, objectives, points)
    assert winners.dtype == order.dtype and winners.tolist() == order.tolist()


@pytest.mark.parametrize("max_sweeps", [1, 2, 50])
@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("pen", [
    _bridge(1.0, 0.0, 0.5),
    _bridge(1.0, 0.0, 1.0),
    _bridge(1.0, 0.0, 2.0),
    PenaltySpec(family="scad", schedule=TuningSchedule(0.5, 0.0), a=3.7),
    PenaltySpec(family="selo", schedule=TuningSchedule(0.2, 0.0), tau=TuningSchedule(0.1, 0.0)),
    NO_PENALTY,
], ids=["bridge-0.5", "bridge-1", "bridge-2", "scad", "selo", "none"])
def test_diagonal_descent_ends_where_sweep_two_would_repeat_sweep_one(pen, p, max_sweeps):
    # on a diagonal Q (a zero diagonal entry from p = 2 on) `box_argmin` descends one sweep
    # from each b, and a row's end is that of two single sweeps: signed-zero q entries read
    # their other coordinates through +0 in one sweep and -0 in the next. The last q row
    # overflows b: where its sweep-1 end is not finite the loop goes on (a nan move ends a
    # sweep converged). The multistart oracle runs the plain loop from the same one start.
    rng = np.random.default_rng(p)
    Q = np.diag([0.5, 0.0, 0.25][:p])
    base = np.vstack([3.0 * rng.standard_normal((6, p)), np.zeros((2, p)), np.full((2, p), -0.0),
                      rng.choice([-0.0, 0.0, 0.1], (4, p)), rng.standard_normal((1, p))])
    q = base * np.diag(Q)  # Q b = q, signed zeros kept
    q[-1] = np.finfo(float).max
    pens = [pen] * p
    for lo, hi in ((-np.inf, np.inf), (np.array([0.0, -1.0, -2.0][:p]), np.array([3.0, 1.0, 0.5][:p]))):
        starts = np.clip(base, lo, hi)
        U1, _, c1 = box_descent(Q, q, pens, 1, starts, lo, hi, 1e-13, 1)
        U2, _, c2 = box_descent(Q, q, pens, 1, U1, lo, hi, 1e-13, 1)
        with np.errstate(over="ignore", invalid="ignore"):
            win, ends, _, _, sweeps, conv = box_argmin(Q, q, base, np.arange(0), pens, 1, lo, hi, 1e-13, max_sweeps)
            oracle = multistart_argmin(Q, q, base, base, pens, 1, lo, hi, 1e-13, max_sweeps)
        assert win.tolist() == oracle[0].tolist() and ends.tobytes() == oracle[1].tobytes()
        assert sweeps.tolist() == oracle[2].tolist() and conv.tolist() == oracle[3].tolist()
        kept = sweeps != 0  # the ranking put no start back
        assert np.count_nonzero(kept) >= len(q) - 1
        if max_sweeps == 1:
            assert ends[kept].tobytes() == U1[kept].tobytes()
            assert np.all(sweeps[kept] == 1) and conv[kept].tolist() == c1[kept].tolist()
        else:
            assert ends[kept].tobytes() == np.where(c1[:, None], U1, U2)[kept].tobytes()
            assert sweeps[kept].tolist() == np.where(c1, 1, 2)[kept].tolist()
            assert conv[kept].tolist() == (c1 | c2)[kept].tolist()


@pytest.mark.parametrize("pen", [
    _bridge(1.0, 0.1, 0.3),
    _bridge(1.0, 0.2, 0.5),
    _bridge(1.0, 0.9, 1.5),
    PenaltySpec(family="scad", schedule=TuningSchedule(0.5, -0.25), a=3.7),
    PenaltySpec(family="selo", schedule=TuningSchedule(0.002, 0.0), tau=TuningSchedule(0.1, -0.5)),
], ids=["bridge-0.3", "bridge-0.5", "bridge-1.5", "scad", "selo"])
def test_minimize_matches_separable_oracle_beyond_p3(pen):
    # standardized-orthonormal designs have X'X = nI, so the contrast splits into
    # n (theta_j - OLS_j)^2 + p_n(theta_j) per coordinate at any p, and the global
    # minimizer is the scalar prox of each OLS coordinate
    rng = np.random.default_rng(41)
    n = 200
    zeros = 0
    for p, p0 in ((10, 7), (24, 12), (40, 30)):
        rho0 = tuple(float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)) for _ in range(p - p0))
        c = _contrast(pen, n=n, seed=int(rng.integers(1, 10**6)), p0=p0, rho0=rho0)
        res = minimize(c, Box.cube(p))
        ols = np.linalg.lstsq(c.dataset.X, c.dataset.Y, rcond=None)[0]
        expect = np.array([scalar_prox_interval(pen, n, float(n), b, -10.0, 10.0) for b in ols])
        assert_array_equal(res.theta_hat[:p0] == 0.0, expect[:p0] == 0.0)
        assert np.all(np.abs(res.theta_hat - expect) <= 1e-8 * (1.0 + np.abs(expect)))
        zeros += int(np.count_nonzero(expect[:p0] == 0.0))
    if pen.family != "bridge" or pen.gamma < 1.0:
        assert 0 < zeros < 49  # both outcomes of the zero decision occur


def _residual_form_minimize(c, box, opts=SolverOptions()):
    """The residual-form descent that the Gram form replaced (O(n) per update),
    from every start at once, with the same starts, start guard and
    tie-break: the Gram form's oracle."""
    X, Y, pen, n = c.dataset.X, c.dataset.Y, c.penalty, c.n
    col_sq = np.einsum("ij,ij->j", X, X)
    lo, hi = box.lo_array(), box.hi_array()
    starts = _starts(c, box)
    theta = starts.copy()
    moving = np.ones(len(starts), dtype=bool)
    for _ in range(opts.max_sweeps):
        resid = Y - theta[moving] @ X.T
        max_move = np.zeros(resid.shape[0])
        for j in range(theta.shape[1]):
            old = theta[moving, j]
            b = old + resid @ X[:, j] / col_sq[j]
            new = prox_array(pen, n, col_sq[j], b, lo[j], hi[j])
            resid += np.outer(old - new, X[:, j])
            max_move = np.maximum(max_move, np.abs(new - old))
            theta[moving, j] = new
        moving[np.flatnonzero(moving)[max_move <= opts.tolerance]] = False
        if not moving.any():
            break
    best = None
    for start, end in zip(starts, theta):
        obj, start_obj = contrast_value(c, end), contrast_value(c, start)
        if obj > start_obj:
            end, obj = start, start_obj
        if best is None or _tiebreak_key(obj, end) < _tiebreak_key(best[1], best[0]):
            best = (end, obj)
    return best


def test_gram_form_matches_residual_form():
    rng = np.random.default_rng(4)
    kinds = ("standardized-orthonormal", "bounded-random-frozen")
    for trial in range(48):
        if trial % 8 == 0:
            pen = NO_PENALTY
        else:
            pen = random_penalty(rng, gammas=(0.3, 0.5, 1.0, 1.5, 2.0))
        p = int(rng.integers(1, 9))
        p0 = int(rng.integers(0, p))
        rho0 = tuple(float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)) for _ in range(p - p0))
        c = _contrast(pen, n=int(rng.integers(p + 3, 60)), seed=int(rng.integers(1, 10**6)),
                      p0=p0, rho0=rho0, kind=kinds[trial % 2])
        box = Box.cube(p)
        res = minimize(c, box)
        theta, obj = _residual_form_minimize(c, box)
        assert_array_equal(res.theta_hat[:p0] == 0.0, theta[:p0] == 0.0), trial
        assert np.max(np.abs(res.theta_hat - theta)) <= 1e-9, trial
        assert res.objective <= obj + 1e-12 * abs(obj), trial


def test_each_coordinate_reads_its_own_interval():
    # disjoint columns give both coordinates b = 1 exactly from the origin, but
    # only the second box binds: the kernel must not mix the coordinates' intervals
    X = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    ds = Dataset(X=X, Y=X @ np.ones(2), truth=TrueParameter(p0=0, rho0=(1.0, 1.0)), n=4)
    c = Contrast(dataset=ds, penalty=_bridge(0.5, 0.0, 0.5))
    box = Box(lo=(-10.0, -10.0), hi=(10.0, 0.5))
    theta = _descend(c, box, SolverOptions(), np.zeros((1, 2)))[0][0]
    assert theta[0] > 0.5 and theta[1] == 0.5
    assert theta[0] == scalar_prox_interval(c.penalty, 4, 2.0, 1.0, -10.0, 10.0)
    assert_array_equal(minimize(c, box).theta_hat, theta)


def test_pinv_ols_start_matches_lstsq():
    # the OLS start is pinv(X) Y; it stays within 1e-12 (1 + max|OLS|) of
    # lstsq, on rank-deficient and underdetermined designs too
    rng = np.random.default_rng(5)
    for trial in range(300):
        p, n = int(rng.integers(1, 9)), int(rng.integers(1, 80))
        X = rng.standard_normal((n, p)) * rng.uniform(0.1, 10.0, p)
        if trial % 3 == 1:
            X[:, rng.integers(p)] = 0.0
        if trial % 3 == 2 and p > 1:
            X[:, -1] = 2.0 * X[:, 0]
        Y = 3.0 * rng.standard_normal(n)
        ols = np.linalg.lstsq(X, Y, rcond=None)[0]
        got = ols_pinv(X) @ Y
        assert np.max(np.abs(got - ols)) <= 1e-12 * (1.0 + np.max(np.abs(ols))), trial


@pytest.mark.parametrize("coords", [(), (1,), (0, 2), (1, 3, 0)])
def test_zeroed_starts_order_and_cached_read_only_mask(coords):
    base = np.arange(1.0, 9.0).reshape(2, 4)
    expected = []
    for row in base:
        expected += [row, np.zeros(4)]
        for zeroed in itertools.product((False, True), repeat=len(coords)):
            if any(zeroed):
                expected.append(np.where(np.isin(np.arange(4), np.compress(zeroed, coords)), 0.0, row))
    starts = zeroed_starts(base, np.array(coords, dtype=int))
    assert_array_equal(starts, np.array(expected))
    mask = _keep_mask(coords, 4)
    assert mask is _keep_mask(coords, 4) and not mask.flags.writeable
    with pytest.raises(ValueError):
        mask[0, 0] = False
