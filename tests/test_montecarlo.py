import math
import os

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from bridgelab.asymptotics import limit_law
from bridgelab.errors import InvalidInputError, InvalidSpecError
from bridgelab.model import NOISE_FAMILIES, DesignSpec, NoiseSpec, TrueParameter, simulate_responses
from bridgelab.montecarlo import (
    MCConfig,
    ReplicationSet,
    compare_to_limit,
    fit_tail_slope,
    moment_trajectory,
    pldi_probe,
    replication_seed,
    run_replications,
    sparsity_curve,
    survival_curve,
    tail_curve,
)
from bridgelab.penalty import PenaltySpec, TuningSchedule, zero_penalty
from bridgelab.solver import Box
from bridgelab.util import derive_seed, derived_seeds, seeded_generators


def _cfg(family="bridge", gamma=0.5, c=1.0, e=0.6, sigma=1.0, p0=1, rho0=(1.0,),
         n_grid=(50, 100), R=100, seed=99, **kw):
    truth = TrueParameter(p0=p0, rho0=rho0)
    if family == "none":
        pen = zero_penalty()
    else:
        pen = PenaltySpec(family=family, schedule=TuningSchedule(c, e), gamma=gamma)
    return MCConfig(
        design=DesignSpec(kind="standardized-orthonormal", p=truth.p),
        noise=NoiseSpec(family="gaussian", sigma=sigma),
        truth=truth,
        penalty=pen,
        n_grid=n_grid,
        replications=R,
        master_seed=seed,
        box=Box.cube(truth.p),
        **kw,
    )


def _results_equal(a, b):
    assert a.config.n_grid == b.config.n_grid
    for n in a.config.n_grid:
        assert_array_equal(a.seeds[n], b.seeds[n])
        assert_array_equal(a.theta_hat[n], b.theta_hat[n])
        assert_array_equal(a.u_hat(n), b.u_hat(n))
        assert_array_equal(a.v_hat(n), b.v_hat(n))
        assert_array_equal(a.objective[n], b.objective[n])
        assert_array_equal(a.converged[n], b.converged[n])


def test_noiseless_unpenalized_recovery_at_float_resolution():
    # the unpenalized fit is the OLS point pinv(X) Y, which meets the truth
    # only to rounding: no start is placed at the truth
    cfg = _cfg(family="none", sigma=0.0, n_grid=(50,), R=100)
    rs = run_replications(cfg)
    assert np.max(np.abs(rs.theta_hat[50] - cfg.truth.theta)) <= 4 * np.finfo(float).eps
    assert np.all((rs.objective[50] >= 0.0) & (rs.objective[50] <= 1e-28))


def test_noiseless_bridge_fits_hit_exact_zeros():
    cfg = _cfg(sigma=0.0, n_grid=(50, 200), R=100)
    rs = run_replications(cfg)
    for n in cfg.n_grid:
        assert np.all(rs.zero_flags(n))
        assert_array_equal(rs.u_hat(n), np.zeros((100, 1)))


def test_campaign_deterministic_and_complete():
    cfg = _cfg(n_grid=(30, 60), R=100)
    rs1 = run_replications(cfg)
    rs2 = run_replications(cfg)
    _results_equal(rs1, rs2)
    assert all(rs1.theta_hat[n].shape == (100, 2) for n in (30, 60))
    seeds = np.concatenate([rs1.seeds[30], rs1.seeds[60]])
    assert np.unique(seeds).size == 2 * 100
    assert rs1.seeds[30][0] == replication_seed(cfg.master_seed, 30, 0)


@pytest.mark.parametrize("master", [0, 2 ** 32 - 1, 2 ** 32, 2 ** 40 + 7, 2 ** 64 - 1, 2 ** 70 + 3])
@pytest.mark.parametrize("n", [50, 3200, 2 ** 32 - 1])
def test_derived_seeds_equal_derive_seed(master, n):
    # masters of one and two uint32 words, and one above 2**64 that both mask to 64 bits
    for reps in (range(0, 150), [2 ** 31, 7, 2 ** 32 - 1]):
        assert derived_seeds((master, n), reps).tolist() == [derive_seed(master, n, r) for r in reps]
    assert derived_seeds((master, n), range(5, 5)).size == 0


@pytest.mark.parametrize("reps", [[0, 2 ** 32], [-1, 3]])
def test_derived_seeds_rejects_reps_beyond_one_word(reps):
    with pytest.raises(InvalidInputError):
        derived_seeds((1, 50), reps)


@pytest.mark.parametrize("family", NOISE_FAMILIES)
def test_seeded_generators_start_as_default_rng(family):
    # one reused generator per seed: the rademacher draws leave a buffered uint32
    # behind (odd n) that the next seed's state must clear
    seeds = np.array([0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1, 1], dtype=np.uint64)
    X = np.random.default_rng(5).standard_normal((41, 2))
    truth, noise = TrueParameter(p0=1, rho0=(1.0,)), NoiseSpec(family=family, sigma=1.5)
    out = []
    for seed, rng in seeded_generators(seeds):
        ref = np.random.default_rng(seed)
        assert rng.bit_generator.state == ref.bit_generator.state
        Y = simulate_responses(X, truth, noise, rng)
        assert Y.tobytes() == simulate_responses(X, truth, noise, ref).tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state
        out.append(seed)
    assert out == seeds.tolist()


def test_serial_matches_parallel():
    cfg = _cfg(n_grid=(30, 60), R=100)
    _results_equal(run_replications(cfg, threads=1), run_replications(cfg, threads=4))


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in process."""

    max_workers = []

    def __init__(self, max_workers):
        self.max_workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


@pytest.mark.parametrize("threads, cpus, pools", [
    (5000, 3, [3]), (5000, 10 ** 6, [200]), (5000, 1, []), (2, 4, [2]), (0, 16, [8]), (0, None, []),
])
def test_workers_capped_at_cpus_and_tasks(monkeypatch, threads, cpus, pools):
    # the pool forks every worker when it starts, so --threads must not ask for more
    # workers than there are CPUs or tasks; R = 100 at two n makes 2 * 4w blocks for
    # w workers, but at most 200 of one rep; one worker runs serially without a pool
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    _RecordingPool.max_workers.clear()
    cfg = _cfg(n_grid=(30, 60), R=100)
    rs = run_replications(cfg, threads=threads)
    assert _RecordingPool.max_workers == pools
    _results_equal(rs, run_replications(cfg, threads=1))


def test_config_validation():
    with pytest.raises(InvalidSpecError):
        _cfg(R=50)
    with pytest.raises(InvalidSpecError):
        _cfg(n_grid=(100, 50))
    with pytest.raises(InvalidSpecError):
        _cfg(r_grid=(2.0, 1.0))


def _synthetic_set(u_values, v_values, n_grid=(100,), R=None):
    R = R if R is not None else len(u_values)
    cfg = _cfg(n_grid=n_grid, R=R)
    # theta = (u / sqrt(n), rho0 + v / sqrt(n)): u_hat(n), v_hat(n) give back u, v up to rounding
    theta = {n: np.column_stack([np.asarray(u_values[:R]) / math.sqrt(n),
                                 1.0 + np.asarray(v_values[:R]) / math.sqrt(n)])
             for n in n_grid}
    return ReplicationSet(config=cfg, seeds={n: np.arange(R, dtype=np.uint64) for n in n_grid},
                          theta_hat=theta, objective={n: np.zeros(R) for n in n_grid},
                          converged={n: np.ones(R, dtype=bool) for n in n_grid},
                          C0=np.eye(2), c0_source="test")


def test_survival_curve_and_pareto_slope():
    rng = np.random.default_rng(7)
    R = 100_000
    values = (1.0 - rng.uniform(size=R)) ** (-1.0 / 3.0)  # P(V >= r) = r^-3
    r_grid = np.geomspace(1.0, 8.0, 12)
    p_hat, se = survival_curve(values, r_grid)
    assert np.all(np.diff(p_hat) <= 0.0)
    assert np.all((p_hat >= 0.0) & (p_hat <= 1.0))
    slope, note = fit_tail_slope(r_grid, p_hat, cutoff=10.0 / R)
    assert note == ""
    assert slope == pytest.approx(-3.0, abs=0.2)


def test_tail_curve_all_mass_at_zero():
    rs = _synthetic_set(np.zeros(100), np.zeros(100))
    rep = tail_curve(rs)
    curve = rep.curves[0]
    assert np.all(curve.p_hat == 0.0)
    assert curve.slope is None
    assert curve.note == "all mass at 0"
    probe = pldi_probe(rep)
    for L in rep.orders:
        assert probe[L]["verdict"] == "plausibly-bounded"
        assert probe[L]["max"] == 0.0


def test_tail_curve_real_run_monotone():
    cfg = _cfg(n_grid=(50, 100), R=100)
    rs = run_replications(cfg)
    rep = tail_curve(rs)
    for curve in rep.curves:
        assert np.all(np.diff(curve.p_hat) <= 0.0)
        assert np.all((curve.p_hat >= 0.0) & (curve.p_hat <= 1.0))
        for L in rep.orders:
            assert_allclose(curve.rl[L], curve.r ** L * curve.p_hat)


def test_sparsity_curve_unpenalized_near_zero():
    cfg = _cfg(family="none", n_grid=(50,), R=100)
    rs = run_replications(cfg)
    sel = sparsity_curve(rs)
    assert sel.frequency[0] == 0.0  # continuous noise: exact zeros have measure zero
    assert sel.se[0] == 0.0


def test_sparsity_curve_noiseless_sparse_regime():
    cfg = _cfg(sigma=0.0, n_grid=(50,), R=100)
    rs = run_replications(cfg)
    sel = sparsity_curve(rs)
    assert sel.frequency[0] == 1.0


def test_sparsity_curve_se_formula():
    cfg = _cfg(n_grid=(50, 100), R=100)
    rs = run_replications(cfg)
    sel = sparsity_curve(rs)
    for f, s in zip(sel.frequency, sel.se):
        assert 0.0 <= f <= 1.0
        assert s == pytest.approx(math.sqrt(f * (1.0 - f) / 100), abs=1e-15)


def test_sparsity_curve_needs_zero_block():
    cfg = _cfg(p0=0, n_grid=(50,), R=100)
    rs = run_replications(cfg)
    with pytest.raises(InvalidInputError):
        sparsity_curve(rs)


def test_moment_trajectory_zero_samples():
    rs = _synthetic_set(np.zeros(100), np.zeros(100))
    trajs = moment_trajectory(rs, orders=(2.0,))
    assert_array_equal(trajs[0].u_moment, [0.0])
    assert trajs[0].u_verdict == "plausibly-bounded"


def test_moment_trajectory_bootstrap_scaling():
    rng = np.random.default_rng(11)
    base = rng.normal(size=1600)
    r1 = _synthetic_set(base[:400], base[:400], R=400)
    r2 = _synthetic_set(base, base, R=1600)
    se1 = moment_trajectory(r1, orders=(2.0,))[0].u_se[0]
    se2 = moment_trajectory(r2, orders=(2.0,))[0].u_se[0]
    assert se1 / se2 == pytest.approx(2.0, rel=0.2)


def test_moment_trajectory_rejects_large_orders():
    rs = _synthetic_set(np.zeros(100), np.zeros(100))
    with pytest.raises(InvalidInputError):
        moment_trajectory(rs, orders=(10.0,))


def test_moment_trajectory_rejects_nonpositive_orders():
    # E|u|^q is infinite at an exact zero for q < 0; the config check and an
    # explicit orders argument share one rule
    rs = _synthetic_set(np.zeros(100), np.zeros(100))
    for orders in ((-1.0, 2.0), (0.0,)):
        with pytest.raises(InvalidInputError):
            moment_trajectory(rs, orders=orders)


def test_compare_to_limit_sparse_normal_unit_case():
    cfg = _cfg(gamma=0.5, c=1.0, e=0.5, n_grid=(1600,), R=200)
    rs = run_replications(cfg)
    law = limit_law(0.5, cfg.penalty.schedule, 1.0, rs.C0, cfg.truth.theta, 1)
    rep = compare_to_limit(rs, law)
    entry = rep["per_n"][1600]
    assert entry["limit_mean"][0] == pytest.approx(-0.25)
    assert entry["mean_gap_in_se"][0] <= 4.0
    assert entry["cov_rel_gap"] <= 0.3


def test_compare_to_limit_sparse_normal_unbiased_when_lambda0_zero():
    cfg = _cfg(gamma=0.5, c=1.0, e=0.3, n_grid=(6400,), R=400, seed=2)
    rs = run_replications(cfg)
    law = limit_law(0.5, cfg.penalty.schedule, 1.0, rs.C0, cfg.truth.theta, 1)
    assert law.regime.lambda0 == 0.0
    entry = compare_to_limit(rs, law)["per_n"][6400]
    assert entry["limit_mean"][0] == 0.0
    assert entry["mean_gap_in_se"][0] <= 3.0


def test_run_replications_reports_generation_failure_with_config():
    cfg = _cfg(n_grid=(50,), R=100)
    broken = MCConfig(
        design=DesignSpec(kind="explicit-matrix", p=2,
                          matrix=tuple((1.0, 0.0) for _ in range(10))),  # 10 rows, n=50
        noise=cfg.noise, truth=cfg.truth, penalty=cfg.penalty,
        n_grid=(50,), replications=100, master_seed=1, box=cfg.box)
    with pytest.raises(InvalidInputError, match="n_grid"):
        run_replications(broken)


def test_compare_to_limit_standard_self_comparison():
    cfg = _cfg(family="none", p0=0, rho0=(1.0,), n_grid=(100,), R=100)
    rs = run_replications(cfg)
    law = limit_law(2.0, cfg.penalty.schedule, 1.0, rs.C0, cfg.truth.theta, 0)
    scaled = np.hstack([rs.u_hat(100), rs.v_hat(100)])
    rep = compare_to_limit(rs, law, limit_samples=scaled)
    assert rep["per_n"][100]["ks_per_margin"][0] == 0.0


def test_compare_to_limit_sparse_slow_drift():
    cfg = _cfg(gamma=0.5, c=1.0, e=0.6, n_grid=(800,), R=200)
    rs = run_replications(cfg)
    law = limit_law(0.5, cfg.penalty.schedule, 1.0, rs.C0, cfg.truth.theta, 1)
    rep = compare_to_limit(rs, law)
    entry = rep["per_n"][800]
    assert entry["limit_drift"][0] == pytest.approx(-0.25)
    assert abs(entry["mean"][0] - entry["limit_drift"][0]) <= 0.05


def test_compare_to_limit_pseudo_true():
    cfg = _cfg(gamma=0.5, c=0.5, e=1.0, n_grid=(800,), R=100)
    rs = run_replications(cfg)
    law = limit_law(0.5, cfg.penalty.schedule, 1.0, rs.C0, cfg.truth.theta, 1, box=cfg.box)
    rep = compare_to_limit(rs, law)
    entry = rep["per_n"][800]
    assert entry["pseudo_zero_frequency"] >= 0.9
    assert entry["mean_distance"] <= 0.2


def test_compare_to_limit_regime_mismatch_refused():
    cfg = _cfg(gamma=0.5, c=1.0, e=0.6, n_grid=(100,), R=100)  # sparse-slow campaign
    rs = run_replications(cfg)
    law = limit_law(0.5, TuningSchedule(1.0, 0.5), 1.0, rs.C0, cfg.truth.theta, 1)
    with pytest.raises(InvalidInputError):
        compare_to_limit(rs, law)


def test_warning_on_boundary_contact():
    truth = TrueParameter(p0=0, rho0=(1.0,))
    cfg = MCConfig(
        design=DesignSpec(kind="standardized-orthonormal", p=1),
        noise=NoiseSpec(family="gaussian", sigma=0.0),
        truth=truth,
        penalty=zero_penalty(),
        n_grid=(50,),
        replications=100,
        master_seed=1,
        box=Box(lo=(-0.5,), hi=(0.5,)),  # excludes the truth rho0 = 1
    )
    rs = run_replications(cfg)
    assert any("boundary" in w for w in rs.warnings)
