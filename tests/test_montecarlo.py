import functools
import math
import os
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from bridgelab.errors import InvalidInputError, InvalidSpecError
from bridgelab import montecarlo
from bridgelab.model import (NOISE_FAMILIES, DesignSpec, NoiseSpec, TrueParameter, generate_design, gram,
                             simulate_responses)
from bridgelab.montecarlo import (
    C0_SOURCES,
    INFORMATIVE_COUNT,
    MCConfig,
    ReplicationSet,
    compare_to_limit,
    config_law,
    limit_c0,
    moment_trajectory,
    order_label,
    pldi_probe,
    replication_seed,
    run_replications,
    sparsity_curve,
    survival_curve,
    tail_curve,
)
from bridgelab.penalty import PenaltySpec, TuningSchedule, prox_array, scalar_prox_interval
from bridgelab.solver import Box
from bridgelab.util import derive_seed, derived_seeds, seeded_generators
from conftest import NO_PENALTY, fit_tail_slope


def _cfg(family="bridge", gamma=0.5, c=1.0, e=0.6, sigma=1.0, p0=1, rho0=(1.0,),
         n_grid=(50, 100), R=100, seed=99, **kw):
    truth = TrueParameter(p0=p0, rho0=rho0)
    if family == "none":
        pen = NO_PENALTY
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


def _synthetic_set(u_values, v_values, n_grid=(100,), R=None, **kw):
    R = R if R is not None else len(u_values)
    cfg = _cfg(n_grid=n_grid, R=R, **kw)
    # theta = (u / sqrt(n), rho0 + v / sqrt(n)): u_hat(n), v_hat(n) give back u, v up to rounding
    theta = {n: np.column_stack([np.asarray(u_values[:R]) / math.sqrt(n),
                                 1.0 + np.asarray(v_values[:R]) / math.sqrt(n)])
             for n in n_grid}
    return ReplicationSet(config=cfg, seeds={n: np.arange(R, dtype=np.uint64) for n in n_grid},
                          theta_hat=theta, objective={n: np.zeros(R) for n in n_grid},
                          converged={n: np.ones(R, dtype=bool) for n in n_grid})


def test_survival_curve_and_pareto_slope():
    rng = np.random.default_rng(7)
    R = 100_000
    values = (1.0 - rng.uniform(size=R)) ** (-1.0 / 3.0)  # P(V >= r) = r^-3
    r_grid = np.geomspace(1.0, 8.0, 12)
    p_hat = survival_curve(values, r_grid)
    assert np.all(np.diff(p_hat) <= 0.0)
    assert np.all((p_hat >= 0.0) & (p_hat <= 1.0))
    slope, note = fit_tail_slope(r_grid, p_hat, cutoff=10.0 / R)
    assert note == ""
    assert slope == pytest.approx(-3.0, abs=0.2)


def test_tail_curve_all_mass_at_zero():
    rs = _synthetic_set(np.zeros(100), np.zeros(100))
    cfg = rs.config
    p_hat = tail_curve(rs)
    assert p_hat.shape == (len(cfg.n_grid), len(cfg.r_grid))
    assert np.all(p_hat == 0.0)
    cutoff = INFORMATIVE_COUNT / cfg.replications
    assert fit_tail_slope(cfg.r_grid, p_hat[0], cutoff) == (None, "all mass at 0")
    probe = pldi_probe(cfg, p_hat)
    assert list(probe) == [order_label(L) for L in cfg.tail_orders]
    for entry in probe.values():
        assert entry["verdict"] == "plausibly-bounded"
        assert entry["max"] == 0.0


def test_tail_curve_real_run_monotone():
    cfg = _cfg(n_grid=(50, 100), R=100)
    rs = run_replications(cfg)
    p_hat = tail_curve(rs)
    for n, row in zip(cfg.n_grid, p_hat):
        assert np.all(np.diff(row) <= 0.0)
        assert np.all((row >= 0.0) & (row <= 1.0))
        assert_array_equal(row, np.mean(rs.u_norms(n)[:, None] >= np.asarray(cfg.r_grid), axis=0))


def test_sparsity_curve_unpenalized_near_zero():
    cfg = _cfg(family="none", n_grid=(50,), R=100)
    rs = run_replications(cfg)
    sel = sparsity_curve(rs)["50"]
    assert sel["frequency"] == 0.0  # continuous noise: exact zeros have measure zero
    assert sel["se"] == 0.0


def test_sparsity_curve_noiseless_sparse_regime():
    cfg = _cfg(sigma=0.0, n_grid=(50,), R=100)
    rs = run_replications(cfg)
    sel = sparsity_curve(rs)["50"]
    assert sel["frequency"] == 1.0


def test_sparsity_curve_se_formula():
    cfg = _cfg(n_grid=(50, 100), R=100)
    rs = run_replications(cfg)
    sel = sparsity_curve(rs)
    assert list(sel) == ["50", "100"]
    for entry in sel.values():
        f, s = entry["frequency"], entry["se"]
        assert 0.0 <= f <= 1.0
        assert s == pytest.approx(math.sqrt(f * (1.0 - f) / 100), abs=1e-15)


def test_sparsity_curve_needs_zero_block():
    cfg = _cfg(p0=0, n_grid=(50,), R=100)
    rs = run_replications(cfg)
    assert sparsity_curve(rs) == {"note": "no zero block in the truth; selection frequencies undefined"}


def test_moment_trajectory_zero_samples():
    rs = _synthetic_set(np.zeros(100), np.zeros(100), moment_orders=(2.0,))
    traj = moment_trajectory(rs)["2"]
    assert list(traj) == ["n_grid", "u_moment", "u_se", "u_verdict", "v_moment", "v_se", "v_verdict"]
    assert_array_equal(traj["u_moment"], [0.0])
    assert traj["u_verdict"] == "plausibly-bounded"


def test_moment_trajectory_plug_in_se():
    # the SE of a mean of R values is s / sqrt(R), the rule compare_to_limit uses
    rng = np.random.default_rng(11)
    rs = _synthetic_set(rng.normal(size=400), rng.standard_t(5, size=400), moment_orders=(2.0,))
    traj = moment_trajectory(rs)["2"]
    u, v = rs.u_norms(100) ** 2, rs.v_norms(100) ** 2
    assert traj["u_se"][0] == np.std(u, ddof=1) / 20.0
    assert traj["v_se"][0] == np.std(v, ddof=1) / 20.0


@pytest.mark.parametrize("kind, source", [
    ("standardized-orthonormal", "standardized-identity"),
    ("bounded-random-frozen", "uniform-second-moment"),
    ("explicit-matrix", "empirical-largest-n"),
])
def test_limit_c0_reads_the_design_spec_alone(monkeypatch, kind, source):
    matrix = tuple((float(i % 3), float(i % 2) - 0.5) for i in range(50))
    cfg = replace(_cfg(n_grid=(50,)), design=DesignSpec(kind=kind, p=2, bound=3.0, matrix=matrix))
    monkeypatch.setattr(montecarlo, "generate_design", None)  # building a design would raise TypeError
    C0 = limit_c0(cfg)
    assert C0_SOURCES[kind] == source
    expected = {"standardized-orthonormal": np.eye(2), "bounded-random-frozen": 1.5 * np.eye(2),
                "explicit-matrix": np.asarray(matrix).T @ np.asarray(matrix) / 50}[kind]
    assert_allclose(C0, expected, rtol=1e-15, atol=0)


@pytest.mark.parametrize("tilt", [0.0, 1e-9], ids=["collinear", "nearly-collinear"])
def test_limit_c0_refuses_a_gram_matrix_of_rank_below_p(tilt):
    # columns (z, 2z + tilt r): at tilt 1e-9, X has rank 2 at numpy's cut, but X'X/n is singular to
    # working precision (condition near 1e19), so the argmin sampler's Cholesky factor of C0 can fail
    z, r = np.random.default_rng(7).standard_normal((2, 50))
    X = np.column_stack([z, 2.0 * z + tilt * r])
    assert np.linalg.matrix_rank(X) == (1 if tilt == 0.0 else 2)
    matrix = tuple(map(tuple, X.tolist()))
    cfg = replace(_cfg(n_grid=(50,)), design=DesignSpec(kind="explicit-matrix", p=2, matrix=matrix))
    with pytest.raises(InvalidInputError, match=r"^\[model\] design_file: .* of rank below p = 2, "):
        limit_c0(cfg)


def test_limit_c0_of_bounded_random_design_is_the_row_second_moment():
    # entries iid U(-h, h) with h^2 = bound^2 / p: E x_j^2 = h^2/3, Var x_j^2 = 4h^4/45 and
    # Var x_j x_k = h^4/9 for j != k, so one seeded n = 10^5 Gram matrix lies within 5 SE per entry
    p, bound, n = 3, 2.0, 100_000
    cfg = replace(_cfg(rho0=(1.0, -1.0), n_grid=(50, 200)),
                  design=DesignSpec(kind="bounded-random-frozen", p=p, bound=bound))
    C0 = limit_c0(cfg)
    C_n = gram(generate_design(cfg.design, n, seed=2025), (1, 2)).C_n
    h4 = (bound * bound / p) ** 2
    se = np.sqrt(np.where(np.eye(p, dtype=bool), 4.0 * h4 / 45.0, h4 / 9.0) / n)
    assert np.all(np.abs(C_n - C0) <= 5.0 * se)


def test_compare_to_limit_sparse_normal_unit_case():
    cfg = _cfg(gamma=0.5, c=1.0, e=0.5, n_grid=(1600,), R=200)
    rs = run_replications(cfg)
    rep = compare_to_limit(rs)
    entry = rep["per_n"][1600]
    assert entry["limit_mean"][0] == pytest.approx(-0.25)
    assert entry["mean_gap_in_se"][0] <= 4.0
    assert entry["cov_rel_gap"] <= 0.3


def test_compare_to_limit_sparse_normal_unbiased_when_lambda0_zero():
    cfg = _cfg(gamma=0.5, c=1.0, e=0.3, n_grid=(6400,), R=400, seed=2)
    rs = run_replications(cfg)
    assert config_law(cfg).regime["lambda0"] == 0.0
    entry = compare_to_limit(rs)["per_n"][6400]
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


def test_compare_to_limit_standard_self_comparison(monkeypatch):
    # argmin draws equal to the scaled estimates themselves: every KS distance is 0
    cfg = _cfg(family="none", p0=0, rho0=(1.0,), n_grid=(100,), R=100)
    rs = run_replications(cfg)
    scaled = np.hstack([rs.u_hat(100), rs.v_hat(100)])
    monkeypatch.setattr(montecarlo, "sample_limit_argmin", lambda law, R, seed: scaled[:R])
    rep = compare_to_limit(rs)
    assert rep["per_n"][100]["ks_per_margin"][0] == 0.0


def _ks_oracle(a, b) -> float:
    """sup over the sample points of |F_a - F_b| in exact fractions, as the float nearest k / lcm."""
    lcm = math.lcm(len(a), len(b))
    k = max(abs(sum(x <= t for x in a) * (lcm // len(a)) - sum(y <= t for y in b) * (lcm // len(b)))
            for t in [*a, *b])
    return float(Fraction(k, lcm))


def _ks_case(name):
    rng = np.random.default_rng(20251019)
    if name == "ties":
        return np.round(rng.standard_normal(150), 1), np.round(rng.standard_normal(150), 1)
    if name == "exact-zeros":  # argmin draws put mass on 0.0 (and -0.0), as limit draws do
        a, b = rng.standard_normal(120), rng.standard_normal(200)
        a[rng.random(120) < 0.4], b[rng.random(200) < 0.3] = 0.0, -0.0
        return a, b
    if name == "unequal-sizes":
        return rng.standard_normal(77), 0.3 + rng.standard_normal(241)
    if name == "identical":
        a = np.round(rng.standard_normal(90), 1)
        return a, rng.permutation(a)
    return rng.uniform(0.0, 1.0, 40), rng.uniform(1.0, 2.0, 60)  # disjoint


@pytest.mark.parametrize("name, known", [("ties", None), ("exact-zeros", None), ("unequal-sizes", None),
                                         ("identical", 0.0), ("disjoint", 1.0)])
def test_ks_distance_matches_the_exact_fraction(name, known):
    a, b = _ks_case(name)
    d = montecarlo._ks_distance(a, b)
    assert d == _ks_oracle(a.tolist(), b.tolist())
    assert known is None or d == known


def test_ks_distance_above_10000_points_is_scipys_unrounded_statistic():
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(7)
    a, b = rng.standard_normal(12000), np.round(rng.standard_normal(10001), 2)
    a[:3000] = 0.0
    assert montecarlo._ks_distance(a, b) == float(stats.ks_2samp(a, b).statistic)


def test_unpenalized_campaign_meets_the_law_of_its_config():
    # a none spec built with the config default schedule still has lambda_n = 0, so its law
    # is N(0, sigma^2 C0^-1) = N(0, I_2), E|u|^2 = 2; 0.4 is 4 standard errors at R = 400
    pen = PenaltySpec(family="none", schedule=TuningSchedule(1.0, 0.5))
    cfg = replace(_cfg(family="none", n_grid=(200,), R=400), penalty=pen)
    entry = compare_to_limit(run_replications(cfg))["per_n"][200]
    assert abs(entry["limit_moment2"] - 2.0) <= 0.4


def _binomial_central_interval(N: int, q: float, alpha: float) -> tuple[int, int]:
    """[lo, hi] with P(X < lo) <= alpha/2 and P(X > hi) <= alpha/2 for X ~ Binomial(N, q)."""
    if q in (0.0, 1.0):  # a degenerate binomial: X = N q surely
        return int(N * q), int(N * q)
    logs = [math.lgamma(N + 1) - math.lgamma(k + 1) - math.lgamma(N - k + 1)
            + k * math.log(q) + (N - k) * math.log1p(-q) for k in range(N + 1)]
    cdf = np.cumsum(np.exp(logs))
    return int(np.searchsorted(cdf, alpha / 2, side="right")), int(np.searchsorted(cdf, 1 - alpha / 2))


def _prox_threshold(pen, n: int, size: float = 0.0) -> tuple[float, float]:
    """(lo, hi) within 1e-13 with |prox(lo)| <= size < |prox(hi)| for the curvature-n prox over
    the box +-10 (size 0: prox(lo) = 0 != prox(hi)). |prox(b)| does not decrease in b >= 0."""
    lo, hi = 0.0, 10.0
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if abs(scalar_prox_interval(pen, n, n, mid, -10.0, 10.0)) <= size else (lo, mid)
    return lo, hi


@functools.cache
def _pooled_campaigns(family: str, n_grid: tuple[int, ...], R: int, seeds: range) -> list[ReplicationSet]:
    """The acceptance sparse campaign (bridge gamma = 0.5, lambda_n = n^0.6), or its unpenalized
    twin (family none), at each seed."""
    return [run_replications(_cfg(family=family, n_grid=n_grid, R=R, seed=seed)) for seed in seeds]


@pytest.mark.parametrize("pen, hit_rates", [
    # the acceptance sparse config: bridge gamma = 0.5, lambda_n = n^0.6
    (_cfg().penalty, (0.981434, 0.998859, 0.999993)),
    # SCAD's slope at 0 is lambda_n = n^-0.25, so tau_n = lambda_n / 2
    (PenaltySpec(family="scad", schedule=TuningSchedule(1.0, -0.25), a=3.7), (0.816341, 0.939933, 0.992166)),
    # SELO with lambda_n = 1/n and its tau = 0.01 n^-0.5: the prox threshold is a constant over sqrt(n)
    (PenaltySpec(family="selo", schedule=TuningSchedule(1.0, -1.0), tau=TuningSchedule(0.01, -0.5)),
     (0.84164,) * 3),
    # none: z_hat = b, so the threshold is 0 and no fit hits zero
    (NO_PENALTY, (0.0,) * 3),
], ids=["bridge", "scad", "selo", "none"])
def test_selection_rate_matches_the_exact_orthonormal_rate(pen, hit_rates):
    # On an orthonormal Gaussian design X'X = nI, so z_hat is the prox (c = n) of b ~ N(0, 1/n)
    # and P(z_hat = 0) = P(|b| <= tau_n) = erf(tau_n sqrt(n/2)) exactly, tau_n the prox threshold.
    # Pooled over 8 seeds at R = 400, each miss count lies in its central 1 - 1e-6 interval.
    n_grid, R, seeds = (50, 200, 800), 400, range(1, 9)
    misses = dict.fromkeys(n_grid, 0)
    for seed in seeds:
        rs = run_replications(replace(_cfg(n_grid=n_grid, R=R, seed=seed), penalty=pen))
        for n in n_grid:
            misses[n] += int(np.count_nonzero(~rs.zero_flags(n)))
    for n, hit_rate in zip(n_grid, hit_rates):
        miss_rate = math.erfc(_prox_threshold(pen, n)[0] * math.sqrt(n / 2.0))
        assert 1.0 - miss_rate == pytest.approx(hit_rate, abs=1e-6)
        low, high = _binomial_central_interval(R * len(seeds), miss_rate, 1e-6)
        assert low <= misses[n] <= high, (n, misses[n], (low, high), R * len(seeds) * miss_rate)



def _exact_orthonormal_moments(pen, n: int, theta0: float, orders) -> np.ndarray:
    """E|sqrt(n) (prox(b) - theta0)|^q for b ~ N(theta0, 1/n), each q in orders, by the
    trapezoid rule on b within 12 SDs of theta0, split where the prox jumps (at +-tau_n)."""
    lo, hi = _prox_threshold(pen, n)
    s = math.sqrt(n)
    a0, a1 = theta0 - 12.0 / s, theta0 + 12.0 / s
    # each jump as (last b before it, first b after it); the pieces are the gaps between jumps
    jumps = [x for cut in ((-hi, -lo), (lo, hi)) if a0 < cut[0] and cut[1] < a1 for x in cut]
    bounds = [a0, *jumps, a1]
    total = np.zeros(len(orders))
    for a, b in zip(bounds[::2], bounds[1::2]):
        bs = np.linspace(a, b, 2001)
        dist = np.abs(s * (prox_array(pen, n, float(n), bs, -10.0, 10.0) - theta0))
        density = s / math.sqrt(2.0 * math.pi) * np.exp(-0.5 * n * (bs - theta0) ** 2)
        for i, q in enumerate(orders):
            f = dist ** q * density
            total[i] += float(np.sum((f[1:] + f[:-1]) * np.diff(bs))) / 2.0
    return total


@pytest.mark.parametrize("family, exact_u, rtol_u, exact_v", [
    ("bridge", [[0.075621, 0.359017], [0.0072703, 0.049587]], 1e-4,
     [[1.209913, 4.406006], [1.219373, 4.402311]]),
    # none: u and v are N(0, 1), whose E|.|^2, E|.|^4 and E|.|^8 are 1, 3 and 105
    ("none", [[1.0, 3.0, 105.0]] * 2, 1e-6, [[1.0, 3.0, 105.0]] * 2),
], ids=["bridge", "none"])
def test_moments_match_the_exact_orthonormal_moments(family, exact_u, rtol_u, exact_v):
    # As in the selection-rate test, z_hat = prox(b_z) with b_z ~ N(0, 1/n) and rho_hat = prox(b_r)
    # with b_r ~ N(1, 1/n), so E|u|^q and E|v|^q are one-dimensional Gaussian integrals. The means
    # of seeds 1-8 pooled at R = 400 lie within 4.5 exact SEs, the SE taken from E|.|^(2q).
    # Each seed's plug-in v_se lies within a factor of the exact SE: over seeds 1-40 its ratio
    # to the exact SE was 0.75-1.24 at q = 2 and 0.44-2.49 at q = 4 (E|v|^8 = 237 at n = 50).
    n_grid, R, seeds = (50, 200), 400, range(1, 9)
    pen = _cfg(family=family).penalty
    exact = {n: (_exact_orthonormal_moments(pen, n, 0.0, (2.0, 4.0, 8.0)),
                 _exact_orthonormal_moments(pen, n, 1.0, (2.0, 4.0, 8.0))) for n in n_grid}
    width = len(exact_u[0])
    assert_allclose([exact[n][0][:width] for n in n_grid], exact_u, rtol=rtol_u)
    assert_allclose([exact[n][1][:width] for n in n_grid], exact_v, rtol=1e-6)
    trajs = [moment_trajectory(rs) for rs in _pooled_campaigns(family, n_grid, R, seeds)]
    for qi, (q, factor) in enumerate(((2.0, 1.5), (4.0, 3.0))):
        for j, n in enumerate(n_grid):
            for side, moments in zip("uv", exact[n]):
                mean, second = moments[qi], moments[qi + 1]  # E|.|^q and E|.|^(2q)
                sd = math.sqrt(second - mean * mean)
                pooled = np.mean([t[order_label(q)][side + "_moment"][j] for t in trajs])
                z = (pooled - mean) / (sd / math.sqrt(R * len(seeds)))
                assert abs(z) <= 4.5, (q, n, side, pooled, mean, z)
                if side == "v":
                    ratios = [t[order_label(q)]["v_se"][j] / (sd / math.sqrt(R)) for t in trajs]
                    assert 1.0 / factor <= min(ratios) and max(ratios) <= factor, (q, n, ratios)



@pytest.mark.parametrize("family", ["bridge", "none"])
def test_tail_curve_matches_the_exact_orthonormal_survival(family):
    # As in the selection-rate test, z_hat = prox(b) with b ~ N(0, 1/n). |prox(b)| does not
    # decrease in |b|, so P(|sqrt(n) z_hat| >= r) = P(|b| >= b_r) = erfc(b_r sqrt(n/2)) exactly,
    # b_r the least b >= 0 with |prox(b)| >= r / sqrt(n). Pooled over seeds 1-8 at R = 400, each
    # tail_curve count lies in its central 1 - 1e-6 binomial interval. For none, u ~ N(0, 1):
    # b_r = r / sqrt(n) and the survival is erfc(r / sqrt(2)).
    n_grid, R, seeds = (50, 200), 400, range(1, 9)
    cfg = _cfg(family=family)
    counts = dict.fromkeys(n_grid, 0)
    for rs in _pooled_campaigns(family, n_grid, R, seeds):
        for n, row in zip(n_grid, tail_curve(rs)):
            counts[n] = counts[n] + np.rint(row * R).astype(int)
    for n in n_grid:
        for r, count in zip(cfg.r_grid, counts[n].tolist()):
            b_r = _prox_threshold(cfg.penalty, n, r / math.sqrt(n))[1]
            survival = math.erfc(b_r * math.sqrt(n / 2.0))
            if family == "none":
                assert survival == pytest.approx(math.erfc(r / math.sqrt(2.0)), abs=1e-9)
            low, high = _binomial_central_interval(R * len(seeds), survival, 1e-6)
            assert low <= count <= high, (n, r, count, (low, high), R * len(seeds) * survival)


def test_compare_to_limit_sparse_slow_drift():
    cfg = _cfg(gamma=0.5, c=1.0, e=0.6, n_grid=(800,), R=200)
    rs = run_replications(cfg)
    rep = compare_to_limit(rs)
    entry = rep["per_n"][800]
    assert entry["limit_drift"][0] == pytest.approx(-0.25)
    assert abs(entry["mean"][0] - entry["limit_drift"][0]) <= 0.05


def test_compare_to_limit_pseudo_true():
    cfg = _cfg(gamma=0.5, c=0.5, e=1.0, n_grid=(800,), R=100)
    rs = run_replications(cfg)
    rep = compare_to_limit(rs)
    entry = rep["per_n"][800]
    assert entry["pseudo_zero_frequency"] >= 0.9
    assert entry["mean_distance"] <= 0.2


def test_warning_on_boundary_contact():
    truth = TrueParameter(p0=0, rho0=(1.0,))
    cfg = MCConfig(
        design=DesignSpec(kind="standardized-orthonormal", p=1),
        noise=NoiseSpec(family="gaussian", sigma=0.0),
        truth=truth,
        penalty=NO_PENALTY,
        n_grid=(50,),
        replications=100,
        master_seed=1,
        box=Box(lo=(-0.5,), hi=(0.5,)),  # excludes the truth rho0 = 1
    )
    rs = run_replications(cfg)
    assert any("boundary" in w for w in rs.warnings)
