"""Acceptance gate: every criterion at its stated tolerance, one line per verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they pass. The heavy sparse campaign is shared by criteria 4, 6, 7.
"""

import math
import time

import numpy as np
import pytest

from bridgelab.asymptotics import limit_law, sample_limit_argmin, sparse_limit_params
from bridgelab.cli import main as cli_main
from bridgelab.contrast import Contrast
from bridgelab.model import DesignSpec, NoiseSpec, TrueParameter
from bridgelab.montecarlo import (
    INFORMATIVE_COUNT,
    MCConfig,
    moment_trajectory,
    pldi_probe,
    run_replications,
    sparsity_curve,
    tail_curve,
)
from bridgelab.penalty import PenaltySpec, TuningSchedule, scalar_prox_interval
from bridgelab.solver import Box, minimize
from conftest import (fit_tail_slope, grid_oracle, local_field, make_dataset, plaq_decompose,
                      prox_grid_oracle, random_penalty, scalar_objective)


def _report(criterion: int, ok: bool, detail: str):
    print(f"[acceptance] criterion {criterion:>2}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _bridge(c, e, gamma):
    return PenaltySpec(family="bridge", schedule=TuningSchedule(c, e), gamma=gamma)


# ---------------------------------------------------------------------------
# shared sparse campaign (criteria 4, 6, 7)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def sparse_campaign():
    cfg = MCConfig(
        design=DesignSpec(kind="standardized-orthonormal", p=2),
        noise=NoiseSpec(family="gaussian", sigma=1.0),
        truth=TrueParameter(p0=1, rho0=(1.0,)),
        penalty=_bridge(1.0, 0.6, 0.5),
        n_grid=(50, 200, 800, 3200),
        replications=2000,
        master_seed=20250809,
        box=Box.cube(2),
        r_grid=(0.25, 0.5, 1.0, 2.0, 4.0, 8.0),
        tail_orders=(2.0, 4.0),
        moment_orders=(2.0, 4.0),
    )
    t0 = time.time()
    rs = run_replications(cfg)
    elapsed = time.time() - t0
    return cfg, rs, elapsed


def test_criterion_01_minimize_matches_grid_oracle():
    t0 = time.time()
    rng = np.random.default_rng(20250809)
    shapes = ((0, 1), (1, 1), (0, 2))
    worst = 0.0
    for trial in range(500):
        p0, p1 = shapes[int(rng.integers(0, len(shapes)))]
        rho0 = tuple(float(rng.uniform(0.5, 2.5) * (1.0 if rng.random() < 0.5 else -1.0))
                     for _ in range(p1))
        truth = TrueParameter(p0=p0, rho0=rho0)
        p = truth.p
        kind = "standardized-orthonormal" if rng.random() < 0.5 else "bounded-random-frozen"
        n = int(rng.integers(p + 3, 51))
        ds = make_dataset(DesignSpec(kind=kind, p=p), truth,
                          NoiseSpec("gaussian", float(rng.uniform(0.3, 1.5))),
                          n, design_seed=int(rng.integers(1, 2**40)),
                          noise_seed=int(rng.integers(1, 2**40)))
        pen = random_penalty(rng)
        c = Contrast(dataset=ds, penalty=pen)
        box = Box.cube(p)
        res = minimize(c, box)
        oracle = grid_oracle(c, box, stages=3, points_per_axis=41)
        gap = res.objective - oracle.objective
        worst = max(worst, gap)
        assert gap <= 1e-8 * (1.0 + abs(oracle.objective)), (
            f"trial {trial}: minimize {res.objective} vs oracle {oracle.objective}")
    elapsed = time.time() - t0
    _report(1, elapsed <= 120.0,
            f"500 instances, worst objective gap {worst:.3e}, {elapsed:.1f}s (limit 120s)")


def test_criterion_02_scalar_prox_vs_1d_oracle():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(10_000):
        pen = random_penalty(rng)
        n = int(rng.integers(1, 500))
        c = float(rng.uniform(0.05, 50.0))
        b = float(rng.uniform(-6.0, 6.0))
        x = scalar_prox_interval(pen, n, c, b, -math.inf, math.inf)
        fx = float(scalar_objective(pen, n, c, b, x))
        _, f_oracle = prox_grid_oracle(pen, n, c, b)
        worst = max(worst, fx - f_oracle)
        assert fx <= f_oracle + 1e-10
    # closed-form soft threshold at gamma = 1
    worst_soft = 0.0
    for _ in range(2000):
        lam_c = float(rng.uniform(0.05, 4.0))
        pen = _bridge(lam_c, 0.0, 1.0)
        c = float(rng.uniform(0.05, 20.0))
        b = float(rng.uniform(-5.0, 5.0))
        x = scalar_prox_interval(pen, 1, c, b, -math.inf, math.inf)
        closed = math.copysign(max(abs(b) - lam_c / (2.0 * c), 0.0), b)
        worst_soft = max(worst_soft, abs(x - closed))
        assert abs(x - closed) <= 1e-12
    _report(2, True, f"1e4 cases, worst prox-vs-oracle gap {worst:.3e}; "
                     f"soft-threshold max error {worst_soft:.3e}")


def test_criterion_03_plaq_identity():
    rng = np.random.default_rng(303)
    worst = 0.0
    for trial in range(100):
        p0 = int(rng.integers(0, 2))
        truth = TrueParameter(p0=p0, rho0=(float(rng.uniform(0.5, 2.0)),))
        p = truth.p
        kind = "bounded-random-frozen" if rng.random() < 0.5 else "standardized-orthonormal"
        ds = make_dataset(DesignSpec(kind=kind, p=p), truth,
                          NoiseSpec("gaussian", float(rng.uniform(0.2, 2.0))),
                          int(rng.integers(p + 5, 80)),
                          design_seed=int(rng.integers(1, 2**40)),
                          noise_seed=int(rng.integers(1, 2**40)))
        pen = random_penalty(rng)
        c = Contrast(dataset=ds, penalty=pen)
        C0 = np.eye(p) * float(rng.uniform(0.5, 2.0))
        parts = plaq_decompose(c, ds.truth.theta, C0)
        u = rng.normal(scale=3.0, size=p)
        mn = local_field(c, ds.truth.theta, u)
        err = abs(mn - parts.reconstruct(u)) / (1.0 + abs(mn))
        worst = max(worst, err)
        assert err <= 1e-9
    _report(3, True, f"100 reconstructions, worst relative residual {worst:.3e}")


def test_criterion_04_sparse_consistency(sparse_campaign):
    cfg, rs, elapsed = sparse_campaign
    sel = sparsity_curve(rs).values()
    freq = np.array([entry["frequency"] for entry in sel])
    se = np.array([entry["se"] for entry in sel])
    monotone_ok = all(
        freq[i + 1] - freq[i] >= -2.0 * math.sqrt(se[i] ** 2 + se[i + 1] ** 2)
        for i in range(len(freq) - 1))
    final_ok = freq[-1] >= 0.9 - 2.0 * se[-1]
    runtime_ok = elapsed <= 600.0
    _report(4, monotone_ok and final_ok and runtime_ok,
            f"frequencies {np.round(freq, 4).tolist()} (SEs {np.round(se, 4).tolist()}), "
            f"campaign {elapsed:.1f}s (limit 600s)")


def test_criterion_05_sparse_normal_limit():
    cfg = MCConfig(
        design=DesignSpec(kind="standardized-orthonormal", p=2),
        noise=NoiseSpec(family="gaussian", sigma=1.0),
        truth=TrueParameter(p0=1, rho0=(1.0,)),
        penalty=_bridge(1.0, 0.5, 0.5),
        n_grid=(3200,),
        replications=2000,
        master_seed=505,
        box=Box.cube(2),
    )
    rs = run_replications(cfg)
    v = rs.v_hat(3200)[:, 0]
    ups, bias, cov = sparse_limit_params(0.5, 1.0, np.eye(1), 1.0, [1.0])
    # lambda0 = 1 here: Upsilon = 0.25 and the limit mean is -0.25 (the
    # criterion's "-0.5" parenthetical belongs to the lambda0 = 2 example)
    assert bias[0] == pytest.approx(-0.25)
    se = v.std(ddof=1) / math.sqrt(v.size)
    mean_ok = abs(v.mean() - bias[0]) <= 3.0 * se
    var_ok = abs(v.var(ddof=1) - cov[0, 0]) <= 0.10 * cov[0, 0]
    _report(5, mean_ok and var_ok,
            f"mean {v.mean():.4f} vs {bias[0]:.4f} (3SE={3 * se:.4f}); "
            f"var {v.var(ddof=1):.4f} vs {cov[0, 0]:.4f} (10%)")


def test_criterion_06_pldi_probe(sparse_campaign):
    cfg, rs, _ = sparse_campaign
    p_hat = tail_curve(rs)
    probe = pldi_probe(cfg, p_hat)
    growth_ok = all(probe[L]["verdict"] == "plausibly-bounded" for L in ("2", "4"))
    slope_800, _ = fit_tail_slope(cfg.r_grid, p_hat[cfg.n_grid.index(800)],
                                  INFORMATIVE_COUNT / cfg.replications)
    slope_ok = slope_800 is None or slope_800 <= -4.0
    detail = {f"L{L}": [round(v, 4) for v in probe[L]["per_n"]] for L in ("2", "4")}
    _report(6, growth_ok and slope_ok,
            f"max r^L p_hat per n {detail}; slope at n=800: "
            f"{'uninformative' if slope_800 is None else round(slope_800, 2)}")


def test_criterion_07_moment_boundedness(sparse_campaign):
    cfg, rs, _ = sparse_campaign
    traj = moment_trajectory(rs)["4"]
    ok = traj["u_verdict"] == "plausibly-bounded"
    _report(7, ok, f"E|sqrt(n) z|^4 trajectory {np.round(traj['u_moment'], 4).tolist()} "
                   f"-> {traj['u_verdict']}")


def test_criterion_08_standard_moment_convergence():
    cfg = MCConfig(
        design=DesignSpec(kind="standardized-orthonormal", p=1),
        noise=NoiseSpec(family="gaussian", sigma=1.0),
        truth=TrueParameter(p0=0, rho0=(1.0,)),
        penalty=_bridge(0.5, 0.5, 1.0),
        n_grid=(3200,),
        replications=2000,
        master_seed=808,
        box=Box.cube(1),
    )
    rs = run_replications(cfg)
    u2 = rs.v_hat(3200)[:, 0] ** 2  # p0=0: |u_n| = |v_hat|
    law = limit_law(1.0, cfg.penalty.schedule, 1.0, np.eye(1), np.array([1.0]), p0=0)
    draws = sample_limit_argmin(law, 100_000, seed=4242)
    lim2 = draws[:, 0] ** 2
    se = math.sqrt(u2.var(ddof=1) / u2.size + lim2.var(ddof=1) / lim2.size)
    gap = abs(u2.mean() - lim2.mean())
    _report(8, gap <= 3.0 * se,
            f"E|u_n|^2 = {u2.mean():.4f} vs E|u_0|^2 = {lim2.mean():.4f} "
            f"(3 combined SE = {3 * se:.4f})")


def test_criterion_09_limit_sampler_covariance():
    law = limit_law(2.0, TuningSchedule(1.0, 0.25), 1.0, np.eye(2),
                    np.array([1.0, 1.0]), p0=0)
    assert law.regime["lambda0"] == 0.0
    draws = sample_limit_argmin(law, 100_000, seed=909)
    cov = np.cov(draws.T)
    rel = np.linalg.norm(cov - np.eye(2)) / np.linalg.norm(np.eye(2))
    _report(9, rel <= 0.05, f"cov relative gap {rel:.4f} vs closed form I (5%)")


def test_criterion_10_penalty_condition_classifications():
    from bridgelab.penalty import check_divergence_condition, check_smooth_conditions

    n_grid = (16, 64, 256, 1024, 4096)
    r_grid = tuple(float(x) for x in np.geomspace(1.0, 1024.0, 21))
    msgs = []
    ok = True
    for gamma in (0.25, 0.5, 0.75):
        rep = check_divergence_condition(_bridge(1.0, 0.35, gamma), n_grid, r_grid, p0=1)
        fit_err = abs(rep["fitted_exponent"] - gamma)
        ok &= rep["verdict"] == "satisfied" and fit_err <= 1e-3
        msgs.append(f"bridge({gamma}): {rep['verdict']}, fit err {fit_err:.1e}")
    scad = PenaltySpec(family="scad", schedule=TuningSchedule(1.0, -0.25), a=3.7)
    selo = PenaltySpec(family="selo", schedule=TuningSchedule(1.0, -0.25),
                       tau=TuningSchedule(1.0, -1.5))
    for name, pen in (("scad", scad), ("selo", selo)):
        div = check_divergence_condition(pen, n_grid, r_grid, p0=1)
        growth, shift = check_smooth_conditions(pen, n_grid, (0.5, 1.0, 2.0),
                                                (0.5, 1.0, 2.0, 4.0), beta=0.25)
        ok &= (div["verdict"] == "not-satisfied" and growth["verdict"] == "satisfied"
               and shift["verdict"] == "satisfied")
        msgs.append(f"{name}: divergence {div['verdict']}, growth {growth['verdict']}, "
                    f"shift {shift['verdict']}")
    _report(10, ok, "; ".join(msgs))


def test_criterion_11_pseudo_true_regime():
    sched = TuningSchedule(0.5, 1.0)
    law = limit_law(0.5, sched, 1.0, np.eye(2), np.array([0.0, 1.0]), p0=1,
                    box=Box.cube(2))
    point_ok = law.params["pseudo_true_point"][0] == 0.0
    cfg = MCConfig(
        design=DesignSpec(kind="standardized-orthonormal", p=2),
        noise=NoiseSpec(family="gaussian", sigma=1.0),
        truth=TrueParameter(p0=1, rho0=(1.0,)),
        penalty=_bridge(0.5, 1.0, 0.5),
        n_grid=(3200,),
        replications=1000,
        master_seed=1111,
        box=Box.cube(2),
    )
    rs = run_replications(cfg)
    hits = np.mean(rs.theta_hat[3200][:, 0] == 0.0)
    _report(11, point_ok and hits >= 0.9,
            f"pseudo-true point {np.round(law.params['pseudo_true_point'], 4).tolist()} "
            f"(z exactly 0: {point_ok}); P(z'=0) = {hits:.3f} at n=3200")


def test_criterion_12_mc_byte_determinism(tmp_path):
    cfg_text = """
[model]
p0 = 1
rho0 = 1.0

[penalty]
family = bridge
gamma = 0.5

[schedule]
c = 1.0
e = 0.6

[mc]
n_grid = 50, 100
replications = 100
seed = 1212
"""
    cfg = tmp_path / "det.cfg"
    cfg.write_text(cfg_text)
    dirs = [str(tmp_path / d) for d in ("run1", "run2", "run8")]
    assert cli_main(["mc", "--config", str(cfg), "--out", dirs[0], "--threads", "1"]) == 0
    assert cli_main(["mc", "--config", str(cfg), "--out", dirs[1], "--threads", "1"]) == 0
    assert cli_main(["mc", "--config", str(cfg), "--out", dirs[2], "--threads", "8"]) == 0
    ok = True
    for name in ("replications.csv", "tail.csv", "summary.json"):
        blobs = [open(f"{d}/{name}", "rb").read() for d in dirs]
        ok &= blobs[0] == blobs[1] == blobs[2]
    _report(12, ok, "replications.csv, tail.csv, summary.json byte-identical "
                    "across two runs and across --threads 1 vs 8")
