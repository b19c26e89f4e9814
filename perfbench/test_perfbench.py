"""The benchmark's own tests.

    python3 -m pytest perfbench -q

The smoke tests run every workload at tiny scale through run.py and check
that each metric in BENCHMARK.json is emitted with its unit. The oracle tests
feed deliberately perturbed estimates to each correctness check and expect
them counted as failed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import oracles  # noqa: E402
import run  # noqa: E402
from workloads import LIMIT, SPARSE, WIDE, WORKLOADS  # noqa: E402

from bridgelab import cli  # noqa: E402
from bridgelab.asymptotics import limit_law, sample_limit_argmin  # noqa: E402
from bridgelab.config import parse_config  # noqa: E402
from bridgelab.contrast import Contrast  # noqa: E402
from bridgelab.model import Dataset, generate_design, simulate_responses  # noqa: E402
from bridgelab.montecarlo import design_seed, replication_seed  # noqa: E402
from bridgelab.solver import minimize  # noqa: E402
from bridgelab.util import derive_seed  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_emits_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr[-2000:]
    assert result["attempted"] >= 1
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in section} == {
        name: v["unit"] for name, v in result["metrics"].items()}
    values = {name: v["value"] for name, v in result["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in values.values()), values
    elif WORKLOADS[workload].command == "mc":
        assert values["solver.fits"] == WORKLOADS[workload].ops_per_command(smoke=True)
        assert values["penalty.prox_calls"] > 0 and values["montecarlo.replicate_s"] > 0
        assert values["asymptotics.draws"] == 0 and values["penalty.power_prox_calls"] == 0
    else:
        assert values["asymptotics.draws"] == LIMIT.ops_per_command(smoke=True)
        assert values["penalty.power_prox_calls"] > 0 and values["solver.fits"] == 0
    if trace:
        assert values["import.bridgelab_s"] >= values["import.scipy_s"] > 0


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(tmp_path, "--workload", "sparse-campaign", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# ---------------------------------------------------------------------------
# oracle checks on perturbed estimates
# ---------------------------------------------------------------------------


def _config(tmp_path, workload, seed=7):
    path = workload.write_config(tmp_path, seed, smoke=True)
    return path, parse_config(str(path))


def _restate(mc, fits, n, i):
    """Make the reported objective agree with a perturbed estimate."""
    X = generate_design(mc.design, n, design_seed(mc.master_seed, n))
    Y = simulate_responses(X, mc.truth, mc.noise, replication_seed(mc.master_seed, n, i))
    f = fits[n]
    f.objective[i] = oracles._objective(X, Y[None, :], f.theta[i:i + 1],
                                        oracles.penalty_fn(mc.penalty, n))[0]


@pytest.fixture(scope="module")
def sparse_fits(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sparse")
    path, ec = _config(tmp, SPARSE)
    assert cli.main(["mc", "--config", str(path), "--out", str(tmp / "out"), "--threads", "1"]) == 0
    return ec.mc, tmp / "out" / "replications.csv"


def _read(sparse_fits):
    mc, csv_path = sparse_fits
    return mc, oracles.read_replications(str(csv_path), mc.truth.p)


def test_sparse_oracle_passes_the_real_fits(sparse_fits):
    mc, fits = _read(sparse_fits)
    assert oracles.check_mc(mc, fits, separable=True) == []


@pytest.mark.parametrize("move", ["nonzero", "zero", "unconverged"])
def test_sparse_oracle_flags_a_perturbed_fit(sparse_fits, move):
    mc, fits = _read(sparse_fits)
    n = 200
    f = fits[n]
    zero_rows = np.flatnonzero(f.theta[:, 0] == 0.0)
    i = int(zero_rows[0])
    if move == "nonzero":
        f.theta[i, 1] += 1e-3
    elif move == "zero":
        f.theta[i, 0] = 1e-3
    else:
        f.converged[i] = False
    _restate(mc, fits, n, i)
    bad = oracles.check_mc(mc, fits, separable=True)
    assert [(b[0], b[1]) for b in bad] == [(n, i)], bad
    assert ("not converged" if move == "unconverged" else "oracle lower") in bad[0][2]


def test_reported_objective_must_match_the_estimate(sparse_fits):
    mc, fits = _read(sparse_fits)
    fits[50].objective[3] *= 1.0 + 1e-6
    assert [(b[0], b[1]) for b in oracles.check_mc(mc, fits, separable=True)] == [(50, 3)]


def test_moved_zero_pattern_fails_unless_the_objective_dropped(sparse_fits):
    mc, fits = _read(sparse_fits)
    f = fits[50]
    reference = {(50, int(r)): (oracles.zero_pattern(f.theta[i]), float(f.objective[i]))
                 for i, r in enumerate(f.rep)}
    pattern, obj = reference[(50, 4)]
    reference[(50, 4)] = (pattern ^ 1, obj)           # same objective, other pattern
    reference[(50, 5)] = (reference[(50, 5)][0] ^ 1, float(f.objective[5]) + 1.0)
    bad = oracles.check_mc(mc, fits, separable=True, reference=reference)
    assert [(b[0], b[1]) for b in bad] == [(50, 4)]
    assert "pattern" in bad[0][2]


def test_line_oracle_flags_a_perturbed_wide_fit(tmp_path):
    _, ec = _config(tmp_path, WIDE)
    mc = SimpleNamespace(**{k: getattr(ec.mc, k) for k in
                            ("design", "noise", "truth", "penalty", "box", "master_seed")},
                         n_grid=(200,), replications=3)
    n = 200
    X = generate_design(mc.design, n, design_seed(mc.master_seed, n))
    thetas, objs = [], []
    for rep in range(3):
        Y = simulate_responses(X, mc.truth, mc.noise, replication_seed(mc.master_seed, n, rep))
        res = minimize(Contrast(dataset=Dataset(X=X, Y=Y, truth=mc.truth, n=n),
                                penalty=mc.penalty), mc.box, ec.mc.solver)
        thetas.append(res.theta_hat)
        objs.append(res.objective)
    fits = {n: oracles.Fits(n=n, rep=np.arange(3), theta=np.array(thetas),
                            objective=np.array(objs), converged=np.ones(3, dtype=bool))}
    assert oracles.check_mc(mc, fits, separable=False) == []
    fits[n].theta[1, 6] += 0.05
    _restate(mc, fits, n, 1)
    bad = oracles.check_mc(mc, fits, separable=False)
    assert [(b[0], b[1]) for b in bad] == [(n, 1)] and "coordinate 7" in bad[0][2]


def test_limit_oracle_flags_a_perturbed_draw(tmp_path):
    _, ec = _config(tmp_path, LIMIT)
    mc = ec.mc
    law = limit_law(mc.penalty.gamma, mc.penalty.schedule, mc.noise.sigma ** 2,
                    np.eye(mc.truth.p), mc.truth.theta, mc.truth.p0, box=mc.box)
    samples = sample_limit_argmin(law, 300, seed=derive_seed(mc.master_seed, 777))
    payload = {"c0_source": "standardized-identity",
               "argmin_samples": oracles.limit_summary(samples)}
    assert oracles.check_limit(ec, payload, samples) == (True, [])
    moved = samples.copy()
    moved[17, 1] += 0.05
    summary_ok, bad = oracles.check_limit(ec, payload, moved)
    assert not summary_ok and bad == [17]


def test_threads_mismatch_counts_as_a_failed_command(tmp_path):
    b = run.Bench(SPARSE, 7, smoke=True, work=tmp_path)
    b.account(True, {"summary.json": b"a"}, "fresh command")
    b.account(True, {"summary.json": b"b"}, "--threads 2", ops=0)
    assert (b.attempted, b.failed, b.matching) == (1 + b.ops + 1, 1, 1)


def test_compare_refuses_records_from_another_host(tmp_path):
    import compare

    rec = {"workload": "wide-scad", "trace": 0, "seconds": 15, "smoke": False,
           "scale": {"replications": 100}, "host": {"nproc": 2, "cpu_model": "a"},
           "versions": {"python": "3.11.7"}, "failed": 0, "metrics": {"wall_s": 1.0}}
    paths = []
    for i, host in enumerate(("a", "a", "b")):
        path = tmp_path / f"r{i}.json"
        path.write_text(json.dumps({**rec, "host": {"nproc": 2, "cpu_model": host}}))
        paths.append(str(path))
    assert compare.main(paths[:1] + ["--vs", paths[1]]) == 0
    assert compare.main(paths[:1] + ["--vs", paths[2]]) == 2
