import configparser
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bridgelab
from bridgelab.cli import main
from bridgelab.config import _KEYS, config_from_echo, parse_config
from bridgelab.contrast import Contrast
from bridgelab.errors import ConfigError
from bridgelab.model import Dataset, generate_design, simulate_responses
from bridgelab.montecarlo import design_seed, replication_seed
from bridgelab.solver import minimize
from bridgelab.util import format_float

BASE = """
[model]
p0 = 1
rho0 = 1.0
design = standardized-orthonormal
noise = gaussian
sigma = 1.0

[penalty]
family = bridge
gamma = 0.5

[schedule]
c = 1.0
e = 0.6

[mc]
n = 100
n_grid = 50, 100
replications = 100
seed = 424242

[output]
dir = out
"""


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(BASE)
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def test_unknown_key_rejected(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(BASE.replace("gamma = 0.5", "gama = 0.5"))
    code, _, err = _run(capsys, ["estimate", "--config", str(path)])
    assert code == 2
    assert "gama" in err


def test_unknown_section_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text(BASE + "\n[plots]\nkind = fancy\n")
    with pytest.raises(ConfigError, match="plots"):
        parse_config(str(path))


def test_missing_required_fields(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[model]\np0 = 1\n\n[penalty]\nfamily = bridge\ngamma = 0.5\n")
    with pytest.raises(ConfigError, match="rho0"):
        parse_config(str(path))


def test_config_echo_round_trip(cfg_path):
    ec = parse_config(cfg_path)
    again = config_from_echo(ec.raw)
    assert again.mc == ec.mc
    assert again.n_single == ec.n_single


def test_invalid_value_messages_name_the_field(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text(BASE.replace("sigma = 1.0", "sigma = abc"))
    with pytest.raises(ConfigError, match=r"\[model\] sigma"):
        parse_config(str(path))


def _config_with(tmp_path, section, key, text, base=BASE):
    """BASE with `[section] key = text` set (the section added when absent)."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(base)
    if not parser.has_section(section):
        parser.add_section(section)
    parser.set(section, key, text)
    path = tmp_path / "edited.cfg"
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)
    return str(path)


@pytest.mark.parametrize("section, key, text", [
    (section, key, "bogus" if isinstance(reader, tuple) else "1, two")
    for section, keys in _KEYS.items() for key, reader in keys.items() if reader is not str
])
def test_every_malformed_value_names_its_field(tmp_path, capsys, section, key, text):
    # every present value is read, even one that the chosen family ignores (tau_c, tau_e)
    code, out, err = _run(capsys, ["estimate", "--config", _config_with(tmp_path, section, key, text)])
    assert (code, out) == (2, "")
    assert err.startswith(f"config error: [{section}] {key}: ")


@pytest.mark.parametrize("command", ["estimate", "mc", "check", "limit"])
@pytest.mark.parametrize("section, key, text, base", [
    ("model", "bound", "inf", BASE),
    ("model", "sigma", "inf", BASE),
    ("penalty", "gamma", "inf", BASE),
    ("penalty", "a", "inf", BASE.replace("family = bridge", "family = scad").replace("gamma = 0.5", "")),
    ("solver", "tolerance", "inf", BASE),
    ("mc", "tail_orders", "2, inf", BASE),
    ("check", "r_grid", "1, 2, inf", BASE),
])
def test_non_finite_spec_values_are_config_errors(tmp_path, capsys, command, section, key, text, base):
    path = _config_with(tmp_path, section, key, text, base)
    code, out, err = _run(capsys, [command, "--config", path, "--out", str(tmp_path / "o")]
                          if command == "mc" else [command, "--config", path])
    assert (code, out) == (2, "")
    assert err.startswith(f"config error: [{section}] {key} must be finite, got ")


@pytest.mark.parametrize("command", ["estimate", "mc", "check", "limit"])
@pytest.mark.parametrize("edit, message", [
    (("sigma = 1.0", "sigma = 1e300"), "[model] sigma^2 must be finite, got inf"),
    (("design = standardized-orthonormal", "design = bounded-random-frozen\nbound = 1e300"),
     "bound = 1e+300 overflows X'X at n = "),
])
def test_overflowing_spec_values_are_config_errors(tmp_path, capsys, command, edit, message):
    # finite values whose square overflows: sigma^2 in the limit law, X'X in every fit
    path = tmp_path / "big.cfg"
    path.write_text(BASE.replace(*edit))
    code, out, err = _run(capsys, [command, "--config", str(path), "--out", str(tmp_path / "o"),
                                   "--threads", "1"] if command == "mc" else [command, "--config", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("config error: ") and message in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command", ["estimate", "mc"])
def test_overflowing_objective_is_a_config_error(tmp_path, capsys, command):
    # a huge finite truth overflows the residual sum of squares at every start
    path = tmp_path / "big.cfg"
    path.write_text(BASE.replace("rho0 = 1.0", "rho0 = 1e300"))
    code, out, err = _run(capsys, [command, "--config", str(path), "--out", str(tmp_path / "o"),
                                   "--threads", "1"] if command == "mc" else [command, "--config", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("config error: the objective overflows: inf")


def test_cli_import_leaves_out_the_process_pool():
    # multiprocessing is imported only when a campaign runs with --threads > 1
    code = ("import sys, bridgelab.cli; "
            "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(Path(bridgelab.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("command", ["estimate", "mc", "check", "limit"])
@pytest.mark.parametrize("key, text, side", [
    ("box_half", "inf", "box_lo"),
    ("box_lo", "-inf", "box_lo"),
    ("box_hi", "inf", "box_hi"),
    ("box_lo", "nan", "box_lo"),
])
def test_unbounded_box_is_a_config_error(tmp_path, capsys, command, key, text, side):
    # the estimator assumes a compact box; box_half sets both sides
    path = _config_with(tmp_path, "solver", key, text)
    code, out, err = _run(capsys, [command, "--config", path, "--out", str(tmp_path / "o")]
                          if command == "mc" else [command, "--config", path])
    assert (code, out) == (2, "")
    assert err.startswith(f"config error: [solver] {side} must be finite, got ")


@pytest.mark.parametrize("key, text", [("n_grid", "4096, 1024, 256, 64, 16"), ("delta", "0")])
def test_check_grid_settings_checked_at_parse_time(tmp_path, capsys, key, text):
    code, out, err = _run(capsys, ["check", "--config", _config_with(tmp_path, "check", key, text)])
    assert (code, out) == (2, "")
    assert err.startswith(f"config error: [check] {key}: ")


def _readme() -> str:
    return (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_readme_sample_config_parses(tmp_path):
    path = tmp_path / "sample.cfg"
    path.write_text(_readme().split("```ini\n", 1)[1].split("```", 1)[0])
    ec = parse_config(str(path))
    assert (ec.mc.truth.p, ec.mc.penalty.gamma, ec.n_single, ec.mc.replications) == (2, 0.5, 100, 2000)


def test_readme_key_reference_lists_every_key():
    rows = [line.split("|") for line in _readme().splitlines() if line.startswith("| `[")]
    listed = {(cells[1].strip(" `[]"), cells[2].strip(" `")) for cells in rows}
    assert listed == {(section, key) for section, keys in _KEYS.items() for key in keys}


def test_unrealizable_spec_is_config_error_not_traceback(tmp_path, capsys):
    # p = 2 cannot be fitted from n = 1 rows, so generate_design refuses the spec
    path = tmp_path / "bad.cfg"
    path.write_text(BASE.replace("n = 100", "n = 1"))
    code, out, err = _run(capsys, ["estimate", "--config", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("config error: ")
    assert "n=1 < p=2" in err


@pytest.mark.parametrize("command", ["estimate", "mc", "limit"])
def test_n_below_p_is_rejected_at_parse_time(tmp_path, capsys, command):
    path = tmp_path / "bad.cfg"
    path.write_text(BASE.replace("n = 100", "n = 1"))
    code, out, err = _run(capsys, [command, "--config", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("config error: [mc] n: n=1 < p=2")


def test_n_grid_below_p_names_the_field(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(BASE.replace("n_grid = 50, 100", "n_grid = 1, 100"))
    code, _, err = _run(capsys, ["mc", "--config", str(path)])
    assert code == 2
    assert err.startswith("config error: [mc] n_grid: ")


@pytest.mark.parametrize("orders", ["2, 10", "-1, 2"])
def test_bad_moment_orders_rejected_before_any_fit(tmp_path, capsys, monkeypatch, orders):
    # orders must lie in (0, 8]; the config check runs before the campaign
    def no_campaign(*args, **kwargs):
        raise AssertionError("the campaign ran")

    monkeypatch.setattr("bridgelab.cli.run_replications", no_campaign)
    path = tmp_path / "bad.cfg"
    path.write_text(BASE.replace("seed = 424242", f"seed = 424242\nmoment_orders = {orders}"))
    out_dir = tmp_path / "o"
    code, out, err = _run(capsys, ["mc", "--config", str(path), "--out", str(out_dir)])
    assert (code, out) == (2, "")
    assert err.startswith("config error: [mc] moment_orders: ")
    assert not out_dir.exists()


def _explicit_matrix_config(tmp_path, rows: int, n: int, n_grid: str) -> str:
    import numpy as np

    design = tmp_path / "design.csv"
    X = np.random.default_rng(3).uniform(-1.0, 1.0, size=(rows, 2))
    design.write_text("\n".join(f"{float(a)!r},{float(b)!r}" for a, b in X) + "\n")
    text = BASE.replace("design = standardized-orthonormal",
                        f"design = explicit-matrix\ndesign_file = {design}")
    text = text.replace("n = 100", f"n = {n}").replace("n_grid = 50, 100", f"n_grid = {n_grid}")
    path = tmp_path / "explicit.cfg"
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("command, n, n_grid, field, bad_n", [
    ("estimate", 50, "100", "[mc] n", 50),
    ("mc", 100, "100, 200", "[mc] n_grid", 200),
    ("limit", 100, "50, 150", "[mc] n_grid", 150),
])
def test_explicit_matrix_rows_checked_at_parse_time(tmp_path, capsys, command, n, n_grid,
                                                    field, bad_n):
    path = _explicit_matrix_config(tmp_path, 100, n, n_grid)
    code, out, err = _run(capsys, [command, "--config", path, "--out", str(tmp_path / "o")]
                          if command == "mc" else [command, "--config", path])
    assert (code, out) == (2, "")
    assert err.startswith("config error: [model] design_file: holds 100 rows")
    assert f"{field} requests n={bad_n}" in err


def test_unparseable_design_file_is_config_error(tmp_path, capsys):
    path = _explicit_matrix_config(tmp_path, 100, 100, "100")
    (tmp_path / "design.csv").write_text("1.0,abc\n")
    code, out, err = _run(capsys, ["estimate", "--config", path])
    assert (code, out) == (2, "")
    assert err.startswith("config error: [model] design_file: cannot read")


def test_explicit_matrix_with_matching_rows_runs(tmp_path, capsys):
    # `estimate` builds the design at [mc] n only, so n_grid may differ
    path = _explicit_matrix_config(tmp_path, 100, 100, "100, 200")
    code, out, _ = _run(capsys, ["estimate", "--config", path])
    assert code == 0
    assert json.loads(out)["n"] == 100


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


def test_estimate_noiseless_recovers_truth(tmp_path, capsys):
    path = tmp_path / "exp.cfg"
    path.write_text(BASE.replace("sigma = 1.0", "sigma = 0.0")
                        .replace("family = bridge", "family = none")
                        .replace("gamma = 0.5", ""))
    code, out, _ = _run(capsys, ["estimate", "--config", str(path)])
    assert code == 0
    payload = json.loads(out)
    # the OLS start meets the truth to rounding only: no start is placed at the truth
    assert max(abs(a - b) for a, b in zip(payload["theta_hat"], [0.0, 1.0])) <= 4 * sys.float_info.epsilon
    assert 0.0 <= payload["objective"] <= 1e-28
    assert payload["converged"] is True


def test_estimate_noiseless_bridge_hits_exact_zero(tmp_path, capsys):
    path = tmp_path / "exp.cfg"
    path.write_text(BASE.replace("sigma = 1.0", "sigma = 0.0"))
    code, out, _ = _run(capsys, ["estimate", "--config", str(path)])
    assert code == 0
    payload = json.loads(out)
    assert payload["theta_hat"][0] == 0.0
    assert payload["exact_zero_flags"] == [True]


def test_estimate_byte_identical(cfg_path, capsys):
    code1, out1, _ = _run(capsys, ["estimate", "--config", cfg_path])
    code2, out2, _ = _run(capsys, ["estimate", "--config", cfg_path])
    assert code1 == code2 == 0
    assert out1 == out2


def test_estimate_seed_override_changes_data(cfg_path, capsys):
    _, out1, _ = _run(capsys, ["estimate", "--config", cfg_path])
    _, out2, _ = _run(capsys, ["estimate", "--config", cfg_path, "--seed", "7"])
    assert out1 != out2


def test_estimate_with_external_responses(tmp_path, capsys):
    import numpy as np

    from bridgelab.model import DesignSpec, generate_design
    from bridgelab.montecarlo import design_seed

    X = generate_design(DesignSpec(kind="standardized-orthonormal", p=2), 100,
                        design_seed(424242, 100))
    Y = X @ np.array([0.0, 1.0])  # noiseless responses from the configured truth
    resp = tmp_path / "responses.csv"
    resp.write_text("\n".join(repr(float(v)) for v in Y) + "\n")
    text = BASE.replace("family = bridge", "family = none").replace("gamma = 0.5", "")
    text = text.replace("sigma = 1.0", f"sigma = 1.0\nresponse_file = {resp}")
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    code, out, _ = _run(capsys, ["estimate", "--config", str(path)])
    assert code == 0
    payload = json.loads(out)
    assert max(abs(a - b) for a, b in zip(payload["theta_hat"], [0.0, 1.0])) <= 4 * sys.float_info.epsilon


def test_estimate_on_external_responses_ignores_the_configured_truth(tmp_path, capsys):
    # the fit of given data depends on (X, Y, penalty, box) only, so a truth
    # that the config merely declares cannot change a byte of the output
    import numpy as np

    from bridgelab.model import DesignSpec, generate_design
    from bridgelab.montecarlo import design_seed

    X = generate_design(DesignSpec(kind="standardized-orthonormal", p=2), 100,
                        design_seed(424242, 100))
    Y = X @ np.array([0.0, 1.0]) + np.random.default_rng(5).standard_normal(100)
    resp = tmp_path / "responses.csv"
    resp.write_text("\n".join(repr(float(v)) for v in Y) + "\n")
    outs = []
    for rho0 in ("1.0", "-3.0"):
        text = BASE.replace("rho0 = 1.0", f"rho0 = {rho0}")
        path = tmp_path / "exp.cfg"
        path.write_text(text.replace("sigma = 1.0", f"sigma = 1.0\nresponse_file = {resp}"))
        code, out, _ = _run(capsys, ["estimate", "--config", str(path)])
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("content", ["a,b\n", "1.0\n2.0\n3.0\n"], ids=["non-numeric", "wrong-size"])
def test_bad_response_file_exits_2_naming_the_field(tmp_path, capsys, content):
    resp = tmp_path / "responses.csv"
    resp.write_text(content)
    code, out, err = _run(capsys, ["estimate", "--config",
                                   _config_with(tmp_path, "model", "response_file", str(resp))])
    assert (code, out) == (2, "")
    assert err.startswith("config error: [model] response_file: ")


@pytest.mark.parametrize("tau_c, tau_e", [(1e-300, "0"), (1e-200, "0"), (1e-80, "0"), (1e-80, None)])
def test_selo_with_tiny_tau_estimates_finite_values(tmp_path, capsys, tau_c, tau_e):
    # (x + tau)(2x + tau) underflows to 0 near x = 0 for such tau_n
    text = BASE.replace("family = bridge", "family = selo").replace("gamma = 0.5", f"tau_c = {tau_c!r}")
    if tau_e is not None:
        text = text.replace("[penalty]", f"[penalty]\ntau_e = {tau_e}")
    path = tmp_path / "selo.cfg"
    path.write_text(text)
    code, out, _ = _run(capsys, ["estimate", "--config", str(path)])
    assert code == 0
    payload = json.loads(out)
    assert all(math.isfinite(v) for v in payload["theta_hat"] + [payload["objective"]])


def test_selo_tau_underflowing_to_zero_exits_2(tmp_path, capsys):
    text = BASE.replace("family = bridge", "family = selo")
    text = text.replace("gamma = 0.5", "tau_c = 1e-300\ntau_e = -20")
    path = tmp_path / "selo.cfg"
    path.write_text(text)
    code, out, err = _run(capsys, ["mc", "--config", str(path), "--out", str(tmp_path / "out")])
    assert (code, out) == (2, "")
    assert err == "config error: [penalty] tau_c: tau_n = tau_c * n^tau_e underflows to 0 at n=100\n"


# ---------------------------------------------------------------------------
# mc
# ---------------------------------------------------------------------------


def test_mc_emits_three_files(cfg_path, tmp_path, capsys):
    out_dir = str(tmp_path / "out")
    code, _, _ = _run(capsys, ["mc", "--config", cfg_path, "--out", out_dir])
    assert code == 0
    for name in ("replications.csv", "tail.csv", "summary.json"):
        assert os.path.exists(os.path.join(out_dir, name))

    lines = open(os.path.join(out_dir, "replications.csv")).read().splitlines()
    assert lines[0].startswith("n,rep,seed,theta_hat_1,theta_hat_2,zero_flag_1,objective,converged")
    assert len(lines) == 1 + 2 * 100

    tail_lines = open(os.path.join(out_dir, "tail.csv")).read().splitlines()
    assert tail_lines[0] == "n,r,p_hat,se,rL_phat_L2,rL_phat_L4"
    by_n = {}
    for row in tail_lines[1:]:
        cells = row.split(",")
        by_n.setdefault(cells[0], []).append(float(cells[2]))
    for vals in by_n.values():
        assert all(b <= a for a, b in zip(vals, vals[1:]))  # survival non-increasing

    summary = json.loads(open(os.path.join(out_dir, "summary.json")).read())
    for key in ("config", "selection_frequency", "moments", "limit_distance",
                "pldi_probe", "warnings"):
        assert key in summary
    for entry in summary["selection_frequency"].values():
        assert 0.0 <= entry["frequency"] <= 1.0

    ec = parse_config(cfg_path)
    assert config_from_echo(summary["config"]).mc == ec.mc


def test_mc_byte_identical_across_runs(cfg_path, tmp_path, capsys):
    d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert _run(capsys, ["mc", "--config", cfg_path, "--out", d1])[0] == 0
    assert _run(capsys, ["mc", "--config", cfg_path, "--out", d2])[0] == 0
    for name in ("replications.csv", "tail.csv", "summary.json"):
        a = open(os.path.join(d1, name), "rb").read()
        b = open(os.path.join(d2, name), "rb").read()
        assert a == b


def test_mc_rows_equal_direct_fits(tmp_path, capsys):
    # a binding box and a 2-sweep cap: both converged values and both warnings occur
    path = tmp_path / "box.cfg"
    path.write_text(BASE.replace("rho0 = 1.0", "rho0 = 0.7, 0.9")
                    .replace("design = standardized-orthonormal",
                             "design = bounded-random-frozen\nbound = 3.0")
                    .replace("[mc]", "[solver]\nbox_half = 0.8\nmax_sweeps = 2\n\n[mc]")
                    .replace("seed = 424242", "seed = 9"))
    out_dir = tmp_path / "out"
    assert _run(capsys, ["mc", "--config", str(path), "--out", str(out_dir),
                         "--threads", "2"])[0] == 0
    mc = parse_config(str(path)).mc
    p, p0 = mc.truth.p, mc.truth.p0
    rows = [line.split(",") for line in
            (out_dir / "replications.csv").read_text().splitlines()[1:]]
    assert [(int(r[0]), int(r[1])) for r in rows] == [
        (n, rep) for n in mc.n_grid for rep in range(mc.replications)]
    designs = {n: generate_design(mc.design, n, design_seed(mc.master_seed, n))
               for n in mc.n_grid}
    for row in rows:
        n, rep, seed = int(row[0]), int(row[1]), int(row[2])
        assert seed == replication_seed(mc.master_seed, n, rep)
        Y = simulate_responses(designs[n], mc.truth, mc.noise, seed)
        ds = Dataset(X=designs[n], Y=Y, truth=mc.truth, n=n)
        res = minimize(Contrast(dataset=ds, penalty=mc.penalty), mc.box, mc.solver)
        assert row[3:3 + p] == [format_float(v) for v in res.theta_hat]
        assert row[3 + p:3 + p + p0] == ["1" if v == 0.0 else "0" for v in res.theta_hat[:p0]]
        assert row[3 + p + p0:] == [format_float(res.objective), "1" if res.converged else "0"]
    assert {r[-1] for r in rows} == {"0", "1"}
    warnings = json.loads((out_dir / "summary.json").read_text())["warnings"]
    assert any("did not stabilize" in w for w in warnings)
    assert any("touch the box boundary" in w for w in warnings)


def test_mc_io_error_exit_code(cfg_path, tmp_path, capsys):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    code, _, err = _run(capsys, ["mc", "--config", cfg_path, "--out", str(blocker)])
    assert code == 3
    assert "i/o error" in err


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def test_check_bridge_sparse_slow(cfg_path, capsys):
    code, out, _ = _run(capsys, ["check", "--config", cfg_path])
    assert code == 0
    payload = json.loads(out)
    assert payload["regime"]["tag"] == "sparse-slow"
    div = payload["penalty_conditions"]["divergence-lower-bound"]
    assert div["verdict"] == "satisfied"
    assert abs(div["fitted_exponent"] - 0.5) <= 1e-3
    assert "zero-block-tail-bound" in div["required_by"]
    assert payload["design_conditions"]["cross-block-root-n"]["verdict"] == "plausibly-bounded"


def test_check_scad_classification(tmp_path, capsys):
    path = tmp_path / "scad.cfg"
    path.write_text(BASE.replace("family = bridge", "family = scad")
                        .replace("gamma = 0.5", "a = 3.7")
                        .replace("c = 1.0", "c = 1.0")
                        .replace("e = 0.6", "e = -0.25"))
    code, out, _ = _run(capsys, ["check", "--config", str(path)])
    assert code == 0
    payload = json.loads(out)
    pc = payload["penalty_conditions"]
    assert pc["divergence-lower-bound"]["verdict"] == "not-satisfied"
    assert pc["polynomial-growth-cap"]["verdict"] == "satisfied"
    assert pc["root-n-shift-continuity"]["verdict"] == "satisfied"
    assert pc["root-n-shift-continuity"]["kappa"] == 1


def test_check_unsupported_regime_structured_error(tmp_path, capsys):
    path = tmp_path / "steep.cfg"
    path.write_text(BASE.replace("e = 0.6", "e = 1.5"))
    code, out, _ = _run(capsys, ["check", "--config", str(path)])
    assert code == 4
    payload = json.loads(out)
    assert payload["error"] == "unsupported-regime"


# ---------------------------------------------------------------------------
# limit
# ---------------------------------------------------------------------------


def test_limit_sparse_normal_values(tmp_path, capsys):
    path = tmp_path / "lim.cfg"
    path.write_text(BASE.replace("c = 1.0", "c = 2.0").replace("e = 0.6", "e = 0.5"))
    code, out, _ = _run(capsys, ["limit", "--config", str(path)])
    assert code == 0
    payload = json.loads(out)
    assert payload["regime"]["tag"] == "sparse-normal"
    assert payload["bias"][0] == pytest.approx(-0.5)
    assert payload["cov"][0][0] == pytest.approx(1.0)


def test_limit_zero_lambda0_bias_zero(tmp_path, capsys):
    path = tmp_path / "lim0.cfg"
    path.write_text(BASE.replace("e = 0.6", "e = 0.4"))
    code, out, _ = _run(capsys, ["limit", "--config", str(path)])
    assert code == 0
    payload = json.loads(out)
    assert payload["regime"]["tag"] == "sparse-normal"
    assert payload["bias"][0] == 0.0


def test_limit_pseudo_true_soft_threshold(tmp_path, capsys):
    text = BASE.replace("p0 = 1", "p0 = 0").replace("gamma = 0.5", "gamma = 1.0")
    text = text.replace("c = 1.0", "c = 1.0").replace("e = 0.6", "e = 1.0")
    path = tmp_path / "pt.cfg"
    path.write_text(text)
    code, out, _ = _run(capsys, ["limit", "--config", str(path)])
    assert code == 0
    payload = json.loads(out)
    assert payload["regime"]["tag"] == "pseudo-true"
    assert payload["pseudo_true_point"][0] == pytest.approx(0.5, abs=1e-9)


def test_limit_standard_sampler_moments(tmp_path, capsys):
    text = BASE.replace("p0 = 1", "p0 = 0").replace("gamma = 0.5", "gamma = 2.0")
    text = text.replace("e = 0.6", "e = 0.25")
    path = tmp_path / "std.cfg"
    path.write_text(text)
    code, out, _ = _run(capsys, ["limit", "--config", str(path)])
    assert code == 0
    payload = json.loads(out)
    assert payload["regime"]["tag"] == "standard"
    assert payload["argmin_samples"]["cov"][0][0] == pytest.approx(1.0, rel=0.1)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("edits, message", [
    # pseudo-true regime: every start's objective overflows, though (0, 10) is the box argmin
    ((("e = 0.6", "e = 1.0"),), "the pseudo-true objective overflows: inf"),
    # standard regime with gamma = 4: the tilt 4 lambda0 |rho0|^3 overflows
    ((("e = 0.6", "e = 0.5"), ("gamma = 0.5", "gamma = 4.0")), "the limit field's linear tilt overflows"),
], ids=["pseudo-true", "standard-tilt"])
def test_limit_with_overflowing_truth_exits_2(tmp_path, capsys, edits, message):
    text = BASE.replace("rho0 = 1.0", "rho0 = 1e300")
    for edit in edits:
        text = text.replace(*edit)
    path = tmp_path / "big.cfg"
    path.write_text(text)
    code, out, err = _run(capsys, ["limit", "--config", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("config error: " + message)


@pytest.mark.parametrize("command, edit", [
    ("limit", ("e = 0.6", "e = 0.25")),  # standard regime: the argmin draws follow the seed
    ("check", ("standardized-orthonormal", "bounded-random-frozen")),  # seeded designs
])
def test_seed_flag_overrides_the_config_seed(tmp_path, capsys, command, edit):
    text = BASE.replace(*edit)
    default, seeded = tmp_path / "default.cfg", tmp_path / "seeded.cfg"
    default.write_text(text)
    seeded.write_text(text.replace("seed = 424242", "seed = 11"))
    _, flag, _ = _run(capsys, [command, "--config", str(default), "--seed", "11"])
    _, from_config, _ = _run(capsys, [command, "--config", str(seeded)])
    _, unseeded, _ = _run(capsys, [command, "--config", str(default)])
    assert flag == from_config
    assert flag != unseeded


def test_limit_unsupported_regime_exit4(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(BASE.replace("e = 0.6", "e = 2.0"))
    code, out, _ = _run(capsys, ["limit", "--config", str(path)])
    assert code == 4
