import configparser
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bridgelab
from bridgelab.asymptotics import penalty_gamma, regime_classify
from bridgelab.cli import main
from bridgelab.config import _KEYS, config_from_echo, parse_config
from bridgelab.contrast import Contrast
from bridgelab.errors import ConfigError
from bridgelab.model import Dataset, generate_design, simulate_responses
from bridgelab import montecarlo
from bridgelab.montecarlo import config_law, design_seed, replication_seed
from bridgelab.solver import minimize
from bridgelab.util import canonical_json, format_float

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
     "[model] bound^2 must be finite, got inf"),
    (("design = standardized-orthonormal", "design = bounded-random-frozen\nbound = 1e-154"),
     "[model] bound^-4 must be finite, got inf"),
    (("seed = 424242", "seed = 424242\ntail_orders = 2, 400"),
     "[mc] tail_orders: r**L overflows at r=8 of r_grid and L=400"),
    (("seed = 424242", "seed = 424242\ntail_orders = -600"),
     "[mc] tail_orders: r**L overflows at r=0.25 of r_grid and L=-600"),
])
def test_overflowing_spec_values_are_config_errors(tmp_path, capsys, command, edit, message):
    # finite values whose square overflows: sigma^2 in the limit law, bound^2 in C0 and X'X; and a
    # bound whose C0 = bound^2 / 3p is subnormal, so the norm of sigma^2 C0^-1 (cov_rel_gap) overflows;
    # a tail order L whose r^L overflows on the r-grid, since tail.csv and pldi_probe print r^L p_hat
    path = tmp_path / "big.cfg"
    path.write_text(BASE.replace(*edit))
    code, out, err = _run(capsys, [command, "--config", str(path), "--out", str(tmp_path / "o"),
                                   "--threads", "1"] if command == "mc" else [command, "--config", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("config error: ") and message in err


@pytest.mark.parametrize("command", ["estimate", "check", "mc"])
@pytest.mark.parametrize("edit, prefix, values", [
    (("e = 0.6", "e = 300"), "[schedule] c * n**e", "(c=1.0, e=300.0)"),
    (("c = 1.0", "c = 1e308"), "[schedule] c * n**e", "(c=1e+308, e=0.6)"),
    (("family = bridge\ngamma = 0.5", "family = selo\ntau_e = 300"), "[penalty] tau_c * n**tau_e",
     "(tau_c=1.0, tau_e=300.0)"),
    # a finite lambda_n = 1e306 whose SELO bound 2n lambda_n / log 2 overflows: the value
    # at 0 would be inf * log1p(0) = nan, and the fit would fail on a nan objective
    (("family = bridge\ngamma = 0.5\n\n[schedule]\nc = 1.0\ne = 0.6",
      "family = selo\n\n[schedule]\nc = 1e306\ne = 0"),
     "[schedule] SELO bound 2n * c * n**e / log 2", "(c=1e+306, e=0.0)"),
], ids=["e300", "c1e308", "selo-tau_e300", "selo-bound"])
def test_overflowing_schedule_is_a_config_error(tmp_path, capsys, command, edit, prefix, values):
    # a finite c and e whose lambda_n = c n^e (or SELO's tau_n) overflows at some n on the grid:
    # one config error line naming the config's own keys and values (for check too, whose
    # divergence scale q_n is derived from them), in place of a traceback or a nan objective
    path = tmp_path / "big.cfg"
    path.write_text(BASE.replace(*edit))
    code, out, err = _run(capsys, [command, "--config", str(path), "--out", str(tmp_path / "o"),
                                   "--threads", "2"] if command == "mc" else [command, "--config", str(path)])
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith(f"config error: {prefix} overflows at n=")
    assert err.endswith(f" {values}\n")


SCAD = BASE.replace("family = bridge\ngamma = 0.5", "family = scad\na = 3.7").replace("e = 0.6", "e = -0.25")
SELO = BASE.replace("family = bridge\ngamma = 0.5", "family = selo").replace("e = 0.6", "e = -0.25")


@pytest.mark.parametrize("base, edit, message", [
    (SCAD, ("c = 1.0\ne = -0.25", "c = 1e200\ne = 0"),
     "[schedule] c, e give the divergence scale q_n = inf at n=16, not finite and positive (c=1e+200, e=0.0)"),
    (BASE, ("gamma = 0.5", "gamma = 1e300"), "[schedule] c, e and [penalty] gamma give the divergence scale "
     "q_n = 0.0 at n=16, not finite and positive (c=1.0, e=0.6, gamma=1e+300)"),
    (BASE, ("gamma = 0.5", "gamma = 200"), "[schedule] c, e and [penalty] gamma give the divergence scale "
     "q_n = 0.0 at n=4096, not finite and positive (c=1.0, e=0.6, gamma=200.0)"),
], ids=["scad-c2-overflows", "bridge-gamma1e300", "bridge-gamma200"])
def test_check_divergence_scale_not_finite_positive_is_a_config_error(tmp_path, capsys, base, edit, message):
    # check divides by q_n (c^2 n^(1 + 2e) for SCAD, c n^(e - gamma/2) for bridge): one config
    # error line naming the config's own keys and values, not one about a derived schedule
    path = tmp_path / "q.cfg"
    path.write_text(base.replace(*edit))
    assert _run(capsys, ["check", "--config", str(path)]) == (2, "", f"config error: {message}\n")


@pytest.mark.parametrize("command, gamma, box_half, code", [
    ("estimate", "1e300", "10.0", 2),
    ("mc", "1e300", "10.0", 2),
    # the sphere infimum evaluates p_n at |t| up to 1024 / sqrt(16); q_n = n^(0.6 - gamma/2) stays
    # positive to n = 4096 (at gamma = 200 it underflows to 0, see test_check_divergence_scale_...)
    ("check", "150", "10.0", 2),
    ("estimate", "1e300", "1.0", 0),
    ("mc", "1e300", "1.0", 0),
])
def test_huge_bridge_gamma_exits_2_or_fits_finite_values(tmp_path, capsys, command, gamma, box_half, code):
    # lambda_n |t|^gamma overflows at |t| = 10; on the box [-1, 1] it is finite, but the prox
    # compares lambda_n gamma |b|^(gamma - 1) for the unconstrained |b| > 1, which overflows
    path = tmp_path / "big.cfg"
    path.write_text(BASE.replace("gamma = 0.5", f"gamma = {gamma}")
                    .replace("[mc]", f"[solver]\nbox_half = {box_half}\n\n[mc]"))
    out_dir = tmp_path / "o"
    got, out, err = _run(capsys, [command, "--config", str(path), "--out", str(out_dir),
                                  "--threads", "2"] if command == "mc" else [command, "--config", str(path)])
    if code == 2:
        assert (got, out) == (2, "")
        assert err.count("\n") == 1
        assert err.startswith("config error: bridge penalty lambda_n * |t|**gamma overflows at n=")
        return
    assert (got, err) == (0, "")
    if command == "estimate":
        payload = json.loads(out)
        assert all(math.isfinite(v) for v in payload["theta_hat"] + [payload["objective"]])
    else:
        cells = (out_dir / "replications.csv").read_text().split()[1:]
        assert all(math.isfinite(float(v)) for row in cells for v in row.split(","))
        assert not any(word in (out_dir / "summary.json").read_text() for word in ('"inf"', '"nan"'))


@pytest.mark.parametrize("command", ["estimate", "mc", "check"])
def test_design_whose_gram_overflows_at_n_is_a_config_error(tmp_path, capsys, command):
    # bound^2 = 1e308 is finite, and so is C0, but n bound^2 / p overflows X'X at the first n
    path = tmp_path / "big.cfg"
    path.write_text(BASE.replace("design = standardized-orthonormal",
                                 "design = bounded-random-frozen\nbound = 1e154"))
    code, out, err = _run(capsys, [command, "--config", str(path), "--out", str(tmp_path / "o"),
                                   "--threads", "1"] if command == "mc" else [command, "--config", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("config error: ") and "bound = 1e+154 overflows X'X at n = " in err


@pytest.mark.parametrize("command", ["estimate", "mc"])
@pytest.mark.parametrize("rho0, messages", [
    # a huge finite truth overflows the residual sum of squares at every start
    ("1e300", ("the objective overflows: inf",)),
    # X theta0 overflows the responses, or X'Y overflows on finite responses
    ("1e308", ("responses contain non-finite values", "X'Y overflows")),
], ids=["1e300", "1e308"])
def test_overflowing_objective_is_a_config_error(tmp_path, capsys, command, rho0, messages):
    # one config error line on stderr, and no numpy warning (pytest makes one an error)
    path = tmp_path / "big.cfg"
    path.write_text(BASE.replace("rho0 = 1.0", f"rho0 = {rho0}"))
    code, out, err = _run(capsys, [command, "--config", str(path), "--out", str(tmp_path / "o"),
                                   "--threads", "1"] if command == "mc" else [command, "--config", str(path)])
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and any(err.startswith("config error: " + m) for m in messages)


def _fresh_python(code: str, cwd=None) -> str:
    env = {**os.environ, "PYTHONPATH": str(Path(bridgelab.__file__).resolve().parents[1])}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          cwd=cwd, check=True).stdout.strip()


def test_cli_import_leaves_out_the_process_pool_and_scipy():
    # multiprocessing is imported only when a campaign runs with --threads > 1; scipy never,
    # and numpy.random (which numpy 2 loads on first use) at import, not in the first command
    assert _fresh_python("import sys, bridgelab.cli; print(sorted({'multiprocessing', "
                         "'concurrent.futures.process', 'scipy', 'numpy.random'} & set(sys.modules)))"
                         ) == "['numpy.random']"


def test_commands_import_no_numpy_or_scipy_module(tmp_path):
    # what the commands need is loaded before they run, so their own time holds no import
    cfg = BASE.replace("e = 0.6", "e = 0.25").replace("n_grid = 50, 100", "n_grid = 50, 200")
    (tmp_path / "exp.cfg").write_text(cfg)  # standard regime: mc measures KS distances
    code = "\n".join([
        "import contextlib, io, sys",
        "from bridgelab.cli import main",
        "from bridgelab.config import parse_config",
        "parse_config('exp.cfg')",
        "before = set(sys.modules)",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    codes = [main(['limit', '--config', 'exp.cfg']),",
        "             main(['mc', '--config', 'exp.cfg', '--out', 'o', '--threads', '1'])]",
        "print(codes, sorted(m for m in set(sys.modules) - before if m.split('.')[0] in ('numpy', 'scipy')))",
    ])
    assert _fresh_python(code, cwd=tmp_path) == "[0, 0] []"
    assert "ks_per_margin" in (tmp_path / "o" / "summary.json").read_text()


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


@pytest.mark.parametrize("key, text", [("n_grid", "4096, 1024, 256, 64, 16"), ("delta", "0"),
                                       ("delta", "200")])  # 800**200 overflows the design-condition rates
def test_check_grid_settings_checked_at_parse_time(tmp_path, capsys, key, text):
    code, out, err = _run(capsys, ["check", "--config", _config_with(tmp_path, "check", key, text)])
    assert (code, out) == (2, "")
    assert err.startswith(f"config error: [check] {key}: ")


def test_check_delta_is_not_checked_against_an_explicit_matrix(tmp_path, capsys):
    # n**delta is checked at the n of check's design grid; an explicit matrix draws no design
    # sequence, so at delta = 200 its check reports no rate and runs
    path = _config_with(tmp_path, "check", "delta", "200",
                        base=Path(_explicit_matrix_config(tmp_path, 100, 100, "100")).read_text())
    code, out, _ = _run(capsys, ["check", "--config", path])
    assert code == 0 and "n-grid" in json.loads(out)["design_conditions"]["note"]


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


@pytest.mark.parametrize("orders", ["2, 10", "-1, 2", "0"])
def test_bad_moment_orders_rejected_before_any_fit(tmp_path, capsys, monkeypatch, orders):
    # orders must lie in (0, 8]: |u|^q at an exact zero is inf for q < 0 and 1 for q = 0;
    # the config check runs before the campaign
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


def _explicit_matrix_config(tmp_path, rows: int, n: int, n_grid: str, scale: float = 1.0) -> str:
    import numpy as np

    design = tmp_path / "design.csv"
    X = np.random.default_rng(3).uniform(-scale, scale, size=(rows, 2))
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
        n, r, p_hat, se, *overlays = [float(cell) for cell in row.split(",")]
        by_n.setdefault(int(n), []).append((p_hat, overlays))
        assert se == pytest.approx(math.sqrt(p_hat * (1.0 - p_hat) / 100), rel=1e-15)  # R = 100
        assert overlays == pytest.approx([r ** 2 * p_hat, r ** 4 * p_hat], rel=1e-15)
    for rows in by_n.values():
        assert all(b[0] <= a[0] for a, b in zip(rows, rows[1:]))  # survival non-increasing

    summary = json.loads(open(os.path.join(out_dir, "summary.json")).read())
    # the probe is the max of each overlay column over the informative rows p_hat >= 10 / R
    for k, order in enumerate(("2", "4")):
        assert summary["pldi_probe"][order]["per_n"] == [
            max((overlays[k] for p_hat, overlays in rows if p_hat >= 0.1), default=0.0)
            for rows in by_n.values()]
    for key in ("config", "selection_frequency", "moments", "limit_distance",
                "pldi_probe", "warnings"):
        assert key in summary
    for entry in summary["selection_frequency"].values():
        assert 0.0 <= entry["frequency"] <= 1.0

    ec = parse_config(cfg_path)
    assert config_from_echo(summary["config"]).mc == ec.mc

    # fractional orders keep their text: "1.5" in the moments, "0.5" in the probe and tail.csv
    path = tmp_path / "orders.cfg"
    path.write_text(BASE.replace("seed = 424242", "seed = 424242\nmoment_orders = 1.5\ntail_orders = 0.5"))
    assert _run(capsys, ["mc", "--config", str(path), "--out", str(tmp_path / "orders")])[0] == 0
    summary = json.loads((tmp_path / "orders" / "summary.json").read_text())
    assert (list(summary["moments"]), list(summary["pldi_probe"])) == (["1.5"], ["0.5"])
    assert (tmp_path / "orders" / "tail.csv").read_text().split()[0] == "n,r,p_hat,se,rL_phat_L0.5"


@pytest.mark.parametrize("e, regime", [
    ("0.6", "sparse-slow"),
    ("0.25", "standard"),  # the limit_distance block holds KS statistics against argmin draws
    ("1.0", "pseudo-true"),
])
def test_mc_byte_identical_across_runs(tmp_path, capsys, e, regime):
    path = tmp_path / "exp.cfg"
    path.write_text(BASE.replace("e = 0.6", f"e = {e}"))
    d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert _run(capsys, ["mc", "--config", str(path), "--out", d1, "--threads", "1"])[0] == 0
    assert _run(capsys, ["mc", "--config", str(path), "--out", d2, "--threads", "2"])[0] == 0
    for name in ("replications.csv", "tail.csv", "summary.json"):
        a = open(os.path.join(d1, name), "rb").read()
        b = open(os.path.join(d2, name), "rb").read()
        assert a == b
    assert json.loads(a)["limit_distance"]["regime"] == regime


def test_cov_rel_gap_is_finite_at_a_huge_sigma(tmp_path, capsys):
    # sigma^2 B0^-1 = 1e200 I: the Frobenius norms of emp_cov - cov and cov square it past the
    # float range, and cov_rel_gap was nan (0/0 of two infinite norms) after a numpy warning;
    # at the scale of cov the norms stay finite (pytest makes a warning an error)
    path = tmp_path / "huge.cfg"
    path.write_text(BASE.replace("sigma = 1.0", "sigma = 1e100").replace("e = 0.6", "e = 0.5"))
    out_dir = tmp_path / "o"
    assert _run(capsys, ["mc", "--config", str(path), "--out", str(out_dir), "--threads", "1"]) == (0, "", "")
    text = (out_dir / "summary.json").read_text()
    assert '"nan"' not in text
    limit = json.loads(text)["limit_distance"]
    assert limit["regime"] == "sparse-normal"
    assert all(math.isfinite(entry["cov_rel_gap"]) for entry in limit["per_n"].values())


def test_overflowing_campaign_moment_is_a_config_error(tmp_path, capsys):
    # on the box [-10, 10], |v| = sqrt(n) |rho_hat - 1e80| is about 1e81: E|v|^2 = 1e162 is finite,
    # but |v|^4 overflows, and its SE would be nan; no file is written and no numpy warning shows
    path = tmp_path / "big.cfg"
    path.write_text(BASE.replace("rho0 = 1.0", "rho0 = 1e80").replace("gamma = 0.5", "gamma = 1.5")
                    .replace("e = 0.6", "e = 0.25"))
    out_dir = tmp_path / "o"
    assert _run(capsys, ["mc", "--config", str(path), "--out", str(out_dir), "--threads", "1"]) == (
        2, "", "config error: the campaign moment E|v|^4 or its SE overflows at n=50: inf (SE nan)\n")
    assert not out_dir.exists()


@pytest.mark.parametrize("e", ["0.4", "0.5", "0.6"],
                         ids=["sparse-normal-lambda0-0", "sparse-normal-lambda0-1", "sparse-slow"])
def test_sparse_limit_law_that_is_not_finite_is_a_config_error(tmp_path, capsys, e):
    # an explicit matrix of entries near 1e-160 has a subnormal C0, so B0^-1 overflows: limit exits 2
    # with one line (it printed nan/inf bias, drift and cov), and mc writes the text as its
    # limit_distance note ([model] bound refuses such a C0 at parse time, an explicit matrix cannot)
    path = _explicit_matrix_config(tmp_path, 100, 100, "100", scale=1e-160)
    with open(path) as fh:
        text = fh.read().replace("e = 0.6", f"e = {e}")
    with open(path, "w") as fh:
        fh.write(text)
    code, out, err = _run(capsys, ["limit", "--config", path])
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    assert err.startswith("config error: the sparse limit law is not finite: B0^-1 Upsilon and sigma^2 B0^-1 "
                          "overflow (B0 has smallest eigenvalue ")
    out_dir = tmp_path / "o"
    assert _run(capsys, ["mc", "--config", path, "--out", str(out_dir), "--threads", "1"]) == (0, "", "")
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["limit_distance"] == {"note": err[len("config error: "):-1]}


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


@pytest.mark.parametrize("penalty, schedule", [
    ("family = bridge\ngamma = 0.5", "c = 1.0\ne = 0.6"),
    ("family = scad\na = 3.7", "c = 1.0\ne = -0.25"),
    ("family = selo\ntau_c = 0.1\ntau_e = -0.5", "c = 0.05\ne = 0.0"),
    ("family = none", "c = 1.0\ne = 0.6"),
], ids=["bridge", "scad", "selo", "none"])
def test_fits_independent_of_threads_and_block_size(tmp_path, capsys, monkeypatch, penalty, schedule):
    # fit (n, rep) depends only on (config, n, rep): replications.csv has the same bytes for
    # one or two workers (blocks of 25 and 13 fits) and for blocks of 8 (the last one
    # ragged), of 100 and of 7 (the cap on a task's fits)
    path = tmp_path / "blocks.cfg"
    path.write_text(BASE.replace("rho0 = 1.0", "rho0 = 1.0, -1.5")
                    .replace("design = standardized-orthonormal", "design = bounded-random-frozen\nbound = 3.0")
                    .replace("family = bridge\ngamma = 0.5", penalty).replace("c = 1.0\ne = 0.6", schedule))
    runs = []
    for threads, blocks_per_worker, block_fits in ((1, 4, 256), (2, 4, 256), (1, 13, 256), (1, 1, 256),
                                                   (1, 1, 7)):
        monkeypatch.setattr(montecarlo, "_BLOCKS_PER_WORKER", blocks_per_worker)
        monkeypatch.setattr(montecarlo, "_BLOCK_FITS", block_fits)
        out_dir = tmp_path / f"out-{threads}-{blocks_per_worker}-{block_fits}"
        assert _run(capsys, ["mc", "--config", str(path), "--out", str(out_dir),
                             "--threads", str(threads)]) == (0, "", "")
        runs.append((out_dir / "replications.csv").read_bytes())
    assert runs[1:] == runs[:1] * 4
    zero_flags = [line.split(b",")[6] for line in runs[0].splitlines()[1:]]
    assert set(zero_flags) == ({b"0"} if penalty == "family = none" else {b"0", b"1"})


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


def test_check_design_norms_that_overflow_are_a_config_error(tmp_path, capsys):
    # bound = 1e100 scales the Gram blocks by 1e200, whose squared entries overflow their Frobenius
    # norms: check exits 2 with one line naming [model] bound (it printed "inf" after numpy warnings)
    path = tmp_path / "huge.cfg"
    path.write_text(BASE.replace("design = standardized-orthonormal",
                                 "design = bounded-random-frozen\nbound = 1e100"))
    assert _run(capsys, ["check", "--config", str(path)]) == (
        2, "", "config error: the Frobenius norms of the Gram blocks overflow at n=50: "
               "[model] bound is too large for check\n")


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


@pytest.mark.parametrize("base", [BASE, SCAD, SELO], ids=["bridge", "scad", "selo"])
def test_check_with_zero_schedule_coefficient(tmp_path, capsys, base):
    # c = 0 is lambda_n = 0, as for family = none: q_n = 1, so the divergence curve is 0
    # (not divergent) and check exits 0 as estimate and limit do
    path = tmp_path / "zero.cfg"
    path.write_text(base.replace("c = 1.0", "c = 0"))
    code, out, err = _run(capsys, ["check", "--config", str(path)])
    assert (code, err) == (0, "")
    div = json.loads(out)["penalty_conditions"]["divergence-lower-bound"]
    assert div["verdict"] == "not-satisfied"
    assert div["detail"]["q_n"] == {"c": 1.0, "e": 0.0}
    assert "fitted_exponent" not in div


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


@pytest.mark.parametrize("e, tag", [("0.5", "sparse-normal"), ("0.6", "sparse-slow"), ("1.0", "pseudo-true")])
def test_limit_prints_the_law_and_every_command_the_classified_regime(tmp_path, capsys, e, tag):
    # limit prints the law's params key for key after rate_descriptors; estimate and check
    # print the block of regime_classify
    path = tmp_path / "law.cfg"
    path.write_text(BASE.replace("e = 0.6", f"e = {e}"))
    mc = parse_config(str(path)).mc
    law = config_law(mc)
    regime = json.loads(canonical_json(regime_classify(penalty_gamma(mc.penalty), mc.penalty.schedule)))
    assert regime["tag"] == tag
    code, out, _ = _run(capsys, ["limit", "--config", str(path)])
    payload = json.loads(out)
    assert code == 0 and list(payload) == ["regime", "gamma", "sigma2", "c0_source", "rate_descriptors",
                                           *law.params]
    assert {key: payload[key] for key in law.params} == json.loads(canonical_json(law.params))
    for command in ("limit", "estimate", "check"):
        code, out, _ = _run(capsys, [command, "--config", str(path)])
        assert code == 0 and json.loads(out)["regime"] == regime


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


def test_check_tests_the_gram_against_the_c0_of_limit(tmp_path, capsys):
    # C0 comes from the design spec, so the largest grid n's own Gram matrix is not C0
    path = tmp_path / "brf.cfg"
    path.write_text(BASE.replace("design = standardized-orthonormal", "design = bounded-random-frozen\nbound = 10")
                    .replace("n_grid = 50, 100", "n_grid = 50, 200, 800"))
    code, out, _ = _run(capsys, ["check", "--config", str(path)])
    assert code == 0
    design = json.loads(out)["design_conditions"]
    code, out, _ = _run(capsys, ["limit", "--config", str(path)])
    assert code == 0
    assert design["c0_source"] == json.loads(out)["c0_source"] == "uniform-second-moment"
    for cond in ("gram-convergence-rate", "zero-block-gram-limit", "nonzero-block-gram-rate"):
        assert design[cond]["values"][-1] > 1e-10  # above the floor that boundedness_verdict reads as 0


@pytest.mark.parametrize("edits, message", [
    # pseudo-true regime: every start's objective overflows, though (0, 10) is the box argmin
    ((("e = 0.6", "e = 1.0"),), "the pseudo-true objective overflows: inf"),
    # standard regime with gamma = 4: the tilt 4 lambda0 |rho0|^3 overflows
    ((("e = 0.6", "e = 0.5"), ("gamma = 0.5", "gamma = 4.0")), "the limit field's linear tilt overflows"),
    # standard regime with gamma = 100: the tilt 100 * 1000^99 is finite, but the squares of
    # the argmin draws near -tilt / 2 overflow the moments the summary reports
    ((("e = 0.6", "e = 0.5"), ("gamma = 0.5", "gamma = 100"), ("rho0 = 1e300", "rho0 = 1000")),
     "the limit argmin samples overflow their cov, abs_moment_2, abs_moment_4"),
], ids=["pseudo-true", "standard-tilt", "standard-argmin"])
def test_limit_with_overflowing_truth_exits_2(tmp_path, capsys, edits, message):
    text = BASE.replace("rho0 = 1.0", "rho0 = 1e300")
    for edit in edits:
        text = text.replace(*edit)
    path = tmp_path / "big.cfg"
    path.write_text(text)
    code, out, err = _run(capsys, ["limit", "--config", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("config error: " + message) and err.count("\n") == 1


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


UNPENALIZED = (BASE.replace("family = bridge", "family = none").replace("gamma = 0.5", "")
               .replace("[schedule]\nc = 1.0\ne = 0.6\n", ""))


@pytest.mark.parametrize("command", ["estimate", "check", "limit"])
@pytest.mark.parametrize("schedule", ["", "\n[schedule]\ne = 0.75\n", "\n[schedule]\ne = 1.5\n"],
                         ids=["default", "e=0.75", "e=1.5"])
def test_unpenalized_regime_is_standard_with_lambda0_zero(tmp_path, capsys, command, schedule):
    # lambda_n = 0 whatever [schedule] says: read as a penalty's, the default (c = 1, e = 0.5)
    # gives lambda0 = 1, e = 0.75 is uncovered for gamma = 2 and e = 1.5 is rejected
    path = tmp_path / "none.cfg"
    path.write_text(UNPENALIZED + schedule)
    code, out, _ = _run(capsys, [command, "--config", str(path)])
    assert code == 0
    regime = json.loads(out)["regime"]
    assert (regime["tag"], regime["lambda0"]) == ("standard", 0.0)
    assert set(regime["rate_limits"].values()) == {0.0}


def test_unpenalized_limit_law_is_centred_normal(tmp_path, capsys):
    # sqrt(n)(theta_hat - theta0) => N(0, sigma^2 C0^-1) = N(0, I_2): mean 0 and E|u|^2 = 2;
    # 0.04 is 4 standard errors of a mean of 10,000 draws, 0.1 is 5 of the second moment
    path = tmp_path / "none.cfg"
    path.write_text(UNPENALIZED)
    code, out, _ = _run(capsys, ["limit", "--config", str(path)])
    assert code == 0
    draws = json.loads(out)["argmin_samples"]
    assert all(abs(m) <= 0.04 for m in draws["mean"])
    assert abs(draws["abs_moment_2"] - 2.0) <= 0.1


def test_limit_on_a_huge_box_is_quiet_and_box_blind(tmp_path, capsys):
    # c (x - b)^2 overflows at the ends of a 1e200 box; those candidates lose without a
    # numpy warning (pytest makes one an error), and the pseudo-true point is that of box 10
    outs = []
    for half in ("10", "1e200"):
        path = tmp_path / "box.cfg"
        path.write_text(BASE.replace("e = 0.6", "e = 1.0") + f"\n[solver]\nbox_half = {half}\n")
        code, out, err = _run(capsys, ["limit", "--config", str(path)])
        assert (code, err) == (0, "")
        outs.append(out)
    assert json.loads(outs[0])["regime"]["tag"] == "pseudo-true"
    assert outs[0] == outs[1]


def test_limit_unsupported_regime_exit4(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(BASE.replace("e = 0.6", "e = 2.0"))
    code, out, _ = _run(capsys, ["limit", "--config", str(path)])
    assert code == 4
