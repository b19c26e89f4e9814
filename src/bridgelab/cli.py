"""Config-driven command line: estimate, mc, check, limit.

Exit codes: 0 success, 2 config error, 3 I/O error, 4 unsupported regime.
All emitted CSV/JSON is byte-stable across runs and thread counts.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from . import model as model_mod
from . import penalty as penalty_mod
from .asymptotics import REGIME_STANDARD, limit_law, penalty_regime, sample_limit_argmin
from .config import ExperimentConfig, parse_config
from .contrast import Contrast
from .errors import ConfigError, InvalidInputError, InvalidSpecError, UnsupportedRegimeError
from .model import Dataset, generate_design, simulate_responses
from .model import gram  # noqa: F401  (perfbench/tracer.py wraps cli.gram)
from .montecarlo import (
    compare_to_limit,
    design_seed,
    limit_c0,
    moment_trajectory,
    pldi_probe,
    replication_seed,
    run_replications,
    sparsity_curve,
    tail_curve,
)
from .solver import minimize
from .util import canonical_json, derive_seed, format_float

_REQUIRED_BY = {
    penalty_mod.COND_DIVERGENCE: ["zero-block-tail-bound"],
    penalty_mod.COND_GROWTH_CAP: ["joint-tail-and-normal-limit"],
    penalty_mod.COND_SHIFT: ["joint-tail-and-normal-limit"],
    model_mod.COND_GRAM_RATE: ["standard-limit-moment-convergence"],
    model_mod.COND_ROW_BOUND: ["standard-limit-moment-convergence",
                               "zero-block-tail-bound", "joint-tail-and-normal-limit"],
    model_mod.COND_CROSS_SCALED: ["zero-block-tail-bound"],
    model_mod.COND_CROSS_ROOT_N: ["joint-tail-and-normal-limit"],
    model_mod.COND_ZERO_GRAM: ["zero-block-tail-bound"],
    model_mod.COND_NONZERO_GRAM_RATE: ["joint-tail-and-normal-limit"],
}

_LIMIT_SAMPLE_COUNT = 10_000


def _regime_payload(ec: ExperimentConfig) -> dict:
    pen = ec.mc.penalty
    if pen.family not in ("bridge", "none"):
        return {"note": f"the schedule-exponent regimes classify the bridge family; "
                        f"{pen.family} is covered by the penalty-condition checkers"}
    _, regime = penalty_regime(pen)
    return {
        "tag": regime.tag,
        "lambda0": regime.lambda0,
        "rate_limits": regime.rate_limits,
    }


def cmd_estimate(ec: ExperimentConfig) -> int:
    mc = ec.mc
    n = ec.n_single
    X = generate_design(mc.design, n, design_seed(mc.master_seed, n))
    seed = replication_seed(mc.master_seed, n, 0)
    if ec.response_file is not None:
        try:
            Y = np.loadtxt(ec.response_file, delimiter=",")
        except OSError as exc:
            raise ConfigError(f"cannot read response file: {exc}") from exc
        if Y.shape != (n,):
            raise ConfigError(
                f"response file holds {Y.size} values, expected n={n}")
    else:
        Y = simulate_responses(X, mc.truth, mc.noise, seed)
    ds = Dataset(X=X, Y=Y, truth=mc.truth, n=n)
    res = minimize(Contrast(dataset=ds, penalty=mc.penalty), mc.box, mc.solver)

    warnings = []
    if mc.box.on_boundary(res.theta_hat):
        warnings.append("estimate touches the box boundary; the box may be binding")
    try:
        regime = _regime_payload(ec)
    except UnsupportedRegimeError as exc:
        regime = {"note": str(exc)}
    payload = {
        "n": n,
        "seed": seed,
        "theta_hat": res.theta_hat,
        "z_hat": res.z_hat,
        "rho_hat": res.rho_hat,
        "exact_zero_flags": res.exact_zero_flags,
        "objective": res.objective,
        "converged": res.converged,
        "iterations": res.iterations,
        "restarts_used": res.restarts_used,
        "regime": regime,
        "warnings": warnings,
    }
    sys.stdout.write(canonical_json(payload))
    return 0


def _tail_order_label(L: float) -> str:
    return f"{L:g}"


def _write_replications_csv(path: str, rs) -> None:
    p = rs.config.truth.p
    p0 = rs.config.truth.p0
    header = (["n", "rep", "seed"]
              + [f"theta_hat_{j + 1}" for j in range(p)]
              + [f"zero_flag_{j + 1}" for j in range(p0)]
              + ["objective", "converged"])
    lines = [",".join(header)]
    for n in rs.config.n_grid:
        rows = zip(rs.seeds[n].tolist(), rs.theta_hat[n].tolist(), rs.zero_flags(n).tolist(),
                   rs.objective[n].tolist(), rs.converged[n].tolist())
        for rep, (seed, theta, flags, obj, conv) in enumerate(rows):
            lines.append(",".join(map(format_float, (n, rep, seed, *theta, *flags, obj, conv))))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_tail_csv(path: str, report) -> None:
    header = ["n", "r", "p_hat", "se"]
    header += [f"rL_phat_L{_tail_order_label(L)}" for L in report.orders]
    lines = [",".join(header)]
    for curve in report.curves:
        for i in range(curve.r.size):
            cells = [str(curve.n), format_float(curve.r[i]),
                     format_float(curve.p_hat[i]), format_float(curve.se[i])]
            cells += [format_float(curve.rl[L][i]) for L in report.orders]
            lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _summary_payload(ec: ExperimentConfig, rs, tail_report) -> dict:
    mc = ec.mc
    summary: dict = {"config": ec.raw, "c0_source": rs.c0_source,
                     "warnings": list(rs.warnings)}

    if mc.truth.p0 >= 1:
        sel = sparsity_curve(rs)
        summary["selection_frequency"] = {
            str(n): {
                "frequency": sel.frequency[i],
                "se": sel.se[i],
                "per_coordinate": sel.per_coordinate[i],
            }
            for i, n in enumerate(sel.n_grid)
        }
    else:
        summary["selection_frequency"] = {
            "note": "no zero block in the truth; selection frequencies undefined"}

    moments = moment_trajectory(rs)
    summary["moments"] = {
        _tail_order_label(tr.order): {
            "n_grid": list(tr.n_grid),
            "u_moment": tr.u_moment,
            "u_se": tr.u_se,
            "u_verdict": tr.u_verdict,
            "v_moment": tr.v_moment,
            "v_se": tr.v_se,
            "v_verdict": tr.v_verdict,
        }
        for tr in moments
    }

    summary["pldi_probe"] = {
        _tail_order_label(L): info for L, info in pldi_probe(tail_report).items()
    }

    try:
        gamma, _ = penalty_regime(mc.penalty)
        law = limit_law(gamma, mc.penalty.schedule, mc.noise.sigma ** 2,
                        rs.C0, mc.truth.theta, mc.truth.p0, box=mc.box)
        summary["limit_distance"] = compare_to_limit(rs, law)
    except (UnsupportedRegimeError, InvalidInputError) as exc:
        summary["limit_distance"] = {"note": str(exc)}
    return summary


def cmd_mc(ec: ExperimentConfig, out_dir: str, threads: int) -> int:
    rs = run_replications(ec.mc, threads=threads)
    tail_report = tail_curve(rs)
    summary = _summary_payload(ec, rs, tail_report)

    os.makedirs(out_dir, exist_ok=True)
    _write_replications_csv(os.path.join(out_dir, "replications.csv"), rs)
    _write_tail_csv(os.path.join(out_dir, "tail.csv"), tail_report)
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8", newline="") as fh:
        fh.write(canonical_json(summary))
    return 0


def cmd_check(ec: ExperimentConfig) -> int:
    mc = ec.mc
    pen = mc.penalty
    cs = ec.check
    p0 = max(mc.truth.p0, 1)

    div = penalty_mod.check_divergence_condition(
        pen, cs.n_grid, cs.r_grid, q_n=None, p0=p0)
    growth, shift = penalty_mod.check_smooth_conditions(
        pen, cs.n_grid, cs.a_probes, cs.b_probes, cs.beta)
    penalty_block = {}
    for rep in (div, growth, shift):
        entry = rep.to_jsonable()
        entry["required_by"] = _REQUIRED_BY[rep.condition]
        penalty_block[rep.condition] = entry

    design_block: dict = {}
    if mc.design.kind == "explicit-matrix":
        design_block["note"] = ("explicit-matrix designs are a single fixed n; "
                                "design-condition sequences need an n-grid")
    else:
        grid = mc.n_grid if len(mc.n_grid) >= 3 else (50, 200, 800)
        designs = [(n, generate_design(mc.design, n, design_seed(mc.master_seed, n)))
                   for n in grid]
        C0, c0_source = limit_c0(mc, designs[-1][1])
        q_n = penalty_mod.default_divergence_scale(pen)
        report = model_mod.check_design_conditions(
            designs, C0, cs.delta, q_n, (mc.truth.p0, mc.truth.p1))
        design_block["c0_source"] = c0_source
        for cond, seq in report.items():
            entry = seq.to_jsonable()
            entry["required_by"] = _REQUIRED_BY[cond]
            design_block[cond] = entry

    payload = {
        "penalty_conditions": penalty_block,
        "design_conditions": design_block,
        "regime": _regime_payload(ec),
    }
    sys.stdout.write(canonical_json(payload))
    return 0


def cmd_limit(ec: ExperimentConfig) -> int:
    mc = ec.mc
    gamma, _ = penalty_regime(mc.penalty)
    C0, c0_source = limit_c0(mc)
    law = limit_law(gamma, mc.penalty.schedule, mc.noise.sigma ** 2,
                    C0, mc.truth.theta, mc.truth.p0, box=mc.box)
    payload: dict = {
        "regime": _regime_payload(ec),
        "gamma": gamma,
        "sigma2": mc.noise.sigma ** 2,
        "c0_source": c0_source,
        "rate_descriptors": law.rate_descriptors,
    }
    if law.regime.tag == REGIME_STANDARD:
        samples = sample_limit_argmin(
            law, _LIMIT_SAMPLE_COUNT, seed=derive_seed(mc.master_seed, 777))
        payload["argmin_samples"] = {
            "count": _LIMIT_SAMPLE_COUNT,
            "mean": samples.mean(axis=0),
            "cov": np.atleast_2d(np.cov(samples.T)),
            "abs_moment_2": float(np.mean(np.sum(samples ** 2, axis=1))),
            "abs_moment_4": float(np.mean(np.sum(samples ** 2, axis=1) ** 2)),
        }
    elif law.regime.tag == "sparse-normal":
        payload["upsilon"] = law.upsilon
        payload["bias"] = law.bias
        payload["cov"] = law.cov
    elif law.regime.tag == "sparse-slow":
        payload["upsilon"] = law.upsilon
        payload["drift"] = law.drift
        payload["rate"] = "n over lambda_n"
    else:
        payload["pseudo_true_point"] = law.pseudo_true_point
        payload["pseudo_zero_flags"] = law.pseudo_zero_flags
    sys.stdout.write(canonical_json(payload))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bridgelab",
        description="Penalized least-squares estimation with Monte Carlo verdicts")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("estimate", "single fit, JSON on stdout"),
        ("mc", "Monte Carlo campaign, CSV/JSON files"),
        ("check", "design and penalty condition report"),
        ("limit", "limit-law parameters"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        if name == "mc":
            p.add_argument("--out", default=None, help="output directory")
            p.add_argument("--threads", type=int, default=0,
                           help="worker processes, 0 = auto")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        ec = parse_config(args.config, args.command)
        if args.seed is not None:  # every command, and the echo, see the override
            ec.mc = replace(ec.mc, master_seed=args.seed)
            ec.raw.setdefault("mc", {})["seed"] = str(args.seed)
        if args.command == "estimate":
            return cmd_estimate(ec)
        if args.command == "mc":
            out_dir = args.out if args.out is not None else ec.out_dir
            return cmd_mc(ec, out_dir, args.threads)
        if args.command == "check":
            return cmd_check(ec)
        return cmd_limit(ec)
    except (ConfigError, InvalidSpecError, InvalidInputError) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except UnsupportedRegimeError as exc:
        sys.stdout.write(canonical_json({"error": "unsupported-regime", "detail": str(exc)}))
        return 4
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
