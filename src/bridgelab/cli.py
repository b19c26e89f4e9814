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
from .asymptotics import REGIME_STANDARD, penalty_gamma, regime_classify, sample_limit_argmin
from .asymptotics import limit_law  # noqa: F401  (perfbench/tracer.py wraps cli.limit_law)
from .config import ExperimentConfig, check_design_grid, parse_config
from .contrast import Contrast
from .errors import ConfigError, InvalidInputError, InvalidSpecError, UnsupportedRegimeError
from .model import Dataset, generate_design, simulate_responses
from .model import gram  # noqa: F401  (perfbench/tracer.py wraps cli.gram)
from .montecarlo import (
    C0_SOURCES,
    compare_to_limit,
    config_law,
    design_seed,
    limit_c0,
    moment_trajectory,
    order_label,
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
    return regime_classify(penalty_gamma(pen), pen.schedule)


def cmd_estimate(ec: ExperimentConfig) -> int:
    mc = ec.mc
    n = ec.n_single
    X = generate_design(mc.design, n, design_seed(mc.master_seed, n))
    seed = replication_seed(mc.master_seed, n, 0)
    Y = ec.responses
    if Y is None:
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
    theta, p0 = res.theta_hat, mc.truth.p0
    payload = {
        "n": n,
        "seed": seed,
        "theta_hat": theta,
        "z_hat": theta[:p0],
        "rho_hat": theta[p0:],
        "exact_zero_flags": theta[:p0] == 0.0,
        "objective": res.objective,
        "converged": res.converged,
        "iterations": res.iterations,
        "restarts_used": res.restarts_used,
        "regime": regime,
        "warnings": warnings,
    }
    sys.stdout.write(canonical_json(payload))
    return 0


def _row_template(p: int, p0: int) -> str:
    """A replications.csv row (n, rep, seed, theta_hat, zero flags, objective, converged)
    as one %-template with `format_float`'s text: %d for ints and flags, %.17g for floats."""
    return ",".join(["%d"] * 3 + ["%.17g"] * p + ["%d"] * p0 + ["%.17g", "%d"])


def _write_replications_csv(path: str, rs) -> None:
    p = rs.config.truth.p
    p0 = rs.config.truth.p0
    header = (["n", "rep", "seed"]
              + [f"theta_hat_{j + 1}" for j in range(p)]
              + [f"zero_flag_{j + 1}" for j in range(p0)]
              + ["objective", "converged"])
    lines, template = [",".join(header)], _row_template(p, p0)
    for n in rs.config.n_grid:
        rows = zip(rs.seeds[n].tolist(), rs.theta_hat[n].tolist(), rs.zero_flags(n).tolist(),
                   rs.objective[n].tolist(), rs.converged[n].tolist())
        lines.extend(template % (n, rep, seed, *theta, *flags, obj, conv)
                     for rep, (seed, theta, flags, obj, conv) in enumerate(rows))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_tail_csv(path: str, cfg, p_hat: np.ndarray) -> None:
    """One row per (n, r): p_hat, its binomial SE and the overlay r^L p_hat per tail order L."""
    r = np.asarray(cfg.r_grid, dtype=float)
    se = np.sqrt(p_hat * (1.0 - p_hat) / cfg.replications)
    columns = [p_hat, se, *(r ** L * p_hat for L in cfg.tail_orders)]
    lines = [",".join(["n", "r", "p_hat", "se", *(f"rL_phat_L{order_label(L)}" for L in cfg.tail_orders)])]
    for i, n in enumerate(cfg.n_grid):
        for k, r_k in enumerate(r):
            lines.append(",".join([str(n), format_float(r_k), *(format_float(col[i, k]) for col in columns)]))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _summary_payload(ec: ExperimentConfig, rs, p_hat: np.ndarray) -> dict:
    mc = ec.mc
    summary: dict = {"config": ec.raw, "c0_source": C0_SOURCES[mc.design.kind], "warnings": list(rs.warnings)}

    if mc.truth.p0 >= 1:
        summary["selection_frequency"] = sparsity_curve(rs)
    else:
        summary["selection_frequency"] = {
            "note": "no zero block in the truth; selection frequencies undefined"}
    summary["moments"] = moment_trajectory(rs)
    summary["pldi_probe"] = pldi_probe(mc, p_hat)

    try:
        summary["limit_distance"] = compare_to_limit(rs)
    except (UnsupportedRegimeError, InvalidInputError) as exc:
        summary["limit_distance"] = {"note": str(exc)}
    return summary


def cmd_mc(ec: ExperimentConfig, out_dir: str, threads: int) -> int:
    rs = run_replications(ec.mc, threads=threads)
    p_hat = tail_curve(rs)
    summary = _summary_payload(ec, rs, p_hat)

    os.makedirs(out_dir, exist_ok=True)
    _write_replications_csv(os.path.join(out_dir, "replications.csv"), rs)
    _write_tail_csv(os.path.join(out_dir, "tail.csv"), ec.mc, p_hat)
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8", newline="") as fh:
        fh.write(canonical_json(summary))
    return 0


def cmd_check(ec: ExperimentConfig) -> int:
    mc = ec.mc
    pen = mc.penalty
    cs = ec.check
    penalty_block = {block["condition"]: block for block in (
        penalty_mod.check_divergence_condition(pen, cs.n_grid, cs.r_grid, p0=max(mc.truth.p0, 1)),
        *penalty_mod.check_smooth_conditions(pen, cs.n_grid, cs.a_probes, cs.b_probes, cs.beta))}

    design_block, design_conditions = {}, {}
    if mc.design.kind == "explicit-matrix":
        design_block["note"] = ("explicit-matrix designs are a single fixed n; "
                                "design-condition sequences need an n-grid")
    else:
        designs = [(n, generate_design(mc.design, n, design_seed(mc.master_seed, n)))
                   for n in check_design_grid(mc.n_grid)]
        design_block["c0_source"] = C0_SOURCES[mc.design.kind]
        design_conditions = model_mod.check_design_conditions(
            designs, limit_c0(mc), cs.delta, penalty_mod.default_divergence_scale(pen), (mc.truth.p0, mc.truth.p1))
    for block in (*penalty_block.values(), *design_conditions.values()):
        block["required_by"] = _REQUIRED_BY[block["condition"]]

    payload = {
        "penalty_conditions": penalty_block,
        "design_conditions": {**design_block, **design_conditions},
        "regime": _regime_payload(ec),
    }
    sys.stdout.write(canonical_json(payload))
    return 0


def cmd_limit(ec: ExperimentConfig) -> int:
    mc = ec.mc
    law = config_law(mc)
    payload: dict = {
        "regime": law.regime,
        "gamma": law.gamma,
        "sigma2": law.sigma2,
        "c0_source": C0_SOURCES[mc.design.kind],
        "rate_descriptors": law.rate_descriptors,
        **law.params,
    }
    if law.regime["tag"] == REGIME_STANDARD:
        samples = sample_limit_argmin(
            law, _LIMIT_SAMPLE_COUNT, seed=derive_seed(mc.master_seed, 777))
        with np.errstate(over="ignore", invalid="ignore"):
            squares = np.sum(samples ** 2, axis=1)
            stats = {"mean": samples.mean(axis=0), "cov": np.atleast_2d(np.cov(samples.T)),
                     "abs_moment_2": float(np.mean(squares)), "abs_moment_4": float(np.mean(squares ** 2))}
        overflowing = [key for key, value in stats.items() if not np.all(np.isfinite(value))]
        if overflowing:
            raise InvalidInputError(f"the limit argmin samples overflow their {', '.join(overflowing)} "
                                    f"(mean {stats['mean'].tolist()})")
        payload["argmin_samples"] = {"count": _LIMIT_SAMPLE_COUNT, **stats}
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
            if not 0 <= args.seed < 2 ** 64:
                raise ConfigError(f"--seed: must lie in [0, 2**64), got {args.seed}")
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
