"""Replication engine and statistical verdicts: tail curves, selection
frequencies, moment trajectories, and distances to the limit laws.

The whole pipeline is a pure function of MCConfig: per-replication seeds are
derived from (master seed, n, rep), designs are frozen once per n, and
aggregation runs in (n, rep) order regardless of worker scheduling, so results
are bit-identical across serial and parallel execution.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .asymptotics import (
    REGIME_SPARSE_NORMAL,
    REGIME_SPARSE_SLOW,
    REGIME_STANDARD,
    LimitLaw,
    limit_law,
    penalty_gamma,
    sample_limit_argmin,
)
from .contrast import Contrast
from .errors import InvalidInputError, InvalidSpecError
from .model import Dataset, DesignSpec, NoiseSpec, TrueParameter, generate_design, gram, simulate_responses
from .penalty import PenaltySpec
from .solver import Box, DesignFactor, EstimateResult, SolverOptions, minimize_block
from .solver import minimize  # noqa: F401  (perfbench/tracer.py wraps montecarlo.minimize; ROADMAP item 1)
from .util import (boundedness_verdict, derive_seed, derived_seeds, fit_line, require_finite,
                   row_squares, seeded_generators)

INFORMATIVE_COUNT = 10  # p_hat >= INFORMATIVE_COUNT / R marks the informative tail range
_BLOCKS_PER_WORKER = 4  # tasks per worker and n; a task's fits run as one kernel call
_BLOCK_FITS = 256  # most fits a task holds: their responses stay in memory until they are scored


@dataclass(frozen=True)
class MCConfig:
    """Everything a campaign needs; hashable so configs can be echoed and compared."""

    design: DesignSpec
    noise: NoiseSpec
    truth: TrueParameter
    penalty: PenaltySpec
    n_grid: tuple[int, ...]
    replications: int
    master_seed: int
    box: Box
    solver: SolverOptions = SolverOptions()
    r_grid: tuple[float, ...] = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
    moment_orders: tuple[float, ...] = (2.0, 4.0)
    tail_orders: tuple[float, ...] = (2.0, 4.0)

    def __post_init__(self):
        if self.replications < 100:
            raise InvalidSpecError("need at least 100 replications per n")
        if len(self.n_grid) < 1 or any(b <= a for a, b in zip(self.n_grid, self.n_grid[1:])):
            raise InvalidSpecError("n_grid: must be nonempty and strictly increasing")
        if any(n < self.truth.p for n in self.n_grid):
            raise InvalidSpecError("n_grid: every n must be >= p")
        if any(r <= 0 for r in self.r_grid) or any(b <= a for a, b in zip(self.r_grid, self.r_grid[1:])):
            raise InvalidSpecError("r-grid must be positive and strictly increasing")
        require_finite(r_grid=self.r_grid, tail_orders=self.tail_orders)
        with np.errstate(over="ignore"):  # tail.csv and pldi_probe print r^L p_hat
            overflowing = [(r, L) for L in self.tail_orders for r in self.r_grid if np.isinf(np.power(r, L))]
        if overflowing:
            r, L = overflowing[0]
            raise InvalidSpecError(f"tail_orders: r**L overflows at r={r:g} of r_grid and L={L:g}")
        if self.design.p != self.truth.p:
            raise InvalidSpecError("design and truth dimensions differ")
        if self.box.p != self.truth.p:
            raise InvalidSpecError("box and truth dimensions differ")
        # |u|^q at an exact zero is 1 for q = 0 and inf for q < 0; q > 8 is unreliable
        if not all(0.0 < q <= 8.0 for q in self.moment_orders):
            raise InvalidInputError(
                f"moment_orders: every order must lie in (0, 8], got {self.moment_orders}")


@dataclass
class ReplicationSet:
    """A campaign's results: per n, arrays in rep order (R rows each)."""

    config: MCConfig
    seeds: dict[int, np.ndarray]  # (R,) uint64 replication seeds
    theta_hat: dict[int, np.ndarray]  # (R, p) estimates
    objective: dict[int, np.ndarray]  # (R,)
    converged: dict[int, np.ndarray]  # (R,) bool
    warnings: list[str] = field(default_factory=list)

    def zero_flags(self, n: int) -> np.ndarray:
        """(R, p0): which zero-block coordinates are exactly 0."""
        return self.theta_hat[n][:, :self.config.truth.p0] == 0.0

    def u_hat(self, n: int) -> np.ndarray:
        """(R, p0): sqrt(n) * zero-block estimate."""
        return math.sqrt(n) * self.theta_hat[n][:, :self.config.truth.p0]

    def v_hat(self, n: int) -> np.ndarray:
        """(R, p1): sqrt(n) * (nonzero-block estimate - rho0)."""
        truth = self.config.truth
        return math.sqrt(n) * (self.theta_hat[n][:, truth.p0:] - truth.rho0_array)

    def u_norms(self, n: int) -> np.ndarray:
        return np.sqrt(row_squares(self.u_hat(n)))

    def v_norms(self, n: int) -> np.ndarray:
        return np.sqrt(row_squares(self.v_hat(n)))


def design_seed(master_seed: int, n: int) -> int:
    return derive_seed(master_seed, n)


def replication_seed(master_seed: int, n: int, rep: int) -> int:
    return derive_seed(master_seed, n, rep)


C0_SOURCES = {"standardized-orthonormal": "standardized-identity",
              "bounded-random-frozen": "uniform-second-moment",
              "explicit-matrix": "empirical-largest-n"}  # design kind -> how limit_c0 gets C0


def limit_c0(cfg: MCConfig) -> np.ndarray:
    """C0 = lim X'X/n of the limit laws, from the design spec alone: the identity
    for standardized-orthonormal designs, E[xx'] = (bound^2 / 3p) I for
    bounded-random-frozen ones (iid U(+-bound/sqrt(p)) entries), and the Gram
    matrix of an explicit matrix, whose one n is the largest (C0_SOURCES labels
    the three)."""
    spec, p = cfg.design, cfg.truth.p
    if spec.kind == "standardized-orthonormal":
        return np.eye(p)
    if spec.kind == "bounded-random-frozen":
        return np.eye(p) * (spec.bound * spec.bound / (3 * p))
    X = np.asarray(spec.matrix, dtype=float)
    return gram(X, (cfg.truth.p0, cfg.truth.p1)).C_n


def config_law(cfg: MCConfig) -> LimitLaw:
    """The limit law of the config's penalty, noise and truth at C0 = limit_c0(cfg):
    the one builder of a config's law."""
    return limit_law(penalty_gamma(cfg.penalty), cfg.penalty.schedule, cfg.noise.sigma ** 2, limit_c0(cfg),
                     cfg.truth.theta, cfg.truth.p0, box=cfg.box)


def _solve_one(cfg: MCConfig, X: np.ndarray, n: int, rep: int, seed: int,
               rng: np.random.Generator) -> tuple[int, Contrast]:  # rng = default_rng(seed)
    """One replication's contrast, its responses drawn from rng, for its block's
    `minimize_block` call (perfbench/tracer.py times it as the replication)."""
    Y = simulate_responses(X, cfg.truth, cfg.noise, rng)
    return seed, Contrast(dataset=Dataset(X=X, Y=Y, truth=cfg.truth, n=n), penalty=cfg.penalty)


def _solve_block(task) -> list[tuple[int, EstimateResult]]:
    cfg, X, n, lo, hi = task
    seeded = seeded_generators(derived_seeds((cfg.master_seed, n), range(lo, hi)))  # one hash pass
    seeds, contrasts = zip(*(_solve_one(cfg, X, n, rep, seed, rng)
                             for rep, (seed, rng) in zip(range(lo, hi), seeded)))
    # X'X and pinv once per task, and one kernel call for all of its fits
    return list(zip(seeds, minimize_block(list(contrasts), cfg.box, cfg.solver, DesignFactor(X))))


def run_replications(cfg: MCConfig, threads: int = 1) -> ReplicationSet:
    """Run the campaign; results are complete (non-converged solves are kept
    and flagged, never dropped) and independent of worker scheduling. Uses
    min(threads, CPUs, tasks) worker processes, threads = 0 meaning 8."""
    if threads < 0:
        raise InvalidInputError("threads must be >= 0 (0 means auto)")
    workers = min(threads or 8, os.cpu_count() or 1)  # the pool forks every worker up front

    try:
        designs = {n: generate_design(cfg.design, n, design_seed(cfg.master_seed, n))
                   for n in cfg.n_grid}
    except Exception as exc:
        raise InvalidInputError(
            f"dataset generation failed ({exc}); config: design={cfg.design}, "
            f"truth={cfg.truth}, n_grid={cfg.n_grid}, seed={cfg.master_seed}") from exc
    R = cfg.replications
    block = max(1, min(_BLOCK_FITS, math.ceil(R / (workers * _BLOCKS_PER_WORKER))))
    tasks = [(cfg, designs[n], n, lo, min(lo + block, R))
             for n in cfg.n_grid for lo in range(0, R, block)]
    workers = min(workers, len(tasks))
    if workers == 1:
        blocks = list(map(_solve_block, tasks))
    else:
        from concurrent.futures import ProcessPoolExecutor  # multiprocessing costs ~11 ms to import
        with ProcessPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(_solve_block, tasks))
    solved = [out for chunk in blocks for out in chunk]
    if len(solved) != len(cfg.n_grid) * R:
        raise RuntimeError("replication results are incomplete")

    rs = ReplicationSet(config=cfg, seeds={}, theta_hat={}, objective={}, converged={})
    for i, n in enumerate(cfg.n_grid):
        seeds, fits = zip(*solved[i * R:(i + 1) * R])
        rs.seeds[n] = np.array(seeds, dtype=np.uint64)
        rs.theta_hat[n] = np.stack([f.theta_hat for f in fits])
        rs.objective[n] = np.array([f.objective for f in fits])
        rs.converged[n] = np.array([f.converged for f in fits])
        bad = R - int(np.count_nonzero(rs.converged[n]))
        if bad > 0.01 * R:
            rs.warnings.append(f"{bad} of {R} solves did not stabilize at n={n}")
        touching = int(np.count_nonzero(cfg.box.on_boundary(rs.theta_hat[n])))
        if touching:
            rs.warnings.append(
                f"{touching} estimates touch the box boundary at n={n}; "
                "the box, not the model, may be binding")
    return rs


# ---------------------------------------------------------------------------
# Tail curves
# ---------------------------------------------------------------------------


def survival_curve(values: np.ndarray, r_grid) -> np.ndarray:
    """Empirical survival P(value >= r) on r_grid."""
    values = np.asarray(values, dtype=float)
    return np.mean(values[:, None] >= np.asarray(r_grid, dtype=float)[None, :], axis=0)


def fit_tail_slope(r, p_hat, cutoff: float) -> tuple[float | None, str]:
    """Least-squares slope of log p_hat on log r over the informative range."""
    r = np.asarray(r, dtype=float)
    p_hat = np.asarray(p_hat, dtype=float)
    mask = p_hat >= cutoff
    fit = fit_line(np.log(r[mask]), np.log(p_hat[mask]))
    if fit is None:
        if np.all(p_hat == 0.0):
            return None, "all mass at 0"
        return None, "informative range too short for a slope fit"
    return fit[0], ""


def tail_curve(rs: ReplicationSet) -> np.ndarray:
    """Survival p_hat = P(|u_hat| >= r) of |u_hat| = |sqrt(n) z_hat|, one row per n of
    cfg.n_grid and one column per r of cfg.r_grid. Its binomial SEs and r^L overlays
    are derived from it where they are used (tail.csv, pldi_probe)."""
    cfg = rs.config
    p_hat = np.array([survival_curve(rs.u_norms(n), cfg.r_grid) for n in cfg.n_grid])
    if np.any(np.diff(p_hat, axis=1) > 0.0):
        raise RuntimeError("survival function must be non-increasing")
    return p_hat


def order_label(q: float) -> str:
    """The text of a moment or tail order: its key in summary.json and its tail.csv column suffix."""
    return f"{q:g}"


def pldi_probe(cfg: MCConfig, p_hat: np.ndarray) -> dict:
    """Uniform-in-n surrogate: per order L of cfg.tail_orders, the max of r^L p_hat
    over the informative range p_hat >= INFORMATIVE_COUNT/R (0 where that range
    is empty) must not grow monotonically by more than x2 along n. Keyed by
    order_label(L), as summary.json's pldi_probe block."""
    r = np.asarray(cfg.r_grid, dtype=float)
    informative = p_hat >= INFORMATIVE_COUNT / cfg.replications
    out = {}
    for L in cfg.tail_orders:
        per_n = [float(np.max(row[mask])) if mask.any() else 0.0
                 for row, mask in zip(r ** L * p_hat, informative)]
        out[order_label(L)] = {"per_n": per_n, "max": max(per_n), "verdict": boundedness_verdict(per_n)}
    return out


# ---------------------------------------------------------------------------
# Selection frequencies and moments
# ---------------------------------------------------------------------------


def _mean_se(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column means of R rows and their plug-in standard errors s/sqrt(R)."""
    return values.mean(axis=0), values.std(axis=0, ddof=1) / math.sqrt(len(values))


def _gap_in_se(values: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column means of R rows and their distance to target in plug-in SEs
    (in raw units for a column whose SE is 0)."""
    mean, se = _mean_se(values)
    return mean, np.abs(mean - target) / np.where(se > 0.0, se, 1.0)


def sparsity_curve(rs: ReplicationSet) -> dict:
    """Frequency of the exact event {every zero-block coordinate == 0} per n,
    its binomial SE and each coordinate's own zero frequency, keyed by str(n)
    as summary.json's selection_frequency block."""
    cfg = rs.config
    if cfg.truth.p0 < 1:
        raise InvalidInputError("selection frequencies need a nonempty zero block")
    out = {}
    for n in cfg.n_grid:
        flags = rs.zero_flags(n)
        p = float(np.mean(np.all(flags, axis=1)))
        out[str(n)] = {"frequency": p, "se": math.sqrt(p * (1.0 - p) / cfg.replications),
                       "per_coordinate": np.mean(flags, axis=0).tolist()}
    return out


def moment_trajectory(rs: ReplicationSet) -> dict:
    """E|u|^q and E|v|^q along the n-grid for q in cfg.moment_orders, with
    plug-in standard errors s/sqrt(R) of the means, keyed by order_label(q)
    as summary.json's moments block.

    The boundedness verdict flags a trajectory only when it grows monotonically
    by more than x2 across the grid; shrinking trajectories are bounded.
    """
    cfg = rs.config
    out = {}
    for q in cfg.moment_orders:
        entry = {"n_grid": list(cfg.n_grid)}
        for side, norms in (("u", rs.u_norms), ("v", rs.v_norms)):
            with np.errstate(over="ignore", invalid="ignore"):
                moment, se = np.array([_mean_se(norms(n) ** q) for n in cfg.n_grid]).T
            bad = ~(np.isfinite(moment) & np.isfinite(se))
            if bad.any():
                n = cfg.n_grid[int(np.argmax(bad))]
                raise InvalidInputError(f"the campaign moment E|{side}|^{order_label(q)} or its SE overflows "
                                        f"at n={n}: {moment[bad][0]} (SE {se[bad][0]})")
            entry.update({f"{side}_moment": moment.tolist(), f"{side}_se": se.tolist(),
                          f"{side}_verdict": boundedness_verdict(moment)})
        out[order_label(q)] = entry
    return out


# ---------------------------------------------------------------------------
# Limit-law distances
# ---------------------------------------------------------------------------


def _ks_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov distance sup |F_a - F_b| with the bits of scipy's
    `ks_2samp(a, b).statistic`: with at most 10,000 points a side, scipy's exact mode
    rounds it to the nearest multiple of 1/lcm(len(a), len(b))."""
    a, b = np.sort(a), np.sort(b)
    n1, n2 = len(a), len(b)
    points = np.concatenate([a, b])
    d = float(np.abs(np.searchsorted(a, points, side="right") / n1
                     - np.searchsorted(b, points, side="right") / n2).max())
    if max(n1, n2) <= 10_000:
        lcm = n1 // math.gcd(n1, n2) * n2
        d = round(d * lcm) / lcm
    return d


def compare_to_limit(rs: ReplicationSet, *, limit_samples=None) -> dict:
    """Distance report between the scaled estimates and the limit law of the
    campaign's config (`config_law`).

    sparse-normal: mean gap in SE units and relative covariance gap;
    standard: per-margin ECDF sup-distance against argmin samples of matched R
    (or against `limit_samples`);
    sparse-slow: location-only check of (n/lambda_n)(rho_hat - rho0);
    pseudo-true: distance to the pseudo-true point plus exact-zero frequency.
    """
    cfg = rs.config
    law = config_law(cfg)
    tag, params = law.regime["tag"], law.params
    report = {"regime": tag, "per_n": {}}

    if tag == REGIME_SPARSE_NORMAL:
        bias, cov = params["bias"], params["cov"]
        # the norms are taken at the scale of cov (an exact power of two), where their squares stay finite
        scale = -int(np.frexp(np.max(np.abs(cov)))[1])
        for n in cfg.n_grid:
            V = rs.v_hat(n)
            mean, gap = _gap_in_se(V, bias)
            emp_cov = np.atleast_2d(np.cov(V.T))
            emp, lim = np.ldexp(emp_cov, scale), np.ldexp(cov, scale)
            denom = float(np.linalg.norm(lim))
            if denom > 0.0:
                cov_gap = float(np.linalg.norm(emp - lim)) / denom
            else:
                cov_gap = 0.0 if float(np.linalg.norm(emp)) == 0.0 else math.inf
            report["per_n"][n] = {
                "mean": mean.tolist(),
                "limit_mean": bias.tolist(),
                "mean_gap_in_se": gap.tolist(),
                "cov_rel_gap": cov_gap,
                "emp_cov": emp_cov.tolist(),
                "limit_cov": cov.tolist(),
            }
        return report

    if tag == REGIME_STANDARD:
        for n in cfg.n_grid:
            scaled = np.hstack([rs.u_hat(n), rs.v_hat(n)])
            if limit_samples is None:
                draws = sample_limit_argmin(law, R=scaled.shape[0],
                                            seed=derive_seed(cfg.master_seed, 777, n))
            else:
                draws = np.asarray(limit_samples, dtype=float)
            ks = [_ks_distance(scaled[:, j], draws[:, j]) for j in range(scaled.shape[1])]
            report["per_n"][n] = {
                "ks_per_margin": ks,
                "emp_moment2": np.mean(np.sum(scaled ** 2, axis=1)).tolist(),
                "limit_moment2": np.mean(np.sum(draws ** 2, axis=1)).tolist(),
            }
        return report

    if tag == REGIME_SPARSE_SLOW:
        drift = params["drift"]
        sch = cfg.penalty.schedule
        for n in cfg.n_grid:
            lam_n = sch.value(n)
            Vn = (n / lam_n) * (rs.theta_hat[n][:, cfg.truth.p0:] - cfg.truth.rho0_array)
            mean, gap = _gap_in_se(Vn, drift)
            report["per_n"][n] = {
                "mean": mean.tolist(),
                "limit_drift": drift.tolist(),
                "mean_gap_in_se": gap.tolist(),
            }
        return report

    # pseudo-true
    point = params["pseudo_true_point"]
    zero_idx = np.flatnonzero(params["pseudo_zero_flags"])
    for n in cfg.n_grid:
        thetas = rs.theta_hat[n]
        mean = thetas.mean(axis=0)
        entry = {
            "mean": mean.tolist(),
            "pseudo_true": point.tolist(),
            "mean_distance": float(np.linalg.norm(mean - point)),
        }
        if zero_idx.size:
            hits = np.all(thetas[:, zero_idx] == 0.0, axis=1)
            entry["pseudo_zero_frequency"] = float(np.mean(hits))
        else:
            entry["note"] = ("pseudo-true point has no exactly-zero coordinate; "
                             "sparse check skipped")
        report["per_n"][n] = entry
    return report
