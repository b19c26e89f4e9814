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
from .asymptotics import v0_on_points  # noqa: F401  (perfbench/oracles.py imports it; nothing in src/ calls it)
from .errors import InvalidInputError, InvalidSpecError
from .model import DesignSpec, NoiseSpec, TrueParameter, draw_noise, generate_design, gram
from .model import simulate_responses  # noqa: F401  (perfbench/tracer.py wraps montecarlo.simulate_responses)
from .penalty import PenaltySpec
from .solver import Box, SolverOptions, minimize_block
from .solver import minimize  # noqa: F401  (perfbench/tracer.py wraps montecarlo.minimize; ROADMAP item 1)
from .util import (boundedness_verdict, derive_seed, derived_seeds, require_finite,
                   row_squares, seeded_generators)

INFORMATIVE_COUNT = 10  # p_hat >= INFORMATIVE_COUNT / R marks the informative tail range
_TASK_VALUES = 2 ** 17  # most response values (fits x n) a task holds until its fits are scored


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
        if not 0 <= self.master_seed < 2 ** 64:  # derive_seed would wrap it modulo 2**64
            raise InvalidSpecError(f"seed: must lie in [0, 2**64), got {self.master_seed}")
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
    the three). The one check of C0: an explicit matrix whose C0 is not finite
    or has rank below p at `matrix_rank`'s cut (smallest eigenvalue <= p eps
    times the largest) raises InvalidInputError naming [model] design_file; the
    other two kinds are positive definite by construction."""
    spec, p = cfg.design, cfg.truth.p
    if spec.kind == "standardized-orthonormal":
        return np.eye(p)
    if spec.kind == "bounded-random-frozen":
        return np.eye(p) * (spec.bound * spec.bound / (3 * p))
    with np.errstate(over="ignore", invalid="ignore"):  # a C0 that overflows has nan eigenvalues
        C0 = gram(np.asarray(spec.matrix, dtype=float), (cfg.truth.p0, cfg.truth.p1)).C_n
    eig = np.linalg.eigvalsh(C0)
    if not eig[0] > p * np.finfo(float).eps * eig[-1]:
        raise InvalidInputError(f"[model] design_file: C0 = X'X/n has eigenvalues {eig[0]:.3g} to {eig[-1]:.3g}: "
                                f"not finite or of rank below p = {p}, and the limit laws need it positive definite")
    return C0


def config_law(cfg: MCConfig) -> LimitLaw:
    """The limit law of the config's penalty, noise and truth at C0 = limit_c0(cfg):
    the one builder of a config's law."""
    return limit_law(penalty_gamma(cfg.penalty), cfg.penalty.schedule, cfg.noise.sigma ** 2, limit_c0(cfg),
                     cfg.truth.theta, cfg.truth.p0, box=cfg.box)


def _solve_one(cfg: MCConfig, row: np.ndarray, n: int, rep: int, rng: np.random.Generator) -> None:
    """Replication rep's noise, drawn from rng (in the state default_rng of the
    rep's seed starts in) into its row of its block, as `simulate_responses`
    draws it (perfbench/tracer.py times it as the replication)."""
    row[:] = draw_noise(cfg.noise, n, rng)


def _solve_block(task) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """A task's fits as one `minimize_block` call: (seeds, theta_hat, objective, converged)
    in rep order. Each rep's Y row has the bits of its own `simulate_responses` call."""
    cfg, X, n, lo, hi = task
    seeds = derived_seeds((cfg.master_seed, n), range(lo, hi))  # one hash pass
    E = np.empty((hi - lo, n))
    for row, rep, (_, rng) in zip(E, range(lo, hi), seeded_generators(seeds)):
        _solve_one(cfg, row, n, rep, rng)
    with np.errstate(over="ignore"):  # an overflowing truth gives inf, which minimize_block refuses
        Y = np.add(X @ cfg.truth.theta, E, out=E)
    return (seeds, *minimize_block(X, Y, cfg.penalty, n, cfg.box, cfg.solver)[:3])


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
    block = {n: max(1, min(math.ceil(R / workers), _TASK_VALUES // n)) for n in cfg.n_grid}
    tasks = [(cfg, designs[n], n, lo, min(lo + block[n], R))
             for n in cfg.n_grid for lo in range(0, R, block[n])]
    workers = min(workers, len(tasks))
    if workers == 1:
        blocks = list(map(_solve_block, tasks))
    else:
        from concurrent.futures import ProcessPoolExecutor  # multiprocessing costs ~11 ms to import
        with ProcessPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(_solve_block, tasks))
    rs = ReplicationSet(config=cfg, seeds={}, theta_hat={}, objective={}, converged={})
    for n in cfg.n_grid:
        parts = [block for task, block in zip(tasks, blocks) if task[2] == n]
        rs.seeds[n], rs.theta_hat[n], rs.objective[n], rs.converged[n] = map(np.concatenate, zip(*parts))
        if rs.seeds[n].size != R:
            raise RuntimeError("replication results are incomplete")
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


def compare_to_limit(rs: ReplicationSet) -> dict:
    """Distance report between the scaled estimates and the limit law of the
    campaign's config (`config_law`).

    sparse-normal: mean gap in SE units and relative covariance gap;
    standard: per-margin ECDF sup-distance against argmin samples of matched R;
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
            draws = sample_limit_argmin(law, R=scaled.shape[0], seed=derive_seed(cfg.master_seed, 777, n))
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
