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
from scipy.stats import ks_2samp

from .asymptotics import (
    REGIME_SPARSE_NORMAL,
    REGIME_SPARSE_SLOW,
    REGIME_STANDARD,
    LimitLaw,
    penalty_regime,
    sample_limit_argmin,
)
from .contrast import Contrast
from .errors import InvalidInputError, InvalidSpecError
from .model import Dataset, DesignSpec, NoiseSpec, TrueParameter, generate_design, gram, simulate_responses
from .penalty import PenaltySpec
from .solver import Box, DesignFactor, EstimateResult, SolverOptions, minimize
from .util import (boundedness_verdict, derive_seed, derived_seeds, fit_line, require_finite, row_squares,
                   seeded_generators)

BOOTSTRAP_RESAMPLES = 200
INFORMATIVE_COUNT = 10  # p_hat >= INFORMATIVE_COUNT / R marks the informative tail range


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
        if self.design.p != self.truth.p:
            raise InvalidSpecError("design and truth dimensions differ")
        if self.box.p != self.truth.p:
            raise InvalidSpecError("box and truth dimensions differ")
        _check_moment_orders(self.moment_orders)


def _check_moment_orders(orders) -> tuple[float, ...]:
    """Orders in (0, 8]: |u|^q at an exact zero is 1 for q = 0, inf for q < 0; q > 8 is unreliable."""
    orders = tuple(orders)
    if not all(0.0 < q <= 8.0 for q in orders):
        raise InvalidInputError(f"moment_orders: every order must lie in (0, 8], got {orders}")
    return orders


@dataclass
class ReplicationSet:
    """A campaign's results: per n, arrays in rep order (R rows each)."""

    config: MCConfig
    seeds: dict[int, np.ndarray]  # (R,) uint64 replication seeds
    theta_hat: dict[int, np.ndarray]  # (R, p) estimates
    objective: dict[int, np.ndarray]  # (R,)
    converged: dict[int, np.ndarray]  # (R,) bool
    C0: np.ndarray
    c0_source: str
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


def limit_c0(cfg: MCConfig, X_largest: np.ndarray | None = None) -> tuple[np.ndarray, str]:
    """C0 of the limit laws and its source: the identity for
    standardized-orthonormal designs, else the Gram matrix of the design at
    the largest n (built from the config unless given)."""
    if cfg.design.kind == "standardized-orthonormal":
        return np.eye(cfg.truth.p), "standardized-identity"
    if X_largest is None:
        n_max = cfg.n_grid[-1]
        X_largest = generate_design(cfg.design, n_max, design_seed(cfg.master_seed, n_max))
    return gram(X_largest, (cfg.truth.p0, cfg.truth.p1)).C_n, "empirical-largest-n"


def _solve_one(cfg: MCConfig, X: np.ndarray, n: int, rep: int, factor, seed: int,
               rng: np.random.Generator) -> tuple[int, EstimateResult]:  # rng = default_rng(seed)
    Y = simulate_responses(X, cfg.truth, cfg.noise, rng)
    ds = Dataset(X=X, Y=Y, truth=cfg.truth, n=n)
    return seed, minimize(Contrast(dataset=ds, penalty=cfg.penalty), cfg.box, cfg.solver, factor)


def _solve_block(task) -> list[tuple[int, EstimateResult]]:
    cfg, X, n, lo, hi = task
    factor = DesignFactor(X)  # X'X and pinv once per task, shared by its fits
    seeded = seeded_generators(derived_seeds((cfg.master_seed, n), range(lo, hi)))  # one hash pass
    return [_solve_one(cfg, X, n, rep, factor, seed, rng)
            for rep, (seed, rng) in zip(range(lo, hi), seeded)]


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
    block = max(1, math.ceil(R / (workers * 4)))
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

    C0, c0_source = limit_c0(cfg, designs[cfg.n_grid[-1]])
    rs = ReplicationSet(config=cfg, seeds={}, theta_hat={}, objective={}, converged={},
                        C0=C0, c0_source=c0_source)
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


@dataclass
class TailCurve:
    n: int
    r: np.ndarray
    p_hat: np.ndarray
    se: np.ndarray
    censored: np.ndarray
    rl: dict[float, np.ndarray]
    slope: float | None
    note: str = ""


@dataclass
class TailReport:
    curves: list[TailCurve]
    orders: tuple[float, ...]
    cutoff: float


def survival_curve(values: np.ndarray, r_grid) -> tuple[np.ndarray, np.ndarray]:
    """Empirical survival P(value >= r) with binomial standard errors."""
    values = np.asarray(values, dtype=float)
    r = np.asarray(r_grid, dtype=float)
    R = values.size
    p_hat = np.mean(values[:, None] >= r[None, :], axis=0)
    se = np.sqrt(p_hat * (1.0 - p_hat) / R)
    return p_hat, se


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


def tail_curve(rs: ReplicationSet, r_grid=None, tail_orders=None) -> TailReport:
    """Per-n empirical survival of |u_hat| = |sqrt(n) z_hat| with r^L overlays.

    p_hat values below INFORMATIVE_COUNT/R are still reported but censored for
    slope fitting; an all-zero sample is the strongest possible tail verdict
    and leaves the slope undefined.
    """
    cfg = rs.config
    r = np.asarray(r_grid if r_grid is not None else cfg.r_grid, dtype=float)
    orders = tuple(tail_orders if tail_orders is not None else cfg.tail_orders)
    cutoff = INFORMATIVE_COUNT / cfg.replications
    curves = []
    for n in cfg.n_grid:
        norms = rs.u_norms(n)
        p_hat, se = survival_curve(norms, r)
        if np.any(np.diff(p_hat) > 0.0):
            raise RuntimeError("survival function must be non-increasing")
        rl = {L: r ** L * p_hat for L in orders}
        slope, note = fit_tail_slope(r, p_hat, cutoff)
        curves.append(TailCurve(n=n, r=r, p_hat=p_hat, se=se,
                                censored=p_hat < cutoff, rl=rl, slope=slope, note=note))
    return TailReport(curves=curves, orders=orders, cutoff=cutoff)


def pldi_probe(report: TailReport) -> dict:
    """Uniform-in-n surrogate: per order L, the max of r^L p_hat over the
    informative range must not grow monotonically by more than x2 along n."""
    out = {}
    for L in report.orders:
        per_n = []
        for curve in report.curves:
            informative = ~curve.censored
            vals = curve.rl[L][informative]
            per_n.append(float(np.max(vals)) if vals.size else 0.0)
        seq = np.asarray(per_n)
        out[L] = {
            "per_n": per_n,
            "max": float(np.max(seq)) if seq.size else 0.0,
            "verdict": boundedness_verdict(seq),
        }
    return out


# ---------------------------------------------------------------------------
# Selection frequencies and moments
# ---------------------------------------------------------------------------


@dataclass
class SelectionCurve:
    n_grid: tuple[int, ...]
    frequency: np.ndarray
    se: np.ndarray
    per_coordinate: np.ndarray  # len(n_grid) x p0


def sparsity_curve(rs: ReplicationSet) -> SelectionCurve:
    """Frequency of the exact event {every zero-block coordinate == 0} per n."""
    cfg = rs.config
    if cfg.truth.p0 < 1:
        raise InvalidInputError("selection frequencies need a nonempty zero block")
    freqs, ses, per_coord = [], [], []
    R = cfg.replications
    for n in cfg.n_grid:
        flags = rs.zero_flags(n)
        p = float(np.mean(np.all(flags, axis=1)))
        freqs.append(p)
        ses.append(math.sqrt(p * (1.0 - p) / R))
        per_coord.append(np.mean(flags, axis=0))
    return SelectionCurve(n_grid=cfg.n_grid, frequency=np.asarray(freqs),
                          se=np.asarray(ses), per_coordinate=np.stack(per_coord))


@dataclass
class MomentTrajectory:
    order: float
    n_grid: tuple[int, ...]
    u_moment: np.ndarray
    u_se: np.ndarray
    v_moment: np.ndarray
    v_se: np.ndarray
    u_verdict: str
    v_verdict: str


def _bootstrap_se(values: np.ndarray, rng: np.random.Generator) -> float:
    R = values.size
    idx = rng.integers(0, R, size=(BOOTSTRAP_RESAMPLES, R))
    means = values[idx].mean(axis=1)
    return float(np.std(means, ddof=1))


def moment_trajectory(rs: ReplicationSet, orders=None) -> list[MomentTrajectory]:
    """E|u|^q and E|v|^q along the n-grid with bootstrap standard errors.

    The boundedness verdict flags a trajectory only when it grows monotonically
    by more than x2 across the grid; shrinking trajectories are bounded.
    """
    cfg = rs.config
    orders = _check_moment_orders(cfg.moment_orders if orders is None else orders)
    out = []
    for qi, q in enumerate(orders):
        u_m, u_s, v_m, v_s = [], [], [], []
        for n in cfg.n_grid:
            rng = np.random.default_rng(derive_seed(cfg.master_seed, 946, n, qi))
            u = rs.u_norms(n) ** q
            v = rs.v_norms(n) ** q
            u_m.append(float(np.mean(u)))
            v_m.append(float(np.mean(v)))
            u_s.append(_bootstrap_se(u, rng))
            v_s.append(_bootstrap_se(v, rng))
        out.append(MomentTrajectory(
            order=q, n_grid=cfg.n_grid,
            u_moment=np.asarray(u_m), u_se=np.asarray(u_s),
            v_moment=np.asarray(v_m), v_se=np.asarray(v_s),
            u_verdict=boundedness_verdict(u_m),
            v_verdict=boundedness_verdict(v_m),
        ))
    return out


# ---------------------------------------------------------------------------
# Limit-law distances
# ---------------------------------------------------------------------------


def compare_to_limit(rs: ReplicationSet, law: LimitLaw, limit_samples=None) -> dict:
    """Distance report between the scaled estimates and the limit law.

    sparse-normal: mean gap in SE units and relative covariance gap;
    standard: per-margin ECDF sup-distance against argmin samples of matched R;
    sparse-slow: location-only check of (n/lambda_n)(rho_hat - rho0);
    pseudo-true: distance to the pseudo-true point plus exact-zero frequency.
    Refuses a law whose regime does not match the campaign's.
    """
    cfg = rs.config
    _, regime = penalty_regime(cfg.penalty)
    if regime.tag != law.regime.tag:
        raise InvalidInputError(
            f"campaign regime {regime.tag} does not match law regime {law.regime.tag}")
    report = {"regime": law.regime.tag, "per_n": {}}
    R = cfg.replications

    if law.regime.tag == REGIME_SPARSE_NORMAL:
        bias = np.asarray(law.bias, dtype=float)
        cov = np.asarray(law.cov, dtype=float)
        for n in cfg.n_grid:
            V = rs.v_hat(n)
            mean = V.mean(axis=0)
            se = V.std(axis=0, ddof=1) / math.sqrt(R)
            gap = np.where(se > 0.0, np.abs(mean - bias) / np.where(se > 0, se, 1.0), np.abs(mean - bias))
            emp_cov = np.atleast_2d(np.cov(V.T))
            denom = float(np.linalg.norm(cov))
            if denom > 0.0:
                cov_gap = float(np.linalg.norm(emp_cov - cov)) / denom
            else:
                cov_gap = 0.0 if float(np.linalg.norm(emp_cov)) == 0.0 else math.inf
            report["per_n"][n] = {
                "mean": mean.tolist(),
                "limit_mean": bias.tolist(),
                "mean_gap_in_se": gap.tolist(),
                "cov_rel_gap": cov_gap,
                "emp_cov": emp_cov.tolist(),
                "limit_cov": cov.tolist(),
            }
        return report

    if law.regime.tag == REGIME_STANDARD:
        for n in cfg.n_grid:
            scaled = np.hstack([rs.u_hat(n), rs.v_hat(n)])
            if limit_samples is None:
                draws = sample_limit_argmin(law, R=scaled.shape[0],
                                            seed=derive_seed(cfg.master_seed, 777, n))
            else:
                draws = np.asarray(limit_samples, dtype=float)
            ks = [float(ks_2samp(scaled[:, j], draws[:, j]).statistic)
                  for j in range(scaled.shape[1])]
            report["per_n"][n] = {
                "ks_per_margin": ks,
                "emp_moment2": np.mean(np.sum(scaled ** 2, axis=1)).tolist(),
                "limit_moment2": np.mean(np.sum(draws ** 2, axis=1)).tolist(),
            }
        return report

    if law.regime.tag == REGIME_SPARSE_SLOW:
        drift = np.asarray(law.drift, dtype=float)
        sch = cfg.penalty.schedule
        for n in cfg.n_grid:
            lam_n = sch.value(n)
            Vn = (n / lam_n) * (rs.theta_hat[n][:, cfg.truth.p0:] - cfg.truth.rho0_array)
            mean = Vn.mean(axis=0)
            se = Vn.std(axis=0, ddof=1) / math.sqrt(R)
            gap = np.abs(mean - drift) / np.where(se > 0, se, 1.0)
            report["per_n"][n] = {
                "mean": mean.tolist(),
                "limit_drift": drift.tolist(),
                "mean_gap_in_se": gap.tolist(),
            }
        return report

    # pseudo-true
    point = np.asarray(law.pseudo_true_point, dtype=float)
    zero_idx = np.flatnonzero(law.pseudo_zero_flags)
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
