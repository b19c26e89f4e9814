"""Linear-regression data generation: designs, noise, Gram blocks, design-condition checks.

Designs are frozen: a matrix is drawn once per (spec, n, seed) and reused
across Monte Carlo replications, so the design-side conditions are properties
of a fixed sequence, not of the noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, InvalidSpecError
from .penalty import CLAIM_JOINT, CLAIM_MOMENTS, CLAIM_TAIL, TuningSchedule
from .util import boundedness_verdict, default_rng, require_finite

DESIGN_KINDS = ("standardized-orthonormal", "explicit-matrix", "bounded-random-frozen")
NOISE_FAMILIES = ("gaussian", "scaled-uniform", "scaled-rademacher")

# Stable condition ids used in reports and cmd_check JSON.
COND_GRAM_RATE = "gram-convergence-rate"
COND_ROW_BOUND = "row-norm-bound"
COND_CROSS_SCALED = "cross-block-scaled"
COND_CROSS_ROOT_N = "cross-block-root-n"
COND_ZERO_GRAM = "zero-block-gram-limit"
COND_NONZERO_GRAM_RATE = "nonzero-block-gram-rate"


@dataclass(frozen=True)
class TrueParameter:
    """True coefficient vector split as (zero block, nonzero block).

    The zero block is identically 0 by construction; nonzero entries must
    clear the margin rho_min so the sparse-limit ingredients stay
    well-conditioned.
    """

    p0: int
    rho0: tuple[float, ...]
    rho_min: float = 0.5

    def __post_init__(self):
        if self.p0 < 0:
            raise InvalidSpecError("p0 must be >= 0")
        if len(self.rho0) < 1:
            raise InvalidSpecError("nonzero block must have at least one entry")
        if not (self.rho_min > 0.0):
            raise InvalidSpecError("rho_min must be positive")
        bad = [r for r in self.rho0 if abs(r) < self.rho_min]
        if bad:
            raise InvalidSpecError(
                f"nonzero-block entries {bad} fall below the margin rho_min={self.rho_min}")
        require_finite(rho0=self.rho0, rho_min=self.rho_min)

    @property
    def p1(self) -> int:
        return len(self.rho0)

    @property
    def p(self) -> int:
        return self.p0 + self.p1

    @property
    def theta(self) -> np.ndarray:
        return np.concatenate([np.zeros(self.p0), np.asarray(self.rho0, dtype=float)])

    @property
    def rho0_array(self) -> np.ndarray:
        return np.asarray(self.rho0, dtype=float)


@dataclass(frozen=True)
class DesignSpec:
    """How to realize an n x p design matrix.

    standardized-orthonormal: centered columns with C_n = I_p exactly (up to
    float), bounded-random-frozen: iid entries uniform on
    [-bound/sqrt(p), bound/sqrt(p)] so every row norm is <= bound,
    explicit-matrix: a user-supplied matrix.
    """

    kind: str
    p: int
    bound: float = 10.0
    matrix: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self):
        if self.kind not in DESIGN_KINDS:
            raise InvalidSpecError(f"unknown design kind {self.kind!r}")
        if self.p < 1:
            raise InvalidSpecError("design needs p >= 1")
        if not (self.bound > 0.0):
            raise InvalidSpecError("row bound must be positive")
        # C0 scales as bound^2, and the limit covariance sigma^2 C0^-1 as bound^-2, whose norm squares it
        require_finite(bound=self.bound, **{"bound^2": self.bound * self.bound,
                                            "bound^-4": 1.0 / self.bound / self.bound / self.bound / self.bound})
        if self.kind == "explicit-matrix":
            if self.matrix is None:
                raise InvalidSpecError("explicit-matrix design requires the matrix")
            widths = {len(row) for row in self.matrix}
            if widths != {self.p}:
                raise InvalidSpecError("explicit matrix rows must all have length p")


@dataclass(frozen=True)
class NoiseSpec:
    """Mean-zero noise with variance sigma^2 and all moments finite.

    Families are restricted to gaussian, a variance-calibrated uniform, and a
    scaled rademacher; heavy tails are rejected at spec level.
    """

    family: str
    sigma: float

    def __post_init__(self):
        if self.family not in NOISE_FAMILIES:
            raise InvalidSpecError(f"unknown noise family {self.family!r}")
        if not (self.sigma >= 0.0):
            raise InvalidSpecError("sigma must be >= 0")
        require_finite(sigma=self.sigma, **{"sigma^2": self.sigma * self.sigma})


@dataclass
class Dataset:
    """A frozen design with simulated responses and the generating truth."""

    X: np.ndarray
    Y: np.ndarray
    truth: TrueParameter
    n: int

    @property
    def p(self) -> int:
        return self.X.shape[1]


@dataclass
class GramReport:
    """C_n = n^-1 sum_i X_i X_i^T with its corner blocks and the cross term."""

    C_n: np.ndarray
    D_n: np.ndarray          # p0 x p0 upper-left block
    B_n: np.ndarray          # p1 x p1 bottom-right block
    cross: np.ndarray        # n^-1/2 sum_i outer(X_i^(z), X_i^(rho)), p0 x p1


def generate_design(spec: DesignSpec, n: int, seed: int) -> np.ndarray:
    """Realize the design matrix; deterministic given (spec, n, seed)."""
    if spec.kind == "explicit-matrix":
        X = np.asarray(spec.matrix, dtype=float)
        if X.shape[0] != n:
            raise InvalidInputError(
                f"explicit matrix has {X.shape[0]} rows but n={n} was requested")
        return X.copy()
    if n < spec.p:
        raise InvalidSpecError(
            f"cannot build a rank-p design with n={n} < p={spec.p}")
    half = spec.bound / math.sqrt(spec.p)
    if not math.isfinite(n * half * half):  # the bound on every diagonal entry of X'X
        raise InvalidSpecError(f"bound = {spec.bound} overflows X'X at n = {n}")
    rng = default_rng(seed)
    base = rng.uniform(-half, half, size=(n, spec.p))
    if spec.kind == "bounded-random-frozen":
        return base
    # standardized-orthonormal: center, then whiten so n^-1 X^T X = I_p.
    centered = base - base.mean(axis=0, keepdims=True)
    second = centered.T @ centered / n
    try:
        L = np.linalg.cholesky(second)
    except np.linalg.LinAlgError as exc:
        raise InvalidSpecError("draw produced a rank-deficient design; increase n") from exc
    return np.linalg.solve(L, centered.T).T


def simulate_responses(X: np.ndarray, truth: TrueParameter, noise: NoiseSpec,
                       seed: int | np.random.Generator) -> np.ndarray:
    """Y_i = theta0 . X_i + eps_i with iid noise; bit-identical given the seed.

    `seed` is an int, or a Generator that draws the noise from its current
    state (`default_rng` returns a Generator unchanged)."""
    X = np.asarray(X, dtype=float)
    theta = truth.theta
    if X.ndim != 2 or X.shape[1] != theta.size:
        raise InvalidInputError(
            f"design has {X.shape[1] if X.ndim == 2 else '?'} columns, truth has {theta.size}")
    eps = draw_noise(noise, X.shape[0], default_rng(seed))
    with np.errstate(over="ignore"):  # an overflowing truth gives inf, which minimize refuses
        return X @ theta + eps


def draw_noise(noise: NoiseSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """n iid noise values from rng's current state, one numpy call per family."""
    if noise.sigma == 0.0:
        return np.zeros(n)
    if noise.family == "gaussian":
        return noise.sigma * rng.standard_normal(n)
    if noise.family == "scaled-uniform":
        half = noise.sigma * math.sqrt(3.0)
        return rng.uniform(-half, half, size=n)
    return noise.sigma * (2.0 * rng.integers(0, 2, size=n) - 1.0)


def gram(X: np.ndarray, split: tuple[int, int]) -> GramReport:
    """Gram matrix, its corner blocks per the (zero, nonzero) split, and cross term."""
    X = np.asarray(X, dtype=float)
    p0, p1 = split
    if p0 < 0 or p1 < 0 or p0 + p1 != X.shape[1]:
        raise InvalidInputError(
            f"split {split} incompatible with {X.shape[1]} design columns")
    n = X.shape[0]
    C = X.T @ X / n
    D = C[:p0, :p0].copy()
    B = C[p0:, p0:].copy()
    cross = X[:, :p0].T @ X[:, p0:] / math.sqrt(n)
    return GramReport(C_n=C, D_n=D, B_n=B, cross=cross)


def check_design_conditions(designs, C0: np.ndarray, delta: float, q_n: TuningSchedule,
                            split: tuple[int, int]) -> dict[str, dict]:
    """Finite-n diagnostics for the design-side conditions over an n-grid,
    each condition's block of `check`'s JSON, ending in its required_by, keyed by its id.

    `designs` holds (n, X) at `check`'s design n (`ExperimentConfig.ns`), C0 is
    `limit_c0`'s, and q_n is finite and positive there (`build_config`). Verdicts use the
    shared boundedness heuristic; these are diagnostics, since asymptotic
    conditions are undecidable from finite data.
    """
    ns = [int(n) for n, _ in designs]
    C0 = np.asarray(C0, dtype=float)
    p0, p1 = split

    gram_rate, row_bound, cross_scaled, cross_rootn = [], [], [], []
    zero_gram, nonzero_rate = [], []
    D0 = C0[:p0, :p0]
    B0 = C0[p0:, p0:]
    for n, X in designs:
        rep = gram(X, split)
        with np.errstate(over="ignore"):  # refused below: a bound near 1e77 overflows the squared entries
            gram_norm, cross_norm, zero_norm, nonzero_norm = (
                float(np.linalg.norm(A)) for A in (rep.C_n - C0, rep.cross, rep.D_n - D0, rep.B_n - B0))
        if math.isinf(max(gram_norm, cross_norm, zero_norm, nonzero_norm)):
            raise InvalidInputError(f"the Frobenius norms of the Gram blocks overflow at n={n}: "
                                    "[model] bound is too large for check")
        gram_rate.append(float(n) ** delta * gram_norm)
        row_bound.append(float(np.max(np.linalg.norm(X, axis=1))))
        cross_scaled.append(cross_norm / math.sqrt(q_n.value(n)))
        cross_rootn.append(cross_norm)
        zero_gram.append(zero_norm)
        nonzero_rate.append(float(n) ** delta * nonzero_norm)

    delta_note = {"note": f"delta={delta}"}  # the two rates scale by n**delta
    blocks = ((COND_GRAM_RATE, gram_rate, delta_note, [CLAIM_MOMENTS]),
              (COND_ROW_BOUND, row_bound, {}, [CLAIM_MOMENTS, CLAIM_TAIL, CLAIM_JOINT]),
              (COND_CROSS_SCALED, cross_scaled, {}, [CLAIM_TAIL]),
              (COND_CROSS_ROOT_N, cross_rootn, {}, [CLAIM_JOINT]),
              (COND_ZERO_GRAM, zero_gram, {}, [CLAIM_TAIL]),
              (COND_NONZERO_GRAM_RATE, nonzero_rate, delta_note, [CLAIM_JOINT]))
    return {cond: {"condition": cond, "n_grid": ns, "values": vals, "verdict": boundedness_verdict(vals),
                   **note, "required_by": required_by} for cond, vals, note, required_by in blocks}
