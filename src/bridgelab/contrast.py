"""The penalized least-squares contrast, its localized fields, and the exact
linear/quadratic/remainder decomposition used for diagnostics.

The decomposition is algebra, not approximation: the reconstruction identity
holds to float tolerance for every dataset, penalty, and localization point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidInputError
from .model import Dataset
from .penalty import PenaltySpec, penalty_total, penalty_value
from .util import row_squares

DELTA_TRUE_NOISE = "true-noise"
DELTA_ESTIMATED = "estimated"
# bytes of contrast_value's per-chunk residual temporaries: below glibc's 128 KiB mmap
# threshold, so every chunk reuses heap memory instead of faulting in fresh pages
_CHUNK_BYTES = 1 << 16


@dataclass
class Contrast:
    """Z_n(theta) = sum_i (Y_i - theta.X_i)^2 + sum_j p_n(theta_j)."""

    dataset: Dataset
    penalty: PenaltySpec

    @property
    def n(self) -> int:
        return self.dataset.n

    @property
    def p(self) -> int:
        return self.dataset.p


@dataclass
class PlaqParts:
    """Linear term, quadratic term, and remainder evaluator of the localized contrast.

    M_n(u) = delta . u + (1/2) u' Gamma0 u + remainder(u), exactly, where
    delta = -(2/sqrt(n)) sum_i eps_i X_i, Gamma0 = 2 C0, and the remainder
    collects (C_n - C0)[u,u] plus the penalty difference along u/sqrt(n).
    """

    delta: np.ndarray
    gamma0: np.ndarray
    remainder: object  # u -> float; closure over immutable data
    delta_source: str  # "true-noise" in simulation mode, "estimated" otherwise

    def reconstruct(self, u) -> float:
        u = np.asarray(u, dtype=float)
        return float(self.delta @ u + 0.5 * u @ self.gamma0 @ u + self.remainder(u))


def contrast_value(c: Contrast, theta, fits=None):
    """Exact residual sum of squares plus total penalty at theta, or per row of
    an (m, p) stack in one pass; the only evaluator of Z_n. With `fits`, the
    block form, c.dataset.Y is a (k, n) stack of responses and row i is scored
    against Y[fits[i]]. Each row keeps the bits of its own call on a contiguous
    theta: one gemv X @ theta and one dot per row, and the elementwise penalty
    summed along each row. Residuals are formed a chunk of rows at a time, each
    chunk's temporaries under _CHUNK_BYTES."""
    theta = np.asarray(theta, dtype=float)
    if theta.ndim not in (1, 2) or theta.shape[-1] != c.p:
        raise InvalidInputError(f"theta has shape {theta.shape}, expected ({c.p},) or (m, {c.p})")
    rows = np.ascontiguousarray(np.atleast_2d(theta))  # strided rows change the bits on F-ordered X
    X, Y = c.dataset.X, c.dataset.Y
    step = max(1, _CHUNK_BYTES // (8 * X.shape[0]))
    rss = np.empty(rows.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):  # overflow gives inf (or nan), which minimize refuses
        for a in range(0, rows.shape[0], step):
            XT = np.matmul(X, rows[a:a + step, :, None])[:, :, 0]
            rss[a:a + step] = row_squares(np.subtract(Y if fits is None else Y[fits[a:a + step]], XT, out=XT))
        values = rss + np.sum(penalty_value(c.penalty, c.n, rows), axis=1)
    return float(values[0]) if theta.ndim == 1 else values


def local_field(c: Contrast, theta0, u, rate: float | None = None,
                box=None) -> float:
    """M_n(u) = Z_n(theta0 + rate*u) - Z_n(theta0) with rate = n^-1/2 by default."""
    theta0 = np.asarray(theta0, dtype=float)
    u = np.asarray(u, dtype=float)
    if rate is None:
        rate = 1.0 / math.sqrt(c.n)
    if not (rate > 0.0):
        raise InvalidInputError("rate must be positive")
    point = theta0 + rate * u
    if box is not None and not box.contains(point):
        raise DomainError(f"localized point {point} leaves the parameter box")
    return contrast_value(c, point) - contrast_value(c, theta0)


def plaq_decompose(c: Contrast, theta0, C0) -> PlaqParts:
    """Split the localized contrast at theta0 into linear + quadratic + remainder.

    Residuals at theta0 play the role of the noise; when theta0 is the
    dataset's generating truth they are the true noise, otherwise the parts
    are flagged as estimated.
    """
    theta0 = np.asarray(theta0, dtype=float)
    C0 = np.asarray(C0, dtype=float)
    X, Y, n = c.dataset.X, c.dataset.Y, c.n
    eps = Y - X @ theta0
    source = DELTA_TRUE_NOISE if np.array_equal(theta0, c.dataset.truth.theta) else DELTA_ESTIMATED
    delta = -(2.0 / math.sqrt(n)) * (X.T @ eps)
    gamma0 = 2.0 * C0
    C_n = X.T @ X / n
    pen = c.penalty
    base_pen = penalty_total(pen, n, theta0)

    def remainder(u) -> float:
        u = np.asarray(u, dtype=float)
        quad = float(u @ (C_n - C0) @ u)
        pen_diff = penalty_total(pen, n, theta0 + u / math.sqrt(n)) - base_pen
        return quad + pen_diff

    return PlaqParts(delta=delta, gamma0=gamma0, remainder=remainder, delta_source=source)


def yn_field(c: Contrast, theta, theta0, box=None) -> float:
    """-(1/n) (Z_n(theta) - Z_n(theta0)); the population limit is -C0[theta-theta0]^2."""
    theta = np.asarray(theta, dtype=float)
    theta0 = np.asarray(theta0, dtype=float)
    if box is not None:
        for point in (theta, theta0):
            if not box.contains(point):
                raise DomainError(f"point {point} leaves the parameter box")
    return -(contrast_value(c, theta) - contrast_value(c, theta0)) / c.n


def profile_field(c: Contrast, u, rho, theta0=None) -> tuple[float, dict]:
    """Zero-block localization at a pinned nonzero block:
    Z_n(u/sqrt(n), rho) - Z_n(0, rho).

    Returns the field value and the diagnostic parts (-S . u, D_n[u,u], the
    zero-block penalty sum); their total reconstructs the value exactly. S is
    the score (2/sqrt(n)) sum_i {eps_i - (rho - rho0).X_i^(rho)} X_i^(z).
    """
    ds = c.dataset
    p0, p1 = ds.p0, ds.p1
    u = np.asarray(u, dtype=float)
    rho = np.asarray(rho, dtype=float)
    if u.shape != (p0,) or rho.shape != (p1,):
        raise InvalidInputError(
            f"expected u of shape ({p0},) and rho of shape ({p1},)")
    theta0 = ds.truth.theta if theta0 is None else np.asarray(theta0, dtype=float)
    rho0 = theta0[p0:]
    n = ds.n

    theta_u = np.concatenate([u / math.sqrt(n), rho])
    theta_0 = np.concatenate([np.zeros(p0), rho])
    value = contrast_value(c, theta_u) - contrast_value(c, theta_0)

    Xz, Xr = ds.X[:, :p0], ds.X[:, p0:]
    eps = ds.Y - ds.X @ theta0
    # theta0 has a zero z-block in the sparse setup, where this reduces to the
    # score eps - (rho - rho0).X^(rho); the z-block term keeps the identity
    # exact for arbitrary localization points.
    w = eps + Xz @ theta0[:p0] - Xr @ (rho - rho0)
    score = (2.0 / math.sqrt(n)) * (Xz.T @ w)
    D_n = Xz.T @ Xz / n
    pen_sum = penalty_total(c.penalty, n, u / math.sqrt(n))
    parts = {
        "linear": float(-score @ u),
        "quadratic": float(u @ D_n @ u),
        "penalty": float(pen_sum),
        "score": score,
    }
    return float(value), parts
