"""The penalized least-squares contrast Z_n and its one evaluator, `contrast_value`."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .model import Dataset
from .penalty import PenaltySpec, penalty_value
from .penalty import penalty_total  # noqa: F401  (perfbench/tracer.py wraps it; ROADMAP item 1)
from .util import row_squares

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
