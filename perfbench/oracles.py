"""Correctness oracles for the benchmark's outputs, independent of the solver and the prox.

Every check rebuilds the data from the config with bridgelab's data generators,
then judges the estimates with its own penalty formulas and brute-force nested
grids. Nothing here calls `bridgelab.penalty`, `bridgelab.solver` or the limit
sampler's minimizer. A check returns the failed operations; an empty list means
every fit or draw passed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

# Criterion 1's tolerance on objectives: 1e-8 * (1 + |Z|).
REL_TOL = 1e-8


def within_tol(value, best) -> np.ndarray:
    return np.asarray(value) <= np.asarray(best) + REL_TOL * (1.0 + np.abs(best))


# ---------------------------------------------------------------------------
# penalties and the 1-D nested grid
# ---------------------------------------------------------------------------


def penalty_fn(pen, n: int):
    """Vectorized p_n(x) from the spec's parameters (bridge or SCAD)."""
    lam = pen.schedule.c * float(n) ** pen.schedule.e
    if pen.family == "bridge":
        gamma = pen.gamma
        return lambda x: lam * np.abs(x) ** gamma
    if pen.family == "scad":
        a = pen.a

        def scad(x):
            t = np.abs(x)
            middle = -n * (t * t - 2.0 * a * lam * t + lam * lam) / (2.0 * (a - 1.0))
            return np.where(t <= lam, n * lam * t,
                            np.where(t <= a * lam, middle, n * (a + 1.0) * lam * lam / 2.0))
        return scad
    raise ValueError(f"no oracle penalty for family {pen.family!r}")


def grid_min_1d(c, b, lo, hi, pen, points: int = 2001, stages: int = 4,
                chunk: int = 256) -> np.ndarray:
    """Argmin of c(x-b)^2 + pen(x) over [lo, hi], row-wise, by nested grids.

    Each stage evaluates a uniform grid plus the box ends, recenters on the best
    point and shrinks the span by 4/points. The exact zero is compared at the
    end, so an exact-zero minimizer is found exactly.
    """
    c, b, lo, hi = (np.asarray(v, dtype=float).ravel() for v in (c, b, lo, hi))
    out = np.empty_like(b)
    t = np.linspace(0.0, 1.0, points)
    for s in range(0, b.size, chunk):
        cc, bb, ll, hh = c[s:s + chunk], b[s:s + chunk], lo[s:s + chunk], hi[s:s + chunk]
        rows = np.arange(bb.size)

        def obj(x):
            return cc[:, None] * (x - bb[:, None]) ** 2 + pen(x)

        center, span = 0.5 * (ll + hh), 0.5 * (hh - ll)
        best_x = ll.copy()
        best_f = obj(best_x[:, None])[:, 0]
        for _ in range(stages):
            a = np.maximum(ll, center - span)
            z = np.minimum(hh, center + span)
            xs = np.concatenate([a[:, None] + (z - a)[:, None] * t[None, :],
                                 ll[:, None], hh[:, None]], axis=1)
            fs = obj(xs)
            i = np.argmin(fs, axis=1)
            better = fs[rows, i] < best_f
            best_x = np.where(better, xs[rows, i], best_x)
            best_f = np.where(better, fs[rows, i], best_f)
            center, span = best_x, span * (4.0 / points)
        zero_ok = (ll <= 0.0) & (0.0 <= hh)
        f0 = obj(np.zeros((bb.size, 1)))[:, 0]
        out[s:s + chunk] = np.where(zero_ok & (f0 <= best_f), 0.0, best_x)
    return out


# ---------------------------------------------------------------------------
# mc workloads
# ---------------------------------------------------------------------------


@dataclass
class Fits:
    """The rows of replications.csv for one n, as arrays."""

    n: int
    rep: np.ndarray
    theta: np.ndarray       # R x p
    objective: np.ndarray
    converged: np.ndarray   # bool


def read_replications(path: str, p: int) -> dict[int, Fits]:
    rows: dict[int, list] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for rec in csv.DictReader(fh):
            rows.setdefault(int(rec["n"]), []).append(rec)
    out = {}
    for n, recs in rows.items():
        out[n] = Fits(
            n=n,
            rep=np.array([int(r["rep"]) for r in recs]),
            theta=np.array([[float(r[f"theta_hat_{j + 1}"]) for j in range(p)] for r in recs]),
            objective=np.array([float(r["objective"]) for r in recs]),
            converged=np.array([r["converged"] == "1" for r in recs]),
        )
    return out


def _responses(mc, n: int, X: np.ndarray, reps: np.ndarray) -> np.ndarray:
    from bridgelab.model import simulate_responses
    from bridgelab.montecarlo import replication_seed

    return np.stack([simulate_responses(X, mc.truth, mc.noise,
                                        replication_seed(mc.master_seed, n, int(r)))
                     for r in reps])


def _objective(X, Y, theta, pen) -> np.ndarray:
    resid = Y - theta @ X.T
    return np.einsum("ij,ij->i", resid, resid) + np.sum(pen(theta), axis=1)


def check_mc(mc, fits: dict[int, Fits], separable: bool,
             reference: dict | None = None) -> list[tuple[int, int, str]]:
    """Failed fits as (n, rep, reason).

    A fit fails when it did not converge, when its reported objective is not
    its own objective, or when the oracle finds a lower objective: the
    separable per-coordinate argmin (orthonormal designs, XtX = nI) or, for any
    design, a better point along one coordinate's line. With a `reference`
    {(n, rep): (zero_pattern, objective)}, a fit whose exact-zero pattern moved
    also fails unless its objective is lower than the reference's.
    """
    from bridgelab.model import generate_design
    from bridgelab.montecarlo import design_seed

    failed: list[tuple[int, int, str]] = []
    expected = set(mc.n_grid)
    if set(fits) != expected:
        return [(n, -1, "n missing from replications.csv") for n in expected - set(fits)]
    lo, hi = mc.box.lo_array(), mc.box.hi_array()
    for n in mc.n_grid:
        f = fits[n]
        if not np.array_equal(f.rep, np.arange(mc.replications)):
            failed.append((n, -1, "replication rows missing or out of order"))
            continue
        pen = penalty_fn(mc.penalty, n)
        X = generate_design(mc.design, n, design_seed(mc.master_seed, n))
        Y = _responses(mc, n, X, f.rep)
        R, p = f.theta.shape
        z_fit = _objective(X, Y, f.theta, pen)
        reasons: list[list[str]] = [[] for _ in range(R)]
        for i in np.flatnonzero(~f.converged):
            reasons[i].append("not converged")
        for i in np.flatnonzero(np.abs(z_fit - f.objective) > REL_TOL * (1.0 + np.abs(z_fit))):
            reasons[i].append("reported objective differs from the estimate's")
        col_sq = np.einsum("ij,ij->j", X, X)
        resid = Y - f.theta @ X.T
        if separable:
            b = (Y @ X) / col_sq
            x = grid_min_1d(np.tile(col_sq, R), b.ravel(), np.tile(lo, R), np.tile(hi, R), pen)
            z_oracle = _objective(X, Y, x.reshape(R, p), pen)
            for i in np.flatnonzero(~within_tol(z_fit, z_oracle)):
                reasons[i].append(f"separable oracle lower by {z_fit[i] - z_oracle[i]:.3e}")
        b = f.theta + (resid @ X) / col_sq
        x = grid_min_1d(np.tile(col_sq, R), b.ravel(), np.tile(lo, R), np.tile(hi, R),
                        pen).reshape(R, p)
        for j in range(p):
            moved = f.theta.copy()
            moved[:, j] = x[:, j]
            z_line = _objective(X, Y, moved, pen)
            for i in np.flatnonzero(~within_tol(z_fit, z_line)):
                reasons[i].append(f"coordinate {j + 1} line oracle lower by {z_fit[i] - z_line[i]:.3e}")
        if reference is not None:
            for i, rep in enumerate(f.rep):
                ref = reference.get((n, int(rep)))
                if ref is not None and zero_pattern(f.theta[i]) != ref[0] and not f.objective[i] < ref[1]:
                    reasons[i].append("exact-zero pattern moved without a lower objective")
        failed.extend((n, int(f.rep[i]), "; ".join(r)) for i, r in enumerate(reasons) if r)
    return failed


def zero_pattern(theta) -> int:
    """Bit j set when coordinate j is exactly zero."""
    return sum(1 << j for j, v in enumerate(theta) if v == 0.0)


# ---------------------------------------------------------------------------
# limit workload
# ---------------------------------------------------------------------------


def limit_summary(samples: np.ndarray) -> dict:
    """The `argmin_samples` block the CLI derives from its draws."""
    sq = np.sum(samples ** 2, axis=1)
    return {
        "count": int(samples.shape[0]),
        "mean": samples.mean(axis=0).tolist(),
        "cov": np.atleast_2d(np.cov(samples.T)).tolist(),
        "abs_moment_2": float(np.mean(sq)),
        "abs_moment_4": float(np.mean(sq ** 2)),
    }


def _bits(obj):
    if isinstance(obj, dict):
        return {k: _bits(v) for k, v in sorted(obj.items())}
    if isinstance(obj, list):
        return [_bits(v) for v in obj]
    if isinstance(obj, float):
        return float(obj).hex()
    return obj


def bit_equal(a, b) -> bool:
    """Equal including the sign of zero and every float bit."""
    return _bits(a) == _bits(b)


def _limit_field(u0, u1, W, C0, s, g):
    """-2 W.u + u'C0 u + sum_j s_j |u_j|^g_j at the points (u0, u1), one row per draw."""
    v = (C0[0, 0] * u0 * u0 + 2.0 * C0[0, 1] * u0 * u1 + C0[1, 1] * u1 * u1
         - 2.0 * (W[:, 0:1] * u0 + W[:, 1:2] * u1))
    for j, u in ((0, u0), (1, u1)):
        if s[j] != 0.0:
            v = v + s[j] * np.abs(u) ** float(g[j])
    return v


def _grid_min_2d(W, C0, s, g, zero_coords, points: int = 33, stages: int = 5) -> np.ndarray:
    """Nested 2-D grid minimum of the limit field per row of W, with every
    zero-block coordinate also pinned to exactly 0."""
    D = W.shape[0]
    rows = np.arange(D)
    t = np.linspace(-1.0, 1.0, points)
    span = 2.0 * np.max(np.abs(W), axis=1) + 1.0
    c0, c1 = np.zeros(D), np.zeros(D)
    best_v = np.zeros(D)  # the field at the origin
    for _ in range(stages):
        ax0 = c0[:, None] + span[:, None] * t[None, :]
        ax1 = c1[:, None] + span[:, None] * t[None, :]
        u0 = [np.repeat(ax0, points, axis=1)]
        u1 = [np.tile(ax1, points)]
        for j in zero_coords:  # the line with u_j pinned to exactly 0
            u0.append(np.zeros((D, points)) if j == 0 else ax0)
            u1.append(np.zeros((D, points)) if j == 1 else ax1)
        u0, u1 = np.concatenate(u0, axis=1), np.concatenate(u1, axis=1)
        vals = _limit_field(u0, u1, W, C0, s, g)
        i = np.argmin(vals, axis=1)
        better = vals[rows, i] < best_v
        c0 = np.where(better, u0[rows, i], c0)
        c1 = np.where(better, u1[rows, i], c1)
        best_v = np.where(better, vals[rows, i], best_v)
        span = span * (4.0 / points)
    return best_v


def check_limit(ec, payload: dict, samples: np.ndarray, chunk: int = 500) -> tuple[bool, list[int]]:
    """(summary bit-equal to the CLI's JSON, indices of draws the 2-D grid beats).

    The draws are the CLI's own, re-drawn in-process with the CLI's seed; the
    Gaussian W of each draw is rebuilt from that seed as the sampler spawns it.
    """
    from bridgelab.asymptotics import v0_on_points
    from bridgelab.util import derive_seed

    mc = ec.mc
    summary_ok = bit_equal(limit_summary(samples), payload.get("argmin_samples"))
    p = mc.truth.p
    if p != 2 or payload.get("c0_source") != "standardized-identity":
        raise ValueError("the limit oracle covers p = 2 with the identity C0")
    pen = mc.penalty
    gamma, sch = pen.gamma, pen.schedule
    lam0 = sch.c if sch.e == min(1.0, gamma) / 2.0 else 0.0
    C0 = np.eye(p)
    theta0 = mc.truth.theta
    zero_coords = [j for j in range(p) if theta0[j] == 0.0]
    s = np.where(theta0 == 0.0, lam0, 0.0)
    g = np.where(theta0 == 0.0, gamma, 1.0)

    R = samples.shape[0]
    children = np.random.SeedSequence(derive_seed(mc.master_seed, 777)).spawn(R)
    Z = np.stack([np.random.default_rng(ch).standard_normal(p) for ch in children])
    W = mc.noise.sigma * (Z @ np.linalg.cholesky(C0).T)

    draw_v = np.array([v0_on_points(samples[k:k + 1], W[k], gamma, lam0, C0, theta0)[0]
                       for k in range(R)])
    failed = []
    for a in range(0, R, chunk):
        grid_v = _grid_min_2d(W[a:a + chunk], C0, s, g, zero_coords)
        bad = ~within_tol(draw_v[a:a + chunk], grid_v)
        failed.extend(int(a + i) for i in np.flatnonzero(bad))
    return summary_ok, failed


def read_reference(ref: dict | None, workload: str, seed: int, settings: dict) -> dict | None:
    """Zero patterns recorded for `workload` at this seed and n grid, if any.

    A fit's data depend only on (seed, n, rep), so a record of more
    replications covers the first `settings["replications"]` of them.
    """
    entry = (ref or {}).get(workload)
    if (entry is None or entry["seed"] != seed
            or entry["replications"] < settings["replications"]
            or tuple(entry["n_grid"]) != tuple(settings["n_grid"])):
        return None
    return {(n, rep): (pat, float.fromhex(obj)) for n, rep, pat, obj in entry["fits"]
            if rep < settings["replications"]}


def fits_as_reference(fits: dict[int, Fits]) -> list:
    return [[n, int(f.rep[i]), zero_pattern(f.theta[i]), float(f.objective[i]).hex()]
            for n, f in sorted(fits.items()) for i in range(f.rep.size)]

