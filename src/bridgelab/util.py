"""Seed derivation and bulk SeedSequence seeding (derived seeds, per-seed generators,
spawned normals), the spec finiteness check, per-row dots, boundedness heuristics,
line fits, and byte-stable serialization helpers."""

from __future__ import annotations

import itertools
import json
import math

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence, default_rng  # here, not lazily in a command

from .errors import InvalidInputError, InvalidSpecError

PLAUSIBLY_BOUNDED = "plausibly-bounded"
GROWING = "growing"
GROWTH_RATIO = 2.0  # boundedness_verdict: least last-to-first ratio of a growing sequence
ZERO_FLOOR = 1e-10  # boundedness_verdict: values at or below it count as 0


def derive_seed(*parts: int) -> int:
    """Derive a 64-bit seed from integer parts, independent of call order elsewhere.

    Built on numpy's SeedSequence so that streams for distinct part tuples are
    statistically independent and the mapping is stable across platforms.
    """
    ss = SeedSequence([int(p) & 0xFFFFFFFFFFFFFFFF for p in parts])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _hash_step(value, init: int, mult: int, t: int) -> np.ndarray:
    """Step t of a SeedSequence hash on uint32 words: xor with the hash
    constant init * mult**t, multiply by the next one, fold the high half down."""
    const = init * pow(mult, t, 1 << 32)
    value = (value ^ np.uint32(const & 0xFFFFFFFF)) * np.uint32(const * mult & 0xFFFFFFFF)
    return value ^ (value >> np.uint32(16))


def _mix(x, y) -> np.ndarray:
    r = np.uint32(0xCA01F9DD) * x - np.uint32(0x4973F715) * y
    return r ^ (r >> np.uint32(16))


def _uint32_words(value: int) -> list[int]:
    """A non-negative int as SeedSequence reads it: little-endian uint32 words, 0 as [0]."""
    return [(value >> s) & 0xFFFFFFFF for s in range(0, max(value.bit_length(), 1), 32)]


def seed_sequence_words(entropy: list[np.ndarray], n_words: int) -> np.ndarray:
    """(m, n_words) uint32: row i is `SeedSequence(row i).generate_state(n_words)` for entropy as
    uint32 columns of length m (a spawned child's: seed words padded to 4, then the spawn key).
    numpy's pool hash (numpy/random/bit_generator.pyx) runs once for all rows; the pool pads zeros."""
    cols = list(entropy) + [np.zeros_like(entropy[0])] * (4 - len(entropy))
    step = itertools.count()

    def hashmix(value):  # one hash constant per call, so the calls keep numpy's order
        return _hash_step(value, 0x43B0D7E5, 0x931E8875, next(step))

    pool = [hashmix(w) for w in cols[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in cols[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    return np.stack([_hash_step(pool[i % 4], 0x8B51F9DD, 0x58F38DED, i) for i in range(n_words)], axis=1)


def _uint64(words32: np.ndarray) -> np.ndarray:
    """Pairs of uint32 words as uint64, little-endian, as `generate_state(k, uint64)` pairs them."""
    return words32.astype("<u4").view("<u8").astype(np.uint64)


def _pcg64_generators(entropy: list[np.ndarray]):
    """Yield, per entropy row, one reused Generator set to the state of
    `default_rng(SeedSequence(row))`. Of `generate_state(4, uint64)`, seed = w0:w1 and
    inc = w2:w3 << 1 | 1; the state is two PCG64 steps from 0, worked out for all rows up front."""
    w0, w1, w2, w3 = _uint64(seed_sequence_words(entropy, 8)).T.tolist()
    mult, mask = (2549297995355413924 << 64) + 4865540595714422341, (1 << 128) - 1
    incs = [((a << 64 | b) << 1 | 1) & mask for a, b in zip(w2, w3)]
    states = [((inc + (a << 64 | b)) * mult + inc) & mask for a, b, inc in zip(w0, w1, incs)]
    rng, inner = Generator(PCG64(0)), {}
    full = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0, "state": inner}
    for inner["state"], inner["inc"] in zip(states, incs):
        rng.bit_generator.state = full
        yield rng


def derived_seeds(parts: tuple[int, ...], reps) -> np.ndarray:
    """uint64 `derive_seed(*parts, rep)` per rep in [0, 2**32) (one entropy word), in one hash pass."""
    if len(reps) and not (0 <= min(reps) and max(reps) < 2 ** 32):
        raise InvalidInputError(f"reps must lie in [0, 2**32), got {min(reps)}..{max(reps)}")
    words = [w for part in parts for w in _uint32_words(int(part) & 0xFFFFFFFFFFFFFFFF)]
    cols = [np.full(len(reps), w, dtype=np.uint32) for w in words] + [np.array(reps, dtype=np.uint32)]
    return _uint64(seed_sequence_words(cols, 2)).ravel()


def seeded_generators(seeds: np.ndarray):
    """(seed, rng) per seed of a uint64 array, rng being one reused Generator in the state
    `default_rng(seed)` starts in (a seed below 2**32 hashes as [seed, 0]: the pool pads with 0)."""
    return zip(seeds.tolist(), _pcg64_generators([*seeds.astype("<u8").view("<u4").reshape(-1, 2).T]))


def spawned_normals(seed: int, R: int, p: int) -> np.ndarray:
    """(R, p) standard normals whose row k has the bits of
    `default_rng(SeedSequence(seed).spawn(R)[k]).standard_normal(p)`: one hash
    pass seeds all R children, and one reused PCG64 is set to each child's state."""
    seed, R = int(seed), int(R)
    if seed < 0:
        raise InvalidInputError(f"seed must be non-negative, got {seed}")
    if not 0 <= R < 2 ** 32:  # from 2**32 on a spawn key takes two words
        raise InvalidInputError(f"draw count must lie in [0, 2**32), got {R}")
    words = _uint32_words(seed)
    words += [0] * (4 - len(words))  # a spawned child pads its seed to the pool size
    entropy = [np.full(R, w, dtype=np.uint32) for w in words] + [np.arange(R, dtype=np.uint32)]
    Z = np.empty((R, p))
    for z, rng in zip(Z, _pcg64_generators(entropy)):
        rng.standard_normal(out=z)
    return Z


def require_finite(**values) -> None:
    """Raise InvalidSpecError naming the first value (a float or a tuple of
    floats) that holds a nan or an infinity; None passes."""
    for name, value in values.items():
        if value is not None and not np.all(np.isfinite(value)):
            raise InvalidSpecError(f"{name} must be finite, got {value}")


def row_squares(A: np.ndarray) -> np.ndarray:
    """Sum of squares per row of a 2-D array: one dot per row, the bits of each
    row's own `r @ r` (np.einsum and np.sum(A**2, axis=1) add in other orders)."""
    return (A[:, None, :] @ A[:, :, None]).ravel()


def boundedness_verdict(values) -> str:
    """Classify a finite-n sequence as plausibly bounded or growing.

    "growing" requires both a last-to-first ratio above GROWTH_RATIO and monotone
    increase on the top half of the grid. Values at or below ZERO_FLOOR count as
    zero, so float-roundoff sequences (e.g. n^delta times a 1e-16 residual)
    stay bounded. Asymptotic boundedness is not decidable from finite data;
    this is a diagnostic, not a proof.
    """
    v = np.asarray(values, dtype=float)
    if v.size < 2:
        return PLAUSIBLY_BOUNDED
    first, last = v[0], v[-1]
    if last <= ZERO_FLOOR:
        return PLAUSIBLY_BOUNDED
    ratio_exceeded = (first <= ZERO_FLOOR) or (last / first > GROWTH_RATIO)
    top = v[v.size // 2:]
    monotone_top = bool(np.all(np.diff(top) > 0.0))
    return GROWING if (ratio_exceeded and monotone_top) else PLAUSIBLY_BOUNDED


def fit_line(x, y) -> tuple[float, float] | None:
    """Least-squares slope of y on x and the RMS residual of the line, or None
    when x has fewer than two distinct values."""
    if x.size < 2 or float(np.ptp(x)) == 0.0:
        return None
    A = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    return float(coef[0]), float(np.sqrt(np.mean((A @ coef - y) ** 2)))


def format_float(x: float) -> str:
    """Full-precision decimal text for CSV cells ('.' decimal, no separators)."""
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    xf = float(x)
    if math.isnan(xf):
        return "nan"
    if math.isinf(xf):
        return "inf" if xf > 0 else "-inf"
    return format(xf, ".17g")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        xf = float(obj)
        if math.isnan(xf):
            return "nan"
        if math.isinf(xf):
            return "inf" if xf > 0 else "-inf"
        return xf
    return obj


def canonical_json(obj) -> str:
    """Deterministic JSON text: fixed separators, round-trip-exact floats, trailing newline.

    Non-finite floats are emitted as the strings "inf"/"-inf"/"nan" so the
    output stays strict JSON.
    """
    return json.dumps(_jsonable(obj), indent=2, separators=(",", ": ")) + "\n"
