"""Seedable splitmix64 generator.

Weight initialization and k-means++ seeding both need random draws that are
bit-identical across platforms and languages, which rules out ``random`` and
``numpy.random``. splitmix64 is a tiny, well-specified 64-bit generator; the
implementation below reproduces the published reference outputs exactly
(seed 0 yields 0xE220A8397B1DCDAF first).
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


# Draws are made this many at a time, so the uint64 workspace stays fixed.
_CHUNK = 1 << 16


def _chunks(seed: int, count: int, first: int = 0):
    """Yield (start, z): z holds splitmix64 outputs first+start onwards of
    `seed`, in a uint64 buffer that the next chunk overwrites.

    The state after n steps is seed + n*golden (mod 2^64), so a chunk's
    states come straight from their indices; the output mix runs in place.
    """
    z = np.empty(min(count, _CHUNK), dtype=np.uint64)
    t = np.empty_like(z)
    for start in range(0, count, _CHUNK):
        n = min(_CHUNK, count - start)
        zs, ts = z[:n], t[:n]
        zs[:] = np.arange(first + start + 1, first + start + n + 1, dtype=np.uint64)
        zs *= np.uint64(_GOLDEN)
        zs += np.uint64(seed & _MASK)
        for shift, mix in ((30, _MIX1), (27, _MIX2)):
            np.right_shift(zs, np.uint64(shift), out=ts)
            zs ^= ts
            zs *= np.uint64(mix)
        np.right_shift(zs, np.uint64(31), out=ts)
        zs ^= ts
        yield start, zs


def splitmix64_stream(seed: int, count: int) -> np.ndarray:
    """First `count` outputs of splitmix64 for `seed`, as uint64."""
    out = np.empty(count, dtype=np.uint64)
    for start, z in _chunks(seed, count):
        out[start:start + z.size] = z
    return out


def uniform_stream(seed: int, count: int, low: float, high: float,
                   out: np.ndarray | None = None, first: int = 0) -> np.ndarray:
    """Draws first..first+count-1 of `seed`'s stream, uniform in [low, high)
    from each output's top 53 bits.

    The values are float64; given `out` (shape (count,), e.g. float32), each
    chunk's float64 values are cast into it, so no full float64 array exists.
    """
    if out is None:
        out = np.empty(count, dtype=np.float64)
    f = np.empty(min(count, _CHUNK), dtype=np.float64)
    for start, z in _chunks(seed, count, first):
        z >>= np.uint64(11)
        fs = f[:z.size]
        fs[:] = z
        fs *= 2.0**-53
        fs *= high - low
        fs += low
        out[start:start + z.size] = fs
    return out
