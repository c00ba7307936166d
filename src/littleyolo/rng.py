"""Seedable splitmix64 generator.

Weight initialization and k-means++ seeding both need random draws that are
bit-identical across platforms and languages, which rules out ``random`` and
``numpy.random``. splitmix64 is a tiny, well-specified 64-bit generator; the
stream below is its published reference (seed 0 yields 0xE220A8397B1DCDAF
first), of which uniform_stream keeps each output's top 53 bits.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Draws are made this many at a time, so the workspace stays fixed.
_CHUNK = 1 << 16


def uniform_stream(seed: int, count: int, low: float, high: float,
                   out: np.ndarray | None = None, first: int = 0) -> np.ndarray:
    """Draws first..first+count-1 of `seed`'s stream, uniform in [low, high)
    from each output's top 53 bits.

    The values are float64; given `out` (shape (count,), e.g. float32), each
    chunk's float64 values are cast into it, so no full float64 array exists.
    """
    if out is None:
        out = np.empty(count, dtype=np.float64)
    z = np.empty(min(count, _CHUNK), dtype=np.uint64)
    t = np.empty_like(z)
    f = np.empty(z.size, dtype=np.float64)
    for start in range(0, count, _CHUNK):
        n = min(_CHUNK, count - start)
        zs, ts, fs = z[:n], t[:n], f[:n]
        # the state after i steps is seed + i*golden (mod 2^64), so a chunk's
        # states come straight from their indices; the output mix runs in place
        zs[:] = np.arange(first + start + 1, first + start + n + 1, dtype=np.uint64)
        zs *= np.uint64(_GOLDEN)
        zs += np.uint64(seed & _MASK)
        for shift, mix in ((30, _MIX1), (27, _MIX2)):
            np.right_shift(zs, np.uint64(shift), out=ts)
            zs ^= ts
            zs *= np.uint64(mix)
        np.right_shift(zs, np.uint64(31), out=ts)
        zs ^= ts
        zs >>= np.uint64(11)
        fs[:] = zs
        fs *= 2.0**-53
        fs *= high - low
        fs += low
        out[start:start + n] = fs
    return out
