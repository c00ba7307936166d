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


def splitmix64_stream(seed: int, count: int) -> np.ndarray:
    """First `count` outputs of splitmix64 for `seed`, as uint64.

    The state after n steps is seed + n*golden (mod 2^64), so all states are
    computed up front and the output mix is applied elementwise.
    """
    states = np.uint64(seed & _MASK) + np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
    z = (states ^ (states >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def uniform_stream(seed: int, count: int, low: float, high: float) -> np.ndarray:
    """`count` uniform float64 draws in [low, high), from each output's top 53 bits."""
    u = (splitmix64_stream(seed, count) >> np.uint64(11)).astype(np.float64) * 2.0**-53
    return low + u * (high - low)
