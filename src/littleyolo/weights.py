"""Binary weights container: load, save, and seeded random initialization.

Layout (all little-endian):
    int32 major, int32 minor, int32 revision, uint64 images_seen
    then, for every convolutional layer in graph order:
        bias[n]
        gamma[n], mean[n], var[n]        (only when the layer has batch-norm)
        weights[n * c_in * k * k]        (filter-major, then channel, row, col)
    as float32. The loader consumes the byte count implied by the graph
    exactly; anything else is a format error. Files with version
    major*10 + minor < 2 use a different counter width and are rejected, and
    so is any non-finite value (conv weights included) and any negative
    variance.

After the header and size checks, all values go into one float32 buffer
that every layer's arrays view, so a load holds the model once.
"""

from __future__ import annotations

import os
import struct
import sys

import numpy as np

from .config import Convolutional
from .rng import uniform_stream
from .tensor import BN_EPSILON, FLOAT, BatchNorm, ConvParams

HEADER_BYTES = 20
MAJOR, MINOR, REVISION = 0, 2, 0

INIT_LOW, INIT_HIGH = -0.1, 0.1


class WeightsError(ValueError):
    """The byte stream does not match the header format or the graph."""


def _conv_layers(graph):
    for layer in graph.layers:
        if isinstance(layer.spec, Convolutional):
            yield layer


def layer_param_count(spec, in_channels: int) -> int:
    """Stored reals for one conv layer: weights + bias (+ gamma/mean/var)."""
    n = spec.filters
    count = n * in_channels * spec.size * spec.size + n
    if spec.batch_normalize:
        count += 3 * n
    return count


def expected_file_size(graph) -> int:
    """Exact weights-file size in bytes: header + 4 bytes per stored real."""
    total = sum(layer_param_count(layer.spec, layer.in_channels)
                for layer in _conv_layers(graph))
    return HEADER_BYTES + 4 * total


def save_weights(graph) -> bytes:
    """Serialize a populated graph's parameters. Inverse of load_weights."""
    chunks = [struct.pack("<iiiQ", MAJOR, MINOR, REVISION, graph.images_seen)]
    for layer in _conv_layers(graph):
        p = layer.params
        if p is None:
            raise WeightsError(f"layer {layer.index} has no parameters; "
                               "populate the graph before saving")
        chunks.append(p.bias.astype("<f4").tobytes())
        if p.batch_norm is not None:
            chunks.append(p.batch_norm.gamma.astype("<f4").tobytes())
            chunks.append(p.batch_norm.mean.astype("<f4").tobytes())
            chunks.append(p.batch_norm.var.astype("<f4").tobytes())
        chunks.append(p.weights.astype("<f4").tobytes())
    return b"".join(chunks)


def _read_header(graph, head: bytes, size: int) -> int:
    """Check a stream's header and size against the graph; return images_seen."""
    if size < HEADER_BYTES:
        raise WeightsError(f"stream has {size} bytes, shorter than the "
                           f"{HEADER_BYTES}-byte header")
    major, minor, revision, seen = struct.unpack_from("<iiiQ", head, 0)
    if major * 10 + minor < 2:
        raise WeightsError(f"unsupported weights version {major}.{minor} "
                           "(versions below 0.2 use a narrower image counter)")
    expected = expected_file_size(graph)
    if size != expected:
        raise WeightsError(f"graph calls for {expected} bytes but the stream "
                           f"has {size}")
    return seen


def _populate(graph, floats: np.ndarray, seen: int):
    """Give each conv layer views into `floats`, the native float32 values
    after the header, in file order. A non-finite value, or a negative
    variance, raises WeightsError naming the layer and the flat index."""
    pos = 0

    def take(count: int) -> np.ndarray:
        nonlocal pos
        pos += count
        return floats[pos - count:pos]

    for layer in _conv_layers(graph):
        spec = layer.spec
        n, c, k = spec.filters, layer.in_channels, spec.size
        bias = take(n)
        bn = None
        if spec.batch_normalize:
            bn = BatchNorm(gamma=take(n), mean=take(n), var=take(n),
                           epsilon=BN_EPSILON)
        weights = take(n * c * k * k)
        _check_params(layer.index, bias, bn, weights)
        layer.params = ConvParams(weights=weights.reshape(n, c, k, k), bias=bias,
                                  stride=spec.stride, padding=spec.padding,
                                  batch_norm=bn)
    graph.images_seen = seen
    return graph


def _check_params(index: int, bias: np.ndarray, bn: BatchNorm | None,
                  weights: np.ndarray) -> None:
    """Reject the values that would turn a layer's output to NaN: any
    non-finite value, or a negative variance. Indices are flat."""
    named = [("bias", bias)]
    if bn is not None:
        named += [("gamma", bn.gamma), ("mean", bn.mean), ("var", bn.var)]
    for name, values in named + [("weights", weights)]:
        # v @ v is finite only if every value is (squares cannot cancel an
        # inf, NaN propagates), and makes no temporary; as finite extremes
        # can overflow it, a non-finite result is checked value by value
        with np.errstate(over="ignore", invalid="ignore"):
            if np.isfinite(values @ values):
                continue
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise WeightsError(f"layer {index}: {name}[{bad[0]}] is "
                               f"{values[bad[0]]} ({bad.size} non-finite values)")
    bad = np.flatnonzero(bn.var < 0) if bn is not None else ()
    if len(bad):
        raise WeightsError(f"layer {index}: var[{bad[0]}] is {bn.var[bad[0]]}; "
                           f"batch-norm variance must be >= 0 ({bad.size} negative)")


def load_weights(graph, data: bytes):
    """Populate graph conv layers from a weights byte stream.

    The stream must contain exactly the parameters the graph calls for;
    truncated or trailing bytes raise WeightsError naming both counts. A
    non-finite value anywhere, or a negative variance, raises WeightsError
    naming the layer. The values are copied once, into one float32 buffer.
    """
    seen = _read_header(graph, data[:HEADER_BYTES], len(data))
    floats = np.frombuffer(data, dtype="<f4", offset=HEADER_BYTES).astype(FLOAT)
    return _populate(graph, floats, seen)


def init_random(graph, seed: int):
    """Seeded deterministic initialization, through load_weights' checks.

    Weights are uniform in [-0.1, 0.1) drawn from one splitmix64 stream in
    graph order (flat filter-major order within each layer); bias = 0,
    gamma = 1, mean = 0, var = 1. Bit-identical for a given seed everywhere.
    The draws go straight into the one float32 buffer the layers view.
    """
    floats = np.empty((expected_file_size(graph) - HEADER_BYTES) // 4, dtype=FLOAT)
    pos = drawn = 0
    for layer in _conv_layers(graph):
        n = layer.spec.filters
        size = n * layer.in_channels * layer.spec.size ** 2
        # bias, then gamma, mean, var with batch-norm, each repeated per filter
        channel = (0.0, 1.0, 0.0, 1.0) if layer.spec.batch_normalize else (0.0,)
        floats[pos:pos + n * len(channel)] = np.repeat(channel, n)
        pos += n * len(channel)
        uniform_stream(seed, size, INIT_LOW, INIT_HIGH, out=floats[pos:pos + size],
                       first=drawn)
        pos += size
        drawn += size
    return _populate(graph, floats, 0)


def load_weights_file(graph, path):
    """load_weights from a file, read straight into the float32 buffer the
    layers view; a WeightsError names the file first."""
    with open(path, "rb") as fh:
        try:
            seen = _read_header(graph, fh.read(HEADER_BYTES), os.fstat(fh.fileno()).st_size)
            floats = np.empty((expected_file_size(graph) - HEADER_BYTES) // 4, dtype=FLOAT)
            got = fh.readinto(floats)
            if got != floats.nbytes:
                raise WeightsError(f"read {HEADER_BYTES + got} bytes of "
                                   f"{HEADER_BYTES + floats.nbytes}")
            if sys.byteorder == "big":
                floats.byteswap(inplace=True)
            return _populate(graph, floats, seen)
        except WeightsError as exc:
            raise WeightsError(f"{path}: {exc}") from None


def save_weights_file(graph, path) -> int:
    data = save_weights(graph)
    with open(path, "wb") as fh:
        fh.write(data)
    return len(data)
