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
    so are non-finite bias or batch-norm values and negative variances
    (the conv weights themselves are not scanned).
"""

from __future__ import annotations

import struct

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


def load_weights(graph, data: bytes):
    """Populate graph conv layers from a weights byte stream.

    The stream must contain exactly the parameters the graph calls for;
    truncated or trailing bytes raise WeightsError naming both counts. A
    non-finite bias or batch-norm value, or a negative variance, raises
    WeightsError naming the layer.
    """
    if len(data) < HEADER_BYTES:
        raise WeightsError(f"stream has {len(data)} bytes, shorter than the "
                           f"{HEADER_BYTES}-byte header")
    major, minor, revision, seen = struct.unpack_from("<iiiQ", data, 0)
    if major * 10 + minor < 2:
        raise WeightsError(f"unsupported weights version {major}.{minor} "
                           "(versions below 0.2 use a narrower image counter)")
    expected = expected_file_size(graph)
    if len(data) != expected:
        raise WeightsError(f"graph calls for {expected} bytes but the stream "
                           f"has {len(data)}")
    floats = np.frombuffer(data, dtype="<f4", offset=HEADER_BYTES)
    pos = 0

    def take(count: int) -> np.ndarray:
        nonlocal pos
        out = floats[pos:pos + count]
        pos += count
        return np.array(out, dtype=FLOAT)

    for layer in _conv_layers(graph):
        spec = layer.spec
        n, c, k = spec.filters, layer.in_channels, spec.size
        bias = take(n)
        bn = None
        if spec.batch_normalize:
            bn = BatchNorm(gamma=take(n), mean=take(n), var=take(n),
                           epsilon=BN_EPSILON)
        _check_channel_params(layer.index, bias, bn)
        weights = take(n * c * k * k).reshape(n, c, k, k)
        layer.params = ConvParams(weights=weights, bias=bias,
                                  stride=spec.stride, padding=spec.padding,
                                  batch_norm=bn)
    graph.images_seen = seen
    return graph


def _check_channel_params(index: int, bias: np.ndarray, bn: BatchNorm | None) -> None:
    """Reject the per-channel values that would turn a layer's output to NaN."""
    named = [("bias", bias)]
    if bn is not None:
        named += [("gamma", bn.gamma), ("mean", bn.mean), ("var", bn.var)]
    for name, values in named:
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise WeightsError(f"layer {index}: {name}[{bad[0]}] is "
                               f"{values[bad[0]]} ({bad.size} non-finite values)")
    bad = np.flatnonzero(bn.var < 0) if bn is not None else ()
    if len(bad):
        raise WeightsError(f"layer {index}: var[{bad[0]}] is {bn.var[bad[0]]}; "
                           f"batch-norm variance must be >= 0 ({bad.size} negative)")


def init_random(graph, seed: int):
    """Seeded deterministic initialization, loaded through load_weights.

    Weights are uniform in [-0.1, 0.1) drawn from one splitmix64 stream in
    graph order (flat filter-major order within each layer); bias = 0,
    gamma = 1, mean = 0, var = 1. Bit-identical for a given seed everywhere.
    """
    layers = list(_conv_layers(graph))
    sizes = [layer.spec.filters * layer.in_channels * layer.spec.size ** 2 for layer in layers]
    draws = uniform_stream(seed, sum(sizes), INIT_LOW, INIT_HIGH).astype("<f4")
    chunks, pos = [struct.pack("<iiiQ", MAJOR, MINOR, REVISION, 0)], 0
    for layer, size in zip(layers, sizes):
        # bias, then gamma, mean, var with batch-norm, each repeated per filter
        channel = (0.0, 1.0, 0.0, 1.0) if layer.spec.batch_normalize else (0.0,)
        chunks += [np.repeat(np.array(channel, "<f4"), layer.spec.filters).tobytes(),
                   draws[pos:pos + size].tobytes()]
        pos += size
    return load_weights(graph, b"".join(chunks))


def load_weights_file(graph, path):
    """load_weights from a file; a WeightsError names the file first."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return load_weights(graph, data)
    except WeightsError as exc:
        raise WeightsError(f"{path}: {exc}") from None


def save_weights_file(graph, path) -> int:
    data = save_weights(graph)
    with open(path, "wb") as fh:
        fh.write(data)
    return len(data)
