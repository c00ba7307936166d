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

After the header and size checks, every layer's arrays view the values in
place, read as little-endian float32: a file is mapped read-only, not copied,
so the loaded parameters are read-only and the file must be replaced by a
rename, never rewritten in place. replace_file is that rule, and every file
littleyolo writes goes through it: weights, JSON and annotated images.
"""

from __future__ import annotations

import contextlib
import mmap
import os
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


def _arrays(spec, in_channels: int) -> list[tuple[str, int]]:
    """A conv layer's stored arrays as (name, length), in file order: bias,
    gamma, mean and var (with batch-norm), weights."""
    n = spec.filters
    bn = [("gamma", n), ("mean", n), ("var", n)] if spec.batch_normalize else []
    return [("bias", n), *bn, ("weights", n * in_channels * spec.size ** 2)]


def layer_param_count(spec, in_channels: int) -> int:
    """Stored reals for one conv layer: weights + bias (+ gamma/mean/var)."""
    return sum(length for _, length in _arrays(spec, in_channels))


def expected_file_size(graph) -> int:
    """Exact weights-file size in bytes: header + 4 bytes per stored real."""
    total = sum(layer_param_count(layer.spec, layer.in_channels)
                for layer in _conv_layers(graph))
    return HEADER_BYTES + 4 * total


def _chunks(graph):
    """The weights file as buffers in file order: the header, then each conv
    layer's arrays as contiguous little-endian float32. Each array must be
    present and as long as the graph's table says, or WeightsError names
    the layer and the array."""
    yield struct.pack("<iiiQ", MAJOR, MINOR, REVISION, graph.images_seen)
    for layer in _conv_layers(graph):
        p = layer.params
        if p is None:
            raise WeightsError(f"layer {layer.index} has no parameters; "
                               "populate the graph before saving")
        bn = p.batch_norm
        values = {"bias": p.bias, **({} if bn is None else
                                     {"gamma": bn.gamma, "mean": bn.mean, "var": bn.var}),
                  "weights": p.weights}
        table = _arrays(layer.spec, layer.in_channels)
        if list(values) != [name for name, _ in table]:
            raise WeightsError(f"layer {layer.index}: the graph calls for "
                               f"{', '.join(name for name, _ in table)} but the "
                               f"params hold {', '.join(values)}")
        for name, length in table:
            if np.size(values[name]) != length:
                raise WeightsError(f"layer {layer.index}: {name} has {np.size(values[name])} "
                                   f"values but the graph calls for {length}")
            yield np.ascontiguousarray(values[name], dtype="<f4")


def save_weights(graph) -> bytes:
    """Serialize a populated graph's parameters. Inverse of load_weights."""
    return b"".join(_chunks(graph))


def _read_buffer(graph, buf):
    """Populate graph from buf, a whole weights file's bytes: check the
    header and size against the graph, then give every layer views of the
    values in buf itself, read as little-endian float32."""
    size = len(buf)
    if size < HEADER_BYTES:
        raise WeightsError(f"stream has {size} bytes, shorter than the "
                           f"{HEADER_BYTES}-byte header")
    major, minor, revision, seen = struct.unpack_from("<iiiQ", buf)
    if major * 10 + minor < 2:
        raise WeightsError(f"unsupported weights version {major}.{minor} "
                           "(versions below 0.2 use a narrower image counter)")
    expected = expected_file_size(graph)
    if size != expected:
        raise WeightsError(f"graph calls for {expected} bytes but the stream "
                           f"has {size}")
    return _populate(graph, np.frombuffer(buf, "<f4", offset=HEADER_BYTES), seen)


def _views(graph, floats: np.ndarray):
    """Each conv layer with {name: its view of floats}, its arrays in file order."""
    pos = 0
    for layer in _conv_layers(graph):
        views = {}
        for name, length in _arrays(layer.spec, layer.in_channels):
            views[name], pos = floats[pos:pos + length], pos + length
        yield layer, views


def _populate(graph, floats: np.ndarray, seen: int):
    """Give each conv layer views into `floats`, the float32 values after
    the header, in file order. A non-finite value, or a negative
    variance, raises WeightsError naming the layer and the flat index."""
    for layer, a in _views(graph, floats):
        _check_params(layer.index, a)
        spec = layer.spec
        shape = (spec.filters, layer.in_channels, spec.size, spec.size)
        bn = (BatchNorm(gamma=a["gamma"], mean=a["mean"], var=a["var"], epsilon=BN_EPSILON)
              if spec.batch_normalize else None)
        layer.params = ConvParams(weights=a["weights"].reshape(shape), bias=a["bias"],
                                  stride=spec.stride, padding=spec.padding, batch_norm=bn)
    graph.images_seen = seen
    return graph


def _check_params(index: int, arrays: dict[str, np.ndarray]) -> None:
    """Reject the values that would turn a layer's output to NaN: any
    non-finite value, or a negative variance. Indices are flat."""
    for name, values in arrays.items():
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
    var = arrays.get("var", np.zeros(0))
    if (bad := np.flatnonzero(var < 0)).size:
        raise WeightsError(f"layer {index}: var[{bad[0]}] is {var[bad[0]]}; "
                           f"batch-norm variance must be >= 0 ({bad.size} negative)")


def load_weights(graph, data: bytes):
    """Populate graph conv layers from a weights byte stream.

    The stream must contain exactly the parameters the graph calls for;
    truncated or trailing bytes raise WeightsError naming both counts. A
    non-finite value anywhere, or a negative variance, raises WeightsError
    naming the layer. The layers view the values in place, read-only; any
    bytes-like data other than bytes is copied once.
    """
    return _read_buffer(graph, bytes(data))


def init_random(graph, seed: int):
    """Seeded deterministic initialization, through load_weights' checks.

    Weights are uniform in [-0.1, 0.1) drawn from one splitmix64 stream in
    graph order (flat filter-major order within each layer); bias = 0,
    gamma = 1, mean = 0, var = 1. Bit-identical for a given seed everywhere.
    The draws go straight into the one float32 buffer the layers view.
    """
    floats = np.empty((expected_file_size(graph) - HEADER_BYTES) // 4, dtype=FLOAT)
    drawn = 0
    for _, views in _views(graph, floats):
        for name, view in views.items():
            if name == "weights":
                uniform_stream(seed, view.size, INIT_LOW, INIT_HIGH, out=view, first=drawn)
                drawn += view.size
            else:
                view[:] = 1.0 if name in ("gamma", "var") else 0.0
    return _populate(graph, floats, 0)


def load_weights_file(graph, path):
    """load_weights from a file mapped read-only, so the layers view the page
    cache and nothing is copied; the mapping lasts while any layer views it.
    The checks read every value, so every page is read in here, not in the
    first forward pass. A WeightsError names the file first."""
    with open(path, "rb") as fh:
        # mmap rejects an empty file, which then fails the header check
        buf = (mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
               if os.fstat(fh.fileno()).st_size else b"")
    try:
        return _read_buffer(graph, buf)
    except WeightsError as exc:
        raise WeightsError(f"{path}: {exc}") from None


def replace_file(path, chunks) -> int:
    """Write the byte chunks to <path>.tmp and rename it over path; returns
    the byte count. On any failure the .tmp is removed and the error raised,
    so path holds the old file or the new one, whole, never a part."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            size = sum(map(fh.write, chunks))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    return size


def save_weights_file(graph, path) -> int:
    """replace_file with save_weights(graph), one array at a time."""
    return replace_file(path, _chunks(graph))
