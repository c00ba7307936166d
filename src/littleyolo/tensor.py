"""Feature maps and the network kernels that act on them.

A feature map is a float32, C-contiguous (channels, height, width) array
with no batch dimension. Kernels return new arrays, except the activations,
which overwrite their input, and shortcut_add(..., out=current). conv2d
multiplies its float64 columns a band of output rows (BAND_BYTES) at a time,
by equal float64 filter blocks (WEIGHT_BLOCK_BYTES), both sized from the
layer shape alone; README.md's tensor bullet says more.

A map's repeat mask is an (H-1,) bool array: entry i says row i+1 is bitwise
equal to row i in every channel (a landscape frame's letterbox pad is such a
run of rows). Given its input's mask, conv2d computes only the output rows
that window_repeats does not mark and copies each marked run from the row
above it: a marked row's window and the window above it lie inside the map
and cover only equal rows, so both read the same column vector.

conv2d accumulates in float64, scales and shifts it (a scale of ones without
batch norm: x * 1.0 is exact) and casts to float32, within 1e-5 relative of
a direct-definition oracle. A band's or filter block's float64 product, a
column's place in the product, or another BLAS thread count (blas_threads),
may change the product's last bits; the float32 cast has absorbed every such
difference tried. The tests hold conv2d bit-equal to the untiled kernel, with
and without a mask, and the reference heads bit-equal at one BLAS thread and
at the default count.
"""

from __future__ import annotations

import ctypes
import functools
import math
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FLOAT = np.float32

ACTIVATIONS = ("linear", "leaky")

BN_EPSILON = 1e-6

# conv2d builds its float64 column matrix and multiplies it this many bytes
# of output rows at a time.
BAND_BYTES = 8 << 20
# conv2d casts a layer's weights to float64 and multiplies them in equal
# blocks of filters whose float64 copy fits this many bytes (at least one
# filter).
WEIGHT_BLOCK_BYTES = 10 << 20
# leaky_relu's 0.1*x temporary holds at most this many elements, or one item.
LEAKY_SLAB = 1 << 16


class ShapeError(ValueError):
    """A kernel was handed tensors whose shapes cannot be combined."""


def _check_chw(x: np.ndarray, name: str = "input") -> None:
    if not isinstance(x, np.ndarray) or x.ndim != 3:
        raise ShapeError(f"{name} must be a (channels, height, width) array, "
                         f"got {getattr(x, 'shape', type(x))}")


@dataclass(frozen=True)
class BatchNorm:
    """Per-channel batch-norm statistics applied at inference time."""

    gamma: np.ndarray
    mean: np.ndarray
    var: np.ndarray
    epsilon: float = BN_EPSILON


@dataclass(frozen=True)
class ConvParams:
    """One convolution's learned parameters plus its geometry.

    weights has shape (filters, in_channels, size, size); its flat order is
    filter-major, then input channel, then kernel row, then kernel column.
    When batch_norm is present the layer computes
        y = gamma * (conv(x) - mean) / sqrt(var + eps) + bias
    i.e. bias is added after normalization.
    """

    weights: np.ndarray
    bias: np.ndarray
    stride: int = 1
    padding: int = 0
    batch_norm: BatchNorm | None = None

    def __post_init__(self):
        w = self.weights
        if w.ndim != 4 or w.shape[2] != w.shape[3]:
            raise ShapeError(f"weights must be (n, c_in, k, k), got {w.shape}")
        n = w.shape[0]
        if self.bias.shape != (n,):
            raise ShapeError(f"bias must have shape ({n},), got {self.bias.shape}")
        if self.stride < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")
        if self.padding < 0 or self.padding > self.size:
            raise ValueError(f"padding must be in [0, size], got {self.padding} "
                             f"for size {self.size}")
        bn = self.batch_norm
        if bn is not None:
            for field in ("gamma", "mean", "var"):
                arr = getattr(bn, field)
                if arr.shape != (n,):
                    raise ShapeError(f"batch_norm.{field} must have shape ({n},), "
                                     f"got {arr.shape}")

    @property
    def filters(self) -> int:
        return self.weights.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weights.shape[1]

    @property
    def size(self) -> int:
        return self.weights.shape[2]


def conv_output_size(extent: int, size: int, stride: int, padding: int) -> int:
    """Output extent of a convolution: floor((extent + 2p - k) / s) + 1."""
    return (extent + 2 * padding - size) // stride + 1


def window_repeats(repeats: np.ndarray, size: int, stride: int,
                   padding: int) -> np.ndarray:
    """Repeat mask of a size/stride/padding window op's output, from its input's.

    Output row y is marked when the input rows from the top of window y-1 to
    the bottom of window y all lie inside the map and are all equal.
    """
    h = len(repeats) + 1
    equal_before = np.concatenate(([0], np.cumsum(repeats)))  # marks in repeats[:i]
    y = np.arange(1, conv_output_size(h, size, stride, padding))
    lo = (y - 1) * stride - padding
    hi = y * stride - padding + size - 1
    inside = (lo >= 0) & (hi < h)
    lo, hi = lo.clip(0, h - 1), hi.clip(0, h - 1)
    return inside & (equal_before[hi] - equal_before[lo] == hi - lo)


def conv2d(x: np.ndarray, params: ConvParams, repeats: np.ndarray | None = None,
           rows: tuple[int, int] | None = None, out: np.ndarray | None = None,
           first_row: int = 0) -> np.ndarray:
    """2-D cross-correlation with zero padding, plus batch-norm and bias.

    x: (c_in, H, W) float32. Returns (filters, out_h, out_w) float32.
    No activation is applied here. With x's repeat mask, the output rows
    that window_repeats marks are copied from the row above.

    rows=(y0, y1) computes only output rows y0..y1-1, into out (filters,
    y1 - y0, out_w) when given. x may then be a slab of the input, its row 0
    the input's row first_row, holding every row those output rows read;
    repeats stays the whole input's mask and gives its height (without a
    mask, x is the whole input). Row y0 is computed, as row 0 is: the
    caller may have activated the row above.
    """
    _check_chw(x)
    c_in, h, w = x.shape
    if rows is not None and repeats is not None:
        h = len(repeats) + 1
    if c_in != params.in_channels:
        raise ShapeError(f"input has {c_in} channels but weights expect "
                         f"{params.in_channels}")
    k, s, p = params.size, params.stride, params.padding
    oh = conv_output_size(h, k, s, p)
    ow = conv_output_size(w, k, s, p)
    if oh < 1 or ow < 1:
        raise ShapeError(f"kernel {k}x{k} (pad {p}) does not fit input {h}x{w}")
    if repeats is not None and repeats.shape != (h - 1,):
        raise ShapeError(f"repeat mask must have shape ({h - 1},) for {h} rows, "
                         f"got {repeats.shape}")
    ya, yb = (0, oh) if rows is None else rows
    if not (0 <= ya < yb <= oh and first_row <= max(0, ya * s - p)
            and first_row + x.shape[1] >= min(h, (yb - 1) * s - p + k)):
        raise ShapeError(f"output rows {ya}..{yb} of {oh} need input rows the "
                         f"slab of {x.shape[1]} from row {first_row} lacks")

    n, depth = params.filters, c_in * k * k
    flat_w = params.weights.reshape(n, depth)
    # Filters are multiplied `block` at a time, each block's weights cast to
    # float64 into one buffer; a layer that is one block is cast once.
    block = _filter_block(n, depth)
    w64 = np.empty((block, depth), dtype=np.float64)
    if block == n:
        w64[:] = flat_w
    bn = params.batch_norm
    scale = np.ones(n)
    shift = params.bias.astype(np.float64)
    if bn is not None:
        scale = bn.gamma.astype(np.float64) / np.sqrt(bn.var.astype(np.float64) + bn.epsilon)
        shift = shift - bn.mean.astype(np.float64) * scale
    scale, shift = scale[:, None], shift[:, None]

    band = min(_band_rows(c_in, k, oh, ow), yb - ya)
    col_buf = np.empty(depth * band * ow, dtype=np.float64)
    prod_buf = np.empty(n * band * ow, dtype=np.float64)
    if out is None:
        out = np.empty((n, yb - ya, ow), dtype=FLOAT)
    copied = np.zeros(oh, dtype=bool)
    if repeats is not None:
        copied[1:] = window_repeats(repeats, k, s, p)
    copied = copied[ya:yb]
    copied[0] = False
    # Rows switch between computed and copied at these edges (indices into
    # out); the first row is computed.
    edges = [0, *(np.flatnonzero(copied[1:] != copied[:-1]) + 1).tolist(), yb - ya]
    runs = list(zip(edges, edges[1:]))
    col_spans = [_inside(kx - p, s, ow, w) for kx in range(k)]
    for y0, r in ((y, min(band, b - y)) for a, b in runs if not copied[a]
                  for y in range(a, b, band)):
        # Column rows are (channel, ky, kx), columns the band's pixels. Each
        # of the k*k shifted windows is copied from x, widened to float64,
        # straight in; where it falls in the zero border, zeros are written.
        cols = col_buf[:depth * r * ow].reshape(c_in, k, k, r, ow)
        for ky in range(k):
            top = (ya + y0) * s - p + ky  # input row under the tap's first window
            r0, r1 = _inside(top, s, r, h)
            for kx in range(k):
                c0, c1 = col_spans[kx]
                tap = cols[:, ky, kx]
                if r0 or r1 < r or c0 or c1 < ow:
                    tap[:, :r0] = tap[:, r1:] = 0
                    tap[:, r0:r1, :c0] = tap[:, r0:r1, c1:] = 0
                y, xs = top + r0 * s - first_row, kx - p + c0 * s
                tap[:, r0:r1, c0:c1] = x[:, y:y + (r1 - r0) * s:s, xs:xs + (c1 - c0) * s:s]
        cols = cols.reshape(depth, r * ow)
        prod = prod_buf[:n * r * ow].reshape(n, r * ow)
        for f0 in range(0, n, block):
            f1 = min(f0 + block, n)
            if block < n:
                w64[:f1 - f0] = flat_w[f0:f1]
            np.matmul(w64[:f1 - f0], cols, out=prod[f0:f1])
        prod *= scale
        prod += shift
        out[:, y0:y0 + r] = prod.reshape(n, r, ow)
    # Each copied run repeats the computed row above it. The source is a copy
    # of that row: out[:, a - 1:a] itself overlaps the destination, and numpy
    # would buffer the whole destination.
    for a, b in runs:
        if copied[a]:
            out[:, a:b] = out[:, a - 1:a].copy()
    return out


def conv_scratch_bytes(c_in: int, filters: int, k: int, oh: int, ow: int) -> int:
    """Bytes of the float64 buffers of a conv2d call that makes oh output
    rows: a weight block, a band of columns and the band's product."""
    depth = c_in * k * k
    band = _band_rows(c_in, k, oh, ow)
    return 8 * (_filter_block(filters, depth) * depth + (depth + filters) * band * ow)


def _inside(first: int, stride: int, count: int, extent: int) -> tuple[int, int]:
    """The span [a, b) of window positions j < count whose tap, at image
    index first + j * stride, lies inside [0, extent)."""
    a = min(count, max(0, -(first // stride)))
    return a, max(a, min(count, (extent - 1 - first) // stride + 1))


def _filter_block(n: int, depth: int) -> int:
    """Filters per float64 weight block: the fewest equal blocks whose float64
    copy fits WEIGHT_BLOCK_BYTES (at least one filter each)."""
    blocks = -(-n // max(1, WEIGHT_BLOCK_BYTES // (depth * 8)))
    return -(-n // blocks)


def _band_rows(c_in: int, k: int, oh: int, ow: int) -> int:
    """Output rows per band of conv2d's column matrix, a pure function of the
    layer shape: as many as fit BAND_BYTES of float64 columns (at least one,
    at most oh)."""
    return min(oh, max(1, BAND_BYTES // (c_in * k * k * ow * 8)))


def maxpool(x: np.ndarray, size: int, stride: int, padding: int) -> np.ndarray:
    """Max pooling with -inf padding, so padded positions are never selected.

    With stride 1 and padding size//2 the spatial shape is preserved, which is
    what the spatial-pyramid block relies on.
    """
    _check_chw(x)
    if size < 1 or stride < 1:
        raise ValueError(f"size and stride must be >= 1, got {size}, {stride}")
    if padding < 0 or padding >= size:
        # padding >= size would admit all-padding windows and emit -inf
        raise ShapeError(f"padding must be in [0, size), got {padding} for size {size}")
    c, h, w = x.shape
    oh = conv_output_size(h, size, stride, padding)
    ow = conv_output_size(w, size, stride, padding)
    if oh < 1 or ow < 1:
        raise ShapeError(f"window {size}x{size} (pad {padding}) larger than input {h}x{w}")
    padded = np.full((c, h + 2 * padding, w + 2 * padding), -np.inf, dtype=x.dtype)
    padded[:, padding:padding + h, padding:padding + w] = x
    # The window max is separable: a max along rows, then along columns.
    rows = padded[:, :, :ow * stride:stride].copy()
    for dx in range(1, size):
        np.maximum(rows, padded[:, :, dx:dx + ow * stride:stride], out=rows)
    out = rows[:, :oh * stride:stride].copy()
    for dy in range(1, size):
        np.maximum(out, rows[:, dy:dy + oh * stride:stride], out=out)
    return out


def upsample_nearest(x: np.ndarray, factor: int) -> np.ndarray:
    """Nearest-neighbor upsampling: each pixel becomes a factor x factor block."""
    _check_chw(x)
    if factor < 1:
        raise ValueError(f"factor must be >= 1, got {factor}")
    return x.repeat(factor, axis=1).repeat(factor, axis=2)


def concat_channels(inputs: list[np.ndarray]) -> np.ndarray:
    """Concatenate feature maps along the channel axis, in input order."""
    if not inputs:
        raise ShapeError("concat_channels needs at least one input")
    for t in inputs:
        _check_chw(t)
    spatial = {t.shape[1:] for t in inputs}
    if len(spatial) != 1:
        raise ShapeError(f"concat inputs disagree on spatial shape: "
                         f"{[t.shape for t in inputs]}")
    return np.concatenate(inputs, axis=0)


def shortcut_add(current: np.ndarray, skip: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Residual add with the min-channel rule.

    Channels 0..min(C_cur, C_skip) are elementwise sums; any remaining
    channels of `current` are copied unchanged. Output shape equals
    current.shape, so spatial shapes must match. The result goes to a new
    array, or with out=current into current itself.
    """
    _check_chw(current, "current")
    _check_chw(skip, "skip")
    if current.shape[1:] != skip.shape[1:]:
        raise ShapeError(f"shortcut spatial mismatch: {current.shape} vs {skip.shape}")
    if out is None:
        out = current.copy()
    elif out is not current:
        raise ValueError("shortcut_add writes to a new array or to current itself")
    m = min(current.shape[0], skip.shape[0])
    out[:m] += skip[:m]
    return out


def leaky_relu(x: np.ndarray) -> np.ndarray:
    """max(x, 0.1*x) in place, the conventional darknet leaky slope; returns x.

    Equal to x where x > 0 and 0.1*x elsewhere, signed zeros and NaN
    included. x is done whole items of its first axis at a time, as many as
    fit LEAKY_SLAB elements (at least one), so the 0.1*x temporary stays
    small whatever x's strides, as for a row slice of a map.
    """
    items = np.atleast_1d(x)
    slope = x.dtype.type(0.1)
    step = max(1, LEAKY_SLAB // max(1, math.prod(items.shape[1:])))
    scaled = np.empty((min(step, len(items)), *items.shape[1:]), dtype=x.dtype)
    for i in range(0, len(items), step):
        part = items[i:i + step]
        np.maximum(part, np.multiply(part, slope, out=scaled[:len(part)]), out=part)
    return x


def activate(x: np.ndarray, kind: str) -> np.ndarray:
    """Apply a named activation (one of ACTIVATIONS) to x in place; returns x.

    x is a writable float array; linear leaves it as it is.
    """
    if kind == "linear":
        return x
    if kind == "leaky":
        return leaky_relu(x)
    raise ValueError(f"unknown activation {kind!r}; expected one of {ACTIVATIONS}")


# ------------------------------------------------------------- BLAS threads

# Thread-count getters of the OpenBLAS builds numpy wheels ship: plain, and
# scipy-openblas with 64-bit (suffix 64_) or 32-bit integers.
_OPENBLAS_GETTERS = ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads")


@functools.cache
def _openblas():
    """(get, set) thread-count functions of the OpenBLAS numpy loaded, or None.

    Looks in the numpy.libs directory that numpy's wheels bundle their BLAS
    in. set is openblas_set_num_threads_local, which returns the previous
    count; despite its name the count it sets is process-wide.
    """
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        set_threads = getattr(handle, "openblas_set_num_threads_local", None)
        get_threads = next((getattr(handle, name) for name in _OPENBLAS_GETTERS
                            if hasattr(handle, name)), None)
        if set_threads is not None and get_threads is not None:
            set_threads.argtypes = [ctypes.c_int]
            set_threads.restype = ctypes.c_int
            get_threads.argtypes = []
            get_threads.restype = ctypes.c_int
            return get_threads, set_threads
    return None


def blas_thread_count() -> int | None:
    """numpy's OpenBLAS thread count, or None when it cannot be controlled."""
    lib = _openblas()
    return None if lib is None else lib[0]()


@contextmanager
def blas_threads(n: int):
    """Run the body with numpy's OpenBLAS at n threads, process-wide, then
    restore the previous count; a no-op when the count cannot be controlled.
    """
    if n < 1:
        raise ValueError(f"BLAS thread count must be >= 1, got {n}")
    lib = _openblas()
    if lib is None:
        yield
        return
    previous = lib[1](n)
    try:
        yield
    finally:
        lib[1](previous)
