"""Feature maps and the network kernels that act on them.

A feature map is a numpy array of shape (channels, height, width), float32,
C-contiguous, so the flat buffer is channel-major: index = c*H*W + y*W + x.
There is no batch dimension. Every kernel here is a function of its inputs
alone and runs on the CPU; none writes to its inputs unless asked to
(activate's inplace mode, the out argument of mish, leaky_relu and
shortcut_add).

Convolution accumulates in float64 (im2col + BLAS matmul) and casts the
result back to float32, which keeps it comfortably inside the 1e-5 relative
tolerance against a direct-definition oracle. conv2d walks the output in
bands of rows: it copies a band's k*k shifted windows of the float32 input,
widened to float64, into one column buffer reused for every band,
multiplies, applies batch norm and bias in place on the float64 product (no
weights are folded) and stores the band into the float32 output. There is
no padded copy of the input: with padding, a band's input rows are copied
into a zero-bordered buffer that holds only that band's rows; without, the
windows are read from the input itself. A column matrix of up to
TILE_THRESHOLD_BYTES is one band; a larger one (the early layers, up to
236 MB at 640) is cut into bands of at most BAND_BYTES (or one row, if a row
is larger). The weights are cast to float64 and multiplied in blocks of
filters of at most WEIGHT_BLOCK_BYTES (one GEMM per block into rows of the
product); a layer that is one block (all but layer 16 of the reference
nets) is cast once per call. A band's or block's float64 product may differ
in the last bits from the whole matrix's (BLAS picks its kernel by shape);
the float32 cast has absorbed every such difference tried, and the tests
hold conv2d bit-equal to the untiled kernel with bands and blocks forced on
small shapes. Band height and block size are pure functions of the layer
shape and the constants, never of threads, batch or free memory, so
outputs are the same for any worker count. activate(..., inplace=True) lets
the forward pass run the activation in place on its own float32 output;
leaky_relu then works through it LEAKY_SLAB elements at a time, so its
0.1*x temporary stays small, and shortcut_add(..., out=current) adds into
current.
Max pooling is separable: a max along rows, then along columns.

blas_threads(n) sets numpy's OpenBLAS thread count for the whole process
while it is entered (the CLI splits the threads among directory workers);
with any other BLAS it does nothing. The thread count, too, can change a
float64 product in the last bits; the tests hold the heads of the 416 and
640 reference nets bit-equal at one thread and at the default count.
"""

from __future__ import annotations

import ctypes
import functools
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FLOAT = np.float32

ACTIVATIONS = ("linear", "leaky", "mish")

BN_EPSILON = 1e-6

# conv2d builds a float64 column matrix of up to this many bytes whole, in
# one band; a larger one is built and multiplied BAND_BYTES at a time.
TILE_THRESHOLD_BYTES = 16 << 20
BAND_BYTES = 8 << 20
# conv2d casts a layer's weights to float64 and multiplies them in blocks of
# filters whose float64 copy fits this many bytes (at least one filter).
WEIGHT_BLOCK_BYTES = 16 << 20
# leaky_relu in place works through a map this many elements at a time.
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


def conv2d(x: np.ndarray, params: ConvParams) -> np.ndarray:
    """2-D cross-correlation with zero padding, plus batch-norm and bias.

    x: (c_in, H, W) float32. Returns (filters, out_h, out_w) float32.
    No activation is applied here.
    """
    _check_chw(x)
    c_in, h, w = x.shape
    if c_in != params.in_channels:
        raise ShapeError(f"input has {c_in} channels but weights expect "
                         f"{params.in_channels}")
    k, s, p = params.size, params.stride, params.padding
    oh = conv_output_size(h, k, s, p)
    ow = conv_output_size(w, k, s, p)
    if oh < 1 or ow < 1:
        raise ShapeError(f"kernel {k}x{k} (pad {p}) does not fit input {h}x{w}")

    n, depth = params.filters, c_in * k * k
    flat_w = params.weights.reshape(n, depth)
    # Filters are multiplied `block` at a time, each block's weights cast to
    # float64 into one buffer; a layer that is one block is cast once.
    block = min(n, max(1, WEIGHT_BLOCK_BYTES // (depth * 8)))
    w64 = np.empty((block, depth), dtype=np.float64)
    if block == n:
        w64[:] = flat_w
    bn = params.batch_norm
    scale = None
    shift = params.bias.astype(np.float64)
    if bn is not None:
        scale = bn.gamma.astype(np.float64) / np.sqrt(bn.var.astype(np.float64) + bn.epsilon)
        shift = shift - bn.mean.astype(np.float64) * scale
        scale = scale[:, None]
    shift = shift[:, None]

    rows = _band_rows(c_in, k, oh, ow)
    # With padding, each band's input rows are copied into one zero-bordered
    # buffer; without, windows read x itself. Bands go down the image, so
    # rows above it are never written; rows below it are zeroed per band.
    band = np.zeros((c_in, (rows - 1) * s + k, w + 2 * p), dtype=x.dtype) if p else None
    col_buf = np.empty(depth * rows * ow, dtype=np.float64)
    prod_buf = np.empty(n * rows * ow, dtype=np.float64)
    out = np.empty((n, oh, ow), dtype=FLOAT)
    for y0 in range(0, oh, rows):
        r = min(rows, oh - y0)
        top = y0 * s - p  # image row under the band's first window row
        src = x
        if p:
            lo, hi = max(top, 0), min(top + (r - 1) * s + k, h)
            band[:, hi - top:] = 0
            band[:, lo - top:hi - top, p:p + w] = x[:, lo:hi]
            src, top = band, 0
        # Column rows are (channel, ky, kx), columns the band's pixels; each
        # of the k*k shifted windows is copied, widened to float64, straight in.
        cols = col_buf[:depth * r * ow].reshape(c_in, k, k, r, ow)
        for ky in range(k):
            for kx in range(k):
                cols[:, ky, kx] = src[:, top + ky:top + ky + r * s:s, kx:kx + ow * s:s]
        cols = cols.reshape(depth, r * ow)
        prod = prod_buf[:n * r * ow].reshape(n, r * ow)
        for f0 in range(0, n, block):
            f1 = min(f0 + block, n)
            if block < n:
                w64[:f1 - f0] = flat_w[f0:f1]
            np.matmul(w64[:f1 - f0], cols, out=prod[f0:f1])
        if scale is not None:
            prod *= scale
        prod += shift
        out[:, y0:y0 + r] = prod.reshape(n, r, ow)
    return out


def _band_rows(c_in: int, k: int, oh: int, ow: int) -> int:
    """Output rows per band of conv2d's column matrix.

    A pure function of the layer shape: all oh rows when the whole float64
    matrix fits TILE_THRESHOLD_BYTES, else as many rows as fit BAND_BYTES
    (at least one).
    """
    row_bytes = c_in * k * k * ow * 8
    if row_bytes * oh <= TILE_THRESHOLD_BYTES:
        return oh
    return max(1, BAND_BYTES // row_bytes)


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


def _softplus(x: np.ndarray) -> np.ndarray:
    # For x > 20, softplus(x) - x < 3e-9, far below float32 resolution there.
    safe = np.minimum(x, x.dtype.type(20.0))
    return np.where(x > 20.0, x, np.log1p(np.exp(safe)))


def mish(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """mish(x) = x * tanh(softplus(x)), overflow-safe, dtype-preserving.

    The result goes to a new array, or into out (which may be x itself).
    """
    x = np.asarray(x)
    return np.multiply(x, np.tanh(_softplus(x)), out=out)


def leaky_relu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """max(x, 0.1*x): the conventional darknet leaky slope.

    Equal to x where x > 0 and 0.1*x elsewhere, signed zeros and NaN
    included. The result goes to a new array, or into out (which may be x).
    """
    x = np.asarray(x)
    slope = x.dtype.type(0.1)
    if out is not x or not x.flags.c_contiguous:
        return np.maximum(x, slope * x, out=out)
    # in place: slab by slab, so the 0.1*x temporary stays LEAKY_SLAB long
    flat = x.reshape(-1)
    scaled = np.empty(min(flat.size, LEAKY_SLAB), dtype=x.dtype)
    for i in range(0, flat.size, LEAKY_SLAB):
        slab = flat[i:i + LEAKY_SLAB]
        np.maximum(slab, np.multiply(slab, slope, out=scaled[:slab.size]), out=slab)
    return x


def activate(x: np.ndarray, kind: str, inplace: bool = False) -> np.ndarray:
    """Apply a named activation elementwise. kind is one of ACTIVATIONS.

    Returns a new array; with inplace=True, x (a writable float array) is
    overwritten with the result and returned, and linear is a no-op.
    """
    out = x if inplace else None
    if kind == "linear":
        return x if inplace else np.asarray(x).copy()
    if kind == "leaky":
        return leaky_relu(x, out)
    if kind == "mish":
        return mish(x, out)
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
