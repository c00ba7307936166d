"""Independent reference implementations used to check the library.

Everything here recomputes results from first principles (nested loops,
finite differences, direct enumeration) and deliberately shares no code with
the package. The seed forward-pass, resize, anchor-clustering,
average-precision and VOC box-size code at the end is the exception: it
keeps the package's first implementation, and reuses its unchanged kernels.
The anchor clustering carries its own copy of the seed distance kernel.
"""

import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np


def conv2d_oracle(x, weights, bias, stride, padding, bn=None):
    """Six-nested-loop convolution in float64.

    x: (c_in, H, W); weights: (n, c_in, k, k); bn: (gamma, mean, var, eps).
    """
    x = np.asarray(x, dtype=np.float64).tolist()
    w = np.asarray(weights, dtype=np.float64).tolist()
    n = len(w)
    c_in = len(w[0])
    k = len(w[0][0])
    h, wd = len(x[0]), len(x[0][0])
    oh = (h + 2 * padding - k) // stride + 1
    ow = (wd + 2 * padding - k) // stride + 1
    out = np.zeros((n, oh, ow))
    for f in range(n):
        for oy in range(oh):
            for ox in range(ow):
                acc = 0.0
                for c in range(c_in):
                    for ky in range(k):
                        for kx in range(k):
                            yy = oy * stride + ky - padding
                            xx = ox * stride + kx - padding
                            if 0 <= yy < h and 0 <= xx < wd:
                                acc += x[c][yy][xx] * w[f][c][ky][kx]
                out[f, oy, ox] = acc
    bias = np.asarray(bias, dtype=np.float64)
    if bn is not None:
        gamma = np.asarray(bn[0], np.float64)
        mean = np.asarray(bn[1], np.float64)
        var = np.asarray(bn[2], np.float64)
        eps = float(bn[3])
        for f in range(n):
            out[f] = gamma[f] * (out[f] - mean[f]) / np.sqrt(var[f] + eps) + bias[f]
    else:
        out += bias[:, None, None]
    return out


def maxpool_oracle(x, size, stride, padding):
    """Direct-definition max pooling with -inf padding."""
    x = np.asarray(x)
    c, h, w = x.shape
    oh = (h + 2 * padding - size) // stride + 1
    ow = (w + 2 * padding - size) // stride + 1
    out = np.empty((c, oh, ow), dtype=x.dtype)
    for ci in range(c):
        for oy in range(oh):
            for ox in range(ow):
                best = -np.inf
                for ky in range(size):
                    for kx in range(size):
                        yy = oy * stride + ky - padding
                        xx = ox * stride + kx - padding
                        if 0 <= yy < h and 0 <= xx < w:
                            best = max(best, x[ci, yy, xx])
                out[ci, oy, ox] = best
    return out


def upsample_oracle(x, factor):
    x = np.asarray(x)
    c, h, w = x.shape
    out = np.empty((c, h * factor, w * factor), dtype=x.dtype)
    for ci in range(c):
        for y in range(h * factor):
            for xx in range(w * factor):
                out[ci, y, xx] = x[ci, y // factor, xx // factor]
    return out


def shortcut_oracle(current, skip):
    """Min-channel residual add, performed in the inputs' own dtype."""
    current = np.asarray(current)
    skip = np.asarray(skip)
    out = current.copy()
    m = min(current.shape[0], skip.shape[0])
    for c in range(m):
        out[c] = current[c] + skip[c]
    return out


def concat_oracle(inputs):
    rows = []
    for t in inputs:
        for c in range(t.shape[0]):
            rows.append(np.asarray(t)[c])
    return np.stack(rows, axis=0)


def fd_giou_loss_grad(loss_fn, pred, gt, h=1e-4):
    """Central finite differences of a giou-loss callable at pred."""
    pred = np.asarray(pred, dtype=np.float64)
    grad = np.zeros(4)
    for i in range(4):
        hi = pred.copy()
        lo = pred.copy()
        hi[i] += h
        lo[i] -= h
        grad[i] = (loss_fn(tuple(hi), gt) - loss_fn(tuple(lo), gt)) / (2 * h)
    return grad


def iou_scalar(a, b):
    ix = min(a[2], b[2]) - max(a[0], b[0])
    iy = min(a[3], b[3]) - max(a[1], b[1])
    inter = ix * iy if ix > 0 and iy > 0 else 0.0
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    union = area_a + area_b - inter
    return inter / union if union > 0 else 0.0


def nms_oracle(detections, iou_threshold):
    """Scalar greedy per-class NMS over objects with bbox, confidence and
    class_id: visit in (-confidence, index) order, keep each survivor and
    drop later same-class boxes whose IoU with it exceeds the threshold."""
    order = sorted(range(len(detections)),
                   key=lambda i: (-detections[i].confidence, i))
    alive = [True] * len(detections)
    keep = []
    for pos, i in enumerate(order):
        if not alive[i]:
            continue
        det = detections[i]
        keep.append(det)
        for j in order[pos + 1:]:
            if alive[j] and detections[j].class_id == det.class_id:
                if iou_scalar(det.bbox, detections[j].bbox) > iou_threshold:
                    alive[j] = False
    return keep


def match_class_oracle(predictions, ground_truths, iou_threshold):
    """Scalar greedy matching over objects with image_id/confidence/bbox
    (predictions) and image_id/bbox/difficult (ground truths). Returns the
    TP/FP/ignored flags in (-confidence, index) order and the count of
    non-difficult ground truths."""
    order = sorted(range(len(predictions)),
                   key=lambda i: (-predictions[i].confidence, i))
    by_image = {}
    for gi, gt in enumerate(ground_truths):
        by_image.setdefault(gt.image_id, []).append(gi)
    matched = [False] * len(ground_truths)
    flags = []
    for i in order:
        pred = predictions[i]
        best_iou, best_gi = 0.0, -1
        for gi in by_image.get(pred.image_id, ()):
            if matched[gi]:
                continue
            v = iou_scalar(pred.bbox, ground_truths[gi].bbox)
            if v > best_iou:
                best_iou, best_gi = v, gi
        if best_gi >= 0 and best_iou >= iou_threshold:
            if ground_truths[best_gi].difficult:
                flags.append(None)
            else:
                matched[best_gi] = True
                flags.append(True)
        else:
            flags.append(False)
    total_gt = sum(1 for g in ground_truths if not g.difficult)
    return flags, total_gt


def ap_bruteforce(predictions, ground_truths, iou_threshold, interpolation="all"):
    """Reference single-class AP: greedy matching plus direct envelope sums.

    predictions: list of (image_id, confidence, box); ground_truths: list of
    (image_id, box, difficult). Returns None when AP is undefined.
    """
    order = sorted(range(len(predictions)),
                   key=lambda i: (-predictions[i][1], i))
    matched = set()
    flags = []
    for i in order:
        img, conf, box = predictions[i]
        best, best_j = 0.0, -1
        for j, (gimg, gbox, diff) in enumerate(ground_truths):
            if gimg != img or j in matched:
                continue
            v = iou_scalar(box, gbox)
            if v > best:
                best, best_j = v, j
        if best_j >= 0 and best >= iou_threshold:
            if ground_truths[best_j][2]:
                flags.append(None)
            else:
                matched.add(best_j)
                flags.append(True)
        else:
            flags.append(False)
    total_gt = sum(1 for g in ground_truths if not g[2])
    counted = [f for f in flags if f is not None]
    if total_gt == 0:
        return 0.0 if counted else None
    if not counted:
        return 0.0
    tp = fp = 0
    points = []  # (recall, precision)
    for f in counted:
        tp, fp = tp + (1 if f else 0), fp + (0 if f else 1)
        points.append((tp / total_gt, tp / (tp + fp)))
    def envelope(r):
        best = 0.0
        for rr, pp in points:
            if rr >= r:
                best = max(best, pp)
        return best
    if interpolation == "11point":
        return sum(envelope(t / 10) for t in range(11)) / 11.0
    recalls = sorted({r for r, _ in points} | {0.0})
    ap = 0.0
    for lo, hi in zip(recalls, recalls[1:]):
        ap += (hi - lo) * envelope(hi)
    return ap


# ------------------------------------------------- seed forward-pass kernels
#
# The convolution, pooling, letterbox resize and forward loop as first
# written: a float32 im2col cast to float64, a BN epilogue that allocates, a
# resize that widens the whole source first, a size x size pool loop, and a
# forward pass that keeps every layer's output. The fast path in
# the package must reproduce their outputs bit for bit.

def conv2d_seed(x, params):
    """2-D cross-correlation with zero padding, plus batch-norm and bias.

    x: (c_in, H, W) float32; params: a ConvParams. Returns float32.
    """
    c_in, h, w = x.shape
    k, s, p = params.size, params.stride, params.padding
    oh = (h + 2 * p - k) // s + 1
    ow = (w + 2 * p - k) // s + 1

    if k == 1 and p == 0:
        cols = x[:, ::s, ::s].reshape(c_in, oh * ow).astype(np.float64)
    else:
        padded = np.pad(x, ((0, 0), (p, p), (p, p)))
        windows = np.lib.stride_tricks.sliding_window_view(padded, (k, k), axis=(1, 2))
        windows = windows[:, ::s, ::s]  # (c_in, oh, ow, k, k)
        cols = windows.transpose(0, 3, 4, 1, 2).reshape(c_in * k * k, oh * ow)
        cols = cols.astype(np.float64)

    flat_w = params.weights.reshape(params.filters, c_in * k * k).astype(np.float64)
    out = flat_w @ cols

    bn = params.batch_norm
    bias = params.bias.astype(np.float64)[:, None]
    if bn is not None:
        scale = bn.gamma.astype(np.float64) / np.sqrt(bn.var.astype(np.float64) + bn.epsilon)
        out = out * scale[:, None] + (bias - bn.mean.astype(np.float64)[:, None] * scale[:, None])
    else:
        out = out + bias
    return out.reshape(params.filters, oh, ow).astype(np.float32)


def resize_bilinear_seed(x, out_h, out_w):
    """Separable bilinear resize of a (C, H, W) map, half-pixel convention,
    on a float64 copy of the whole source. Returns float32."""
    from littleyolo.pipeline import _resize_axis_indices

    c, h, w = x.shape
    ylo, yhi, yf = _resize_axis_indices(out_h, h)
    xlo, xhi, xf = _resize_axis_indices(out_w, w)
    x = x.astype(np.float64)
    rows = x[:, ylo, :] * (1 - yf)[None, :, None] + x[:, yhi, :] * yf[None, :, None]
    out = rows[:, :, xlo] * (1 - xf)[None, None, :] + rows[:, :, xhi] * xf[None, None, :]
    return out.astype(np.float32)


def maxpool_seed(x, size, stride, padding):
    """Max pooling with -inf padding, one np.maximum per window offset."""
    c, h, w = x.shape
    oh = (h + 2 * padding - size) // stride + 1
    ow = (w + 2 * padding - size) // stride + 1
    padded = np.full((c, h + 2 * padding, w + 2 * padding), -np.inf, dtype=x.dtype)
    padded[:, padding:padding + h, padding:padding + w] = x
    out = np.full((c, oh, ow), -np.inf, dtype=x.dtype)
    for dy in range(size):
        for dx in range(size):
            np.maximum(out, padded[:, dy:dy + oh * stride:stride, dx:dx + ow * stride:stride], out=out)
    return out


def activate_seed(x, kind):
    """Named activation that always allocates: a copy for linear, np.where
    for leaky."""
    if kind == "linear":
        return np.asarray(x).copy()
    return np.where(x > 0, x, x.dtype.type(0.1) * x)


def forward_seed(graph, x):
    """{yolo index: head} of layer_outputs_seed."""
    outputs = layer_outputs_seed(graph, x)
    return {l.index: outputs[l.index] for l in graph.yolo_layers}


def layer_outputs_seed(graph, x):
    """Run the network keeping every layer's output; returns them in order.

    Uses conv2d_seed, maxpool_seed and activate_seed, and the package's
    upsample, concat and shortcut kernels.
    """
    from littleyolo import tensor
    from littleyolo.config import (Convolutional, Maxpool, Route, Shortcut,
                                   Upsample)

    x = np.ascontiguousarray(x, dtype=np.float32)
    outputs = []
    for layer in graph.layers:
        spec = layer.spec
        src = [x if r == -1 else outputs[r] for r in layer.inputs]
        if isinstance(spec, Convolutional):
            out = activate_seed(conv2d_seed(src[0], layer.params), spec.activation)
        elif isinstance(spec, Maxpool):
            out = maxpool_seed(src[0], spec.size, spec.stride, spec.padding)
        elif isinstance(spec, Route):
            out = tensor.concat_channels(src)
        elif isinstance(spec, Shortcut):
            out = activate_seed(tensor.shortcut_add(src[0], src[1]), spec.activation)
        elif isinstance(spec, Upsample):
            out = tensor.upsample_nearest(src[0], spec.stride)
        else:  # Yolo: passthrough
            out = src[0]
        outputs.append(out)
    return outputs


# ------------------------------------------------------------ scalar splitmix64

class SplitMix64:
    """Scalar splitmix64 (Steele, Lea & Flood, OOPSLA 2014), one output per
    call; rng.uniform_stream must match it."""

    _MASK = (1 << 64) - 1

    def __init__(self, seed):
        self._state = seed & self._MASK

    def next_u64(self):
        self._state = (self._state + 0x9E3779B97F4A7C15) & self._MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self._MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self._MASK
        return (z ^ (z >> 31)) & self._MASK

    def next_float(self):
        """Uniform draw in [0, 1) using the top 53 bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def next_index(self, n):
        """Uniform integer in [0, n)."""
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        return min(int(self.next_float() * n), n - 1)


# ------------------------------------------------------ seed anchor clustering
#
# k-means++ seeding and Lloyd iterations as first written: the seeding
# rebuilds the whole (N, centroids so far) distance matrix at every step and
# counts distinct rows with np.unique on every call; the Lloyd loop takes one
# argmin per cluster per iteration to look for empty clusters. They use the
# seed's (N, K) distance kernel below and draw from the scalar SplitMix64
# above. The package's seeding and Lloyd loop must reproduce them bit for
# bit.

def wh_iou_seed(dims, centroids):
    """IoU matrix between co-centered (w, h) rows of dims (N,2) and centroids
    (K,2); 0 where the union is not positive (areas that underflow to 0)."""
    inter = (np.minimum(dims[:, None, 0], centroids[None, :, 0])
             * np.minimum(dims[:, None, 1], centroids[None, :, 1]))
    union = (dims[:, 0] * dims[:, 1])[:, None] + (centroids[:, 0] * centroids[:, 1])[None, :] - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(union > 0, inter / union, 0.0)


def distance_matrix_seed(dims, centroids, distance):
    """(N, K) distances from each box of dims to each centroid."""
    if distance == "one_minus_iou":
        return 1.0 - wh_iou_seed(dims, centroids)
    if distance == "euclidean":
        return np.sqrt(((dims[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2))
    raise ValueError(f"unknown distance {distance!r}; expected one of "
                     "('one_minus_iou', 'euclidean')")


def kmeanspp_oracle(dims, k, seed, distance="one_minus_iou"):
    """k-means++ initial centroids: first uniform, the rest D^2-weighted."""
    dims = np.asarray(dims, dtype=np.float64).reshape(-1, 2)
    distinct = np.unique(dims, axis=0)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > len(distinct):
        raise ValueError(f"k = {k} exceeds the {len(distinct)} distinct box "
                         "dimensions available")
    rng = SplitMix64(seed)
    centroids = [dims[rng.next_index(len(dims))]]
    while len(centroids) < k:
        d = distance_matrix_seed(dims, np.array(centroids), distance).min(axis=1)
        weights = d * d
        total = weights.sum()
        if total <= 0:
            # all points coincide with a centroid; pick any non-centroid point
            fresh = [p for p in distinct if not any(np.array_equal(p, c) for c in centroids)]
            centroids.append(fresh[rng.next_index(len(fresh))])
            continue
        target = rng.next_float() * total
        idx = int(np.searchsorted(np.cumsum(weights), target, side="right"))
        centroids.append(dims[min(idx, len(dims) - 1)])
    return np.array(centroids)


def lloyd_cluster_oracle(dims, k, distance="one_minus_iou", seed=0, max_iters=100):
    """Lloyd iterations from kmeanspp_oracle; returns an anchors.ClusterResult."""
    from littleyolo.anchors import ClusterResult

    dims = np.asarray(dims, dtype=np.float64).reshape(-1, 2)
    if len(dims) == 0:
        raise ValueError("no box dimensions to cluster")
    centroids = kmeanspp_oracle(dims, k, seed, distance)
    d = distance_matrix_seed(dims, centroids, distance)
    assign = d.argmin(axis=1)
    costs = [float(d[np.arange(len(dims)), assign].sum())]
    for iteration in range(1, max_iters + 1):
        new_centroids = centroids.copy()
        for c in range(k):
            members = dims[assign == c]
            if len(members):
                new_centroids[c] = members.mean(axis=0)
        # repair empty clusters from the farthest points
        d = distance_matrix_seed(dims, new_centroids, distance)
        nearest = d.min(axis=1)
        for c in range(k):
            if not np.any(d.argmin(axis=1) == c):
                far = int(nearest.argmax())
                new_centroids[c] = dims[far]
                d = distance_matrix_seed(dims, new_centroids, distance)
                nearest = d.min(axis=1)
        new_assign = d.argmin(axis=1)
        new_cost = float(d[np.arange(len(dims)), new_assign].sum())
        if new_cost > costs[-1]:
            break
        fixpoint = np.array_equal(new_assign, assign)
        centroids, assign = new_centroids, new_assign
        costs.append(new_cost)
        if fixpoint:
            break
    return ClusterResult(centroids=centroids, assignments=assign,
                         costs=tuple(costs), iterations=len(costs) - 1)


# ------------------------------------------------------ seed average precision
#
# average_precision as first written, with its list-built cumulative sums and
# a backward Python loop for the precision envelope. The array version in the
# package must return the same float, bit for bit.

def average_precision_seed(flags, total_gt, interpolation="all"):
    counted = [f for f in flags if f is not None]
    if total_gt == 0:
        return 0.0 if counted else None
    if len(counted) == 0:
        return 0.0
    tp = np.cumsum([1 if f else 0 for f in counted], dtype=np.float64)
    fp = np.cumsum([0 if f else 1 for f in counted], dtype=np.float64)
    precision = tp / np.maximum(tp + fp, 1e-300)
    recall = tp / total_gt
    mrec = np.concatenate(([0.0], recall, [recall[-1]]))
    mpre = np.concatenate(([0.0], precision, [0.0]))
    for i in range(len(mpre) - 2, -1, -1):
        mpre[i] = max(mpre[i], mpre[i + 1])
    if interpolation == "11point":
        levels = np.arange(11) / 10.0
        vals = [mpre[np.searchsorted(mrec, t, side="left")] if t <= mrec[-1] else 0.0
                for t in levels]
        return float(np.mean(vals))
    changed = np.where(mrec[1:] != mrec[:-1])[0]
    return float(np.sum((mrec[changed + 1] - mrec[changed]) * mpre[changed + 1]))


# ------------------------------------------------------ seed VOC box sizes
#
# The anchors reader of VOC directories as it was before annotations loaded
# into columns: one record per box, normalised one box at a time. It reads
# valid files only; the package's error paths are tested on their own. A box
# without a <name> is class "object", as eval names it.

def voc_dims_seed(path, class_names=None):
    out = []
    for f in sorted(Path(path).glob("*.xml"), key=lambda f: f.name):
        root = ET.parse(str(f)).getroot()
        size = root.find("size")
        if size is None:
            continue
        img_w, img_h = float(size.findtext("width", "0")), float(size.findtext("height", "0"))
        for obj in root.iter("object"):
            box = obj.find("bndbox")
            if box is None:
                continue
            x1, y1, x2, y2 = (float(box.findtext(k, "0")) for k in ("xmin", "ymin", "xmax", "ymax"))
            name = (obj.findtext("name") or "object").strip()
            if class_names is not None and name not in class_names:
                continue
            w, h = x2 - x1, y2 - y1
            if img_w > 0 and img_h > 0 and w > 0 and h > 0:
                out.append((min(w / img_w, 1.0), min(h / img_h, 1.0)))
    return np.array(out, dtype=np.float64).reshape(-1, 2)
