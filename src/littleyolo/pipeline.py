"""Detection pipeline: letterbox -> forward -> decode -> filter -> NMS -> unletterbox.

Coordinates flow through three frames: original image pixels, network input
pixels (after aspect-preserving letterboxing), and back. Detections carry
corner-form boxes; confidence = objectness * class probability, with
independent logistic class probabilities (not a softmax).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .boxes import BBox, iou_matrix
from .graph import NetworkGraph, forward
from .tensor import FLOAT, ShapeError

DEFAULT_CONF_THRESHOLD = 0.25
DEFAULT_NMS_THRESHOLD = 0.45
NMS_BLOCK = 64  # boxes per NMS step; see nms

GRAY_FILL = 0.5

# tw/th are clamped to this before exp, so an exploding head still gives
# boxes whose corners and areas are finite in float64 (exp(300) ~ 2e130).
# Random-weight heads reach tw ~ 143; trained ones stay in single digits.
MAX_LOG_SIZE = 300.0

# default class-name tables by class count
CLASS_NAMES = {2: ("car", "bus"), 3: ("car", "bus", "truck")}


@dataclass(frozen=True)
class LetterboxTransform:
    scale: float
    pad_x: float
    pad_y: float
    orig_w: int
    orig_h: int


@dataclass(frozen=True)
class Detection:
    bbox: BBox
    class_id: int
    class_name: str
    objectness: float
    class_prob: float
    confidence: float


def class_names_for(classes: int, names: tuple[str, ...] | None = None) -> tuple[str, ...]:
    names = names or CLASS_NAMES.get(classes, tuple(f"class_{i}" for i in range(classes)))
    if len(names) != classes:
        raise ValueError(f"{len(names)} class names for {classes} classes")
    return names


def _sigmoid(x):
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


# ------------------------------------------------------------------ letterbox

def _resize_axis_indices(dst: int, src: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # half-pixel-center sampling grid for one axis
    coords = (np.arange(dst, dtype=np.float64) + 0.5) * (src / dst) - 0.5
    coords = np.clip(coords, 0.0, src - 1.0)
    lo = np.floor(coords).astype(np.int64)
    hi = np.minimum(lo + 1, src - 1)
    frac = coords - lo
    return lo, hi, frac


def resize_bilinear(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Separable bilinear resize of a (C, H, W) map into `out`, a float32
    (C, out_h, out_w) array, half-pixel convention; returns out.

    x is float, or uint8 read as float32 x / 255 (the values
    imaging.to_chw_float gives). One channel at a time, only the gathered
    rows are widened, so no float copy of the whole source is made. The
    float64 result is stored as float32 into out.
    """
    c, h, w = x.shape
    _, out_h, out_w = out.shape
    ylo, yhi, yf = _resize_axis_indices(out_h, h)
    xlo, xhi, xf = _resize_axis_indices(out_w, w)
    for ch in range(c):
        lo, hi = x[ch, ylo, :], x[ch, yhi, :]
        if x.dtype == np.uint8:  # to_chw_float's widening, on these rows only
            lo, hi = (r.astype(np.float32) / np.float32(255) for r in (lo, hi))
        rows = lo * (1 - yf)[:, None]
        rows += hi * yf[:, None]
        out[ch] = rows[:, xlo] * (1 - xf) + rows[:, xhi] * xf
    return out


def letterbox(image: np.ndarray, net_w: int,
              net_h: int) -> tuple[np.ndarray, LetterboxTransform]:
    """Aspect-preserving resize onto a gray canvas, centered.

    image: (3, H, W), float in [0, 1] or uint8 (such as the no-copy view
    `frame.transpose(2, 0, 1)` of an (H, W, 3) frame), which gives the same
    tensor as its imaging.to_chw_float image; other dtypes raise ValueError.
    Returns the (3, net_h, net_w) float32 network tensor and the transform
    mapping original coordinates to network pixels (x_net = x * scale +
    pad_x). The content is placed at integer offsets, so pads are integral
    and the transform inverts exactly.
    """
    if image.ndim != 3 or image.shape[0] != 3:
        raise ShapeError(f"expected (3, H, W) image tensor, got {image.shape}")
    if image.dtype != np.uint8 and not np.issubdtype(image.dtype, np.floating):
        raise ValueError(f"image dtype {image.dtype} is neither uint8 nor float")
    _, h, w = image.shape
    if h < 1 or w < 1 or net_w < 1 or net_h < 1:
        raise ShapeError(f"degenerate letterbox geometry: {w}x{h} -> {net_w}x{net_h}")
    scale = min(net_w / w, net_h / h)
    scaled_w = max(1, round(w * scale))
    scaled_h = max(1, round(h * scale))
    pad_x = (net_w - scaled_w) // 2
    pad_y = (net_h - scaled_h) // 2
    canvas = np.full((3, net_h, net_w), GRAY_FILL, dtype=FLOAT)
    resize_bilinear(image, canvas[:, pad_y:pad_y + scaled_h, pad_x:pad_x + scaled_w])
    return canvas, LetterboxTransform(scale=scale, pad_x=float(pad_x),
                                      pad_y=float(pad_y), orig_w=w, orig_h=h)


def unletterbox(detections: list[Detection],
                transform: LetterboxTransform) -> list[Detection]:
    """Map network-frame boxes back to original image pixels, clamped to bounds."""
    w, h = float(transform.orig_w), float(transform.orig_h)
    out = []
    for det in detections:
        b = det.bbox
        x1 = (b.x1 - transform.pad_x) / transform.scale
        y1 = (b.y1 - transform.pad_y) / transform.scale
        x2 = (b.x2 - transform.pad_x) / transform.scale
        y2 = (b.y2 - transform.pad_y) / transform.scale
        box = BBox(min(max(x1, 0.0), w), min(max(y1, 0.0), h),
                   min(max(x2, 0.0), w), min(max(y2, 0.0), h))
        out.append(replace(det, bbox=box))
    return out


# --------------------------------------------------------------------- decode

@dataclass(frozen=True)
class RawDetections:
    """One head's decoded predictions, before thresholding.

    boxes: (N, 4) corner-form in network pixels; objectness: (N,);
    class_probs: (N, classes). Row order is (anchor slot, cell y, cell x).
    """

    boxes: np.ndarray
    objectness: np.ndarray
    class_probs: np.ndarray


def decode_yolo(raw: np.ndarray, anchors, mask, net_w: int, net_h: int,
                classes: int) -> RawDetections:
    """Decode one raw head output (len(mask)*(5+classes), gh, gw).

    Per anchor slot and cell: center = (sigmoid(txy) + cell) / grid * net,
    size = anchor * exp(min(twh, MAX_LOG_SIZE)), objectness and class
    probabilities logistic.
    """
    slots = len(mask)
    per = 5 + classes
    c, gh, gw = raw.shape
    if c != slots * per:
        raise ShapeError(f"head has {c} channels but {slots} anchors x "
                         f"(5 + {classes} classes) needs {slots * per}")
    r = raw.astype(np.float64).reshape(slots, per, gh, gw)
    cx = np.arange(gw, dtype=np.float64)[None, None, :]
    cy = np.arange(gh, dtype=np.float64)[None, :, None]
    bx = (_sigmoid(r[:, 0]) + cx) / gw * net_w
    by = (_sigmoid(r[:, 1]) + cy) / gh * net_h
    anchor_w = np.array([anchors[m][0] for m in mask])[:, None, None]
    anchor_h = np.array([anchors[m][1] for m in mask])[:, None, None]
    bw = anchor_w * np.exp(np.minimum(r[:, 2], MAX_LOG_SIZE))
    bh = anchor_h * np.exp(np.minimum(r[:, 3], MAX_LOG_SIZE))
    objectness = _sigmoid(r[:, 4]).reshape(-1)
    class_probs = _sigmoid(r[:, 5:]).transpose(0, 2, 3, 1).reshape(-1, classes)
    boxes = np.stack([bx - bw / 2, by - bh / 2, bx + bw / 2, by + bh / 2],
                     axis=-1).reshape(-1, 4)
    return RawDetections(boxes=boxes, objectness=objectness,
                         class_probs=class_probs)


def filter_confidence(raw: RawDetections, threshold: float = DEFAULT_CONF_THRESHOLD,
                      class_names: tuple[str, ...] | None = None) -> list[Detection]:
    """Keep predictions with objectness * max class probability > threshold,
    assigning the argmax class. Input row order is preserved."""
    names = class_names_for(raw.class_probs.shape[1], class_names)
    best = raw.class_probs.argmax(axis=1)
    best_prob = raw.class_probs[np.arange(len(best)), best]
    conf = raw.objectness * best_prob
    out = []
    for i in np.flatnonzero(conf > threshold):
        out.append(Detection(bbox=BBox(*raw.boxes[i]),
                             class_id=int(best[i]), class_name=names[best[i]],
                             objectness=float(raw.objectness[i]),
                             class_prob=float(best_prob[i]),
                             confidence=float(conf[i])))
    return out


# ------------------------------------------------------------------------ NMS

def nms(detections: list[Detection],
        iou_threshold: float = DEFAULT_NMS_THRESHOLD) -> list[Detection]:
    """Greedy per-class suppression.

    Repeatedly keep the highest-confidence remaining detection (ties broken
    by lower original index) and drop same-class detections whose IoU with it
    exceeds the threshold. Output is sorted by confidence descending.

    Each class is walked in that order NMS_BLOCK boxes at a time. One
    block x block IoU matrix settles the greedy choice inside the block, one
    boolean row op per kept box; one (kept in block) x (later alive boxes)
    matrix then suppresses the later boxes. A later box dies iff some kept
    box before it overlaps it, and every IoU is the same elementwise formula
    with the kept box as `a`, so each decision equals the one-box-at-a-time
    walk. The block is 64 for memory: on 6,000 boxes of one class the traced
    peak is 26 MB at 64, 48 MB at 128 and 85 MB at 256, and 64 ran dense
    416 and 640 candidate sets within 10% of the fastest block tried.
    """
    boxes = np.array([d.bbox for d in detections], dtype=np.float64)
    conf = np.array([d.confidence for d in detections], dtype=np.float64)
    classes = np.array([d.class_id for d in detections])
    order = np.lexsort((np.arange(len(detections)), -conf))
    boxes, classes = boxes[order], classes[order]
    kept = []  # positions in `order`
    for c in np.unique(classes):
        members = np.flatnonzero(classes == c)
        class_boxes = boxes[members]
        alive = np.ones(len(members), dtype=bool)
        for s in range(0, len(members), NMS_BLOCK):
            e = s + NMS_BLOCK
            block = class_boxes[s:e]
            over = iou_matrix(block, block) > iou_threshold
            for k in range(len(block)):
                if alive[s + k]:
                    alive[s + k + 1:e] &= ~over[k, k + 1:]
            keep = s + np.flatnonzero(alive[s:e])
            kept.extend(members[keep])
            later = e + np.flatnonzero(alive[e:])
            over = iou_matrix(class_boxes[keep], class_boxes[later]) > iou_threshold
            alive[later[over.any(axis=0)]] = False
    return [detections[order[p]] for p in sorted(kept)]


# --------------------------------------------------------------------- detect

def detect(graph: NetworkGraph, image: np.ndarray,
           conf_threshold: float = DEFAULT_CONF_THRESHOLD,
           nms_threshold: float = DEFAULT_NMS_THRESHOLD,
           class_names: tuple[str, ...] | None = None) -> list[Detection]:
    """Full pipeline on one (3, H, W) image, float in [0, 1] or uint8 (see
    letterbox).

    Each head decodes with the anchors and mask of its own yolo layer.
    Returns detections in original-image pixel coordinates. class_names,
    when given, holds one name per class. A head that is not finite raises
    ValueError: its NaN confidences would otherwise fail every threshold and
    give no detections without a word; numpy's overflow warnings on the way
    are silenced.
    """
    heads = graph.yolo_layers
    if not heads:
        raise ShapeError("graph has no yolo layers to decode")
    classes = heads[0].spec.classes
    if any(l.spec.classes != classes for l in heads):
        raise ShapeError("yolo layers disagree on class count")
    names = class_names_for(classes, class_names)

    _, net_h, net_w = graph.input_shape
    tensor_in, transform = letterbox(image, net_w, net_h)
    with np.errstate(over="ignore", invalid="ignore"):
        raw_heads = forward(graph, tensor_in)

    candidates: list[Detection] = []
    for layer in heads:
        if not np.isfinite(raw_heads[layer.index]).all():
            raise ValueError(f"yolo layer {layer.index}: head output is not "
                             "finite (a non-finite input, or a layer output "
                             "past the float32 range)")
        raw = decode_yolo(raw_heads[layer.index], layer.spec.anchors,
                          layer.spec.mask, net_w, net_h, classes)
        candidates.extend(filter_confidence(raw, conf_threshold, names))
    return unletterbox(nms(candidates, nms_threshold), transform)


def detection_to_dict(det: Detection) -> dict:
    return {
        "class_id": det.class_id,
        "class_name": det.class_name,
        "confidence": det.confidence,
        "objectness": det.objectness,
        "class_prob": det.class_prob,
        "bbox": {"x1": det.bbox.x1, "y1": det.bbox.y1,
                 "x2": det.bbox.x2, "y2": det.bbox.y2},
    }
