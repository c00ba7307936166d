"""Axis-aligned box math: IoU, GIoU, the GIoU loss and its gradient, MSE.

Boxes are corner-form (x1, y1, x2, y2) with x2 >= x1 and y2 >= y1. GIoU
extends IoU with an enclosing-box penalty:

    giou = iou - (enclose_area - union) / enclose_area

which lies in (-1, 1] and, unlike IoU, still carries a signal (and a
gradient) when the boxes are disjoint. All math is float64.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class BBox(NamedTuple):
    x1: float
    y1: float
    x2: float
    y2: float

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        return self.width * self.height


@dataclass(frozen=True)
class GIoUBreakdown:
    """All intermediate quantities of one GIoU evaluation.

    degenerate is True when union or enclosing area is zero, in which case
    iou and giou are reported as 0.
    """

    intersection: float
    union: float
    pred_area: float
    gt_area: float
    enclose_area: float
    iou: float
    giou: float
    degenerate: bool


def _intersection(a: BBox, b: BBox) -> float:
    iw = min(a.x2, b.x2) - max(a.x1, b.x1)
    ih = min(a.y2, b.y2) - max(a.y1, b.y1)
    if iw <= 0 or ih <= 0:
        return 0.0
    return iw * ih


def giou(pred: BBox, gt: BBox) -> GIoUBreakdown:
    """Full GIoU breakdown for a corner-form box pair."""
    pred, gt = BBox(*pred), BBox(*gt)
    inter = _intersection(pred, gt)
    pred_area = pred.area
    gt_area = gt.area
    union = pred_area + gt_area - inter
    enclose = ((max(pred.x2, gt.x2) - min(pred.x1, gt.x1))
               * (max(pred.y2, gt.y2) - min(pred.y1, gt.y1)))
    if union <= 0 or enclose <= 0:
        return GIoUBreakdown(inter, union, pred_area, gt_area, enclose,
                             iou=0.0, giou=0.0, degenerate=True)
    iou_val = inter / union
    return GIoUBreakdown(inter, union, pred_area, gt_area, enclose,
                         iou=iou_val, giou=iou_val - (enclose - union) / enclose,
                         degenerate=False)


def iou(a: BBox, b: BBox) -> float:
    """Intersection over union; 0 when the union is degenerate."""
    return giou(a, b).iou


def giou_loss(pred: BBox, gt: BBox) -> float:
    """1 - giou, in [0, 2)."""
    return 1.0 - giou(pred, gt).giou


def giou_loss_grad(pred: BBox, gt: BBox) -> np.ndarray:
    """Analytic d(giou_loss)/d(pred) as a 4-vector (x1, y1, x2, y2).

    Piecewise-smooth: at ties between pred and gt edges the derivative of the
    piece where the pred edge is active is used. Degenerate pairs (zero union
    or enclosing area, see GIoUBreakdown.degenerate) get a zero gradient.
    """
    pred, gt = BBox(*pred), BBox(*gt)
    b = giou(pred, gt)
    if b.degenerate:
        return np.zeros(4)

    pw, ph = pred.width, pred.height
    # d(pred_area)/d(x1,y1,x2,y2)
    d_pred = np.array([-ph, -pw, ph, pw])

    iw = min(pred.x2, gt.x2) - max(pred.x1, gt.x1)
    ih = min(pred.y2, gt.y2) - max(pred.y1, gt.y1)
    d_inter = np.zeros(4)
    if iw > 0 and ih > 0:
        if pred.x1 >= gt.x1:
            d_inter[0] = -ih
        if pred.y1 >= gt.y1:
            d_inter[1] = -iw
        if pred.x2 <= gt.x2:
            d_inter[2] = ih
        if pred.y2 <= gt.y2:
            d_inter[3] = iw

    cw = max(pred.x2, gt.x2) - min(pred.x1, gt.x1)
    ch = max(pred.y2, gt.y2) - min(pred.y1, gt.y1)
    d_enclose = np.zeros(4)
    if pred.x1 <= gt.x1:
        d_enclose[0] = -ch
    if pred.y1 <= gt.y1:
        d_enclose[1] = -cw
    if pred.x2 >= gt.x2:
        d_enclose[2] = ch
    if pred.y2 >= gt.y2:
        d_enclose[3] = cw

    d_union = d_pred - d_inter
    d_iou = (d_inter * b.union - b.intersection * d_union) / b.union ** 2
    # giou = iou - 1 + union / enclose_area
    d_giou = d_iou + (d_union * b.enclose_area - b.union * d_enclose) / b.enclose_area ** 2
    return -d_giou


def mse(y: np.ndarray, y_pred: np.ndarray) -> float:
    """Mean squared error over two equal-length vectors."""
    y = np.asarray(y, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    if y.shape != y_pred.shape:
        raise ValueError(f"length mismatch: {y.shape} vs {y_pred.shape}")
    if y.size == 0:
        raise ValueError("mse of empty vectors is undefined")
    return float(np.mean((y - y_pred) ** 2))


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU for corner-form box arrays a (..., N, 4) and b (..., M, 4)
    -> (..., N, M); leading dimensions broadcast, and a flat sequence of
    boxes counts as (N, 4)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    a = a.reshape(-1, 4) if a.ndim < 2 else a
    b = b.reshape(-1, 4) if b.ndim < 2 else b
    # Three (..., N, M) buffers, reused in place: lo holds x1, y1, then the
    # union; inter holds x2, the width, the intersection, then the IoU;
    # height holds y2, then the height.
    lo = np.maximum(a[..., :, None, 0], b[..., None, :, 0])
    inter = np.minimum(a[..., :, None, 2], b[..., None, :, 2])
    np.clip(np.subtract(inter, lo, out=inter), 0, None, out=inter)
    np.maximum(a[..., :, None, 1], b[..., None, :, 1], out=lo)
    height = np.minimum(a[..., :, None, 3], b[..., None, :, 3])
    np.clip(np.subtract(height, lo, out=height), 0, None, out=height)
    inter *= height
    del height
    area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
    area_b = (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
    union = np.add(area_a[..., :, None], area_b[..., None, :], out=lo)
    union -= inter
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(inter, union, out=inter)
    inter[~(union > 0)] = 0.0
    return inter
