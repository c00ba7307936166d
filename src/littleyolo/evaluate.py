"""Detection evaluation: greedy matching, average precision, mAP.

Matching is greedy in confidence order: each prediction takes its best-IoU
unmatched ground truth in the same image and is a true positive when that
IoU meets the threshold. Difficult ground truths follow the VOC convention:
they never count toward the recall denominator, and a prediction whose best
match is difficult is ignored (neither TP nor FP).

AP uses all-point interpolation by default (area under the monotone
precision envelope); the older 11-point average is available as an option.
"""

from __future__ import annotations

import json
import math
import sys
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from .boxes import BBox, iou_matrix

INTERPOLATIONS = ("all", "11point")


@dataclass(frozen=True, slots=True)
class GroundTruth:
    image_id: str
    class_name: str
    bbox: BBox
    difficult: bool = False


@dataclass(frozen=True, slots=True)
class Prediction:
    image_id: str
    class_name: str
    confidence: float
    bbox: BBox


@dataclass
class EvalCorpus:
    ground_truths: list[GroundTruth] = field(default_factory=list)
    predictions: list[Prediction] = field(default_factory=list)

    def add_ground_truth(self, image_id, class_name, bbox, difficult=False):
        self.ground_truths.append(GroundTruth(str(image_id), class_name,
                                              BBox(*bbox), bool(difficult)))

    def add_prediction(self, image_id, class_name, confidence, bbox):
        self.predictions.append(Prediction(str(image_id), class_name,
                                           float(confidence), BBox(*bbox)))

    @property
    def class_names(self) -> list[str]:
        names = {g.class_name for g in self.ground_truths}
        names |= {p.class_name for p in self.predictions}
        return sorted(names)

    @property
    def image_ids(self) -> tuple[set, set]:
        return ({g.image_id for g in self.ground_truths},
                {p.image_id for p in self.predictions})


# ------------------------------------------------------------------- matching

# Padded (prediction, ground truth) pairs in one lockstep block of images. A
# block's float64 IoU tensor and its temporaries take ~80 bytes a pair; an
# image with more pairs than this forms a block of its own.
MATCH_BLOCK_PAIRS = 4096
_FLAG_OF_CODE = (False, True, None)  # codes: 0 false positive, 1 hit, 2 ignored


def match_class(predictions: list[Prediction], ground_truths: list[GroundTruth],
                iou_threshold: float = 0.5) -> tuple[list[bool | None], int]:
    """Flag one class's predictions as TP (True), FP (False), or ignored (None).

    Predictions are processed in confidence-descending order (ties keep input
    order); flags are returned in that processing order. Each takes the
    unmatched ground truth of its image with the highest IoU (the lowest
    index on ties) and is a hit when that IoU is positive and meets the
    threshold. Also returns the count of non-difficult ground truths (the
    recall denominator).

    Images are independent, so the greedy walk runs in lockstep over blocks
    of images: step k settles the k-th prediction of every image in a block.
    """
    conf = np.array([p.confidence for p in predictions], dtype=np.float64)
    order = np.lexsort((np.arange(len(predictions)), -conf))
    image_of: dict[str, int] = {}
    gt_image = np.array([image_of.setdefault(g.image_id, len(image_of))
                         for g in ground_truths], dtype=np.intp)
    step_image = np.array([image_of.get(p.image_id, -1) for p in predictions],
                          dtype=np.intp)[order]
    difficult = np.array([g.difficult for g in ground_truths], dtype=bool)
    codes = np.zeros(len(predictions), dtype=np.int8)  # by processing step
    steps = np.flatnonzero(step_image >= 0)  # the rest have no ground truth
    n_pred = np.bincount(step_image[steps], minlength=len(image_of))
    n_gt = np.bincount(gt_image, minlength=len(image_of))
    # most predictions first, so that the images of a block pad little
    images = np.lexsort((-n_gt, -n_pred))[:np.count_nonzero(n_pred)]
    rank = np.full(len(image_of), len(images))
    rank[images] = np.arange(len(images))
    # each image's steps (in processing order) and ground truths, image
    # after image in rank order
    steps = steps[np.argsort(rank[step_image[steps]], kind="stable")]
    gts = np.argsort(rank[gt_image], kind="stable")
    pred_box, gt_box = _box_array(predictions), _box_array(ground_truths)
    n_pred, n_gt = n_pred[images], n_gt[images]
    pred_start = np.concatenate(([0], np.cumsum(n_pred)))
    gt_start = np.concatenate(([0], np.cumsum(n_gt)))
    for first, last in _blocks(n_pred.tolist(), n_gt.tolist()):
        p = slice(pred_start[first], pred_start[last])
        g = gts[gt_start[first]:gt_start[last]]
        codes[steps[p]] = _match_block(pred_box[order[steps[p]]], gt_box[g], difficult[g],
                                       n_pred[first:last], n_gt[first:last], iou_threshold)
    return [_FLAG_OF_CODE[c] for c in codes.tolist()], int(np.count_nonzero(~difficult))


def _box_array(items) -> np.ndarray:
    """(N, 4) float64 corners of the .bbox of each item."""
    return np.fromiter(chain.from_iterable(item.bbox for item in items),
                       dtype=np.float64, count=4 * len(items)).reshape(-1, 4)


def _blocks(n_pred: list[int], n_gt: list[int]):
    """Cut images, in n_pred-descending order, into [first, last) runs whose
    padded pair count is at most MATCH_BLOCK_PAIRS, or that hold one image."""
    first = 0
    while first < len(n_pred):
        height, last = n_gt[first], first + 1
        while (last < len(n_pred) and (last + 1 - first) * n_pred[first]
               * max(height, n_gt[last]) <= MATCH_BLOCK_PAIRS):
            height, last = max(height, n_gt[last]), last + 1
        yield first, last
        first = last


def _slots(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(image, column) of each item when items come image after image,
    counts[b] of them for image b."""
    image = np.repeat(np.arange(len(counts)), counts)
    return image, np.arange(len(image)) - np.repeat(np.cumsum(counts) - counts, counts)


def _match_block(pred_box, gt_box, gt_difficult, n_pred, n_gt, iou_threshold) -> np.ndarray:
    """Codes of the predictions of a block of images: n_pred[b] prediction
    boxes (in processing order) and n_gt[b] ground truths for image b, image
    after image."""
    images, rows = len(n_pred), np.arange(len(n_pred))
    pred_slot, gt_slot = _slots(n_pred), _slots(n_gt)
    preds = np.zeros((images, n_pred.max(), 4))
    preds[pred_slot] = pred_box
    gts = np.zeros((images, n_gt.max(), 4))
    gts[gt_slot] = gt_box
    difficult = np.zeros(gts.shape[:2], dtype=bool)
    difficult[gt_slot] = gt_difficult
    matched = np.ones(gts.shape[:2], dtype=bool)  # padding reads -1, never wins
    matched[gt_slot] = False
    ious = iou_matrix(preds, gts)
    codes = np.zeros(preds.shape[:2], dtype=np.int8)
    for k in range(preds.shape[1]):
        row = np.where(matched, -1.0, ious[:, k])
        best = row.argmax(axis=1)
        value = row[rows, best]
        hit = (value > 0) & (value >= iou_threshold)
        ignored = difficult[rows, best]
        take = hit & ~ignored
        matched[rows[take], best[take]] = True
        codes[:, k] = np.where(hit, 1 + ignored, 0)
    return codes[pred_slot]


# ------------------------------------------------------------------------- AP

def precision_recall(flags: list[bool | None], total_gt: int) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative precision/recall along the confidence-ranked flags."""
    hits = np.array([f for f in flags if f is not None], dtype=bool)
    tp = np.cumsum(hits, dtype=np.float64)
    fp = np.cumsum(~hits, dtype=np.float64)
    precision = tp / np.maximum(tp + fp, 1e-300)
    recall = tp / total_gt if total_gt > 0 else np.zeros_like(tp)
    return precision, recall


def average_precision(flags: list[bool | None], total_gt: int,
                      interpolation: str = "all") -> float | None:
    """AP for one class; None when undefined (no GT and no counted predictions)."""
    if interpolation not in INTERPOLATIONS:
        raise ValueError(f"unknown interpolation {interpolation!r}; "
                         f"expected one of {INTERPOLATIONS}")
    if total_gt == 0:
        return 0.0 if any(f is not None for f in flags) else None
    precision, recall = precision_recall(flags, total_gt)
    if len(precision) == 0:
        return 0.0
    # monotone envelope: at each recall, the max precision at or right of it
    mrec = np.concatenate(([0.0], recall, [recall[-1]]))
    mpre = np.maximum.accumulate(np.concatenate(([0.0], precision, [0.0]))[::-1])[::-1]
    if interpolation == "11point":
        levels = np.arange(11) / 10.0  # i/10 exactly; linspace's i*0.1 drifts an ulp
        vals = [mpre[np.searchsorted(mrec, t, side="left")] if t <= mrec[-1] else 0.0
                for t in levels]
        return float(np.mean(vals))
    changed = np.where(mrec[1:] != mrec[:-1])[0]
    return float(np.sum((mrec[changed + 1] - mrec[changed]) * mpre[changed + 1]))


def mean_ap(corpus: EvalCorpus, iou_threshold: float = 0.5,
            interpolation: str = "all") -> tuple[dict[str, float | None], float]:
    """Per-class AP table and their unweighted mean (undefined classes excluded)."""
    if not corpus.ground_truths and not corpus.predictions:
        raise ValueError("empty corpus: nothing to evaluate")
    table: dict[str, float | None] = {}
    for name in corpus.class_names:
        preds = [p for p in corpus.predictions if p.class_name == name]
        gts = [g for g in corpus.ground_truths if g.class_name == name]
        flags, total_gt = match_class(preds, gts, iou_threshold)
        table[name] = average_precision(flags, total_gt, interpolation)
    defined = [v for v in table.values() if v is not None]
    if not defined:
        raise ValueError("no class has a defined AP")
    return table, float(np.mean(defined))


# -------------------------------------------------------------------- loaders

def load_ground_truth(path) -> list[GroundTruth]:
    """Ground truth from a directory of VOC XML files or a flat text file.

    Flat lines: image_id class x1 y1 x2 y2 [difficult]
    """
    p = Path(path)
    if p.is_dir():
        return _gt_from_voc_dir(p)
    return _gt_from_text(p)


def _gt_from_voc_dir(p: Path) -> list[GroundTruth]:
    out = []
    for f in sorted(p.glob("*.xml"), key=lambda f: f.name):
        root = parse_voc_xml(f)
        image_id = f.stem
        for i, obj in enumerate(root.iter("object")):
            box = obj.find("bndbox")
            if box is None:
                continue
            bbox = BBox(*voc_bndbox(f, i, box))
            difficult = (obj.findtext("difficult") or "0").strip() == "1"
            name = sys.intern((obj.findtext("name") or "object").strip())
            out.append(GroundTruth(image_id, name, bbox, difficult))
    return out


def voc_bndbox(f: Path, i: int, box: ET.Element) -> tuple[float, float, float, float]:
    """(xmin, ymin, xmax, ymax) of object i's <bndbox> in VOC file f; a value
    that is not a finite number raises ValueError naming the file and object."""
    try:
        return _finite("<bndbox> (xmin, ymin, xmax, ymax)",
                      (float(box.findtext("xmin", "0")), float(box.findtext("ymin", "0")),
                       float(box.findtext("xmax", "0")), float(box.findtext("ymax", "0"))))
    except ValueError as exc:
        raise ValueError(f"{f}: object {i}: {exc}") from None


def _finite(what: str, values: tuple[float, ...]) -> tuple[float, ...]:
    """values, when all are finite; else ValueError '<what> = <values> is not finite'."""
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{what} = {values} is not finite")
    return values


def parse_voc_xml(f: Path) -> ET.Element:
    """Root element of a VOC annotation file; XML that does not parse, or
    declares an unknown encoding, raises ValueError naming the file
    (ElementTree raises a SyntaxError or a LookupError)."""
    try:
        return ET.parse(str(f)).getroot()
    except (ET.ParseError, LookupError) as exc:
        raise ValueError(f"{f}: not well-formed XML: {exc}") from None


def _gt_from_text(p: Path) -> list[GroundTruth]:
    return [GroundTruth(f[0], f[1], BBox(*box), len(f) == 7 and f[6] in ("1", "difficult"))
            for f, box in _text_records(p, "image_id class x1 y1 x2 y2 [difficult]")]


def _text_records(p: Path, form: str):
    """(fields, numbers) of each record line of flat text file p. '#' starts a
    comment; a line holds the fields that form names (a bracketed last one is
    optional), and the ones after image_id and class must be finite numbers.
    Errors raise ValueError naming p:line (p alone when it is not UTF-8)."""
    names = form.split()
    numbers = [n for n in names[2:] if not n.startswith("[")]
    what = f"({', '.join(numbers)})"
    lineno = 0
    try:  # a file that is not UTF-8 fails before line 1
        for lineno, raw in enumerate(p.read_text(encoding="utf-8").splitlines(), start=1):
            fields = raw.split("#", 1)[0].split()
            if not fields:
                continue
            if not 2 + len(numbers) <= len(fields) <= len(names):
                raise ValueError(f"expected '{form}', got {raw!r}")
            yield fields, _finite(what, tuple(map(float, fields[2:2 + len(numbers)])))
    except ValueError as exc:
        raise ValueError(f"{p}:{lineno}: {exc}" if lineno else f"{p}: {exc}") from None


def load_predictions(path) -> list[Prediction]:
    """Predictions from detection JSON (file or directory of files) or flat text.

    Flat lines: image_id class confidence x1 y1 x2 y2. Detection JSONs use
    the image path stem as the image id; two JSONs in one directory with the
    same id raise ValueError rather than merge.
    """
    p = Path(path)
    if p.is_dir():
        out = []
        source_of: dict[str, Path] = {}
        for f in sorted(p.glob("*.json"), key=lambda f: f.name):
            if f.name == "index.json":
                continue
            image_id, preds = _preds_from_detect_json(f)
            if image_id in source_of:
                raise ValueError(f"{source_of[image_id]} and {f} both hold "
                                 f"detections for image id {image_id!r}")
            source_of[image_id] = f
            out.extend(preds)
        return out
    if p.suffix.lower() == ".json":
        return _preds_from_detect_json(p)[1]
    return _preds_from_text(p)


def _preds_from_detect_json(p: Path) -> tuple[str, list[Prediction]]:
    """(image id, predictions) of one `littleyolo detect` output JSON.

    A missing key, a wrongly typed value or a non-numeric or non-finite
    confidence or corner raises ValueError naming the file (and the
    detection's index).
    """
    with open(p, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:  # also not UTF-8, or too deep
            raise ValueError(f"{p}: not valid JSON: {exc}") from None
    i = None
    try:
        image_id = Path(doc["image"]).stem
        out = []
        for i, det in enumerate(doc["detections"]):
            b = det["bbox"]
            conf, *corners = _finite("(confidence, x1, y1, x2, y2)", (
                float(det["confidence"]), float(b["x1"]), float(b["y1"]),
                float(b["x2"]), float(b["y2"])))
            if not isinstance(det["class_name"], str):
                raise TypeError(f"class_name {det['class_name']!r} is not a string")
            out.append(Prediction(image_id, sys.intern(det["class_name"]), conf,
                                  BBox(*corners)))
    except (KeyError, TypeError, ValueError) as exc:
        what = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        where = p if i is None else f"{p}: detection {i}"
        raise ValueError(f"{where}: {what}") from None
    return image_id, out


def _preds_from_text(p: Path) -> list[Prediction]:
    return [Prediction(f[0], f[1], conf, BBox(*corners)) for f, (conf, *corners)
            in _text_records(p, "image_id class confidence x1 y1 x2 y2")]


# --------------------------------------------------------------------- report

def evaluation_report(corpus: EvalCorpus, iou_threshold: float = 0.5,
                      interpolation: str = "all") -> dict:
    table, map_value = mean_ap(corpus, iou_threshold, interpolation)
    return {
        "iou_threshold": iou_threshold,
        "interpolation": interpolation,
        "num_images": len(set.union(*corpus.image_ids)) if (corpus.ground_truths or corpus.predictions) else 0,
        "num_ground_truths": len(corpus.ground_truths),
        "num_predictions": len(corpus.predictions),
        "per_class": table,
        "map": map_value,
    }


def format_report(report: dict) -> str:
    width = max([len(n) for n in report["per_class"]] + [5])
    lines = [f"{'class':<{width}}  {'AP':>8}"]
    for name, ap in sorted(report["per_class"].items()):
        shown = "undefined" if ap is None else f"{ap:8.4f}"
        lines.append(f"{name:<{width}}  {shown:>8}")
    label = {"all": "all-point", "11point": "11-point"}[report["interpolation"]]
    lines.append(f"{'mAP':<{width}}  {report['map']:8.4f}   "
                 f"(iou {report['iou_threshold']}, {label})")
    return "\n".join(lines)
