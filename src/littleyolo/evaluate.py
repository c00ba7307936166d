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
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .boxes import BBox, iou_matrix

INTERPOLATIONS = ("all", "11point")


@dataclass(frozen=True)
class GroundTruth:
    image_id: str
    class_name: str
    bbox: BBox
    difficult: bool = False


@dataclass(frozen=True)
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

def match_class(predictions: list[Prediction], ground_truths: list[GroundTruth],
                iou_threshold: float = 0.5) -> tuple[list[bool | None], int]:
    """Flag one class's predictions as TP (True), FP (False), or ignored (None).

    Predictions are processed in confidence-descending order (ties keep input
    order); flags are returned in that processing order. Each takes the
    unmatched ground truth of its image with the highest IoU (the lowest
    index on ties) and is a hit when that IoU is positive and meets the
    threshold. Also returns the count of non-difficult ground truths (the
    recall denominator).
    """
    conf = np.array([p.confidence for p in predictions], dtype=np.float64)
    order = np.lexsort((np.arange(len(predictions)), -conf))
    gts_of: dict[str, list[GroundTruth]] = {}
    for gt in ground_truths:
        gts_of.setdefault(gt.image_id, []).append(gt)
    steps_of: dict[str, list[int]] = {}  # image id -> processing steps
    for step, i in enumerate(order):
        steps_of.setdefault(predictions[i].image_id, []).append(step)
    flags: list[bool | None] = [False] * len(predictions)
    for image_id, steps in steps_of.items():
        gts = gts_of.get(image_id)
        if not gts:
            continue
        ious = iou_matrix([predictions[order[s]].bbox for s in steps],
                          [g.bbox for g in gts])
        matched = np.zeros(len(gts), dtype=bool)
        for step, row in zip(steps, ious):
            row = np.where(matched, -1.0, row)
            best = int(row.argmax())
            if row[best] > 0 and row[best] >= iou_threshold:
                if gts[best].difficult:
                    flags[step] = None  # hit on a difficult box: ignored
                else:
                    matched[best] = True
                    flags[step] = True
    total_gt = sum(1 for g in ground_truths if not g.difficult)
    return flags, total_gt


# ------------------------------------------------------------------------- AP

def precision_recall(flags: list[bool | None], total_gt: int) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative precision/recall along the confidence-ranked flags."""
    counted = [f for f in flags if f is not None]
    tp = np.cumsum([1 if f else 0 for f in counted], dtype=np.float64)
    fp = np.cumsum([0 if f else 1 for f in counted], dtype=np.float64)
    precision = tp / np.maximum(tp + fp, 1e-300)
    recall = tp / total_gt if total_gt > 0 else np.zeros_like(tp)
    return precision, recall


def average_precision(flags: list[bool | None], total_gt: int,
                      interpolation: str = "all") -> float | None:
    """AP for one class; None when undefined (no GT and no counted predictions)."""
    if interpolation not in INTERPOLATIONS:
        raise ValueError(f"unknown interpolation {interpolation!r}; "
                         f"expected one of {INTERPOLATIONS}")
    counted = [f for f in flags if f is not None]
    if total_gt == 0:
        return 0.0 if counted else None
    precision, recall = precision_recall(flags, total_gt)
    if len(counted) == 0:
        return 0.0
    # monotone envelope: at each recall, the max precision at or right of it
    mrec = np.concatenate(([0.0], recall, [recall[-1]]))
    mpre = np.concatenate(([0.0], precision, [0.0]))
    for i in range(len(mpre) - 2, -1, -1):
        mpre[i] = max(mpre[i], mpre[i + 1])
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
    for f in sorted(p.glob("*.xml")):
        root = parse_voc_xml(f)
        image_id = f.stem
        for i, obj in enumerate(root.iter("object")):
            box = obj.find("bndbox")
            if box is None:
                continue
            bbox = BBox(*voc_bndbox(f, i, box))
            difficult = (obj.findtext("difficult") or "0").strip() == "1"
            name = (obj.findtext("name") or "object").strip()
            out.append(GroundTruth(image_id, name, bbox, difficult))
    return out


def voc_bndbox(f: Path, i: int, box: ET.Element) -> tuple[float, float, float, float]:
    """(xmin, ymin, xmax, ymax) of object i's <bndbox> in VOC file f; a value
    that is not a finite number raises ValueError naming the file and object."""
    try:
        corners = (float(box.findtext("xmin", "0")), float(box.findtext("ymin", "0")),
                   float(box.findtext("xmax", "0")), float(box.findtext("ymax", "0")))
    except ValueError as exc:
        raise ValueError(f"{f}: object {i}: {exc}") from None
    if not all(map(math.isfinite, corners)):
        raise ValueError(f"{f}: object {i}: <bndbox> (xmin, ymin, xmax, ymax) = "
                         f"{corners} is not finite")
    return corners


def parse_voc_xml(f: Path) -> ET.Element:
    """Root element of a VOC annotation file; XML that does not parse raises
    ValueError naming the file (ElementTree's ParseError is a SyntaxError)."""
    try:
        return ET.parse(str(f)).getroot()
    except ET.ParseError as exc:
        raise ValueError(f"{f}: not well-formed XML: {exc}") from None


def _gt_from_text(p: Path) -> list[GroundTruth]:
    out = []
    for lineno, raw in enumerate(p.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (6, 7):
            raise ValueError(f"{p}:{lineno}: expected 'image_id class x1 y1 x2 y2 "
                             f"[difficult]', got {raw!r}")
        difficult = len(parts) == 7 and parts[6] in ("1", "difficult")
        try:
            bbox = BBox(*(float(v) for v in parts[2:6]))
        except ValueError as exc:
            raise ValueError(f"{p}:{lineno}: {exc}") from None
        out.append(GroundTruth(parts[0], parts[1], bbox, difficult))
    return out


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
        for f in sorted(p.glob("*.json")):
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

    A missing key, a wrongly typed value or a non-numeric confidence or
    corner raises ValueError naming the file (and the detection's index).
    """
    with open(p, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{p}: not valid JSON: {exc}") from None
    i = None
    try:
        image_id = Path(doc["image"]).stem
        out = []
        for i, det in enumerate(doc["detections"]):
            b = det["bbox"]
            out.append(Prediction(image_id, det["class_name"], float(det["confidence"]),
                                  BBox(float(b["x1"]), float(b["y1"]),
                                       float(b["x2"]), float(b["y2"]))))
    except (KeyError, TypeError, ValueError) as exc:
        what = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        where = p if i is None else f"{p}: detection {i}"
        raise ValueError(f"{where}: {what}") from None
    return image_id, out


def _preds_from_text(p: Path) -> list[Prediction]:
    out = []
    for lineno, raw in enumerate(p.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 7:
            raise ValueError(f"{p}:{lineno}: expected 'image_id class confidence "
                             f"x1 y1 x2 y2', got {raw!r}")
        try:
            out.append(Prediction(parts[0], parts[1], float(parts[2]),
                                  BBox(*(float(v) for v in parts[3:7]))))
        except ValueError as exc:
            raise ValueError(f"{p}:{lineno}: {exc}") from None
    return out


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
