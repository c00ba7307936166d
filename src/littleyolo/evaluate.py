"""Detection evaluation: greedy matching, average precision, mAP.

Annotations load into columns (Boxes), one row per box; no object is built
per box until a caller iterates them.

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
from array import array
from copy import copy
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .boxes import BBox, iou_matrix
from .config import to_floats

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


class Boxes:
    """GroundTruth or Prediction boxes (record says which) as columns, one row
    per box in load order: image and cls index the id tables images and
    classes (id -> index, first seen first), corners holds x1, y1, x2, y2
    flat, and values the difficult flag or the confidence."""

    def __init__(self, record: type, records=()):
        self.record, self.images, self.classes = record, {}, {}
        self.image, self.cls, self.corners, self.values = (array(t) for t in "qqdd")
        for r in records:
            self.extend(r.image_id, [r.class_name], r.bbox,
                        [r.difficult if record is GroundTruth else r.confidence])

    def extend(self, image_id: str, names: list, corners, values) -> None:
        """Append boxes of one image: a class name, four corners and a value each."""
        if names:
            self.image.fromlist([self.images.setdefault(image_id, len(self.images))] * len(names))
            self.cls.fromlist([self.classes.setdefault(n, len(self.classes)) for n in names])
            self.corners.fromlist(list(corners))
            self.values.fromlist(list(values))

    def __len__(self) -> int:
        return len(self.cls)

    def __iter__(self):
        images, classes, gt = list(self.images), list(self.classes), self.record is GroundTruth
        for i, c, box, v in zip(self.image, self.cls, zip(*[iter(self.corners)] * 4), self.values):
            yield (GroundTruth(images[i], classes[c], BBox(*box), bool(v)) if gt else
                   Prediction(images[i], classes[c], float(v), BBox(*box)))

    def of_class(self, name: str) -> Boxes:
        """The rows of class name as arrays, with the same id tables."""
        out, rows = copy(self), np.asarray(self.cls) == self.classes.get(name, -1)
        out.image, out.cls = np.asarray(self.image)[rows], np.asarray(self.cls)[rows]
        out.corners = np.reshape(self.corners, (-1, 4))[rows].ravel()
        out.values = np.asarray(self.values)[rows]
        return out


@dataclass
class EvalCorpus:
    ground_truths: Boxes = field(default_factory=lambda: Boxes(GroundTruth))
    predictions: Boxes = field(default_factory=lambda: Boxes(Prediction))

    def add_ground_truth(self, image_id, class_name, bbox, difficult=False):
        self.ground_truths.extend(str(image_id), [class_name], BBox(*bbox), [bool(difficult)])

    def add_prediction(self, image_id, class_name, confidence, bbox):
        self.predictions.extend(str(image_id), [class_name], BBox(*bbox), [float(confidence)])

    @property
    def class_names(self) -> list[str]:
        return sorted(self.ground_truths.classes.keys() | self.predictions.classes.keys())

    @property
    def image_ids(self) -> tuple[set, set]:
        return set(self.ground_truths.images), set(self.predictions.images)


# ------------------------------------------------------------------- matching

# Padded (prediction, ground truth) pairs in one lockstep block of images. A
# block's float64 IoU tensor and its temporaries take ~80 bytes a pair; an
# image with more pairs than this forms a block of its own.
MATCH_BLOCK_PAIRS = 4096
_FLAG_OF_CODE = (False, True, None)  # codes: 0 false positive, 1 hit, 2 ignored


def match_class(predictions, ground_truths,
                iou_threshold: float = 0.5) -> tuple[list[bool | None], int]:
    """Flag one class's predictions as TP (True), FP (False), or ignored (None).

    Each argument is Boxes or a list of records. Predictions are processed
    in confidence-descending order (ties keep input order); flags are
    returned in that processing order. Each takes the unmatched ground truth
    of its image with the highest IoU (the lowest index on ties) and is a hit
    when that IoU is positive and meets the threshold. Also returns the count
    of non-difficult ground truths (the recall denominator).

    Images are independent, so the greedy walk runs in lockstep over blocks
    of images: step k settles the k-th prediction of every image in a block.
    """
    preds = predictions if isinstance(predictions, Boxes) else Boxes(Prediction, predictions)
    gt = ground_truths if isinstance(ground_truths, Boxes) else Boxes(GroundTruth, ground_truths)
    conf = np.asarray(preds.values, dtype=np.float64)
    order = np.lexsort((np.arange(len(conf)), -conf))
    gt_image = np.asarray(gt.image, dtype=np.intp)  # images numbered by gt's id table
    n_gt = np.bincount(gt_image, minlength=len(gt.images) + 1)  # n_gt[-1] = 0: image -1, none
    step_image = np.array([gt.images.get(i, -1) for i in preds.images], dtype=np.intp)[
        np.asarray(preds.image, dtype=np.intp)][order]
    step_image[n_gt[step_image] == 0] = -1  # no ground truth of the class in its image
    difficult = np.asarray(gt.values, dtype=bool)
    codes = np.zeros(len(conf), dtype=np.int8)  # by processing step
    steps = np.flatnonzero(step_image >= 0)  # the rest have no ground truth
    n_pred = np.bincount(step_image[steps], minlength=len(n_gt))
    # most predictions first, so that the images of a block pad little
    images = np.lexsort((-n_gt, -n_pred))[:np.count_nonzero(n_pred)]
    rank = np.full(len(n_gt), len(images))
    rank[images] = np.arange(len(images))
    # each image's steps (in processing order) and ground truths, image
    # after image in rank order
    steps = steps[np.argsort(rank[step_image[steps]], kind="stable")]
    gts = np.argsort(rank[gt_image], kind="stable")
    pred_box, gt_box = np.reshape(preds.corners, (-1, 4)), np.reshape(gt.corners, (-1, 4))
    n_pred, n_gt = n_pred[images], n_gt[images]
    pred_start = np.concatenate(([0], np.cumsum(n_pred)))
    gt_start = np.concatenate(([0], np.cumsum(n_gt)))
    for first, last in _blocks(n_pred.tolist(), n_gt.tolist()):
        p = slice(pred_start[first], pred_start[last])
        g = gts[gt_start[first]:gt_start[last]]
        codes[steps[p]] = _match_block(pred_box[order[steps[p]]], gt_box[g], difficult[g],
                                       n_pred[first:last], n_gt[first:last], iou_threshold)
    return [_FLAG_OF_CODE[c] for c in codes.tolist()], int(np.count_nonzero(~difficult))


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
        flags, total_gt = match_class(corpus.predictions.of_class(name),
                                      corpus.ground_truths.of_class(name), iou_threshold)
        table[name] = average_precision(flags, total_gt, interpolation)
    defined = [v for v in table.values() if v is not None]
    if not defined:
        raise ValueError("no class has a defined AP")
    return table, float(np.mean(defined))


# -------------------------------------------------------------------- loaders

def load_ground_truth(path) -> Boxes:
    """Ground truth from a directory of VOC XML files or a flat text file.

    Flat lines: image_id class x1 y1 x2 y2 [difficult], the flag 0, 1 or
    difficult. A VOC <difficult> is 0 or 1 (missing means 0).
    """
    p, out = Path(path), Boxes(GroundTruth)
    if p.is_dir():
        for _ in voc_files(p, out):
            pass
    else:
        for f, box in _text_records(p, "image_id class x1 y1 x2 y2 [difficult]"):
            out.extend(f[0], [f[1]], box, [len(f) == 7 and f[6] != "0"])
    return out


def voc_files(p: Path, out: Boxes):
    """Append to out every <object> with a <bndbox> of each VOC XML file of
    directory p, by name, as a box of image id the file's stem, and yield
    (file, root) after each. XML that does not parse or declares an unknown
    encoding (ElementTree raises a SyntaxError or a LookupError), a <bndbox>
    value that is not a finite number (config.to_floats) and a <difficult>
    other than 0 or 1 raise ValueError naming the file and the object."""
    for f in sorted(p.glob("*.xml"), key=lambda f: f.name):
        try:
            root = ET.parse(str(f)).getroot()
        except (ET.ParseError, LookupError) as exc:
            raise ValueError(f"{f}: not well-formed XML: {exc}") from None
        names, texts, difficult, objects = [], [], [], []  # objects: each box's <object> index
        for i, obj in enumerate(root.iter("object")):
            if (box := obj.find("bndbox")) is None:
                continue
            if (flag := (obj.findtext("difficult") or "0").strip()) not in ("0", "1"):
                raise ValueError(f"{f}: object {i}: <difficult> {flag!r} is not 0 or 1")
            texts += (box.findtext("xmin", "0"), box.findtext("ymin", "0"),
                      box.findtext("xmax", "0"), box.findtext("ymax", "0"))
            objects.append(i)
            names.append((obj.findtext("name") or "object").strip())
            difficult.append(flag == "1")
        try:  # checked once; the first bad object on failure
            if not all(map(math.isfinite, corners := to_floats(texts))):
                raise ValueError
        except ValueError:
            for k, i in enumerate(objects):
                try:
                    _finite("<bndbox> (xmin, ymin, xmax, ymax)",
                            tuple(to_floats(texts[4 * k:4 * k + 4])))
                except ValueError as exc:
                    raise ValueError(f"{f}: object {i}: {exc}") from None
        out.extend(f.stem, names, corners, difficult)
        yield f, root


def _finite(what: str, values: tuple) -> tuple[float, ...]:
    """values as floats, when all are finite numbers; else TypeError for one that
    is not an int or a float, or ValueError '<what> = <values> is not finite'."""
    if not {int, float}.issuperset(map(type, values)):
        raise TypeError(f"{what} = {values!r} holds a value that is not a JSON number")
    if not all(map(math.isfinite, values := tuple(map(float, values)))):
        raise ValueError(f"{what} = {values} is not finite")
    return values


def read_json(p):
    """The document in JSON file p; a file that is not UTF-8 JSON, or nests
    too deep, raises ValueError naming p."""
    try:
        return json.loads(Path(p).read_bytes().decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{p}: not valid JSON: {exc}") from None


def _text_records(p: Path, form: str):
    """(fields, numbers) of each record line of flat text file p. '#' starts a
    comment; a line holds the fields that form names, and the ones after
    image_id and class must be finite numbers (config.to_floats), but for a
    bracketed last one: an optional flag, 0, 1 or its name. Errors raise
    ValueError naming p:line (p alone when it is not UTF-8)."""
    names = form.split()
    numbers = [n for n in names[2:] if not n.startswith("[")]
    what = f"({', '.join(numbers)})"
    flags = ("0", "1", names[-1].strip("[]"))
    lineno = 0
    try:  # a file that is not UTF-8 fails before line 1
        for lineno, raw in enumerate(p.read_text(encoding="utf-8").splitlines(), start=1):
            fields = raw.split("#", 1)[0].split()
            if not fields:
                continue
            if not 2 + len(numbers) <= len(fields) <= len(names):
                raise ValueError(f"expected '{form}', got {raw!r}")
            if len(fields) > 2 + len(numbers) and fields[-1] not in flags:
                raise ValueError(f"{flags[2]} flag {fields[-1]!r} is not one of {flags}")
            yield fields, _finite(what, tuple(to_floats(fields[2:2 + len(numbers)])))
    except ValueError as exc:
        raise ValueError(f"{p}:{lineno}: {exc}" if lineno else f"{p}: {exc}") from None


def load_predictions(path) -> Boxes:
    """Predictions from detection JSON (file or directory of files) or flat text.

    Flat lines: image_id class confidence x1 y1 x2 y2. Detection JSONs use
    the image path stem as the image id; two JSONs in one directory with the
    same id raise ValueError rather than merge.
    """
    p, out = Path(path), Boxes(Prediction)
    if p.is_dir():
        source_of: dict[str, Path] = {}
        for f in sorted(p.glob("*.json"), key=lambda f: f.name):
            if f.name == "index.json":
                continue
            image_id = _preds_from_detect_json(f, out)
            if image_id in source_of:
                raise ValueError(f"{source_of[image_id]} and {f} both hold "
                                 f"detections for image id {image_id!r}")
            source_of[image_id] = f
    elif p.suffix.lower() == ".json":
        _preds_from_detect_json(p, out)
    else:
        for f, (conf, *corners) in _text_records(p, "image_id class confidence x1 y1 x2 y2"):
            out.extend(f[0], [f[1]], corners, [conf])
    return out


def _preds_from_detect_json(p: Path, out: Boxes) -> str:
    """Append the predictions of one `littleyolo detect` output JSON to out;
    return its image id. A missing key, a wrongly typed value or a value that
    is not a finite JSON number raises ValueError naming p (and detection)."""
    doc = read_json(p)
    i, names, confs, corners = None, [], [], []
    try:
        image_id = Path(doc["image"]).stem
        for i, det in enumerate(doc["detections"]):
            b = det["bbox"]
            confs.append(det["confidence"])
            corners += b["x1"], b["y1"], b["x2"], b["y2"]
            names.append(det["class_name"])
        i, values = None, confs + corners  # checked once; the first bad detection on failure
        if not ({int, float}.issuperset(map(type, values)) and all(map(math.isfinite, values))
                and {str}.issuperset(map(type, names))):
            for i, name in enumerate(names):
                _finite("(confidence, x1, y1, x2, y2)", (confs[i], *corners[4 * i:4 * i + 4]))
                if not isinstance(name, str):
                    raise TypeError(f"class_name {name!r} is not a string")
        out.extend(image_id, names, corners, confs)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        what = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        where = p if i is None else f"{p}: detection {i}"
        raise ValueError(f"{where}: {what}") from None
    return image_id


# --------------------------------------------------------------------- report

def evaluation_report(corpus: EvalCorpus, iou_threshold: float = 0.5,
                      interpolation: str = "all") -> dict:
    table, map_value = mean_ap(corpus, iou_threshold, interpolation)
    return {
        "iou_threshold": iou_threshold,
        "interpolation": interpolation,
        "num_images": len(set.union(*corpus.image_ids)),
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
