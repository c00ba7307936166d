"""Output checks: invariants on every seed, golden outputs on the default seed.

Each check returns a list of problems (empty when the output is correct), so
a bad output adds to the run's failures without aborting it. Detections are
dicts with `class_id`, `confidence` and `bbox` {x1, y1, x2, y2}, the keys
of the JSON `detect` writes. Nothing here imports the package under test.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
GOLDEN_SEED = 0

# Golden tolerances. Detection count and class ids must match exactly.
BOX_TOL = 1e-2        # pixels, absolute, per corner coordinate
CONF_TOL = 1e-5       # absolute
AP_TOL = 1e-12        # per-class AP and mAP, absolute
ANCHOR_TOL = 1e-9     # pixels, absolute
REFERENCE_AP_TOL = 1e-9   # eval's mAP against this module's own AP

# The package's default thresholds, which every workload runs with.
CONF_THRESHOLD = 0.25
NMS_THRESHOLD = 0.45


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU of corner-form boxes a (N, 4) and b (M, 4)."""
    ix = np.minimum(a[:, None, 2], b[None, :, 2]) - np.maximum(a[:, None, 0], b[None, :, 0])
    iy = np.minimum(a[:, None, 3], b[None, :, 3]) - np.maximum(a[:, None, 1], b[None, :, 1])
    inter = np.clip(ix, 0, None) * np.clip(iy, 0, None)
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    union = area_a[:, None] + area_b[None, :] - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(union > 0, inter / union, 0.0)


def _boxes(dets: list[dict]) -> np.ndarray:
    return np.array([[d["bbox"][k] for k in ("x1", "y1", "x2", "y2")] for d in dets],
                    dtype=np.float64).reshape(-1, 4)


def detection_problems(dets: list[dict], width: int, height: int,
                       conf_threshold: float, nms_threshold: float) -> list[str]:
    """Invariants any correct detect() output has, whatever the input."""
    problems = []
    conf = np.array([d["confidence"] for d in dets], dtype=np.float64)
    if np.any(np.diff(conf) > 0):
        problems.append("detections are not sorted by confidence")
    if np.any(conf <= conf_threshold):
        problems.append(f"a confidence is not above the threshold {conf_threshold}")
    boxes = _boxes(dets)
    inside = ((boxes[:, 0] >= 0) & (boxes[:, 1] >= 0) & (boxes[:, 2] <= width)
              & (boxes[:, 3] <= height) & (boxes[:, 0] <= boxes[:, 2])
              & (boxes[:, 1] <= boxes[:, 3]))
    if not inside.all():
        problems.append(f"{int((~inside).sum())} boxes are not inside the "
                        f"{width}x{height} image")
    # NMS compares boxes before they are clamped to the image, and clamping
    # can raise an IoU, so only pairs of boxes clear of the border are checked.
    clear = ((boxes[:, 0] > 0) & (boxes[:, 1] > 0) & (boxes[:, 2] < width)
             & (boxes[:, 3] < height))
    classes = np.array([d["class_id"] for d in dets])
    for cls in np.unique(classes):
        sel = boxes[(classes == cls) & clear]
        overlap = np.triu(iou_matrix(sel, sel), k=1)
        if np.any(overlap > nms_threshold + 1e-9):
            problems.append(f"class {cls}: a kept pair has IoU "
                            f"{overlap.max():.4f} > {nms_threshold}")
    return problems


def nms_problems(candidates: list[dict], kept: list[dict], nms_threshold: float) -> list[str]:
    """Whether `kept` is exactly the greedy per-class NMS of `candidates`.

    In rank order (confidence descending, ties by input order) a candidate
    is kept iff no earlier kept candidate of its class overlaps it with IoU
    above the threshold. Boxes are in the network frame, before clamping.
    """
    order = sorted(range(len(candidates)), key=lambda i: (-candidates[i]["confidence"], i))
    rank = {i: r for r, i in enumerate(order)}
    key = [(d["class_id"], d["confidence"], *d["bbox"].values()) for d in candidates]
    pool: dict[tuple, list[int]] = {}
    for i in reversed(order):
        pool.setdefault(key[i], []).append(i)
    chosen = []
    for d in kept:
        matches = pool.get((d["class_id"], d["confidence"], *d["bbox"].values()))
        if not matches:
            return ["a kept detection is not among the NMS candidates"]
        chosen.append(matches.pop())
    if [rank[i] for i in chosen] != sorted(rank[i] for i in chosen):
        return ["kept detections are not in rank order"]
    boxes = _boxes(candidates)
    classes = np.array([d["class_id"] for d in candidates])
    is_kept = np.zeros(len(candidates), bool)
    is_kept[chosen] = True
    ranks = np.array([rank[i] for i in range(len(candidates))])
    problems = []
    for cls in np.unique(classes):
        members = np.flatnonzero(classes == cls)
        keepers = members[is_kept[members]]
        overlap = iou_matrix(boxes[keepers], boxes[members]) > nms_threshold
        earlier = ranks[keepers][:, None] < ranks[members][None, :]
        suppressed = (overlap & earlier).any(axis=0)
        if np.any(suppressed & is_kept[members]):
            problems.append(f"class {cls}: a kept detection overlaps an earlier kept one")
        if np.any(~suppressed & ~is_kept[members]):
            problems.append(f"class {cls}: a dropped detection overlaps no earlier kept one")
    return problems


def golden_detections(dets: list[dict]) -> list[list]:
    """The compact form a golden file stores: [class_id, conf, x1, y1, x2, y2]."""
    return [[d["class_id"], d["confidence"], *(d["bbox"][k] for k in ("x1", "y1", "x2", "y2"))]
            for d in dets]


def compare_detections(dets: list[dict], want: list[list] | None) -> list[str]:
    if want is None:
        return ["no golden output for this image"]
    got = golden_detections(dets)
    if len(got) != len(want):
        return [f"{len(got)} detections, golden has {len(want)}"]
    got_cls = [g[0] for g in got]
    if got_cls != [w[0] for w in want]:
        return ["class ids differ from golden"]
    got_arr, want_arr = np.array(got, dtype=np.float64), np.array(want, dtype=np.float64)
    problems = []
    conf_err = np.abs(got_arr[:, 1] - want_arr[:, 1]).max(initial=0.0)
    if conf_err > CONF_TOL:
        problems.append(f"confidence differs from golden by {conf_err:.3g} > {CONF_TOL}")
    box_err = np.abs(got_arr[:, 2:] - want_arr[:, 2:]).max(initial=0.0)
    if box_err > BOX_TOL:
        problems.append(f"box differs from golden by {box_err:.3g} px > {BOX_TOL}")
    return problems


# ----------------------------------------------------------------- annotations

def reference_map(gt_dir: Path, preds_dir: Path, iou_threshold: float = 0.5) -> dict:
    """VOC all-point AP per class, recomputed independently of `evaluate`.

    Same conventions: greedy in confidence order (ties keep load order), a
    prediction takes its best-IoU unmatched box of its class in its image,
    a hit on a difficult box is ignored and leaves the box unmatched.
    """
    import xml.etree.ElementTree as ET

    gts: dict[tuple[str, str], list] = {}
    for f in sorted(Path(gt_dir).glob("*.xml")):
        for obj in ET.parse(f).getroot().iter("object"):
            b = obj.find("bndbox")
            box = [float(b.findtext(k)) for k in ("xmin", "ymin", "xmax", "ymax")]
            gts.setdefault((obj.findtext("name").strip(), f.stem), []).append(
                (box, obj.findtext("difficult").strip() == "1"))
    preds: dict[str, list] = {}
    for f in sorted(Path(preds_dir).glob("*.json")):
        doc = json.loads(f.read_text())
        stem = Path(doc["image"]).stem
        for d in doc["detections"]:
            preds.setdefault(d["class_name"], []).append(
                (d["confidence"], stem, [d["bbox"][k] for k in ("x1", "y1", "x2", "y2")]))
    names = sorted({n for n, _ in gts} | set(preds))
    table = {}
    for name in names:
        boxes = {img: (np.array([b for b, _ in v]), np.array([d for _, d in v]),
                       np.zeros(len(v), bool))
                 for (n, img), v in gts.items() if n == name}
        total = sum(int((~diff).sum()) for _, diff, _ in boxes.values())
        flags = []
        ranked = sorted(enumerate(preds.get(name, [])), key=lambda t: (-t[1][0], t[0]))
        for _, (_, img, box) in ranked:
            if img not in boxes:
                flags.append(False)
                continue
            gbox, diff, used = boxes[img]
            ious = np.where(used, -1.0, iou_matrix(np.array([box]), gbox)[0])
            best = int(np.argmax(ious))
            if ious[best] > 0 and ious[best] >= iou_threshold:
                if diff[best]:
                    continue
                used[best] = True
                flags.append(True)
            else:
                flags.append(False)
        if total == 0:
            table[name] = 0.0 if flags else None
            continue
        tp = np.cumsum(flags, dtype=np.float64)
        precision = tp / np.arange(1, len(flags) + 1)
        recall = tp / total
        mpre = np.concatenate(([0.0], precision, [0.0]))
        mrec = np.concatenate(([0.0], recall, [recall[-1] if len(recall) else 0.0]))
        mpre = np.maximum.accumulate(mpre[::-1])[::-1]
        step = np.flatnonzero(mrec[1:] != mrec[:-1])
        table[name] = float(np.sum((mrec[step + 1] - mrec[step]) * mpre[step + 1]))
    defined = [v for v in table.values() if v is not None]
    return {"per_class": table, "map": float(np.mean(defined))}


def eval_problems(report: dict, reference: dict, golden: dict | None) -> list[str]:
    problems = []
    if abs(report["map"] - reference["map"]) > REFERENCE_AP_TOL:
        problems.append(f"mAP {report['map']!r} differs from the reference "
                        f"{reference['map']!r}")
    if golden is not None:
        if set(report["per_class"]) != set(golden["per_class"]):
            problems.append("evaluated classes differ from golden")
        else:
            for name, ap in golden["per_class"].items():
                if abs(report["per_class"][name] - ap) > AP_TOL:
                    problems.append(f"AP of {name} {report['per_class'][name]!r} "
                                    f"differs from golden {ap!r}")
        if abs(report["map"] - golden["map"]) > AP_TOL:
            problems.append(f"mAP {report['map']!r} differs from golden {golden['map']!r}")
    return problems


def anchor_problems(report: dict, num_boxes: int, golden: dict | None) -> list[str]:
    problems = []
    anchors = np.array(report["anchors"], dtype=np.float64)
    if report["num_boxes"] != num_boxes:
        problems.append(f"clustered {report['num_boxes']} boxes, the corpus has {num_boxes}")
    if anchors.shape != (report["k"], 2) or np.any(anchors <= 0):
        problems.append(f"expected {report['k']} positive anchors, got {anchors.tolist()}")
    elif np.any(np.diff(anchors[:, 0] * anchors[:, 1]) < 0):
        problems.append("anchors are not sorted by area")
    if golden is not None:
        want = np.array(golden["anchors"], dtype=np.float64)
        if anchors.shape != want.shape or np.abs(anchors - want).max() > ANCHOR_TOL:
            problems.append("anchors differ from golden")
    return problems
