"""Seeded input generator for the benchmark workloads.

    python3 perfbench/gen.py --workload annotations --seed 3 --out /tmp/inputs

writes one workload's inputs and prints a JSON manifest of what it wrote.
The same seed gives the same bytes: every image and annotation draw comes
from a splitmix64 stream keyed on (seed, purpose), implemented here. The
weights files are the exception: they come from the package's `init_random`
(at a fixed seed) and `save_weights_file`, so they change if those change.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

import common

WORKLOADS = ("dense-416", "sparse-640-dir", "annotations")

# One sentence per workload on why it is in the benchmark.
WHY = {
    "dense-416": "Random weights saturate the heads, so ~1,200 of 2,535 raw boxes "
                 "pass the filter and scalar O(n^2) NMS dominates detect(); "
                 "pipeline and boxes post-processing work shows here.",
    "sparse-640-dir": "Damped objectness leaves tens of detections per image, so the "
                      "36-GFLOP forward dominates and NMS is negligible; tensor and "
                      "graph work, PPM decode, letterboxing of large sources and the "
                      "2-worker pool show here, and NMS changes must not.",
    "annotations": "No forward pass: eval and anchors over a VOC corpus exercise the "
                   "XML/JSON loaders, evaluate, anchors and ~40k small per-image IoU "
                   "matches, so a boxes change that helps NMS but hurts matching shows.",
}

# The weights seed is fixed: across init_random seeds 0-4 the dense candidate
# count ranged 317-1,219 and NMS time 0.5-2.9 s, which would swamp any bound.
# The workload seed varies the images and the corpus instead.
WEIGHTS_SEED = 0

# The ground-truth box sizes (and image sizes and boxes per image) are fixed
# too, drawn from a stream with this seed: over seeds 101-110 the total Lloyd
# iterations of the 10 anchor restarts ranged 15-45, and the clustering time
# with them by 1.6x. The workload seed varies box positions, classes,
# difficult flags and the predictions instead.
SHAPE_SEED = 0

DENSE_IMAGES = 3
DENSE_SIZE = (640, 480)

SPARSE_SIZES = ((640, 480), (1280, 720), (1920, 1080)) * 2
HEAD_LAYERS = (24, 31)      # the 1x1 convs that feed the two yolo layers
OBJ_SCALE, OBJ_BIAS = 0.05, -4.0

VOC_IMAGES = 1000
VOC_BOXES = (8, 12)         # boxes per image, inclusive
VOC_IMAGE_SIZES = ((640, 480), (1280, 720), (1920, 1080))
VOC_CLASSES = ("car", "bus")
# (w, h) cluster centres as fractions of the image: the 416 reference anchors / 416
VOC_CLUSTERS = ((0.038, 0.036), (0.101, 0.096), (0.228, 0.175),
                (0.276, 0.397), (0.615, 0.404), (0.791, 0.755))
DIFFICULT_SHARE = 0.1
HIT_SHARE = 0.85            # ground-truth boxes with a jittered prediction
FALSE_POSITIVES = 3         # unmatched predictions per image

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix(states: np.ndarray) -> np.ndarray:
    z = (states ^ (states >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


class Stream:
    """Sequential splitmix64 draws keyed on (seed, tag)."""

    def __init__(self, seed: int, tag: int):
        key = ((seed & 0xFFFFFFFFFFFF) << 16 | tag) & _MASK
        self._key = int(_splitmix(np.array([key], dtype=np.uint64))[0])
        self._pos = 0

    def u64(self, n: int) -> np.ndarray:
        steps = np.arange(self._pos + 1, self._pos + n + 1, dtype=np.uint64)
        self._pos += n
        return _splitmix(np.uint64(self._key) + steps * np.uint64(_GOLDEN))

    def uniform(self, n: int) -> np.ndarray:
        return (self.u64(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def index(self, n: int) -> int:
        return min(int(self.uniform(1)[0] * n), n - 1)


def _write_ppm(path: Path, stream: Stream, width: int, height: int) -> None:
    pixels = (stream.u64(width * height * 3) >> np.uint64(56)).astype(np.uint8)
    path.write_bytes(b"P6\n%d %d\n255\n" % (width, height) + pixels.tobytes())


def _write_weights(path: Path, size: int, damp_heads: bool) -> None:
    from littleyolo import build_graph, init_random, load_config, reference_config_path
    from littleyolo.weights import save_weights_file

    graph = build_graph(load_config(reference_config_path(size)))
    init_random(graph, WEIGHTS_SEED)
    if damp_heads:
        for idx in HEAD_LAYERS:
            layer = graph.layers[idx]
            p = layer.params
            per = 5 + graph.layers[idx + 1].spec.classes
            w, b = p.weights.copy(), p.bias.copy()
            for slot in range(p.filters // per):
                w[slot * per + 4] *= OBJ_SCALE
                b[slot * per + 4] = OBJ_BIAS
            layer.params = dataclasses.replace(p, weights=w, bias=b)
    save_weights_file(graph, path)


def write_dense(out: Path, seed: int) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    weights = out / "dense-416.weights"
    _write_weights(weights, 416, damp_heads=False)
    stream = Stream(seed, 1)
    images = []
    for i in range(DENSE_IMAGES):
        path = out / f"dense_{i}.ppm"
        _write_ppm(path, stream, *DENSE_SIZE)
        images.append(str(path))
    return {"weights": str(weights), "images": images}


def write_sparse(out: Path, seed: int) -> dict:
    images = out / "frames"
    images.mkdir(parents=True, exist_ok=True)
    weights = out / "sparse-640.weights"
    _write_weights(weights, 640, damp_heads=True)
    stream = Stream(seed, 2)
    for i, (w, h) in enumerate(SPARSE_SIZES):
        _write_ppm(images / f"frame_{i:02d}.ppm", stream, w, h)
    return {"weights": str(weights), "images": str(images),
            "num_images": len(SPARSE_SIZES)}


def _voc_xml(stem: str, width: int, height: int, objects) -> str:
    rows = [f"<annotation><filename>{stem}.ppm</filename>",
            f"<size><width>{width}</width><height>{height}</height>"
            "<depth>3</depth></size>"]
    for name, difficult, (x1, y1, x2, y2) in objects:
        rows.append(f"<object><name>{name}</name><difficult>{int(difficult)}"
                    f"</difficult><bndbox><xmin>{x1}</xmin><ymin>{y1}</ymin>"
                    f"<xmax>{x2}</xmax><ymax>{y2}</ymax></bndbox></object>")
    rows.append("</annotation>\n")
    return "\n".join(rows)


def _box_of_cluster(shape: Stream, place: Stream, width: int,
                    height: int) -> tuple[int, ...]:
    """A box whose size comes from `shape` and whose position from `place`."""
    cw, ch = VOC_CLUSTERS[shape.index(len(VOC_CLUSTERS))]
    jw, jh = shape.uniform(2)
    fx, fy = place.uniform(2)
    bw = max(2, round(cw * (0.8 + 0.4 * jw) * width))
    bh = max(2, round(ch * (0.8 + 0.4 * jh) * height))
    bw, bh = min(bw, width - 1), min(bh, height - 1)
    x1 = int(fx * (width - bw))
    y1 = int(fy * (height - bh))
    return x1, y1, x1 + bw, y1 + bh


def _detection(name: str, confidence: float, box) -> dict:
    x1, y1, x2, y2 = (round(float(v), 2) for v in box)
    conf = round(float(confidence), 6)
    return {"class_id": VOC_CLASSES.index(name), "class_name": name,
            "confidence": conf, "objectness": conf, "class_prob": 1.0,
            "bbox": {"x1": x1, "y1": y1, "x2": x2, "y2": y2}}


def write_annotations(out: Path, seed: int) -> dict:
    voc, preds = out / "voc", out / "preds"
    voc.mkdir(parents=True, exist_ok=True)
    preds.mkdir(parents=True, exist_ok=True)
    stream, shape = Stream(seed, 3), Stream(SHAPE_SEED, 4)
    num_boxes = 0
    for i in range(VOC_IMAGES):
        stem = f"img_{i:04d}"
        width, height = VOC_IMAGE_SIZES[shape.index(len(VOC_IMAGE_SIZES))]
        lo, hi = VOC_BOXES
        objects, dets = [], []
        for _ in range(lo + shape.index(hi - lo + 1)):
            name = VOC_CLASSES[int(stream.uniform(1)[0] < 0.4)]
            box = _box_of_cluster(shape, stream, width, height)
            difficult, hit, flip, conf = stream.uniform(4)
            objects.append((name, difficult < DIFFICULT_SHARE, box))
            if hit < HIT_SHARE:
                bw, bh = box[2] - box[0], box[3] - box[1]
                jitter = (stream.uniform(4) - 0.5) * 0.2
                moved = (box[0] + jitter[0] * bw, box[1] + jitter[1] * bh,
                         box[2] + jitter[2] * bw, box[3] + jitter[3] * bh)
                pred_name = VOC_CLASSES[1 - VOC_CLASSES.index(name)] if flip < 0.05 else name
                dets.append(_detection(pred_name, 0.3 + 0.7 * conf, moved))
        for _ in range(FALSE_POSITIVES):
            name = VOC_CLASSES[stream.index(len(VOC_CLASSES))]
            box = _box_of_cluster(stream, stream, width, height)
            dets.append(_detection(name, 0.05 + 0.6 * stream.uniform(1)[0], box))
        num_boxes += len(objects)
        (voc / f"{stem}.xml").write_text(_voc_xml(stem, width, height, objects))
        doc = {"image": f"{stem}.ppm", "width": width, "height": height,
               "detections": dets}
        (preds / f"{stem}.json").write_text(json.dumps(doc) + "\n")
    return {"gt": str(voc), "preds": str(preds), "num_images": VOC_IMAGES,
            "num_boxes": num_boxes}


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write the inputs of one workload under `out`; return their manifest."""
    if workload == "dense-416":
        return write_dense(out, seed)
    if workload == "sparse-640-dir":
        return write_sparse(out, seed)
    if workload == "annotations":
        return write_annotations(out, seed)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", required=True, help="directory to write into")
    args = parser.parse_args(argv)
    try:
        common.use_checkout_source()
    except common.MissingSource as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(generate(args.workload, args.seed, Path(args.out)), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
