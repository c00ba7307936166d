"""Command-line interface: detect, anchors, eval, info, bench."""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import anchors as anchor_mod
from . import evaluate as eval_mod
from . import graph as graph_mod
from . import imaging, pipeline, tensor, weights
from .config import NetParams, load_config, reference_config_path

IMAGE_SUFFIXES = (".ppm", ".png", ".jpg", ".jpeg", ".bmp")


def _load_graph(args):
    cfg = args.cfg
    if cfg is None:
        cfg = reference_config_path(args.size or 416)
    specs = load_config(cfg)
    if args.size:
        net = specs[0]
        specs[0] = NetParams(width=args.size, height=args.size, channels=net.channels)
    g = graph_mod.build_graph(specs)
    if args.weights:
        weights.load_weights_file(g, args.weights)
    return g


def _read_names(path) -> tuple[str, ...]:
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except ValueError as exc:  # not UTF-8
        raise ValueError(f"names file {path}: {exc}") from None
    names = tuple(n.strip() for n in lines if n.strip())
    if not names:
        raise ValueError(f"names file {path} is empty")
    return names


def _json_dump(obj, path):
    weights.replace_file(path, [(json.dumps(obj, indent=2) + "\n").encode("utf-8")])


# --------------------------------------------------------------------- detect

def _detect_one(g, image_path, args, names, out_dir=None):
    """Detect on one image and return its result document. Given out_dir,
    also write <stem>.json there and, with --annotate, <stem>.annotated.ppm."""
    frame = [imaging.read_image(image_path)]
    h, w = frame[0].shape[:2]
    # Only --annotate reads the frame after detect; otherwise detect gets the
    # only reference to it (see pipeline.detect), and frees it once letterboxed.
    image = frame[0] if args.annotate else None
    try:
        dets = pipeline.detect(g, frame.pop().transpose(2, 0, 1),
                               conf_threshold=args.conf, nms_threshold=args.nms,
                               class_names=names)
    except ValueError as exc:  # read errors name the file already
        raise ValueError(f"{image_path}: {exc}") from None
    result = {
        "image": str(image_path),
        "width": w,
        "height": h,
        "detections": [pipeline.detection_to_dict(d) for d in dets],
    }
    if out_dir is not None:  # the image first: if it fails, the old pair stays
        if args.annotate:
            weights.replace_file(out_dir / (image_path.stem + ".annotated.ppm"),
                                 [imaging.encode_ppm(imaging.annotate(image, dets))])
        _json_dump(result, out_dir / (image_path.stem + ".json"))
    return result


def _check_output_names(images) -> None:
    """Each image of a directory run writes <stem>.json next to index.json;
    raise, naming the files, when two of those names would be the same."""
    seen = {}
    for p in images:
        if p.stem == "index":
            raise ValueError(f"{p} would write index.json, which holds the "
                             "run's index; rename the image")
        if p.stem in seen:
            raise ValueError(f"{seen[p.stem]} and {p} would both write "
                             f"{p.stem}.json; rename one of them")
        seen[p.stem] = p


def cmd_detect(args) -> int:
    if args.annotate and not args.output:
        raise ValueError("--annotate needs --output to hold the image")
    in_path = Path(args.input)
    images = None
    if in_path.is_dir():
        images = sorted((p for p in in_path.iterdir()
                         if p.suffix.lower() in IMAGE_SUFFIXES), key=lambda p: p.name)
        if not images:
            raise ValueError(f"no images found in {in_path}")
        _check_output_names(images)
        if not args.output:
            raise ValueError("--output directory is required for directory input")
    g = _load_graph(args)
    if not g.yolo_layers:
        raise ValueError("config has no yolo heads; nothing to detect")
    names = _read_names(args.names) if args.names else None
    classes = g.yolo_layers[0].spec.classes
    if names is not None and len(names) != classes:
        raise ValueError(f"names file {args.names} has {len(names)} names, "
                         f"but the net has {classes} classes")
    out_dir = Path(args.output) if args.output else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    if images is None:
        result = _detect_one(g, in_path, args, names, out_dir)
        if out_dir is None:
            json.dump(result, sys.stdout, indent=2)
            print()
        else:
            print(f"wrote {out_dir / (in_path.stem + '.json')}")
        return 0

    def run(p):
        # An image that cannot be read or written becomes an error row;
        # the other images still run.
        try:
            result = _detect_one(g, p, args, names, out_dir)
        except (ValueError, OSError) as exc:
            return {"image": str(p), "error": str(exc)}
        return {"image": str(p), "output": str(out_dir / (p.stem + ".json")),
                "num_detections": len(result["detections"])}

    # Each worker gets its share of the BLAS threads, so the pool does not
    # oversubscribe the cores; the count is restored after.
    active = min(args.workers, len(images))
    share = max(1, (tensor.blas_thread_count() or 1) // active)
    with tensor.blas_threads(share), ThreadPoolExecutor(max_workers=active) as pool:
        rows = list(pool.map(run, images))
    _json_dump({"results": rows}, out_dir / "index.json")
    failed = [r for r in rows if "error" in r]
    for r in failed:
        print(f"error: {r['error']}", file=sys.stderr)
    print(f"processed {len(rows) - len(failed)} images -> {out_dir}")
    return 1 if failed else 0


# -------------------------------------------------------------------- anchors

def cmd_anchors(args) -> int:
    names = set(_read_names(args.names)) if args.names else None
    dims = anchor_mod.load_dims(args.input, names)
    if len(dims) == 0:
        raise ValueError(f"no usable boxes found in {args.input}")
    distance = {"iou": "one_minus_iou", "euclid": "euclidean"}[args.distance]
    anchor_set = anchor_mod.cluster_anchors(dims, k=args.k, distance=distance,
                                            seed=args.seed, restarts=args.restarts,
                                            net_w=args.size, net_h=args.size)
    norm_anchors = [(w / args.size, h / args.size) for w, h in anchor_set.anchors]
    score = anchor_mod.mean_iou_report(dims, norm_anchors)
    line = anchor_mod.anchors_line(anchor_set)
    print(f"anchors={line}")
    print(f"boxes: {len(dims)}   k: {args.k}   distance: {args.distance}   "
          f"seed: {args.seed}   net: {args.size}")
    print(f"mean best-anchor iou: {score:.4f}")
    for mask in anchor_set.masks:
        shown = ", ".join(f"{anchor_set.anchors[m][0]:.1f}x{anchor_set.anchors[m][1]:.1f}"
                          for m in mask)
        print(f"mask {list(mask)}: {shown}")
    if args.output:
        _json_dump({
            "anchors": [[w, h] for w, h in anchor_set.anchors],
            "masks": [list(m) for m in anchor_set.masks],
            "anchors_line": line,
            "mean_iou": score,
            "num_boxes": len(dims),
            "k": args.k,
            "distance": args.distance,
            "seed": args.seed,
            "restarts": args.restarts,
            "net_size": args.size,
        }, args.output)
    return 0


# ----------------------------------------------------------------------- eval

def cmd_eval(args) -> int:
    corpus = eval_mod.EvalCorpus(eval_mod.load_ground_truth(args.gt),
                                 eval_mod.load_predictions(args.preds))
    gt_ids, pred_ids = corpus.image_ids
    if gt_ids and pred_ids and not (gt_ids & pred_ids):
        print("warning: ground-truth and prediction image ids are disjoint",
              file=sys.stderr)
    report = eval_mod.evaluation_report(corpus, iou_threshold=args.iou,
                                        interpolation=args.interp)
    print(eval_mod.format_report(report))
    if args.output:
        _json_dump(report, args.output)
    return 0


# ----------------------------------------------------------------------- info

def _blas_name() -> str:
    """Name and version of the BLAS numpy was built with, as numpy reports it."""
    config = getattr(getattr(np, "__config__", None), "CONFIG", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return " ".join(str(blas[k]) for k in ("name", "version") if blas.get(k)) or "unknown"


def cmd_info(args) -> int:
    g = _load_graph(args)
    print(graph_mod.layer_table(g))
    params = graph_mod.param_count(g)
    size = graph_mod.model_bytes(g)
    print(f"\nlayers: {len(g.layers)}   params: {params:,}   "
          f"weights file: {size:,} bytes ({size / 1e6:.2f} MB)   "
          f"flops: {graph_mod.flops(g):.3f} B")
    live, total = g.plan.live, [a + b for a, b in zip(g.plan.live, g.plan.scratch)]
    maps, peak = (max(range(len(v)), key=v.__getitem__) for v in (live, total))
    print(f"live maps: at most {live[maps] / 1e6:.2f} MB, while layer {maps} runs; "
          f"with conv2d's scratch, {total[peak] / 1e6:.2f} MB, while layer {peak} runs")
    runs = [f"{a}{f'-{m - 1}' if m - 1 > a else ''} into {m}" for a, m in g.plan.runs.items()]
    print("streams: " + (f"layers {', '.join(runs)}" if runs else "none"))
    threads = tensor.blas_thread_count()
    print(f"blas: {_blas_name()}, " + (f"{threads} threads" if threads is not None
                                       else "thread control unavailable"))
    if args.weights:
        print(f"weights: loaded {os.path.getsize(args.weights):,} bytes, "
              f"images_seen={g.images_seen}")
    return 0


# ---------------------------------------------------------------------- bench

def cmd_bench(args) -> int:
    g = _load_graph(args)
    image = imaging.read_image(args.input).transpose(2, 0, 1)
    pipeline.detect(g, image)  # warmup
    samples = []
    for _ in range(args.iters):
        t0 = time.perf_counter()
        pipeline.detect(g, image)
        samples.append((time.perf_counter() - t0) * 1000.0)
    mean_ms = statistics.fmean(samples)
    result = {
        "iters": args.iters,
        "mean_ms": mean_ms,
        "median_ms": statistics.median(samples),
        "fps": 1000.0 / mean_ms if mean_ms > 0 else 0.0,
    }
    json.dump(result, sys.stdout, indent=2)
    print()
    if args.output:
        _json_dump(result, args.output)
    return 0


# ----------------------------------------------------------------------- main

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="littleyolo",
        description="CPU inference and evaluation toolkit for the "
                    "LittleYOLO-SPP vehicle detector")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, weights_required=False):
        p.add_argument("--cfg", help="network config file (default: shipped "
                                     "reference config)")
        p.add_argument("--weights", required=weights_required,
                       help="binary weights file")
        p.add_argument("--size", type=int, default=None,
                       help="override network input size")

    p = sub.add_parser("detect", help="run detection on an image or directory")
    add_common(p, weights_required=True)
    p.add_argument("--input", required=True, help="image file or directory")
    p.add_argument("--output", help="output directory (required for directories)")
    p.add_argument("--conf", type=float, default=pipeline.DEFAULT_CONF_THRESHOLD,
                   help="confidence threshold (default 0.25)")
    p.add_argument("--nms", type=float, default=pipeline.DEFAULT_NMS_THRESHOLD,
                   help="NMS IoU threshold (default 0.45)")
    p.add_argument("--annotate", action="store_true",
                   help="also write images with boxes burned in")
    p.add_argument("--workers", type=int, default=1,
                   help="worker threads for directory input")
    p.add_argument("--names", help="file with one class name per line")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("anchors", help="cluster annotation boxes into anchors")
    p.add_argument("--input", required=True,
                   help="VOC XML directory or COCO JSON file")
    p.add_argument("--k", type=int, default=6, help="number of anchors (default 6)")
    p.add_argument("--size", type=int, default=416,
                   help="network input size anchors are scaled to (default 416)")
    p.add_argument("--seed", type=int, default=0, help="clustering seed (default 0)")
    p.add_argument("--restarts", type=int, default=10,
                   help="independent seedings, best kept (default 10)")
    p.add_argument("--distance", choices=("iou", "euclid"), default="iou",
                   help="cluster distance (default iou)")
    p.add_argument("--names", help="only cluster boxes of these classes")
    p.add_argument("--output", help="write a JSON report here")
    p.set_defaults(func=cmd_anchors)

    p = sub.add_parser("eval", help="score predictions against ground truth")
    p.add_argument("--gt", required=True,
                   help="VOC XML directory or flat text ground truth")
    p.add_argument("--preds", required=True,
                   help="detection JSON file/directory or flat text predictions")
    p.add_argument("--iou", type=float, default=0.5,
                   help="matching IoU threshold (default 0.5)")
    p.add_argument("--interp", choices=eval_mod.INTERPOLATIONS, default="all",
                   help="AP interpolation (default all-point)")
    p.add_argument("--output", help="write a JSON report here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("info", help="print the layer table and model totals")
    add_common(p)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("bench", help="time detect on one image, letterbox to "
                                     "unletterbox (NMS included)")
    add_common(p, weights_required=True)
    p.add_argument("--input", required=True, help="image file")
    p.add_argument("--iters", type=int, default=10,
                   help="timed iterations (default 10)")
    p.add_argument("--output", help="write the timing JSON here")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for flag in ("size", "iters", "workers", "k", "restarts"):
            value = getattr(args, flag, None)
            if value is not None and value < 1:
                raise ValueError(f"--{flag} must be at least 1, got {value}")
        # written as not (lo <= v <= hi) so that nan fails too
        for flag, in_range, span in (("iou", lambda v: 0 <= v <= 1, "[0, 1]"),
                                     ("conf", lambda v: 0 <= v < 1, "[0, 1)"),
                                     ("nms", lambda v: 0 <= v <= 1, "[0, 1]")):
            value = getattr(args, flag, None)
            if value is not None and not in_range(value):
                raise ValueError(f"--{flag} must be in {span}, got {value}")
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
