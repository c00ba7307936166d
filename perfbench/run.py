"""littleyolo benchmark: three seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload dense-416 --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 60          # every workload

Run it from any directory; it measures the package source of the checkout it
sits in. Each workload generates its inputs from --seed, times the model
set-up, takes an untimed peak-memory pass (which is also the warm-up), runs a
closed loop with one client for --seconds, then checks every output. With
--trace 0 the last line of stdout is a JSON object with the end-to-end metrics;
with --trace 1 the loop alternates plain and instrumented operations, the
last line has the per-layer metrics, and the instrumented spans are written to
.perfbench_out/. Earlier lines are a human-readable report. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import sys
import threading
import time
import tracemalloc
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import checks
import common
import gen
import tracing

SETUP_REPS = 9
WORKERS = 2          # the CLI pool on sparse-640-dir

# name -> unit, for the metrics BENCHMARK.json lists
END_TO_END = {"setup_s": "s", "latency_ms": "ms", "throughput_per_s": "1/s",
              "peak_mem_mb": "MB"}
# Spans whose total ms per traced operation (median over operations) is a
# per-layer metric, named "<span>_ms". A metric reads 0 on a workload that
# never runs its layer, as a count does.
SETUP_SPANS = ("config.load", "graph.build", "weights.load")
STAGE_SPANS = ("graph.forward", "tensor.conv2d", "tensor.activate", "tensor.maxpool",
               "tensor.upsample", "tensor.concat", "tensor.shortcut",
               "pipeline.letterbox", "pipeline.decode", "pipeline.filter", "pipeline.nms",
               "pipeline.unletterbox", "imaging.read", "imaging.to_chw",
               "evaluate.load_gt", "evaluate.load_preds", "evaluate.match", "evaluate.ap",
               "anchors.load_dims", "anchors.cluster")
PER_LAYER = {**{f"{span}_ms": "ms" for span in SETUP_SPANS + STAGE_SPANS},
             "graph.forward_gflops": "GFLOP/s", "tensor.conv2d_gflops": "GFLOP/s",
             "pipeline.raw_boxes": "count", "pipeline.candidates": "count",
             "pipeline.kept": "count", "pipeline.filter_pass_ratio": "ratio",
             "pipeline.nms_keep_ratio": "ratio", "boxes.iou_calls": "count",
             "cli.worker_busy_share": "ratio", "cli.overhead_ms": "ms",
             "anchors.lloyd_iters": "count", "trace.overhead_ms": "ms"}

# What setup_s times on each workload
SETUP_MEANING = {"dense-416": "config + graph + weights (416 net)",
                 "sparse-640-dir": "config + graph + weights (640 net)",
                 "annotations": "load ground truth + load predictions, as eval does"}

# What latency_ms and throughput_per_s time on each workload, with the name
# each metric has in the benchmark's design notes (README.md).
MEANING = {
    "dense-416": ("detect_ms_p50: one pipeline.detect call, letterbox to unletterbox",
                  "images/s: images / sum of each image's median detect time "
                  "(one value, derived from the latency samples)"),
    "sparse-640-dir": ("one image in the 2-worker directory run, PPM read to JSON written",
                       "images_per_s: images / wall time of each directory call"),
    "annotations": ("one eval call: load GT + load predictions + mAP",
                    "anchor_boxes_per_s: boxes / wall time of each anchors call"),
}


@dataclass
class Run:
    workload: str
    seed: int
    seconds: float
    work: Path
    tracer: object | None          # tracing.Tracer on a traced run
    check_golden: bool = True
    metrics: dict = field(default_factory=dict)    # name -> (value, unit, n)
    layers: dict = field(default_factory=dict)     # name -> (value, unit)
    report: list = field(default_factory=list)     # extra report lines
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)    # golden-comparable outputs
    samples: dict = field(default_factory=dict)    # metric -> raw samples
    traced_ms: dict = field(default_factory=dict)  # operation kind -> wall ms
    plain_ms: dict = field(default_factory=dict)
    unchecked_nms: int = 0     # outputs whose NMS call could not be read

    def record(self, op: str, problems: list[str]) -> None:
        """Count one checked operation; problems make it a failure."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{op}: {p}" for p in problems)

    def golden(self) -> dict | None:
        if not self.check_golden or self.seed != checks.GOLDEN_SEED:
            return None
        try:
            return checks.load_golden()[self.workload]
        except (OSError, KeyError) as exc:
            self.problems.append(f"golden outputs unavailable: {exc!r}")
            return None

    @contextlib.contextmanager
    def op(self, index: int, op_id: str, conv_layer_of: dict | None = None):
        """Time one operation. On a traced run every second one is instrumented."""
        traced = self.tracer is not None and index % 2 == 1
        if traced:
            tracing.instrument(self.tracer, conv_layer_of or {})
            self.tracer.set_op(op_id)
            self.tracer.call = op_id
        timer = {"ms": None}
        start = time.perf_counter()
        try:
            yield timer
        finally:
            timer["ms"] = (time.perf_counter() - start) * 1e3
            kind = op_id.split("#")[0]
            if traced:
                self.tracer.set_op(None)
                self.tracer.restore()
                self.traced_ms.setdefault(kind, []).append(timer["ms"])
            else:
                self.plain_ms.setdefault(kind, []).append(timer["ms"])

    def failure(self, op: str, count: int = 1) -> None:
        """Count an operation that raised."""
        self.attempted += count
        self.failed += count
        self.problems.append(f"{op}: raised {traceback.format_exc(limit=3)}")


def op_indices(seconds: float, minimum: int):
    """Closed loop: the next operation starts when the previous one ended."""
    end = time.perf_counter() + seconds
    i = 0
    while i < minimum or time.perf_counter() < end:
        yield i
        i += 1


def median(samples: list[float]) -> float:
    """Median, or 0 when every operation failed and left no sample."""
    return statistics.median(samples) if samples else 0.0


def tail(samples: list[float]) -> tuple[float, float] | None:
    """Highest percentile (>= p50) with at least ten samples above it."""
    n = len(samples)
    if n < 20:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def untimed(run: Run, label: str, fn):
    """Run one untimed operation (peak pass, warm-up); a raise counts as failed."""
    try:
        result = fn()
    except Exception:
        run.failure(label)
        return None
    run.attempted += 1
    return result


def cli_call(argv: list[str]) -> None:
    from littleyolo import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"littleyolo {argv[0]} exited {rc}: {err.getvalue().strip()}")


CORNERS = ("x1", "y1", "x2", "y2")


def as_records(detections) -> list[dict]:
    """Detections read by attribute (class_id, confidence, bbox corners by
    name or position) into the dicts the checks take."""
    out = []
    for d in detections:
        b = d.bbox
        box = [getattr(b, k) for k in CORNERS] if hasattr(b, "x1") else list(b)
        out.append({"class_id": int(d.class_id), "confidence": float(d.confidence),
                    "bbox": dict(zip(CORNERS, map(float, box), strict=True))})
    return out


def keep_nms_calls(store: dict, key):
    """Hook for `pipeline.nms` that keeps each call's first argument and
    result under store[key()] for the exact NMS check."""
    def make(original):
        def nms(*args, **kwargs):
            kept = original(*args, **kwargs)
            store[key()] = (args[0] if args else None, kept)
            return kept
        return nms
    return make


def checked_nms(run: Run, call: tuple | None) -> list[str]:
    """Problems with one captured (candidates, kept) NMS call.

    The exact check needs NMS to take and return detections that carry
    class_id, confidence and bbox. When no such call was seen (NMS renamed,
    inlined or run on arrays), the output is counted as unchecked by this
    check, not failed; the invariants and the golden compare still apply.
    """
    try:
        candidates, kept = (as_records(c) for c in call)
    except Exception:
        run.unchecked_nms += 1
        return []
    return checks.nms_problems(candidates, kept, checks.NMS_THRESHOLD)


def conv_layers(graph) -> dict[tuple, int]:
    """(input shape, weights shape, stride) -> index of the conv layer."""
    from littleyolo.config import Convolutional
    out = {}
    for l in graph.layers:
        if isinstance(l.spec, Convolutional):
            src = graph.input_shape if l.index == 0 else graph.layers[l.index - 1].out_shape
            k = l.spec.size
            out[(src, (l.spec.filters, l.in_channels, k, k), l.spec.stride)] = l.index
    if len(out) != sum(isinstance(l.spec, Convolutional) for l in graph.layers):
        raise ValueError("two conv layers share input shape, weights shape and stride")
    return out


def timed_setup(run: Run, fn):
    """Time fn() SETUP_REPS times as setup_s; return its last result."""
    times = []
    for k in range(SETUP_REPS + (run.tracer is not None)):
        with run.op(k, f"setup#{k}") as t:
            result = fn()
        times.append(t["ms"] / 1e3)
    plain = times if run.tracer is None else times[0::2]
    run.samples["setup_s"] = plain
    run.metrics["setup_s"] = (statistics.median(plain), "s", len(plain))
    return result


def model_setup(run: Run, size: int, weights_path: str):
    """Time config + graph + weights as the CLI does them; return the graph."""
    from littleyolo import config, graph, weights

    def setup():
        g = graph.build_graph(config.load_config(config.reference_config_path(size)))
        weights.load_weights_file(g, weights_path)
        return g
    return timed_setup(run, setup)


def finish_latency(run: Run, latency: list[float], throughput: list[float],
                   throughput_n: int | None = None) -> None:
    run.samples.update(latency_ms=latency, throughput_per_s=throughput)
    run.metrics["latency_ms"] = (median(latency), "ms", len(latency))
    run.metrics["throughput_per_s"] = (median(throughput), "1/s",
                                       throughput_n or len(throughput))
    t = tail(latency)
    run.report.append(f"latency tail: p{t[0]:.1f} = {t[1]:.2f} ms over n={len(latency)}"
                      if t else f"latency tail: needs >= 20 samples, have n={len(latency)}")


# ------------------------------------------------------------------ workloads

def dense(run: Run) -> None:
    from littleyolo import imaging, pipeline
    inputs = gen.write_dense(run.work, run.seed)
    g = model_setup(run, 416, inputs["weights"])
    conv_of = conv_layers(g)
    images = []
    for path in inputs["images"]:
        pixels = imaging.read_image(path)
        images.append((Path(path).stem, pixels.shape[1], pixels.shape[0],
                       imaging.to_chw_float(pixels)))
    # Under tracemalloc the scalar NMS runs ~6x slower, and it allocates only
    # small short-lived objects after the forward pass has peaked, so tracing
    # pauses for the nms call; the peak before it is kept.
    peaks = []

    def untraced_nms(original):
        def nms(*args, **kwargs):
            peaks.append(tracemalloc.get_traced_memory()[1] / 1e6)
            tracemalloc.stop()
            try:
                return original(*args, **kwargs)
            finally:
                tracemalloc.start()
        return nms

    hooks = tracing.Tracer()
    hooks.patch(pipeline, "nms", untraced_nms)
    try:
        peak = untimed(run, "peak pass", lambda: peak_mb(lambda: pipeline.detect(g, images[0][3])))
    finally:
        hooks.restore()
    run.metrics["peak_mem_mb"] = (max([peak or 0.0] + peaks), "MB", 1)

    # Output boxes are clamped to the image, which hides NMS mistakes among
    # the many clamped boxes random weights give; a hook keeps each call's
    # NMS input and output (in the network frame) for an exact check.
    nms_calls: dict[int, tuple] = {}
    current = [None]
    hooks.patch(pipeline, "nms", keep_nms_calls(nms_calls, lambda: current[0]))
    # a traced run times each image twice in a row, plain then instrumented
    latency, results = [], []
    try:
        for i in op_indices(run.seconds, 2 if run.tracer else len(images)):
            stem, width, height, x = images[(i // 2 if run.tracer else i) % len(images)]
            current[0] = i
            try:
                with run.op(i, f"detect#{i}", conv_of) as t:
                    dets = pipeline.detect(g, x)
            except Exception:
                run.failure(f"detect#{i} {stem}")
                continue
            latency.append(t["ms"])
            results.append((i, stem, width, height, dets))
    finally:
        hooks.restore()
    # Throughput is one value, the image set over the sum of each image's
    # median detect time, so every image weighs the same whatever the number
    # of calls the run fits; its n is 1.
    per_image = {}
    for (_, stem, *_), ms in zip(results, latency):
        per_image.setdefault(stem, []).append(ms)
    set_ms = sum(median(v) for v in per_image.values())
    finish_latency(run, latency, [1e3 * len(per_image) / set_ms] if per_image else [], 1)

    golden, first = run.golden(), {}
    for i, stem, width, height, dets in results:
        try:
            found = as_records(dets)
        except Exception as exc:
            run.record(f"detect#{i} {stem}", [f"unreadable detections: {exc!r}"])
            continue
        problems = checks.detection_problems(found, width, height,
                                             checks.CONF_THRESHOLD, checks.NMS_THRESHOLD)
        if golden is not None:
            problems += checks.compare_detections(found, golden.get(stem))
        if first.setdefault(stem, found) != found:
            problems.append("differs from the first detect of the same image")
        problems += checked_nms(run, nms_calls.get(i))
        run.outputs.setdefault(stem, checks.golden_detections(found))
        run.record(f"detect#{i} {stem}", problems)
    layer_report(run, g, ops=[f"detect#{i}" for i, *_ in results])


def sparse(run: Run) -> None:
    from littleyolo import imaging, pipeline
    inputs = gen.write_sparse(run.work, run.seed)
    g = model_setup(run, 640, inputs["weights"])
    conv_of = conv_layers(g)

    def argv(src, out, workers):
        return ["detect", "--size", "640", "--weights", inputs["weights"],
                "--workers", str(workers), "--input", str(src), "--output", str(out)]

    # The --workers 1 run is the peak pass (one image at a time, so its peak
    # is the largest image's) and the reference every timed run must match.
    frames = sorted(Path(inputs["images"]).glob("*.ppm"))
    reference = run.work / "out_workers1"
    peak = untimed(run, "--workers 1 reference and peak pass",
                   lambda: peak_mb(lambda: cli_call(argv(inputs["images"], reference, 1))))
    run.metrics["peak_mem_mb"] = (peak or 0.0, "MB", 1)

    # A read_image hook marks when each image starts (else the call start
    # counts); the mtime of the image's JSON marks when it ends. An nms hook
    # keeps each image's NMS input and output for the exact NMS check.
    started: dict[str, int] = {}
    nms_calls: dict[str, tuple] = {}
    local = threading.local()

    def mark(original):
        def read_image(path):
            local.stem = Path(str(path)).stem
            started[local.stem] = time.time_ns()
            return original(path)
        return read_image

    hooks = tracing.Tracer()
    hooks.patch(imaging, "read_image", mark)
    hooks.patch(pipeline, "nms", keep_nms_calls(nms_calls, lambda: getattr(local, "stem", None)))
    latency, throughput, calls = [], [], []
    try:
        for i in op_indices(run.seconds, 2 if run.tracer else 1):
            out = run.work / f"out_{i}"
            started.clear()
            nms_calls.clear()
            call_start = time.time_ns()
            try:
                with run.op(i, f"dir#{i}", conv_of) as t:
                    cli_call(argv(inputs["images"], out, WORKERS))
            except Exception:
                run.failure(f"dir#{i}", len(frames))
                continue
            throughput.append(1e3 * len(frames) / t["ms"])
            per_image = {}
            for frame in frames:
                written = out / f"{frame.stem}.json"
                if written.exists():
                    begun = started.get(frame.stem, call_start)
                    per_image[frame.stem] = (written.stat().st_mtime_ns - begun) / 1e6
            latency.extend(per_image.values())
            calls.append((i, out, per_image, t["ms"], dict(nms_calls)))
    finally:
        hooks.restore()
    finish_latency(run, latency, throughput)

    golden = run.golden()
    for i, out, _, _, nms_of in calls:
        for frame in frames:
            path = out / f"{frame.stem}.json"
            try:
                raw = path.read_bytes()
                doc = json.loads(raw)
            except (OSError, ValueError) as exc:
                run.record(f"dir#{i} {frame.stem}", [f"no readable output: {exc}"])
                continue
            problems = checks.detection_problems(doc["detections"], doc["width"], doc["height"],
                                                 checks.CONF_THRESHOLD, checks.NMS_THRESHOLD)
            if golden is not None:
                problems += checks.compare_detections(doc["detections"], golden.get(frame.stem))
            ref = reference / path.name
            if not ref.exists() or ref.read_bytes() != raw:
                problems.append("JSON differs from the --workers 1 run")
            problems += checked_nms(run, nms_of.get(frame.stem))
            run.outputs.setdefault(frame.stem, checks.golden_detections(doc["detections"]))
            run.record(f"dir#{i} {frame.stem}", problems)
    traced = [(f"dir#{i}", per_image, wall_ms) for i, _, per_image, wall_ms, _ in calls
              if run.tracer is not None and i % 2 == 1]
    layer_report(run, g, ops=[f"{call}/{p.stem}" for call, *_ in traced for p in frames],
                 directory_calls=traced)


def annotations(run: Run) -> None:
    from littleyolo import evaluate
    inputs = gen.write_annotations(run.work, run.seed)
    # the set-up this workload does: loading the corpus, as eval does it
    timed_setup(run, lambda: (evaluate.load_ground_truth(inputs["gt"]),
                              evaluate.load_predictions(inputs["preds"])))
    eval_out, anchors_out = run.work / "eval.json", run.work / "anchors.json"
    eval_argv = ["eval", "--gt", inputs["gt"], "--preds", inputs["preds"],
                 "--output", str(eval_out)]
    anchors_argv = ["anchors", "--input", inputs["gt"], "--k", "6",
                    "--output", str(anchors_out)]
    peak = untimed(run, "peak pass", lambda: peak_mb(lambda: cli_call(eval_argv)))
    run.metrics["peak_mem_mb"] = (peak or 0.0, "MB", 1)
    untimed(run, "anchors warm-up", lambda: cli_call(anchors_argv))
    reference = checks.reference_map(Path(inputs["gt"]), Path(inputs["preds"]))
    golden = run.golden()

    latency, throughput, first, ops = [], [], {}, []
    for i in op_indices(run.seconds, 2 if run.tracer else 1):
        for kind, argv, out in (("eval", eval_argv, eval_out),
                                ("anchors", anchors_argv, anchors_out)):
            ops.append(f"{kind}#{i}")
            out.unlink(missing_ok=True)
            try:
                with run.op(i, f"{kind}#{i}") as t:
                    cli_call(argv)
                report = json.loads(out.read_text())
            except Exception:
                run.failure(f"{kind}#{i}")
                continue
            if kind == "eval":
                latency.append(t["ms"])
                problems = checks.eval_problems(report, reference, golden and golden["eval"])
            else:
                throughput.append(1e3 * report["num_boxes"] / t["ms"])
                problems = checks.anchor_problems(report, inputs["num_boxes"],
                                                  golden and golden["anchors"])
            if first.setdefault(kind, report) != report:
                problems.append(f"{kind} output differs from the first call")
            run.outputs.setdefault(kind, report)
            run.record(f"{kind}#{i}", problems)
    finish_latency(run, latency, throughput)
    if latency:
        run.report.append(f"eval_images_per_s: {1e3 * inputs['num_images'] / median(latency):.2f} "
                          f"img/s ({inputs['num_images']} images, median of "
                          f"n={len(latency)} calls)")
    layer_report(run, None, ops=ops)


WORKLOAD_FUNCS = {"dense-416": dense, "sparse-640-dir": sparse, "annotations": annotations}


# ------------------------------------------------------------ per-layer report

def layer_report(run: Run, graph, ops: list[str], directory_calls=()) -> None:
    """Turn a traced run's spans into per-layer metrics and report tables.

    ops are the traced operations the metrics are medians over: detect calls,
    the images of the traced directory calls, or eval and anchors calls.
    directory_calls holds (call id, {stem: image latency ms}, wall ms) for
    each traced directory call.
    """
    if run.tracer is None:
        return
    rows = run.tracer.per_op()

    def med(key, col=0, of=ops):
        return median([rows[o][key][col] for o in of if o in rows and key in rows[o]])

    def total(key, of=ops):
        return sum(rows[o][key][0] for o in of if o in rows and key in rows[o])

    setups = [o for o in rows if o.startswith("setup#")]
    layers = {f"{span}_ms": med(span, of=setups) for span in SETUP_SPANS}
    layers.update({f"{span}_ms": med(span) for span in STAGE_SPANS})
    gflop = 0.0
    if graph is not None:
        from littleyolo.graph import flops
        gflop = flops(graph)
    for name, span in (("graph.forward_gflops", "graph.forward"),
                       ("tensor.conv2d_gflops", "tensor.conv2d")):
        layers[name] = gflop / med(span) * 1e3 if med(span) else 0.0
    raw, cand, kept = (total("pipeline.filter#raw"), total("pipeline.nms#candidates"),
                       total("pipeline.nms#kept"))
    layers.update({
        "pipeline.raw_boxes": med("pipeline.filter#raw"),
        "pipeline.candidates": med("pipeline.nms#candidates"),
        "pipeline.kept": med("pipeline.nms#kept"),
        "pipeline.filter_pass_ratio": cand / raw if raw else 0.0,
        "pipeline.nms_keep_ratio": kept / cand if cand else 0.0,
        "boxes.iou_calls": med("boxes.iou_calls"),
        "anchors.lloyd_iters": med("anchors.lloyd#iters"),
    })

    def busy(op):
        return sum(rows.get(op, {}).get(k, (0.0,))[0]
                   for k in ("imaging.read", "imaging.to_chw", "pipeline.detect"))
    shares, outside = [], []
    for call, per_image, wall_ms in directory_calls:
        shares.append(sum(busy(f"{call}/{stem}") for stem in per_image) / (wall_ms * WORKERS))
        outside += [lat - busy(f"{call}/{stem}") for stem, lat in per_image.items()]
    layers["cli.worker_busy_share"] = median(shares)
    layers["cli.overhead_ms"] = median(outside)

    # overhead of one loop iteration: per operation kind, median traced wall
    # time minus median plain wall time, summed over the kinds
    kinds = [k for k in run.traced_ms if k != "setup" and k in run.plain_ms]
    overhead = {k: median(run.traced_ms[k]) - median(run.plain_ms[k]) for k in kinds}
    layers["trace.overhead_ms"] = sum(overhead.values())
    run.layers = {name: (layers[name], PER_LAYER[name]) for name in PER_LAYER}

    # Everything below is reported only: the full per-layer breakdown.
    lines = [f"TRACE PROBLEM: the package has no {name}; its span is missing and "
             f"the metrics built on it read 0" for name in sorted(run.tracer.missing)]
    lines.append(f"per-layer breakdown, median per traced operation over "
                 f"n={sum(o in rows for o in ops)} (total ms / self ms):")
    names = sorted({k for o in ops if o in rows for k in rows[o]
                    if "#" not in k and ".L" not in k and "." in k and k != "boxes.iou_calls"})
    for name in names:
        lines.append(f"  {name + '_ms':<28} {med(name):10.2f} {med(name, 1):10.2f}")
    if graph is not None and any(o in rows for o in ops):
        lines += conv_table(run, graph, med)
        stages = ["pipeline.letterbox", "graph.forward", "pipeline.decode",
                  "pipeline.filter", "pipeline.nms", "pipeline.unletterbox"]
        stage_sum = median([sum(rows[o][s][0] for s in stages if s in rows[o])
                            for o in ops if "pipeline.detect" in rows.get(o, {})])
        detect_ms = med("pipeline.detect")
        lines.append(f"pipeline.nms_ms {med('pipeline.nms'):.2f} for "
                     f"{layers['pipeline.candidates']:.0f} candidates -> "
                     f"{layers['pipeline.kept']:.0f} kept "
                     f"(of {layers['pipeline.raw_boxes']:.0f} raw boxes)")
        lines.append(f"stages {stage_sum:.2f} ms + detect glue {med('pipeline.detect', 1):.2f} ms "
                     f"= traced detect {detect_ms:.2f} ms (medians over traced detect calls)")
        if "detect" in overhead:
            plain = median(run.plain_ms["detect"])
            lines.append(f"traced stages minus tracing overhead = "
                         f"{100 * (stage_sum - overhead['detect']) / plain:.1f}% "
                         f"of the untraced detect wall time {plain:.2f} ms")
    if directory_calls:
        lines.append(f"cli.worker_busy_share {layers['cli.worker_busy_share']:.3f} "
                     f"(read + to_chw + detect / (wall x {WORKERS} workers), "
                     f"median of {len(shares)} directory calls)")
        lines.append(f"cli.overhead_ms {layers['cli.overhead_ms']:.2f} "
                     f"(per-image latency outside read/to_chw/detect, "
                     f"median of {len(outside)})")
    for kind, ms in overhead.items():
        lines.append(f"tracing overhead per {kind} call: {ms:.2f} ms "
                     f"(median traced {median(run.traced_ms[kind]):.2f} ms, "
                     f"n={len(run.traced_ms[kind])}, vs plain "
                     f"{median(run.plain_ms[kind]):.2f} ms, n={len(run.plain_ms[kind])})")
    run.report.extend(lines)


def conv_table(run: Run, graph, med) -> list[str]:
    """Per-conv-layer table; FLOPs and bytes are computed from shapes, not measured."""
    from littleyolo.config import Convolutional
    from littleyolo.graph import flops
    rows, total_flops, total_bytes = [], 0, 0
    forward_ms = med("graph.forward")
    for layer in graph.layers:
        if not isinstance(layer.spec, Convolutional):
            continue
        k, f, c_in = layer.spec.size, layer.spec.filters, layer.in_channels
        _, oh, ow = layer.out_shape
        src = graph.input_shape if layer.index == 0 else graph.layers[layer.index - 1].out_shape
        fl = 2 * k * k * c_in * f * oh * ow
        total_flops += fl
        cols = k * k * c_in
        nbytes = 4 * src[0] * src[1] * src[2] + 8 * cols * oh * ow + 8 * f * cols + 4 * f * oh * ow
        total_bytes += nbytes
        ms = med(f"tensor.conv2d.L{layer.index}")
        rows.append(f"  L{layer.index:<3} {ms:9.2f} {fl / 1e9:10.4f} "
                    f"{fl / 1e6 / ms if ms else 0:9.2f} {nbytes / 1e6:11.2f} "
                    f"{100 * ms / forward_ms if forward_ms else 0:7.1f}%")
    head = ["per-conv-layer (ms measured; GFLOP and MB computed from shapes: "
            "FLOPs 2*k^2*c_in*f*oh*ow; bytes = f32 input + f64 im2col + f64 weights + f32 output)",
            f"  {'layer':<4} {'ms':>9} {'GFLOP(c)':>10} {'GFLOP/s':>9} {'MB(c)':>11} {'fwd%':>8}"]
    if abs(total_flops / 1e9 - flops(graph)) > 1e-9 * flops(graph):
        run.problems.append(f"per-layer FLOPs sum to {total_flops / 1e9} GFLOP, "
                            f"graph.flops() says {flops(graph)}")
    conv_ms = sum(med(f"tensor.conv2d.L{l.index}") for l in graph.layers
                  if isinstance(l.spec, Convolutional))
    tail_rows = [f"  graph.forward_ms {forward_ms:.2f}  graph.forward_gflops "
                 f"{flops(graph) / forward_ms * 1e3 if forward_ms else 0:.2f}  "
                 f"tensor.conv2d_ms {conv_ms:.2f}  tensor.conv2d_gflops "
                 f"{total_flops / 1e6 / conv_ms if conv_ms else 0:.2f}  "
                 f"tensor.conv2d_bytes(c) {total_bytes / 1e6:.1f} MB  "
                 f"(layer FLOPs sum to graph.flops() = {flops(graph):.3f} GFLOP)"]
    return head + rows + tail_rows


# ------------------------------------------------------------- machine facts

def machine_facts() -> dict:
    import ctypes
    import numpy as np
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")),
                         None)
    except OSError:
        pass
    blas = getattr(np, "__config__", None)
    blas = getattr(blas, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    threads = None
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": threads,
        "env": {k: v for k, v in sorted(os.environ.items())
                if k.startswith(("OPENBLAS_", "OMP_", "MKL_"))},
        "platform": platform.platform(),
    }


# ----------------------------------------------------------------------- main

def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 check_golden: bool = True) -> Run:
    work = common.WORK / f"{name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(name, seed, seconds, work, tracing.Tracer() if traced else None, check_golden)
    try:
        WORKLOAD_FUNCS[name](run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if run.unchecked_nms:
        run.report.append(f"exact NMS check not applicable on {run.unchecked_nms} outputs: "
                          "no pipeline.nms call taking and returning detections was "
                          "seen; the invariants and the golden compare still ran")
    return run


def result_line(run: Run) -> dict:
    if run.tracer is None:
        metrics = {k: {"value": run.metrics[k][0], "unit": u} for k, u in END_TO_END.items()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in run.layers.items()}
    return {"correct": run.failed == 0 and not run.problems, "attempted": run.attempted,
            "failed": run.failed, "metrics": metrics}


def print_report(run: Run, facts: dict) -> None:
    print(f"== {run.workload}  seed={run.seed}  seconds={run.seconds}  "
          f"trace={int(run.tracer is not None)}")
    print(f"   why: {gen.WHY[run.workload]}")
    latency, throughput = MEANING[run.workload]
    notes = {"setup_s": f"median of set-ups: {SETUP_MEANING[run.workload]}",
             "latency_ms": f"median; {latency}", "throughput_per_s": f"median; {throughput}",
             "peak_mem_mb": "tracemalloc peak over one operation, untimed pass"}
    for name, (value, unit, n) in run.metrics.items():
        print(f"   {name:<17} {value:12.4f} {unit:<4} n={n:<4} {notes[name]}")
    share = run.failed / run.attempted if run.attempted else float("nan")
    print(f"   {'failed_share':<17} {share:12.4f} {'ratio':<4} n={run.attempted:<4} "
          "operations that raised or failed a check / attempted")
    for line in run.report:
        print(f"   {line}")
    for name, (value, unit) in run.layers.items():
        print(f"   layer {name:<28} {value:12.4f} {unit}")
    for problem in run.problems[:20]:
        print(f"   PROBLEM {problem}")
    print(f"   machine: nproc={facts['nproc']} cpu={facts['cpu_model']!r} "
          f"python={facts['python']} numpy={facts['numpy']} blas={facts['blas'].get('name')} "
          f"{facts['blas'].get('version')} threads={facts['blas_threads']} env={facts['env']}")


def save(run: Run, facts: dict, line: dict) -> Path:
    common.OUT.mkdir(exist_ok=True)
    path = common.OUT / f"{run.workload}-seed{run.seed}-trace{int(run.tracer is not None)}.json"
    doc = {"workload": run.workload, "seed": run.seed, "seconds": run.seconds,
           "why": gen.WHY[run.workload], "machine": facts, "result": line,
           "end_to_end": {k: {"value": v, "unit": u, "n": n}
                          for k, (v, u, n) in run.metrics.items()},
           "samples": run.samples, "report": run.report, "problems": run.problems,
           "spans": run.tracer.dump() if run.tracer is not None else []}
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return path


def write_golden() -> int:
    golden = {}
    for name in gen.WORKLOADS:
        run = run_workload(name, checks.GOLDEN_SEED, 0.0, traced=False, check_golden=False)
        if run.failed or run.problems:
            print(f"not writing golden outputs: {name} failed: {run.problems[:5]}",
                  file=sys.stderr)
            return 1
        golden[name] = run.outputs
    checks.GOLDEN_PATH.write_text(json.dumps(golden, separators=(",", ":")) + "\n")
    print(f"wrote {checks.GOLDEN_PATH}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("dense-416", "sparse-640-dir", "annotations", "all"),
                        default="all")
    parser.add_argument("--seed", type=int, default=checks.GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="length of each workload's timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="regenerate golden.json from the current source (default seed)")
    args = parser.parse_args(argv)
    try:
        common.use_checkout_source()
    except common.MissingSource as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.write_golden:
        return write_golden()

    facts = machine_facts()
    names = gen.WORKLOADS if args.workload == "all" else (args.workload,)
    lines = {}
    for name in names:
        run = run_workload(name, args.seed, args.seconds, bool(args.trace))
        lines[name] = result_line(run)
        print_report(run, facts)
        print(f"   saved {save(run, facts, lines[name])}")
    if len(names) == 1:
        print(json.dumps(lines[names[0]]))
    else:
        print(json.dumps({
            "correct": all(l["correct"] for l in lines.values()),
            "attempted": sum(l["attempted"] for l in lines.values()),
            "failed": sum(l["failed"] for l in lines.values()),
            "metrics": {f"{w}.{k}": m for w, l in lines.items() for k, m in l["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
