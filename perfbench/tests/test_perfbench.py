"""Tests for the benchmark itself: generator, output checks, end-to-end smoke runs.

    python3 -m pytest perfbench/tests -q

The smoke runs execute each workload once with --seconds 0 (about a minute
in total on 2 cores).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import checks
import common
import gen
import run
import tracing

RUN_PY = Path(run.__file__).resolve()


def _tree_bytes(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic(tmp_path, workload):
    gen.generate(workload, 5, tmp_path / "a")
    gen.generate(workload, 5, tmp_path / "b")
    gen.generate(workload, 6, tmp_path / "c")
    a, b, c = (_tree_bytes(tmp_path / d) for d in "abc")
    assert a == b
    assert a.keys() == c.keys()
    assert any(a[k] != c[k] for k in a if not k.endswith(".weights"))


def _golden_detections(workload="sparse-640-dir", image="frame_00") -> list[dict]:
    rows = checks.load_golden()[workload][image]
    return [{"class_id": r[0], "confidence": r[1],
             "bbox": dict(zip(("x1", "y1", "x2", "y2"), r[2:]))} for r in rows]


def test_golden_detections_pass_the_checks():
    dets = _golden_detections()
    assert len(dets) > 10
    assert checks.detection_problems(dets, 640, 480, 0.25, 0.45) == []
    assert checks.compare_detections(dets, checks.golden_detections(dets)) == []


def test_duplicated_detection_is_flagged():
    dets = _golden_detections()
    golden = checks.golden_detections(dets)
    planted = dets[:2] + [dict(dets[1])] + dets[2:]
    assert checks.compare_detections(planted, golden)
    assert checks.nms_problems(planted, planted, 0.45)
    # random weights clamp most boxes to the border; the IoU invariant on
    # final outputs checks boxes clear of it
    box = {"class_id": 0, "confidence": 0.9,
           "bbox": {"x1": 10.0, "y1": 20.0, "x2": 50.0, "y2": 90.0}}
    assert checks.detection_problems([box], 640, 480, 0.25, 0.45) == []
    problems = checks.detection_problems([box, dict(box)], 640, 480, 0.25, 0.45)
    assert any("IoU" in p for p in problems)


def test_dropped_detection_is_flagged():
    dets = _golden_detections()
    golden = checks.golden_detections(dets)
    assert checks.compare_detections(dets[:-1], golden)
    assert checks.compare_detections(dets[1:], golden)
    assert checks.nms_problems(dets, dets[1:], 0.45)


def test_invariants_flag_order_threshold_and_bounds():
    dets = _golden_detections()
    assert checks.detection_problems(dets[::-1], 640, 480, 0.25, 0.45)
    assert checks.detection_problems(dets, 640, 480, 0.99, 0.45)
    assert checks.detection_problems(dets, 320, 240, 0.25, 0.45)


def test_map_off_by_1e6_is_flagged(tmp_path):
    inputs = gen.write_annotations(tmp_path, checks.GOLDEN_SEED)
    out = tmp_path / "eval.json"
    run.cli_call(["eval", "--gt", inputs["gt"], "--preds", inputs["preds"],
                  "--output", str(out)])
    report = json.loads(out.read_text())
    reference = checks.reference_map(Path(inputs["gt"]), Path(inputs["preds"]))
    golden = checks.load_golden()["annotations"]["eval"]
    assert checks.eval_problems(report, reference, golden) == []
    planted = dict(report, map=report["map"] + 1e-6)
    assert len(checks.eval_problems(planted, reference, golden)) == 2
    car = report["per_class"]["car"] - 1e-6
    planted = dict(report, per_class=dict(report["per_class"], car=car))
    assert checks.eval_problems(planted, reference, golden)


def test_nms_check_reads_detections_by_attribute():
    a, b, c, d = (SimpleNamespace(class_id=cls, confidence=conf, bbox=box) for cls, conf, box in (
        (0, 0.9, (0, 0, 10, 10)), (0, 0.8, (1, 1, 11, 11)),    # b overlaps a: suppressed
        (1, 0.7, (1, 1, 11, 11)), (0, 0.6, (50, 50, 60, 60))))
    bench = run.Run("dense-416", 0, 0.0, Path("."), None)
    assert run.checked_nms(bench, ([a, b, c, d], [a, c, d])) == []
    assert run.checked_nms(bench, ([a, b, c, d], [a, b, c, d]))
    assert run.checked_nms(bench, ([a, b, c, d], [a, d]))
    assert bench.unchecked_nms == 0


@pytest.mark.parametrize("call", [None, (None, []), (np.zeros((3, 4)), np.arange(2))])
def test_unreadable_nms_call_is_unchecked_not_failed(call):
    bench = run.Run("dense-416", 0, 0.0, Path("."), None)
    assert run.checked_nms(bench, call) == []
    assert bench.unchecked_nms == 1


def test_missing_function_is_recorded_not_raised():
    tracer = tracing.Tracer()
    owner = SimpleNamespace(__name__="pkg", present=lambda: 1)
    tracer.wrap(owner, "absent", "pkg.absent")
    tracer.wrap(owner, "present", "pkg.present")
    assert owner.present() == 1
    tracer.restore()
    assert tracer.missing == {"pkg.absent"}


def test_spans_of_each_directory_call_stay_apart():
    tracer = tracing.Tracer()
    for call in ("dir#1", "dir#3"):
        tracer.call = call
        tracer.set_op(f"{tracer.call}/frame_00")
        tracer.end(tracer.begin("imaging.read"))
    rows = tracer.per_op()
    assert set(rows) == {"dir#1/frame_00", "dir#3/frame_00"}


def test_tail_needs_ten_samples_beyond():
    assert run.tail([1.0] * 19) is None
    pct, value = run.tail([float(v) for v in range(100)])
    assert (pct, value) == (90.0, 89.0)


def _bench(*args, cwd=common.ROOT):
    done = subprocess.run([sys.executable, str(RUN_PY), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return done.returncode, done.stdout


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_smoke_run(workload):
    code, out = _bench("--workload", workload, "--seed", "0", "--seconds", "0", "--trace", "0")
    assert code == 0, out
    line = json.loads(out.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1, out
    assert {k: v["unit"] for k, v in line["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in line["metrics"].values())


def test_traced_smoke_run():
    code, out = _bench("--workload", "annotations", "--seed", "1", "--seconds", "0",
                       "--trace", "1")
    assert code == 0, out
    line = json.loads(out.strip().splitlines()[-1])
    assert line["correct"], out
    assert {k: v["unit"] for k, v in line["metrics"].items()} == run.PER_LAYER
    assert line["metrics"]["anchors.lloyd_iters"]["value"] > 0
    assert line["metrics"]["boxes.iou_calls"]["value"] > 0


def test_fails_without_package_source(tmp_path):
    shutil.copytree(RUN_PY.parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "dense-416",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
