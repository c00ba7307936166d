import errno
import json
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from conftest import (PLANTED_BOX, PLANTED_CONFIDENCE, TINY_CFG,
                      craft_planted_params, fill_disk, write_ppm_image)
from littleyolo import cli, imaging, pipeline, tensor, weights
from littleyolo import evaluate as eval_mod
from littleyolo import graph as graph_mod
from littleyolo.cli import main
from littleyolo.config import (load_config, lower_to_specs, parse_config,
                               reference_config_path)
from littleyolo.graph import build_graph
from littleyolo.imaging import encode_ppm
from littleyolo.weights import init_random, save_weights_file
from test_anchors import write_voc


@pytest.fixture
def tiny_setup(tmp_path):
    """Config file, planted weights file, and a triggering PPM image."""
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_CFG)
    g = craft_planted_params(build_graph(lower_to_specs(parse_config(TINY_CFG))))
    wfile = tmp_path / "tiny.weights"
    save_weights_file(g, wfile)
    img = np.zeros((32, 32, 3), dtype=np.uint8)
    img[14:19, 6:11, 0] = 255
    ppm = write_ppm_image(tmp_path / "scene.ppm", img)
    return {"cfg": str(cfg), "weights": str(wfile), "image": str(ppm),
            "dir": tmp_path}


@pytest.fixture(scope="module")
def ref_weights_416(tmp_path_factory):
    """Weights file of the 416 reference net with init_random weights."""
    g = build_graph(load_config(reference_config_path(416)))
    init_random(g, seed=3)
    path = tmp_path_factory.mktemp("ref") / "ref416.weights"
    save_weights_file(g, path)
    return path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInfo:
    def test_reference_totals(self, capsys):
        code, out, _ = run_cli(capsys, "info")
        assert code == 0
        assert "layers: 33" in out
        assert "12,455,962" in out
        assert "49,823,868 bytes" in out
        assert "49.82 MB" in out
        assert "flops: 15.279 B" in out
        assert "4096 x 13 x 13" in out
        # layer 5's and layer 6's outputs; layer 12's conv buffers
        # (tensor.conv_scratch_bytes) on top of its maps
        assert ("live maps: at most 9.69 MB, while layer 6 runs; with conv2d's "
                "scratch, 21.47 MB, while layer 12 runs") in out
        assert "streams: layers 0 into 1, 2-3 into 4\n" in out

    def test_640_variant_grids(self, capsys):
        code, out, _ = run_cli(capsys, "info", "--size", "640")
        assert code == 0
        assert "21 x 20 x 20" in out and "21 x 40 x 40" in out
        # layers 0-3 and 6-7 are streamed; while layer 6 runs, layers 4 and
        # 5, layer 6's buffer and layer 8's output; layer 8's conv buffers
        assert ("live maps: at most 18.27 MB, while layer 6 runs; with conv2d's "
                "scratch, 30.54 MB, while layer 8 runs") in out
        assert "streams: layers 0-3 into 4, 6-7 into 8\n" in out

    def test_no_runs(self, capsys, tiny_setup):
        code, out, _ = run_cli(capsys, "info", "--cfg", tiny_setup["cfg"])
        assert code == 0 and "streams: none\n" in out

    def test_weights_report(self, capsys, tiny_setup):
        code, out, _ = run_cli(capsys, "info", "--cfg", tiny_setup["cfg"],
                               "--weights", tiny_setup["weights"])
        assert code == 0
        assert "images_seen=0" in out

    def test_blas_line(self, capsys, tiny_setup, monkeypatch):
        def blas_line():
            code, out, _ = run_cli(capsys, "info", "--cfg", tiny_setup["cfg"])
            assert code == 0
            lines = [l for l in out.splitlines() if l.startswith("blas: ")]
            assert len(lines) == 1
            return lines[0]

        threads = tensor.blas_thread_count()
        if threads is not None:
            assert blas_line().endswith(f", {threads} threads")
        monkeypatch.setattr(tensor, "_openblas", lambda: None)
        assert blas_line().endswith(", thread control unavailable")

    def test_bad_cfg_path(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "info", "--cfg", str(tmp_path / "no.cfg"))
        assert code == 1 and err.startswith("error:")


class TestDetect:
    def test_single_image_stdout_json(self, capsys, tiny_setup):
        code, out, _ = run_cli(capsys, "detect", "--cfg", tiny_setup["cfg"],
                               "--weights", tiny_setup["weights"],
                               "--input", tiny_setup["image"])
        assert code == 0
        doc = json.loads(out)
        assert doc["image"] == tiny_setup["image"]
        assert doc["width"] == 32 and doc["height"] == 32
        assert len(doc["detections"]) == 1
        det = doc["detections"][0]
        assert det["class_name"] == "car"
        assert det["confidence"] == pytest.approx(PLANTED_CONFIDENCE, abs=1e-6)
        got = (det["bbox"]["x1"], det["bbox"]["y1"],
               det["bbox"]["x2"], det["bbox"]["y2"])
        assert got == pytest.approx(PLANTED_BOX, abs=1e-5)

    def test_single_image_output_dir(self, capsys, tiny_setup):
        out_dir = tiny_setup["dir"] / "out"
        code, out, _ = run_cli(capsys, "detect", "--cfg", tiny_setup["cfg"],
                               "--weights", tiny_setup["weights"],
                               "--input", tiny_setup["image"],
                               "--output", str(out_dir), "--annotate")
        assert code == 0
        doc = json.loads((out_dir / "scene.json").read_text())
        assert len(doc["detections"]) == 1
        assert (out_dir / "scene.annotated.ppm").exists()

    def test_annotate_without_output_fails(self, capsys, tiny_setup, monkeypatch):
        calls = []
        monkeypatch.setattr(pipeline, "detect", lambda *a, **k: calls.append(a))
        code, _, err = run_cli(capsys, "detect", "--cfg", tiny_setup["cfg"],
                               "--weights", tiny_setup["weights"],
                               "--input", tiny_setup["image"], "--annotate")
        assert code == 1 and "annotate" in err
        assert calls == []

    def test_file_and_directory_input_write_the_same_files(self, capsys, tiny_setup):
        d = tiny_setup["dir"] / "one"
        d.mkdir()
        image = d / "scene.ppm"
        image.write_bytes(Path(tiny_setup["image"]).read_bytes())
        outs = []
        for sub, source in (("A", image), ("B", d)):
            out_dir = tiny_setup["dir"] / sub
            code, _, _ = run_cli(capsys, "detect", "--cfg", tiny_setup["cfg"],
                                 "--weights", tiny_setup["weights"],
                                 "--input", str(source), "--output", str(out_dir),
                                 "--annotate")
            assert code == 0
            outs.append(out_dir)
        for name in ("scene.json", "scene.annotated.ppm"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        assert len(json.loads((outs[0] / "scene.json").read_text())["detections"]) == 1

    def test_directory_requires_output(self, capsys, tiny_setup):
        code, _, err = run_cli(capsys, "detect", "--cfg", tiny_setup["cfg"],
                               "--weights", tiny_setup["weights"],
                               "--input", str(tiny_setup["dir"]))
        assert code == 1 and "--output" in err

    def test_directory_without_images(self, capsys, tiny_setup):
        empty = tiny_setup["dir"] / "empty"
        empty.mkdir()
        code, _, err = run_cli(capsys, "detect", "--cfg", tiny_setup["cfg"],
                               "--weights", tiny_setup["weights"], "--input", str(empty),
                               "--output", str(tiny_setup["dir"] / "out"))
        assert code == 1 and f"no images found in {empty}" in err

    def test_cfg_without_heads(self, capsys, tiny_setup):
        cfg = tiny_setup["dir"] / "headless.cfg"
        cfg.write_text("[net]\nwidth=8\nheight=8\nchannels=3\n\n"
                       "[convolutional]\nfilters=2\nsize=1\n")
        g = build_graph(load_config(cfg))
        init_random(g, seed=0)
        save_weights_file(g, tiny_setup["dir"] / "headless.weights")
        code, _, err = run_cli(capsys, "detect", "--cfg", str(cfg),
                               "--weights", str(tiny_setup["dir"] / "headless.weights"),
                               "--input", tiny_setup["image"])
        assert code == 1 and "config has no yolo heads; nothing to detect" in err

    def test_empty_names_file(self, capsys, tiny_setup):
        names = tiny_setup["dir"] / "names.txt"
        names.write_text("\n  \n")
        code, _, err = run_cli(capsys, "anchors", "--input", str(tiny_setup["dir"]),
                               "--names", str(names))
        assert code == 1 and f"names file {names} is empty" in err

    def test_missing_weights_file(self, capsys, tiny_setup):
        code, _, err = run_cli(capsys, "detect", "--cfg", tiny_setup["cfg"],
                               "--weights", str(tiny_setup["dir"] / "no.w"),
                               "--input", tiny_setup["image"])
        assert code == 1 and err.startswith("error:")

    @pytest.mark.parametrize("directory", [False, True])
    def test_non_finite_weight_fails_naming_file_and_layer(self, capsys, tiny_setup,
                                                           directory):
        # NaN weights used to give "detections": [] and exit 0
        g = craft_planted_params(build_graph(lower_to_specs(parse_config(TINY_CFG))))
        g.layers[3].params.weights[4, 0, 0, 0] = np.nan
        wfile = tiny_setup["dir"] / "nan.weights"
        save_weights_file(g, wfile)
        src = self._image_dir(tiny_setup) if directory else tiny_setup["image"]
        code, out, err = run_cli(capsys, "detect", "--cfg", tiny_setup["cfg"],
                                 "--weights", str(wfile), "--input", str(src),
                                 "--output", str(tiny_setup["dir"] / "out"))
        assert code == 1 and out == ""
        assert err == f"error: {wfile}: layer 3: weights[4] is nan (1 non-finite values)\n"
        assert not (tiny_setup["dir"] / "out").exists()

    def test_loaded_graph_survives_a_rewrite_of_its_file(self, capsys, tiny_setup):
        # the layers view the mapped weights file, and save_weights_file
        # replaces the file by a rename, so the loaded graph keeps its values
        specs = lower_to_specs(parse_config(TINY_CFG))
        g = weights.load_weights_file(build_graph(specs), tiny_setup["weights"])
        image = imaging.to_chw_float(imaging.read_image(tiny_setup["image"]))
        before = [pipeline.detection_to_dict(d) for d in pipeline.detect(g, image)]
        assert len(before) == 1
        save_weights_file(init_random(build_graph(specs), seed=5), tiny_setup["weights"])
        assert [pipeline.detection_to_dict(d) for d in pipeline.detect(g, image)] == before
        code, out, _ = run_cli(capsys, "detect", "--cfg", tiny_setup["cfg"],
                               "--weights", tiny_setup["weights"],
                               "--input", tiny_setup["image"])
        assert code == 0 and json.loads(out)["detections"] != before

    def _image_dir(self, tiny_setup):
        d = tiny_setup["dir"] / "imgs"
        d.mkdir(exist_ok=True)
        rng = np.random.default_rng(8)
        hot = np.zeros((32, 32, 3), dtype=np.uint8)
        hot[14:19, 6:11, 0] = 255
        write_ppm_image(d / "a_hot.ppm", hot)
        write_ppm_image(d / "b_dark.ppm", np.zeros((32, 32, 3), np.uint8))
        write_ppm_image(d / "c_noise.ppm",
                        rng.integers(0, 64, (40, 48, 3)).astype(np.uint8))
        return d

    def test_directory_batch(self, capsys, tiny_setup):
        d = self._image_dir(tiny_setup)
        out_dir = tiny_setup["dir"] / "batch"
        code, out, _ = run_cli(capsys, "detect", "--cfg", tiny_setup["cfg"],
                               "--weights", tiny_setup["weights"],
                               "--input", str(d), "--output", str(out_dir))
        assert code == 0 and "processed 3 images" in out
        index = json.loads((out_dir / "index.json").read_text())
        assert [Path(r["image"]).name for r in index["results"]] == \
            ["a_hot.ppm", "b_dark.ppm", "c_noise.ppm"]
        assert [r["num_detections"] for r in index["results"]] == [1, 0, 0]
        hot = json.loads((out_dir / "a_hot.json").read_text())
        assert hot["detections"][0]["class_name"] == "car"

    def test_workers_identical_output(self, capsys, tiny_setup):
        d = self._image_dir(tiny_setup)
        outs = []
        for workers, sub in ((1, "w1"), (4, "w4")):
            out_dir = tiny_setup["dir"] / sub
            code, _, _ = run_cli(capsys, "detect", "--cfg", tiny_setup["cfg"],
                                 "--weights", tiny_setup["weights"],
                                 "--input", str(d), "--output", str(out_dir),
                                 "--workers", str(workers))
            assert code == 0
            outs.append(out_dir)
        for name in ("a_hot.json", "b_dark.json", "c_noise.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        idx = [json.loads((o / "index.json").read_text()) for o in outs]
        for r in idx[0]["results"] + idx[1]["results"]:
            r["output"] = Path(r["output"]).name
        assert idx[0] == idx[1]


    @pytest.mark.skipif(sys.implementation.name != "cpython" or sys.version_info < (3, 11),
                        reason="before CPython 3.11 the caller holds a call's "
                               "arguments until the call returns")
    def test_frame_freed_before_the_forward_pass(self, capsys, tiny_setup, monkeypatch):
        d = self._image_dir(tiny_setup)
        frames, alive = [], []
        read_image, forward = imaging.read_image, pipeline.forward

        def reading(path):
            frame = read_image(path)
            frames.append(weakref.ref(frame))
            return frame

        def forwarding(graph, x):
            alive.append(sum(ref() is not None for ref in frames))
            return forward(graph, x)
        monkeypatch.setattr(imaging, "read_image", reading)
        monkeypatch.setattr(pipeline, "forward", forwarding)
        code, _, _ = run_cli(capsys, "detect", "--cfg", tiny_setup["cfg"],
                             "--weights", tiny_setup["weights"],
                             "--input", str(d), "--output", str(tiny_setup["dir"] / "o"))
        assert code == 0 and len(frames) == 3
        assert alive == [0, 0, 0]

    def test_annotate_keeps_the_frame(self, capsys, tiny_setup):
        # the annotated image and JSON are those of detect and annotate
        # called on one frame the caller keeps
        d = self._image_dir(tiny_setup)
        out_dir = tiny_setup["dir"] / "annotated"
        code, _, _ = run_cli(capsys, "detect", "--cfg", tiny_setup["cfg"],
                             "--weights", tiny_setup["weights"], "--input", str(d),
                             "--output", str(out_dir), "--annotate")
        assert code == 0
        g = build_graph(load_config(tiny_setup["cfg"]))
        weights.load_weights_file(g, tiny_setup["weights"])
        for image in sorted(d.iterdir()):
            frame = imaging.read_image(image)
            dets = pipeline.detect(g, frame.transpose(2, 0, 1))
            doc = {"image": str(image), "width": frame.shape[1], "height": frame.shape[0],
                   "detections": [pipeline.detection_to_dict(det) for det in dets]}
            assert (out_dir / f"{image.stem}.json").read_text() == \
                json.dumps(doc, indent=2) + "\n"
            assert (out_dir / f"{image.stem}.annotated.ppm").read_bytes() == \
                encode_ppm(imaging.annotate(frame, dets))
        assert json.loads((out_dir / "a_hot.json").read_text())["detections"]

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_rejected(self, capsys, tiny_setup, workers):
        out_dir = tiny_setup["dir"] / "out"
        code, out, err = run_cli(capsys, "detect", "--cfg", tiny_setup["cfg"],
                                 "--weights", tiny_setup["weights"],
                                 "--input", str(self._image_dir(tiny_setup)),
                                 "--output", str(out_dir), "--workers", workers)
        assert code == 1 and out == ""
        assert err.strip() == f"error: --workers must be at least 1, got {workers}"
        assert not out_dir.exists()

    def test_corrupt_image_becomes_an_error_row(self, capsys, tiny_setup):
        d = self._image_dir(tiny_setup)
        bad = d / "b_bad.ppm"
        bad.write_bytes(encode_ppm(np.zeros((32, 32, 3), np.uint8))[:-10])
        outs = []
        for workers in ("1", "2"):
            out_dir = tiny_setup["dir"] / f"w{workers}"
            code, out, err = run_cli(capsys, "detect", "--cfg", tiny_setup["cfg"],
                                     "--weights", tiny_setup["weights"],
                                     "--input", str(d), "--output", str(out_dir),
                                     "--workers", workers)
            assert code == 1 and "processed 3 images" in out
            message = f"{bad}: PPM pixel data truncated"
            assert len(err.strip().splitlines()) == 1
            assert err.startswith(f"error: {message}")
            rows = json.loads((out_dir / "index.json").read_text())["results"]
            assert [Path(r["image"]).name for r in rows] == \
                ["a_hot.ppm", "b_bad.ppm", "b_dark.ppm", "c_noise.ppm"]
            assert set(rows[1]) == {"image", "error"}
            assert rows[1]["image"] == str(bad) and rows[1]["error"].startswith(message)
            assert [r["num_detections"] for r in rows if "error" not in r] == [1, 0, 0]
            assert not (out_dir / "b_bad.json").exists()
            outs.append(out_dir)
        for name in ("a_hot.json", "b_dark.json", "c_noise.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    @pytest.mark.parametrize("name, data, message", [
        ("b_empty.ppm", b"P6\n0 0\n255\n", "PPM has no pixels: 0x0"),
        ("b_photo.png", b"\x89PNG\r\n\x1a\n" + bytes(32), "not a binary PPM (P6) stream"),
    ], ids=["zero-size", "png"])
    def test_unreadable_image_is_named_and_the_rest_run(self, capsys, tiny_setup,
                                                        name, data, message):
        d = self._image_dir(tiny_setup)
        bad = d / name
        bad.write_bytes(data)
        out_dir = tiny_setup["dir"] / "out"
        code, out, err = run_cli(capsys, "detect", "--cfg", tiny_setup["cfg"],
                                 "--weights", tiny_setup["weights"],
                                 "--input", str(d), "--output", str(out_dir))
        assert code == 1 and "processed 3 images" in out
        assert err.strip() == f"error: {bad}: {message}"
        rows = json.loads((out_dir / "index.json").read_text())["results"]
        assert [r["num_detections"] for r in rows if "error" not in r] == [1, 0, 0]

    def test_blas_threads_split_among_workers_and_restored(self, capsys, tiny_setup,
                                                          monkeypatch):
        before = tensor.blas_thread_count()
        if before is None:
            pytest.skip("numpy's BLAS thread count cannot be controlled here")
        d = self._image_dir(tiny_setup)
        seen = []
        real = cli._detect_one

        def spy(*args):
            seen.append(tensor.blas_thread_count())
            return real(*args)

        monkeypatch.setattr(cli, "_detect_one", spy)
        for workers, want in (("1", before), ("2", max(1, before // 2))):
            seen.clear()
            code, _, _ = run_cli(capsys, "detect", "--cfg", tiny_setup["cfg"],
                                 "--weights", tiny_setup["weights"], "--input", str(d),
                                 "--output", str(tiny_setup["dir"] / f"w{workers}"),
                                 "--workers", workers)
            assert code == 0
            assert seen == [want] * 3
            assert tensor.blas_thread_count() == before

        def failing(*args):
            raise RuntimeError("worker failed")

        monkeypatch.setattr(cli, "_detect_one", failing)
        with pytest.raises(RuntimeError, match="worker failed"):
            main(["detect", "--cfg", tiny_setup["cfg"], "--weights", tiny_setup["weights"],
                  "--input", str(d), "--output", str(tiny_setup["dir"] / "fail"),
                  "--workers", "2"])
        assert tensor.blas_thread_count() == before

    def test_reference_net_workers_agree(self, capsys, tmp_path, ref_weights_416,
                                         monkeypatch):
        # Random 416 weights pass hundreds of boxes per image, so the JSON
        # exposes any bit that depends on the BLAS thread split.
        d = tmp_path / "imgs"
        d.mkdir()
        rng = np.random.default_rng(11)
        for name, shape in (("a", (48, 64, 3)), ("b", (64, 48, 3)), ("c", (40, 40, 3))):
            write_ppm_image(d / f"{name}.ppm", rng.integers(0, 256, shape).astype(np.uint8))

        def detect(sub, workers):
            out_dir = tmp_path / sub
            code, _, _ = run_cli(capsys, "detect", "--weights", str(ref_weights_416),
                                 "--input", str(d), "--output", str(out_dir),
                                 "--workers", workers)
            assert code == 0
            return [(out_dir / f"{name}.json").read_bytes() for name in "abc"]

        serial = detect("w1", "1")
        assert detect("w2", "2") == serial
        monkeypatch.setattr(tensor, "_openblas", lambda: None)
        assert detect("w2_no_control", "2") == serial

    def test_letterbox_frames_workers_agree(self, capsys, tmp_path, ref_weights_416,
                                            monkeypatch):
        # 4:3 and 16:9 frames are padded with rows, whose repeats the forward
        # pass computes once; a portrait frame is padded with columns. The
        # JSON is the same for any worker count, and with no rows skipped.
        d = tmp_path / "imgs"
        d.mkdir()
        rng = np.random.default_rng(12)
        frames = {"a": (60, 80, 3), "b": (72, 128, 3), "c": (80, 60, 3)}
        for name, shape in frames.items():
            write_ppm_image(d / f"{name}.ppm", rng.integers(0, 256, shape).astype(np.uint8))

        def detect(sub, workers):
            out_dir = tmp_path / sub
            code, _, _ = run_cli(capsys, "detect", "--weights", str(ref_weights_416),
                                 "--input", str(d), "--output", str(out_dir),
                                 "--workers", workers)
            assert code == 0
            return [(out_dir / f"{name}.json").read_bytes() for name in frames]

        serial = detect("w1", "1")
        assert detect("w2", "2") == serial
        monkeypatch.setattr(graph_mod, "repeated_rows",
                            lambda x: np.zeros(x.shape[1] - 1, dtype=bool))
        assert detect("no_repeats", "2") == serial

    def test_bbox_corners_are_floats(self, capsys, tmp_path, ref_weights_416):
        # Random 416 weights give boxes far past the image, so most corners
        # are clamped to its edges; those must stay floats like the rest.
        rng = np.random.default_rng(5)
        img = write_ppm_image(tmp_path / "noise.ppm",
                              rng.integers(0, 256, (48, 64, 3)).astype(np.uint8))
        code, out, _ = run_cli(capsys, "detect", "--weights", str(ref_weights_416),
                               "--input", str(img))
        assert code == 0
        corners = [v for d in json.loads(out)["detections"] for v in d["bbox"].values()]
        assert 64.0 in corners and 48.0 in corners
        assert all(type(v) is float for v in corners)

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_output_name_collision_fails_before_detecting(self, capsys, tiny_setup,
                                                          workers):
        d = tiny_setup["dir"] / "imgs"
        d.mkdir()
        pixels = np.zeros((32, 32, 3), np.uint8)
        write_ppm_image(d / "scene.ppm", pixels)
        write_ppm_image(d / "scene.png", pixels)  # read by magic bytes: a PPM
        out_dir = tiny_setup["dir"] / "out"
        code, out, err = run_cli(capsys, "detect", "--cfg", tiny_setup["cfg"],
                                 "--weights", tiny_setup["weights"],
                                 "--input", str(d), "--output", str(out_dir),
                                 "--workers", workers)
        assert code == 1
        assert "scene.ppm" in err and "scene.png" in err and "scene.json" in err
        assert "processed" not in out
        assert not out_dir.exists() or not list(out_dir.glob("*.json*"))

    def test_image_named_index_fails(self, capsys, tiny_setup):
        d = tiny_setup["dir"] / "imgs"
        d.mkdir()
        write_ppm_image(d / "index.ppm", np.zeros((32, 32, 3), np.uint8))
        code, _, err = run_cli(capsys, "detect", "--cfg", tiny_setup["cfg"],
                               "--weights", tiny_setup["weights"],
                               "--input", str(d), "--output",
                               str(tiny_setup["dir"] / "out"))
        assert code == 1 and "index.ppm" in err and "index.json" in err


    @pytest.mark.parametrize("directory", [False, True])
    @pytest.mark.parametrize("lines", ["car\n", "car\nbus\nvan\n"], ids=["one", "three"])
    def test_names_count_must_match_classes(self, capsys, tiny_setup, directory,
                                            lines):
        # rejected before any image runs, so no output directory is made
        names = tiny_setup["dir"] / "names.txt"
        names.write_text(lines, encoding="utf-8")
        src = self._image_dir(tiny_setup) if directory else tiny_setup["image"]
        out_dir = tiny_setup["dir"] / "out"
        code, out, err = run_cli(capsys, "detect", "--cfg", tiny_setup["cfg"],
                                 "--weights", tiny_setup["weights"],
                                 "--input", str(src), "--output", str(out_dir),
                                 "--names", str(names))
        count = len(lines.splitlines())
        assert code == 1 and out == ""
        assert err == (f"error: names file {names} has {count} names, "
                       "but the net has 2 classes\n")
        assert not out_dir.exists()

    def test_names_file_not_utf8_is_named(self, capsys, tiny_setup):
        names = tiny_setup["dir"] / "names.txt"
        names.write_bytes("v\u00e9hicule\nbus\n".encode("latin-1"))
        code, out, err = run_cli(capsys, "detect", "--cfg", tiny_setup["cfg"],
                                 "--weights", tiny_setup["weights"],
                                 "--input", tiny_setup["image"], "--names", str(names))
        assert code == 1 and out == ""
        assert err.startswith(f"error: names file {names}: 'utf-8' codec can't decode")
        assert err.count("\n") == 1

    @pytest.mark.filterwarnings("error")  # numpy's overflow warnings stay quiet
    @pytest.mark.parametrize("directory", [False, True])
    def test_detect_failure_names_the_image(self, capsys, tiny_setup, directory):
        # finite 3e38 weights load, but overflow float32 on a white image
        g = craft_planted_params(build_graph(lower_to_specs(parse_config(TINY_CFG))))
        g.layers[0].params.weights[:] = 3e38
        wfile = tiny_setup["dir"] / "big.weights"
        save_weights_file(g, wfile)
        d = tiny_setup["dir"] / "imgs"
        d.mkdir()
        white = write_ppm_image(d / "white.ppm", np.full((32, 32, 3), 255, np.uint8))
        write_ppm_image(d / "dark.ppm", np.zeros((32, 32, 3), np.uint8))
        out_dir = tiny_setup["dir"] / "out"
        code, out, err = run_cli(capsys, "detect", "--cfg", tiny_setup["cfg"],
                                 "--weights", str(wfile),
                                 "--input", str(d if directory else white),
                                 "--output", str(out_dir))
        assert code == 1
        assert err.startswith(f"error: {white}: yolo layer 4: head output is not finite")
        assert err.count("\n") == 1
        if directory:
            assert "processed 1 images" in out
            rows = json.loads((out_dir / "index.json").read_text())["results"]
            assert [r["image"] for r in rows if "error" in r] == [str(white)]


class TestCountFlags:
    @pytest.mark.parametrize("size", ["0", "-416"])
    @pytest.mark.parametrize("command", ["info", "detect", "bench", "anchors"])
    def test_size_below_one_rejected(self, capsys, tiny_setup, command, size):
        argv = {"info": ["info"],
                "detect": ["detect", "--weights", tiny_setup["weights"],
                           "--input", tiny_setup["image"]],
                "bench": ["bench", "--weights", tiny_setup["weights"],
                          "--input", tiny_setup["image"]],
                "anchors": ["anchors", "--input", str(tiny_setup["dir"])]}[command]
        code, out, err = run_cli(capsys, *argv, "--size", size)
        assert code == 1 and out == ""
        assert err.strip() == f"error: --size must be at least 1, got {size}"

    @pytest.mark.parametrize("iters", ["0", "-2"])
    def test_bench_iters_below_one_rejected(self, capsys, tiny_setup, monkeypatch, iters):
        calls = []
        monkeypatch.setattr(pipeline, "detect", lambda *a, **k: calls.append(a))
        code, out, err = run_cli(capsys, "bench", "--cfg", tiny_setup["cfg"],
                                 "--weights", tiny_setup["weights"],
                                 "--input", tiny_setup["image"], "--iters", iters)
        assert code == 1 and out == ""
        assert err.strip() == f"error: --iters must be at least 1, got {iters}"
        assert calls == []


    @pytest.mark.parametrize("value", ["0", "-3"])
    @pytest.mark.parametrize("flag", ["k", "restarts"])
    def test_anchors_counts_below_one_rejected_before_loading(
            self, capsys, tiny_setup, monkeypatch, flag, value):
        calls = []
        monkeypatch.setattr(cli.anchor_mod, "load_dims", lambda *a: calls.append(a))
        code, out, err = run_cli(capsys, "anchors", "--input", str(tiny_setup["dir"]),
                                 f"--{flag}", value)
        assert code == 1 and out == ""
        assert err.strip() == f"error: --{flag} must be at least 1, got {value}"
        assert calls == []


class TestThresholdFlags:
    @pytest.fixture
    def no_work(self, monkeypatch):
        """Record every weights load, detect and evaluate call."""
        calls = []
        for module, name in ((weights, "load_weights_file"), (pipeline, "detect"),
                             (eval_mod, "evaluation_report")):
            monkeypatch.setattr(module, name,
                                lambda *a, name=name, **k: calls.append(name))
        return calls

    @pytest.mark.parametrize("flag, value, span", [
        ("conf", "-0.1", "[0, 1)"), ("conf", "1", "[0, 1)"), ("conf", "nan", "[0, 1)"),
        ("nms", "-0.1", "[0, 1]"), ("nms", "1.5", "[0, 1]"), ("nms", "nan", "[0, 1]"),
    ])
    def test_detect_threshold_out_of_range(self, capsys, tiny_setup, no_work,
                                           flag, value, span):
        code, out, err = run_cli(capsys, "detect", "--cfg", tiny_setup["cfg"],
                                 "--weights", tiny_setup["weights"],
                                 "--input", tiny_setup["image"], f"--{flag}", value)
        assert code == 1 and out == ""
        assert err.strip() == (f"error: --{flag} must be in {span}, "
                               f"got {float(value)}")
        assert no_work == []

    @pytest.mark.parametrize("value", ["-0.1", "1.5", "nan"])
    def test_eval_iou_out_of_range(self, capsys, tmp_path, no_work, value):
        gt, preds = tmp_path / "gt.txt", tmp_path / "preds.txt"
        gt.write_text("img1 car 0 0 10 10\n")
        preds.write_text("img1 car 0.9 0 0 10 10\n")
        code, out, err = run_cli(capsys, "eval", "--gt", str(gt),
                                 "--preds", str(preds), "--iou", value)
        assert code == 1 and out == ""
        assert err.strip() == f"error: --iou must be in [0, 1], got {float(value)}"
        assert no_work == []

    @pytest.mark.parametrize("flag, value", [("conf", "0"), ("conf", "0.999"),
                                             ("nms", "0"), ("nms", "1")])
    def test_detect_threshold_edges_accepted(self, capsys, tiny_setup, flag, value):
        code, _, _ = run_cli(capsys, "detect", "--cfg", tiny_setup["cfg"],
                             "--weights", tiny_setup["weights"],
                             "--input", tiny_setup["image"], f"--{flag}", value)
        assert code == 0


class TestAnchors:
    def _voc(self, tmp_path):
        d = tmp_path / "ann"
        d.mkdir()
        rng = np.random.default_rng(3)
        for i in range(40):
            w1, h1 = 20 * (1 + rng.normal(0, 0.03)), 20 * (1 + rng.normal(0, 0.03))
            w2, h2 = 120 * (1 + rng.normal(0, 0.03)), 80 * (1 + rng.normal(0, 0.03))
            write_voc(d, f"im{i:03d}", 200, 200,
                      [("car", 0, 0, 0, w1, h1), ("bus", 0, 0, 0, w2, h2)])
        return d

    def test_two_cluster_recovery_and_json(self, capsys, tmp_path):
        d = self._voc(tmp_path)
        out = tmp_path / "anchors.json"
        code, text, _ = run_cli(capsys, "anchors", "--input", str(d),
                                "--k", "2", "--size", "416",
                                "--output", str(out))
        assert code == 0
        assert text.startswith("anchors=")
        assert "mean best-anchor iou" in text
        doc = json.loads(out.read_text())
        assert set(doc) >= {"anchors", "masks", "anchors_line", "mean_iou",
                            "num_boxes", "k", "distance", "seed", "restarts",
                            "net_size"}
        assert doc["num_boxes"] == 80 and doc["k"] == 2
        (w1, h1), (w2, h2) = doc["anchors"]
        assert w1 == pytest.approx(20 / 200 * 416, rel=0.05)
        assert w2 == pytest.approx(120 / 200 * 416, rel=0.05)
        assert h2 == pytest.approx(80 / 200 * 416, rel=0.05)
        assert doc["mean_iou"] > 0.9

    def test_deterministic_output(self, capsys, tmp_path):
        d = self._voc(tmp_path)
        _, first, _ = run_cli(capsys, "anchors", "--input", str(d), "--k", "2")
        _, second, _ = run_cli(capsys, "anchors", "--input", str(d), "--k", "2")
        assert first == second

    def test_class_filter(self, capsys, tmp_path):
        d = self._voc(tmp_path)
        names = tmp_path / "names.txt"
        names.write_text("car\n")
        code, text, _ = run_cli(capsys, "anchors", "--input", str(d),
                                "--k", "1", "--names", str(names))
        assert code == 0
        line = text.splitlines()[0].removeprefix("anchors=")
        w, h = (float(v) for v in line.split(","))
        assert w == pytest.approx(41.6, rel=0.05)

    def test_empty_input(self, capsys, tmp_path):
        d = tmp_path / "empty"
        d.mkdir()
        code, _, err = run_cli(capsys, "anchors", "--input", str(d))
        assert code == 1 and "no usable boxes" in err


class TestEval:
    def _fixtures(self, tmp_path):
        gt = tmp_path / "gt.txt"
        gt.write_text("img1 car 0 0 10 10\n"
                      "img1 bus 20 20 40 40\n"
                      "img2 car 5 5 15 15\n")
        preds = tmp_path / "preds.txt"
        preds.write_text("img1 car 0.9 0 0 10 10\n"
                         "img1 bus 0.8 100 100 120 120\n"
                         "img2 car 0.7 5 5 15 15\n")
        return gt, preds

    def test_report_values(self, capsys, tmp_path):
        gt, preds = self._fixtures(tmp_path)
        out = tmp_path / "report.json"
        code, text, err = run_cli(capsys, "eval", "--gt", str(gt),
                                  "--preds", str(preds), "--output", str(out))
        assert code == 0 and err == ""
        assert "mAP" in text
        doc = json.loads(out.read_text())
        assert doc["per_class"]["car"] == 1.0
        assert doc["per_class"]["bus"] == 0.0
        assert doc["map"] == pytest.approx(0.5)
        assert doc["num_images"] == 2
        assert doc["iou_threshold"] == 0.5 and doc["interpolation"] == "all"

    def test_interp_and_iou_flags(self, capsys, tmp_path):
        gt, preds = self._fixtures(tmp_path)
        code, text, _ = run_cli(capsys, "eval", "--gt", str(gt),
                                "--preds", str(preds), "--iou", "0.9",
                                "--interp", "11point")
        assert code == 0
        assert "(iou 0.9, 11-point)" in text

    def test_disjoint_warning(self, capsys, tmp_path):
        gt = tmp_path / "gt.txt"
        gt.write_text("img1 car 0 0 10 10\n")
        preds = tmp_path / "preds.txt"
        preds.write_text("other car 0.9 0 0 10 10\n")
        code, _, err = run_cli(capsys, "eval", "--gt", str(gt),
                               "--preds", str(preds))
        assert code == 0
        assert "disjoint" in err

    def test_empty_corpus(self, capsys, tmp_path):
        gt = tmp_path / "gt.txt"
        gt.write_text("")
        preds = tmp_path / "preds.txt"
        preds.write_text("")
        code, _, err = run_cli(capsys, "eval", "--gt", str(gt),
                               "--preds", str(preds))
        assert code == 1 and "empty" in err

    def test_image_id_collision_fails(self, capsys, tmp_path):
        gt = tmp_path / "gt.txt"
        gt.write_text("scene car 0 0 10 10\n")
        preds = tmp_path / "preds"
        preds.mkdir()
        for name, image in (("first.json", "/a/scene.ppm"),
                            ("second.json", "/b/scene.ppm")):
            (preds / name).write_text(json.dumps({"image": image, "detections": []}))
        code, _, err = run_cli(capsys, "eval", "--gt", str(gt),
                               "--preds", str(preds))
        assert code == 1
        assert "first.json" in err and "second.json" in err

    def test_detect_json_round_trip(self, capsys, tiny_setup):
        # detect writes JSONs; eval consumes them against matching gt
        d = tiny_setup["dir"] / "evalrun"
        code, _, _ = run_cli(capsys, "detect", "--cfg", tiny_setup["cfg"],
                             "--weights", tiny_setup["weights"],
                             "--input", tiny_setup["image"],
                             "--output", str(d))
        assert code == 0
        gt = tiny_setup["dir"] / "gt.txt"
        gt.write_text(f"scene car {PLANTED_BOX[0]} {PLANTED_BOX[1]} "
                      f"{PLANTED_BOX[2]} {PLANTED_BOX[3]}\n")
        out = tiny_setup["dir"] / "rep.json"
        code, text, _ = run_cli(capsys, "eval", "--gt", str(gt),
                                "--preds", str(d), "--output", str(out))
        assert code == 0
        assert json.loads(out.read_text())["map"] == 1.0


class TestAnnotationInputErrors:
    """Malformed annotation files fail with a one-line error naming the file."""

    @pytest.mark.parametrize("which", ["gt", "preds"])
    def test_non_numeric_flat_text_value(self, capsys, tmp_path, which):
        gt = tmp_path / "gt.txt"
        preds = tmp_path / "preds.txt"
        gt.write_text("img1 car 0 0 10 10\n"
                      + ("img1 car 0 0 abc 10\n" if which == "gt" else ""))
        preds.write_text("img1 car 0.9 0 0 10 10\n"
                         + ("img1 car high 0 0 10 10\n" if which == "preds" else ""))
        bad, value = (gt, "abc") if which == "gt" else (preds, "high")
        code, _, err = run_cli(capsys, "eval", "--gt", str(gt), "--preds", str(preds))
        assert code == 1
        assert err.strip() == f"error: {bad}:2: could not convert string to float: '{value}'"

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("which", ["gt", "preds"])
    def test_non_finite_flat_text_value(self, capsys, tmp_path, which, value):
        gt = tmp_path / "gt.txt"
        preds = tmp_path / "preds.txt"
        gt.write_text("img1 car 0 0 10 10\n"
                      + (f"img1 car 0 0 {value} 10\n" if which == "gt" else ""))
        preds.write_text("img1 car 0.9 0 0 10 10\n"
                         + (f"img1 car 0.8 0 0 {value} 10\n" if which == "preds" else ""))
        code, _, err = run_cli(capsys, "eval", "--gt", str(gt), "--preds", str(preds))
        assert code == 1
        v = float(value)
        assert err.strip() == (
            f"error: {gt}:2: (x1, y1, x2, y2) = (0.0, 0.0, {v}, 10.0) is not finite"
            if which == "gt" else
            f"error: {preds}:2: (confidence, x1, y1, x2, y2) = (0.8, 0.0, 0.0, {v}, 10.0) "
            f"is not finite")

    def _voc_dir(self, tmp_path):
        d = tmp_path / "ann"
        d.mkdir()
        write_voc(d, "good", 100, 100, [("car", 0, 0, 0, 10, 10)])
        write_voc(d, "bad", 100, 100, [("car", 0, 0, 0, 10, 10),
                                       ("bus", 0, "abc", 5, 50, 50)])
        return d

    def _run_on_voc(self, capsys, tmp_path, command, d):
        if command == "eval":
            preds = tmp_path / "preds.txt"
            preds.write_text("good car 0.9 0 0 10 10\n")
            return run_cli(capsys, "eval", "--gt", str(d), "--preds", str(preds))
        return run_cli(capsys, "anchors", "--input", str(d), "--k", "1")

    @pytest.mark.parametrize("command", ["eval", "anchors"])
    def test_truncated_voc_xml(self, capsys, tmp_path, command):
        d = self._voc_dir(tmp_path)
        bad = d / "bad.xml"
        bad.write_text(bad.read_text()[:120])
        code, _, err = self._run_on_voc(capsys, tmp_path, command, d)
        assert code == 1
        assert err.startswith(f"error: {bad}: not well-formed XML")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("command", ["eval", "anchors"])
    def test_non_numeric_voc_coordinate(self, capsys, tmp_path, command):
        d = self._voc_dir(tmp_path)
        code, _, err = self._run_on_voc(capsys, tmp_path, command, d)
        assert code == 1
        assert err.strip() == (f"error: {d / 'bad.xml'}: object 1: "
                               f"could not convert string to float: 'abc'")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command", ["eval", "anchors"])
    def test_non_finite_voc_coordinate(self, capsys, tmp_path, command, value):
        d = tmp_path / "ann"
        d.mkdir()
        write_voc(d, "good", 100, 100, [("car", 0, 0, 0, 10, 10)])
        write_voc(d, "bad", 100, 100, [("car", 0, 0, 0, 10, 10),
                                       ("car", 0, 5, 5, value, 50)])
        code, _, err = self._run_on_voc(capsys, tmp_path, command, d)
        assert code == 1
        assert err.strip() == (f"error: {d / 'bad.xml'}: object 1: <bndbox> (xmin, ymin, "
                               f"xmax, ymax) = (5.0, 5.0, {float(value)}, 50.0) is not finite")

    # int() and float() also read underscores and non-ASCII digits
    NOT_NUMBERS = ["1_0", "\u0661\u0660", "1e1_0", "0x10", "1 0"]

    @pytest.mark.parametrize("value", NOT_NUMBERS[:3])
    @pytest.mark.parametrize("which", ["gt", "preds"])
    def test_flat_text_value_outside_the_number_grammar(self, capsys, tmp_path, which,
                                                        value):
        gt = tmp_path / "gt.txt"
        preds = tmp_path / "preds.txt"
        gt.write_text("img1 car 0 0 10 10\n"
                      + (f"img1 car {value} 0 20 10\n" if which == "gt" else ""),
                      encoding="utf-8")
        preds.write_text("img1 car 0.9 0 0 10 10\n"
                         + (f"img1 car 0.8 {value} 0 20 10\n" if which == "preds" else ""),
                         encoding="utf-8")
        bad = gt if which == "gt" else preds
        code, _, err = run_cli(capsys, "eval", "--gt", str(gt), "--preds", str(preds))
        assert code == 1
        assert err.strip() == f"error: {bad}:2: could not convert string to float: {value!r}"

    @pytest.mark.parametrize("value", NOT_NUMBERS)
    @pytest.mark.parametrize("command", ["eval", "anchors"])
    def test_voc_value_outside_the_number_grammar(self, capsys, tmp_path, command, value):
        d = tmp_path / "ann"
        d.mkdir()
        write_voc(d, "good", " 100 ", "\n100\t", [("car", 0, " 0", "0 ", "\t10", "10\n")])
        write_voc(d, "bad", 100, 100, [("car", 0, 0, 0, 10, 10), ("car", 0, value, 0, 20, 10)])
        code, _, err = self._run_on_voc(capsys, tmp_path, command, d)
        assert code == 1
        assert err.strip() == (f"error: {d / 'bad.xml'}: object 1: "
                               f"could not convert string to float: {value!r}")

    @pytest.mark.parametrize("value", NOT_NUMBERS)
    def test_voc_size_outside_the_number_grammar(self, capsys, tmp_path, value):
        d = tmp_path / "ann"
        d.mkdir()
        write_voc(d, "bad", 100, value, [("car", 0, 0, 0, 10, 10)])
        code, _, err = run_cli(capsys, "anchors", "--input", str(d), "--k", "1")
        assert code == 1
        assert err.strip() == (f"error: {d / 'bad.xml'}: <size>: "
                               f"could not convert string to float: {value!r}")

    @pytest.mark.parametrize("value", ["true", "2", "yes", "-1", "1.0"])
    @pytest.mark.parametrize("command", ["eval", "anchors"])
    def test_voc_difficult_flag(self, capsys, tmp_path, command, value):
        d = tmp_path / "ann"
        d.mkdir()
        write_voc(d, "good", 100, 100, [("car", 0, 0, 0, 10, 10), ("car", value, 0, 0, 20, 10)])
        code, _, err = self._run_on_voc(capsys, tmp_path, command, d)
        assert code == 1
        assert err.strip() == (f"error: {d / 'good.xml'}: object 1: "
                               f"<difficult> {value!r} is not 0 or 1")

    @pytest.mark.parametrize("value", ["yes", "2", "true", "-1", "Difficult"])
    def test_flat_text_difficult_flag(self, capsys, tmp_path, value):
        gt = tmp_path / "gt.txt"
        preds = tmp_path / "preds.txt"
        gt.write_text(f"img1 car 0 0 10 10 0\nimg1 car 0 0 20 10 {value}\n")
        preds.write_text("img1 car 0.9 0 0 10 10\n")
        code, _, err = run_cli(capsys, "eval", "--gt", str(gt), "--preds", str(preds))
        assert code == 1
        assert err.strip() == (f"error: {gt}:2: difficult flag {value!r} is not one of "
                               "('0', '1', 'difficult')")

    @pytest.mark.parametrize("doc, message", [
        ({"image": "scene.ppm"}, "missing key 'detections'"),
        ({"detections": []}, "missing key 'image'"),
        ({"image": "scene.ppm", "detections": [
            {"class_name": "car", "confidence": 0.9,
             "bbox": {"x1": 0, "y1": 0, "x2": 10}}]}, "detection 0: missing key 'y2'"),
        ({"image": "scene.ppm", "detections": [
            {"class_name": "car", "confidence": 0.9,
             "bbox": {"x1": 0, "y1": 0, "x2": 10, "y2": 10}},
            {"class_name": "car", "confidence": "high",
             "bbox": {"x1": 0, "y1": 0, "x2": 10, "y2": 10}}]},
         "detection 1: (confidence, x1, y1, x2, y2) = ('high', 0, 0, 10, 10) holds a "
         "value that is not a JSON number"),
        ('{"image": "scene.ppm", "detec', "not valid JSON: "),
        ({"image": "scene.ppm", "detections": [
            {"class_name": "car", "confidence": float("nan"),
             "bbox": {"x1": 0, "y1": 0, "x2": 10, "y2": 10}}]},
         "detection 0: (confidence, x1, y1, x2, y2) = (nan, 0.0, 0.0, 10.0, 10.0) "
         "is not finite"),
        ({"image": "scene.ppm", "detections": [
            {"class_name": "car", "confidence": 0.9,
             "bbox": {"x1": 0, "y1": 0, "x2": 10, "y2": 10}},
            {"class_name": "car", "confidence": 0.9,
             "bbox": {"x1": 0, "y1": float("-inf"), "x2": 10, "y2": 10}}]},
         "detection 1: (confidence, x1, y1, x2, y2) = (0.9, 0.0, -inf, 10.0, 10.0) "
         "is not finite"),
        ({"image": "scene.ppm", "detections": [
            {"class_name": 5, "confidence": 0.9,
             "bbox": {"x1": 0, "y1": 0, "x2": 10, "y2": 10}}]},
         "detection 0: class_name 5 is not a string"),
        (b"\xff\xfe{}", "not valid JSON: "),
        pytest.param("[" * 100_000, "not valid JSON: ", id="nested-too-deep"),
        # strings and booleans that float() would take are not JSON numbers
        ({"image": "scene.ppm", "detections": [
            {"class_name": "car", "confidence": "0.9",
             "bbox": {"x1": 1, "y1": True, "x2": 5, "y2": " 6 "}}]},
         "detection 0: (confidence, x1, y1, x2, y2) = ('0.9', 1, True, 5, ' 6 ') holds a "
         "value that is not a JSON number"),
        ({"image": "scene.ppm", "detections": [
            {"class_name": "car", "confidence": 0.9,
             "bbox": {"x1": 1, "y1": False, "x2": 5, "y2": 6}}]},
         "detection 0: (confidence, x1, y1, x2, y2) = (0.9, 1, False, 5, 6) holds a "
         "value that is not a JSON number"),
    ])
    def test_malformed_detection_json(self, capsys, tmp_path, doc, message):
        gt = tmp_path / "gt.txt"
        gt.write_text("scene car 0 0 10 10\n")
        preds = tmp_path / "preds"
        preds.mkdir()
        f = preds / "scene.json"
        text = doc if isinstance(doc, (str, bytes)) else json.dumps(doc)
        f.write_bytes(text if isinstance(text, bytes) else text.encode())
        code, _, err = run_cli(capsys, "eval", "--gt", str(gt), "--preds", str(preds))
        assert code == 1
        assert err.startswith(f"error: {f}: {message}")
        assert len(err.strip().splitlines()) == 1

    COCO_IMAGES = [{"id": 1, "width": 100, "height": 100}]
    COCO_ANNOTATIONS = [{"image_id": 1, "category_id": 1, "bbox": [0, 0, 10, 10]}]

    @pytest.mark.parametrize("doc, message", [
        ({"images": [{"id": 1, "height": 100}], "annotations": COCO_ANNOTATIONS},
         "image 1: missing key 'width'"),
        ({"images": [{"width": 100, "height": 100}], "annotations": COCO_ANNOTATIONS},
         "images[0]: missing key 'id'"),
        ({"images": [{"id": 1, "width": "abc", "height": 100}],
          "annotations": COCO_ANNOTATIONS},
         "image 1: size (width, height) = ('abc', 100) holds a value that is not a "
         "JSON number"),
        ({"images": COCO_IMAGES,
          "annotations": COCO_ANNOTATIONS + [{"image_id": 1, "category_id": 1}]},
         "annotation 1: missing key 'bbox'"),
        ({"images": COCO_IMAGES, "annotations": [
            {"image_id": 1, "category_id": 1, "bbox": [0, 0, 10]}]},
         "annotation 0: not enough values to unpack (expected 4, got 3)"),
        ([{"images": COCO_IMAGES}], "'list' object has no attribute 'get'"),
        ('{"images": [', "not valid JSON: "),
        pytest.param("[" * 100_000, "not valid JSON: ", id="nested-too-deep"),
        ({"images": [{"id": 1, "width": 100, "height": True}],
          "annotations": COCO_ANNOTATIONS},
         "image 1: size (width, height) = (100, True) holds a value that is not a JSON number"),
        ({"images": COCO_IMAGES, "annotations": [
            {"image_id": 1, "category_id": 1, "bbox": [0, 0, "10", 10]}]},
         "annotation 0: bbox size (w, h) = ('10', 10) holds a value that is not a JSON number"),
    ])
    def test_malformed_coco_json(self, capsys, tmp_path, doc, message):
        f = tmp_path / "ann.json"
        f.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        code, _, err = run_cli(capsys, "anchors", "--input", str(f), "--k", "1")
        assert code == 1
        assert err.startswith(f"error: {f}: {message}")
        assert len(err.strip().splitlines()) == 1


class TestBench:
    def test_schema_and_sanity(self, capsys, tiny_setup):
        out = tiny_setup["dir"] / "bench.json"
        code, text, _ = run_cli(capsys, "bench", "--cfg", tiny_setup["cfg"],
                                "--weights", tiny_setup["weights"],
                                "--input", tiny_setup["image"],
                                "--iters", "3", "--output", str(out))
        assert code == 0
        doc = json.loads(text)
        assert set(doc) == {"iters", "mean_ms", "median_ms", "fps"}
        assert doc["iters"] == 3
        assert doc["mean_ms"] > 0 and doc["median_ms"] > 0
        assert doc["fps"] == pytest.approx(1000.0 / doc["mean_ms"])
        assert json.loads(out.read_text()) == doc

    def test_times_the_detect_path(self, capsys, tiny_setup, monkeypatch):
        from littleyolo import pipeline
        calls = []
        real = pipeline.detect

        def counting_detect(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline, "detect", counting_detect)
        code, _, _ = run_cli(capsys, "bench", "--cfg", tiny_setup["cfg"],
                             "--weights", tiny_setup["weights"],
                             "--input", tiny_setup["image"], "--iters", "2")
        assert code == 0
        assert len(calls) == 3  # warmup + 2 timed


class TestJsonDump:
    @pytest.mark.parametrize("fail", ["unserializable", "disk full"])
    def test_failed_write_leaves_no_tmp(self, tmp_path, monkeypatch, fail):
        path = tmp_path / "out.json"
        path.write_text("old\n")
        doc = {"x": 1}
        if fail == "unserializable":
            doc, error = {"x": object()}, TypeError
        else:
            fill_disk(monkeypatch, 6)  # writes '{\n  "x'
            error = OSError
        with pytest.raises(error):
            cli._json_dump(doc, path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]
        assert path.read_text() == "old\n"


class TestReplacedWhole:
    """A failed write or rename of a detect or eval output leaves the old
    file as it was and no .tmp."""

    @pytest.fixture
    def outputs(self, tiny_setup, capsys):
        """The argv of a detect --annotate and of an eval --output, and their
        outputs as a first run of each wrote them."""
        d = tiny_setup["dir"]
        (d / "gt.txt").write_text("scene car 0 0 10 10\n")
        (d / "preds.txt").write_text("scene car 0.9 0 0 10 10\n")
        runs = [["detect", "--cfg", tiny_setup["cfg"], "--weights", tiny_setup["weights"],
                 "--input", tiny_setup["image"], "--output", str(d / "out"), "--annotate"],
                ["eval", "--gt", str(d / "gt.txt"), "--preds", str(d / "preds.txt"),
                 "--output", str(d / "out" / "report.json")]]
        for argv in runs:
            assert run_cli(capsys, *argv)[0] == 0
        files = {p.name: p.read_bytes() for p in (d / "out").iterdir()}
        assert sorted(files) == ["report.json", "scene.annotated.ppm", "scene.json"]
        return runs, d / "out", files

    @pytest.mark.parametrize("name", ["scene.annotated.ppm", "report.json"])
    @pytest.mark.parametrize("fail", ["part-way", "rename"])
    def test_failed_replace_keeps_the_old_file(self, capsys, monkeypatch, outputs,
                                               name, fail):
        # detect writes the image before the JSON, so a failed image leaves
        # the old pair; the error names the file that failed
        runs, out, files = outputs
        old = {n: b"old " + data for n, data in files.items()}
        for n, data in old.items():
            (out / n).write_bytes(data)
        if fail == "part-way":
            fill_disk(monkeypatch, 100, name)
        else:
            replace = weights.os.replace

            def failing(src, dst):
                if name in str(dst):
                    raise OSError(errno.EXDEV, "Invalid cross-device link")
                replace(src, dst)
            monkeypatch.setattr(weights.os, "replace", failing)
        code, _, err = run_cli(capsys, *runs[name == "report.json"])
        assert code == 1 and err.startswith("error: ") and str(out / name) in err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == old


class TestParser:
    def test_no_command_exits(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_exits(self, capsys):
        with pytest.raises(SystemExit):
            main(["transmogrify"])
