import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (PLANTED_BOX, PLANTED_CONFIDENCE, PLANTED_SIGMA9,
                      planted_image)
from littleyolo import pipeline
from littleyolo.imaging import to_chw_float
from littleyolo.boxes import BBox, iou
from littleyolo.pipeline import (Detection, LetterboxTransform,
                                 RawDetections, decode_yolo, detect,
                                 detection_to_dict, filter_confidence,
                                 letterbox, nms, resize_bilinear, unletterbox)
from littleyolo.tensor import ShapeError
from littleyolo.weights import init_random
from oracles import nms_oracle, resize_bilinear_seed


def make_det(box, conf, class_id=0):
    return Detection(bbox=BBox(*box), class_id=class_id,
                     class_name="car" if class_id == 0 else "bus",
                     objectness=conf, class_prob=1.0, confidence=conf)


def resize(x, out_h, out_w):
    out = np.empty((x.shape[0], out_h, out_w), dtype=np.float32)
    assert resize_bilinear(x, out) is out
    return out


class TestResize:
    def test_same_size_is_identity(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, (3, 7, 9)).astype(np.float32)
        np.testing.assert_array_equal(resize(x, 7, 9), x)

    def test_bilinear_midpoint(self):
        x = np.array([[[0.0, 1.0]]], dtype=np.float32)
        out = resize(x, 1, 3)
        # half-pixel centers: positions -1/6, 3/6, 7/6 clamped -> 0, .5, 1
        np.testing.assert_allclose(out, [[[0.0, 0.5, 1.0]]], atol=1e-7)

    def test_range_preserved(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 1, (3, 11, 5)).astype(np.float32)
        out = resize(x, 23, 17)
        assert out.min() >= 0 and out.max() <= 1

    @given(st.integers(1, 3), st.integers(1, 40), st.integers(1, 40),
           st.integers(1, 40), st.integers(1, 40), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_matches_seed_resize(self, c, h, w, out_h, out_w, seed):
        # the float32 source is widened per gathered row, not copied whole
        x = np.random.default_rng(seed).uniform(0, 1, (c, h, w)).astype(np.float32)
        np.testing.assert_array_equal(resize(x, out_h, out_w),
                                      resize_bilinear_seed(x, out_h, out_w))


class TestLetterbox:
    def test_square_identity(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 1, (3, 416, 416)).astype(np.float32)
        canvas, t = letterbox(x, 416, 416)
        np.testing.assert_array_equal(canvas, x)
        assert t == LetterboxTransform(scale=1.0, pad_x=0.0, pad_y=0.0,
                                       orig_w=416, orig_h=416)

    def test_wide_image_pads_rows(self):
        x = np.ones((3, 416, 832), dtype=np.float32)
        canvas, t = letterbox(x, 416, 416)
        assert canvas.shape == (3, 416, 416)
        assert t.scale == 0.5 and t.pad_x == 0.0 and t.pad_y == 104.0
        np.testing.assert_array_equal(canvas[:, :104], np.full((3, 104, 416), 0.5))
        np.testing.assert_array_equal(canvas[:, 104:312], np.ones((3, 208, 416)))
        np.testing.assert_array_equal(canvas[:, 312:], np.full((3, 104, 416), 0.5))

    def test_tall_image_pads_columns(self):
        x = np.ones((3, 100, 50), dtype=np.float32)
        canvas, t = letterbox(x, 64, 64)
        assert t.scale == 0.64
        assert t.pad_x == (64 - 32) // 2 and t.pad_y == 0.0

    def test_tiny_image_never_zero_content(self):
        x = np.ones((3, 1, 1000), dtype=np.float32)
        canvas, t = letterbox(x, 32, 32)
        assert canvas.shape == (3, 32, 32)  # scaled height clamps to >= 1

    def test_bad_shape(self):
        with pytest.raises(ShapeError):
            letterbox(np.zeros((416, 416, 3), np.float32), 416, 416)

    @pytest.mark.parametrize("dtype", [np.uint16, np.int32, np.int64, np.bool_])
    def test_dtype_neither_uint8_nor_float_raises(self, planted_tiny, dtype):
        # such a frame used to be read as floats in [0, 1] and give other
        # detections than its uint8 values, without a word
        image = (planted_image() * 255).astype(np.uint8).astype(dtype)
        for call in (lambda: letterbox(image, 32, 32), lambda: detect(planted_tiny, image)):
            with pytest.raises(ValueError, match=f"dtype {np.dtype(dtype)} is neither"):
                call()

    @given(st.integers(5, 200), st.integers(5, 200))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_within_half_pixel(self, w, h):
        x = np.zeros((3, h, w), dtype=np.float32)
        _, t = letterbox(x, 64, 64)
        for fx, fy in [(0.0, 0.0), (0.25, 0.75), (1.0, 1.0), (0.5, 0.5)]:
            ox1, oy1 = fx * w * 0.3, fy * h * 0.3
            ox2, oy2 = ox1 + 0.5 * w, oy1 + 0.4 * h
            net_box = BBox(ox1 * t.scale + t.pad_x, oy1 * t.scale + t.pad_y,
                           ox2 * t.scale + t.pad_x, oy2 * t.scale + t.pad_y)
            det = make_det(net_box, 0.9)
            back = unletterbox([det], t)[0].bbox
            for got, want in zip(back, (ox1, oy1, min(ox2, w), min(oy2, h))):
                assert abs(got - want) <= 0.5

    @given(st.integers(1, 90), st.integers(1, 90), st.integers(1, 70),
           st.integers(1, 70), st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_uint8_view_matches_float_image(self, w, h, net_w, net_h, seed):
        # the CLI passes the no-copy (3, H, W) view of the uint8 frame
        frame = np.random.default_rng(seed).integers(0, 256, (h, w, 3), dtype=np.uint8)
        got, t_got = letterbox(frame.transpose(2, 0, 1), net_w, net_h)
        want, t_want = letterbox(to_chw_float(frame), net_w, net_h)
        assert got.dtype == want.dtype == np.float32 and t_got == t_want
        np.testing.assert_array_equal(got, want)

    def test_uint8_1080p_memory(self):
        # output 4.9 MB plus one channel's widened rows; the float path,
        # with its 24.9 MB input copy, peaked at 66.4 MB
        frame = np.random.default_rng(3).integers(0, 256, (1080, 1920, 3), dtype=np.uint8)
        tracemalloc.start()
        try:
            canvas, _ = letterbox(frame.transpose(2, 0, 1), 640, 640)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert canvas.shape == (3, 640, 640)
        assert peak <= 30e6, f"letterbox peaked at {peak / 1e6:.1f} MB"

    def test_unletterbox_clamps(self):
        t = LetterboxTransform(scale=1.0, pad_x=0.0, pad_y=0.0, orig_w=10, orig_h=10)
        det = make_det((-5, -5, 20, 20), 0.9)
        back = unletterbox([det], t)[0].bbox
        assert back == BBox(0, 0, 10, 10)


class TestDecode:
    ANCHORS = ((4, 4), (6, 6), (8, 8), (16, 16))

    def test_zero_logits_geometry(self):
        raw = np.zeros((14, 2, 2), dtype=np.float32)
        out = decode_yolo(raw, self.ANCHORS, (2, 3), 32, 32, 2)
        assert out.boxes.shape == (8, 4)
        assert out.objectness.shape == (8,)
        assert out.class_probs.shape == (8, 2)
        np.testing.assert_allclose(out.objectness, 0.5)
        np.testing.assert_allclose(out.class_probs, 0.5)
        # row 0: slot 0 (anchor (8, 8)), cell (0, 0)
        cx = (0.5 + 0) / 2 * 32
        np.testing.assert_allclose(out.boxes[0], [cx - 4, cx - 4, cx + 4, cx + 4])
        # row 3: slot 0, cell (1, 1); row 4: slot 1 (anchor (16, 16)), cell (0, 0)
        cx11 = (0.5 + 1) / 2 * 32
        np.testing.assert_allclose(out.boxes[3],
                                   [cx11 - 4, cx11 - 4, cx11 + 4, cx11 + 4])
        np.testing.assert_allclose(out.boxes[4], [cx - 8, cx - 8, cx + 8, cx + 8])

    def test_offsets_and_exp_sizing(self):
        raw = np.zeros((7, 1, 1), dtype=np.float32)
        raw[0] = 100.0    # sigmoid -> 1: center at right cell edge
        raw[2] = math.log(2.0)  # bw = 2 * anchor_w
        out = decode_yolo(raw, ((10, 20),), (0,), 40, 40, 2)
        x1, y1, x2, y2 = out.boxes[0]
        assert x2 - x1 == pytest.approx(20.0)
        assert y2 - y1 == pytest.approx(20.0)
        assert (x1 + x2) / 2 == pytest.approx(40.0)
        assert (y1 + y2) / 2 == pytest.approx(20.0)

    def test_exploding_size_logits_give_finite_boxes(self):
        raw = np.zeros((14, 2, 2), dtype=np.float32)
        raw[2, 0, 0] = raw[3, 0, 0] = 1e4   # slot 0, cell (0, 0)
        raw[9, 1, 1] = 1e4                  # slot 1 tw, cell (1, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = decode_yolo(raw, self.ANCHORS, (2, 3), 32, 32, 2)
            kept = nms(filter_confidence(out, 0.0), 0.45)
        assert np.isfinite(out.boxes).all()
        assert all(np.isfinite(tuple(d.bbox)).all() for d in kept)

    def test_sigmoid_is_the_two_branch_logistic(self):
        # 1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below, bit
        # for bit, NaN signs included, and no exp overflows
        x = np.random.default_rng(6).standard_normal(20000) * [[10], [300]]
        x = np.append(x, [0.0, -0.0, 700, -700, 1e-320, -1e-320, np.inf, -np.inf,
                          1e308, -1e308, np.nan, -np.nan])
        want, pos = np.empty_like(x), x >= 0
        want[pos] = 1 / (1 + np.exp(-x[pos]))
        want[~pos] = np.exp(x[~pos]) / (1 + np.exp(x[~pos]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert pipeline._sigmoid(x).tobytes() == want.tobytes()

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError, match="channels"):
            decode_yolo(np.zeros((15, 2, 2), np.float32), self.ANCHORS,
                        (2, 3), 32, 32, 2)


class TestFilter:
    def raw(self, objectness, probs):
        n = len(objectness)
        return RawDetections(boxes=np.tile(np.array([0.0, 0.0, 4.0, 4.0]), (n, 1)),
                             objectness=np.array(objectness, float),
                             class_probs=np.array(probs, float))

    def test_product_rule_and_argmax(self):
        dets = filter_confidence(self.raw([0.5, 0.9], [[0.6, 0.4], [0.1, 0.2]]), 0.25)
        assert len(dets) == 1
        d = dets[0]
        assert d.class_id == 0 and d.class_name == "car"
        assert d.confidence == pytest.approx(0.3)
        assert d.objectness == pytest.approx(0.5)
        assert d.class_prob == pytest.approx(0.6)

    def test_threshold_strict(self):
        dets = filter_confidence(self.raw([0.5], [[0.5, 0.1]]), 0.25)
        assert dets == []  # 0.25 is not > 0.25

    def test_zero_threshold_keeps_everything_positive(self):
        dets = filter_confidence(self.raw([0.1, 0.2], [[0.5, 0.4]] * 2), 0.0)
        assert len(dets) == 2

    def test_order_preserved(self):
        dets = filter_confidence(
            self.raw([0.5, 0.9, 0.8], [[0.9, 0.1]] * 3), 0.25)
        assert [d.objectness for d in dets] == [0.5, 0.9, 0.8]

    def test_custom_names(self):
        dets = filter_confidence(self.raw([0.9], [[0.1, 0.9]]), 0.25,
                                 class_names=("moto", "lorry"))
        assert dets[0].class_name == "lorry"

    @pytest.mark.parametrize("names", [("car",), ("car", "bus", "van")])
    def test_wrong_number_of_class_names_raises(self, names):
        # the best class is 1, which ("car",) has no name for
        with pytest.raises(ValueError, match=f"{len(names)} class names for 2 classes"):
            filter_confidence(self.raw([0.9], [[0.1, 0.9]]), 0.25, class_names=names)


class TestNMS:
    def test_overlapping_same_class_suppressed(self):
        # areas 100 vs 81, intersection 81 -> iou 0.81
        a = make_det((0, 0, 10, 10), 0.9)
        b = make_det((0, 0, 9, 9), 0.8)
        assert nms([b, a], 0.45) == [a]

    def test_below_threshold_survives(self):
        a = make_det((0, 0, 10, 10), 0.9)
        b = make_det((6, 0, 16, 10), 0.8)  # iou = 4/16 = 0.25
        assert nms([a, b], 0.45) == [a, b]

    def test_classes_do_not_interact(self):
        a = make_det((0, 0, 10, 10), 0.9, class_id=0)
        b = make_det((0, 0, 10, 10), 0.8, class_id=1)
        assert nms([a, b], 0.45) == [a, b]

    def test_ties_keep_lower_index(self):
        a = make_det((0, 0, 10, 10), 0.8)
        b = make_det((0, 0, 10, 10), 0.8)
        kept = nms([a, b], 0.45)
        assert len(kept) == 1 and kept[0] is a

    def test_output_sorted_by_confidence(self):
        dets = [make_det((i * 100, 0, i * 100 + 10, 10), c)
                for i, c in enumerate([0.3, 0.9, 0.6])]
        assert [d.confidence for d in nms(dets, 0.45)] == [0.9, 0.6, 0.3]

    def test_chain_suppression_is_greedy(self):
        # b overlaps a (kept) -> b dies; c only overlapped b -> c survives
        a = make_det((0, 0, 10, 10), 0.9)
        b = make_det((4, 0, 14, 10), 0.8)    # iou(a,b) = 60/140 > 0.42
        c = make_det((7, 0, 17, 10), 0.7)    # iou(a,c) = 30/170, iou(b,c) = 70/130
        kept = nms([a, b, c], 0.42)
        assert kept == [a, c]

    @given(st.lists(st.tuples(st.floats(0, 50), st.floats(0, 50),
                              st.floats(1, 20), st.floats(1, 20),
                              st.floats(0.01, 1), st.integers(0, 1)),
                    max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_properties(self, rows):
        dets = [make_det((x, y, x + w, y + h), c, cls)
                for x, y, w, h, c, cls in rows]
        kept = nms(dets, 0.45)
        assert all(d in dets for d in kept)
        for i, a in enumerate(kept):
            for b in kept[i + 1:]:
                if a.class_id == b.class_id:
                    assert iou(a.bbox, b.bbox) <= 0.45 + 1e-9
        if dets:
            best = max(dets, key=lambda d: d.confidence)
            assert any(k.confidence >= best.confidence for k in kept)


# coarse integer grids give duplicate boxes, zero-area boxes and IoUs that
# land exactly on a threshold; few confidence levels give ties
grid_rows = st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8),
                               st.integers(0, 4), st.integers(0, 4),
                               st.sampled_from([0.3, 0.5, 0.5, 0.9]),
                               st.integers(0, 2)),
                     max_size=30)
float_rows = st.lists(st.tuples(st.floats(0, 50), st.floats(0, 50),
                                st.floats(0, 20), st.floats(0, 20),
                                st.floats(0.01, 1), st.integers(0, 2)),
                      max_size=30)
# overlapping runs along one row: a box suppressed by a kept one often
# overlaps a later box that must survive
line_rows = st.lists(st.tuples(st.integers(0, 20), st.just(0), st.just(10), st.just(10),
                               st.sampled_from([0.3, 0.5, 0.9]), st.integers(0, 1)),
                     max_size=30)
# random-weight heads give boxes this large
huge_rows = st.lists(st.tuples(st.floats(0, 1e62), st.floats(0, 1e62),
                               st.floats(0, 1e62), st.floats(0, 1e62),
                               st.sampled_from([0.3, 0.5, 0.9]), st.integers(0, 3)),
                     max_size=30)


class TestNMSAgainstOracle:
    @given(st.one_of(grid_rows, float_rows),
           st.sampled_from([0.0, 0.25, 0.45, 0.5, 1 / 3, 0.9]))
    @settings(max_examples=300, deadline=None)
    def test_same_objects_in_same_order(self, rows, threshold):
        dets = [make_det((x, y, x + w, y + h), c, cls)
                for x, y, w, h, c, cls in rows]
        got = nms(dets, threshold)
        want = nms_oracle(dets, threshold)
        assert [id(d) for d in got] == [id(d) for d in want]

    @pytest.mark.parametrize("block", [1, 2, 3, 7])
    @given(st.one_of(grid_rows, float_rows, line_rows, huge_rows),
           st.sampled_from([1.0, 1e61]),
           st.sampled_from([0.0, 0.45, 0.9]))
    @settings(max_examples=200, deadline=None)
    def test_small_blocks(self, block, rows, scale, threshold):
        # small blocks put runs of tied confidences and of one class's
        # members across block edges
        dets = [make_det((x * scale, y * scale, (x + w) * scale, (y + h) * scale), c, cls)
                for x, y, w, h, c, cls in rows]
        with mock.patch.object(pipeline, "NMS_BLOCK", block):
            got = nms(dets, threshold)
        want = nms_oracle(dets, threshold)
        assert [id(d) for d in got] == [id(d) for d in want]

    def test_dense_random_candidates(self):
        rng = np.random.default_rng(3)
        xy = rng.uniform(0, 400, (1500, 2))
        wh = rng.uniform(5, 120, (1500, 2))
        conf = np.round(rng.uniform(0.25, 1, 1500), 2)  # many ties
        cls = rng.integers(0, 3, 1500)
        dets = [make_det((*p, *(p + s)), float(c), int(k))
                for p, s, c, k in zip(xy, wh, conf, cls)]
        got = nms(dets, 0.45)
        assert [id(d) for d in got] == [id(d) for d in nms_oracle(dets, 0.45)]

    def test_memory_stays_linear(self):
        # 6,000 same-class boxes: a full IoU matrix would need ~290 MB
        rng = np.random.default_rng(1)
        xy = rng.uniform(0, 600, (6000, 2))
        wh = rng.uniform(20, 80, (6000, 2))
        dets = [make_det((*p, *(p + s)), float(c), 0)
                for p, s, c in zip(xy, wh, rng.uniform(0.25, 1, 6000))]
        tracemalloc.start()
        try:
            kept = nms(dets, 0.45)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0 < len(kept) < len(dets)
        assert peak < 50e6


class TestDetect:
    def test_planted_single_detection(self, planted_tiny):
        dets = detect(planted_tiny, planted_image())
        assert len(dets) == 1
        d = dets[0]
        assert d.class_id == 0 and d.class_name == "car"
        np.testing.assert_allclose(tuple(d.bbox), PLANTED_BOX, atol=1e-5)
        assert d.objectness == pytest.approx(PLANTED_SIGMA9, abs=1e-6)
        assert d.confidence == pytest.approx(PLANTED_CONFIDENCE, abs=1e-6)

    def test_planted_empty_image(self, planted_tiny):
        assert detect(planted_tiny, np.zeros((3, 32, 32), np.float32)) == []

    def test_planted_survives_letterbox(self, planted_tiny):
        # doubling the image size halves the scale; box maps back to 2x coords
        img = planted_image().repeat(2, axis=1).repeat(2, axis=2)
        dets = detect(planted_tiny, img)
        assert len(dets) == 1
        np.testing.assert_allclose(tuple(dets[0].bbox),
                                   tuple(2 * v for v in PLANTED_BOX), atol=1.0)

    def test_random_weights_bounded_boxes(self, tiny_graph):
        init_random(tiny_graph, seed=21)
        rng = np.random.default_rng(0)
        img = rng.uniform(0, 1, (3, 48, 40)).astype(np.float32)
        dets = detect(tiny_graph, img, conf_threshold=0.1)
        for d in dets:
            assert 0 <= d.bbox.x1 <= d.bbox.x2 <= 40
            assert 0 <= d.bbox.y1 <= d.bbox.y2 <= 48
            assert 0 < d.confidence <= 1

    def test_determinism(self, tiny_graph):
        init_random(tiny_graph, seed=21)
        img = np.random.default_rng(5).uniform(0, 1, (3, 32, 32)).astype(np.float32)
        assert detect(tiny_graph, img) == detect(tiny_graph, img)

    def test_nms_called_through_module(self, planted_tiny, monkeypatch):
        # perfbench's exact NMS check hooks pipeline.nms by this name and
        # reads its first argument
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return args[0] * 2

        monkeypatch.setattr(pipeline, "nms", spy)
        dets = detect(planted_tiny, planted_image(), nms_threshold=0.3)
        (candidates, threshold), = calls
        assert type(candidates) is list and len(candidates) == 1
        assert isinstance(candidates[0], Detection) and threshold == 0.3
        assert len(dets) == 2 and dets[0] == dets[1]
        np.testing.assert_allclose(tuple(dets[0].bbox), PLANTED_BOX, atol=1e-5)

    def test_uint8_view_same_detections(self, tiny_graph):
        init_random(tiny_graph, seed=21)
        frame = np.random.default_rng(6).integers(0, 256, (45, 37, 3), dtype=np.uint8)
        assert detect(tiny_graph, frame.transpose(2, 0, 1), conf_threshold=0.1) == \
            detect(tiny_graph, to_chw_float(frame), conf_threshold=0.1)

    def test_memory_416(self, ref_graph_randomized):
        # ~21.6 MB: the forward pass's maps and conv buffers (layer 12's).
        # Keeping the 2.1 MB canvas through the forward pass, and copying
        # layer 1's padded input rows into a 1.9 MB band, took it to 31.0
        # MB; layer 12's whole 12.5 MB column matrix to 27.0 MB.
        frame = np.random.default_rng(3).integers(0, 256, (480, 640, 3), dtype=np.uint8)
        tracemalloc.start()
        try:
            detect(ref_graph_randomized, frame.transpose(2, 0, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 22.5e6, f"detect peaked at {peak / 1e6:.1f} MB"

    def test_memory_640_1080p(self, ref_graph_randomized_640):
        # ~30.6 MB: layer 8's conv buffers and the maps live beside them.
        # Holding layers 0-3's full-resolution maps whole (not streamed)
        # took it to 49.5 MB, and layer 16's 16.8 MB weight block and whole
        # 14.7 MB column matrix, with layers 6-7 held whole, to 39.0 MB.
        frame = np.random.default_rng(3).integers(0, 256, (1080, 1920, 3), dtype=np.uint8)
        tracemalloc.start()
        try:
            detect(ref_graph_randomized_640, frame.transpose(2, 0, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 31.6e6, f"detect peaked at {peak / 1e6:.1f} MB"

    def test_nan_in_a_head_raises(self, planted_tiny):
        # NaN confidences fail every threshold, which would read as an
        # empty image
        planted_tiny.layers[7].params.bias[8] = np.nan
        with pytest.raises(ValueError, match="yolo layer 8: head output is not finite"):
            detect(planted_tiny, planted_image())

    def test_nan_image_raises(self, planted_tiny):
        img = planted_image()
        img[1, 8, 8] = np.nan  # a pixel the stride-2 convs sample
        with pytest.raises(ValueError, match="not finite"):
            detect(planted_tiny, img)

    @pytest.mark.parametrize("names", [("car",), ("car", "bus", "van")])
    def test_wrong_number_of_class_names_raises(self, planted_tiny, names):
        with pytest.raises(ValueError, match=f"{len(names)} class names for 2 classes"):
            detect(planted_tiny, planted_image(), class_names=names)

    def test_overflow_raises_without_warnings(self, planted_tiny):
        # 3e38 weights are finite, but overflow float32 on a white image
        planted_tiny.layers[0].params.weights[:] = 3e38
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not finite"):
                detect(planted_tiny, np.ones((3, 32, 32), np.float32))

    def test_headless_graph_rejected(self):
        from littleyolo.config import Convolutional, NetParams
        from littleyolo.graph import build_graph
        g = build_graph([NetParams(width=8, height=8, channels=3),
                         Convolutional(filters=2, size=1, activation="linear")])
        with pytest.raises(ShapeError, match="yolo"):
            detect(g, np.zeros((3, 8, 8), np.float32))


class TestDetectionDict:
    def test_schema(self):
        d = detection_to_dict(make_det((1, 2, 3, 4), 0.5))
        assert set(d) == {"class_id", "class_name", "confidence",
                          "objectness", "class_prob", "bbox"}
        assert set(d["bbox"]) == {"x1", "y1", "x2", "y2"}
        assert d["bbox"]["x2"] == 3.0
        import json
        json.dumps(d)  # JSON-serializable
