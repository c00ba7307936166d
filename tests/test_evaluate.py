import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from littleyolo import cli, evaluate
from littleyolo.anchors import load_dims
from littleyolo.boxes import BBox, iou_matrix
from littleyolo.evaluate import (INTERPOLATIONS, Boxes, EvalCorpus, GroundTruth,
                                 Prediction, average_precision,
                                 evaluation_report, format_report,
                                 load_ground_truth, load_predictions,
                                 match_class, mean_ap, precision_recall)
from oracles import ap_bruteforce, average_precision_seed, match_class_oracle
from test_anchors import write_voc

UNIT = (0, 0, 10, 10)
SHIFT_60 = (0, 4, 10, 14)    # iou vs UNIT = 60/140 ~ 0.4286
SHIFT_75 = (0, 2, 10, 12)    # iou vs UNIT = 80/120 ~ 0.6667
FAR = (50, 50, 60, 60)


def corpus(gts, preds):
    c = EvalCorpus()
    for g in gts:
        c.add_ground_truth(*g)
    for p in preds:
        c.add_prediction(*p)
    return c


class TestMatching:
    def test_perfect_hit(self):
        c = corpus([("a", "car", UNIT)], [("a", "car", 0.9, UNIT)])
        flags, total = match_class(c.predictions, c.ground_truths, 0.5)
        assert flags == [True] and total == 1

    def test_low_iou_is_fp(self):
        c = corpus([("a", "car", UNIT)], [("a", "car", 0.9, SHIFT_60)])
        flags, _ = match_class(c.predictions, c.ground_truths, 0.5)
        assert flags == [False]
        flags, _ = match_class(c.predictions, c.ground_truths, 0.4)
        assert flags == [True]

    def test_threshold_inclusive(self):
        # gt area 8, pred area 16, intersection 8 -> iou exactly 0.5
        c = corpus([("a", "car", (0, 0, 4, 2))], [("a", "car", 0.9, (0, 0, 4, 4))])
        flags, _ = match_class(c.predictions, c.ground_truths, 0.5)
        assert flags == [True]

    def test_double_detection_second_is_fp(self):
        c = corpus([("a", "car", UNIT)],
                   [("a", "car", 0.9, UNIT), ("a", "car", 0.8, UNIT)])
        flags, _ = match_class(c.predictions, c.ground_truths, 0.5)
        assert flags == [True, False]

    def test_confidence_order_decides_winner(self):
        c = corpus([("a", "car", UNIT)],
                   [("a", "car", 0.3, UNIT), ("a", "car", 0.8, UNIT)])
        flags, _ = match_class(c.predictions, c.ground_truths, 0.5)
        # flags are in confidence-ranked order: the 0.8 one wins
        assert flags == [True, False]

    def test_images_do_not_mix(self):
        c = corpus([("a", "car", UNIT)], [("b", "car", 0.9, UNIT)])
        flags, _ = match_class(c.predictions, c.ground_truths, 0.5)
        assert flags == [False]

    def test_best_iou_unmatched_gt_wins(self):
        c = corpus([("a", "car", UNIT), ("a", "car", SHIFT_75)],
                   [("a", "car", 0.9, UNIT), ("a", "car", 0.8, UNIT)])
        flags, _ = match_class(c.predictions, c.ground_truths, 0.5)
        # second pred falls back to the remaining (shifted) gt at iou 2/3
        assert flags == [True, True]

    def test_difficult_hit_ignored_and_not_consumed(self):
        c = corpus([("a", "car", UNIT, True)],
                   [("a", "car", 0.9, UNIT), ("a", "car", 0.8, UNIT)])
        flags, total = match_class(c.predictions, c.ground_truths, 0.5)
        assert flags == [None, None]
        assert total == 0

    def test_difficult_excluded_from_denominator(self):
        c = corpus([("a", "car", UNIT), ("a", "car", FAR, True)],
                   [("a", "car", 0.9, UNIT)])
        flags, total = match_class(c.predictions, c.ground_truths, 0.5)
        assert flags == [True] and total == 1


class TestAveragePrecision:
    def test_perfect(self):
        assert average_precision([True], 1) == 1.0

    def test_half_recall(self):
        assert average_precision([True], 2) == pytest.approx(0.5)

    def test_fp_before_tp(self):
        # precision at full recall is 1/2; envelope gives AP = 0.5
        assert average_precision([False, True], 1) == pytest.approx(0.5)

    def test_trailing_fp_does_not_hurt(self):
        assert average_precision([True, False], 1) == pytest.approx(1.0)

    def test_none_flags_dropped(self):
        assert average_precision([None, True, None], 1) == pytest.approx(1.0)

    def test_no_gt_with_fps_is_zero(self):
        assert average_precision([False, False], 0) == 0.0

    def test_no_gt_no_counted_is_undefined(self):
        assert average_precision([], 0) is None
        assert average_precision([None], 0) is None

    def test_gt_but_no_predictions_is_zero(self):
        assert average_precision([], 3) == 0.0

    def test_eleven_point_variant(self):
        # one TP over two GTs: envelope is 1 up to recall .5, 0 after
        assert average_precision([True], 2, "11point") == pytest.approx(6 / 11)
        assert average_precision([True], 2, "all") == pytest.approx(0.5)

    def test_unknown_interpolation(self):
        with pytest.raises(ValueError, match="interpolation"):
            average_precision([True], 1, "101point")

    def test_precision_recall_curve(self):
        precision, recall = precision_recall([True, False, True], 2)
        np.testing.assert_allclose(precision, [1, 0.5, 2 / 3])
        np.testing.assert_allclose(recall, [0.5, 0.5, 1.0])

    @given(st.lists(st.sampled_from([True, False, None]), max_size=40),
           st.integers(0, 45), st.sampled_from(INTERPOLATIONS))
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_seed_loop(self, flags, total_gt, interpolation):
        assert average_precision(flags, total_gt, interpolation) == \
            average_precision_seed(flags, total_gt, interpolation)


class TestMeanAP:
    def test_two_class_table(self):
        c = corpus([("a", "car", UNIT), ("a", "bus", FAR)],
                   [("a", "car", 0.9, UNIT), ("a", "bus", 0.8, UNIT)])
        table, m = mean_ap(c)
        assert table["car"] == 1.0 and table["bus"] == 0.0
        assert m == pytest.approx(0.5)

    def test_undefined_class_excluded(self):
        # bus exists only as a difficult GT: undefined, excluded from mean
        c = corpus([("a", "car", UNIT), ("a", "bus", FAR, True)],
                   [("a", "car", 0.9, UNIT)])
        table, m = mean_ap(c)
        assert table["bus"] is None
        assert m == 1.0

    def test_prediction_only_class_scores_zero(self):
        c = corpus([("a", "car", UNIT)],
                   [("a", "car", 0.9, UNIT), ("a", "truck", 0.9, UNIT)])
        table, m = mean_ap(c)
        assert table["truck"] == 0.0
        assert m == pytest.approx(0.5)

    def test_empty_corpus_raises(self):
        with pytest.raises(ValueError, match="empty"):
            mean_ap(EvalCorpus())

    def test_all_undefined_raises(self):
        c = corpus([("a", "car", UNIT, True)], [])
        with pytest.raises(ValueError, match="defined"):
            mean_ap(c)

    def test_calls_match_class_through_the_module_once_per_class(self, monkeypatch):
        # perfbench times evaluate.match_class by wrapping that module name;
        # a call routed around it would leave its span reading 0
        c = corpus([("a", "car", UNIT), ("b", "bus", FAR), ("a", "van", UNIT)],
                   [("a", "car", 0.9, UNIT), ("b", "bus", 0.8, UNIT),
                    ("b", "car", 0.7, FAR)])
        want = mean_ap(c)
        seen = []

        def spy(preds, gts, iou_threshold):
            # mean_ap passes each class's rows as column blocks
            assert isinstance(preds, Boxes) and isinstance(gts, Boxes)
            seen.append({x.class_name for x in [*preds, *gts]})
            return match_class(preds, gts, iou_threshold)

        monkeypatch.setattr(evaluate, "match_class", spy)
        assert mean_ap(c) == want
        assert seen == [{"bus"}, {"car"}, {"van"}]

    def test_report_and_formatting(self):
        c = corpus([("a", "car", UNIT)], [("a", "car", 0.9, UNIT)])
        rep = evaluation_report(c, 0.5)
        assert rep["map"] == 1.0
        assert rep["num_images"] == 1
        assert rep["num_ground_truths"] == 1 and rep["num_predictions"] == 1
        text = format_report(rep)
        assert "car" in text and "mAP" in text and "1.0000" in text


def random_corpus(rng):
    classes = ["car", "bus", "truck"][: rng.integers(1, 4)]
    gts, preds = [], []
    for img in range(rng.integers(1, 5)):
        for _ in range(rng.integers(0, 5)):
            x, y = rng.integers(0, 8, 2)
            w, h = rng.integers(2, 8, 2)
            gts.append((str(img), classes[rng.integers(len(classes))],
                        (x, y, x + w, y + h), bool(rng.random() < 0.15)))
        for _ in range(rng.integers(0, 7)):
            x, y = rng.integers(0, 8, 2)
            w, h = rng.integers(2, 8, 2)
            preds.append((str(img), classes[rng.integers(len(classes))],
                          float(np.round(rng.random(), 3)),
                          (x, y, x + w, y + h)))
    return corpus(gts, preds)


# integer boxes on a small grid repeat often, so several ground truths tie
# on IoU with one prediction; images 0-3 for predictions but 0-2 for ground
# truth leave some predictions on images without any
grid_box = st.tuples(st.integers(0, 6), st.integers(0, 6),
                     st.integers(0, 4), st.integers(0, 4)).map(
    lambda r: BBox(r[0], r[1], r[0] + r[2], r[1] + r[3]))
gt_lists = st.lists(st.builds(GroundTruth, st.sampled_from("012"),
                              st.just("car"), grid_box, st.booleans()),
                    max_size=15)
pred_lists = st.lists(st.builds(Prediction, st.sampled_from("0123"),
                                st.just("car"),
                                st.sampled_from([0.2, 0.5, 0.5, 0.8, 0.95]),
                                grid_box),
                      max_size=20)


class TestMatchingAgainstOracle:
    @given(pred_lists, gt_lists, st.sampled_from([0.0, 0.1, 0.5, 0.75, 1.0]))
    @settings(max_examples=300, deadline=None)
    def test_same_flags_and_total(self, preds, gts, threshold):
        assert match_class(preds, gts, threshold) == \
            match_class_oracle(preds, gts, threshold)

    def test_empty_inputs(self):
        gts = [GroundTruth("a", "car", BBox(*UNIT)),
               GroundTruth("a", "car", BBox(*UNIT), difficult=True)]
        preds = [Prediction("a", "car", 0.9, BBox(*UNIT))]
        assert match_class([], [], 0.5) == ([], 0)
        assert match_class([], gts, 0.5) == ([], 1)
        assert match_class(preds, [], 0.5) == ([False], 0)

    def test_equal_iou_tie_takes_lower_gt_index(self):
        # both ground truths overlap the prediction by 60/140; the first is
        # difficult, so the tie decides between ignored and a true positive
        gts = [GroundTruth("a", "car", BBox(0, 0, 10, 10), difficult=True),
               GroundTruth("a", "car", BBox(0, 8, 10, 18))]
        preds = [Prediction("a", "car", 0.9, BBox(0, 4, 10, 14))]
        assert match_class(preds, gts, 0.4) == ([None], 1)
        assert match_class(preds, gts[::-1], 0.4) == ([True], 1)


def small_grid_box(code):
    """Box with corner and sides in 0-3 from the low 8 bits of code: many
    such boxes overlap, tie on IoU or have zero area."""
    x, y, w, h = code & 3, code >> 2 & 3, code >> 4 & 3, code >> 6 & 3
    return BBox(x, y, x + w, y + h)


@st.composite
def ten_image_class(draw):
    """(predictions, ground truths) of one class over ten images, in shuffled
    order. One integer per item gives its box (bits 0-7), whether it is a
    ground truth (bit 9), and its difficult flag (bit 8) or confidence (code
    mod 3); an image may hold only predictions or only ground truths."""
    preds, gts = [], []
    for image in "0123456789":
        for code in draw(st.lists(st.integers(0, 1023), max_size=10)):
            if code & 512:
                gts.append(GroundTruth(image, "car", small_grid_box(code), bool(code & 256)))
            else:
                preds.append(Prediction(image, "car", (0.2, 0.5, 0.8)[code % 3],
                                        small_grid_box(code)))
    return draw(st.permutations(preds)), draw(st.permutations(gts))


class TestLockstepBlocks:
    """Blocks of every size give the flags of the scalar greedy walk."""

    @pytest.mark.parametrize("pairs", [1, 2, 3, 7])
    @given(ten_image_class(), st.sampled_from([0.0, 0.3, 0.5, 1.0]))
    @settings(max_examples=100, deadline=None)
    def test_same_flags_as_oracle(self, pairs, class_, threshold):
        preds, gts = class_
        with mock.patch.object(evaluate, "MATCH_BLOCK_PAIRS", pairs):
            assert match_class(preds, gts, threshold) == \
                match_class_oracle(preds, gts, threshold)

    def test_skewed_corpus_pads_no_image_to_the_largest(self):
        # 200 one-box images and one image with 1,500 predictions and 1,500
        # ground truths: the blocks must not pad small images to the large one
        rng = np.random.default_rng(8)

        def boxes(n):
            corner = rng.uniform(0, 400, (n, 2))
            return np.hstack([corner, corner + rng.uniform(4, 80, (n, 2))])

        big_preds, big_gts = boxes(1500), boxes(1500)
        preds = [Prediction(f"small{i}", "car", 0.5, BBox(*b))
                 for i, b in enumerate(boxes(200).tolist())]
        gts = [GroundTruth(p.image_id, "car", p.bbox) for p in preds]
        preds += [Prediction("big", "car", float(c), BBox(*b))
                  for c, b in zip(rng.random(1500), big_preds.tolist())]
        gts += [GroundTruth("big", "car", BBox(*b)) for b in big_gts.tolist()]
        tracemalloc.start()
        try:
            iou_matrix(big_preds, big_gts)
            own = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            flags, _ = match_class(preds, gts, 0.5)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert flags.count(True) >= 200
        assert peak < 1.1 * own


class TestAgainstBruteForce:
    @pytest.mark.parametrize("interpolation", ["all", "11point"])
    def test_random_corpora_match(self, interpolation):
        rng = np.random.default_rng(31)
        compared = 0
        for _ in range(100):
            c = random_corpus(rng)
            for threshold in (0.3, 0.5, 0.75):
                for name in c.class_names:
                    preds = [(p.image_id, p.confidence, tuple(p.bbox))
                             for p in c.predictions if p.class_name == name]
                    gts = [(g.image_id, tuple(g.bbox), g.difficult)
                           for g in c.ground_truths if g.class_name == name]
                    want = ap_bruteforce(preds, gts, threshold, interpolation)
                    cp = [p for p in c.predictions if p.class_name == name]
                    cg = [g for g in c.ground_truths if g.class_name == name]
                    flags, total = match_class(cp, cg, threshold)
                    got = average_precision(flags, total, interpolation)
                    if want is None:
                        assert got is None
                    else:
                        assert got == pytest.approx(want, abs=1e-12)
                        compared += 1
        assert compared > 300

    def test_ap_monotone_in_iou_threshold(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            c = random_corpus(rng)
            thresholds = (0.2, 0.4, 0.6, 0.8)
            for name in c.class_names:
                cp = [p for p in c.predictions if p.class_name == name]
                cg = [g for g in c.ground_truths if g.class_name == name]
                values = []
                for t in thresholds:
                    flags, total = match_class(cp, cg, t)
                    ap = average_precision(flags, total)
                    values.append(-1.0 if ap is None else ap)
                kept = [v for v in values if v >= 0]
                assert all(a >= b - 1e-12 for a, b in zip(kept, kept[1:]))


class TestLoaders:
    def test_voc_ground_truth(self, tmp_path):
        write_voc(tmp_path, "img1", 100, 100,
                  [("car", 0, 0, 0, 10, 10), ("bus", 1, 5, 5, 50, 50)])
        gts = list(load_ground_truth(tmp_path))
        assert len(gts) == 2
        assert gts[0].image_id == "img1"
        by_name = {g.class_name: g for g in gts}
        assert by_name["car"].difficult is False
        assert by_name["bus"].difficult is True
        assert by_name["bus"].bbox == BBox(5, 5, 50, 50)

    def test_voc_blanks_around_numbers(self, tmp_path):
        # blanks, ASCII or not, around a number stay accepted, as float() takes them
        write_voc(tmp_path, "img1", " 100\n", "\t50 ",
                  [("car", " 1 ", " 5", "5\n", "\u00a050\u3000", "\t25")])
        gts = list(load_ground_truth(tmp_path))
        assert [(g.bbox, g.difficult) for g in gts] == [(BBox(5, 5, 50, 25), True)]
        assert load_dims(tmp_path).tolist() == [[0.45, 0.4]]

    def test_text_ground_truth(self, tmp_path):
        f = tmp_path / "gt.txt"
        f.write_text("# comment\n"
                     "img1 car 0 0 10 10\n"
                     "img1 bus 5 5 50 50 1\n"
                     "\n"
                     "img2 car 1 2 3 4 difficult\n")
        gts = list(load_ground_truth(f))
        assert [g.difficult for g in gts] == [False, True, True]
        assert gts[2].image_id == "img2"

    def test_text_ground_truth_bad_line(self, tmp_path):
        f = tmp_path / "gt.txt"
        f.write_text("img1 car 0 0 10\n")
        with pytest.raises(ValueError, match=":1:"):
            load_ground_truth(f)

    def test_text_predictions(self, tmp_path):
        f = tmp_path / "preds.txt"
        f.write_text("img1 car 0.9 0 0 10 10\nimg1 bus 0.5 1 1 2 2\n")
        preds = list(load_predictions(f))
        assert len(preds) == 2
        assert preds[0].confidence == 0.9

    def test_text_predictions_bad_line(self, tmp_path):
        f = tmp_path / "preds.txt"
        f.write_text("img1 car 0.9 0 0 10\n")
        with pytest.raises(ValueError, match="confidence"):
            load_predictions(f)

    def test_detect_json_file_and_dir(self, tmp_path):
        doc = {"image": "/data/img7.ppm", "detections": [
            {"class_id": 0, "class_name": "car", "confidence": 0.75,
             "objectness": 0.9, "class_prob": 0.83,
             "bbox": {"x1": 1.0, "y1": 2.0, "x2": 3.0, "y2": 4.0}}]}
        f = tmp_path / "img7.json"
        f.write_text(json.dumps(doc))
        (tmp_path / "index.json").write_text(json.dumps({"results": []}))
        single = list(load_predictions(f))
        assert single[0].image_id == "img7"
        assert single[0].bbox == BBox(1, 2, 3, 4)
        from_dir = list(load_predictions(tmp_path))
        assert from_dir == single  # index.json skipped

    def test_detect_json_image_id_collision(self, tmp_path):
        for name, image in (("a.json", "/x/scene.ppm"), ("b.json", "/y/scene.png")):
            (tmp_path / name).write_text(json.dumps({"image": image, "detections": []}))
        with pytest.raises(ValueError, match="a.json.*b.json.*'scene'"):
            load_predictions(tmp_path)


def random_records(rng):
    """(ground truths, predictions) in load order: image after image by id,
    as a directory load reads them. Images im00-im03 hold both, im04-im05
    ground truths only (im05 difficult ones only), im06-im07 predictions
    only; "van" is predicted and never annotated; confidences come from
    three values, so ties are common."""
    gts, preds = [], []
    for n in range(8):
        image = f"im{n:02d}"

        def box():
            x, y = rng.integers(0, 60, 2)
            return BBox(float(x), float(y), float(x + rng.integers(1, 40)),
                        float(y + rng.integers(1, 40)))
        if n < 6:
            gts += [GroundTruth(image, ["car", "bus"][rng.integers(2)], box(),
                                n == 5 or bool(rng.random() < 0.15))
                    for _ in range(rng.integers(1, 6))]
        if n < 4 or n >= 6:
            preds += [Prediction(image, ["car", "bus", "van"][rng.integers(3)],
                                 (0.25, 0.5, 0.75)[rng.integers(3)], box())
                      for _ in range(rng.integers(1, 8))]
    return gts, preds


def write_voc_and_detect_json(directory, gts, preds):
    """gts as VOC XML files and preds as `detect` JSONs, one of each per
    image; every image without predictions gets an empty detections list."""
    (directory / "voc").mkdir()
    (directory / "det").mkdir()
    for image in sorted({g.image_id for g in gts}):
        write_voc(directory / "voc", image, 100, 100,
                  [(g.class_name, int(g.difficult), *g.bbox) for g in gts if g.image_id == image])
    for image in sorted({g.image_id for g in gts} | {p.image_id for p in preds}):
        dets = [{"class_name": p.class_name, "confidence": p.confidence,
                 "bbox": dict(zip(("x1", "y1", "x2", "y2"), p.bbox))}
                for p in preds if p.image_id == image]
        (directory / "det" / f"{image}.json").write_text(
            json.dumps({"image": f"/frames/{image}.ppm", "detections": dets}))
    return directory / "voc", directory / "det"


def write_flat_text(directory, gts, preds):
    (directory / "gt.txt").write_text("".join(
        f"{g.image_id} {g.class_name} {' '.join(map(repr, g.bbox))}{' 1' * g.difficult}\n"
        for g in gts))
    (directory / "preds.txt").write_text("".join(
        f"{p.image_id} {p.class_name} {p.confidence!r} {' '.join(map(repr, p.bbox))}\n"
        for p in preds))
    return directory / "gt.txt", directory / "preds.txt"


class TestColumnLoaders:
    """Loaders fill columns; flags and APs from them equal the scalar oracle
    run on the records written to disk."""

    @pytest.mark.parametrize("write", [write_voc_and_detect_json, write_flat_text])
    @pytest.mark.parametrize("seed", range(12))
    def test_flags_and_aps_match_oracle(self, tmp_path, write, seed):
        gts, preds = random_records(np.random.default_rng(seed))
        gt_path, pred_path = write(tmp_path, gts, preds)
        corpus = EvalCorpus(load_ground_truth(gt_path), load_predictions(pred_path))
        assert list(corpus.ground_truths) == gts and list(corpus.predictions) == preds
        assert corpus.class_names == ["bus", "car", "van"]
        for threshold in (0.3, 0.5, 0.7):
            table, _ = mean_ap(corpus, threshold)
            for name in corpus.class_names:
                want = match_class_oracle([p for p in preds if p.class_name == name],
                                          [g for g in gts if g.class_name == name], threshold)
                assert match_class(corpus.predictions.of_class(name),
                                   corpus.ground_truths.of_class(name), threshold) == want
                assert table[name] == average_precision_seed(*want)

    def test_report_counts_come_from_the_columns(self, tmp_path):
        gts, preds = random_records(np.random.default_rng(0))
        gt_path, pred_path = write_voc_and_detect_json(tmp_path, gts, preds)
        corpus = EvalCorpus(load_ground_truth(gt_path), load_predictions(pred_path))
        report = evaluation_report(corpus)
        # an image whose detections list is empty counts for neither side
        assert corpus.image_ids == ({g.image_id for g in gts}, {p.image_id for p in preds})
        assert report["num_images"] == 8
        assert (report["num_ground_truths"], report["num_predictions"]) == (len(gts), len(preds))

    def test_eval_peak_memory(self, tmp_path, capsys):
        # columns hold ~40 bytes a box where records held several objects a
        # box: on this corpus (3,000 boxes of each kind) one eval peaked at
        # 2.17 MB with records and at 1.00 MB with columns; the bound is 60%
        # of the first
        rng = np.random.default_rng(20)
        gts, preds = [], []
        for n in range(300):
            image = f"im{n:03d}"
            for _ in range(10):
                x, y = rng.uniform(0, 400, 2)
                w, h = rng.uniform(8, 120, 2)
                gts.append(GroundTruth(image, ("car", "bus")[rng.integers(2)],
                                       BBox(x, y, x + w, y + h), bool(rng.random() < 0.1)))
                preds.append(Prediction(image, gts[-1].class_name, float(rng.random()),
                                        BBox(x + 2, y - 1, x + w + 3, y + h)))
        gt_path, pred_path = write_voc_and_detect_json(tmp_path, gts, preds)
        tracemalloc.start()
        try:
            assert cli.main(["eval", "--gt", str(gt_path), "--preds", str(pred_path)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert peak < 1.3e6
