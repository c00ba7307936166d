import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from littleyolo import anchors
from littleyolo.anchors import (AnchorSet, ClusterResult, anchors_line,
                                cluster_anchors, dims_from_coco_json,
                                dims_from_voc_dir, kmeanspp_seed, lloyd_cluster,
                                load_dims, mean_iou_report, wh_iou)
from oracles import (distance_matrix_seed, kmeanspp_oracle, lloyd_cluster_oracle,
                     voc_dims_seed, wh_iou_seed)


def six_cluster_corpus(rng, per_cluster=300, jitter=0.05):
    """Synthetic normalized dims around six well-separated (w, h) centers.

    Jitter is multiplicative so every blob has the same relative spread;
    under the IoU distance that keeps cluster boundaries symmetric around
    the generating means.
    """
    centers = np.array([[0.04, 0.04], [0.10, 0.10], [0.23, 0.18],
                        [0.28, 0.40], [0.62, 0.40], [0.80, 0.76]])
    dims = np.concatenate(
        [c * (1 + rng.normal(0, jitter, (per_cluster, 2))) for c in centers])
    return centers, np.clip(dims, 0.004, 1.0)


class TestWhIou:
    def test_identical_dims(self):
        assert wh_iou(np.array([[0.2, 0.4]]), np.array([[0.2, 0.4]]))[0, 0] == 1.0

    def test_quarter(self):
        # (1, 1) vs (2, 2): inter 1, union 4
        m = wh_iou(np.array([[1.0, 1.0]]), np.array([[2.0, 2.0]]))
        assert m[0, 0] == pytest.approx(0.25)

    def test_shape(self):
        m = wh_iou(np.ones((5, 2)), np.ones((3, 2)))
        assert m.shape == (5, 3)

    def test_zero_union_is_zero_iou(self):
        # areas of 1e-200-sided boxes underflow to 0, so the union is 0
        m = wh_iou(np.array([[1e-200, 1e-200], [0.5, 0.5]]), np.array([[1e-200, 1e-200]]))
        assert m.tolist() == [[0.0], [0.0]]

    def test_underflowing_box_keeps_costs_finite(self):
        dims = np.array([[1e-200, 1e-200], [0.5, 0.5], [0.4, 0.4]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            costs = lloyd_cluster(dims, 2, seed=0).costs
        assert np.isfinite(costs).all()


class TestSeeding:
    def test_deterministic(self):
        rng = np.random.default_rng(0)
        _, dims = six_cluster_corpus(rng, 50)
        a = kmeanspp_seed(dims, 6, seed=3)
        b = kmeanspp_seed(dims, 6, seed=3)
        np.testing.assert_array_equal(a, b)

    def test_seeds_are_data_points(self):
        rng = np.random.default_rng(1)
        _, dims = six_cluster_corpus(rng, 40)
        seeds = kmeanspp_seed(dims, 4, seed=9)
        for s in seeds:
            assert (dims == s).all(axis=1).any()

    def test_spread_preference(self):
        # two tight far-apart blobs: the two seeds should split across them
        # in nearly every seeding because D^2 weighting crushes the
        # within-blob mass
        blob_a = np.full((200, 2), 0.05) + np.linspace(0, 1e-4, 200)[:, None]
        blob_b = np.full((200, 2), 0.9) + np.linspace(0, 1e-4, 200)[:, None]
        dims = np.concatenate([blob_a, blob_b])
        hits = 0
        for seed in range(100):
            seeds = kmeanspp_seed(dims, 2, seed=seed)
            sides = {s[0] < 0.5 for s in seeds}
            hits += len(sides) == 2
        assert hits >= 99

    def test_k_exceeding_distinct_points(self):
        dims = np.array([[0.1, 0.1]] * 10 + [[0.2, 0.2]] * 10)
        with pytest.raises(ValueError, match="distinct"):
            kmeanspp_seed(dims, 3, seed=0)

    def test_duplicate_heavy_corpus_still_seeds(self):
        dims = np.array([[0.1, 0.1]] * 99 + [[0.5, 0.5]])
        seeds = kmeanspp_seed(dims, 2, seed=4)
        assert len(np.unique(seeds, axis=0)) == 2

    def test_bad_k(self):
        with pytest.raises(ValueError, match="k"):
            kmeanspp_seed(np.ones((4, 2)), 0, seed=0)


    def test_k_beyond_distinct_raises_before_any_distance(self, monkeypatch):
        calls = []
        monkeypatch.setattr(anchors, "_distance_matrix", lambda *a: calls.append(a))
        dims = np.random.default_rng(6).uniform(0.01, 1.0, (100, 2))
        with pytest.raises(ValueError, match="distinct"):
            kmeanspp_seed(dims, 10**6, seed=0)
        assert calls == []

    def test_all_coincide_fallback_matches_oracle(self):
        # squared euclidean distances of 1e-200 underflow to 0, so the D^2
        # weights sum to 0 and the later centroids come from the fallback,
        # which draws among distinct rows, not among duplicates
        dims = np.array([[3e-200, 3e-200]] * 3 + [[1e-200, 1e-200]] * 3
                        + [[2e-200, 2e-200]])
        for seed in range(12):
            seeds = kmeanspp_seed(dims, 3, seed, "euclidean")
            np.testing.assert_array_equal(seeds, kmeanspp_oracle(dims, 3, seed, "euclidean"))
            assert len(np.unique(seeds, axis=0)) == 3


class TestLloyd:
    def test_single_cluster_mean(self):
        # k = 1 with euclidean distance converges to the arithmetic mean
        dims = np.array([[0.1, 0.2], [0.3, 0.2], [0.2, 0.5]])
        res = lloyd_cluster(dims, 1, distance="euclidean", seed=0)
        np.testing.assert_allclose(res.centroids[0], dims.mean(axis=0))

    def test_costs_non_increasing(self):
        rng = np.random.default_rng(2)
        _, dims = six_cluster_corpus(rng)
        for distance in ("one_minus_iou", "euclidean"):
            res = lloyd_cluster(dims, 6, distance=distance, seed=1)
            costs = np.array(res.costs)
            assert (np.diff(costs) <= 1e-12).all()

    def test_bit_exact_across_runs(self):
        rng = np.random.default_rng(3)
        _, dims = six_cluster_corpus(rng)
        a = lloyd_cluster(dims, 6, seed=5)
        b = lloyd_cluster(dims, 6, seed=5)
        np.testing.assert_array_equal(a.centroids, b.centroids)
        assert a.costs == b.costs

    def test_recovers_synthetic_centers(self):
        rng = np.random.default_rng(4)
        centers, dims = six_cluster_corpus(rng)
        res = lloyd_cluster(dims, 6, seed=0)
        got = res.centroids[np.argsort(res.centroids.prod(axis=1))]
        want = centers[np.argsort(centers.prod(axis=1))]
        rel = np.abs(got - want) / want
        assert rel.max() <= 0.02

    def test_empty_input(self):
        with pytest.raises(ValueError, match="no box"):
            lloyd_cluster(np.zeros((0, 2)), 2, seed=0)

    def test_iteration_cap(self, monkeypatch):
        # the loop stops after MAX_ITERS updates, with the costs so far
        dims = np.random.default_rng(2).uniform(0.01, 1.0, (1000, 2))
        free = lloyd_cluster(dims, 6, seed=2)
        assert free.iterations > 2
        monkeypatch.setattr(anchors, "MAX_ITERS", 2)
        capped = lloyd_cluster(dims, 6, seed=2)
        assert capped.iterations == 2 and capped.costs == free.costs[:3]

    def test_result_fields(self):
        rng = np.random.default_rng(5)
        _, dims = six_cluster_corpus(rng, 30)
        res = lloyd_cluster(dims, 3, seed=0)
        assert isinstance(res, ClusterResult)
        assert res.centroids.shape == (3, 2)
        assert res.assignments.shape == (len(dims),)
        assert set(res.assignments) <= {0, 1, 2}
        assert res.iterations == len(res.costs) - 1


def assert_same_cluster(got, want):
    np.testing.assert_array_equal(got.centroids, want.centroids)
    np.testing.assert_array_equal(got.assignments, want.assignments)
    np.testing.assert_array_equal(np.array(got.costs), np.array(want.costs))
    assert got.iterations == want.iterations


def outcome(fn, *args):
    """fn(*args), or the message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


# a few values per axis give duplicate boxes and argmin ties; the tiny grid
# gives squared distances that underflow to 0 (the all-coincide fallback)
# and unions that underflow to 0 (IoU 0)
GRIDS = ((0.1, 0.2, 0.25, 0.5, 1.0), (1e-200, 2e-200, 3e-200, 0.5))


class TestAgainstOracles:
    @given(st.sampled_from(GRIDS), st.data())
    @settings(max_examples=200, deadline=None)
    def test_kernels_match_seed_kernel(self, grid, data):
        # duplicates, 1e-200 sides whose areas underflow and zero unions
        values = st.sampled_from(grid)
        boxes = st.lists(st.tuples(values, values), min_size=1, max_size=30)
        dims, cents = np.array(data.draw(boxes)), np.array(data.draw(boxes))
        got, want = wh_iou(dims, cents), wh_iou_seed(dims, cents)
        assert got.shape == want.shape
        np.testing.assert_array_equal(got, want)
        assert mean_iou_report(dims, cents) == float(want.max(axis=1).mean())
        for distance in anchors.DISTANCES:
            np.testing.assert_array_equal(anchors._distance_matrix(dims, cents, distance).T,
                                          distance_matrix_seed(dims, cents, distance))

    @given(st.sampled_from(GRIDS), st.sampled_from(anchors.DISTANCES), st.data())
    @settings(max_examples=200, deadline=None)
    def test_seed_lloyd_and_anchors_match(self, grid, distance, data):
        values = st.sampled_from(grid)
        dims = np.array(data.draw(st.lists(st.tuples(values, values), min_size=1,
                                           max_size=30)))
        k = data.draw(st.integers(1, len(np.unique(dims, axis=0)) + 1))
        seed = data.draw(st.integers(0, 2**32))
        seeds = outcome(kmeanspp_seed, dims, k, seed, distance)
        want = outcome(kmeanspp_oracle, dims, k, seed, distance)
        if isinstance(want, str):
            assert seeds == want
            return
        np.testing.assert_array_equal(seeds, want)
        assert_same_cluster(lloyd_cluster(dims, k, distance, seed),
                            lloyd_cluster_oracle(dims, k, distance, seed))
        got = cluster_anchors(dims, k, distance, seed, restarts=3)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(anchors, "lloyd_cluster", lloyd_cluster_oracle)
            want = cluster_anchors(dims, k, distance, seed, restarts=3)
        np.testing.assert_array_equal(got.anchors, want.anchors)
        assert got.masks == want.masks

    @pytest.mark.parametrize("distance", anchors.DISTANCES)
    @pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
    def test_six_cluster_corpus_matches(self, distance, seed):
        _, dims = six_cluster_corpus(np.random.default_rng(seed % 97), 60)
        for k in (1, 2, 6, 9):
            np.testing.assert_array_equal(kmeanspp_seed(dims, k, seed, distance),
                                          kmeanspp_oracle(dims, k, seed, distance))
        assert_same_cluster(lloyd_cluster(dims, 6, distance, seed),
                            lloyd_cluster_oracle(dims, 6, distance, seed))

    @pytest.mark.parametrize("seed", [2, 12, 27])
    def test_non_finite_dims_match_oracle(self, seed):
        # a NaN or inf box gives NaN distances, and the first NaN in a column
        # takes the assignment, as in np.argmin
        rng = np.random.default_rng(seed)
        dims = rng.uniform(0.05, 0.9, (30, 2))
        dims[rng.integers(0, 30, 2)] = np.nan if seed % 2 == 0 else np.inf
        with np.errstate(all="ignore"):
            for distance in anchors.DISTANCES:
                assert_same_cluster(lloyd_cluster(dims, 4, distance, seed),
                                    lloyd_cluster_oracle(dims, 4, distance, seed))

    def test_empty_cluster_repair_matches_oracle(self, monkeypatch):
        # the first mean update leaves a cluster empty on this corpus, and the
        # box farthest from its nearest centroid is not the one farthest
        # from all centroids
        dims = np.array([[0.25, 0.5], [0.1, 0.1], [0.25, 0.1], [0.5, 0.1],
                         [0.25, 0.2], [0.2, 1.0], [1.0, 0.1]])
        want = lloyd_cluster_oracle(dims, 3, "one_minus_iou", 10)
        real, widths = anchors._distance_matrix, []

        def spy(d, centroids, distance):
            widths.append(len(centroids))
            return real(d, centroids, distance)

        monkeypatch.setattr(anchors, "_distance_matrix", spy)
        got = lloyd_cluster(dims, 3, "one_minus_iou", 10)
        # one full matrix after seeding and one per loop pass; more means repairs
        assert widths.count(3) > 2 + got.iterations
        assert_same_cluster(got, want)


class TestClusterAnchors:
    def test_k_beyond_distinct_raises_before_any_distance(self, monkeypatch):
        calls = []
        monkeypatch.setattr(anchors, "_distance_matrix", lambda *a: calls.append(a))
        dims = np.array([[0.1, 0.1]] * 10 + [[0.2, 0.2]] * 10)
        want = outcome(kmeanspp_seed, dims, 3, 0)
        with pytest.raises(ValueError, match="distinct") as exc:
            cluster_anchors(dims, k=3, seed=0)
        assert str(exc.value) == want and calls == []

    @pytest.mark.parametrize("restarts", [1, 4, 10])
    def test_restarts_sort_only_the_first_k_dims(self, monkeypatch, restarts):
        _, dims = six_cluster_corpus(np.random.default_rng(8), 20)
        assert len(np.unique(dims[:6], axis=0)) == 6
        real, sorted_rows = np.lexsort, []
        monkeypatch.setattr(np, "lexsort",
                            lambda keys: sorted_rows.append(len(keys[0])) or real(keys))
        cluster_anchors(dims, k=6, seed=0, restarts=restarts)
        assert sorted_rows == [6] * restarts
        # when the first k rows repeat, all rows are counted
        sorted_rows.clear()
        lloyd_cluster(np.concatenate([dims[:1], dims]), 6, seed=0)
        assert sorted_rows == [6, len(dims) + 1]
        with pytest.raises(ValueError, match="distinct"):
            lloyd_cluster(dims[:1].repeat(5, axis=0), 2, seed=0)

    def test_area_ascending_and_masks(self):
        rng = np.random.default_rng(6)
        _, dims = six_cluster_corpus(rng)
        aset = cluster_anchors(dims, k=6, seed=0, net_w=416, net_h=416)
        areas = [w * h for w, h in aset.anchors]
        assert areas == sorted(areas)
        assert aset.masks == ((3, 4, 5), (0, 1, 2))

    def test_pixel_scaling(self):
        dims = np.array([[0.1, 0.1]] * 8)
        aset = cluster_anchors(dims, k=1, seed=0, net_w=416, net_h=416)
        assert aset.anchors[0][0] == pytest.approx(41.6)
        assert aset.anchors[0][1] == pytest.approx(41.6)
        assert aset.masks == ((0,),)

    def test_rectangular_net(self):
        dims = np.array([[0.5, 0.5]] * 4)
        aset = cluster_anchors(dims, k=1, seed=0, net_w=640, net_h=320)
        assert aset.anchors[0] == (320.0, 160.0)

    def test_non_six_k_single_mask(self):
        rng = np.random.default_rng(7)
        _, dims = six_cluster_corpus(rng, 40)
        aset = cluster_anchors(dims, k=4, seed=0)
        assert aset.masks == ((0, 1, 2, 3),)


class TestScoring:
    def test_perfect_cover(self):
        dims = np.array([[0.2, 0.2], [0.4, 0.1]])
        assert mean_iou_report(dims, [(0.2, 0.2), (0.4, 0.1)]) == 1.0

    def test_quarter_iou(self):
        dims = np.array([[0.1, 0.1]])
        assert mean_iou_report(dims, [(0.2, 0.2)]) == pytest.approx(0.25)

    def test_best_anchor_wins(self):
        dims = np.array([[0.1, 0.1]])
        got = mean_iou_report(dims, [(0.8, 0.8), (0.1, 0.1)])
        assert got == 1.0

    def test_empty(self):
        with pytest.raises(ValueError):
            mean_iou_report(np.zeros((0, 2)), [(0.1, 0.1)])

    def test_anchors_line_formatting(self):
        aset = AnchorSet(anchors=((16.01, 15.0), (41.6, 40.44)), masks=((0, 1),))
        assert anchors_line(aset) == "16,15, 41.60,40.44"


VOC_XML = """<annotation>
  <filename>{name}</filename>
  <size><width>{w}</width><height>{h}</height><depth>3</depth></size>
  {objects}
</annotation>
"""
VOC_OBJ = """<object>
    <name>{cls}</name>
    <difficult>{diff}</difficult>
    <bndbox><xmin>{x1}</xmin><ymin>{y1}</ymin><xmax>{x2}</xmax><ymax>{y2}</ymax></bndbox>
  </object>"""


def write_voc(tmp_path, name, w, h, objs):
    body = "\n  ".join(VOC_OBJ.format(cls=c, diff=d, x1=x1, y1=y1, x2=x2, y2=y2)
                       for c, d, x1, y1, x2, y2 in objs)
    (tmp_path / f"{name}.xml").write_text(
        VOC_XML.format(name=name, w=w, h=h, objects=body))


def write_random_voc(directory, rng, files=12):
    """VOC files of random float boxes. Some files lack <size> or have a zero
    side, some boxes have a side that is not positive, and some objects lack
    a <name> (or have an empty one) or a <bndbox>."""
    names = ["<name>car</name>", "<name> bus </name>", "<name></name>", ""]
    sizes = ["<size><width>640</width><height>480</height></size>",
             "<size><width>333.5</width><height>250</height></size>",
             "<size><width>0</width><height>480</height></size>", ""]
    for n in range(files):
        objects = []
        for _ in range(rng.integers(0, 7)):
            x1, y1 = rng.uniform(-10, 400, 2)
            x2, y2 = x1 + rng.uniform(-20, 700), y1 + rng.uniform(-20, 500)
            box = "".join(f"<{k}>{float(v)!r}</{k}>"
                          for k, v in zip(("xmin", "ymin", "xmax", "ymax"), (x1, y1, x2, y2)))
            objects.append(f"<object>{names[rng.integers(4)]}"
                           + (f"<bndbox>{box}</bndbox>" if rng.random() < 0.9 else "")
                           + "</object>")
        (directory / f"f{n:02d}.xml").write_text(
            f"<annotation>{sizes[rng.integers(4)]}{''.join(objects)}</annotation>")


class TestIngestion:
    @pytest.mark.parametrize("seed", range(6))
    def test_voc_dims_match_record_reader(self, tmp_path, seed):
        # the column reader normalises with array ops; the record reader one
        # box at a time, in the same float64 arithmetic
        write_random_voc(tmp_path, np.random.default_rng(seed))
        for names in (None, {"car"}, {"bus", "object"}, {"van"}):
            dims = load_dims(tmp_path, names)
            assert dims.dtype == np.float64 and dims.shape[1:] == (2,)
            assert np.array_equal(dims, voc_dims_seed(tmp_path, names))

    def test_voc_dir(self, tmp_path):
        write_voc(tmp_path, "a", 100, 200, [("car", 0, 10, 20, 30, 60),
                                            ("bus", 0, 0, 0, 50, 100)])
        write_voc(tmp_path, "b", 50, 50, [("car", 0, 0, 0, 25, 25)])
        dims = dims_from_voc_dir(tmp_path)
        assert dims.shape == (3, 2)
        rows = {tuple(np.round(r, 6)) for r in dims}
        assert (0.2, 0.2) in rows      # 20x40 in 100x200
        assert (0.5, 0.5) in rows      # both remaining boxes

    def test_voc_class_filter(self, tmp_path):
        write_voc(tmp_path, "a", 100, 100, [("car", 0, 0, 0, 10, 10),
                                            ("person", 0, 0, 0, 90, 90)])
        dims = dims_from_voc_dir(tmp_path, class_names={"car"})
        assert dims.shape == (1, 2)
        np.testing.assert_allclose(dims[0], [0.1, 0.1])

    def test_coco_json(self, tmp_path):
        doc = {
            "images": [{"id": 1, "width": 200, "height": 100},
                       {"id": 2, "width": 50, "height": 50}],
            "annotations": [
                {"image_id": 1, "category_id": 7, "bbox": [0, 0, 100, 50]},
                {"image_id": 2, "category_id": 8, "bbox": [10, 10, 25, 10]},
            ],
            "categories": [{"id": 7, "name": "car"}, {"id": 8, "name": "bus"}],
        }
        path = tmp_path / "ann.json"
        path.write_text(json.dumps(doc))
        dims = dims_from_coco_json(path)
        assert dims.shape == (2, 2)
        rows = {tuple(np.round(r, 6)) for r in dims}
        assert (0.5, 0.5) in rows and (0.5, 0.2) in rows

    def test_coco_class_filter(self, tmp_path):
        doc = {
            "images": [{"id": 1, "width": 100, "height": 100}],
            "annotations": [
                {"image_id": 1, "category_id": 1, "bbox": [0, 0, 10, 10]},
                {"image_id": 1, "category_id": 2, "bbox": [0, 0, 80, 80]},
            ],
            "categories": [{"id": 1, "name": "car"}, {"id": 2, "name": "person"}],
        }
        path = tmp_path / "ann.json"
        path.write_text(json.dumps(doc))
        dims = dims_from_coco_json(path, class_names={"car"})
        assert dims.shape == (1, 2)

    def test_load_dims_dispatch(self, tmp_path):
        write_voc(tmp_path, "a", 100, 100, [("car", 0, 0, 0, 10, 10)])
        assert load_dims(tmp_path).shape == (1, 2)
        missing = tmp_path / "nope.txt"
        missing.write_text("")
        with pytest.raises(ValueError):
            load_dims(missing)

    def test_degenerate_boxes_skipped(self, tmp_path):
        write_voc(tmp_path, "a", 100, 100, [("car", 0, 10, 10, 10, 50),
                                            ("car", 0, 0, 0, 10, 10)])
        dims = dims_from_voc_dir(tmp_path)
        assert dims.shape == (1, 2)  # zero-width box dropped


    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_voc_non_finite_size(self, tmp_path, value):
        write_voc(tmp_path, "a", value, 100, [("car", 0, 0, 0, 10, 10)])
        with pytest.raises(ValueError, match=r"a\.xml: <size>: .* is not finite"):
            dims_from_voc_dir(tmp_path)

    def test_voc_bad_box_without_size(self, tmp_path):
        (tmp_path / "a.xml").write_text(
            "<annotation><object><name>car</name><bndbox><xmin>0</xmin><ymin>0</ymin>"
            "<xmax>nan</xmax><ymax>10</ymax></bndbox></object></annotation>")
        with pytest.raises(ValueError, match=r"a\.xml: object 0: <bndbox> .* is not finite"):
            dims_from_voc_dir(tmp_path)

    def test_voc_bad_box_in_excluded_class(self, tmp_path):
        write_voc(tmp_path, "a", 100, 100, [("car", 0, 0, 0, 10, 10),
                                            ("person", 0, 0, 0, "inf", 90)])
        with pytest.raises(ValueError, match=r"a\.xml: object 1: <bndbox> .* is not finite"):
            dims_from_voc_dir(tmp_path, class_names={"car"})

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_coco_non_finite_values(self, tmp_path, value):
        base = {"images": [{"id": 1, "width": 100, "height": 100}],
                "annotations": [{"image_id": 1, "category_id": 1, "bbox": [0, 0, 10, 10]},
                                {"image_id": 1, "category_id": 1, "bbox": [0, 0, value, 10]}]}
        path = tmp_path / "ann.json"
        path.write_text(json.dumps(base))
        with pytest.raises(ValueError, match=r"ann\.json: annotation 1: bbox size"):
            dims_from_coco_json(path)
        base["images"][0]["height"] = value
        path.write_text(json.dumps(base))
        with pytest.raises(ValueError, match=r"ann\.json: image 1: size"):
            dims_from_coco_json(path)


    @pytest.mark.parametrize("bbox, message", [
        (["a", None, 10, 10], r"\('a', None\) holds a value that is not a JSON number"),
        ([0, float("nan"), 10, 10], r"\(0.0, nan\) is not finite"),
        ([float("-inf"), 0, 10, 10], r"\(-inf, 0.0\) is not finite"),
        ([0, True, 10, 10], r"\(0, True\) holds a value that is not a JSON number"),
    ])
    def test_coco_bad_bbox_corner(self, tmp_path, bbox, message):
        doc = {"images": [{"id": 1, "width": 100, "height": 100}],
               "annotations": [{"image_id": 1, "category_id": 1, "bbox": [0, 0, 10, 10]},
                               {"image_id": 1, "category_id": 1, "bbox": bbox}]}
        path = tmp_path / "ann.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError,
                           match=r"ann\.json: annotation 1: bbox corner \(x, y\) = " + message):
            dims_from_coco_json(path)

class TestEndToEndRecovery:
    def test_416_pixel_recovery_within_two_percent(self):
        rng = np.random.default_rng(11)
        centers, dims = six_cluster_corpus(rng, per_cluster=350)
        aset = cluster_anchors(dims, k=6, seed=0, net_w=416, net_h=416)
        want = centers[np.argsort(centers.prod(axis=1))] * 416
        got = np.array(aset.anchors)
        assert (np.abs(got - want) / want).max() <= 0.02
        score = mean_iou_report(dims * 416, aset.anchors)
        assert score > 0.85
