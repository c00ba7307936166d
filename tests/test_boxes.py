import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from littleyolo.boxes import (BBox, giou, giou_loss, giou_loss_grad, iou,
                              iou_matrix, mse)
from oracles import fd_giou_loss_grad, iou_scalar

A = BBox(0, 0, 2, 2)
B = BBox(1, 1, 3, 3)
DISJOINT_A = BBox(0, 0, 1, 1)
DISJOINT_B = BBox(2, 0, 3, 1)

coords = st.floats(-50, 50, allow_nan=False, allow_infinity=False)


@st.composite
def boxes(draw, min_side=0.0):
    x1 = draw(coords)
    y1 = draw(coords)
    w = draw(st.floats(min_side, 40))
    h = draw(st.floats(min_side, 40))
    return BBox(x1, y1, x1 + w, y1 + h)


def random_boxes(rng, n, lo=-10, hi=10, max_side=8):
    x1 = rng.uniform(lo, hi, n)
    y1 = rng.uniform(lo, hi, n)
    w = rng.uniform(0.01, max_side, n)
    h = rng.uniform(0.01, max_side, n)
    return np.stack([x1, y1, x1 + w, y1 + h], axis=1)


class TestBBox:
    def test_basic_geometry(self):
        b = BBox(1, 2, 4, 8)
        assert b.width == 3 and b.height == 6 and b.area == 18

    def test_center_round_trip(self):
        b = BBox(1, 2, 4, 8)
        assert BBox.from_center(*b.to_center()) == b

    def test_normalized_swaps_corners(self):
        assert BBox(4, 8, 1, 2).normalized() == BBox(1, 2, 4, 8)


class TestHandValues:
    def test_iou_one_seventh(self):
        assert abs(iou(A, B) - 1 / 7) <= 1e-12

    def test_identical_boxes(self):
        g = giou(A, A)
        assert abs(g.giou - 1) <= 1e-12 and abs(g.iou - 1) <= 1e-12

    def test_disjoint_minus_third(self):
        g = giou(DISJOINT_A, DISJOINT_B)
        assert g.iou == 0
        assert abs(g.union - 2) <= 1e-12
        assert abs(g.enclose_area - 3) <= 1e-12
        assert abs(g.giou - (-1 / 3)) <= 1e-12

    def test_overlap_minus_five_sixty_thirds(self):
        g = giou(A, B)
        assert abs(g.intersection - 1) <= 1e-12
        assert abs(g.union - 7) <= 1e-12
        assert abs(g.giou - (-5 / 63)) <= 1e-12

    def test_loss_four_thirds(self):
        assert abs(giou_loss(DISJOINT_A, DISJOINT_B) - 4 / 3) <= 1e-12

    def test_disjoint_gradient_nonzero(self):
        grad = giou_loss_grad(DISJOINT_A, DISJOINT_B)
        assert np.abs(grad).max() > 0
        # moving pred's right edge toward gt must reduce the loss
        assert grad[2] < 0

    def test_breakdown_fields(self):
        g = giou(A, B)
        assert g.pred_area == 4 and g.gt_area == 4
        assert g.enclose_area == 9
        assert not g.degenerate

    def test_degenerate_pair(self):
        p = BBox(1, 1, 1, 1)
        g = giou(p, p)
        assert g.degenerate and g.giou == 0 and g.iou == 0
        np.testing.assert_array_equal(giou_loss_grad(p, p), np.zeros(4))


class TestGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        checked = 0
        while checked < 200:
            p = random_boxes(rng, 1)[0]
            g = random_boxes(rng, 1)[0]
            pred, gt = BBox(*p), BBox(*g)
            if giou(pred, gt).degenerate:
                continue
            grad = giou_loss_grad(pred, gt)
            fd = fd_giou_loss_grad(giou_loss, pred, gt)
            scale = max(1.0, np.abs(fd).max())
            assert np.abs(grad - fd).max() / scale <= 1e-4, (pred, gt)
            checked += 1

    def test_perfect_overlap_gradient_zero(self):
        np.testing.assert_allclose(giou_loss_grad(A, A), np.zeros(4), atol=1e-12)

    def test_gradient_descent_improves_loss(self):
        pred, gt = BBox(0, 0, 1, 1), BBox(5, 5, 7, 7)
        cur = np.array(pred, dtype=float)
        loss = giou_loss(BBox(*cur), gt)
        for _ in range(200):
            cur -= 0.1 * giou_loss_grad(BBox(*cur), gt)
        assert giou_loss(BBox(*cur), gt) < loss


class TestInvariants:
    N = 20_000

    def test_bulk_random_pairs(self):
        rng = np.random.default_rng(99)
        a = random_boxes(rng, self.N)
        b = random_boxes(rng, self.N)
        for pa, pb in zip(a[:400], b[:400]):
            ba, bb = BBox(*pa), BBox(*pb)
            g = giou(ba, bb)
            assert g.giou <= g.iou + 1e-9
            assert -1 < g.giou <= 1 + 1e-12
            assert 0 <= g.iou <= 1 + 1e-12
            g2 = giou(bb, ba)
            assert abs(g.giou - g2.giou) <= 1e-9

    @given(boxes(min_side=0.1), boxes(min_side=0.1),
           st.floats(-20, 20), st.floats(-20, 20))
    @settings(max_examples=200, deadline=None)
    def test_translation_invariance(self, a, b, dx, dy):
        g1 = giou(a, b).giou
        a2 = BBox(a.x1 + dx, a.y1 + dy, a.x2 + dx, a.y2 + dy)
        b2 = BBox(b.x1 + dx, b.y1 + dy, b.x2 + dx, b.y2 + dy)
        assert abs(giou(a2, b2).giou - g1) <= 1e-9

    @given(boxes(min_side=0.1), boxes(min_side=0.1), st.floats(0.1, 10))
    @settings(max_examples=200, deadline=None)
    def test_scale_invariance(self, a, b, s):
        g1 = giou(a, b).giou
        a2 = BBox(a.x1 * s, a.y1 * s, a.x2 * s, a.y2 * s)
        b2 = BBox(b.x1 * s, b.y1 * s, b.x2 * s, b.y2 * s)
        assert abs(giou(a2, b2).giou - g1) <= 1e-7

    def test_separation_ray_monotone_to_minus_one(self):
        base = BBox(0, 0, 1, 1)
        prev = 1.0
        vals = []
        for d in np.linspace(0, 1000, 60):
            g = giou(base, BBox(2 + d, 0, 3 + d, 1)).giou
            assert g <= prev + 1e-12
            prev = g
            vals.append(g)
        assert vals[-1] < -0.99

    def test_iou_matches_scalar_oracle(self):
        rng = np.random.default_rng(4)
        a = random_boxes(rng, 300)
        b = random_boxes(rng, 300)
        for pa, pb in zip(a, b):
            assert abs(iou(BBox(*pa), BBox(*pb)) - iou_scalar(pa, pb)) <= 1e-12


class TestMatrixAndMSE:
    def test_iou_matrix_matches_pairwise(self):
        # NMS and eval matching use the matrix in place of scalar iou, so
        # the two must agree exactly, degenerate pairs included
        rng = np.random.default_rng(12)
        grid = rng.integers(0, 6, (40, 2))
        grid_boxes = np.hstack([grid, grid + rng.integers(0, 4, (40, 2))])
        degenerate = np.array([[0, 0, 0, 0], [1, 1, 1, 5], [1, 1, 5, 1],
                               [2, 2, 2, 2], [0, 0, 4, 4], [4, 0, 8, 4]],
                              dtype=np.float64)
        a = np.vstack([random_boxes(rng, 7), grid_boxes, degenerate])
        b = np.vstack([random_boxes(rng, 5), grid_boxes[::-1], degenerate])
        m = iou_matrix(a, b)
        assert m.shape == (len(a), len(b))
        for i in range(len(a)):
            for j in range(len(b)):
                assert m[i, j] == iou(BBox(*a[i]), BBox(*b[j]))

    def test_iou_matrix_broadcasts_leading_dimensions(self):
        # eval matching stacks padded images along a leading axis; each
        # slice must equal the 2-D call exactly
        rng = np.random.default_rng(3)
        a = random_boxes(rng, 15).reshape(3, 5, 4)
        b = random_boxes(rng, 12).reshape(3, 4, 4)
        m = iou_matrix(a, b)
        assert m.shape == (3, 5, 4)
        for i in range(3):
            assert np.array_equal(m[i], iou_matrix(a[i], b[i]))
        assert np.array_equal(iou_matrix(a, b[0]), np.stack([iou_matrix(x, b[0]) for x in a]))

    def test_iou_matrix_memory(self):
        # 1,500 x 1,500 pairs: an 18 MB result from three 18 MB buffers
        # (eight full-size arrays peaked at 146 MB)
        rng = np.random.default_rng(4)
        boxes = random_boxes(rng, 1500)
        tracemalloc.start()
        try:
            m = iou_matrix(boxes, boxes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert m.shape == (1500, 1500)
        assert peak <= 75e6, f"iou_matrix peaked at {peak / 1e6:.1f} MB"

    def test_iou_matrix_empty(self):
        m = iou_matrix(np.zeros((0, 4)), np.zeros((3, 4)))
        assert m.shape == (0, 3)

    def test_mse_hand_value(self):
        pred = np.array([[0.0, 0.0, 2.0, 2.0]])
        gt = np.array([[1.0, 0.0, 2.0, 4.0]])
        # squared diffs 1,0,0,4 -> mean 5/4
        assert mse(pred, gt) == pytest.approx(1.25)

    def test_mse_zero_on_identical(self):
        x = np.arange(8.0).reshape(2, 4)
        assert mse(x, x) == 0

    def test_mse_shape_mismatch(self):
        with pytest.raises(ValueError):
            mse(np.zeros((1, 4)), np.zeros((2, 4)))

    def test_mse_empty(self):
        with pytest.raises(ValueError):
            mse(np.zeros((0, 4)), np.zeros((0, 4)))
