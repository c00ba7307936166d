from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from littleyolo import tensor
from littleyolo.graph import repeated_rows
from littleyolo.tensor import (BatchNorm, ConvParams, ShapeError, activate,
                               concat_channels, conv2d, conv_output_size,
                               leaky_relu, maxpool, shortcut_add,
                               upsample_nearest)
from oracles import (activate_seed, concat_oracle, conv2d_oracle, conv2d_seed,
                     maxpool_oracle, maxpool_seed, shortcut_oracle, upsample_oracle)


def make_conv(weights, bias=None, stride=1, padding=0, bn=None):
    weights = np.asarray(weights, dtype=np.float32)
    if bias is None:
        bias = np.zeros(weights.shape[0], dtype=np.float32)
    return ConvParams(weights=weights, bias=np.asarray(bias, dtype=np.float32),
                      stride=stride, padding=padding, batch_norm=bn)


def random_conv_case(rng, with_bn=False):
    c_in = int(rng.integers(1, 5))
    n = int(rng.integers(1, 7))
    k = int(rng.integers(1, 5))
    stride = int(rng.integers(1, 4))
    padding = int(rng.integers(0, k + 1))
    h = int(rng.integers(max(1, k - 2 * padding), 11))
    w = int(rng.integers(max(1, k - 2 * padding), 11))
    x = rng.uniform(-1, 1, (c_in, h, w)).astype(np.float32)
    weights = rng.uniform(-1, 1, (n, c_in, k, k)).astype(np.float32)
    bias = rng.uniform(-1, 1, n).astype(np.float32)
    bn = None
    if with_bn:
        bn = BatchNorm(gamma=rng.uniform(0.5, 2.0, n).astype(np.float32),
                       mean=rng.uniform(-1, 1, n).astype(np.float32),
                       var=rng.uniform(0.1, 2.0, n).astype(np.float32))
    return x, make_conv(weights, bias, stride, padding, bn)


class TestConv2d:
    def test_all_ones_3x3(self):
        # 3x3 ones kernel over a 3x3 ones image, pad 1: center sees 9
        # neighbors, edges 6, corners 4
        x = np.ones((1, 3, 3), dtype=np.float32)
        out = conv2d(x, make_conv(np.ones((1, 1, 3, 3)), padding=1))
        expected = np.array([[[4, 6, 4], [6, 9, 6], [4, 6, 4]]], dtype=np.float32)
        np.testing.assert_array_equal(out, expected)

    def test_identity_1x1(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-1, 1, (1, 4, 5)).astype(np.float32)
        out = conv2d(x, make_conv(np.ones((1, 1, 1, 1))))
        np.testing.assert_array_equal(out, x)

    def test_output_shape_formula(self):
        x = np.zeros((2, 11, 7), dtype=np.float32)
        p = make_conv(np.zeros((3, 2, 3, 3)), stride=2, padding=1)
        assert conv2d(x, p).shape == (3, (11 + 2 - 3) // 2 + 1, (7 + 2 - 3) // 2 + 1)

    def test_channel_mismatch_names_both(self):
        x = np.zeros((3, 4, 4), dtype=np.float32)
        with pytest.raises(ShapeError, match=r"3.*2|2.*3"):
            conv2d(x, make_conv(np.zeros((1, 2, 1, 1))))

    def test_kernel_too_large(self):
        x = np.zeros((1, 2, 2), dtype=np.float32)
        with pytest.raises(ShapeError):
            conv2d(x, make_conv(np.zeros((1, 1, 4, 4))))

    def test_bias_after_batchnorm(self):
        # y = gamma*(conv - mean)/sqrt(var+eps) + bias, bias outside the norm
        x = np.ones((1, 1, 1), dtype=np.float32)
        bn = BatchNorm(gamma=np.array([2.0], np.float32),
                       mean=np.array([1.0], np.float32),
                       var=np.array([4.0], np.float32), epsilon=0.0)
        p = make_conv(np.full((1, 1, 1, 1), 3.0), bias=[10.0], bn=bn)
        # conv = 3, normed = 2*(3-1)/2 = 2, +10 = 12
        np.testing.assert_allclose(conv2d(x, p), [[[12.0]]], rtol=1e-6)

    @pytest.mark.parametrize("with_bn", [False, True])
    def test_matches_oracle(self, with_bn):
        rng = np.random.default_rng(42 if with_bn else 24)
        for _ in range(40):
            x, p = random_conv_case(rng, with_bn)
            got = conv2d(x, p)
            bn = p.batch_norm
            want = conv2d_oracle(x, p.weights, p.bias, p.stride, p.padding,
                                 bn=(bn.gamma, bn.mean, bn.var, bn.epsilon) if bn else None)
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)
            assert got.dtype == np.float32
            assert np.isfinite(got).all()

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        x, p = random_conv_case(rng, with_bn=True)
        a, b = conv2d(x, p), conv2d(x, p)
        np.testing.assert_array_equal(a, b)


def seed_case(c_in, n, k, stride, padding, h, w, with_bn, seed):
    """(x, ConvParams) drawn from seed, or None when the kernel does not fit."""
    padding = min(padding, k)
    if k > h + 2 * padding or k > w + 2 * padding:
        return None
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((c_in, h, w)).astype(np.float32)
    bn = None
    if with_bn:
        bn = BatchNorm(gamma=rng.uniform(-2, 2, n).astype(np.float32),
                       mean=rng.standard_normal(n).astype(np.float32),
                       var=rng.uniform(0, 3, n).astype(np.float32))
    p = make_conv(rng.standard_normal((n, c_in, k, k)), rng.standard_normal(n),
                  stride, padding, bn)
    return x, p


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5), st.integers(1, 6), st.integers(1, 5), st.integers(1, 3),
       st.integers(0, 5), st.integers(1, 12), st.integers(1, 12), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_conv_bit_identical_to_seed(c_in, n, k, stride, padding, h, w, with_bn, seed):
    case = seed_case(c_in, n, k, stride, padding, h, w, with_bn, seed)
    if case is None:
        return
    x, p = case
    got = conv2d(x, p)
    want = conv2d_seed(x, p)
    assert got.dtype == want.dtype and got.flags.c_contiguous
    assert np.array_equal(got, want)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 24), st.integers(1, 24), st.sampled_from([1, 3, 5]),
       st.integers(1, 2), st.integers(0, 5), st.integers(1, 40), st.integers(1, 40),
       st.booleans(), st.integers(0, 2**32 - 1), st.integers(1, 20000),
       st.one_of(st.just(1), st.integers(1, 40000)))
def test_tiled_conv_bit_identical_to_seed(c_in, n, k, stride, padding, h, w, with_bn,
                                          seed, band_bytes, block_bytes):
    # band_bytes below one row's bytes gives 1-row bands, larger values give
    # bands of several rows with a short last band wherever they do not
    # divide the output height. With padding, the first and last bands reach
    # into the zero border. Weight blocks below one filter's float64 bytes
    # hold one filter each; others split the filters into equal blocks and a
    # short last one.
    case = seed_case(c_in, n, k, stride, padding, h, w, with_bn, seed)
    if case is None:
        return
    x, p = case
    with mock.patch.object(tensor, "BAND_BYTES", band_bytes), \
            mock.patch.object(tensor, "WEIGHT_BLOCK_BYTES", block_bytes):
        got = conv2d(x, p)
    assert got.dtype == np.float32 and got.flags.c_contiguous
    assert np.array_equal(got, conv2d_seed(x, p))


class TestBandRows:
    def test_small_matrix_is_one_band(self):
        # layer 16 at 416: 512 channels, 3x3, 13x13 output, 6.2 MB of columns
        assert tensor._band_rows(512, 3, 13, 13) == 13
        # layer 12 at 416: 256 channels, 3x3, 26x26 output, 12.5 MB of
        # columns, is banded as every larger matrix is: 17 rows of 0.48 MB
        assert tensor._band_rows(256, 3, 26, 26) == 17

    def test_large_matrix_bands_fit_band_bytes(self):
        # layer 2 at 416: 32 channels, 3x3, 208x208 output, 99.7 MB of columns
        rows = tensor._band_rows(32, 3, 208, 208)
        row_bytes = 32 * 9 * 208 * 8
        assert 1 < rows < 208
        assert rows * row_bytes <= tensor.BAND_BYTES < (rows + 1) * row_bytes

    def test_row_larger_than_band_gives_one_row(self):
        assert tensor._band_rows(4096, 3, 1000, 1000) == 1

    def test_filter_blocks_are_equal_and_fit_weight_block_bytes(self):
        # layer 16: 1024 filters of 4608 float64 weights (37.7 MB) make four
        # blocks of 256 (9.4 MB); layers 12, 13, 15 and 23 (9.4 MB) are one
        # block, so they are cast once per call
        assert tensor._filter_block(1024, 4608) == 256
        assert tensor._filter_block(512, 2304) == 512
        assert tensor._filter_block(256, 4608) == 256
        for n, depth in ((1024, 4608), (1000, 3000), (7, 10 ** 7), (300, 2304 * 5)):
            most = max(1, tensor.WEIGHT_BLOCK_BYTES // (depth * 8))
            block = tensor._filter_block(n, depth)
            blocks = -(-n // block)
            assert block <= most and blocks == -(-n // most)  # the fewest that fit
            # the last block is short by fewer filters than there are blocks
            assert n - (blocks - 1) * block > block - blocks

    def test_forced_tiling_short_last_band_and_one_row_bands(self):
        # 16 channels * 9 * 40 wide * 8 B = 46 KB per row, 1.8 MB in all;
        # 7 rows per band leave a short last band of 5 rows; a 1-byte band
        # gives 1-row bands.
        rng = np.random.default_rng(21)
        x = rng.standard_normal((16, 40, 40)).astype(np.float32)
        bn = BatchNorm(gamma=rng.uniform(0.5, 2, 24).astype(np.float32),
                       mean=rng.standard_normal(24).astype(np.float32),
                       var=rng.uniform(0.1, 2, 24).astype(np.float32))
        p = make_conv(rng.standard_normal((24, 16, 3, 3)), rng.standard_normal(24),
                      1, 1, bn)
        row_bytes = 16 * 9 * 40 * 8
        for band_bytes, rows in ((7 * row_bytes, 7), (1, 1)):
            with mock.patch.object(tensor, "BAND_BYTES", band_bytes):
                assert tensor._band_rows(16, 3, 40, 40) == rows
                got = conv2d(x, p)
            assert np.array_equal(got, conv2d_seed(x, p))

    @pytest.mark.parametrize("k,stride", [(1, 1), (3, 1), (3, 2), (2, 3)])
    def test_taps_wholly_in_the_border(self, k, stride):
        # With padding == size, the first and last output rows and columns
        # read only border, so in 1-row bands whole taps lie outside the
        # image; each tap's border part is written as zeros.
        rng = np.random.default_rng(k * 10 + stride)
        x = rng.standard_normal((2, 5, 7)).astype(np.float32)
        p = make_conv(rng.standard_normal((3, 2, k, k)), rng.standard_normal(3),
                      stride, k)
        with mock.patch.object(tensor, "BAND_BYTES", 1):
            assert tensor._band_rows(2, k, 1, 1) == 1
            got = conv2d(x, p)
        assert got.tobytes() == conv2d_seed(x, p).tobytes()
        np.testing.assert_array_equal(got[:, 0], np.broadcast_to(p.bias[:, None],
                                                                  got[:, 0].shape))


def plant_runs(x, runs):
    """x with each (start, length) run of rows set equal to row start."""
    x = x.copy()
    for start, length in runs:
        x[:, start + 1:start + length + 1] = x[:, start:start + 1]
    return x


def window_repeats_oracle(repeats, size, stride, padding):
    """Row by row: output row y repeats row y-1 when every input row from the
    top of window y-1 to the bottom of window y is inside and equal."""
    h = len(repeats) + 1
    out = []
    for y in range(1, conv_output_size(h, size, stride, padding)):
        lo, hi = (y - 1) * stride - padding, y * stride - padding + size - 1
        out.append(lo >= 0 and hi < h and all(repeats[lo:hi]))
    return np.array(out, dtype=bool)


class TestRepeatedRows:
    # (start, length) runs on a 14-row map: top, bottom, middle, one and two
    # rows long, and two runs in one map
    RUNS = [[(0, 1)], [(0, 3)], [(0, 6)], [(11, 2)], [(10, 3)], [(7, 6)], [(5, 1)],
            [(5, 2)], [(4, 3)], [(3, 8)], [(0, 4), (8, 5)], [(2, 2), (6, 3)]]

    @pytest.mark.parametrize("runs", RUNS)
    @pytest.mark.parametrize("k, s, p", [(k, s, p) for k in (1, 3) for s in (1, 2)
                                         for p in (0, 1)])
    def test_masked_conv_bit_equal(self, runs, k, s, p):
        rng = np.random.default_rng(k * 100 + s * 10 + p)
        x = plant_runs(rng.standard_normal((5, 14, 9)).astype(np.float32), runs)
        bn = BatchNorm(gamma=rng.uniform(0.5, 2, 6).astype(np.float32),
                       mean=rng.standard_normal(6).astype(np.float32),
                       var=rng.uniform(0.1, 2, 6).astype(np.float32))
        params = make_conv(rng.standard_normal((6, 5, k, k)), rng.standard_normal(6),
                           s, p, bn)
        repeats = repeated_rows(x)
        assert repeats.sum() == sum(length for _, length in runs)
        got = conv2d(x, params, repeats)
        want = conv2d(x, params)
        assert got.dtype == np.float32 and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(want, conv2d_seed(x, params))
        copied = tensor.window_repeats(repeats, k, s, p)
        assert np.array_equal(copied, window_repeats_oracle(repeats, k, s, p))
        assert all((got[:, y + 1] == got[:, y]).all() for y in np.flatnonzero(copied))

    def test_long_runs_are_copied_not_computed(self, monkeypatch):
        # A 30-row map whose rows 2..27 are equal: with its mask, a 3x3 pad-1
        # conv multiplies rows 0-3 and 27-29 only, in two bands.
        rng = np.random.default_rng(3)
        x = plant_runs(rng.standard_normal((2, 30, 6)).astype(np.float32), [(2, 25)])
        params = make_conv(rng.standard_normal((3, 2, 3, 3)), padding=1)
        columns = []
        matmul = np.matmul

        def spy(a, b, out=None):
            columns.append(b.shape[1])
            return matmul(a, b, out=out)

        monkeypatch.setattr(tensor.np, "matmul", spy)
        got = conv2d(x, params, repeated_rows(x))
        monkeypatch.undo()
        assert columns == [4 * 6, 3 * 6]
        assert got.tobytes() == conv2d(x, params).tobytes()

    def test_masked_tiled_conv_bit_equal(self):
        # 1-row bands inside the computed runs, filter blocks of one filter
        rng = np.random.default_rng(8)
        x = plant_runs(rng.standard_normal((4, 20, 11)).astype(np.float32),
                       [(0, 5), (9, 2), (14, 5)])
        params = make_conv(rng.standard_normal((5, 4, 3, 3)), rng.standard_normal(5),
                           1, 1)
        with mock.patch.object(tensor, "BAND_BYTES", 1), \
                mock.patch.object(tensor, "WEIGHT_BLOCK_BYTES", 1):
            got = conv2d(x, params, repeated_rows(x))
        assert got.tobytes() == conv2d_seed(x, params).tobytes()

    def test_all_false_mask_is_no_mask(self):
        rng = np.random.default_rng(4)
        x = plant_runs(rng.standard_normal((3, 10, 10)).astype(np.float32), [(0, 9)])
        params = make_conv(rng.standard_normal((4, 3, 3, 3)), padding=1)
        got = conv2d(x, params, np.zeros(9, dtype=bool))
        assert got.tobytes() == conv2d(x, params).tobytes()

    def test_mask_of_another_height_rejected(self):
        params = make_conv(np.ones((1, 1, 3, 3)), padding=1)
        with pytest.raises(ShapeError, match=r"repeat mask must have shape \(9,\)"):
            conv2d(np.zeros((1, 10, 4), np.float32), params, np.zeros(10, dtype=bool))

    def test_nan_rows_stay_nan(self):
        x = np.full((1, 12, 4), np.nan, dtype=np.float32)
        x[:, :2] = 1
        params = make_conv(np.ones((1, 1, 3, 3)), padding=1)
        got = conv2d(x, params, repeated_rows(x))
        assert np.isnan(got[:, 1:]).all() and np.isfinite(got[:, 0]).all()

    @settings(max_examples=120, deadline=None)
    @given(st.lists(st.booleans(), min_size=0, max_size=24), st.integers(1, 5),
           st.integers(1, 3), st.integers(0, 5))
    def test_window_repeats_matches_oracle(self, repeats, size, stride, padding):
        repeats = np.array(repeats, dtype=bool)
        padding = min(padding, size)
        if conv_output_size(len(repeats) + 1, size, stride, padding) < 1:
            return
        assert np.array_equal(tensor.window_repeats(repeats, size, stride, padding),
                              window_repeats_oracle(repeats, size, stride, padding))


class TestRowRange:
    """conv2d makes a range of output rows from a slab of the input rows."""

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([(k, s, p) for k in (1, 3) for s in (1, 2) for p in (0, 1)]),
           st.integers(1, 14), st.data())
    def test_slab_rows_equal_whole_map_rows(self, ksp, h, data):
        # the rows of a masked whole-map call, from the least slab they read,
        # into a given out
        k, s, p = ksp
        rng = np.random.default_rng(h * 10 + k + s + p)
        if conv_output_size(h, k, s, p) < 1:
            return
        start = data.draw(st.integers(0, h - 1))
        runs = [(start, data.draw(st.integers(0, h - 1 - start)))]
        x = plant_runs(rng.standard_normal((3, h, 5)).astype(np.float32), runs)
        params = make_conv(rng.standard_normal((4, 3, k, k)), rng.standard_normal(4), s, p)
        oh = conv_output_size(h, k, s, p)
        y0 = data.draw(st.integers(0, oh - 1))
        y1 = data.draw(st.integers(y0 + 1, oh))
        a, b = max(0, y0 * s - p), min(h, (y1 - 1) * s - p + k)
        out = np.full((4, y1 - y0 + 2, conv_output_size(5, k, s, p)), np.nan, np.float32)
        got = conv2d(x[:, a:b], params, repeated_rows(x), rows=(y0, y1),
                     out=out[:, 1:-1], first_row=a)
        assert np.shares_memory(got, out)
        assert got.tobytes() == conv2d(x, params, repeated_rows(x))[:, y0:y1].tobytes()
        assert np.isnan(out[:, [0, -1]]).all()

    def test_first_row_of_a_range_is_computed(self):
        # rows 3..7 of a map whose rows 2.. are equal: the range's first row
        # is not copied from a row the caller holds
        rng = np.random.default_rng(5)
        x = plant_runs(rng.standard_normal((2, 10, 4)).astype(np.float32), [(2, 7)])
        params = make_conv(rng.standard_normal((3, 2, 3, 3)), padding=1)
        got = conv2d(x, params, repeated_rows(x), rows=(4, 8))
        assert got.shape == (3, 4, 4)
        assert got.tobytes() == conv2d(x, params)[:, 4:8].tobytes()

    @pytest.mark.parametrize("rows, first_row, slab", [((2, 5), 2, 6), ((2, 5), 0, 5),
                                                        ((0, 0), 0, 10), ((3, 11), 0, 10)])
    def test_slab_must_hold_the_rows_read(self, rows, first_row, slab):
        # the mask says the input is 10 rows high
        params = make_conv(np.ones((1, 1, 3, 3)), padding=1)
        x = np.zeros((1, slab, 4), np.float32)
        with pytest.raises(ShapeError, match="output rows"):
            conv2d(x, params, np.zeros(9, bool), rows=rows, first_row=first_row)


def test_bn_epilogue_order_matches_seed():
    # Outputs near a large batch-norm mean cancel, so any other order of the
    # float64 scale/shift (say (conv - mean) * scale + bias) shows up after
    # the float32 cast.
    rng = np.random.default_rng(12)
    x = (1e6 + rng.uniform(-1, 1, (1, 8, 8))).astype(np.float32)
    n = 6
    bn = BatchNorm(gamma=rng.uniform(0.5, 2, n).astype(np.float32),
                   mean=np.full(n, 1e6, np.float32),
                   var=rng.uniform(0.1, 2, n).astype(np.float32))
    p = make_conv(np.ones((n, 1, 1, 1)), rng.uniform(-1, 1, n), bn=bn)
    assert np.array_equal(conv2d(x, p), conv2d_seed(x, p))


class TestBlasThreads:
    def test_sets_then_restores_even_on_error(self):
        before = tensor.blas_thread_count()
        if before is None:
            pytest.skip("numpy's BLAS thread count cannot be controlled here")
        with tensor.blas_threads(1):
            assert tensor.blas_thread_count() == 1
        assert tensor.blas_thread_count() == before
        with pytest.raises(RuntimeError):
            with tensor.blas_threads(1):
                raise RuntimeError("body failed")
        assert tensor.blas_thread_count() == before

    def test_no_openblas_is_a_no_op(self, monkeypatch):
        monkeypatch.setattr(tensor, "_openblas", lambda: None)
        assert tensor.blas_thread_count() is None
        with tensor.blas_threads(1):
            pass

    def test_rejects_count_below_one(self):
        with pytest.raises(ValueError, match="got 0"):
            with tensor.blas_threads(0):
                pass


class TestMaxpool:
    def test_hand_2x2(self):
        x = np.array([[[1, 2], [3, 4]]], dtype=np.float32)
        np.testing.assert_array_equal(maxpool(x, 2, 2, 0), [[[4]]])

    def test_spp_preserves_shape(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-1, 1, (4, 13, 13)).astype(np.float32)
        for size in (5, 9, 13):
            assert maxpool(x, size, 1, size // 2).shape == x.shape

    def test_constant_input_constant_output(self):
        x = np.full((2, 6, 6), 3.5, dtype=np.float32)
        out = maxpool(x, 5, 1, 2)
        np.testing.assert_array_equal(out, np.full_like(out, 3.5))

    def test_padding_never_selected(self):
        x = np.full((1, 3, 3), -7.0, dtype=np.float32)
        out = maxpool(x, 3, 1, 1)
        assert out.min() == -7.0 and np.isfinite(out).all()

    def test_matches_oracle_exactly(self):
        rng = np.random.default_rng(6)
        for _ in range(60):
            size = int(rng.integers(1, 6))
            stride = int(rng.integers(1, 4))
            padding = int(rng.integers(0, size))
            h = int(rng.integers(max(1, size - 2 * padding), 12))
            w = int(rng.integers(max(1, size - 2 * padding), 12))
            x = rng.uniform(-5, 5, (int(rng.integers(1, 4)), h, w)).astype(np.float32)
            np.testing.assert_array_equal(maxpool(x, size, stride, padding),
                                          maxpool_oracle(x, size, stride, padding))

    def test_matches_seed_with_nan_and_inf(self):
        rng = np.random.default_rng(10)
        for size, stride, padding in ((9, 1, 4), (5, 1, 2), (2, 2, 0), (3, 2, 1)):
            x = rng.uniform(-5, 5, (3, 11, 10)).astype(np.float32)
            x[0, 3, 4] = np.nan
            x[1, 6, 2] = -np.inf
            x[2, 0, 9] = np.inf
            got = maxpool(x, size, stride, padding)
            want = maxpool_seed(x, size, stride, padding)
            np.testing.assert_array_equal(got, want)  # NaN positions equal too

    def test_window_larger_than_input(self):
        with pytest.raises(ShapeError):
            maxpool(np.zeros((1, 3, 3), np.float32), 9, 1, 2)

    def test_cascade_composes_windows(self):
        # stride-1 max windows compose: 5x5 of a 9x9 output == 13x13 direct.
        # The reference network's third pyramid pool relies on this.
        rng = np.random.default_rng(7)
        x = rng.uniform(-1, 1, (3, 13, 13)).astype(np.float32)
        cascaded = maxpool(maxpool(x, 9, 1, 4), 5, 1, 2)
        np.testing.assert_array_equal(cascaded, maxpool(x, 13, 1, 6))


class TestUpsampleConcatShortcut:
    def test_upsample_replicates(self):
        x = np.array([[[1, 2], [3, 4]]], dtype=np.float32)
        out = upsample_nearest(x, 2)
        np.testing.assert_array_equal(
            out, [[[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]]])

    def test_upsample_factor_one_identity(self):
        x = np.arange(12, dtype=np.float32).reshape(1, 3, 4)
        np.testing.assert_array_equal(upsample_nearest(x, 1), x)

    def test_upsample_matches_oracle(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(-1, 1, (2, 3, 5)).astype(np.float32)
        np.testing.assert_array_equal(upsample_nearest(x, 3), upsample_oracle(x, 3))

    def test_concat_order_and_channels(self):
        a = np.full((2, 3, 3), 1, dtype=np.float32)
        b = np.full((3, 3, 3), 2, dtype=np.float32)
        out = concat_channels([a, b])
        assert out.shape == (5, 3, 3)
        np.testing.assert_array_equal(out[:2], a)
        np.testing.assert_array_equal(out[2:], b)
        np.testing.assert_array_equal(out, concat_oracle([a, b]))

    def test_concat_spatial_mismatch(self):
        with pytest.raises(ShapeError):
            concat_channels([np.zeros((1, 2, 2), np.float32),
                             np.zeros((1, 3, 2), np.float32)])

    def test_concat_empty(self):
        with pytest.raises(ShapeError):
            concat_channels([])

    def test_shortcut_equal_channels(self):
        a = np.full((2, 2, 2), 1.0, np.float32)
        b = np.full((2, 2, 2), 2.0, np.float32)
        np.testing.assert_array_equal(shortcut_add(a, b), np.full((2, 2, 2), 3.0))

    def test_shortcut_min_channel_rule(self):
        current = np.stack([np.full((2, 2), 1.0), np.full((2, 2), 2.0)]).astype(np.float32)
        skip = np.full((1, 2, 2), 10.0, np.float32)
        out = shortcut_add(current, skip)
        np.testing.assert_array_equal(out[0], np.full((2, 2), 11.0))
        np.testing.assert_array_equal(out[1], np.full((2, 2), 2.0))

    def test_shortcut_wider_skip_ignored_tail(self):
        current = np.full((1, 2, 2), 1.0, np.float32)
        skip = np.stack([np.full((2, 2), 5.0), np.full((2, 2), 9.0)]).astype(np.float32)
        out = shortcut_add(current, skip)
        assert out.shape == current.shape
        np.testing.assert_array_equal(out[0], np.full((2, 2), 6.0))

    def test_shortcut_matches_oracle_exactly(self):
        rng = np.random.default_rng(9)
        cur = rng.uniform(-1, 1, (4, 5, 5)).astype(np.float32)
        skip = rng.uniform(-1, 1, (2, 5, 5)).astype(np.float32)
        np.testing.assert_array_equal(shortcut_add(cur, skip),
                                      shortcut_oracle(cur, skip))

    def test_shortcut_spatial_mismatch(self):
        with pytest.raises(ShapeError):
            shortcut_add(np.zeros((1, 2, 2), np.float32),
                         np.zeros((1, 4, 4), np.float32))

    def test_inputs_not_mutated(self):
        a = np.ones((1, 2, 2), np.float32)
        b = np.ones((1, 2, 2), np.float32)
        shortcut_add(a, b)
        np.testing.assert_array_equal(a, np.ones((1, 2, 2)))

    def test_shortcut_into_current(self):
        rng = np.random.default_rng(10)
        for channels in (4, 2, 6):  # skip narrower, as wide, wider
            cur = rng.uniform(-1, 1, (4, 3, 5)).astype(np.float32)
            skip = rng.uniform(-1, 1, (channels, 3, 5)).astype(np.float32)
            want = shortcut_oracle(cur, skip)
            assert shortcut_add(cur, skip, out=cur) is cur
            np.testing.assert_array_equal(cur, want)

    def test_shortcut_out_must_be_current(self):
        a = np.ones((1, 2, 2), np.float32)
        with pytest.raises(ValueError, match="current"):
            shortcut_add(a, a.copy(), out=np.empty_like(a))


class TestActivations:
    def test_leaky_values(self):
        x = np.array([-1.0, 0.0, 2.0], dtype=np.float32)
        np.testing.assert_allclose(leaky_relu(x), [-0.1, 0.0, 2.0], rtol=1e-7)

    def test_linear_is_a_no_op(self):
        x = np.array([1.5, -2.0], dtype=np.float32)
        assert activate(x, "linear") is x
        np.testing.assert_array_equal(x, [1.5, -2.0])

    def test_unknown_activation(self):
        for kind in ("relu", "mish"):
            with pytest.raises(ValueError, match=kind):
                activate(np.zeros(1), kind)

    def test_leaky_matches_where_on_special_values(self):
        tiny = np.finfo(np.float32).smallest_subnormal
        x = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, tiny, -tiny, 1e-38,
                      -1e-38, 3.4e38, -3.4e38, 1.0, -1.0], dtype=np.float32)
        x = np.concatenate([x, np.random.default_rng(4).standard_normal(1000)
                            .astype(np.float32)])
        want = np.where(x > 0, x, np.float32(0.1) * x)
        got = leaky_relu(x)
        np.testing.assert_array_equal(got, want)
        assert (np.signbit(got) == np.signbit(want)).all()

    def test_leaky_in_place_slabs_match_one_shot(self):
        # 1,013 values in slabs of 7: a short last slab; NaN, signed zeros
        # and the float32 extremes land in several slabs
        special = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1e-45,
                            -1e-45, 3.4e38, -3.4e38], dtype=np.float32)
        x = np.random.default_rng(8).standard_normal(1013).astype(np.float32)
        x[::97] = np.resize(special, x[::97].size)
        for shape in ((1013,), (1, 1013, 1)):
            want = np.maximum(x, np.float32(0.1) * x)
            y = x.reshape(shape).copy()
            with mock.patch.object(tensor, "LEAKY_SLAB", 7):
                assert leaky_relu(y) is y
            assert y.tobytes() == want.tobytes()
        # a strided view is done in slabs too, into itself
        base = np.repeat(x, 2)
        view = base[::2]
        with mock.patch.object(tensor, "LEAKY_SLAB", 7):
            assert leaky_relu(view) is view
        assert view.tobytes() == want.tobytes()
        assert base[1::2].tobytes() == x.tobytes()

    def test_leaky_row_slice_is_done_in_small_pieces(self):
        # A streamed layer's rows are a (64, 22, 320) slice of a (64, 46, 320)
        # buffer, not C-contiguous. Its 0.1*x temporary stays within one
        # LEAKY_SLAB (0.26 MB), not the slice's 1.80 MB, and the result
        # equals that of a contiguous copy bit for bit.
        import tracemalloc
        special = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1e-45,
                            -1e-45, 3.4e38, -3.4e38], dtype=np.float32)
        buf = np.random.default_rng(9).standard_normal((64, 46, 320)).astype(np.float32)
        buf.reshape(-1)[::997] = np.resize(special, buf.reshape(-1)[::997].size)
        rows, before = buf[:, 12:34], buf.copy()
        want = leaky_relu(rows.copy())
        tracemalloc.start()
        try:
            assert leaky_relu(rows) is rows
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.3e6, f"{peak / 1e6:.2f} MB"
        assert rows.tobytes() == want.tobytes()
        assert buf[:, :12].tobytes() == before[:, :12].tobytes()
        assert buf[:, 34:].tobytes() == before[:, 34:].tobytes()

    @pytest.mark.parametrize("kind", ["linear", "leaky"])
    def test_activate_inplace_matches_copy(self, kind):
        x = np.random.default_rng(11).standard_normal((3, 4, 5)).astype(np.float32)
        want = activate_seed(x, kind)
        out = activate(x, kind)
        assert out is x
        np.testing.assert_array_equal(x, want)

    @given(st.floats(-50, 50), st.floats(-50, 50))
    def test_leaky_monotone(self, a, b):
        lo, hi = sorted([a, b])
        out = leaky_relu(np.array([lo, hi]))
        assert out[0] <= out[1]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 4), st.integers(1, 3),
       st.integers(0, 2), st.integers(4, 9), st.integers(4, 9))
def test_conv_shape_property(c_in, k, stride, padding, h, w):
    if k > h + 2 * padding or k > w + 2 * padding or padding > k:
        return
    x = np.zeros((c_in, h, w), dtype=np.float32)
    p = ConvParams(weights=np.zeros((2, c_in, k, k), np.float32),
                   bias=np.zeros(2, np.float32), stride=stride, padding=padding)
    out = conv2d(x, p)
    assert out.shape == (2, conv_output_size(h, k, stride, padding),
                         conv_output_size(w, k, stride, padding))
