import dataclasses
import sys
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from littleyolo import graph as graph_mod
from littleyolo import pipeline, tensor
from littleyolo.config import (Convolutional, Maxpool, NetParams, Route,
                               Shortcut, Upsample, Yolo, load_config,
                               reference_config_path)
from littleyolo.graph import (GraphError, build_graph, flops, forward,
                              layer_flops, layer_table, live_bytes, model_bytes,
                              param_count, scratch_bytes)
from littleyolo.tensor import ShapeError, conv_output_size, shortcut_add
from littleyolo.weights import init_random
from oracles import forward_seed, layer_outputs_seed

NET8 = NetParams(width=8, height=8, channels=3)
CONV = Convolutional(filters=4, size=3, stride=1, pad=True,
                     batch_normalize=True, activation="leaky")
YOLO1 = Yolo(mask=(0,), anchors=((4, 4),), classes=2)


class TestBuild:
    def test_reference_shape_spine(self, ref_graph_416):
        shapes = [l.out_shape for l in ref_graph_416.layers]
        assert shapes[0] == (16, 416, 416)
        assert shapes[1] == (32, 208, 208)
        assert shapes[4] == (32, 104, 104)
        assert shapes[8] == (256, 52, 52)
        assert shapes[11] == (256, 26, 26)
        assert shapes[14] == (256, 26, 26)
        assert shapes[15] == (512, 13, 13)
        assert shapes[16] == (1024, 13, 13)
        assert shapes[21] == (4096, 13, 13)  # pyramid concat
        assert shapes[25] == (21, 13, 13)
        assert shapes[29] == (384, 26, 26)
        assert shapes[32] == (21, 26, 26)

    def test_reference_heads(self, ref_graph_416):
        heads = [(l.index, l.out_shape) for l in ref_graph_416.yolo_layers]
        assert heads == [(25, (21, 13, 13)), (32, (21, 26, 26))]

    def test_pyramid_route_inputs(self, ref_graph_416):
        concat = ref_graph_416.layers[21]
        assert concat.inputs == (20, 19, 17, 16)

    def test_frozen_param_count(self, ref_graph_416):
        assert param_count(ref_graph_416) == 12_455_962

    def test_model_bytes_formula(self, ref_graph_416):
        assert model_bytes(ref_graph_416) == 20 + 4 * 12_455_962

    def test_flops_first_conv_hand_value(self):
        g = build_graph([NetParams(width=416, height=416, channels=3),
                         Convolutional(filters=16, size=3, stride=1, pad=True,
                                       batch_normalize=True, activation="leaky")])
        assert flops(g) == pytest.approx(2 * 9 * 3 * 16 * 416 * 416 / 1e9)

    def test_reference_flops_frozen(self, ref_graph_416):
        assert flops(ref_graph_416) == pytest.approx(15.2786, abs=5e-4)

    def test_input_shape_override(self):
        # the CLI's --size replaces the NetParams spec in the same way
        specs = load_config(reference_config_path(416))
        specs[0] = NetParams(width=416, height=832, channels=3)
        g = build_graph(specs)
        assert g.input_shape == (3, 832, 416)
        assert g.layers[25].out_shape == (21, 26, 13)

    def test_640_head_grids(self):
        g = build_graph(load_config(reference_config_path(640)))
        assert [l.out_shape for l in g.yolo_layers] == [(21, 20, 20), (21, 40, 40)]

    def test_three_class_variant(self):
        specs = load_config(reference_config_path(416))
        out = []
        for s in specs:
            if isinstance(s, Yolo):
                out.append(dataclasses.replace(s, classes=3))
            elif isinstance(s, Convolutional) and s.filters == 21:
                out.append(dataclasses.replace(s, filters=24))
            else:
                out.append(s)
        g = build_graph(out)
        assert [l.out_shape[0] for l in g.yolo_layers] == [24, 24]

    def test_headless_graph_allowed(self):
        g = build_graph([NET8, CONV, Maxpool(size=2, stride=2, padding=0)])
        assert g.layers[-1].out_shape == (4, 4, 4)
        assert g.yolo_layers == []

    def test_specs_must_start_with_net_params(self):
        for specs in ([], [CONV], [CONV, NET8]):
            with pytest.raises(GraphError, match="NetParams"):
                build_graph(specs)


DOWN = Convolutional(filters=4, size=3, stride=2, pad=True, batch_normalize=True,
                     activation="leaky")


class TestBuildErrors:
    @pytest.mark.parametrize("specs, message", [
        ([NET8, Convolutional(filters=1, size=9)],
         "layer 0: conv 9x9 does not fit input 8x8"),
        ([NetParams(width=8, height=2, channels=3), Convolutional(filters=1, size=3)],
         "layer 0: conv 3x3 does not fit input 2x8"),
        ([NET8, DOWN, Convolutional(filters=1, size=5)],
         "layer 1: conv 5x5 does not fit input 4x4"),
        ([NET8, Maxpool(size=13, stride=1, padding=2)],
         "layer 0: pool window 13 larger than input 8x8 with padding 2"),
        ([NET8, CONV, Maxpool(size=3, stride=1, padding=0), Maxpool(size=8, stride=1)],
         "layer 2: pool window 8 larger than input 6x6 with padding 0"),
        ([NET8, CONV, Route(layers=(1,))],
         "layer 1: route references (1,) must point at earlier layers"),
        ([NET8, CONV, Route(layers=(0, -1))],
         "layer 1: route references (0, -1) must point at earlier layers"),
        ([NET8, CONV, DOWN, Route(layers=(0, 1))],
         "layer 2: route sources disagree on spatial shape: [(4, 8, 8), (4, 4, 4)]"),
        ([NET8, CONV, Route(layers=())],
         "layer 1: route sources disagree on spatial shape: []"),
        ([NET8, Shortcut(from_layer=0)],
         "layer 0: shortcut from 0 must point at an earlier layer"),
        ([NET8, CONV, Shortcut(from_layer=-1)],
         "layer 1: shortcut from -1 must point at an earlier layer"),
        ([NET8, CONV, DOWN, Shortcut(from_layer=0)],
         "layer 2: shortcut spatial mismatch (4, 4, 4) vs (4, 8, 8)"),
        ([NET8, CONV, YOLO1],
         "layer 1: yolo expects 7 input channels (1 anchors x (5 + 2 classes)) but gets 4"),
        ([NET8, CONV, NET8],
         "layer 1: unsupported spec NetParams"),
    ])
    def test_rejected_with_its_message(self, specs, message):
        with pytest.raises(GraphError) as info:
            build_graph(specs)
        assert str(info.value) == message

    def test_conv_does_not_fit(self):
        big = Convolutional(filters=1, size=9, activation="linear")
        with pytest.raises(GraphError, match="does not"):
            build_graph([NET8, big])

    def test_pool_window_too_large(self):
        with pytest.raises(GraphError, match="pool window"):
            build_graph([NET8, Maxpool(size=13, stride=1, padding=2)])

    def test_shortcut_spatial_mismatch(self):
        down = Convolutional(filters=4, size=3, stride=2, pad=True,
                             batch_normalize=True, activation="leaky")
        with pytest.raises(GraphError, match="spatial"):
            build_graph([NET8, CONV, down, Shortcut(from_layer=0, activation="linear")])

    def test_route_spatial_mismatch(self):
        down = Convolutional(filters=4, size=3, stride=2, pad=True,
                             batch_normalize=True, activation="leaky")
        with pytest.raises(GraphError, match="spatial"):
            build_graph([NET8, CONV, down, Route(layers=(0, 1))])

    def test_yolo_channel_mismatch(self):
        # mask of 1 with 2 classes wants 7 channels, conv provides 4
        with pytest.raises(GraphError, match="channels"):
            build_graph([NET8, CONV, YOLO1])

    def test_yolo_feeding_another_layer(self):
        conv7 = Convolutional(filters=7, size=1, activation="linear")
        with pytest.raises(GraphError, match="yolo"):
            build_graph([NET8, conv7, YOLO1, Upsample(stride=2)])

    def test_dead_branch_rejected_when_heads_exist(self):
        conv7 = Convolutional(filters=7, size=1, activation="linear")
        spur = Convolutional(filters=3, size=1, activation="linear")
        with pytest.raises(GraphError, match="dead"):
            build_graph([NET8, conv7, spur, Route(layers=(0,)), YOLO1])


class TestForward:
    def test_zero_weights_zero_heads(self, tiny_graph):
        for layer in tiny_graph.layers:
            if isinstance(layer.spec, Convolutional):
                from littleyolo.tensor import BatchNorm, ConvParams
                n, c, k = layer.spec.filters, layer.in_channels, layer.spec.size
                bn = None
                if layer.spec.batch_normalize:
                    bn = BatchNorm(gamma=np.ones(n, np.float32),
                                   mean=np.zeros(n, np.float32),
                                   var=np.ones(n, np.float32))
                layer.params = ConvParams(
                    weights=np.zeros((n, c, k, k), np.float32),
                    bias=np.zeros(n, np.float32),
                    stride=layer.spec.stride, padding=layer.spec.padding,
                    batch_norm=bn)
        heads = forward(tiny_graph, np.ones(tiny_graph.input_shape, np.float32))
        for out in heads.values():
            np.testing.assert_array_equal(out, np.zeros_like(out))

    def test_head_shapes_and_determinism(self, tiny_graph):
        init_random(tiny_graph, seed=3)
        x = np.random.default_rng(0).uniform(0, 1, tiny_graph.input_shape).astype(np.float32)
        heads = forward(tiny_graph, x)
        assert {i: o.shape for i, o in heads.items()} == \
            {l.index: l.out_shape for l in tiny_graph.yolo_layers}
        heads2 = forward(tiny_graph, x)
        for i in heads:
            np.testing.assert_array_equal(heads[i], heads2[i])
            assert np.isfinite(heads[i]).all()

    def test_input_shape_checked(self, tiny_graph):
        init_random(tiny_graph, seed=3)
        with pytest.raises(ShapeError, match="input"):
            forward(tiny_graph, np.zeros((3, 16, 16), np.float32))

    def test_unpopulated_rejected(self, tiny_graph):
        with pytest.raises(GraphError, match="unpopulated"):
            forward(tiny_graph, np.zeros(tiny_graph.input_shape, np.float32))

    def test_shortcut_and_route_wiring_numeric(self):
        # conv A (identity), conv B (x2), shortcut adds them: 1 -> 1*2 + 1 = 3
        from littleyolo.tensor import ConvParams
        ident = Convolutional(filters=1, size=1, activation="linear")
        double = Convolutional(filters=1, size=1, activation="linear")
        g = build_graph([NetParams(width=2, height=2, channels=1),
                         ident, double, Shortcut(from_layer=0, activation="linear")])
        g.layers[0].params = ConvParams(weights=np.ones((1, 1, 1, 1), np.float32),
                                        bias=np.zeros(1, np.float32))
        g.layers[1].params = ConvParams(weights=np.full((1, 1, 1, 1), 2, np.float32),
                                        bias=np.zeros(1, np.float32))
        heads = forward(g, np.ones((1, 2, 2), np.float32))
        assert heads == {}  # headless nets run; nothing to collect

    def test_reference_forward_smoke(self, ref_graph_randomized):
        x = np.full(ref_graph_randomized.input_shape, 0.5, np.float32)
        heads = forward(ref_graph_randomized, x)
        assert sorted(heads) == [25, 32]
        assert heads[25].shape == (21, 13, 13)
        assert heads[32].shape == (21, 26, 26)
        assert all(np.isfinite(v).all() for v in heads.values())


# Every op kind forward runs, with leaky/linear convs (with and without
# batch norm), a leaky shortcut, a pool, two routes and an upsample.
MIXED_CFG = """\
[net]
width=16
height=16
channels=3

[convolutional]
filters=8
size=3
stride=1
pad=1
batch_normalize=1
activation=leaky

[convolutional]
filters=8
size=3
stride=2
pad=1
batch_normalize=1
activation=leaky

[convolutional]
filters=8
size=1
stride=1
activation=linear

[shortcut]
from=-2
activation=leaky

[maxpool]
size=3
stride=1

[route]
layers=-1,-3

[convolutional]
filters=14
size=1
stride=1
activation=linear

[yolo]
mask=2,3
anchors=4,4, 6,6, 8,8, 16,16
classes=2

[route]
layers=3

[upsample]
stride=2

[route]
layers=-1,0

[convolutional]
filters=14
size=3
stride=1
pad=1
batch_normalize=1
activation=linear

[yolo]
mask=0,1
anchors=4,4, 6,6, 8,8, 16,16
classes=2
"""


# Three shortcuts: layer 3's current (layer 2) is read again by the route
# at 5, layer 7 adds layer 6 to itself, and layer 9's current is read by no
# later layer.
SHORTCUT_CFG = """\
[net]
width=12
height=12
channels=3

[convolutional]
filters=8
size=3
stride=1
pad=1
batch_normalize=1
activation=leaky

[convolutional]
filters=8
size=3
stride=1
pad=1
batch_normalize=1
activation=leaky

[convolutional]
filters=8
size=1
stride=1
activation=linear

[shortcut]
from=-2
activation=leaky

[convolutional]
filters=8
size=1
stride=1
activation=leaky

[route]
layers=-1,-3

[convolutional]
filters=8
size=1
stride=1
activation=linear

[shortcut]
from=-1
activation=linear

[convolutional]
filters=8
size=3
stride=1
pad=1
activation=leaky

[shortcut]
from=-2
activation=leaky

[convolutional]
filters=14
size=1
stride=1
activation=linear

[yolo]
mask=0,1
anchors=4,4, 6,6
classes=2
"""


def mixed_graph(seed=0, cfg=MIXED_CFG):
    """cfg (MIXED_CFG by default) with random weights, biases and batch-norm
    statistics."""
    from littleyolo.config import lower_to_specs, parse_config
    from littleyolo.tensor import BatchNorm, ConvParams
    g = build_graph(lower_to_specs(parse_config(cfg)))
    rng = np.random.default_rng(seed)
    for layer in g.layers:
        spec = layer.spec
        if not isinstance(spec, Convolutional):
            continue
        n, c, k = spec.filters, layer.in_channels, spec.size
        bn = None
        if spec.batch_normalize:
            bn = BatchNorm(gamma=rng.uniform(0.5, 2, n).astype(np.float32),
                           mean=rng.uniform(-0.5, 0.5, n).astype(np.float32),
                           var=rng.uniform(0.1, 2, n).astype(np.float32))
        layer.params = ConvParams(
            weights=rng.uniform(-0.5, 0.5, (n, c, k, k)).astype(np.float32),
            bias=rng.uniform(-0.5, 0.5, n).astype(np.float32),
            stride=spec.stride, padding=spec.padding, batch_norm=bn)
    return g


def assert_heads_match_seed(graph, x, blas_threads=None):
    """forward's heads equal forward_seed's; with blas_threads, forward runs
    with numpy's BLAS held to that many threads and the oracle does not."""
    if blas_threads is None:
        heads = forward(graph, x)
    else:
        with tensor.blas_threads(blas_threads):
            assert tensor.blas_thread_count() in (None, blas_threads)
            heads = forward(graph, x)
    want = forward_seed(graph, x)
    assert sorted(heads) == sorted(want) == [l.index for l in graph.yolo_layers]
    for i in want:
        assert heads[i].dtype == want[i].dtype
        assert np.array_equal(heads[i], want[i]), f"head {i} differs"


class TestForwardMatchesSeed:
    def test_reference_graph(self, ref_graph_randomized):
        x = np.random.default_rng(1).uniform(0, 1, ref_graph_randomized.input_shape)
        assert_heads_match_seed(ref_graph_randomized, x.astype(np.float32))

    def test_reference_graph_640(self, ref_graph_randomized_640):
        # Layer 2's column matrix is 236 MB here: it runs in 30 bands of 11
        # rows, the last one a single row.
        g = ref_graph_randomized_640
        x = np.random.default_rng(5).uniform(0, 1, g.input_shape)
        assert_heads_match_seed(g, x.astype(np.float32))

    # One BLAS thread is what each of two directory workers gets on a
    # 2-thread host; the heads must not depend on the thread count.
    def test_reference_graph_one_blas_thread(self, ref_graph_randomized):
        x = np.random.default_rng(1).uniform(0, 1, ref_graph_randomized.input_shape)
        assert_heads_match_seed(ref_graph_randomized, x.astype(np.float32), blas_threads=1)

    def test_reference_graph_640_one_blas_thread(self, ref_graph_randomized_640):
        g = ref_graph_randomized_640
        x = np.random.default_rng(5).uniform(0, 1, g.input_shape)
        assert_heads_match_seed(g, x.astype(np.float32), blas_threads=1)

    def test_tiny_graph(self, tiny_graph):
        init_random(tiny_graph, seed=4)
        x = np.random.default_rng(2).uniform(0, 1, tiny_graph.input_shape)
        assert_heads_match_seed(tiny_graph, x.astype(np.float32))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mixed_graph(self, seed):
        g = mixed_graph(seed)
        x = np.random.default_rng(seed + 10).standard_normal(g.input_shape)
        assert_heads_match_seed(g, x.astype(np.float32))

    def test_caller_input_unchanged(self):
        g = mixed_graph()
        x = np.random.default_rng(3).standard_normal(g.input_shape).astype(np.float32)
        before = x.copy()
        forward(g, x)
        np.testing.assert_array_equal(x, before)

    def test_shortcut_adds_in_place_only_into_a_dead_current(self, monkeypatch):
        # only layer 9's shortcut may write into its current
        g = mixed_graph(cfg=SHORTCUT_CFG)
        calls = []

        def spy(current, skip, out=None):
            calls.append(out is current)
            return shortcut_add(current, skip, out=out)

        monkeypatch.setattr(tensor, "shortcut_add", spy)
        x = np.random.default_rng(6).standard_normal(g.input_shape).astype(np.float32)
        before = x.copy()
        assert_heads_match_seed(g, x)  # forward, then the oracle's copying adds
        np.testing.assert_array_equal(x, before)
        assert calls == [False, False, True] + [False] * 3


def letterboxed(graph, width, height, seed=0):
    """A noise frame of width x height, letterboxed onto graph's input."""
    image = np.random.default_rng(seed).integers(0, 256, (3, height, width), np.uint8)
    _, net_h, net_w = graph.input_shape
    return pipeline.letterbox(image, net_w, net_h)[0]


def no_repeats(x):
    return np.zeros(x.shape[1] - 1, dtype=bool)


FRAMES = [(640, 480), (1280, 720), (480, 640)]  # 4:3, 16:9, portrait


class TestRepeatedRows:
    """forward computes each run of repeated letterbox rows once."""

    def test_input_mask(self):
        x = np.zeros((2, 5, 3), np.float32)
        x[:, 2] = 1
        x[1, 4, 2] = -0.0  # equal to 0.0, but not bitwise
        assert graph_mod.repeated_rows(x).tolist() == [True, False, False, False]
        assert graph_mod.repeated_rows(np.full((3, 4, 4), np.nan, np.float32)).all()

    def check_heads(self, graph, monkeypatch, width, height):
        x = letterboxed(graph, width, height)
        heads = forward(graph, x)
        monkeypatch.setattr(graph_mod, "repeated_rows", no_repeats)
        want = forward(graph, x)
        monkeypatch.undo()
        assert sorted(heads) == sorted(want)
        for i in want:
            assert heads[i].tobytes() == want[i].tobytes(), f"head {i} differs"

    @pytest.mark.parametrize("width, height", FRAMES)
    def test_heads_unchanged_416(self, ref_graph_randomized, monkeypatch, width, height):
        self.check_heads(ref_graph_randomized, monkeypatch, width, height)

    @pytest.mark.parametrize("width, height", FRAMES)
    def test_heads_unchanged_640(self, ref_graph_randomized_640, monkeypatch, width,
                                 height):
        self.check_heads(ref_graph_randomized_640, monkeypatch, width, height)

    @pytest.mark.parametrize("width, height", FRAMES)
    def test_masks_claim_only_equal_rows(self, ref_graph_randomized, monkeypatch,
                                         width, height):
        # every layer's mask, against the seed oracle's output of that layer
        g = ref_graph_randomized
        masks = {}
        output_repeats = graph_mod._output_repeats

        def spy(layer, inputs):
            masks[layer.index] = mask = output_repeats(layer, inputs)
            return mask

        monkeypatch.setattr(graph_mod, "_output_repeats", spy)
        x = letterboxed(g, width, height)
        forward(g, x)
        outputs = layer_outputs_seed(g, x)
        assert sorted(masks) == [l.index for l in g.layers]
        for i, out in enumerate(outputs):
            assert masks[i].shape == (out.shape[1] - 1,)
            bits = out.view(np.uint32)
            for y in np.flatnonzero(masks[i]):
                assert (bits[:, y + 1] == bits[:, y]).all(), f"layer {i} row {y + 1}"
        # A landscape frame's pad rows repeat down to the 52x52 maps (layer
        # 8). A portrait frame pads columns: only the upsample's copies of
        # each source row repeat, and its route with layer 14 ends them.
        landscape = width > height
        assert (masks[0].sum() > 40) == landscape
        assert masks[8].any() == landscape
        assert masks[28].sum() >= 13
        assert not any(masks[i].any() for i in range(29, 33))
        if not landscape:
            assert not any(masks[i].any() for i in range(28))

    def test_nan_pad_band_raises(self, ref_graph_randomized, monkeypatch):
        # the NaN pad rows are equal bit for bit, so all but the first are
        # copied, and the copies are NaN as well
        monkeypatch.setattr(pipeline, "GRAY_FILL", np.nan)
        image = np.random.default_rng(2).uniform(0, 1, (3, 360, 640))
        with pytest.raises(ValueError, match="head output is not finite"):
            pipeline.detect(ref_graph_randomized, image)


class TestLiveness:
    def test_each_output_freed_once_at_last_use(self):
        g = mixed_graph()
        freed = [(ref, l.index) for l in g.layers for ref in l.frees]
        assert sorted(ref for ref, _ in freed) == \
            sorted({ref for l in g.layers for ref in l.inputs})
        for ref, at in freed:
            assert at == max(l.index for l in g.layers if ref in l.inputs)
        heads = {l.index for l in g.yolo_layers}
        assert not heads & {ref for ref, _ in freed}

    def test_reference_pyramid_sources_live_until_concat(self, ref_graph_416):
        # SPP concat (layer 21) is the last reader of 20, 19, 17 and 16
        assert ref_graph_416.layers[21].frees == (16, 17, 19, 20)
        assert ref_graph_416.layers[0].frees == (-1,)

    def test_reference_forward_peak_memory(self, ref_graph_randomized):
        # Building layer 2's whole 99.7 MB float64 column matrix peaked at
        # 127.5 MB, and casting layer 16's weights whole at 47.6 MB; row
        # bands and filter blocks keep the pass at ~27 MB (~29 MB with a
        # padded copy of each band's input rows). Layer 12's conv buffers
        # set the peak: 26.8 MB with layer 0 streamed and its 12.5 MB column
        # matrix whole, 21.6 MB with those columns in 8 MB bands.
        peak = traced_forward_peak(ref_graph_randomized)
        assert peak <= 22.5e6, f"forward peaked at {peak / 1e6:.1f} MB"

    def test_reference_forward_peak_memory_640(self, ref_graph_randomized_640):
        # Layer 2's whole column matrix is 235.9 MB here (peak 301.6 MB). A
        # padded copy of layer 1's 26.2 MB input, and full-size temporaries
        # of leaky and the shortcut, took the banded pass to 75.7 MB; ~51 MB
        # without them, ~49.5 MB without a padded copy of each band's rows,
        # ~39 MB with layers 0-3 streamed (layer 16's conv buffers: a 16.8 MB
        # weight block and 14.7 MB of columns). With 9.4 MB weight blocks,
        # 8 MB column bands and layers 6-7 streamed too, layer 8's maps and
        # conv buffers set it at 30.6 MB.
        peak = traced_forward_peak(ref_graph_randomized_640)
        assert peak <= 31.6e6, f"forward peaked at {peak / 1e6:.1f} MB"

    @pytest.mark.skipif(sys.implementation.name != "cpython" or sys.version_info < (3, 11),
                        reason="before CPython 3.11 the caller holds a call's "
                               "arguments until the call returns")
    def test_input_handed_over_is_freed_after_its_last_reader(self, tiny_graph,
                                                              monkeypatch):
        # layer 0 is the input's only reader; layer 1 is a conv
        init_random(tiny_graph, seed=0)
        handed = [np.full(tiny_graph.input_shape, 0.5, np.float32)]
        ref = weakref.ref(handed[0])
        alive, conv2d = [], tensor.conv2d

        def watched(x, params, repeats=None):
            alive.append(ref() is not None)
            return conv2d(x, params, repeats)
        monkeypatch.setattr(tensor, "conv2d", watched)
        forward(tiny_graph, handed.pop())
        assert alive[:2] == [True, False]

    @pytest.mark.skipif(sys.implementation.name != "cpython" or sys.version_info < (3, 11),
                        reason="before CPython 3.11 the caller holds a call's "
                               "arguments until the call returns")
    def test_input_handed_over_is_freed_when_the_stem_returns(self, ref_graph_randomized,
                                                              monkeypatch):
        # at 416 layer 0 is streamed into layer 1 (12 calls), then layers 2-3
        # into layer 4
        g = ref_graph_randomized
        handed = [np.full(g.input_shape, 0.5, np.float32)]
        ref = weakref.ref(handed[0])
        alive, conv2d = [], tensor.conv2d

        def watched(x, params, *args, **kwargs):
            alive.append((kwargs.get("rows") is not None, ref() is not None))
            return conv2d(x, params, *args, **kwargs)
        monkeypatch.setattr(tensor, "conv2d", watched)
        forward(g, handed.pop())
        assert alive[:13] == [(True, True)] * 12 + [(True, False)]


@st.composite
def stem_cases(draw):
    """(cfg, frame width, frame height): a chain of 1-6 layers on an 8-64 px
    net, then a 1x1 conv and a yolo head. The chain draws convs (1x1 or 3x3,
    stride 1 or 2, batch norm or not, leaky or linear), maxpools (size 2-5,
    stride 1-2), shortcuts to and routes with earlier layers of the same
    shape, x2 upsamples (of maps up to 32 px), and at most one more head, a
    1x1 conv and yolo off the chain, after which a route resumes the chain.
    The frame is wider than the net, so its letterbox has pad rows."""
    net_w, net_h = draw(st.integers(8, 64)), draw(st.integers(8, 64))
    sections = [f"[net]\nwidth={net_w}\nheight={net_h}\nchannels=3"]
    h, w, shapes = net_h, net_w, []  # shapes[j]: layer j's (h, w), None for a head's
    head = "[convolutional]\nfilters=6\nsize=1\nstride=1\nactivation=linear\n\n" \
           "[yolo]\nmask=0\nanchors=4,4\nclasses=1"
    for _ in range(draw(st.integers(1, 6))):
        act = draw(st.sampled_from(["leaky", "linear"]))
        prev = len(shapes) - 1
        same = [j for j, shape in enumerate(shapes) if shape == (h, w)]
        kind = draw(st.sampled_from(["conv", "conv", "shortcut", "maxpool", "route",
                                     "upsample", "head"]))
        if kind == "shortcut" and same:
            sections.append(f"[shortcut]\nfrom={draw(st.sampled_from(same))}\n"
                            f"activation={act}")
        elif kind == "maxpool":
            size, s = draw(st.integers(2, 5)), draw(st.integers(1, 2))
            sections.append(f"[maxpool]\nsize={size}\nstride={s}")
            h, w = (conv_output_size(e, size, s, size // 2) for e in (h, w))
        elif kind == "route" and len(same) > 1:
            # the previous layer and another of its shape, in either order
            refs = [prev, draw(st.sampled_from(same[:-1]))][::draw(st.sampled_from([1, -1]))]
            sections.append(f"[route]\nlayers={refs[0]},{refs[1]}")
        elif kind == "upsample" and max(h, w) <= 32:
            sections.append("[upsample]\nstride=2")
            h, w = 2 * h, 2 * w
        elif kind == "head" and same and None not in shapes:
            sections += [head, f"[route]\nlayers={prev}"]
            shapes += [None, None]
        else:
            k, s = draw(st.sampled_from([1, 3])), draw(st.sampled_from([1, 2]))
            sections.append(f"[convolutional]\nfilters={draw(st.integers(1, 4))}\n"
                            f"size={k}\nstride={s}\npad=1\n"
                            f"batch_normalize={int(draw(st.booleans()))}\n"
                            f"activation={act}")
            h, w = (conv_output_size(e, k, s, k // 2) for e in (h, w))
        shapes.append((h, w))
    sections.append(head)
    frame_w = draw(st.integers(8, 64))
    frame_h = draw(st.integers(2, max(2, frame_w * net_h // net_w - 1)))
    return "\n\n".join(sections) + "\n", frame_w, frame_h


def conv_section(draw, stride):
    k = draw(st.sampled_from([1, 3]))
    return (k, f"[convolutional]\nfilters={draw(st.integers(1, 4))}\nsize={k}\n"
               f"stride={stride}\npad=1\nbatch_normalize={int(draw(st.booleans()))}\n"
               f"activation={draw(st.sampled_from(['leaky', 'linear']))}")


@st.composite
def run_cases(draw):
    """(cfg, frame width, frame height, first): a prefix of 1-2 stride-2
    convs and 0-1 stride-1 convs, whose small maps are not streamed, then
    from layer `first` a run of 0-2 stride-1 convs, a shortcut from a prefix
    layer, and 0-2 convs (stride 1 or 2) or shortcuts, into a 1x1 conv and
    one yolo head, on a 16-64 px net; the frame's letterbox has pad rows.
    A run that starts with the shortcut may add it in place into the
    prefix's last map."""
    net_w, net_h = draw(st.integers(16, 64)), draw(st.integers(16, 64))
    sections = [f"[net]\nwidth={net_w}\nheight={net_h}\nchannels=3"]
    h, w, shapes = net_h, net_w, []
    for _ in range(draw(st.integers(1, 2))):
        k, section = conv_section(draw, 2)
        sections.append(section)
        h, w = (conv_output_size(e, k, 2, k // 2) for e in (h, w))
        shapes.append((h, w))
    prefix = shapes + [(h, w)] * draw(st.integers(0, 1))
    first = len(prefix)
    for n in (first - len(shapes), draw(st.integers(0, 2))):
        sections += [conv_section(draw, 1)[1] for _ in range(n)]
        shapes += [(h, w)] * n
    source = draw(st.sampled_from([j for j in range(first) if shapes[j] == (h, w)]))
    sections.append(f"[shortcut]\nfrom={source}\nactivation=leaky")
    shapes.append((h, w))
    for _ in range(draw(st.integers(0, 2))):
        same = [j for j, shape in enumerate(shapes) if shape == (h, w)]
        if draw(st.booleans()):
            sections.append(f"[shortcut]\nfrom={draw(st.sampled_from(same))}\n"
                            "activation=linear")
        else:
            s = draw(st.sampled_from([1, 2]))
            k, section = conv_section(draw, s)
            sections.append(section)
            h, w = (conv_output_size(e, k, s, k // 2) for e in (h, w))
        shapes.append((h, w))
    sections += ["[convolutional]\nfilters=6\nsize=1\nstride=1\nactivation=linear",
                 "[yolo]\nmask=0\nanchors=4,4\nclasses=1"]
    frame_w = draw(st.integers(8, 64))
    frame_h = draw(st.integers(2, max(2, frame_w * net_h // net_w - 1)))
    return "\n\n".join(sections) + "\n", frame_w, frame_h, first


class TestStem:
    """forward streams runs of large maps a band of rows at a time; the heads
    do not change."""

    def test_rule(self, ref_graph_416, ref_graph_randomized_640, tiny_graph):
        # at 640 layers 0-3 hold 13.1-26.2 MB each, layer 4 3.3 MB, layer 5
        # 6.6 MB and layers 6-7 13.1 MB; at 416 layer 0 holds 11.1 MB, layer 1
        # 5.5 MB and layers 2-3 11.1 MB
        assert graph_mod._runs(ref_graph_randomized_640) == {0: 4, 6: 8}
        assert graph_mod._runs(ref_graph_416) == {0: 1, 2: 4}
        assert graph_mod._runs(tiny_graph) == graph_mod._runs(mixed_graph()) == {}

    def test_rule_cut_back_to_a_conv_consumer_no_later_layer_reads_past(self):
        # Every map taken. SHORTCUT_CFG: the first run of conv and shortcut
        # layers ends at route 5, which reads layer 2, and shortcut 3 reads
        # layer 1, so only layer 0 streams, into conv 1; the second, layers
        # 6-9, streams whole into conv 10. MIXED_CFG: route 10 reads layer 0,
        # and convs 6 and 11 feed yolo heads, so nothing streams.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph_mod, "_streams", lambda layer: True)
            assert graph_mod._runs(mixed_graph(cfg=SHORTCUT_CFG)) == {0: 1, 6: 10}
            assert graph_mod._runs(mixed_graph()) == {}

    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(stem_cases(), st.integers(1, 8), st.sampled_from([1, 3, None]),
           st.integers(0, 2 ** 16))
    # the shortcut is layer 0's lowest reader: the 1x1 conv reads no row above
    @example(("[net]\nwidth=16\nheight=16\nchannels=3\n\n" + "\n\n".join(
        f"[convolutional]\nfilters=2\nsize={k}\nstride=1\npad=1\nactivation=leaky"
        for k in (3, 1, 3)) + "\n\n[shortcut]\nfrom=0\nactivation=linear\n\n"
        "[convolutional]\nfilters=6\nsize=1\nstride=1\nactivation=linear\n\n"
        "[yolo]\nmask=0\nanchors=4,4\nclasses=1\n", 40, 20), 8, 1, 0)
    def test_streamed_heads_equal_seed_and_unstreamed(self, case, streamed, band, seed):
        # whole: the pass with no run streamed and no row marked
        cfg, frame_w, frame_h = case
        g = mixed_graph(seed, cfg)
        x = letterboxed(g, frame_w, frame_h, seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph_mod, "_streams", lambda layer: layer.index < streamed)
            if band is not None:  # stem steps and conv bands of `band` rows
                mp.setattr(tensor, "_band_rows", lambda c, k, oh, ow: min(band, oh))
            assume(graph_mod._runs(g))
            heads = forward(g, x)
            mp.setattr(graph_mod, "_streams", lambda layer: False)
            mp.setattr(graph_mod, "repeated_rows", no_repeats)
            whole = forward(g, x)
        want = forward_seed(g, x)
        assert sorted(heads) == sorted(whole) == sorted(want)
        for i in want:
            assert heads[i].tobytes() == want[i].tobytes() == whole[i].tobytes()

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(run_cases(), st.sampled_from([1, 3, None]), st.integers(0, 2 ** 16))
    # the run starts with shortcut 2, which adds layer 0 in place into layer 1
    @example(("[net]\nwidth=16\nheight=16\nchannels=3\n\n" + "\n\n".join(
        f"[convolutional]\nfilters=2\nsize=3\nstride={s}\npad=1\nactivation=leaky"
        for s in (2, 1)) + "\n\n[shortcut]\nfrom=0\nactivation=leaky\n\n"
        "[convolutional]\nfilters=6\nsize=1\nstride=1\nactivation=linear\n\n"
        "[yolo]\nmask=0\nanchors=4,4\nclasses=1\n", 40, 20, 2), 1, 0)
    def test_run_after_layer_0_heads_equal_seed_and_unstreamed(self, case, band, seed):
        # the run reads the prefix's last map whole, as its input or as a
        # shortcut's source, or both
        cfg, frame_w, frame_h, first = case
        g = mixed_graph(seed, cfg)
        x = letterboxed(g, frame_w, frame_h, seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph_mod, "_streams", lambda layer: False)
            whole = forward(g, x)
            mp.setattr(graph_mod, "_streams", lambda layer: layer.index >= first)
            if band is not None:  # run steps and conv bands of `band` rows
                mp.setattr(tensor, "_band_rows", lambda c, k, oh, ow: min(band, oh))
            assert graph_mod._runs(g) == {first: len(g.layers) - 2}
            heads = forward(g, x)
        want = forward_seed(g, x)
        assert sorted(heads) == sorted(whole) == sorted(want)
        for i in want:
            assert heads[i].tobytes() == want[i].tobytes() == whole[i].tobytes()

    def test_reference_640_buffers(self, ref_graph_randomized_640):
        # Layer 4 makes 11 rows a step (its 8 MB column band), and its first
        # step reads 22 rows of layer 3. Layer 3 adds in place into layer 2's
        # buffer, which holds 23 rows: the stride-2 windows of the next step
        # start one row back. Likewise layer 1 holds 24 rows, layer 0 46.
        layers = ref_graph_randomized_640.layers
        steps, store, shapes = graph_mod._run_plan(ref_graph_randomized_640, layers[:5])
        assert len(steps) == 15 and steps[0][0] == {0: 46, 1: 23, 2: 22, 3: 22, 4: 11}
        assert store == {-1: -1, 0: 0, 1: 1, 2: 2, 3: 2}
        assert shapes == {0: (16, 46, 640), 1: (32, 24, 320), 2: (64, 23, 320)}
        # Layers 6-7 into layer 8, 11 rows a step as well: layer 5 (the
        # input) and layer 4 (shortcut 7's source) are read whole, and
        # shortcut 7 adds in place into layer 6's 23-row buffer.
        steps, store, shapes = graph_mod._run_plan(ref_graph_randomized_640, layers[6:9])
        assert len(steps) == 8 and steps[0][0] == {6: 22, 7: 22, 8: 11}
        assert store == {4: 4, 5: 5, 6: 6, 7: 6}
        assert shapes == {6: (128, 23, 160)}


def traced_forward_peak(graph):
    import tracemalloc
    # noise, so that no run of rows repeats and every band is computed
    x = np.random.default_rng(0).uniform(0, 1, graph.input_shape).astype(np.float32)
    tracemalloc.start()
    try:
        forward(graph, x)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestReporting:
    def test_layer_table_rows(self, ref_graph_416):
        table = layer_table(ref_graph_416)
        lines = table.splitlines()
        assert len(lines) == 34  # header + 33 layers
        assert "4096 x 13 x 13" in table
        assert "21 x 26 x 26" in lines[-1]
        assert lines[0].split() == ["idx", "type", "filters", "size/stride", "params",
                                    "GFLOP", "live", "MB", "output"]
        # layer 0: 16 * (3x3 * 3 channels) weights + 16 * 4 bias and batch-norm;
        # 2 * 3x3 * 3 channels * 16 filters * 416 * 416 FLOPs
        assert lines[1].split()[4:6] == ["496", "0.150"]
        convs = [(l, line.split()) for l, line in zip(ref_graph_416.layers, lines[1:])
                 if isinstance(l.spec, Convolutional)]
        params = {l.index: int(cols[4]) for l, cols in convs}
        gflop = {l.index: float(cols[5]) for l, cols in convs}
        assert all(gflop[i] == round(layer_flops(ref_graph_416.layers[i]) / 1e9, 3)
                   for i in gflop)
        assert sum(gflop.values()) == pytest.approx(flops(ref_graph_416), abs=0.01)
        assert sum(params.values()) == param_count(ref_graph_416) == 12_455_962
        assert ("shortcut            1                                     8.79  64 x 208 x 208"
                in table)
        # live MB is live_bytes. Layer 0 is streamed into layer 1, which makes
        # 35 rows a step (its 8 MB column band) from 71 rows of layer 0: while
        # either runs, forward holds the 3x416x416 input, a 16x71x416 buffer
        # and layer 1's whole 32x208x208 output. Layers 2-3 are streamed into
        # layer 4, 17 rows a step: forward holds layer 1's output (shortcut
        # 3's source), a 64x35x208 buffer and layer 4's 32x104x104 output.
        live = [float(line.split()[-6]) for line in lines[1:]]
        assert live == [round(b / 1e6, 2) for b in live_bytes(ref_graph_416)]
        first = (3 * 416 * 416 + 16 * 71 * 416 + 32 * 208 * 208) * 4
        second = (32 * 208 * 208 + 64 * 35 * 208 + 32 * 104 * 104) * 4
        assert live[:5] == [round(first / 1e6, 2)] * 2 + [round(second / 1e6, 2)] * 3

    @pytest.mark.parametrize("fixture", ["ref_graph_randomized", "ref_graph_randomized_640"])
    def test_maps_and_scratch_match_traced_peak(self, fixture, request):
        g = request.getfixturevalue(fixture)
        figure = max(a + b for a, b in zip(live_bytes(g), scratch_bytes(g)))
        peak = traced_forward_peak(g)
        assert abs(figure - peak) <= 1e6, f"{figure / 1e6:.2f} vs {peak / 1e6:.2f} MB"

    def test_scratch_bytes(self, ref_graph_416):
        # layer 16: its 1024 filters make four equal 9.4 MB float64 weight
        # blocks, and its 4608 x 169 columns and 1024 x 169 product are one
        # band
        scratch = scratch_bytes(ref_graph_416)
        assert scratch[16] == 8 * (256 * 4608 + (4608 + 1024) * 169)
        # streamed layer 0 makes at most 70 rows a call (layer 1's 35-row
        # steps at stride 2), within its own 93-row band
        assert scratch[0] == 8 * (16 * 27 + (27 + 16) * 70 * 416)
        assert all(scratch[l.index] == 0 for l in ref_graph_416.layers
                   if not isinstance(l.spec, Convolutional))

    def test_live_bytes_hand_count(self, tiny_graph):
        # TINY_CFG on a 3x32x32 input, 4 bytes a value: convs to 1x16x16,
        # 1x8x8, 1x4x4 and 14x4x4; yolo 4 passes 3 through; route 5 copies
        # 2 (its last reader); upsample 6 to 1x8x8; conv 7 to 14x8x8; yolo 8.
        # The yolo heads take over their inputs' bytes and are never freed.
        inp, c0, c1, c2, c3 = 3 * 32 * 32 * 4, 16 * 16 * 4, 8 * 8 * 4, 4 * 4 * 4, 14 * 16 * 4
        up, c7 = 8 * 8 * 4, 14 * 8 * 8 * 4
        assert live_bytes(tiny_graph) == [
            inp + c0,          # 0 reads the input, last
            c0 + c1,           # 1 frees 0
            c1 + c2,           # 2 frees 1
            c2 + c3,           # 3; 2 stays for route 5
            c2 + c3,           # 4 takes over 3
            c2 + c3 + c2,      # 5 copies 2 and frees it
            c3 + c2 + up,      # 6 frees 5
            c3 + up + c7,      # 7 frees 6
            c3 + c7,           # 8 takes over 7
        ]

    def test_param_count_headless(self):
        g = build_graph([NET8, CONV])
        # 4*3*3*3 weights + 4 bias + 12 bn
        assert param_count(g) == 108 + 4 + 12
