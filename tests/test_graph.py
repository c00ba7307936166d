import dataclasses

import numpy as np
import pytest

from littleyolo import tensor
from littleyolo.config import (Convolutional, Maxpool, NetParams, Route,
                               Shortcut, Upsample, Yolo, load_config,
                               reference_config_path)
from littleyolo.graph import (GraphError, build_graph, flops, forward,
                              layer_table, model_bytes, param_count)
from littleyolo.tensor import ShapeError, shortcut_add
from littleyolo.weights import init_random
from oracles import forward_seed

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


class TestBuildErrors:
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
        # bands and filter blocks keep the pass at ~29 MB.
        peak = traced_forward_peak(ref_graph_randomized)
        assert peak <= 32e6, f"forward peaked at {peak / 1e6:.1f} MB"

    def test_reference_forward_peak_memory_640(self, ref_graph_randomized_640):
        # Layer 2's whole column matrix is 235.9 MB here (peak 301.6 MB). A
        # padded copy of layer 1's 26.2 MB input, and full-size temporaries
        # of leaky and the shortcut, took the banded pass to 75.7 MB; ~51 MB
        # without them.
        peak = traced_forward_peak(ref_graph_randomized_640)
        assert peak <= 55e6, f"forward peaked at {peak / 1e6:.1f} MB"


def traced_forward_peak(graph):
    import tracemalloc
    x = np.full(graph.input_shape, 0.5, np.float32)
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

    def test_param_count_headless(self):
        g = build_graph([NET8, CONV])
        # 4*3*3*3 weights + 4 bias + 12 bn
        assert param_count(g) == 108 + 4 + 12
