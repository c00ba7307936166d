import ast
import re
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from littleyolo.config import load_config, reference_config_path
from littleyolo.graph import build_graph
from littleyolo import rng as rng_mod
from littleyolo import weights as weights_mod
from littleyolo.rng import uniform_stream
from littleyolo.weights import (HEADER_BYTES, WeightsError,
                                expected_file_size, init_random,
                                layer_param_count, load_weights,
                                load_weights_file, save_weights,
                                save_weights_file)
from conftest import fill_disk
from oracles import SplitMix64


class TestSplitMix64:
    """The scalar reference generator lives in oracles; the package keeps
    only the vectorized stream."""

    def test_stream_published_seed_zero_vector(self):
        # a unit draw is an output's top 53 bits, scaled by 2**-53
        published = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
        assert (uniform_stream(0, 3, 0.0, 1.0) * 2.0**53).tolist() == [
            v >> 11 for v in published]

    def test_published_seed_zero_vector(self):
        rng = SplitMix64(0)
        assert rng.next_u64() == 0xE220A8397B1DCDAF
        assert rng.next_u64() == 0x6E789E6AA1B965F4
        assert rng.next_u64() == 0x06C45D188009454F

    def test_stream_matches_scalar(self):
        scalar = SplitMix64(12345)
        want = [scalar.next_u64() for _ in range(100)]
        got = uniform_stream(12345, 100, 0.0, 1.0) * 2.0**53
        assert got.tolist() == [v >> 11 for v in want]

    def test_floats_in_unit_interval(self):
        rng = SplitMix64(7)
        vals = [rng.next_float() for _ in range(1000)]
        assert all(0.0 <= v < 1.0 for v in vals)

    def test_unit_stream_is_the_scalar_floats(self):
        # kmeanspp_seed draws from uniform_stream(seed, k, 0.0, 1.0)
        scalar = SplitMix64(2024)
        assert uniform_stream(2024, 200, 0.0, 1.0).tolist() == [
            scalar.next_float() for _ in range(200)]

    def test_streams_match_scalar_across_chunks(self, monkeypatch):
        # chunks of 7 draws: 100 draws end in a short chunk
        monkeypatch.setattr(rng_mod, "_CHUNK", 7)
        scalar = SplitMix64(99)
        want = [scalar.next_u64() for _ in range(100)]
        got = uniform_stream(99, 100, -0.1, 0.1)
        assert got.tolist() == [-0.1 + (v >> 11) * 2.0**-53 * 0.2 for v in want]

    def test_uniform_stream_memory(self):
        # 8 MB of draws plus ~2 MB of chunk buffers; full-size uint64
        # temporaries peaked at 24 MB
        tracemalloc.start()
        try:
            draws = uniform_stream(5, 1_000_000, -0.1, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert draws.nbytes == 8_000_000
        assert peak <= 11e6, f"uniform_stream peaked at {peak / 1e6:.1f} MB"

    def test_uniform_stream_into_float32_from_an_offset(self, monkeypatch):
        # init_random draws each layer's slice straight into its buffer
        monkeypatch.setattr(rng_mod, "_CHUNK", 7)
        whole = uniform_stream(4, 100, -0.1, 0.1)
        out = np.full(60, np.nan, dtype=np.float32)
        assert uniform_stream(4, 60, -0.1, 0.1, out=out, first=33) is out
        np.testing.assert_array_equal(out, whole[33:93].astype(np.float32))

    def test_uniform_stream_range_and_determinism(self):
        a = uniform_stream(9, 500, -0.1, 0.1)
        b = uniform_stream(9, 500, -0.1, 0.1)
        np.testing.assert_array_equal(a, b)
        assert a.min() >= -0.1 and a.max() < 0.1
        # a seed change moves every draw with overwhelming probability
        c = uniform_stream(10, 500, -0.1, 0.1)
        assert (a != c).all()

    def test_next_index_bounds(self):
        rng = SplitMix64(3)
        idx = [rng.next_index(7) for _ in range(200)]
        assert min(idx) >= 0 and max(idx) <= 6
        assert len(set(idx)) == 7  # every slot reachable

    def test_seed_wraps_modulo_64_bits(self):
        assert SplitMix64(2**64).next_u64() == SplitMix64(0).next_u64()


@pytest.fixture
def tiny_populated(tiny_graph):
    init_random(tiny_graph, seed=11)
    return tiny_graph


class TestRoundTrip:
    def test_byte_identity(self, tiny_populated):
        blob = save_weights(tiny_populated)
        g2 = build_graph_copy(tiny_populated)
        load_weights(g2, blob)
        assert save_weights(g2) == blob

    def test_arrays_identical(self, tiny_populated):
        blob = save_weights(tiny_populated)
        g2 = build_graph_copy(tiny_populated)
        load_weights(g2, blob)
        for a, b in zip(tiny_populated.layers, g2.layers):
            if a.params is None:
                assert b.params is None
                continue
            np.testing.assert_array_equal(a.params.weights, b.params.weights)
            np.testing.assert_array_equal(a.params.bias, b.params.bias)
            if a.params.batch_norm is not None:
                np.testing.assert_array_equal(a.params.batch_norm.gamma,
                                              b.params.batch_norm.gamma)

    def test_file_order_by_bytes(self):
        # each value is its position in the file: bias, gamma, mean, var,
        # weights of the batch-norm layer, then bias, weights of the plain one
        from littleyolo.config import Convolutional, NetParams
        from littleyolo.tensor import BatchNorm, ConvParams
        g = build_graph([NetParams(width=4, height=4, channels=3),
                         Convolutional(filters=2, batch_normalize=True),
                         Convolutional(filters=2)])
        values = np.arange(1, 21, dtype=np.float32)
        arrays = np.split(values, [2, 4, 6, 8, 14, 16])
        bias0, gamma, mean, var, weights0, bias1, weights1 = arrays
        g.layers[0].params = ConvParams(weights=weights0.reshape(2, 3, 1, 1), bias=bias0,
                                        batch_norm=BatchNorm(gamma, mean, var))
        g.layers[1].params = ConvParams(weights=weights1.reshape(2, 2, 1, 1), bias=bias1)
        blob = save_weights(g)
        assert blob[HEADER_BYTES:] == values.astype("<f4").tobytes()
        first, second = (l.params for l in load_weights(build_graph_copy(g), blob).layers)
        bn = first.batch_norm
        loaded = (first.bias, bn.gamma, bn.mean, bn.var, first.weights, second.bias,
                  second.weights)
        assert [a.ravel().tolist() for a in loaded] == [a.tolist() for a in arrays]
        assert second.batch_norm is None

    def test_file_round_trip(self, tiny_populated, tmp_path):
        path = tmp_path / "w.weights"
        size = save_weights_file(tiny_populated, path)
        assert path.stat().st_size == size == expected_file_size(tiny_populated)
        g2 = build_graph_copy(tiny_populated)
        load_weights_file(g2, path)
        assert save_weights(g2) == save_weights(tiny_populated)

    def test_images_seen_survives(self, tiny_populated):
        tiny_populated.images_seen = 123456789
        blob = save_weights(tiny_populated)
        g2 = build_graph_copy(tiny_populated)
        load_weights(g2, blob)
        assert g2.images_seen == 123456789

    def test_header_fields(self, tiny_populated):
        blob = save_weights(tiny_populated)
        major, minor, revision, seen = struct.unpack_from("<iiiQ", blob)
        assert (major, minor, revision) == (0, 2, 0)
        assert seen == 0


def build_graph_copy(graph):
    from littleyolo.graph import NetworkGraph  # noqa: F401
    import copy
    g = copy.deepcopy(graph)
    for layer in g.layers:
        layer.params = None
    g.images_seen = 0
    return g


class TestInitRandom:
    def test_deterministic(self, tiny_graph):
        init_random(tiny_graph, seed=5)
        first = save_weights(tiny_graph)
        init_random(tiny_graph, seed=5)
        assert save_weights(tiny_graph) == first
        init_random(tiny_graph, seed=6)
        assert save_weights(tiny_graph) != first

    def test_weight_range_and_bn_identity(self, tiny_graph):
        init_random(tiny_graph, seed=2)
        for layer in tiny_graph.layers:
            if layer.params is None:
                continue
            p = layer.params
            assert p.weights.dtype == np.float32
            assert abs(p.weights).max() <= 0.1
            assert (p.bias == 0).all()
            if p.batch_norm is not None:
                assert (p.batch_norm.gamma == 1).all()
                assert (p.batch_norm.mean == 0).all()
                assert (p.batch_norm.var == 1).all()

    def test_populates_every_conv(self, tiny_graph):
        init_random(tiny_graph, seed=1)
        assert tiny_graph.is_populated()


class TestErrors:
    def test_truncated(self, tiny_populated):
        blob = save_weights(tiny_populated)
        with pytest.raises(WeightsError, match="bytes"):
            load_weights(build_graph_copy(tiny_populated), blob[:-4])

    def test_trailing_garbage(self, tiny_populated):
        blob = save_weights(tiny_populated) + b"\x00\x00\x00\x00"
        with pytest.raises(WeightsError, match="bytes"):
            load_weights(build_graph_copy(tiny_populated), blob)

    def test_short_header(self, tiny_populated):
        with pytest.raises(WeightsError, match="header"):
            load_weights(build_graph_copy(tiny_populated), b"\x00" * 10)

    def test_old_version_rejected(self, tiny_populated):
        blob = save_weights(tiny_populated)
        old = struct.pack("<iiiQ", 0, 1, 0, 0) + blob[HEADER_BYTES:]
        with pytest.raises(WeightsError, match="version"):
            load_weights(build_graph_copy(tiny_populated), old)


BN_CFG = """\
[net]
width=8
height=8
channels=3

[convolutional]
filters=4
size=3
stride=1
pad=1
batch_normalize=1
activation=leaky

[convolutional]
filters=4
size=1
stride=1
batch_normalize=1
activation=leaky

[convolutional]
filters=2
size=1
stride=1
activation=linear
"""


@pytest.fixture
def bn_populated():
    from littleyolo.config import lower_to_specs, parse_config
    g = build_graph(lower_to_specs(parse_config(BN_CFG)))
    return init_random(g, seed=3)


def _with_value(graph, index, field, value, pos=1):
    """Weights stream of graph with one bias or batch-norm value replaced."""
    import copy
    g = copy.deepcopy(graph)
    p = g.layers[index].params
    owner = p if field == "bias" else p.batch_norm
    getattr(owner, field)[pos] = value
    return save_weights(g)


class TestBadChannelValues:
    def test_valid_stream_round_trips(self, bn_populated):
        blob = save_weights(bn_populated)
        g2 = build_graph_copy(bn_populated)
        load_weights(g2, blob)
        assert save_weights(g2) == blob

    def test_nan_gamma_names_layer(self, bn_populated):
        blob = _with_value(bn_populated, 1, "gamma", np.nan)
        with pytest.raises(WeightsError, match=r"layer 1: gamma\[1\] is nan"):
            load_weights(build_graph_copy(bn_populated), blob)

    def test_negative_var_names_layer(self, bn_populated):
        blob = _with_value(bn_populated, 0, "var", -0.5, pos=3)
        with pytest.raises(WeightsError, match=r"layer 0: var\[3\] is -0.5"):
            load_weights(build_graph_copy(bn_populated), blob)

    @pytest.mark.parametrize("index,field", [(0, "mean"), (1, "var"), (2, "bias")])
    def test_infinite_values_rejected(self, bn_populated, index, field):
        blob = _with_value(bn_populated, index, field, np.inf)
        with pytest.raises(WeightsError, match=rf"layer {index}: {field}\[1\] is inf"):
            load_weights(build_graph_copy(bn_populated), blob)

    def test_zero_var_accepted(self, bn_populated):
        # var + eps stays positive, so a zero variance is a usable layer
        blob = _with_value(bn_populated, 0, "var", 0.0)
        g2 = load_weights(build_graph_copy(bn_populated), blob)
        assert g2.layers[0].params.batch_norm.var[1] == 0.0


def _with_weight(graph, index, pos, value):
    """Weights stream of graph with one conv weight (flat index) replaced."""
    import copy
    g = copy.deepcopy(graph)
    g.layers[index].params.weights.reshape(-1)[pos] = value
    return save_weights(g)


class TestBadWeights:
    @pytest.mark.parametrize("value,shown", [(np.nan, "nan"), (np.inf, "inf"),
                                             (-np.inf, "-inf")])
    def test_non_finite_weight_names_layer_and_index(self, bn_populated, value, shown):
        blob = _with_weight(bn_populated, 1, 13, value)
        with pytest.raises(WeightsError, match=rf"layer 1: weights\[13\] is {shown} "
                                               r"\(1 non-finite values\)"):
            load_weights(build_graph_copy(bn_populated), blob)

    def test_file_error_names_file_and_layer(self, bn_populated, tmp_path):
        path = tmp_path / "nan.weights"
        path.write_bytes(_with_weight(bn_populated, 2, 0, np.nan))
        with pytest.raises(WeightsError) as err:
            load_weights_file(build_graph_copy(bn_populated), path)
        assert str(err.value) == f"{path}: layer 2: weights[0] is nan (1 non-finite values)"

    @pytest.mark.parametrize("value", [3e38, -3e38, np.finfo(np.float32).max])
    def test_finite_extremes_load(self, bn_populated, value):
        # v @ v overflows on these, so the value-by-value check decides
        blob = _with_weight(bn_populated, 0, 5, value)
        g2 = load_weights(build_graph_copy(bn_populated), blob)
        assert g2.layers[0].params.weights.reshape(-1)[5] == np.float32(value)


def _param_arrays(graph):
    """Every conv layer's loaded arrays, in graph order."""
    return [a for layer in graph.layers if layer.params is not None
            for a in (layer.params.weights, layer.params.bias,
                      *(() if layer.params.batch_norm is None else
                        (layer.params.batch_norm.gamma, layer.params.batch_norm.mean,
                         layer.params.batch_norm.var)))]


class TestOneBuffer:
    def test_layers_view_one_buffer(self, bn_populated, tmp_path):
        path = tmp_path / "bn.weights"
        save_weights_file(bn_populated, path)
        for g in (bn_populated, load_weights_file(build_graph_copy(bn_populated), path),
                  load_weights(build_graph_copy(bn_populated), path.read_bytes())):
            arrays = _param_arrays(g)
            assert len({id(a.base) for a in arrays}) == 1
            assert all(a.dtype == np.float32 for a in arrays)

    @pytest.mark.parametrize("seed", range(5))
    def test_init_random_is_the_stream_in_graph_order(self, bn_populated, seed, monkeypatch):
        # chunks of 7 draws cross every layer boundary
        monkeypatch.setattr(rng_mod, "_CHUNK", 7)
        g = init_random(build_graph_copy(bn_populated), seed)
        weights = [layer.params.weights.reshape(-1) for layer in g.layers
                   if layer.params is not None]
        want = uniform_stream(seed, sum(w.size for w in weights), -0.1, 0.1)
        np.testing.assert_array_equal(np.concatenate(weights), want.astype("<f4"))

    def test_load_weights_file_memory(self, ref_graph_randomized_640, tmp_path):
        # the layers view the mapped file; reading it into one float32
        # buffer peaked at 49.9 MB, and holding the file's bytes while
        # copying every slice at 99.7 MB
        peak = _load_file_peak(ref_graph_randomized_640, 640, tmp_path)
        assert peak <= 1e6, f"load_weights_file peaked at {peak / 1e6:.1f} MB"

    def test_load_weights_file_memory_416(self, ref_graph_randomized, tmp_path):
        peak = _load_file_peak(ref_graph_randomized, 416, tmp_path)
        assert peak <= 1e6, f"load_weights_file peaked at {peak / 1e6:.1f} MB"

    def test_init_random_memory(self, ref_specs_416):
        # the buffer plus chunk workspaces; holding the float64 draws, their
        # float32 copy and the joined bytes peaked at 199.3 MB
        g = build_graph(ref_specs_416)
        tracemalloc.start()
        try:
            init_random(g, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 70e6, f"init_random peaked at {peak / 1e6:.1f} MB"


def _load_file_peak(graph, size, tmp_path):
    """tracemalloc peak of load_weights_file on graph's saved weights."""
    path = tmp_path / f"ref{size}.weights"
    save_weights_file(graph, path)
    g = build_graph(load_config(reference_config_path(size)))
    tracemalloc.start()
    try:
        load_weights_file(g, path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMapped:
    @pytest.mark.parametrize("size", [416, 640])
    def test_mapped_and_bytes_loads_equal_init_random(self, size, ref_graph_randomized,
                                                      ref_graph_randomized_640, tmp_path):
        ref = {416: ref_graph_randomized, 640: ref_graph_randomized_640}[size]
        path = tmp_path / "ref.weights"
        save_weights_file(ref, path)
        want = _param_arrays(ref)
        for load, source in ((load_weights_file, path), (load_weights, path.read_bytes())):
            got = _param_arrays(load(build_graph(load_config(reference_config_path(size))),
                                     source))
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert a.dtype == np.float32 and not a.flags.writeable
                np.testing.assert_array_equal(a, b)

    def test_bytearray_is_copied_once(self, bn_populated):
        # only bytes are viewed in place: the layers must not see later
        # writes into a mutable buffer
        data = bytearray(save_weights(bn_populated))
        g = load_weights(build_graph_copy(bn_populated), data)
        data[HEADER_BYTES:] = bytes(len(data) - HEADER_BYTES)
        assert save_weights(g) == save_weights(bn_populated)

    @pytest.mark.parametrize("cut,message", [
        (lambda blob: b"", "stream has 0 bytes, shorter than the 20-byte header"),
        (lambda blob: blob[:10], "stream has 10 bytes, shorter than the 20-byte header"),
        (lambda blob: blob[:-4], "graph calls for {n} bytes but the stream has {short}"),
        (lambda blob: blob + b"\x00", "graph calls for {n} bytes but the stream has {long}"),
    ], ids=["empty", "short-header", "truncated", "trailing-byte"])
    def test_file_errors_keep_their_texts(self, bn_populated, tmp_path, cut, message):
        blob = save_weights(bn_populated)
        path = tmp_path / "bad.weights"
        path.write_bytes(cut(blob))
        n = len(blob)
        with pytest.raises(WeightsError) as err:
            load_weights_file(build_graph_copy(bn_populated), path)
        assert str(err.value) == f"{path}: " + message.format(n=n, short=n - 4, long=n + 1)

    def test_rewriting_the_file_keeps_loaded_values(self, bn_populated, tmp_path):
        # save_weights_file replaces the file by a rename, so the mapping
        # the loaded layers view keeps the old values
        path = tmp_path / "bn.weights"
        save_weights_file(bn_populated, path)
        g = load_weights_file(build_graph_copy(bn_populated), path)
        other = init_random(build_graph_copy(bn_populated), seed=4)
        save_weights_file(other, path)
        assert save_weights(g) == save_weights(bn_populated)
        assert path.read_bytes() == save_weights(other)
        assert [p.name for p in tmp_path.iterdir()] == ["bn.weights"]


def _one_conv(batch_normalize, in_channels=3, batch_norm=None):
    """A one-layer graph, a 1x1 conv of 4 filters over 3 input channels, with
    zero params for in_channels input channels and the given batch_norm."""
    from littleyolo.config import Convolutional, NetParams
    from littleyolo.tensor import ConvParams
    g = build_graph([NetParams(width=4, height=4, channels=3),
                     Convolutional(filters=4, batch_normalize=batch_normalize)])
    g.layers[0].params = ConvParams(weights=np.zeros((4, in_channels, 1, 1), np.float32),
                                    bias=np.zeros(4, np.float32), batch_norm=batch_norm)
    return g


class TestSaveChecks:
    def test_missing_batch_norm_names_layer_and_array(self):
        with pytest.raises(WeightsError, match=r"^layer 0: the graph calls for bias, gamma, "
                                               r"mean, var, weights but the params hold "
                                               r"bias, weights$"):
            save_weights(_one_conv(True))

    def test_unexpected_batch_norm_names_layer(self):
        from littleyolo.tensor import BatchNorm
        ones = np.ones(4, np.float32)
        with pytest.raises(WeightsError, match=r"^layer 0: the graph calls for bias, weights "
                                               r"but the params hold bias, gamma, mean, var, "
                                               r"weights$"):
            save_weights(_one_conv(False, batch_norm=BatchNorm(ones, ones, ones)))

    def test_wrong_length_names_layer_and_array(self):
        # weights for 5 input channels where the graph has 3
        with pytest.raises(WeightsError, match=r"^layer 0: weights has 20 values but the "
                                               r"graph calls for 12$"):
            save_weights(_one_conv(False, in_channels=5))

    def test_failed_file_save_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "one.weights"
        save_weights_file(_one_conv(False), path)
        before = path.read_bytes()
        with pytest.raises(WeightsError, match="weights has 20 values"):
            save_weights_file(_one_conv(False, in_channels=5), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["one.weights"]


class TestReplaceFile:
    """save_weights_file writes through replace_file, which leaves the old
    file whole and no .tmp when the write or the rename fails."""

    def test_save_onto_a_directory_leaves_no_tmp(self, bn_populated, tmp_path):
        path = tmp_path / "bn.weights"
        path.mkdir()
        with pytest.raises(OSError):
            save_weights_file(bn_populated, path)
        assert [p.name for p in tmp_path.iterdir()] == ["bn.weights"] and path.is_dir()

    @pytest.mark.parametrize("room", [HEADER_BYTES + 40, None], ids=["write", "close"])
    def test_part_way_write_keeps_the_old_file(self, bn_populated, tmp_path, monkeypatch,
                                               room):
        # the disk fills after the header and 40 bytes of the first array,
        # or at the flush on close
        path = tmp_path / "bn.weights"
        save_weights_file(init_random(build_graph_copy(bn_populated), seed=4), path)
        before = path.read_bytes()
        fill_disk(monkeypatch, room)
        with pytest.raises(OSError, match="No space left"):
            save_weights_file(bn_populated, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["bn.weights"]

    def test_replace_file_is_the_only_writer(self):
        # Every call in the package that opens a file for writing (open or
        # .open with a mode holding w, a, x or +, .write_text, .write_bytes),
        # by file and enclosing function: only replace_file may.
        writes = set()

        def visit(node, where):
            for child in ast.iter_child_nodes(node):
                inner = where
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    inner = (where[0], child.name)
                elif isinstance(child, ast.Call):
                    f = child.func
                    name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                    modes = [a.value for a in [*child.args, *(k.value for k in child.keywords)]
                             if isinstance(a, ast.Constant) and isinstance(a.value, str)
                             and re.fullmatch(r"[rwxabt+]+", a.value)]
                    if name in ("write_text", "write_bytes") or name == "open" and any(
                            set(m) & set("wax+") for m in modes):
                        writes.add((*where, child.lineno))
                visit(child, inner)

        for path in sorted(Path(weights_mod.__file__).parent.glob("*.py")):
            visit(ast.parse(path.read_text()), (path.name, None))
        assert {w[:2] for w in writes} == {("weights.py", "replace_file")}, sorted(writes)


class TestSizes:
    def test_layer_param_count_conv_bn(self):
        from littleyolo.config import Convolutional
        spec = Convolutional(filters=4, size=3, stride=1, pad=True,
                             batch_normalize=True, activation="leaky")
        # 4*2*3*3 weights + 4 bias + 3*4 bn
        assert layer_param_count(spec, in_channels=2) == 72 + 4 + 12

    def test_layer_param_count_plain(self):
        from littleyolo.config import Convolutional
        spec = Convolutional(filters=4, size=1, activation="linear")
        assert layer_param_count(spec, in_channels=8) == 32 + 4

    def test_reference_totals(self):
        g = build_graph(load_config(reference_config_path(416)))
        assert expected_file_size(g) == HEADER_BYTES + 4 * 12_455_962
