import errno

import numpy as np
import pytest

from littleyolo import build_graph, init_random, load_config, reference_config_path
from littleyolo.imaging import encode_ppm

# Tiny 2-head detection network used by pipeline/CLI tests: three 1x1
# stride-2 convs (32 -> 16 -> 8 -> 4 grid) feeding a 4x4 head, plus an
# upsampled 8x8 head so the fixture exercises both routing and decode.
TINY_CFG = """\
[net]
width=32
height=32
channels=3

[convolutional]
filters=1
size=1
stride=2
activation=linear

[convolutional]
filters=1
size=1
stride=2
activation=linear

[convolutional]
filters=1
size=1
stride=2
activation=linear

[convolutional]
filters=14
size=1
stride=1
activation=linear

[yolo]
mask=2,3
anchors=4,4, 6,6, 8,8, 16,16
classes=2
ignore_thresh=0.5

[route]
layers=2

[upsample]
stride=2

[convolutional]
filters=14
size=1
stride=1
activation=linear

[yolo]
mask=0,1
anchors=4,4, 6,6, 8,8, 16,16
classes=2
ignore_thresh=0.5
"""


@pytest.fixture(scope="session")
def ref_specs_416():
    return load_config(reference_config_path(416))


@pytest.fixture(scope="session")
def ref_graph_416(ref_specs_416):
    return build_graph(ref_specs_416)


@pytest.fixture(scope="session")
def ref_graph_randomized(ref_specs_416):
    g = build_graph(ref_specs_416)
    init_random(g, seed=7)
    return g


@pytest.fixture(scope="session")
def ref_graph_randomized_640():
    g = build_graph(load_config(reference_config_path(640)))
    init_random(g, seed=7)
    return g


@pytest.fixture
def tiny_graph():
    from littleyolo.config import lower_to_specs, parse_config
    return build_graph(lower_to_specs(parse_config(TINY_CFG)))


# Handcrafted weights for TINY_CFG that light up exactly one cell.
#
# The three stride-2 1x1 convs pass the red channel through unchanged, so
# 4x4-grid cell (y, x) sees input pixel (8y, 8x). The head conv gives slot 0
# (anchor (8, 8)) objectness/class-0 logits of 18*red - 9: +9 where red is
# 1.0, -9 elsewhere. A red patch covering pixel (16, 8) therefore produces
# one detection at cell (y=2, x=1) and nothing else anywhere:
#   bx = (sigmoid(0) + 1) / 4 * 32 = 12,  by = (0.5 + 2) * 8 = 20
#   bw = bh = 8  ->  box (8, 16, 16, 24), confidence sigmoid(9)^2
PLANTED_SIGMA9 = 1.0 / (1.0 + np.exp(-9.0))
PLANTED_BOX = (8.0, 16.0, 16.0, 24.0)
PLANTED_CONFIDENCE = PLANTED_SIGMA9 * PLANTED_SIGMA9


def craft_planted_params(graph):
    from littleyolo.tensor import ConvParams

    red = np.zeros((1, 3, 1, 1), np.float32)
    red[0, 0] = 1.0
    graph.layers[0].params = ConvParams(weights=red, bias=np.zeros(1, np.float32),
                                        stride=2, padding=0)
    passthrough = np.ones((1, 1, 1, 1), np.float32)
    for i in (1, 2):
        graph.layers[i].params = ConvParams(weights=passthrough.copy(),
                                            bias=np.zeros(1, np.float32),
                                            stride=2, padding=0)
    head = np.zeros((14, 1, 1, 1), np.float32)
    head_bias = np.zeros(14, np.float32)
    head[4, 0] = 18.0   # slot 0 objectness
    head[5, 0] = 18.0   # slot 0 class 0
    head_bias[4] = head_bias[5] = head_bias[6] = -9.0
    head_bias[7 + 4] = head_bias[7 + 5] = head_bias[7 + 6] = -9.0
    graph.layers[3].params = ConvParams(weights=head, bias=head_bias,
                                        stride=1, padding=0)
    quiet = np.zeros((14, 1, 1, 1), np.float32)
    quiet_bias = np.zeros(14, np.float32)
    quiet_bias[4] = quiet_bias[5] = quiet_bias[6] = -9.0
    quiet_bias[7 + 4] = quiet_bias[7 + 5] = quiet_bias[7 + 6] = -9.0
    graph.layers[7].params = ConvParams(weights=quiet, bias=quiet_bias,
                                        stride=1, padding=0)
    return graph


def planted_image(dtype=np.float32):
    """(3, 32, 32) float tensor whose red patch triggers only cell (2, 1)."""
    img = np.zeros((3, 32, 32), dtype)
    img[0, 14:19, 6:11] = 1.0
    return img


@pytest.fixture
def planted_tiny(tiny_graph):
    return craft_planted_params(tiny_graph)


def fill_disk(monkeypatch, room, name=""):
    """Make weights.replace_file's writes to a file whose path holds `name`
    fail part-way, as on a full disk: once `room` bytes are written, write
    raises OSError(ENOSPC); with room None, every write passes and closing
    the file (its last flush) raises."""
    from littleyolo import weights
    full = OSError(errno.ENOSPC, "No space left on device")

    class Full:
        def __init__(self, fh):
            self.fh, self.room = fh, room

        def write(self, data):
            data = memoryview(data).cast("B")
            if self.room is None:
                return self.fh.write(data)
            self.fh.write(data[:self.room])
            if len(data) > self.room:
                self.room = 0
                raise full
            self.room -= len(data)
            return len(data)

        def __enter__(self):
            return self

        def __exit__(self, kind, *exc):
            self.fh.close()
            if kind is None and self.room is None:
                raise full

    def full_open(path, mode="r", *args, **kwargs):
        fh = open(path, mode, *args, **kwargs)
        return Full(fh) if "w" in mode and name in str(path) else fh
    monkeypatch.setattr(weights, "open", full_open, raising=False)


def write_ppm_image(path, pixels):
    """pixels: (H, W, 3) uint8 array."""
    with open(str(path), "wb") as fh:
        fh.write(encode_ppm(np.asarray(pixels, dtype=np.uint8)))
    return path


@pytest.fixture
def make_ppm(tmp_path):
    def _make(name, pixels):
        return write_ppm_image(tmp_path / name, pixels)
    return _make
