"""Fuzzing of every input loader: malformed input may only raise ValueError
(ImageError, WeightsError, ConfigError and GraphError are subclasses), and a
loader that reads a file names that file first in its message."""

import json
import struct
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from littleyolo.anchors import load_dims
from littleyolo.config import (_FLOAT, KNOWN_KEYS, KNOWN_SECTIONS, load_config,
                               lower_to_specs, parse_config)
from littleyolo.evaluate import load_ground_truth, load_predictions
from littleyolo.graph import build_graph
from littleyolo.imaging import read_image
from littleyolo.weights import (WeightsError, init_random, load_weights, load_weights_file,
                               save_weights)

# tmp_path is reused across examples: each example overwrites its files
FUZZ = settings(max_examples=120, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

NUMBER = st.one_of(
    st.integers(-5, 300).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "", "abc", "0x10", "1_0", "-0"]),
    # underscores, non-ASCII digits and blanks, which int() and float() also read
    st.sampled_from(["1_0", "+1_0.5", "1e1_0", "\u0661\u0660", "\u0663.5", "\uff15",
                     " 5 ", "\t7\n", "\u00a05", "5\u3000"]),
    st.text(max_size=4))
JSON_FIELD = st.one_of(st.integers(-5, 300), st.floats(), st.none(), st.booleans(),
                       st.text(max_size=3), st.lists(st.integers(0, 5), max_size=2))
JSON_ANY = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=5)),
    lambda kids: st.one_of(st.lists(kids, max_size=3),
                           st.dictionaries(st.text(max_size=6), kids, max_size=3)),
    max_leaves=12)


def numbers(texts):
    """Whether each text is one number of the cfg grammar, blanks around it allowed."""
    return all(_FLOAT.fullmatch(t.strip()) for t in texts)


def loads_or_names(path, load, *args):
    """load(*args), or None when it raised a ValueError whose message starts
    with path; any other exception fails the calling test."""
    try:
        return load(*args)
    except ValueError as exc:
        assert str(exc).startswith(str(path)), str(exc)
        return None


@st.composite
def partial_dict(draw, fields):
    """A dict with a random subset of fields, each drawn from its strategy."""
    keep = draw(st.lists(st.sampled_from(sorted(fields)), unique=True))
    return {k: draw(fields[k]) for k in keep}


@st.composite
def text_file(draw, structured):
    """Bytes of a file: raw bytes, or the text of `structured`, maybe cut short."""
    if draw(st.integers(0, 5)) == 0:
        return draw(st.binary(max_size=80))
    text = draw(structured)
    if draw(st.integers(0, 4)) == 0:
        text = text[:draw(st.integers(0, len(text)))]
    return text.encode("utf-8")


# ------------------------------------------------------------------- images

@st.composite
def ppm_bytes(draw):
    if draw(st.integers(0, 4)) == 0:
        return draw(st.binary(max_size=64))
    w, h = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    tokens = [str(w), str(h), draw(st.sampled_from(["255", "255", "65535", "0", "1"]))]
    if draw(st.booleans()):  # damage the header
        tokens = draw(st.lists(st.one_of(st.sampled_from(tokens + ["-1", "x", "#c\n"]),
                                         st.text(max_size=3)), max_size=5))
    sep = st.sampled_from([" ", "\n", "\t", "\n# note\n"])
    header = draw(st.sampled_from([b"P6", b"P6", b"P5", b"P3", b""]))
    for token in tokens:
        header += (draw(sep) + token).encode("utf-8")
    size = max(0, w * h * 3 + draw(st.sampled_from([0, 0, -1, 1])))
    return header + draw(sep).encode() + draw(st.binary(min_size=size, max_size=size))


@FUZZ
@given(data=ppm_bytes())
def test_read_image(tmp_path, data):
    path = tmp_path / "frame.png"  # read by magic bytes, whatever the suffix
    path.write_bytes(data)
    image = loads_or_names(path, read_image, path)
    if image is not None:
        assert image.dtype == np.uint8 and image.ndim == 3 and image.shape[2] == 3
        assert image.shape[0] > 0 and image.shape[1] > 0


# ------------------------------------------------------------------ weights

SMALL_CFG = """\
[net]
width=8
height=8
channels=3

[convolutional]
batch_normalize=1
filters=2
size=3
stride=1
pad=1
activation=leaky

[convolutional]
filters=3
size=1
stride=1
activation=linear
"""


@st.composite
def weights_bytes(draw, blob):
    if draw(st.integers(0, 5)) == 0:
        return draw(st.binary(max_size=len(blob) + 8))
    data = bytearray(blob)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(data)))
        patch = draw(st.binary(max_size=12))
        kind = draw(st.sampled_from(["overwrite", "cut", "append", "non-finite"]))
        if kind == "non-finite":  # one whole float after the header
            at = 20 + 4 * draw(st.integers(0, (len(blob) - 20) // 4 - 1))
            data[at:at + 4] = struct.pack("<f", draw(st.sampled_from(NON_FINITE)))
        elif kind == "overwrite":
            data[at:at + len(patch)] = patch
        elif kind == "cut":
            del data[at:]
        else:
            data += patch
    return bytes(data)


NON_FINITE = (float("nan"), float("inf"), float("-inf"))
SMALL_BLOB = save_weights(init_random(build_graph(lower_to_specs(parse_config(SMALL_CFG))), 1))


def with_float(blob, index, value):
    """blob with float `index` after the header replaced by `value`."""
    return blob[:20 + 4 * index] + struct.pack("<f", value) + blob[24 + 4 * index:]


# conv weights: layer 0's start after its 2 bias and 6 batch-norm values,
# layer 1's after layer 0's 62 values and its 3 biases
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=weights_bytes(SMALL_BLOB))
@example(data=with_float(SMALL_BLOB, 8, float("nan")))
@example(data=with_float(SMALL_BLOB, 61, float("inf")))
@example(data=with_float(SMALL_BLOB, 70, float("-inf")))
def test_load_weights(tmp_path, data):
    graph = build_graph(lower_to_specs(parse_config(SMALL_CFG)))
    try:
        load_weights(graph, data)
    except WeightsError:
        path = tmp_path / "small.weights"
        path.write_bytes(data)
        assert loads_or_names(path, load_weights_file, graph, path) is None
        return
    for layer in graph.layers:
        p = layer.params
        if p is not None:
            assert np.isfinite(p.bias).all() and np.isfinite(p.weights).all()
            assert p.batch_norm is None or (p.batch_norm.var >= 0).all()


# ---------------------------------------------------------------------- cfg

SECTION_KEYS = sorted({key for keys in KNOWN_KEYS.values() for key in keys})
CFG_VALUE = st.one_of(
    st.integers(-3, 20).map(str),
    st.lists(st.integers(-3, 20).map(str), min_size=1, max_size=6).map(",".join),
    st.sampled_from(["leaky", "linear", "mish", "swish", "0.5", "", "x", "1,,2"]))
CFG_LINE = st.one_of(
    st.sampled_from(KNOWN_SECTIONS + ("bogus", "")).map(lambda s: f"[{s}]"),
    st.tuples(st.sampled_from(SECTION_KEYS + ["foo"]), CFG_VALUE).map("=".join),
    st.sampled_from(["# comment", "; comment", "", "=", "[", "key"]),
    st.text(max_size=8))


CFG_TEXT = st.builds(
    lambda lines, net_first: "\n".join(
        (["[net]", "width=8", "height=8", "channels=3"] if net_first else []) + lines),
    st.lists(CFG_LINE, max_size=25), st.booleans())


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=text_file(CFG_TEXT))
def test_config_text(tmp_path, data):
    path = tmp_path / "net.cfg"
    path.write_bytes(data)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # unknown keys warn
        specs = loads_or_names(path, load_config, path)
    if specs is not None:
        try:
            build_graph(specs)
        except ValueError:
            pass


@pytest.mark.parametrize("name, data, load", [
    ("zeros.weights", bytes(64), lambda path: load_weights_file(
        build_graph(lower_to_specs(parse_config(SMALL_CFG))), path)),
    ("net.cfg", b"abc\n", load_config),
    ("net.cfg", b"[net]\nwidth=8\xff\n", load_config),
])
def test_file_loader_errors_name_the_file(tmp_path, name, data, load):
    # an unsupported version, a line that is not key=value, a byte that is
    # not UTF-8: each message starts with the path
    path = tmp_path / name
    path.write_bytes(data)
    with pytest.raises(ValueError) as info:
        load(path)
    assert str(info.value).startswith(f"{path}: ")


# -------------------------------------------------------------- annotations

VOC_FIELD = st.one_of(NUMBER, st.just(None))


@st.composite
def voc_text(draw):
    def tag(name, value):
        return "" if value is None else f"<{name}>{value}</{name}>"

    objects = []
    for _ in range(draw(st.integers(0, 3))):
        box = "".join(tag(k, draw(VOC_FIELD)) for k in ("xmin", "ymin", "xmax", "ymax"))
        objects.append("<object>" + tag("name", draw(st.sampled_from(["car", "bus", "", None])))
                       + tag("difficult", draw(st.sampled_from(
                           ["0", "1", " 1 ", "", "x", "true", "2", None])))
                       + (f"<bndbox>{box}</bndbox>" if draw(st.booleans()) else "")
                       + "</object>")
    size = tag("size", tag("width", draw(VOC_FIELD)) + tag("height", draw(VOC_FIELD)))
    head = draw(st.sampled_from(["", '<?xml version="1.0"?>',
                                 '<?xml version="1.0" encoding="latin-1"?>',
                                 '<?xml version="1.0" encoding="bogus"?>']))
    return head + "<annotation>" + draw(st.sampled_from([size, ""])) + "".join(objects) \
        + "</annotation>"


@FUZZ
@given(data=text_file(voc_text()))
@example(data=b"<annotation><object><difficult>true</difficult><bndbox><xmin>1_0</xmin>"
              b"</bndbox></object></annotation>")
def test_voc_directory(tmp_path, data):
    f = tmp_path / "frame.xml"
    f.write_bytes(data)
    gts = loads_or_names(f, load_ground_truth, tmp_path)
    dims = loads_or_names(f, load_dims, tmp_path)
    if gts is None:  # both read the file through one walker
        assert dims is None
    if dims is not None:
        assert ((dims > 0) & (dims <= 1)).all()
    if gts is not None:  # loaded: each box read holds numbers and a 0 or 1 flag
        for obj in ET.fromstring(data).iter("object"):
            if (box := obj.find("bndbox")) is not None:
                assert numbers(box.findtext(k, "0") for k in ("xmin", "ymin", "xmax", "ymax"))
                assert (obj.findtext("difficult") or "0").strip() in ("0", "1")


DETECTION = partial_dict({
    "class_name": st.one_of(st.sampled_from(["car", "bus"]), JSON_FIELD),
    "confidence": JSON_FIELD,
    "bbox": st.one_of(partial_dict({k: JSON_FIELD for k in ("x1", "y1", "x2", "y2")}),
                      JSON_FIELD)})
DETECT_DOC = st.one_of(
    partial_dict({"image": st.one_of(st.just("scene.ppm"), JSON_FIELD),
                  "detections": st.one_of(st.lists(DETECTION, max_size=3), JSON_FIELD)}),
    JSON_ANY).map(json.dumps)


def is_json_number(value):
    return type(value) in (int, float)  # True and False are bools, not numbers


@FUZZ
@given(data=text_file(DETECT_DOC))
@example(data=json.dumps({"image": "scene.ppm", "detections": [
    {"class_name": "car", "confidence": "0.9",
     "bbox": {"x1": 1, "y1": True, "x2": 5, "y2": " 6 "}}]}).encode())
def test_detect_json(tmp_path, data):
    f = tmp_path / "scene.json"
    f.write_bytes(data)
    preds = loads_or_names(f, load_predictions, f)
    for p in preds or ():
        assert isinstance(p.class_name, str) and np.isfinite(p.confidence)
        assert np.isfinite(list(p.bbox)).all()
    if preds is not None:  # loaded: every value read was a JSON number
        for det in json.loads(data)["detections"]:
            assert all(map(is_json_number, [det["confidence"], *det["bbox"].values()]))


COCO_DOC = st.one_of(
    partial_dict({
        "images": st.one_of(st.lists(partial_dict(
            {"id": st.integers(0, 2), "width": JSON_FIELD, "height": JSON_FIELD}),
            max_size=3), JSON_FIELD),
        "annotations": st.one_of(st.lists(partial_dict(
            {"image_id": st.integers(0, 2), "category_id": st.integers(0, 2),
             "bbox": st.one_of(st.lists(JSON_FIELD, min_size=3, max_size=5), JSON_FIELD)}),
            max_size=3), JSON_FIELD),
        "categories": st.one_of(st.lists(partial_dict(
            {"id": st.integers(0, 2), "name": st.sampled_from(["car", "bus"])}),
            max_size=2), JSON_FIELD)}),
    JSON_ANY).map(json.dumps)


@FUZZ
@given(data=text_file(COCO_DOC))
@example(data=json.dumps({"images": [{"id": 1, "width": 100, "height": True}], "annotations": [
    {"image_id": 1, "category_id": 0, "bbox": [0, 0, 10, 10]}]}).encode())
def test_coco_json(tmp_path, data):
    f = tmp_path / "ann.json"
    f.write_bytes(data)
    for names in (None, {"car"}):
        dims = loads_or_names(f, load_dims, f, names)
        if dims is not None:
            assert ((dims >= 0) & (dims <= 1)).all()
            # loaded: every image size read was a JSON number
            for img in json.loads(data).get("images", []):
                assert is_json_number(img["width"]) and is_json_number(img["height"])


FLAT_TOKEN = st.one_of(NUMBER, st.sampled_from(["img1", "car", "difficult", "1", "0", "yes",
                                                 "#", "# x"]))
FLAT_TEXT = st.lists(st.lists(FLAT_TOKEN, max_size=9).map(" ".join), max_size=6).map("\n".join)


@FUZZ
@given(data=text_file(FLAT_TEXT))
@example(data="img1 car 1_0 0 20 10\nimg1 car 0.9 0 0 \u0661\u0660 10".encode())
@example(data=b"img1 car 0 0 20 10 yes\nimg1 car 0 0 20 10 2")
def test_flat_text(tmp_path, data):
    f = tmp_path / "boxes.txt"
    f.write_bytes(data)
    records = [fields for line in data.decode("utf-8", "replace").splitlines()
               if (fields := line.split("#", 1)[0].split())]
    gts = loads_or_names(f, load_ground_truth, f)
    for item in gts or ():
        assert np.isfinite(list(item.bbox)).all()
    if gts is not None:  # loaded: numbers, and a 0, 1 or difficult flag
        assert all(numbers(r[2:6]) and r[6:] in ([], ["0"], ["1"], ["difficult"])
                   for r in records)
    preds = loads_or_names(f, load_predictions, f)
    for item in preds or ():
        assert np.isfinite([item.confidence, *item.bbox]).all()
    if preds is not None:
        assert all(numbers(r[2:7]) for r in records)
