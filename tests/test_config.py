import textwrap
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from littleyolo.config import (KNOWN_KEYS, KNOWN_SECTIONS, ConfigError, ConfigWarning,
                               Convolutional, Maxpool, NetParams, Route, Shortcut,
                               Upsample, Yolo, load_config, lower_to_specs, parse_config,
                               print_config, reference_config_path)

MINI = textwrap.dedent("""\
    [net]
    width=32
    height=32
    channels=3

    [convolutional]
    batch_normalize=1
    filters=4
    size=3
    stride=1
    pad=1
    activation=leaky

    [maxpool]
    size=2
    stride=2

    [convolutional]
    filters=14
    size=1
    stride=1
    pad=1
    activation=linear

    [yolo]
    mask = 0,1
    anchors = 4,4, 8,8
    classes=2
    """)


def lower(text):
    """Split the flat [NetParams, *layers] list for test convenience."""
    specs = lower_to_specs(parse_config(text))
    return specs[0], specs[1:]


class TestParse:
    def test_sections_and_values(self):
        doc = parse_config(MINI)
        assert [s.name for s in doc.sections] == [
            "net", "convolutional", "maxpool", "convolutional", "yolo"]
        assert doc.sections[0].values["width"] == 32
        assert doc.sections[4].values["mask"] == (0, 1)
        assert doc.sections[4].values["anchors"] == (4, 4, 8, 8)

    def test_comments_and_blank_lines_ignored(self):
        doc = parse_config("# top\n[net]\nwidth=32 # trailing\n; semi\nheight=16\n")
        assert doc.sections[0].values == {"width": 32, "height": 16}

    @pytest.mark.filterwarnings("ignore::littleyolo.config.ConfigWarning")
    def test_scalar_types(self):
        # unknown training-time keys still parse; typing is based on the text
        doc = parse_config("[net]\nwidth=416\nmomentum=0.9\npolicy=steps\n")
        v = doc.sections[0].values
        assert isinstance(v["width"], int)
        assert isinstance(v["momentum"], float)
        assert v["policy"] == "steps"

    def test_empty_input(self):
        with pytest.raises(ConfigError, match="no network-parameters section"):
            lower_to_specs(parse_config(""))

    def test_first_section_must_be_net(self):
        with pytest.raises(ConfigError, match=r"\[net\]"):
            parse_config("[convolutional]\nfilters=1\n")

    def test_duplicate_net(self):
        with pytest.raises(ConfigError):
            parse_config("[net]\nwidth=1\n[net]\nwidth=2\n")

    def test_key_before_any_section(self):
        with pytest.raises(ConfigError) as ei:
            parse_config("width=32\n[net]\n")
        assert ei.value.line == 1

    def test_unknown_section_with_line(self):
        with pytest.raises(ConfigError) as ei:
            parse_config("[net]\nwidth=1\n\n[dropout]\n")
        assert ei.value.line == 4

    def test_duplicate_key_with_line(self):
        with pytest.raises(ConfigError) as ei:
            parse_config("[net]\nwidth=1\nwidth=2\n")
        assert ei.value.line == 3

    def test_unknown_key_warns_with_line(self):
        with pytest.warns(ConfigWarning, match="line 2"):
            parse_config("[net]\nbananas=1\n")

    def test_malformed_line(self):
        with pytest.raises(ConfigError) as ei:
            parse_config("[net]\nwidth\n")
        assert ei.value.line == 2


class TestLower:
    def test_mini_specs(self):
        net, specs = lower(MINI)
        assert net == NetParams(width=32, height=32, channels=3)
        assert specs[0] == Convolutional(filters=4, size=3, stride=1, pad=True,
                                         batch_normalize=True, activation="leaky")
        assert specs[0].padding == 1
        assert specs[1] == Maxpool(size=2, stride=2, padding=1)
        assert specs[2].activation == "linear"
        assert specs[3] == Yolo(mask=(0, 1), anchors=((4, 4), (8, 8)), classes=2)

    def test_unpadded_conv(self):
        _, specs = lower(
            "[net]\nwidth=8\nheight=8\nchannels=1\n"
            "[convolutional]\nfilters=1\nsize=3\nactivation=linear\n")
        assert specs[0].pad is False and specs[0].padding == 0

    def test_route_indices_resolved_absolute(self):
        _, specs = lower(MINI + "\n[route]\nlayers=-2\n\n[route]\nlayers=-1,1\n")
        assert specs[4] == Route(layers=(2,))
        assert specs[5] == Route(layers=(4, 1))

    def test_route_forward_reference_rejected(self):
        with pytest.raises(ConfigError, match="before layer"):
            lower(MINI + "\n[route]\nlayers=7\n")

    def test_route_self_reference_rejected(self):
        with pytest.raises(ConfigError):
            lower(MINI + "\n[route]\nlayers=4\n")

    def test_shortcut_resolution(self):
        _, specs = lower(MINI + "\n[shortcut]\nfrom=-3\nactivation=linear\n")
        assert specs[4] == Shortcut(from_layer=1, activation="linear")

    def test_missing_required_key(self):
        bad = "[net]\nwidth=8\nheight=8\nchannels=1\n\n[convolutional]\nsize=3\n"
        with pytest.raises(ConfigError, match="filters"):
            lower(bad)

    def test_yolo_requires_anchors(self):
        bad = "[net]\nwidth=8\nheight=8\nchannels=1\n\n[yolo]\nclasses=2\nmask=0\n"
        with pytest.raises(ConfigError, match="anchors"):
            lower(bad)

    def test_yolo_odd_anchor_list(self):
        bad = ("[net]\nwidth=8\nheight=8\nchannels=1\n\n"
               "[yolo]\nclasses=2\nmask=0\nanchors=1,2,3\n")
        with pytest.raises(ConfigError, match="pairs"):
            lower(bad)

    def test_yolo_mask_out_of_range(self):
        bad = ("[net]\nwidth=8\nheight=8\nchannels=1\n\n"
               "[yolo]\nclasses=2\nmask=5\nanchors=1,2, 3,4\n")
        with pytest.raises(ConfigError, match="mask"):
            lower(bad)

    def test_maxpool_padding_defaults_and_bounds(self):
        _, specs = lower(
            "[net]\nwidth=8\nheight=8\nchannels=1\n[maxpool]\nsize=5\nstride=1\n")
        assert specs[0].padding == 2
        with pytest.raises(ConfigError, match="padding"):
            lower("[net]\nwidth=8\nheight=8\nchannels=1\n"
                  "[maxpool]\nsize=2\nstride=2\npadding=2\n")

    def test_bad_activation(self):
        # mish too: the reference nets use only leaky and linear
        for name in ("swish", "mish"):
            bad = ("[net]\nwidth=8\nheight=8\nchannels=1\n\n"
                   f"[convolutional]\nfilters=1\nsize=1\nactivation={name}\n")
            with pytest.raises(ConfigError, match=f"line 9: unknown activation '{name}'"):
                lower(bad)


@pytest.fixture(scope="module")
def ref():
    specs = load_config(reference_config_path(416))
    return specs[0], specs[1:]


class TestReferenceConfig:
    def test_section_count(self):
        text = reference_config_path(416).read_text()
        assert sum(1 for ln in text.splitlines()
                   if ln.strip().startswith("[")) == 34

    def test_layer_count_and_kinds(self, ref):
        _, specs = ref
        assert len(specs) == 33
        convs = [s for s in specs if isinstance(s, Convolutional)]
        assert len(convs) == 19  # 13 extractor + 6 head
        assert sum(isinstance(s, Shortcut) for s in specs) == 4
        assert sum(isinstance(s, Yolo) for s in specs) == 2
        assert sum(isinstance(s, Upsample) for s in specs) == 1

    def test_net_params(self, ref):
        net, _ = ref
        assert (net.width, net.height, net.channels) == (416, 416, 3)

    def test_extractor_convs_use_bn_and_leaky(self, ref):
        _, specs = ref
        first13 = [s for s in specs[:17] if isinstance(s, Convolutional)]
        assert len(first13) == 13
        assert all(c.batch_normalize and c.activation == "leaky" for c in first13)

    def test_shortcut_wiring(self, ref):
        _, specs = ref
        shortcuts = [(i, s) for i, s in enumerate(specs) if isinstance(s, Shortcut)]
        # each residual spans back to the stride-2 conv opening its group
        assert [(i, s.from_layer) for i, s in shortcuts] == [
            (3, 1), (7, 4), (10, 8), (14, 11)]
        assert all(s.activation == "linear" for _, s in shortcuts)

    def test_pyramid_wiring(self, ref):
        _, specs = ref
        assert specs[17] == Maxpool(size=5, stride=1, padding=2)
        assert specs[18] == Route(layers=(16,))
        assert specs[19] == Maxpool(size=9, stride=1, padding=4)
        assert specs[20] == Maxpool(size=5, stride=1, padding=2)
        assert specs[21] == Route(layers=(20, 19, 17, 16))

    def test_detection_heads(self, ref):
        _, specs = ref
        assert isinstance(specs[24], Convolutional)
        assert specs[24].filters == 21 and specs[24].activation == "linear"
        assert specs[25].mask == (3, 4, 5)
        assert specs[26] == Route(layers=(22,))
        assert isinstance(specs[28], Upsample)
        assert specs[29] == Route(layers=(28, 14))
        assert specs[31].filters == 21
        assert specs[32].mask == (0, 1, 2)
        assert specs[25].anchors == specs[32].anchors
        assert specs[25].classes == specs[32].classes == 2

    def test_published_anchor_values(self, ref):
        _, specs = ref
        assert specs[25].anchors == ((16, 15), (42, 40), (95, 73),
                                     (115, 165), (256, 168), (329, 314))

    def test_640_variant(self):
        specs416 = load_config(reference_config_path(416))
        specs640 = load_config(reference_config_path(640))
        net640 = specs640[0]
        assert (net640.width, net640.height) == (640, 640)
        yolo640 = [s for s in specs640 if isinstance(s, Yolo)]
        assert yolo640[0].anchors == ((25, 23), (69, 59), (123, 141),
                                      (290, 159), (275, 339), (526, 450))
        # wiring identical apart from net size and anchor values
        for a, b in zip(specs416[1:], specs640[1:]):
            if isinstance(a, Yolo):
                assert a.mask == b.mask and a.classes == b.classes
            else:
                assert a == b

    def test_unknown_size(self):
        with pytest.raises(ValueError):
            reference_config_path(512)


class TestPrint:
    def test_round_trip_mini(self):
        specs = lower_to_specs(parse_config(MINI))
        assert lower_to_specs(parse_config(print_config(specs))) == specs

    def test_round_trip_reference(self):
        specs = load_config(reference_config_path(416))
        assert lower_to_specs(parse_config(print_config(specs))) == specs

    def test_idempotent(self):
        specs = load_config(reference_config_path(416))
        once = print_config(specs)
        assert print_config(lower_to_specs(parse_config(once))) == once

    def test_float_values_survive(self):
        specs = lower_to_specs(parse_config(
            "[net]\nwidth=8\nheight=8\nchannels=1\n\n"
            "[yolo]\nclasses=2\nmask=0\nanchors=1.5,2.25, 3,4\nignore_thresh=0.7\n"))
        specs2 = lower_to_specs(parse_config(print_config(specs)))
        assert specs2[1].anchors == ((1.5, 2.25), (3, 4))
        assert specs2[1].ignore_thresh == 0.7

    def test_requires_net_first(self):
        with pytest.raises(ConfigError):
            print_config([Upsample(stride=2)])

    def test_canonical_text(self):
        # one line per spec field, in field order; references relative
        canonical = textwrap.dedent("""\
            [net]
            width=32
            height=32
            channels=3

            [convolutional]
            filters=4
            size=3
            stride=2
            pad=1
            batch_normalize=0
            activation=leaky

            [maxpool]
            size=2
            stride=1
            padding=1

            [shortcut]
            from=-2
            activation=linear

            [route]
            layers=-1,-3

            [upsample]
            stride=2

            [yolo]
            mask=1
            anchors=4,4.5, 8,8
            classes=2
            ignore_thresh=0.7
            """)
        assert print_config(lower_to_specs(parse_config(canonical))) == canonical

    @pytest.mark.parametrize("size", [416, 640])
    def test_shipped_configs_print_without_warnings(self, size):
        printed = print_config(load_config(reference_config_path(size)))
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConfigWarning)
            parse_config(printed)

    def test_known_names(self):
        assert set(KNOWN_SECTIONS) == {"net", "network", "convolutional", "maxpool",
                                       "route", "shortcut", "upsample", "yolo"}
        assert KNOWN_KEYS == {
            "net": {"width", "height", "channels"},
            "convolutional": {"filters", "size", "stride", "pad", "batch_normalize",
                              "activation"},
            "maxpool": {"size", "stride", "padding"},
            "route": {"layers"},
            "shortcut": {"from", "activation"},
            "upsample": {"stride"},
            "yolo": {"mask", "anchors", "classes", "ignore_thresh"},
        }


@st.composite
def random_network(draw):
    specs = [NetParams(width=64, height=64, channels=3)]
    n_layers = draw(st.integers(1, 8))
    for i in range(n_layers):
        kind = draw(st.sampled_from(["conv", "pool", "route", "upsample"]))
        if kind == "conv" or i == 0:
            specs.append(Convolutional(
                filters=draw(st.integers(1, 8)),
                size=draw(st.sampled_from([1, 3])),
                stride=draw(st.integers(1, 2)),
                pad=draw(st.booleans()),
                batch_normalize=draw(st.booleans()),
                activation=draw(st.sampled_from(["linear", "leaky"]))))
        elif kind == "pool":
            size = draw(st.integers(2, 3))
            specs.append(Maxpool(size=size, stride=draw(st.integers(1, 2)),
                                 padding=draw(st.integers(0, size - 1))))
        elif kind == "route":
            refs = draw(st.lists(st.integers(0, i - 1), min_size=1,
                                 max_size=2, unique=True))
            specs.append(Route(layers=tuple(refs)))
        else:
            specs.append(Upsample(stride=2))
    return specs


@settings(max_examples=50, deadline=None)
@given(random_network())
def test_print_parse_round_trip_property(specs):
    assert lower_to_specs(parse_config(print_config(specs))) == specs


@settings(max_examples=80, deadline=None)
@given(st.text(alphabet="[]netconvolutional=\n #;0123456789.,-ax", max_size=120))
def test_parser_never_crashes_uncontrolled(text):
    try:
        lower_to_specs(parse_config(text))
    except (ConfigError, ConfigWarning):
        pass
