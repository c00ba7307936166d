import inspect
import sys
import textwrap
import types
import warnings
from dataclasses import MISSING, fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from littleyolo import config
from littleyolo.config import (KNOWN_KEYS, KNOWN_SECTIONS, SPECS, ConfigError,
                               ConfigWarning, Convolutional, Maxpool, NetParams, Route,
                               Shortcut, Upsample, Yolo, load_config, lower_to_specs,
                               parse_config, print_config, reference_config_path)

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

    @pytest.mark.parametrize("text, value", [
        ("16", 16), ("-0", 0), ("+5", 5), ("007", 7), ("1e3", 1000.0), ("-2.5E-3", -0.0025),
        (".5", 0.5), ("5.", 5.0), ("0.9", 0.9)])
    def test_ascii_decimal_numbers(self, text, value):
        got = parse_config(f"[net]\nwidth={text}\n").sections[0].values["width"]
        assert got == value and type(got) is type(value)

    @pytest.mark.parametrize("text", ["1_6", "\u0661\u0660", "\uff11\uff16", "0x10", "inf",
                                      "nan", "1e", "e3", ".", "1.5.2", "--1", "1e_3"])
    def test_other_text_is_not_a_number(self, text):
        # darknet's atoi reads "1_6" as 1; int() would read 16
        assert parse_config(f"[net]\nwidth={text}\n").sections[0].values["width"] == text
        bad = (f"[net]\nwidth=8\nheight=8\nchannels=1\n\n"
               f"[convolutional]\nfilters={text}\nsize=1\n")
        with pytest.raises(ConfigError, match=f"line 7: .*'filters' must be an integer, "
                                              f"got '{text}'"):
            lower(bad)

    @pytest.mark.parametrize("text", ["inf", "-inf", "nan", "1_0.5"])
    def test_float_key_takes_only_decimal_numbers(self, text):
        # float() reads inf and nan; a threshold of either is no number here
        bad = ("[net]\nwidth=8\nheight=8\nchannels=1\n\n"
               f"[yolo]\nclasses=2\nmask=0\nanchors=1,2\nignore_thresh={text}\n")
        with pytest.raises(ConfigError, match=f"line 10: .*'ignore_thresh' must be a "
                                              f"number, got '{text}'"):
            lower(bad)
        _, specs = lower(bad.replace(text, "7e-1"))
        assert specs[0].ignore_thresh == 0.7

    def test_non_ascii_digit_in_a_list(self):
        bad = ("[net]\nwidth=8\nheight=8\nchannels=1\n\n"
               "[yolo]\nclasses=2\nmask=0,\u0661\nanchors=1,2, 3,4\n")
        with pytest.raises(ConfigError, match="line 8: .*'mask' must be integers"):
            lower(bad)

    @pytest.mark.parametrize("section, key, line", [
        ("[route]\nlayers=,", "layers", 10),
        ("[yolo]\nclasses=1\nmask=0\nanchors=,", "anchors", 12),
        ("[yolo]\nclasses=1\nmask=,\nanchors=4,4", "mask", 11)])
    def test_empty_list_named_with_its_line(self, section, key, line):
        # "key=," parses as an empty list; a route of no layers, a yolo of no
        # anchors or an empty mask would fail later, in build_graph, unnamed
        bad = "[net]\nwidth=8\nheight=8\nchannels=1\n\n[convolutional]\nfilters=6\n\n"
        with pytest.raises(ConfigError, match=rf"line {line}: .*'{key}' must be a "
                                              r"non-empty list, got \(\)"):
            lower(bad + section + "\n")

    def test_shortcut_resolution(self):
        _, specs = lower(MINI + "\n[shortcut]\nfrom=-3\nactivation=linear\n")
        assert specs[4] == Shortcut(from_layer=1, activation="linear")

    def test_missing_required_key(self):
        bad = "[net]\nwidth=8\nheight=8\nchannels=1\n\n[convolutional]\nsize=3\n"
        with pytest.raises(ConfigError, match="filters"):
            lower(bad)

    def test_yolo_requires_anchors(self):
        bad = "[net]\nwidth=8\nheight=8\nchannels=1\n\n[yolo]\nclasses=2\nmask=0\n"
        with pytest.raises(ConfigError, match=r"line 6: \[yolo\] is missing required "
                                              r"key 'anchors'"):
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


# Each section's required keys, and a valid non-default value for every key:
# key -> (cfg text, lowered value). Layers 0 and 1 come before the section.
PREFIX = "[net]\nwidth=8\nheight=8\nchannels=1\n[upsample]\n[upsample]\n"
REQUIRED = {
    "net": {"width": ("8", 8), "height": ("8", 8), "channels": ("1", 1)},
    "convolutional": {"filters": ("2", 2)},
    "maxpool": {"size": ("3", 3)},
    "route": {"layers": ("-1", (1,))},
    "shortcut": {"from": ("-1", 1)},
    "upsample": {},
    "yolo": {"anchors": ("1,2, 3,4", ((1.0, 2.0), (3.0, 4.0))), "classes": ("2", 2)},
}
OTHER = {
    "net": {"width": ("16", 16), "height": ("24", 24), "channels": ("3", 3)},
    "convolutional": {"filters": ("5", 5), "size": ("3", 3), "stride": ("2", 2),
                      "pad": ("1", True), "batch_normalize": ("7", True),
                      "activation": ("leaky", "leaky")},
    "maxpool": {"size": ("5", 5), "stride": ("2", 2), "padding": ("0", 0)},
    "route": {"layers": ("0,-1", (0, 1))},
    "shortcut": {"from": ("0", 0), "activation": ("leaky", "leaky")},
    "upsample": {"stride": ("3", 3)},
    "yolo": {"mask": ("1", (1,)), "classes": ("7", 7), "ignore_thresh": ("0.7", 0.7),
             "anchors": ("1.5,2, 3,4, 5,6", ((1.5, 2.0), (3.0, 4.0), (5.0, 6.0)))},
}
FIELD_CASES = [(section, key) for section, keys in OTHER.items() for key in keys]


def field_name(key):
    return "from_layer" if key == "from" else key


def required_texts(section):
    return {k: text for k, (text, _) in REQUIRED[section].items()}


def lower_section(section, texts):
    """The spec one [section] with these key=value texts lowers to."""
    body = f"[{section}]\n" + "".join(f"{k}={v}\n" for k, v in texts.items())
    if section == "net":
        return lower_to_specs(parse_config(body))[0]
    return lower_to_specs(parse_config(PREFIX + body))[-1]


class TestFieldTable:
    """lower_to_specs, print_config and KNOWN_KEYS read each spec's fields."""

    def test_cases_cover_every_key(self):
        assert {section: set(keys) for section, keys in OTHER.items()} == KNOWN_KEYS
        for section, spec in SPECS.items():  # the mask defaults to every anchor
            required = {f.name for f in fields(spec) if f.default is MISSING} - {"mask"}
            assert {field_name(k) for k in REQUIRED[section]} == required

    @pytest.mark.parametrize("section, key", FIELD_CASES)
    def test_every_field_is_read(self, section, key):
        text, want = OTHER[section][key]
        base = lower_section(section, required_texts(section))
        got = lower_section(section, {**required_texts(section), key: text})
        assert getattr(got, field_name(key)) == want != getattr(base, field_name(key))

    @pytest.mark.parametrize("section", list(REQUIRED))
    def test_required_keys_alone_give_the_dataclass(self, section):
        kw = {field_name(k): v for k, (_, v) in REQUIRED[section].items()}
        # the two defaults the cfg works out from another key
        derived = {"maxpool": {"padding": 1}, "yolo": {"mask": (0, 1)}}.get(section, {})
        assert lower_section(section, required_texts(section)) == \
            SPECS[section](**kw, **derived)

    def test_a_field_added_to_a_spec_is_read_printed_and_known(self, monkeypatch):
        # the module as it would be with one more Upsample field, and no other edit
        source = inspect.getsource(config)
        edited = source.replace("class Upsample:\n    stride: int = 2\n",
                                "class Upsample:\n    stride: int = 2\n    groups: int = 1\n")
        assert edited != source
        module = types.ModuleType("littleyolo.config_with_groups")
        module.__package__ = "littleyolo"
        monkeypatch.setitem(sys.modules, module.__name__, module)
        exec(compile(edited, config.__file__, "exec"), module.__dict__)

        def lower_upsample(body):
            text = "[net]\nwidth=8\nheight=8\nchannels=1\n[upsample]\n" + body
            return module.lower_to_specs(module.parse_config(text))[1]

        assert module.KNOWN_KEYS["upsample"] == {"stride", "groups"}
        with warnings.catch_warnings():
            warnings.simplefilter("error", module.ConfigWarning)
            spec = lower_upsample("groups=4\n")
        assert spec == module.Upsample(stride=2, groups=4)
        assert lower_upsample("") == module.Upsample(stride=2, groups=1)
        printed = module.print_config([module.NetParams(8, 8, 1), spec])
        assert printed.endswith("[upsample]\nstride=2\ngroups=4\n")
        with pytest.raises(module.ConfigError, match="'groups' must be >= 1, got 0"):
            lower_upsample("groups=0\n")


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
        kind = draw(st.sampled_from(["conv", "pool", "route", "shortcut", "upsample",
                                     "yolo"]))
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
        elif kind == "shortcut":
            specs.append(Shortcut(from_layer=draw(st.integers(0, i - 1)),
                                  activation=draw(st.sampled_from(["linear", "leaky"]))))
        elif kind == "yolo":
            side = st.floats(0.5, 700).filter(lambda v: not v.is_integer())
            anchors = tuple(draw(st.lists(st.tuples(side, side), min_size=1, max_size=4)))
            mask = draw(st.lists(st.integers(0, len(anchors) - 1), min_size=1,
                                 max_size=len(anchors), unique=True))
            specs.append(Yolo(mask=tuple(mask), anchors=anchors,
                              classes=draw(st.integers(1, 5)),
                              ignore_thresh=draw(st.floats(0, 1))))
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
