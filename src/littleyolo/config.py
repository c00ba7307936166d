"""Network config dialect: parse, lower to layer specs, print.

The dialect is INI-like: `[section]` headers followed by `key=value` lines,
with `#` and `;` comments. The first section must be [net] (network input
geometry); every later section describes one layer, indexed from 0 in file
order. Route/shortcut references may be written relative (negative) or
absolute (non-negative); lowering normalizes them to absolute indices.

parse_config -> ConfigDocument (raw sections, line numbers preserved)
lower_to_specs -> [NetParams, LayerSpec, ...] (typed, validated, defaults applied)
print_config -> canonical text; lower(parse(print(specs))) == specs
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, fields
from importlib import resources

from .tensor import ACTIVATIONS


class ConfigError(ValueError):
    """Malformed config text or an invalid layer description.

    line is the 1-based source line the error points at (0 when unknown).
    """

    def __init__(self, message: str, line: int = 0):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


class ConfigWarning(UserWarning):
    pass


Value = int | float | str | tuple


@dataclass
class Section:
    """One raw `[name]` block: typed values plus per-key source lines."""

    name: str
    line: int
    values: dict[str, Value] = field(default_factory=dict)
    lines: dict[str, int] = field(default_factory=dict)


@dataclass
class ConfigDocument:
    sections: list[Section]


# ---------------------------------------------------------------- layer specs

@dataclass(frozen=True)
class NetParams:
    width: int
    height: int
    channels: int


@dataclass(frozen=True)
class Convolutional:
    filters: int
    size: int = 1
    stride: int = 1
    pad: bool = False
    batch_normalize: bool = False
    activation: str = "linear"

    @property
    def padding(self) -> int:
        return self.size // 2 if self.pad else 0


@dataclass(frozen=True)
class Maxpool:
    size: int
    stride: int = 1
    padding: int = 0


@dataclass(frozen=True)
class Route:
    layers: tuple[int, ...]  # absolute after lowering


@dataclass(frozen=True)
class Shortcut:
    from_layer: int  # absolute after lowering
    activation: str = "linear"


@dataclass(frozen=True)
class Upsample:
    stride: int = 2


@dataclass(frozen=True)
class Yolo:
    mask: tuple[int, ...]
    anchors: tuple[tuple[float, float], ...]
    classes: int
    ignore_thresh: float = 0.5


LayerSpec = Convolutional | Maxpool | Route | Shortcut | Upsample | Yolo

# each section's spec; a cfg key is its field's name, but `from` for from_layer
SPECS = {"net": NetParams, "convolutional": Convolutional, "maxpool": Maxpool,
         "route": Route, "shortcut": Shortcut, "upsample": Upsample, "yolo": Yolo}
KNOWN_SECTIONS = ("network", *SPECS)  # [network] is read as [net]


def _key(name: str) -> str:
    return "from" if name == "from_layer" else name


KNOWN_KEYS = {name: {_key(f.name) for f in fields(spec)} for name, spec in SPECS.items()}


# --------------------------------------------------------------------- parse

def _parse_scalar(text: str) -> Value:
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _parse_value(text: str) -> Value:
    if "," in text:
        items = [t.strip() for t in text.split(",")]
        return tuple(_parse_scalar(t) for t in items if t)
    return _parse_scalar(text)


def parse_config(text: str) -> ConfigDocument:
    """Parse dialect text into raw sections. Unknown keys warn; unknown
    sections, malformed lines, and duplicate keys are errors with line numbers."""
    sections: list[Section] = []
    current: Section | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].split(";", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"malformed section header {raw.strip()!r}", lineno)
            name = line[1:-1].strip().lower()
            if name not in KNOWN_SECTIONS:
                raise ConfigError(f"unknown section [{name}]", lineno)
            if name == "network":
                name = "net"
            current = Section(name=name, line=lineno)
            sections.append(current)
            continue
        if "=" not in line:
            raise ConfigError(f"expected key=value, got {raw.strip()!r}", lineno)
        if current is None:
            raise ConfigError(f"key=value before any section: {raw.strip()!r}", lineno)
        key, _, value = line.partition("=")
        key = key.strip().lower()
        if key in current.values:
            raise ConfigError(f"duplicate key {key!r} in [{current.name}]", lineno)
        if key not in KNOWN_KEYS[current.name]:
            warnings.warn(f"line {lineno}: unknown key {key!r} in [{current.name}]",
                          ConfigWarning, stacklevel=2)
        current.values[key] = _parse_value(value.strip())
        current.lines[key] = lineno
    if not sections or sections[0].name != "net":
        raise ConfigError("no network-parameters section: config must start with [net]")
    for extra in sections[1:]:
        if extra.name == "net":
            raise ConfigError("duplicate [net] section", extra.line)
    return ConfigDocument(sections)


# --------------------------------------------------------------------- lower

def _want_int(sec: Section, key: str, default: int | None = None,
              minimum: int | None = None) -> int:
    if key not in sec.values:
        if default is None:
            raise ConfigError(f"[{sec.name}] is missing required key {key!r}", sec.line)
        return default
    v = sec.values[key]
    if not isinstance(v, int):
        raise ConfigError(f"[{sec.name}] key {key!r} must be an integer, got {v!r}",
                          sec.lines[key])
    if minimum is not None and v < minimum:
        raise ConfigError(f"[{sec.name}] key {key!r} must be >= {minimum}, got {v}",
                          sec.lines[key])
    return v


def _want_float(sec: Section, key: str, default: float | None = None) -> float:
    if key not in sec.values:
        if default is None:
            raise ConfigError(f"[{sec.name}] is missing required key {key!r}", sec.line)
        return default
    v = sec.values[key]
    if not isinstance(v, (int, float)):
        raise ConfigError(f"[{sec.name}] key {key!r} must be a number, got {v!r}",
                          sec.lines[key])
    return float(v)


def _want_int_tuple(sec: Section, key: str) -> tuple[int, ...]:
    if key not in sec.values:
        raise ConfigError(f"[{sec.name}] is missing required key {key!r}", sec.line)
    v = sec.values[key]
    if isinstance(v, int):
        return (v,)
    if isinstance(v, tuple) and all(isinstance(i, int) for i in v):
        return v
    raise ConfigError(f"[{sec.name}] key {key!r} must be integers, got {v!r}",
                      sec.lines[key])


def _want_activation(sec: Section) -> str:
    v = sec.values.get("activation", "linear")
    if v not in ACTIVATIONS:
        raise ConfigError(f"unknown activation {v!r}", sec.lines.get("activation", sec.line))
    return v


def _resolve_index(ref: int, layer_index: int, sec: Section, key: str) -> int:
    absolute = layer_index + ref if ref < 0 else ref
    if absolute < 0 or absolute >= layer_index:
        raise ConfigError(
            f"[{sec.name}] key {key!r} points at layer {absolute}, which is not "
            f"before layer {layer_index}", sec.lines[key])
    return absolute


def lower_to_specs(doc: ConfigDocument) -> list[NetParams | LayerSpec]:
    """Validate raw sections and produce typed specs with absolute indices."""
    net_sec = doc.sections[0]
    net = NetParams(width=_want_int(net_sec, "width", minimum=1),
                    height=_want_int(net_sec, "height", minimum=1),
                    channels=_want_int(net_sec, "channels", minimum=1))
    specs: list[NetParams | LayerSpec] = [net]
    for i, sec in enumerate(doc.sections[1:]):
        if sec.name == "convolutional":
            size = _want_int(sec, "size", default=1, minimum=1)
            spec: LayerSpec = Convolutional(
                filters=_want_int(sec, "filters", minimum=1),
                size=size,
                stride=_want_int(sec, "stride", default=1, minimum=1),
                pad=bool(_want_int(sec, "pad", default=0)),
                batch_normalize=bool(_want_int(sec, "batch_normalize", default=0)),
                activation=_want_activation(sec),
            )
        elif sec.name == "maxpool":
            size = _want_int(sec, "size", minimum=1)
            padding = _want_int(sec, "padding", default=size // 2, minimum=0)
            if padding >= size:
                raise ConfigError(f"maxpool padding {padding} must be < size {size}",
                                  sec.lines.get("padding", sec.line))
            spec = Maxpool(size=size,
                           stride=_want_int(sec, "stride", default=1, minimum=1),
                           padding=padding)
        elif sec.name == "route":
            refs = _want_int_tuple(sec, "layers")
            spec = Route(layers=tuple(_resolve_index(r, i, sec, "layers") for r in refs))
        elif sec.name == "shortcut":
            ref = _want_int(sec, "from")
            spec = Shortcut(from_layer=_resolve_index(ref, i, sec, "from"),
                            activation=_want_activation(sec))
        elif sec.name == "upsample":
            spec = Upsample(stride=_want_int(sec, "stride", default=2, minimum=1))
        elif sec.name == "yolo":
            if "anchors" not in sec.values:
                raise ConfigError("[yolo] without anchors", sec.line)
            flat = sec.values["anchors"]
            if not isinstance(flat, tuple):
                flat = (flat,)
            if len(flat) % 2 != 0 or not all(isinstance(v, (int, float)) for v in flat):
                raise ConfigError(f"anchors must be w,h pairs, got {flat!r}",
                                  sec.lines["anchors"])
            anchors = tuple((float(flat[j]), float(flat[j + 1]))
                            for j in range(0, len(flat), 2))
            mask = (_want_int_tuple(sec, "mask") if "mask" in sec.values
                    else tuple(range(len(anchors))))
            bad = [m for m in mask if m < 0 or m >= len(anchors)]
            if bad:
                raise ConfigError(f"mask index {bad[0]} out of range for "
                                  f"{len(anchors)} anchors", sec.lines.get("mask", sec.line))
            spec = Yolo(mask=mask, anchors=anchors,
                        classes=_want_int(sec, "classes", minimum=1),
                        ignore_thresh=_want_float(sec, "ignore_thresh", default=0.5))
        else:  # pragma: no cover - parse_config only admits known names
            raise ConfigError(f"unknown section [{sec.name}]", sec.line)
        specs.append(spec)
    return specs


# --------------------------------------------------------------------- print

def _fmt(v) -> str:
    """A value as the dialect writes it: w,h pairs joined by ", ", other
    tuples by ",", bools as 0/1, integral floats without a fraction."""
    if isinstance(v, tuple):
        return (", " if v and isinstance(v[0], tuple) else ",").join(map(_fmt, v))
    if isinstance(v, float) and not v.is_integer():
        return repr(v)
    return str(int(v)) if isinstance(v, (bool, float)) else str(v)


def print_config(specs: list[NetParams | LayerSpec]) -> str:
    """Canonical dialect text for lowered specs: one line per field, in field
    order. Route/shortcut references are printed relative (negative), the form
    the dialect prefers; parsing the result and lowering it reproduces `specs`.
    """
    if not specs or not isinstance(specs[0], NetParams):
        raise ConfigError("specs must start with NetParams")
    out: list[str] = []
    section_of = {t: n for n, t in SPECS.items()}
    for i, spec in enumerate(specs, start=-1):  # [net] is -1, the first layer 0
        name = section_of.get(type(spec))
        if name is None or (name == "net") != (i < 0):
            raise ConfigError(f"cannot print spec of type {type(spec).__name__}")
        out.append(f"[{name}]")
        for f in fields(spec):
            v = getattr(spec, f.name)
            if f.name == "layers":
                v = tuple(ref - i for ref in v)
            elif f.name == "from_layer":
                v -= i
            out.append(f"{_key(f.name)}={_fmt(v)}")
        out.append("")
    return "\n".join(out)


# ----------------------------------------------------------- shipped configs

def reference_config_path(size: int = 416):
    """Path to a shipped reference network config (input size 416 or 640)."""
    if size not in (416, 640):
        raise ValueError(f"no shipped config for input size {size}")
    return resources.files("littleyolo.cfg") / f"littleyolo-spp-{size}.cfg"


def load_config(path) -> list[NetParams | LayerSpec]:
    """Read a config file and lower it to specs. A malformed or non-UTF-8
    file raises ConfigError naming the file first."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return lower_to_specs(parse_config(fh.read()))
    except ValueError as exc:  # ConfigError, or UnicodeDecodeError
        error = ConfigError(f"{path}: {exc}")
        error.line = getattr(exc, "line", 0)
        raise error from None
