"""Network config dialect: parse, lower to layer specs, print.

The dialect is INI-like: `[section]` headers followed by `key=value` lines,
with `#` and `;` comments. The first section must be [net] (network input
geometry); every later section describes one layer, indexed from 0 in file
order. Route/shortcut references may be written relative (negative) or
absolute (non-negative); lowering normalizes them to absolute indices.

Sections are read through one table of their specs' fields (cfg key, type,
default), which KNOWN_KEYS and print_config share. The only defaults outside
the dataclasses: a maxpool's padding (size // 2), a yolo mask (every anchor).

parse_config -> ConfigDocument (raw sections, line numbers preserved)
lower_to_specs -> [NetParams, LayerSpec, ...] (typed, validated, defaults applied)
print_config -> canonical text; lower(parse(print(specs))) == specs
"""

from __future__ import annotations

import re
import warnings
from dataclasses import MISSING, dataclass, field, fields
from importlib import resources
from typing import get_type_hints

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


def _fields(spec) -> tuple[tuple, ...]:
    """spec's fields as (name, cfg key, resolved type, default): MISSING for a
    required key, None for the two that lower_to_specs derives."""
    kinds, derived = get_type_hints(spec), {(Maxpool, "padding"), (Yolo, "mask")}
    return tuple((f.name, "from" if f.name == "from_layer" else f.name, kinds[f.name],
                  None if (spec, f.name) in derived else f.default) for f in fields(spec))


_FIELDS = {name: _fields(spec) for name, spec in SPECS.items()}
KNOWN_KEYS = {name: {key for _, key, _, _ in table} for name, table in _FIELDS.items()}


# --------------------------------------------------------------------- parse

# ASCII decimal numbers: sign, digits, fraction, exponent. int() and float()
# also take "1_6" (16, where darknet's atoi reads 1) and non-ASCII digits.
_INT = re.compile(r"[+-]?[0-9]+")
_FLOAT = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")


def _parse_scalar(text: str) -> Value:
    """text as an int or a float when it is one of the numbers above, else
    text itself, which lower_to_specs rejects with its key and line."""
    if _INT.fullmatch(text):
        return int(text)
    if _FLOAT.fullmatch(text):
        return float(text)
    return text


def to_floats(texts: list[str]) -> list[float]:
    """texts, each one of the numbers above with blanks around it, as floats;
    else ValueError for the first that is not. float() reads ASCII text with
    no '_' only as such a number, inf or nan (which callers reject as not
    finite), so texts are checked together, and one by one on failure."""
    joined = "".join(texts)
    if joined.isascii() and "_" not in joined:
        try:
            return list(map(float, texts))
        except ValueError:
            pass
    for text in texts:
        if not _FLOAT.fullmatch(text.strip()):
            raise ValueError(f"could not convert string to float: {text!r}")
    return list(map(float, texts))


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

def _bad(sec: Section, key: str, wants: str, v) -> ConfigError:
    return ConfigError(f"[{sec.name}] key {key!r} must be {wants}, got {v!r}", sec.lines[key])


def _read(sec: Section, f: tuple, index: int):
    """sec's value for field f of layer `index`, checked against f's type. A
    missing key takes f's default, or raises when f has none."""
    name, key, kind, default = f
    v = sec.values.get(key, MISSING)
    if v is MISSING:
        if default is MISSING:
            raise ConfigError(f"[{sec.name}] is missing required key {key!r}", sec.line)
        return default
    if kind is int or kind is bool:
        if not isinstance(v, int):
            raise _bad(sec, key, "an integer", v)
        if kind is bool:
            return bool(v)
        if name == "from_layer":
            return _resolve(v, index, sec, key)
        low = name != "padding"  # 1, or 0 for a maxpool's padding
        if v < low:
            raise _bad(sec, key, f">= {low:d}", v)
        return v
    if kind is float:
        if not isinstance(v, (int, float)):
            raise _bad(sec, key, "a number", v)
        return float(v)
    if kind is str:  # an activation
        if v not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {v!r}", sec.lines[key])
        return v
    flat = v if isinstance(v, tuple) else (v,)  # a one-item list parses as a scalar
    if not flat:  # "key=," parses as an empty list
        raise _bad(sec, key, "a non-empty list", v)
    if kind == tuple[int, ...]:
        if not all(isinstance(r, int) for r in flat):
            raise _bad(sec, key, "integers", v)
        return tuple(_resolve(r, index, sec, key) for r in flat) if name == "layers" else flat
    if len(flat) % 2 or not all(isinstance(x, (int, float)) for x in flat):  # anchors
        raise ConfigError(f"anchors must be w,h pairs, got {flat!r}", sec.lines[key])
    return tuple((float(flat[j]), float(flat[j + 1])) for j in range(0, len(flat), 2))


def _resolve(ref: int, layer_index: int, sec: Section, key: str) -> int:
    absolute = layer_index + ref if ref < 0 else ref
    if not 0 <= absolute < layer_index:
        raise ConfigError(f"[{sec.name}] key {key!r} points at layer {absolute}, which is "
                          f"not before layer {layer_index}", sec.lines[key])
    return absolute


def lower_to_specs(doc: ConfigDocument) -> list[NetParams | LayerSpec]:
    """doc's sections as typed, checked specs with absolute layer references."""
    specs: list[NetParams | LayerSpec] = []
    for i, sec in enumerate(doc.sections, start=-1):  # [net] is -1, the first layer 0
        kw = {f[0]: _read(sec, f, i) for f in _FIELDS[sec.name]}
        if sec.name == "maxpool":
            size, padding = kw["size"], kw["padding"]
            if padding is None:
                kw["padding"] = padding = size // 2
            if padding >= size:
                raise ConfigError(f"maxpool padding {padding} must be < size {size}",
                                  sec.lines.get("padding", sec.line))
        elif sec.name == "yolo":
            n = len(kw["anchors"])
            kw["mask"] = tuple(range(n)) if kw["mask"] is None else kw["mask"]
            if bad := [m for m in kw["mask"] if not 0 <= m < n]:
                raise ConfigError(f"mask index {bad[0]} out of range for {n} anchors",
                                  sec.lines.get("mask", sec.line))
        specs.append(SPECS[sec.name](**kw))
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
        for field_name, key, _, _ in _FIELDS[name]:
            v = getattr(spec, field_name)
            if field_name == "layers":
                v = tuple(ref - i for ref in v)
            elif field_name == "from_layer":
                v -= i
            out.append(f"{key}={_fmt(v)}")
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
