"""Network graph: build from layer specs, infer shapes, run the forward pass.

build_graph resolves every layer's inputs, output shape and the outputs whose
last consumer it is, once, up front; forward then just executes layers in
order and drops each intermediate after its last use. Shapes are (channels,
height, width); layer index -1 denotes the network input.

forward marks the input rows that repeat the row above (repeated_rows: the
gray pad rows of a landscape frame's letterbox) and carries each output's
repeat mask (see tensor) to its readers, so conv2d computes each run of
repeated rows once. Only whole rows count: the pad columns of a portrait
frame are not skipped. The heads do not change, as each copied row equals
the row the conv would compute there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor
from .config import (Convolutional, LayerSpec, Maxpool, NetParams, Route,
                     Shortcut, Upsample, Yolo)
from .tensor import FLOAT, ShapeError, conv_output_size
from .weights import expected_file_size, layer_param_count

NET_INPUT = -1


class GraphError(ValueError):
    """A layer spec cannot be wired into a consistent graph."""


@dataclass
class Layer:
    index: int
    spec: LayerSpec
    inputs: tuple[int, ...]
    in_channels: int
    out_shape: tuple[int, int, int]
    params: tensor.ConvParams | None = None
    # outputs (layer indices, or NET_INPUT) last read by this layer
    frees: tuple[int, ...] = ()


@dataclass
class NetworkGraph:
    input_shape: tuple[int, int, int]  # (channels, height, width)
    layers: list[Layer] = field(default_factory=list)
    images_seen: int = 0

    @property
    def yolo_layers(self) -> list[Layer]:
        return [l for l in self.layers if isinstance(l.spec, Yolo)]

    def is_populated(self) -> bool:
        return all(l.params is not None for l in self.layers
                   if isinstance(l.spec, Convolutional))


def build_graph(specs: list[NetParams | LayerSpec]) -> NetworkGraph:
    """Wire lowered specs into a shape-checked graph.

    specs starts with NetParams, as lower_to_specs produces (the CLI's
    --size replaces that spec). Conv parameters start empty; use
    weights.load_weights or weights.init_random to populate them.
    """
    if not specs or not isinstance(specs[0], NetParams):
        raise GraphError("specs must start with NetParams")
    net, layer_specs = specs[0], specs[1:]
    input_shape = (net.channels, net.height, net.width)

    graph = NetworkGraph(input_shape=input_shape)
    for i, spec in enumerate(layer_specs):
        prev = i - 1 if i > 0 else NET_INPUT
        if isinstance(spec, Route):
            inputs = spec.layers
            if any(ref < 0 or ref >= i for ref in inputs):
                raise GraphError(f"layer {i}: route references {inputs} must point "
                                 "at earlier layers")
        elif isinstance(spec, Shortcut):
            if spec.from_layer < 0 or spec.from_layer >= i:
                raise GraphError(f"layer {i}: shortcut from {spec.from_layer} must "
                                 "point at an earlier layer")
            inputs = (prev, spec.from_layer)
        else:
            inputs = (prev,)
        srcs = [input_shape if r == NET_INPUT else graph.layers[r].out_shape for r in inputs]
        if len({s[1:] for s in srcs}) != 1:  # route and shortcut: one spatial shape
            raise GraphError(f"layer {i}: route sources disagree on spatial shape: {srcs}"
                             if isinstance(spec, Route) else
                             f"layer {i}: shortcut spatial mismatch {srcs[0]} vs {srcs[1]}")
        c, h, w = srcs[0]
        in_channels = sum(s[0] for s in srcs) if isinstance(spec, Route) else c
        out = (in_channels, h, w)  # route, shortcut and yolo
        if isinstance(spec, (Convolutional, Maxpool)):
            oh = conv_output_size(h, spec.size, spec.stride, spec.padding)
            ow = conv_output_size(w, spec.size, spec.stride, spec.padding)
            conv = isinstance(spec, Convolutional)
            if oh < 1 or ow < 1:
                raise GraphError(f"layer {i}: conv {spec.size}x{spec.size} does not fit "
                                 f"input {h}x{w}" if conv else
                                 f"layer {i}: pool window {spec.size} larger than "
                                 f"input {h}x{w} with padding {spec.padding}")
            out = (spec.filters if conv else c, oh, ow)
        elif isinstance(spec, Upsample):
            out = (c, h * spec.stride, w * spec.stride)
        elif isinstance(spec, Yolo):
            want = len(spec.mask) * (5 + spec.classes)
            if c != want:
                raise GraphError(f"layer {i}: yolo expects {want} input channels "
                                 f"({len(spec.mask)} anchors x (5 + {spec.classes} "
                                 f"classes)) but gets {c}")
        elif not isinstance(spec, (Route, Shortcut)):
            raise GraphError(f"layer {i}: unsupported spec {type(spec).__name__}")
        graph.layers.append(Layer(index=i, spec=spec, inputs=inputs,
                                  in_channels=in_channels, out_shape=out))

    _check_sinks(graph)
    last_use = {ref: layer.index for layer in graph.layers for ref in layer.inputs}
    for ref, index in sorted(last_use.items()):
        graph.layers[index].frees += (ref,)
    return graph


def _check_sinks(graph: NetworkGraph) -> None:
    """When detection heads exist, they are exactly the graph's sinks."""
    if not graph.yolo_layers:
        return
    consumed = {ref for layer in graph.layers for ref in layer.inputs if ref >= 0}
    for layer in graph.layers:
        is_yolo = isinstance(layer.spec, Yolo)
        if is_yolo and layer.index in consumed:
            raise GraphError(f"layer {layer.index}: yolo output cannot feed "
                             "another layer")
        if not is_yolo and layer.index not in consumed:
            raise GraphError(f"layer {layer.index}: dead layer; only yolo layers "
                             "may be unconsumed")


def repeated_rows(x: np.ndarray) -> np.ndarray:
    """Repeat mask of a float32 (C, H, W) map: row i+1 bitwise equals row i."""
    bits = x.view(np.uint32)
    return (bits[:, 1:] == bits[:, :-1]).all(axis=(0, 2))


def _output_repeats(layer: Layer, masks: list[np.ndarray]) -> np.ndarray:
    """Repeat mask of layer's output, from its inputs' masks."""
    spec = layer.spec
    if isinstance(spec, (Convolutional, Maxpool)):
        return tensor.window_repeats(masks[0], spec.size, spec.stride, spec.padding)
    if isinstance(spec, Upsample):
        # rows within one source row's block repeat; the block edges repeat
        # where the source rows do
        mask = np.ones(layer.out_shape[1] - 1, dtype=bool)
        mask[spec.stride - 1::spec.stride] = masks[0]
        return mask
    # route and shortcut: a row repeats in every input; yolo: its one input
    return np.logical_and.reduce(masks)


def _adds_in_place(layer: Layer) -> bool:
    """A shortcut adds into current when nothing reads current later: it is
    not the caller's input, not the skip source, and last read here."""
    cur, skip = layer.inputs
    return cur in layer.frees and cur not in (NET_INPUT, skip)


def forward(graph: NetworkGraph, x: np.ndarray) -> dict[int, np.ndarray]:
    """Run the network; returns {yolo layer index: raw head output}.

    Raw head outputs have shape (len(mask)*(5+classes), grid_h, grid_w) and
    are passed through unchanged by the yolo layers. forward never writes
    into x, and holds it only until the last layer that reads it has run: a
    caller that passes its only reference (a temporary; on CPython >= 3.11 a
    call moves its arguments into the callee) lets it be freed there.
    """
    if x.shape != graph.input_shape:
        raise ShapeError(f"input shape {x.shape} does not match network input "
                         f"{graph.input_shape}")
    if not graph.is_populated():
        raise GraphError("graph has unpopulated conv layers; load or init weights")
    live = {NET_INPUT: np.ascontiguousarray(x, dtype=FLOAT)}
    del x
    repeats = {NET_INPUT: repeated_rows(live[NET_INPUT])}
    heads: dict[int, np.ndarray] = {}
    for layer in graph.layers:
        spec = layer.spec
        src = [live[r] for r in layer.inputs]
        # conv and shortcut outputs are this layer's own: activate them in place
        if isinstance(spec, Convolutional):
            out = tensor.activate(tensor.conv2d(src[0], layer.params,
                                                repeats[layer.inputs[0]]),
                                  spec.activation)
        elif isinstance(spec, Maxpool):
            out = tensor.maxpool(src[0], spec.size, spec.stride, spec.padding)
        elif isinstance(spec, Route):
            out = tensor.concat_channels(src)
        elif isinstance(spec, Shortcut):
            out = tensor.activate(
                tensor.shortcut_add(*src, out=src[0] if _adds_in_place(layer) else None),
                spec.activation)
        elif isinstance(spec, Upsample):
            out = tensor.upsample_nearest(src[0], spec.stride)
        else:  # Yolo: passthrough
            out = src[0]
            heads[layer.index] = out
        assert out.shape == layer.out_shape, \
            f"layer {layer.index}: got {out.shape}, inferred {layer.out_shape}"
        mask = _output_repeats(layer, [repeats[r] for r in layer.inputs])
        for ref in layer.frees:
            del live[ref], repeats[ref]
        live[layer.index], repeats[layer.index] = out, mask
    return heads


# ----------------------------------------------------------------- reporting

def param_count(graph: NetworkGraph) -> int:
    """Total stored reals: conv weights + biases + batch-norm triples."""
    return sum(layer_param_count(l.spec, l.in_channels) for l in graph.layers
               if isinstance(l.spec, Convolutional))


def model_bytes(graph: NetworkGraph) -> int:
    """Size of the serialized weights file: 20-byte header + 4 per real."""
    return expected_file_size(graph)


def layer_flops(layer: Layer) -> int:
    """Multiply-add work of one conv layer: 2 * k^2 * c_in * filters * out_h * out_w."""
    _, oh, ow = layer.out_shape
    return 2 * layer.spec.size ** 2 * layer.in_channels * layer.spec.filters * oh * ow


def flops(graph: NetworkGraph) -> float:
    """Multiply-add work of the conv layers (layer_flops), in units of 1e9."""
    return sum(layer_flops(l) for l in graph.layers
               if isinstance(l.spec, Convolutional)) / 1e9


def live_bytes(graph: NetworkGraph) -> list[int]:
    """Bytes of the float32 maps forward holds while each layer runs: the
    layer's output plus the input and every earlier output not yet freed.

    An output that is its input's array (a yolo passthrough, a shortcut added
    in place) takes over that array's bytes. conv2d's column, product and
    weight buffers are not counted.
    """
    itemsize = np.dtype(FLOAT).itemsize
    size = {NET_INPUT: math.prod(graph.input_shape) * itemsize}
    held = size[NET_INPUT]
    live = []
    for l in graph.layers:
        if isinstance(l.spec, Yolo) or isinstance(l.spec, Shortcut) and _adds_in_place(l):
            size[l.index] = size.pop(l.inputs[0])
        else:
            size[l.index] = math.prod(l.out_shape) * itemsize
            held += size[l.index]
        live.append(held)
        held -= sum(size.pop(r, 0) for r in l.frees)
    return live


def layer_table(graph: NetworkGraph) -> str:
    """Human-readable per-layer table: index, type, filters, size/stride,
    params and GFLOP (conv layers, as param_count and flops() count them),
    live MB (live_bytes / 1e6), output."""
    rows = [f"{'idx':>3}  {'type':<13} {'filters':>7}  {'size/stride':>11}  "
            f"{'params':>9}  {'GFLOP':>6}  {'live MB':>7}  output"]
    for l, held in zip(graph.layers, live_bytes(graph)):
        spec = l.spec
        name = type(spec).__name__.lower()
        filt = size = params = gflop = ""
        if isinstance(spec, Convolutional):
            filt = str(spec.filters)
            size = f"{spec.size}x{spec.size}/{spec.stride}"
            params = str(layer_param_count(spec, l.in_channels))
            gflop = f"{layer_flops(l) / 1e9:.3f}"
        elif isinstance(spec, Maxpool):
            size = f"{spec.size}x{spec.size}/{spec.stride}"
        elif isinstance(spec, Upsample):
            size = f"x{spec.stride}"
        elif isinstance(spec, Route):
            filt = ",".join(str(r) for r in spec.layers)
        elif isinstance(spec, Shortcut):
            filt = str(spec.from_layer)
        c, h, w = l.out_shape
        rows.append(f"{l.index:>3}  {name:<13} {filt:>7}  {size:>11}  {params:>9}  "
                    f"{gflop:>6}  {held / 1e6:>7.2f}  {c} x {h} x {w}")
    return "\n".join(rows)
