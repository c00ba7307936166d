"""Network graph: build from layer specs, infer shapes, run the forward pass.

build_graph resolves every layer's inputs, output shape and the outputs whose
last consumer it is, once, up front; forward then just executes layers in
order and drops each intermediate after its last use. Shapes are (channels,
height, width); layer index -1 denotes the network input.
"""

from __future__ import annotations

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
    shapes: list[tuple[int, int, int]] = []  # per-layer output shapes

    def shape_of(ref: int) -> tuple[int, int, int]:
        return input_shape if ref == NET_INPUT else shapes[ref]

    for i, spec in enumerate(layer_specs):
        prev = i - 1 if i > 0 else NET_INPUT
        if isinstance(spec, Convolutional):
            inputs = (prev,)
            c, h, w = shape_of(prev)
            oh = conv_output_size(h, spec.size, spec.stride, spec.padding)
            ow = conv_output_size(w, spec.size, spec.stride, spec.padding)
            if oh < 1 or ow < 1:
                raise GraphError(f"layer {i}: conv {spec.size}x{spec.size} does not "
                                 f"fit input {h}x{w}")
            out = (spec.filters, oh, ow)
            in_channels = c
        elif isinstance(spec, Maxpool):
            inputs = (prev,)
            c, h, w = shape_of(prev)
            oh = conv_output_size(h, spec.size, spec.stride, spec.padding)
            ow = conv_output_size(w, spec.size, spec.stride, spec.padding)
            if oh < 1 or ow < 1:
                raise GraphError(f"layer {i}: pool window {spec.size} larger than "
                                 f"input {h}x{w} with padding {spec.padding}")
            out = (c, oh, ow)
            in_channels = c
        elif isinstance(spec, Route):
            inputs = spec.layers
            if any(ref < 0 or ref >= i for ref in inputs):
                raise GraphError(f"layer {i}: route references {inputs} must point "
                                 "at earlier layers")
            srcs = [shape_of(r) for r in inputs]
            spatial = {s[1:] for s in srcs}
            if len(spatial) != 1:
                raise GraphError(f"layer {i}: route sources disagree on spatial "
                                 f"shape: {srcs}")
            out = (sum(s[0] for s in srcs),) + srcs[0][1:]
            in_channels = out[0]
        elif isinstance(spec, Shortcut):
            if spec.from_layer < 0 or spec.from_layer >= i:
                raise GraphError(f"layer {i}: shortcut from {spec.from_layer} must "
                                 "point at an earlier layer")
            inputs = (prev, spec.from_layer)
            cur, skip = shape_of(prev), shape_of(spec.from_layer)
            if cur[1:] != skip[1:]:
                raise GraphError(f"layer {i}: shortcut spatial mismatch "
                                 f"{cur} vs {skip}")
            out = cur
            in_channels = cur[0]
        elif isinstance(spec, Upsample):
            inputs = (prev,)
            c, h, w = shape_of(prev)
            out = (c, h * spec.stride, w * spec.stride)
            in_channels = c
        elif isinstance(spec, Yolo):
            inputs = (prev,)
            c, h, w = shape_of(prev)
            want = len(spec.mask) * (5 + spec.classes)
            if c != want:
                raise GraphError(f"layer {i}: yolo expects {want} input channels "
                                 f"({len(spec.mask)} anchors x (5 + {spec.classes} "
                                 f"classes)) but gets {c}")
            out = (c, h, w)
            in_channels = c
        else:
            raise GraphError(f"layer {i}: unsupported spec {type(spec).__name__}")
        shapes.append(out)
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


def forward(graph: NetworkGraph, x: np.ndarray) -> dict[int, np.ndarray]:
    """Run the network; returns {yolo layer index: raw head output}.

    Raw head outputs have shape (len(mask)*(5+classes), grid_h, grid_w) and
    are passed through unchanged by the yolo layers.
    """
    if x.shape != graph.input_shape:
        raise ShapeError(f"input shape {x.shape} does not match network input "
                         f"{graph.input_shape}")
    if not graph.is_populated():
        raise GraphError("graph has unpopulated conv layers; load or init weights")
    live = {NET_INPUT: np.ascontiguousarray(x, dtype=FLOAT)}
    heads: dict[int, np.ndarray] = {}
    for layer in graph.layers:
        spec = layer.spec
        src = [live[r] for r in layer.inputs]
        # conv and shortcut outputs are this layer's own: activate them in place
        if isinstance(spec, Convolutional):
            out = tensor.activate(tensor.conv2d(src[0], layer.params), spec.activation)
        elif isinstance(spec, Maxpool):
            out = tensor.maxpool(src[0], spec.size, spec.stride, spec.padding)
        elif isinstance(spec, Route):
            out = tensor.concat_channels(src)
        elif isinstance(spec, Shortcut):
            # add into current when nothing reads it later: not the caller's
            # input, not the skip source, and last read here
            cur, skip = layer.inputs
            inplace = cur in layer.frees and cur not in (NET_INPUT, skip)
            out = tensor.activate(tensor.shortcut_add(src[0], src[1],
                                                      out=src[0] if inplace else None),
                                  spec.activation)
        elif isinstance(spec, Upsample):
            out = tensor.upsample_nearest(src[0], spec.stride)
        else:  # Yolo: passthrough
            out = src[0]
            heads[layer.index] = out
        assert out.shape == layer.out_shape, \
            f"layer {layer.index}: got {out.shape}, inferred {layer.out_shape}"
        for ref in layer.frees:
            del live[ref]
        live[layer.index] = out
    return heads


# ----------------------------------------------------------------- reporting

def param_count(graph: NetworkGraph) -> int:
    """Total stored reals: conv weights + biases + batch-norm triples."""
    return sum(layer_param_count(l.spec, l.in_channels) for l in graph.layers
               if isinstance(l.spec, Convolutional))


def model_bytes(graph: NetworkGraph) -> int:
    """Size of the serialized weights file: 20-byte header + 4 per real."""
    return expected_file_size(graph)


def flops(graph: NetworkGraph) -> float:
    """Multiply-add work of the conv layers, in units of 1e9.

    Per conv: 2 * k^2 * c_in * filters * out_h * out_w.
    """
    total = 0
    for l in graph.layers:
        if isinstance(l.spec, Convolutional):
            _, oh, ow = l.out_shape
            total += 2 * l.spec.size ** 2 * l.in_channels * l.spec.filters * oh * ow
    return total / 1e9


def layer_table(graph: NetworkGraph) -> str:
    """Human-readable per-layer table: index, type, filters, size/stride, output."""
    rows = [f"{'idx':>3}  {'type':<13} {'filters':>7}  {'size/stride':>11}  output"]
    for l in graph.layers:
        spec = l.spec
        name = type(spec).__name__.lower()
        filt = size = ""
        if isinstance(spec, Convolutional):
            filt = str(spec.filters)
            size = f"{spec.size}x{spec.size}/{spec.stride}"
        elif isinstance(spec, Maxpool):
            size = f"{spec.size}x{spec.size}/{spec.stride}"
        elif isinstance(spec, Upsample):
            size = f"x{spec.stride}"
        elif isinstance(spec, Route):
            filt = ",".join(str(r) for r in spec.layers)
        elif isinstance(spec, Shortcut):
            filt = str(spec.from_layer)
        c, h, w = l.out_shape
        rows.append(f"{l.index:>3}  {name:<13} {filt:>7}  {size:>11}  {c} x {h} x {w}")
    return "\n".join(rows)
