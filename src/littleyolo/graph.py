"""Network graph: build from layer specs, infer shapes, run the forward pass.

build_graph resolves every layer's inputs, output shape and the outputs whose
last consumer it is, once, up front; a graph works out its Plan from those
shapes once, on first use. forward then just executes the plan's steps and
drops each intermediate after its last use. Shapes are (channels, height,
width); layer index -1 denotes the network input.

forward marks the input rows that repeat the row above (repeated_rows: the
gray pad rows of a landscape frame's letterbox) and carries each output's
repeat mask (see tensor) to its readers, so conv2d computes each run of
repeated rows once. Only whole rows count: the pad columns of a portrait
frame are not skipped. The heads do not change, as each copied row equals
the row the conv would compute there.

forward streams runs: each maximal run of conv and shortcut layers whose
maps hold at least BAND_BYTES each, up to the first conv after it, its
consumer (Plan.runs: layers 0-3 into 4 and 6-7 into 8 at 640, layer 0 into
1 and 2-3 into 4 at 416). Each step makes the consumer's next band of rows;
each streamed layer makes just the rows the step needs, into a fixed buffer
of the rows its readers have yet to read, so no streamed map is held whole.
Maps made before a run (its input, a shortcut's source) are read whole.
perfbench names a traced conv span's layer by its input shape, so the slab
calls of every run's readers (each streamed conv after a run's first layer,
and each consumer) show as layer -1 (L-1) in its per-conv table, and those
layers read 0.00 ms there: that is perfbench's view, not a failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import tensor
from .config import (Convolutional, LayerSpec, Maxpool, NetParams, Route,
                     Shortcut, Upsample, Yolo)
from .tensor import FLOAT, ShapeError, conv_output_size
# param_count and model_bytes (the weights file's size) are reported from here too
from .weights import expected_file_size as model_bytes, layer_param_count, param_count

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

    @cached_property
    def plan(self) -> Plan:
        """forward's plan, worked out on first use and kept: shapes never change
        after build_graph. Threads sharing a graph may each work it out (no lock
        on Python >= 3.12), but it is a pure function of the shapes: all equal."""
        runs, steps, live, i = _runs(self), [], [], 0
        itemsize = np.dtype(FLOAT).itemsize
        size = {NET_INPUT: math.prod(self.input_shape) * itemsize}  # each map held
        held, rows = size[NET_INPUT], {l.index: l.out_shape[1] for l in self.layers}
        while i < len(self.layers):
            run = self.layers[i:runs.get(i, i) + 1]
            l, schedule, bufs = run[-1], _run_plan(self, run) if i in runs else None, 0
            # a yolo head or a shortcut added in place takes over its input's array
            taken = isinstance(l.spec, Yolo) or isinstance(l.spec, Shortcut) and _adds_in_place(l)
            size[l.index] = size.pop(l.inputs[0]) if taken else math.prod(l.out_shape) * itemsize
            held += 0 if taken else size[l.index]
            if schedule:  # a streamed layer's conv calls make the rows of one step
                made = [dict.fromkeys(rows, 0)] + [need for need, _ in schedule[0]]
                for j in [r.index for r in run[:-1]]:
                    rows[j] = max(b[j] - a[j] for a, b in zip(made, made[1:]))
                bufs = sum(math.prod(shape) for shape in schedule[2].values()) * itemsize
            steps.append((run, schedule))
            live += [held + bufs] * len(run)
            held -= sum(size.pop(ref, 0) for x in run for ref in x.frees)
            i = l.index + 1
        return Plan(steps, runs, live, [
            tensor.conv_scratch_bytes(l.in_channels, l.spec.filters, l.spec.size,
                                      rows[l.index], l.out_shape[2])
            if isinstance(l.spec, Convolutional) else 0 for l in self.layers])


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


def _streams(layer: Layer) -> bool:
    """The runs' size rule: a map of at least BAND_BYTES."""
    return math.prod(layer.out_shape) * np.dtype(FLOAT).itemsize >= tensor.BAND_BYTES


def _runs(graph: NetworkGraph) -> dict[int, int]:
    """{first layer: consumer} of each run forward streams: every maximal run
    of conv and shortcut layers that _streams takes, cut back until the next
    layer, its consumer, is a conv and no later layer reads inside the run."""
    layers, runs, first = graph.layers, {}, 0
    last = {ref: l.index for l in layers for ref in l.inputs}
    while first < len(layers):
        end = first
        while end < len(layers) and isinstance(layers[end].spec, (Convolutional, Shortcut)) \
                and _streams(layers[end]):
            end += 1
        m = end
        while m > first and (m == len(layers) or not isinstance(layers[m].spec, Convolutional)
                             or max(last.get(i, m + 1) for i in range(first, m)) > m):
            m -= 1
        if m > first:
            runs[first] = m
        first = end + 1
    return runs


def _run_plan(graph: NetworkGraph, run: list[Layer]):
    """(steps, store, shapes) of a run of streamed layers and its consumer,
    run[-1]. Step t makes the consumer's next band of rows (its
    tensor._band_rows); steps[t] is the rows of each run layer made by its
    end, and the first row each buffer keeps during it, the lowest that a
    reader has yet to read. Layer i writes into buffer store[i]: its own, or
    its current's for a shortcut that adds in place; a map made before the
    run is read whole, as its own buffer. shapes[b] is buffer b's (channels,
    rows, width)."""
    m = run[-1].index
    store = {ref: ref for l in run for ref in l.inputs if ref < run[0].index}
    for l in run[:-1]:
        in_place = isinstance(l.spec, Shortcut) and _adds_in_place(l)
        store[l.index] = store[l.inputs[0]] if in_place else l.index
    readers = {b.index: [r for r in run for j in r.inputs if store[j] == b.index]
               for b in run[:-1] if store[b.index] == b.index}
    rows = dict.fromkeys(readers, 0)
    # window size, stride and padding; a shortcut reads row y for its row y
    geo = {l.index: (l.spec.size, l.spec.stride, l.spec.padding)
           if isinstance(l.spec, Convolutional) else (1, 1, 0) for l in run}
    oh = run[-1].out_shape[1]
    band = tensor._band_rows(run[-1].in_channels, geo[m][0], oh, run[-1].out_shape[2])
    steps, done = [], {l.index: 0 for l in run}
    for end in range(band, oh + band, band):
        need = {**dict.fromkeys(done, 0), m: min(end, oh)}
        for l in reversed(run):
            k, s, p = geo[l.index]
            for ref in l.inputs:
                if ref in need and need[l.index]:
                    need[ref] = max(need[ref], min(graph.layers[ref].out_shape[1],
                                                   (need[l.index] - 1) * s - p + k))
        lows = {b: min([done[b]] + [max(0, done[r.index] * geo[r.index][1] - geo[r.index][2])
                                    for r in rs]) for b, rs in readers.items()}
        rows = {b: max(rows[b], need[b] - lows[b]) for b in rows}
        steps.append((need, lows))
        done = need
    shapes = {b: (graph.layers[b].out_shape[0], rows[b], graph.layers[b].out_shape[2])
              for b in rows}
    return steps, store, shapes


class Plan(NamedTuple):
    """A graph's forward plan, from its shapes alone (NetworkGraph.plan).

    steps: (layers, schedule) in forward's order: each run (runs, {first
    layer: consumer}, from _runs) with its consumer and _run_plan schedule,
    every other layer alone with None. live: per layer, bytes of the float32
    maps held while it runs (the input and outputs not yet freed, its own, a
    run's buffers). scratch: per layer, conv2d's float64 bytes for its largest
    call, the whole map or a streamed layer's most rows a step; 0 if no conv."""
    steps: list[tuple[list[Layer], tuple | None]]
    runs: dict[int, int]
    live: list[int]
    scratch: list[int]


def _run(run: list[Layer], schedule: tuple, live: dict[int, np.ndarray],
         repeats: dict[int, np.ndarray]) -> np.ndarray:
    """The consumer run[-1]'s output, made by streaming the layers before it
    by their schedule (_run_plan) from the maps in live.

    Each streamed map lives in a fixed buffer of the rows its readers still
    need; kept rows move to the front before new rows are written after them.
    """
    m = run[-1].index
    steps, store, shapes = schedule
    bufs = {**{b: live[b] for b in store if b < run[0].index},
            **{b: np.empty(shape, FLOAT) for b, shape in shapes.items()}}
    lo = dict.fromkeys(bufs, 0)  # each buffer's first row
    done = {i: bufs[i].shape[1] if i < run[0].index else 0 for i in (*store, m)}
    out = np.empty(run[-1].out_shape, FLOAT)

    def held(ref: int, a: int, b: int) -> np.ndarray:
        """Rows a..b-1 of map ref."""
        return bufs[store[ref]][:, a - lo[store[ref]]:b - lo[store[ref]]]

    for need, lows in steps:
        for l in run:
            i, a, e, ref = l.index, done[l.index], need[l.index], l.inputs[0]
            if a == e:
                continue
            if i in lows and lows[i] > lo[i]:
                bufs[i][:, :a - lows[i]] = bufs[i][:, lows[i] - lo[i]:a - lo[i]]
                lo[i] = lows[i]
            dest = out[:, a:e] if i == m else held(i, a, e)
            if isinstance(l.spec, Convolutional):
                tensor.conv2d(held(ref, lo[store[ref]], done[ref]), l.params, repeats[ref],
                              rows=(a, e), out=dest, first_row=lo[store[ref]])
            else:  # a shortcut, in place when it writes into its current's buffer
                if store[i] == i:
                    dest[:] = held(ref, a, e)
                tensor.shortcut_add(dest, held(l.inputs[1], a, e), out=dest)
            if i < m:
                tensor.activate(dest, l.spec.activation)
            done[i] = e
    return tensor.activate(out, run[-1].spec.activation)


def forward(graph: NetworkGraph, x: np.ndarray) -> dict[int, np.ndarray]:
    """Run the network; returns {yolo layer index: raw head output}.

    Raw head outputs have shape (len(mask)*(5+classes), grid_h, grid_w) and
    are passed through unchanged by the yolo layers. forward never writes
    into x, and holds it only until the last layer that reads it has run (or
    the run that streams it has): a caller that passes
    its only reference (a temporary; on CPython >= 3.11 a call moves its
    arguments into the callee) lets it be freed there.
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
    for run, schedule in graph.plan.steps:
        layer = run[-1]
        spec = layer.spec
        src = [live.get(r) for r in layer.inputs]  # a consumer's input is streamed
        # conv and shortcut outputs are this layer's own: activate them in place
        if schedule:
            for l in run[:-1]:
                repeats[l.index] = _output_repeats(l, [repeats[r] for r in l.inputs])
            out = _run(run, schedule, live, repeats)
        elif isinstance(spec, Convolutional):
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
        for ref in (ref for l in run for ref in l.frees):
            live.pop(ref, None)  # a streamed map is never in live
            del repeats[ref]
        live[layer.index], repeats[layer.index] = out, mask
    return heads


# ----------------------------------------------------------------- reporting

def layer_flops(layer: Layer) -> int:
    """Multiply-add work of one conv layer: 2 * k^2 * c_in * filters * out_h * out_w."""
    _, oh, ow = layer.out_shape
    return 2 * layer.spec.size ** 2 * layer.in_channels * layer.spec.filters * oh * ow


def flops(graph: NetworkGraph) -> float:
    """Multiply-add work of the conv layers (layer_flops), in units of 1e9."""
    return sum(layer_flops(l) for l in graph.layers
               if isinstance(l.spec, Convolutional)) / 1e9


def layer_table(graph: NetworkGraph) -> str:
    """Human-readable per-layer table: index, type, filters, size/stride,
    params and GFLOP (conv layers, as param_count and flops() count them),
    live MB (Plan.live / 1e6), output."""
    rows = [f"{'idx':>3}  {'type':<13} {'filters':>7}  {'size/stride':>11}  "
            f"{'params':>9}  {'GFLOP':>6}  {'live MB':>7}  output"]
    for l, held in zip(graph.layers, graph.plan.live):
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
