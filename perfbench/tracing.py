"""Spans and counters recorded from outside the package.

Nothing under src/ knows about tracing: `instrument` replaces public
functions of the littleyolo modules with wrappers that open a span around
the original, and `restore` puts the originals back. A module calls a
function through its own global name or through another module's attribute,
so a function is wrapped wherever the calling module looks it up (for
example `pipeline.forward`, the name `detect` calls, for `graph.forward`).

A span records its name, start and end (perf_counter_ns), the span that
was open in the same thread when it started, the operation id current in
that thread (a detect call, an eval call, or `<directory call>/<image>` for
an image a CLI worker reads) and the thread id.
Spans stay in memory until the run writes them out. A span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path


@dataclass(slots=True, eq=False)
class Span:
    name: str
    start: int
    parent: "Span | None"
    op: str | None
    thread: int
    attrs: dict = field(default_factory=dict)
    end: int = 0
    child_ns: int = 0

    @property
    def duration_ns(self) -> int:
        return self.end - self.start

    @property
    def self_ns(self) -> int:
        return self.duration_ns - self.child_ns


class Tracer:
    """In-memory span recorder; one per run, shared by all threads."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self.missing: set[str] = set()  # names to wrap that the package lacks
        self.call: str | None = None    # the operation the main thread runs

    # ------------------------------------------------------------- recording

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_op(self, op: str | None) -> None:
        """Attribute the calling thread's next spans to operation `op`."""
        self._local.op = op

    def begin(self, name: str, **attrs) -> Span:
        stack = self._stack()
        span = Span(name, time.perf_counter_ns(), stack[-1] if stack else None,
                    getattr(self._local, "op", None), threading.get_ident(), attrs)
        self.spans.append(span)
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._stack().pop()
        if span.parent is not None:
            span.parent.child_ns += span.duration_ns

    # -------------------------------------------------------------- patching

    def patch(self, owner, attr: str, make_wrapper) -> None:
        """Replace owner.attr with make_wrapper(original) until restore().

        A name the module no longer has is recorded in `missing`, and the
        run goes on without that span.
        """
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.add(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        setattr(owner, attr, functools.wraps(original)(make_wrapper(original)))
        self._patches.append((owner, attr, original))

    def wrap(self, owner, attr: str, name: str, after=None, before=None) -> None:
        """Open span `name` around every call of owner.attr.

        before(args) runs first and returns span attributes; after(span,
        args, result) runs when the call returned. Either one failing on a
        changed signature marks the span "unrecorded" instead of raising.
        """
        def make(original):
            def wrapper(*args, **kwargs):
                try:
                    attrs = before(args) if before else {}
                except (AttributeError, IndexError, TypeError):
                    attrs = {"unrecorded": 1}
                span = self.begin(name, **attrs)
                try:
                    result = original(*args, **kwargs)
                finally:
                    self.end(span)
                if after is not None:
                    try:
                        after(span, args, result)
                    except (AttributeError, IndexError, TypeError):
                        span.attrs["unrecorded"] = 1
                return result
            return wrapper
        self.patch(owner, attr, make)

    def count_calls(self, owner, attr: str, name: str) -> None:
        """Count calls of owner.attr as attribute `name` of the span open in
        the calling thread (a span belongs to one thread, so no lock)."""
        local = self._local

        def make(original):
            def wrapper(*args, **kwargs):
                stack = getattr(local, "stack", None)
                if stack:
                    attrs = stack[-1].attrs
                    attrs[name] = attrs.get(name, 0) + 1
                return original(*args, **kwargs)
            return wrapper
        self.patch(owner, attr, make)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------- reporting

    def per_op(self) -> dict[str, dict[str, list[float]]]:
        """{op: {key: [total ms, self ms]}}, summed over the op's spans.

        The key is the span name; a conv2d span also counts under its name
        plus `.L<idx>`. Numeric span attributes are summed as counts under
        `<span name>#<attr>`, or under their own name when it is a dotted
        call counter.
        """
        out: dict = defaultdict(lambda: defaultdict(lambda: [0.0, 0.0]))
        for s in self.spans:
            if s.op is None:
                continue
            row = out[s.op]
            keys = [s.name] if "layer" not in s.attrs else [s.name, f"{s.name}.L{s.attrs['layer']}"]
            for key in keys:
                row[key][0] += s.duration_ns / 1e6
                row[key][1] += s.self_ns / 1e6
            for attr, value in s.attrs.items():
                if attr != "layer":
                    row[attr if "." in attr else f"{s.name}#{attr}"][0] += value
        return out

    def dump(self) -> list[dict]:
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [{"name": s.name, "start_ns": s.start, "end_ns": s.end,
                 "parent": index.get(id(s.parent)), "op": s.op,
                 "thread": s.thread, "self_ms": s.self_ns / 1e6, **s.attrs}
                for s in self.spans]


def instrument(tracer: Tracer, conv_layer_of: dict[tuple, int]) -> None:
    """Wrap the littleyolo functions whose spans and counts the report uses.

    conv_layer_of maps (input shape, weights shape, stride) to the layer index,
    so each conv2d span names its layer, also in graphs the CLI builds.
    """
    from littleyolo import (anchors, cli, config, evaluate, graph, imaging,
                            pipeline, tensor, weights)

    w = tracer.wrap
    # set-up, by the names the CLI and the benchmark call them
    w(config, "load_config", "config.load")
    w(cli, "load_config", "config.load")
    w(graph, "build_graph", "graph.build")
    w(weights, "load_weights_file", "weights.load")

    # pipeline stages, by the names detect() calls them
    w(pipeline, "detect", "pipeline.detect")
    w(pipeline, "letterbox", "pipeline.letterbox")
    w(pipeline, "forward", "graph.forward")
    w(pipeline, "decode_yolo", "pipeline.decode")
    w(pipeline, "filter_confidence", "pipeline.filter",
      after=lambda s, a, r: s.attrs.update(raw=len(a[0].objectness), passed=len(r)))
    w(pipeline, "nms", "pipeline.nms",
      after=lambda s, a, r: s.attrs.update(candidates=len(a[0]), kept=len(r)))
    w(pipeline, "unletterbox", "pipeline.unletterbox")

    # kernels, by the names graph.forward calls them
    def conv_layer(args):
        x, params = args[0], args[1]
        return {"layer": conv_layer_of.get((x.shape, params.weights.shape, params.stride), -1)}
    w(tensor, "conv2d", "tensor.conv2d", before=conv_layer)
    w(tensor, "activate", "tensor.activate")
    w(tensor, "maxpool", "tensor.maxpool")
    w(tensor, "upsample_nearest", "tensor.upsample")
    w(tensor, "concat_channels", "tensor.concat")
    w(tensor, "shortcut_add", "tensor.shortcut")

    # image input; each image a worker reads becomes that thread's operation,
    # named after the directory call too, as every call reads the same stems
    def image_op(args):
        tracer.set_op(f"{tracer.call}/{Path(str(args[0])).stem}")
        return {}
    w(imaging, "read_image", "imaging.read", before=image_op)
    w(imaging, "to_chw_float", "imaging.to_chw")

    # the scalar IoU, where NMS and eval matching call it
    tracer.count_calls(pipeline, "iou", "boxes.iou_calls")
    tracer.count_calls(evaluate, "iou", "boxes.iou_calls")

    w(evaluate, "load_ground_truth", "evaluate.load_gt")
    w(evaluate, "load_predictions", "evaluate.load_preds")
    w(evaluate, "match_class", "evaluate.match")
    w(evaluate, "average_precision", "evaluate.ap")

    w(anchors, "load_dims", "anchors.load_dims")
    w(anchors, "cluster_anchors", "anchors.cluster")
    w(anchors, "lloyd_cluster", "anchors.lloyd",
      after=lambda s, a, r: s.attrs.update(iters=r.iterations))
