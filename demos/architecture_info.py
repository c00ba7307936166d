"""Tour of the network architecture: layers, parameters, bytes, FLOPs.

Everything printed here comes from the config file alone -- no weights are
needed to reason about shapes and cost.
"""

import littleyolo as ly


def memory_line(graph) -> str:
    """The most float32 maps a forward pass holds at once, and that plus
    conv2d's float64 scratch, both from the layer shapes."""
    live = graph.plan.live
    total = max(a + b for a, b in zip(live, graph.plan.scratch))
    return f"{max(live) / 1e6:.2f} MB of maps, {total / 1e6:.2f} MB with conv scratch"


def main():
    specs = ly.load_config(ly.reference_config_path(416))
    graph = ly.build_graph(specs)

    print(ly.layer_table(graph))
    print()

    params = ly.param_count(graph)
    nbytes = ly.model_bytes(graph)
    print(f"parameters        : {params:,}")
    print(f"weights file      : {nbytes:,} bytes ({nbytes / 1e6:.2f} MB)")
    print(f"conv flops        : {ly.flops(graph):.3f} B")
    print(f"detection heads   : {[l.out_shape for l in graph.yolo_layers]}")
    print(f"forward memory    : {memory_line(graph)}")
    print()

    # The 640 variant keeps the wiring and just rescales grids and anchors.
    g640 = ly.build_graph(ly.load_config(ly.reference_config_path(640)))
    print("640-input variant:")
    print(f"parameters        : {ly.param_count(g640):,} (unchanged)")
    print(f"conv flops        : {ly.flops(g640):.3f} B")
    print(f"detection heads   : {[l.out_shape for l in g640.yolo_layers]}")
    print(f"forward memory    : {memory_line(g640)}")


if __name__ == "__main__":
    main()
