"""littleyolo: CPU inference engine and evaluation toolkit for the
LittleYOLO-SPP vehicle detector.

The pieces compose left to right:

    config.load_config -> graph.build_graph -> weights.load_weights_file
        -> pipeline.detect -> evaluate.mean_ap

plus anchors.cluster_anchors for k-means++ anchor generation and
graph.param_count / model_bytes / flops for architecture diagnostics.
"""

from .boxes import BBox, GIoUBreakdown, giou, giou_loss, giou_loss_grad, iou, mse
from .config import (ConfigError, load_config, lower_to_specs, parse_config,
                     print_config, reference_config_path)
from .graph import (NetworkGraph, build_graph, flops, forward, layer_table,
                    model_bytes, param_count)
from .pipeline import (Detection, LetterboxTransform, decode_yolo, detect,
                       filter_confidence, letterbox, nms, unletterbox)
from .anchors import AnchorSet, cluster_anchors, kmeanspp_seed, mean_iou_report
from .evaluate import EvalCorpus, average_precision, match_class, mean_ap
from .weights import init_random, load_weights, load_weights_file, save_weights, save_weights_file

__version__ = "0.1.0"

__all__ = [
    "BBox", "GIoUBreakdown", "giou", "giou_loss", "giou_loss_grad", "iou", "mse",
    "ConfigError", "load_config", "lower_to_specs", "parse_config",
    "print_config", "reference_config_path",
    "NetworkGraph", "build_graph", "flops", "forward", "layer_table",
    "model_bytes", "param_count",
    "Detection", "LetterboxTransform", "decode_yolo", "detect",
    "filter_confidence", "letterbox", "nms", "unletterbox",
    "AnchorSet", "cluster_anchors", "kmeanspp_seed", "mean_iou_report",
    "EvalCorpus", "average_precision", "match_class", "mean_ap",
    "init_random", "load_weights", "load_weights_file", "save_weights",
    "save_weights_file",
    "__version__",
]
