"""Anchor generation: k-means++ over annotation box dimensions.

Box (w, h) dimensions are normalized to (0, 1] on ingestion; clustering runs
in that space and the final anchors are scaled to network-input pixels and
sorted by area ascending. The default distance is 1 - IoU between co-centered
boxes, which is what anchor quality actually measures; plain euclidean
distance is available as an alternative. Seeding follows k-means++ (first
centroid uniform, then D^2-weighted) on a splitmix64 stream so results are
reproducible across platforms for a given seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .config import to_floats
from .evaluate import Boxes, GroundTruth, _finite, read_json, voc_files
from .rng import uniform_stream

DISTANCES = ("one_minus_iou", "euclidean")

# reference-network mask layout for k = 6: fine 26x26 head gets the three
# smallest anchors, coarse 13x13 head (first in graph order) the three largest
REFERENCE_MASKS = ((3, 4, 5), (0, 1, 2))
MAX_ITERS = 100  # Lloyd iterations per seeding, at most


class AnchorSet(NamedTuple):
    """Anchor (w, h) pairs in network-input pixels plus per-head masks.

    masks are index tuples in detection-head order (coarse head first); they
    must be disjoint. For the reference networks the coarse 13x13 head takes
    the three largest anchors (3, 4, 5) and the fine 26x26 head the three
    smallest (0, 1, 2).
    """

    anchors: tuple[tuple[float, float], ...]
    masks: tuple[tuple[int, ...], ...]


def wh_iou(dims: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """IoU matrix between co-centered (w, h) rows of dims (N,2) and centroids
    (K,2); 0 where the union is not positive (areas that underflow to 0).
    It is the view of a (K, N) array filled per centroid: ufuncs run along N."""
    w, h = dims.T
    area = w * h
    out = np.empty((len(centroids), len(dims)))
    with np.errstate(divide="ignore", invalid="ignore"):
        for row, (cw, ch) in zip(out, centroids):
            inter = np.minimum(w, cw) * np.minimum(h, ch)
            union = area + cw * ch - inter
            row[:] = np.where(union > 0, inter / union, 0.0)
    return out.T


def _distance_matrix(dims: np.ndarray, centroids: np.ndarray, distance: str) -> np.ndarray:
    """(K, N) distances from each centroid to each box, one centroid row at a time."""
    if distance == "one_minus_iou":
        return 1.0 - wh_iou(dims, centroids).T
    if distance == "euclidean":
        w, h = dims.T
        return np.array([np.sqrt((w - cw) ** 2 + (h - ch) ** 2) for cw, ch in centroids])
    raise ValueError(f"unknown distance {distance!r}; expected one of {DISTANCES}")


def _distinct(dims: np.ndarray) -> int:
    """Distinct (w, h) rows of dims, counted as np.unique(axis=0) counts them."""
    ordered = dims[np.lexsort((dims[:, 1], dims[:, 0]))]
    return min(len(dims), 1) + int((ordered[1:] != ordered[:-1]).any(axis=1).sum())


def kmeanspp_seed(dims: np.ndarray, k: int, seed: int,
                  distance: str = "one_minus_iou") -> np.ndarray:
    """k-means++ initial centroids: first uniform, the rest D^2-weighted."""
    dims = np.asarray(dims, dtype=np.float64).reshape(-1, 2)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    # all rows are counted only when the first k are not distinct
    if _distinct(dims[:k]) < k and k > (distinct := _distinct(dims)):
        raise ValueError(f"k = {k} exceeds the {distinct} distinct box "
                         "dimensions available")
    draws = uniform_stream(seed, k, 0.0, 1.0).tolist()  # draw i picks centroid i
    centroids = [dims[min(int(draws[0] * len(dims)), len(dims) - 1)]]
    nearest = np.full(len(dims), np.inf)  # running min over centroids; np.minimum is exact
    while len(centroids) < k:
        u = draws[len(centroids)]
        nearest = np.minimum(nearest, _distance_matrix(dims, centroids[-1][None], distance)[0])
        weights = nearest * nearest
        total = weights.sum()
        if total <= 0:
            # all points coincide with a centroid; pick any non-centroid point
            fresh = [p for p in np.unique(dims, axis=0)
                     if not any(np.array_equal(p, c) for c in centroids)]
            centroids.append(fresh[min(int(u * len(fresh)), len(fresh) - 1)])
            continue
        idx = int(np.searchsorted(np.cumsum(weights), u * total, side="right"))
        centroids.append(dims[min(idx, len(dims) - 1)])
    return np.array(centroids)


@dataclass(frozen=True)
class ClusterResult:
    centroids: np.ndarray          # (k, 2) in normalized units, unsorted
    assignments: np.ndarray        # (N,) cluster index per input box
    costs: tuple[float, ...]       # total within-cluster distance per iteration
    iterations: int


def _nearest(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per column of d (K, N), the row of its minimum (the first, as np.argmin) and its value."""
    assign, best = np.zeros(d.shape[1], dtype=np.intp), d[0].copy()
    for c in range(1, len(d)):
        assign[d[c] < best] = c
        np.minimum(best, d[c], out=best)
    if np.isnan(best).any():  # a NaN is the minimum in np.argmin, the first one
        assign = d.argmin(axis=0)
    return assign, best


def lloyd_cluster(dims: np.ndarray, k: int, distance: str = "one_minus_iou",
                  seed: int = 0) -> ClusterResult:
    """Lloyd iterations from a k-means++ seeding.

    Centroid updates are arithmetic means of assigned boxes. An empty cluster
    is re-seeded from the point farthest from its nearest centroid. The loop
    stops at an assignment fixpoint, at MAX_ITERS, or just before any update
    that would increase total within-cluster distance, so the recorded costs
    are non-increasing.
    """
    dims = np.asarray(dims, dtype=np.float64).reshape(-1, 2)
    if len(dims) == 0:
        raise ValueError("no box dimensions to cluster")
    centroids = kmeanspp_seed(dims, k, seed, distance)
    assign, nearest = _nearest(_distance_matrix(dims, centroids, distance))
    costs = [float(nearest.sum())]
    for _ in range(MAX_ITERS):
        # bincount adds members in box order, as mean(axis=0); empty clusters keep theirs
        counts = np.bincount(assign, minlength=k)[:, None]
        sums = np.column_stack([np.bincount(assign, weights=col, minlength=k) for col in dims.T])
        new_centroids = np.where(counts > 0, sums / np.maximum(counts, 1), centroids)
        new_assign, nearest = _nearest(_distance_matrix(dims, new_centroids, distance))
        if not np.bincount(new_assign, minlength=k).all():
            # repair empty clusters from the farthest points
            for c in range(k):
                if not np.any(new_assign == c):
                    new_centroids[c] = dims[int(nearest.argmax())]
                    new_assign, nearest = _nearest(_distance_matrix(dims, new_centroids, distance))
        new_cost = float(nearest.sum())
        if new_cost > costs[-1]:
            break  # mean updates under the IoU distance are a heuristic
        fixpoint = np.array_equal(new_assign, assign)
        centroids, assign = new_centroids, new_assign
        costs.append(new_cost)
        if fixpoint:
            break
    return ClusterResult(centroids=centroids, assignments=assign,
                         costs=tuple(costs), iterations=len(costs) - 1)


def cluster_anchors(dims: np.ndarray, k: int = 6, distance: str = "one_minus_iou",
                    seed: int = 0, net_w: int = 416, net_h: int = 416,
                    restarts: int = 10) -> AnchorSet:
    """Cluster normalized (w, h) dims into k anchors in network pixels.

    Runs `restarts` independent seedings (seed, seed+1, ...) and keeps the
    lowest-cost result, the usual defense against bad k-means++ draws; the
    whole procedure stays deterministic in `seed`. Anchors come back sorted
    by area ascending. For k = 6 the masks follow the reference layout
    (coarse head: 3,4,5; fine head: 0,1,2); other k get a single mask over
    all anchors.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    results = [lloyd_cluster(dims, k, distance=distance, seed=seed + r)
               for r in range(restarts)]
    result = min(results, key=lambda c: c.costs[-1])  # the first of equal costs
    scaled = result.centroids * np.array([net_w, net_h], dtype=np.float64)
    order = np.argsort(scaled[:, 0] * scaled[:, 1], kind="stable")
    anchors = tuple((float(w), float(h)) for w, h in scaled[order])
    masks = REFERENCE_MASKS if k == 6 else (tuple(range(k)),)
    return AnchorSet(anchors=anchors, masks=masks)


def mean_iou_report(dims: np.ndarray, anchors) -> float:
    """Mean over dims of the best co-centered IoU against the anchor set.

    dims and anchors must share units (both normalized or both in pixels).
    """
    dims = np.asarray(dims, dtype=np.float64).reshape(-1, 2)
    if len(dims) == 0:
        raise ValueError("no box dimensions to score")
    anchor_arr = np.asarray(list(anchors), dtype=np.float64).reshape(-1, 2)
    return float(wh_iou(dims, anchor_arr).max(axis=1).mean())


def anchors_line(anchor_set: AnchorSet) -> str:
    """Anchors formatted as the config dialect expects: 'w,h, w,h, ...'."""
    def fmt(v: float) -> str:
        return str(int(round(v))) if abs(v - round(v)) < 0.05 else f"{v:.2f}"
    return ", ".join(f"{fmt(w)},{fmt(h)}" for w, h in anchor_set.anchors)


# ------------------------------------------------------------------ ingestion

def _normalize(wh, sizes) -> np.ndarray:
    """(w, h) rows over the (width, height) rows of their images, at most 1;
    rows where a dimension or a size is not positive are dropped."""
    wh, sizes = np.reshape(wh, (-1, 2)), np.reshape(sizes, (-1, 2))
    keep = (wh > 0).all(axis=1) & (sizes > 0).all(axis=1)
    return np.minimum(wh[keep] / sizes[keep], 1.0)


def dims_from_voc_dir(path, class_names: set[str] | None = None) -> np.ndarray:
    """Collect normalized (w, h) pairs from a directory of VOC-style XML
    files; a file without <size> gives none."""
    boxes, sizes = Boxes(GroundTruth), []  # sizes: (width, height) of each box's image
    for f, root in voc_files(Path(path), boxes):
        try:
            size = (0.0, 0.0) if (tag := root.find("size")) is None else _finite(
                "(width, height)", tuple(to_floats([tag.findtext("width", "0"),
                                                    tag.findtext("height", "0")])))
        except ValueError as exc:
            raise ValueError(f"{f}: <size>: {exc}") from None
        sizes += size * (len(boxes) - len(sizes) // 2)
    corners = np.reshape(boxes.corners, (-1, 4))
    keep = slice(None) if class_names is None else np.isin(
        boxes.cls, [boxes.classes[n] for n in class_names if n in boxes.classes])
    return _normalize((corners[:, 2:] - corners[:, :2])[keep], np.reshape(sizes, (-1, 2))[keep])


def dims_from_coco_json(path, class_names: set[str] | None = None) -> np.ndarray:
    """Collect normalized (w, h) pairs from a COCO-style annotation JSON. A
    malformed file raises ValueError naming it, and the image or annotation."""
    doc = read_json(path)
    where = ""
    try:
        wanted = None if class_names is None else {
            cat["id"] for cat in doc.get("categories", []) if cat.get("name") in class_names}
        images = {}
        for n, img in enumerate(doc.get("images", [])):
            where = f"images[{n}]: "  # until its id is read
            where = f"image {img['id']}: "
            images[img["id"]] = _finite("size (width, height)", (img["width"], img["height"]))
        wh, sizes = [], []
        for i, ann in enumerate(doc.get("annotations", [])):
            where = f"annotation {i}: "
            if ((wanted is None or ann.get("category_id") in wanted)
                    and ann.get("image_id") in images):
                x, y, w, h = ann["bbox"]
                wh += _finite("bbox size (w, h)", (w, h))
                _finite("bbox corner (x, y)", (x, y))
                sizes += images[ann["image_id"]]
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        what = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise ValueError(f"{path}: {where}{what}") from None
    return _normalize(wh, sizes)


def load_dims(path, class_names: set[str] | None = None) -> np.ndarray:
    """Auto-detect annotation format: directory of VOC XML, or COCO JSON file."""
    p = Path(path)
    if p.is_dir():
        return dims_from_voc_dir(p, class_names)
    if p.suffix.lower() == ".json":
        return dims_from_coco_json(p, class_names)
    raise ValueError(f"cannot ingest annotations from {path}: expected a "
                     "directory of VOC XML files or a COCO JSON file")
