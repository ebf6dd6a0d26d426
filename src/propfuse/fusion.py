"""Merging a frame's candidate boxes into one fused label set.

The main method clusters same-class boxes greedily by IoU against the
running list of fused boxes, keeps every cluster's score-weighted mean
position and mean score, and then scales each cluster's score by
min(cluster size, num_sources) / num_sources: a box corroborated by fewer
sources than were available ends up with proportionally less confidence.
The classic suppression baselines (nms, soft-nms, nmw) are provided on the
same candidate interface for comparison runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import ValidationError
from .geometry import BBox, Detection, LabelSet, iou, unchecked_detection
from .propagation import CandidateSet
from .similarity import cosine_sims
# bench/tracer.py patches ``rescore`` in this module by name and fails a
# traced run where the binding is missing, so it stays bound here although
# _apply_rescoring no longer calls it
from .similarity import rescore  # noqa: F401

__all__ = [
    "METHODS",
    "FusionConfig",
    "Cluster",
    "FusionResult",
    "fuse_class",
    "fuse",
    "fuse_candidates",
    "nms",
    "soft_nms",
    "nmw",
]

METHODS = ("swbf", "wbf", "nms", "snms", "nmw")
MATCH_MODES = ("first", "best")


@dataclass
class FusionConfig:
    method: str = "wbf"
    iou_threshold: float = 0.5
    num_sources: int = 1
    post_threshold: float = 0.0
    snms_sigma: float = 0.5
    match: str = "first"

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValidationError(f"unknown fusion method {self.method!r}; expected one of {METHODS}")
        if not 0.0 < self.iou_threshold < 1.0:
            raise ValidationError(f"iou_threshold must lie in (0, 1), got {self.iou_threshold}")
        if not 0.0 <= self.post_threshold <= 1.0:
            raise ValidationError(f"post_threshold must lie in [0, 1], got {self.post_threshold}")
        if self.num_sources < 1:
            raise ValidationError(f"num_sources must be >= 1, got {self.num_sources}")
        if self.snms_sigma <= 0.0:
            raise ValidationError(f"snms_sigma must be > 0, got {self.snms_sigma}")
        if self.match not in MATCH_MODES:
            raise ValidationError(f"unknown match mode {self.match!r}; expected one of {MATCH_MODES}")


@dataclass
class Cluster:
    """A group of mutually matched boxes and their running fusion."""

    class_id: int
    members: list[Detection] = field(default_factory=list)
    fused_bbox: BBox | None = None
    fused_score: float = 0.0


def _order_key(det: Detection, index: int):
    b = det.bbox
    return (-det.score, b.x1, b.y1, b.x2, b.y2, index)


def _sorted_indices(dets: list[Detection]) -> list[int]:
    return sorted(range(len(dets)), key=lambda i: _order_key(dets[i], i))


def _refuse(members: list[Detection]) -> tuple[BBox, float]:
    """Mean score and score-weighted mean corners of a cluster.

    An all-zero-score cluster falls back to the unweighted mean position; its
    zero score gets it dropped by any post threshold anyway.
    """
    total = sum(m.score for m in members)
    mean_score = total / len(members)
    if total > 0.0:
        x1 = sum(m.score * m.bbox.x1 for m in members) / total
        y1 = sum(m.score * m.bbox.y1 for m in members) / total
        x2 = sum(m.score * m.bbox.x2 for m in members) / total
        y2 = sum(m.score * m.bbox.y2 for m in members) / total
    else:
        n = len(members)
        x1 = sum(m.bbox.x1 for m in members) / n
        y1 = sum(m.bbox.y1 for m in members) / n
        x2 = sum(m.bbox.x2 for m in members) / n
        y2 = sum(m.bbox.y2 for m in members) / n
    return BBox(x1, y1, x2, y2), mean_score


def cluster_class(dets: list[Detection], cfg: FusionConfig) -> list[Cluster]:
    """Greedy clustering of one class's boxes against the running fused list.

    Boxes are visited in descending score order (ties broken by corners then
    input position). Each box joins the first fused box it overlaps more than
    the IoU threshold ("best" match mode picks the highest overlap instead,
    the first of equal ones), and the cluster's fused box/score are
    recomputed after every insertion.

    The overlap is ``geometry.iou`` written out against one flat
    (x1, y1, x2, y2, area) row per fused box, with the same operations in
    the same order, so it gives the same bits without a call per pair.
    """
    clusters: list[Cluster] = []
    rows: list[tuple[float, float, float, float, float]] = []
    thr = cfg.iou_threshold
    best_match = cfg.match == "best"
    for i in _sorted_indices(dets):
        det = dets[i]
        box = det.bbox
        x1, y1, x2, y2 = box.x1, box.y1, box.x2, box.y2
        area = (x2 - x1) * (y2 - y1)
        target: Optional[int] = None
        best = thr
        for j, (fx1, fy1, fx2, fy2, farea) in enumerate(rows):
            # min(a, b) is a if a <= b else b, max(a, b) a if a >= b else b
            iw = (x2 if x2 <= fx2 else fx2) - (x1 if x1 >= fx1 else fx1)
            if iw <= 0:
                continue
            ih = (y2 if y2 <= fy2 else fy2) - (y1 if y1 >= fy1 else fy1)
            if ih <= 0:
                continue
            inter = iw * ih
            overlap = inter / (area + farea - inter)
            if overlap > best:
                target = j
                if not best_match:
                    break
                best = overlap
        if target is None:
            clusters.append(Cluster(det.class_id, [det], fused_bbox=box, fused_score=det.score))
            rows.append((x1, y1, x2, y2, area))
        else:
            cl = clusters[target]
            cl.members.append(det)
            fused, cl.fused_score = _refuse(cl.members)
            cl.fused_bbox = fused
            rows[target] = (fused.x1, fused.y1, fused.x2, fused.y2, fused.area)
    return clusters


def _rescaled(clusters: list[Cluster], cfg: FusionConfig) -> list[Detection]:
    """One detection per cluster with the source-count score rescale applied."""
    out: list[Detection] = []
    for cl in clusters:
        factor = min(len(cl.members), cfg.num_sources) / cfg.num_sources
        # a mean score in [0, 1] times a factor in (0, 1]
        out.append(unchecked_detection(cl.class_id, cl.fused_bbox, cl.fused_score * factor))
    return out


def fuse_class(dets: list[Detection], cfg: FusionConfig) -> list[Detection]:
    """Cluster, rescale by source count, and drop low-confidence fusions.

    The rescale factor is min(cluster size, num_sources) / num_sources, so a
    cluster backed by every available source keeps its mean score unchanged
    while a box corroborated by a single source loses most of its confidence.
    Fused boxes with score <= post_threshold are dropped.
    """
    rescaled = _rescaled(cluster_class(dets, cfg), cfg)
    return [d for d in rescaled if d.score > cfg.post_threshold]


def nms(dets: list[Detection], cfg: FusionConfig) -> list[Detection]:
    """Classic greedy suppression: keep the top box, drop overlapping ones."""
    pool = [dets[i] for i in _sorted_indices(dets)]
    kept: list[Detection] = []
    while pool:
        top = pool.pop(0)
        kept.append(top)
        pool = [d for d in pool if iou(d.bbox, top.bbox) <= cfg.iou_threshold]
    return kept


def _decayed_key(entry):
    d, s, i = entry
    return (-s, d.bbox.x1, d.bbox.y1, d.bbox.x2, d.bbox.y2, i)


def _soft_nms_decay(dets: list[Detection], cfg: FusionConfig) -> list[Detection]:
    """The decay loop of Soft-NMS, before any score filtering.

    After each box is emitted, every remaining box's score is multiplied by
    exp(-iou^2 / sigma) against the emitted box, so disjoint boxes keep their
    scores (factor 1) while heavy overlaps lose most of theirs.
    """
    pool = [(det, det.score, i) for i, det in enumerate(dets)]
    out: list[Detection] = []
    while pool:
        pool.sort(key=_decayed_key)
        det, score, _ = pool.pop(0)
        out.append(replace(det, score=score))
        pool = [
            (d, s * math.exp(-(iou(d.bbox, det.bbox) ** 2) / cfg.snms_sigma), i)
            for d, s, i in pool
        ]
    return out


def soft_nms(dets: list[Detection], cfg: FusionConfig) -> list[Detection]:
    """Gaussian Soft-NMS: decay overlapping scores, then drop low ones."""
    return [d for d in _soft_nms_decay(dets, cfg) if d.score > cfg.post_threshold]


def nmw(dets: list[Detection], cfg: FusionConfig) -> list[Detection]:
    """Non-maximum weighted: suppress like nms but emit a weighted position.

    Each suppressed cluster contributes one box placed at the average of its
    members' corners weighted by member score times overlap with the top box;
    the emitted score is the top box's own.
    """
    pool = [dets[i] for i in _sorted_indices(dets)]
    out: list[Detection] = []
    while pool:
        top = pool[0]
        members: list[tuple[Detection, float]] = []
        rest: list[Detection] = []
        for d in pool:
            overlap = iou(d.bbox, top.bbox)
            if overlap > cfg.iou_threshold:
                members.append((d, d.score * overlap))
            else:
                rest.append(d)
        pool = rest
        total = sum(wt for _, wt in members)
        if total > 0.0:
            x1 = sum(wt * d.bbox.x1 for d, wt in members) / total
            y1 = sum(wt * d.bbox.y1 for d, wt in members) / total
            x2 = sum(wt * d.bbox.x2 for d, wt in members) / total
            y2 = sum(wt * d.bbox.y2 for d, wt in members) / total
            box = BBox(x1, y1, x2, y2)
        else:
            box = top.bbox
        out.append(Detection(top.class_id, box, top.score))
    return out


@dataclass
class FusionResult:
    labels: LabelSet
    clusters: int = 0
    dropped_rescore: int = 0
    dropped_post: int = 0


def _apply_rescoring(candidates: CandidateSet, provider) -> tuple[list[Detection], int]:
    """Rescore every carried candidate, in one batch per target.

    The provider is asked once per frame (the target, and each source) for
    all the crops of this candidate set. Each carried score is multiplied by
    the cosine of its two crops, as ``rescore`` does one pair at a time; the
    cosines of all the pairs come from one ``cosine_sims`` per descriptor
    dimension, with the bits ``cosine_sim`` gives.
    """
    if provider is None:
        raise ValidationError("the swbf method needs a feature provider for rescoring")
    target = candidates.frame_index
    crops: dict[int, list[BBox]] = {}
    for det, src_box in zip(candidates.detections, candidates.source_boxes):
        if det.source_offset == 0:
            continue
        if src_box is None:
            raise ValidationError(f"carried candidate on frame {target} has no source box")
        crops.setdefault(target, []).append(det.bbox)
        crops.setdefault(target - det.source_offset, []).append(src_box)
    # each frame's descriptors, in the order its crops were listed above
    vecs = {frame: iter(provider.embed_many(frame, boxes)) for frame, boxes in crops.items()}

    kept: list[Detection] = []
    dropped = 0
    # descriptor dimension -> (positions in kept, target rows, source rows)
    pairs: dict[int, tuple[list[int], list[np.ndarray], list[np.ndarray]]] = {}
    for det in candidates.detections:
        if det.source_offset == 0:
            kept.append(det)
            continue
        target_feat = next(vecs[target])
        source_feat = next(vecs[target - det.source_offset])
        if target_feat is None or source_feat is None:
            # a crop outside its frame, or a lookup miss without a fallback
            dropped += 1
            continue
        if target_feat.dim != source_feat.dim:
            raise ValidationError(f"feature dimensions differ: {target_feat.dim} vs {source_feat.dim}")
        slots, rows_t, rows_s = pairs.setdefault(target_feat.dim, ([], [], []))
        slots.append(len(kept))
        rows_t.append(target_feat.values)
        rows_s.append(source_feat.values)
        kept.append(det)
    for slots, rows_t, rows_s in pairs.values():
        for i, sim in zip(slots, cosine_sims(np.stack(rows_t), np.stack(rows_s)).tolist()):
            det = kept[i]
            # a score and a cosine both in [0, 1] give a product in [0, 1]
            kept[i] = unchecked_detection(det.class_id, det.bbox, det.score * sim, det.source_offset)
    return kept, dropped


def fuse_candidates(
    candidates: CandidateSet,
    cfg: FusionConfig,
    provider=None,
) -> FusionResult:
    """Run the configured method over a candidate set, with bookkeeping."""
    dropped_rescore = 0
    if cfg.method == "swbf":
        dets, dropped_rescore = _apply_rescoring(candidates, provider)
    else:
        dets = list(candidates.detections)

    by_class: dict[int, list[Detection]] = {}
    for det in dets:
        by_class.setdefault(det.class_id, []).append(det)

    fused: list[Detection] = []
    for class_id in sorted(by_class):
        group = by_class[class_id]
        if cfg.method in ("swbf", "wbf"):
            fused.extend(_rescaled(cluster_class(group, cfg), cfg))
        elif cfg.method == "nms":
            fused.extend(nms(group, cfg))
        elif cfg.method == "snms":
            fused.extend(_soft_nms_decay(group, cfg))
        else:
            fused.extend(nmw(group, cfg))

    pre_filter = len(fused)
    fused = [d for d in fused if d.score > cfg.post_threshold]
    ordered = [fused[i] for i in _sorted_indices(fused)]
    labels = LabelSet(
        candidates.frame_index,
        [
            d if d.source_offset == 0 else unchecked_detection(d.class_id, d.bbox, d.score)
            for d in ordered
        ],
    )
    return FusionResult(
        labels=labels,
        clusters=pre_filter,
        dropped_rescore=dropped_rescore,
        dropped_post=pre_filter - len(labels.detections),
    )


def fuse(candidates: CandidateSet, cfg: FusionConfig, provider=None) -> LabelSet:
    """Fused label set for one frame, sorted by descending score."""
    return fuse_candidates(candidates, cfg, provider).labels
