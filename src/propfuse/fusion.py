"""Merging a frame's candidate boxes into one fused label set.

The main method clusters same-class boxes greedily by IoU against the
running list of fused boxes, keeps every cluster's score-weighted mean
position and mean score, and then scales each cluster's score by
min(cluster size, num_sources) / num_sources: a box corroborated by fewer
sources than were available ends up with proportionally less confidence.
swbf first rescores the carried boxes (``similarity.rescore_many``). The
classic suppression baselines (nms, soft-nms, nmw) are provided on the same
candidate interface for comparison runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

from .errors import ValidationError
from .geometry import (
    BBox,
    Detection,
    LabelSet,
    iou,
    ordered_sum,
    unchecked_bbox,
    unchecked_detection,
)
from .propagation import CandidateSet
from .similarity import rescore_many
# bench/tracer.py patches ``rescore`` in this module by name and fails a
# traced run where the binding is missing, so it stays bound here although
# _apply_rescoring does not call it
from .similarity import rescore  # noqa: F401

__all__ = [
    "METHODS",
    "FusionConfig",
    "Cluster",
    "FusionResult",
    "fuse_candidates",
    "nms",
    "soft_nms",
    "nmw",
]

METHODS = ("swbf", "wbf", "nms", "snms", "nmw")
MATCH_MODES = ("first", "best")
_INF = math.inf


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
        if not 0.0 < self.snms_sigma < math.inf:
            raise ValidationError(f"snms_sigma must be finite and > 0, got {self.snms_sigma}")
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


def cluster_class(dets: list[Detection], cfg: FusionConfig) -> list[Cluster]:
    """Greedy clustering of one class's boxes against the running fused list.

    Boxes are visited in descending score order (ties broken by corners then
    input position). Each box joins the first fused box it overlaps more than
    the IoU threshold ("best" match mode picks the highest overlap instead,
    the first of equal ones), and the cluster's fused box/score are
    recomputed after every insertion: the mean score and the score-weighted
    mean corners, or the plain mean corners when every member scores 0.

    The overlap is ``geometry.iou`` written out against one flat
    (x1, y1, x2, y2, area) row per fused box, with the same operations in
    the same order, so it gives the same bits without a call per pair.
    Each cluster keeps running totals of its members' score, score times
    each corner, and each corner, added in join order from 0.0: at every
    join they are the ``ordered_sum`` of its members.
    """
    clusters: list[Cluster] = []
    rows: list[tuple[float, float, float, float, float]] = []
    # per cluster: the totals of (s, s*x1, s*y1, s*x2, s*y2, x1, y1, x2, y2)
    totals: list[tuple[float, ...]] = []
    thr = cfg.iou_threshold
    best_match = cfg.match == "best"
    for i in _sorted_indices(dets):
        det = dets[i]
        box = det.bbox
        s = det.score
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
            clusters.append(Cluster(det.class_id, [det], fused_bbox=box, fused_score=s))
            rows.append((x1, y1, x2, y2, area))
            # each total starts from 0.0, as ``ordered_sum`` does
            totals.append((
                0.0 + s, 0.0 + s * x1, 0.0 + s * y1, 0.0 + s * x2, 0.0 + s * y2,
                0.0 + x1, 0.0 + y1, 0.0 + x2, 0.0 + y2,
            ))
            continue
        cl = clusters[target]
        cl.members.append(det)
        n = len(cl.members)
        ts, tx1, ty1, tx2, ty2, px1, py1, px2, py2 = totals[target]
        ts, tx1, ty1, tx2, ty2 = ts + s, tx1 + s * x1, ty1 + s * y1, tx2 + s * x2, ty2 + s * y2
        px1, py1, px2, py2 = px1 + x1, py1 + y1, px2 + x2, py2 + y2
        totals[target] = (ts, tx1, ty1, tx2, ty2, px1, py1, px2, py2)
        if ts > 0.0:
            mx1, my1, mx2, my2 = tx1 / ts, ty1 / ts, tx2 / ts, ty2 / ts
        else:
            mx1, my1, mx2, my2 = px1 / n, py1 / n, px2 / n, py2 / n
        # what ``BBox`` checks: finite and not degenerate; a mean of boxes
        # less than an ulp wide can still collapse, and BBox then raises
        if -_INF < mx1 < mx2 < _INF and -_INF < my1 < my2 < _INF:
            cl.fused_bbox = unchecked_bbox(mx1, my1, mx2, my2)
        else:
            cl.fused_bbox = BBox(mx1, my1, mx2, my2)
        cl.fused_score = ts / n
        rows[target] = (mx1, my1, mx2, my2, (mx2 - mx1) * (my2 - my1))
    return clusters


def _rescaled(clusters: list[Cluster], cfg: FusionConfig) -> list[Detection]:
    """One detection per cluster with the source-count score rescale applied."""
    out: list[Detection] = []
    for cl in clusters:
        factor = min(len(cl.members), cfg.num_sources) / cfg.num_sources
        # a mean score in [0, 1] times a factor in (0, 1]
        out.append(unchecked_detection(cl.class_id, cl.fused_bbox, cl.fused_score * factor))
    return out


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
        total = ordered_sum(wt for _, wt in members)
        if total > 0.0:
            x1 = ordered_sum(wt * d.bbox.x1 for d, wt in members) / total
            y1 = ordered_sum(wt * d.bbox.y1 for d, wt in members) / total
            x2 = ordered_sum(wt * d.bbox.x2 for d, wt in members) / total
            y2 = ordered_sum(wt * d.bbox.y2 for d, wt in members) / total
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
    """The candidates with each carried one rescored, and how many were dropped.

    The target's own boxes pass through; the carried ones go through one
    ``rescore_many`` batch, which drops those whose crops cannot be embedded.
    """
    if provider is None:
        raise ValidationError("the swbf method needs a feature provider for rescoring")
    target = candidates.frame_index
    carried: list[Detection] = []
    sources: list[tuple[int, BBox]] = []
    for det, src_box in zip(candidates.detections, candidates.source_boxes):
        if det.source_offset != 0:
            if src_box is None:
                raise ValidationError(f"carried candidate on frame {target} has no source box")
            carried.append(det)
            sources.append((target - det.source_offset, src_box))
    rescored = iter(rescore_many(provider, target, carried, sources))
    dets = [det if det.source_offset == 0 else next(rescored) for det in candidates.detections]
    kept = [det for det in dets if det is not None]
    return kept, len(dets) - len(kept)


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
