"""Merging a frame's candidate boxes into one fused label set.

The main method clusters same-class boxes greedily by IoU against the
running list of fused boxes, keeps every cluster's score-weighted mean
position and mean score, and then scales each cluster's score by
min(cluster size, num_sources) / num_sources: a box corroborated by fewer
sources than were available ends up with proportionally less confidence.
swbf first rescores the carried boxes (``similarity.rescore_many``). Both
work on a candidate set's flat rows, and every method's fused labels are
one ``LabelSet`` row each. The classic suppression baselines (nms,
soft-nms, nmw) are provided on the same candidate interface for comparison
runs, through its ``detections`` view.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

from .errors import ValidationError
from .geometry import BBox, Detection, LabelSet, iou, ordered_sum
from .propagation import CandidateSet
from .similarity import rescore_many
# bench/tracer.py patches ``rescore`` in this module by name and fails a
# traced run where the binding is missing, so it stays bound here although
# _apply_rescoring does not call it
from .similarity import rescore  # noqa: F401

__all__ = [
    "METHODS",
    "FusionConfig",
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


def _order_key(det: Detection, index: int):
    b = det.bbox
    return (-det.score, b.x1, b.y1, b.x2, b.y2, index)


def _sorted_indices(dets: list[Detection]) -> list[int]:
    return sorted(range(len(dets)), key=lambda i: _order_key(dets[i], i))


def _row_order(rows: list[tuple]) -> list[int]:
    """The positions of candidate or fused rows in ``_order_key``'s order.

    A row starts (class_id, x1, y1, x2, y2, score); the key is
    (-score, x1, y1, x2, y2, position), so no two keys are equal.
    """
    keys = sorted([(-r[5], r[1], r[2], r[3], r[4], i) for i, r in enumerate(rows)])
    return [key[5] for key in keys]


def cluster_class(rows: list[tuple], cfg: FusionConfig) -> list[tuple]:
    """Greedy clustering of one class's candidate rows against the running fused list.

    ``rows`` are ``propagation.CandidateSet`` rows. They are visited in
    descending score order (ties broken by corners then input position).
    Each joins the first fused box it overlaps more than the IoU threshold
    ("best" match mode picks the highest overlap instead, the first of
    equal ones), and the cluster's fused box/score are recomputed after
    every insertion: the mean score and the score-weighted mean corners, or
    the plain mean corners when every member scores 0. Returns one
    ``(x1, y1, x2, y2, score, members)`` tuple per cluster, in creation
    order, where ``members`` lists the input positions of its rows in join
    order; a lone member keeps its own corners and score.

    The overlap is ``geometry.iou`` written out against one flat
    (x1, y1, x2, y2, area) row per fused box: disjoint boxes are told by
    comparing corners, and overlapping ones go through iou's operations in
    iou's order, so it gives the same bits without a call per pair.
    Each cluster keeps running totals of its members' score, score times
    each corner, and each corner, added in join order from 0.0: at every
    join they are the ``ordered_sum`` of its members.
    """
    fused: list[tuple[float, float, float, float, float]] = []
    scores: list[float] = []
    members: list[list[int]] = []
    # per cluster: the totals of (s, s*x1, s*y1, s*x2, s*y2, x1, y1, x2, y2)
    totals: list[tuple[float, ...]] = []
    thr = cfg.iou_threshold
    best_match = cfg.match == "best"
    for i in _row_order(rows):
        _, x1, y1, x2, y2, s, _, _ = rows[i]
        area = (x2 - x1) * (y2 - y1)
        target: Optional[int] = None
        best = thr
        for j, (fx1, fy1, fx2, fy2, farea) in enumerate(fused):
            # both boxes have x1 < x2 and y1 < y2, so this is iou's iw <= 0 or ih <= 0
            if x2 <= fx1 or fx2 <= x1 or y2 <= fy1 or fy2 <= y1:
                continue
            # min(a, b) is a if a <= b else b, max(a, b) a if a >= b else b
            iw = (x2 if x2 <= fx2 else fx2) - (x1 if x1 >= fx1 else fx1)
            ih = (y2 if y2 <= fy2 else fy2) - (y1 if y1 >= fy1 else fy1)
            inter = iw * ih
            overlap = inter / (area + farea - inter)
            if overlap > best:
                target = j
                if not best_match:
                    break
                best = overlap
        if target is None:
            fused.append((x1, y1, x2, y2, area))
            scores.append(s)
            members.append([i])
            # each total starts from 0.0, as ``ordered_sum`` does
            totals.append((
                0.0 + s, 0.0 + s * x1, 0.0 + s * y1, 0.0 + s * x2, 0.0 + s * y2,
                0.0 + x1, 0.0 + y1, 0.0 + x2, 0.0 + y2,
            ))
            continue
        joined = members[target]
        joined.append(i)
        n = len(joined)
        ts, tx1, ty1, tx2, ty2, px1, py1, px2, py2 = totals[target]
        ts, tx1, ty1, tx2, ty2 = ts + s, tx1 + s * x1, ty1 + s * y1, tx2 + s * x2, ty2 + s * y2
        px1, py1, px2, py2 = px1 + x1, py1 + y1, px2 + x2, py2 + y2
        totals[target] = (ts, tx1, ty1, tx2, ty2, px1, py1, px2, py2)
        if ts > 0.0:
            mx1, my1, mx2, my2 = tx1 / ts, ty1 / ts, tx2 / ts, ty2 / ts
        else:
            mx1, my1, mx2, my2 = px1 / n, py1 / n, px2 / n, py2 / n
        # what ``BBox`` checks: finite and not degenerate; a mean of boxes
        # less than an ulp wide can still collapse, and BBox raises its error
        if not (-_INF < mx1 < mx2 < _INF and -_INF < my1 < my2 < _INF):
            BBox(mx1, my1, mx2, my2)
        scores[target] = ts / n
        fused[target] = (mx1, my1, mx2, my2, (mx2 - mx1) * (my2 - my1))
    return [(x1, y1, x2, y2, s, m) for (x1, y1, x2, y2, _), s, m in zip(fused, scores, members)]


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


def _apply_rescoring(candidates: CandidateSet, provider) -> tuple[list[tuple], int]:
    """The candidate rows with each carried one rescored, and how many were dropped.

    The target's own rows pass through; the carried ones go through one
    ``rescore_many`` batch, which drops those whose crops cannot be embedded.
    """
    if provider is None:
        raise ValidationError("the swbf method needs a feature provider for rescoring")
    target = candidates.frame_index
    rows = candidates.rows
    carried = [row for row in rows if row[6]]
    if any(row[7] is None for row in carried):
        raise ValidationError(f"carried candidate on frame {target} has no source box")
    rescored = iter(rescore_many(provider, target, carried))
    rows = [row if not row[6] else next(rescored) for row in rows]
    kept = [row for row in rows if row is not None]
    return kept, len(rows) - len(kept)


def fuse_candidates(
    candidates: CandidateSet,
    cfg: FusionConfig,
    provider=None,
) -> FusionResult:
    """Run the configured method over a candidate set, with bookkeeping.

    swbf and wbf cluster the candidate rows; the suppression baselines work
    on the ``detections`` view. The labels kept are rows, in score order.
    """
    dropped_rescore = 0
    # one ``LabelSet`` row per fused box, classes in order; each holds a
    # checked box and a score in [0, 1]
    fused: list[tuple] = []
    if cfg.method in ("swbf", "wbf"):
        if cfg.method == "swbf":
            rows, dropped_rescore = _apply_rescoring(candidates, provider)
        else:
            rows = candidates.rows
        by_class: dict[int, list[tuple]] = {}
        for row in rows:
            by_class.setdefault(row[0], []).append(row)
        ns = cfg.num_sources
        for class_id in sorted(by_class):
            for x1, y1, x2, y2, score, members in cluster_class(by_class[class_id], cfg):
                # the source-count rescale: a mean score in [0, 1] times a factor in (0, 1]
                n = len(members)
                score *= (n if n < ns else ns) / ns
                fused.append((class_id, x1, y1, x2, y2, score, 0, None))
    else:
        baseline = {"nms": nms, "snms": _soft_nms_decay, "nmw": nmw}[cfg.method]
        by_class_dets: dict[int, list[Detection]] = {}
        for det in candidates.detections:
            by_class_dets.setdefault(det.class_id, []).append(det)
        for class_id in sorted(by_class_dets):
            for d in baseline(by_class_dets[class_id], cfg):
                fused.append((d.class_id, *d.bbox.as_tuple(), d.score, 0, None))

    kept = [row for row in fused if row[5] > cfg.post_threshold]
    labels = [kept[i] for i in _row_order(kept)]
    return FusionResult(
        labels=LabelSet(candidates.frame_index, rows=labels),
        clusters=len(fused),
        dropped_rescore=dropped_rescore,
        dropped_post=len(fused) - len(kept),
    )
