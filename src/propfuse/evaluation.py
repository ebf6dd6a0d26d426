"""Average-precision metrics and the forward-backward motion consistency check.

AP follows the usual 101-point recipe: detections are ranked by score,
matched greedily (within their own frame) against the unmatched ground-truth
box of highest overlap at or above the IoU threshold, and precision is
max-interpolated over the recall grid 0.00, 0.01, ..., 1.00. The summary
metric averages AP over IoU thresholds 0.50 to 0.95 in steps of 0.05.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Any, Iterable, Mapping, Optional, Sequence

from .errors import ValidationError, VocabularyError
from .geometry import BBox, Detection, FrameSize, LabelSet, iou
from .motion import DEFAULT_MIN_COVERAGE, ComposedMotion, FlowStore, carry_boxes
# bench/tracer.py patches ``transfer_box`` here by name and fails a traced
# run without the binding, so it stays bound although nothing here calls it
from .motion import transfer_box  # noqa: F401

__all__ = [
    "IOU_THRESHOLDS",
    "RECALL_GRID_POINTS",
    "PRCurve",
    "average_precision",
    "EvalReport",
    "evaluate",
    "ConsistencyReport",
    "self_consistency",
]

IOU_THRESHOLDS = tuple(round(0.50 + 0.05 * j, 2) for j in range(10))
RECALL_GRID_POINTS = 101
RECALL_GRID = tuple(j / 100.0 for j in range(RECALL_GRID_POINTS))

PMF_BIN_WIDTH = 0.05
PMF_BINS = 20
DEFAULT_SMALL_HEIGHT = 45.0


@dataclass
class PRCurve:
    """Recall grid, max-interpolated precision at each grid point, and AP."""

    recalls: tuple[float, ...]
    precisions: tuple[float, ...]
    ap: float


def average_precision(
    dets: Sequence[tuple[Any, BBox, float]],
    gts: Sequence[tuple[Any, BBox]],
    iou_threshold: float,
) -> Optional[PRCurve]:
    """Single-class AP; detections only match ground truth in their own frame.

    ``dets`` holds (frame key, box, score) triples, ``gts`` holds
    (frame key, box) pairs. Returns None when there is no ground truth, in
    which case the class is undefined rather than zero.
    """
    curves = _pr_curves(dets, gts, (iou_threshold,))
    return None if curves is None else curves[0]


def _pr_curves(
    dets: Sequence[tuple[Any, BBox, float]],
    gts: Sequence[tuple[Any, BBox]],
    thresholds: Sequence[float],
) -> Optional[list[PRCurve]]:
    """One class's curve at each IoU threshold, from one overlap table.

    Row r of ``_overlap_table`` holds the overlaps of the r-th detection in
    rank order that pass the match test at the lowest threshold; no other
    overlap can match at any threshold. Recalls never decrease, so the
    detections that reach grid recall r are a suffix, found by
    ``bisect_left``, and its best precision is a reverse running maximum.
    """
    n_gt = len(gts)
    if n_gt == 0:
        return None
    rows = _overlap_table(dets, gts, min(thresholds))

    curves = []
    for iou_threshold in thresholds:
        matched: set[int] = set()
        precisions: list[float] = []
        recalls: list[float] = []
        tp = 0
        fp = 0
        for row in rows:
            best_iou = 0.0
            best_gt: Optional[int] = None
            for gi, overlap in row:
                if gi in matched:
                    continue
                # ties on overlap resolve to the earliest ground-truth index
                if overlap >= iou_threshold and overlap > best_iou:
                    best_iou = overlap
                    best_gt = gi
            if best_gt is not None:
                matched.add(best_gt)
                tp += 1
            else:
                fp += 1
            precisions.append(tp / (tp + fp))
            recalls.append(tp / n_gt)

        # best[i] is the highest precision at rank i or later; 0.0 past the end
        best = list(accumulate(reversed(precisions), max))[::-1] + [0.0]
        interpolated = tuple(best[bisect_left(recalls, r)] for r in RECALL_GRID)
        # sum(), not a running total: from Python 3.12 sum() is compensated
        ap = sum(interpolated) / RECALL_GRID_POINTS
        curves.append(PRCurve(recalls=RECALL_GRID, precisions=interpolated, ap=ap))
    return curves


def _overlap_table(
    dets: Sequence[tuple[Any, BBox, float]],
    gts: Sequence[tuple[Any, BBox]],
    lowest: float,
) -> list[tuple[tuple[int, float], ...]]:
    """Per detection in rank order, its (gt index, IoU) pairs that can match.

    Detections rank by descending score, then input position. A row holds,
    in gt-index order, the same-frame ground truths whose IoU passes the
    match test at threshold ``lowest``. Each same-frame IoU is computed
    once, as ``geometry.iou(detection box, gt box)`` written out against one
    flat (gi, x1, y1, x2, y2, area) row per ground-truth box, with the same
    operations in the same order, so it gives the same bits without a call
    per pair.
    """
    gt_by_frame: dict[Any, list[tuple[int, float, float, float, float, float]]] = {}
    for gi, (fk, box) in enumerate(gts):
        gx1, gy1, gx2, gy2 = box.x1, box.y1, box.x2, box.y2
        gt_by_frame.setdefault(fk, []).append((gi, gx1, gy1, gx2, gy2, (gx2 - gx1) * (gy2 - gy1)))

    rows: list[tuple[tuple[int, float], ...]] = []
    for i in sorted(range(len(dets)), key=lambda i: (-dets[i][2], i)):
        fk, box, _score = dets[i]
        x1, y1, x2, y2 = box.x1, box.y1, box.x2, box.y2
        area = (x2 - x1) * (y2 - y1)
        row = []
        for gi, gx1, gy1, gx2, gy2, garea in gt_by_frame.get(fk, ()):
            # min(a, b) is a if a <= b else b, max(a, b) a if a >= b else b
            iw = (x2 if x2 <= gx2 else gx2) - (x1 if x1 >= gx1 else gx1)
            if iw <= 0:
                continue
            ih = (y2 if y2 <= gy2 else gy2) - (y1 if y1 >= gy1 else gy1)
            if ih <= 0:
                continue
            inter = iw * ih
            overlap = inter / (area + garea - inter)
            # what fails the match test at the lowest threshold fails it at every one
            if overlap >= lowest and overlap > 0.0:
                row.append((gi, overlap))
        rows.append(tuple(row))
    return rows


@dataclass
class EvalReport:
    """Mean AP summaries plus the per-class breakdown at IoU 0.50."""

    map: float
    map50: float
    map75: float
    per_class_ap50: dict[Any, Optional[float]]
    n_detections: int
    n_ground_truth: int
    classes: list[Any] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "map": self.map,
            "map50": self.map50,
            "map75": self.map75,
            "per_class_ap50": {str(k): v for k, v in self.per_class_ap50.items()},
            "n_detections": self.n_detections,
            "n_ground_truth": self.n_ground_truth,
            "classes": [str(c) for c in self.classes],
        }

    def to_csv(self) -> str:
        """Two CSV lines: summary columns first, then per-class AP at IoU 0.50."""
        names = sorted(str(k) for k in self.per_class_ap50)
        header = ["map", "map50", "map75"] + names
        row = [f"{self.map:.6f}", f"{self.map50:.6f}", f"{self.map75:.6f}"]
        by_name = {str(k): v for k, v in self.per_class_ap50.items()}
        for name in names:
            v = by_name[name]
            row.append("" if v is None else f"{v:.6f}")
        return ",".join(header) + "\n" + ",".join(row) + "\n"


def _class_key(class_id: int, names) -> Any:
    if names is None:
        return class_id
    try:
        return names[class_id]
    except (IndexError, KeyError):
        raise VocabularyError([class_id])


def evaluate(
    dets_by_frame: Mapping[int, Iterable[Detection]],
    gts_by_frame: Mapping[int, Iterable[Detection]],
    class_names: Sequence[str] | Mapping[int, str] | None = None,
    classes: Iterable[int] | None = None,
) -> EvalReport:
    """Mean AP of detections against ground truth over whole sequences.

    Classes are taken from the ground truth (or the explicit ``classes``
    argument); detections of any other class raise VocabularyError listing
    the offenders. Classes without ground truth anywhere are excluded from
    the means, and their per-class entry is None.
    """
    det_classes = {d.class_id for dets in dets_by_frame.values() for d in dets}
    gt_classes = {g.class_id for gts in gts_by_frame.values() for g in gts}
    allowed = set(classes) if classes is not None else set(gt_classes)
    unknown = det_classes - allowed
    if unknown:
        raise VocabularyError([_safe_name(c, class_names) for c in unknown])

    per_class_dets: dict[int, list[tuple[int, BBox, float]]] = {c: [] for c in sorted(allowed)}
    per_class_gts: dict[int, list[tuple[int, BBox]]] = {c: [] for c in sorted(allowed)}
    n_dets = 0
    n_gts = 0
    for frame, dets in dets_by_frame.items():
        for d in dets:
            per_class_dets[d.class_id].append((frame, d.bbox, d.score))
            n_dets += 1
    for frame, gts in gts_by_frame.items():
        for g in gts:
            if g.class_id not in allowed:
                continue
            per_class_gts[g.class_id].append((frame, g.bbox))
            n_gts += 1

    per_class_ap50: dict[Any, Optional[float]] = {}
    class_means: list[float] = []
    ap50s: list[float] = []
    ap75s: list[float] = []
    for c in sorted(allowed):
        key = _class_key(c, class_names)
        if not per_class_gts[c]:
            per_class_ap50[key] = None
            continue
        curves = _pr_curves(per_class_dets[c], per_class_gts[c], IOU_THRESHOLDS)
        aps = [curve.ap for curve in curves]
        per_class_ap50[key] = aps[0]
        ap50s.append(aps[0])
        ap75s.append(aps[5])
        class_means.append(sum(aps) / len(aps))

    def _mean(vals: list[float]) -> float:
        return sum(vals) / len(vals) if vals else 0.0

    return EvalReport(
        map=_mean(class_means),
        map50=_mean(ap50s),
        map75=_mean(ap75s),
        per_class_ap50=per_class_ap50,
        n_detections=n_dets,
        n_ground_truth=n_gts,
        classes=[_class_key(c, class_names) for c in sorted(allowed)],
    )


def _safe_name(class_id: int, names) -> Any:
    if names is None:
        return class_id
    try:
        return names[class_id]
    except (IndexError, KeyError):
        return class_id


@dataclass
class ConsistencyReport:
    """Per-box overlap between original boxes and their round-trip images."""

    frame_index: int
    k_hops: int
    ious: list[float]
    mean_iou: float
    per_class_mean: dict[int, float]
    pmf: list[float]
    n_boxes: int
    n_zero: int
    out_of_frame_given_zero: float
    small_given_zero: float
    small_height_threshold: float

    def to_json_dict(self) -> dict:
        return {
            "frame": self.frame_index,
            "k_hops": self.k_hops,
            "n_boxes": self.n_boxes,
            "mean_iou": self.mean_iou,
            "per_class_mean": {str(k): v for k, v in sorted(self.per_class_mean.items())},
            "pmf_bin_width": PMF_BIN_WIDTH,
            "pmf": self.pmf,
            "n_zero": self.n_zero,
            "out_of_frame_given_zero": self.out_of_frame_given_zero,
            "small_given_zero": self.small_given_zero,
            "small_height_threshold": self.small_height_threshold,
            "ious": self.ious,
        }


def self_consistency(
    labels: LabelSet,
    flows: FlowStore,
    k_hops: int,
    size: FrameSize,
    mode: str = "trajectory",
    min_coverage: float = DEFAULT_MIN_COVERAGE,
    small_height_threshold: float = DEFAULT_SMALL_HEIGHT,
) -> ConsistencyReport:
    """Transport boxes k hops forward then k hops back and compare.

    Each leg carries all of its boxes as one batch, on the pipeline's own
    ``carry`` and ``land_boxes`` path. A box that is dropped on either leg
    (pushed out of frame or below the coverage floor) counts as IoU 0. The
    report includes a histogram of the per-box IoU values (bin width 0.05,
    normalised to sum to 1) and, among the IoU-0 boxes, the fraction that
    left the frame and the fraction whose original height was at most
    ``small_height_threshold`` pixels.
    """
    if k_hops < 1:
        raise ValidationError(f"k_hops must be >= 1, got {k_hops}")
    t = labels.frame_index
    forward_pairs = [(t + j, t + j + 1) for j in range(k_hops)]
    backward_pairs = [(t + k_hops - j, t + k_hops - j - 1) for j in range(k_hops)]
    forward = ComposedMotion([flows.get(a, b) for a, b in forward_pairs], mode=mode)
    backward = ComposedMotion([flows.get(a, b) for a, b in backward_pairs], mode=mode)

    ious: list[float] = []
    per_class: dict[int, list[float]] = {}
    zero_out = 0
    zero_small = 0
    n_zero = 0
    dets = labels.detections
    ahead = carry_boxes([d.bbox for d in dets], forward, size, min_coverage)
    landed = [box for box in ahead if box is not None]
    home = iter(carry_boxes(landed, backward, size, min_coverage))
    for det, box in zip(dets, ahead):
        back = next(home) if box is not None else None
        value = iou(det.bbox, back) if back is not None else 0.0
        ious.append(value)
        per_class.setdefault(det.class_id, []).append(value)
        if value == 0.0:
            n_zero += 1
            if back is None:
                zero_out += 1
            if det.bbox.height <= small_height_threshold:
                zero_small += 1

    n = len(ious)
    pmf = [0.0] * PMF_BINS
    for v in ious:
        b = min(int(v / PMF_BIN_WIDTH), PMF_BINS - 1)
        pmf[b] += 1.0
    if n:
        pmf = [c / n for c in pmf]
    return ConsistencyReport(
        frame_index=t,
        k_hops=k_hops,
        ious=ious,
        mean_iou=(sum(ious) / n) if n else 0.0,
        per_class_mean={c: sum(v) / len(v) for c, v in per_class.items()},
        pmf=pmf,
        n_boxes=n,
        n_zero=n_zero,
        out_of_frame_given_zero=(zero_out / n_zero) if n_zero else 0.0,
        small_given_zero=(zero_small / n_zero) if n_zero else 0.0,
        small_height_threshold=small_height_threshold,
    )
