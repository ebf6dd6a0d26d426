"""Average-precision metrics and the forward-backward motion consistency check.

AP follows the usual 101-point recipe: detections are ranked by score,
matched greedily (within their own frame) against the unmatched ground-truth
box of highest overlap at or above the IoU threshold, and precision is
max-interpolated over the recall grid 0.00, 0.01, ..., 1.00. The summary
metric averages AP over IoU thresholds 0.50 to 0.95 in steps of 0.05.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Optional, Sequence

from .errors import ValidationError, VocabularyError
from .geometry import BBox, Detection, FrameSize, LabelSet, iou
from .motion import DEFAULT_MIN_COVERAGE, ComposedMotion, FlowStore, transfer_box

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
    n_gt = len(gts)
    if n_gt == 0:
        return None

    gt_by_frame: dict[Any, list[tuple[int, BBox]]] = {}
    for gi, (fk, box) in enumerate(gts):
        gt_by_frame.setdefault(fk, []).append((gi, box))

    order = sorted(range(len(dets)), key=lambda i: (-dets[i][2], i))
    matched: set[int] = set()
    precisions: list[float] = []
    recalls: list[float] = []
    tp = 0
    fp = 0
    for i in order:
        fk, box, _score = dets[i]
        best_iou = 0.0
        best_gt: Optional[int] = None
        for gi, gt_box in gt_by_frame.get(fk, ()):
            if gi in matched:
                continue
            overlap = iou(box, gt_box)
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

    grid = tuple(j / 100.0 for j in range(RECALL_GRID_POINTS))
    interpolated = []
    for r in grid:
        best = 0.0
        for p, rc in zip(precisions, recalls):
            if rc >= r and p > best:
                best = p
        interpolated.append(best)
    ap = sum(interpolated) / RECALL_GRID_POINTS
    return PRCurve(recalls=grid, precisions=tuple(interpolated), ap=ap)


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
        aps = []
        for thr in IOU_THRESHOLDS:
            curve = average_precision(per_class_dets[c], per_class_gts[c], thr)
            aps.append(curve.ap)
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

    A box that is dropped on either leg (pushed out of frame or below the
    coverage floor) counts as IoU 0. The report includes a histogram of the
    per-box IoU values (bin width 0.05, normalised to sum to 1) and, among
    the IoU-0 boxes, the fraction that left the frame and the fraction whose
    original height was at most ``small_height_threshold`` pixels.
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
    for det in labels.detections:
        ahead = transfer_box(det, forward, size, min_coverage=min_coverage)
        if ahead is not None:
            back = transfer_box(ahead, backward, size, min_coverage=min_coverage)
        else:
            back = None
        value = iou(det.bbox, back.bbox) if back is not None else 0.0
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
