"""Average-precision metrics and the forward-backward motion consistency check.

AP follows the usual 101-point recipe: detections are ranked by score,
matched greedily (within their own frame) against the unmatched ground-truth
box of highest overlap at or above the IoU threshold, and precision is
max-interpolated over the recall grid 0.00, 0.01, ..., 1.00. The summary
metric averages AP over IoU thresholds 0.50 to 0.95 in steps of 0.05.

A class is scored by one array core. Its boxes go to (n, 6) arrays
straight from the detections, or from the records ``propfuse eval``
reads. Ranks come from a stable argsort of -score, ground truth is
sorted by frame, and the same-frame (detection, ground truth) pairs are
built for a block of ranks at a time, at most ``BLOCK_PAIRS`` pairs to a
block, with ``geometry.iou``'s arithmetic on arrays. Only the pairs that
can match at the lowest threshold are kept. At each threshold a pair
whose detection and ground truth have no other pair matches outright,
and the greedy loop runs in Python only over the contended pairs.
Precision, recall and the interpolation are running sums and maxima over
the ranks.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter
from typing import Any, Iterable, Mapping, Optional, Sequence

import numpy as np

from .errors import ValidationError, VocabularyError
from .geometry import (
    DEFAULT_SMALL_HEIGHT,
    BBox,
    Detection,
    FrameSize,
    LabelSet,
    check_small_height_threshold,
    iou,
    ordered_sum,
)
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
    "evaluate_rows",
    "ConsistencyReport",
    "self_consistency",
]

IOU_THRESHOLDS = tuple(round(0.50 + 0.05 * j, 2) for j in range(10))
RECALL_GRID_POINTS = 101
RECALL_GRID = tuple(j / 100.0 for j in range(RECALL_GRID_POINTS))
_RECALL_GRID = np.array(RECALL_GRID)

# same-frame pairs built at once, whose arrays take a few hundred kB; a
# class of the benchmark's crowd scene has some 95,000
BLOCK_PAIRS = 4096

PMF_BIN_WIDTH = 0.05
PMF_BINS = 20


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
    codes: dict[Any, int] = {}
    det_rows = array("d")
    for fk, box, score in dets:
        det_rows.extend((codes.setdefault(fk, len(codes)), box.x1, box.y1, box.x2, box.y2, score))
    gt_rows = array("d")
    for fk, box in gts:
        gt_rows.extend((codes.setdefault(fk, len(codes)), box.x1, box.y1, box.x2, box.y2, 0.0))
    curves = _pr_curves(_table(det_rows), _table(gt_rows), (iou_threshold,))
    return None if curves is None else curves[0]


def _table(rows: array) -> np.ndarray:
    """Flat box rows as an (n, 6) view: frame code, x1, y1, x2, y2, score."""
    return np.frombuffer(rows, dtype=np.float64).reshape(-1, 6)


def _pr_curves(
    dets: np.ndarray, gts: np.ndarray, thresholds: Sequence[float]
) -> Optional[list[PRCurve]]:
    """One class's curve at each IoU threshold, from one set of candidate pairs.

    ``dets`` and ``gts`` are ``_table`` arrays (the score column of ``gts``
    is unused). Recalls never decrease, so the detections that reach grid
    recall r are a suffix, found by ``searchsorted``, and its best precision
    is a reverse running maximum.
    """
    n_gt = len(gts)
    if n_gt == 0:
        return None
    n = len(dets)
    ranks, truths, overlaps = _candidate_pairs(dets, gts, min(thresholds))

    curves = []
    for iou_threshold in thresholds:
        passed = overlaps >= iou_threshold
        hits = _true_positives(ranks[passed], truths[passed], overlaps[passed], n, n_gt)
        tp = np.cumsum(hits)
        precisions = tp / np.arange(1, n + 1)
        recalls = tp / n_gt
        # best[i] is the highest precision at rank i or later; 0.0 past the end
        best = np.append(np.maximum.accumulate(precisions[::-1])[::-1], 0.0)
        interpolated = tuple(best[np.searchsorted(recalls, _RECALL_GRID)].tolist())
        ap = ordered_sum(interpolated) / RECALL_GRID_POINTS
        curves.append(PRCurve(recalls=RECALL_GRID, precisions=interpolated, ap=ap))
    return curves


def _candidate_pairs(
    dets: np.ndarray, gts: np.ndarray, lowest: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every same-frame (rank, ground-truth row) pair that can match, and its IoU.

    Detections rank by descending score, then row, by a stable argsort.
    Ground truth is sorted by frame, stably, so the pairs come out by rank,
    then ground-truth row. A pair is kept when its IoU passes the match test
    at threshold ``lowest``; no other pair can match at any threshold. The
    IoU is ``geometry.iou(detection box, gt box)`` on arrays, with the same
    operations in the same order: numpy's minimum and maximum differ from
    the builtins only in which signed zero they return, and a zero width or
    height is dropped either way, so the bits are the same. The pairs of a
    block of ranks are built at once, at most ``BLOCK_PAIRS`` of them unless
    one detection alone has more.
    """
    order = np.argsort(-dets[:, 5], kind="stable")
    dframe, dx1, dy1, dx2, dy2 = (dets[order, k] for k in range(5))
    by_frame = np.argsort(gts[:, 0], kind="stable")
    gframe, gx1, gy1, gx2, gy2 = (gts[by_frame, k] for k in range(5))
    darea = (dx2 - dx1) * (dy2 - dy1)
    garea = (gx2 - gx1) * (gy2 - gy1)
    first = np.searchsorted(gframe, dframe, "left")
    count = np.searchsorted(gframe, dframe, "right") - first
    ends = np.cumsum(count)  # one past each rank's last pair
    parts = [(np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0))]
    start = 0
    while start < len(dets):
        base = ends[start] - count[start]
        stop = max(int(np.searchsorted(ends, base + BLOCK_PAIRS, "right")), start + 1)
        counts = count[start:stop]
        r = np.repeat(np.arange(start, stop), counts)
        # the pair at block position p of rank i pairs it with sorted row
        # first[i] + p - (block position of rank i's first pair)
        shift = first[start:stop] - (ends[start:stop] - counts - base)
        g = np.arange(len(r)) + np.repeat(shift, counts)
        iw = np.minimum(dx2[r], gx2[g]) - np.maximum(dx1[r], gx1[g])
        keep = iw > 0
        r, g, iw = r[keep], g[keep], iw[keep]
        ih = np.minimum(dy2[r], gy2[g]) - np.maximum(dy1[r], gy1[g])
        keep = ih > 0
        r, g, iw, ih = r[keep], g[keep], iw[keep], ih[keep]
        inter = iw * ih
        overlap = inter / (darea[r] + garea[g] - inter)
        # what fails the match test at the lowest threshold fails it at every one
        keep = (overlap >= lowest) & (overlap > 0.0)
        parts.append((r[keep], by_frame[g[keep]], overlap[keep]))
        start = stop
    ranks, truths, overlaps = zip(*parts)
    return np.concatenate(ranks), np.concatenate(truths), np.concatenate(overlaps)


def _true_positives(
    ranks: np.ndarray, truths: np.ndarray, overlaps: np.ndarray, n: int, n_gt: int
) -> np.ndarray:
    """Which of ``n`` ranks match, given the pairs that pass the threshold.

    A detection takes the untaken ground truth of highest overlap among its
    pairs, the earliest row on a tie, in rank order. A pair whose detection
    and ground truth are in no other pair matches whatever the order, so
    the greedy loop runs in Python only over the contended rest: a
    detection there meets only ground truths that no lone pair holds.
    """
    hits = np.zeros(n, dtype=bool)
    lone = (np.bincount(ranks, minlength=n)[ranks] == 1) & (
        np.bincount(truths, minlength=n_gt)[truths] == 1
    )
    hits[ranks[lone]] = True
    contended = ~lone
    taken: set[int] = set()
    matched: list[int] = []
    pairs = zip(ranks[contended].tolist(), truths[contended].tolist(), overlaps[contended].tolist())
    for rank, group in groupby(pairs, key=itemgetter(0)):
        best_overlap = 0.0
        best: Optional[int] = None
        for _, truth, overlap in group:
            # every pair passed the threshold; ties resolve to the earliest row
            if overlap > best_overlap and truth not in taken:
                best_overlap = overlap
                best = truth
        if best is not None:
            taken.add(best)
            matched.append(rank)
    hits[matched] = True
    return hits


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
    codes: dict[Any, int] = {}
    det_rows = _class_rows(dets_by_frame, codes)
    gt_rows = _class_rows(gts_by_frame, codes)
    return evaluate_rows(det_rows, gt_rows, class_names, classes)


def evaluate_rows(
    det_rows: Mapping[Any, array],
    gt_rows: Mapping[Any, array],
    class_names: Sequence[str] | Mapping[int, str] | None = None,
    classes: Iterable[int] | None = None,
) -> EvalReport:
    """``evaluate`` from each class's boxes given as flat rows: the one scorer.

    ``det_rows`` and ``gt_rows`` map a class to an ``array("d")`` of
    ``_table`` rows (frame code, x1, y1, x2, y2, score; unused for ground
    truth), with one code per frame across both. Rows are taken stably in
    frame-code order, so detections of equal score rank by frame code,
    then by row, in whatever order the frames' rows come.
    """
    allowed = set(classes) if classes is not None else set(gt_rows)
    unknown = set(det_rows) - allowed
    if unknown:
        raise VocabularyError([_safe_name(c, class_names) for c in unknown])
    n_dets = sum(map(len, det_rows.values())) // 6
    n_gts = sum(len(rows) for c, rows in gt_rows.items() if c in allowed) // 6

    per_class_ap50: dict[Any, Optional[float]] = {}
    class_means: list[float] = []
    ap50s: list[float] = []
    ap75s: list[float] = []
    for c in sorted(allowed):
        key = _class_key(c, class_names)
        if c not in gt_rows:
            per_class_ap50[key] = None
            continue
        dets = _frame_table(det_rows.get(c, array("d")))
        curves = _pr_curves(dets, _frame_table(gt_rows[c]), IOU_THRESHOLDS)
        aps = [curve.ap for curve in curves]
        per_class_ap50[key] = aps[0]
        ap50s.append(aps[0])
        ap75s.append(aps[5])
        class_means.append(ordered_sum(aps) / len(aps))

    def _mean(vals: list[float]) -> float:
        return ordered_sum(vals) / len(vals) if vals else 0.0

    return EvalReport(
        map=_mean(class_means),
        map50=_mean(ap50s),
        map75=_mean(ap75s),
        per_class_ap50=per_class_ap50,
        n_detections=n_dets,
        n_ground_truth=n_gts,
        classes=[_class_key(c, class_names) for c in sorted(allowed)],
    )


def _frame_table(rows: array) -> np.ndarray:
    """``_table(rows)`` sorted by frame code, stably: a frame's rows keep their order."""
    table = _table(rows)
    return table[np.argsort(table[:, 0], kind="stable")]


def _class_rows(
    by_frame: Mapping[Any, Iterable[Detection]], codes: dict[Any, int]
) -> dict[Any, array]:
    """Each class's boxes as one flat array of ``_table`` rows, in input order.

    A frame's code is its position in ``codes``, which is extended with
    frames seen for the first time.
    """
    rows: dict[Any, array] = {}
    for frame, items in by_frame.items():
        code = codes.setdefault(frame, len(codes))
        for d in items:
            b = d.bbox
            flat = rows.get(d.class_id)
            if flat is None:
                flat = rows[d.class_id] = array("d")
            flat.extend((code, b.x1, b.y1, b.x2, b.y2, d.score))
    return rows


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
    check_small_height_threshold(small_height_threshold)
    t = labels.frame_index
    # fields are fetched hop by hop, with no list of pairs made first, so a
    # reach past the sequence ends at its first missing field
    forward = ComposedMotion([flows.get(t + j, t + j + 1) for j in range(k_hops)], mode=mode)
    backward = ComposedMotion([flows.get(a, a - 1) for a in range(t + k_hops, t, -1)], mode=mode)

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
        mean_iou=(ordered_sum(ious) / n) if n else 0.0,
        per_class_mean={c: ordered_sum(v) / len(v) for c, v in per_class.items()},
        pmf=pmf,
        n_boxes=n,
        n_zero=n_zero,
        out_of_frame_given_zero=(zero_out / n_zero) if n_zero else 0.0,
        small_given_zero=(zero_small / n_zero) if n_zero else 0.0,
        small_height_threshold=small_height_threshold,
    )
