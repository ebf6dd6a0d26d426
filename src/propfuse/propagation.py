"""Carrying neighbour-frame detections onto a target frame.

For a target frame T and reach k, boxes are collected from the teacher on T
itself (offset 0) and carried in from each neighbour T-i for
i in {+-1, ..., +-k}: positive offsets walk forward through the chain of
forward motion fields (T-i -> T-i+1 -> ... -> T), negative offsets walk the
backward fields from future frames (T+|i| -> ... -> T). Offsets whose source
frame or motion chain is unavailable are simply omitted; the number of
offsets that did participate is reported as ``effective_sources``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from .errors import MissingFlowError, ValidationError
from .geometry import BBox, Detection, FrameSize, LabelSet
from .motion import DEFAULT_MIN_COVERAGE, ComposedMotion, FlowStore, transfer_box

__all__ = [
    "chain_pairs",
    "OffsetChain",
    "PropagationPlan",
    "plan_offsets",
    "propagate_from_offset",
    "CandidateSet",
    "build_candidates",
    "threshold_labels",
    "offset_order",
]

DEFAULT_TEACHER_THRESHOLD = 0.4


def offset_order(k: int) -> list[int]:
    """Deterministic processing order of neighbour offsets: 1, -1, 2, -2, ..."""
    order = []
    for step in range(1, k + 1):
        order.append(step)
        order.append(-step)
    return order


def chain_pairs(target: int, offset: int) -> list[tuple[int, int]]:
    """The ordered (from, to) motion-field pairs carrying offset's source to target."""
    if offset == 0:
        return []
    source = target - offset
    if offset > 0:
        return [(s, s + 1) for s in range(source, target)]
    return [(s, s - 1) for s in range(source, target, -1)]


@dataclass(frozen=True)
class OffsetChain:
    """One usable neighbour offset and the motion pairs that reach the target."""

    offset: int
    source_frame: int
    pairs: tuple[tuple[int, int], ...]


@dataclass
class PropagationPlan:
    """Which offsets around a target frame can actually contribute."""

    target_frame: int
    k: int
    chains: list[OffsetChain] = field(default_factory=list)
    omitted: list[int] = field(default_factory=list)

    @property
    def effective_sources(self) -> int:
        # offset 0 (the teacher on the target frame itself) always counts
        return 1 + len(self.chains)


def plan_offsets(
    target: int,
    k: int,
    has_frame: Callable[[int], bool],
    flows: FlowStore,
) -> PropagationPlan:
    """Work out which neighbour offsets are reachable for a target frame."""
    if k < 0:
        raise ValidationError(f"k must be >= 0, got {k}")
    plan = PropagationPlan(target_frame=target, k=k)
    for offset in offset_order(k):
        source = target - offset
        pairs = chain_pairs(target, offset)
        if not has_frame(source) or not all(flows.has(a, b) for a, b in pairs):
            plan.omitted.append(offset)
            continue
        plan.chains.append(OffsetChain(offset, source, tuple(pairs)))
    return plan


def threshold_labels(labels: LabelSet, threshold: float) -> list[Detection]:
    """Detections whose score strictly exceeds the teacher threshold."""
    return [d for d in labels.detections if d.score > threshold]


def _composed(
    pairs,
    flows: FlowStore,
    mode: str,
) -> ComposedMotion:
    return ComposedMotion([flows.get(a, b) for a, b in pairs], mode=mode)


def propagate_from_offset(
    offset: int,
    source_labels: LabelSet,
    flows: FlowStore,
    size: FrameSize,
    mode: str = "trajectory",
    min_coverage: float = DEFAULT_MIN_COVERAGE,
) -> LabelSet:
    """Carry every detection of a source frame onto frame source+offset.

    Survivors keep their class and score and are tagged with the offset.
    Raises MissingFlowError when the motion chain has a gap.
    """
    if offset == 0:
        raise ValidationError("offset 0 does not propagate; use the teacher labels directly")
    target = source_labels.frame_index + offset
    pairs = chain_pairs(target, offset)
    motion = _composed(pairs, flows, mode)
    out = LabelSet(frame_index=target)
    for det, moved in _propagate_pairs(source_labels.detections, motion, size, min_coverage, offset):
        out.detections.append(moved)
    return out


def _propagate_pairs(detections, motion, size, min_coverage, offset):
    """Yield (source detection, transferred detection) for surviving boxes."""
    for det in detections:
        moved = transfer_box(det, motion, size, min_coverage=min_coverage)
        if moved is not None:
            yield det, replace(moved, source_offset=offset)


@dataclass
class CandidateSet:
    """Everything gathered for one target frame, fusion not yet applied.

    ``source_boxes`` runs parallel to ``detections``: the box each carried
    candidate occupied on its source frame (None for offset-0 entries).
    """

    frame_index: int
    detections: list[Detection] = field(default_factory=list)
    source_boxes: list[Optional[BBox]] = field(default_factory=list)
    effective_sources: int = 1

    def __post_init__(self):
        if len(self.detections) != len(self.source_boxes):
            raise ValidationError("detections and source_boxes must run parallel")
        if self.effective_sources < 1:
            raise ValidationError("effective_sources must be >= 1")

    def __len__(self) -> int:
        return len(self.detections)

    def count_by_offset(self) -> dict[int, int]:
        counts = Counter(d.source_offset for d in self.detections)
        return dict(sorted(counts.items()))

    def label_set(self) -> LabelSet:
        return LabelSet(self.frame_index, list(self.detections))


def build_candidates(
    target: int,
    k: int,
    get_labels: Callable[[int], Optional[LabelSet]],
    flows: FlowStore,
    size: FrameSize,
    teacher_threshold: float = DEFAULT_TEACHER_THRESHOLD,
    mode: str = "trajectory",
    min_coverage: float = DEFAULT_MIN_COVERAGE,
) -> CandidateSet:
    """Union of thresholded teacher labels and carried neighbour detections.

    The teacher threshold is applied to the target frame and to every source
    frame before its boxes are carried over. With k=0 the result is exactly
    the thresholded teacher labels.
    """
    teacher = get_labels(target)
    if teacher is None:
        raise ValidationError(f"no teacher labels available for target frame {target}")
    cand = CandidateSet(frame_index=target)
    for det in threshold_labels(teacher, teacher_threshold):
        if det.source_offset != 0:
            det = replace(det, source_offset=0)
        cand.detections.append(det)
        cand.source_boxes.append(None)
    plan = plan_offsets(target, k, lambda f: get_labels(f) is not None, flows)
    for chain in plan.chains:
        source_labels = get_labels(chain.source_frame)
        kept = threshold_labels(source_labels, teacher_threshold)
        motion = _composed(chain.pairs, flows, mode)
        for src, moved in _propagate_pairs(kept, motion, size, min_coverage, chain.offset):
            cand.detections.append(moved)
            cand.source_boxes.append(src.bbox)
    cand.effective_sources = plan.effective_sources
    return cand
