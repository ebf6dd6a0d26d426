"""Carrying neighbour-frame detections onto a target frame.

For a target frame T and reach k, boxes are collected from the teacher on T
itself (offset 0) and carried in from each neighbour T-i for
i in {+-1, ..., +-k}: positive offsets walk forward through the chain of
forward motion fields (T-i -> T-i+1 -> ... -> T), negative offsets walk the
backward fields from future frames (T+|i| -> ... -> T). Offsets whose source
frame or motion chain is unavailable are simply omitted; the number of
offsets that did participate is reported as ``effective_sources``.

``build_candidates`` does not compose each offset's chain afresh. Every
source frame's kept boxes are swept once forward and once backward, hop by
hop, and offset +-j reads the position after hop j. That is exact: the
floor comes only at the end of a chain and additive sums run in chain order,
so hop j's position is bit for bit the one the j-hop chain gives.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, NamedTuple, Optional

import numpy as np

from .errors import ValidationError
from .geometry import BBox, Detection, FrameSize, LabelSet
from .motion import (
    DEFAULT_MIN_COVERAGE,
    ComposedMotion,
    FlowStore,
    box_corners,
    carried_position,
    carry,
    land_boxes,
    transfer_box,
)

__all__ = [
    "chain_pairs",
    "OffsetChain",
    "PropagationPlan",
    "plan_offsets",
    "propagate_from_offset",
    "CandidateSet",
    "TargetLedger",
    "SweepMemo",
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
    motion = ComposedMotion([flows.get(a, b) for a, b in pairs], mode=mode)
    out = LabelSet(frame_index=target)
    for det in source_labels.detections:
        moved = transfer_box(det, motion, size, min_coverage=min_coverage)
        if moved is not None:
            out.detections.append(replace(moved, source_offset=offset))
    return out


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


class _Sweep(NamedTuple):
    """One source frame's kept boxes carried some hops in one direction."""

    kept: tuple[Detection, ...]
    corners: np.ndarray  # (4n, 2) corner positions on the source frame
    hops: tuple[np.ndarray, ...]  # the running value of ``carry`` after each hop


class TargetLedger:
    """The targets of one run and which of them are done.

    Data that a known set of targets reads may be dropped once each of them
    is done or is not a target of the run. A target is marked done before
    anything is dropped for it, so of two targets finishing at once at least
    the later one sees both done, and nothing outlives its last reader.
    """

    def __init__(self, targets: Iterable[int]):
        self._targets = frozenset(targets)
        self._done: set[int] = set()

    def finish(self, target: int) -> None:
        self._done.add(target)

    def unread(self, readers: Iterable[int]) -> bool:
        """Whether no pending target of the run is among ``readers``."""
        return all(t in self._done or t not in self._targets for t in readers)

    def finish_frames(self, target: int, k: int) -> list[int]:
        """Mark target done; return the frames within +-k of it no pending target reads.

        A target reads frames up to k away from it, so frame f is read by
        targets f-k..f+k.
        """
        self.finish(target)
        return [f for f in range(target - k, target + k + 1) if self.unread(range(f - k, f + k + 1))]


class SweepMemo:
    """Each source frame's boxes carried hop by hop, shared across targets.

    Entries are keyed by (source frame, step), step +1 for the forward sweep
    and -1 for the backward one. A sweep is extended only as far as the
    chain of the target asking for it, so no flow outside a requested
    target's chains is read. Entries are immutable and replaced whole, so
    concurrent targets can share the memo without a lock; two threads
    extending one sweep at once compute the same bits. An entry is dropped
    once every target of ``targets`` that could read it has been released,
    which bounds the memo by the reach, not by the sequence length.

    One memo serves one run: the same labels, flows, teacher threshold and
    composition mode throughout.
    """

    def __init__(self, targets: Iterable[int]):
        self._ledger = TargetLedger(targets)
        self._entries: dict[tuple[int, int], _Sweep] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def carried(
        self,
        chain: OffsetChain,
        get_labels: Callable[[int], Optional[LabelSet]],
        flows: FlowStore,
        teacher_threshold: float,
        mode: str,
    ) -> tuple[tuple[Detection, ...], np.ndarray]:
        """The source's kept boxes and their corner positions at the chain's end."""
        key = (chain.source_frame, 1 if chain.offset > 0 else -1)
        sweep = self._entries.get(key)
        if sweep is None:
            kept = tuple(threshold_labels(get_labels(chain.source_frame), teacher_threshold))
            sweep = _Sweep(kept, box_corners(kept), ())
        have = len(sweep.hops)
        if have < len(chain.pairs):
            fields = [flows.get(a, b) for a, b in chain.pairs[have:]]
            acc = sweep.hops[-1] if have else None
            hops = sweep.hops + tuple(carry(sweep.corners, fields, mode, acc))
            sweep = self._entries[key] = sweep._replace(hops=hops)
        acc = sweep.hops[len(chain.pairs) - 1]
        return sweep.kept, carried_position(sweep.corners, acc, mode)

    def release(self, target: int, k: int) -> None:
        """Record that target is done; drop the sweeps no pending target can read."""
        self._ledger.finish(target)
        for j in range(1, k + 1):
            for source, step in ((target - j, 1), (target + j, -1)):
                if self._ledger.unread(source + step * i for i in range(1, k + 1)):
                    self._entries.pop((source, step), None)


def build_candidates(
    target: int,
    k: int,
    get_labels: Callable[[int], Optional[LabelSet]],
    flows: FlowStore,
    size: FrameSize,
    teacher_threshold: float = DEFAULT_TEACHER_THRESHOLD,
    mode: str = "trajectory",
    min_coverage: float = DEFAULT_MIN_COVERAGE,
    sweeps: Optional[SweepMemo] = None,
) -> CandidateSet:
    """Union of thresholded teacher labels and carried neighbour detections.

    The teacher threshold is applied to the target frame and to every source
    frame before its boxes are carried over. With k=0 the result is exactly
    the thresholded teacher labels. ``sweeps`` shares carried positions
    between the targets of one run; without it each call carries its own.
    """
    if sweeps is None:
        sweeps = SweepMemo([target])
    try:
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
            kept, corners = sweeps.carried(chain, get_labels, flows, teacher_threshold, mode)
            for src, box in zip(kept, land_boxes(corners, size, min_coverage)):
                if box is not None:
                    cand.detections.append(replace(src, bbox=box, source_offset=chain.offset))
                    cand.source_boxes.append(src.bbox)
        cand.effective_sources = plan.effective_sources
        return cand
    finally:
        sweeps.release(target, k)
