"""Carrying neighbour-frame detections onto a target frame.

For a target frame T and reach k, boxes are collected from the teacher on T
itself (offset 0) and carried in from each neighbour T-i for
i in {+-1, ..., +-k}: positive offsets walk forward through the chain of
forward motion fields (T-i -> T-i+1 -> ... -> T), negative offsets walk the
backward fields from future frames (T+|i| -> ... -> T). Offsets whose source
frame or motion chain is unavailable are simply omitted; the number of
offsets that did participate is reported as ``effective_sources``.

Boxes move as ``motion`` moves them: all corners of a source frame's kept
boxes go through ``carry`` as one array and ``land_boxes`` lands them. But
``build_candidates`` does not compose each offset's chain afresh. Every
source frame's kept boxes are swept once forward and once backward, hop by
hop, and offset +-j reads the position after hop j. That is exact: the
floor comes only at the end of a chain and additive sums run in chain order,
so hop j's position is bit for bit the one the j-hop chain gives. The
sweeps, with the labels and fields they read, live in the run's
``RunWindow`` while the next target to run reads them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple, Optional

import numpy as np

from .errors import ValidationError
from .geometry import BBox, Detection, FrameSize, LabelSet, unchecked_detection
from .motion import (
    DEFAULT_MIN_COVERAGE,
    FlowStore,
    MotionField,
    box_corners,
    carried_position,
    carry,
    land_boxes,
)
# bench/tracer.py patches ``transfer_box`` here by name and fails a traced
# run without the binding, so it stays bound although nothing here calls it
from .motion import transfer_box  # noqa: F401

__all__ = [
    "chain_pairs",
    "OffsetChain",
    "PropagationPlan",
    "plan_offsets",
    "CandidateSet",
    "RunWindow",
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
        # the frame first: a reach far past the sequence makes |offset|-long
        # chains for sources that are not there
        if not has_frame(source):
            continue
        pairs = chain_pairs(target, offset)
        if all(flows.has(a, b) for a, b in pairs):
            plan.chains.append(OffsetChain(offset, source, tuple(pairs)))
    return plan


def threshold_labels(labels: LabelSet, threshold: float) -> list[Detection]:
    """Detections whose score strictly exceeds the teacher threshold."""
    return [d for d in labels.detections if d.score > threshold]


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


class _Sweep(NamedTuple):
    """One source frame's kept boxes carried some hops in one direction."""

    kept: tuple[Detection, ...]
    corners: np.ndarray  # (4n, 2) corner positions on the source frame
    hops: tuple[np.ndarray, ...]  # the running value of ``carry`` after each hop


class RunWindow:
    """Everything one run loads, held while the next target to run reads it.

    A run reads teacher labels, motion fields and, through the feature
    provider, frames; and it carries each source frame's kept boxes hop by
    hop along the fields, one sweep per source and direction. Target t
    reads what lies within its reach k:

    * frame f and its labels are read by targets f-k..f+k;
    * the field (a, b), b = a+d with d = +1 forward or -1 backward, and the
      sweep of source a in direction d (keyed by that same pair) are read
      by targets a+d, a+2d, ..., a+kd.

    ``finish(t)`` marks t done and keeps only what the smallest unfinished
    target reads. Each piece is read by one contiguous range of frames, at
    most 2k+1 wide, and a held piece was read by a target already done, so
    with targets in frame order this drops exactly what no unfinished
    target reads, and each label and flow file is read once; in any other
    order the window holds no more than two targets' reach. Dropping early
    is never wrong, only slower: what a target reads again is loaded again,
    bit for bit the same. A field goes back to its ``FlowStore``, which
    drops it only if it was read from a path; provider frames go back to
    the provider. ``stats`` counts, per kind of data, loads, hits,
    evictions and the most held at once.
    """

    def __init__(self, targets: Iterable[int], k: int, provider=None):
        self._pending = sorted(set(targets))  # the unfinished targets
        self.k = k
        self.provider = provider
        self._labels: dict[int, Optional[LabelSet]] = {}
        self._fields: dict[tuple[int, int], FlowStore] = {}
        self._sweeps: dict[tuple[int, int], _Sweep] = {}
        self.stats = {kind: Counter() for kind in ("labels", "fields", "sweeps", "frames")}

    def held(self) -> dict[str, int]:
        """How many label sets, fields, sweeps and provider frames are held now."""
        frames = self.provider.held_frames() if self.provider is not None else ()
        return {
            "labels": len(self._labels),
            "fields": len(self._fields),
            "sweeps": len(self._sweeps),
            "frames": len(frames),
        }

    def labels(
        self, frame: int, get_labels: Callable[[int], Optional[LabelSet]]
    ) -> Optional[LabelSet]:
        """The frame's teacher labels, or None where it has none."""
        try:
            labels = self._labels[frame]
        except KeyError:
            labels = self._labels[frame] = get_labels(frame)
            self.stats["labels"]["loads"] += 1
        else:
            self.stats["labels"]["hits"] += 1
        return labels

    def _field(self, a: int, b: int, flows: FlowStore) -> MotionField:
        """The motion field (a, b) of ``flows``, held until the window drops it."""
        held = (a, b) in self._fields
        field = flows.get(a, b)
        self._fields[a, b] = flows
        self.stats["fields"]["hits" if held else "loads"] += 1
        return field

    def carried(
        self,
        chain: OffsetChain,
        get_labels: Callable[[int], Optional[LabelSet]],
        flows: FlowStore,
        teacher_threshold: float,
        mode: str,
    ) -> tuple[tuple[Detection, ...], np.ndarray]:
        """The source's kept boxes and their corner positions at the chain's end.

        A sweep is extended only as far as the chain asking for it, so no
        flow outside a requested target's chains is read. One window serves
        one run: the same labels, flows, teacher threshold and mode.
        """
        key = chain.pairs[0]
        sweep = self._sweeps.get(key)
        if sweep is None:
            labels = self.labels(chain.source_frame, get_labels)
            kept = tuple(threshold_labels(labels, teacher_threshold))
            sweep = _Sweep(kept, box_corners(d.bbox for d in kept), ())
            self.stats["sweeps"]["loads"] += 1
        else:
            self.stats["sweeps"]["hits"] += 1
        have = len(sweep.hops)
        if have < len(chain.pairs):
            fields = [self._field(a, b, flows) for a, b in chain.pairs[have:]]
            acc = sweep.hops[-1] if have else None
            hops = sweep.hops + tuple(carry(sweep.corners, fields, mode, acc))
            sweep = self._sweeps[key] = sweep._replace(hops=hops)
        acc = sweep.hops[len(chain.pairs) - 1]
        return sweep.kept, carried_position(sweep.corners, acc, mode)

    def finish(self, target: int) -> None:
        """Mark target done, fused or failed; keep what the next target reads."""
        if target in self._pending:
            self._pending.remove(target)
        self._drop(self._pending[0] if self._pending else None)

    def close(self) -> None:
        """End the run: drop everything, whether or not every target ran."""
        self._drop(None)

    def _drop(self, next_target: Optional[int]) -> None:
        for kind, n in self.held().items():
            self.stats[kind]["most_held"] = max(self.stats[kind]["most_held"], n)
        k = self.k

        def frame_read(f: int) -> bool:
            return next_target is not None and abs(next_target - f) <= k

        def pair_read(pair: tuple[int, int]) -> bool:
            a, b = pair
            return next_target is not None and 1 <= (next_target - a) * (b - a) <= k

        self._evict("labels", list(self._labels), frame_read, lambda f: self._labels.pop(f, None))
        self._evict("fields", list(self._fields), pair_read, self._release_field)
        self._evict("sweeps", list(self._sweeps), pair_read, lambda p: self._sweeps.pop(p, None))
        if self.provider is not None:
            self._evict("frames", self.provider.held_frames(), frame_read, self.provider.release)

    def _evict(self, kind: str, keys, is_read: Callable, drop: Callable) -> None:
        for key in keys:
            if not is_read(key):
                drop(key)
                self.stats[kind]["evictions"] += 1

    def _release_field(self, pair: tuple[int, int]) -> None:
        flows = self._fields.pop(pair, None)
        if flows is not None:
            flows.release(*pair)


def build_candidates(
    target: int,
    k: int,
    get_labels: Callable[[int], Optional[LabelSet]],
    flows: FlowStore,
    size: FrameSize,
    teacher_threshold: float = DEFAULT_TEACHER_THRESHOLD,
    mode: str = "trajectory",
    min_coverage: float = DEFAULT_MIN_COVERAGE,
    window: Optional[RunWindow] = None,
) -> CandidateSet:
    """Union of thresholded teacher labels and carried neighbour detections.

    The teacher threshold is applied to the target frame and to every source
    frame before its boxes are carried over. With k=0 the result is exactly
    the thresholded teacher labels. ``window`` holds what the run's targets
    read, the carried positions included, until it drops them; without one
    the call loads and carries everything itself.
    """
    if window is None:
        window = RunWindow([target], k)
    teacher = window.labels(target, get_labels)
    if teacher is None:
        raise ValidationError(f"no teacher labels available for target frame {target}")
    cand = CandidateSet(frame_index=target)
    for det in threshold_labels(teacher, teacher_threshold):
        if det.source_offset != 0:
            det = unchecked_detection(det.class_id, det.bbox, det.score)
        cand.detections.append(det)
        cand.source_boxes.append(None)
    plan = plan_offsets(target, k, lambda f: window.labels(f, get_labels) is not None, flows)
    for chain in plan.chains:
        kept, corners = window.carried(chain, get_labels, flows, teacher_threshold, mode)
        for src, box in zip(kept, land_boxes(corners, size, min_coverage)):
            if box is not None:
                # the source was checked, and land_boxes checked the landed box
                det = unchecked_detection(src.class_id, box, src.score, chain.offset)
                cand.detections.append(det)
                cand.source_boxes.append(src.bbox)
    cand.effective_sources = plan.effective_sources
    return cand
