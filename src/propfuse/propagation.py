"""Carrying neighbour-frame detections onto a target frame.

For a target frame T and reach k, boxes are collected from the teacher on T
itself (offset 0) and carried in from each neighbour T-i for
i in {+-1, ..., +-k}: positive offsets walk forward through the chain of
forward motion fields (T-i -> T-i+1 -> ... -> T), negative offsets walk the
backward fields from future frames (T+|i| -> ... -> T). Offsets whose source
frame or motion chain is unavailable are simply omitted; the number of
offsets that did participate is reported as ``effective_sources``.

Boxes move as ``motion`` moves them, as continuous corner positions that
``carry`` samples field by field and one ``land_boxes`` call floors and
lands for all of a target's offsets. Each direction walks one chain, that
of its farthest offset, which ends with the chain of every nearer one.
The farthest source's corners start a frontier at its own frame, each
nearer source's corners join it at theirs, and every field of the chain
is sampled once for all the corners that cross it: 2k samplings per
target rather than one per offset and hop. That is exact: each corner
meets the same fields in the same order as along its own chain, the
floor comes only at the end, and the sampling and the additive sums work
corner by corner. The labels and fields a target reads live in the run's
``RunWindow`` while the next target to run reads them.

A target's candidates are flat rows, as its teacher labels are:
``CandidateSet`` is a ``LabelSet``. ``threshold_labels`` keeps the teacher
rows above the threshold; their corners go into one array per direction,
one ``land_boxes`` call gives the mask of the boxes that land and their
corners, and each landed box becomes one row with its source's class,
score and corners.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import ValidationError
from .geometry import BBox, Detection, FrameSize, LabelSet, unchecked_bbox
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
    "reachable",
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


def reachable(
    target: int, k: int, has_frame: Callable[[int], bool]
) -> Iterator[tuple[int, list[tuple[int, int]]]]:
    """Each offset in ``offset_order(k)`` whose source frame exists, with its chain.

    Yields ``(offset, chain_pairs(target, offset))``. The frame is checked
    first: a reach far past the sequence then costs one check per offset,
    not an |offset|-long chain for a source that is not there. Whether the
    chain's motion fields exist is left to the caller.
    """
    if k < 0:
        raise ValidationError(f"k must be >= 0, got {k}")
    for offset in offset_order(k):
        if has_frame(target - offset):
            yield offset, chain_pairs(target, offset)


def threshold_labels(labels: LabelSet, threshold: float) -> list[tuple]:
    """The label rows whose score strictly exceeds the teacher threshold."""
    return [row for row in labels.rows if row[5] > threshold]


@dataclass(init=False)
class CandidateSet(LabelSet):
    """Everything gathered for one target frame, fusion not yet applied.

    Its ``rows`` are ``LabelSet`` rows: a carried candidate's ``source`` is
    the box it occupied on its source frame, and the target's own (offset-0)
    boxes have None. Built from ``detections`` and ``source_boxes``, which
    run parallel, the set holds their rows; read back, ``source_boxes`` is
    a view made from the rows on each access, as ``detections`` is.
    """

    effective_sources: int

    def __init__(
        self,
        frame_index: int,
        detections: Sequence[Detection] = (),
        source_boxes: Sequence[Optional[BBox]] = (),
        effective_sources: int = 1,
        *,
        rows: Optional[list[tuple]] = None,
    ):
        if rows is None:
            if len(detections) != len(source_boxes):
                raise ValidationError("detections and source_boxes must run parallel")
            own = LabelSet(frame_index, detections).rows
            rows = [row[:7] + (src and src.as_tuple(),) for row, src in zip(own, source_boxes)]
        if effective_sources < 1:
            raise ValidationError("effective_sources must be >= 1")
        super().__init__(frame_index, rows=rows)
        self.effective_sources = effective_sources

    @property
    def source_boxes(self) -> list[Optional[BBox]]:
        return [None if src is None else unchecked_bbox(*src) for *_, src in self.rows]

    def count_by_offset(self) -> dict[int, int]:
        counts = Counter(row[6] for row in self.rows)
        return dict(sorted(counts.items()))


class RunWindow:
    """Everything one run loads, held while the next target to run reads it.

    A run reads teacher labels, motion fields and, through the feature
    provider, frames. Target t reads what lies within its reach k:

    * frame f and its labels are read by targets f-k..f+k;
    * the field (a, b), b = a+d with d = +1 forward or -1 backward, is read
      by targets a+d, a+2d, ..., a+kd.

    ``finish(t)`` marks t done and keeps only what the smallest unfinished
    target reads. Each piece is read by one contiguous range of frames, at
    most 2k+1 wide, and a held piece was read by a target already done, so
    with targets in frame order this drops exactly what no unfinished
    target reads, and each label and flow file is read once; in any other
    order the window holds no more than two targets' reach. Dropping early
    is never wrong, only slower: what a target reads again is loaded again,
    bit for bit the same. The window is the only holder of the fields it
    reads: ``FlowStore`` keeps none, so a dropped field read from a file is
    freed; provider frames go back to the provider. ``stats`` counts, per
    kind of data, loads, hits, evictions and the most held at once.
    """

    def __init__(self, targets: Iterable[int], k: int, provider=None):
        self._pending = sorted(set(targets))  # the unfinished targets
        self.k = k
        self.provider = provider
        self._labels: dict[int, Optional[LabelSet]] = {}
        self._fields: dict[tuple[int, int], MotionField] = {}
        self.stats = {kind: Counter() for kind in ("labels", "fields", "frames")}

    def held(self) -> dict[str, int]:
        """How many label sets, fields and provider frames are held now."""
        frames = self.provider.held_frames() if self.provider is not None else ()
        return {"labels": len(self._labels), "fields": len(self._fields), "frames": len(frames)}

    def labels(
        self, frame: int, get_labels: Callable[[int], Optional[LabelSet]]
    ) -> Optional[LabelSet]:
        """The frame's teacher labels, or None where it has none."""
        return self._hold("labels", self._labels, frame, get_labels)

    def field(self, a: int, b: int, flows: FlowStore) -> MotionField:
        """The motion field (a, b) of ``flows``, held until the window drops it."""
        return self._hold("fields", self._fields, (a, b), lambda pair: flows.get(*pair))

    def _hold(self, kind: str, held: dict, key, load: Callable):
        """``held[key]``, stored as ``load(key)`` first if the window lacks it."""
        if key in held:
            self.stats[kind]["hits"] += 1
            return held[key]
        value = held[key] = load(key)
        self.stats[kind]["loads"] += 1
        return value

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

        self._evict("labels", list(self._labels), frame_read, self._labels.pop)
        self._evict("fields", list(self._fields), pair_read, self._fields.pop)
        if self.provider is not None:
            self._evict("frames", self.provider.held_frames(), frame_read, self.provider.release)

    def _evict(self, kind: str, keys, is_read: Callable, drop: Callable) -> None:
        for key in keys:
            if not is_read(key):
                drop(key)
                self.stats[kind]["evictions"] += 1


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
    the thresholded teacher labels. ``window`` holds the labels and fields
    the run's targets read until it drops them; without one the call loads
    everything itself.
    """
    if window is None:
        window = RunWindow([target], k)
    teacher = window.labels(target, get_labels)
    if teacher is None:
        raise ValidationError(f"no teacher labels available for target frame {target}")
    # the target's own boxes come from no other frame, whatever their lines say
    rows = [row[:6] + (0, None) for row in threshold_labels(teacher, teacher_threshold)]
    reach = reachable(target, k, lambda f: window.labels(f, get_labels) is not None)
    chains = [(offset, pairs) for offset, pairs in reach if all(flows.has(*p) for p in pairs)]
    # offset 0, the teacher on the target itself, always counts
    effective_sources = 1 + len(chains)
    if not chains:
        return CandidateSet(target, rows=rows, effective_sources=effective_sources)
    # each source's kept boxes as (class id, score, corners): the corners are
    # carried, and a landed box keeps them as its source
    kept = {}
    for offset, _ in chains:
        sources = threshold_labels(window.labels(target - offset, get_labels), teacher_threshold)
        kept[offset] = [(row[0], row[5], row[1:5]) for row in sources]
    at_target = {}
    for sign in (1, -1):
        # the farthest offset's chain ends with every nearer one's: its corners
        # start a frontier, each nearer source's join it at their own frame,
        # and each field is sampled once for the corners that have joined
        side = [(offset, pairs) for offset, pairs in reversed(chains) if offset * sign > 0]
        if not side:
            continue
        start = box_corners([box for offset, _ in side for _, _, box in kept[offset]])
        acc = start.copy() if mode == "trajectory" else np.zeros_like(start)
        joins = {target - offset: 4 * len(kept[offset]) for offset, _ in side}
        n = 0
        for a, b in side[0][1]:
            n += joins.get(a, 0)  # offset target-a's source is frame a
            acc[:n] = carry(start[:n], [window.field(a, b, flows)], mode, acc[:n])
        rest = carried_position(start, acc, mode)
        for offset, _ in side:
            corners = 4 * len(kept[offset])
            at_target[offset], rest = rest[:corners], rest[corners:]
    # one landing for all offsets: land_boxes works box by box, so each
    # offset's boxes land as they would alone, in the same order
    lands, landed = land_boxes(
        np.concatenate([at_target[offset] for offset, _ in chains]), size, min_coverage
    )
    lands = iter(lands.tolist())
    landed = iter(landed)
    for offset, _ in chains:
        # zip takes from ``kept`` first, so it stops at this offset's last box
        for (class_id, score, source), ok in zip(kept[offset], lands):
            if ok:
                x1, y1, x2, y2 = next(landed)
                rows.append((class_id, x1, y1, x2, y2, score, offset, source))
    return CandidateSet(target, rows=rows, effective_sources=effective_sources)
