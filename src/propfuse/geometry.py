"""Axis-aligned boxes, scored detections, label sets, and the overlap math every stage shares.

Coordinates are continuous, measured in pixels, origin at the top-left corner.
A box is the half-open region [x1, x2) x [y1, y2); area is (x2-x1)*(y2-y1)
with no +1 pixel convention anywhere.

A frame's labels are a ``LabelSet`` of flat rows, which every stage works on
from the readers to the writer; its ``detections`` are a view for callers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Iterable

from .errors import ValidationError

__all__ = [
    "BBox",
    "FrameSize",
    "Detection",
    "LabelSet",
    "iou",
    "clip_to_frame",
    "unchecked_bbox",
    "unchecked_detection",
    "ordered_sum",
    "DEFAULT_SMALL_HEIGHT",
    "check_small_height_threshold",
]

# boxes at most this tall count as small in the self-consistency report
DEFAULT_SMALL_HEIGHT = 45.0


def check_small_height_threshold(value: float) -> None:
    """The one rule for ``small_height_threshold``: finite and >= 0."""
    if not 0.0 <= value < math.inf:
        raise ValidationError(f"small_height_threshold must be finite and >= 0, got {value}")


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box with strictly positive width and height."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        vals = (self.x1, self.y1, self.x2, self.y2)
        if not all(math.isfinite(v) for v in vals):
            raise ValidationError(f"box coordinates must be finite, got {vals}")
        if not (self.x1 < self.x2 and self.y1 < self.y2):
            raise ValidationError(f"degenerate box {vals}: need x1 < x2 and y1 < y2")

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        return self.width * self.height

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x1, self.y1, self.x2, self.y2)


@dataclass(frozen=True)
class FrameSize:
    """Integer frame dimensions in pixels."""

    width: int
    height: int

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValidationError(f"frame size must be >= 1x1, got {self.width}x{self.height}")


@dataclass(frozen=True)
class Detection:
    """One scored box of a known class.

    ``source_offset`` records which neighbour frame the box was carried from;
    0 means it came straight from the detector on its own frame.
    """

    class_id: int
    bbox: BBox
    score: float
    source_offset: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.score) and 0.0 <= self.score <= 1.0):
            raise ValidationError(f"score must lie in [0, 1], got {self.score}")


@dataclass(init=False)
class LabelSet:
    """All labels attached to a single frame, as flat rows.

    ``rows`` holds one tuple per label: ``(class_id, x1, y1, x2, y2, score,
    source_offset, source)``, where ``source`` is the (x1, y1, x2, y2) tuple
    of the box a carried label occupied on its source frame, else None.
    Every row holds a checked box and a score in [0, 1]. Built from
    ``detections``, the set holds their rows; ``detections`` read back is a
    view made from the rows on each access.
    """

    frame_index: int
    rows: list[tuple]

    def __init__(self, frame_index: int, detections: Iterable[Detection] = (), *, rows=None):
        self.frame_index = frame_index
        self.rows = rows if rows is not None else [
            (d.class_id, *d.bbox.as_tuple(), d.score, d.source_offset, None) for d in detections
        ]

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def detections(self) -> list[Detection]:
        return [
            unchecked_detection(c, unchecked_bbox(x1, y1, x2, y2), s, offset)
            for c, x1, y1, x2, y2, s, offset, _ in self.rows
        ]


# The package's own boxes and detections, built where the checks hold by
# construction, skip ``__post_init__``. Attributes are set one by one in field
# order, like the generated ``__init__``, so the instance keeps the compact
# key-shared layout a checked one has; filling ``__dict__`` directly would
# more than double each object's size.
_set = object.__setattr__


def unchecked_bbox(x1: float, y1: float, x2: float, y2: float) -> BBox:
    """A ``BBox`` built without its checks.

    The caller guarantees what ``BBox`` would check: every coordinate is
    finite, x1 < x2 and y1 < y2.
    """
    box = object.__new__(BBox)
    _set(box, "x1", x1)
    _set(box, "y1", y1)
    _set(box, "x2", x2)
    _set(box, "y2", y2)
    return box


def unchecked_detection(
    class_id: int, bbox: BBox, score: float, source_offset: int = 0
) -> Detection:
    """A ``Detection`` built without its check.

    The caller guarantees what ``Detection`` would check: the score lies in
    [0, 1], and ``bbox`` is a valid box.
    """
    det = object.__new__(Detection)
    _set(det, "class_id", class_id)
    _set(det, "bbox", bbox)
    _set(det, "score", score)
    _set(det, "source_offset", source_offset)
    return det


def ordered_sum(values: Iterable[float]) -> float:
    """The float sum of ``values`` added left to right, starting from 0.0.

    This is the order builtin ``sum()`` uses up to Python 3.11; from 3.12
    ``sum()`` of floats is compensated, so the package sums its floats here
    and gives the same bits on every interpreter.
    """
    return reduce(add, values, 0.0)


def iou(a: BBox, b: BBox) -> float:
    """Intersection-over-union of two boxes; 0.0 when they are disjoint."""
    iw = min(a.x2, b.x2) - max(a.x1, b.x1)
    if iw <= 0:
        return 0.0
    ih = min(a.y2, b.y2) - max(a.y1, b.y1)
    if ih <= 0:
        return 0.0
    inter = iw * ih
    return inter / (a.area + b.area - inter)


def clip_to_frame(box: BBox, size: FrameSize) -> tuple[BBox, float] | None:
    """Intersect ``box`` with the frame rectangle.

    Returns the clipped box together with the fraction of the original area
    that survived, or None when nothing (or a zero-width/height sliver) is
    left inside the frame.
    """
    nx1 = max(box.x1, 0.0)
    ny1 = max(box.y1, 0.0)
    nx2 = min(box.x2, float(size.width))
    ny2 = min(box.y2, float(size.height))
    if nx1 >= nx2 or ny1 >= ny2:
        return None
    clipped = BBox(nx1, ny1, nx2, ny2)
    return clipped, clipped.area / box.area
