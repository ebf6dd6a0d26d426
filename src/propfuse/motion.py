"""Dense per-pixel motion fields and the carrying of boxes along them.

A box moves one way only: its four corners, with every other box's, go
through ``carry`` as one array of continuous positions, and ``land_boxes``
floors, hulls, clips and coverage-checks them. ``carry_boxes`` is that pair
for a whole chain, and ``transfer_box`` its one-box case.

File layout for a stored field: little-endian float32 magic 202021.25, then
int32 width, int32 height, then width*height interleaved (du, dv) float32
pairs in row-major order. Reads and writes are bit-exact round trips.
A read lands the payload in its array one block of whole rows at a time
and checks each block for non-finite values while it is still in cache.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    FlowFormatError,
    FlowLengthError,
    MissingFlowError,
    ValidationError,
)
from .geometry import BBox, Detection, FrameSize, unchecked_bbox, unchecked_detection

__all__ = [
    "FLOW_MAGIC",
    "MotionField",
    "ComposedMotion",
    "Frame",
    "FlowStore",
    "read_flow",
    "write_flow",
    "sample_bilinear",
    "carry",
    "carried_position",
    "box_corners",
    "land_boxes",
    "carry_boxes",
    "transfer_box",
    "constant_field",
]

FLOW_MAGIC = 202021.25

COMPOSITION_MODES = ("trajectory", "additive")

DEFAULT_MIN_COVERAGE = 0.25

# Bytes of (du, dv) pairs read and checked in one step, rounded down to whole
# rows but never less than one row. A 224x160 or 256x192 field (287 kB,
# 393 kB) is one block; a 1920x1080 field is 32 blocks of up to 34 rows, each
# small enough to be checked while it is still in L2.
FLOW_BLOCK_BYTES = 512 * 1024


def _row_blocks(data: np.ndarray):
    """Consecutive slices of whole rows of an (h, w, 2) field, one block each."""
    rows = max(1, FLOW_BLOCK_BYTES // (data.shape[1] * 8))
    for top in range(0, data.shape[0], rows):
        yield data[top : top + rows]


def _finite(block: np.ndarray) -> bool:
    """True when every value of ``block`` is finite."""
    # NaN propagates through both reductions and an infinity shows in one
    # of them; unlike np.isfinite this builds no array the size of the block
    return math.isfinite(block.max()) and math.isfinite(block.min())


@dataclass
class MotionField:
    """A dense (du, dv) field mapping pixels of one frame onto the next.

    ``data`` has shape (height, width, 2) and dtype float32. The optional
    frame tags record which ordered frame pair the field connects; the file
    format itself does not store them.
    """

    size: FrameSize
    data: np.ndarray
    from_frame: int | None = None
    to_frame: int | None = None

    def __post_init__(self):
        expected = (self.size.height, self.size.width, 2)
        if self.data.shape != expected:
            raise ValidationError(
                f"motion field shape {self.data.shape} does not match {expected}"
            )
        if self.data.dtype != np.float32:
            self.data = self.data.astype(np.float32)
        if not all(map(_finite, _row_blocks(self.data))):
            raise ValidationError("motion field contains non-finite values")


def _unchecked_field(
    size: FrameSize, data: np.ndarray, from_frame: int | None, to_frame: int | None
) -> MotionField:
    """A ``MotionField`` built without its checks.

    The caller guarantees what ``MotionField`` would check: ``data`` is
    float32 of shape (height, width, 2) and every value is finite.
    """
    field = object.__new__(MotionField)
    field.size = size
    field.data = data
    field.from_frame = from_frame
    field.to_frame = to_frame
    return field


def constant_field(
    size: FrameSize,
    du: float,
    dv: float,
    from_frame: int | None = None,
    to_frame: int | None = None,
) -> MotionField:
    """A field carrying the same displacement at every pixel."""
    data = np.empty((size.height, size.width, 2), dtype=np.float32)
    data[..., 0] = du
    data[..., 1] = dv
    return MotionField(size, data, from_frame, to_frame)


@dataclass
class Frame:
    """A raster image, grayscale (h, w) or RGB (h, w, 3), dtype uint8."""

    size: FrameSize
    data: np.ndarray

    def __post_init__(self):
        if self.data.dtype != np.uint8:
            raise ValidationError(f"frame data must be uint8, got {self.data.dtype}")
        if self.data.ndim == 2:
            shape = (self.size.height, self.size.width)
        elif self.data.ndim == 3 and self.data.shape[2] == 3:
            shape = (self.size.height, self.size.width, 3)
        else:
            raise ValidationError(f"frame data shape {self.data.shape} is not (h, w) or (h, w, 3)")
        if self.data.shape != shape:
            raise ValidationError(f"frame data shape {self.data.shape} does not match {shape}")

    @property
    def channels(self) -> int:
        return 1 if self.data.ndim == 2 else 3

    def luminance(self) -> np.ndarray:
        """Float64 luminance plane (Rec. 601 weights for RGB input)."""
        if self.data.ndim == 2:
            return self.data.astype(np.float64)
        rgb = self.data.astype(np.float64)
        return 0.299 * rgb[..., 0] + 0.587 * rgb[..., 1] + 0.114 * rgb[..., 2]


@dataclass
class ComposedMotion:
    """An ordered chain of motion fields traversed source-to-target.

    ``trajectory`` samples every hop at the position reached so far;
    ``additive`` sums all hops sampled at the starting position. Both defer
    the integer floor to the very end of the chain.
    """

    fields: Sequence[MotionField]
    mode: str = "trajectory"

    def __post_init__(self):
        if not self.fields:
            raise ValidationError("composed motion needs at least one field")
        if self.mode not in COMPOSITION_MODES:
            raise ValidationError(
                f"unknown composition mode {self.mode!r}; expected one of {COMPOSITION_MODES}"
            )
        first = self.fields[0].size
        for f in self.fields:
            if f.size != first:
                raise ValidationError("all fields in a chain must share one frame size")

    @property
    def size(self) -> FrameSize:
        return self.fields[0].size


def write_flow(field: MotionField, path: str | Path) -> None:
    """Serialize a motion field atomically; the payload is written bit-for-bit."""
    from .io import write_atomic  # io imports this module

    header = struct.pack("<fii", FLOW_MAGIC, field.size.width, field.size.height)
    write_atomic(path, header + np.ascontiguousarray(field.data, dtype="<f4").tobytes())


def read_flow(
    path: str | Path,
    from_frame: int | None = None,
    to_frame: int | None = None,
) -> MotionField:
    """Parse a stored motion field, validating magic, header, and length.

    The header and the file size are checked before the payload is read
    straight into its array, one block of rows at a time; each block is
    checked for non-finite values as it lands, so every value is read and
    checked once.
    """
    with open(path, "rb") as fh:
        nbytes = os.fstat(fh.fileno()).st_size
        head = fh.read(12)
        if len(head) < 4:
            raise FlowLengthError(f"{path}: file too short to hold a magic number")
        (magic,) = struct.unpack("<f", head[:4])
        if magic != FLOW_MAGIC:
            raise FlowFormatError(f"{path}: bad magic {magic!r}, expected {FLOW_MAGIC}")
        if len(head) < 12:
            raise FlowLengthError(f"{path}: header truncated at {len(head)} bytes")
        width, height = struct.unpack("<ii", head[4:12])
        if width < 1 or height < 1:
            raise FlowFormatError(f"{path}: invalid dimensions {width}x{height}")
        expected = 12 + width * height * 8
        if nbytes != expected:
            kind = "truncated" if nbytes < expected else "oversized"
            raise FlowLengthError(
                f"{path}: {kind} payload, {nbytes} bytes for declared {width}x{height} "
                f"(expected {expected})"
            )
        data = np.empty((height, width, 2), dtype="<f4")
        done = 12
        for block in _row_blocks(data):
            got = fh.readinto(memoryview(block).cast("B"))
            done += got
            if got != block.nbytes:
                raise FlowLengthError(f"{path}: payload ended after {done} of {expected} bytes")
            if not _finite(block):
                raise FlowFormatError(f"{path}: payload contains non-finite values")
    return _unchecked_field(FrameSize(width, height), data, from_frame, to_frame)


def sample_bilinear(data: np.ndarray, xs, ys) -> np.ndarray:
    """Bilinear lookup of an (h, w) or (h, w, c) array at continuous positions.

    The value of pixel (col, row) is taken to sit at coordinate (col, row);
    queries outside the lattice clamp to the border. Only the four gathered
    neighbours are cast to float64, which is exact for float32 data.
    """
    h, w = data.shape[:2]
    xs = np.clip(np.asarray(xs, dtype=np.float64), 0.0, w - 1.0)
    ys = np.clip(np.asarray(ys, dtype=np.float64), 0.0, h - 1.0)
    x0 = np.floor(xs).astype(np.intp)
    y0 = np.floor(ys).astype(np.intp)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = xs - x0
    fy = ys - y0
    if data.ndim == 3:
        fx = fx[..., None]
        fy = fy[..., None]

    def at(rows, cols):
        return np.asarray(data[rows, cols], dtype=np.float64)

    # lerp form rather than the four-weight sum: constant patches then come
    # out exactly, since both deltas are exactly zero
    v00 = at(y0, x0)
    top = v00 + fx * (at(y0, x1) - v00)
    v10 = at(y1, x0)
    bottom = v10 + fx * (at(y1, x1) - v10)
    return top + fy * (bottom - top)


def carry(
    start: np.ndarray,
    fields: Sequence[MotionField],
    mode: str,
    acc: np.ndarray | None = None,
) -> np.ndarray:
    """Carry (n, 2) continuous positions along a chain of fields.

    Returns the chain's running value after its last field: the position
    reached in ``trajectory`` mode, or in ``additive`` mode the
    displacements sampled at ``start`` summed in chain order (see
    ``carried_position``). ``acc`` resumes the chain from the running value
    an earlier call returned for a prefix of it, so a chain carried in
    pieces gives the same bits as one carried whole.
    """
    trajectory = mode == "trajectory"
    if acc is None:
        acc = start if trajectory else np.zeros_like(start)
    for f in fields:
        at = acc if trajectory else start
        acc = acc + sample_bilinear(f.data, at[:, 0], at[:, 1])
    return acc


def carried_position(start: np.ndarray, acc: np.ndarray, mode: str) -> np.ndarray:
    """The continuous positions a running value from ``carry`` stands for."""
    return acc if mode == "trajectory" else start + acc


# the columns of an (x1, y1, x2, y2) row that give its corners (x1, y1),
# (x2, y1), (x1, y2) and (x2, y2), in that order
_CORNER_COLUMNS = [0, 1, 2, 1, 0, 3, 2, 3]


def box_corners(rows: Sequence[tuple] | np.ndarray) -> np.ndarray:
    """The four corners of each (x1, y1, x2, y2) row as rows 4i..4i+3 of a (4n, 2) array.

    One column take of the (n, 4) array of ``rows``.
    """
    return np.asarray(rows, dtype=np.float64).reshape(-1, 4)[:, _CORNER_COLUMNS].reshape(-1, 2)


def land_boxes(
    corners: np.ndarray,
    size: FrameSize,
    min_coverage: float = DEFAULT_MIN_COVERAGE,
) -> tuple[np.ndarray, list[list[float]]]:
    """Which groups of four carried corners land, and the boxes they land on.

    Rows 4i..4i+3 of ``corners`` are box i's continuous corner positions.
    They are floored, their axis-aligned hull is clipped to the frame, and
    the box is dropped when degenerate or when less than ``min_coverage``
    of the hull survives the clip. Each step is one IEEE operation per
    element, in ``clip_to_frame``'s order, so the bits are the ones a box at
    a time gives. Returns the (n,) boolean mask of the boxes that land and,
    in the same order, one [x1, y1, x2, y2] list of floats per landed box:
    finite, with x1 < x2 and y1 < y2.
    """
    # + 0.0 turns a floored -0.0 into the 0.0 an integer floor gives, so no
    # -0.0 reaches a box whichever zero np.maximum keeps of two equal ones
    pts = np.floor(corners).reshape(-1, 4, 2) + 0.0
    lo = pts.min(axis=1)  # (n, 2): hull x1, y1
    hi = pts.max(axis=1)  # (n, 2): hull x2, y2
    clo = np.maximum(lo, 0.0)
    chi = np.minimum(hi, (float(size.width), float(size.height)))
    hull = hi - lo
    kept = chi - clo
    with np.errstate(divide="ignore", invalid="ignore"):
        coverage = (kept[:, 0] * kept[:, 1]) / (hull[:, 0] * hull[:, 1])
    # lo <= clo < chi <= hi, so this drops degenerate hulls too
    lands = (clo < chi).all(axis=1) & (coverage >= min_coverage)
    return lands, np.concatenate((clo, chi), axis=1)[lands].tolist()


def carry_boxes(
    boxes: Iterable[BBox],
    motion: ComposedMotion,
    size: FrameSize,
    min_coverage: float = DEFAULT_MIN_COVERAGE,
) -> list[BBox | None]:
    """The box each of ``boxes`` lands on at the chain's end, or None.

    Every corner goes through one ``carry`` and one ``land_boxes``; both
    work element by element, so each box lands bit for bit where it would
    carried alone.
    """
    start = box_corners([b.as_tuple() for b in boxes])
    acc = carry(start, motion.fields, motion.mode)
    lands, landed = land_boxes(carried_position(start, acc, motion.mode), size, min_coverage)
    found = iter(landed)
    # land_boxes checked each landed box
    return [unchecked_bbox(*next(found)) if ok else None for ok in lands.tolist()]


def transfer_box(
    det: Detection,
    motion: ComposedMotion,
    size: FrameSize,
    min_coverage: float = DEFAULT_MIN_COVERAGE,
) -> Detection | None:
    """One detection carried through the chain, or None: ``carry_boxes`` of its box."""
    box = carry_boxes((det.bbox,), motion, size, min_coverage)[0]
    if box is None:
        return None
    return unchecked_detection(det.class_id, box, det.score, det.source_offset)


class FlowStore:
    """Lookup of motion fields by ordered (from_frame, to_frame) pair.

    Entries may be in-memory fields or paths. ``get`` returns an in-memory
    field as it is and reads a path on every call, keeping nothing; a run
    holds what it reads in its ``propagation.RunWindow``. With ``size``
    given, a field read from a path must have that size.
    """

    def __init__(
        self,
        entries: Mapping[tuple[int, int], MotionField | str | Path] | None = None,
        size: FrameSize | None = None,
    ):
        self.size = size
        self._entries: dict[tuple[int, int], MotionField | Path] = {}
        for pair, value in (entries or {}).items():
            self.add(pair[0], pair[1], value)

    def add(self, from_frame: int, to_frame: int, value: MotionField | str | Path) -> None:
        if type(from_frame) is not int or type(to_frame) is not int:
            raise ValidationError(
                f"frame numbers must be integers, got {from_frame!r} -> {to_frame!r}"
            )
        if not isinstance(value, MotionField):
            value = Path(value)
        self._entries[from_frame, to_frame] = value

    def has(self, from_frame: int, to_frame: int) -> bool:
        return (from_frame, to_frame) in self._entries

    def pairs(self) -> list[tuple[int, int]]:
        return sorted(self._entries)

    def get(self, from_frame: int, to_frame: int) -> MotionField:
        value = self._entries.get((from_frame, to_frame))
        if value is None:
            raise MissingFlowError(from_frame, to_frame)
        if isinstance(value, MotionField):
            return value
        field = read_flow(value, from_frame=from_frame, to_frame=to_frame)
        if self.size is not None and field.size != self.size:
            got, want = field.size, self.size
            raise FlowFormatError(
                f"{value}: field is {got.width}x{got.height}, "
                f"frames are {want.width}x{want.height}"
            )
        return field
