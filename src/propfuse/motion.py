"""Dense per-pixel motion fields and the transfer of points/boxes along them.

File layout for a stored field: little-endian float32 magic 202021.25, then
int32 width, int32 height, then width*height interleaved (du, dv) float32
pairs in row-major order. Reads and writes are bit-exact round trips.
"""

from __future__ import annotations

import math
import struct
import threading
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    FlowFormatError,
    FlowLengthError,
    MissingFlowError,
    ValidationError,
)
from .geometry import BBox, Detection, FrameSize, clip_to_frame

__all__ = [
    "FLOW_MAGIC",
    "MotionField",
    "ComposedMotion",
    "Frame",
    "FlowStore",
    "read_flow",
    "write_flow",
    "sample",
    "sample_bilinear",
    "transfer_point",
    "transfer_box",
    "constant_field",
]

FLOW_MAGIC = 202021.25

COMPOSITION_MODES = ("trajectory", "additive")

DEFAULT_MIN_COVERAGE = 0.25


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
        if not np.isfinite(self.data).all():
            raise ValidationError("motion field contains non-finite values")


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
    """Serialize a motion field; the payload is written bit-for-bit."""
    payload = np.ascontiguousarray(field.data, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<f", FLOW_MAGIC))
        fh.write(struct.pack("<i", field.size.width))
        fh.write(struct.pack("<i", field.size.height))
        fh.write(payload.tobytes())


def read_flow(
    path: str | Path,
    from_frame: int | None = None,
    to_frame: int | None = None,
) -> MotionField:
    """Parse a stored motion field, validating magic, header, and length."""
    raw = Path(path).read_bytes()
    if len(raw) < 4:
        raise FlowLengthError(f"{path}: file too short to hold a magic number")
    (magic,) = struct.unpack("<f", raw[:4])
    if magic != FLOW_MAGIC:
        raise FlowFormatError(f"{path}: bad magic {magic!r}, expected {FLOW_MAGIC}")
    if len(raw) < 12:
        raise FlowLengthError(f"{path}: header truncated at {len(raw)} bytes")
    width, height = struct.unpack("<ii", raw[4:12])
    if width < 1 or height < 1:
        raise FlowFormatError(f"{path}: invalid dimensions {width}x{height}")
    expected = 12 + width * height * 8
    if len(raw) != expected:
        kind = "truncated" if len(raw) < expected else "oversized"
        raise FlowLengthError(
            f"{path}: {kind} payload, {len(raw)} bytes for declared {width}x{height} "
            f"(expected {expected})"
        )
    data = np.frombuffer(raw, dtype="<f4", offset=12).reshape(height, width, 2).copy()
    if not np.isfinite(data).all():
        raise FlowFormatError(f"{path}: payload contains non-finite values")
    return MotionField(FrameSize(width, height), data, from_frame, to_frame)


def sample_bilinear(data: np.ndarray, xs, ys) -> np.ndarray:
    """Bilinear lookup of an (h, w) or (h, w, c) array at continuous positions.

    The value of pixel (col, row) is taken to sit at coordinate (col, row);
    queries outside the lattice clamp to the border.
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
    d = data.astype(np.float64, copy=False)
    # lerp form rather than the four-weight sum: constant patches then come
    # out exactly, since both deltas are exactly zero
    v00 = d[y0, x0]
    top = v00 + fx * (d[y0, x1] - v00)
    v10 = d[y1, x0]
    bottom = v10 + fx * (d[y1, x1] - v10)
    return top + fy * (bottom - top)


def sample(field: MotionField, u: float, v: float) -> tuple[float, float]:
    """Bilinearly interpolated (du, dv) at continuous position (u, v)."""
    vec = sample_bilinear(field.data, u, v)
    return float(vec[0]), float(vec[1])


def transfer_point(u: float, v: float, motion: ComposedMotion) -> tuple[int, int]:
    """Carry a point through the chain, flooring once at the very end."""
    if motion.mode == "trajectory":
        cu, cv = float(u), float(v)
        for f in motion.fields:
            du, dv = sample(f, cu, cv)
            cu += du
            cv += dv
    else:
        total_u = 0.0
        total_v = 0.0
        for f in motion.fields:
            du, dv = sample(f, u, v)
            total_u += du
            total_v += dv
        cu = u + total_u
        cv = v + total_v
    return math.floor(cu), math.floor(cv)


def transfer_box(
    det: Detection,
    motion: ComposedMotion,
    size: FrameSize,
    min_coverage: float = DEFAULT_MIN_COVERAGE,
) -> Detection | None:
    """Carry a detection's box through the chain.

    All four corners are transferred (each floored), their axis-aligned hull
    is clipped to the frame, and the result is dropped when degenerate or
    when less than ``min_coverage`` of the hull survives the clip.
    """
    b = det.bbox
    corners = ((b.x1, b.y1), (b.x2, b.y1), (b.x1, b.y2), (b.x2, b.y2))
    pts = [transfer_point(u, v, motion) for u, v in corners]
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    x1, x2 = min(xs), max(xs)
    y1, y2 = min(ys), max(ys)
    if x1 >= x2 or y1 >= y2:
        return None
    clipped = clip_to_frame(BBox(float(x1), float(y1), float(x2), float(y2)), size)
    if clipped is None or clipped[1] < min_coverage:
        return None
    return replace(det, bbox=clipped[0])


class FlowStore:
    """Lookup of motion fields by ordered (from_frame, to_frame) pair.

    Entries may be in-memory fields or paths that are read lazily and cached.
    Safe for concurrent readers.
    """

    def __init__(self, entries: Mapping[tuple[int, int], MotionField | str | Path] | None = None):
        self._entries: dict[tuple[int, int], MotionField | Path] = {}
        self._lock = threading.Lock()
        for pair, value in (entries or {}).items():
            self.add(pair[0], pair[1], value)

    def add(self, from_frame: int, to_frame: int, value: MotionField | str | Path) -> None:
        key = (int(from_frame), int(to_frame))
        if not isinstance(value, MotionField):
            value = Path(value)
        self._entries[key] = value

    def has(self, from_frame: int, to_frame: int) -> bool:
        return (from_frame, to_frame) in self._entries

    def pairs(self) -> list[tuple[int, int]]:
        return sorted(self._entries)

    def get(self, from_frame: int, to_frame: int) -> MotionField:
        key = (from_frame, to_frame)
        value = self._entries.get(key)
        if value is None:
            raise MissingFlowError(from_frame, to_frame)
        if isinstance(value, MotionField):
            return value
        with self._lock:
            current = self._entries[key]
            if isinstance(current, MotionField):
                return current
            field = read_flow(current, from_frame=from_frame, to_frame=to_frame)
            self._entries[key] = field
            return field
