"""Detection JSONL records and PGM/PPM frame files.

One detection per line: {"frame": int, "class": str, "bbox": [x1, y1, x2, y2],
"score": float} plus optional "source_offset" (omitted when 0) and, for
candidate files, the originating "source_bbox" on the source frame. Floats
are always written with 6 decimal places so identical runs produce identical
bytes. A candidate file may start with one {"type": "candidate_meta", ...}
line carrying the target frame, the number of available sources, and k.

Every file is written through ``write_atomic``: a reader, or a run that is
killed, sees a file's old contents or its whole new contents, never a part.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .geometry import FrameSize
from .motion import Frame

__all__ = [
    "DetectionRecord",
    "CandidateMeta",
    "detection_line",
    "write_detections",
    "read_detections",
    "read_text",
    "write_atomic",
    "write_frame",
    "read_frame",
]


@dataclass
class DetectionRecord:
    """A detection as it appears on disk; classes are names, not ids."""

    frame: int
    class_name: str
    bbox: tuple[float, float, float, float]
    score: float
    source_offset: int = 0
    source_bbox: tuple[float, float, float, float] | None = None


@dataclass
class CandidateMeta:
    """Header line of a candidate file produced by the propagation stage."""

    frame: int
    effective_sources: int
    k: int


def read_text(path: str | Path, encoding: str) -> str:
    """A text file's contents; undecodable bytes raise a ValidationError naming the line."""
    raw = Path(path).read_bytes()
    try:
        return raw.decode(encoding)
    except UnicodeDecodeError as exc:
        lineno = raw.count(b"\n", 0, exc.start) + 1
        raise ValidationError(
            f"{path}:{lineno}: not {encoding} text: byte {raw[exc.start]:#04x} at offset {exc.start}"
        ) from exc


def write_atomic(path: str | Path, data: str | bytes, encoding: str | None = None) -> None:
    """Write text or bytes to a sibling temporary file, then move it over ``path``.

    Text is encoded with ``encoding`` before anything is opened. If writing
    fails the temporary file is removed and ``path`` keeps whatever it held
    before.
    """
    path = Path(path)
    if isinstance(data, str):
        data = data.encode(encoding)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _fmt(value: float) -> str:
    return f"{float(value):.6f}"


def _fmt_box(box) -> str:
    return "[" + ", ".join(_fmt(c) for c in box) + "]"


def detection_line(rec: DetectionRecord) -> str:
    parts = [
        f'"frame": {int(rec.frame)}',
        f'"class": {json.dumps(rec.class_name)}',
        f'"bbox": {_fmt_box(rec.bbox)}',
        f'"score": {_fmt(rec.score)}',
    ]
    if rec.source_offset:
        parts.append(f'"source_offset": {int(rec.source_offset)}')
    if rec.source_bbox is not None:
        parts.append(f'"source_bbox": {_fmt_box(rec.source_bbox)}')
    return "{" + ", ".join(parts) + "}"


def write_detections(
    records,
    path: str | Path,
    meta: CandidateMeta | None = None,
) -> None:
    lines = []
    if meta is not None:
        lines.append(
            json.dumps(
                {
                    "type": "candidate_meta",
                    "frame": meta.frame,
                    "effective_sources": meta.effective_sources,
                    "k": meta.k,
                },
                sort_keys=True,
            )
        )
    lines.extend(detection_line(r) for r in records)
    write_atomic(path, "".join(line + "\n" for line in lines), "ascii")


_META_KEYS = ("frame", "effective_sources", "k")
_RECORD_KEYS = ("frame", "class", "bbox", "score")


def _parse_box(value, path, lineno, key) -> tuple[float, float, float, float]:
    if not isinstance(value, list) or len(value) != 4:
        raise ValidationError(f"{path}:{lineno}: {key} must be a list of 4 numbers")
    try:
        box = tuple(float(v) for v in value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{path}:{lineno}: non-numeric {key}: {value}") from exc
    if not all(math.isfinite(v) for v in box):
        raise ValidationError(f"{path}:{lineno}: non-finite {key}: {value}")
    return box


def _parse_score(value, path, lineno) -> float:
    score = float(value)
    if not math.isfinite(score):
        raise ValidationError(f"{path}:{lineno}: non-finite score: {value}")
    return score


def read_detections(
    path: str | Path, frame: int | None = None
) -> tuple[list[DetectionRecord], CandidateMeta | None]:
    """Parse a detection or candidate JSONL file.

    With ``frame`` given, a record that names any other frame is an error.
    """
    records: list[DetectionRecord] = []
    meta: CandidateMeta | None = None
    text = read_text(path, "ascii")
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise ValidationError(f"{path}:{lineno}: expected a JSON object")
        is_meta = obj.get("type") == "candidate_meta"
        missing = [k for k in (_META_KEYS if is_meta else _RECORD_KEYS) if k not in obj]
        if missing:
            raise ValidationError(f"{path}:{lineno}: missing keys {missing}")
        try:
            if is_meta:
                meta = CandidateMeta(
                    frame=int(obj["frame"]),
                    effective_sources=int(obj["effective_sources"]),
                    k=int(obj["k"]),
                )
                continue
            source_bbox = None
            if obj.get("source_bbox") is not None:
                source_bbox = _parse_box(obj["source_bbox"], path, lineno, "source_bbox")
            records.append(
                DetectionRecord(
                    frame=int(obj["frame"]),
                    class_name=str(obj["class"]),
                    bbox=_parse_box(obj["bbox"], path, lineno, "bbox"),
                    score=_parse_score(obj["score"], path, lineno),
                    source_offset=int(obj.get("source_offset", 0)),
                    source_bbox=source_bbox,
                )
            )
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"{path}:{lineno}: bad number: {exc}") from exc
        if frame is not None and records[-1].frame != frame:
            raise ValidationError(
                f"{path}:{lineno}: record names frame {records[-1].frame}, expected frame {frame}"
            )
    return records, meta


def write_frame(frame: Frame, path: str | Path) -> None:
    """Write a frame as binary PGM (grayscale) or PPM (RGB), maxval 255."""
    magic = b"P5" if frame.channels == 1 else b"P6"
    header = magic + b"\n%d %d\n255\n" % (frame.size.width, frame.size.height)
    write_atomic(path, header + np.ascontiguousarray(frame.data).tobytes())


def _next_token(raw: bytes, pos: int, path) -> tuple[bytes, int]:
    n = len(raw)
    while pos < n:
        c = raw[pos : pos + 1]
        if c == b"#":
            while pos < n and raw[pos : pos + 1] != b"\n":
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    if pos >= n:
        raise ValidationError(f"{path}: truncated header")
    start = pos
    while pos < n and not raw[pos : pos + 1].isspace():
        pos += 1
    return raw[start:pos], pos


def read_frame(path: str | Path) -> Frame:
    raw = Path(path).read_bytes()
    magic, pos = _next_token(raw, 0, path)
    if magic not in (b"P5", b"P6"):
        raise ValidationError(f"{path}: unsupported image magic {magic!r}")
    fields = []
    for _ in range(3):
        token, pos = _next_token(raw, pos, path)
        try:
            fields.append(int(token))
        except ValueError as exc:
            raise ValidationError(f"{path}: bad header token {token!r}") from exc
    width, height, maxval = fields
    if width <= 0 or height <= 0:
        raise ValidationError(f"{path}: invalid dimensions {width}x{height}")
    if maxval != 255:
        raise ValidationError(f"{path}: only maxval 255 is supported, got {maxval}")
    pos += 1  # single whitespace byte after maxval
    channels = 1 if magic == b"P5" else 3
    expected = width * height * channels
    payload = raw[pos : pos + expected]
    if len(payload) != expected:
        raise ValidationError(f"{path}: payload has {len(payload)} bytes, expected {expected}")
    data = np.frombuffer(payload, dtype=np.uint8).copy()
    shape = (height, width) if channels == 1 else (height, width, 3)
    return Frame(FrameSize(width, height), data.reshape(shape))
