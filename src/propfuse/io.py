"""Detection JSONL records, the one JSON-lines reader, and PGM/PPM frame files.

One detection per line: {"frame": int, "class": str, "bbox": [x1, y1, x2, y2],
"score": float}, and on a candidate file's carried lines the optional
"source_offset" (omitted when 0) and the originating "source_bbox" on the
source frame. Floats are always written with 6 decimal places so identical
runs produce identical bytes. ``write_detections`` writes every such file,
label, candidate and ground truth, straight from its label sets' rows, each
line from one template, ``_LINE_HEAD``. A candidate file may hold one
{"type": "candidate_meta", ...} line, written first, carrying the target
frame, the number of available sources, and k. ``json_lines`` reads every JSON-lines file,
embeddings too; ``json_integer``, ``json_number`` and ``parse_box`` are the
number and box rules of every JSON reader.

Every file is written through ``write_atomic``: a reader, or a run that is
killed, sees a file's old contents or its whole new contents, never a part.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError, VocabularyError
from .geometry import Detection, FrameSize, unchecked_bbox, unchecked_detection
from .motion import Frame

__all__ = [
    "DetectionRecord",
    "CandidateMeta",
    "write_detections",
    "read_detections",
    "record_detection",
    "record_class_ids",
    "json_lines",
    "json_integer",
    "json_number",
    "parse_box",
    "read_text",
    "write_atomic",
    "write_frame",
    "read_frame",
]


@dataclass(slots=True)
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
    # no Path: it would intern the file name (see join_name)
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode(encoding)
    except UnicodeDecodeError as exc:
        lineno = raw.count(b"\n", 0, exc.start) + 1
        raise ValidationError(
            f"{path}:{lineno}: not {encoding} text: byte {raw[exc.start]:#04x} at offset {exc.start}"
        ) from exc


def join_name(root: str, name: str) -> str:
    """``str(Path(root) / name)`` for a root as ``str(Path(...))`` gives it, joined as a string.

    A ``Path`` interns each of its parts, so one per file written or read
    would add and drop a table entry per file on every pass, and a
    long-running process would rebuild that table (a block of about 1 MB,
    placed wherever the heap has room then) every few hundred passes.
    """
    return name if root == "." else os.path.join(root, name)


def write_atomic(path: str | Path, data: str | bytes, encoding: str | None = None) -> None:
    """Write text or bytes to a sibling temporary file, then move it over ``path``.

    Text is encoded with ``encoding`` before anything is opened. If writing
    fails the temporary file is removed, ``path`` keeps whatever it held
    before, and an ``OSError`` names ``path``, not the temporary file.
    Names are strings, not ``Path``s (see ``join_name``).
    """
    # a trailing separator still names the file, as it did through a Path
    path = os.fspath(path).rstrip(os.sep)
    if isinstance(data, str):
        data = data.encode(encoding)
    tmp = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except OSError as exc:
        _remove(tmp)
        # the name as a Path spells it, as errors have always shown it
        raise OSError(exc.errno, exc.strerror, str(Path(path))) from exc
    except BaseException:
        _remove(tmp)
        raise


def _remove(path: str) -> None:
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass


# a detection line up to its optional keys: %d is int() and %.6f is
# f"{float(x):.6f}", and the class comes pre-quoted
_LINE_HEAD = '{"frame": %d, "class": %s, "bbox": [%.6f, %.6f, %.6f, %.6f], "score": %.6f'


def write_detections(
    label_sets, path: str | Path, classes, meta: CandidateMeta | None = None
) -> None:
    """Write the frames of one label, candidate or ground-truth JSONL file.

    ``label_sets`` holds ``LabelSet``s (a ``CandidateSet`` is one), written
    in order, whose class ids index ``classes``. Each name is quoted once
    and each line formatted straight from its row. With ``meta`` the file
    is a candidate file: ``meta`` is its header line, and a line goes on
    with its non-zero source offset and its source box where that is not
    None. Without it no line carries a source key.
    """
    names = [json.dumps(name) for name in classes]
    lines = []
    if meta is not None:
        lines.append(json.dumps({"type": "candidate_meta", **asdict(meta)}, sort_keys=True) + "\n")
    for labels in label_sets:
        frame = labels.frame_index
        for c, x1, y1, x2, y2, score, offset, src in labels.rows:
            line = _LINE_HEAD % (frame, names[c], x1, y1, x2, y2, score)
            if meta is not None:
                if offset:
                    line += ', "source_offset": %d' % offset
                if src is not None:
                    line += ', "source_bbox": [%.6f, %.6f, %.6f, %.6f]' % src
            lines.append(line + "}\n")
    write_atomic(path, "".join(lines), "ascii")


_META_KEYS = ("frame", "effective_sources", "k")
_RECORD_KEYS = ("frame", "class", "bbox", "score")
_INF = math.inf


def _shown(value) -> str:
    """A rejected JSON value in an error message: its type, then its value."""
    if type(value) is float and math.isinf(value):
        return "float -infinity" if value < 0 else "float infinity"
    return f"{type(value).__name__} {value!r}"


def json_integer(value, key: str) -> int:
    """``value`` if it is a JSON integer, else a TypeError naming ``key``.

    Not 0.7, which int() would floor, and not true, which int() reads as 1.
    """
    if type(value) is not int:
        raise TypeError(f"{key} must be an integer, got {_shown(value)}")
    return value


def json_number(value, key: str) -> int | float:
    """``value`` if it is a JSON number, else a TypeError naming ``key``.

    Not "0.5", which float() would parse, and not true, which float() reads as 1.0.
    """
    if type(value) is not float and type(value) is not int:
        raise TypeError(f"{key} must be a number, got {_shown(value)}")
    return value


# the C scanner ``json.loads`` runs under ``raw_decode``: one value at an index
_scan_once = json.JSONDecoder().scan_once
# characters split into lines at once: a whole file's lines are never held
_LINE_CHUNK = 1 << 16


def _lines(text: str):
    """``text.splitlines()``, made a chunk at a time.

    A chunk ends just after a newline, which ends a line whichever way the
    text is split, so the lines are the same.
    """
    start = 0
    while start < len(text):
        stop = text.find("\n", start + _LINE_CHUNK) + 1 or len(text)
        yield from text[start:stop].splitlines()
        start = stop


def json_lines(path: str | Path):
    """Each non-blank line of an ASCII JSON-lines file as (line number, value).

    The text is split into lines a chunk at a time, and a stripped line is
    parsed by one ``scan_once`` call, which must end at the end of the line.
    A line that is not one JSON value is parsed again by ``json.loads``, only
    for its error: a ValidationError naming the file and line.
    """
    for lineno, line in enumerate(_lines(read_text(path, "ascii")), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            value, end = _scan_once(line, 0)
        except (StopIteration, ValueError):  # no value at the start, or a malformed one
            end = -1
        if end != len(line):
            try:
                value = json.loads(line)  # the line is not one JSON value: this raises
            except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
                raise ValidationError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
        yield lineno, value


def parse_box(value, path, lineno, key) -> tuple[float, float, float, float]:
    """Four finite numbers with x1 < x2 and y1 < y2, as floats: what ``BBox`` checks."""
    if type(value) is not list or len(value) != 4:
        raise ValidationError(f"{path}:{lineno}: {key} must be a list of 4 numbers")
    for v in value:
        if type(v) is not float and type(v) is not int:
            raise ValidationError(f"{path}:{lineno}: non-numeric {key}: {value}")
    try:
        box = x1, y1, x2, y2 = tuple(map(float, value))
    except OverflowError as exc:
        raise ValidationError(f"{path}:{lineno}: {key} coordinate out of range: {value}") from exc
    # NaN fails every comparison and an infinity its outer bound, so this
    # holds exactly when all four are finite and the box is not degenerate
    if not (-_INF < x1 < x2 < _INF and -_INF < y1 < y2 < _INF):
        if not all(map(math.isfinite, box)):
            raise ValidationError(f"{path}:{lineno}: non-finite {key}: {value}")
        raise ValidationError(f"{path}:{lineno}: degenerate {key} {value}: need x1 < x2 and y1 < y2")
    return box


def _parse_score(value, path, lineno) -> float:
    """A number in [0, 1], as a float: what ``Detection`` checks."""
    json_number(value, "score")
    if not 0.0 <= value <= 1.0:
        if type(value) is float and not math.isfinite(value):
            raise ValidationError(f"{path}:{lineno}: non-finite score: {value}")
        raise ValidationError(f"{path}:{lineno}: score must lie in [0, 1], got {value}")
    return float(value)


def read_detections(
    path: str | Path, frame: int | None = None
) -> tuple[list[DetectionRecord], CandidateMeta | None]:
    """Parse a detection or candidate JSONL file, checking each line once.

    A record passes every check ``BBox`` and ``Detection`` would make, so
    a label row or ``record_detection`` can take it unchecked. A second
    candidate_meta line is an error that names the first. With ``frame``
    given, a record that names any other frame is an error.
    """
    records: list[DetectionRecord] = []
    meta: CandidateMeta | None = None
    meta_line = 0
    for lineno, obj in json_lines(path):
        if type(obj) is not dict:
            raise ValidationError(f"{path}:{lineno}: expected a JSON object")
        is_meta = obj.get("type") == "candidate_meta"
        try:
            if is_meta:
                if meta_line:
                    raise ValidationError(f"{path}:{lineno}: second candidate_meta line, after line {meta_line}")
                meta_line = lineno
                meta = CandidateMeta(*(json_integer(obj[key], key) for key in _META_KEYS))
                if meta.effective_sources < 1:
                    raise ValidationError(
                        f"{path}:{lineno}: effective_sources must be >= 1, got {meta.effective_sources}"
                    )
                if meta.k < 0:
                    raise ValidationError(f"{path}:{lineno}: k must be >= 0, got {meta.k}")
                continue
            rec_frame = json_integer(obj["frame"], "frame")
            class_name = obj["class"]
            bbox = parse_box(obj["bbox"], path, lineno, "bbox")
            score = _parse_score(obj["score"], path, lineno)
            if type(class_name) is not str:
                raise ValidationError(
                    f"{path}:{lineno}: class must be a string, got {_shown(class_name)}"
                )
            source_offset = json_integer(obj.get("source_offset", 0), "source_offset")
        except KeyError:
            missing = [k for k in (_META_KEYS if is_meta else _RECORD_KEYS) if k not in obj]
            raise ValidationError(f"{path}:{lineno}: missing keys {missing}") from None
        except TypeError as exc:  # from json_integer or json_number
            raise ValidationError(f"{path}:{lineno}: {exc}") from None
        source_bbox = obj.get("source_bbox")
        if source_bbox is not None:
            source_bbox = parse_box(source_bbox, path, lineno, "source_bbox")
        if frame is not None and rec_frame != frame:
            raise ValidationError(
                f"{path}:{lineno}: record names frame {rec_frame}, expected frame {frame}"
            )
        records.append(
            DetectionRecord(rec_frame, class_name, bbox, score, source_offset, source_bbox)
        )
    return records, meta


def record_detection(rec: DetectionRecord, class_id: int, source_offset: int = 0) -> Detection:
    """A record from ``read_detections`` as a ``Detection`` of ``class_id``.

    The reader has made every check ``BBox`` and ``Detection`` would, so
    the objects are built unchecked.
    """
    return unchecked_detection(class_id, unchecked_bbox(*rec.bbox), rec.score, source_offset)


def record_class_ids(records, class_ids: dict[str, int], path) -> list[int]:
    """Each record's class id in ``class_ids``, for the records of the file at ``path``.

    Names not in ``class_ids`` are a ``VocabularyError`` that names ``path``
    and every such name of the file, sorted.
    """
    try:
        return [class_ids[r.class_name] for r in records]
    except KeyError:
        raise VocabularyError({r.class_name for r in records} - class_ids.keys(), path) from None


def write_frame(frame: Frame, path: str | Path) -> None:
    """Write a frame as binary PGM (grayscale) or PPM (RGB), maxval 255."""
    magic = b"P5" if frame.channels == 1 else b"P6"
    header = magic + b"\n%d %d\n255\n" % (frame.size.width, frame.size.height)
    write_atomic(path, header + np.ascontiguousarray(frame.data).tobytes())


def _next_token(raw: bytearray, pos: int, path) -> tuple[bytes, int]:
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
    return bytes(raw[start:pos]), pos


def read_frame(path: str | Path) -> Frame:
    """Parse a binary PGM or PPM frame; bytes after the payload are ignored.

    The file is read once into a buffer that the returned pixel array views,
    so the pixels are copied once, from the file, and stay writable.
    """
    with open(path, "rb") as fh:  # no Path (see join_name)
        raw = bytearray(os.fstat(fh.fileno()).st_size)
        del raw[fh.readinto(raw) :]
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
    if len(raw) < pos + expected:
        have = max(len(raw) - pos, 0)
        raise ValidationError(f"{path}: payload has {have} bytes, expected {expected}")
    del raw[pos + expected :]  # trailing bytes: the frame holds only its own
    data = np.frombuffer(raw, dtype=np.uint8, count=expected, offset=pos)
    shape = (height, width) if channels == 1 else (height, width, 3)
    return Frame(FrameSize(width, height), data.reshape(shape))
