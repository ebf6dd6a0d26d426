"""Sequence manifests: the JSON file that ties frames, detections, and flows together.

A manifest lists the frame size, the class vocabulary (index -> name), one
entry per frame (frame image plus its teacher detections), the motion-field
files keyed by ordered (from, to) frame pair, and optional ground-truth and
embedding files. Paths are relative to the manifest's directory and must
exist at load time. Each listed file is read on every request, so a manifest
keeps nothing it reads; a run holds what it reads in its ``RunWindow``.
``write_manifest`` writes the file that ``load_manifest`` reads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .errors import ValidationError
from .geometry import FrameSize, LabelSet
from .io import (
    json_integer,
    read_detections,
    read_frame,
    read_text,
    record_class_ids,
    write_atomic,
)
from .motion import FlowStore, Frame

__all__ = ["FrameEntry", "SequenceManifest", "load_manifest", "write_manifest"]


@dataclass
class FrameEntry:
    index: int
    frame_path: Path
    detections_path: Path


class SequenceManifest:
    """Loaded, validated view of a sequence directory."""

    def __init__(
        self,
        root: Path,
        size: FrameSize,
        classes: list[str],
        frames: dict[int, FrameEntry],
        flows: FlowStore,
        gt_path: Optional[Path] = None,
        embeddings_path: Optional[Path] = None,
    ):
        self.root = root
        self.size = size
        self.classes = classes
        self.frames = frames
        self.flows = flows
        self.gt_path = gt_path
        self.embeddings_path = embeddings_path
        # each class name's id: its index in the vocabulary
        self.class_ids = {name: i for i, name in enumerate(classes)}

    # -- frames and labels --------------------------------------------------

    def frame_indices(self) -> list[int]:
        return sorted(self.frames)

    def has_frame(self, index: int) -> bool:
        return index in self.frames

    def teacher_labels(self, index: int) -> Optional[LabelSet]:
        """Frame ``index``'s teacher labels, read from its file on every call.

        Every record in the file must name that frame. None if the manifest
        lists no such frame.
        """
        entry = self.frames.get(index)
        if entry is None:
            return None
        records, _ = read_detections(entry.detections_path, frame=index)
        ids = record_class_ids(records, self.class_ids, entry.detections_path)
        rows = [(c, *r.bbox, r.score, r.source_offset, None) for r, c in zip(records, ids)]
        return LabelSet(index, rows=rows)

    def frame_image(self, index: int) -> Frame:
        """Frame ``index``'s image, read from its file on every call."""
        entry = self.frames.get(index)
        if entry is None:
            raise ValidationError(f"manifest has no frame {index}")
        frame = read_frame(entry.frame_path)
        if frame.size != self.size:
            raise ValidationError(f"frame {index} is {frame.size}, manifest says {self.size}")
        return frame

    def ground_truth(self) -> dict[int, LabelSet]:
        """Ground-truth labels by frame, read from the manifest's file on every call."""
        if self.gt_path is None:
            raise ValidationError("manifest has no ground-truth file")
        records, _ = read_detections(self.gt_path)
        ids = record_class_ids(records, self.class_ids, self.gt_path)
        by_frame: dict[int, LabelSet] = {}
        for r, c in zip(records, ids):
            by_frame.setdefault(r.frame, LabelSet(r.frame)).rows.append((c, *r.bbox, r.score, 0, None))
        return by_frame


def load_manifest(path: str | Path) -> SequenceManifest:
    """Parse and validate a manifest file; all referenced files must exist."""
    path = Path(path)
    try:
        obj = json.loads(read_text(path, "utf-8"))
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise ValidationError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValidationError(f"{path}: manifest must be a JSON object")
    root = path.parent

    try:
        size = FrameSize(
            json_integer(obj["size"][0], "width"), json_integer(obj["size"][1], "height")
        )
    except (KeyError, TypeError, IndexError, ValidationError) as exc:
        raise ValidationError(f"{path}: bad or missing size: {exc}") from exc
    classes = obj.get("classes")
    if not isinstance(classes, list) or not classes:
        raise ValidationError(f"{path}: classes must be a non-empty list")
    for name in classes:
        if type(name) is not str:
            raise ValidationError(
                f"{path}: class names must be JSON strings, got {type(name).__name__} {name!r}"
            )
    if len(set(classes)) != len(classes):
        raise ValidationError(f"{path}: duplicate class names in vocabulary")

    missing: list[str] = []

    def _resolve(rel: str) -> Path:
        p = root / rel
        if not p.is_file():
            missing.append(rel)
        return p

    def _get(key: str, want: type, default):
        """``obj[key]``, or ``default`` if absent; a value of another type is an error."""
        value = obj.get(key, default)
        if value is not default and type(value) is not want:
            got = f"{type(value).__name__} {value!r}"
            raise ValidationError(f"{path}: {key} must be a {want.__name__}, got {got}")
        return value

    frames: dict[int, FrameEntry] = {}
    for entry in _get("frames", list, []):
        try:
            idx = json_integer(entry["index"], "index")
            frame_path = _resolve(entry["frame"])
            det_path = _resolve(entry["detections"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"{path}: malformed frame entry {entry}: {exc}") from exc
        if idx in frames:
            raise ValidationError(f"{path}: duplicate frame index {idx}")
        frames[idx] = FrameEntry(idx, frame_path, det_path)
    if not frames:
        raise ValidationError(f"{path}: manifest lists no frames")

    flows = FlowStore(size=size)
    for entry in _get("flows", list, []):
        try:
            a = json_integer(entry["from"], "from")
            b = json_integer(entry["to"], "to")
            flow_path = _resolve(entry["path"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"{path}: malformed flow entry {entry}: {exc}") from exc
        if flows.has(a, b):
            raise ValidationError(f"{path}: duplicate flow pair ({a}, {b})")
        flows.add(a, b, flow_path)

    gt_rel, embeddings_rel = _get("gt", str, None), _get("embeddings", str, None)
    gt_path = _resolve(gt_rel) if gt_rel else None
    embeddings_path = _resolve(embeddings_rel) if embeddings_rel else None

    if missing:
        raise ValidationError(
            f"{path}: referenced files do not exist: " + ", ".join(sorted(missing))
        )
    return SequenceManifest(
        root=root,
        size=size,
        classes=classes,
        frames=frames,
        flows=flows,
        gt_path=gt_path,
        embeddings_path=embeddings_path,
    )


def write_manifest(
    path: str | Path, size: FrameSize, classes: list[str], frames, flows, gt=None, embeddings=None
) -> None:
    """Write the manifest that ``load_manifest`` reads.

    ``frames`` holds (index, frame file, detections file) and ``flows``
    (from, to, field file), in the order written; paths are relative to it.
    """
    obj = {"size": [size.width, size.height], "classes": classes, "gt": gt, "embeddings": embeddings}
    obj["frames"] = [{"index": t, "frame": f, "detections": d} for t, f, d in frames]
    obj["flows"] = [{"from": a, "to": b, "path": rel} for a, b, rel in flows]
    write_atomic(path, json.dumps(obj, indent=2, sort_keys=True) + "\n", "ascii")
