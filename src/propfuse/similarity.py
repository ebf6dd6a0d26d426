"""Appearance features for box crops and the re-weighting of carried boxes.

A box that was carried over from a neighbouring frame keeps its original
detector score only to the extent that the image content at its new position
still looks like the content it was detected on: the score is multiplied by
the cosine similarity of the two crop descriptors. Descriptor values live in
[0, 1], so a carried box can never gain confidence.

Every provider answers ``embed_many(frame, boxes)`` for many crops of one
frame, each box an (x1, y1, x2, y2) tuple of corners, with None where a
crop cannot be embedded. ``PatchDescriptor`` computes a frame's new crops in
one batch and keeps each descriptor, keyed by its corner tuple, and the
plane it samples (a grey frame's own uint8 pixels, an RGB frame's
luminance), until ``release(frame)``; ``held_frames()`` names the frames a
provider keeps.

``rescore_many`` is the one rescoring rule, for all the carried candidate
rows of a target at once (``propagation.CandidateSet.rows``), through one
``cosine_sims`` over stacked descriptor rows; ``rescore`` is its one-pair
case for a ``Detection``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .errors import EmptyCropError, ValidationError
from .geometry import BBox, Detection, unchecked_detection
from .io import json_integer, json_lines, json_number, parse_box, write_atomic
from .motion import Frame, sample_bilinear

__all__ = [
    "FeatureVector",
    "cosine_sims",
    "PatchDescriptor",
    "PrecomputedEmbeddings",
    "FallbackProvider",
    "embedding_key",
    "rescore",
    "rescore_many",
]

DEFAULT_PATCH_SIZE = 16
# A batch of m crops samples m * patch_size**2 float64 values, with a few
# temporaries of that size; 64 (4096 values a crop) is well above any useful
# resolution and keeps one crop's work near 100 kB.
MAX_PATCH_SIZE = 64


def check_patch_size(patch_size: int) -> None:
    """Reject a patch size outside [2, MAX_PATCH_SIZE] with a ValidationError."""
    if not 2 <= patch_size <= MAX_PATCH_SIZE:
        raise ValidationError(f"patch_size must lie in [2, {MAX_PATCH_SIZE}], got {patch_size}")


@dataclass
class FeatureVector:
    """A 1-D descriptor with every component in [0, 1] and non-zero norm."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1 or self.values.size == 0:
            raise ValidationError("feature vector must be a non-empty 1-D array")
        _check_components(self.values)

    @classmethod
    def rows(cls, values: np.ndarray) -> list["FeatureVector"]:
        """One vector per row of a non-empty (m, d) float64 array, checked as a whole."""
        _check_components(values)
        out = []
        for row in values:
            vec = cls.__new__(cls)
            vec.values = row
            out.append(vec)
        return out

    @property
    def dim(self) -> int:
        return int(self.values.size)


def _check_components(values: np.ndarray) -> None:
    """The descriptor invariants, for one vector or for every row of a batch."""
    if not np.isfinite(values).all():
        raise ValidationError("feature vector contains non-finite values")
    if values.min() < 0.0 or values.max() > 1.0:
        raise ValidationError("feature vector components must lie in [0, 1]")
    if not values.any(axis=-1).all():
        raise ValidationError("feature vector has zero norm")


# two vectors whose components are all near 1e-81 or below have a product of
# squared norms that underflows to 0.0, and 0/0 has no cosine
_UNDERFLOW = "feature vectors too small to compare: the product of their squared norms underflows"


def cosine_sims(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cosine similarity of each row of ``a`` with the same row of ``b``, both (m, d).

    Computed through dot(a,b)^2 / (dot(a,a)*dot(b,b)), so a row compared with
    itself gives exactly 1.0. Each dot product is a stacked (1, d) @ (d, 1)
    product, which sums a row pair as the one-pair ``@`` does, so a cosine
    has the same bits whichever rows share its batch.
    """
    if a.shape[1] != b.shape[1]:
        raise ValidationError(f"feature dimensions differ: {a.shape[1]} vs {b.shape[1]}")
    num = (a[:, None, :] @ b[:, :, None])[:, 0, 0]
    den = (a[:, None, :] @ a[:, :, None])[:, 0, 0] * (b[:, None, :] @ b[:, :, None])[:, 0, 0]
    if not den.all():
        raise ValidationError(_UNDERFLOW)
    return np.sqrt(np.minimum((num * num) / den, 1.0))


def embedding_key(frame_index: int, bbox: BBox) -> tuple[int, float, float, float, float]:
    """Lookup key for precomputed descriptors: corners rounded to 2 decimals."""
    return _corners_key(frame_index, bbox.as_tuple())


def _corners_key(frame_index: int, corners: tuple) -> tuple[int, float, float, float, float]:
    """``embedding_key`` of the box with these (x1, y1, x2, y2) corners."""
    x1, y1, x2, y2 = corners
    return (int(frame_index), round(x1, 2), round(y1, 2), round(x2, 2), round(y2, 2))


class PatchDescriptor:
    """Descriptor computed straight from pixels.

    The crop is clipped to the frame, resampled bilinearly onto a
    patch_size x patch_size grid of its luminance, flattened, and min-max
    normalised into [0, 1]. A perfectly flat crop maps to an all-0.5 vector,
    which keeps the norm non-zero and compares equal to every other flat crop.

    A grey frame is sampled on its own uint8 pixels: the lookup casts only
    the four gathered neighbours to float64, exactly, so the descriptor has
    the bits a float64 luminance plane would give, without the plane. An RGB
    frame is sampled on ``Frame.luminance()``, since a lerp per channel
    would round differently.

    Each (frame, box) descriptor is computed once and kept, with the plane
    it was sampled on, until ``release`` drops the frame.
    """

    def __init__(self, frame_loader: Callable[[int], Frame], patch_size: int = DEFAULT_PATCH_SIZE):
        check_patch_size(patch_size)
        self._loader = frame_loader
        self.patch_size = int(patch_size)
        self._planes: dict[int, np.ndarray] = {}
        # frame -> corners -> descriptor, None where the crop lies outside the frame
        self._memo: dict[int, dict[tuple, Optional[FeatureVector]]] = {}

    @property
    def dim(self) -> int:
        return self.patch_size * self.patch_size

    def held_frames(self) -> set[int]:
        """Frames whose descriptors or sampled plane are still kept."""
        return set(self._memo) | set(self._planes)

    def release(self, frame_index: int) -> None:
        """Drop the frame's descriptors and sampled plane."""
        self._memo.pop(frame_index, None)
        self._planes.pop(frame_index, None)

    def _plane(self, frame_index: int) -> np.ndarray:
        """The (h, w) array crops of the frame are sampled on."""
        plane = self._planes.get(frame_index)
        if plane is None:
            frame = self._loader(frame_index)
            plane = frame.data if frame.channels == 1 else frame.luminance()
            self._planes[frame_index] = plane
        return plane

    def embed(self, frame_index: int, bbox: BBox) -> FeatureVector:
        (vec,) = self.embed_many(frame_index, (bbox.as_tuple(),))
        if vec is None:
            raise EmptyCropError(f"box {bbox.as_tuple()} lies outside frame {frame_index}")
        return vec

    def embed_many(self, frame_index: int, boxes: Sequence[tuple]) -> list[Optional[FeatureVector]]:
        """Descriptors of crops of one frame, None where a crop lies outside it.

        Each box is a valid (x1, y1, x2, y2) tuple. The crops not computed
        before are computed together.
        """
        memo = self._memo.setdefault(frame_index, {})
        todo = [b for b in dict.fromkeys(boxes) if b not in memo]
        if todo:
            memo.update(zip(todo, self._compute(frame_index, todo)))
        return [memo[b] for b in boxes]

    def _compute(self, frame_index: int, boxes: list[tuple]) -> list[Optional[FeatureVector]]:
        """Every crop's sampling grid as one array, one bilinear lookup for all."""
        plane = self._plane(frame_index)
        h, w = plane.shape
        # geometry.clip_to_frame for every box at once: the same max/min per corner
        corners = np.array(boxes, dtype=np.float64)
        x1, y1 = np.maximum(corners[:, 0], 0.0), np.maximum(corners[:, 1], 0.0)
        x2, y2 = np.minimum(corners[:, 2], float(w)), np.minimum(corners[:, 3], float(h))
        inside = np.flatnonzero((x1 < x2) & (y1 < y2))
        out: list[Optional[FeatureVector]] = [None] * len(boxes)
        if not inside.size:
            return out
        x1, y1, x2, y2 = x1[inside], y1[inside], x2[inside], y2[inside]
        n = self.patch_size
        # element by element the grid of a single crop: x1 + (j + 0.5) * (width / n)
        steps = np.arange(n) + 0.5
        xs = x1[:, None] + steps * ((x2 - x1) / n)[:, None]
        ys = y1[:, None] + steps * ((y2 - y1) / n)[:, None]
        # rows of crop b sample at ys[b, i], columns at xs[b, j]; the lookup broadcasts
        patches = sample_bilinear(plane, xs[:, None, :], ys[:, :, None]).reshape(len(inside), n * n)
        lo = patches.min(axis=1, keepdims=True)
        span = patches.max(axis=1, keepdims=True) - lo
        vals = (patches - lo) / np.where(span == 0.0, 1.0, span)
        vals[span[:, 0] == 0.0] = 0.5
        for i, vec in zip(inside.tolist(), FeatureVector.rows(vals)):
            out[i] = vec
        return out


class PrecomputedEmbeddings:
    """Descriptors loaded from a JSONL file keyed by (frame, rounded box).

    Each line reads {"frame": int, "box": [x1, y1, x2, y2], "vec": [...]};
    vector components must lie in [0, 1] and at least one must be non-zero.
    ``write`` writes that file, ``load`` reads it.
    """

    def __init__(self, table: Mapping[tuple, FeatureVector]):
        dims = {fv.dim for fv in table.values()}
        if len(dims) > 1:
            raise ValidationError(f"embeddings mix dimensions: {sorted(dims)}")
        self._table = dict(table)

    def __len__(self) -> int:
        return len(self._table)

    @classmethod
    def load(cls, path: str | Path) -> "PrecomputedEmbeddings":
        table: dict[tuple, FeatureVector] = {}
        for lineno, obj in json_lines(path):
            try:
                frame = json_integer(obj["frame"], "frame")
                box = obj["box"]
                values = np.array([json_number(v, "vec") for v in obj["vec"]], dtype=np.float64)
            except (KeyError, TypeError, OverflowError) as exc:
                raise ValidationError(f"{path}:{lineno}: malformed embedding record: {exc}") from exc
            corners = parse_box(box, path, lineno, "box")
            try:
                vec = FeatureVector(values)
            except ValidationError as exc:
                raise ValidationError(f"{path}:{lineno}: {exc}") from exc
            table[_corners_key(frame, corners)] = vec
        return cls(table)

    def write(self, path: str | Path) -> None:
        """Write the table as ``load`` reads it: one line per key, keys in order, 6 decimals."""
        lines = []
        for key in sorted(self._table):
            box = ", ".join(f"{c:.6f}" for c in key[1:])
            vals = ", ".join(f"{v:.6f}" for v in self._table[key].values)
            lines.append(f'{{"frame": {key[0]}, "box": [{box}], "vec": [{vals}]}}\n')
        write_atomic(path, "".join(lines), "ascii")

    def embed_many(self, frame_index: int, boxes: Sequence[tuple]) -> list[Optional[FeatureVector]]:
        return [self._table.get(_corners_key(frame_index, b)) for b in boxes]

    def held_frames(self) -> set[int]:
        """None: the table is the input itself."""
        return set()

    def release(self, frame_index: int) -> None:
        """Nothing to drop: the table is the input itself."""


class FallbackProvider:
    """Try a primary provider, fall back to another on lookup misses."""

    def __init__(self, primary, fallback):
        self.primary = primary
        self.fallback = fallback

    def embed_many(self, frame_index: int, boxes: Sequence[tuple]) -> list[Optional[FeatureVector]]:
        """The primary's descriptors, with only its misses asked of the fallback."""
        vecs = self.primary.embed_many(frame_index, boxes)
        misses = [b for b, vec in zip(boxes, vecs) if vec is None]
        found = iter(self.fallback.embed_many(frame_index, misses) if misses else ())
        return [next(found) if vec is None else vec for vec in vecs]

    def held_frames(self) -> set[int]:
        return self.primary.held_frames() | self.fallback.held_frames()

    def release(self, frame_index: int) -> None:
        self.primary.release(frame_index)
        self.fallback.release(frame_index)


def rescore_many(provider, target_frame: int, rows: Sequence[tuple]) -> list[Optional[tuple]]:
    """Each carried row with its score scaled by crop similarity, or None where a crop
    cannot be embedded.

    ``rows`` are candidate rows (see ``propagation.CandidateSet``): row i's
    box on ``target_frame`` is compared with its source box on frame
    ``target_frame - source_offset``. The provider is asked once per frame,
    the target first, for all that frame's crops; pairs of one descriptor
    length share one ``cosine_sims``.
    """
    if not rows:
        return []
    crops: dict[int, list[tuple]] = {target_frame: [row[1:5] for row in rows]}
    for row in rows:
        crops.setdefault(target_frame - row[6], []).append(row[7])
    # each frame's descriptors in listing order: on the target frame its crops, then any source's
    vecs = {frame: iter(provider.embed_many(frame, boxes)) for frame, boxes in crops.items()}
    target_feats = [next(vecs[target_frame]) for _ in rows]

    out: list[Optional[tuple]] = [None] * len(rows)
    # descriptor length -> (row positions, target rows, source rows)
    pairs: dict[int, tuple[list[int], list[np.ndarray], list[np.ndarray]]] = {}
    for i, (target_feat, row) in enumerate(zip(target_feats, rows)):
        source_feat = next(vecs[target_frame - row[6]])
        if target_feat is None or source_feat is None:
            continue  # a crop outside its frame, or a lookup miss without a fallback
        if target_feat.dim != source_feat.dim:
            raise ValidationError(f"feature dimensions differ: {target_feat.dim} vs {source_feat.dim}")
        slots, rows_t, rows_s = pairs.setdefault(target_feat.dim, ([], [], []))
        slots.append(i)
        rows_t.append(target_feat.values)
        rows_s.append(source_feat.values)
    for slots, rows_t, rows_s in pairs.values():
        for i, sim in zip(slots, cosine_sims(np.stack(rows_t), np.stack(rows_s)).tolist()):
            c, x1, y1, x2, y2, score, offset, source = rows[i]
            # a score and a cosine both in [0, 1] give a product in [0, 1]
            out[i] = (c, x1, y1, x2, y2, score * sim, offset, source)
    return out


def rescore(
    candidate: Detection,
    source_bbox: BBox,
    provider,
    target_frame: int,
    source_frame: int,
) -> Detection | None:
    """``rescore_many`` of one candidate carried from ``source_bbox`` on ``source_frame``."""
    b = candidate.bbox
    row = (
        candidate.class_id, b.x1, b.y1, b.x2, b.y2, candidate.score,
        target_frame - source_frame, source_bbox.as_tuple(),
    )
    (out,) = rescore_many(provider, target_frame, [row])
    if out is None:
        return None
    return unchecked_detection(candidate.class_id, b, out[5], candidate.source_offset)
