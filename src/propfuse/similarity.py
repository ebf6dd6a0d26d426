"""Appearance features for box crops and the re-weighting of carried boxes.

A box that was carried over from a neighbouring frame keeps its original
detector score only to the extent that the image content at its new position
still looks like the content it was detected on: the score is multiplied by
the cosine similarity of the two crop descriptors. Descriptor values live in
[0, 1], so a carried box can never gain confidence.

Every provider answers ``embed(frame, box)`` for one crop and
``embed_many(frame, boxes)`` for many crops of one frame; the latter gives
None where ``embed`` would raise. ``PatchDescriptor`` computes a frame's new
crops in one batch and keeps each descriptor, and the plane it samples (a
grey frame's own uint8 pixels, an RGB frame's luminance), until
``release(frame)``; ``held_frames()`` names the frames a provider keeps.

``cosine_sim`` compares one pair of descriptors; ``cosine_sims`` compares
the rows of two stacked arrays pair by pair with the same bits, which is how
fusion rescores all the carried boxes of a target at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .errors import (
    EmbeddingLookupError,
    EmptyCropError,
    ValidationError,
)
from .geometry import BBox, Detection, unchecked_detection
from .io import read_text
from .motion import Frame, sample_bilinear

__all__ = [
    "FeatureVector",
    "cosine_sim",
    "cosine_sims",
    "PatchDescriptor",
    "PrecomputedEmbeddings",
    "FallbackProvider",
    "embedding_key",
    "rescore",
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


def cosine_sim(a: FeatureVector, b: FeatureVector) -> float:
    """Cosine similarity of two descriptors, guaranteed to lie in [0, 1].

    Computed through the squared ratio dot(a,b)^2 / (dot(a,a)*dot(b,b)) so
    that comparing a vector with itself yields exactly 1.0.
    """
    va, vb = a.values, b.values
    if va.size != vb.size:
        raise ValidationError(f"feature dimensions differ: {va.size} vs {vb.size}")
    num = float(va @ vb)
    den = float(va @ va) * float(vb @ vb)
    if den == 0.0:
        raise ValidationError(_UNDERFLOW)
    ratio = (num * num) / den
    return math.sqrt(min(ratio, 1.0))


def cosine_sims(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``cosine_sim`` of each row of ``a`` with the same row of ``b``, both (m, d).

    Each row's three dot products are stacked (1, d) @ (d, 1) products, which
    sum a row pair as the one-pair ``@`` does, so every cosine has the bits
    ``cosine_sim`` gives it; the rest is the same float64 arithmetic element
    by element.
    """
    num = (a[:, None, :] @ b[:, :, None])[:, 0, 0]
    den = (a[:, None, :] @ a[:, :, None])[:, 0, 0] * (b[:, None, :] @ b[:, :, None])[:, 0, 0]
    if not den.all():
        raise ValidationError(_UNDERFLOW)
    return np.sqrt(np.minimum((num * num) / den, 1.0))


def embedding_key(frame_index: int, bbox: BBox) -> tuple[int, float, float, float, float]:
    """Lookup key for precomputed descriptors: corners rounded to 2 decimals."""
    return (
        int(frame_index),
        round(bbox.x1, 2),
        round(bbox.y1, 2),
        round(bbox.x2, 2),
        round(bbox.y2, 2),
    )


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
        # frame -> box -> descriptor, None where the crop lies outside the frame
        self._memo: dict[int, dict[BBox, Optional[FeatureVector]]] = {}

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
        (vec,) = self.embed_many(frame_index, (bbox,))
        if vec is None:
            raise EmptyCropError(f"box {bbox.as_tuple()} lies outside frame {frame_index}")
        return vec

    def embed_many(self, frame_index: int, boxes: Sequence[BBox]) -> list[Optional[FeatureVector]]:
        """Descriptors of crops of one frame, None where a crop lies outside it.

        The crops not computed before are computed together.
        """
        memo = self._memo.setdefault(frame_index, {})
        todo = [b for b in dict.fromkeys(boxes) if b not in memo]
        if todo:
            memo.update(zip(todo, self._compute(frame_index, todo)))
        return [memo[b] for b in boxes]

    def _compute(self, frame_index: int, boxes: list[BBox]) -> list[Optional[FeatureVector]]:
        """Every crop's sampling grid as one array, one bilinear lookup for all."""
        plane = self._plane(frame_index)
        h, w = plane.shape
        # geometry.clip_to_frame for every box at once: the same max/min per corner
        corners = np.array([b.as_tuple() for b in boxes], dtype=np.float64)
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
        import json

        table: dict[tuple, FeatureVector] = {}
        text = read_text(path, "ascii")
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
                raise ValidationError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            try:
                frame = int(obj["frame"])
                box = BBox.from_sequence(obj["box"])
                vec = FeatureVector(np.asarray(obj["vec"], dtype=np.float64))
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise ValidationError(f"{path}:{lineno}: malformed embedding record: {exc}") from exc
            except ValidationError as exc:
                raise ValidationError(f"{path}:{lineno}: {exc}") from exc
            table[embedding_key(frame, box)] = vec
        return cls(table)

    def embed(self, frame_index: int, bbox: BBox) -> FeatureVector:
        key = embedding_key(frame_index, bbox)
        vec = self._table.get(key)
        if vec is None:
            raise EmbeddingLookupError(f"no embedding for frame {frame_index}, box {key[1:]}")
        return vec

    def embed_many(self, frame_index: int, boxes: Sequence[BBox]) -> list[Optional[FeatureVector]]:
        return [self._table.get(embedding_key(frame_index, b)) for b in boxes]

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

    def embed(self, frame_index: int, bbox: BBox) -> FeatureVector:
        try:
            return self.primary.embed(frame_index, bbox)
        except EmbeddingLookupError:
            return self.fallback.embed(frame_index, bbox)

    def embed_many(self, frame_index: int, boxes: Sequence[BBox]) -> list[Optional[FeatureVector]]:
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


def rescore(
    candidate: Detection,
    source_bbox: BBox,
    provider,
    target_frame: int,
    source_frame: int,
) -> Detection | None:
    """Scale a carried candidate's score by crop similarity.

    Returns None (candidate dropped) when either crop cannot be embedded:
    the crop lies outside its frame, or a precomputed lookup misses without
    a fallback.
    """
    try:
        target_feat = provider.embed(target_frame, candidate.bbox)
        source_feat = provider.embed(source_frame, source_bbox)
    except (EmptyCropError, EmbeddingLookupError):
        return None
    # a score and a cosine both in [0, 1] give a product in [0, 1]
    score = candidate.score * cosine_sim(target_feat, source_feat)
    return unchecked_detection(candidate.class_id, candidate.bbox, score, candidate.source_offset)
