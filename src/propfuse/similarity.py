"""Appearance features for box crops and the re-weighting of carried boxes.

A box that was carried over from a neighbouring frame keeps its original
detector score only to the extent that the image content at its new position
still looks like the content it was detected on: the score is multiplied by
the cosine similarity of the two crop descriptors. Descriptor values live in
[0, 1], so a carried box can never gain confidence.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from .errors import (
    EmbeddingLookupError,
    EmptyCropError,
    ValidationError,
)
from .geometry import BBox, Detection, FrameSize, clip_to_frame
from .motion import Frame, sample_bilinear

__all__ = [
    "FeatureVector",
    "cosine_sim",
    "PatchDescriptor",
    "PrecomputedEmbeddings",
    "FallbackProvider",
    "embedding_key",
    "rescore",
]

DEFAULT_PATCH_SIZE = 16


@dataclass
class FeatureVector:
    """A 1-D descriptor with every component in [0, 1] and non-zero norm."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1 or self.values.size == 0:
            raise ValidationError("feature vector must be a non-empty 1-D array")
        if not np.isfinite(self.values).all():
            raise ValidationError("feature vector contains non-finite values")
        if self.values.min() < 0.0 or self.values.max() > 1.0:
            raise ValidationError("feature vector components must lie in [0, 1]")
        if not self.values.any():
            raise ValidationError("feature vector has zero norm")

    @property
    def dim(self) -> int:
        return int(self.values.size)


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
    ratio = (num * num) / den
    return math.sqrt(min(ratio, 1.0))


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
    """

    def __init__(self, frame_loader: Callable[[int], Frame], patch_size: int = DEFAULT_PATCH_SIZE):
        if patch_size < 2:
            raise ValidationError(f"patch size must be >= 2, got {patch_size}")
        self._loader = frame_loader
        self.patch_size = int(patch_size)
        self._lum_cache: dict[int, np.ndarray] = {}
        self._lock = threading.Lock()

    @property
    def dim(self) -> int:
        return self.patch_size * self.patch_size

    def _luminance(self, frame_index: int) -> np.ndarray:
        with self._lock:
            lum = self._lum_cache.get(frame_index)
            if lum is None:
                lum = self._loader(frame_index).luminance()
                self._lum_cache[frame_index] = lum
            return lum

    def embed(self, frame_index: int, bbox: BBox) -> FeatureVector:
        lum = self._luminance(frame_index)
        h, w = lum.shape
        clipped = clip_to_frame(bbox, FrameSize(w, h))
        if clipped is None:
            raise EmptyCropError(f"box {bbox.as_tuple()} lies outside frame {frame_index}")
        box = clipped[0]
        n = self.patch_size
        xs = box.x1 + (np.arange(n) + 0.5) * (box.width / n)
        ys = box.y1 + (np.arange(n) + 0.5) * (box.height / n)
        patch = sample_bilinear(lum, *np.meshgrid(xs, ys))
        lo = patch.min()
        hi = patch.max()
        if hi == lo:
            vals = np.full(n * n, 0.5)
        else:
            vals = ((patch - lo) / (hi - lo)).reshape(n * n)
        return FeatureVector(vals)


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
        text = Path(path).read_text(encoding="ascii")
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            try:
                frame = int(obj["frame"])
                box = BBox.from_sequence(obj["box"])
                vec = FeatureVector(np.asarray(obj["vec"], dtype=np.float64))
            except (KeyError, TypeError) as exc:
                raise ValidationError(f"{path}:{lineno}: malformed embedding record") from exc
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
    return replace(candidate, score=candidate.score * cosine_sim(target_feat, source_feat))
