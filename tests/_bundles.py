"""Canonical synthetic scenes shared across the test suite.

Each builder returns a generated in-memory SequenceBundle; the conftest
fixtures write them to disk once per session. Geometry is chosen so the
interesting property of each scene is forced, not probable: integer
velocities where exactness is asserted, fat boxes where floor drift must
stay small, disjoint object tracks so clusters never mix.
"""

import random
from functools import lru_cache

from propfuse.geometry import BBox, FrameSize
from propfuse.synth import (
    DetectorNoise,
    InjectedFalsePositive,
    ObjectSpec,
    SceneSpec,
    generate,
)


@lru_cache(maxsize=None)
def clean_bundle():
    """Zero noise, integer velocities: detections equal ground truth."""
    spec = SceneSpec(
        size=FrameSize(96, 72),
        length=8,
        classes=["car", "person"],
        objects=[
            ObjectSpec.linear(0, (20, 14), (4.0, 10.0), (6.0, 2.0), 8),
            ObjectSpec.linear(1, (10, 16), (70.0, 40.0), (-3.0, 0.0), 8),
        ],
        noise=DetectorNoise(),
        seed=11,
    )
    return generate(spec, include_embeddings=True)


@lru_cache(maxsize=None)
def occlusion_bundle():
    """One object the detector drops at frame 3 only; flow stays exact."""
    spec = SceneSpec(
        size=FrameSize(128, 96),
        length=6,
        classes=["car", "person"],
        objects=[
            ObjectSpec.linear(0, (24, 16), (6.0, 8.0), (4.0, 1.0), 6, occlusion=[(3, 4)]),
            ObjectSpec.linear(1, (12, 20), (100.0, 60.0), (-2.0, -1.0), 6),
        ],
        noise=DetectorNoise(),
        seed=23,
    )
    return generate(spec, include_embeddings=True)


@lru_cache(maxsize=None)
def type_b_bundle():
    """A lone spurious high-score detection injected at frame 4 only."""
    spec = SceneSpec(
        size=FrameSize(128, 96),
        length=8,
        classes=["car"],
        objects=[
            ObjectSpec.linear(0, (22, 14), (8.0, 10.0), (3.0, 2.0), 8),
        ],
        noise=DetectorNoise(),
        injected=[
            InjectedFalsePositive(frame=4, class_id=0, bbox=BBox(90.0, 60.0, 112.0, 80.0), score=0.8),
        ],
        seed=31,
    )
    return generate(spec)


@lru_cache(maxsize=None)
def integer_motion_bundle():
    """Fat boxes moving at integer velocities: round trips must be exact."""
    spec = SceneSpec(
        size=FrameSize(160, 120),
        length=6,
        classes=["car", "person"],
        objects=[
            ObjectSpec.linear(0, (48, 48), (10.0, 10.0), (3.0, 2.0), 6),
            ObjectSpec.linear(1, (48, 48), (100.0, 62.0), (-4.0, -2.0), 6),
        ],
        noise=DetectorNoise(),
        seed=43,
    )
    return generate(spec)


@lru_cache(maxsize=None)
def fractional_motion_bundle():
    """Same layout with half-pixel velocities; floor drift stays bounded."""
    spec = SceneSpec(
        size=FrameSize(160, 120),
        length=6,
        classes=["car", "person"],
        objects=[
            ObjectSpec.linear(0, (48, 48), (10.5, 10.5), (1.5, 0.5), 6),
            ObjectSpec.linear(1, (48, 48), (100.0, 62.0), (-1.5, -0.5), 6),
        ],
        noise=DetectorNoise(),
        seed=47,
    )
    return generate(spec)


@lru_cache(maxsize=None)
def noisy_bundle():
    """Jitter, dropped detections and random false alarms all at once."""
    spec = SceneSpec(
        size=FrameSize(128, 96),
        length=10,
        classes=["car", "person"],
        objects=[
            ObjectSpec.linear(0, (22, 16), (6.0, 8.0), (3.0, 1.0), 10),
            ObjectSpec.linear(1, (14, 22), (100.0, 55.0), (-2.0, 0.5), 10),
        ],
        noise=DetectorNoise(
            miss_prob=0.2,
            jitter_sigma=0.8,
            fp_rate=0.4,
            fp_score_range=(0.45, 0.95),
            true_score_range=(0.5, 0.95),
        ),
        seed=59,
    )
    return generate(spec)


@lru_cache(maxsize=None)
def crowd_bundle():
    """40 small objects and about 3 false alarms a frame: many overlapping clusters."""
    length, width, height = 12, 256, 192
    rng = random.Random(71)
    objects = []
    for i in range(40):
        w = rng.uniform(12.0, 28.0)
        h = rng.uniform(12.0, 28.0)
        vx = rng.uniform(-0.8, 0.8)
        vy = rng.uniform(-0.6, 0.6)
        x0 = rng.uniform(max(0.0, -vx * (length - 1)), width - w - max(0.0, vx * (length - 1)))
        y0 = rng.uniform(max(0.0, -vy * (length - 1)), height - h - max(0.0, vy * (length - 1)))
        objects.append(
            ObjectSpec.linear(i % 2, (w, h), (x0, y0), (vx, vy), length, color=120 + 3 * i)
        )
    spec = SceneSpec(
        size=FrameSize(width, height),
        length=length,
        classes=["car", "person"],
        objects=objects,
        noise=DetectorNoise(
            miss_prob=0.15,
            jitter_sigma=0.6,
            fp_rate=3.0,
            fp_score_range=(0.45, 0.9),
            true_score_range=(0.55, 0.95),
        ),
        seed=73,
    )
    return generate(spec)


def benchmark_spec(seed: int = 401) -> SceneSpec:
    """The 200-frame mixed-noise scene used by the fusion-method shootout.

    Pressure comes from three directions: detector misses and occlusion
    windows (propagation must fill them), objects that leave the scene for
    a while (carried boxes land on background and should be suppressed),
    and spurious single-frame detections at believable scores (membership
    rescaling should sink them).
    """
    length = 200
    objects = [
        ObjectSpec.linear(
            0, (26, 18), (4.0, 8.0), (0.8, 0.25), length, occlusion=[(30, 34), (120, 123)]
        ),
        ObjectSpec.linear(
            0, (30, 20), (180.0, 100.0), (-0.8, -0.3), length, absent=[(60, 80), (150, 165)]
        ),
        ObjectSpec.linear(
            1, (14, 28), (90.0, 10.0), (0.3, 0.5), length, occlusion=[(70, 73), (160, 164)]
        ),
        ObjectSpec.linear(
            1, (16, 30), (20.0, 100.0), (0.7, -0.35), length, absent=[(100, 118)]
        ),
        ObjectSpec.linear(0, (24, 16), (160.0, 20.0), (-0.55, 0.3), length, occlusion=[(95, 99)]),
        ObjectSpec.linear(1, (15, 26), (60.0, 70.0), (0.45, -0.2), length, absent=[(25, 40)]),
    ]
    injected = []
    for j in range(24):
        frame = 8 * j + 3
        x = 30.0 + (j * 53) % 130
        y = 12.0 + (j * 29) % 90
        injected.append(
            InjectedFalsePositive(
                frame=frame,
                class_id=j % 2,
                bbox=BBox(x, y, x + 18.0, y + 14.0),
                score=0.7 + 0.28 * ((j * 7) % 10) / 10,
            )
        )
    return SceneSpec(
        size=FrameSize(224, 160),
        length=length,
        classes=["car", "person"],
        objects=objects,
        noise=DetectorNoise(
            miss_prob=0.15,
            jitter_sigma=0.6,
            true_score_range=(0.55, 0.95),
        ),
        injected=injected,
        seed=seed,
    )


@lru_cache(maxsize=None)
def benchmark_bundle():
    return generate(benchmark_spec())
