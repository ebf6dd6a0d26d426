"""The benchmark's workloads: scene specs, pipeline settings and their seeds.

Each workload is a synthetic scene built with ``propfuse.synth`` plus the
pipeline configuration it is run with. The object layout of a scene is
fixed; the benchmark's ``--seed`` becomes the scene seed, which drives the
background texture, the simulated detector's misses, jitter and false
alarms. The same seed therefore always produces byte-identical inputs.

``short=True`` gives a shortened scene with the same make-up, used by the
harness self-test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from propfuse.geometry import BBox, FrameSize
from propfuse.synth import DetectorNoise, InjectedFalsePositive, ObjectSpec, SceneSpec


@dataclass(frozen=True)
class Workload:
    name: str
    method: str
    k: int
    build: Callable[[int, bool], SceneSpec]
    # eval passes per round, each followed by a reference pass: enough positions
    # for run.best_by_position where one eval pass is short
    eval_reps: int
    # field copies per reference pass (worker._reference_pass): how much of
    # the pipeline's time is memory traffic rather than interpreter work
    reference_copies: int = 0

    def config(self) -> dict:
        """Pipeline settings; everything not named keeps its default."""
        return {"method": self.method, "k": self.k, "jobs": 1}


def street200(seed: int, short: bool = False) -> SceneSpec:
    """The 200-frame, 224x160 mixed-noise scene of the fusion shootout.

    Occlusion windows and detector misses that propagation has to fill,
    objects that leave the scene so that carried boxes land on background,
    and 24 injected single-frame false alarms at believable scores.
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
    spec = SceneSpec(
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
    return _shortened(spec, 16) if short else spec


def hires1080(seed: int, short: bool = False) -> SceneSpec:
    """24 frames of 1920x1080 with 8 large moving objects and sparse false alarms."""
    length = 4 if short else 24
    # (class, size, start, velocity per frame, occlusion windows)
    layout = [
        (0, (360, 220), (40.0, 700.0), (11.0, -2.0), [(5, 7)]),
        (0, (300, 180), (1500.0, 120.0), (-9.0, 3.0), []),
        (1, (90, 230), (900.0, 400.0), (3.0, 1.5), [(12, 14)]),
        (1, (80, 210), (200.0, 120.0), (4.5, 2.0), []),
        (0, (240, 150), (1300.0, 800.0), (-6.0, -4.0), [(18, 20)]),
        (1, (70, 190), (1700.0, 600.0), (-5.0, 0.5), []),
        (0, (420, 260), (600.0, 60.0), (2.0, 5.0), []),
        (1, (100, 240), (520.0, 780.0), (7.0, -1.0), [(2, 3)]),
    ]
    objects = [
        ObjectSpec.linear(
            cls,
            size,
            start,
            vel,
            length,
            color=150 + 12 * i,
            occlusion=[iv for iv in occ if iv[1] <= length],
        )
        for i, (cls, size, start, vel, occ) in enumerate(layout)
    ]
    return SceneSpec(
        size=FrameSize(1920, 1080),
        length=length,
        classes=["car", "person"],
        objects=objects,
        noise=DetectorNoise(
            miss_prob=0.12,
            jitter_sigma=1.5,
            fp_rate=0.3,
            fp_score_range=(0.45, 0.9),
            true_score_range=(0.55, 0.95),
            fp_width_range=(40.0, 200.0),
            fp_height_range=(40.0, 200.0),
        ),
        seed=seed,
    )


def crowd(seed: int, short: bool = False) -> SceneSpec:
    """200 frames of 256x192 with 40 small objects and about 3 false alarms a frame."""
    length = 200
    width, height = 256, 192
    # the layout comes from a fixed generator so it is the same for every seed
    rng = random.Random(7)
    objects = []
    for i in range(40):
        w = rng.uniform(12.0, 28.0)
        h = rng.uniform(12.0, 28.0)
        vx = rng.uniform(-0.8, 0.8)
        vy = rng.uniform(-0.6, 0.6)
        travel_x = vx * (length - 1)
        travel_y = vy * (length - 1)
        x0 = rng.uniform(max(0.0, -travel_x), min(width - w, width - w - travel_x))
        y0 = rng.uniform(max(0.0, -travel_y), min(height - h, height - h - travel_y))
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
        seed=seed,
    )
    return _shortened(spec, 12) if short else spec


def _shortened(spec: SceneSpec, length: int) -> SceneSpec:
    """The first ``length`` frames of a scene with the same objects and noise."""
    objects = []
    for obj in spec.objects:
        x0, y0 = obj.position(0)
        x1, y1 = obj.position(length - 1)
        objects.append(
            ObjectSpec(
                class_id=obj.class_id,
                size=obj.size,
                waypoints=[(0.0, x0, y0), (float(length - 1), x1, y1)],
                color=obj.color,
                occlusion=[(a, min(b, length)) for a, b in obj.occlusion if a < length],
                absent=[(a, min(b, length)) for a, b in obj.absent if a < length],
            )
        )
    injected = [fp for fp in spec.injected if fp.frame < length]
    return SceneSpec(
        size=spec.size,
        length=length,
        classes=spec.classes,
        objects=objects,
        noise=spec.noise,
        injected=injected,
        seed=spec.seed,
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("street200", method="swbf", k=3, build=street200, eval_reps=10),
        Workload(
            "hires1080", method="swbf", k=1, build=hires1080, eval_reps=20, reference_copies=3
        ),
        Workload("crowd", method="wbf", k=1, build=crowd, eval_reps=3),
    )
}
