"""Deterministic synthetic driving-style sequences with exact motion fields.

Objects are filled rectangles following piecewise-linear trajectories over a
textured background. Because the trajectories are analytic, the emitted
motion fields are exact: inside an object's box the field equals the object's
frame-to-frame displacement (the last object painted wins where boxes
overlap), elsewhere it equals the global background motion (zero unless
configured). Backward fields hold the negated displacement stamped at the
object's position on the destination frame.

The simulated detector reads ground truth, then degrades it: forced misses
inside occlusion intervals, random misses, Gaussian corner jitter, and
spurious single-frame false positives. All randomness is driven by one seed,
so a spec generates byte-identical bundles every time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import EmptyCropError, SceneValidationError, ValidationError
from .geometry import BBox, Detection, FrameSize, LabelSet, clip_to_frame
from .io import json_integer, json_number, read_text, write_detections, write_frame
from .manifest import write_manifest
from .motion import DEFAULT_MIN_COVERAGE, FlowStore, Frame, MotionField, write_flow
from .similarity import DEFAULT_PATCH_SIZE, PatchDescriptor, PrecomputedEmbeddings, embedding_key

__all__ = [
    "ObjectSpec",
    "DetectorNoise",
    "InjectedFalsePositive",
    "SceneSpec",
    "load_spec",
    "SequenceBundle",
    "generate",
    "write_bundle",
]


# ``validate`` checks every object at every frame and ``generate`` holds
# every frame and both motion fields of every frame pair in memory, about 17
# bytes a grey pixel-frame, so both are capped before either starts. 10^4
# frames is 50 times the longest benchmark scene; 10^8 pixel-frames is about
# twice the 24-frame 1920x1080 one (5.0e7) and near 1.7 GB of frames and fields.
MAX_SCENE_LENGTH = 10_000
MAX_SCENE_PIXEL_FRAMES = 10**8
# ``generate`` draws and holds every false alarm, so the expected count over
# a scene, length x fp_rate, is capped too: 10^5 is about 170 times the
# benchmark crowd scene's 200 x 3
MAX_SCENE_FALSE_ALARMS = 10**5


def _quant(value: float) -> float:
    """Snap a float to its 6-decimal serialized form so write/read is exact."""
    return float(f"{value:.6f}")


def _number(value, key: str) -> float:
    """A spec's JSON number as a float; a string or a bool is a TypeError naming ``key``."""
    return float(json_number(value, key))


def _numbers(value, n: int, key: str, check=_number) -> tuple:
    """A spec's list of ``n`` values, each through ``check``; else a TypeError or ValueError."""
    values = tuple(value)
    if len(values) != n:
        raise ValueError(f"{key} needs {n} values, got {value!r}")
    return tuple(check(v, key) for v in values)


def _in_intervals(t: int, intervals) -> bool:
    return any(a <= t < b for a, b in intervals)


@dataclass
class ObjectSpec:
    """One rectangle: class, size, trajectory, and visibility windows.

    The trajectory interpolates linearly between (frame, x, y) waypoints for
    the box's top-left corner and holds the end positions outside the span.
    ``occlusion`` intervals force the detector to miss while the object stays
    rendered and in the ground truth; ``absent`` intervals remove the object
    from the scene entirely (no render, no ground truth, no motion).
    Intervals are half-open [start, end).
    """

    class_id: int
    size: tuple[float, float]
    waypoints: list[tuple[float, float, float]]
    color: int | tuple[int, int, int] = 200
    occlusion: list[tuple[int, int]] = field(default_factory=list)
    absent: list[tuple[int, int]] = field(default_factory=list)

    @classmethod
    def linear(cls, class_id, size, start, velocity, length, **kw) -> "ObjectSpec":
        """Constant-velocity trajectory across ``length`` frames."""
        x0, y0 = start
        vx, vy = velocity
        last = max(length - 1, 0)
        points = [(0.0, float(x0), float(y0))]
        if last > 0:
            points.append((float(last), x0 + vx * last, y0 + vy * last))
        return cls(class_id=class_id, size=size, waypoints=points, **kw)

    def position(self, t: float) -> tuple[float, float]:
        pts = self.waypoints
        if t <= pts[0][0]:
            return pts[0][1], pts[0][2]
        if t >= pts[-1][0]:
            return pts[-1][1], pts[-1][2]
        for (t0, x0, y0), (t1, x1, y1) in zip(pts, pts[1:]):
            if t0 <= t <= t1:
                if t1 == t0:
                    return x1, y1
                a = (t - t0) / (t1 - t0)
                return x0 + a * (x1 - x0), y0 + a * (y1 - y0)
        return pts[-1][1], pts[-1][2]

    def box(self, t: float) -> BBox:
        x, y = self.position(t)
        w, h = self.size
        return BBox(x, y, x + w, y + h)

    def visible(self, t: int) -> bool:
        return not _in_intervals(t, self.absent)

    def occluded(self, t: int) -> bool:
        return _in_intervals(t, self.occlusion)


@dataclass
class DetectorNoise:
    """Degradations applied when turning ground truth into detections."""

    miss_prob: float = 0.0
    jitter_sigma: float = 0.0
    fp_rate: float = 0.0
    fp_score_range: tuple[float, float] = (0.5, 0.9)
    true_score_range: tuple[float, float] = (1.0, 1.0)
    fp_width_range: tuple[float, float] = (8.0, 24.0)
    fp_height_range: tuple[float, float] = (8.0, 24.0)

    def __post_init__(self):
        if not 0.0 <= self.miss_prob <= 1.0:
            raise ValidationError(f"miss_prob must lie in [0, 1], got {self.miss_prob}")
        if self.jitter_sigma < 0 or self.fp_rate < 0:
            raise ValidationError("jitter_sigma and fp_rate must be non-negative")
        for name in ("fp_score_range", "true_score_range"):
            lo, hi = getattr(self, name)
            if not (0.0 <= lo <= hi <= 1.0):
                raise ValidationError(f"{name} must satisfy 0 <= lo <= hi <= 1, got ({lo}, {hi})")
        for name in ("fp_width_range", "fp_height_range"):
            lo, hi = getattr(self, name)
            if not (0.0 < lo <= hi < math.inf):
                raise ValidationError(
                    f"{name} must be finite and satisfy 0 < lo <= hi, got ({lo}, {hi})"
                )


@dataclass
class InjectedFalsePositive:
    """A hand-placed spurious detection on exactly one frame."""

    frame: int
    class_id: int
    bbox: BBox
    score: float


@dataclass
class SceneSpec:
    """Complete deterministic description of a synthetic sequence."""

    size: FrameSize
    length: int
    classes: list[str]
    objects: list[ObjectSpec] = field(default_factory=list)
    noise: DetectorNoise = field(default_factory=DetectorNoise)
    injected: list[InjectedFalsePositive] = field(default_factory=list)
    seed: int = 0
    min_coverage: float = DEFAULT_MIN_COVERAGE
    channels: int = 1
    background_mode: str = "noise"
    background_level: int = 96
    background_motion: tuple[int, int] = (0, 0)

    def validate(self) -> None:
        if self.length < 1:
            raise SceneValidationError(f"sequence length must be >= 1, got {self.length}")
        if self.length > MAX_SCENE_LENGTH:
            raise SceneValidationError(
                f"sequence length must be at most {MAX_SCENE_LENGTH}, got {self.length}"
            )
        pixel_frames = self.length * self.size.width * self.size.height
        if pixel_frames > MAX_SCENE_PIXEL_FRAMES:
            raise SceneValidationError(
                f"length x width x height must be at most {MAX_SCENE_PIXEL_FRAMES}, got "
                f"{self.length} x {self.size.width} x {self.size.height} = {pixel_frames}"
            )
        false_alarms = self.length * self.noise.fp_rate
        # written so that a NaN rate fails it too
        if not false_alarms <= MAX_SCENE_FALSE_ALARMS:
            raise SceneValidationError(
                f"length x fp_rate must be at most {MAX_SCENE_FALSE_ALARMS}, got "
                f"{self.length} x {self.noise.fp_rate} = {false_alarms}"
            )
        if not self.classes:
            raise SceneValidationError("the class vocabulary must not be empty")
        if self.channels not in (1, 3):
            raise SceneValidationError(f"channels must be 1 or 3, got {self.channels}")
        if self.background_mode not in ("noise", "flat"):
            raise SceneValidationError(f"unknown background mode {self.background_mode!r}")
        if not all(float(m).is_integer() for m in self.background_motion):
            raise SceneValidationError("background motion must be integer pixels per frame")
        for idx, obj in enumerate(self.objects):
            if not 0 <= obj.class_id < len(self.classes):
                raise SceneValidationError(
                    f"object {idx}: class_id {obj.class_id} outside vocabulary "
                    f"of {len(self.classes)} classes"
                )
            if not obj.waypoints:
                raise SceneValidationError(f"object {idx}: trajectory needs >= 1 waypoint")
            # position() walks the waypoints in order and would never reach
            # one listed after a later frame
            frames = [p[0] for p in obj.waypoints]
            if any(b < a for a, b in zip(frames, frames[1:])):
                raise SceneValidationError(
                    f"object {idx}: waypoint frames must not decrease, got {frames}"
                )
            w, h = obj.size
            if w <= 0 or h <= 0:
                raise SceneValidationError(f"object {idx}: size must be positive, got {obj.size}")
            color = obj.color if isinstance(obj.color, tuple) else (obj.color,)
            if len(color) not in (1, self.channels) or not all(0 <= c <= 255 for c in color):
                raise SceneValidationError(
                    f"object {idx}: color must be one value, or one per channel, "
                    f"in [0, 255], got {obj.color}"
                )
            for name in ("occlusion", "absent"):
                for a, b in getattr(obj, name):
                    if not (0 <= a < b <= self.length):
                        raise SceneValidationError(
                            f"object {idx}: {name} interval [{a}, {b}) outside [0, {self.length})"
                        )
            for t in range(self.length):
                if not obj.visible(t):
                    continue
                clipped = clip_to_frame(obj.box(t), self.size)
                if clipped is None or clipped[1] < self.min_coverage:
                    got = 0.0 if clipped is None else clipped[1]
                    raise SceneValidationError(
                        f"object {idx} keeps only {got:.3f} of its box in frame at t={t}, "
                        f"below min_coverage {self.min_coverage}"
                    )
        for idx, fp in enumerate(self.injected):
            if not 0 <= fp.frame < self.length:
                raise SceneValidationError(f"injected fp {idx}: frame {fp.frame} out of range")
            if not 0 <= fp.class_id < len(self.classes):
                raise SceneValidationError(f"injected fp {idx}: class_id {fp.class_id} unknown")
            if not 0.0 <= fp.score <= 1.0:
                raise SceneValidationError(f"injected fp {idx}: score {fp.score} outside [0, 1]")
            if clip_to_frame(fp.bbox, self.size) is None:
                raise SceneValidationError(f"injected fp {idx}: box lies outside the frame")

    @classmethod
    def from_json_dict(cls, obj: dict) -> "SceneSpec":
        """The spec a parsed JSON object describes; ``validate`` checks the values.

        A field of the wrong type or shape is a ``SceneValidationError``.
        """
        try:
            return cls._parse(obj)
        except (AttributeError, IndexError, KeyError, OverflowError, TypeError, ValueError) as exc:
            raise SceneValidationError(f"malformed scene spec: {type(exc).__name__}: {exc}") from exc

    @classmethod
    def _parse(cls, obj: dict) -> "SceneSpec":
        try:
            width, height = obj["size"][0], obj["size"][1]
            size = FrameSize(json_integer(width, "width"), json_integer(height, "height"))
            length = json_integer(obj["length"], "length")
            classes = obj["classes"]
            if type(classes) is not list or not all(type(c) is str for c in classes):
                raise TypeError(f"classes must be a list of JSON strings, got {classes!r}")
        except (KeyError, TypeError, IndexError, OverflowError, ValueError) as exc:
            raise SceneValidationError(f"scene spec needs size, length, classes: {exc}") from exc

        def class_id_of(entry: dict, where: str) -> int:
            if "class" in entry:
                name = entry["class"]
                if type(name) is not str or name not in classes:
                    raise SceneValidationError(f"{where}: unknown class {name!r}")
                return classes.index(name)
            cid = json_integer(entry.get("class_id", 0), "class_id")
            if not 0 <= cid < len(classes):
                raise SceneValidationError(f"{where}: class_id {cid} out of range")
            return cid

        objects = []
        for i, o in enumerate(obj.get("objects", [])):
            kw = dict(
                class_id=class_id_of(o, f"object {i}"),
                size=_numbers(o["size"], 2, "size"),
                color=(
                    tuple(json_integer(c, "color") for c in o["color"])
                    if isinstance(o.get("color"), list)
                    else json_integer(o.get("color", 200), "color")
                ),
                occlusion=[_numbers(v, 2, "occlusion", json_integer) for v in o.get("occlusion", [])],
                absent=[_numbers(v, 2, "absent", json_integer) for v in o.get("absent", [])],
            )
            if "waypoints" in o:
                spec = ObjectSpec(
                    waypoints=[_numbers(p, 3, "waypoints") for p in o["waypoints"]],
                    **kw,
                )
            elif "start" in o and "velocity" in o:
                spec = ObjectSpec.linear(
                    start=_numbers(o["start"], 2, "start"),
                    velocity=_numbers(o["velocity"], 2, "velocity"),
                    length=length,
                    **kw,
                )
            else:
                raise SceneValidationError(f"object {i}: needs waypoints or start+velocity")
            objects.append(spec)
        noise_obj = obj.get("noise", {})
        knobs = {}
        for name, default in vars(DetectorNoise()).items():  # each knob with its default
            value = noise_obj.get(name, default)
            knobs[name] = _numbers(value, 2, name) if type(default) is tuple else _number(value, name)
        noise = DetectorNoise(**knobs)
        injected = [
            InjectedFalsePositive(
                frame=json_integer(f["frame"], "frame"),
                class_id=class_id_of(f, f"injected_false_positives[{j}]"),
                bbox=BBox(*_numbers(f["bbox"], 4, "bbox")),
                score=_number(f["score"], "score"),
            )
            for j, f in enumerate(obj.get("injected_false_positives", []))
        ]
        bg = obj.get("background", {})
        return cls(
            size=size,
            length=length,
            classes=classes,
            objects=objects,
            noise=noise,
            injected=injected,
            seed=json_integer(obj.get("seed", 0), "seed"),
            min_coverage=_number(obj.get("min_coverage", DEFAULT_MIN_COVERAGE), "min_coverage"),
            channels=json_integer(obj.get("channels", 1), "channels"),
            background_mode=bg.get("mode", "noise"),
            background_level=json_integer(bg.get("level", 96), "level"),
            background_motion=_numbers(bg.get("motion", (0, 0)), 2, "motion"),
        )


def load_spec(path: str | Path, seed: Optional[int] = None) -> SceneSpec:
    """The validated scene spec in the JSON file at ``path``; ``seed`` overrides its seed.

    Content that is wrong ends in a ``ValidationError`` naming the file: a
    ``SceneValidationError`` once the file parses as JSON.
    """
    try:
        obj = json.loads(read_text(path, "utf-8"))
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise ValidationError(f"{path}: not valid JSON: {exc}") from exc
    if seed is not None and isinstance(obj, dict):
        obj["seed"] = seed
    try:
        spec = SceneSpec.from_json_dict(obj)
        spec.validate()
    except ValidationError as exc:
        raise SceneValidationError(f"{path}: {exc}") from exc
    return spec


@dataclass
class SequenceBundle:
    """Everything a generated sequence consists of, held in memory."""

    spec: SceneSpec
    frames: list[Frame]
    forward_flows: dict[tuple[int, int], MotionField]
    backward_flows: dict[tuple[int, int], MotionField]
    ground_truth: list[LabelSet]
    detections: list[LabelSet]
    embeddings: Optional[dict] = None

    @property
    def size(self) -> FrameSize:
        return self.spec.size

    @property
    def classes(self) -> list[str]:
        return self.spec.classes

    def flow_store(self) -> FlowStore:
        store = FlowStore()
        for (a, b), f in self.forward_flows.items():
            store.add(a, b, f)
        for (a, b), f in self.backward_flows.items():
            store.add(a, b, f)
        return store


def _render_span(lo: float, hi: float, limit: int) -> tuple[int, int]:
    """Half-open pixel range covering [lo, hi) for painting."""
    a = max(0, math.floor(lo))
    b = min(limit, math.ceil(hi))
    return a, b


def _flow_span(lo: float, hi: float, limit: int) -> tuple[int, int]:
    """Half-open pixel range covering the closed interval [lo, hi].

    One pixel wider than the render span on the high side so that sampling a
    motion field exactly at a box corner still reads the object's motion.
    """
    a = max(0, math.floor(lo))
    b = min(limit, math.ceil(hi) + 1)
    return a, b


def _paint(img: np.ndarray, box: BBox, color, channels: int) -> None:
    x0, x1 = _render_span(box.x1, box.x2, img.shape[1])
    y0, y1 = _render_span(box.y1, box.y2, img.shape[0])
    if x0 >= x1 or y0 >= y1:
        return
    img[y0:y1, x0:x1] = color


def _stamp_flow(flow: np.ndarray, box: BBox, du: float, dv: float) -> None:
    x0, x1 = _flow_span(box.x1, box.x2, flow.shape[1])
    y0, y1 = _flow_span(box.y1, box.y2, flow.shape[0])
    if x0 >= x1 or y0 >= y1:
        return
    flow[y0:y1, x0:x1, 0] = du
    flow[y0:y1, x0:x1, 1] = dv


def _backgrounds(spec: SceneSpec, rng: np.random.Generator) -> list[np.ndarray]:
    w, h = spec.size.width, spec.size.height
    mx, my = int(spec.background_motion[0]), int(spec.background_motion[1])
    span = spec.length - 1
    pad_x, pad_y = abs(mx) * span, abs(my) * span
    shape = (h + pad_y, w + pad_x) if spec.channels == 1 else (h + pad_y, w + pad_x, 3)
    if spec.background_mode == "flat":
        canvas = np.full(shape, spec.background_level, dtype=np.uint8)
    else:
        canvas = rng.integers(64, 192, size=shape, dtype=np.uint8)
    outs = []
    for t in range(spec.length):
        # the window walks opposite to the motion so canvas content appears
        # to move by (mx, my) each frame
        ox = pad_x - mx * t if mx >= 0 else -mx * t
        oy = pad_y - my * t if my >= 0 else -my * t
        outs.append(canvas[oy : oy + h, ox : ox + w].copy())
    return outs


def _quant_box(box: BBox) -> BBox:
    return BBox(_quant(box.x1), _quant(box.y1), _quant(box.x2), _quant(box.y2))


def generate(spec: SceneSpec, include_embeddings: bool = False) -> SequenceBundle:
    """Render the scene and simulate the detector. Deterministic in the seed."""
    spec.validate()
    seeds = np.random.SeedSequence(spec.seed).spawn(3)
    bg_rng = np.random.default_rng(seeds[0])
    det_rng = np.random.default_rng(seeds[1])
    fp_rng = np.random.default_rng(seeds[2])

    size = spec.size
    w, h = size.width, size.height
    noise = spec.noise

    frames: list[Frame] = []
    gt: list[LabelSet] = []
    backgrounds = _backgrounds(spec, bg_rng)
    for t in range(spec.length):
        img = backgrounds[t]
        boxes: list[Detection] = []
        for obj in spec.objects:
            if not obj.visible(t):
                continue
            box = obj.box(t)
            _paint(img, box, obj.color, spec.channels)
            clipped = clip_to_frame(box, size)
            if clipped is None:
                continue
            boxes.append(Detection(obj.class_id, _quant_box(clipped[0]), 1.0))
        frames.append(Frame(size, img))
        gt.append(LabelSet(t, boxes))

    bg_du, bg_dv = float(spec.background_motion[0]), float(spec.background_motion[1])
    forward: dict[tuple[int, int], MotionField] = {}
    backward: dict[tuple[int, int], MotionField] = {}
    for t in range(spec.length - 1):
        fw = np.empty((h, w, 2), dtype=np.float32)
        fw[..., 0] = bg_du
        fw[..., 1] = bg_dv
        bw = np.empty((h, w, 2), dtype=np.float32)
        bw[..., 0] = -bg_du
        bw[..., 1] = -bg_dv
        for obj in spec.objects:
            if not (obj.visible(t) and obj.visible(t + 1)):
                continue
            x0, y0 = obj.position(t)
            x1, y1 = obj.position(t + 1)
            du, dv = x1 - x0, y1 - y0
            _stamp_flow(fw, obj.box(t), du, dv)
            _stamp_flow(bw, obj.box(t + 1), -du, -dv)
        forward[(t, t + 1)] = MotionField(size, fw, from_frame=t, to_frame=t + 1)
        backward[(t + 1, t)] = MotionField(size, bw, from_frame=t + 1, to_frame=t)

    detections: list[LabelSet] = []
    for t in range(spec.length):
        dets: list[Detection] = []
        for obj in spec.objects:
            if not obj.visible(t) or obj.occluded(t):
                continue
            if noise.miss_prob > 0.0 and det_rng.uniform() < noise.miss_prob:
                continue
            box = obj.box(t)
            if noise.jitter_sigma > 0.0:
                jit = det_rng.normal(0.0, noise.jitter_sigma, size=4)
                x1 = box.x1 + jit[0]
                y1 = box.y1 + jit[1]
                x2 = max(box.x2 + jit[2], x1 + 0.5)
                y2 = max(box.y2 + jit[3], y1 + 0.5)
                box = BBox(x1, y1, x2, y2)
            lo, hi = noise.true_score_range
            score = lo if hi <= lo else float(det_rng.uniform(lo, hi))
            clipped = clip_to_frame(box, size)
            if clipped is None:
                continue
            dets.append(Detection(obj.class_id, _quant_box(clipped[0]), _quant(score)))
        if noise.fp_rate > 0.0:
            used = sorted({o.class_id for o in spec.objects}) or list(range(len(spec.classes)))
            for _ in range(int(fp_rng.poisson(noise.fp_rate))):
                fw_ = float(fp_rng.uniform(*noise.fp_width_range))
                fh_ = float(fp_rng.uniform(*noise.fp_height_range))
                fw_ = min(fw_, w - 1.0)
                fh_ = min(fh_, h - 1.0)
                x = float(fp_rng.uniform(0.0, w - fw_))
                y = float(fp_rng.uniform(0.0, h - fh_))
                cls_id = int(used[int(fp_rng.integers(len(used)))])
                score = float(fp_rng.uniform(*noise.fp_score_range))
                dets.append(
                    Detection(cls_id, _quant_box(BBox(x, y, x + fw_, y + fh_)), _quant(score))
                )
        for fp in spec.injected:
            if fp.frame == t:
                clipped = clip_to_frame(fp.bbox, size)
                dets.append(Detection(fp.class_id, _quant_box(clipped[0]), _quant(fp.score)))
        detections.append(LabelSet(t, dets))

    bundle = SequenceBundle(
        spec=spec,
        frames=frames,
        forward_flows=forward,
        backward_flows=backward,
        ground_truth=gt,
        detections=detections,
    )
    if include_embeddings:
        bundle.embeddings = _bundle_embeddings(bundle)
    return bundle


def _bundle_embeddings(bundle: SequenceBundle, patch_size: int = DEFAULT_PATCH_SIZE) -> dict:
    descriptor = PatchDescriptor(lambda t: bundle.frames[t], patch_size=patch_size)
    table: dict = {}
    for labels in list(bundle.ground_truth) + list(bundle.detections):
        t = labels.frame_index
        boxes = [det.bbox for det in labels.detections]
        for box, vec in zip(boxes, descriptor.embed_many(t, [b.as_tuple() for b in boxes])):
            if vec is None:
                raise EmptyCropError(f"box {box.as_tuple()} lies outside frame {t}")
            table.setdefault(embedding_key(t, box), vec)
    return table


def write_bundle(bundle: SequenceBundle, out_dir: str | Path) -> Path:
    """Lay the bundle out on disk and return the manifest path.

    Each file is written by the writer beside its reader: ``io`` for frames
    and labels, ``motion`` for fields, ``PrecomputedEmbeddings.write`` and
    ``manifest.write_manifest``.
    """
    root = Path(out_dir)
    for sub in ("frames", "flows", "dets"):
        (root / sub).mkdir(parents=True, exist_ok=True)

    ext = "pgm" if bundle.spec.channels == 1 else "ppm"
    classes = bundle.classes
    frame_entries = []
    for t, frame in enumerate(bundle.frames):
        frame_rel = f"frames/frame_{t:04d}.{ext}"
        det_rel = f"dets/det_{t:04d}.jsonl"
        write_frame(frame, root / frame_rel)
        write_detections([bundle.detections[t]], root / det_rel, classes)
        frame_entries.append((t, frame_rel, det_rel))

    flow_entries = []
    for prefix, flows in (("fw", bundle.forward_flows), ("bw", bundle.backward_flows)):
        for (a, b), mf in sorted(flows.items()):
            rel = f"flows/{prefix}_{a:04d}_{b:04d}.flo"
            write_flow(mf, root / rel)
            flow_entries.append((a, b, rel))

    write_detections(bundle.ground_truth, root / "gt.jsonl", classes)

    embeddings_rel = None if bundle.embeddings is None else "embeddings.jsonl"
    if embeddings_rel:
        PrecomputedEmbeddings(bundle.embeddings).write(root / embeddings_rel)

    path = root / "manifest.json"
    write_manifest(path, bundle.size, classes, frame_entries, flow_entries, "gt.jsonl", embeddings_rel)
    return path
