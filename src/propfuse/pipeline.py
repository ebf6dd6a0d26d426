"""End-to-end per-frame processing: gather candidates, fuse, write labels.

``PipelineConfig`` is the one definition of the configuration: its fields
are the config-file keys and the command-line flags, their annotations give
the value types, and the string fields carry their allowed choices in the
field metadata.

With k=0 there is nothing to carry in and nothing to corroborate, so the
pipeline degenerates to the plain thresholded teacher labels; fusion is
bypassed entirely in that case. The targets run one at a time in frame
order, each listed frame once, whatever order they are given in. A target
reads only what lies within k frames of it, so they share one
``propagation.RunWindow``: the teacher labels, motion fields and provider
frames of the run, each held only while the next target reads it.
Everything in it follows deterministically from the run's inputs, so the
results do not depend on what it holds. The per-frame label files are
written under <out>/labels/ named by frame index. With ``keep_going`` a
frame that fails on its input or on I/O is recorded in the report and the
run moves on; without it the run stops at the first such frame. Any other
exception is a bug and always propagates.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import Iterable, Optional, Sequence, get_args, get_type_hints

from .errors import CliUsageError, PropfuseError, ValidationError
from .fusion import MATCH_MODES, METHODS, FusionConfig, FusionResult, fuse_candidates
from .geometry import DEFAULT_SMALL_HEIGHT, LabelSet, check_small_height_threshold
from .io import (
    CandidateMeta,
    DetectionRecord,
    quote_names,
    read_text,
    write_atomic,
    write_detections,
)
from .manifest import SequenceManifest
from .motion import COMPOSITION_MODES, DEFAULT_MIN_COVERAGE
from .propagation import (
    DEFAULT_TEACHER_THRESHOLD,
    CandidateSet,
    RunWindow,
    build_candidates,
    reachable,
)
from .similarity import (
    DEFAULT_PATCH_SIZE,
    FallbackProvider,
    PatchDescriptor,
    PrecomputedEmbeddings,
    check_patch_size,
)

__all__ = [
    "PipelineConfig",
    "PipelineRun",
    "FIELD_TYPES",
    "parse_config_file",
    "run_pipeline",
    "validate_flow_coverage",
    "carrying_config",
    "select_targets",
    "build_provider",
    "gather_candidates",
    "fuse_frame",
    "candidate_records",
]

log = logging.getLogger("propfuse.pipeline")

PROVIDERS = ("patch", "precomputed")
SOURCE_COUNT_MODES = ("effective", "literal")
MISS_POLICIES = ("drop", "fallback")


def _choice(default: str, choices: tuple[str, ...]):
    return field(default=default, metadata={"choices": choices})


@dataclass
class PipelineConfig:
    """Every knob of the per-frame pipeline, file- and flag-configurable."""

    k: int = field(default=1, metadata={"help": "temporal reach in frames"})
    teacher_threshold: float = DEFAULT_TEACHER_THRESHOLD
    iou_threshold: float = 0.5
    post_threshold: float = 0.1
    method: str = _choice("swbf", METHODS)
    composition: str = _choice("trajectory", COMPOSITION_MODES)
    min_coverage: float = DEFAULT_MIN_COVERAGE
    feature_provider: str = _choice("patch", PROVIDERS)
    embed_miss: str = _choice("drop", MISS_POLICIES)
    source_count_mode: str = _choice("effective", SOURCE_COUNT_MODES)
    match: str = _choice("first", MATCH_MODES)
    snms_sigma: float = 0.5
    patch_size: int = DEFAULT_PATCH_SIZE
    num_sources: Optional[int] = None
    jobs: int = field(default=1, metadata={"help": "must be 1: frames run one at a time"})
    small_height_threshold: float = DEFAULT_SMALL_HEIGHT

    def __post_init__(self):
        if self.k < 0:
            raise ValidationError(f"k must be >= 0, got {self.k}")
        for f in dataclasses.fields(self):
            choices = f.metadata.get("choices")
            value = getattr(self, f.name)
            if choices is not None and value not in choices:
                raise ValidationError(f"unknown {f.name} {value!r}; expected one of {choices}")
        for name in ("teacher_threshold", "min_coverage"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValidationError(f"{name} must lie in [0, 1], got {v}")
        check_small_height_threshold(self.small_height_threshold)
        # FusionConfig checks the fusion fields; num_sources is set per frame
        self._fusion = FusionConfig(
            method=self.method,
            iou_threshold=self.iou_threshold,
            num_sources=1 if self.num_sources is None else self.num_sources,
            post_threshold=self.post_threshold,
            snms_sigma=self.snms_sigma,
            match=self.match,
        )
        if self.jobs != 1:
            raise ValidationError(f"jobs must be 1 (frames run one at a time), got {self.jobs}")
        check_patch_size(self.patch_size)

    def replace(self, **kw) -> "PipelineConfig":
        return dataclasses.replace(self, **kw)

    def source_count(self, effective_sources: int, k: int) -> int:
        """The rescale denominator for candidates gathered with reach k.

        An explicit num_sources wins; otherwise 2k+1 in literal mode, or the
        number of offsets that contributed in effective mode.
        """
        if self.num_sources is not None:
            return self.num_sources
        if self.source_count_mode == "literal":
            return 2 * k + 1
        return effective_sources

    def rescores(self, k: int) -> bool:
        """Whether fusing candidates gathered with reach k needs a feature provider."""
        return self.method == "swbf" and k > 0

    def fusion_config(self, num_sources: int) -> FusionConfig:
        return dataclasses.replace(self._fusion, num_sources=num_sources)

    def to_json_dict(self) -> dict:
        return dataclasses.asdict(self)


def _scalar_type(hint) -> type:
    """The value type of a field annotation, with Optional[...] unwrapped."""
    args = [a for a in get_args(hint) if a is not type(None)]
    return args[0] if args else hint


FIELD_TYPES: dict[str, type] = {
    name: _scalar_type(hint) for name, hint in get_type_hints(PipelineConfig).items()
}


def parse_config_file(path: str | Path) -> dict:
    """Flat key=value config, '#' comments, unknown keys rejected by name."""
    values: dict = {}
    try:
        text = read_text(path, "utf-8")
    except ValidationError as exc:
        raise CliUsageError(str(exc)) from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliUsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.split("#", 1)[0].strip()
        caster = FIELD_TYPES.get(key)
        if caster is None:
            raise CliUsageError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = caster(value)
        except ValueError as exc:
            raise CliUsageError(f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
    return values


def load_config(path: str | Path | None = None, overrides: dict | None = None) -> PipelineConfig:
    """Defaults, then config file values, then explicit flag overrides."""
    values: dict = {}
    if path is not None:
        values.update(parse_config_file(path))
    for key, val in (overrides or {}).items():
        if val is None:
            continue
        if key not in FIELD_TYPES:
            raise CliUsageError(f"unknown config key {key!r}")
        values[key] = val
    return PipelineConfig(**values)


def carrying_config(manifest: SequenceManifest, config: PipelineConfig) -> PipelineConfig:
    """``config`` with k cut to the manifest's frame span, to gather candidates with.

    No source lies farther off, so the cut k gathers the same candidates
    without trying an offset past the sequence. Fusion and the report keep
    k as given: the literal source count is 2k+1 of it.
    """
    frames = manifest.frame_indices()
    return config.replace(k=min(config.k, frames[-1] - frames[0]))


def validate_flow_coverage(
    manifest: SequenceManifest,
    k: int,
    targets: Sequence[int],
) -> None:
    """Fail up front if any needed motion field between existing frames is absent.

    Offsets whose source frame falls off the end of the sequence are fine
    (they are omitted per frame); a hole in the flow graph between frames
    that both exist is an error naming the missing pairs.
    """
    missing: set[tuple[int, int]] = set()
    for t in targets:
        for _, pairs in reachable(t, k, manifest.has_frame):
            missing.update(pair for pair in pairs if not manifest.flows.has(*pair))
    if missing:
        pairs = ", ".join(f"{a}->{b}" for a, b in sorted(missing))
        raise ValidationError(f"manifest is missing motion fields: {pairs}")


def select_targets(manifest: SequenceManifest, spans: Iterable[range]) -> list[int]:
    """The manifest frames that the spans cover, in frame order, each once.

    A covered frame the manifest lacks is an error that gives their count
    and the first five. Overlapping spans are merged, not listed, so the
    cost follows the manifest and the number of spans, not their length.
    """
    merged: list[list[int]] = []
    for span in sorted((s for s in spans if s), key=lambda s: s.start):
        if merged and span.start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], span.stop)
        else:
            merged.append([span.start, span.stop])
    frames = manifest.frame_indices()
    targets = [
        f for a, b in merged for f in frames[bisect_left(frames, a) : bisect_left(frames, b)]
    ]
    unknown = sum(b - a for a, b in merged) - len(targets)
    if unknown:
        missing = (f for a, b in merged for f in range(a, b) if not manifest.has_frame(f))
        named = ", ".join(map(str, islice(missing, 5))) + (", ..." if unknown > 5 else "")
        raise ValidationError(f"{unknown} target frames not in manifest: [{named}]")
    return targets


def build_provider(manifest: SequenceManifest, config: PipelineConfig):
    """The feature provider the swbf method will rescore with."""
    patch = PatchDescriptor(manifest.frame_image, patch_size=config.patch_size)
    if config.feature_provider == "patch":
        return patch
    if manifest.embeddings_path is None:
        raise ValidationError(
            "config asks for precomputed embeddings but the manifest has none"
        )
    pre = PrecomputedEmbeddings.load(manifest.embeddings_path)
    if config.embed_miss == "fallback":
        return FallbackProvider(pre, patch)
    return pre


def gather_candidates(
    manifest: SequenceManifest,
    config: PipelineConfig,
    t: int,
    window: RunWindow,
) -> CandidateSet:
    """Frame t's own and carried-in candidates under the config's propagation settings.

    ``window`` holds what the run reads (see ``RunWindow``).
    """
    return build_candidates(
        t,
        config.k,
        manifest.teacher_labels,
        manifest.flows,
        manifest.size,
        teacher_threshold=config.teacher_threshold,
        mode=config.composition,
        min_coverage=config.min_coverage,
        window=window,
    )


def candidate_records(
    candidates: CandidateSet,
    class_name,
    k: int,
) -> tuple[list[DetectionRecord], CandidateMeta]:
    """Turn a candidate set into serializable records plus its header line."""
    records = []
    for det, src_box in zip(candidates.detections, candidates.source_boxes):
        records.append(
            DetectionRecord(
                frame=candidates.frame_index,
                class_name=class_name(det.class_id),
                bbox=det.bbox.as_tuple(),
                score=det.score,
                source_offset=det.source_offset,
                source_bbox=None if src_box is None else src_box.as_tuple(),
            )
        )
    meta = CandidateMeta(
        frame=candidates.frame_index,
        effective_sources=candidates.effective_sources,
        k=k,
    )
    return records, meta


@dataclass
class PipelineRun:
    """In-memory results plus the JSON-ready run report."""

    labels: dict[int, LabelSet] = field(default_factory=dict)
    report: dict = field(default_factory=dict)
    out_dir: Optional[Path] = None


def fuse_frame(
    candidates: CandidateSet, config: PipelineConfig, k: int, provider=None
) -> tuple[FusionResult, int]:
    """A frame's labels from its candidates gathered with reach k, and the num_sources used.

    With k=0 there is nothing carried in to corroborate: the labels are the
    candidates above the post threshold, as they stand, with no clustering.
    """
    if k == 0:
        kept = [d for d in candidates.detections if d.score > config.post_threshold]
        labels = LabelSet(candidates.frame_index, kept)
        return FusionResult(labels, len(kept), dropped_post=len(candidates) - len(kept)), 1
    num_sources = config.source_count(candidates.effective_sources, k)
    return fuse_candidates(candidates, config.fusion_config(num_sources), provider), num_sources


def run_pipeline(
    manifest: SequenceManifest,
    config: PipelineConfig,
    targets: Optional[Sequence[int]] = None,
    out_dir: Optional[str | Path] = None,
    keep_going: bool = False,
) -> PipelineRun:
    """Process each target frame once, in frame order; optionally write the output tree.

    The output tree holds labels/fused_<frame>.jsonl per frame plus a
    run_report.json with per-frame counts and per-stage wall-clock totals.
    """
    if targets is None:
        targets = manifest.frame_indices()
    else:
        targets = select_targets(manifest, [range(t, t + 1) for t in targets])
    carrying = carrying_config(manifest, config)
    validate_flow_coverage(manifest, carrying.k, targets)

    provider = build_provider(manifest, config) if config.rescores(config.k) else None

    labels_dir = None
    if out_dir is not None:
        out_dir = Path(out_dir)
        labels_dir = out_dir / "labels"
        labels_dir.mkdir(parents=True, exist_ok=True)
    window = RunWindow(targets, carrying.k, provider)
    quoted_names = quote_names(manifest.classes)

    def process(t: int) -> tuple[LabelSet, dict]:
        t0 = time.perf_counter()
        candidates = gather_candidates(manifest, carrying, t, window)
        t1 = time.perf_counter()
        result, num_sources = fuse_frame(candidates, config, config.k, provider)
        t2 = time.perf_counter()
        if labels_dir is not None:
            path = labels_dir / f"fused_{t:06d}.jsonl"
            write_detections(result.labels, path, quoted_names=quoted_names)
        t3 = time.perf_counter()
        stats = {
            "frame": t,
            "candidates": len(candidates),
            "per_offset": {str(k): v for k, v in candidates.count_by_offset().items()},
            "effective_sources": candidates.effective_sources,
            "num_sources": num_sources,
            "clusters": result.clusters,
            "dropped_rescore": result.dropped_rescore,
            "dropped_post": result.dropped_post,
            "output": len(result.labels.detections),
            "seconds": {"build": t1 - t0, "fuse": t2 - t1, "write": t3 - t2},
        }
        log.info("frame %d: %d candidates -> %d fused", t, stats["candidates"], stats["output"])
        return result.labels, stats

    run = PipelineRun(out_dir=out_dir)
    frames: list[dict] = []
    errors: list[dict] = []
    started = time.perf_counter()
    try:
        for t in targets:
            try:
                run.labels[t], stats = process(t)
            except (PropfuseError, OSError) as exc:
                if not keep_going:
                    raise
                log.debug("frame %d failed: %s", t, exc)
                errors.append({"frame": t, "error": str(exc)})
            else:
                frames.append(stats)
            window.finish(t)
    finally:
        # a run stopped by an error leaves targets that never finish
        window.close()
    total = time.perf_counter() - started

    run.report = {
        "config": config.to_json_dict(),
        "frames": frames,
        "errors": errors,
        "totals": {
            "frames": len(frames),
            "candidates": sum(s["candidates"] for s in frames),
            "output": sum(s["output"] for s in frames),
        },
        "stages": {
            "build_s": sum(s["seconds"]["build"] for s in frames),
            "fuse_s": sum(s["seconds"]["fuse"] for s in frames),
            "write_s": sum(s["seconds"]["write"] for s in frames),
            "total_s": total,
        },
    }
    if out_dir is not None:
        report = json.dumps(run.report, indent=2, sort_keys=True) + "\n"
        write_atomic(Path(out_dir) / "run_report.json", report, "utf-8")
    return run
