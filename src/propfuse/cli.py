"""propfuse command line: synth, propagate, fuse, pipeline, eval, selfcheck.

Exit codes: 0 on success, 1 for validation and usage problems, 2 for I/O
problems (unreadable files, malformed motion-field files). Logging verbosity
comes from the PROPFUSE_LOG environment variable (error, info or debug).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path

from .errors import (
    CliUsageError,
    FlowFormatError,
    FlowLengthError,
    PropfuseError,
    ValidationError,
    VocabularyError,
)
from .evaluation import evaluate, self_consistency
from .fusion import fuse_candidates
from .geometry import BBox, Detection
from .io import DetectionRecord, read_detections, write_detections
from .manifest import SequenceManifest, load_manifest
from .pipeline import (
    FIELD_TYPES,
    PipelineConfig,
    build_provider,
    candidate_records,
    gather_candidates,
    label_records,
    load_config,
    run_pipeline,
    validate_flow_coverage,
)
from .propagation import CandidateSet
from .synth import SceneSpec, generate, write_bundle

log = logging.getLogger("propfuse.cli")

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}


class _Parser(argparse.ArgumentParser):
    """argparse that surfaces usage problems as exit code 1, not 2."""

    def error(self, message):
        raise CliUsageError(message)


def _configure_logging() -> None:
    raw = os.environ.get("PROPFUSE_LOG", "error").strip().lower()
    if raw not in _LOG_LEVELS:
        raise CliUsageError(
            f"PROPFUSE_LOG must be one of error, info, debug; got {raw!r}"
        )
    logging.basicConfig(level=_LOG_LEVELS[raw], format="%(levelname)s %(name)s: %(message)s")


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    """--config plus one flag per PipelineConfig field, named after the field."""
    p.add_argument("--config", type=Path, default=None, help="key=value config file")
    for f in dataclasses.fields(PipelineConfig):
        p.add_argument(
            "--" + f.name.replace("_", "-"),
            dest=f.name,
            type=FIELD_TYPES[f.name],
            choices=f.metadata.get("choices"),
            default=None,
            help=f.metadata.get("help"),
        )


def _config_from_args(args) -> PipelineConfig:
    overrides = {name: getattr(args, name) for name in FIELD_TYPES}
    return load_config(args.config, overrides)


def _parse_frames(text: str) -> list[int]:
    """Comma-separated frame indices; a:b tokens expand half-open ranges."""
    out: list[int] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            if ":" in token:
                a, _, b = token.partition(":")
                out.extend(range(int(a), int(b)))
            else:
                out.append(int(token))
        except ValueError:
            raise CliUsageError(f"bad frame token {token!r} in --frames")
    if not out:
        raise CliUsageError("--frames selected no frames")
    return out


# -- subcommands --------------------------------------------------------------


def cmd_synth(args) -> int:
    try:
        obj = json.loads(Path(args.spec).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{args.spec}: not valid JSON: {exc}") from exc
    if args.seed is not None:
        obj["seed"] = args.seed
    spec = SceneSpec.from_json_dict(obj)
    bundle = generate(spec, include_embeddings=args.embeddings)
    manifest_path = write_bundle(bundle, args.out)
    print(manifest_path)
    return 0


def cmd_propagate(args) -> int:
    config = _config_from_args(args)
    manifest = load_manifest(args.manifest)
    if not manifest.has_frame(args.frame):
        raise ValidationError(f"frame {args.frame} is not in the manifest")
    validate_flow_coverage(manifest, config.k, [args.frame])
    candidates = gather_candidates(manifest, config, args.frame)
    records, meta = candidate_records(candidates, manifest.class_name, config.k)
    write_detections(records, args.out, meta=meta)
    print(args.out)
    return 0


def _candidates_from_file(path, manifest: SequenceManifest | None):
    """Rebuild a candidate set from a detections/candidates file.

    Returns (candidates, id_to_name, meta). Class ids come from the manifest
    vocabulary when one is given, otherwise from the sorted names that appear
    in the file itself.
    """
    records, meta = read_detections(path)
    if not records and meta is None:
        raise ValidationError(f"{path}: no detections and no metadata")
    frames = {r.frame for r in records}
    if meta is not None:
        frames.add(meta.frame)
    if len(frames) > 1:
        raise ValidationError(f"{path}: records span multiple frames: {sorted(frames)}")
    frame = frames.pop()

    if manifest is not None:
        name_to_id = {name: manifest.class_id(name) for name in {r.class_name for r in records}}
        id_to_name = manifest.class_name
    else:
        names = sorted({r.class_name for r in records})
        name_to_id = {name: i for i, name in enumerate(names)}
        id_to_name = names.__getitem__
    dets = []
    boxes = []
    for r in records:
        dets.append(
            Detection(name_to_id[r.class_name], BBox.from_sequence(r.bbox), r.score, r.source_offset)
        )
        boxes.append(None if r.source_bbox is None else BBox.from_sequence(r.source_bbox))
    effective = meta.effective_sources if meta is not None else 1
    cands = CandidateSet(
        frame_index=frame, detections=dets, source_boxes=boxes, effective_sources=effective
    )
    return cands, id_to_name, meta


def cmd_fuse(args) -> int:
    config = _config_from_args(args)
    manifest = load_manifest(args.manifest) if args.manifest else None
    cands, id_to_name, meta = _candidates_from_file(args.dets, manifest)

    k = meta.k if meta is not None else config.k
    num_sources = config.source_count(cands.effective_sources, k)

    provider = None
    if config.method == "swbf":
        if manifest is None:
            raise ValidationError(
                "similarity re-scoring needs frame pixels; pass --manifest"
            )
        provider = build_provider(manifest, config)

    result = fuse_candidates(cands, config.fusion_config(num_sources), provider)
    write_detections(label_records(result.labels, id_to_name), args.out)
    print(args.out)
    return 0


def cmd_pipeline(args) -> int:
    config = _config_from_args(args)
    manifest = load_manifest(args.manifest)
    targets = _parse_frames(args.frames) if args.frames else None
    run = run_pipeline(
        manifest,
        config,
        targets=targets,
        out_dir=args.out,
        keep_going=args.keep_going,
    )
    print(Path(args.out) / "run_report.json")
    return 1 if run.report["errors"] else 0


def _read_label_tree(path) -> dict[int, list[DetectionRecord]]:
    p = Path(path)
    files = sorted(p.glob("*.jsonl")) if p.is_dir() else [p]
    if not files:
        raise ValidationError(f"{path}: no .jsonl files found")
    by_frame: dict[int, list[DetectionRecord]] = {}
    for f in files:
        records, _ = read_detections(f)
        for r in records:
            by_frame.setdefault(r.frame, []).append(r)
    return by_frame


def _to_detections(by_frame, name_to_id) -> dict[int, list[Detection]]:
    out: dict[int, list[Detection]] = {}
    for frame, records in by_frame.items():
        out[frame] = [
            Detection(name_to_id[r.class_name], BBox.from_sequence(r.bbox), r.score)
            for r in records
        ]
    return out


def cmd_eval(args) -> int:
    det_records = _read_label_tree(args.dets)
    gt_records = _read_label_tree(args.gt)
    if args.classes:
        names = [n.strip() for n in args.classes.split(",") if n.strip()]
    else:
        names = sorted({r.class_name for recs in gt_records.values() for r in recs})
    name_to_id = {name: i for i, name in enumerate(names)}
    det_names = {r.class_name for recs in det_records.values() for r in recs}
    unknown = det_names - set(names)
    if unknown:
        raise VocabularyError(sorted(unknown))
    report = evaluate(
        _to_detections(det_records, name_to_id),
        _to_detections(gt_records, name_to_id),
        class_names=names,
        classes=range(len(names)),
    )
    payload = json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n"
    Path(args.out).write_text(payload, encoding="utf-8")
    if args.csv:
        Path(args.csv).write_text(report.to_csv(), encoding="utf-8")
    print(args.out)
    return 0


def cmd_selfcheck(args) -> int:
    config = _config_from_args(args)
    manifest = load_manifest(args.manifest)
    if args.source == "gt":
        gt = manifest.ground_truth()
        labels = gt.get(args.frame)
        if labels is None:
            raise ValidationError(f"no ground truth boxes for frame {args.frame}")
    else:
        labels = manifest.teacher_labels(args.frame)
        if labels is None:
            raise ValidationError(f"no detections for frame {args.frame}")
    report = self_consistency(
        labels,
        manifest.flows,
        args.hops,
        manifest.size,
        mode=config.composition,
        min_coverage=config.min_coverage,
        small_height_threshold=config.small_height_threshold,
    )
    payload = json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n"
    Path(args.out).write_text(payload, encoding="utf-8")
    print(args.out)
    return 0


# -- wiring --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="propfuse", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic sequence bundle")
    p.add_argument("--spec", required=True, type=Path, help="scene spec JSON")
    p.add_argument("--out", required=True, type=Path, help="bundle output directory")
    p.add_argument("--seed", type=int, default=None, help="override the seed in the scene file")
    p.add_argument("--embeddings", action="store_true", help="also write box embeddings")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("propagate", help="write the candidate set for one frame")
    p.add_argument("--manifest", required=True, type=Path)
    p.add_argument("--frame", required=True, type=int)
    p.add_argument("--out", required=True, type=Path)
    _add_config_flags(p)
    p.set_defaults(func=cmd_propagate)

    p = sub.add_parser("fuse", help="fuse a candidate file into final labels")
    p.add_argument("--in", required=True, type=Path, dest="dets", help="candidate/detection file")
    p.add_argument("--out", required=True, type=Path)
    p.add_argument(
        "--manifest", type=Path, default=None, help="needed for swbf re-scoring"
    )
    _add_config_flags(p)
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("pipeline", help="run propagation and fusion over a sequence")
    p.add_argument("--manifest", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--frames", default=None, help="subset, e.g. 3,5,8 or 2:10")
    p.add_argument(
        "--keep-going",
        action="store_true",
        help="record frames that fail on bad input or I/O in the report instead of aborting",
    )
    _add_config_flags(p)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("eval", help="score label files against ground truth")
    p.add_argument("--dets", required=True, type=Path, help="label file or directory")
    p.add_argument("--gt", required=True, type=Path, help="ground truth file or directory")
    p.add_argument("--out", required=True, type=Path, help="report JSON path")
    p.add_argument("--csv", type=Path, default=None, help="also write a CSV summary")
    p.add_argument("--classes", default=None, help="comma-separated class vocabulary")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("selfcheck", help="motion round-trip consistency for one frame")
    p.add_argument("--manifest", required=True, type=Path)
    p.add_argument("--frame", required=True, type=int)
    p.add_argument("--hops", type=int, default=1)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--source", choices=("gt", "dets"), default="gt")
    _add_config_flags(p)
    p.set_defaults(func=cmd_selfcheck)

    return parser


def main(argv=None) -> int:
    try:
        _configure_logging()
        parser = build_parser()
        args = parser.parse_args(argv)
        return args.func(args)
    except (FlowFormatError, FlowLengthError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PropfuseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
