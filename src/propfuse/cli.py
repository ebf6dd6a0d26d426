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
from array import array
from pathlib import Path

from .errors import (
    CliUsageError,
    FlowFormatError,
    FlowLengthError,
    PropfuseError,
    ValidationError,
)
from .evaluation import evaluate_rows, self_consistency
# bench/tracer.py patches ``evaluate`` here by name and fails a traced run
# without the binding, so it stays bound although nothing here calls it
from .evaluation import evaluate  # noqa: F401
from .geometry import unchecked_bbox
from .io import (
    CandidateMeta,
    DetectionRecord,
    read_detections,
    record_class_ids,
    record_detection,
    write_atomic,
    write_detections,
)
from .manifest import SequenceManifest, load_manifest
from .pipeline import (
    FIELD_TYPES,
    PipelineConfig,
    build_provider,
    carrying_config,
    fuse_frame,
    gather_candidates,
    load_config,
    run_pipeline,
    select_targets,
    validate_flow_coverage,
)
from .propagation import CandidateSet, RunWindow
from .synth import generate, load_spec, write_bundle

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


def _parse_frames(text: str) -> list[range]:
    """Comma-separated frame indices; a:b tokens are half-open ranges, not listed."""
    out: list[range] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            if ":" in token:
                a, _, b = token.partition(":")
                span = range(int(a), int(b))
            else:
                span = range(int(token), int(token) + 1)
        except ValueError:
            raise CliUsageError(f"bad frame token {token!r} in --frames")
        if not span:
            raise CliUsageError(f"empty frame range {token!r} in --frames: need a < b in a:b")
        out.append(span)
    if not out:
        raise CliUsageError("--frames selected no frames")
    return out


# -- subcommands --------------------------------------------------------------


def cmd_synth(args) -> int:
    spec = load_spec(args.spec, args.seed)
    bundle = generate(spec, include_embeddings=args.embeddings)
    manifest_path = write_bundle(bundle, args.out)
    print(manifest_path)
    return 0


def cmd_propagate(args) -> int:
    config = _config_from_args(args)
    manifest = load_manifest(args.manifest)
    if not manifest.has_frame(args.frame):
        raise ValidationError(f"frame {args.frame} is not in the manifest")
    carrying = carrying_config(manifest, config)
    validate_flow_coverage(manifest, carrying.k, [args.frame])
    window = RunWindow([args.frame], carrying.k)
    candidates = gather_candidates(manifest, carrying, args.frame, window)
    meta = CandidateMeta(candidates.frame_index, candidates.effective_sources, config.k)
    write_detections([candidates], args.out, manifest.classes, meta)
    print(args.out)
    return 0


def _candidates_from_file(path, manifest: SequenceManifest | None):
    """Rebuild a candidate set from a detections/candidates file.

    Returns (candidates, class names by id, meta). Class ids come from the
    manifest vocabulary when one is given, otherwise from the sorted names
    that appear in the file itself.
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
        names, name_to_id = manifest.classes, manifest.class_ids
    else:
        names = sorted({r.class_name for r in records})
        name_to_id = {name: i for i, name in enumerate(names)}
    ids = record_class_ids(records, name_to_id, path)
    dets = [record_detection(r, c, r.source_offset) for r, c in zip(records, ids)]
    boxes = [None if r.source_bbox is None else unchecked_bbox(*r.source_bbox) for r in records]
    effective = meta.effective_sources if meta is not None else 1
    cands = CandidateSet(
        frame_index=frame, detections=dets, source_boxes=boxes, effective_sources=effective
    )
    return cands, names, meta


def cmd_fuse(args) -> int:
    config = _config_from_args(args)
    manifest = load_manifest(args.manifest) if args.manifest else None
    cands, names, meta = _candidates_from_file(args.dets, manifest)

    k = meta.k if meta is not None else config.k
    provider = None
    if config.rescores(k):
        if manifest is None:
            raise ValidationError(
                "similarity re-scoring needs frame pixels; pass --manifest"
            )
        provider = build_provider(manifest, config)

    result, _ = fuse_frame(cands, config, k, provider)
    write_detections([result.labels], args.out, names)
    print(args.out)
    return 0


def cmd_pipeline(args) -> int:
    config = _config_from_args(args)
    manifest = load_manifest(args.manifest)
    targets = select_targets(manifest, _parse_frames(args.frames)) if args.frames else None
    run = run_pipeline(
        manifest,
        config,
        targets=targets,
        out_dir=args.out,
        keep_going=args.keep_going,
    )
    print(Path(args.out) / "run_report.json")
    return 1 if run.report["errors"] else 0


def _read_label_tree(path) -> list[tuple[str, list[DetectionRecord]]]:
    """Each ``.jsonl`` file of the directory ``path``, by name, or the file
    ``path``, with its records.

    File paths are joined as strings. A ``Path`` interns each of its parts,
    so one per label file would add and drop a table entry per file on every
    pass, and a long-running process would rebuild that table (a block of
    about 1 MB, placed wherever the heap has room then) every few hundred
    passes.
    """
    p = str(Path(path))
    if os.path.isdir(p):
        names = sorted(e.name for e in os.scandir(p) if e.name.endswith(".jsonl"))
        # the names str(Path(p) / name) gives, as errors have always shown them
        files = [name if p == "." else os.path.join(p, name) for name in names]
    else:
        files = [p]
    if not files:
        raise ValidationError(f"{path}: no .jsonl files found")
    return [(f, read_detections(f)[0]) for f in files]


def _label_rows(files, name_to_id, codes: dict[int, int], strict: bool) -> dict[int, array]:
    """Each class's records as ``evaluate_rows`` rows, in read order.

    A frame's code is its position in ``codes``, which is extended with
    frames seen for the first time. A record of a class outside
    ``name_to_id`` is a ``VocabularyError`` naming its file when ``strict``,
    else it is left out.
    """
    rows: dict[int, array] = {}
    for path, records in files:
        if strict:
            ids = record_class_ids(records, name_to_id, path)
        else:
            ids = [name_to_id.get(r.class_name) for r in records]
        for r, c in zip(records, ids):
            if c is None:
                continue
            flat = rows.get(c)
            if flat is None:
                flat = rows[c] = array("d")
            x1, y1, x2, y2 = r.bbox
            flat.extend((codes.setdefault(r.frame, len(codes)), x1, y1, x2, y2, r.score))
    return rows


def cmd_eval(args) -> int:
    det_files = _read_label_tree(args.dets)
    gt_files = _read_label_tree(args.gt)
    if args.classes:
        names = [n.strip() for n in args.classes.split(",") if n.strip()]
    else:
        names = sorted({r.class_name for _, records in gt_files for r in records})
    name_to_id = {name: i for i, name in enumerate(names)}
    codes: dict[int, int] = {}
    det_rows = _label_rows(det_files, name_to_id, codes, strict=True)
    # ground truth of a class outside the vocabulary is not scored
    gt_rows = _label_rows(gt_files, name_to_id, codes, strict=False)
    report = evaluate_rows(det_rows, gt_rows, names, range(len(names)))
    payload = json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n"
    write_atomic(args.out, payload, "utf-8")
    if args.csv:
        write_atomic(args.csv, report.to_csv(), "utf-8")
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
    write_atomic(args.out, payload, "utf-8")
    print(args.out)
    return 0


# -- wiring --------------------------------------------------------------------


def _synth_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--spec", required=True, type=Path, help="scene spec JSON")
    p.add_argument("--out", required=True, type=Path, help="bundle output directory")
    p.add_argument("--seed", type=int, default=None, help="override the seed in the scene file")
    p.add_argument("--embeddings", action="store_true", help="also write box embeddings")


def _propagate_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--manifest", required=True, type=Path)
    p.add_argument("--frame", required=True, type=int)
    p.add_argument("--out", required=True, type=Path)
    _add_config_flags(p)


def _fuse_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--in", required=True, type=Path, dest="dets", help="candidate/detection file")
    p.add_argument("--out", required=True, type=Path)
    p.add_argument(
        "--manifest", type=Path, default=None, help="needed for swbf re-scoring"
    )
    _add_config_flags(p)


def _pipeline_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--manifest", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--frames", default=None, help="subset, e.g. 3,5,8 or 2:10")
    p.add_argument(
        "--keep-going",
        action="store_true",
        help="record frames that fail on bad input or I/O in the report instead of aborting",
    )
    _add_config_flags(p)


def _eval_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dets", required=True, type=Path, help="label file or directory")
    p.add_argument("--gt", required=True, type=Path, help="ground truth file or directory")
    p.add_argument("--out", required=True, type=Path, help="report JSON path")
    p.add_argument("--csv", type=Path, default=None, help="also write a CSV summary")
    p.add_argument("--classes", default=None, help="comma-separated class vocabulary")


def _selfcheck_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--manifest", required=True, type=Path)
    p.add_argument("--frame", required=True, type=int)
    p.add_argument("--hops", type=int, default=1)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--source", choices=("gt", "dets"), default="gt")
    _add_config_flags(p)


def _commands() -> tuple:
    """(name, help, argument adder, handler) of each subcommand, in help order.

    The table is made at each call, so it holds whatever the module's names
    are bound to then: bench/tracer.py wraps ``cmd_eval`` on the module.
    """
    return (
        ("synth", "generate a synthetic sequence bundle", _synth_args, cmd_synth),
        ("propagate", "write the candidate set for one frame", _propagate_args, cmd_propagate),
        ("fuse", "fuse a candidate file into final labels", _fuse_args, cmd_fuse),
        ("pipeline", "run propagation and fusion over a sequence", _pipeline_args, cmd_pipeline),
        ("eval", "score label files against ground truth", _eval_args, cmd_eval),
        ("selfcheck", "motion round-trip consistency for one frame", _selfcheck_args, cmd_selfcheck),
    )


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The propfuse parser, with every subcommand listed.

    When ``command`` names a subcommand only that one gets its arguments,
    which is all that parsing its command line needs; otherwise every
    subcommand gets them.
    """
    commands = _commands()
    if command not in {name for name, *_ in commands}:
        command = None
    parser = _Parser(prog="propfuse", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, add_arguments, handler in commands:
        p = sub.add_parser(name, help=help_text)
        if command in (None, name):
            add_arguments(p)
            p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    try:
        _configure_logging()
        argv = sys.argv[1:] if argv is None else argv
        args = build_parser(argv[0] if argv else None).parse_args(argv)
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
