"""One benchmark process: generate inputs, set up, time, trace or check.

``run.py`` starts this script once per task, each time in a fresh
interpreter, and reads the JSON object it writes to ``--result``. Only the
standard library is imported at module level, so that a ``setup`` or
``time`` process pays for exactly what a propfuse user pays for: the
interpreter, ``import propfuse`` and the work itself.

Modes:
  gen    synthesize a workload's scene and write the bundle (not timed)
  setup  measure set-up only: process start to the first frame
  time   set up, then run rounds of run_pipeline + eval until the budget
  trace  alternate untraced and traced rounds, report the per-layer split
  check  check a run's label trees (see checks.py)
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path


def _cpu() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _peak_rss_mb() -> float:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kb + children_kb) / 1024.0


def set_up(manifest_path: str, config: dict):
    """What a pipeline run does before its first frame, as the CLI does it."""
    from propfuse import PipelineConfig, load_manifest
    from propfuse.pipeline import build_provider, validate_flow_coverage

    cfg = PipelineConfig(**config)
    manifest = load_manifest(manifest_path)
    if cfg.k > 0:
        validate_flow_coverage(manifest, cfg.k, manifest.frame_indices())
    if cfg.method == "swbf" and cfg.k > 0:
        build_provider(manifest, cfg)
    return manifest, cfg


def _eval_tree(out_dir: Path, gt_path: str) -> dict:
    """Score a written label tree exactly as ``propfuse eval`` does."""
    from propfuse.cli import main as cli_main

    report = out_dir / "eval.json"
    code = cli_main(["eval", "--dets", str(out_dir / "labels"), "--gt", gt_path, "--out", str(report)])
    if code != 0:
        raise RuntimeError(f"propfuse eval exited with {code}")
    return json.loads(report.read_text(encoding="utf-8"))


def _round(manifest, cfg, out_dir: Path, gt_path: str, eval_reps: int, reference=None) -> dict:
    """One run_pipeline over every frame, then ``eval_reps`` eval passes.

    With a ``reference`` callable, one reference pass runs before the
    pipeline and one after each eval pass; they are untimed by the round.
    """
    from propfuse import run_pipeline

    if out_dir.exists():
        shutil.rmtree(out_dir)
    passes = [reference()] if reference else []
    c0 = _cpu()
    t0 = time.perf_counter()
    run = run_pipeline(manifest, cfg, out_dir=out_dir)
    t1 = time.perf_counter()
    c1 = _cpu()
    frames = len(run.labels)
    # per-frame, per-stage seconds; run.py builds its pipeline time from them
    frame_s = [f["seconds"] for f in run.report["frames"]]
    del run
    eval_s = []
    eval_cpu = []
    for _ in range(eval_reps):
        c2 = _cpu()
        t2 = time.perf_counter()
        report = _eval_tree(out_dir, gt_path)
        eval_s.append(time.perf_counter() - t2)
        eval_cpu.append(_cpu() - c2)
        if reference:
            passes.append(reference())
    return {
        "dir": str(out_dir),
        "frames": frames,
        "pipeline_s": t1 - t0,
        "pipeline_cpu_s": c1 - c0,
        "frame_s": frame_s,
        "eval_s": eval_s,
        "eval_cpu_s": eval_cpu,
        "n_detections": report["n_detections"],
        "map50": report["map50"],
        "map75": report["map75"],
        "reference_s": passes,
    }


# boxes of the reference work: fixed, varied in size and overlap
_REF_BOXES = [
    (float(i % 37), float(i % 23), float(i % 37 + 10 + i % 5), float(i % 23 + 12 + i % 7))
    for i in range(120)
]


def _reference_pass(copies: int) -> tuple:
    """(python seconds, copy seconds) of one pass of fixed work.

    The Python part (pairwise IoU of tuple boxes) is of the kind propfuse's
    inner loops do. The copy part converts a 1080p float32 flow field to
    float64 ``copies`` times, as ``sample_bilinear`` does on every call; it
    follows contention for memory bandwidth, which the Python part does not
    feel. Passes sampled through a run tell how fast the host let each kind
    of work run; run.py scales the run's times by them. The field exists
    only during the pass, so that it does not add to the peak RSS.
    """
    from checks import box_iou

    t0 = time.perf_counter()
    for a in _REF_BOXES[:40]:
        for b in _REF_BOXES:
            box_iou(a, b)
    python_s = time.perf_counter() - t0
    copy_s = 0.0
    if copies:
        import numpy as np

        field = np.arange(1080 * 1920 * 2, dtype=np.float32).reshape(1080, 1920, 2)
        t1 = time.perf_counter()
        for _ in range(copies):
            field.astype(np.float64)
        copy_s = time.perf_counter() - t1
    return python_s, copy_s


def _rounds_until(budget_s, started, min_rounds, run_one) -> list:
    """Call run_one(i) until the next round would overrun the budget."""
    rounds = []
    longest = 0.0
    while len(rounds) < min_rounds or time.perf_counter() - started + longest <= budget_s:
        t0 = time.perf_counter()
        rounds.append(run_one(len(rounds)))
        gc.collect()
        longest = max(longest, time.perf_counter() - t0)
    return rounds


def cmd_gen(args) -> dict:
    from propfuse.synth import generate, write_bundle
    from workloads import WORKLOADS

    spec = WORKLOADS[args.workload].build(args.seed, args.short)
    manifest = write_bundle(generate(spec), args.out)
    return {"manifest": str(manifest), "frames": spec.length}


def cmd_setup(args) -> dict:
    set_up(args.manifest, json.loads(args.config))
    return {"setup_s": time.monotonic() - args.t0}


def cmd_time(args) -> dict:
    manifest, cfg = set_up(args.manifest, json.loads(args.config))
    setup_s = time.monotonic() - args.t0
    started = time.perf_counter()
    out = Path(args.out)
    from propfuse import load_manifest

    def reference():
        return _reference_pass(args.reference_copies)

    def one(i):
        nonlocal manifest
        # a fresh manifest per round, so no round finds another's caches warm
        m = manifest if i == 0 else load_manifest(args.manifest)
        manifest = None
        return _round(m, cfg, out / f"r{i}", args.gt, args.eval_reps, reference)

    rounds = _rounds_until(args.budget, started, 2, one)
    return {"setup_s": setup_s, "rounds": rounds, "peak_rss_mb": _peak_rss_mb()}


def cmd_trace(args) -> dict:
    import propfuse
    from tracer import Tracer

    manifest, cfg = set_up(args.manifest, json.loads(args.config))
    del manifest
    started = time.perf_counter()
    out = Path(args.out)
    best = None

    def pair(i):
        nonlocal best
        plain = _round(propfuse.load_manifest(args.manifest), cfg, out / f"u{i}", args.gt, 1)
        gc.collect()
        tracer = Tracer()
        tracer.install()
        try:
            t0 = time.perf_counter()
            # looked up on the package now, so that the load is traced too
            traced = _round(propfuse.load_manifest(args.manifest), cfg, out / f"t{i}", args.gt, 1)
            wall = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        traced_pipeline_s = tracer.durations("pipeline.run_pipeline")[0]
        if best is None or traced_pipeline_s < best[0]:
            best = (traced_pipeline_s, tracer, wall, traced)
        return plain, traced

    pairs = _rounds_until(args.budget, started, 1, pair)
    _, tracer, wall, traced = best
    layers = tracer.layer_metrics(wall)
    stages = json.loads((Path(traced["dir"]) / "run_report.json").read_text(encoding="utf-8"))["stages"]
    for key in ("build_s", "fuse_s", "write_s"):
        layers["pipeline." + key] = (stages[key], "s")
    tracer.dump(out / "spans.json")
    return {
        "plain_rounds": [p for p, _ in pairs],
        "traced_rounds": [t for _, t in pairs],
        "layers": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
        "bindings": tracer.bindings,
    }


def cmd_check(args) -> dict:
    from checks import check_run

    return check_run(json.loads(Path(args.spec).read_text(encoding="utf-8")))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("mode", choices=("gen", "setup", "time", "trace", "check"))
    p.add_argument("--result", required=True, help="where to write the JSON result")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--short", action="store_true")
    p.add_argument("--manifest")
    p.add_argument("--gt")
    p.add_argument("--config", help="PipelineConfig fields as a JSON object")
    p.add_argument("--out")
    p.add_argument("--spec")
    p.add_argument("--t0", type=float, help="time.monotonic() when the parent started this process")
    p.add_argument("--budget", type=float)
    p.add_argument("--eval-reps", type=int)
    p.add_argument("--reference-copies", type=int)
    args = p.parse_args(argv)
    if args.mode in ("setup", "time", "trace") and args.config is None:
        p.error(f"{args.mode} needs --config")
    handler = {
        "gen": cmd_gen,
        "setup": cmd_setup,
        "time": cmd_time,
        "trace": cmd_trace,
        "check": cmd_check,
    }[args.mode]
    result = handler(args)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
