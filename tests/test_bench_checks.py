"""The benchmark's output check still reads what the package gives it.

``bench/checks.py`` rebuilds candidates with ``build_candidates``, reads the
``detections`` and ``source_boxes`` views of a candidate set and the
``detections`` view of a label set, and compares a brute-force fusion with
the written labels. If one of these stopped doing what the check reads, only
a benchmark run would notice; here the check runs with the suite, on a small
scene, and must find nothing wrong.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

from propfuse.cli import main
from propfuse.manifest import load_manifest
from propfuse.pipeline import PipelineConfig, run_pipeline

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _checks_module():
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("checks")
    finally:
        sys.path.remove(str(BENCH))


def _write_tree(manifest_path, config, out_dir):
    run_pipeline(load_manifest(manifest_path), PipelineConfig(**config), out_dir=out_dir)
    return out_dir


@pytest.mark.parametrize("method", ["wbf", "swbf"])
def test_brute_force_fusion_matches_the_written_labels(tmp_path, noisy_dir, method):
    checks = _checks_module()
    config = {"k": 1, "method": method}
    manifest = load_manifest(noisy_dir)
    out = _write_tree(noisy_dir, config, tmp_path / "out")
    cfg = PipelineConfig(**config)
    size = manifest.size
    labels, bad = checks.read_tree(
        out / "labels", manifest.frame_indices(), size.width, size.height,
        manifest.classes, cfg.post_threshold,
    )
    assert bad == {}
    assert labels
    frames = manifest.frame_indices()
    assert checks.refusion_mismatches(manifest, cfg, labels, frames) == []


@pytest.mark.parametrize("method", ["wbf", "swbf"])
def test_check_run_finds_no_problem(tmp_path, noisy_dir, method):
    checks = _checks_module()
    config = {"k": 1, "method": method}
    trees = [_write_tree(noisy_dir, config, tmp_path / name) for name in ("a", "b")]
    gt = noisy_dir.parent / "gt.jsonl"
    evals = []
    for tree in trees:
        report = tree / "eval.json"
        argv = ["eval", "--dets", str(tree / "labels"), "--gt", str(gt), "--out", str(report)]
        assert main(argv) == 0
        evals.append(json.loads(report.read_text(encoding="utf-8")))
    spec = {
        "manifest": str(noisy_dir),
        "gt": str(gt),
        "config": config,
        "trees": [str(t) for t in trees],
        "evals": evals,
        "refuse_frames": 4,
    }
    result = checks.check_run(spec)
    assert result["problems"] == []
    assert result["mismatched_trees"] == []
    assert all(bad == {} for bad in result["bad_frames"].values())
    assert len(result["refused_frames"]) == 4
    assert result["labels"] > 0
