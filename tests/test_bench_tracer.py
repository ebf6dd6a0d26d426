"""The benchmark's tracer still finds every binding it must wrap.

``bench/tracer.py`` replaces each traced function in every propfuse module
that imports it by name. A function that moves or is no longer imported
where the tracer expects it would silently fold one layer's time into its
caller's, so the bindings are checked here, with the suite, rather than
only when a traced benchmark runs.
"""

import importlib
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _tracer_module():
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("tracer")
    finally:
        sys.path.remove(str(BENCH))


def test_install_wraps_every_expected_binding_and_uninstall_restores_them():
    import propfuse.similarity

    tracer = _tracer_module()
    original = propfuse.similarity.PatchDescriptor.__dict__["embed"]
    t = tracer.Tracer()
    t.install()
    try:
        wrapped = set(t.bindings)
        assert propfuse.similarity.PatchDescriptor.__dict__["embed"] is not original
    finally:
        t.uninstall()
    assert sorted(set(tracer.EXPECTED_BINDINGS) - wrapped) == []
    assert propfuse.similarity.PatchDescriptor.__dict__["embed"] is original
    assert not hasattr(propfuse.similarity.rescore, "__wrapped__")
    assert not hasattr(propfuse.fusion.rescore, "__wrapped__")


@pytest.mark.parametrize("method", ["wbf", "swbf"])
def test_a_traced_run_counts_candidates_groups_and_clusters(noisy_dir, method):
    """Candidate rows still pass through the functions the tracer counts."""
    import propfuse.pipeline
    from propfuse.manifest import load_manifest
    from propfuse.pipeline import PipelineConfig, gather_candidates
    from propfuse.propagation import RunWindow

    tracer = _tracer_module()
    config = PipelineConfig(k=1, method=method)
    manifest = load_manifest(noisy_dir)
    targets = manifest.frame_indices()
    window = RunWindow(targets, config.k)
    groups = 0
    for t in targets:
        cands = gather_candidates(manifest, config, t, window)
        groups += len({d.class_id for d in cands.detections})
    traced = tracer.Tracer()
    traced.install()
    try:
        started = time.perf_counter()
        run = propfuse.pipeline.run_pipeline(load_manifest(noisy_dir), config)
        metrics = traced.layer_metrics(time.perf_counter() - started)
    finally:
        traced.uninstall()
    frames = run.report["frames"]
    # every carried candidate rescored, so each group reaches clustering
    assert sum(f["dropped_rescore"] for f in frames) == 0
    assert groups > len(targets)
    assert metrics["fusion.cluster_class_calls"][0] == groups
    assert metrics["fusion.clusters"][0] == sum(f["clusters"] for f in frames) > 0
    assert metrics["propagation.candidates"][0] == run.report["totals"]["candidates"] > 0
