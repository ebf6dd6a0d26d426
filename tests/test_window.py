"""What a run holds in memory, and that it lets go of it."""

import gc
import json
import random
import shutil
import weakref
from collections import Counter

import numpy as np
import pytest

import propfuse.manifest
import propfuse.motion
import propfuse.pipeline
from propfuse.errors import FlowFormatError
from propfuse.evaluation import self_consistency
from propfuse.geometry import BBox, Detection, FrameSize, LabelSet
from propfuse.manifest import load_manifest
from propfuse.motion import FlowStore, Frame, MotionField, constant_field
from propfuse.pipeline import PipelineConfig, run_pipeline
from propfuse.propagation import RunWindow, build_candidates
from propfuse.similarity import PatchDescriptor

NOTHING_HELD = {"labels": 0, "fields": 0, "frames": 0}


def most_held(n, k, shuffled):
    """The most of each kind one RunWindow held over an n-frame sequence.

    Each target reads what ``run_pipeline`` reads for it: its candidates,
    then a crop on every frame within reach from the patch provider (as
    swbf rescoring does), then ``finish``. The frames are one small noise
    image with one box each, moved by constant fields.
    """
    size = FrameSize(16, 12)
    image = Frame(size, np.random.default_rng(0).integers(0, 256, (12, 16), dtype=np.uint8))
    fw, bw = constant_field(size, 0.5, 0.25), constant_field(size, -0.5, -0.25)
    flows = FlowStore({(a, a + 1): fw for a in range(n - 1)} | {(a + 1, a): bw for a in range(n - 1)})
    table = {t: LabelSet(t, [Detection(0, BBox(4.5, 2.0, 12.0, 9.5), 0.9)]) for t in range(n)}
    provider = PatchDescriptor(lambda f: image)
    targets = list(range(n))
    if shuffled:
        random.Random(n).shuffle(targets)
    window = RunWindow(targets, k, provider)
    for t in targets:
        build_candidates(t, k, table.get, flows, size, window=window)
        for f in range(max(t - k, 0), min(t + k + 1, n)):
            provider.embed_many(f, [d.bbox.as_tuple() for d in table[f].detections])
        window.finish(t)
    assert window.held() == NOTHING_HELD
    return {kind: s["most_held"] for kind, s in window.stats.items()}


@pytest.fixture()
def windows(monkeypatch):
    """Every RunWindow that run_pipeline makes, in order."""
    made = []

    class Recorded(RunWindow):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(propfuse.pipeline, "RunWindow", Recorded)
    return made


@pytest.fixture()
def reads(monkeypatch):
    """How often each flow, detections and frame file is read."""
    counts = Counter()

    def counted(module, name):
        real = getattr(module, name)

        def read(path, *args, **kwargs):
            counts[str(path)] += 1
            return real(path, *args, **kwargs)

        monkeypatch.setattr(module, name, read)

    counted(propfuse.motion, "read_flow")
    counted(propfuse.manifest, "read_detections")
    counted(propfuse.manifest, "read_frame")
    return counts


@pytest.fixture()
def fields_read(monkeypatch):
    """A weak reference to every motion field read from a file."""
    refs = []
    real = propfuse.motion.read_flow

    def read(*args, **kwargs):
        field = real(*args, **kwargs)
        refs.append(weakref.ref(field))
        return field

    monkeypatch.setattr(propfuse.motion, "read_flow", read)
    return refs


def alive(refs) -> int:
    """How many of the referenced fields something still holds."""
    gc.collect()
    return sum(ref() is not None for ref in refs)


@pytest.mark.parametrize("k", [1, 3])
def test_most_held_does_not_grow_with_the_sequence(k):
    in_order = most_held(200, k, False)
    assert most_held(800, k, False) == in_order
    assert in_order["frames"] == 2 * k + 1
    # every piece held is read by the target just finished or by the smallest
    # one unfinished before it, each of which reads at most 2k+1 pieces of a kind
    for n in (200, 800):
        counts = most_held(n, k, True)
        assert 0 < min(counts.values()) and max(counts.values()) <= (2 * k + 1) ** 2


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
@pytest.mark.parametrize("k", [1, 3])
def test_each_file_is_read_once_per_run(noisy_dir, reads, k, order):
    manifest = load_manifest(noisy_dir)
    targets = sorted(manifest.frame_indices(), reverse=order == "descending")
    if order == "shuffled":
        random.Random(k).shuffle(targets)
    run_pipeline(manifest, PipelineConfig(k=k), targets=targets)
    entries = json.loads(noisy_dir.read_text())
    root = noisy_dir.parent
    flow_files = {str(root / e["path"]) for e in entries["flows"]}
    det_files = {str(root / e["detections"]) for e in entries["frames"]}
    frame_files = {str(root / e["frame"]) for e in entries["frames"]}
    assert set(reads) == flow_files | det_files | frame_files
    assert set(reads.values()) == {1}


@pytest.mark.parametrize("case", ["full", "stopped on a corrupt flow", "keep going", "shuffled"])
def test_nothing_is_held_after_a_run(tmp_path, clean_dir, windows, fields_read, monkeypatch, case):
    path = clean_dir
    if case in ("stopped on a corrupt flow", "keep going"):
        shutil.copytree(clean_dir.parent, tmp_path / "bundle")
        (tmp_path / "bundle" / "flows" / "fw_0002_0003.flo").write_bytes(b"not a flow file")
        path = tmp_path / "bundle" / "manifest.json"
    manifest = load_manifest(path)
    targets = manifest.frame_indices()
    config = PipelineConfig(k=2)
    if case == "stopped on a corrupt flow":
        started = []
        real_gather = propfuse.pipeline.gather_candidates

        def gather(manifest, config, t, window):
            started.append(t)
            return real_gather(manifest, config, t, window)

        monkeypatch.setattr(propfuse.pipeline, "gather_candidates", gather)
        with pytest.raises(FlowFormatError):
            run_pipeline(manifest, config)
        # frame 3 reads 2->3 first, so frames 4.. never ran
        assert started == [0, 1, 2, 3]
    elif case == "keep going":
        run = run_pipeline(manifest, config, keep_going=True)
        assert [e["frame"] for e in run.report["errors"]] == [3, 4]
    else:
        random.Random(4).shuffle(targets)
        run_pipeline(manifest, config, targets=targets)
    assert windows[-1].held() == NOTHING_HELD
    assert fields_read and alive(fields_read) == 0


@pytest.mark.parametrize("caller", ["build_candidates", "self_consistency"])
def test_window_less_callers_hold_no_field(clean_dir, fields_read, caller):
    # one call per frame, each on its own: the manifest and its FlowStore
    # outlive the calls but keep none of the fields they read
    manifest = load_manifest(clean_dir)
    frames = manifest.frame_indices()
    for t in frames:
        if caller == "build_candidates":
            build_candidates(t, 2, manifest.teacher_labels, manifest.flows, manifest.size)
        elif t + 1 in frames:
            self_consistency(manifest.teacher_labels(t), manifest.flows, 1, manifest.size)
    assert len(fields_read) >= len(manifest.flows.pairs())
    assert alive(fields_read) == 0


def test_callers_in_memory_fields_survive_the_run(clean_dir):
    manifest = load_manifest(clean_dir)
    mine = {}
    for a, b in manifest.flows.pairs()[::2]:
        loaded = manifest.flows.get(a, b)
        mine[a, b] = MotionField(loaded.size, loaded.data.copy(), a, b)
        manifest.flows.add(a, b, mine[a, b])
    run = run_pipeline(manifest, PipelineConfig(k=3))
    assert run.labels == run_pipeline(load_manifest(clean_dir), PipelineConfig(k=3)).labels
    assert all(manifest.flows.get(a, b) is field for (a, b), field in mine.items())


def test_set_up_reads_no_flow_and_no_frame(clean_dir, reads):
    manifest = load_manifest(clean_dir)
    config = PipelineConfig(k=3)
    propfuse.pipeline.validate_flow_coverage(manifest, config.k, manifest.frame_indices())
    propfuse.pipeline.build_provider(manifest, config)
    assert not reads
