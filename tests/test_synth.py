import copy
import filecmp
import importlib
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import propfuse.io
from propfuse.errors import SceneValidationError, ValidationError
from propfuse.geometry import BBox, FrameSize, LabelSet
from propfuse.manifest import load_manifest
from propfuse.motion import sample_bilinear
from propfuse.similarity import PatchDescriptor, PrecomputedEmbeddings, embedding_key
from propfuse.synth import (
    MAX_SCENE_FALSE_ALARMS,
    MAX_SCENE_LENGTH,
    MAX_SCENE_PIXEL_FRAMES,
    DetectorNoise,
    InjectedFalsePositive,
    ObjectSpec,
    SceneSpec,
    SequenceBundle,
    generate,
    load_spec,
    write_bundle,
)

from propfuse.cli import main

import _bundles


def simple_spec(**overrides):
    base = dict(
        size=FrameSize(96, 72),
        length=5,
        classes=["car", "person"],
        objects=[
            ObjectSpec.linear(0, (20.0, 14.0), (4.0, 10.0), (6.0, 2.0), 5),
            ObjectSpec.linear(1, (10.0, 16.0), (70.0, 40.0), (-3.0, 0.0), 5, color=240),
        ],
        seed=7,
    )
    base.update(overrides)
    return SceneSpec(**base)


def assert_same_tree(a, b):
    cmp = filecmp.dircmp(a, b)
    stack = [cmp]
    while stack:
        node = stack.pop()
        assert not node.left_only and not node.right_only
        match, mismatch, errors = filecmp.cmpfiles(
            node.left, node.right, node.common_files, shallow=False
        )
        assert not mismatch and not errors, (mismatch, errors)
        stack.extend(node.subdirs.values())


class TestGenerate:
    def test_zero_noise_detector_equals_ground_truth(self):
        bundle = generate(simple_spec())
        for gt, det in zip(bundle.ground_truth, bundle.detections):
            assert gt.detections == det.detections
            for d in det.detections:
                assert d.score == 1.0

    def test_occlusion_hides_from_detector_only(self):
        spec = simple_spec(
            objects=[
                ObjectSpec.linear(0, (20.0, 14.0), (4.0, 10.0), (6.0, 2.0), 5, occlusion=[(2, 4)]),
            ]
        )
        bundle = generate(spec)
        for t in range(5):
            assert len(bundle.ground_truth[t]) == 1
            expected = 0 if 2 <= t < 4 else 1
            assert len(bundle.detections[t]) == expected

    def test_absent_removes_object_entirely(self):
        spec = simple_spec(
            objects=[
                ObjectSpec.linear(0, (20.0, 14.0), (4.0, 10.0), (6.0, 2.0), 5, absent=[(1, 3)]),
            ]
        )
        bundle = generate(spec)
        for t in range(5):
            expected = 0 if 1 <= t < 3 else 1
            assert len(bundle.ground_truth[t]) == expected
            assert len(bundle.detections[t]) == expected
        # no object motion stamped across the gap: sample inside where
        # the box would have been and find only background (zero)
        box = spec.objects[0].box(1)
        du, dv = sample_bilinear(bundle.forward_flows[(1, 2)].data, box.x1 + 2, box.y1 + 2)
        assert (du, dv) == (0.0, 0.0)

    def test_forward_flow_exact_inside_and_at_corner(self):
        bundle = generate(simple_spec())
        fw = bundle.forward_flows[(1, 2)]
        car = simple_spec().objects[0].box(1)
        # interior point and the exact corner both read the velocity
        assert tuple(sample_bilinear(fw.data, car.x1 + 1.0, car.y1 + 1.0)) == (6.0, 2.0)
        assert tuple(sample_bilinear(fw.data, car.x2, car.y2)) == (6.0, 2.0)
        # far corner of the frame is background
        assert tuple(sample_bilinear(fw.data, 95.0, 1.0)) == (0.0, 0.0)

    def test_backward_flow_negates(self):
        bundle = generate(simple_spec())
        bw = bundle.backward_flows[(2, 1)]
        car = simple_spec().objects[0].box(2)
        assert tuple(sample_bilinear(bw.data, car.x1 + 1.0, car.y1 + 1.0)) == (-6.0, -2.0)

    def test_injected_false_positive_only_in_detections(self):
        spec = simple_spec(
            injected=[InjectedFalsePositive(frame=3, class_id=0, bbox=BBox(60, 50, 80, 66), score=0.8)]
        )
        bundle = generate(spec)
        dets3 = bundle.detections[3].detections
        spurious = [d for d in dets3 if d.score == 0.8]
        assert len(spurious) == 1
        assert spurious[0].bbox == BBox(60.0, 50.0, 80.0, 66.0)
        assert all(d.score == 1.0 for d in bundle.ground_truth[3].detections)

    def test_noise_respects_score_ranges(self):
        spec = simple_spec(
            noise=DetectorNoise(
                miss_prob=0.2,
                jitter_sigma=0.5,
                fp_rate=0.5,
                fp_score_range=(0.45, 0.6),
                true_score_range=(0.7, 0.95),
            ),
            length=12,
        )
        # stretch the trajectories to 12 frames without leaving the frame
        spec.objects = [
            ObjectSpec.linear(0, (20.0, 14.0), (4.0, 10.0), (3.0, 1.0), 12),
            ObjectSpec.linear(1, (10.0, 16.0), (70.0, 40.0), (-3.0, 0.0), 12, color=240),
        ]
        bundle = generate(spec)
        scores = [d.score for ls in bundle.detections for d in ls.detections]
        assert scores
        for s in scores:
            assert 0.45 <= s <= 0.95
            assert s < 0.6 + 1e-9 or s >= 0.7 - 1e-9

    def test_coverage_validation_names_object_and_frame(self):
        spec = simple_spec(
            objects=[ObjectSpec.linear(0, (20.0, 14.0), (80.0, 10.0), (6.0, 0.0), 5)]
        )
        with pytest.raises(SceneValidationError) as err:
            generate(spec)
        msg = str(err.value)
        assert "object 0" in msg
        assert "t=" in msg

    def test_unknown_class_id_rejected(self):
        spec = simple_spec(objects=[ObjectSpec.linear(7, (10.0, 10.0), (5.0, 5.0), (0.0, 0.0), 5)])
        with pytest.raises(SceneValidationError):
            generate(spec)

    def test_same_seed_same_bundle(self):
        spec = simple_spec(noise=DetectorNoise(miss_prob=0.3, jitter_sigma=1.0, fp_rate=0.5))
        a = generate(spec)
        b = generate(spec)
        assert a.detections == b.detections
        for pair in a.forward_flows:
            assert np.array_equal(a.forward_flows[pair].data, b.forward_flows[pair].data)
        for fa, fb in zip(a.frames, b.frames):
            assert np.array_equal(fa.data, fb.data)


class TestFromJson:
    def test_class_names_resolve(self):
        spec = SceneSpec.from_json_dict(
            {
                "size": [96, 72],
                "length": 3,
                "classes": ["car", "person"],
                "objects": [
                    {"class": "person", "size": [10, 16], "start": [40, 30], "velocity": [1, 0]}
                ],
                "injected_false_positives": [
                    {"frame": 1, "class": "car", "bbox": [5, 5, 20, 20], "score": 0.7}
                ],
            }
        )
        assert spec.objects[0].class_id == 1
        assert spec.injected[0].class_id == 0

    def test_unknown_class_name_rejected(self):
        with pytest.raises(SceneValidationError) as err:
            SceneSpec.from_json_dict(
                {
                    "size": [96, 72],
                    "length": 3,
                    "classes": ["car"],
                    "objects": [{"class": "bike", "size": [10, 10], "start": [5, 5], "velocity": [0, 0]}],
                }
            )
        assert "bike" in str(err.value)

    def test_object_needs_a_trajectory(self):
        with pytest.raises(SceneValidationError):
            SceneSpec.from_json_dict(
                {
                    "size": [96, 72],
                    "length": 3,
                    "classes": ["car"],
                    "objects": [{"class": "car", "size": [10, 10]}],
                }
            )


SPEC = {
    "size": [64, 48],
    "length": 4,
    "classes": ["car", "person"],
    "objects": [
        {"class": "car", "size": [10, 8], "start": [10, 10], "velocity": [2, 0],
         "occlusion": [[1, 2]], "color": 180}
    ],
    "noise": {"miss_prob": 0.1},
    "background": {"mode": "flat", "motion": [1, 0]},
    "injected_false_positives": [{"frame": 1, "class": "person", "bbox": [5, 5, 15, 15], "score": 0.7}],
}


def _edited(edit):
    spec = copy.deepcopy(SPEC)
    edit(spec)
    return json.dumps(spec)


MALFORMED_SPECS = {
    "object without size": _edited(lambda s: s["objects"][0].pop("size")),
    "noise not an object": _edited(lambda s: s.update(noise=[1])),
    "one-element occlusion": _edited(lambda s: s["objects"][0].update(occlusion=[[1]])),
    "one-element background motion": _edited(lambda s: s["background"].update(motion=[1])),
    "false positive without score": _edited(lambda s: s["injected_false_positives"][0].pop("score")),
    "length too large to convert": json.dumps(SPEC).replace('"length": 4', '"length": 1e400'),
    "two-value color": _edited(lambda s: s["objects"][0].update(color=[1, 2])),
    "color of strings": _edited(lambda s: s["objects"][0].update(color=["a", "b", "c"])),
    "color out of range": _edited(lambda s: s["objects"][0].update(color=300)),
    "occlusion of strings": _edited(lambda s: s["objects"][0].update(occlusion=["ab"])),
    "infinite background motion": json.dumps(SPEC).replace('"motion": [1, 0]', '"motion": [1e400, 0]'),
    "spec not an object": "[1, 2]",
}


class TestLoadSpec:
    def test_valid_spec_loads_with_seed_override(self, tmp_path):
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(SPEC))
        spec = load_spec(path, seed=5)
        assert spec.seed == 5
        assert spec.objects[0].occlusion == [(1, 2)]
        assert spec.background_motion == (1, 0)

    @pytest.mark.parametrize("name", sorted(MALFORMED_SPECS))
    def test_malformed_spec_is_a_scene_error_naming_the_file(self, tmp_path, capsys, name):
        path = tmp_path / "scene.json"
        path.write_text(MALFORMED_SPECS[name])
        with pytest.raises(SceneValidationError) as err:
            load_spec(path)
        assert str(err.value).startswith(f"{path}: ")
        # the CLI ends there too, before anything is rendered or written
        rc = main(["synth", "--spec", str(path), "--out", str(tmp_path / "bundle")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {err.value}\n"
        assert not (tmp_path / "bundle").exists()

    @pytest.mark.parametrize(
        "length, size, message",
        [
            (10**12, [64, 48], f"sequence length must be at most {MAX_SCENE_LENGTH}, got 1000000000000"),
            (MAX_SCENE_LENGTH + 1, [1, 1], f"sequence length must be at most {MAX_SCENE_LENGTH}, got 10001"),
            (
                4,
                [10**12, 10**12],
                f"length x width x height must be at most {MAX_SCENE_PIXEL_FRAMES}, got "
                "4 x 1000000000000 x 1000000000000 = 4000000000000000000000000",
            ),
            (
                MAX_SCENE_LENGTH,
                [100, 101],
                f"length x width x height must be at most {MAX_SCENE_PIXEL_FRAMES}, got "
                "10000 x 100 x 101 = 101000000",
            ),
        ],
        ids=["length 1e12", "length one over", "size 1e12", "pixel-frames one row over"],
    )
    def test_oversized_scene_rejected_before_any_frame_is_checked(
        self, tmp_path, capsys, length, size, message
    ):
        path = tmp_path / "scene.json"
        path.write_text(_edited(lambda s: s.update(length=length, size=size)))
        with pytest.raises(SceneValidationError) as err:
            load_spec(path)
        assert str(err.value) == f"{path}: {message}"
        rc = main(["synth", "--spec", str(path), "--out", str(tmp_path / "bundle")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {err.value}\n"
        assert not (tmp_path / "bundle").exists()

    @pytest.mark.parametrize(
        "noise, message",
        [
            (
                {"fp_rate": 200000},
                f"length x fp_rate must be at most {MAX_SCENE_FALSE_ALARMS}, got 4 x 200000.0 = 800000.0",
            ),
            (
                {"fp_rate": math.inf},
                f"length x fp_rate must be at most {MAX_SCENE_FALSE_ALARMS}, got 4 x inf = inf",
            ),
            (
                {"fp_rate": math.nan},
                f"length x fp_rate must be at most {MAX_SCENE_FALSE_ALARMS}, got 4 x nan = nan",
            ),
            (
                {"fp_width_range": [-20, -10]},
                "fp_width_range must be finite and satisfy 0 < lo <= hi, got (-20.0, -10.0)",
            ),
            (
                {"fp_width_range": [0, 5]},
                "fp_width_range must be finite and satisfy 0 < lo <= hi, got (0.0, 5.0)",
            ),
            (
                {"fp_height_range": [10, 5]},
                "fp_height_range must be finite and satisfy 0 < lo <= hi, got (10.0, 5.0)",
            ),
            (
                {"fp_height_range": [5, math.inf]},
                "fp_height_range must be finite and satisfy 0 < lo <= hi, got (5.0, inf)",
            ),
        ],
        ids=[
            "fp_rate 2e5",
            "fp_rate inf",
            "fp_rate nan",
            "widths negative",
            "width 0",
            "heights reversed",
            "height inf",
        ],
    )
    def test_false_alarm_knobs_checked_before_anything_is_drawn(self, tmp_path, capsys, noise, message):
        path = tmp_path / "scene.json"
        path.write_text(_edited(lambda s: s["noise"].update(noise)))
        with pytest.raises(SceneValidationError) as err:
            load_spec(path)
        assert str(err.value) == f"{path}: {message}"
        rc = main(["synth", "--spec", str(path), "--out", str(tmp_path / "bundle")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {err.value}\n"
        assert not (tmp_path / "bundle").exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda s: s.update(length=3.9), "length must be an integer, got float 3.9"),
            (lambda s: s.update(length=True), "length must be an integer, got bool True"),
            (lambda s: s.update(seed=1.5), "seed must be an integer, got float 1.5"),
            (lambda s: s.update(size=[32.9, 48]), "width must be an integer, got float 32.9"),
            (
                lambda s: s["objects"][0].update({"class_id": 0.9}) or s["objects"][0].pop("class"),
                "class_id must be an integer, got float 0.9",
            ),
            (
                lambda s: s["injected_false_positives"][0].update(frame=1.7),
                "frame must be an integer, got float 1.7",
            ),
            (
                lambda s: s["objects"][0].update(color=200.7),
                "color must be an integer, got float 200.7",
            ),
            (lambda s: s["objects"][0].update(color=[9.5]), "color must be an integer, got float 9.5"),
        ],
        ids=[
            "length 3.9",
            "length true",
            "seed 1.5",
            "width 32.9",
            "class_id 0.9",
            "fp frame 1.7",
            "color 200.7",
            "color [9.5]",
        ],
    )
    def test_numbers_int_would_floor_are_rejected(self, tmp_path, edit, message):
        path = tmp_path / "scene.json"
        path.write_text(_edited(edit))
        with pytest.raises(SceneValidationError) as err:
            load_spec(path)
        assert str(err.value).startswith(f"{path}: ")
        assert str(err.value).endswith(message)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (
                lambda s: s.update(classes=[0, None]),
                "scene spec needs size, length, classes: "
                "classes must be a list of JSON strings, got [0, None]",
            ),
            (
                lambda s: s.update(classes=["0", "person"]) or s["objects"][0].update({"class": 0}),
                "object 0: unknown class 0",
            ),
            (
                lambda s: s["objects"][0].update(occlusion=[[0.5, 1.5]]),
                "occlusion must be an integer, got float 0.5",
            ),
            (
                lambda s: s["objects"][0].update(absent=[[1, True]]),
                "absent must be an integer, got bool True",
            ),
            (
                lambda s: s["injected_false_positives"][0].update(score="0.5"),
                "score must be a number, got str '0.5'",
            ),
            (lambda s: s.update(min_coverage="0.3"), "min_coverage must be a number, got str '0.3'"),
            (
                lambda s: s["objects"][0].update(waypoints=[["0", "10", "10"], [3, 16, 10]]),
                "waypoints must be a number, got str '0'",
            ),
            (
                lambda s: s["objects"][0].update(start=[10, "10"]),
                "start must be a number, got str '10'",
            ),
            (lambda s: s["objects"][0].update(size=["2", True]), "size must be a number, got str '2'"),
            (lambda s: s["objects"][0].update(size=[2, True]), "size must be a number, got bool True"),
            (
                lambda s: s["noise"].update(fp_score_range=["0.4", 0.8]),
                "fp_score_range must be a number, got str '0.4'",
            ),
            (lambda s: s["noise"].update(miss_prob=False), "miss_prob must be a number, got bool False"),
            (
                lambda s: s["background"].update(motion=[True, 0]),
                "motion must be a number, got bool True",
            ),
        ],
        ids=[
            "classes [0, null]",
            "class 0",
            "occlusion 0.5",
            "absent true",
            "score string",
            "min_coverage string",
            "waypoint strings",
            "start string",
            "size string",
            "size true",
            "fp_score_range string",
            "miss_prob false",
            "motion true",
        ],
    )
    def test_values_are_taken_as_json_gives_them(self, tmp_path, capsys, edit, message):
        # str() and float() used to turn each of these into a class or a number
        path = tmp_path / "scene.json"
        path.write_text(_edited(edit))
        with pytest.raises(SceneValidationError) as err:
            load_spec(path)
        assert str(err.value).startswith(f"{path}: ")
        assert str(err.value).endswith(message)
        rc = main(["synth", "--spec", str(path), "--out", str(tmp_path / "bundle")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {err.value}\n"
        assert not (tmp_path / "bundle").exists()

    def test_decreasing_waypoint_frames_rejected(self):
        # frames 0, 10, 5: position() would stop at x=50 at frame 5 and
        # never reach (10, 100)
        obj = ObjectSpec(0, (8.0, 8.0), [(0.0, 0.0, 0.0), (10.0, 100.0, 0.0), (5.0, 50.0, 0.0)])
        spec = simple_spec(size=FrameSize(160, 72), length=12, objects=[obj])
        with pytest.raises(SceneValidationError, match="waypoint frames must not decrease"):
            spec.validate()
        obj.waypoints[1:] = [(5.0, 50.0, 0.0), (5.0, 60.0, 0.0), (10.0, 100.0, 0.0)]
        spec.validate()

    def test_scenes_at_the_caps_are_admitted(self):
        SceneSpec(size=FrameSize(1, 1), length=MAX_SCENE_LENGTH, classes=["car"]).validate()
        SceneSpec(size=FrameSize(10**4, 10**4), length=1, classes=["car"]).validate()
        SceneSpec(size=FrameSize(100, 100), length=MAX_SCENE_LENGTH, classes=["car"]).validate()

    def test_false_alarms_at_the_cap_are_admitted(self):
        at_cap = DetectorNoise(fp_rate=MAX_SCENE_FALSE_ALARMS / 4)
        SceneSpec(size=FrameSize(8, 8), length=4, classes=["car"], noise=at_cap).validate()

    def test_caps_admit_every_benchmark_scene(self):
        bench = Path(__file__).resolve().parent.parent / "bench"
        sys.path.insert(0, str(bench))
        try:
            workloads = importlib.import_module("workloads")
        finally:
            sys.path.remove(str(bench))
        for workload in workloads.WORKLOADS.values():
            workload.build(1, False).validate()


class TestWriteBundle:
    def test_same_seed_byte_identical_trees(self, tmp_path):
        spec = simple_spec(noise=DetectorNoise(miss_prob=0.3, jitter_sigma=1.0, fp_rate=0.5))
        a_dir = tmp_path / "a"
        b_dir = tmp_path / "b"
        write_bundle(generate(spec, include_embeddings=True), a_dir)
        write_bundle(generate(spec, include_embeddings=True), b_dir)
        assert_same_tree(a_dir, b_dir)

    def test_manifest_loads_back(self, tmp_path):
        bundle = generate(simple_spec(), include_embeddings=True)
        path = write_bundle(bundle, tmp_path)
        m = load_manifest(path)
        assert m.size == FrameSize(96, 72)
        assert m.classes == ["car", "person"]
        assert m.frame_indices() == list(range(5))
        for t in range(5):
            assert m.teacher_labels(t).detections == bundle.detections[t].detections
            assert m.frame_image(t).size == m.size
        for t in range(4):
            assert m.flows.has(t, t + 1)
            assert m.flows.has(t + 1, t)
        gt = m.ground_truth()
        for t in range(5):
            assert gt[t].detections == bundle.ground_truth[t].detections
        assert m.embeddings_path is not None
        table = PrecomputedEmbeddings.load(m.embeddings_path)
        assert len(table) > 0

    @pytest.mark.parametrize("channels", [1, 3])
    def test_tree_read_back_writes_the_same_bytes(self, tmp_path, channels):
        spec = simple_spec(channels=channels, noise=DetectorNoise(jitter_sigma=0.7, fp_rate=0.6))
        first = write_bundle(generate(spec, include_embeddings=True), tmp_path / "a")

        # everything below comes from the files, through their readers
        m = load_manifest(first)
        indices = m.frame_indices()
        gt = m.ground_truth()
        ground_truth = [gt.get(t, LabelSet(frame_index=t)) for t in indices]
        detections = [m.teacher_labels(t) for t in indices]
        stored = PrecomputedEmbeddings.load(m.embeddings_path)
        embeddings = {
            embedding_key(ls.frame_index, d.bbox): stored.embed(ls.frame_index, d.bbox)
            for ls in ground_truth + detections
            for d in ls.detections
        }
        frames = [m.frame_image(t) for t in indices]
        read_back = SequenceBundle(
            spec=SceneSpec(m.size, len(indices), m.classes, channels=frames[0].channels),
            frames=frames,
            forward_flows={(a, b): m.flows.get(a, b) for a, b in m.flows.pairs() if a < b},
            backward_flows={(a, b): m.flows.get(a, b) for a, b in m.flows.pairs() if a > b},
            ground_truth=ground_truth,
            detections=detections,
            embeddings=embeddings,
        )
        assert len(embeddings) == len(stored)
        second = write_bundle(read_back, tmp_path / "b")
        assert second == tmp_path / "b" / "manifest.json"
        assert_same_tree(tmp_path / "a", tmp_path / "b")

    def test_embeddings_computed_in_one_batch_per_label_set(self, monkeypatch):
        batches = []
        real = PatchDescriptor.embed_many

        def embed_many(self, frame_index, boxes):
            batches.append((frame_index, len(boxes)))
            return real(self, frame_index, boxes)

        monkeypatch.setattr(PatchDescriptor, "embed_many", embed_many)
        bundle = generate(simple_spec(), include_embeddings=True)
        label_sets = bundle.ground_truth + bundle.detections
        assert batches == [(ls.frame_index, len(ls.detections)) for ls in label_sets]
        keys = {embedding_key(ls.frame_index, d.bbox) for ls in label_sets for d in ls.detections}
        assert set(bundle.embeddings) == keys

    @pytest.mark.parametrize(
        "victim",
        ["frames/frame_0002.pgm", "flows/bw_0003_0002.flo", "embeddings.jsonl", "manifest.json"],
    )
    def test_torn_write_keeps_the_earlier_file_and_no_temp(self, tmp_path, monkeypatch, victim):
        write_bundle(generate(simple_spec(), include_embeddings=True), tmp_path)
        before = (tmp_path / victim).read_bytes()
        real_open = open

        class Torn:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[:10])
                self.fh.flush()
                raise OSError(28, "No space left on device")

        def tearing_open(path, *args):
            fh = real_open(path, *args)
            return Torn(fh) if Path(path).name.startswith(f".{Path(victim).name}.") else fh

        monkeypatch.setattr(propfuse.io, "open", tearing_open, raising=False)
        faster = [ObjectSpec.linear(0, (20.0, 14.0), (4.0, 10.0), (5.0, 1.0), 5)]
        with pytest.raises(OSError, match="No space"):
            write_bundle(generate(simple_spec(seed=8, objects=faster), include_embeddings=True), tmp_path)
        assert (tmp_path / victim).read_bytes() == before
        assert not [p for p in tmp_path.rglob("*") if p.name.endswith(".tmp")]

    def test_embeddings_omitted_by_default(self, tmp_path):
        path = write_bundle(generate(simple_spec()), tmp_path)
        m = load_manifest(path)
        assert m.embeddings_path is None

    def test_missing_referenced_file_rejected(self, tmp_path):
        path = write_bundle(generate(simple_spec()), tmp_path)
        victim = tmp_path / "flows" / "fw_0001_0002.flo"
        victim.unlink()
        with pytest.raises(ValidationError) as err:
            load_manifest(path)
        assert "fw_0001_0002.flo" in str(err.value)


class TestBenchmarkRecipe:
    def test_benchmark_spec_is_valid_and_busy(self):
        spec = _bundles.benchmark_spec()
        spec.validate()
        assert spec.length == 200
        assert len(spec.objects) == 6
        assert len(spec.injected) == 24
