import dataclasses
import json
import math
import os
import random
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import propfuse
import propfuse.cli
import propfuse.evaluation
import propfuse.fusion
import propfuse.io
import propfuse.manifest
import propfuse.pipeline
import propfuse.propagation
from propfuse.cli import _commands, _config_from_args, _parse_frames, build_parser, main
from propfuse.errors import CliUsageError, FlowFormatError, ValidationError
from propfuse.fusion import FusionConfig
from propfuse.geometry import FrameSize
from propfuse.io import DetectionRecord
from propfuse.manifest import load_manifest
from propfuse.motion import constant_field, write_flow
from propfuse.pipeline import (
    PipelineConfig,
    build_provider,
    load_config,
    parse_config_file,
    run_pipeline,
    validate_flow_coverage,
)
from propfuse.similarity import PatchDescriptor
from propfuse.synth import generate, write_bundle

import _bundles
from _oracles import oracle_wbf, per_value_line, ref_candidates


def thresholded_lines(det_path, threshold):
    kept = []
    for line in det_path.read_text(encoding="ascii").splitlines():
        if json.loads(line)["score"] > threshold:
            kept.append(line + "\n")
    return "".join(kept)


def read_labels_tree(out_dir):
    return {p.name: p.read_bytes() for p in sorted((out_dir / "labels").glob("*.jsonl"))}


def compensated_sum(values, start=0):
    """Builtin ``sum()`` as Python 3.12 and later compute it.

    Integers add exactly until the first float. From there the floats add
    by Neumaier's compensated summation, and the compensation is added at
    the end if it is finite and nonzero, as in CPython's float path.
    """
    total = start
    it = iter(values)
    for x in it:
        if type(x) is float:
            total = total + x
            break
        total = total + x
    else:
        return total
    comp = 0.0
    for x in it:
        t = total + x
        if abs(total) >= abs(x):
            comp += (total - t) + x
        else:
            comp += (x - t) + total
        total = t
    if comp and math.isfinite(comp):
        total += comp
    return total


def report_bytes(out_dir):
    """run_report.json without its timings, re-serialized."""
    report = json.loads((out_dir / "run_report.json").read_text())
    report.pop("stages")
    for f in report["frames"]:
        f.pop("seconds")
    return json.dumps(report, indent=2, sort_keys=True)


class TestConfig:
    def test_defaults(self):
        cfg = PipelineConfig()
        assert cfg.k == 1
        assert cfg.method == "swbf"
        assert cfg.teacher_threshold == 0.4

    def test_file_then_overrides(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "# fusion settings\n"
            "k = 2\n"
            "method = wbf   # inline comment\n"
            "post_threshold = 0.05\n"
            "\n"
        )
        assert parse_config_file(cfg_file) == {"k": 2, "method": "wbf", "post_threshold": 0.05}
        cfg = load_config(cfg_file)
        assert (cfg.k, cfg.method, cfg.post_threshold) == (2, "wbf", 0.05)
        cfg = load_config(cfg_file, {"k": 1, "match": None})
        assert cfg.k == 1
        assert cfg.method == "wbf"

    def test_unknown_key_names_line(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("k = 1\nbogus = 3\n")
        with pytest.raises(CliUsageError) as err:
            parse_config_file(cfg_file)
        assert f"{cfg_file}:2: unknown config key 'bogus'" in str(err.value)

    def test_bad_value_names_line(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("k = abc\n")
        with pytest.raises(CliUsageError) as err:
            parse_config_file(cfg_file)
        assert f"{cfg_file}:1:" in str(err.value)

    def test_jobs_other_than_one_rejected(self, tmp_path, clean_dir, capsys):
        with pytest.raises(ValidationError, match="jobs"):
            PipelineConfig(jobs=2)
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("jobs = 2\n")
        with pytest.raises(ValidationError, match="jobs"):
            load_config(cfg_file)
        common = ["pipeline", "--manifest", str(clean_dir), "--out", str(tmp_path / "out")]
        for extra in (["--config", str(cfg_file)], ["--jobs", "2"]):
            assert main(common + extra) == 1
            assert "jobs must be 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_invalid_combination_rejected(self):
        with pytest.raises(ValidationError):
            PipelineConfig(iou_threshold=1.0)
        with pytest.raises(ValidationError):
            PipelineConfig(k=-1)
        with pytest.raises(ValidationError):
            PipelineConfig(method="magic")
        # the fusion fields are checked once, by the FusionConfig the run uses
        for name, value, message in (
            ("iou_threshold", 1.0, "iou_threshold must lie in (0, 1), got 1.0"),
            ("post_threshold", 1.5, "post_threshold must lie in [0, 1], got 1.5"),
            ("num_sources", 0, "num_sources must be >= 1, got 0"),
            ("snms_sigma", 0.0, "snms_sigma must be finite and > 0, got 0.0"),
            ("snms_sigma", float("nan"), "snms_sigma must be finite and > 0, got nan"),
            ("snms_sigma", float("inf"), "snms_sigma must be finite and > 0, got inf"),
        ):
            with pytest.raises(ValidationError) as err:
                PipelineConfig(**{name: value})
            assert str(err.value) == message

    def test_fusion_config_carries_the_run_settings(self):
        cfg = PipelineConfig(method="snms", iou_threshold=0.6, post_threshold=0.2, snms_sigma=0.3)
        fusion = cfg.replace(match="best", num_sources=4).fusion_config(7)
        assert fusion == FusionConfig("snms", 0.6, 7, 0.2, 0.3, "best")

    def test_patch_size_bounded_before_any_frame(self, tmp_path, clean_dir, capsys, monkeypatch):
        from propfuse.similarity import MAX_PATCH_SIZE

        assert PipelineConfig(patch_size=MAX_PATCH_SIZE).patch_size == MAX_PATCH_SIZE
        for size in (1, MAX_PATCH_SIZE + 1, 10**9):
            with pytest.raises(ValidationError, match="patch_size must lie in"):
                PipelineConfig(patch_size=size)

        def no_frame(*args):
            raise AssertionError("no frame should be read")

        monkeypatch.setattr(propfuse.manifest, "read_frame", no_frame)
        out = tmp_path / "out"
        common = ["pipeline", "--manifest", str(clean_dir), "--out", str(out)]
        assert main(common + ["--patch-size", str(10**9)]) == 1
        assert f"patch_size must lie in [2, {MAX_PATCH_SIZE}], got {10**9}" in capsys.readouterr().err
        assert not out.exists()

    def test_every_choice_field_is_validated(self):
        with pytest.raises(ValidationError) as err:
            PipelineConfig(match="bogus")
        assert "match" in str(err.value)
        for f in dataclasses.fields(PipelineConfig):
            if "choices" in f.metadata:
                with pytest.raises(ValidationError):
                    PipelineConfig(**{f.name: "bogus"})


def strict_json(text: str):
    """``json.loads`` that rejects NaN and the infinities, which are not JSON."""

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


class TestNonFiniteConfig:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "command, flag, message",
        [
            ("pipeline --method wbf", "--snms-sigma", "snms_sigma must be finite and > 0"),
            ("pipeline --method snms", "--snms-sigma", "snms_sigma must be finite and > 0"),
            ("selfcheck", "--small-height-threshold", "small_height_threshold must be finite and >= 0"),
        ],
    )
    def test_rejected_before_any_output(self, tmp_path, clean_dir, capsys, command, flag, value, message):
        out = tmp_path / "out"
        argv = command.split() + ["--manifest", str(clean_dir), "--out", str(out), f"{flag}={value}"]
        if command == "selfcheck":
            argv += ["--frame", "2"]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}, got {float(value)}\n"
        assert not out.exists()

    def test_negative_small_height_threshold_rejected(self):
        with pytest.raises(ValidationError) as err:
            PipelineConfig(small_height_threshold=-1.0)
        assert str(err.value) == "small_height_threshold must be finite and >= 0, got -1.0"
        assert PipelineConfig(small_height_threshold=0.0).small_height_threshold == 0.0

    def test_reports_are_strict_json(self, tmp_path, clean_dir):
        out = tmp_path / "out"
        argv = ["--snms-sigma", "1e300", "--small-height-threshold", "1e300"]
        assert main(["pipeline", "--manifest", str(clean_dir), "--out", str(out), "--method", "wbf"] + argv) == 0
        config = strict_json((out / "run_report.json").read_text())["config"]
        assert (config["snms_sigma"], config["small_height_threshold"]) == (1e300, 1e300)
        check = tmp_path / "check.json"
        assert main(["selfcheck", "--manifest", str(clean_dir), "--frame", "2", "--out", str(check)] + argv) == 0
        assert strict_json(check.read_text())["small_height_threshold"] == 1e300


def _non_default(f: dataclasses.Field):
    """A valid value of a config field that differs from its default."""
    if "choices" in f.metadata:
        return next(c for c in reversed(f.metadata["choices"]) if c != f.default)
    if propfuse.pipeline.FIELD_TYPES[f.name] is int:
        return (f.default or 1) + 1
    return 0.3


# jobs has no second valid value
@pytest.mark.parametrize(
    "f", [f for f in dataclasses.fields(PipelineConfig) if f.name != "jobs"], ids=lambda f: f.name
)
def test_field_is_config_key_and_flag(tmp_path, f):
    value = _non_default(f)
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"{f.name} = {value}\n")
    from_file = load_config(cfg_file)

    flag = "--" + f.name.replace("_", "-")
    args = build_parser().parse_args(["pipeline", "--manifest", "m", "--out", "o", flag, str(value)])
    from_flag = _config_from_args(args)

    assert getattr(from_file, f.name) == value
    assert getattr(from_flag, f.name) == value
    assert from_file == from_flag


# a command line of each subcommand, with every argument it requires
SAMPLE_ARGV = {
    "synth": ["--spec", "s.json", "--out", "b", "--seed", "3", "--embeddings"],
    "propagate": ["--manifest", "m", "--frame", "2", "--out", "c", "--k", "3"],
    "fuse": ["--in", "c", "--out", "f", "--method", "nms", "--manifest", "m"],
    "pipeline": ["--manifest", "m", "--out", "o", "--frames", "1:3", "--keep-going"],
    "eval": ["--dets", "d", "--gt", "g", "--out", "r", "--csv", "r.csv", "--classes", "car"],
    "selfcheck": ["--manifest", "m", "--frame", "2", "--out", "r", "--hops", "2", "--source", "dets"],
}


class TestParserPerCommand:
    """``build_parser(command)`` parses that command's lines as the full parser does."""

    def test_every_subcommand_has_a_sample(self):
        assert [name for name, *_ in _commands()] == list(SAMPLE_ARGV)

    @pytest.mark.parametrize("command", sorted(SAMPLE_ARGV))
    def test_help_namespace_and_usage_error_equal_the_full_parser(self, command, capsys):
        results = []
        for parser in (build_parser(), build_parser(command)):
            with pytest.raises(SystemExit) as exited:
                parser.parse_args([command, "--help"])
            assert exited.value.code == 0
            namespace = vars(parser.parse_args([command, *SAMPLE_ARGV[command]]))
            with pytest.raises(CliUsageError) as missing:
                parser.parse_args([command])
            results.append((capsys.readouterr().out, namespace, str(missing.value)))
        assert results[0] == results[1]
        assert "the following arguments are required" in results[0][2]

    def test_top_level_help_is_unchanged_by_the_command(self, capsys):
        helps = []
        for command in (None, "eval", "bogus"):
            with pytest.raises(SystemExit):
                build_parser(command).parse_args(["--help"])
            helps.append(capsys.readouterr().out)
        assert helps[0] == helps[1] == helps[2]

    def test_eval_adds_no_config_flags(self, tmp_path, clean_dir, monkeypatch):
        calls = []
        add_config_flags = propfuse.cli._add_config_flags
        monkeypatch.setattr(
            propfuse.cli, "_add_config_flags", lambda p: calls.append(p.prog) or add_config_flags(p)
        )
        gt = str(clean_dir.parent / "gt.jsonl")
        assert main(["eval", "--dets", gt, "--gt", gt, "--out", str(tmp_path / "r.json")]) == 0
        assert calls == []
        build_parser()
        assert calls == [f"propfuse {c}" for c in ("propagate", "fuse", "pipeline", "selfcheck")]

    def test_main_runs_the_handler_bound_on_the_module(self, monkeypatch):
        # the benchmark's tracer times eval by wrapping cli.cmd_eval on the module
        seen = []
        monkeypatch.setattr(propfuse.cli, "cmd_eval", lambda args: seen.append(args.dets) or 0)
        assert main(["eval", *SAMPLE_ARGV["eval"]]) == 0
        assert seen == [Path("d")]


class TestRunPipeline:
    def test_k_zero_reproduces_thresholded_teacher(self, tmp_path, noisy_dir):
        manifest = load_manifest(noisy_dir)
        cfg = PipelineConfig(k=0, method="wbf", post_threshold=0.0)
        out = tmp_path / "out"
        run_pipeline(manifest, cfg, out_dir=out)
        for t in manifest.frame_indices():
            got = (out / "labels" / f"fused_{t:06d}.jsonl").read_text(encoding="ascii")
            want = thresholded_lines(noisy_dir.parent / "dets" / f"det_{t:04d}.jsonl", 0.4)
            assert got == want

    def test_k_zero_with_higher_threshold(self, tmp_path, noisy_dir):
        manifest = load_manifest(noisy_dir)
        cfg = PipelineConfig(k=0, method="wbf", post_threshold=0.0, teacher_threshold=0.7)
        out = tmp_path / "out"
        run_pipeline(manifest, cfg, out_dir=out)
        for t in manifest.frame_indices():
            got = (out / "labels" / f"fused_{t:06d}.jsonl").read_text(encoding="ascii")
            want = thresholded_lines(noisy_dir.parent / "dets" / f"det_{t:04d}.jsonl", 0.7)
            assert got == want

    @pytest.mark.parametrize(
        "k, composition",
        [(1, "trajectory"), (1, "additive"), (3, "trajectory"), (3, "additive")],
        ids=["k1-trajectory", "k1-additive", "k3-trajectory", "k3-additive"],
    )
    def test_shuffled_targets_match_in_order(self, tmp_path, noisy_dir, k, composition):
        manifest = load_manifest(noisy_dir)
        config = PipelineConfig(k=k, method="swbf", composition=composition)
        targets = manifest.frame_indices()
        shuffled = targets + targets[::3]
        random.Random(k).shuffle(shuffled)
        run_pipeline(manifest, config, targets=targets, out_dir=tmp_path / "in_order")
        run_pipeline(load_manifest(noisy_dir), config, targets=shuffled, out_dir=tmp_path / "shuffled")
        assert read_labels_tree(tmp_path / "in_order") == read_labels_tree(tmp_path / "shuffled")
        assert report_bytes(tmp_path / "in_order") == report_bytes(tmp_path / "shuffled")

    def test_repeated_target_runs_once(self, tmp_path, clean_dir, monkeypatch):
        fused, written = [], []
        real_fuse = propfuse.pipeline.fuse_candidates
        real_write = propfuse.pipeline.write_detections

        def fuse(candidates, *args):
            fused.append(candidates.frame_index)
            return real_fuse(candidates, *args)

        def write(records, path, *args, **kwargs):
            written.append(path.name)
            return real_write(records, path, *args, **kwargs)

        monkeypatch.setattr(propfuse.pipeline, "fuse_candidates", fuse)
        monkeypatch.setattr(propfuse.pipeline, "write_detections", write)
        out = tmp_path / "out"
        rc = main(["pipeline", "--manifest", str(clean_dir), "--out", str(out), "--frames", "2:5,3"])
        assert rc == 0
        assert fused == [2, 3, 4]
        assert written == ["fused_000002.jsonl", "fused_000003.jsonl", "fused_000004.jsonl"]
        report = json.loads((out / "run_report.json").read_text())
        assert [f["frame"] for f in report["frames"]] == [2, 3, 4]
        assert report["totals"]["frames"] == 3

    def test_stage_times_add_up_to_no_more_than_the_run(self, noisy_dir):
        stages = run_pipeline(load_manifest(noisy_dir), PipelineConfig(k=3)).report["stages"]
        assert stages["build_s"] + stages["fuse_s"] + stages["write_s"] <= stages["total_s"]

    def test_errors_and_first_failure_follow_frame_order(self, clean_dir, monkeypatch):
        seen = []
        real_fuse = propfuse.pipeline.fuse_candidates

        def fuse(candidates, *args):
            seen.append(candidates.frame_index)
            if candidates.frame_index in (2, 4):
                raise ValidationError(f"frame {candidates.frame_index} is malformed")
            return real_fuse(candidates, *args)

        monkeypatch.setattr(propfuse.pipeline, "fuse_candidates", fuse)
        manifest = load_manifest(clean_dir)
        targets = manifest.frame_indices()[::-1]
        config = PipelineConfig(k=1, method="wbf")
        run = run_pipeline(manifest, config, targets=targets, keep_going=True)
        assert [e["frame"] for e in run.report["errors"]] == [2, 4]
        assert [f["frame"] for f in run.report["frames"]] == [
            t for t in manifest.frame_indices() if t not in (2, 4)
        ]
        seen.clear()
        with pytest.raises(ValidationError, match="frame 2 "):
            run_pipeline(manifest, config, targets=targets)
        assert seen == [0, 1, 2]

    def test_report_structure(self, tmp_path, clean_dir):
        manifest = load_manifest(clean_dir)
        out = tmp_path / "out"
        run = run_pipeline(manifest, PipelineConfig(k=1, method="swbf"), out_dir=out)
        report = json.loads((out / "run_report.json").read_text())
        assert report == run.report
        assert [f["frame"] for f in report["frames"]] == manifest.frame_indices()
        for f in report["frames"]:
            assert set(f["seconds"]) == {"build", "fuse", "write"}
            assert f["candidates"] >= f["output"]
        assert report["totals"]["frames"] == len(manifest.frame_indices())
        assert report["stages"]["total_s"] >= 0.0
        assert report["errors"] == []
        assert report["config"]["method"] == "swbf"

    def test_target_subset(self, tmp_path, clean_dir):
        manifest = load_manifest(clean_dir)
        out = tmp_path / "out"
        run_pipeline(manifest, PipelineConfig(k=1, method="wbf"), targets=[2, 5], out_dir=out)
        assert sorted(p.name for p in (out / "labels").glob("*.jsonl")) == [
            "fused_000002.jsonl",
            "fused_000005.jsonl",
        ]

    def test_unknown_target_rejected(self, clean_dir):
        manifest = load_manifest(clean_dir)
        with pytest.raises(ValidationError):
            run_pipeline(manifest, PipelineConfig(k=0), targets=[99])

    def test_k_beyond_sequence_just_omits(self, tmp_path, clean_dir):
        manifest = load_manifest(clean_dir)
        out = tmp_path / "out"
        run = run_pipeline(manifest, PipelineConfig(k=50, method="wbf"), targets=[0], out_dir=out)
        assert run.report["errors"] == []
        # every in-range offset participated, nothing off the end did
        assert run.report["frames"][0]["effective_sources"] == 8

    def test_reach_is_bounded_by_the_sequence(self, tmp_path, clean_dir, monkeypatch):
        # k far past the 8-frame sequence tries no offset beyond its span of
        # 7 frames, in the pipeline and in propagate, and writes what k=7
        # writes; the report and the candidate header keep the k given
        tried = []
        real = propfuse.propagation.offset_order
        monkeypatch.setattr(
            propfuse.propagation, "offset_order", lambda k: tried.append(k) or real(k)
        )
        manifest = load_manifest(clean_dir)
        out = {}
        for k in (7, 10_000):
            out[k] = tmp_path / str(k)
            config = PipelineConfig(k=k, method="wbf")
            report = run_pipeline(manifest, config, out_dir=out[k]).report
            assert report["config"]["k"] == k
            propagate = ["propagate", "--manifest", str(clean_dir), "--frame", "3"]
            assert main(propagate + ["--k", str(k), "--out", str(out[k] / "cand.jsonl")]) == 0
        assert set(tried) == {7}
        labels = sorted((out[7] / "labels").iterdir())
        assert [p.read_bytes() for p in labels] == [
            (out[10_000] / "labels" / p.name).read_bytes() for p in labels
        ]
        near, far = (json.loads(out[k].joinpath("run_report.json").read_text()) for k in out)
        for frame in near["frames"] + far["frames"]:
            del frame["seconds"]
        assert near["frames"] == far["frames"]
        near, far = (out[k].joinpath("cand.jsonl").read_text().splitlines() for k in out)
        assert near[1:] == far[1:] and len(near) > 1
        assert {**json.loads(far[0]), "k": 7} == json.loads(near[0])

    def test_missing_flow_is_an_error(self, tmp_path):
        write_bundle(generate(_bundles_simple_spec()), tmp_path)
        manifest_path = tmp_path / "manifest.json"
        obj = json.loads(manifest_path.read_text())
        obj["flows"] = [e for e in obj["flows"] if not (e["from"] == 2 and e["to"] == 3)]
        manifest_path.write_text(json.dumps(obj))
        manifest = load_manifest(manifest_path)
        with pytest.raises(ValidationError) as err:
            validate_flow_coverage(manifest, 1, manifest.frame_indices())
        assert "2->3" in str(err.value)
        with pytest.raises(ValidationError):
            run_pipeline(manifest, PipelineConfig(k=1, method="wbf"))

    def test_target_subset_reads_only_its_chains(self, tmp_path):
        write_bundle(generate(_bundles_simple_spec()), tmp_path)
        manifest_path = tmp_path / "manifest.json"
        flows = json.loads(manifest_path.read_text())["flows"]
        corrupt = tmp_path / next(e["path"] for e in flows if (e["from"], e["to"]) == (2, 3))
        corrupt.write_bytes(b"not a flow file")
        # frame 2 at k=2 needs 0->1->2, 1->2, 3->2 and 4->3->2, never 2->3
        manifest = load_manifest(manifest_path)
        run = run_pipeline(manifest, PipelineConfig(k=2, method="wbf"), targets=[2])
        assert run.report["errors"] == []
        assert run.report["frames"][0]["effective_sources"] == 5
        with pytest.raises(FlowFormatError) as err:
            run_pipeline(load_manifest(manifest_path), PipelineConfig(k=2, method="wbf"))
        assert str(corrupt) in str(err.value)

    def test_keep_going_records_bad_frames(self, tmp_path):
        write_bundle(generate(_bundles_simple_spec()), tmp_path / "bundle")
        det2 = tmp_path / "bundle" / "dets" / "det_0002.jsonl"
        det2.write_text("this is not json\n")
        manifest = load_manifest(tmp_path / "bundle" / "manifest.json")
        out = tmp_path / "out"
        run = run_pipeline(
            manifest, PipelineConfig(k=0, method="wbf"), out_dir=out, keep_going=True
        )
        assert [e["frame"] for e in run.report["errors"]] == [2]
        names = sorted(p.name for p in (out / "labels").glob("*.jsonl"))
        assert "fused_000002.jsonl" not in names
        assert len(names) == 4

        with pytest.raises(Exception):
            run_pipeline(manifest, PipelineConfig(k=0, method="wbf"), keep_going=False)

    @pytest.mark.parametrize("k", [1, 2])
    def test_keep_going_records_validation_errors(self, clean_dir, monkeypatch, k):
        real_fuse = propfuse.pipeline.fuse_candidates

        def fuse(candidates, *args):
            if candidates.frame_index == 3:
                raise ValidationError("frame 3 is malformed")
            return real_fuse(candidates, *args)

        monkeypatch.setattr(propfuse.pipeline, "fuse_candidates", fuse)
        manifest = load_manifest(clean_dir)
        run = run_pipeline(manifest, PipelineConfig(k=k, method="wbf"), keep_going=True)
        assert run.report["errors"] == [{"frame": 3, "error": "frame 3 is malformed"}]
        assert sorted(run.labels) == [t for t in manifest.frame_indices() if t != 3]

    @pytest.mark.parametrize("k", [1, 2])
    def test_keep_going_lets_programming_errors_through(self, clean_dir, monkeypatch, k):
        def fuse(*args):
            raise RuntimeError("bug")

        monkeypatch.setattr(propfuse.pipeline, "fuse_candidates", fuse)
        manifest = load_manifest(clean_dir)
        with pytest.raises(RuntimeError, match="bug"):
            run_pipeline(manifest, PipelineConfig(k=k, method="wbf"), keep_going=True)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_provider_holds_nothing_after_the_run(self, noisy_dir, monkeypatch, seed):
        built = []

        def build(manifest, config):
            built.append(build_provider(manifest, config))
            return built[-1]

        monkeypatch.setattr(propfuse.pipeline, "build_provider", build)
        manifest = load_manifest(noisy_dir)
        targets = manifest.frame_indices()
        random.Random(seed).shuffle(targets)
        run = run_pipeline(manifest, PipelineConfig(k=2), targets=targets)
        assert sorted(run.labels) == sorted(targets)
        assert built[0].held_frames() == set()

    def test_provider_holds_at_most_the_window(self, noisy_dir, monkeypatch):
        k = 2
        held = []

        class Watched(PatchDescriptor):
            def embed_many(self, frame_index, boxes):
                out = super().embed_many(frame_index, boxes)
                held.append(len(self.held_frames()))
                return out

        monkeypatch.setattr(
            propfuse.pipeline,
            "build_provider",
            lambda manifest, config: Watched(manifest.frame_image, config.patch_size),
        )
        manifest = load_manifest(noisy_dir)
        run_pipeline(manifest, PipelineConfig(k=k))
        assert len(manifest.frame_indices()) > 2 * k + 1
        assert held and max(held) <= 2 * k + 1

    def test_failed_label_write_leaves_no_partial_file(self, tmp_path, clean_dir, monkeypatch):
        out = tmp_path / "out"
        manifest = load_manifest(clean_dir)
        config = PipelineConfig(k=1)
        run_pipeline(manifest, config, out_dir=tmp_path / "whole")
        whole = read_labels_tree(tmp_path / "whole")
        real_open = open
        opened = []

        class HalfWrite:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[: len(data) // 2])
                self.fh.flush()
                raise OSError(28, "No space left on device")

        def failing_open(path, mode="r", *args, **kwargs):
            fh = real_open(path, mode, *args, **kwargs)
            if "w" not in mode:
                return fh
            opened.append(path)
            return HalfWrite(fh) if len(opened) == 3 else fh

        monkeypatch.setattr(propfuse.io, "open", failing_open, raising=False)
        with pytest.raises(OSError, match="No space"):
            run_pipeline(manifest, config, out_dir=out)
        assert os.path.basename(opened[2]).endswith(".tmp")
        names = sorted(p.name for p in (out / "labels").iterdir())
        assert names == sorted(whole)[:2]
        assert read_labels_tree(out) == {n: whole[n] for n in names}

    def test_serial_run_starts_no_thread_and_stops_at_first_failure(self, clean_dir, monkeypatch):
        def no_thread(*args, **kwargs):
            raise AssertionError("a run must not start a thread")

        seen = []

        def fuse(candidates, *args):
            seen.append(candidates.frame_index)
            raise ValidationError("broken")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        monkeypatch.setattr(propfuse.pipeline, "fuse_candidates", fuse)
        manifest = load_manifest(clean_dir)
        with pytest.raises(ValidationError):
            run_pipeline(manifest, PipelineConfig(k=1, method="wbf"))
        assert seen == [manifest.frame_indices()[0]]

    def test_labels_and_eval_do_not_depend_on_the_interpreter_sum(self, tmp_path, monkeypatch):
        # from Python 3.12 builtin sum() of floats is compensated; on the crowd
        # bundle (wbf k=1) that moves label scores and mAP digits wherever
        # fusion or evaluation adds floats with sum()
        assert compensated_sum([1.0, 1e100, 1.0, -1e100]) == 2.0
        manifest_path = write_bundle(_bundles.crowd_bundle(), tmp_path / "in")
        gt = manifest_path.parent / "gt.jsonl"

        def outputs(name):
            out = tmp_path / name
            config = PipelineConfig(k=1, method="wbf")
            run_pipeline(load_manifest(manifest_path), config, out_dir=out)
            argv = ["eval", "--dets", str(out / "labels"), "--gt", str(gt)]
            assert main(argv + ["--out", str(out / "eval.json")]) == 0
            return read_labels_tree(out), (out / "eval.json").read_bytes()

        plain = outputs("plain")
        for module in (propfuse.fusion, propfuse.evaluation):
            monkeypatch.setattr(module, "sum", compensated_sum, raising=False)
        assert outputs("compensated") == plain

    def test_every_crowd_label_equals_the_oracle(self, tmp_path):
        # wbf k=1 over many overlapping boxes: each fused box is the
        # brute-force fusion of the brute-force candidates, score for score
        # (boxes to 1e-9, as in criterion 1: the oracle recomputes a lone
        # member's box as s * x / s), and each written line is that box's line
        bundle = _bundles.crowd_bundle()
        manifest = load_manifest(write_bundle(bundle, tmp_path / "in"))
        cfg = PipelineConfig(k=1, method="wbf")
        run = run_pipeline(manifest, cfg, out_dir=tmp_path / "out")
        n = bundle.spec.length
        labels = {}
        for t in range(n):
            teacher = manifest.teacher_labels(t).detections
            labels[t] = [(d.class_id, d.bbox.as_tuple(), d.score) for d in teacher]
        flows = {**bundle.forward_flows, **bundle.backward_flows}
        fields = {pair: f.data for pair, f in flows.items()}
        size = bundle.size
        most = 0
        for t in range(n):
            cands = ref_candidates(
                t, 1, labels, fields, size.width, size.height,
                cfg.teacher_threshold, cfg.composition, cfg.min_coverage,
            )
            sources = 1 + (t > 0) + (t < n - 1)
            want = []
            for c in range(len(bundle.classes)):
                pairs = [(s, b) for cls, b, s, _, _ in cands if cls == c]
                most = max(most, len(pairs))
                for box, score in oracle_wbf(pairs, cfg.iou_threshold, sources, cfg.post_threshold):
                    want.append((c, box, score))
            want.sort(key=lambda e: (-e[2], e[1]))
            got = [(d.class_id, d.bbox.as_tuple(), d.score) for d in run.labels[t].detections]
            assert len(got) > 25
            assert [(c, s) for c, _, s in got] == [(c, s) for c, _, s in want]
            for (_, box, _), (_, ref, _) in zip(got, want):
                assert max(abs(a - b) for a, b in zip(box, ref)) <= 1e-9, (box, ref)
            lines = "".join(
                per_value_line(DetectionRecord(t, bundle.classes[c], box, score)) + "\n"
                for c, box, score in want
            )
            assert (tmp_path / "out" / "labels" / f"fused_{t:06d}.jsonl").read_text() == lines
        assert most >= 40


def _bundles_simple_spec():
    from propfuse.geometry import FrameSize
    from propfuse.synth import ObjectSpec, SceneSpec

    return SceneSpec(
        size=FrameSize(96, 72),
        length=5,
        classes=["car", "person"],
        objects=[
            ObjectSpec.linear(0, (20.0, 14.0), (4.0, 10.0), (6.0, 2.0), 5),
            ObjectSpec.linear(1, (10.0, 16.0), (70.0, 40.0), (-3.0, 0.0), 5, color=240),
        ],
        seed=7,
    )


class TestCli:
    def test_parse_frames(self):
        assert _parse_frames("2:5,7") == [range(2, 5), range(7, 8)]
        assert _parse_frames("3") == [range(3, 4)]
        with pytest.raises(CliUsageError):
            _parse_frames("nope")
        with pytest.raises(CliUsageError):
            _parse_frames(",")
        # an empty a:b range is named, not dropped in favour of the other tokens
        for text, token in (("5:3,7", "5:3"), ("7, 4:4", "4:4"), ("2:5,9:-1", "9:-1")):
            with pytest.raises(CliUsageError) as err:
                _parse_frames(text)
            assert str(err.value) == f"empty frame range {token!r} in --frames: need a < b in a:b"

    def test_reversed_frame_range_exits_one(self, tmp_path, clean_dir, capsys):
        out = tmp_path / "o"
        rc = main(["pipeline", "--manifest", str(clean_dir), "--out", str(out), "--frames", "5:3,7"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: empty frame range '5:3' in --frames: need a < b in a:b\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", ["selfcheck", "eval", "eval --csv"])
    def test_out_in_a_missing_directory_names_the_path(self, tmp_path, clean_dir, capsys, command):
        gt = str(clean_dir.parent / "gt.jsonl")
        target = tmp_path / "nodir" / "r.json"
        if command == "selfcheck":
            argv = ["selfcheck", "--manifest", str(clean_dir), "--frame", "2", "--out", str(target)]
        else:
            argv = ["eval", "--dets", gt, "--gt", gt, "--out", str(tmp_path / "r.json")]
            if command == "eval":
                argv[-1] = str(target)
            else:
                target = target.with_suffix(".csv")
                argv += ["--csv", str(target)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{target}'\n"
        # no temporary file is left beside the report, and none is named
        left = sorted(p.name for p in tmp_path.iterdir())
        assert left == (["r.json"] if command == "eval --csv" else [])

    def test_unknown_frames_named_in_a_bounded_line(self, tmp_path, clean_dir, capsys):
        # the 8-frame bundle against a range of 300,000: the line gives the
        # count and the first few frames, not every one of them
        out = tmp_path / "o"
        rc = main(["pipeline", "--manifest", str(clean_dir), "--out", str(out), "--frames", "0:300000"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "error: 299992 target frames not in manifest: [8, 9, 10, 11, 12, ...]\n"
        rc = main(["pipeline", "--manifest", str(clean_dir), "--out", str(out), "--frames", "2,9"])
        assert rc == 1
        assert capsys.readouterr().err == "error: 1 target frames not in manifest: [9]\n"

    def test_huge_frame_range_checked_without_listing_it(self, tmp_path, clean_dir, capsys):
        # a range of 10**12 frames is merged with the overlapping tokens and
        # counted against the 8-frame manifest, never expanded
        out = tmp_path / "o"
        frames = "0:1000000000000,5,999999999990:1000000000001,3:9"
        started = time.perf_counter()
        rc = main(["pipeline", "--manifest", str(clean_dir), "--out", str(out), "--frames", frames])
        assert time.perf_counter() - started < 1.0
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "error: 999999999993 target frames not in manifest: [8, 9, 10, 11, 12, ...]\n"
        assert not out.exists()

    def test_pipeline_then_eval_is_perfect(self, tmp_path, clean_dir, capsys):
        out = tmp_path / "run"
        rc = main(
            [
                "pipeline",
                "--manifest",
                str(clean_dir),
                "--out",
                str(out),
                "--method",
                "swbf",
                "--k",
                "1",
            ]
        )
        assert rc == 0
        assert capsys.readouterr().out.strip() == str(out / "run_report.json")

        report_path = tmp_path / "eval.json"
        csv_path = tmp_path / "eval.csv"
        rc = main(
            [
                "eval",
                "--dets",
                str(out / "labels"),
                "--gt",
                str(clean_dir.parent / "gt.jsonl"),
                "--out",
                str(report_path),
                "--csv",
                str(csv_path),
            ]
        )
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert report["map50"] == 1.0
        assert csv_path.read_text().splitlines()[0].startswith("map,map50,map75")

    def test_propagate_plus_fuse_matches_pipeline(self, tmp_path, clean_dir, noisy_dir):
        # the two-step route writes the pipeline's bytes for every frame, at
        # k=0 (teacher labels, no fusion and no provider) as at k=1 and 3
        for manifest, k, method in [(clean_dir, 1, "swbf")] + [
            (noisy_dir, k, method) for k in (0, 1, 3) for method in ("swbf", "wbf")
        ]:
            pipe_out = tmp_path / f"pipe_{manifest.parent.name}_{k}_{method}"
            flags = ["--k", str(k), "--method", method]
            run = ["pipeline", "--manifest", str(manifest), "--out", str(pipe_out)]
            assert main(run + flags) == 0
            for t in load_manifest(manifest).frame_indices():
                cand_path = tmp_path / f"cand_{t}.jsonl"
                propagate = ["propagate", "--manifest", str(manifest), "--frame", str(t)]
                assert main(propagate + ["--k", str(k), "--out", str(cand_path)]) == 0
                fused_path = tmp_path / f"fused_{t}.jsonl"
                fuse = ["fuse", "--in", str(cand_path), "--out", str(fused_path), "--method", method]
                # at k=0 swbf rescores nothing, so fuse needs no frame pixels
                if k > 0:
                    fuse += ["--manifest", str(manifest)]
                assert main(fuse) == 0
                expected = pipe_out / "labels" / f"fused_{t:06d}.jsonl"
                assert fused_path.read_bytes() == expected.read_bytes(), (k, method, t)

    def test_fuse_swbf_needs_manifest(self, tmp_path, clean_dir, capsys):
        cand_path = tmp_path / "cand.jsonl"
        main(
            [
                "propagate",
                "--manifest",
                str(clean_dir),
                "--frame",
                "4",
                "--k",
                "1",
                "--out",
                str(cand_path),
            ]
        )
        rc = main(
            ["fuse", "--in", str(cand_path), "--method", "swbf", "--out", str(tmp_path / "x.jsonl")]
        )
        assert rc == 1
        assert "--manifest" in capsys.readouterr().err

    def test_selfcheck_reports_roundtrip(self, tmp_path, clean_dir):
        out = tmp_path / "check.json"
        rc = main(
            [
                "selfcheck",
                "--manifest",
                str(clean_dir),
                "--frame",
                "2",
                "--hops",
                "2",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["frame"] == 2
        assert report["k_hops"] == 2
        assert report["mean_iou"] == 1.0
        assert abs(sum(report["pmf"]) - 1.0) < 1e-9

    def test_synth_subcommand(self, tmp_path, capsys):
        spec_path = tmp_path / "scene.json"
        spec_path.write_text(
            json.dumps(
                {
                    "size": [64, 48],
                    "length": 3,
                    "classes": ["car"],
                    "objects": [
                        {"class": "car", "size": [12, 10], "start": [4, 4], "velocity": [2, 1]}
                    ],
                }
            )
        )
        rc = main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "bundle")])
        assert rc == 0
        manifest_path = tmp_path / "bundle" / "manifest.json"
        assert capsys.readouterr().out.strip() == str(manifest_path)
        m = load_manifest(manifest_path)
        assert m.frame_indices() == [0, 1, 2]

    def test_synth_rejects_bad_json(self, tmp_path, capsys):
        spec_path = tmp_path / "scene.json"
        spec_path.write_text("{not json")
        rc = main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "bundle")])
        assert rc == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_synth_rejects_undecodable_spec(self, tmp_path, capsys):
        spec_path = tmp_path / "scene.json"
        spec_path.write_bytes(b'{"classes": ["\xff"]}')
        rc = main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "bundle")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {spec_path}:1: not utf-8 text")

    def test_exit_codes(self, tmp_path, clean_dir, capsys, monkeypatch):
        # missing manifest file: I/O problem
        rc = main(
            ["pipeline", "--manifest", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]
        )
        assert rc == 2

        # bad flag value: usage problem
        rc = main(
            [
                "pipeline",
                "--manifest",
                str(clean_dir),
                "--out",
                str(tmp_path / "o2"),
                "--method",
                "magic",
            ]
        )
        assert rc == 1

        # unknown subcommand
        assert main(["transmogrify"]) == 1

        # truncated motion field file: I/O problem
        bundle_dir = tmp_path / "trunc"
        write_bundle(generate(_bundles_simple_spec()), bundle_dir)
        flo = bundle_dir / "flows" / "fw_0001_0002.flo"
        flo.write_bytes(flo.read_bytes()[:10])
        rc = main(
            [
                "pipeline",
                "--manifest",
                str(bundle_dir / "manifest.json"),
                "--out",
                str(tmp_path / "o3"),
                "--method",
                "wbf",
                "--k",
                "1",
            ]
        )
        assert rc == 2

        # invalid log level
        monkeypatch.setenv("PROPFUSE_LOG", "chatty")
        assert main(["synth", "--spec", "x", "--out", "y"]) == 1
        monkeypatch.setenv("PROPFUSE_LOG", "debug")
        capsys.readouterr()

    def test_keep_going_flag_returns_one(self, tmp_path):
        write_bundle(generate(_bundles_simple_spec()), tmp_path / "bundle")
        (tmp_path / "bundle" / "dets" / "det_0001.jsonl").write_text("garbage\n")
        rc = main(
            [
                "pipeline",
                "--manifest",
                str(tmp_path / "bundle" / "manifest.json"),
                "--out",
                str(tmp_path / "out"),
                "--method",
                "wbf",
                "--k",
                "0",
                "--keep-going",
            ]
        )
        assert rc == 1
        report = json.loads((tmp_path / "out" / "run_report.json").read_text())
        assert [e["frame"] for e in report["errors"]] == [1]

    def test_bogus_config_choice_fails_before_any_frame(self, tmp_path, clean_dir, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("match = bogus\n")
        out = tmp_path / "out"
        rc = main(
            [
                "pipeline",
                "--manifest",
                str(clean_dir),
                "--out",
                str(out),
                "--config",
                str(cfg_file),
                "--k",
                "0",
            ]
        )
        assert rc == 1
        assert "match" in capsys.readouterr().err
        assert not list(out.glob("labels/*.jsonl"))

    def test_fuse_reports_malformed_candidate_file(self, tmp_path, capsys):
        cand = tmp_path / "cand.jsonl"
        cand.write_text('{"type": "candidate_meta", "frame": 2, "k": 1}\n')
        rc = main(["fuse", "--in", str(cand), "--method", "wbf", "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: {cand}:1: ")
        assert "Traceback" not in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "header, method, message",
        [
            ('"effective_sources": 2, "k": -1', "wbf", "k must be >= 0, got -1"),
            ('"effective_sources": 2, "k": -1', "swbf", "k must be >= 0, got -1"),
            ('"effective_sources": 0, "k": 1', "wbf", "effective_sources must be >= 1, got 0"),
        ],
        ids=["negative-k-wbf", "negative-k-swbf", "no-sources"],
    )
    def test_candidate_header_out_of_range_names_file_and_line(
        self, tmp_path, capsys, header, method, message
    ):
        cand = tmp_path / "cand.jsonl"
        cand.write_text(
            '{"type": "candidate_meta", "frame": 3, ' + header + "}\n"
            '{"frame": 3, "class": "car", "bbox": [1, 2, 3, 4], "score": 0.5}\n'
        )
        rc = main(["fuse", "--in", str(cand), "--method", method, "--out", str(tmp_path / "x")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {cand}:1: {message}\n"
        assert not (tmp_path / "x").exists()

    def test_fuse_names_every_unknown_class_of_the_file(self, tmp_path, clean_dir, capsys):
        cand = tmp_path / "cand.jsonl"
        names = ["zebra", "car", "apple", "mango", "kiwi", "zebra"]
        cand.write_text(
            "".join(
                json.dumps({"frame": 3, "class": name, "bbox": [1, 2, 3, 4], "score": 0.5}) + "\n"
                for name in names
            )
        )
        argv = ["fuse", "--in", str(cand), "--out", str(tmp_path / "x"), "--method", "wbf"]
        assert main(argv + ["--manifest", str(clean_dir)]) == 1
        assert capsys.readouterr().err == f"error: {cand}: unknown classes: apple, kiwi, mango, zebra\n"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command", ["pipeline", "selfcheck"])
    def test_unknown_teacher_classes_name_the_file_and_every_class(
        self, tmp_path, clean_dir, capsys, command
    ):
        root = tmp_path / "bundle"
        shutil.copytree(clean_dir.parent, root)
        dets = root / "dets" / "det_0002.jsonl"
        dets.write_text(
            "".join(
                json.dumps({"frame": 2, "class": name, "bbox": [1, 2, 3, 4], "score": 0.5}) + "\n"
                for name in ("zebra", "bus", "car")
            )
        )
        argv = [command, "--manifest", str(root / "manifest.json"), "--out", str(tmp_path / "o")]
        if command == "selfcheck":
            argv += ["--frame", "2", "--source", "dets"]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {dets}: unknown classes: bus, zebra\n"

    def test_unknown_ground_truth_class_names_the_file(self, tmp_path, clean_dir, capsys):
        root = tmp_path / "bundle"
        shutil.copytree(clean_dir.parent, root)
        gt = root / "gt.jsonl"
        with gt.open("a") as fh:
            fh.write('{"frame": 5, "class": "zebra", "bbox": [1, 2, 3, 4], "score": 1.0}\n')
        argv = ["selfcheck", "--manifest", str(root / "manifest.json"), "--frame", "2"]
        assert main(argv + ["--out", str(tmp_path / "r.json")]) == 1
        assert capsys.readouterr().err == f"error: {gt}: unknown classes: zebra\n"

    def _precomputed_bundle(self, tmp_path, clean_dir, embeddings: bytes) -> Path:
        """A copy of the clean bundle whose manifest names the given embeddings file."""
        root = tmp_path / "bundle"
        shutil.copytree(clean_dir.parent, root)
        (root / "emb.jsonl").write_bytes(embeddings)
        manifest = json.loads((root / "manifest.json").read_text())
        manifest["embeddings"] = "emb.jsonl"
        (root / "manifest.json").write_text(json.dumps(manifest))
        return root

    @pytest.mark.parametrize(
        "embeddings, where",
        [
            (b'{"frame": 0, "box": [1, 2, 3, 4], "vec": [0.5]}\n{"frame": "zero"}\n', ":2: "),
            (b'{"frame": 0, "box": [1, 2, 3, 4], "vec": [0.5\xff]}\n', ":1: not ascii text"),
            (
                b'{"frame": 0, "box": ["1", "2", "3", "4"], "vec": [0.5]}\n',
                ":1: non-numeric box: ['1', '2', '3', '4']\n",
            ),
            (
                b'{"frame": 0, "box": [1, 2, 3, 4], "vec": ["0.5", true]}\n',
                ":1: malformed embedding record: vec must be a number, got str '0.5'\n",
            ),
            (
                b'{"frame": 0, "box": [1, 2, 3, 4], "vec": [0.5, true]}\n',
                ":1: malformed embedding record: vec must be a number, got bool True\n",
            ),
        ],
        ids=["malformed-record", "undecodable", "text-box", "text-vec", "bool-vec"],
    )
    def test_bad_embeddings_file_exits_one(self, tmp_path, clean_dir, capsys, embeddings, where):
        root = self._precomputed_bundle(tmp_path, clean_dir, embeddings)
        argv = ["pipeline", "--manifest", str(root / "manifest.json"), "--out", str(tmp_path / "o")]
        rc = main(argv + ["--feature-provider", "precomputed"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: {root / 'emb.jsonl'}{where}")

    def test_undecodable_detections_file_exits_one(self, tmp_path, capsys):
        dets = tmp_path / "cand.jsonl"
        dets.write_bytes(b'{"frame": 0, "class": "caf\xc3\xa9", "bbox": [0, 0, 5, 5], "score": 0.9}\n')
        rc = main(["fuse", "--in", str(dets), "--method", "wbf", "--out", str(tmp_path / "x")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {dets}:1: not ascii text")

    def test_undecodable_manifest_exits_one(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_bytes(b'{"size": [4, 4],\n "classes": ["\xff"]}\n')
        rc = main(["pipeline", "--manifest", str(manifest), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {manifest}:2: not utf-8 text")

    def test_undecodable_config_file_exits_one(self, tmp_path, clean_dir, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_bytes(b"k = 1\n# caf\xe9\n")
        argv = ["pipeline", "--manifest", str(clean_dir), "--out", str(tmp_path / "o")]
        with pytest.raises(CliUsageError):
            parse_config_file(cfg_file)
        rc = main(argv + ["--config", str(cfg_file)])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {cfg_file}:2: not utf-8 text")

    def test_eval_rejects_unknown_class(self, tmp_path, clean_dir, capsys):
        dets = tmp_path / "dets.jsonl"
        dets.write_text(
            '{"frame": 0, "class": "bike", "bbox": [0.000000, 0.000000, 5.000000, 5.000000], "score": 0.900000}\n'
        )
        rc = main(
            [
                "eval",
                "--dets",
                str(dets),
                "--gt",
                str(clean_dir.parent / "gt.jsonl"),
                "--out",
                str(tmp_path / "r.json"),
            ]
        )
        assert rc == 1
        assert "bike" in capsys.readouterr().err

    def test_eval_names_the_first_label_file_with_unknown_classes(self, tmp_path, clean_dir, capsys):
        tree = tmp_path / "labels"
        tree.mkdir()
        line = '{"frame": 0, "class": "%s", "bbox": [0, 0, 5, 5], "score": 0.9}\n'
        (tree / "a.jsonl").write_text(line % "car")
        (tree / "b.jsonl").write_text(line % "bike" + line % "abc")
        (tree / "c.jsonl").write_text(line % "zebra")
        gt = str(clean_dir.parent / "gt.jsonl")
        out = tmp_path / "r.json"
        rc = main(["eval", "--dets", str(tree), "--gt", gt, "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {tree / 'b.jsonl'}: unknown classes: abc, bike\n"
        assert not out.exists()

    def test_eval_ignores_ground_truth_outside_classes(self, tmp_path, clean_dir):
        gt = clean_dir.parent / "gt.jsonl"
        gt_lines = gt.read_text(encoding="ascii").splitlines()
        car_lines = [line for line in gt_lines if json.loads(line)["class"] == "car"]
        assert 0 < len(car_lines) < len(gt_lines)
        dets = tmp_path / "cars.jsonl"
        dets.write_text("".join(line + "\n" for line in car_lines), encoding="ascii")
        out = tmp_path / "r.json"
        rc = main(
            ["eval", "--dets", str(dets), "--gt", str(gt), "--classes", "car", "--out", str(out)]
        )
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["n_ground_truth"] == len(car_lines)
        assert report["classes"] == ["car"]
        assert report["per_class_ap50"] == {"car": 1.0}

    def test_eval_rejects_a_bad_line_of_an_unlisted_class(self, tmp_path, clean_dir, capsys):
        # a reversed box scored 7, on a class --classes leaves out
        gt = tmp_path / "gt.jsonl"
        lines = (clean_dir.parent / "gt.jsonl").read_text(encoding="ascii").splitlines()
        lines.insert(1, '{"frame": 0, "class": "person", "bbox": [9, 9, 1, 1], "score": 7}')
        gt.write_text("".join(line + "\n" for line in lines), encoding="ascii")
        argv = ["eval", "--dets", str(gt), "--gt", str(gt), "--classes", "car"]
        rc = main(argv + ["--out", str(tmp_path / "r.json")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == f"error: {gt}:2: degenerate bbox [9, 9, 1, 1]: need x1 < x2 and y1 < y2\n"

    @pytest.mark.parametrize(
        "field, message",
        [
            ('"bbox": [5.0, 5.0, 5.0, 9.0], "score": 0.5', "degenerate bbox"),
            ('"bbox": [1.0, 2.0, 3.0, 4.0], "score": 1.5', "score must lie in [0, 1], got 1.5"),
            ('"bbox": [1.0, 2.0, 3.0, 4.0], "score": true', "score must be a number"),
        ],
        ids=["degenerate-box", "score-out-of-range", "bool-score"],
    )
    @pytest.mark.parametrize("role", ["dets", "gt", "fuse", "teacher"])
    def test_bad_box_or_score_names_file_and_line(self, tmp_path, clean_dir, capsys, field, message, role):
        bad_line = '{"frame": 0, "class": "car", ' + field + "}\n"
        bundle = tmp_path / "bundle"
        shutil.copytree(clean_dir.parent, bundle)
        if role == "teacher":
            bad = sorted((bundle / "dets").glob("*.jsonl"))[0]
            argv = ["propagate", "--manifest", str(bundle / "manifest.json"), "--frame", "0"]
        elif role == "fuse":
            bad = tmp_path / "cand.jsonl"
            argv = ["fuse", "--in", str(bad), "--method", "wbf"]
        else:
            bad = bundle / "gt.jsonl" if role == "gt" else tmp_path / "dets.jsonl"
            dets = bad if role == "dets" else bundle / "dets"
            argv = ["eval", "--dets", str(dets), "--gt", str(bundle / "gt.jsonl")]
        first = bad.read_text(encoding="ascii").splitlines()[:1] if bad.exists() else []
        bad.write_text("".join(line + "\n" for line in first) + bad_line, encoding="ascii")
        rc = main(argv + ["--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: {bad}:{len(first) + 1}: {message}")
        assert not (tmp_path / "out").exists()

    def test_module_entrypoint(self, tmp_path):
        spec_path = tmp_path / "scene.json"
        spec_path.write_text(
            json.dumps(
                {
                    "size": [48, 36],
                    "length": 2,
                    "classes": ["car"],
                    "objects": [
                        {"class": "car", "size": [10, 8], "start": [4, 4], "velocity": [1, 0]}
                    ],
                }
            )
        )
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "propfuse.cli",
                "synth",
                "--spec",
                str(spec_path),
                "--out",
                str(tmp_path / "bundle"),
            ],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(Path(propfuse.__file__).parent.parent)},
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "bundle" / "manifest.json").is_file()


class TestInputThatParsesButMisleads:
    """Input each reader accepts that does not fit the sequence: the run names it."""

    def bundle(self, tmp_path, clean_dir):
        root = tmp_path / "bundle"
        shutil.copytree(clean_dir.parent, root)
        return root

    def pipeline(self, root, tmp_path):
        return main(["pipeline", "--manifest", str(root / "manifest.json"), "--out", str(tmp_path / "o")])

    def test_flow_of_another_size(self, tmp_path, clean_dir, capsys):
        root = self.bundle(tmp_path, clean_dir)
        flo = root / "flows" / "fw_0002_0003.flo"
        write_flow(constant_field(FrameSize(7, 5), 1.0, 0.0), flo)
        manifest = load_manifest(root / "manifest.json")
        with pytest.raises(FlowFormatError) as err:
            run_pipeline(manifest, PipelineConfig(k=1))
        message = f"{flo}: field is 7x5, frames are 96x72"
        assert str(err.value) == message
        assert self.pipeline(root, tmp_path) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_detection_line_for_another_frame(self, tmp_path, clean_dir, capsys):
        root = self.bundle(tmp_path, clean_dir)
        dets = root / "dets" / "det_0002.jsonl"
        lines = dets.read_text(encoding="ascii").splitlines()
        assert len(lines) == 2
        dets.write_text(lines[0] + "\n" + lines[1].replace('"frame": 2,', '"frame": 7,') + "\n")
        manifest = load_manifest(root / "manifest.json")
        with pytest.raises(ValidationError) as err:
            run_pipeline(manifest, PipelineConfig(k=1))
        message = f"{dets}:2: record names frame 7, expected frame 2"
        assert str(err.value) == message
        assert self.pipeline(root, tmp_path) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
