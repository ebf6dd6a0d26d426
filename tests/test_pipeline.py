import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import propfuse
import propfuse.pipeline
from propfuse.cli import _config_from_args, _parse_frames, build_parser, main
from propfuse.errors import CliUsageError, ValidationError
from propfuse.manifest import load_manifest
from propfuse.pipeline import (
    PipelineConfig,
    load_config,
    parse_config_file,
    run_pipeline,
    validate_flow_coverage,
)
from propfuse.synth import generate, write_bundle

import _bundles


def thresholded_lines(det_path, threshold):
    kept = []
    for line in det_path.read_text(encoding="ascii").splitlines():
        if json.loads(line)["score"] > threshold:
            kept.append(line + "\n")
    return "".join(kept)


def read_labels_tree(out_dir):
    return {p.name: p.read_bytes() for p in sorted((out_dir / "labels").glob("*.jsonl"))}


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

    def test_invalid_combination_rejected(self):
        with pytest.raises(ValidationError):
            PipelineConfig(iou_threshold=1.0)
        with pytest.raises(ValidationError):
            PipelineConfig(k=-1)
        with pytest.raises(ValidationError):
            PipelineConfig(method="magic")

    def test_every_choice_field_is_validated(self):
        with pytest.raises(ValidationError) as err:
            PipelineConfig(match="bogus")
        assert "match" in str(err.value)
        for f in dataclasses.fields(PipelineConfig):
            if "choices" in f.metadata:
                with pytest.raises(ValidationError):
                    PipelineConfig(**{f.name: "bogus"})


def _non_default(f: dataclasses.Field):
    """A valid value of a config field that differs from its default."""
    if "choices" in f.metadata:
        return next(c for c in reversed(f.metadata["choices"]) if c != f.default)
    if propfuse.pipeline.FIELD_TYPES[f.name] is int:
        return (f.default or 1) + 1
    return 0.3


@pytest.mark.parametrize("f", dataclasses.fields(PipelineConfig), ids=lambda f: f.name)
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

    def test_parallel_matches_serial(self, tmp_path, noisy_dir):
        manifest = load_manifest(noisy_dir)
        base = PipelineConfig(k=1, method="swbf")
        out1 = tmp_path / "serial"
        out4 = tmp_path / "parallel"
        run_pipeline(manifest, base, out_dir=out1)
        run_pipeline(manifest, base.replace(jobs=4), out_dir=out4)
        assert read_labels_tree(out1) == read_labels_tree(out4)

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

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_keep_going_records_validation_errors(self, clean_dir, monkeypatch, jobs):
        real_fuse = propfuse.pipeline.fuse_candidates

        def fuse(candidates, *args):
            if candidates.frame_index == 3:
                raise ValidationError("frame 3 is malformed")
            return real_fuse(candidates, *args)

        monkeypatch.setattr(propfuse.pipeline, "fuse_candidates", fuse)
        manifest = load_manifest(clean_dir)
        cfg = PipelineConfig(k=1, method="wbf", jobs=jobs)
        run = run_pipeline(manifest, cfg, keep_going=True)
        assert run.report["errors"] == [{"frame": 3, "error": "frame 3 is malformed"}]
        assert sorted(run.labels) == [t for t in manifest.frame_indices() if t != 3]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_keep_going_lets_programming_errors_through(self, clean_dir, monkeypatch, jobs):
        def fuse(*args):
            raise RuntimeError("bug")

        monkeypatch.setattr(propfuse.pipeline, "fuse_candidates", fuse)
        manifest = load_manifest(clean_dir)
        with pytest.raises(RuntimeError, match="bug"):
            run_pipeline(manifest, PipelineConfig(k=1, method="wbf", jobs=jobs), keep_going=True)

    def test_serial_run_starts_no_thread_and_stops_at_first_failure(self, clean_dir, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("jobs=1 must not start a thread pool")

        seen = []

        def fuse(candidates, *args):
            seen.append(candidates.frame_index)
            raise ValidationError("broken")

        monkeypatch.setattr(propfuse.pipeline, "ThreadPoolExecutor", no_pool)
        monkeypatch.setattr(propfuse.pipeline, "fuse_candidates", fuse)
        manifest = load_manifest(clean_dir)
        with pytest.raises(ValidationError):
            run_pipeline(manifest, PipelineConfig(k=1, method="wbf"))
        assert seen == [manifest.frame_indices()[0]]


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
        assert _parse_frames("2:5,7") == [2, 3, 4, 7]
        assert _parse_frames("3") == [3]
        with pytest.raises(CliUsageError):
            _parse_frames("nope")
        with pytest.raises(CliUsageError):
            _parse_frames(",")

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

    def test_propagate_plus_fuse_matches_pipeline(self, tmp_path, clean_dir):
        pipe_out = tmp_path / "pipe"
        assert (
            main(
                [
                    "pipeline",
                    "--manifest",
                    str(clean_dir),
                    "--out",
                    str(pipe_out),
                    "--method",
                    "swbf",
                    "--k",
                    "1",
                ]
            )
            == 0
        )
        cand_path = tmp_path / "cand_4.jsonl"
        assert (
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
            == 0
        )
        fused_path = tmp_path / "fused_4.jsonl"
        assert (
            main(
                [
                    "fuse",
                    "--in",
                    str(cand_path),
                    "--method",
                    "swbf",
                    "--manifest",
                    str(clean_dir),
                    "--out",
                    str(fused_path),
                ]
            )
            == 0
        )
        assert fused_path.read_bytes() == (pipe_out / "labels" / "fused_000004.jsonl").read_bytes()

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
