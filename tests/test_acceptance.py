"""Acceptance suite: one test per shipping criterion, one printed line each.

Run `pytest tests/test_acceptance.py -v -s` to see the [PASS]/[FAIL] line for
every criterion (without -s the lines are captured like any other output).
Each test is self-contained and uses only the public package surface plus the
independent reference implementations in _oracles.py.
"""

import json
import math
import random
import time
from contextlib import contextmanager

import numpy as np

from propfuse.cli import main
from propfuse.errors import FlowFormatError, FlowLengthError
from propfuse.evaluation import IOU_THRESHOLDS, average_precision, evaluate, self_consistency
from propfuse.fusion import FusionConfig, fuse_candidates
from propfuse.geometry import BBox, Detection, FrameSize
from propfuse.manifest import load_manifest
from propfuse.motion import MotionField, read_flow, write_flow
from propfuse.pipeline import PipelineConfig, run_pipeline
from propfuse.propagation import CandidateSet
from propfuse.similarity import FeatureVector, PrecomputedEmbeddings, cosine_sims, embedding_key
from propfuse.synth import write_bundle

import _bundles
import pytest
from _oracles import oracle_ap, oracle_map, oracle_nms, oracle_wbf, ref_cosine, ref_iou


@contextmanager
def criterion(num, text):
    try:
        yield
    except BaseException:
        print(f"\n[FAIL] criterion {num:2d}: {text}")
        raise
    print(f"\n[PASS] criterion {num:2d}: {text}")


def _boxes(rng, n):
    out = []
    for _ in range(n):
        x1 = rng.uniform(0.0, 70.0)
        y1 = rng.uniform(0.0, 70.0)
        out.append(BBox(x1, y1, x1 + rng.uniform(5.0, 30.0), y1 + rng.uniform(5.0, 30.0)))
    return out


def _candidates(frame, dets, source_boxes=None):
    if source_boxes is None:
        source_boxes = [None] * len(dets)
    return CandidateSet(
        frame_index=frame,
        detections=list(dets),
        source_boxes=source_boxes,
        effective_sources=1,
    )


def _compare(got, want, check_scores_exact=True):
    """got: fused Detections; want: oracle [(box, score), ...]."""
    assert len(got) == len(want), (len(got), len(want))
    want = sorted(want, key=lambda e: (-e[1], e[0]))
    for d, (box, score) in zip(got, want):
        if check_scores_exact:
            assert d.score == score, (d.score, score)
        for a, b in zip(d.bbox.as_tuple(), box):
            assert abs(a - b) <= 1e-9, (d.bbox.as_tuple(), box)


def test_criterion_01_fusion_matches_bruteforce():
    with criterion(1, "1000 random instances: swbf/wbf/nms equal brute force, < 10 s"):
        started = time.perf_counter()
        rng = random.Random(20240811)
        for _ in range(1000):
            n = rng.randint(1, 8)
            boxes = _boxes(rng, n)
            scores = [rng.uniform(0.05, 1.0) for _ in range(n)]
            thr = rng.choice((0.3, 0.45, 0.55))
            ns = rng.randint(1, 5)
            pairs = [(s, b.as_tuple()) for s, b in zip(scores, boxes)]

            cands = _candidates(0, [Detection(0, b, s) for b, s in zip(boxes, scores)])
            got = fuse_candidates(
                cands, FusionConfig(method="wbf", iou_threshold=thr, num_sources=ns)
            ).labels.detections
            _compare(got, oracle_wbf(pairs, thr, ns))

            got = fuse_candidates(
                cands, FusionConfig(method="nms", iou_threshold=thr)
            ).labels.detections
            _compare(got, oracle_nms(pairs, thr))

            # same geometry, now with carried candidates and re-scoring
            frame = rng.randint(2, 40)
            offsets = [rng.choice((0, 0, 1, -1, 2)) for _ in range(n)]
            src_boxes = [None if o == 0 else _boxes(rng, 1)[0] for o in offsets]
            table = {}
            for b, o, sb in zip(boxes, offsets, src_boxes):
                tkey = embedding_key(frame, b)
                tvec = table.setdefault(tkey, np.asarray([rng.uniform(0.05, 1.0) for _ in range(8)]))
                if o != 0:
                    skey = embedding_key(frame - o, sb)
                    if rng.random() < 0.2:
                        table.setdefault(skey, tvec * 0.5)
                    else:
                        table.setdefault(
                            skey, np.asarray([rng.uniform(0.05, 1.0) for _ in range(8)])
                        )
            provider = PrecomputedEmbeddings(
                {k: FeatureVector(v) for k, v in table.items()}
            )
            cands = CandidateSet(
                frame_index=frame,
                detections=[
                    Detection(0, b, s, source_offset=o)
                    for b, s, o in zip(boxes, scores, offsets)
                ],
                source_boxes=src_boxes,
                effective_sources=3,
            )
            got = fuse_candidates(
                cands,
                FusionConfig(method="swbf", iou_threshold=thr, num_sources=ns),
                provider,
            ).labels.detections
            rescored = []
            for b, s, o, sb in zip(boxes, scores, offsets, src_boxes):
                if o != 0:
                    s = s * ref_cosine(
                        table[embedding_key(frame, b)], table[embedding_key(frame - o, sb)]
                    )
                rescored.append((s, b.as_tuple()))
            _compare(got, oracle_wbf(rescored, thr, ns))
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_02_membership_rescale():
    with criterion(2, "lone candidate scaled by exactly 1/3; full clusters untouched"):
        box = BBox(10.0, 10.0, 30.0, 26.0)
        cfg = FusionConfig(method="wbf", iou_threshold=0.5, num_sources=3)

        got = fuse_candidates(_candidates(0, [Detection(0, box, 0.9)]), cfg).labels.detections
        assert len(got) == 1
        assert got[0].score == 0.9 * (1.0 / 3.0)

        member_scores = (0.9, 0.6, 0.3)
        cands = _candidates(0, [Detection(0, box, s) for s in member_scores])
        got = fuse_candidates(cands, cfg).labels.detections
        total = 0.0
        for s in member_scores:
            total += s
        assert len(got) == 1
        assert got[0].score == (total / 3) * 1.0

        five = (0.9, 0.8, 0.7, 0.6, 0.5)
        cands = _candidates(0, [Detection(0, box, s) for s in five])
        got = fuse_candidates(cands, cfg).labels.detections
        total = 0.0
        for s in five:
            total += s
        assert got[0].score == (total / 5) * 1.0


def test_criterion_03_rescoring_never_raises():
    with criterion(3, "10000 re-scores: never above original, equal iff parallel"):
        rng = np.random.default_rng(77)
        violations = 0
        for i in range(10000):
            dim = int(rng.integers(4, 17))
            a = rng.uniform(0.01, 1.0, dim)
            parallel = i % 10 == 0
            if parallel:
                b = a * 2.0 ** (-float(rng.integers(0, 3)))
            else:
                b = rng.uniform(0.01, 1.0, dim)
            score = float(rng.uniform(0.05, 1.0))
            (sim,) = cosine_sims(a[None, :], b[None, :])
            rescored = score * sim
            if rescored > score:
                violations += 1
            if parallel:
                assert rescored == score
            else:
                assert rescored < score
        assert violations == 0


def test_criterion_04_k0_is_passthrough(noisy_dir, clean_dir, tmp_path):
    with criterion(4, "k=0 pipeline output is byte-identical thresholded teacher labels"):
        for name, manifest_path in (("noisy", noisy_dir), ("clean", clean_dir)):
            manifest = load_manifest(manifest_path)
            out = tmp_path / name
            cfg = PipelineConfig(k=0, method="wbf", post_threshold=0.0)
            run_pipeline(manifest, cfg, out_dir=out)
            for t in manifest.frame_indices():
                src = manifest_path.parent / "dets" / f"det_{t:04d}.jsonl"
                kept = [
                    line + "\n"
                    for line in src.read_text(encoding="ascii").splitlines()
                    if json.loads(line)["score"] > cfg.teacher_threshold
                ]
                got = (out / "labels" / f"fused_{t:06d}.jsonl").read_bytes()
                assert got == "".join(kept).encode("ascii")


def test_criterion_05_occlusion_recovery(occlusion_dir, tmp_path):
    with criterion(5, "occluded-frame box recovered at IoU >= 0.9; fused beats teacher"):
        manifest = load_manifest(occlusion_dir)
        run = run_pipeline(
            manifest, PipelineConfig(k=1, method="swbf", post_threshold=0.1), out_dir=tmp_path
        )
        occluded_frame = 3
        gt = manifest.ground_truth()
        gt_car = [d for d in gt[occluded_frame].detections if d.class_id == 0]
        assert len(gt_car) == 1
        fused_car = [d for d in run.labels[occluded_frame].detections if d.class_id == 0]
        assert fused_car, "no box recovered on the occluded frame"
        best = max(
            ref_iou(d.bbox.as_tuple(), gt_car[0].bbox.as_tuple()) for d in fused_car
        )
        assert best >= 0.9, best

        gt_by_frame = {t: ls.detections for t, ls in gt.items()}
        fused = {t: ls.detections for t, ls in run.labels.items()}
        teacher = {
            t: manifest.teacher_labels(t).detections for t in manifest.frame_indices()
        }
        fused_map50 = evaluate(fused, gt_by_frame).map50
        teacher_map50 = evaluate(teacher, gt_by_frame).map50
        assert fused_map50 > teacher_map50, (fused_map50, teacher_map50)


def test_criterion_06_lone_false_positive(type_b_dir, tmp_path):
    with criterion(6, "injected 0.8 one-frame box lands at 0.8/3 and post 0.3 removes it"):
        manifest = load_manifest(type_b_dir)
        fp_box = (90.0, 60.0, 112.0, 80.0)

        cfg = PipelineConfig(k=1, method="wbf", num_sources=3, post_threshold=0.0)
        run = run_pipeline(manifest, cfg, out_dir=tmp_path / "keep")
        at_fp = [
            d
            for d in run.labels[4].detections
            if ref_iou(d.bbox.as_tuple(), fp_box) > 0.9
        ]
        assert len(at_fp) == 1
        assert abs(at_fp[0].score - 0.8 / 3) <= 1e-9

        run = run_pipeline(
            manifest, cfg.replace(post_threshold=0.3), out_dir=tmp_path / "drop"
        )
        for t, labels in run.labels.items():
            for d in labels.detections:
                assert ref_iou(d.bbox.as_tuple(), fp_box) <= 0.1, (t, d)
        # the real object is still reported on the injection frame
        assert any(d.score > 0.3 for d in run.labels[4].detections)


def test_criterion_07_motion_self_consistency():
    with criterion(7, "round trips: fractional mean IoU >= 0.9, integer exactly 1, pmf sums to 1"):
        frac = _bundles.fractional_motion_bundle()
        flows = frac.flow_store()
        labels = frac.ground_truth[0]
        for hops in (1, 2):
            report = self_consistency(labels, flows, hops, frac.size)
            assert report.mean_iou >= 0.9, (hops, report.mean_iou)
            assert abs(sum(report.pmf) - 1.0) <= 1e-9

        whole = _bundles.integer_motion_bundle()
        report = self_consistency(whole.ground_truth[0], whole.flow_store(), 2, whole.size)
        assert report.mean_iou == 1.0
        assert set(report.ious) == {1.0}
        assert abs(sum(report.pmf) - 1.0) <= 1e-9


def test_criterion_08_average_precision():
    with criterion(8, "AP matches brute force to 1e-6; boundary cases exact"):
        gts = [(0, BBox(0.0, 0.0, 10.0, 10.0))]
        dets = [(0, BBox(0.0, 0.0, 10.0, 6.0), 0.9)]
        assert average_precision(dets, gts, 0.50).ap == 1.0
        assert average_precision(dets, gts, 0.75).ap == 0.0

        perfect_gt = {t: [Detection(0, BBox(1.0 * t, 0.0, 1.0 * t + 9.0, 9.0), 1.0)] for t in range(4)}
        perfect_det = {t: [Detection(0, g[0].bbox, 0.9)] for t, g in perfect_gt.items()}
        report = evaluate(perfect_det, perfect_gt)
        assert (report.map, report.map50, report.map75) == (1.0, 1.0, 1.0)

        rng = random.Random(424242)
        dets_by_class = {0: [], 1: []}
        gts_by_class = {0: [], 1: []}
        dets_by_frame = {}
        gts_by_frame = {}
        for t in range(6):
            dets_by_frame[t] = []
            gts_by_frame[t] = []
            for c in (0, 1):
                for _ in range(rng.randint(1, 3)):
                    b = _boxes(rng, 1)[0]
                    gts_by_frame[t].append(Detection(c, b, 1.0))
                    gts_by_class[c].append((t, b.as_tuple()))
                    if rng.random() < 0.75:
                        dx, dy = rng.uniform(-4, 4), rng.uniform(-4, 4)
                        shifted = BBox(b.x1 + dx, b.y1 + dy, b.x2 + dx, b.y2 + dy)
                        s = rng.uniform(0.2, 1.0)
                        dets_by_frame[t].append(Detection(c, shifted, s))
                        dets_by_class[c].append((t, shifted.as_tuple(), s))
                if rng.random() < 0.4:
                    b = _boxes(rng, 1)[0]
                    s = rng.uniform(0.2, 1.0)
                    dets_by_frame[t].append(Detection(c, b, s))
                    dets_by_class[c].append((t, b.as_tuple(), s))
        report = evaluate(dets_by_frame, gts_by_frame)
        assert abs(report.map50 - oracle_map(dets_by_class, gts_by_class, [0.50])) <= 1e-6
        assert abs(report.map75 - oracle_map(dets_by_class, gts_by_class, [0.75])) <= 1e-6
        assert abs(report.map - oracle_map(dets_by_class, gts_by_class, IOU_THRESHOLDS)) <= 1e-6


def test_criterion_09_flow_serialization(tmp_path):
    with criterion(9, "1000 random fields round-trip bit-exact; malformed files rejected"):
        rng = np.random.default_rng(3141)
        path = tmp_path / "field.flo"
        for _ in range(1000):
            w = int(rng.integers(1, 9))
            h = int(rng.integers(1, 9))
            data = rng.uniform(-500.0, 500.0, size=(h, w, 2)).astype(np.float32)
            write_flow(MotionField(FrameSize(w, h), data), path)
            back = read_flow(path)
            assert back.size == FrameSize(w, h)
            assert back.data.tobytes() == data.tobytes()

        good = path.read_bytes()

        bad_magic = tmp_path / "magic.flo"
        bad_magic.write_bytes(b"\x00\x00\x00\x00" + good[4:])
        with pytest.raises(FlowFormatError):
            read_flow(bad_magic)

        short_header = tmp_path / "header.flo"
        short_header.write_bytes(good[:8])
        with pytest.raises(FlowLengthError):
            read_flow(short_header)

        truncated = tmp_path / "trunc.flo"
        truncated.write_bytes(good[:-4])
        with pytest.raises(FlowLengthError):
            read_flow(truncated)

        oversized = tmp_path / "big.flo"
        oversized.write_bytes(good + b"\x00\x00\x00\x00")
        with pytest.raises(FlowLengthError):
            read_flow(oversized)


def test_criterion_10_pipeline_determinism(noisy_dir, tmp_path):
    with criterion(10, "two identical pipeline invocations write identical trees"):
        outs = []
        backwards = ",".join(map(str, reversed(load_manifest(noisy_dir).frame_indices())))
        for name, frames in (("one", []), ("two", ["--frames", backwards])):
            out = tmp_path / name
            rc = main(
                [
                    "pipeline",
                    "--manifest",
                    str(noisy_dir),
                    "--out",
                    str(out),
                    "--method",
                    "swbf",
                    "--k",
                    "1",
                    *frames,
                ]
            )
            assert rc == 0
            outs.append(out)

        one, two = outs
        labels_one = {p.name: p.read_bytes() for p in sorted((one / "labels").glob("*"))}
        labels_two = {p.name: p.read_bytes() for p in sorted((two / "labels").glob("*"))}
        assert labels_one == labels_two
        assert labels_one

        def stripped(path):
            report = json.loads((path / "run_report.json").read_text())
            for f in report["frames"]:
                f.pop("seconds")
            report.pop("stages")
            return report

        assert stripped(one) == stripped(two)


def test_criterion_11_method_shootout(tmp_path):
    with criterion(11, "200-frame benchmark: swbf wins mAP50 against every baseline, < 60 s"):
        started = time.perf_counter()
        manifest_path = write_bundle(_bundles.benchmark_bundle(), tmp_path)
        manifest = load_manifest(manifest_path)
        gt = {t: ls.detections for t, ls in manifest.ground_truth().items()}

        scores = {}
        for method in ("swbf", "wbf", "nms", "snms", "nmw"):
            cfg = PipelineConfig(k=1, method=method, post_threshold=0.15)
            run = run_pipeline(manifest, cfg)
            dets = {t: ls.detections for t, ls in run.labels.items()}
            scores[method] = evaluate(dets, gt, class_names=manifest.classes).map50
        elapsed = time.perf_counter() - started

        print(
            "\n    mAP50:",
            ", ".join(f"{m}={scores[m]:.4f}" for m in ("swbf", "wbf", "nms", "snms", "nmw")),
            f"({elapsed:.1f}s)",
        )
        for method, value in scores.items():
            assert scores["swbf"] >= value, (method, value, scores["swbf"])
        assert elapsed < 60.0, f"took {elapsed:.2f}s"
