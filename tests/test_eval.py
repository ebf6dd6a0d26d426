import itertools
import json
import math
import random
import sys
import tracemalloc
from array import array
from collections import Counter
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import propfuse.cli
import propfuse.evaluation
import propfuse.geometry
import propfuse.io
from propfuse.cli import main
from propfuse.errors import MissingFlowError, ValidationError, VocabularyError
from propfuse.evaluation import (
    BLOCK_PAIRS,
    IOU_THRESHOLDS,
    _candidate_pairs,
    _table,
    average_precision,
    evaluate,
    self_consistency,
)
from propfuse.geometry import BBox, Detection, FrameSize, LabelSet, iou
from propfuse.motion import (
    COMPOSITION_MODES,
    ComposedMotion,
    FlowStore,
    constant_field,
    transfer_box,
)
from propfuse.pipeline import PipelineConfig
from propfuse.synth import write_bundle

import _bundles
from _oracles import oracle_ap, oracle_map, oracle_pr


def det(score, box, class_id=0):
    return Detection(class_id, BBox(*map(float, box)), score)


# a 10x10 box, the 10x5 and 10x7.5 boxes at IoU exactly 0.5 and 0.75 with
# it, and boxes that overlap those partly or not at all
POOL = [
    (0.0, 0.0, 10.0, 10.0),
    (0.0, 0.0, 10.0, 5.0),
    (0.0, 0.0, 10.0, 7.5),
    (2.0, 0.0, 12.0, 10.0),
    (5.0, 5.0, 15.0, 15.0),
    (20.0, 20.0, 30.0, 30.0),
]
boxes = st.one_of(
    st.sampled_from(POOL),
    st.builds(
        lambda x, y, w, h: (float(x), float(y), float(x + w), float(y + h)),
        st.integers(0, 16),
        st.integers(0, 16),
        st.integers(1, 12),
        st.integers(1, 12),
    ),
)
# detections reach frame 3, which has no ground truth; few scores, so ties
det_lists = st.lists(
    st.tuples(st.integers(0, 3), boxes, st.sampled_from([0.25, 0.5, 0.9])), max_size=10
)
gt_lists = st.lists(st.tuples(st.integers(0, 2), boxes), min_size=1, max_size=6)


class TestAveragePrecision:
    def test_borderline_iou_splits_thresholds(self):
        # one ground truth, one detection overlapping it at exactly 0.6
        gts = [(0, BBox(0, 0, 10, 10))]
        dets = [(0, BBox(0, 0, 10, 6), 0.9)]
        assert average_precision(dets, gts, 0.50).ap == 1.0
        assert average_precision(dets, gts, 0.75).ap == 0.0

    def test_true_positive_then_false_positive(self):
        gts = [(0, BBox(0, 0, 10, 10))]
        dets = [(0, BBox(0, 0, 10, 10), 0.9), (0, BBox(50, 50, 60, 60), 0.8)]
        assert average_precision(dets, gts, 0.50).ap == 1.0

    def test_no_ground_truth_is_undefined(self):
        assert average_precision([(0, BBox(0, 0, 1, 1), 0.5)], [], 0.5) is None

    def test_no_detections_is_zero(self):
        curve = average_precision([], [(0, BBox(0, 0, 10, 10))], 0.5)
        assert curve.ap == 0.0
        assert len(curve.precisions) == 101
        assert curve.recalls == tuple(j / 100.0 for j in range(101))

    def test_matching_stays_within_frames(self):
        # detection on frame 1 cannot claim the frame-0 ground truth
        gts = [(0, BBox(0, 0, 10, 10))]
        dets = [(1, BBox(0, 0, 10, 10), 0.9)]
        assert average_precision(dets, gts, 0.5).ap == 0.0

    def test_each_gt_matched_once(self):
        gts = [(0, BBox(0, 0, 10, 10))]
        dets = [(0, BBox(0, 0, 10, 10), 0.9), (0, BBox(0, 0, 10, 10), 0.8)]
        curve = average_precision(dets, gts, 0.5)
        # second identical detection is a false positive; recall 1 reached
        # at precision 1 so interpolation still gives a perfect score
        assert curve.ap == 1.0

    def test_trailing_false_positive_changes_nothing(self):
        rng = random.Random(7)
        for _ in range(50):
            gts = [
                (f, BBox(x, x, x + 10.0, x + 10.0))
                for f in range(3)
                for x in [rng.uniform(0, 40), rng.uniform(50, 90)]
            ]
            dets = [
                (f, BBox(x1, y1, x1 + 10.0, y1 + 10.0), rng.uniform(0.2, 1.0))
                for f in range(3)
                for x1, y1 in [(rng.uniform(0, 90), rng.uniform(0, 90))] * 2
            ]
            base = average_precision(dets, gts, 0.5).ap
            extended = dets + [(0, BBox(200.0, 200.0, 210.0, 210.0), 0.05)]
            assert average_precision(extended, gts, 0.5).ap == base

    def test_agrees_with_reference_on_random_instances(self):
        rng = random.Random(1234)
        for _ in range(100):
            n_gt = rng.randint(1, 6)
            n_det = rng.randint(0, 8)
            gts = []
            for _ in range(n_gt):
                f = rng.randint(0, 2)
                x, y = rng.uniform(0, 80), rng.uniform(0, 80)
                gts.append((f, BBox(x, y, x + rng.uniform(4, 20), y + rng.uniform(4, 20))))
            dets = []
            for _ in range(n_det):
                f = rng.randint(0, 2)
                x, y = rng.uniform(0, 80), rng.uniform(0, 80)
                box = BBox(x, y, x + rng.uniform(4, 20), y + rng.uniform(4, 20))
                dets.append((f, box, rng.uniform(0.05, 1.0)))
            thr = rng.choice([0.5, 0.75])
            got = average_precision(dets, gts, thr).ap
            want = oracle_ap(
                [(f, b.as_tuple(), s) for f, b, s in dets],
                [(f, b.as_tuple()) for f, b in gts],
                thr,
            )
            assert math.isclose(got, want, abs_tol=1e-12)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(det_lists, gt_lists)
    # score ties across frames and within one
    @example([(0, POOL[0], 0.5), (1, POOL[3], 0.5), (0, POOL[4], 0.5)], [(0, POOL[0]), (1, POOL[0])])
    # duplicate boxes: the second copy is a false positive
    @example([(0, POOL[0], 0.9), (0, POOL[0], 0.9), (0, POOL[0], 0.25)], [(0, POOL[0])])
    # IoU exactly 0.5 and exactly 0.75 against the 10x10 ground truth
    @example([(0, POOL[1], 0.9), (1, POOL[2], 0.5)], [(0, POOL[0]), (1, POOL[0])])
    # detections on a frame with no ground truth
    @example([(3, POOL[0], 0.9), (0, POOL[0], 0.5)], [(0, POOL[0]), (2, POOL[5])])
    # zero detections
    @example([], [(0, POOL[0]), (1, POOL[5])])
    # the first detection ties at IoU 9/11 with both ground truths and takes
    # the earlier; the next, a copy of that one, is left the later at IoU
    # 2/3, a false positive from 0.70 up
    @example([(0, (1.0, 0.0, 11.0, 10.0), 0.9), (0, POOL[0], 0.5)], [(0, POOL[0]), (0, POOL[3])])
    def test_curve_equals_oracle_at_every_threshold(self, dets, gts):
        boxed_dets = [(f, BBox(*b), s) for f, b, s in dets]
        boxed_gts = [(f, BBox(*b)) for f, b in gts]
        for thr in IOU_THRESHOLDS:
            curve = average_precision(boxed_dets, boxed_gts, thr)
            assert list(curve.precisions) == oracle_pr(dets, gts, thr)
            # the oracle adds the 101 precisions up in another order
            assert math.isclose(curve.ap, oracle_ap(dets, gts, thr), abs_tol=1e-12)


class TestEvaluate:
    def test_perfect_detections_score_one(self):
        gts = {t: [det(1.0, (5 * t, 0, 5 * t + 20, 15))] for t in range(4)}
        dets = {t: [det(0.9, (5 * t, 0, 5 * t + 20, 15))] for t in range(4)}
        report = evaluate(dets, gts)
        assert report.map == 1.0
        assert report.map50 == 1.0
        assert report.map75 == 1.0

    def test_empty_detections_score_zero(self):
        gts = {0: [det(1.0, (0, 0, 10, 10))]}
        report = evaluate({}, gts)
        assert report.map50 == 0.0
        assert report.n_detections == 0
        assert report.n_ground_truth == 1

    def test_unknown_detection_class_rejected(self):
        gts = {0: [det(1.0, (0, 0, 10, 10), class_id=0)]}
        dets = {0: [det(0.9, (0, 0, 10, 10), class_id=3)]}
        with pytest.raises(VocabularyError):
            evaluate(dets, gts)
        with pytest.raises(VocabularyError) as err:
            evaluate(dets, gts, class_names=["car", "person", "bike", "truck"])
        assert "truck" in str(err.value)

    def test_class_without_ground_truth_is_excluded(self):
        gts = {0: [det(1.0, (0, 0, 10, 10), class_id=0)]}
        dets = {0: [det(0.9, (0, 0, 10, 10), class_id=0)]}
        report = evaluate(dets, gts, class_names=["car", "person"], classes=[0, 1])
        assert report.per_class_ap50["person"] is None
        assert report.per_class_ap50["car"] == 1.0
        assert report.map50 == 1.0

    def test_two_class_case_matches_reference(self):
        rng = random.Random(99)
        gts_by_frame = {}
        dets_by_frame = {}
        for t in range(5):
            gts_by_frame[t] = []
            dets_by_frame[t] = []
            for c in (0, 1):
                for _ in range(rng.randint(1, 3)):
                    x, y = rng.uniform(0, 70), rng.uniform(0, 70)
                    w, h = rng.uniform(6, 24), rng.uniform(6, 24)
                    gts_by_frame[t].append(det(1.0, (x, y, x + w, y + h), class_id=c))
                    if rng.random() < 0.8:
                        jx, jy = rng.uniform(-3, 3), rng.uniform(-3, 3)
                        dets_by_frame[t].append(
                            det(rng.uniform(0.3, 1.0), (x + jx, y + jy, x + w + jx, y + h + jy), class_id=c)
                        )
                if rng.random() < 0.5:
                    x, y = rng.uniform(0, 70), rng.uniform(0, 70)
                    dets_by_frame[t].append(det(rng.uniform(0.3, 1.0), (x, y, x + 12, y + 12), class_id=c))

        report = evaluate(dets_by_frame, gts_by_frame)

        dets_by_class = {0: [], 1: []}
        gts_by_class = {0: [], 1: []}
        for t, items in dets_by_frame.items():
            for d in items:
                dets_by_class[d.class_id].append((t, d.bbox.as_tuple(), d.score))
        for t, items in gts_by_frame.items():
            for g in items:
                gts_by_class[g.class_id].append((t, g.bbox.as_tuple()))

        want_map = oracle_map(dets_by_class, gts_by_class, IOU_THRESHOLDS)
        want_50 = oracle_map(dets_by_class, gts_by_class, [0.50])
        want_75 = oracle_map(dets_by_class, gts_by_class, [0.75])
        assert math.isclose(report.map, want_map, abs_tol=1e-6)
        assert math.isclose(report.map50, want_50, abs_tol=1e-6)
        assert math.isclose(report.map75, want_75, abs_tol=1e-6)

    def test_csv_has_summary_and_per_class(self):
        gts = {0: [det(1.0, (0, 0, 10, 10), 0), det(1.0, (20, 20, 30, 30), 1)]}
        dets = {0: [det(0.9, (0, 0, 10, 10), 0)]}
        report = evaluate(dets, gts, class_names=["car", "person"])
        lines = report.to_csv().splitlines()
        assert lines[0] == "map,map50,map75,car,person"
        cells = lines[1].split(",")
        assert cells[3] == "1.000000"
        assert cells[4] == "0.000000"


def iou_loop_table(dets, gts, lowest):
    """The overlap table with one ``geometry.iou`` call per same-frame pair, as float.hex."""
    order = sorted(range(len(dets)), key=lambda i: (-dets[i][2], i))
    table = []
    for i in order:
        fk, box, _ = dets[i]
        row = []
        for gi, (gk, gt_box) in enumerate(gts):
            if gk == fk:
                overlap = iou(box, gt_box)
                if overlap >= lowest and overlap > 0.0:
                    row.append((gi, overlap.hex()))
        table.append(row)
    return table


def hex_table(rows):
    return [[(gi, overlap.hex()) for gi, overlap in row] for row in rows]


def pair_table(dets, gts, lowest):
    """``_candidate_pairs`` as one row of (gt index, IoU) pairs per detection in rank order."""
    codes = {}
    d = array("d", [v for f, b, s in dets for v in (codes.setdefault(f, len(codes)), *b.as_tuple(), s)])
    g = array("d", [v for f, b in gts for v in (codes.setdefault(f, len(codes)), *b.as_tuple(), 0.0)])
    rows = [[] for _ in dets]
    ranks, truths, overlaps = _candidate_pairs(_table(d), _table(g), lowest)
    for rank, truth, overlap in zip(ranks.tolist(), truths.tolist(), overlaps.tolist()):
        rows[rank].append((truth, overlap))
    return rows


# crowd density: many same-frame pairs; on integer corners touching edges
# and exact duplicates are common
crowd_boxes = st.one_of(
    st.sampled_from(POOL),
    st.builds(
        lambda x, y, w, h: (float(x), float(y), float(x + w), float(y + h)),
        st.integers(0, 30),
        st.integers(0, 30),
        st.integers(1, 20),
        st.integers(1, 20),
    ),
    # fractional corners, where a reordered sum rounds differently
    st.builds(
        lambda x, y, w, h: (x, y, x + w, y + h),
        st.floats(0, 30),
        st.floats(0, 30),
        st.floats(0.01, 20),
        st.floats(0.01, 20),
    ),
)


class TestOverlapTable:
    """``_candidate_pairs`` writes ``geometry.iou`` out on arrays; it must give the same bits."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        st.lists(st.tuples(st.integers(0, 3), crowd_boxes, st.sampled_from([0.25, 0.5, 0.9])), max_size=40),
        st.lists(st.tuples(st.integers(0, 2), crowd_boxes), min_size=1, max_size=30),
        st.lists(st.integers(0, 39), max_size=8),
    )
    # boxes at IoU exactly 0.5 and exactly 0.75 with the 10x10 one, and one
    # that touches its right edge
    @example([(0, POOL[1], 0.9), (0, POOL[2], 0.5), (0, (10.0, 0.0, 20.0, 10.0), 0.25)], [(0, POOL[0])], [])
    # duplicate boxes on both sides
    @example([(0, POOL[0], 0.9), (0, POOL[0], 0.9)], [(0, POOL[0]), (0, POOL[0]), (1, POOL[0])], [0])
    def test_equals_iou_loop_bit_for_bit(self, dets, gts, copies):
        # duplicated detections, as separate objects
        dets = dets + [dets[i % len(dets)] for i in copies if dets]
        boxed_dets = [(f, BBox(*b), s) for f, b, s in dets]
        boxed_gts = [(f, BBox(*b)) for f, b in gts]
        for lowest in (min(IOU_THRESHOLDS), 0.75, 0.0):
            # at 0.0 a row lists every overlapping same-frame pair, each once
            want = iou_loop_table(boxed_dets, boxed_gts, lowest)
            # blocks of one pair, of a few, and of the package's size
            for block in (1, 7, BLOCK_PAIRS):
                with mock.patch.object(propfuse.evaluation, "BLOCK_PAIRS", block):
                    assert hex_table(pair_table(boxed_dets, boxed_gts, lowest)) == want

    def test_exact_thresholds_and_touching_edges(self):
        gts = [(0, BBox(*POOL[0]))]
        dets = [(0, BBox(*POOL[1]), 0.9), (0, BBox(*POOL[2]), 0.5), (0, BBox(10.0, 0.0, 20.0, 10.0), 0.25)]
        assert pair_table(dets, gts, 0.5) == [[(0, 0.5)], [(0, 0.75)], []]
        assert pair_table(dets, gts, 0.75) == [[], [(0, 0.75)], []]


# 10x10 and 11x11 boxes at nearby corners: on few frames, ground truths
# pass the match test with several detections and detections with several
# ground truths, at every threshold
contended_boxes = st.builds(
    lambda x, y, grow: (x, y, x + 10 + grow, y + 10 + grow),
    st.sampled_from([0.0, 0.5, 1.0, 3.0, 4.0, 4.5, 5.0, 7.0]),
    st.sampled_from([0.0, 0.5, 2.5, 8.0, 8.5, 10.5]),
    st.sampled_from([0.0, 1.0]),
)


class TestContendedMatching:
    """The greedy loop over contended pairs gives the oracle's curve exactly."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.tuples(st.integers(0, 2), contended_boxes, st.sampled_from([0.3, 0.6, 0.9])), max_size=30
        ),
        st.lists(st.tuples(st.integers(0, 1), contended_boxes), min_size=1, max_size=12),
        st.sampled_from([1, 5, BLOCK_PAIRS]),
    )
    # the first detection ties at IoU 95/105 with both ground truths and
    # takes the earlier; from 0.85 up the second is then a false positive
    # and the third takes the later one
    @example(
        [(0, (0.5, 0, 10.5, 10), 0.9), (0, (0, 0, 10, 10), 0.6), (0, (1, 0, 11, 10), 0.3)],
        [(0, (0, 0, 10, 10)), (0, (1, 0, 11, 10))],
        1,
    )
    def test_precisions_equal_oracle_at_every_threshold(self, dets, gts, block):
        boxed_dets = [(f, BBox(*b), s) for f, b, s in dets]
        boxed_gts = [(f, BBox(*b)) for f, b in gts]
        with mock.patch.object(propfuse.evaluation, "BLOCK_PAIRS", block):
            for thr in IOU_THRESHOLDS:
                curve = average_precision(boxed_dets, boxed_gts, thr)
                assert list(curve.precisions) == oracle_pr(dets, gts, thr)

    def test_a_frame_split_across_blocks(self):
        # 60 ground truths and 80 detections on frame 0 make 4,800 pairs,
        # more than one block holds, so frame 0's ranks span two blocks
        rng = random.Random(11)
        corners = [(12.0 * (i % 10), 12.0 * (i // 10)) for i in range(60)]
        gts = [(0, (x, y, x + 10.0, y + 10.0)) for x, y in corners]
        dets = []
        for _ in range(80):
            _, (x1, y1, x2, y2) = gts[rng.randrange(60)]
            shift = rng.choice([0.0, 0.5, 1.5, 3.0])
            dets.append((0, (x1 + shift, y1, x2 + shift, y2), rng.choice([0.2, 0.5, 0.7, 0.95])))
        dets += [(1, (0.0, 0.0, 10.0, 10.0), 0.8)]
        assert 80 * 60 > BLOCK_PAIRS > 60
        boxed_dets = [(f, BBox(*b), s) for f, b, s in dets]
        boxed_gts = [(f, BBox(*b)) for f, b in gts]
        want = iou_loop_table(boxed_dets, boxed_gts, 0.5)
        assert hex_table(pair_table(boxed_dets, boxed_gts, 0.5)) == want
        # some ground truths pass the match test with two detections
        assert max(Counter(gi for row in want for gi, _ in row).values()) > 1
        for thr in IOU_THRESHOLDS:
            curve = average_precision(boxed_dets, boxed_gts, thr)
            assert list(curve.precisions) == oracle_pr(dets, gts, thr)


BUNDLES = sorted(name for name in vars(_bundles) if name.endswith("_bundle"))


def checked_by_frame(files, name_to_id):
    """Each line of ``files`` of a class in ``name_to_id`` as a checked ``Detection``.

    The lines are parsed without the package's reader and grouped by frame,
    frames in first-seen order.
    """
    by_frame = {}
    for f in files:
        for line in f.read_text(encoding="ascii").splitlines():
            obj = json.loads(line)
            if obj["class"] not in name_to_id:
                continue
            box = BBox(*(float(v) for v in obj["bbox"]))
            d = Detection(name_to_id[obj["class"]], box, float(obj["score"]))
            by_frame.setdefault(obj["frame"], []).append(d)
    return by_frame


class TestEvalCommand:
    @pytest.mark.parametrize("name", BUNDLES)
    def test_writes_what_evaluate_gives_on_checked_detections(self, tmp_path, name):
        root = write_bundle(getattr(_bundles, name)(), tmp_path).parent
        gt = root / "gt.jsonl"
        out, csv = tmp_path / "eval.json", tmp_path / "eval.csv"
        argv = ["eval", "--dets", str(root / "dets"), "--gt", str(gt), "--out", str(out)]
        assert main(argv + ["--csv", str(csv)]) == 0

        names = sorted({json.loads(line)["class"] for line in gt.read_text().splitlines()})
        name_to_id = {n: i for i, n in enumerate(names)}
        report = evaluate(
            checked_by_frame(sorted((root / "dets").glob("*.jsonl")), name_to_id),
            checked_by_frame([gt], name_to_id),
            class_names=names,
            classes=range(len(names)),
        )
        assert report.n_detections > 0
        assert out.read_text() == json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n"
        assert csv.read_text() == report.to_csv()

    @pytest.mark.parametrize("classes", [None, "car", "car,person,absent"])
    def test_rows_keep_the_order_of_detections_grouped_by_frame(self, tmp_path, classes):
        """A frame split across files, ground truth frames interleaved, ties across frames.

        Read in file order, the tied 0.5 detections would rank frame 2's
        false alarm before frame 1's hit in b.jsonl; grouped by frame, as
        ``evaluate`` takes them, the hit ranks first.
        """
        line = '{"frame": %d, "class": "%s", "bbox": [%s], "score": %s}\n'
        tree = tmp_path / "labels"
        tree.mkdir()
        (tree / "a.jsonl").write_text(
            line % (1, "car", "0, 0, 10, 10", 0.9)
            + line % (2, "car", "50, 50, 60, 60", 0.5)
            + line % (1, "car", "30, 0, 40, 10", 0.25)
        )
        (tree / "b.jsonl").write_text(
            line % (1, "car", "20, 0, 30, 10", 0.5)
            + line % (3, "car", "0, 0, 10, 10", 0.5)
        )
        gt = tmp_path / "gt.jsonl"
        gt.write_text(
            line % (2, "person", "5, 5, 9, 9", 1)
            + line % (1, "car", "0, 0, 10, 10", 1)
            + line % (3, "car", "1, 0, 11, 10", 1)
            + line % (1, "car", "20, 0, 30, 10", 1)
            + line % (2, "car", "0, 0, 10, 10", 1)
            + line % (1, "person", "0, 0, 4, 4", 1)
        )
        out, csv = tmp_path / "eval.json", tmp_path / "eval.csv"
        argv = ["eval", "--dets", str(tree), "--gt", str(gt), "--out", str(out), "--csv", str(csv)]
        assert main(argv + (["--classes", classes] if classes else [])) == 0

        names = classes.split(",") if classes else ["car", "person"]
        name_to_id = {n: i for i, n in enumerate(names)}
        report = evaluate(
            checked_by_frame(sorted(tree.glob("*.jsonl")), name_to_id),
            checked_by_frame([gt], name_to_id),
            class_names=names,
            classes=range(len(names)),
        )
        assert out.read_text() == json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n"
        assert csv.read_text() == report.to_csv()
        if classes and "absent" in classes:
            assert report.per_class_ap50["absent"] is None

    def test_builds_no_box_or_detection(self, tmp_path, monkeypatch):
        root = write_bundle(_bundles.clean_bundle(), tmp_path).parent

        def refuse(*args, **kwargs):
            raise AssertionError("eval built a BBox or a Detection")

        for module in (propfuse.cli, propfuse.io, propfuse.geometry):
            for name in ("unchecked_bbox", "unchecked_detection", "record_detection", "BBox", "Detection"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        monkeypatch.setattr(propfuse.evaluation, "_class_rows", refuse)
        argv = ["eval", "--dets", str(root / "dets"), "--gt", str(root / "gt.jsonl")]
        assert main(argv + ["--out", str(tmp_path / "eval.json")]) == 0

    def test_interns_no_label_file_name(self, tmp_path, monkeypatch):
        """Label files are read and the report written without a ``Path`` each.

        ``pathlib`` interns every part of a path, and a name interned on
        every pass churns the interpreter's table of interned strings.
        """
        root = write_bundle(_bundles.clean_bundle(), tmp_path).parent
        out = tmp_path / "report" / "eval.json"
        out.parent.mkdir()
        argv = ["eval", "--dets", str(root / "dets"), "--gt", str(root / "gt.jsonl"), "--out", str(out)]
        interned = []
        real_intern = sys.intern

        def spy(s):
            interned.append(s)
            return real_intern(s)

        monkeypatch.setattr(sys, "intern", spy)
        assert main(argv) == 0
        label_files = {p.name for p in (root / "dets").iterdir()}
        assert len(label_files) > 1
        assert not label_files & set(interned)
        assert not [s for s in interned if s.endswith(".tmp")]


SIZE = FrameSize(160, 120)


def two_way_store(n, du, dv):
    store = FlowStore()
    for t in range(n):
        store.add(t, t + 1, constant_field(SIZE, du, dv))
        store.add(t + 1, t, constant_field(SIZE, -du, -dv))
    return store


class TestSelfConsistency:
    def test_integer_translation_roundtrip_is_exact(self):
        flows = two_way_store(4, 3.0, 2.0)
        labels = LabelSet(0, [det(1.0, (10, 10, 58, 58)), det(1.0, (80, 40, 128, 88), 1)])
        report = self_consistency(labels, flows, k_hops=2, size=SIZE)
        assert report.mean_iou == 1.0
        assert report.ious == [1.0, 1.0]
        assert report.n_zero == 0
        assert math.isclose(sum(report.pmf), 1.0, abs_tol=1e-9)
        assert report.pmf[-1] == 1.0

    def test_dropped_box_counts_as_zero(self):
        flows = two_way_store(2, 200.0, 0.0)
        labels = LabelSet(0, [det(1.0, (10, 10, 50, 40))])
        report = self_consistency(labels, flows, k_hops=1, size=SIZE)
        assert report.ious == [0.0]
        assert report.n_zero == 1
        assert report.out_of_frame_given_zero == 1.0
        # original height 30 <= default small threshold
        assert report.small_given_zero == 1.0
        assert report.pmf[0] == 1.0

    def test_per_class_means_are_separate(self):
        flows = FlowStore()
        flows.add(0, 1, constant_field(SIZE, 200.0, 0.0))
        flows.add(1, 0, constant_field(SIZE, -200.0, 0.0))
        labels = LabelSet(0, [det(1.0, (10, 10, 50, 40), 0)])
        report = self_consistency(labels, flows, k_hops=1, size=SIZE)
        assert report.per_class_mean == {0: 0.0}

        flows2 = two_way_store(1, 2.0, 0.0)
        labels2 = LabelSet(0, [det(1.0, (10, 10, 50, 40), 0), det(1.0, (60, 60, 100, 100), 1)])
        report2 = self_consistency(labels2, flows2, k_hops=1, size=SIZE)
        assert report2.per_class_mean[0] == 1.0
        assert report2.per_class_mean[1] == 1.0

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_small_height_threshold_checked_as_the_config_checks_it(self, value):
        flows = two_way_store(1, 2.0, 0.0)
        labels = LabelSet(0, [det(1.0, (10, 10, 50, 40))])
        with pytest.raises(ValidationError) as err:
            self_consistency(labels, flows, 1, SIZE, small_height_threshold=value)
        with pytest.raises(ValidationError) as config_err:
            PipelineConfig(small_height_threshold=value)
        assert str(err.value) == str(config_err.value)

    def test_requires_at_least_one_hop(self):
        with pytest.raises(ValidationError):
            self_consistency(LabelSet(0, []), FlowStore(), 0, SIZE)

    def test_missing_flow_surfaces(self):
        flows = FlowStore()
        flows.add(0, 1, constant_field(SIZE, 1.0, 0.0))
        with pytest.raises(MissingFlowError):
            self_consistency(LabelSet(0, [det(1.0, (0, 0, 10, 10))]), flows, 1, SIZE)

    def test_far_reach_fails_at_its_first_missing_field(self):
        # 100,000 hops from a two-frame sequence: the field after the last
        # frame ends the call before any pair of the hops beyond it is listed
        flows = two_way_store(1, 1.0, 0.0)
        tracemalloc.start()
        try:
            with pytest.raises(MissingFlowError) as err:
                self_consistency(LabelSet(0, []), flows, 100_000, SIZE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (err.value.from_frame, err.value.to_frame) == (1, 2)
        assert peak < 1_000_000

    def test_empty_label_set(self):
        flows = two_way_store(1, 1.0, 0.0)
        report = self_consistency(LabelSet(0, []), flows, 1, SIZE)
        assert report.n_boxes == 0
        assert report.mean_iou == 0.0
        assert sum(report.pmf) == 0.0

    def test_json_dict_round_numbers(self):
        flows = two_way_store(1, 2.0, 0.0)
        labels = LabelSet(3, [det(1.0, (10, 10, 58, 58))])
        # frame 3 needs pairs (3,4) and (4,3)
        flows.add(3, 4, constant_field(SIZE, 2.0, 0.0))
        flows.add(4, 3, constant_field(SIZE, -2.0, 0.0))
        d = self_consistency(labels, flows, 1, SIZE).to_json_dict()
        assert d["frame"] == 3
        assert d["k_hops"] == 1
        assert d["n_boxes"] == 1
        assert math.isclose(sum(d["pmf"]), 1.0, abs_tol=1e-9)


SELFCHECK_BUNDLES = (
    "clean",
    "occlusion",
    "type_b",
    "integer_motion",
    "fractional_motion",
    "noisy",
    "crowd",
    "benchmark",
)


def torn_boxes(labels, objects=2, step=3):
    """Thin boxes astride the edges of a frame's first few boxes.

    The motion at an object's edge tears them: some are dropped on the way
    out and some on the way back.
    """
    out = []
    for g in labels.detections[:objects]:
        b = g.bbox
        for x in range(int(b.x1) - 5, int(b.x2) + 5, step):
            for y in range(int(b.y1) - 5, int(b.y2) + 5, step):
                if b.x1 + 5 < x < b.x2 - 5 and b.y1 + 5 < y < b.y2 - 5:
                    continue
                for w, h in ((3.0, 1.5), (1.5, 3.0)):
                    x1, y1 = x + 0.375, y + 0.625
                    out.append(Detection(g.class_id, BBox(x1, y1, x1 + w, y1 + h), 0.5))
    return out


def frame_edge_boxes(size):
    """Boxes across each frame edge, wholly outside it, and on a corner."""
    w, h = float(size.width), float(size.height)
    return [
        det(0.5, box)
        for box in (
            (-4.5, 10.25, 6.5, 20.0),
            (w - 6.25, 12.0, w + 3.5, 22.75),
            (20.5, -3.0, 31.0, 5.5),
            (24.0, h - 5.5, 36.25, h + 2.0),
            (-30.0, -20.0, -10.0, -5.0),
            (w + 1.0, 4.0, w + 9.0, 9.0),
            (w - 3.0, h - 2.0, w + 7.0, h + 8.0),
        )
    ]


def per_box_round_trip(labels, flows, k, size, mode, min_coverage):
    """Each box carried on its own by transfer_box, k hops out and k back.

    Returns (IoU with the original, the leg it was dropped on or None) per box.
    """
    t = labels.frame_index
    out = ComposedMotion([flows.get(t + j, t + j + 1) for j in range(k)], mode)
    back = ComposedMotion([flows.get(t + k - j, t + k - j - 1) for j in range(k)], mode)
    rows = []
    for d in labels.detections:
        ahead = transfer_box(d, out, size, min_coverage)
        home = transfer_box(ahead, back, size, min_coverage) if ahead is not None else None
        if home is not None:
            rows.append((iou(d.bbox, home.bbox), None))
        else:
            rows.append((0.0, "out" if ahead is None else "back"))
    return rows


def assert_batch_equals_per_box(labels, flows, size, coverages):
    """Every hop count 1-3, mode and coverage; returns (mode, leg) drop counts."""
    drops = Counter()
    for k, mode, coverage in itertools.product((1, 2, 3), COMPOSITION_MODES, coverages):
        report = self_consistency(labels, flows, k, size, mode, coverage)
        want = per_box_round_trip(labels, flows, k, size, mode, coverage)
        assert [v.hex() for v in report.ious] == [v.hex() for v, _ in want]
        zeros = [leg for v, leg in want if v == 0.0]
        assert report.n_zero == len(zeros)
        dropped = sum(leg is not None for leg in zeros)
        assert report.out_of_frame_given_zero == (dropped / len(zeros) if zeros else 0.0)
        drops.update((mode, leg) for _, leg in want if leg is not None)
    return drops


class TestSelfConsistencyBatch:
    """The batch round trip against boxes carried one at a time, bit for bit."""

    @pytest.mark.parametrize("name", SELFCHECK_BUNDLES)
    def test_batch_equals_per_box_transfer_bit_for_bit(self, name):
        bundle = getattr(_bundles, f"{name}_bundle")()
        flows = bundle.flow_store()
        edges = frame_edge_boxes(bundle.size)
        drops = Counter()
        for t in (0, len(bundle.ground_truth) - 4):
            for source in (bundle.ground_truth[t], bundle.detections[t]):
                labels = LabelSet(t, source.detections + edges)
                drops += assert_batch_equals_per_box(labels, flows, bundle.size, (0.25, 0.0, 0.9))
        for mode in COMPOSITION_MODES:
            assert drops[mode, "out"] > 0

    def test_boxes_torn_at_an_object_edge_drop_on_either_leg(self):
        bundle = _bundles.occlusion_bundle()
        labels = LabelSet(0, torn_boxes(bundle.ground_truth[0]))
        drops = assert_batch_equals_per_box(labels, bundle.flow_store(), bundle.size, (0.25, 0.9))
        for mode in COMPOSITION_MODES:
            assert drops[mode, "out"] > 0
            assert drops[mode, "back"] > 0

    def test_min_coverage_holds_on_the_way_back(self):
        # still on the way out, 8 px left on the way back: 2 of 10 columns come home
        flows = FlowStore(
            {(0, 1): constant_field(SIZE, 0.0, 0.0), (1, 0): constant_field(SIZE, -8.0, 0.0)}
        )
        labels = LabelSet(0, [det(1.0, (0, 0, 10, 10))])
        for coverage, want in ((0.2, 0.2), (0.25, 0.0)):
            report = self_consistency(labels, flows, 1, SIZE, min_coverage=coverage)
            assert report.ious == [want]
            assert per_box_round_trip(labels, flows, 1, SIZE, "trajectory", coverage)[0][0] == want

    @pytest.mark.parametrize("boxes", [[], [(0, 0, 10, 10)]])
    def test_unknown_mode_rejected(self, boxes):
        labels = LabelSet(0, [det(1.0, b) for b in boxes])
        with pytest.raises(ValidationError):
            self_consistency(labels, two_way_store(1, 1.0, 0.0), 1, SIZE, mode="spiral")

    @pytest.mark.parametrize("boxes", [[], [(0, 0, 10, 10)]])
    def test_mixed_field_sizes_rejected(self, boxes):
        flows = two_way_store(2, 1.0, 0.0)
        flows.add(1, 2, constant_field(FrameSize(80, 60), 1.0, 0.0))
        with pytest.raises(ValidationError):
            self_consistency(LabelSet(0, [det(1.0, b) for b in boxes]), flows, 2, SIZE)

    @pytest.mark.parametrize("absent", [(1, 2), (2, 1)])
    def test_missing_field_raises_for_an_empty_label_set(self, absent):
        pairs = [(0, 1), (1, 2), (2, 1), (1, 0)]
        flows = FlowStore({p: constant_field(SIZE, 1.0, 0.0) for p in pairs if p != absent})
        with pytest.raises(MissingFlowError):
            self_consistency(LabelSet(0, []), flows, 2, SIZE)
