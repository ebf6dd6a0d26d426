import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import propfuse.motion
import propfuse.propagation
from propfuse.errors import ValidationError
from propfuse.geometry import BBox, Detection, FrameSize, LabelSet
from propfuse.motion import COMPOSITION_MODES, FlowStore, MotionField, constant_field
from propfuse.propagation import (
    RunWindow,
    build_candidates,
    chain_pairs,
    offset_order,
    reachable,
    threshold_labels,
)

from _oracles import ref_candidates

SIZE = FrameSize(100, 100)
NOTHING_HELD = {"labels": 0, "fields": 0, "frames": 0}


def labels(frame, *dets):
    return LabelSet(frame, list(dets))


def det(score, box, class_id=0):
    return Detection(class_id, BBox(*map(float, box)), score)


def store_with(pairs, du=5.0, dv=0.0):
    store = FlowStore()
    for a, b in pairs:
        store.add(a, b, constant_field(SIZE, du, dv))
    return store


def full_store(n, du=5.0, dv=0.0):
    pairs = [(t, t + 1) for t in range(n - 1)] + [(t + 1, t) for t in range(n - 1)]
    return store_with(pairs, du, dv)


class TestOffsets:
    def test_interleaved_order(self):
        assert offset_order(0) == []
        assert offset_order(1) == [1, -1]
        assert offset_order(3) == [1, -1, 2, -2, 3, -3]

    def test_forward_chain_is_chronological(self):
        assert chain_pairs(5, 2) == [(3, 4), (4, 5)]
        assert chain_pairs(5, 1) == [(4, 5)]

    def test_backward_chain_counts_down(self):
        assert chain_pairs(5, -2) == [(7, 6), (6, 5)]
        assert chain_pairs(5, -1) == [(6, 5)]

    def test_zero_offset_needs_no_motion(self):
        assert chain_pairs(5, 0) == []


class TestPlan:
    """Which offsets reach a target: ``reachable``, and what ``build_candidates`` counts."""

    @staticmethod
    def effective_sources(target, k, n, flows):
        table = {t: labels(t) for t in range(n)}
        return build_candidates(target, k, table.get, flows, SIZE).effective_sources

    def test_all_frames_available(self):
        reach = dict(reachable(5, 2, lambda t: 0 <= t < 20))
        assert sorted(reach) == [-2, -1, 1, 2]
        assert all(pairs == chain_pairs(5, o) for o, pairs in reach.items())
        assert self.effective_sources(5, 2, 20, full_store(20)) == 5

    def test_boundary_omission_at_sequence_start(self):
        assert [o for o, _ in reachable(0, 1, lambda t: 0 <= t < 20)] == [-1]
        assert self.effective_sources(0, 1, 20, full_store(20)) == 2

    def test_missing_source_frame_omitted(self):
        has = lambda t: 0 <= t < 20 and t != 4
        assert [o for o, _ in reachable(5, 1, has)] == [-1]

    def test_missing_field_omitted_by_build_candidates(self):
        # frame 4 exists but the field 4 -> 5 does not: offset +1 is reachable
        # by frame and dropped for its chain, so only -1 counts
        flows = store_with([(6, 5)])
        assert [o for o, _ in reachable(5, 1, lambda t: 0 <= t < 20)] == [1, -1]
        assert self.effective_sources(5, 1, 20, flows) == 2

    def test_negative_reach_rejected(self):
        with pytest.raises(ValidationError, match="k must be >= 0"):
            list(reachable(5, -1, lambda t: True))

    def test_far_reach_builds_chains_only_for_present_sources(self, monkeypatch):
        # k = 10,000 around a 6-frame sequence: 20,000 offsets are tried, but
        # only the 5 whose source frame exists may cost a chain of pairs
        n, k = 6, 10_000
        calls = []

        def spy(target, offset):
            calls.append((target, offset))
            return chain_pairs(target, offset)

        monkeypatch.setattr(propfuse.propagation, "chain_pairs", spy)
        asked = []

        def has(t):
            asked.append(t)
            return 0 <= t < n

        reach = list(reachable(2, k, has))
        assert sorted(calls) == [(2, o) for o in (-3, -2, -1, 1, 2)]
        assert asked == [2 - o for o in offset_order(k)]
        assert [o for o, _ in reach] == [1, -1, 2, -2, -3]
        calls.clear()
        assert self.effective_sources(2, k, n, full_store(n)) == 6
        assert sorted(calls) == [(2, o) for o in (-3, -2, -1, 1, 2)]

    def test_far_reach_candidates_equal_a_reach_covering_the_sequence(self, monkeypatch):
        n = 6
        sources = []

        def spy(target, offset):
            sources.append(target - offset)
            return chain_pairs(target, offset)

        monkeypatch.setattr(propfuse.propagation, "chain_pairs", spy)
        table = {t: labels(t, det(0.9, (10 + t, 10, 30 + t, 25))) for t in range(n)}
        for t in range(n):
            far = build_candidates(t, 10_000, table.get, full_store(n, du=1.0), SIZE)
            near = build_candidates(t, n, table.get, full_store(n, du=1.0), SIZE)
            assert far == near
            assert far.effective_sources == n
        assert sources and set(sources) <= set(range(n))


class TestPropagateFromOffset:
    """One offset's boxes carried onto a target, read from ``build_candidates``."""

    @staticmethod
    def carried(target, k, table, flows, offset):
        cand = build_candidates(target, k, table.get, flows, SIZE)
        pairs = zip(cand.detections, cand.source_boxes)
        return [(d, src) for d, src in pairs if d.source_offset == offset]

    def test_single_forward_hop(self):
        flows = store_with([(4, 5)], du=5.0)
        table = {4: labels(4, det(0.9, (0, 0, 10, 10))), 5: labels(5)}
        [(carried, src)] = self.carried(5, 1, table, flows, 1)
        assert carried.bbox == BBox(5.0, 0.0, 15.0, 10.0)
        assert carried.source_offset == 1
        assert src == BBox(0.0, 0.0, 10.0, 10.0)

    def test_single_backward_hop(self):
        flows = store_with([(6, 5)], du=-5.0)
        table = {6: labels(6, det(0.9, (20, 0, 30, 10))), 5: labels(5)}
        [(carried, _)] = self.carried(5, 1, table, flows, -1)
        assert carried.bbox == BBox(15.0, 0.0, 25.0, 10.0)
        assert carried.source_offset == -1

    def test_two_hop_chain_composes(self):
        flows = store_with([(3, 4), (4, 5)], du=3.0)
        table = {3: labels(3, det(0.9, (0, 0, 10, 10))), 5: labels(5)}
        [(carried, _)] = self.carried(5, 2, table, flows, 2)
        assert carried.bbox == BBox(6.0, 0.0, 16.0, 10.0)
        assert carried.source_offset == 2

    def test_pushed_out_boxes_are_dropped(self):
        flows = store_with([(4, 5)], du=120.0)
        table = {4: labels(4, det(0.9, (0, 0, 10, 10))), 5: labels(5)}
        assert self.carried(5, 1, table, flows, 1) == []

    def test_offset_zero_rejected(self):
        # offset 0 is never carried: it is the target's own teacher boxes,
        # taken as they are, and no motion field is asked for
        teacher = det(0.9, (0, 0, 10, 10))
        cand = build_candidates(5, 0, {5: labels(5, teacher)}.get, store_with([]), SIZE)
        assert cand.detections == [teacher]
        assert cand.source_boxes == [None]
        assert cand.effective_sources == 1


class TestThreshold:
    def test_strictly_above(self):
        ls = labels(0, det(0.4, (0, 0, 1, 1)), det(0.41, (0, 0, 1, 1)))
        kept = threshold_labels(ls, 0.4)
        assert [r[5] for r in kept] == [0.41]


class TestBuildCandidates:
    def _get_labels(self, table):
        return lambda t: table.get(t)

    def test_k_zero_is_thresholded_teacher(self):
        table = {5: labels(5, det(0.9, (0, 0, 10, 10)), det(0.3, (20, 20, 30, 30)))}
        cand = build_candidates(5, 0, self._get_labels(table), FlowStore(), SIZE)
        assert len(cand) == 1
        assert cand.detections[0].score == 0.9
        assert cand.effective_sources == 1
        assert cand.source_boxes == [None]

    def test_k_one_gathers_both_neighbours(self):
        table = {
            4: labels(4, det(0.8, (0, 0, 10, 10))),
            5: labels(5, det(0.9, (5, 0, 15, 10))),
            6: labels(6, det(0.7, (10, 0, 20, 10))),
        }
        flows = full_store(7, du=5.0)
        # backward flows in full_store also push +5; rebuild with negated ones
        flows = FlowStore()
        for t in range(6):
            flows.add(t, t + 1, constant_field(SIZE, 5.0, 0.0))
            flows.add(t + 1, t, constant_field(SIZE, -5.0, 0.0))
        cand = build_candidates(5, 1, self._get_labels(table), flows, SIZE)
        assert cand.effective_sources == 3
        assert cand.count_by_offset() == {0: 1, 1: 1, -1: 1}
        by_offset = {d.source_offset: d for d in cand.detections}
        assert by_offset[1].bbox == BBox(5.0, 0.0, 15.0, 10.0)
        assert by_offset[-1].bbox == BBox(5.0, 0.0, 15.0, 10.0)
        # source boxes ride along for the propagated two
        srcs = [b for b in cand.source_boxes if b is not None]
        assert len(srcs) == 2

    def test_teacher_threshold_applies_to_sources_too(self):
        table = {
            4: labels(4, det(0.2, (0, 0, 10, 10))),
            5: labels(5, det(0.9, (5, 0, 15, 10))),
        }
        flows = full_store(7)
        cand = build_candidates(5, 1, self._get_labels(table), flows, SIZE)
        assert cand.count_by_offset() == {0: 1}

    def test_missing_teacher_for_target_raises(self):
        with pytest.raises(ValidationError):
            build_candidates(5, 0, self._get_labels({}), FlowStore(), SIZE)

    def test_candidate_order_is_offset_interleaved(self):
        table = {
            3: labels(3, det(0.5, (0, 0, 10, 10))),
            4: labels(4, det(0.6, (0, 0, 10, 10))),
            5: labels(5, det(0.9, (0, 0, 10, 10))),
            6: labels(6, det(0.7, (0, 0, 10, 10))),
            7: labels(7, det(0.8, (0, 0, 10, 10))),
        }
        flows = FlowStore()
        for t in range(7):
            flows.add(t, t + 1, constant_field(SIZE, 0.0, 0.0))
            flows.add(t + 1, t, constant_field(SIZE, 0.0, 0.0))
        cand = build_candidates(5, 2, self._get_labels(table), flows, SIZE)
        assert [d.source_offset for d in cand.detections] == [0, 1, -1, 2, -2]
        assert cand.effective_sources == 5

    def test_interior_target_samples_each_field_of_its_reach_once(self, monkeypatch):
        # k=3 around frame 5 of 11: three fields each way, each sampled once
        # for all the corners that cross it, whatever the number of offsets
        points = []
        real = propfuse.motion.sample_bilinear

        def counted(data, xs, ys):
            points.append(len(xs))
            return real(data, xs, ys)

        monkeypatch.setattr(propfuse.motion, "sample_bilinear", counted)
        boxes = det(0.9, (40, 40, 50, 50)), det(0.8, (60, 40, 70, 50))
        table = {t: labels(t, *boxes) for t in range(11)}
        cand = build_candidates(5, 3, table.get, full_store(11, du=1.0), SIZE)
        assert cand.count_by_offset() == {o: 2 for o in (-3, -2, -1, 0, 1, 2, 3)}
        # each way, the farthest source's 8 corners cross the first field,
        # and each nearer source's 8 join them at its own frame
        assert points == [8, 16, 24, 8, 16, 24]

    @given(
        st.integers(0, 90),
        st.integers(0, 90),
        st.floats(0.0, 0.999),
        st.floats(0.0, 0.999),
    )
    def test_zero_flow_shifts_corners_less_than_one_pixel(self, x, y, fx, fy):
        # floor at the chain end moves each fractional corner down by <1 px
        b = BBox(x + fx, y + fy, x + fx + 8.0, y + fy + 8.0)
        table = {
            4: labels(4, Detection(0, b, 0.9)),
            5: labels(5, det(0.9, (0, 0, 1, 1))),
        }
        flows = full_store(7, du=0.0, dv=0.0)
        cand = build_candidates(5, 1, self._get_labels(table), flows, FrameSize(120, 120))
        carried = [d for d in cand.detections if d.source_offset == 1]
        assert len(carried) == 1
        got = carried[0].bbox
        for a, c in zip(got.as_tuple(), b.as_tuple()):
            assert -1.0 < a - c <= 0.0


@st.composite
def sequences(draw):
    """A short sequence with random non-uniform fields and boxes, some off-frame.

    One field pair and one frame's labels may each be missing.
    """
    n = draw(st.integers(2, 7))
    w, h = draw(st.integers(4, 24)), draw(st.integers(4, 24))
    scale = draw(st.sampled_from([0.0, 0.7, 1.5, 3.0, 25.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fields = {}
    for t in range(n - 1):
        for pair in ((t, t + 1), (t + 1, t)):
            fields[pair] = (rng.standard_normal((h, w, 2)) * scale).astype(np.float32)
    missing = draw(st.sampled_from([None] + sorted(fields)))
    fields.pop(missing, None)
    labels = {}
    for t in range(n):
        dets = []
        for _ in range(int(rng.integers(0, 7))):
            x1, y1 = rng.uniform(-0.4 * w, 0.9 * w), rng.uniform(-0.4 * h, 0.9 * h)
            x2, y2 = x1 + rng.uniform(1.0, 0.8 * w), y1 + rng.uniform(1.0, 0.8 * h)
            dets.append((int(rng.integers(0, 2)), (x1, y1, x2, y2), float(rng.uniform())))
        labels[t] = dets
    gap = draw(st.sampled_from([None] + list(range(n))))
    labels.pop(gap, None)
    return FrameSize(w, h), fields, labels


class TestAgainstPerCornerChains:
    @settings(max_examples=80, deadline=None)
    @given(
        sequences(),
        st.integers(0, 3),
        st.sampled_from(COMPOSITION_MODES),
        st.sampled_from([0.0, 0.25, 0.9]),
        st.randoms(use_true_random=False),
    )
    def test_build_candidates_equals_per_corner_chains(self, seq, k, mode, coverage, rnd):
        size, fields, labels = seq
        store = FlowStore({p: MotionField(size, a) for p, a in fields.items()})
        table = {
            t: LabelSet(t, [Detection(c, BBox(*b), s) for c, b, s in dets])
            for t, dets in labels.items()
        }
        plain = {p: a.tolist() for p, a in fields.items()}
        targets = sorted(table)
        rnd.shuffle(targets)
        window = RunWindow(targets, k)
        for t in targets:
            cand = build_candidates(t, k, table.get, store, size, 0.4, mode, coverage, window=window)
            window.finish(t)
            got = [
                (d.class_id, d.bbox.as_tuple(), d.score, d.source_offset, b and b.as_tuple())
                for d, b in zip(cand.detections, cand.source_boxes)
            ]
            want = ref_candidates(t, k, labels, plain, size.width, size.height, 0.4, mode, coverage)
            assert got == want
        # everything is dropped once the last target that reads it is done
        assert window.held() == NOTHING_HELD

    def test_target_built_while_another_loads_a_shared_field(self):
        # target 3 is built, reading field 4 -> 3 through the window, while
        # target 2 is still loading that same field for its backward chain
        n, size, k = 7, FrameSize(24, 24), 3
        rng = np.random.default_rng(11)
        fields = {}
        for t in range(n - 1):
            for pair in ((t, t + 1), (t + 1, t)):
                fields[pair] = (rng.standard_normal((24, 24, 2)) * 2.0).astype(np.float32)
        labels = {
            t: [(0, (x, x + 1.5, x + 9.0, x + 8.0), 0.9) for x in (2.25, 7.5, 12.75)]
            for t in range(n)
        }
        table = {
            t: LabelSet(t, [Detection(c, BBox(*b), s) for c, b, s in dets])
            for t, dets in labels.items()
        }
        window = RunWindow(range(n), k)
        got = {}
        nested = []

        class Interleaving(FlowStore):
            def get(self, a, b):
                if (a, b) == (4, 3) and not nested:
                    nested.append(3)
                    got[3] = build_candidates(3, k, table.get, self, size, window=window)
                return super().get(a, b)

        store = Interleaving({p: MotionField(size, a) for p, a in fields.items()})
        got[2] = build_candidates(2, k, table.get, store, size, window=window)
        plain = {p: a.tolist() for p, a in fields.items()}
        for t in (2, 3):
            want = ref_candidates(t, k, labels, plain, 24, 24, 0.4, "trajectory", 0.25)
            assert len(want) > 3 * 4
            assert [(d.bbox.as_tuple(), d.source_offset) for d in got[t].detections] == [
                (c[1], c[3]) for c in want
            ]
