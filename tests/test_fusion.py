import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from propfuse.errors import ValidationError
from propfuse.fusion import (
    MATCH_MODES,
    FusionConfig,
    _refuse,
    cluster_class,
    fuse_candidates,
    fuse_class,
    nms,
    nmw,
    soft_nms,
)
from propfuse.geometry import BBox, Detection, FrameSize, iou
from propfuse.motion import Frame
from propfuse.propagation import CandidateSet
from propfuse.similarity import (
    FallbackProvider,
    FeatureVector,
    PatchDescriptor,
    PrecomputedEmbeddings,
    embedding_key,
    rescore,
)

from _oracles import oracle_nms, oracle_nmw, oracle_soft_nms, oracle_wbf


def det(score, box, class_id=0, offset=0):
    return Detection(class_id, BBox(*map(float, box)), score, source_offset=offset)


def cfg(**kw):
    base = dict(method="wbf", iou_threshold=0.5, num_sources=1, post_threshold=0.0)
    base.update(kw)
    return FusionConfig(**base)


class TestWorkedExample:
    """Two overlapping boxes, scores 0.8 and 0.4, Thr=0.5, three sources."""

    def run(self):
        dets = [det(0.8, (0, 0, 10, 10)), det(0.4, (2, 0, 12, 10))]
        return fuse_class(dets, cfg(num_sources=3))

    def test_position_is_score_weighted(self):
        (out,) = self.run()
        assert abs(out.bbox.x1 - (0.8 * 0 + 0.4 * 2) / 1.2) < 1e-9
        assert abs(out.bbox.y1 - 0.0) < 1e-9
        assert abs(out.bbox.x2 - (0.8 * 10 + 0.4 * 12) / 1.2) < 1e-9
        assert abs(out.bbox.y2 - 10.0) < 1e-9
        # the numbers themselves
        assert abs(out.bbox.x1 - 0.6667) < 1e-4
        assert abs(out.bbox.x2 - 10.6667) < 1e-4

    def test_score_mean_then_rescaled(self):
        (out,) = self.run()
        assert abs(out.score - 0.4) < 1e-9

    def test_matches_oracle_exactly(self):
        (out,) = self.run()
        ((obox, oscore),) = oracle_wbf(
            [(0.8, (0.0, 0.0, 10.0, 10.0)), (0.4, (2.0, 0.0, 12.0, 10.0))],
            iou_thr=0.5,
            num_sources=3,
        )
        assert out.score == oscore
        assert out.bbox.as_tuple() == obox


class TestRescaling:
    def test_single_member_times_third_exactly(self):
        (out,) = fuse_class([det(0.9, (0, 0, 10, 10))], cfg(num_sources=3))
        assert out.score == 0.9 * (1 / 3)

    def test_three_members_unchanged(self):
        boxes = [det(0.75, (0, 0, 10, 10)), det(0.5, (0, 0, 10, 10)), det(1.0, (0, 0, 10, 10))]
        (out,) = fuse_class(boxes, cfg(num_sources=3))
        # mean of 0.75, 0.5, 1.0 is exactly 0.75 and the factor is exactly 1
        assert out.score == 0.75

    def test_more_members_than_sources_caps_at_one(self):
        boxes = [det(0.6, (0, 0, 10, 10))] * 5
        (out,) = fuse_class(boxes, cfg(num_sources=3))
        assert out.score == 0.6

    def test_type_b_arithmetic(self):
        # lone 0.8 box among three sources: 0.8/3, below a 0.3 post filter
        (out,) = fuse_class([det(0.8, (0, 0, 10, 10))], cfg(num_sources=3))
        assert abs(out.score - 0.8 / 3) <= 1e-9
        assert fuse_class([det(0.8, (0, 0, 10, 10))], cfg(num_sources=3, post_threshold=0.3)) == []


class TestClustering:
    def test_greedy_first_match_in_creation_order(self):
        # box c overlaps both clusters; it must join the first-created one
        a = det(0.9, (0, 0, 10, 10))
        b = det(0.8, (8, 0, 18, 10))
        c = det(0.7, (4, 0, 14, 10))
        clusters = cluster_class([a, b, c], cfg(iou_threshold=0.2))
        assert [len(cl.members) for cl in clusters] == [2, 1]
        assert clusters[0].members[0].score == 0.9
        assert clusters[0].members[1].score == 0.7

    def test_match_against_running_fused_box(self):
        # b drags the fused box towards c. Against a alone, c's IoU is only
        # 0.14; against the running fused box [2,0,12,10] it is 0.29, so c
        # joins. This pins matching to the recomputed box, not the seed box.
        a = det(0.9, (0, 0, 10, 10))
        b = det(0.9, (4, 0, 14, 10))
        c = det(0.5, (7.5, 0, 17.5, 10))
        clusters = cluster_class([a, b, c], cfg(iou_threshold=0.25))
        assert len(clusters) == 1
        assert len(clusters[0].members) == 3

    def test_score_ties_broken_by_coordinates(self):
        a = det(0.5, (20, 0, 30, 10))
        b = det(0.5, (0, 0, 10, 10))
        clusters = cluster_class([a, b], cfg())
        assert clusters[0].fused_bbox.x1 == 0.0

    def test_empty_input(self):
        assert cluster_class([], cfg()) == []
        assert fuse_class([], cfg()) == []


class TestBaselines:
    def test_nms_identical_boxes_keep_top(self):
        out = nms([det(0.9, (0, 0, 10, 10)), det(0.8, (0, 0, 10, 10))], cfg())
        assert len(out) == 1
        assert out[0].score == 0.9

    def test_disjoint_boxes_survive_every_method(self):
        dets = [det(0.9, (0, 0, 10, 10)), det(0.8, (50, 50, 60, 60))]
        for method in ("swbf", "wbf", "nms", "snms", "nmw"):
            c = cfg(method=method, num_sources=1)
            if method in ("swbf", "wbf"):
                out = fuse_class(dets, c)
            elif method == "nms":
                out = nms(dets, c)
            elif method == "snms":
                out = soft_nms(dets, c)
            else:
                out = nmw(dets, c)
            assert len(out) == 2, method
            assert {d.score for d in out} == {0.9, 0.8}

    def test_soft_nms_gaussian_decay(self):
        a = det(0.9, (0, 0, 10, 10))
        b = det(0.8, (0, 0, 10, 6))  # IoU 0.6 with a
        out = soft_nms([a, b], cfg(snms_sigma=0.5))
        decayed = sorted(d.score for d in out)
        assert decayed[1] == 0.9
        assert abs(decayed[0] - 0.8 * math.exp(-(0.6**2) / 0.5)) < 1e-12

    def test_soft_nms_filters_after(self):
        a = det(0.9, (0, 0, 10, 10))
        b = det(0.8, (0, 0, 10, 6))
        out = soft_nms([a, b], cfg(snms_sigma=0.1, post_threshold=0.3))
        assert [d.score for d in out] == [0.9]

    def test_nmw_weighted_position_top_score(self):
        a = det(0.9, (0, 0, 10, 10))
        b = det(0.6, (2, 0, 12, 10))  # IoU 2/3 with a
        (out,) = nmw([a, b], cfg())
        overlap = 8 * 10 / (100 + 100 - 80)
        wa, wb = 0.9 * 1.0, 0.6 * overlap
        assert out.score == 0.9
        assert abs(out.bbox.x1 - (wa * 0 + wb * 2) / (wa + wb)) < 1e-9
        assert abs(out.bbox.x2 - (wa * 10 + wb * 12) / (wa + wb)) < 1e-9


def _random_instance(rng, n_max=8):
    n = int(rng.integers(1, n_max + 1))
    dets = []
    for _ in range(n):
        x = float(rng.uniform(0, 70))
        y = float(rng.uniform(0, 70))
        w = float(rng.uniform(5, 30))
        h = float(rng.uniform(5, 30))
        s = float(rng.uniform(0.05, 1.0))
        dets.append((s, (x, y, x + w, y + h)))
    return dets


class TestOracleEquivalence:
    def _compare(self, got, expected):
        assert len(got) == len(expected)
        got = sorted(got, key=lambda d: (-d.score, d.bbox.as_tuple()))
        expected = sorted(expected, key=lambda e: (-e[1], e[0]))
        for g, (ebox, escore) in zip(got, expected):
            assert g.score == escore
            for a, b in zip(g.bbox.as_tuple(), ebox):
                assert abs(a - b) < 1e-9

    def test_wbf_random_instances(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            dets = _random_instance(rng)
            ns = int(rng.integers(1, 6))
            got = fuse_class([det(s, b) for s, b in dets], cfg(num_sources=ns))
            self._compare(got, oracle_wbf(dets, 0.5, ns))

    def test_nms_random_instances(self):
        rng = np.random.default_rng(77)
        for _ in range(300):
            dets = _random_instance(rng)
            got = nms([det(s, b) for s, b in dets], cfg())
            expected = oracle_nms(dets, 0.5)
            assert [g.score for g in got] == [s for _, s in expected]
            assert [g.bbox.as_tuple() for g in got] == [b for b, _ in expected]

    def test_soft_nms_random_instances(self):
        rng = np.random.default_rng(78)
        for _ in range(200):
            dets = _random_instance(rng)
            got = soft_nms([det(s, b) for s, b in dets], cfg(snms_sigma=0.5))
            self._compare(got, oracle_soft_nms(dets, 0.5))

    def test_nmw_random_instances(self):
        rng = np.random.default_rng(79)
        for _ in range(200):
            dets = _random_instance(rng)
            got = nmw([det(s, b) for s, b in dets], cfg())
            self._compare(got, oracle_nmw(dets, 0.5))


class TestFuseCandidates:
    def _candidates(self, dets, boxes=None, effective=1):
        return CandidateSet(
            frame_index=7,
            detections=list(dets),
            source_boxes=boxes if boxes is not None else [None] * len(dets),
            effective_sources=effective,
        )

    def test_classes_never_merge(self):
        dets = [det(0.9, (0, 0, 10, 10), class_id=0), det(0.8, (0, 0, 10, 10), class_id=1)]
        result = fuse_candidates(self._candidates(dets), cfg(num_sources=1))
        assert len(result.labels.detections) == 2

    def test_empty_candidates(self):
        result = fuse_candidates(self._candidates([]), cfg())
        assert result.labels.detections == []
        assert result.clusters == 0

    def test_output_sorted_by_score(self):
        dets = [det(0.3, (0, 0, 10, 10)), det(0.9, (50, 50, 60, 60))]
        result = fuse_candidates(self._candidates(dets), cfg())
        scores = [d.score for d in result.labels.detections]
        assert scores == sorted(scores, reverse=True)

    def test_output_offsets_are_reset(self):
        dets = [det(0.9, (0, 0, 10, 10), offset=2)]
        boxes = [BBox(0.0, 0.0, 10.0, 10.0)]
        table = {
            embedding_key(7, dets[0].bbox): FeatureVector(np.array([0.2, 0.8])),
            embedding_key(5, boxes[0]): FeatureVector(np.array([0.2, 0.8])),
        }
        result = fuse_candidates(
            self._candidates(dets, boxes), cfg(method="swbf"), PrecomputedEmbeddings(table)
        )
        assert all(d.source_offset == 0 for d in result.labels.detections)

    def test_swbf_needs_provider(self):
        dets = [det(0.9, (0, 0, 10, 10), offset=1)]
        with pytest.raises(ValidationError):
            fuse_candidates(self._candidates(dets, [dets[0].bbox]), cfg(method="swbf"))

    def test_swbf_offset_zero_passthrough(self):
        # no propagated candidates: rescoring touches nothing, but a provider
        # is still required by contract
        dets = [det(0.9, (0, 0, 10, 10))]
        result = fuse_candidates(
            self._candidates(dets), cfg(method="swbf"), PrecomputedEmbeddings({})
        )
        assert result.labels.detections[0].score == 0.9

    def test_swbf_lookup_miss_drops_and_counts(self):
        dets = [det(0.9, (0, 0, 10, 10), offset=1)]
        result = fuse_candidates(
            self._candidates(dets, [dets[0].bbox]),
            cfg(method="swbf"),
            PrecomputedEmbeddings({}),
        )
        assert result.labels.detections == []
        assert result.dropped_rescore == 1

    def _mixed_provider(self):
        """A two-value table over a 9-value patch provider, as embed_miss=fallback builds."""
        data = ((np.arange(48)[None, :] * 3 + np.arange(40)[:, None] * 7) % 101).astype(np.uint8)
        frame = Frame(FrameSize(48, 40), data)
        table = {
            embedding_key(7, BBox(0.0, 0.0, 10.0, 10.0)): FeatureVector(np.array([0.2, 0.8])),
            embedding_key(6, BBox(1.0, 1.0, 11.0, 11.0)): FeatureVector(np.array([0.3, 0.7])),
        }
        patch = PatchDescriptor(lambda t: frame, patch_size=3)
        return FallbackProvider(PrecomputedEmbeddings(table), patch)

    def test_swbf_scores_pairs_of_each_dimension_as_rescore_does(self):
        dets = [
            det(0.9, (0, 0, 10, 10), class_id=0, offset=1),
            det(0.8, (30, 20, 40, 32), class_id=1, offset=-1),
            det(0.7, (12, 4, 20, 30), class_id=1, offset=0),
            det(0.6, (30, 20, 41, 33), class_id=1, offset=2),
        ]
        boxes = [BBox(1.0, 1.0, 11.0, 11.0), BBox(31.0, 20.0, 41.0, 30.0), None, BBox(2.0, 3.0, 9.0, 9.0)]
        got = fuse_candidates(self._candidates(dets, boxes), cfg(method="swbf"), self._mixed_provider())
        rescored = [
            d if d.source_offset == 0 else rescore(d, b, self._mixed_provider(), 7, 7 - d.source_offset)
            for d, b in zip(dets, boxes)
        ]
        assert [r.score for r in rescored] != [d.score for d in dets]
        want = fuse_candidates(self._candidates(rescored), cfg())
        assert got.labels == want.labels
        assert got.dropped_rescore == 0

    def test_swbf_pair_of_two_dimensions_is_rejected_as_rescore_rejects_it(self):
        dets = [det(0.9, (0, 0, 10, 10), offset=1)]
        boxes = [BBox(2.0, 1.0, 11.0, 11.0)]
        with pytest.raises(ValidationError) as want:
            rescore(dets[0], boxes[0], self._mixed_provider(), 7, 6)
        with pytest.raises(ValidationError) as got:
            fuse_candidates(self._candidates(dets, boxes), cfg(method="swbf"), self._mixed_provider())
        assert str(got.value) == str(want.value) == "feature dimensions differ: 2 vs 9"

    def test_dropped_post_counted(self):
        dets = [det(0.2, (0, 0, 10, 10)), det(0.9, (50, 50, 60, 60))]
        result = fuse_candidates(self._candidates(dets), cfg(post_threshold=0.5))
        assert result.dropped_post == 1
        assert len(result.labels.detections) == 1


class TestProperties:
    @settings(max_examples=120)
    @given(
        st.lists(
            st.tuples(
                st.floats(0.01, 1.0),
                st.floats(0, 60),
                st.floats(0, 60),
                st.floats(2, 25),
                st.floats(2, 25),
            ),
            min_size=1,
            max_size=8,
        ),
        st.integers(1, 5),
        st.sampled_from(["wbf", "nms", "snms", "nmw"]),
    )
    def test_scores_never_exceed_max_input(self, rows, ns, method):
        dets = [det(s, (x, y, x + w, y + h)) for s, x, y, w, h in rows]
        c = cfg(method=method, num_sources=ns)
        if method == "wbf":
            out = fuse_class(dets, c)
        elif method == "nms":
            out = nms(dets, c)
        elif method == "snms":
            out = soft_nms(dets, c)
        else:
            out = nmw(dets, c)
        top = max(d.score for d in dets)
        assert all(d.score <= top + 1e-15 for d in out)

    @settings(max_examples=60)
    @given(
        st.lists(
            st.tuples(st.floats(0.01, 1.0), st.floats(0, 200), st.floats(0, 200)),
            min_size=1,
            max_size=8,
        )
    )
    def test_far_apart_boxes_pass_through_wbf(self, rows):
        # space boxes on a coarse lattice so nothing can overlap
        dets = [
            det(s, (300 * i, 300 * i, 300 * i + 10, 300 * i + 10))
            for i, (s, _, _) in enumerate(rows)
        ]
        out = fuse_class(dets, cfg(num_sources=1))
        assert sorted(d.score for d in out) == sorted(d.score for d in dets)


class TestMatchModes:
    def test_best_mode_can_differ_from_first(self):
        # c overlaps cluster A slightly and cluster B strongly
        a = det(0.9, (0, 0, 10, 10))
        b = det(0.8, (7, 0, 17, 10))
        c = det(0.7, (6, 0, 16, 10))
        first = cluster_class([a, b, c], cfg(iou_threshold=0.2, match="first"))
        best = cluster_class([a, b, c], cfg(iou_threshold=0.2, match="best"))
        assert [len(cl.members) for cl in first] == [2, 1]
        assert [len(cl.members) for cl in best] == [1, 2]

    def test_bad_match_mode_rejected(self):
        with pytest.raises(ValidationError):
            cfg(match="random")

    def test_bad_method_rejected(self):
        with pytest.raises(ValidationError):
            cfg(method="magic")

    def test_bad_threshold_rejected(self):
        with pytest.raises(ValidationError):
            cfg(iou_threshold=0.0)
        with pytest.raises(ValidationError):
            cfg(iou_threshold=1.0)


def iou_loop_clusters(dets, c):
    """The greedy clustering with one ``geometry.iou`` call per (box, fused box) pair.

    Returns (member input positions, fused box, fused score) per cluster.
    """
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, dets[i].bbox.as_tuple(), i))
    clusters = []  # [member positions, members, fused box, fused score]
    for i in order:
        d = dets[i]
        target = None
        best = c.iou_threshold
        for j, (_, _, fused, _) in enumerate(clusters):
            overlap = iou(d.bbox, fused)
            if c.match == "best":
                if overlap > best:
                    best, target = overlap, j
            elif overlap > c.iou_threshold:
                target = j
                break
        if target is None:
            clusters.append([[i], [d], d.bbox, d.score])
        else:
            cl = clusters[target]
            cl[0].append(i)
            cl[1].append(d)
            cl[2], cl[3] = _refuse(cl[1])
    return [(pos, fused, score) for pos, _, fused, score in clusters]


def _clusters(dets, c):
    position = {id(d): i for i, d in enumerate(dets)}
    return [
        ([position[id(m)] for m in cl.members], cl.fused_bbox, cl.fused_score)
        for cl in cluster_class(dets, c)
    ]


# crowd density: up to 80 boxes of one class on integer corners in a 85x85
# square, scores from a short list so that ties are common
_crowd_row = st.tuples(
    st.integers(0, 60),
    st.integers(0, 60),
    st.integers(1, 25),
    st.integers(1, 25),
    st.one_of(st.sampled_from([0.45, 0.6, 0.75, 0.9]), st.floats(0.05, 1.0)),
)


class TestClusterClassAgainstIouLoop:
    @pytest.mark.parametrize("match", MATCH_MODES)
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        st.lists(_crowd_row, min_size=1, max_size=80),
        st.lists(st.integers(0, 79), max_size=12),
        st.sampled_from([0.3, 1 / 3, 0.5, 0.55]),
    )
    def test_equals_reference(self, match, rows, copies, thr):
        dets = [det(s, (x, y, x + w, y + h)) for x, y, w, h, s in rows]
        # duplicated boxes, as separate objects, overlap every cluster alike
        for i in copies:
            d = dets[i % len(rows)]
            dets.append(det(d.score, d.bbox.as_tuple()))
        c = cfg(iou_threshold=thr, match=match)
        assert _clusters(dets, c) == iou_loop_clusters(dets, c)

    @pytest.mark.parametrize("match", MATCH_MODES)
    def test_overlap_exactly_at_threshold_does_not_join(self, match):
        # IoU 50 / 100 = 0.5 exactly; a box joins only above the threshold
        dets = [det(0.9, (0, 0, 10, 10)), det(0.8, (0, 0, 10, 5))]
        c = cfg(iou_threshold=0.5, match=match)
        assert iou(dets[0].bbox, dets[1].bbox) == 0.5
        assert _clusters(dets, c) == iou_loop_clusters(dets, c)
        assert len(cluster_class(dets, c)) == 2

    def test_best_mode_tie_goes_to_the_first_cluster(self):
        # c overlaps both disjoint clusters by exactly 50 / 150
        a = det(0.9, (0, 0, 10, 10))
        b = det(0.8, (10, 0, 20, 10))
        c = det(0.7, (5, 0, 15, 10))
        assert iou(c.bbox, a.bbox) == iou(c.bbox, b.bbox) > 0.3
        clusters = cluster_class([a, b, c], cfg(iou_threshold=0.3, match="best"))
        assert [len(cl.members) for cl in clusters] == [2, 1]
        assert _clusters([a, b, c], cfg(iou_threshold=0.3, match="best")) == iou_loop_clusters(
            [a, b, c], cfg(iou_threshold=0.3, match="best")
        )


class TestBatchedRescoring:
    @pytest.mark.parametrize("k", [1, 3])
    def test_scores_equal_per_candidate_rescore_with_fresh_provider(self, noisy_manifest, k):
        from dataclasses import replace

        from propfuse.pipeline import PipelineConfig, build_provider, gather_candidates
        from propfuse.propagation import RunWindow
        from propfuse.similarity import rescore

        config = PipelineConfig(k=k, method="swbf")
        targets = noisy_manifest.frame_indices()
        window = RunWindow(targets, k)
        shared = build_provider(noisy_manifest, config)
        carried = 0
        for t in targets:
            cands = gather_candidates(noisy_manifest, config, t, window)
            fcfg = config.fusion_config(config.source_count(cands.effective_sources, k))
            got = fuse_candidates(cands, fcfg, shared)

            rescored, dropped = [], 0
            for d, src in zip(cands.detections, cands.source_boxes):
                if d.source_offset != 0:
                    carried += 1
                    fresh = build_provider(noisy_manifest, config)
                    d = rescore(d, src, fresh, t, t - d.source_offset)
                if d is None:
                    dropped += 1
                else:
                    rescored.append(d)
            plain = CandidateSet(t, rescored, [None] * len(rescored), cands.effective_sources)
            want = fuse_candidates(plain, replace(fcfg, method="wbf"))
            assert got.labels == want.labels
            assert got.dropped_rescore == dropped
        assert carried > 0
