import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from propfuse.errors import EmptyCropError, ValidationError
from propfuse.geometry import BBox, Detection, FrameSize
from propfuse.motion import Frame
from propfuse.similarity import (
    MAX_PATCH_SIZE,
    FallbackProvider,
    FeatureVector,
    PatchDescriptor,
    PrecomputedEmbeddings,
    cosine_sims,
    embedding_key,
    rescore,
)

import _bundles
from _oracles import ref_cosine, ref_patch_descriptor


def vec(*values):
    return FeatureVector(np.asarray(values, dtype=np.float64))


def cosine(a, b):
    """``cosine_sims`` of one pair, as one-row arrays."""
    (sim,) = cosine_sims(a.values[None, :], b.values[None, :])
    return sim


class TestCosine:
    def test_identity_is_exactly_one(self):
        a = vec(0.3, 0.7, 0.1, 0.95)
        assert cosine(a, a) == 1.0

    def test_orthogonal(self):
        assert cosine(vec(1.0, 0.0), vec(0.0, 1.0)) == 0.0

    def test_half(self):
        # dot = 1, |a||b| = sqrt(2)*sqrt(2) = 2
        assert cosine(vec(1.0, 0.0, 1.0), vec(1.0, 1.0, 0.0)) == 0.5

    def test_power_of_two_scaling_is_exactly_one(self):
        a = np.array([0.813, 0.244, 0.661, 0.092])
        assert cosine(FeatureVector(a), FeatureVector(a * 0.25)) == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            cosine(vec(1.0, 0.0), vec(1.0, 0.0, 0.0))

    @given(
        st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3),
        st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3),
    )
    def test_bounded_and_matches_reference(self, xs, ys):
        a, b = vec(*xs), vec(*ys)
        v = cosine(a, b)
        assert 0.0 <= v <= 1.0
        assert abs(v - ref_cosine(np.asarray(xs), np.asarray(ys))) < 1e-12


    def test_underflowing_norms_are_a_validation_error(self):
        tiny = vec(1e-82, 0.0)
        with pytest.raises(ValidationError, match="underflows"):
            cosine(tiny, tiny)
        rows = np.array([[0.5, 0.25], [1e-82, 0.0]])
        with pytest.raises(ValidationError, match="underflows"):
            cosine_sims(rows, rows)


def _bundle_rows(bundle, patch_size):
    """Descriptors of every teacher box of every frame of a bundle, per frame."""
    desc = PatchDescriptor(lambda t: bundle.frames[t], patch_size=patch_size)
    out = []
    for t, labels in enumerate(bundle.detections):
        vecs = desc.embed_many(t, [d.bbox.as_tuple() for d in labels.detections])
        out.append([v for v in vecs if v is not None])
    return out


class TestCosines:
    @pytest.mark.parametrize("patch_size", [2, 7, 16])
    def test_stacked_products_equal_one_pair_at_a_time(self, patch_size):
        """Every row pair's cosine has the bits of the one-pair reference on that pair.

        The pairs are the real descriptors of the noisy and benchmark
        bundles: every box of a frame against every box of the next frame,
        every box against itself, and flat crops, which are all-0.5 vectors.
        """
        pairs = []
        for bundle in (_bundles.noisy_bundle(), _bundles.benchmark_bundle()):
            rows = _bundle_rows(bundle, patch_size)
            for here, there in zip(rows, rows[1:]):
                pairs += [(a, b) for a in here for b in there]
            pairs += [(a, a) for frame in rows for a in frame]
        flat = Frame(FrameSize(24, 16), np.full((16, 24), 93, dtype=np.uint8))
        flats = PatchDescriptor(lambda t: flat, patch_size=patch_size).embed_many(
            0, [(0.0, 0.0, 5.0, 7.0), (3.5, 2.25, 24.0, 16.0)]
        )
        assert all(np.all(f.values == 0.5) for f in flats)
        pairs += [(flats[0], flats[1]), (flats[1], flats[1])]
        pairs += [(f, a) for f in flats for a in rows[0]] + [(a, f) for f in flats for a in rows[-1]]
        assert len(pairs) > 1000

        a = np.stack([p[0].values for p in pairs])
        b = np.stack([p[1].values for p in pairs])
        got = [x.hex() for x in cosine_sims(a, b).tolist()]
        assert got == [ref_cosine(p.values, q.values).hex() for p, q in pairs]
        selves = [g for g, (p, q) in zip(got, pairs) if p is q]
        assert selves and set(selves) == {(1.0).hex()}


class TestFeatureVector:
    def test_zero_vector_rejected(self):
        with pytest.raises(ValidationError):
            vec(0.0, 0.0, 0.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            vec(0.5, 1.5)
        with pytest.raises(ValidationError):
            vec(-0.1, 0.5)

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            vec(0.5, float("nan"))


def _gradient_frame(w=48, h=36, scale=1, offset=0):
    base = (np.arange(h)[:, None] * 2 + np.arange(w)[None, :]) % 97
    data = (base * scale + offset).astype(np.uint8)
    return Frame(FrameSize(w, h), data)


class TestPatchDescriptor:
    def test_deterministic(self):
        frame = _gradient_frame()
        desc = PatchDescriptor(lambda t: frame, patch_size=8)
        box = BBox(4.0, 4.0, 28.0, 20.0)
        a = desc.embed(0, box)
        b = desc.embed(0, box)
        assert np.array_equal(a.values, b.values)
        assert a.dim == 64

    def test_affine_brightness_invariance(self):
        # luminance min-max normalisation cancels y = 2x + 3 exactly
        plain = PatchDescriptor(lambda t: _gradient_frame(), patch_size=8)
        bright = PatchDescriptor(lambda t: _gradient_frame(scale=2, offset=3), patch_size=8)
        box = BBox(2.0, 2.0, 30.0, 26.0)
        assert np.array_equal(plain.embed(0, box).values, bright.embed(0, box).values)

    def test_flat_patch_maps_to_half(self):
        frame = Frame(FrameSize(16, 16), np.full((16, 16), 77, dtype=np.uint8))
        desc = PatchDescriptor(lambda t: frame, patch_size=4)
        values = desc.embed(0, BBox(2.0, 2.0, 10.0, 10.0)).values
        assert np.all(values == 0.5)

    @pytest.mark.parametrize("size", [1, MAX_PATCH_SIZE + 1, 10**9])
    def test_patch_size_out_of_bounds_is_rejected_before_any_frame(self, size):
        def loader(t):
            raise AssertionError("no frame should be read")

        with pytest.raises(ValidationError, match=f"patch_size must lie in \\[2, {MAX_PATCH_SIZE}\\]"):
            PatchDescriptor(loader, patch_size=size)

    def test_largest_patch_size_is_accepted(self):
        desc = PatchDescriptor(lambda t: _gradient_frame(), patch_size=MAX_PATCH_SIZE)
        assert desc.embed(0, BBox(1.0, 1.0, 30.0, 20.0)).dim == MAX_PATCH_SIZE**2

    def test_fully_outside_crop_raises(self):
        desc = PatchDescriptor(lambda t: _gradient_frame(), patch_size=4)
        with pytest.raises(EmptyCropError):
            desc.embed(0, BBox(-30.0, -30.0, -10.0, -10.0))

    def test_identical_content_gives_similarity_one(self):
        frame = _gradient_frame()
        desc = PatchDescriptor(lambda t: frame, patch_size=8)
        box = BBox(4.0, 4.0, 20.0, 16.0)
        assert cosine(desc.embed(0, box), desc.embed(1, box)) == 1.0


@st.composite
def frames_and_boxes(draw):
    """A small grey or RGB frame, flat or not, and boxes inside, across and off it."""
    w, h = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    shape = (h, w, 3) if draw(st.booleans()) else (h, w)
    size = int(np.prod(shape))
    if draw(st.booleans()):
        data = np.full(shape, draw(st.integers(0, 255)), dtype=np.uint8)
    else:
        values = draw(st.lists(st.integers(0, 255), min_size=size, max_size=size))
        data = np.asarray(values, dtype=np.uint8).reshape(shape)
    coord = st.floats(-2.0 * max(w, h), 2.0 * max(w, h), allow_nan=False)
    extent = st.floats(0.125, 2.0 * max(w, h), allow_nan=False)
    boxes = draw(
        st.lists(
            st.builds(lambda x, y, bw, bh: BBox(x, y, x + bw, y + bh), coord, coord, extent, extent),
            min_size=1,
            max_size=6,
        )
    )
    return Frame(FrameSize(w, h), data), boxes


class TestPatchDescriptorBatch:
    @settings(max_examples=150, deadline=None)
    @given(frames_and_boxes(), st.integers(2, 5))
    def test_embed_many_matches_reference_bit_for_bit(self, case, n):
        frame, boxes = case
        desc = PatchDescriptor(lambda t: frame, patch_size=n)
        # a repeated box and a second call exercise the memo as well
        asked = [b.as_tuple() for b in boxes + boxes[:1]]
        for got, box in zip(desc.embed_many(3, asked), boxes + boxes[:1]):
            want = ref_patch_descriptor(frame.data.tolist(), box.as_tuple(), n)
            if want is None:
                assert got is None
                with pytest.raises(EmptyCropError):
                    desc.embed(3, box)
            else:
                assert got.values.tolist() == want
                assert desc.embed(3, box) is got

    def test_new_crops_share_one_bilinear_lookup(self, monkeypatch):
        import propfuse.similarity as similarity

        calls = []
        real = similarity.sample_bilinear

        def counting(*args):
            calls.append(len(args[1]))
            return real(*args)

        monkeypatch.setattr(similarity, "sample_bilinear", counting)
        desc = PatchDescriptor(lambda t: _gradient_frame(), patch_size=4)
        boxes = [BBox(1.0, 1.0, 9.0, 9.0), BBox(5.0, 2.0, 20.0, 30.0), BBox(-9.0, -9.0, -1.0, -1.0)]
        first = desc.embed_many(0, [b.as_tuple() for b in boxes])
        assert calls == [2]
        assert first[2] is None
        again = desc.embed_many(0, [b.as_tuple() for b in boxes[:2]] + [(2.0, 2.0, 6.0, 6.0)])
        assert calls == [2, 1]
        assert again[:2] == first[:2]

    def test_release_drops_descriptors_and_luminance(self):
        loads = []

        def loader(t):
            loads.append(t)
            return _gradient_frame()

        desc = PatchDescriptor(loader, patch_size=4)
        box = BBox(4.0, 4.0, 12.0, 12.0)
        kept = desc.embed(0, box)
        desc.embed(1, box)
        assert desc.held_frames() == {0, 1}
        desc.release(1)
        assert desc.held_frames() == {0}
        assert desc.embed(0, box) is kept
        desc.embed(1, box)
        assert loads == [0, 1, 1]


def _edge_boxes(w, h):
    """Boxes inside the frame, across each of its edges, and wholly off each side."""
    return [
        BBox(3.0, 2.0, 17.5, 11.25),
        BBox(-4.5, 5.0, 6.0, 12.0),
        BBox(4.0, -3.25, 12.0, 8.0),
        BBox(w - 6.5, 3.0, w + 2.0, 10.0),
        BBox(5.0, h - 4.0, 14.0, h + 3.5),
        BBox(-2.0, -2.0, w + 2.0, h + 2.0),
        BBox(-9.0, 4.0, -1.0, 9.0),
        BBox(3.0, -8.0, 9.0, 0.0),
        BBox(w, 2.0, w + 5.0, 6.0),
        BBox(2.0, h + 1.0, 8.0, h + 6.5),
    ]


class TestSampledPlane:
    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("patch_size", [2, 5, 16])
    def test_descriptors_equal_the_luminance_reference(self, channels, patch_size):
        w, h = 37, 29
        shape = (h, w) if channels == 1 else (h, w, 3)
        data = np.random.default_rng(7).integers(0, 256, shape, dtype=np.uint8)
        frame = Frame(FrameSize(w, h), data)
        boxes = _edge_boxes(w, h)
        got = PatchDescriptor(lambda t: frame, patch_size=patch_size).embed_many(
            0, [b.as_tuple() for b in boxes]
        )
        plane = frame.luminance().tolist()
        outside = 0
        for vec, box in zip(got, boxes):
            want = ref_patch_descriptor(plane, box.as_tuple(), patch_size)
            if want is None:
                outside += 1
                assert vec is None
            else:
                assert [x.hex() for x in vec.values.tolist()] == [x.hex() for x in want]
        assert outside == 4

    def test_grey_frame_is_held_as_its_own_bytes(self):
        import tracemalloc

        w, h = 640, 480
        data = (np.arange(w * h) % 251).astype(np.uint8).reshape(h, w)
        desc = PatchDescriptor(lambda t: Frame(FrameSize(w, h), data.copy()), patch_size=16)
        tracemalloc.start()
        try:
            boxes = [b.as_tuple() for b in _edge_boxes(w, h)[:6]]
            assert all(v is not None for v in desc.embed_many(0, boxes))
            held, peak = tracemalloc.get_traced_memory()
            desc.release(0)
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the frame's h*w pixels and six 256-value descriptors, where a float64
        # luminance plane alone would take 8*h*w bytes
        assert w * h <= held < w * h + 100_000
        assert peak < 2 * w * h
        assert after < held - w * h


class TestPrecomputed:
    def test_lookup_and_miss(self):
        box = BBox(1.0, 2.0, 3.0, 4.0)
        table = {embedding_key(0, box): vec(0.1, 0.9)}
        pre = PrecomputedEmbeddings(table)
        (hit,) = pre.embed_many(0, [box.as_tuple()])
        assert np.array_equal(hit.values, [0.1, 0.9])
        (miss,) = pre.embed_many(1, [box.as_tuple()])
        assert miss is None

    def test_load_jsonl(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        path.write_text(
            '{"frame": 0, "box": [1.0, 2.0, 3.0, 4.0], "vec": [0.25, 0.5]}\n',
            encoding="utf-8",
        )
        pre = PrecomputedEmbeddings.load(path)
        (got,) = pre.embed_many(0, [(1.0, 2.0, 3.0, 4.0)])
        assert np.array_equal(got.values, [0.25, 0.5])

    def test_written_file_loads_and_writes_back_to_the_same_bytes(self, tmp_path):
        table = _bundles.clean_bundle().embeddings
        first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
        PrecomputedEmbeddings(table).write(first)
        loaded = PrecomputedEmbeddings.load(first)
        loaded.write(second)
        assert second.read_bytes() == first.read_bytes()
        assert len(loaded) == len(table)
        # one line per key, keys in order, each vector within 6 decimals of its own
        lines = first.read_text(encoding="ascii").splitlines()
        assert len(lines) == len(table)
        for line, key in zip(lines, sorted(table)):
            assert line.startswith('{"frame": %d, "box": [%.6f, ' % key[:2])
            (got,) = loaded.embed_many(key[0], [key[1:]])
            assert np.allclose(got.values, table[key].values, rtol=0, atol=5e-7)

    def test_empty_table_writes_an_empty_file(self, tmp_path):
        PrecomputedEmbeddings({}).write(tmp_path / "emb.jsonl")
        assert (tmp_path / "emb.jsonl").read_bytes() == b""
        assert len(PrecomputedEmbeddings.load(tmp_path / "emb.jsonl")) == 0

    def test_mixed_dimensions_rejected(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        path.write_text(
            '{"frame": 0, "box": [1, 2, 3, 4], "vec": [0.25, 0.5]}\n'
            '{"frame": 0, "box": [5, 6, 7, 8], "vec": [0.25, 0.5, 0.75]}\n',
            encoding="utf-8",
        )
        with pytest.raises(ValidationError):
            PrecomputedEmbeddings.load(path)

    def test_fallback_provider(self):
        frame = _gradient_frame()
        patch = PatchDescriptor(lambda t: frame, patch_size=4)
        pre = PrecomputedEmbeddings({})
        combo = FallbackProvider(pre, patch)
        box = BBox(4.0, 4.0, 12.0, 12.0)
        (got,) = combo.embed_many(0, [box.as_tuple()])
        assert np.array_equal(got.values, patch.embed(0, box).values)

    def test_embed_many_looks_up_each_key(self):
        box = BBox(1.0, 2.0, 3.0, 4.0)
        pre = PrecomputedEmbeddings({embedding_key(0, box): vec(0.1, 0.9)})
        got = pre.embed_many(0, [box.as_tuple(), (1.0, 2.0, 3.0, 5.0), box.as_tuple()])
        assert got[0] is got[2] is pre.embed_many(0, [box.as_tuple()])[0]
        assert got[1] is None

    def test_fallback_batches_only_the_misses(self):
        frame = _gradient_frame()
        patch = PatchDescriptor(lambda t: frame, patch_size=4)
        hit = BBox(1.0, 2.0, 9.0, 10.0)
        misses = [BBox(4.0, 4.0, 12.0, 12.0), BBox(-8.0, -8.0, -2.0, -2.0)]
        asked = []

        class Spy:
            def embed_many(self, frame_index, boxes):
                asked.append(list(boxes))
                return patch.embed_many(frame_index, boxes)

        stored = vec(0.25, 0.5)
        combo = FallbackProvider(PrecomputedEmbeddings({embedding_key(0, hit): stored}), Spy())
        got = combo.embed_many(0, [misses[0].as_tuple(), hit.as_tuple(), misses[1].as_tuple()])
        assert asked == [[m.as_tuple() for m in misses]]
        assert got[1] is stored
        assert got[0] is patch.embed(0, misses[0])
        assert got[2] is None

    @pytest.mark.parametrize(
        "line, needle",
        [
            ('{"frame": "zero", "box": [1, 2, 3, 4], "vec": [0.5]}', "zero"),
            ('{"frame": 0, "box": [1, "two", 3, 4], "vec": [0.5]}', "two"),
            ('{"frame": 0, "box": [1, 2, 3, 4], "vec": [0.5, "x"]}', "x"),
            ('{"frame": 1e999, "box": [1, 2, 3, 4], "vec": [0.5]}', "infinity"),
            ('{"frame": 0, "box": [1, 2, 3, 4], "vec": [[0.5], [0.5, 0.5]]}', "got list [0.5]"),
            ('[0, [1, 2, 3, 4], [0.5]]', "malformed"),
        ],
        ids=["text-frame", "text-box", "text-vec", "infinite-frame", "ragged-vec", "not-an-object"],
    )
    def test_malformed_record_names_path_and_line(self, tmp_path, line, needle):
        path = tmp_path / "emb.jsonl"
        path.write_text('{"frame": 0, "box": [5, 6, 7, 8], "vec": [0.5]}\n' + line + "\n")
        with pytest.raises(ValidationError) as err:
            PrecomputedEmbeddings.load(path)
        assert str(err.value).startswith(f"{path}:2: ")
        assert needle in str(err.value)

    @pytest.mark.parametrize("frame, shown", [("1.7", "float 1.7"), ("true", "bool True")])
    def test_frame_must_be_a_json_integer(self, tmp_path, frame, shown):
        path = tmp_path / "emb.jsonl"
        path.write_text(f'{{"frame": {frame}, "box": [1, 2, 3, 4], "vec": [0.5]}}\n')
        with pytest.raises(ValidationError) as err:
            PrecomputedEmbeddings.load(path)
        assert str(err.value) == (
            f"{path}:1: malformed embedding record: frame must be an integer, got {shown}"
        )

    def test_undecodable_file_names_path_and_line(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        path.write_bytes(b'{"frame": 0, "box": [5, 6, 7, 8], "vec": [0.5]}\n{"frame": \xff}\n')
        with pytest.raises(ValidationError) as err:
            PrecomputedEmbeddings.load(path)
        assert str(err.value).startswith(f"{path}:2: not ascii text")


class TestRescore:
    def test_score_never_increases(self):
        frame = _gradient_frame()
        desc = PatchDescriptor(lambda t: frame, patch_size=8)
        det = Detection(0, BBox(4.0, 4.0, 20.0, 16.0), 0.8, source_offset=1)
        out = rescore(det, BBox(6.0, 6.0, 22.0, 18.0), desc, target_frame=5, source_frame=4)
        assert out is not None
        assert out.score <= 0.8

    def test_identical_crops_keep_score(self):
        frame = _gradient_frame()
        desc = PatchDescriptor(lambda t: frame, patch_size=8)
        box = BBox(4.0, 4.0, 20.0, 16.0)
        det = Detection(0, box, 0.8, source_offset=1)
        out = rescore(det, box, desc, target_frame=5, source_frame=4)
        assert out.score == 0.8

    def test_lookup_miss_drops_candidate(self):
        pre = PrecomputedEmbeddings({})
        det = Detection(0, BBox(0.0, 0.0, 4.0, 4.0), 0.8, source_offset=1)
        assert rescore(det, det.bbox, pre, target_frame=1, source_frame=0) is None
