import math
import os
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from propfuse.errors import (
    FlowFormatError,
    FlowLengthError,
    MissingFlowError,
    ValidationError,
)
from propfuse.geometry import BBox, Detection, FrameSize
from propfuse.motion import (
    FLOW_BLOCK_BYTES,
    ComposedMotion,
    FlowStore,
    Frame,
    MotionField,
    constant_field,
    carried_position,
    carry,
    land_boxes,
    read_flow,
    sample_bilinear,
    transfer_box,
    write_flow,
)

from _oracles import ref_chain_point


def _field(size, data):
    return MotionField(size, np.asarray(data, dtype=np.float32))


class TestFlowFile:
    def test_two_by_one_layout_is_28_bytes(self, tmp_path):
        f = _field(FrameSize(2, 1), [[[1.0, 0.0], [0.0, -1.0]]])
        path = tmp_path / "a.flo"
        write_flow(f, path)
        raw = path.read_bytes()
        assert len(raw) == 28
        expected = struct.pack("<fii", 202021.25, 2, 1) + struct.pack(
            "<4f", 1.0, 0.0, 0.0, -1.0
        )
        assert raw == expected

    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        data = rng.standard_normal((7, 5, 2)).astype(np.float32) * 13.7
        f = _field(FrameSize(5, 7), data)
        path = tmp_path / "b.flo"
        write_flow(f, path)
        back = read_flow(path)
        assert back.data.tobytes() == data.tobytes()
        assert back.size == FrameSize(5, 7)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.flo"
        path.write_bytes(struct.pack("<fii", 0.0, 1, 1) + struct.pack("<2f", 0, 0))
        with pytest.raises(FlowFormatError):
            read_flow(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "t.flo"
        path.write_bytes(struct.pack("<f", 202021.25) + b"\x01")
        with pytest.raises(FlowLengthError):
            read_flow(path)

    def test_truncated_payload(self, tmp_path):
        f = _field(FrameSize(3, 3), np.zeros((3, 3, 2), dtype=np.float32))
        path = tmp_path / "p.flo"
        write_flow(f, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])
        with pytest.raises(FlowLengthError):
            read_flow(path)

    def test_oversized_payload(self, tmp_path):
        path = tmp_path / "o.flo"
        path.write_bytes(
            struct.pack("<fii", 202021.25, 1, 1) + struct.pack("<4f", 0, 0, 0, 0)
        )
        with pytest.raises(FlowLengthError):
            read_flow(path)

    def test_nonpositive_dims(self, tmp_path):
        path = tmp_path / "d.flo"
        path.write_bytes(struct.pack("<fii", 202021.25, 0, 4))
        with pytest.raises(FlowFormatError):
            read_flow(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_payload_names_path(self, tmp_path, bad):
        payload = np.zeros((2, 3, 2), dtype="<f4")
        payload[1, 2, 0] = bad
        path = tmp_path / "n.flo"
        path.write_bytes(struct.pack("<fii", 202021.25, 3, 2) + payload.tobytes())
        with pytest.raises(FlowFormatError) as err:
            read_flow(path)
        assert str(err.value).startswith(f"{path}: ")
        assert "non-finite" in str(err.value)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize(
        "at", [(0, 0, 0), (2, 3, 1), (1, 2, 1)], ids=["first", "last", "channel1"]
    )
    def test_every_non_finite_value_is_rejected(self, tmp_path, bad, at):
        data = np.linspace(-5.0, 5.0, 3 * 4 * 2, dtype=np.float32).reshape(3, 4, 2)
        data[at] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            MotionField(FrameSize(4, 3), data)
        path = tmp_path / "n.flo"
        path.write_bytes(struct.pack("<fii", 202021.25, 4, 3) + data.astype("<f4").tobytes())
        with pytest.raises(FlowFormatError) as err:
            read_flow(path)
        assert str(err.value) == f"{path}: payload contains non-finite values"

    def test_largest_finite_values_are_accepted(self, tmp_path):
        data = np.zeros((2, 3, 2), dtype=np.float32)
        data[0, 0, 0], data[1, 2, 1], data[0, 1, 1] = 3.4e38, -3.4e38, np.finfo(np.float32).max
        f = MotionField(FrameSize(3, 2), data.copy())
        path = tmp_path / "big.flo"
        write_flow(f, path)
        assert read_flow(path).data.tobytes() == data.tobytes()

    @settings(max_examples=40)
    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_roundtrip_property(self, w, h, seed):
        rng = np.random.default_rng(seed)
        data = (rng.standard_normal((h, w, 2)) * 100).astype(np.float32)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "r.flo"
            write_flow(_field(FrameSize(w, h), data), path)
            assert read_flow(path).data.tobytes() == data.tobytes()


# A field of several blocks whose last block is partial, and one so wide
# that each block is a single row.
ROWS_PER_BLOCK = FLOW_BLOCK_BYTES // (1000 * 8)
TALL = FrameSize(1000, 3 * ROWS_PER_BLOCK + 7)
WIDE = FrameSize(FLOW_BLOCK_BYTES // 8 + 1, 3)


def _ramp(size):
    n = size.height * size.width * 2
    return np.linspace(-9.0, 9.0, n, dtype=np.float32).reshape(size.height, size.width, 2)


class TestBlockwiseCheck:
    def test_block_layout(self):
        from propfuse.motion import _row_blocks

        tall = [b.shape[0] for b in _row_blocks(_ramp(TALL))]
        assert tall == [ROWS_PER_BLOCK] * 3 + [7]
        assert [b.shape[0] for b in _row_blocks(_ramp(WIDE))] == [1, 1, 1]
        assert len(list(_row_blocks(np.zeros((160, 224, 2), np.float32)))) == 1
        assert len(list(_row_blocks(np.zeros((192, 256, 2), np.float32)))) == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize("channel", [0, 1])
    @pytest.mark.parametrize(
        "size, at",
        [
            (TALL, (1, 7)),
            (TALL, (2 * ROWS_PER_BLOCK, 500)),
            (TALL, (TALL.height - 1, TALL.width - 1)),
            (WIDE, (0, 0)),
            (WIDE, (1, WIDE.width // 2)),
            (WIDE, (2, WIDE.width - 1)),
        ],
        ids=["tall-first", "tall-middle", "tall-last-row", "wide-first", "wide-middle", "wide-last-row"],
    )
    def test_non_finite_value_in_any_block_is_rejected(self, tmp_path, bad, channel, size, at):
        data = _ramp(size)
        data[at + (channel,)] = bad
        path = tmp_path / "n.flo"
        path.write_bytes(struct.pack("<fii", 202021.25, size.width, size.height) + data.tobytes())
        with pytest.raises(FlowFormatError) as err:
            read_flow(path)
        assert str(err.value) == f"{path}: payload contains non-finite values"
        with pytest.raises(ValidationError, match="^motion field contains non-finite values$"):
            MotionField(size, data)

    @pytest.mark.parametrize("size", [TALL, WIDE], ids=["tall", "wide"])
    def test_valid_multi_block_field_round_trips_bit_for_bit(self, tmp_path, size):
        data = _ramp(size)
        data[-1, -1] = np.finfo(np.float32).max, -np.finfo(np.float32).max
        path = tmp_path / "v.flo"
        write_flow(MotionField(size, data), path)
        back = read_flow(path, from_frame=3, to_frame=4)
        assert back.data.tobytes() == data.tobytes()
        assert (back.size, back.from_frame, back.to_frame) == (size, 3, 4)
        assert back.data.dtype == np.float32 and back.data.nbytes == size.width * size.height * 8

    def test_payload_that_ends_inside_a_block_is_a_length_error(self, tmp_path, monkeypatch):
        # a file that shrinks after its size was checked
        path = tmp_path / "s.flo"
        write_flow(MotionField(TALL, _ramp(TALL)), path)
        expected = path.stat().st_size
        cut = 12 + (2 * ROWS_PER_BLOCK + 3) * TALL.width * 8 + 5
        path.write_bytes(path.read_bytes()[:cut])
        stat = os.stat_result((0,) * 6 + (expected,) + (0,) * 3)
        with monkeypatch.context() as m:
            m.setattr(os, "fstat", lambda fd: stat)
            with pytest.raises(FlowLengthError) as err:
                read_flow(path)
        assert str(err.value) == f"{path}: payload ended after {cut} of {expected} bytes"

    def test_read_allocates_the_payload_and_no_field_sized_temporary(self, tmp_path):
        size = FrameSize(640, 480)
        path = tmp_path / "m.flo"
        write_flow(MotionField(size, _ramp(size)), path)
        read_flow(path)
        tracemalloc.start()
        try:
            field = read_flow(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * field.data.nbytes


class TestSampling:
    def test_constant_field_everywhere(self):
        f = constant_field(FrameSize(8, 6), 2.0, 3.0)
        for u, v in [(0.0, 0.0), (3.3, 1.7), (7.0, 5.0), (6.99, 0.01)]:
            assert sample_bilinear(f.data, u, v).tolist() == [2.0, 3.0]

    def test_integer_lattice_returns_stored_vector(self):
        rng = np.random.default_rng(1)
        data = rng.standard_normal((4, 5, 2)).astype(np.float32)
        f = _field(FrameSize(5, 4), data)
        du, dv = sample_bilinear(f.data, 3.0, 2.0).tolist()
        assert du == float(data[2, 3, 0])
        assert dv == float(data[2, 3, 1])

    def test_linear_ramp_midpoint(self):
        # du(x) = x along a single row; querying u=2.5 interpolates to 2.5
        data = np.zeros((1, 6, 2), dtype=np.float32)
        data[0, :, 0] = np.arange(6)
        f = _field(FrameSize(6, 1), data)
        du, dv = sample_bilinear(f.data, 2.5, 0.0).tolist()
        assert du == 2.5
        assert dv == 0.0

    def test_border_clamp(self):
        data = np.zeros((2, 2, 2), dtype=np.float32)
        data[:, :, 0] = [[1, 2], [3, 4]]
        f = _field(FrameSize(2, 2), data)
        assert sample_bilinear(f.data, -5.0, -5.0)[0] == 1.0
        assert sample_bilinear(f.data, 10.0, 10.0)[0] == 4.0


class TestTransferPoint:
    """A point carried by ``carry`` and floored once, at the end of the chain.

    It is read as the top-left corner of a one-pixel box moved by
    ``transfer_box``, and checked against the per-point oracle.
    """

    SIZE = FrameSize(100, 100)

    def _corner(self, u, v, fields, mode="trajectory"):
        det = Detection(0, BBox(u, v, u + 1.0, v + 1.0), 0.9)
        moved = transfer_box(det, ComposedMotion(fields, mode=mode), self.SIZE)
        want = ref_chain_point(u, v, [f.data for f in fields], mode)
        assert (moved.bbox.x1, moved.bbox.y1) == want
        return want

    def test_positive_fraction_floors(self):
        assert self._corner(10.0, 20.0, [constant_field(self.SIZE, 2.7, -1.2)]) == (12, 18)

    def test_negative_fraction_floors_down(self):
        assert self._corner(10.0, 20.0, [constant_field(self.SIZE, -0.5, 0.0)]) == (9, 20)

    def test_two_constant_hops_agree_across_modes(self):
        fields = [constant_field(self.SIZE, 3.0, 0.0), constant_field(self.SIZE, 3.0, 0.0)]
        for mode in ("trajectory", "additive"):
            assert self._corner(0.0, 0.0, fields, mode) == (6, 0)

    def test_floor_applied_once_at_chain_end(self):
        # two hops of +0.6: trajectory tracks 1.2 and floors to 1, not 0
        fields = [constant_field(self.SIZE, 0.6, 0.0)] * 2
        hops = carry(np.zeros((1, 2)), fields, "trajectory")
        assert hops[0][0, 0] < 1.0 <= hops[1][0, 0]
        assert self._corner(0.0, 0.0, fields) == (1, 0)


class TestTransferBox:
    SIZE = FrameSize(100, 100)

    def _det(self, b):
        return Detection(0, BBox(*map(float, b)), 0.9)

    def test_rigid_translation(self):
        motion = ComposedMotion([constant_field(self.SIZE, 5.0, 0.0)])
        moved = transfer_box(self._det((0, 0, 10, 10)), motion, self.SIZE)
        assert moved.bbox == BBox(5.0, 0.0, 15.0, 10.0)
        assert moved.score == 0.9

    def test_pushed_outside_is_dropped(self):
        motion = ComposedMotion([constant_field(self.SIZE, -95.0, 0.0)])
        assert transfer_box(self._det((0, 0, 10, 10)), motion, self.SIZE) is None

    def test_low_coverage_dropped_high_coverage_clipped(self):
        motion = ComposedMotion([constant_field(self.SIZE, -8.0, 0.0)])
        det = self._det((0, 0, 10, 10))
        assert transfer_box(det, motion, self.SIZE, min_coverage=0.25) is None
        kept = transfer_box(det, motion, self.SIZE, min_coverage=0.2)
        assert kept.bbox == BBox(0.0, 0.0, 2.0, 10.0)

    def test_diverging_field_widens_hull(self):
        # columns left of 5 move +2, the rest +4: the hull gains 2 in width
        data = np.zeros((20, 20, 2), dtype=np.float32)
        data[:, :5, 0] = 2.0
        data[:, 5:, 0] = 4.0
        motion = ComposedMotion([MotionField(FrameSize(20, 20), data)])
        moved = transfer_box(self._det((0, 0, 5, 8)), motion, FrameSize(20, 20))
        assert moved.bbox == BBox(2.0, 0.0, 9.0, 8.0)
        assert moved.bbox.width == 7.0

    def test_preserves_class_and_offset(self):
        motion = ComposedMotion([constant_field(self.SIZE, 1.0, 1.0)])
        det = Detection(3, BBox(5.0, 5.0, 15.0, 15.0), 0.4, source_offset=-2)
        moved = transfer_box(det, motion, self.SIZE)
        assert moved.class_id == 3
        assert moved.source_offset == -2


def ref_land(quad, width, height, min_coverage):
    """One box's landing, a float at a time: floor, hull, clip, coverage."""
    xs = [float(math.floor(x)) for x, _ in quad]
    ys = [float(math.floor(y)) for _, y in quad]
    x1, x2, y1, y2 = min(xs), max(xs), min(ys), max(ys)
    if not (x1 < x2 and y1 < y2):
        return None
    cx1, cy1 = max(x1, 0.0), max(y1, 0.0)
    cx2, cy2 = min(x2, float(width)), min(y2, float(height))
    if cx1 >= cx2 or cy1 >= cy2:
        return None
    if (cx2 - cx1) * (cy2 - cy1) / ((x2 - x1) * (y2 - y1)) < min_coverage:
        return None
    return (cx1, cy1, cx2, cy2)


def _bits(box):
    """A landed box as the bits of its coordinates, so -0.0 differs from 0.0."""
    if box is None:
        return None
    assert all(type(v) is float for v in box)
    return tuple(v.hex() for v in box)


_coord = st.one_of(
    st.just(-0.0),
    st.integers(-45, 85).map(float),
    st.floats(-45.0, 85.0, allow_nan=False),
)
_quad = st.one_of(
    # four free positions
    st.lists(st.tuples(_coord, _coord), min_size=4, max_size=4),
    # a carried rectangle, as box_corners lays it out; thin ones floor to a line
    st.tuples(_coord, _coord, st.floats(0.0, 40.0), st.floats(0.0, 40.0)).map(
        lambda r: [
            (r[0], r[1]),
            (r[0] + r[2], r[1]),
            (r[0], r[1] + r[3]),
            (r[0] + r[2], r[1] + r[3]),
        ]
    ),
)


def _check_against_reference(quads, width, height, coverage):
    corners = np.array([p for q in quads for p in q], dtype=np.float64).reshape(-1, 2)
    got = land_boxes(corners, FrameSize(width, height), coverage)
    want = [ref_land(q, width, height, coverage) for q in quads]
    assert [_bits(b and b.as_tuple()) for b in got] == [_bits(b) for b in want]


class TestLandBoxes:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        st.lists(_quad, max_size=12),
        st.integers(1, 40),
        st.integers(1, 40),
        st.sampled_from([0.0, 0.25, 0.5, 1.0]),
        st.data(),
    )
    def test_array_equals_scalar_reference(self, quads, width, height, coverage, data):
        if quads:
            # a coverage exactly equal to one box's, which must be kept
            quad = data.draw(st.sampled_from(quads))
            landed = ref_land(quad, width, height, 0.0)
            if landed is not None:
                xs = [float(math.floor(x)) for x, _ in quad]
                ys = [float(math.floor(y)) for _, y in quad]
                hull = (max(xs) - min(xs)) * (max(ys) - min(ys))
                x1, y1, x2, y2 = landed
                coverage = (x2 - x1) * (y2 - y1) / hull
        _check_against_reference(quads, width, height, coverage)

    def test_edge_cases_equal_scalar_reference(self):
        quads = [
            [(-0.0, -0.0), (8.5, -0.0), (-0.0, 6.0), (8.5, 6.0)],  # floors to -0.0
            [(-6.0, 2.0), (4.0, 2.0), (-6.0, 8.0), (4.0, 8.0)],  # across the left edge
            [(16.0, 2.0), (26.0, 2.0), (16.0, 8.0), (26.0, 8.0)],  # the right edge
            [(2.0, -7.5), (9.0, -7.5), (2.0, 3.5), (9.0, 3.5)],  # the top edge
            [(2.0, 17.0), (9.0, 17.0), (2.0, 23.0), (9.0, 23.0)],  # the bottom edge
            [(30.0, 30.0), (35.0, 30.0), (30.0, 35.0), (35.0, 35.0)],  # fully outside
            [(3.2, 1.0), (3.9, 1.0), (3.2, 9.0), (3.9, 9.0)],  # floors to a line
        ]
        for coverage in (0.0, 0.25, 0.4, 0.5, 1.0):
            _check_against_reference(quads, 20, 20, coverage)

    def test_coverage_equal_to_the_minimum_is_kept(self):
        # the hull is [-10, 10) x [0, 10), half of it inside a 20x20 frame
        corners = np.array([(-10.0, 0.0), (10.0, 0.0), (-10.0, 10.0), (10.0, 10.0)])
        size = FrameSize(20, 20)
        assert land_boxes(corners, size, 0.5) == [BBox(0.0, 0.0, 10.0, 10.0)]
        assert land_boxes(corners, size, math.nextafter(0.5, 1.0)) == [None]

    def test_degenerate_and_outside_hulls_are_dropped(self):
        corners = np.array(
            [(2.2, 1.0), (2.9, 1.0), (2.2, 5.0), (2.9, 5.0)]  # floors to a line
            + [(21.0, 1.0), (25.0, 1.0), (21.0, 5.0), (25.0, 5.0)]  # right of the frame
            + [(1.0, 1.0), (5.0, 1.0), (1.0, 5.0), (5.0, 5.0)]
        )
        got = land_boxes(corners, FrameSize(20, 20), 0.0)
        assert got == [None, None, BBox(1.0, 1.0, 5.0, 5.0)]

    def test_no_boxes(self):
        assert land_boxes(np.zeros((0, 2)), FrameSize(4, 4)) == []


class TestFlowStore:
    def test_missing_pair_raises(self):
        store = FlowStore()
        store.add(0, 1, constant_field(FrameSize(4, 4), 1.0, 0.0))
        assert store.has(0, 1)
        assert not store.has(1, 0)
        with pytest.raises(MissingFlowError) as err:
            store.get(1, 0)
        assert "1" in str(err.value) and "0" in str(err.value)

    def test_lazy_path_loading(self, tmp_path):
        f = constant_field(FrameSize(3, 2), 0.5, -0.5)
        path = tmp_path / "x.flo"
        write_flow(f, path)
        store = FlowStore()
        store.add(2, 3, path)
        got = store.get(2, 3)
        assert np.array_equal(got.data, f.data)
        assert store.get(2, 3) is got

    def test_release_returns_a_path_entry_to_its_file(self, tmp_path):
        path = tmp_path / "x.flo"
        write_flow(constant_field(FrameSize(3, 2), 0.5, -0.5), path)
        mine = constant_field(FrameSize(3, 2), 1.0, 0.0)
        store = FlowStore({(2, 3): path, (3, 2): mine})
        got = store.get(2, 3)
        store.release(2, 3)
        store.release(3, 2)
        again = store.get(2, 3)
        assert again is not got and np.array_equal(again.data, got.data)
        assert store.get(3, 2) is mine

    def test_field_of_another_size_names_the_file(self, tmp_path):
        path = tmp_path / "fw_0002_0003.flo"
        write_flow(constant_field(FrameSize(7, 5), 1.0, 0.0), path)
        store = FlowStore({(2, 3): path}, size=FrameSize(96, 72))
        with pytest.raises(FlowFormatError) as err:
            store.get(2, 3)
        assert str(err.value) == f"{path}: field is 7x5, frames are 96x72"


class TestComposedMotion:
    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            ComposedMotion([])

    def test_mode_checked(self):
        f = constant_field(FrameSize(2, 2), 0.0, 0.0)
        with pytest.raises(ValidationError):
            ComposedMotion([f], mode="spiral")

    def test_size_mismatch_rejected(self):
        a = constant_field(FrameSize(2, 2), 0.0, 0.0)
        b = constant_field(FrameSize(3, 2), 0.0, 0.0)
        with pytest.raises(ValidationError):
            ComposedMotion([a, b])

    def test_additive_vs_trajectory_differ_on_nonuniform_field(self):
        # hop 1 moves +3 everywhere; hop 2 moves +1 left of x=5 and +7 after.
        # Starting at x=3, the trajectory mode samples hop 2 at the warped
        # position x=6 (+7) while additive samples it at the start (+1).
        data = np.zeros((10, 10, 2), dtype=np.float32)
        data[:, :5, 0] = 1.0
        data[:, 5:, 0] = 7.0
        hop1 = constant_field(FrameSize(10, 10), 3.0, 0.0)
        hop2 = MotionField(FrameSize(10, 10), data)
        start = np.array([[3.0, 1.0]])
        for mode, want in (("trajectory", [13.0, 1.0]), ("additive", [7.0, 1.0])):
            motion = ComposedMotion([hop1, hop2], mode=mode)
            acc = carry(start, motion.fields, motion.mode)[-1]
            assert carried_position(start, acc, mode).tolist() == [want]


class TestFrame:
    def test_luminance_of_gray_is_identity(self):
        data = np.arange(12, dtype=np.uint8).reshape(3, 4)
        frame = Frame(FrameSize(4, 3), data)
        assert frame.channels == 1
        assert np.allclose(frame.luminance(), data.astype(np.float64))

    def test_luminance_weights_sum_to_one(self):
        data = np.full((2, 2, 3), 100, dtype=np.uint8)
        frame = Frame(FrameSize(2, 2), data)
        lum = frame.luminance()
        assert np.allclose(lum, 100.0)
