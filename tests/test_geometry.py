import math
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from propfuse.errors import ValidationError
from propfuse.geometry import (
    BBox,
    Detection,
    FrameSize,
    clip_to_frame,
    iou,
    unchecked_bbox,
    unchecked_detection,
)

from _oracles import grid_iou, ref_iou


def box(x1, y1, x2, y2):
    return BBox(float(x1), float(y1), float(x2), float(y2))


class TestIou:
    def test_identity(self):
        a = box(0, 0, 10, 10)
        assert iou(a, a) == 1.0

    def test_disjoint(self):
        assert iou(box(0, 0, 10, 10), box(20, 20, 30, 30)) == 0.0

    def test_half_overlap(self):
        # intersection 50, union 150
        v = iou(box(0, 0, 10, 10), box(5, 0, 15, 10))
        assert abs(v - 50 / 150) < 1e-12

    def test_small_case_frozen_against_grid_oracle(self):
        a, b = box(0, 0, 3, 2), box(1, 1, 4, 3)
        v = iou(a, b)
        assert abs(v - 0.2) < 1e-12
        assert abs(v - grid_iou(a.as_tuple(), b.as_tuple())) < 3e-3

    def test_touching_edges_do_not_intersect(self):
        assert iou(box(0, 0, 10, 10), box(10, 0, 20, 10)) == 0.0

    @given(
        st.tuples(
            st.floats(-50, 50), st.floats(-50, 50), st.floats(0.5, 40), st.floats(0.5, 40)
        ),
        st.tuples(
            st.floats(-50, 50), st.floats(-50, 50), st.floats(0.5, 40), st.floats(0.5, 40)
        ),
    )
    def test_matches_reference_and_is_symmetric(self, p, q):
        a = box(p[0], p[1], p[0] + p[2], p[1] + p[3])
        b = box(q[0], q[1], q[0] + q[2], q[1] + q[3])
        v = iou(a, b)
        assert 0.0 <= v <= 1.0
        assert v == iou(b, a)
        assert math.isclose(v, ref_iou(a.as_tuple(), b.as_tuple()), rel_tol=0, abs_tol=1e-12)


class TestBBox:
    def test_properties(self):
        b = box(1, 2, 4, 8)
        assert b.width == 3 and b.height == 6 and b.area == 18
        assert b.as_tuple() == (1.0, 2.0, 4.0, 8.0)

    def test_degenerate_rejected(self):
        with pytest.raises(ValidationError):
            BBox(0.0, 0.0, 0.0, 10.0)
        with pytest.raises(ValidationError):
            BBox(0.0, 5.0, 10.0, 5.0)
        with pytest.raises(ValidationError):
            BBox(3.0, 0.0, 1.0, 10.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            BBox(0.0, 0.0, math.inf, 10.0)
        with pytest.raises(ValidationError):
            BBox(math.nan, 0.0, 1.0, 10.0)

    def test_from_sequence(self):
        assert BBox.from_sequence([1, 2, 3, 4]) == box(1, 2, 3, 4)
        with pytest.raises(ValidationError):
            BBox.from_sequence([1, 2, 3])


class TestDetection:
    def test_score_range(self):
        d = Detection(0, box(0, 0, 1, 1), 0.5)
        assert d.source_offset == 0
        with pytest.raises(ValidationError):
            Detection(0, box(0, 0, 1, 1), 1.5)
        with pytest.raises(ValidationError):
            Detection(0, box(0, 0, 1, 1), -0.1)


def _bytes_per_object(make, n=10_000):
    """Bytes allocated per object while ``make`` builds n objects, kept alive.

    Rounded to the byte: a stray allocation elsewhere in the process adds
    a few bytes to the whole run, not to each object.
    """
    xs = [3.0 + i for i in range(n)]
    objs = [None] * n
    for x in xs[:100]:
        make(x)  # warm the call path, whose first runs allocate too
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i, x in enumerate(xs):
            objs[i] = make(x)
        return round((tracemalloc.get_traced_memory()[0] - before) / n)
    finally:
        tracemalloc.stop()


class TestUnchecked:
    def test_equal_and_hash_like_checked(self):
        checked = Detection(1, BBox(0.5, 1.0, 2.5, 4.0), 0.75, source_offset=-2)
        fast = unchecked_detection(1, unchecked_bbox(0.5, 1.0, 2.5, 4.0), 0.75, -2)
        assert fast == checked and checked == fast
        assert fast.bbox == checked.bbox
        assert hash(fast) == hash(checked)
        assert hash(fast.bbox) == hash(checked.bbox)
        assert {fast: 1}[checked] == 1
        assert repr(fast) == repr(checked)
        assert unchecked_detection(1, checked.bbox, 0.75).source_offset == 0
        assert fast != unchecked_detection(1, checked.bbox, 0.75)

    def test_frozen_like_checked(self):
        fast = unchecked_detection(0, unchecked_bbox(0.0, 0.0, 1.0, 1.0), 0.5)
        with pytest.raises(AttributeError):
            fast.score = 0.9
        with pytest.raises(AttributeError):
            fast.bbox.x1 = 0.5

    def test_takes_no_more_memory_than_checked(self):
        # an instance whose __dict__ is filled directly loses the key-shared
        # layout and more than doubles in size
        def checked(x):
            return Detection(0, BBox(1.0, 2.0, x, 4.0), 0.5)

        def fast(x):
            return unchecked_detection(0, unchecked_bbox(1.0, 2.0, x, 4.0), 0.5)

        assert _bytes_per_object(fast) <= _bytes_per_object(checked)


class TestClipToFrame:
    SIZE = FrameSize(100, 100)

    def test_half_outside(self):
        clipped, coverage = clip_to_frame(box(-5, 0, 5, 10), self.SIZE)
        assert clipped == box(0, 0, 5, 10)
        assert coverage == 0.5

    def test_fully_inside(self):
        clipped, coverage = clip_to_frame(box(10, 10, 20, 20), self.SIZE)
        assert clipped == box(10, 10, 20, 20)
        assert coverage == 1.0

    def test_fully_outside(self):
        assert clip_to_frame(box(-20, -20, -10, -10), self.SIZE) is None

    @given(
        st.floats(-150, 150), st.floats(-150, 150), st.floats(1, 80), st.floats(1, 80)
    )
    def test_coverage_bounds(self, x, y, w, h):
        result = clip_to_frame(box(x, y, x + w, y + h), self.SIZE)
        if result is None:
            return
        clipped, coverage = result
        assert 0.0 < coverage <= 1.0
        assert clipped.x1 >= 0 and clipped.y1 >= 0
        assert clipped.x2 <= 100 and clipped.y2 <= 100
        assert clipped.area <= box(x, y, x + w, y + h).area + 1e-9
