import numpy as np
import pytest
from hypothesis import given, strategies as st

from propfuse.errors import ValidationError
from propfuse.geometry import FrameSize
from propfuse.io import (
    CandidateMeta,
    DetectionRecord,
    detection_line,
    read_detections,
    read_frame,
    write_detections,
    write_frame,
)
from propfuse.motion import Frame


def rec(**kw):
    base = dict(frame=3, class_name="car", bbox=(1.0, 2.0, 3.5, 4.25), score=0.5)
    base.update(kw)
    return DetectionRecord(**base)


class TestDetectionLine:
    def test_exact_format_six_decimals(self):
        line = detection_line(rec())
        assert line == (
            '{"frame": 3, "class": "car", '
            '"bbox": [1.000000, 2.000000, 3.500000, 4.250000], "score": 0.500000}'
        )

    def test_offset_omitted_when_zero(self):
        assert "source_offset" not in detection_line(rec(source_offset=0))
        line = detection_line(rec(source_offset=-2))
        assert '"source_offset": -2' in line

    def test_source_bbox_serialized_when_present(self):
        line = detection_line(rec(source_offset=1, source_bbox=(0.0, 0.0, 1.0, 1.0)))
        assert '"source_bbox": [0.000000, 0.000000, 1.000000, 1.000000]' in line


class TestDetectionsFile:
    def test_roundtrip_with_meta(self, tmp_path):
        path = tmp_path / "d.jsonl"
        records = [
            rec(score=0.25),
            rec(class_name="person", source_offset=1, source_bbox=(9.0, 9.0, 11.0, 11.0)),
        ]
        meta = CandidateMeta(frame=3, effective_sources=3, k=1)
        write_detections(records, path, meta=meta)
        back, back_meta = read_detections(path)
        assert back == records
        assert back_meta == meta

    def test_roundtrip_without_meta(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_detections([rec()], path)
        back, meta = read_detections(path)
        assert meta is None
        assert back == [rec()]

    def test_empty_file_roundtrip(self, tmp_path):
        path = tmp_path / "e.jsonl"
        write_detections([], path)
        assert read_detections(path) == ([], None)

    def test_bad_line_reports_path_and_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(detection_line(rec()) + "\nnot json\n", encoding="utf-8")
        with pytest.raises(ValidationError) as err:
            read_detections(path)
        assert "bad.jsonl" in str(err.value)
        assert "2" in str(err.value)

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"frame": 0, "class": "a", "score": 0.5}\n', encoding="utf-8")
        with pytest.raises(ValidationError):
            read_detections(path)

    def test_bad_bbox_arity_rejected(self, tmp_path):
        path = tmp_path / "b.jsonl"
        path.write_text(
            '{"frame": 0, "class": "a", "bbox": [1.0, 2.0, 3.0], "score": 0.5}\n',
            encoding="utf-8",
        )
        with pytest.raises(ValidationError):
            read_detections(path)

    @pytest.mark.parametrize(
        "line, needle",
        [
            ('{"type": "candidate_meta", "frame": 3, "k": 1}', "effective_sources"),
            ('{"type": "candidate_meta", "frame": 3, "effective_sources": 3}', "'k'"),
            ('{"type": "candidate_meta", "frame": 3, "effective_sources": "many", "k": 1}', "many"),
            ('{"type": "candidate_meta", "frame": 3, "effective_sources": 3, "k": null}', "NoneType"),
            ('{"frame": 0, "class": "a", "bbox": [1, 2, 3, 4], "score": "high"}', "high"),
            ('{"frame": 0, "class": "a", "bbox": [1, 2, 3, 4], "score": null}', "NoneType"),
            ('{"frame": "zero", "class": "a", "bbox": [1, 2, 3, 4], "score": 0.5}', "zero"),
            ('{"frame": [0], "class": "a", "bbox": [1, 2, 3, 4], "score": 0.5}', "list"),
            ('{"frame": 1e400, "class": "a", "bbox": [1, 2, 3, 4], "score": 0.5}', "infinity"),
            (
                '{"frame": 0, "class": "a", "bbox": [1, 2, 3, 4], "score": 0.5, "source_offset": "x"}',
                "'x'",
            ),
            ('{"frame": 0, "class": "a", "bbox": [1, 2, 3, ' + "9" * 400 + '], "score": 0.5}', "bbox"),
        ],
        ids=[
            "meta-no-effective-sources",
            "meta-no-k",
            "meta-text-sources",
            "meta-null-k",
            "text-score",
            "null-score",
            "text-frame",
            "list-frame",
            "infinite-frame",
            "text-offset",
            "overflowing-bbox",
        ],
    )
    def test_malformed_line_names_path_and_line(self, tmp_path, line, needle):
        path = tmp_path / "m.jsonl"
        path.write_text(detection_line(rec()) + "\n" + line + "\n", encoding="utf-8")
        with pytest.raises(ValidationError) as err:
            read_detections(path)
        assert str(err.value).startswith(f"{path}:2: ")
        assert needle in str(err.value)

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 500),
                st.sampled_from(["car", "person", "bike"]),
                st.integers(-100, 100),
                st.integers(-100, 100),
                st.integers(1, 80),
                st.integers(1, 80),
                st.integers(0, 1000000),
                st.integers(-3, 3),
            ),
            max_size=8,
        )
    )
    def test_roundtrip_property_quantized(self, rows):
        import tempfile
        from pathlib import Path

        records = []
        for f, name, x, y, w, h, s, off in rows:
            records.append(
                DetectionRecord(
                    frame=f,
                    class_name=name,
                    bbox=(float(x), float(y), float(x + w), float(y + h)),
                    score=s / 1000000.0,
                    source_offset=off,
                    source_bbox=(float(x), float(y), float(x + w), float(y + h))
                    if off
                    else None,
                )
            )
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "r.jsonl"
            write_detections(records, path)
            back, _ = read_detections(path)
        assert back == records


class TestFrameFiles:
    def test_pgm_roundtrip(self, tmp_path):
        data = np.arange(24, dtype=np.uint8).reshape(4, 6)
        frame = Frame(FrameSize(6, 4), data)
        path = tmp_path / "f.pgm"
        write_frame(frame, path)
        back = read_frame(path)
        assert back.size == frame.size
        assert np.array_equal(back.data, data)

    def test_ppm_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        data = rng.integers(0, 256, size=(5, 4, 3), dtype=np.uint8)
        frame = Frame(FrameSize(4, 5), data)
        path = tmp_path / "f.ppm"
        write_frame(frame, path)
        back = read_frame(path)
        assert np.array_equal(back.data, data)

    def test_header_comments_tolerated(self, tmp_path):
        path = tmp_path / "c.pgm"
        body = bytes(range(6))
        path.write_bytes(b"P5\n# a comment\n3 2\n# another\n255\n" + body)
        frame = read_frame(path)
        assert frame.size == FrameSize(3, 2)
        assert frame.data.tobytes() == body

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P7\n1 1\n255\n\x00")
        with pytest.raises(ValidationError):
            read_frame(path)

    @pytest.mark.parametrize("dims", [b"-2 4", b"3 0", b"0 0"])
    def test_non_positive_dimensions_rejected(self, tmp_path, dims):
        path = tmp_path / "d.pgm"
        path.write_bytes(b"P5\n" + dims + b"\n255\n")
        with pytest.raises(ValidationError) as err:
            read_frame(path)
        width, height = dims.decode().split()
        assert str(err.value) == f"{path}: invalid dimensions {width}x{height}"
