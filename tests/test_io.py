import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

import propfuse.io
from propfuse.errors import ValidationError
from propfuse.geometry import BBox, Detection, FrameSize, LabelSet
from propfuse.io import (
    CandidateMeta,
    DetectionRecord,
    _lines,
    detection_line,
    json_lines,
    quote_names,
    read_detections,
    read_frame,
    write_atomic,
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


def per_value_line(rec: DetectionRecord) -> str:
    """A detection line built one value at a time with f"{float(v):.6f}", as the
    format was first written; ``detection_line``'s template must give these bytes."""

    def fmt(value):
        return f"{float(value):.6f}"

    def fmt_box(box):
        return "[" + ", ".join(fmt(c) for c in box) + "]"

    parts = [
        f'"frame": {int(rec.frame)}',
        f'"class": {json.dumps(rec.class_name)}',
        f'"bbox": {fmt_box(rec.bbox)}',
        f'"score": {fmt(rec.score)}',
    ]
    if rec.source_offset:
        parts.append(f'"source_offset": {int(rec.source_offset)}')
    if rec.source_bbox is not None:
        parts.append(f'"source_bbox": {fmt_box(rec.source_bbox)}')
    return "{" + ", ".join(parts) + "}"


class TestDetectionLineEdgeValues:
    @pytest.mark.parametrize(
        "fields",
        [
            dict(bbox=(-0.0, -0.0, 1e6, 1e6), score=0.0),
            dict(bbox=(5e-7, 2.5e-7, 1.0, 1e6 - 5e-7), score=1.0),
            dict(bbox=(2.5e-7, -2.5e-7, 3.5e-7, 7.5e-7), score=5e-7),
            dict(bbox=(-3.0000005, 0.1, 0.30000000000000004, 999999.9999995), score=2.5e-7),
            dict(source_offset=-2),
            dict(source_offset=3, source_bbox=(-0.0, 5e-7, 1e6, 2.5e-7 + 1.0)),
            dict(class_name="caf\u00e9 \u81ea\u8f6a", source_offset=-1, source_bbox=(0, 0, 2, 2)),
            dict(class_name='say "hi"\\'),
            dict(frame=0, bbox=(0, 0, 1, 1), score=1),
        ],
        ids=[
            "-0 and 1e6, score 0",
            "5e-7 and 2.5e-7, score 1",
            "below the sixth decimal",
            "past the sixth decimal",
            "offset -2",
            "offset and source box",
            "non-ASCII class",
            "escaped class",
            "integers",
        ],
    )
    def test_bytes_match_the_per_value_format(self, tmp_path, fields):
        record = rec(**fields)
        line = detection_line(record)
        assert line == per_value_line(record)
        line.encode("ascii")
        path = tmp_path / "d.jsonl"
        write_detections([record], path)
        assert path.read_bytes() == (line + "\n").encode("ascii")

    def test_spelled_out(self):
        line = detection_line(
            rec(
                class_name="caf\u00e9",
                bbox=(-0.0, 2.5e-7, 1e6, 5e-7),
                score=1.0,
                source_offset=-2,
                source_bbox=(0.0, 0.0, 1.0, 1.0),
            )
        )
        assert line == (
            '{"frame": 3, "class": "caf\\u00e9", "bbox": [-0.000000, 0.000000, 1000000.000000, '
            '0.000000], "score": 1.000000, "source_offset": -2, '
            '"source_bbox": [0.000000, 0.000000, 1.000000, 1.000000]}'
        )


class TestLabelFile:
    # class names that JSON escapes: a quote, a backslash, non-ASCII text
    NAMES = ["car", 'say "hi"', "back\\slash", "caf\u00e9", "\u81ea\u8f6a"]

    @pytest.mark.parametrize(
        "box, score",
        [
            ((0.0, 0.0, 1e6, 1e6), 0.0),
            ((0.0, 2.5e-7, 5e-7, 1.0), 1.0),
            ((1.5e-6, 2.5e-6, 3.5e-7 + 1.0, 1e6 - 5e-7), 5e-7),
            ((-3.0000005, -0.0, 12.0000025, 7.25), 2.5e-7),
            ((0.1, 0.2, 0.30000000000000004, 999999.9999995), 0.9999995),
        ],
    )
    def test_lines_are_the_bytes_detection_line_gives(self, tmp_path, box, score):
        labels = LabelSet(7, [Detection(c, BBox(*box), score) for c in range(len(self.NAMES))])
        path = tmp_path / "fused.jsonl"
        write_detections(labels, path, quoted_names=quote_names(self.NAMES))
        want = "".join(
            detection_line(DetectionRecord(7, self.NAMES[d.class_id], box, score)) + "\n"
            for d in labels.detections
        )
        assert path.read_bytes() == want.encode("ascii")

    def test_empty_label_set_writes_an_empty_file(self, tmp_path):
        path = tmp_path / "fused.jsonl"
        write_detections(LabelSet(0, []), path, quoted_names=[])
        assert path.read_bytes() == b""


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

    def test_undecodable_bytes_report_path_and_line(self, tmp_path):
        path = tmp_path / "u.jsonl"
        path.write_bytes((detection_line(rec()) + "\n").encode() + b'{"class": "\xe9"}\n')
        with pytest.raises(ValidationError) as err:
            read_detections(path)
        assert str(err.value).startswith(f"{path}:2: not ascii text: byte 0xe9")

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"frame": 0, "class": "a", "score": 0.5}\n', encoding="utf-8")
        with pytest.raises(ValidationError):
            read_detections(path)

    def test_record_for_another_frame_names_path_and_line(self, tmp_path):
        path = tmp_path / "det_0003.jsonl"
        write_detections([rec(), rec(frame=4), rec()], path)
        assert len(read_detections(path)[0]) == 3
        with pytest.raises(ValidationError) as err:
            read_detections(path, frame=3)
        assert str(err.value) == f"{path}:2: record names frame 4, expected frame 3"

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
            ('{"frame": 0, "class": "a", "bbox": [1, 2, 3, 1e999], "score": 0.5}', "non-finite bbox"),
            ('{"frame": 0, "class": "a", "bbox": [1, 2, NaN, 4], "score": 0.5}', "non-finite bbox"),
            ('{"frame": 0, "class": "a", "bbox": [1, 2, 3, 4], "score": NaN}', "non-finite score"),
            ('{"frame": 0, "class": "a", "bbox": [1, 2, 3, 4], "score": 1e999}', "non-finite score"),
            (
                '{"frame": 0, "class": "a", "bbox": [1, 2, 3, 4], "score": 0.5, '
                '"source_bbox": [-Infinity, 2, 3, 4]}',
                "non-finite source_bbox",
            ),
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
            "infinite-bbox",
            "nan-bbox",
            "nan-score",
            "infinite-score",
            "infinite-source-bbox",
        ],
    )
    def test_malformed_line_names_path_and_line(self, tmp_path, line, needle):
        path = tmp_path / "m.jsonl"
        path.write_text(detection_line(rec()) + "\n" + line + "\n", encoding="utf-8")
        with pytest.raises(ValidationError) as err:
            read_detections(path)
        assert str(err.value).startswith(f"{path}:2: ")
        assert needle in str(err.value)

    @pytest.mark.parametrize(
        "field, message",
        [
            ('"bbox": [5, 5, 5, 9], "score": 0.5', "degenerate bbox [5, 5, 5, 9]: need x1 < x2 and y1 < y2"),
            ('"bbox": [1, 9, 3, 4], "score": 0.5', "degenerate bbox [1, 9, 3, 4]: need x1 < x2 and y1 < y2"),
            (
                '"bbox": [1, 2, 3, 4], "score": 0.5, "source_offset": 1, "source_bbox": [4, 2, 3, 4]',
                "degenerate source_bbox [4, 2, 3, 4]: need x1 < x2 and y1 < y2",
            ),
            ('"bbox": [1, 2, 3, 4], "score": 1.5', "score must lie in [0, 1], got 1.5"),
            ('"bbox": [1, 2, 3, 4], "score": -0.25', "score must lie in [0, 1], got -0.25"),
            ('"bbox": [1, 2, 3, 4], "score": 7', "score must lie in [0, 1], got 7"),
            ('"bbox": [1, 2, 3, ' + "9" * 400 + '], "score": 0.5', "bbox coordinate out of range"),
        ],
        ids=[
            "flat-bbox",
            "reversed-bbox",
            "reversed-source-bbox",
            "score-above-one",
            "negative-score",
            "integer-score-above-one",
            "overflowing-bbox",
        ],
    )
    def test_what_the_checked_constructors_reject_names_path_and_line(self, tmp_path, field, message):
        path = tmp_path / "v.jsonl"
        line = '{"frame": 0, "class": "a", ' + field + "}"
        path.write_text(detection_line(rec()) + "\n" + line + "\n", encoding="ascii")
        with pytest.raises(ValidationError) as err:
            read_detections(path)
        assert str(err.value).startswith(f"{path}:2: {message}")

    @pytest.mark.parametrize(
        "field, message",
        [
            ('"frame": 0.7', "frame must be an integer, got float 0.7"),
            ('"frame": true', "frame must be an integer, got bool True"),
            ('"class": null', "class must be a string, got NoneType None"),
            ('"class": 3', "class must be a string, got int 3"),
            ('"score": true', "score must be a number, got bool True"),
            ('"score": "0.5"', "score must be a number, got str '0.5'"),
            ('"source_offset": 1.9', "source_offset must be an integer, got float 1.9"),
            ('"source_offset": false', "source_offset must be an integer, got bool False"),
            ('"bbox": [true, 2, 3, 4]', "non-numeric bbox: [True, 2, 3, 4]"),
            ('"bbox": ["1", 2, 3, 4]', "non-numeric bbox: ['1', 2, 3, 4]"),
            ('"source_bbox": [1, 2, 3, false]', "non-numeric source_bbox: [1, 2, 3, False]"),
        ],
        ids=[
            "fractional-frame",
            "bool-frame",
            "null-class",
            "number-class",
            "bool-score",
            "text-score",
            "fractional-offset",
            "bool-offset",
            "bool-coordinate",
            "text-coordinate",
            "bool-source-coordinate",
        ],
    )
    def test_no_value_is_coerced(self, tmp_path, field, message):
        obj = {"frame": 0, "class": "a", "bbox": [1, 2, 3, 4], "score": 0.5}
        obj.update(json.loads("{" + field + "}"))
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(obj) + "\n", encoding="ascii")
        with pytest.raises(ValidationError) as err:
            read_detections(path)
        assert str(err.value) == f"{path}:1: {message}"

    def test_meta_numbers_must_be_integers(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"type": "candidate_meta", "frame": 3, "effective_sources": 3, "k": 1.5}\n')
        with pytest.raises(ValidationError) as err:
            read_detections(path)
        assert str(err.value) == f"{path}:1: k must be an integer, got float 1.5"

    def test_integer_too_long_to_convert_names_path_and_line(self, tmp_path):
        path = tmp_path / "l.jsonl"
        path.write_text('{"frame": ' + "9" * 5000 + ', "class": "a", "bbox": [1, 2, 3, 4], "score": 0.5}\n')
        with pytest.raises(ValidationError) as err:
            read_detections(path)
        assert str(err.value).startswith(f"{path}:1: invalid JSON: ")

    def test_integer_numbers_read_as_floats(self, tmp_path):
        path = tmp_path / "i.jsonl"
        path.write_text('{"frame": 0, "class": "a", "bbox": [1, 2, 3, 4], "score": 1}\n')
        ((r,), _) = read_detections(path)
        assert r == rec(frame=0, class_name="a", bbox=(1.0, 2.0, 3.0, 4.0), score=1.0)
        assert [type(v) for v in r.bbox + (r.score,)] == [float] * 5

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


class TestJsonLines:
    """Each line is parsed by one scan; what fails is reported as ``json.loads`` reports it."""

    @pytest.mark.parametrize(
        "line",
        [
            '{"a": 1} x',
            '{"a": 1}{"b": 2}',
            "[1,",
            "[" + "9" * 5000 + "]",
            "NaN",
            '{"a": [1,',
            "nul",
            '"\\x"',
            '{"a": 1}',
            '\t [1, {"b": -0.0, "c": "\\u00e9"}, true, null, 1e400] \x0c',
        ],
        ids=[
            "trailing text",
            "two objects",
            "unclosed array",
            "integer too long",
            "NaN",
            "first of two lines",
            "bad literal",
            "bad escape",
            "object",
            "padded array",
        ],
    )
    def test_values_and_errors_equal_json_loads(self, tmp_path, line):
        path = tmp_path / "v.jsonl"
        path.write_text(line + "\n", encoding="ascii")
        try:
            want = json.loads(line.strip())
        except ValueError as exc:
            with pytest.raises(ValidationError) as err:
                list(json_lines(path))
            assert str(err.value) == f"{path}:1: invalid JSON: {exc}"
        else:
            # repr, so that NaN equals NaN
            assert repr(list(json_lines(path))) == repr([(1, want)])

    @given(st.text(alphabet="ab {}\n\r\t\x0b\x0c\x1c\x1d\x1e\x1f", max_size=40))
    def test_lines_made_a_chunk_at_a_time_equal_splitlines(self, text):
        for chunk in (1, 2, 3, 7, 1 << 16):
            with mock.patch.object(propfuse.io, "_LINE_CHUNK", chunk):
                assert list(_lines(text)) == text.splitlines()

    def test_whitespace_only_lines_are_skipped(self, tmp_path):
        path = tmp_path / "w.jsonl"
        path.write_text('{"a": 1}\n \t \n\n[2]\n', encoding="ascii")
        assert list(json_lines(path)) == [(1, {"a": 1}), (4, [2])]

    def test_a_value_split_over_two_lines_fails_at_its_first(self, tmp_path):
        # joined, the lines would form one valid value
        path = tmp_path / "s.jsonl"
        path.write_text('{"frame": 0, "x": [{"a": 1}\n{"b": 2}]}\n', encoding="ascii")
        with pytest.raises(ValidationError) as err:
            list(json_lines(path))
        with pytest.raises(ValueError) as want:
            json.loads('{"frame": 0, "x": [{"a": 1}')
        assert str(err.value) == f"{path}:1: invalid JSON: {want.value}"


class TestAtomicWrite:
    def test_replaces_whole_contents(self, tmp_path):
        path = tmp_path / "out.json"
        write_atomic(path, "first\n", "utf-8")
        write_atomic(path, "second\n", "utf-8")
        assert path.read_text() == "second\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_failure_partway_keeps_old_contents_and_no_temp(self, tmp_path, monkeypatch):
        import propfuse.io

        path = tmp_path / "fused_000001.jsonl"
        write_detections([rec()], path)
        before = path.read_bytes()
        real_open = open

        class Torn:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[:10])
                self.fh.flush()
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(propfuse.io, "open", lambda *a: Torn(real_open(*a)), raising=False)
        with pytest.raises(OSError):
            write_detections([rec(), rec(score=0.75)], path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [path.name]


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

    def test_trailing_bytes_are_ignored(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n3 2\n255\n" + bytes(range(6)) + b"extra")
        assert read_frame(path).data.tobytes() == bytes(range(6))

    @pytest.mark.parametrize(
        "raw, have, expected",
        [(b"P5\n3 2\n255\n\x01\x02", 2, 6), (b"P6\n2 2\n255", 0, 12), (b"P5 1 1 255 ", 0, 1)],
        ids=["short", "no separator", "no payload"],
    )
    def test_short_payload_message(self, tmp_path, raw, have, expected):
        path = tmp_path / "s.pgm"
        path.write_bytes(raw)
        with pytest.raises(ValidationError) as err:
            read_frame(path)
        assert str(err.value) == f"{path}: payload has {have} bytes, expected {expected}"

    @pytest.mark.parametrize("channels", [1, 3])
    def test_pixels_are_copied_once_and_writable(self, tmp_path, channels):
        shape = (480, 640) if channels == 1 else (480, 640, 3)
        data = np.random.default_rng(4).integers(0, 256, size=shape, dtype=np.uint8)
        path = tmp_path / "big.pnm"
        write_frame(Frame(FrameSize(640, 480), data), path)
        read_frame(path)
        tracemalloc.start()
        try:
            frame = read_frame(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * data.nbytes
        assert np.array_equal(frame.data, data)
        assert frame.data.flags.writeable
        frame.data[0, 0] ^= 255
        assert read_frame(path).data.tobytes() == data.tobytes()

    @pytest.mark.parametrize("dims", [b"-2 4", b"3 0", b"0 0"])
    def test_non_positive_dimensions_rejected(self, tmp_path, dims):
        path = tmp_path / "d.pgm"
        path.write_bytes(b"P5\n" + dims + b"\n255\n")
        with pytest.raises(ValidationError) as err:
            read_frame(path)
        width, height = dims.decode().split()
        assert str(err.value) == f"{path}: invalid dimensions {width}x{height}"
