"""Every reader of user input ends a corrupted file in a typed error.

Each reader gets a small valid file with random byte edits: bytes set,
inserted or deleted, or the file cut short. It may accept the result or
raise a ``PropfuseError`` (or an ``OSError``), never anything else.
"""

import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from propfuse.cli import main
from propfuse.errors import PropfuseError, ValidationError
from propfuse.geometry import Detection, FrameSize, unchecked_bbox
from propfuse.io import read_detections, read_frame, record_detection, write_frame
from propfuse.manifest import load_manifest
from propfuse.motion import Frame, constant_field, read_flow, write_flow
from propfuse.pipeline import load_config
from propfuse.similarity import PrecomputedEmbeddings
from propfuse.synth import load_spec

from _oracles import checked_bbox

DETECTIONS = (
    b'{"type": "candidate_meta", "frame": 1, "effective_sources": 3, "k": 1}\n'
    b'{"frame": 1, "class": "car", "bbox": [1.5, 2.0, 8.25, 6.0], "score": 0.9}\n'
    b'{"frame": 1, "class": "person", "bbox": [0, 1, 3, 5], "score": 0.4, '
    b'"source_offset": -1, "source_bbox": [1, 1, 4, 5]}\n'
)
CONFIG = b"# run\nk = 2\nmethod = swbf\nteacher_threshold = 0.35  # keep\nnum_sources = 3\njobs = 1\n"
SCENE = (
    b'{"size": [32, 24], "length": 3, "classes": ["car", "person"], "seed": 2,\n'
    b' "objects": [{"class": "car", "size": [8, 6], "start": [4, 4], "velocity": [2, 1],\n'
    b'              "occlusion": [[1, 2]], "color": [200, 90, 40]},\n'
    b'             {"class_id": 1, "size": [5, 9], "waypoints": [[0, 20, 8], [2, 16, 10]]}],\n'
    b' "noise": {"miss_prob": 0.1, "fp_rate": 0.5, "fp_score_range": [0.4, 0.8]},\n'
    b' "injected_false_positives": [{"frame": 1, "class": "person", "bbox": [1, 1, 6, 7], "score": 0.6}],\n'
    b' "channels": 3, "background": {"mode": "flat", "level": 90, "motion": [1, 0]}}\n'
)
EMBEDDINGS = (
    b'{"frame": 0, "box": [1.0, 2.0, 5.0, 6.0], "vec": [0.25, 1.0, 0.0, 0.5]}\n'
    b'{"frame": 1, "box": [0, 0, 3, 3], "vec": [1, 0, 0, 0]}\n'
)


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    """Valid input for each reader, and the directory the manifest lives in."""
    root = tmp_path_factory.mktemp("readers")
    size = FrameSize(6, 4)
    write_frame(Frame(size, np.arange(24, dtype=np.uint8).reshape(4, 6)), root / "frame.pgm")
    write_flow(constant_field(size, 0.5, -1.25), root / "fw.flo")
    (root / "dets.jsonl").write_bytes(DETECTIONS)
    manifest = {
        "size": [6, 4],
        "classes": ["car", "person"],
        "frames": [
            {"index": 0, "frame": "frame.pgm", "detections": "dets.jsonl"},
            {"index": 1, "frame": "frame.pgm", "detections": "dets.jsonl"},
        ],
        "flows": [{"from": 0, "to": 1, "path": "fw.flo"}],
        "gt": "dets.jsonl",
    }
    originals = {
        "detections": DETECTIONS,
        "frame": (root / "frame.pgm").read_bytes(),
        "flow": (root / "fw.flo").read_bytes(),
        "manifest": json.dumps(manifest, indent=1).encode("ascii"),
        "config": CONFIG,
        "embeddings": EMBEDDINGS,
        "scene": SCENE,
    }
    return root, originals


READERS = {
    "detections": read_detections,
    "frame": read_frame,
    "flow": read_flow,
    "manifest": load_manifest,
    "config": load_config,
    "embeddings": PrecomputedEmbeddings.load,
    # parsed and validated only: never rendered, so no edit asks for a large
    # allocation
    "scene": load_spec,
}

edits = st.lists(
    st.tuples(
        st.sampled_from(["set", "insert", "delete", "cut"]),
        st.integers(0, 1 << 16),
        st.integers(0, 255),
    ),
    min_size=1,
    max_size=4,
)


def mutate(data: bytes, ops) -> bytes:
    buf = bytearray(data)
    for op, pos, byte in ops:
        i = pos % (len(buf) + 1)
        if op == "set" and i < len(buf):
            buf[i] = byte
        elif op == "insert":
            buf.insert(i, byte)
        elif op == "delete":
            del buf[i : i + 1 + byte % 8]
        elif op == "cut":
            del buf[i:]
    return bytes(buf)


@pytest.mark.parametrize("kind", sorted(READERS))
@settings(max_examples=60, deadline=None, derandomize=True)
@given(ops=edits)
def test_corrupted_input_ends_in_a_typed_error(originals, kind, ops):
    root, valid = originals
    path = root / f"mutated-{kind}"
    path.write_bytes(mutate(valid[kind], ops))
    try:
        READERS[kind](path)
    except (PropfuseError, OSError):
        pass


# JSON values a field of a detection line may be edited to: numbers in and
# out of range, non-finite ones, and values of the wrong type
numbers = st.one_of(
    st.integers(-3, 12),
    st.floats(-3.0, 12.0),
    st.floats(-0.5, 1.5),
    st.sampled_from([0.0, -0.0, 1.0, 1e-300, 10**400, float("inf"), float("nan")]),
)
# sorted distinct corners make a valid box, with ints and floats mixed
valid_boxes = st.lists(
    st.one_of(st.integers(-3, 12), st.floats(-3.0, 12.0)), min_size=4, max_size=4, unique=True
).map(sorted)
# a valid box with one corner set to any number: often degenerate in x or y
near_boxes = st.tuples(valid_boxes, st.integers(0, 3), numbers).map(
    lambda t: t[0][: t[1]] + [t[2]] + t[0][t[1] + 1 :]
)
field_values = st.one_of(
    numbers,
    valid_boxes,
    near_boxes,
    st.sampled_from([True, False, None, "car", "0.5", [1, 2, 3], [1, 2, True, 4], [1, 2, "3", 4]]),
)
RECORD_FIELDS = ("frame", "class", "bbox", "score", "source_offset", "source_bbox")


@settings(max_examples=200, deadline=None, derandomize=True)
# a score just above 1, a box flat in x, a source box reversed in y
@example(edits=[(0, "score", 1.25)])
@example(edits=[(1, "bbox", [5, 1, 5, 4])])
@example(edits=[(1, "source_bbox", [1, 4, 3, 2])])
@given(
    edits=st.lists(
        st.tuples(st.integers(0, 1), st.sampled_from(RECORD_FIELDS), field_values),
        min_size=1,
        max_size=2,
    )
)
def test_accepted_detections_build_as_checked_objects(originals, edits):
    """Lines the reader accepts pass the checked ``BBox`` and ``Detection`` too.

    Fields of the two record lines are set to other JSON values. When the
    file is accepted, ``record_detection`` and ``unchecked_bbox`` must give
    objects equal, with the same hash, to the checked ones.
    """
    root, valid = originals
    head, *lines = valid["detections"].decode("ascii").splitlines()
    objs = [json.loads(line) for line in lines]
    for i, key, value in edits:
        objs[i][key] = value
    path = root / "edited-detections"
    path.write_text("\n".join([head] + [json.dumps(o) for o in objs]) + "\n")
    try:
        records, _ = read_detections(path)
    except PropfuseError:
        return
    for r in records:
        checked = Detection(3, checked_bbox(r.bbox), r.score, r.source_offset)
        unchecked = record_detection(r, 3, r.source_offset)
        assert unchecked == checked
        assert hash(unchecked) == hash(checked)
        if r.source_bbox is not None:
            source = unchecked_bbox(*r.source_bbox)
            assert source == checked_bbox(r.source_bbox)
            assert hash(source) == hash(checked_bbox(r.source_bbox))


@pytest.mark.parametrize(
    "kind, key", [("detections", b'"frame": '), ("manifest", b'"index": '), ("embeddings", b'"frame": ')]
)
def test_integer_too_long_to_convert_is_a_validation_error(originals, kind, key):
    # json.loads raises a plain ValueError, not a JSONDecodeError, on an
    # integer of more digits than int() converts by default
    root, valid = originals
    path = root / f"long-integer-{kind}"
    path.write_bytes(valid[kind].replace(key, key + b"9" * 5000, 1))
    with pytest.raises(ValidationError, match="invalid JSON"):
        READERS[kind](path)


@pytest.mark.parametrize(
    "where", ["size", "frame index", "flow pair"], ids=["size", "index", "pair"]
)
def test_manifest_number_out_of_range_is_a_validation_error(originals, where):
    root, valid = originals
    manifest = json.loads(valid["manifest"])
    if where == "size":
        manifest["size"][0] = float("inf")
    elif where == "frame index":
        manifest["frames"][0]["index"] = float("inf")
    else:
        manifest["flows"][0]["to"] = float("-inf")
    path = root / "out-of-range.json"
    path.write_text(json.dumps(manifest))
    with pytest.raises(ValidationError, match="^" + re.escape(f"{path}: ")):
        load_manifest(path)


@pytest.mark.parametrize(
    "where, value, message",
    [
        ("index", 1.7, "malformed frame entry {entry}: index must be an integer, got float 1.7"),
        ("index", True, "malformed frame entry {entry}: index must be an integer, got bool True"),
        ("size", 6.9, "bad or missing size: width must be an integer, got float 6.9"),
        ("from", 0.9, "malformed flow entry {entry}: from must be an integer, got float 0.9"),
        ("to", 1.0, "malformed flow entry {entry}: to must be an integer, got float 1.0"),
    ],
    ids=["index-float", "index-bool", "size-float", "from-float", "to-float"],
)
def test_manifest_numbers_must_be_json_integers(originals, capsys, where, value, message):
    # int() would floor each of these, or read true as 1, and load a wrong frame
    root, valid = originals
    manifest = json.loads(valid["manifest"])
    if where == "index":
        entry = manifest["frames"][1]
    elif where == "size":
        entry = manifest["size"]
        where = 0
    else:
        entry = manifest["flows"][0]
    entry[where] = value
    path = root / "not-an-integer.json"
    path.write_text(json.dumps(manifest))
    with pytest.raises(ValidationError) as err:
        load_manifest(path)
    assert str(err.value) == f"{path}: " + message.format(entry=entry)
    out = root / "not-an-integer-check.json"
    assert main(["selfcheck", "--manifest", str(path), "--frame", "0", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {err.value}\n"
    assert not out.exists()


@pytest.mark.parametrize("classes", [[0, None], ["car", 1.5], ["car", ["x"]]])
def test_manifest_class_names_must_be_json_strings(originals, capsys, classes):
    # str() would load [0, null] as ['0', 'None'] and fail later on a label file
    root, valid = originals
    manifest = json.loads(valid["manifest"])
    manifest["classes"] = classes
    path = root / "class-not-a-string.json"
    path.write_text(json.dumps(manifest))
    bad = next(c for c in classes if type(c) is not str)
    with pytest.raises(ValidationError) as err:
        load_manifest(path)
    shown = f"{type(bad).__name__} {bad!r}"
    assert str(err.value) == f"{path}: class names must be JSON strings, got {shown}"
    out = root / "class-not-a-string-check.json"
    assert main(["selfcheck", "--manifest", str(path), "--frame", "0", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {err.value}\n"


@pytest.mark.parametrize(
    "key, value, want",
    [
        ("frames", None, "list"),
        ("frames", 5, "list"),
        ("flows", None, "list"),
        ("flows", 7, "list"),
        ("gt", 5, "str"),
        ("gt", True, "str"),
        ("embeddings", ["x"], "str"),
    ],
    ids=["frames null", "frames 5", "flows null", "flows 7", "gt 5", "gt true", "embeddings list"],
)
def test_manifest_shapes_end_in_typed_errors(originals, tmp_path, capsys, key, value, want):
    # each of these used to end in a TypeError traceback from iterating or
    # joining the value onto the manifest's directory
    root, valid = originals
    manifest = json.loads(valid["manifest"])
    manifest[key] = value
    path = root / "bad-shape.json"
    path.write_text(json.dumps(manifest))
    with pytest.raises(ValidationError) as err:
        load_manifest(path)
    shown = f"{type(value).__name__} {value!r}"
    assert str(err.value) == f"{path}: {key} must be a {want}, got {shown}"
    assert main(["pipeline", "--manifest", str(path), "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err == f"error: {err.value}\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("key", ["gt", "embeddings"])
@pytest.mark.parametrize("value", [None, "absent"])
def test_manifest_optional_files_may_be_absent_or_null(originals, key, value):
    root, valid = originals
    manifest = json.loads(valid["manifest"])
    manifest[key] = value
    if value == "absent":
        del manifest[key]
    path = root / "no-optional.json"
    path.write_text(json.dumps(manifest))
    m = load_manifest(path)
    assert (m.gt_path if key == "gt" else m.embeddings_path) is None
