"""Every reader of user input ends a corrupted file in a typed error.

Each reader gets a small valid file with random byte edits: bytes set,
inserted or deleted, or the file cut short. It may accept the result or
raise a ``PropfuseError`` (or an ``OSError``), never anything else.
"""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from propfuse.errors import PropfuseError, ValidationError
from propfuse.geometry import FrameSize
from propfuse.io import read_detections, read_frame, write_frame
from propfuse.manifest import load_manifest
from propfuse.motion import Frame, constant_field, read_flow, write_flow
from propfuse.pipeline import load_config
from propfuse.similarity import PrecomputedEmbeddings

DETECTIONS = (
    b'{"type": "candidate_meta", "frame": 1, "effective_sources": 3, "k": 1}\n'
    b'{"frame": 1, "class": "car", "bbox": [1.5, 2.0, 8.25, 6.0], "score": 0.9}\n'
    b'{"frame": 1, "class": "person", "bbox": [0, 1, 3, 5], "score": 0.4, '
    b'"source_offset": -1, "source_bbox": [1, 1, 4, 5]}\n'
)
CONFIG = b"# run\nk = 2\nmethod = swbf\nteacher_threshold = 0.35  # keep\nnum_sources = 3\njobs = 1\n"
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
    }
    return root, originals


READERS = {
    "detections": read_detections,
    "frame": read_frame,
    "flow": read_flow,
    "manifest": load_manifest,
    "config": load_config,
    "embeddings": PrecomputedEmbeddings.load,
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
