"""The manifest file: what ``write_manifest`` writes, ``load_manifest`` reads back."""

import json

import pytest

from propfuse.geometry import FrameSize
from propfuse.manifest import FrameEntry, load_manifest, write_manifest

FRAMES = [(0, "frames/a.pgm", "dets/a.jsonl"), (1, "frames/b.pgm", "dets/b.jsonl")]
FLOWS = [(0, 1, "flows/fw.flo"), (1, 0, "flows/bw.flo")]


def _touch(root, *rels):
    for rel in rels:
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_bytes(b"")


@pytest.mark.parametrize(
    "gt, embeddings", [("gt.jsonl", "emb.jsonl"), (None, None)], ids=["with-optional", "without"]
)
def test_load_gives_back_what_write_wrote(tmp_path, gt, embeddings):
    _touch(tmp_path, *(p for _, f, d in FRAMES for p in (f, d)), *(p for *_, p in FLOWS))
    _touch(tmp_path, *(p for p in (gt, embeddings) if p))
    path = tmp_path / "manifest.json"
    classes = ["car", "caf\u00e9"]
    write_manifest(path, FrameSize(6, 4), classes, FRAMES, FLOWS, gt, embeddings)

    m = load_manifest(path)
    assert m.size == FrameSize(6, 4)
    assert m.classes == classes
    assert m.frames == {t: FrameEntry(t, tmp_path / f, tmp_path / d) for t, f, d in FRAMES}
    assert m.flows.pairs() == sorted((a, b) for a, b, _ in FLOWS)
    assert m.gt_path == (gt and tmp_path / gt)
    assert m.embeddings_path == (embeddings and tmp_path / embeddings)
    # the entries keep their order, and the text is ASCII
    obj = json.loads(path.read_bytes().decode("ascii"))
    assert [e["index"] for e in obj["frames"]] == [0, 1]
    assert [(e["from"], e["to"], e["path"]) for e in obj["flows"]] == FLOWS
