"""Output checks for one benchmark run, independent of today's output.

Every check compares the written label trees with a property the method
must have or with a computation made apart from the package's own code:

* every target frame has a label file that parses, and every label lies
  inside the frame, is non-degenerate, scores in (post_threshold, 1] and
  follows the labels before it in descending score order;
* all label trees of a run are byte-identical;
* map50 and map75 reported by ``propfuse eval`` equal, to 1e-9, the
  101-point AP computed here from the documented procedure;
* a brute-force weighted box fusion of sampled frames' candidates
  reproduces the written labels exactly;
* the fused map75 beats the map75 of the teacher labels alone (k=0).

The package is used only to load the manifest, to gather (and, for swbf,
rescore) the candidates that the brute-force fusion starts from, and to
produce the teacher-only labels.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

MAP_TOLERANCE = 1e-9
RECALL_POINTS = 101


def box_iou(a, b) -> float:
    iw = min(a[2], b[2]) - max(a[0], b[0])
    if iw <= 0:
        return 0.0
    ih = min(a[3], b[3]) - max(a[1], b[1])
    if ih <= 0:
        return 0.0
    inter = iw * ih
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    return inter / (area_a + area_b - inter)


# -- label trees ---------------------------------------------------------------


def read_tree(labels_dir: Path, targets, width, height, classes, post_threshold):
    """Parse fused_<frame>.jsonl files; return labels, bad frames and reasons.

    Labels are (frame, class name, box, score) in file order.
    """
    labels = []
    bad: dict[int, str] = {}
    expected = {f"fused_{t:06d}.jsonl": t for t in targets}
    present = {p.name for p in labels_dir.glob("*.jsonl")}
    for extra in sorted(present - set(expected)):
        bad[-1] = f"unexpected file {extra}"
    for name, t in sorted(expected.items(), key=lambda kv: kv[1]):
        path = labels_dir / name
        if name not in present:
            bad[t] = "no label file"
            continue
        frame_labels = []
        try:
            for lineno, line in enumerate(path.read_text(encoding="ascii").splitlines(), start=1):
                obj = json.loads(line)
                box = tuple(float(v) for v in obj["bbox"])
                rec = (int(obj["frame"]), str(obj["class"]), box, float(obj["score"]))
                problem = _label_problem(rec, t, width, height, classes, post_threshold)
                if problem is None and frame_labels and rec[3] > frame_labels[-1][3]:
                    problem = "scores not in descending order"
                if problem is not None:
                    raise ValueError(f"line {lineno}: {problem}")
                frame_labels.append(rec)
        except (ValueError, KeyError, TypeError, IndexError, UnicodeDecodeError) as exc:
            bad[t] = f"{name}: {exc}"
            continue
        labels.extend(frame_labels)
    return labels, bad


def _label_problem(rec, frame, width, height, classes, post_threshold):
    t, cls, box, score = rec
    if t != frame:
        return f"frame {t} in the file of frame {frame}"
    if cls not in classes:
        return f"class {cls!r} outside the vocabulary"
    if len(box) != 4:
        return "box needs 4 coordinates"
    x1, y1, x2, y2 = box
    if not (0.0 <= x1 < x2 <= width and 0.0 <= y1 < y2 <= height):
        return f"box {box} degenerate or outside the {width}x{height} frame"
    if not post_threshold < score <= 1.0:
        return f"score {score} outside ({post_threshold}, 1]"
    return None


def tree_digest(labels_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(labels_dir.iterdir()):
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def read_gt(path: Path):
    out = []
    for line in path.read_text(encoding="ascii").splitlines():
        if line.strip():
            obj = json.loads(line)
            out.append((int(obj["frame"]), str(obj["class"]), tuple(float(v) for v in obj["bbox"])))
    return out


# -- average precision -----------------------------------------------------------


def class_ap(dets, gts, threshold) -> float:
    """101-point interpolated AP of one class.

    dets: (frame, box, score); gts: (frame, box). Detections are visited by
    descending score (ties by input position); each takes the unmatched
    ground-truth box of its own frame with the highest IoU at or above the
    threshold, the earliest one on ties. The interpolated precision at
    recall r is the highest precision at any rank whose recall reaches r.
    """
    by_frame: dict = {}
    for j, (frame, box) in enumerate(gts):
        by_frame.setdefault(frame, []).append((j, box))
    taken = set()
    tp = 0
    precision = []
    recall = []
    for rank, i in enumerate(sorted(range(len(dets)), key=lambda i: (-dets[i][2], i)), start=1):
        frame, box, _ = dets[i]
        best, best_iou = None, 0.0
        for j, gbox in by_frame.get(frame, ()):
            if j in taken:
                continue
            v = box_iou(box, gbox)
            if v >= threshold and v > best_iou:
                best, best_iou = j, v
        if best is not None:
            taken.add(best)
            tp += 1
        precision.append(tp / rank)
        recall.append(tp / len(gts))
    # running maximum of precision from the last rank backwards
    envelope = precision[:]
    for i in range(len(envelope) - 2, -1, -1):
        envelope[i] = max(envelope[i], envelope[i + 1])
    values = []
    i = 0
    for step in range(RECALL_POINTS):
        r = step / 100.0
        while i < len(recall) and recall[i] < r:
            i += 1
        values.append(envelope[i] if i < len(recall) else 0.0)
    return sum(values) / RECALL_POINTS


def mean_ap(labels, gt, threshold) -> float:
    """Mean AP over the classes present in the ground truth."""
    aps = []
    for cls in sorted({c for _, c, _ in gt}):
        dets = [(f, box, s) for f, c, box, s in labels if c == cls]
        gts = [(f, box) for f, c, box in gt if c == cls]
        aps.append(class_ap(dets, gts, threshold))
    return sum(aps) / len(aps)


# -- brute-force fusion -------------------------------------------------------------


def _weighted(members):
    """Mean score and score-weighted corners, summed in member order."""
    total = sum(s for s, _ in members)
    if total > 0.0:
        box = tuple(sum(s * b[c] for s, b in members) / total for c in range(4))
    else:
        box = tuple(sum(b[c] for _, b in members) / len(members) for c in range(4))
    return box, total / len(members)


def brute_wbf(candidates, iou_threshold, num_sources, post_threshold):
    """Weighted box fusion of (class id, score, box) candidates, by the book.

    Per class, boxes are visited by descending score (ties by corners, then
    input position); each joins the first cluster whose fused box it
    overlaps by more than the threshold, and the cluster is fused again from
    all its members. A cluster's score is scaled by
    min(size, num_sources) / num_sources and must exceed the post
    threshold. The survivors of all classes are sorted by the same key.
    """
    fused = []
    for cls in sorted({c for c, _, _ in candidates}):
        dets = [(s, b) for c, s, b in candidates if c == cls]
        clusters: list[list] = []
        boxes: list = []
        for i in sorted(range(len(dets)), key=lambda i: (-dets[i][0], dets[i][1], i)):
            s, b = dets[i]
            hit = next((j for j, fb in enumerate(boxes) if box_iou(b, fb[0]) > iou_threshold), None)
            if hit is None:
                clusters.append([dets[i]])
                boxes.append((b, s))
            else:
                clusters[hit].append(dets[i])
                boxes[hit] = _weighted(clusters[hit])
        for members, (box, score) in zip(clusters, boxes):
            scaled = score * (min(len(members), num_sources) / num_sources)
            if scaled > post_threshold:
                fused.append((cls, box, scaled))
    order = sorted(range(len(fused)), key=lambda i: (-fused[i][2], fused[i][1], i))
    return [fused[i] for i in order]


def _as_text(cls_name, box, score) -> tuple:
    return (cls_name, tuple(f"{v:.6f}" for v in box), f"{score:.6f}")


def refusion_mismatches(manifest, cfg, labels, frames) -> list[int]:
    """Sampled frames whose written labels differ from brute-force fusion.

    For swbf the carried candidates are first rescored with the package's
    own ``rescore`` (that is the similarity layer, not fusion) and dropped
    where it gives None.
    """
    from propfuse import build_candidates, rescore
    from propfuse.pipeline import build_provider

    provider = build_provider(manifest, cfg) if cfg.method == "swbf" else None

    written: dict[int, list] = {}
    for t, cls, box, score in labels:
        written.setdefault(t, []).append(_as_text(cls, box, score))
    bad = []
    for t in frames:
        cand = build_candidates(
            t,
            cfg.k,
            manifest.teacher_labels,
            manifest.flows,
            manifest.size,
            teacher_threshold=cfg.teacher_threshold,
            mode=cfg.composition,
            min_coverage=cfg.min_coverage,
        )
        if cfg.num_sources is not None:
            num_sources = cfg.num_sources
        elif cfg.source_count_mode == "literal":
            num_sources = 2 * cfg.k + 1
        else:
            num_sources = cand.effective_sources
        dets = cand.detections
        if provider is not None:
            dets = [
                d if d.source_offset == 0 else rescore(d, src, provider, t, t - d.source_offset)
                for d, src in zip(cand.detections, cand.source_boxes)
            ]
        triples = [(d.class_id, d.score, d.bbox.as_tuple()) for d in dets if d is not None]
        expect = [
            _as_text(manifest.classes[c], box, s)
            for c, box, s in brute_wbf(triples, cfg.iou_threshold, num_sources, cfg.post_threshold)
        ]
        if expect != written.get(t, []):
            bad.append(t)
    return bad


def sample_frames(targets, n):
    if n <= 0:
        return []
    if n >= len(targets):
        return list(targets)
    return sorted({targets[round(i * (len(targets) - 1) / (n - 1))] for i in range(n)})


# -- the whole run ------------------------------------------------------------------


def check_run(spec: dict) -> dict:
    """Check every tree of a run; see run.py for how failures are counted.

    spec: manifest, gt, config, trees (directories holding labels/), evals
    (one eval report summary per tree) and refuse_frames.
    """
    from propfuse import PipelineConfig, load_manifest, run_pipeline

    cfg = PipelineConfig(**spec["config"])
    manifest = load_manifest(spec["manifest"])
    targets = manifest.frame_indices()
    width, height = manifest.size.width, manifest.size.height
    trees = [Path(t) / "labels" for t in spec["trees"]]

    bad_frames = {}
    digests = []
    reference = None
    for tree in trees:
        labels, bad = read_tree(tree, targets, width, height, manifest.classes, cfg.post_threshold)
        bad_frames[str(tree.parent)] = bad
        digests.append(tree_digest(tree))
        if reference is None:
            reference = labels
    mismatched = [str(t.parent) for t, d in zip(trees, digests) if d != digests[0]]

    problems = []
    gt = read_gt(Path(spec["gt"]))
    map50 = mean_ap(reference, gt, 0.5)
    map75 = mean_ap(reference, gt, 0.75)
    for ev in spec["evals"]:
        if abs(ev["map50"] - map50) > MAP_TOLERANCE or abs(ev["map75"] - map75) > MAP_TOLERANCE:
            problems.append(
                f"eval reports map50 {ev['map50']!r} / map75 {ev['map75']!r}, "
                f"independent AP gives {map50!r} / {map75!r}"
            )
            break

    refused = sample_frames(targets, spec["refuse_frames"])
    wrong = refusion_mismatches(manifest, cfg, reference, refused) if refused else []
    if wrong:
        problems.append(f"brute-force fusion differs from the written labels on frames {wrong}")

    teacher = run_pipeline(manifest, cfg.replace(k=0))
    teacher_labels = [
        (t, manifest.classes[d.class_id], d.bbox.as_tuple(), d.score)
        for t, ls in sorted(teacher.labels.items())
        for d in ls.detections
    ]
    teacher_map75 = mean_ap(teacher_labels, gt, 0.75)
    if not map75 > teacher_map75:
        problems.append(f"fused map75 {map75} does not beat teacher-only map75 {teacher_map75}")

    return {
        "bad_frames": {k: {str(f): why for f, why in v.items()} for k, v in bad_frames.items()},
        "mismatched_trees": mismatched,
        "problems": problems,
        "map50": map50,
        "map75": map75,
        "teacher_map75": teacher_map75,
        "refused_frames": refused,
        "labels": len(reference),
    }
