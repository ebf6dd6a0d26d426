"""Independent reference implementations used only by the tests.

Everything in here is deliberately written from the documented procedures,
not from the package source: plain tuples in, plain tuples out, brute force
throughout. Where a criterion demands exact score equality the oracle
performs the canonical arithmetic (sums in member order, numpy dots) so
that float results are comparable bit for bit.
"""

import json
import math

import numpy as np

Box = tuple  # (x1, y1, x2, y2)


def ref_iou(a: Box, b: Box) -> float:
    ix1 = max(a[0], b[0])
    iy1 = max(a[1], b[1])
    ix2 = min(a[2], b[2])
    iy2 = min(a[3], b[3])
    if ix2 <= ix1 or iy2 <= iy1:
        return 0.0
    inter = (ix2 - ix1) * (iy2 - iy1)
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    return inter / (area_a + area_b - inter)


def grid_iou(a: Box, b: Box, cells: int = 1200) -> float:
    """Pixel-counting IoU estimate: sample cell centres on a fine grid."""
    lo_x = min(a[0], b[0])
    lo_y = min(a[1], b[1])
    hi_x = max(a[2], b[2])
    hi_y = max(a[3], b[3])
    xs = lo_x + (np.arange(cells) + 0.5) * (hi_x - lo_x) / cells
    ys = lo_y + (np.arange(cells) + 0.5) * (hi_y - lo_y) / cells
    gx, gy = np.meshgrid(xs, ys)
    in_a = (gx >= a[0]) & (gx < a[2]) & (gy >= a[1]) & (gy < a[3])
    in_b = (gx >= b[0]) & (gx < b[2]) & (gy >= b[1]) & (gy < b[3])
    union = np.count_nonzero(in_a | in_b)
    if union == 0:
        return 0.0
    return np.count_nonzero(in_a & in_b) / union


def ref_cosine(x: np.ndarray, y: np.ndarray) -> float:
    p = float(np.dot(x, y))
    q = float(np.dot(x, x)) * float(np.dot(y, y))
    return math.sqrt(min((p * p) / q, 1.0))


def _in_order(values) -> float:
    """Floats added left to right from 0.0, whatever the interpreter's builtin sum does."""
    total = 0.0
    for v in values:
        total += v
    return total


def _weighted_fuse(members):
    """members: list of (score, box) in insertion order."""
    total = _in_order(s for s, _ in members)
    mean = total / len(members)
    if total > 0.0:
        box = tuple(
            _in_order(s * b[c] for s, b in members) / total for c in range(4)
        )
    else:
        box = tuple(_in_order(b[c] for _, b in members) / len(members) for c in range(4))
    return box, mean


def _ordered(dets):
    """Indices of (score, box) pairs: score desc, then coords, then position."""
    return sorted(range(len(dets)), key=lambda i: (-dets[i][0], dets[i][1], i))


def oracle_wbf(dets, iou_thr, num_sources, post_thr=0.0):
    """dets: list of (score, box) for ONE class. Returns [(box, score), ...].

    Greedy clustering against the running fused list, first match wins,
    fused box recomputed from scratch after every insertion, then the
    member-count rescale and the strict post filter.
    """
    clusters: list[list[int]] = []
    fused: list[tuple] = []
    for i in _ordered(dets):
        s, b = dets[i]
        hit = None
        for j, (fb, _) in enumerate(fused):
            if ref_iou(b, fb) > iou_thr:
                hit = j
                break
        if hit is None:
            clusters.append([i])
            fused.append(_weighted_fuse([dets[i]]))
        else:
            clusters[hit].append(i)
            fused[hit] = _weighted_fuse([dets[m] for m in clusters[hit]])
    out = []
    for mem, (fb, fs) in zip(clusters, fused):
        factor = min(len(mem), num_sources) / num_sources
        score = fs * factor
        if score > post_thr:
            out.append((fb, score))
    return out


def oracle_nms(dets, iou_thr):
    """Textbook NMS over (score, box) pairs of one class; keeps inputs as-is."""
    remaining = [_ for _ in _ordered(dets)]
    keep = []
    while remaining:
        top = remaining.pop(0)
        keep.append(dets[top])
        remaining = [i for i in remaining if ref_iou(dets[i][1], dets[top][1]) <= iou_thr]
    return [(b, s) for s, b in keep]


def oracle_soft_nms(dets, sigma, post_thr=0.0):
    """Gaussian Soft-NMS: every survivor decays by exp(-iou^2/sigma) per emit."""
    pool = [(s, b, i) for i, (s, b) in enumerate(dets)]
    out = []
    while pool:
        pool.sort(key=lambda e: (-e[0], e[1], e[2]))
        s, b, i = pool.pop(0)
        out.append((b, s))
        pool = [
            (ps * math.exp(-(ref_iou(pb, b) ** 2) / sigma), pb, pi)
            for ps, pb, pi in pool
        ]
    return [(b, s) for b, s in out if s > post_thr]


def oracle_nmw(dets, iou_thr):
    """NMW: cluster like NMS, emit the overlap-weighted mean position with
    the top box's score."""
    remaining = [_ for _ in _ordered(dets)]
    out = []
    while remaining:
        top = remaining.pop(0)
        ts, tb = dets[top]
        member_ids = [top] + [i for i in remaining if ref_iou(dets[i][1], tb) > iou_thr]
        weights = [dets[i][0] * ref_iou(dets[i][1], tb) for i in member_ids]
        total = _in_order(weights)
        if total > 0.0:
            box = tuple(
                _in_order(w * dets[i][1][c] for w, i in zip(weights, member_ids)) / total
                for c in range(4)
            )
        else:
            box = tb
        out.append((box, ts))
        remaining = [i for i in remaining if i not in member_ids]
    return out


def oracle_ap(dets, gts, iou_thr):
    """101-point interpolated AP for one class.

    dets: list of (frame, box, score); gts: list of (frame, box).
    Returns None when there is no ground truth at all.
    """
    if not gts:
        return None
    order = sorted(range(len(dets)), key=lambda i: (-dets[i][2], i))
    taken = set()
    flags = []
    for i in order:
        frame, box, _ = dets[i]
        best = None
        best_iou = 0.0
        for j, (gf, gb) in enumerate(gts):
            if j in taken or gf != frame:
                continue
            v = ref_iou(box, gb)
            if v >= iou_thr and v > best_iou:
                best, best_iou = j, v
        flags.append(best is not None)
        if best is not None:
            taken.add(best)
    tp = 0
    fp = 0
    precisions = []
    recalls = []
    for hit in flags:
        tp += 1 if hit else 0
        fp += 0 if hit else 1
        precisions.append(tp / (tp + fp))
        recalls.append(tp / len(gts))
    total = 0.0
    for i in range(101):
        r = i / 100
        best_p = 0.0
        for p, rec in zip(precisions, recalls):
            if rec >= r and p > best_p:
                best_p = p
        total += best_p
    return total / 101


def oracle_pr(dets, gts, iou_thr):
    """The 101 max-interpolated precisions whose mean is oracle_ap.

    Same greedy matching, redone from scratch; for each recall point the
    whole curve is rescanned for the best precision at that recall or more.
    """
    order = sorted(range(len(dets)), key=lambda i: (-dets[i][2], i))
    taken = set()
    tp = 0
    curve = []  # (precision, recall) after each ranked detection
    for rank, i in enumerate(order, start=1):
        frame, box, _ = dets[i]
        best = None
        best_iou = 0.0
        for j, (gf, gb) in enumerate(gts):
            if j in taken or gf != frame:
                continue
            v = ref_iou(box, gb)
            if v >= iou_thr and v > best_iou:
                best, best_iou = j, v
        if best is not None:
            taken.add(best)
            tp += 1
        curve.append((tp / rank, tp / len(gts)))
    return [
        max([p for p, rec in curve if rec >= i / 100] + [0.0]) for i in range(101)
    ]


def oracle_map(dets_by_class, gts_by_class, thresholds):
    """Mean over classes (with GT) of the mean AP over thresholds."""
    per_class = []
    for c in sorted(gts_by_class):
        gts = gts_by_class[c]
        if not gts:
            continue
        aps = [oracle_ap(dets_by_class.get(c, []), gts, t) for t in thresholds]
        per_class.append(_in_order(aps) / len(aps))
    if not per_class:
        return None
    return _in_order(per_class) / len(per_class)


def ref_bilinear(field, x, y):
    """(du, dv) of an (h, w, 2) field at continuous (x, y), one float at a time.

    The query clamps to the pixel lattice; each channel is lerped along x on
    the two rows, then along y between them.
    """
    h, w = len(field), len(field[0])
    x = min(max(x, 0.0), w - 1.0)
    y = min(max(y, 0.0), h - 1.0)
    c0, r0 = math.floor(x), math.floor(y)
    c1, r1 = min(c0 + 1, w - 1), min(r0 + 1, h - 1)
    fx, fy = x - c0, y - r0
    out = []
    for ch in (0, 1):
        v00, v01 = float(field[r0][c0][ch]), float(field[r0][c1][ch])
        v10, v11 = float(field[r1][c0][ch]), float(field[r1][c1][ch])
        top = v00 + fx * (v01 - v00)
        bottom = v10 + fx * (v11 - v10)
        out.append(top + fy * (bottom - top))
    return out[0], out[1]


def ref_luminance(pixels):
    """Float luminance rows of a grey (h, w) or RGB (h, w, 3) nested list, Rec. 601 weights."""
    out = []
    for row in pixels:
        if isinstance(row[0], list):
            out.append([0.299 * float(r) + 0.587 * float(g) + 0.114 * float(b) for r, g, b in row])
        else:
            out.append([float(p) for p in row])
    return out


def ref_bilinear_plane(plane, x, y):
    """One value of an (h, w) plane at continuous (x, y), lerped as ref_bilinear does."""
    h, w = len(plane), len(plane[0])
    x = min(max(x, 0.0), w - 1.0)
    y = min(max(y, 0.0), h - 1.0)
    c0, r0 = math.floor(x), math.floor(y)
    c1, r1 = min(c0 + 1, w - 1), min(r0 + 1, h - 1)
    fx, fy = x - c0, y - r0
    top = plane[r0][c0] + fx * (plane[r0][c1] - plane[r0][c0])
    bottom = plane[r1][c0] + fx * (plane[r1][c1] - plane[r1][c0])
    return top + fy * (bottom - top)


def ref_patch_descriptor(pixels, box: Box, n: int):
    """The n*n crop descriptor of a box, one float at a time, or None off the frame.

    The box is clipped to the frame; cell (i, j) samples the luminance at
    (x1 + (j + 0.5) * (width / n), y1 + (i + 0.5) * (height / n)); the
    samples, row by row, are min-max normalised, and a flat crop gives 0.5s.
    """
    plane = ref_luminance(pixels)
    h, w = len(plane), len(plane[0])
    x1, y1 = max(box[0], 0.0), max(box[1], 0.0)
    x2, y2 = min(box[2], float(w)), min(box[3], float(h))
    if x1 >= x2 or y1 >= y2:
        return None
    xs = [x1 + (j + 0.5) * ((x2 - x1) / n) for j in range(n)]
    ys = [y1 + (i + 0.5) * ((y2 - y1) / n) for i in range(n)]
    patch = [ref_bilinear_plane(plane, x, y) for y in ys for x in xs]
    lo, hi = min(patch), max(patch)
    if hi == lo:
        return [0.5] * (n * n)
    return [(v - lo) / (hi - lo) for v in patch]


def ref_chain_point(u, v, fields, mode):
    """A point carried through a chain of fields, floored once at the end.

    trajectory samples each hop where the point has got to; additive samples
    every hop at the start and adds the hop sums in chain order.
    """
    if mode == "trajectory":
        for f in fields:
            du, dv = ref_bilinear(f, u, v)
            u, v = u + du, v + dv
        return math.floor(u), math.floor(v)
    su = sv = 0.0
    for f in fields:
        du, dv = ref_bilinear(f, u, v)
        su, sv = su + du, sv + dv
    return math.floor(u + su), math.floor(v + sv)


def ref_chain_box(box: Box, fields, mode, width, height, min_coverage):
    """A box carried corner by corner, hulled, clipped and coverage-checked."""
    x1, y1, x2, y2 = box
    pts = [ref_chain_point(u, v, fields, mode) for u, v in ((x1, y1), (x2, y1), (x1, y2), (x2, y2))]
    hx1, hx2 = min(p[0] for p in pts), max(p[0] for p in pts)
    hy1, hy2 = min(p[1] for p in pts), max(p[1] for p in pts)
    if hx1 >= hx2 or hy1 >= hy2:
        return None
    cx1, cy1 = max(hx1, 0), max(hy1, 0)
    cx2, cy2 = min(hx2, width), min(hy2, height)
    if cx1 >= cx2 or cy1 >= cy2:
        return None
    if (cx2 - cx1) * (cy2 - cy1) / ((hx2 - hx1) * (hy2 - hy1)) < min_coverage:
        return None
    return (float(cx1), float(cy1), float(cx2), float(cy2))


def ref_candidates(target, k, labels, fields, width, height, threshold, mode, min_coverage):
    """Candidates of one target frame: its teacher boxes, then offsets 1, -1, 2, -2, ...

    labels: {frame: [(class_id, box, score), ...]}; fields: {(from, to): (h, w, 2)}.
    An offset whose source frame or any field of its chain is absent is
    skipped. Returns [(class_id, box, score, offset, source box or None)].
    """
    out = [(c, b, s, 0, None) for c, b, s in labels[target] if s > threshold]
    for step in range(1, k + 1):
        for offset in (step, -step):
            source = target - offset
            if offset > 0:
                pairs = [(f, f + 1) for f in range(source, target)]
            else:
                pairs = [(f, f - 1) for f in range(source, target, -1)]
            if source not in labels or any(p not in fields for p in pairs):
                continue
            chain = [fields[p] for p in pairs]
            for c, b, s in labels[source]:
                if s <= threshold:
                    continue
                moved = ref_chain_box(b, chain, mode, width, height, min_coverage)
                if moved is not None:
                    out.append((c, moved, s, offset, b))
    return out


def per_value_line(rec) -> str:
    """A detection line built one value at a time with f"{float(v):.6f}", as the
    format was first written; ``io.write_detections`` must give these bytes.

    ``rec`` is a ``DetectionRecord`` or anything with its fields.
    """

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
