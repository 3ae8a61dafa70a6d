"""Independent reference computations used to freeze expected test values.

Everything here deliberately avoids the library's own code paths: pixel
counting for overlap, straight-line trigonometry for losses, central
differences for their gradients, plain-loop path enumeration for direction
scoring, ray sampling for projection, and the first-written forms of
functions since rewritten for speed.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

PIXEL_GRID = 2000


def pixel_grid_iou(a, b, resolution: int = PIXEL_GRID) -> float:
    """Brute-force IOU by counting pixel centers inside each box.

    Membership on an axis-aligned grid factorizes per axis, so the 2-D count
    is the product of two 1-D mask counts; the result is identical to
    scanning the full resolution x resolution grid.
    """
    centers = (np.arange(resolution) + 0.5) / resolution

    def axis_mask(lo, size):
        return (centers >= lo) & (centers <= lo + size)

    ax, ay = axis_mask(a[0], a[2]), axis_mask(a[1], a[3])
    bx, by = axis_mask(b[0], b[2]), axis_mask(b[1], b[3])
    inter = int((ax & bx).sum()) * int((ay & by).sum())
    union = int(ax.sum()) * int(ay.sum()) + int(bx.sum()) * int(by.sum()) - inter
    return inter / union if union else 0.0


def random_box_tuple(rng: np.random.Generator, min_size=0.1, max_size=0.8):
    w = rng.uniform(min_size, max_size)
    h = rng.uniform(min_size, max_size)
    x = rng.uniform(0.0, 1.0 - w)
    y = rng.uniform(0.0, 1.0 - h)
    return (x, y, w, h)


def straight_line_rrolo(pred, truth_box, present, weights) -> float:
    """Eq-by-eq evaluation of the square-root objective, scalar arithmetic only."""
    x, y, w, h, p = pred
    a_coord, a_obj, a_no_obj = weights
    if not present:
        return a_no_obj * (0.0 - p) ** 2
    tx, ty, tw, th = truth_box
    ix = max(0.0, min(x + w, tx + tw) - max(x, tx))
    iy = max(0.0, min(y + h, ty + th) - max(y, ty))
    inter = ix * iy
    union = w * h + tw * th - inter
    overlap = inter / union if union > 0 else 0.0
    loss = a_coord * ((math.sqrt(tx) - math.sqrt(x)) ** 2 + (math.sqrt(ty) - math.sqrt(y)) ** 2)
    loss += a_coord * ((math.sqrt(tw) - math.sqrt(w)) ** 2 + (math.sqrt(th) - math.sqrt(h)) ** 2)
    loss += a_obj * (overlap - p) ** 2
    return loss


def numeric_gradient(
    f: Callable[[np.ndarray], float], point: Sequence[float], step: float = 1e-6
) -> np.ndarray:
    """Central-difference gradient of a scalar function at a point."""
    x = np.asarray(point, dtype=float)
    if x.ndim == 0:
        x = x.reshape(1)
    if step <= 0:
        raise ValueError("step must be positive")
    g = np.empty_like(x)
    for i in range(x.size):
        hi = x.copy()
        lo = x.copy()
        hi[i] += step
        lo[i] -= step
        fp, fm = f(hi), f(lo)
        if not (math.isfinite(fp) and math.isfinite(fm)):
            raise ValueError(f"function not finite near component {i}")
        g[i] = (fp - fm) / (2.0 * step)
    return g


def straight_line_paths(rows: int, cols: int, length: int) -> list[tuple[int, ...]]:
    """Every straight sub-window path, one cell step per frame at a velocity
    in {-1, 0, 1}^2 and clamped at the grid border; deduplicated, sorted."""
    paths = set()
    for r0 in range(rows):
        for c0 in range(cols):
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    path = []
                    for t in range(length):
                        r = min(max(r0 + t * dr, 0), rows - 1)
                        c = min(max(c0 + t * dc, 0), cols - 1)
                        path.append(r * cols + c)
                    paths.add(tuple(path))
    return sorted(paths)


def all_adjacent_paths(rows: int, cols: int, length: int) -> list[tuple[int, ...]]:
    """Every sub-window path whose consecutive cells are 8-adjacent or equal."""
    def neighbors(cell):
        r, c = divmod(cell, cols)
        out = []
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                rr, cc = r + dr, c + dc
                if 0 <= rr < rows and 0 <= cc < cols:
                    out.append(rr * cols + cc)
        return out

    paths = [(cell,) for cell in range(rows * cols)]
    for _ in range(length - 1):
        paths = [p + (n,) for p in paths for n in neighbors(p[-1])]
    return paths


def score_path(path, series, cols: int, sigma: float, top_sq_change: float) -> float:
    """Direction log-likelihood, mirroring the documented scoring rule."""
    eps = 1e-12
    score = 0.0
    for a, b in zip(path, path[1:]):
        ra, ca = divmod(a, cols)
        rb, cb = divmod(b, cols)
        d2 = (ra - rb) ** 2 + (ca - cb) ** 2
        score += -d2 / (2.0 * sigma * sigma)
    for s0, s1 in zip(series, series[1:]):
        q = (s1 - s0) ** 2
        score += math.log((q + eps) / (top_sq_change + eps))
    return score


def reference_dft_amplitude(series, sample_rate: float, frequency: float) -> float:
    """Plain-sum spectral amplitude of a mean-removed series."""
    s = list(series)
    mean = sum(s) / len(s)
    re = sum((v - mean) * math.cos(-2.0 * math.pi * frequency * t / sample_rate)
             for t, v in enumerate(s))
    im = sum((v - mean) * math.sin(-2.0 * math.pi * frequency * t / sample_rate)
             for t, v in enumerate(s))
    return math.hypot(re, im)


def random_prediction_set(rng, truth_box_tuple=(0.2, 0.2, 0.4, 0.4), n_frames=40):
    """Random per-frame annotations and confidence-correlated predictions."""
    from uwconvoy.geometry import Annotation, BoundingBox

    tx, ty, tw, th = truth_box_tuple
    annotations = []
    predictions = []
    for frame in range(n_frames):
        present = rng.uniform() < 0.65
        annotations.append(
            Annotation(frame, present, BoundingBox(tx, ty, tw, th) if present else None)
        )
        roll = rng.uniform()
        if present and roll < 0.85:
            conf = float(np.clip(rng.normal(0.75, 0.15), 0.01, 1.0))
            predictions.append((frame, BoundingBox(tx, ty, tw, th, round(conf, 3))))
        elif not present and roll < 0.25:
            conf = float(np.clip(rng.normal(0.35, 0.2), 0.01, 1.0))
            predictions.append((frame, BoundingBox(0.55, 0.55, 0.3, 0.3, round(conf, 3))))
        else:
            predictions.append((frame, None))
    return annotations, predictions


def brute_force_threshold(annotations, predictions, min_precision):
    """Exhaustive sweep over distinct confidences; None when none qualifies."""
    best = None
    for threshold in sorted({b.p for _, b in predictions if b is not None}):
        tp = fp = fn = 0
        for a, (_, b) in zip(annotations, predictions):
            detected = b is not None and b.p >= threshold
            if a.present and detected:
                tp += 1
            elif a.present:
                fn += 1
            elif detected:
                fp += 1
        if tp + fp == 0 or tp / (tp + fp) < min_precision:
            continue
        recall = tp / (tp + fn) if tp + fn else 0.0
        if best is None or recall > best[0]:
            best = (recall, threshold)
    return None if best is None else best[1]


def ray_sample_projection(
    hfov: float,
    vfov: float,
    eye: np.ndarray,
    fwd: np.ndarray,
    left: np.ndarray,
    up: np.ndarray,
    rect_center: np.ndarray,
    h_axis: np.ndarray,
    v_axis: np.ndarray,
    half_w: float,
    half_h: float,
    resolution: int = 801,
):
    """Image extent of a rectangle by dense surface sampling.

    Samples the rectangle, converts each sample to bearing/elevation, and
    returns (u_min, u_max, v_min, v_max) before image clipping, or None when
    any sample falls behind the camera.
    """
    s = np.linspace(-1.0, 1.0, resolution)
    us, vs = [], []
    for a in s:
        for b in s:
            point = rect_center + a * half_w * h_axis + b * half_h * v_axis
            rel = point - eye
            xc, yc, zc = rel @ fwd, rel @ left, rel @ up
            if xc <= 0:
                return None
            az = math.atan2(yc, xc)
            el = math.atan2(zc, math.hypot(xc, yc))
            us.append(0.5 - az / hfov)
            vs.append(0.5 - el / vfov)
    return min(us), max(us), min(vs), max(vs)


def pose_axes(pose):
    """Forward, left and up unit axes of a level pose, as numpy 3-vectors."""
    cy, sy = math.cos(pose.yaw), math.sin(pose.yaw)
    return np.array([cy, sy, 0.0]), np.array([-sy, cy, 0.0]), np.array([0.0, 0.0, 1.0])


def _dot(a, b) -> float:
    """A 3-vector dot product in plain floats, summed left to right."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def project_rect_per_corner(cam, follower, center, h_axis, v_axis, half_w: float, half_h: float):
    """Box projection a corner at a time: each corner a numpy 3-vector sum,
    projected onto each axis with a plain-float dot product."""
    from uwconvoy.geometry import clip_box_to_image

    fwd, left, up = (axis.tolist() for axis in pose_axes(follower))
    eye = np.asarray(follower.position)

    if _dot((center - eye).tolist(), fwd) <= 0.0:
        return None

    corners = [
        center + sx * half_w * h_axis + sy * half_h * v_axis
        for sx in (-1.0, 1.0)
        for sy in (-1.0, 1.0)
    ]
    us, vs = [], []
    for corner in corners:
        rel = (corner - eye).tolist()
        xc, yc, zc = _dot(rel, fwd), _dot(rel, left), _dot(rel, up)
        if xc <= 1e-9:
            return None
        az = math.atan2(yc, xc)
        el = math.atan2(zc, math.hypot(xc, yc))
        us.append(0.5 - az / cam.horizontal_fov)
        vs.append(0.5 - el / cam.vertical_fov)
    x, y = min(us), min(vs)
    return clip_box_to_image(x, y, max(us) - x, max(vs) - y)


def _cells(*values) -> list[str]:
    return [f"{v:.6f}" for v in values]


def trace_row_cells(r) -> str:
    """One trace CSV line as first written, one formatted cell at a time."""
    def pose(p):
        return _cells(*p.position, p.yaw, 0.0)  # level: pitch 0

    def box(b):
        return [""] * 4 if b is None else _cells(b.x, b.y, b.w, b.h)

    tb, db, cmd = r.true_box, r.detection, r.command
    cells = [
        *_cells(r.t), *pose(r.leader), *pose(r.follower),
        "0" if tb is None else "1", *box(tb),
        "0" if db is None else "1", *([""] if db is None else _cells(db.p)), *box(db),
        # pitch and roll rates are never commanded: 0
        *_cells(cmd.yaw_rate, 0.0, 0.0, cmd.forward_speed, cmd.vertical_speed),
    ]
    return ",".join(cells)


def per_true_positive_biases(tp_boxes, area_edges) -> tuple[list[float], list[float]]:
    """Mean and std of the centre bias per area bin of (predicted box, truth
    box) pairs, as first written: one scalar np.hypot per TP of the centre
    difference."""
    from uwconvoy.geometry import box_area, box_center

    n_bins = len(area_edges) - 1
    bins = np.clip(
        np.digitize([box_area(truth) for _, truth in tp_boxes], area_edges) - 1, 0, n_bins - 1
    )
    biases = np.array([
        np.hypot(*np.subtract(box_center(box), box_center(truth))) for box, truth in tp_boxes
    ])
    means, stds = [0.0] * n_bins, [0.0] * n_bins
    for b in np.unique(bins):
        means[b], stds[b] = float(biases[bins == b].mean()), float(biases[bins == b].std())
    return means, stds


# ---------------------------------------------------------------------------
# frame-level evaluation as first written: one record per frame

def per_frame_labels(annotations, predictions, threshold):
    """(frame, annotation, predicted box, label, iou) of every frame in frame
    order; iou is None but for a TP."""
    from uwconvoy.geometry import iou

    boxes = dict(predictions)
    records = []
    for ann in sorted(annotations, key=lambda a: a.frame_index):
        box = boxes[ann.frame_index]
        detected = box is not None and box.p >= threshold
        if ann.present and detected:
            label, overlap = "TP", iou(box, ann.truth_box)
        elif ann.present:
            label, overlap = "FN", None
        elif detected:
            label, overlap = "FP", None
        else:
            label, overlap = "TN", None
        records.append((ann.frame_index, ann, box, label, overlap))
    return records


def per_frame_metrics(records):
    """MetricsReport of the records; the TP IOUs summed left to right."""
    from uwconvoy.evaluation import MetricsReport

    counts = {"TP": 0, "TN": 0, "FP": 0, "FN": 0}
    for r in records:
        counts[r[3]] += 1
    n = len(records)
    tp, tn, fp, fn = counts["TP"], counts["TN"], counts["FP"], counts["FN"]
    tp_ious = [r[4] for r in records if r[3] == "TP"]
    return MetricsReport(
        n_images=n,
        n_tp=tp,
        n_tn=tn,
        n_fp=fp,
        n_fn=fn,
        accuracy=(tp + tn) / n,
        precision=tp / (tp + fp) if tp + fp > 0 else None,
        recall=tp / (tp + fn) if tp + fn > 0 else None,
        avg_iou=sum(tp_ious) / len(tp_ious) if tp_ious else None,
        lfr=sum(1 for v in tp_ious if v < 0.5) / len(tp_ious) if tp_ious else None,
    )


def _per_frame_spans(records, label, fps, max_gap):
    frames = [r[0] for r in records if r[3] == label]
    spans = []
    for f in frames:
        if spans and (f - spans[-1][1] - 1) / fps <= max_gap:
            spans[-1] = (spans[-1][0], f)
        else:
            spans.append((f, f))
    return spans


def per_frame_tracks(records, fps, max_gap):
    """TrackStats of the TP spans that tolerate max_gap seconds."""
    import statistics

    from uwconvoy.evaluation import TrackStats

    spans = _per_frame_spans(records, "TP", fps, max_gap)
    if not spans:
        return TrackStats(0, (), None, None, None)
    durations = tuple((last - first + 1) / fps for first, last in spans)
    total = math.fsum(durations)
    return TrackStats(
        count=len(durations),
        durations=durations,
        mean_duration=total / len(durations),
        std_duration=statistics.pstdev(durations),
        max_duration=max(durations),
    )


def per_frame_histograms(records, area_edges, duration_edges):
    """HistogramReport of the records: TP and FN truth areas, TP centre
    biases and TN and FN run lengths, each binned as the report bins them."""
    from uwconvoy.evaluation import HistogramReport
    from uwconvoy.geometry import box_area

    def bins(values, edges):
        return np.clip(np.digitize(values, edges) - 1, 0, len(edges) - 2)

    n_bins = len(area_edges) - 1
    tps = [r for r in records if r[3] == "TP"]
    tp_bins = bins([box_area(r[1].truth_box) for r in tps], area_edges)
    fn_bins = bins([box_area(r[1].truth_box) for r in records if r[3] == "FN"], area_edges)
    bias_mean, bias_std = per_true_positive_biases([(r[2], r[1].truth_box) for r in tps], area_edges)

    def run_counts(label):
        runs = [last - first + 1 for first, last in _per_frame_spans(records, label, 1.0, 0.0)]
        return np.bincount(bins(runs, duration_edges), minlength=len(duration_edges) - 1)

    return HistogramReport(
        tp_by_area=tuple(int(v) for v in np.bincount(tp_bins, minlength=n_bins)),
        fn_by_area=tuple(int(v) for v in np.bincount(fn_bins, minlength=n_bins)),
        bias_mean=tuple(bias_mean),
        bias_std=tuple(bias_std),
        tn_runs=tuple(int(v) for v in run_counts("TN")),
        fn_runs=tuple(int(v) for v in run_counts("FN")),
    )


# ---------------------------------------------------------------------------
# the frame-CSV readers as first written: every cell through plain_number


def _plain_number(convert, raw: str):
    if "_" in raw or not raw.isascii() or raw.lstrip("+").strip() != raw:
        raise ValueError(f"not a plain number: {raw!r}")
    return convert(raw)


def _reference_float(raw: str, name: str) -> float:
    try:
        v = _plain_number(float, raw)
    except ValueError:
        raise ValueError(f"field {name} is not a number: {raw!r}") from None
    if not math.isfinite(v):
        raise ValueError(f"field {name} is not finite")
    return v


def _reference_box(parts, confidence):
    from uwconvoy.geometry import BoundingBox

    if parts == ["", "", "", ""]:
        return None
    x, y, w, h = parts
    return BoundingBox(
        _reference_float(x, "x"), _reference_float(y, "y"),
        _reference_float(w, "w"), _reference_float(h, "h"),
        confidence,
    )


def _reference_rows(text: str, header: str, parse_row) -> list:
    lines = [line.removesuffix("\r") for line in text.split("\n")]
    if lines[0].strip() != header:
        raise ValueError(f"line 1: expected header {header!r}")
    n_fields = header.count(",") + 1
    prev_frame = -1
    rows = []
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        try:
            if len(parts) != n_fields:
                raise ValueError(f"expected {n_fields} fields, got {len(parts)}")
            try:
                frame = _plain_number(int, parts[0])
            except ValueError:
                raise ValueError(f"bad frame index {parts[0]!r}") from None
            if frame < 0:
                raise ValueError(f"frame index {frame} is negative")
            if frame > 2**53:
                raise ValueError("frame index above 2**53")
            if frame <= prev_frame:
                raise ValueError(f"frame {frame} not after frame {prev_frame}")
            prev_frame = frame
            rows.append(parse_row(frame, parts))
        except ValueError as exc:
            raise ValueError(f"line {line_no}: {exc}") from None
    return rows


def reference_parse_annotations(text: str):
    from uwconvoy.geometry import Annotation

    def row(frame, parts):
        if parts[1] not in ("0", "1"):
            raise ValueError(f"present flag must be 0 or 1, got {parts[1]!r}")
        return Annotation(frame, parts[1] == "1", _reference_box(parts[2:6], confidence=1.0))

    return _reference_rows(text, "frame,present,x,y,w,h", row)


def reference_parse_predictions(text: str):
    """As first written, a confidence of -0 kept its sign."""
    def row(frame, parts):
        confidence = _reference_float(parts[1], "confidence")
        if not 0.0 <= confidence <= 1.0:
            raise ValueError(f"confidence {confidence} outside [0,1]")
        return frame, _reference_box(parts[2:6], confidence)

    return _reference_rows(text, "frame,confidence,x,y,w,h", row)


def per_field_box_fault(x, y, w, h, p, field_eps: float, sum_eps: float) -> str | None:
    """The BoundingBox checks as first written, one field at a time: the
    message of the first check that the fields fail, None when all pass."""
    for name, v in zip("xywhp", (x, y, w, h, p)):
        if not math.isfinite(v):
            return f"box field {name} is not finite: {v!r}"
        if not -field_eps <= v <= 1.0 + field_eps:
            return f"box field {name} out of [0,1]: {v!r}"
    if x + w > 1.0 + sum_eps:
        return f"box exceeds right edge: x+w = {x + w!r}"
    if y + h > 1.0 + sum_eps:
        return f"box exceeds bottom edge: y+h = {y + h!r}"
    return None


def one_line_write_pgm(frame) -> bytes:
    """The P5 encoder as first written: one clip(rint(frame * 255)) expression."""
    height, width = frame.shape
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    return header + np.clip(np.rint(frame * 255.0), 0, 255).astype(np.uint8).tobytes()


def _wrap(a: float) -> float:
    return math.pi - (math.pi - a) % (2.0 * math.pi)


def vector_step_follower(pose, cmd, dt: float, drift=(0.0, 0.0, 0.0)):
    """One follower step as first written, as numpy vector sums, with the
    current's drift added to the stepped position as a last vector sum.

    Returns the (position, yaw) of the stepped pose, which stays level. That
    version built a turned pose copy and then a moved one, and each pose
    wrapped its yaw, so the heading uses a yaw wrapped twice and the result
    one wrapped three times.
    """
    yaw = _wrap(_wrap(pose.yaw + cmd.yaw_rate * dt))
    pos = np.asarray(pose.position)
    pos = pos + np.array([math.cos(yaw), math.sin(yaw), 0.0]) * cmd.forward_speed * dt
    pos = pos + np.array([0.0, 0.0, cmd.vertical_speed * dt])
    pos = pos + np.asarray(drift)
    return tuple(pos), _wrap(yaw)


def record_walk_samples(records, fps: float):
    """(frame_index, record) pairs of footage sampled at fps, by the forward
    walk first written: frame i takes the last record at or before time
    i / fps, with 1e-12 s of slack, and frames run up to the last record."""
    samples = []
    idx = 0
    i = 0
    while i / fps <= records[-1].t + 1e-12:
        t = i / fps
        while idx + 1 < len(records) and records[idx + 1].t <= t + 1e-12:
            idx += 1
        samples.append((i, records[idx]))
        i += 1
    return samples


def serial_footage(scene, samples, fps: float):
    """Frames of (frame_index, record) samples rendered one after another
    on the calling thread, as first written: the scene draws frame i's
    background at time i / fps inline, then paints that frame into it."""
    return [
        scene.render(r.leader, r.follower, r.true_box, scene.background(i / fps))
        for i, r in samples
    ]
