"""Frame-level detector evaluation: confusion metrics, threshold selection,
track statistics, and failure histograms.

A frame counts as a true positive purely by presence agreement at the
chosen confidence threshold; localization quality is reported separately
through the average overlap and the localization failure rate over true
positives. Ratio metrics with empty denominators are reported as None
("undefined"), never silently zero. The automatic threshold is the lowest
confidence in the file whose precision is at least MIN_PRECISION (0.95),
which is the one with the best recall.
"""

from __future__ import annotations

import math
import operator
import statistics
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import Annotation, BoundingBox, box_area, box_center, iou

Classification = str  # "TP" | "TN" | "FP" | "FN"

# longest run of non-TP frames, in seconds, that keeps a track alive
TRACK_MAX_GAP = 3.0
# the precision floor of the automatic threshold
MIN_PRECISION = 0.95
# histogram bins: annotated box area (fraction of the image) and negative-run
# length (frames)
AREA_EDGES = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
DURATION_EDGES = (1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0)


class ThresholdNotFoundError(ValueError):
    """No confidence threshold reaches the required precision floor."""


@dataclass(frozen=True, eq=False)
class FrameLabels:
    """The label of every frame at one threshold, as columns in frame order;
    the two TP columns hold one entry per TP, in frame order."""

    frame: np.ndarray  # frame index
    label: np.ndarray  # "TP", "TN", "FP" or "FN"
    truth_area: np.ndarray  # area of the annotated box; nan where the target is absent
    tp_iou: np.ndarray  # of the predicted box with the annotated box
    tp_bias: np.ndarray  # distance between the predicted and the annotated box centres


@dataclass(frozen=True)
class MetricsReport:
    n_images: int
    n_tp: int
    n_tn: int
    n_fp: int
    n_fn: int
    accuracy: float
    precision: float | None
    recall: float | None
    avg_iou: float | None
    lfr: float | None


@dataclass(frozen=True)
class TrackStats:
    count: int
    durations: tuple[float, ...]
    mean_duration: float | None
    std_duration: float | None
    max_duration: float | None


def _joined(
    annotations: Sequence[Annotation],
    predictions: Sequence[tuple[int, BoundingBox | None]],
) -> tuple[Sequence[Annotation], list[BoundingBox | None]]:
    """The annotations in frame order, and the predicted box of each.
    Annotation and prediction frame sets must match exactly."""
    frames = [ann.frame_index for ann in annotations]
    if frames == [frame for frame, _ in predictions] and all(map(operator.lt, frames, frames[1:])):
        # the order that the parsers give
        return annotations, [box for _, box in predictions]
    ann_by_frame: dict[int, Annotation] = {}
    for ann in annotations:
        if ann.frame_index in ann_by_frame:
            raise ValueError(f"duplicate annotation frame {ann.frame_index}")
        ann_by_frame[ann.frame_index] = ann
    pred_by_frame: dict[int, BoundingBox | None] = {}
    for frame, box in predictions:
        if frame in pred_by_frame:
            raise ValueError(f"duplicate prediction frame {frame}")
        pred_by_frame[frame] = box
    if ann_by_frame.keys() != pred_by_frame.keys():
        missing = sorted(ann_by_frame.keys() ^ pred_by_frame.keys())
        raise ValueError(f"annotation/prediction frame mismatch at frames {missing[:5]}")
    order = sorted(ann_by_frame)
    return [ann_by_frame[frame] for frame in order], [pred_by_frame[frame] for frame in order]


def classify_frames(
    annotations: Sequence[Annotation],
    predictions: Sequence[tuple[int, BoundingBox | None]],
    threshold: float,
) -> FrameLabels:
    """Label every frame TP/TN/FP/FN at the given confidence threshold.

    A prediction counts as present iff it carries a box whose confidence is
    at or above the threshold. Annotation and prediction frame sets must
    match exactly.
    """
    anns, boxes = _joined(annotations, predictions)
    present = np.array([ann.present for ann in anns], dtype=bool)
    detected = np.array([box is not None and box.p >= threshold for box in boxes], dtype=bool)
    truth_area = np.full(len(anns), np.nan)
    truth_area[present] = [box_area(ann.truth_box) for ann in anns if ann.present]
    tp_pairs = [(boxes[i], anns[i].truth_box) for i in np.flatnonzero(present & detected).tolist()]
    # predicted and annotated centre of each TP, one row each
    centres = np.array(
        [(*box_center(box), *box_center(truth)) for box, truth in tp_pairs]
    ).reshape(-1, 4)
    return FrameLabels(
        frame=np.array([ann.frame_index for ann in anns], dtype=np.int64),
        # the label of each frame, indexed by 2 * present + detected
        label=np.array(["TN", "FP", "FN", "TP"])[2 * present + detected],
        truth_area=truth_area,
        tp_iou=np.array([iou(box, truth) for box, truth in tp_pairs], dtype=float),
        tp_bias=np.hypot(centres[:, 0] - centres[:, 2], centres[:, 1] - centres[:, 3]),
    )


def metrics_summary(results: FrameLabels) -> MetricsReport:
    """Aggregate frame labels into the full metric set."""
    n = len(results.frame)
    if not n:
        raise ValueError("no frame results to summarize")
    tp, tn, fp, fn = (int(np.count_nonzero(results.label == c)) for c in ("TP", "TN", "FP", "FN"))
    # summed left to right in frame order
    tp_ious = results.tp_iou.tolist()
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
        lfr=int(np.count_nonzero(results.tp_iou < 0.5)) / len(tp_ious) if tp_ious else None,
    )


def select_threshold(
    annotations: Sequence[Annotation],
    predictions: Sequence[tuple[int, BoundingBox | None]],
) -> float:
    """The lowest boxed confidence whose precision is at least MIN_PRECISION.

    Recall cannot fall as the threshold falls, so this is the threshold with
    the best recall under the floor, ties going to the lower one.
    """
    # a boxed frame is a TP at every threshold up to its confidence when its
    # target is present, and an FP otherwise
    anns, boxes = _joined(annotations, predictions)
    boxed = [(box.p, ann.present) for ann, box in zip(anns, boxes) if box is not None]
    conf = np.array([p for p, _ in boxed])
    hit = np.array([present for _, present in boxed])
    order = np.argsort(-conf)
    conf, tp = conf[order], np.cumsum(hit[order])
    # the last index of each run of equal confidences; none when nothing is boxed
    run_end = np.diff(conf, append=-1.0) != 0
    feasible = np.flatnonzero(run_end & (tp / np.arange(1, len(conf) + 1) >= MIN_PRECISION))
    if not feasible.size:
        raise ThresholdNotFoundError(
            f"no confidence threshold reaches precision {MIN_PRECISION}"
        )
    return float(conf[feasible[-1]])


def _spans(
    results: FrameLabels, label: Classification, fps: float, max_gap: float
) -> tuple[np.ndarray, np.ndarray]:
    """First and last frame of each maximal group of the label's frames in
    which no interruption lasts more than max_gap seconds (inclusive)."""
    frames = results.frame[results.label == label]
    gaps = np.diff(frames)
    if np.any(gaps <= 0):
        raise ValueError("results must be in increasing frame order")
    # a frame opens a span unless the one before it is within max_gap; a
    # span closes where the next one opens, and at the last frame. A gap that
    # overflows to inf in seconds splits, as a Python division's inf does.
    opens = np.ones(len(frames), dtype=bool)
    with np.errstate(over="ignore"):
        opens[1:] = (gaps - 1) / fps > max_gap
    return frames[opens], frames[np.roll(opens, -1)]


def track_statistics(results: FrameLabels, fps: float) -> TrackStats:
    """Group true positives into tracks tolerating bounded interruptions.

    An interruption of up to TRACK_MAX_GAP seconds (inclusive) of non-TP frames
    keeps a track alive; track duration spans first through last TP frame.
    """
    if not 0.0 < fps < np.inf:
        raise ValueError(f"fps must be positive and finite, got {fps}")
    first, last = _spans(results, "TP", fps, TRACK_MAX_GAP)
    if not first.size:
        return TrackStats(0, (), None, None, None)
    with np.errstate(over="ignore"):  # an infinite duration is refused below
        durations = tuple(((last - first + 1) / fps).tolist())
    try:
        total = math.fsum(durations)
    except OverflowError:  # the exact sum lies past the float range
        total = math.inf
    if not math.isfinite(total):
        raise ValueError(f"fps {fps:g} is so small that track durations overflow")
    return TrackStats(
        count=len(durations),
        durations=durations,
        mean_duration=total / len(durations),
        std_duration=statistics.pstdev(durations),
        max_duration=max(durations),
    )


@dataclass(frozen=True)
class HistogramReport:
    """Binned failure analyses mirroring the field-trial figures."""

    # per AREA_EDGES bin: TP count, FN count
    tp_by_area: tuple[int, ...]
    fn_by_area: tuple[int, ...]
    # per area bin: mean and std of center bias over its TPs
    bias_mean: tuple[float, ...]
    bias_std: tuple[float, ...]
    # per DURATION_EDGES bin: counts of TN runs and FN runs of that length (frames)
    tn_runs: tuple[int, ...]
    fn_runs: tuple[int, ...]


def _bins(values: Sequence[float], edges: tuple[float, ...]) -> np.ndarray:
    """The bin of each value between consecutive edges. Bins are half-open
    on the right but for the last, which is closed; a value past either end
    counts in the end bin it is next to."""
    return np.clip(np.digitize(values, edges) - 1, 0, len(edges) - 2)


def histogram_report(results: FrameLabels) -> HistogramReport:
    """Bin detector outcomes by annotated box area (AREA_EDGES) and by
    negative-run length (DURATION_EDGES), both with _bins: an area that the
    box checks' round-off slack puts outside [0, 1], and a run longer than
    the last edge, count in the end bin.
    """
    n_bins = len(AREA_EDGES) - 1
    tp_bins = _bins(results.truth_area[results.label == "TP"], AREA_EDGES)
    fn_bins = _bins(results.truth_area[results.label == "FN"], AREA_EDGES)
    bias_mean = np.zeros(n_bins)
    bias_std = np.zeros(n_bins)
    for b in np.unique(tp_bins):
        sel = results.tp_bias[tp_bins == b]
        bias_mean[b] = sel.mean()
        bias_std[b] = sel.std()

    def run_counts(label: Classification) -> np.ndarray:
        # runs are spans that tolerate no interruption; the frame rate is moot
        first, last = _spans(results, label, 1.0, 0.0)
        return np.bincount(_bins(last - first + 1, DURATION_EDGES), minlength=len(DURATION_EDGES) - 1)

    return HistogramReport(
        tp_by_area=tuple(int(v) for v in np.bincount(tp_bins, minlength=n_bins)),
        fn_by_area=tuple(int(v) for v in np.bincount(fn_bins, minlength=n_bins)),
        bias_mean=tuple(float(v) for v in bias_mean),
        bias_std=tuple(float(v) for v in bias_std),
        tn_runs=tuple(int(v) for v in run_counts("TN")),
        fn_runs=tuple(int(v) for v in run_counts("FN")),
    )
