import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uwconvoy import evaluation
from uwconvoy.geometry import Annotation, BoundingBox
from uwconvoy.evaluation import (
    AREA_EDGES,
    DURATION_EDGES,
    TRACK_MAX_GAP,
    FrameLabels,
    ThresholdNotFoundError,
    classify_frames,
    histogram_report,
    metrics_summary,
    select_threshold,
    track_statistics,
)

from oracles import (
    brute_force_threshold,
    per_frame_histograms,
    per_frame_labels,
    per_frame_metrics,
    per_frame_tracks,
    per_true_positive_biases,
    random_box_tuple,
    random_prediction_set,
)

TRUTH = BoundingBox(0.2, 0.2, 0.4, 0.4)


def ann(frame, present=True):
    return Annotation(frame, present, TRUTH if present else None)


def boxed(conf, x=0.2, y=0.2, w=0.4, h=0.4):
    return BoundingBox(x, y, w, h, conf)


def confusion_fixture():
    """10 frames engineered to give TP=5, TN=2, FN=2, FP=1 at threshold 0.5."""
    annotations = [
        ann(0), ann(1), ann(2), ann(3), ann(4),  # detected -> TP
        ann(5, present=False), ann(6, present=False),  # no predictions -> TN
        ann(7), ann(8),  # low confidence / missing -> FN
        ann(9, present=False),  # spurious detection -> FP
    ]
    predictions = [
        (0, boxed(0.9)), (1, boxed(0.8)), (2, boxed(0.95)),
        (3, boxed(0.7)), (4, boxed(0.6)),
        (5, None), (6, None),
        (7, boxed(0.3)), (8, None),
        (9, boxed(0.8, x=0.5, y=0.5, w=0.2, h=0.2)),
    ]
    return annotations, predictions


def labelled(frames, labels, tp_iou=None):
    """FrameLabels of the given frames and labels, every truth box TRUTH; a
    TP's IOU is 1 unless given, and its bias 0."""
    n_tp = labels.count("TP")
    return FrameLabels(
        frame=np.array(frames, dtype=np.int64),
        label=np.array(labels, dtype="<U2"),
        truth_area=np.array([0.16 if lab in ("TP", "FN") else np.nan for lab in labels]),
        tp_iou=np.ones(n_tp) if tp_iou is None else np.array(tp_iou, dtype=float),
        tp_bias=np.zeros(n_tp),
    )


def test_classify_empty_inputs():
    results = classify_frames([], [], 0.5)
    for column in (results.frame, results.label, results.truth_area, results.tp_iou, results.tp_bias):
        assert column.shape == (0,)


def test_classify_below_threshold_is_fn():
    results = classify_frames([ann(0)], [(0, boxed(0.3))], 0.5)
    assert results.label.tolist() == ["FN"]
    assert results.tp_iou.size == 0


def test_classify_confusion_fixture_labels():
    annotations, predictions = confusion_fixture()
    results = classify_frames(annotations, predictions, 0.5)
    assert results.frame.tolist() == list(range(10))
    assert results.label.tolist() == ["TP"] * 5 + ["TN"] * 2 + ["FN", "FN", "FP"]
    assert results.tp_iou.tolist() == [1.0] * 5
    assert results.tp_bias.tolist() == [0.0] * 5
    present = [0, 1, 2, 3, 4, 7, 8]
    assert results.truth_area[present].tolist() == [0.4 * 0.4] * 7
    assert np.isnan(np.delete(results.truth_area, present)).all()


def test_classify_joins_frames_given_out_of_order():
    annotations, predictions = confusion_fixture()
    ordered = classify_frames(annotations, predictions, 0.5)
    for shuffled in (
        classify_frames(annotations[::-1], predictions[3:] + predictions[:3], 0.5),
        classify_frames(annotations[::-1], predictions[::-1], 0.5),
    ):
        for name in ("frame", "label", "tp_iou", "tp_bias"):
            assert getattr(shuffled, name).tolist() == getattr(ordered, name).tolist()


def test_classify_rejects_mismatched_frames():
    with pytest.raises(ValueError):
        classify_frames([ann(0)], [(1, None)], 0.5)
    with pytest.raises(ValueError):
        classify_frames([ann(0), ann(0)], [(0, None)], 0.5)
    with pytest.raises(ValueError):
        classify_frames([ann(0)], [(0, None), (0, None)], 0.5)


@pytest.mark.parametrize(
    "frames, predicted, message",
    [
        ([0, 0], [0], "duplicate annotation frame 0"),
        ([0], [0, 0], "duplicate prediction frame 0"),
        (range(10), range(10, 20), "annotation/prediction frame mismatch at frames [0, 1, 2, 3, 4]"),
        # the same frames in the same order, but not strictly increasing
        ([1, 1], [1, 1], "duplicate annotation frame 1"),
    ],
)
def test_classification_and_sweep_refuse_bad_frame_sets_alike(frames, predicted, message):
    annotations = [ann(f) for f in frames]
    predictions = [(f, boxed(0.9)) for f in predicted]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        classify_frames(annotations, predictions, 0.5)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        select_threshold(annotations, predictions)


def test_metrics_on_confusion_fixture():
    annotations, predictions = confusion_fixture()
    report = metrics_summary(classify_frames(annotations, predictions, 0.5))
    assert report.n_images == 10
    assert (report.n_tp, report.n_tn, report.n_fp, report.n_fn) == (5, 2, 1, 2)
    assert report.accuracy == pytest.approx(0.7, abs=1e-12)
    assert report.precision == pytest.approx(5 / 6, abs=1e-12)
    assert report.recall == pytest.approx(5 / 7, abs=1e-12)
    assert report.n_images == report.n_tp + report.n_tn + report.n_fp + report.n_fn


def test_metrics_all_true_negative():
    annotations = [ann(i, present=False) for i in range(4)]
    predictions = [(i, None) for i in range(4)]
    report = metrics_summary(classify_frames(annotations, predictions, 0.5))
    assert report.accuracy == 1.0
    assert report.precision is None
    assert report.recall is None
    assert report.avg_iou is None
    assert report.lfr is None


def test_metrics_lfr_fixture():
    report = metrics_summary(labelled(range(3), ["TP"] * 3, tp_iou=[0.6, 0.4, 0.55]))
    assert report.lfr == pytest.approx(1 / 3, abs=1e-12)
    assert report.avg_iou == pytest.approx((0.6 + 0.4 + 0.55) / 3, abs=1e-12)


def test_metrics_empty_rejected():
    with pytest.raises(ValueError, match="^no frame results to summarize$"):
        metrics_summary(classify_frames([], [], 0.5))


def test_select_threshold_single_perfect_prediction():
    annotations = [ann(0)]
    predictions = [(0, boxed(0.7))]
    assert select_threshold(annotations, predictions) == 0.7


def test_select_threshold_prefers_feasible_recall():
    # 30 present frames; 24 detected at 0.6+, 3 more at 0.45, 3 never.
    # One spurious box at 0.8 and three more at 0.45.
    annotations = [ann(i) for i in range(30)] + [
        ann(i, present=False) for i in range(30, 40)
    ]
    predictions = []
    for i in range(24):
        predictions.append((i, boxed(0.6 + 0.01 * i)))
    for i in range(24, 27):
        predictions.append((i, boxed(0.45)))
    for i in range(27, 30):
        predictions.append((i, None))
    predictions.append((30, boxed(0.8, x=0.6, y=0.6, w=0.2, h=0.2)))
    for i in range(31, 34):
        predictions.append((i, boxed(0.45, x=0.6, y=0.6, w=0.2, h=0.2)))
    for i in range(34, 40):
        predictions.append((i, None))

    # at 0.6: precision 24/25 = 0.96, recall 0.8; at 0.45: precision 27/31 < 0.95
    assert select_threshold(annotations, predictions) == 0.6


def test_select_threshold_unreachable_floor():
    annotations = [ann(0, present=False), ann(1, present=False)]
    predictions = [(0, boxed(0.9)), (1, boxed(0.8))]
    with pytest.raises(ThresholdNotFoundError):
        select_threshold(annotations, predictions)


def test_select_threshold_equals_brute_force_oracle():
    rng = np.random.default_rng(2718)
    for _ in range(10):
        annotations, predictions = random_prediction_set(rng)
        expected = brute_force_threshold(annotations, predictions, 0.95)
        if expected is None:
            with pytest.raises(ThresholdNotFoundError):
                select_threshold(annotations, predictions)
        else:
            assert select_threshold(annotations, predictions) == expected


# a 7-value confidence grid makes ties between frames the common case; it
# holds both ends of the confidence range
_FRAMES = st.lists(
    st.tuples(st.booleans(), st.none() | st.sampled_from((0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0))),
    min_size=1,
    max_size=60,
)


@settings(max_examples=300, deadline=None)
@given(frames=_FRAMES, min_precision=st.sampled_from((0.0, 0.5, 0.95, 1.0)))
def test_select_threshold_matches_oracle_under_ties(frames, min_precision):
    annotations = [ann(i, present) for i, (present, _) in enumerate(frames)]
    predictions = [(i, None if p is None else boxed(p)) for i, (_, p) in enumerate(frames)]
    expected = brute_force_threshold(annotations, predictions, min_precision)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evaluation, "MIN_PRECISION", min_precision)
        if expected is None:
            with pytest.raises(ThresholdNotFoundError):
                select_threshold(annotations, predictions)
        else:
            assert select_threshold(annotations, predictions) == expected


def test_select_threshold_computes_no_iou_and_classification_one_per_tp(monkeypatch):
    # the sweep needs only each boxed frame's confidence and presence
    calls = []
    original = evaluation.iou

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(evaluation, "iou", counted)
    annotations, predictions = random_prediction_set(np.random.default_rng(5))
    n_tp = sum(a.present and b is not None for a, (_, b) in zip(annotations, predictions))
    assert n_tp > 0
    select_threshold(annotations, predictions)
    assert calls == []
    # the counter sees the calls that classify_frames makes
    classify_frames(annotations, predictions, 0.0)
    assert len(calls) == n_tp


def test_select_threshold_counts_a_confidence_within_round_off_below_zero():
    # BoundingBox admits p down to -1e-9 as round-off of 0
    predictions = [(0, boxed(-5e-10))]
    assert select_threshold([ann(0)], predictions) == -5e-10


def test_recall_monotone_in_threshold():
    rng = np.random.default_rng(31)
    annotations, predictions = random_prediction_set(rng)
    thresholds = sorted({b.p for _, b in predictions if b is not None})
    recalls = []
    for threshold in thresholds:
        report = metrics_summary(classify_frames(annotations, predictions, threshold))
        recalls.append(report.recall if report.recall is not None else 0.0)
    assert all(b <= a + 1e-12 for a, b in zip(recalls, recalls[1:]))


def _varied(rng, annotations, predictions):
    """The draw with random gaps between frames, a random truth box on each
    present frame, and on each boxed frame a box near the truth, or anywhere
    when the target is absent; every confidence kept."""
    frames = np.cumsum(rng.integers(1, 40, len(annotations))).tolist()
    varied_annotations, varied_predictions = [], []
    for frame, a, (_, box) in zip(frames, annotations, predictions):
        truth = BoundingBox(*random_box_tuple(rng, 0.05, 0.9)) if a.present else None
        varied_annotations.append(Annotation(frame, a.present, truth))
        if box is not None:
            x, y, w, h = random_box_tuple(rng, 0.05, 0.9)
            if truth is not None and rng.uniform() < 0.8:
                dx, dy, dw, dh = rng.uniform(-0.1, 0.1, 4)
                x, y = min(max(truth.x + dx, 0.0), 0.95), min(max(truth.y + dy, 0.0), 0.95)
                w, h = min(max(truth.w + dw, 0.01), 1.0 - x), min(max(truth.h + dh, 0.01), 1.0 - y)
            box = BoundingBox(x, y, w, h, box.p)
        varied_predictions.append((frame, box))
    return varied_annotations, varied_predictions


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    threshold=st.sampled_from((0.0, 0.5, 0.75, 1.0)) | st.floats(0.0, 1.0),
    fps=st.sampled_from((1.0, 10.0, 15.0)) | st.floats(0.05, 60.0),
    shuffled=st.booleans(),
)
def test_columnar_reports_equal_the_per_frame_reference(seed, threshold, fps, shuffled):
    rng = np.random.default_rng(seed)
    annotations, predictions = _varied(
        rng, *random_prediction_set(rng, n_frames=int(rng.integers(1, 150)))
    )
    records = per_frame_labels(annotations, predictions, threshold)
    if shuffled:  # the join sorts what the parsers would give in order
        predictions = [predictions[i] for i in rng.permutation(len(predictions))]
    results = classify_frames(annotations, predictions, threshold)
    assert metrics_summary(results) == per_frame_metrics(records)
    assert track_statistics(results, fps) == per_frame_tracks(records, fps, TRACK_MAX_GAP)
    assert histogram_report(results) == per_frame_histograms(records, AREA_EDGES, DURATION_EDGES)


# ---------------------------------------------------------------------------
# tracks

def _tp_results(frames, all_frames):
    """Classification of all_frames: a TP at each of frames, a TN elsewhere."""
    tp_set = set(frames)
    annotations = [ann(f, present=f in tp_set) for f in all_frames]
    predictions = [(f, boxed(0.9) if f in tp_set else None) for f in all_frames]
    return classify_frames(annotations, predictions, 0.5)


def test_track_gap_exactly_three_seconds_merges():
    results = _tp_results(list(range(10)) + list(range(40, 50)), range(50))
    stats = track_statistics(results, fps=10.0)
    assert stats.count == 1
    assert stats.durations == (5.0,)
    assert stats.mean_duration == 5.0
    assert stats.max_duration == 5.0


def test_track_gap_over_three_seconds_splits():
    results = _tp_results(list(range(10)) + list(range(41, 51)), range(51))
    stats = track_statistics(results, fps=10.0)
    assert stats.count == 2
    assert stats.durations == (1.0, 1.0)
    assert stats.std_duration == 0.0


def test_track_no_true_positives():
    results = _tp_results([], range(5))
    stats = track_statistics(results, fps=10.0)
    assert stats.count == 0
    assert stats.durations == ()
    assert stats.mean_duration is None


def test_track_invariant_to_tn_frames_inside_small_gap():
    with_gap = _tp_results([0, 1, 2, 10, 11], range(12))
    dense = _tp_results([0, 1, 2, 10, 11], [0, 1, 2, 10, 11])
    assert track_statistics(with_gap, 10.0) == track_statistics(dense, 10.0)


@pytest.mark.parametrize("fps", [0.0, -1.0, math.nan, math.inf])
def test_track_rejects_fps_not_positive_and_finite(fps):
    results = _tp_results([0, 1], range(2))
    with pytest.raises(ValueError, match="fps must be positive"):
        track_statistics(results, fps)


def test_track_rejects_unordered_results():
    results = labelled([2, 1, 0], ["TP"] * 3)
    with pytest.raises(ValueError, match="^results must be in increasing frame order$"):
        track_statistics(results, 10.0)


# ---------------------------------------------------------------------------
# histograms

def test_histogram_single_tp():
    truth = Annotation(0, True, BoundingBox(0.1, 0.1, 0.6, 0.5))  # area 0.3
    results = classify_frames([truth], [(0, boxed(0.9, 0.1, 0.1, 0.6, 0.5))], 0.5)
    hist = histogram_report(results)
    # area bins are tenths of the image; 0.3 opens the fourth
    assert hist.tp_by_area == (0, 0, 0, 1, 0, 0, 0, 0, 0, 0)
    assert hist.fn_by_area == (0,) * 10
    assert hist.bias_mean[3] == pytest.approx(0.0, abs=1e-12)


def test_histogram_confusion_fixture_counts():
    annotations, predictions = confusion_fixture()
    # then a TN run of 150 frames (10-159) and an FN run of 130 (160-289)
    annotations += [ann(i, False) for i in range(10, 160)] + [ann(i) for i in range(160, 290)]
    predictions += [(i, None) for i in range(10, 290)]
    results = classify_frames(annotations, predictions, 0.5)
    hist = histogram_report(results)
    # truth boxes all have area 0.16 -> second bin; 5 TPs and 132 FNs
    assert hist.tp_by_area == (0, 5, 0, 0, 0, 0, 0, 0, 0, 0)
    assert hist.fn_by_area == (0, 132, 0, 0, 0, 0, 0, 0, 0, 0)
    # one TN run of length 2 (frames 5-6) and one FN run of length 2 (frames
    # 7-8), both in the [2, 5) frame bin; the long runs pass the last edge,
    # 100 frames, and count in the last bin, [50, 100]
    assert hist.tn_runs == (0, 1, 0, 0, 0, 1)
    assert hist.fn_runs == (0, 1, 0, 0, 0, 1)


def test_histogram_biases_equal_the_per_true_positive_form():
    # in each area bin the first TP is off centre and the others sit on their
    # truth boxes, so the bin's mean and std carry that one bias to the bit
    rng = np.random.default_rng(8)
    for _ in range(30):
        annotations, predictions, off_centre = [], [], set()
        for frame in range(100):
            side = math.sqrt(rng.uniform(0.01, 0.99))
            truth = BoundingBox(rng.uniform(0, 1 - side), rng.uniform(0, 1 - side), side, side)
            area_bin = int(side * side * 10)
            prediction = replace(truth, p=0.9)
            if area_bin not in off_centre:
                off_centre.add(area_bin)
                prediction = BoundingBox(*random_box_tuple(rng, 0.05, 0.95), 0.9)
            annotations.append(Annotation(frame, True, truth))
            predictions.append((frame, prediction))
        hist = histogram_report(classify_frames(annotations, predictions, 0.5))
        assert (list(hist.bias_mean), list(hist.bias_std)) == per_true_positive_biases(
            [(box, a.truth_box) for a, (_, box) in zip(annotations, predictions)], AREA_EDGES
        )


def test_histogram_empty_results_all_zero():
    hist = histogram_report(classify_frames([], [], 0.5))
    assert hist.tp_by_area == (0,) * 10
    assert hist.fn_by_area == (0,) * 10
    assert set(hist.tn_runs) == {0}
