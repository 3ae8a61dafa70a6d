"""End-to-end acceptance suite.

One test per criterion; each prints a single pass/fail line (run with
``pytest -s tests/test_acceptance.py`` to see them as they execute). All
randomness is seeded, all tolerances are fixed here.
"""

import math
import sys
import time

import numpy as np
import pytest

from uwconvoy.evaluation import (
    ThresholdNotFoundError,
    classify_frames,
    metrics_summary,
    select_threshold,
    track_statistics,
)
from uwconvoy.geometry import Annotation, BoundingBox, box_area, box_center, iou
from uwconvoy.losses import (
    LossWeights,
    rrolo_gradient,
    rrolo_loss,
    vgg_gradient,
    vgg_loss,
)
from uwconvoy import sim
from uwconvoy.mdpm import MdpmTracker
from uwconvoy.servo import STOP_COMMAND
from uwconvoy.sim import (
    ConvoyConfig,
    DetectorNoise,
    FootageScene,
    Pose,
    TargetModel,
    run_convoy,
)

from oracles import (
    brute_force_threshold,
    numeric_gradient,
    pixel_grid_iou,
    random_box_tuple,
    random_prediction_set,
    straight_line_rrolo,
)


def _report(index: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {index:>2} {name}: {status}{suffix}", file=sys.stderr)
    assert ok, f"criterion {index} {name} failed {suffix}"


# ---------------------------------------------------------------------------
# 1. IOU oracle equivalence

def test_criterion_1_iou_pixel_grid_oracle():
    rng = np.random.default_rng(20240817)
    start = time.perf_counter()
    worst = 0.0
    for i in range(1000):
        a = random_box_tuple(rng)
        if i % 2 == 0:
            b = random_box_tuple(rng)
        else:
            dx, dy = rng.uniform(-0.1, 0.1, 2)
            b = (
                min(max(a[0] + dx, 0.0), 1.0 - a[2]),
                min(max(a[1] + dy, 0.0), 1.0 - a[3]),
                a[2],
                a[3],
            )
        err = abs(iou(BoundingBox(*a), BoundingBox(*b)) - pixel_grid_iou(a, b))
        worst = max(worst, err)
    elapsed = time.perf_counter() - start
    _report(
        1,
        "iou oracle equivalence",
        worst <= 5e-3 and elapsed < 60.0,
        f"max err {worst:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. loss correctness and gradients

def _smooth_point(rng):
    while True:
        tb = random_box_tuple(rng, 0.2, 0.5)
        pb = random_box_tuple(rng, 0.2, 0.5)
        p = rng.uniform(0.05, 0.95)
        edges = [
            pb[0] - tb[0],
            (pb[0] + pb[2]) - (tb[0] + tb[2]),
            pb[1] - tb[1],
            (pb[1] + pb[3]) - (tb[1] + tb[3]),
        ]
        if (
            all(abs(a - b) > 1e-3 for a, b in zip(pb, tb))
            and iou(BoundingBox(*pb), BoundingBox(*tb)) > 1e-3
            and all(abs(e) > 1e-3 for e in edges)
            and min(pb) > 1e-3
        ):
            return pb, tb, p


def test_criterion_2_loss_examples_and_gradients():
    w = LossWeights(5, 1, 0.5)
    truth = Annotation(0, True, BoundingBox(0.25, 0.2, 0.5, 0.4))
    absent = Annotation(0, False)

    examples_ok = True
    # analytic single-point values to 1e-9
    examples_ok &= (
        abs(vgg_loss(BoundingBox(0.1, 0.1, 0.2, 0.2, 0.5), absent)
            - (-math.log(0.5))) <= 1e-9
    )
    shifted = BoundingBox(0.30, 0.25, 0.45, 0.35, 1.0)
    examples_ok &= abs(vgg_loss(shifted, truth) - 0.2) <= 1e-9
    examples_ok &= (
        abs(rrolo_loss(BoundingBox(0.1, 0.1, 0.2, 0.2, 0.4), absent, w)
            - 0.08) <= 1e-9
    )
    moved = BoundingBox(0.16, 0.2, 0.5, 0.4, 0.9)
    oracle = straight_line_rrolo(
        (0.16, 0.2, 0.5, 0.4, 0.9), (0.25, 0.2, 0.5, 0.4), True, (5, 1, 0.5)
    )
    examples_ok &= abs(rrolo_loss(moved, truth, w) - oracle) <= 1e-9

    rng = np.random.default_rng(417)
    worst_rel = 0.0
    for _ in range(100):
        pb, tb, p = _smooth_point(rng)
        point_truth = Annotation(0, True, BoundingBox(*tb))
        point = np.array([*pb, p])
        for grad_fn, loss_fn, t in (
            (rrolo_gradient, rrolo_loss, point_truth),
            (vgg_gradient, vgg_loss, point_truth),
            (rrolo_gradient, rrolo_loss, absent),
            (vgg_gradient, vgg_loss, absent),
        ):
            if loss_fn is rrolo_loss:
                analytic = grad_fn(BoundingBox(*point), t, w)
                numeric = numeric_gradient(
                    lambda v: loss_fn(BoundingBox(*v), t, w), point, 1e-6
                )
            else:
                analytic = grad_fn(BoundingBox(*point), t)
                numeric = numeric_gradient(
                    lambda v: loss_fn(BoundingBox(*v), t), point, 1e-6
                )
            for a, n in zip(analytic, numeric):
                worst_rel = max(worst_rel, abs(n - a) / max(abs(a), 1e-4))

    _report(
        2,
        "loss correctness",
        examples_ok and worst_rel < 1e-4,
        f"worst gradient rel err {worst_rel:.2e}",
    )


# ---------------------------------------------------------------------------
# 3. weight semantics

def test_criterion_3_no_object_weight_semantics():
    w = LossWeights(5, 1, 0.5)
    value = rrolo_loss(
        BoundingBox(0.3, 0.3, 0.2, 0.2, 0.4), Annotation(0, False), w
    )
    ok = abs(value - 0.08) < 1e-12
    _report(3, "no-object weight semantics", ok, f"value {value!r}")


# ---------------------------------------------------------------------------
# 4. frequency detection and false positives

def _gait_footage(seed, jitter=0.0, n=150):
    scene = FootageScene(
        target=TargetModel(gait_frequency=2.0, gait_jitter=jitter),
        rng=np.random.default_rng(seed),
    )
    return scene.render_sequence(Pose(position=(1.2, 0.0, 0.0)), Pose(), n, 15.0)


def test_criterion_4_dtft_detection_rates():
    bad_runs = 0
    for seed in range(20):
        frames = _gait_footage(1000 + seed)
        tracker = MdpmTracker()
        detections = [tracker.push(f) for f in frames][9:]
        if any(d is None for d in detections) or any(
            abs(d.peak_frequency - 2.0) > 0.3 for d in detections if d is not None
        ):
            bad_runs += 1

    false_positives = 0
    for seed in range(100):
        scene = FootageScene(rng=np.random.default_rng(5000 + seed))
        frames = scene.render_sequence(Pose(position=(-5.0, 0.0, 0.0)), Pose(), 10, 15.0)
        tracker = MdpmTracker()
        if [tracker.push(f) for f in frames][-1] is not None:
            false_positives += 1

    _report(
        4,
        "dtft detection",
        bad_runs == 0 and false_positives <= 5,
        f"bad runs {bad_runs}/20, noise FPs {false_positives}/100",
    )


# ---------------------------------------------------------------------------
# 5. gait-jitter degradation

def _jitter_recall(jitter: float) -> float:
    """Share of full buffers whose detection's amplitude exceeds 0.75."""
    hits = total = 0
    for seed in range(3000, 3010):
        frames = _gait_footage(seed, jitter=jitter, n=100)
        tracker = MdpmTracker()
        detections = [tracker.push(f) for f in frames][9:]
        # the premise that makes the count exact: every full buffer detects,
        # so each carries its best amplitude to compare
        assert all(d is not None for d in detections)
        hits += sum(1 for d in detections if d.amplitude > 0.75)
        total += len(detections)
    return hits / total


def test_criterion_5_jitter_reduces_recall(monkeypatch):
    # a smaller, dimmer flipper patch in stronger noise than the default footage
    monkeypatch.setattr(sim, "_NOISE_SIGMA", 0.05)
    monkeypatch.setattr(sim, "_FLIPPER_SIZE", (0.3, 0.1))
    monkeypatch.setattr(sim, "_FLIPPER_RANGE", (0.3, 0.7))
    recall_zero = _jitter_recall(0.0)
    recall_jitter = _jitter_recall(0.2)
    _report(
        5,
        "jitter degradation",
        recall_jitter < recall_zero,
        f"recall {recall_zero:.4f} -> {recall_jitter:.4f}",
    )


# ---------------------------------------------------------------------------
# 6. throughput

def test_criterion_6_mdpm_throughput():
    rng = np.random.default_rng(42)
    frames = [0.4 + rng.normal(0, 0.02, (240, 320)) for i in range(110)]
    tracker = MdpmTracker()
    for f in frames[:10]:
        tracker.push(f)
    start = time.perf_counter()
    for f in frames[10:]:
        tracker.push(f)
    elapsed = time.perf_counter() - start
    fps = 100 / elapsed
    _report(6, "mdpm throughput", fps >= 60.0, f"{fps:.0f} FPS")


# ---------------------------------------------------------------------------
# 7. closed-loop convoy

def _bounds_fraction(trace, tail_start=30.0):
    ok = n = 0
    for r in trace.records:
        if r.t < tail_start:
            continue
        n += 1
        if r.true_box is None:
            continue
        cx, cy = box_center(r.true_box)
        area = box_area(r.true_box)
        if abs(cx - 0.5) < 0.1 and abs(cy - 0.5) < 0.1 and abs(area - 0.5) / 0.5 < 0.2:
            ok += 1
    return ok / n


def test_criterion_7_closed_loop_convoy():
    noiseless = run_convoy(
        ConvoyConfig(seed=0, detector_noise=DetectorNoise.noiseless())
    )
    clean_frac = _bounds_fraction(noiseless)

    fractions = [
        _bounds_fraction(run_convoy(ConvoyConfig(seed=seed))) for seed in range(10)
    ]
    noisy_ok = min(fractions) >= 0.8
    _report(
        7,
        "closed-loop convoy",
        clean_frac == 1.0 and noisy_ok,
        f"noiseless {clean_frac:.3f}, noisy min {min(fractions):.3f} "
        f"mean {float(np.mean(fractions)):.3f}",
    )


# ---------------------------------------------------------------------------
# 8. loss-timeout behavior

def test_criterion_8_loss_timeout_stops():
    cfg = ConvoyConfig(
        seed=0,
        detector_noise=DetectorNoise.noiseless(),
        occlusions=((25.0, 27.5),),
    )
    trace = run_convoy(cfg)
    control_period_ticks = round(cfg.physics_rate / cfg.servo.command_rate)

    last_seen = None
    violations = []
    stop_ticks = []
    held_nonstop = 0
    reacquired = False
    for k, r in enumerate(trace.records):
        if k % control_period_ticks:
            continue
        if r.detection is not None:
            last_seen = r.t
            if r.t > 27.5:
                reacquired = True
            continue
        if last_seen is None:
            continue
        gap = r.t - last_seen
        if gap > cfg.servo.loss_timeout + 1e-9:
            stop_ticks.append(r.t)
            if r.command != STOP_COMMAND:
                violations.append(r.t)
        elif 25.0 <= r.t and r.command != STOP_COMMAND:
            held_nonstop += 1

    ok = (
        not violations
        and len(stop_ticks) >= 3  # the stop stretch really happened
        and held_nonstop > 0  # commands held (not stopped) before the timeout
        and reacquired
    )
    _report(
        8,
        "loss-timeout behavior",
        ok,
        f"{len(stop_ticks)} stop ticks, {len(violations)} violations",
    )


# ---------------------------------------------------------------------------
# 9. metric fixtures and threshold sweep oracle

def test_criterion_9_metric_fixtures():
    truth_box = BoundingBox(0.2, 0.2, 0.4, 0.4)

    def ann(i, present=True):
        return Annotation(i, present, truth_box if present else None)

    annotations = [ann(i) for i in range(5)] + [
        ann(5, False), ann(6, False), ann(7), ann(8), ann(9, False)
    ]
    predictions = (
        [(i, BoundingBox(0.2, 0.2, 0.4, 0.4, 0.9)) for i in range(5)]
        + [(5, None), (6, None), (7, BoundingBox(0.2, 0.2, 0.4, 0.4, 0.3)), (8, None)]
        + [(9, BoundingBox(0.5, 0.5, 0.2, 0.2, 0.8))]
    )
    report = metrics_summary(classify_frames(annotations, predictions, 0.5))
    fixture_ok = (
        round(report.accuracy, 4) == 0.7
        and round(report.precision, 4) == 0.8333
        and round(report.recall, 4) == 0.7143
    )

    # three TPs whose boxes are the truth box cut to a height of 0.24, 0.16
    # and 0.22: IOU 0.6, 0.4 and 0.55
    lfr_results = classify_frames(
        [ann(i) for i in range(3)],
        [(i, BoundingBox(0.2, 0.2, 0.4, h, 0.9)) for i, h in enumerate([0.24, 0.16, 0.22])],
        0.5,
    )
    lfr_ok = round(metrics_summary(lfr_results).lfr, 4) == round(1 / 3, 4)

    rng = np.random.default_rng(2718)
    sweep_ok = True
    for _ in range(50):
        anns, preds = random_prediction_set(rng)
        expected = brute_force_threshold(anns, preds, 0.95)
        if expected is None:
            try:
                select_threshold(anns, preds)
                sweep_ok = False
            except ThresholdNotFoundError:
                pass
        else:
            sweep_ok &= select_threshold(anns, preds) == expected

    _report(
        9,
        "metric fixtures",
        fixture_ok and lfr_ok and sweep_ok,
        f"acc {report.accuracy:.4f} p {report.precision:.4f} r {report.recall:.4f}",
    )


# ---------------------------------------------------------------------------
# 10. track statistics

def test_criterion_10_track_statistics():
    truth_box = BoundingBox(0.2, 0.2, 0.4, 0.4)

    def results_for(tp_frames, n):
        # a TP at each of tp_frames, a TN elsewhere
        tp = set(tp_frames)
        annotations = [Annotation(f, f in tp, truth_box if f in tp else None) for f in range(n)]
        predictions = [(f, BoundingBox(0.2, 0.2, 0.4, 0.4, 0.9) if f in tp else None) for f in range(n)]
        return classify_frames(annotations, predictions, 0.5)

    merged = track_statistics(
        results_for(list(range(10)) + list(range(40, 50)), 50), fps=10.0
    )
    split = track_statistics(
        results_for(list(range(10)) + list(range(41, 51)), 51), fps=10.0
    )
    fixtures_ok = (
        merged.count == 1
        and merged.durations == (5.0,)
        and split.count == 2
        and split.durations == (1.0, 1.0)
    )

    # simulated run with two scripted occlusions of 4 s and 5 s
    cfg = ConvoyConfig(
        duration=40.0,
        seed=0,
        detector_noise=DetectorNoise.noiseless(),
        occlusions=((10.0, 14.0), (25.0, 30.0)),
    )
    trace = run_convoy(cfg)
    annotations = []
    predictions = []
    frame = 0
    det_tick = 0
    for k, r in enumerate(trace.records):
        if r.t >= det_tick / cfg.detector_rate - 1e-12:
            present = r.true_box is not None
            annotations.append(
                Annotation(frame, present, r.true_box if present else None)
            )
            predictions.append((frame, r.detection))
            frame += 1
            det_tick += 1
    stats = track_statistics(
        classify_frames(annotations, predictions, 0.5), fps=cfg.detector_rate
    )

    # occluded detector frames: i in [70, 97] and [175, 209]; 280 frames total.
    # TP runs [0,69], [98,174], [210,279]; both gaps exceed 3 s.
    expected = (70 / 7.0, 77 / 7.0, 70 / 7.0)
    mean = sum(expected) / 3
    std = math.sqrt(sum((d - mean) ** 2 for d in expected) / 3)
    sim_ok = (
        stats.count == 3
        and stats.durations == expected
        and abs(stats.mean_duration - mean) < 1e-12
        and abs(stats.std_duration - std) < 1e-12
        and stats.max_duration == max(expected)
    )
    _report(
        10,
        "track statistics",
        fixtures_ok and sim_ok,
        f"sim durations {stats.durations}",
    )


# ---------------------------------------------------------------------------
# 11. end-to-end determinism

def test_criterion_11_cli_determinism(tmp_path):
    from uwconvoy.cli import run_cli

    config = tmp_path / "run.cfg"
    config.write_text("sim.duration = 3\nsim.frame_rate = 15\n")

    def run(tag):
        out = tmp_path / f"trace_{tag}.csv"
        frames_dir = tmp_path / f"frames_{tag}"
        code = run_cli(
            [
                "sim",
                "--config", str(config),
                "--out", str(out),
                "--seed", "7",
                "--frames-out", str(frames_dir),
            ]
        )
        assert code == 0
        frames = [p.read_bytes() for p in sorted(frames_dir.iterdir())]
        return out.read_bytes(), frames

    trace_a, frames_a = run("a")
    trace_b, frames_b = run("b")
    ok = trace_a == trace_b and frames_a == frames_b and len(frames_a) > 0
    _report(
        11,
        "end-to-end determinism",
        ok,
        f"{len(trace_a)} trace bytes, {len(frames_a)} frames",
    )
