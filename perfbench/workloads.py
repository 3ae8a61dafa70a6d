"""The three benchmark workloads.

Each workload makes its inputs from the benchmark seed in `setup`, runs one
closed-loop job at a time in `job` (one caller, no threads of its own), and
checks the outputs of one job in `check`, outside the timed region. The
checks recompute the reported quality numbers independently of the program
and return them; they raise `CheckFailed` when an output is wrong.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import math
import random
import re
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

FPS = 15.0
PHYSICS_RATE = 50.0  # ConvoyConfig default; every config here keeps it
MIN_PRECISION = 0.95  # the precision floor of `eval --auto-threshold`
MODULES = ("geometry", "servo", "sim", "mdpm", "evaluation", "fileio", "cli")


class CheckFailed(Exception):
    """An output of the program is wrong."""


def load_package(src: Path) -> SimpleNamespace:
    """Import `uwconvoy` afresh from `src`, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "uwconvoy" or m.startswith("uwconvoy.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    uw = SimpleNamespace(
        **{m: importlib.import_module(f"uwconvoy.{m}") for m in MODULES}
    )
    found = Path(uw.cli.__file__).resolve()
    if src.resolve() not in found.parents:
        raise ImportError(f"uwconvoy imported from {found}, not from {src}")
    return uw


@dataclass
class JobResult:
    items: int
    codes: list[int] = field(default_factory=list)
    # stdout of each CLI call
    outputs: dict[str, str] = field(default_factory=dict)


def call_cli(uw, argv: list[str], result: JobResult, label: str) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = uw.cli.run_cli([str(a) for a in argv])
    result.codes.append(code)
    result.outputs[label] = out.getvalue()
    if code != 0:
        print(f"{label}: exit {code}: {err.getvalue().strip()}", file=sys.stderr)


# ---------------------------------------------------------------------------
# independent scoring, the reference the program's eval output must match

def box_iou(a, b) -> float:
    """IOU of two normalized boxes, the formula of geometry.iou."""
    ax2, ay2 = a.x + a.w, a.y + a.h
    bx2, by2 = b.x + b.w, b.y + b.h
    ix = min(ax2, bx2) - max(a.x, b.x)
    iy = min(ay2, by2) - max(a.y, b.y)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    union = (ax2 - a.x) * (ay2 - a.y) + (bx2 - b.x) * (by2 - b.y) - inter
    return inter / union if union > 0.0 else 0.0


def score(annotations, predictions, threshold: float | None = None) -> dict:
    """Threshold, recall, avg IOU and LFR of predictions against annotations.

    With no threshold, picks the one `eval --auto-threshold` must pick:
    recall cannot rise with the threshold, so the best recall under the
    precision floor is at the lowest boxed confidence that meets the floor.
    """
    truth = {a.frame_index: a for a in annotations}
    if sorted(truth) != [f for f, _ in predictions]:
        raise CheckFailed("annotation and prediction frames differ")
    present = np.array([truth[f].present for f, _ in predictions])
    conf = np.array([np.nan if b is None else b.p for _, b in predictions])
    boxed = ~np.isnan(conf)
    if threshold is None:
        candidates = np.unique(conf[boxed])
        pos = np.sort(conf[boxed & present])
        neg = np.sort(conf[boxed & ~present])
        tp = len(pos) - np.searchsorted(pos, candidates, side="left")
        fp = len(neg) - np.searchsorted(neg, candidates, side="left")
        feasible = tp / (tp + fp) >= MIN_PRECISION
        if not feasible.any():
            raise CheckFailed("no threshold meets the precision floor")
        threshold = float(candidates[np.argmax(feasible)])
    hit = boxed & (conf >= threshold)
    ious = [
        box_iou(b, truth[f].truth_box)
        for (f, b), h, p in zip(predictions, hit, present)
        if h and p
    ]
    n_present = int(present.sum())
    return {
        "threshold": threshold,
        "recall": len(ious) / n_present if n_present else None,
        "avg_iou": sum(ious) / len(ious) if ious else None,
        "lfr": sum(1 for v in ious if v < 0.5) / len(ious) if ious else None,
    }


def _cell(v: float | None, percent: bool = False) -> str:
    if v is None:
        return "—"
    return f"{100 * v:.1f}%" if percent else f"{v:.4f}"


def check_eval_stdout(stdout: str, expected: dict) -> None:
    """The `eval --auto-threshold` report must print the expected numbers."""
    rows = dict(
        m.groups() for m in re.finditer(r"^(\S.*?)(?::| {2,})\s*(\S.*)$", stdout, re.M)
    )
    want = {
        "selected threshold": f"{expected['threshold']:.6f}",
        "recall": _cell(expected["recall"]),
        "avg IOU": _cell(expected["avg_iou"]),
        "LFR": _cell(expected["lfr"], percent=True),
    }
    for key, value in want.items():
        if rows.get(key) != value:
            raise CheckFailed(f"eval prints {key} {rows.get(key)!r}, expected {value!r}")


def _run_lengths(rng, total: int, runs: int) -> np.ndarray:
    """`runs` random positive lengths that sum to `total`."""
    cuts = np.sort(rng.choice(np.arange(1, total), runs - 1, replace=False))
    return np.diff(np.concatenate(([0], cuts, [total])))


def sweep_inputs(uw, seed: int, n_frames: int):
    """Annotations whose presence switches in runs, with box areas varying
    from run to run, and detections from the default detector noise model.

    Half the frames hold the target, and a third of those a box smaller
    than the detector's small-box area, whatever the seed. The detector
    misses small boxes more often, so this keeps the number of distinct
    confidences, and with it the sweep's cost, nearly the same from seed to
    seed.
    """
    rng = np.random.default_rng(seed)
    noise = uw.sim.DetectorNoise()
    runs = max(1, n_frames // 20)
    present_runs = _run_lengths(rng, n_frames // 2, runs)
    absent_runs = _run_lengths(rng, n_frames - n_frames // 2, runs)
    present = bool(rng.integers(2))
    pairs = zip(present_runs, absent_runs) if present else zip(absent_runs, present_runs)
    annotations, predictions = [], []
    small_frames = target_frames = 0
    for first, second in pairs:
        for run in (first, second):
            box = None
            if present:
                small = small_frames < (target_frames + run) / 3
                small_frames += run * small
                target_frames += run
                # on a 1/1000 grid, so the annotation CSV holds the boxes exactly
                w, h = rng.integers(150, 801, 2)
                while (w * h < noise.small_area * 1e6) != small:
                    w, h = rng.integers(150, 801, 2)
                x, y = rng.integers(0, 1001 - w), rng.integers(0, 1001 - h)
                box = uw.geometry.BoundingBox(x / 1000, y / 1000, w / 1000, h / 1000)
            for _ in range(run):
                frame = len(annotations)
                annotations.append(uw.geometry.Annotation(frame, present, box))
                predictions.append((frame, uw.sim.noisy_detector(box, rng, noise)))
            present = not present
    return annotations, predictions


# ---------------------------------------------------------------------------
# workloads

class Pipeline:
    """The README pipeline: sim with footage, then mdpm, then eval."""

    def __init__(self, uw, inputs: Path, seed: int, tiny: bool):
        self.uw = uw
        self.config = inputs / "pipeline.cfg"
        self.seed = seed
        self.duration = 4.0 if tiny else 20.0

    def setup(self) -> None:
        self.config.write_text(f"sim.seed = {self.seed}\nsim.duration = {self.duration}\n")
        self.ticks = round(self.duration * PHYSICS_RATE)
        last_t = (self.ticks - 1) / PHYSICS_RATE
        self.frames = math.floor(last_t * FPS + 1e-9) + 1

    def job(self, d: Path) -> JobResult:
        result = JobResult(items=self.frames)
        call_cli(self.uw, ["sim", "--config", self.config, "--out", d / "trace.csv",
                           "--frames-out", d / "frames",
                           "--annotations-out", d / "truth.csv"], result, "sim")
        call_cli(self.uw, ["mdpm", "--frames", d / "frames", "--fps", FPS,
                           "--out", d / "detections.csv"], result, "mdpm")
        call_cli(self.uw, ["eval", "--annotations", d / "truth.csv",
                           "--predictions", d / "detections.csv", "--auto-threshold",
                           "--fps", FPS, "--report-dir", d / "report"], result, "eval")
        return result

    def check(self, d: Path, result: JobResult) -> dict:
        fileio = self.uw.fileio
        n_frames = len(list((d / "frames").glob("*.pgm")))
        trace_rows = len((d / "trace.csv").read_text().splitlines()) - 1
        truth = fileio.parse_annotations((d / "truth.csv").read_text())
        detections = fileio.parse_predictions((d / "detections.csv").read_text())
        sizes = (n_frames, len(truth), len(detections), trace_rows)
        if sizes != (self.frames,) * 3 + (self.ticks,):
            raise CheckFailed(f"frames/annotations/detections/trace rows {sizes}")
        expected = score(truth, detections)
        check_eval_stdout(result.outputs["eval"], expected)
        return expected


class Convoy:
    """servo-sim over the criterion-7 forward scenario at several seeds, plus
    one turn_in_place and one depth_change run; every run has an occlusion
    longer than the loss timeout and a water current."""

    def __init__(self, uw, inputs: Path, seed: int, tiny: bool):
        self.uw = uw
        self.inputs = inputs
        self.seed = seed
        self.duration = 6.0 if tiny else 60.0
        self.scripts = ["forward"] * (2 if tiny else 3) + ["turn_in_place", "depth_change"]

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.configs = []
        for i, script in enumerate(self.scripts):
            start = round(rng.uniform(0.2, 0.4) * self.duration, 2)
            path = self.inputs / f"convoy{i}.cfg"
            path.write_text(
                f"sim.seed = {rng.randrange(2**31)}\n"
                f"sim.script = {script}\n"
                f"sim.duration = {self.duration}\n"
                f"sim.occlusions = {start:.2f}:{start + 3.0:.2f}\n"
                f"sim.current_y = {rng.uniform(-0.05, 0.05):.4f}\n"
            )
            self.configs.append(path)
        self.ticks = round(self.duration * PHYSICS_RATE)

    def job(self, d: Path) -> JobResult:
        result = JobResult(items=self.ticks * len(self.configs))
        for i, path in enumerate(self.configs):
            call_cli(self.uw, ["servo-sim", "--config", path,
                               "--out", d / f"trace{i}.csv"], result, f"servo-sim{i}")
        return result

    def check(self, d: Path, result: JobResult) -> dict:
        fractions = []
        for i, script in enumerate(self.scripts):
            rows = [line.split(",") for line in (d / f"trace{i}.csv").read_text().splitlines()[1:]]
            if len(rows) != self.ticks:
                raise CheckFailed(f"run {i}: {len(rows)} trace rows, expected {self.ticks}")
            t = np.array([float(r[0]) for r in rows])
            seen = np.array([r[11] == "1" for r in rows])
            box = np.array([[float(v) if v else np.nan for v in r[12:16]] for r in rows])
            cx = box[:, 0] + box[:, 2] / 2
            cy = box[:, 1] + box[:, 3] / 2
            area = box[:, 2] * box[:, 3]
            tail = (t >= t[-1] / 2) & seen
            stdout = result.outputs[f"servo-sim{i}"]
            if tail.any():
                want = [f"final-half ticks with target visible: {int(tail.sum())}"]
                mean_dx = float(np.mean(np.abs(cx[tail] - 0.5)))
                got = re.search(r"\|dx\|\s+mean (\S+)", stdout)
                if got is None or abs(float(got.group(1)) - mean_dx) > 1e-4:
                    raise CheckFailed(f"run {i}: servo-sim |dx| mean, expected {mean_dx:.6f}")
            else:
                want = ["target never visible in the final half of the run"]
            if stdout.splitlines()[:1] != want:
                raise CheckFailed(f"run {i}: servo-sim prints {stdout.splitlines()[:1]}, expected {want}")
            # criterion 7: centred within 0.1 and area within 20% of the
            # desired 0.5, over every final-half tick
            final = t >= self.duration / 2
            with np.errstate(invalid="ignore"):
                ok = (
                    seen
                    & (np.abs(cx - 0.5) < 0.1)
                    & (np.abs(cy - 0.5) < 0.1)
                    & (np.abs(area - 0.5) / 0.5 < 0.2)
                )
            fractions.append(float(ok[final].sum() / final.sum()))
        forward = [f for f, s in zip(fractions, self.scripts) if s == "forward"]
        return {
            "in_bounds_frac": float(np.mean(fractions)),
            "in_bounds_forward_mean": float(np.mean(forward)),
            "in_bounds_turn_in_place": fractions[self.scripts.index("turn_in_place")],
            "in_bounds_depth_change": fractions[self.scripts.index("depth_change")],
        }


class EvalSweep:
    """eval --auto-threshold over generated annotations and detections."""

    def __init__(self, uw, inputs: Path, seed: int, tiny: bool):
        self.uw = uw
        self.inputs = inputs
        self.seed = seed
        self.frames = 200 if tiny else 1000

    def setup(self) -> None:
        annotations, predictions = sweep_inputs(self.uw, self.seed, self.frames)
        (self.inputs / "truth.csv").write_text(self.uw.fileio.format_annotations(annotations))
        (self.inputs / "detections.csv").write_text(self.uw.fileio.format_predictions(predictions))

    def job(self, d: Path) -> JobResult:
        result = JobResult(items=self.frames)
        call_cli(self.uw, ["eval", "--annotations", self.inputs / "truth.csv",
                           "--predictions", self.inputs / "detections.csv",
                           "--auto-threshold", "--fps", FPS,
                           "--report-dir", d / "report"], result, "eval")
        return result

    def check(self, d: Path, result: JobResult) -> dict:
        fileio = self.uw.fileio
        truth = fileio.parse_annotations((self.inputs / "truth.csv").read_text())
        detections = fileio.parse_predictions((self.inputs / "detections.csv").read_text())
        expected = score(truth, detections)
        check_eval_stdout(result.outputs["eval"], expected)
        expected["candidates"] = len({b.p for _, b in detections if b is not None})
        return expected


WORKLOADS = {
    "pipeline": Pipeline,
    "convoy": Convoy,
    "eval_sweep": EvalSweep,
}


def scaling_points(uw, seed: int, tiny: bool) -> dict[str, float]:
    """select_threshold time against eval size N with its log-log slope, and
    the median full-buffer push time at two frame sizes."""
    sizes = (250, 500, 1000, 2000)
    metrics = {}
    times = []
    for n in sizes:
        annotations, predictions = sweep_inputs(uw, seed, n // 10 if tiny else n)
        start = time.perf_counter()
        uw.evaluation.select_threshold(annotations, predictions)
        times.append(time.perf_counter() - start)
        metrics[f"evaluation.select_threshold.s.n{n}"] = times[-1]
    metrics["evaluation.select_threshold.slope"] = float(
        np.polyfit(np.log(sizes), np.log(times), 1)[0]
    )
    pushes = 3 if tiny else 40
    for width, height in ((320, 240), (640, 480)):
        camera = uw.sim.CameraModel(image_width=width, image_height=height)
        scene = uw.sim.FootageScene(camera=camera, rng=np.random.default_rng(seed))
        tracker = uw.mdpm.MdpmTracker()
        length = tracker.config.buffer_length
        frames = scene.render_sequence(
            uw.sim.Pose(position=(2.0, 0.0, 0.0)), uw.sim.Pose(), length - 1 + pushes, FPS
        )
        samples = []
        for i, frame in enumerate(frames):
            start = time.perf_counter()
            tracker.push(frame)
            if i >= length - 1:
                samples.append(time.perf_counter() - start)
        metrics[f"mdpm.push.ms_p50.{width}x{height}"] = 1e3 * float(np.median(samples))
    return metrics
