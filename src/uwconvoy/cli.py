"""Command-line front end binding the toolkit into runnable tools.

Subcommands: ``eval`` (score prediction files against annotations), ``sim``
(closed-loop convoy run, trace CSV plus optional PGM footage), ``mdpm``
(periodic-motion detection over a frame directory, emitting a prediction
file), and ``servo-sim`` (convoy run plus a tracking-error summary).

Exit codes: 0 success, 1 usage error, 2 data error (including a path that
cannot be read or written).
"""

from __future__ import annotations

import argparse
import codecs
import functools
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import evaluation, fileio
from .mdpm import MdpmConfig, MdpmTracker
from .servo import compute_errors
from .sim import ConvoyConfig, SimTrace, run_convoy, trace_footage

USAGE_ERROR = 1
DATA_ERROR = 2


def _plain_number(convert, raw: str):
    """fileio.plain_number(convert, raw), a usage error when it refuses raw."""
    try:
        return fileio.plain_number(convert, raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a plain number: {raw!r}") from None


def _seed(raw: str) -> int:
    return _plain_number(int, raw)


def _finite_float(raw: str) -> float:
    value = _plain_number(float, raw)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {raw!r}")
    return value


def _unit_float(raw: str) -> float:
    value = _plain_number(float, raw)
    if not 0.0 <= value <= 1.0:  # nan fails too
        raise argparse.ArgumentTypeError(f"not a number in [0, 1]: {raw!r}")
    return value


# built once per process: parse_args leaves the parser as it is and returns
# a new namespace each call
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uwconvoy",
        description="Tracking-by-detection convoy toolkit",
    )
    sub = parser.add_subparsers(dest="command")

    p_eval = sub.add_parser("eval", help="score predictions against annotations")
    p_eval.add_argument("--annotations", required=True)
    p_eval.add_argument("--predictions", required=True)
    group = p_eval.add_mutually_exclusive_group(required=True)
    group.add_argument("--threshold", type=_unit_float, help="confidence threshold in [0, 1]")
    group.add_argument("--auto-threshold", action="store_true")
    p_eval.add_argument("--fps", type=_finite_float, help="sequence frame rate for track statistics")
    p_eval.add_argument("--report-dir", help="write CSV reports into this directory")

    p_sim = sub.add_parser("sim", help="run the convoy simulation")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", required=True, help="trace CSV path")
    p_sim.add_argument("--seed", type=_seed, help="override the config seed")
    p_sim.add_argument("--frames-out", help="also render PGM footage into this directory")
    p_sim.add_argument(
        "--annotations-out",
        help="write ground-truth annotations aligned with the rendered frames",
    )

    p_mdpm = sub.add_parser("mdpm", help="detect periodic motion over a frame directory")
    p_mdpm.add_argument("--frames", required=True, help="directory of PGM frames")
    p_mdpm.add_argument(
        "--fps", type=_finite_float, required=True,
        help="frame rate of the footage: the detector's sample rate",
    )
    p_mdpm.add_argument("--out", required=True, help="prediction CSV path")

    p_servo = sub.add_parser("servo-sim", help="convoy run with a servo error summary")
    p_servo.add_argument("--config", required=True)
    p_servo.add_argument("--out", required=True, help="trace CSV path")
    p_servo.set_defaults(seed=None, frames_out=None, annotations_out=None)
    return parser


def _parse_input(path: str, parse):
    """parse(text) of an input file, read as strict UTF-8 whatever the locale,
    after a byte-order mark if it starts with one; a DataFormatError, or a
    byte that is not UTF-8, names the path and line."""
    # the byte-order mark is dropped before decoding, not by the utf-8-sig
    # codec, whose error offsets would count from after the mark
    data = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise fileio.DataFormatError(f"{path}: line {line_no}: {exc}") from None
    try:
        return parse(text)
    except fileio.DataFormatError as exc:
        raise fileio.DataFormatError(f"{path}: {exc}") from None


def _frame_csv(path: str, parse) -> list:
    """The rows of a frame CSV, read by _parse_input; a file that holds none
    is refused with its path named."""
    rows = _parse_input(path, parse)
    if not rows:
        raise fileio.DataFormatError(f"{path}: no frame rows")
    return rows


def _cmd_eval(args) -> int:
    annotations = _frame_csv(args.annotations, fileio.parse_annotations)
    predictions = _frame_csv(args.predictions, fileio.parse_predictions)
    if args.auto_threshold:
        threshold = evaluation.select_threshold(annotations, predictions)
    else:
        threshold = args.threshold
    results = evaluation.classify_frames(annotations, predictions, threshold)
    report = evaluation.metrics_summary(results)
    tracks = None
    if args.fps is not None:
        tracks = evaluation.track_statistics(results, args.fps)
    if args.report_dir:
        # made before anything is printed, so a refused directory prints nothing
        Path(args.report_dir).mkdir(parents=True, exist_ok=True)
    if args.auto_threshold:
        print(f"selected threshold: {threshold:.6f}")
    sys.stdout.write(fileio.format_metrics_text(report, tracks))
    if args.report_dir:
        out = Path(args.report_dir)
        hist = evaluation.histogram_report(results)
        (out / "metrics.csv").write_text(fileio.format_metrics_csv(report))
        (out / "area_histogram.csv").write_text(fileio.format_area_histogram_csv(hist))
        (out / "center_bias.csv").write_text(fileio.format_bias_histogram_csv(hist))
        (out / "negative_runs.csv").write_text(fileio.format_runs_histogram_csv(hist))
    return 0


def _require_writable(path: str) -> None:
    """Refuse an output file path that is a directory or whose directory is
    missing, before any work that the refusal would waste."""
    if Path(path).is_dir():
        raise IsADirectoryError(f"cannot write {path}: it is a directory")
    parent = Path(path).parent
    if not parent.is_dir():
        raise FileNotFoundError(f"cannot write {path}: no directory {parent}")


def _run_and_write(args) -> tuple[ConvoyConfig, SimTrace]:
    """The run of `sim` and `servo-sim`: load the config, refuse every output
    path before the first tick, so that a refusal leaves no partial output
    behind, then run the loop and write the trace and any footage."""
    config = _parse_input(args.config, fileio.parse_config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    outputs = [p for p in (args.out, args.annotations_out, args.frames_out) if p]
    resolved = [Path(p).resolve() for p in outputs]
    for i, path in enumerate(outputs):
        if resolved[i] in resolved[:i]:
            raise ValueError(f"{path} is named for two outputs")
    for path in filter(None, (args.out, args.annotations_out)):
        _require_writable(path)
    if args.frames_out:
        Path(args.frames_out).mkdir(parents=True, exist_ok=True)
        # frames of an earlier run would mix with this run's in mdpm
        if fileio.frame_files(args.frames_out):
            raise fileio.DataFormatError(f"{args.frames_out} already holds .pgm frames")
    trace = run_convoy(config)
    Path(args.out).write_text(fileio.format_trace_csv(trace))
    if args.frames_out or args.annotations_out:
        annotations, frames = trace_footage(trace, config)
        if args.frames_out:
            fileio.write_frame_dir(frames, args.frames_out)
        if args.annotations_out:
            Path(args.annotations_out).write_text(fileio.format_annotations(annotations))
    return config, trace


def _cmd_sim(args) -> int:
    _run_and_write(args)
    return 0


def _cmd_mdpm(args) -> int:
    try:
        config = MdpmConfig(sample_rate=args.fps)
    except ValueError as exc:
        raise ValueError(f"--fps {args.fps:g} is too low: {exc}") from None
    _require_writable(args.out)
    tracker = MdpmTracker(config)
    rows = []
    for i, (path, frame) in enumerate(fileio.load_frame_dir(args.frames)):
        try:
            detection = tracker.push(frame)
        except ValueError as exc:
            raise fileio.DataFormatError(f"{path.name}: {exc}") from None
        rows.append((i, detection.bbox if detection is not None else None))
    # counted after the loop, so that a frame that cannot be read is named
    # first; nothing is written before every frame has been pushed
    if len(rows) < config.buffer_length:
        raise fileio.DataFormatError(
            f"{args.frames} holds {len(rows)} frames; detection needs "
            f"at least {config.buffer_length}"
        )
    Path(args.out).write_text(fileio.format_predictions(rows))
    return 0


def _cmd_servo_sim(args) -> int:
    config, trace = _run_and_write(args)
    servo = config.servo
    tail = [r for r in trace.records if r.t >= trace.records[-1].t / 2 and r.true_box]
    if tail:
        dx, dy, da = map(np.abs, zip(*(compute_errors(r.true_box, servo) for r in tail)))
        da /= servo.desired_area
        print(f"final-half ticks with target visible: {len(tail)}")
        print(f"|dx|  mean {np.mean(dx):.4f}  max {np.max(dx):.4f}")
        print(f"|dy|  mean {np.mean(dy):.4f}  max {np.max(dy):.4f}")
        print(f"area error/desired  mean {np.mean(da):.4f}  max {np.max(da):.4f}")
    else:
        print("target never visible in the final half of the run")
    return 0


def run_cli(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help; map usage failures to exit code 1
        return 0 if exc.code == 0 else USAGE_ERROR
    if args.command is None:
        parser.print_usage(sys.stderr)
        return USAGE_ERROR
    handler = {
        "eval": _cmd_eval,
        "sim": _cmd_sim,
        "mdpm": _cmd_mdpm,
        "servo-sim": _cmd_servo_sim,
    }[args.command]
    try:
        return handler(args)
    except (ValueError, OSError) as exc:
        # DataFormatError and ThresholdNotFoundError are ValueErrors; an
        # OSError's message names the path the OS refused
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
