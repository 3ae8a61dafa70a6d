"""File formats: annotation/prediction CSV, plain-text config, PGM frames,
trace CSV, and report rendering.

All files use normalized coordinates and 6-decimal float formatting, so a
parse -> write round trip is byte-stable. Every parse error names the line
it came from.
"""

from __future__ import annotations

import math
import re
from dataclasses import fields, replace
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, get_type_hints

import numpy as np

from .evaluation import AREA_EDGES, DURATION_EDGES, HistogramReport, MetricsReport, TrackStats
from .geometry import Annotation, BoundingBox
from .servo import ServoConfig
from .sim import (
    CameraModel,
    ConvoyConfig,
    DetectorNoise,
    Pose,
    ScheduleError,
    SimTrace,
    TargetModel,
    depth_script,
    forward_script,
    turn_script,
)

ANNOTATION_HEADER = "frame,present,x,y,w,h"
PREDICTION_HEADER = "frame,confidence,x,y,w,h"


class DataFormatError(ValueError):
    """Malformed input file; the message carries the line number."""


def _fmt(v: float) -> str:
    return f"{v:.6f}"


def _fmt_opt(v: float | None) -> str:
    return "" if v is None else _fmt(v)


def _csv(header: str, rows: Iterable[Iterable[str]]) -> str:
    """The header and one line per row of cells, each line newline-terminated."""
    return "\n".join([header, *map(",".join, rows)]) + "\n"


def _box_cells(box: BoundingBox | None) -> tuple[str, ...]:
    """x, y, w, h cells; four empty cells for a missing box."""
    if box is None:
        return ("",) * 4
    return _fmt(box.x), _fmt(box.y), _fmt(box.w), _fmt(box.h)


# ---------------------------------------------------------------------------
# annotations

def format_annotations(annotations: Sequence[Annotation]) -> str:
    rows = (
        (str(ann.frame_index), "1" if ann.present else "0", *_box_cells(ann.truth_box))
        for ann in annotations
    )
    return _csv(ANNOTATION_HEADER, rows)


def _lines(text: str) -> list[str]:
    """The lines of text as an editor counts them: split at each line feed
    alone, each without one trailing carriage return, so that a CRLF file
    reads as its LF form."""
    return [line.removesuffix("\r") for line in text.split("\n")]


def plain_number(convert: Callable[[str], object], raw: str):
    """convert(raw) for int or float, refusing the forms that only Python
    reads and no writer here produces: an underscore, or a character
    outside ASCII, such as a digit of another script."""
    if "_" in raw or not raw.isascii():
        raise ValueError(f"not a plain number: {raw!r}")
    return convert(raw)


def _parse_float(raw: str, name: str) -> float:
    try:
        v = plain_number(float, raw)
    except ValueError:
        raise DataFormatError(f"field {name} is not a number: {raw!r}") from None
    if not math.isfinite(v):
        raise DataFormatError(f"field {name} is not finite")
    return v


def _parse_box(parts: list[str], confidence: float) -> BoundingBox:
    return BoundingBox(*(_parse_float(raw, name) for raw, name in zip(parts, "xywh")), p=confidence)


def _frame_rows(text: str, header: str, parse_row: Callable[[int, list[str]], object]) -> list:
    """parse_row(frame, fields) of each row of a frame-indexed CSV.

    Checks the header and the field count, skips blank lines, and requires
    strictly increasing frame indices in [0, 2**53]. Any ValueError raised
    while a row is parsed becomes a DataFormatError that names its line.
    """
    lines = _lines(text)
    if lines[0].strip() != header:
        raise DataFormatError(f"line 1: expected header {header!r}")
    n_fields = header.count(",") + 1
    prev_frame = -1
    rows = []
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        try:
            if len(parts) != n_fields:
                raise DataFormatError(f"expected {n_fields} fields, got {len(parts)}")
            try:
                frame = plain_number(int, parts[0])
            except ValueError:
                raise DataFormatError(f"bad frame index {parts[0]!r}") from None
            if frame < 0:
                raise DataFormatError(f"frame index {frame} is negative")
            if frame > 2**53:
                # evaluation divides frame counts by the frame rate as floats
                raise DataFormatError("frame index above 2**53")
            if frame <= prev_frame:
                raise DataFormatError(f"frame {frame} not after frame {prev_frame}")
            prev_frame = frame
            rows.append(parse_row(frame, parts))
        except ValueError as exc:
            raise DataFormatError(f"line {line_no}: {exc}") from None
    return rows


def _annotation(frame: int, parts: list[str]) -> Annotation:
    if parts[1] == "1":
        return Annotation(frame, True, _parse_box(parts[2:6], confidence=1.0))
    if parts[1] != "0":
        raise DataFormatError(f"present flag must be 0 or 1, got {parts[1]!r}")
    if any(p.strip() for p in parts[2:6]):
        raise DataFormatError("absent frame must leave box fields empty")
    return Annotation(frame, False)


def parse_annotations(text: str) -> list[Annotation]:
    """Parse an annotation file; frames must be strictly increasing."""
    return _frame_rows(text, ANNOTATION_HEADER, _annotation)


# ---------------------------------------------------------------------------
# predictions

def format_predictions(predictions: Sequence[tuple[int, BoundingBox | None]]) -> str:
    rows = (
        (str(frame), _fmt(0.0 if box is None else box.p), *_box_cells(box))
        for frame, box in predictions
    )
    return _csv(PREDICTION_HEADER, rows)


def _prediction(frame: int, parts: list[str]) -> tuple[int, BoundingBox | None]:
    confidence = _parse_float(parts[1], "confidence")
    if not 0.0 <= confidence <= 1.0:
        raise DataFormatError(f"confidence {confidence} outside [0,1]")
    box = _parse_box(parts[2:6], confidence) if any(p.strip() for p in parts[2:6]) else None
    return frame, box


def parse_predictions(text: str) -> list[tuple[int, BoundingBox | None]]:
    """Parse a prediction file into (frame, optional box) pairs.

    The parsed box carries the row's confidence in its p field.
    """
    return _frame_rows(text, PREDICTION_HEADER, _prediction)


# ---------------------------------------------------------------------------
# config files

def _parse_int(raw: str, key: str) -> int:
    try:
        return plain_number(int, raw)
    except ValueError:
        raise DataFormatError(f"key {key} needs an integer, got {raw!r}") from None


def _parse_occlusions(raw: str, key: str) -> tuple[tuple[float, float], ...]:
    intervals = []
    for chunk in raw.split(","):
        bounds = chunk.split(":")
        if len(bounds) != 2:
            raise DataFormatError(f"occlusions must be start:end pairs, got {chunk!r}")
        intervals.append(tuple(_parse_float(b, key) for b in bounds))
    return tuple(intervals)


# leader script kind -> (builder, its argument, the config key that sets it)
_SCRIPTS = {
    "forward": (forward_script, "speed", "sim.script_speed"),
    "turn_in_place": (turn_script, "rate", "sim.script_rate"),
    "depth_change": (depth_script, "speed", "sim.script_speed"),
}


def _choice(*options: str):
    """Parser for a key that takes one of the given words."""
    def parse(raw: str, key: str) -> str:
        if raw not in options:
            raise DataFormatError(f"key {key} must be one of {', '.join(options)}, got {raw!r}")
        return raw
    return parse


def _field_key(cls: type, name: str, parse=None):
    """Table entry for a key that sets one dataclass field; unless given,
    the parser follows the field's annotation."""
    if parse is None:
        parse = {int: _parse_int, float: _parse_float}[get_type_hints(cls)[name]]
    return parse, cls, name


# config key -> (parser, dataclass, field). A key that sets one field names
# its dataclass; an absent key leaves that field at its default. Keys with a
# dataclass of None are read by the special cases in parse_config.
CONFIG_KEYS = {
    **{f"servo.{f.name}": _field_key(ServoConfig, f.name) for f in fields(ServoConfig)},
    **{
        f"detector_noise.{f.name}": _field_key(DetectorNoise, f.name)
        for f in fields(DetectorNoise)
    },
    **{
        f"sim.{name}": _field_key(ConvoyConfig, name)
        for name in ("duration", "physics_rate", "detector_rate", "frame_rate", "seed")
    },
    "sim.occlusions": _field_key(ConvoyConfig, "occlusions", _parse_occlusions),
    "sim.camera_hfov": _field_key(CameraModel, "horizontal_fov"),
    "sim.image_width": _field_key(CameraModel, "image_width"),
    "sim.image_height": _field_key(CameraModel, "image_height"),
    "sim.target_length": _field_key(TargetModel, "body_length"),
    "sim.target_height": _field_key(TargetModel, "body_height"),
    "sim.gait_frequency": _field_key(TargetModel, "gait_frequency"),
    "sim.gait_jitter": _field_key(TargetModel, "gait_jitter"),
    "sim.script": (_choice(*_SCRIPTS), None, None),
    "sim.noiseless": (_choice("0", "1"), None, None),
    **{
        f"sim.{name}": (_parse_float, None, None)
        for name in (
            "script_speed", "script_rate",
            "leader_x", "leader_y", "leader_z", "leader_yaw",
            "follower_x", "follower_y", "follower_z", "follower_yaw",
            "current_x", "current_y", "current_z",
        )
    },
}


def _pose(values: dict[str, object], who: str, base: Pose) -> Pose:
    """base with the sim.<who>_x/y/z/yaw keys that are present applied."""
    position = tuple(
        values.get(f"sim.{who}_{axis}", v) for axis, v in zip("xyz", base.position)
    )
    return replace(base, position=position, yaw=values.get(f"sim.{who}_yaw", base.yaw))


def parse_config(text: str) -> ConvoyConfig:
    """Parse key=value config lines into the config of one convoy run.

    Unknown keys, and keys that the rest of the file makes ineffective, are
    rejected with their line number; '#' starts a comment. Absent keys take
    the defaults of the dataclasses they set. Any ValueError raised while a
    line is parsed becomes a DataFormatError that names the line.
    """
    values: dict[str, object] = {}
    lines: dict[str, int] = {}
    for line_no, raw_line in enumerate(_lines(text), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if "=" not in line:
                raise DataFormatError(f"expected key=value, got {raw_line!r}")
            key, raw_value = (part.strip() for part in line.split("=", 1))
            if key not in CONFIG_KEYS:
                raise DataFormatError(f"unknown config key {key!r}")
            if key in values:
                raise DataFormatError(f"duplicate config key {key!r}")
            parse, cls, name = CONFIG_KEYS[key]
            values[key] = parse(raw_value, key)
            lines[key] = line_no
            if cls is not None:
                # a field's own invariant is checked here, where its line
                # number is known; a ScheduleError involves other lines, so it
                # waits for the whole file
                try:
                    cls(**{name: values[key]})
                except ScheduleError:
                    pass
                except ValueError as exc:
                    raise DataFormatError(f"invalid {key}: {exc}") from None
        except ValueError as exc:
            raise DataFormatError(f"line {line_no}: {exc}") from None

    def set_fields(cls: type) -> dict[str, object]:
        return {
            name: values[key]
            for key, (_, c, name) in CONFIG_KEYS.items()
            if c is cls and key in values
        }

    default = ConvoyConfig()
    kind = values.get("sim.script", default.script.kind)
    builder, arg, arg_key = _SCRIPTS[kind]
    noiseless = values.get("sim.noiseless") == "1"
    for key, line_no in lines.items():
        if key.startswith("sim.script_") and key != arg_key:
            raise DataFormatError(f"line {line_no}: {key} has no effect with sim.script = {kind}")
        if key.startswith("detector_noise.") and noiseless:
            raise DataFormatError(f"line {line_no}: {key} has no effect with sim.noiseless = 1")
    script = builder(
        start_pose=_pose(values, "leader", default.script.start_pose),
        **({arg: values[arg_key]} if arg_key in values else {}),
    )
    noise = DetectorNoise.noiseless() if noiseless else DetectorNoise(**set_fields(DetectorNoise))
    try:
        return ConvoyConfig(
            script=script,
            initial_follower=_pose(values, "follower", default.initial_follower),
            servo=ServoConfig(**set_fields(ServoConfig)),
            camera=CameraModel(**set_fields(CameraModel)),
            target=TargetModel(**set_fields(TargetModel)),
            detector_noise=noise,
            current=tuple(
                values.get(f"sim.current_{axis}", v) for axis, v in zip("xyz", default.current)
            ),
            **set_fields(ConvoyConfig),
        )
    except ScheduleError as exc:
        # the defaults agree, so a line sets a field in conflict: name the last
        line_no, key = max((n, k) for k, n in lines.items() if CONFIG_KEYS[k][1:] in exc.fields)
        raise DataFormatError(f"line {line_no}: invalid {key}: {exc}") from None


# ---------------------------------------------------------------------------
# PGM frames

def write_pgm(frame: np.ndarray) -> bytes:
    """Binary 8-bit PGM (P5) with a fixed header layout."""
    height, width = frame.shape
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    # quantise in one new buffer; the caller's frame is not written to
    data = frame * 255.0
    np.rint(data, out=data)
    np.clip(data, 0, 255, out=data)
    return header + data.astype(np.uint8).tobytes()


def _pgm_tokens(data: bytes):
    """(offset, token) of each whitespace-separated token; a '#' that starts
    a token starts a comment that runs to the end of its line."""
    for match in re.finditer(rb"#[^\n]*|\S+", data):
        if not match.group().startswith(b"#"):
            yield match.start(), match.group()


def _pgm_int(token: bytes) -> int:
    # latin-1 maps each byte to one character, so a byte past ASCII is refused
    return plain_number(int, token.decode("latin-1"))


def read_pgm(data: bytes) -> np.ndarray:
    """Read a binary (P5) or ASCII (P2) PGM: samples in [0, 1], shape (height, width)."""
    tokens = _pgm_tokens(data)
    try:
        _, magic = next(tokens)
    except StopIteration:
        raise DataFormatError("empty PGM data") from None
    if magic not in (b"P5", b"P2"):
        raise DataFormatError(f"not a PGM file (magic {magic!r})")
    try:
        _, w_tok = next(tokens)
        _, h_tok = next(tokens)
        max_pos, max_tok = next(tokens)
        width, height, maxval = map(_pgm_int, (w_tok, h_tok, max_tok))
    except (StopIteration, ValueError):
        raise DataFormatError("malformed PGM header") from None
    if width <= 0 or height <= 0 or maxval <= 0:
        raise DataFormatError("PGM header fields must be positive")
    if maxval > 255:
        raise DataFormatError(f"PGM maxval {maxval} is not 8-bit; only 8-bit PGM is read")

    if magic == b"P5":
        start = max_pos + len(max_tok) + 1  # single whitespace after maxval
        raw = data[start : start + width * height]
        if len(raw) != width * height:
            raise DataFormatError("PGM pixel payload truncated")
        samples = np.frombuffer(raw, np.uint8)  # the division below makes the one float copy
    else:
        try:
            samples = np.array([_pgm_int(tok) for _, tok in tokens], dtype=float)
        except (ValueError, OverflowError) as exc:
            raise DataFormatError(f"bad P2 pixel value: {exc}") from None
        if samples.size != width * height:
            raise DataFormatError(
                f"P2 payload holds {samples.size} values, expected {width * height}"
            )
    if samples.min() < 0 or samples.max() > maxval:
        raise DataFormatError(f"PGM pixel values must lie in 0..{maxval}")
    return (samples / maxval).reshape(height, width)


def write_frame_dir(frames: Iterable[np.ndarray], directory: str | Path) -> None:
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    for i, frame in enumerate(frames):
        (out / f"frame_{i:06d}.pgm").write_bytes(write_pgm(frame))


def frame_files(directory: str | Path) -> list[Path]:
    """The PGM frames of a directory, in lexicographic filename order."""
    return sorted(p for p in Path(directory).iterdir() if p.suffix.lower() == ".pgm")


def load_frame_dir(directory: str | Path) -> Iterator[tuple[Path, np.ndarray]]:
    """Read a directory of PGM frames in frame_files order, one at a time.

    The directory is listed, and refused when it holds no frame, on the call;
    each (path, frame) pair is read as it is asked for, so one frame is held
    at a time. A frame that does not parse raises a DataFormatError that
    names its file.
    """
    files = frame_files(directory)
    if not files:
        raise DataFormatError(f"no .pgm frames in {directory}")

    def read():
        for path in files:
            try:
                frame = read_pgm(path.read_bytes())
            except DataFormatError as exc:
                raise DataFormatError(f"{path.name}: {exc}") from None
            yield path, frame

    return read()


# ---------------------------------------------------------------------------
# trace CSV

TRACE_HEADER = (
    "t,leader_x,leader_y,leader_z,leader_yaw,leader_pitch,"
    "follower_x,follower_y,follower_z,follower_yaw,follower_pitch,"
    "true_present,true_x,true_y,true_w,true_h,"
    "det_present,det_conf,det_x,det_y,det_w,det_h,"
    "cmd_yaw_rate,cmd_pitch_rate,cmd_roll_rate,cmd_forward_speed,cmd_vertical_speed"
)


def _trace_template(true_present: bool, det_present: bool) -> str:
    """%-template of one trace row: a cell per TRACE_HEADER column, each
    value printed as _fmt prints it, empty cells for a missing box."""
    true_cells = "1" + ",%.6f" * 4 if true_present else "0" + "," * 4
    det_cells = "1" + ",%.6f" * 5 if det_present else "0" + "," * 5
    return ",".join(["%.6f"] * 11 + [true_cells, det_cells] + ["%.6f"] * 5) + "\n"


# (true box present, detection present) -> the template of a row
_TRACE_ROWS = {(tp, dp): _trace_template(tp, dp) for tp in (False, True) for dp in (False, True)}


def format_trace_csv(trace: SimTrace) -> str:
    rows = [TRACE_HEADER + "\n"]
    for r in trace.records:
        tb, db, cmd, leader, follower = r.true_box, r.detection, r.command, r.leader, r.follower
        rows.append(_TRACE_ROWS[tb is not None, db is not None] % (
            r.t, *leader.position, leader.yaw, leader.pitch,
            *follower.position, follower.yaw, follower.pitch,
            *(() if tb is None else (tb.x, tb.y, tb.w, tb.h)),
            *(() if db is None else (db.p, db.x, db.y, db.w, db.h)),
            cmd.yaw_rate, cmd.pitch_rate, cmd.roll_rate, cmd.forward_speed, cmd.vertical_speed,
        ))
    return "".join(rows)


# ---------------------------------------------------------------------------
# report rendering

def _cell(v: float | None, percent: bool = False) -> str:
    if v is None:
        return "—"
    return f"{100 * v:.1f}%" if percent else f"{v:.4f}"


def _seconds(v: float | None) -> str:
    """A track duration; from 1e9 s up, which only a tiny frame rate gives,
    in exponent form, so that no line grows with the exponent."""
    return _cell(v) if v is None or v < 1e9 else f"{v:.4e}"


def format_metrics_text(report: MetricsReport, tracks: TrackStats | None = None) -> str:
    rows = [
        ("images", str(report.n_images)),
        ("TP / TN / FP / FN", f"{report.n_tp} / {report.n_tn} / {report.n_fp} / {report.n_fn}"),
        ("accuracy", _cell(report.accuracy)),
        ("precision", _cell(report.precision)),
        ("recall", _cell(report.recall)),
        ("avg IOU", _cell(report.avg_iou)),
        ("LFR", _cell(report.lfr, percent=True)),
    ]
    if tracks is not None:
        rows.append(("tracks", str(tracks.count)))
        rows.append(("track mean (s)", _seconds(tracks.mean_duration)))
        rows.append(("track std (s)", _seconds(tracks.std_duration)))
        rows.append(("track max (s)", _seconds(tracks.max_duration)))
    width = max(len(name) for name, _ in rows)
    return "\n".join(f"{name:<{width}}  {value}" for name, value in rows) + "\n"


def format_metrics_csv(report: MetricsReport) -> str:
    header = "n_images,n_tp,n_tn,n_fp,n_fn,accuracy,precision,recall,avg_iou,lfr"
    row = (
        *map(str, (report.n_images, report.n_tp, report.n_tn, report.n_fp, report.n_fn)),
        _fmt(report.accuracy),
        *map(_fmt_opt, (report.precision, report.recall, report.avg_iou, report.lfr)),
    )
    return _csv(header, [row])


def _bin_rows(edges: Sequence[float], counts: Sequence, floats: Sequence = ()) -> Iterator[tuple]:
    """One row per histogram bin: its two edges, then the bin's entry in
    each count column and in each float column."""
    for i in range(len(edges) - 1):
        yield (
            _fmt(edges[i]), _fmt(edges[i + 1]),
            *(str(column[i]) for column in counts), *(_fmt(column[i]) for column in floats),
        )


def format_area_histogram_csv(hist: HistogramReport) -> str:
    rows = _bin_rows(AREA_EDGES, (hist.tp_by_area, hist.fn_by_area))
    return _csv("area_lo,area_hi,tp_count,fn_count", rows)


def format_bias_histogram_csv(hist: HistogramReport) -> str:
    rows = _bin_rows(AREA_EDGES, (hist.tp_by_area,), (hist.bias_mean, hist.bias_std))
    return _csv("area_lo,area_hi,count,bias_mean,bias_std", rows)


def format_runs_histogram_csv(hist: HistogramReport) -> str:
    rows = _bin_rows(DURATION_EDGES, (hist.tn_runs, hist.fn_runs))
    return _csv("frames_lo,frames_hi,tn_runs,fn_runs", rows)
