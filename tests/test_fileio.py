import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from uwconvoy.evaluation import MetricsReport, classify_frames, histogram_report
from uwconvoy.fileio import (
    ANNOTATION_HEADER,
    CONFIG_KEYS,
    DataFormatError,
    PREDICTION_HEADER,
    TRACE_HEADER,
    format_annotations,
    format_area_histogram_csv,
    format_bias_histogram_csv,
    format_metrics_csv,
    format_metrics_text,
    format_predictions,
    format_trace_csv,
    load_frame_dir,
    parse_annotations,
    parse_config,
    parse_predictions,
    plain_number,
    read_pgm,
    write_frame_dir,
    write_pgm,
)
from uwconvoy.geometry import Annotation, BoundingBox
from uwconvoy.servo import ControlCommand, ServoConfig
from uwconvoy.sim import ConvoyConfig, Pose, SimTrace, run_convoy

from oracles import (
    one_line_write_pgm,
    reference_parse_annotations,
    reference_parse_predictions,
    trace_row_cells,
)


def test_parse_annotations_header_only():
    assert parse_annotations("frame,present,x,y,w,h\n") == []


def test_parse_annotations_simple_row():
    anns = parse_annotations("frame,present,x,y,w,h\n0,1,0.1,0.2,0.3,0.4\n")
    assert anns == [Annotation(0, True, BoundingBox(0.1, 0.2, 0.3, 0.4, 1.0))]


def test_parse_annotations_rejects_box_outside_image():
    with pytest.raises(DataFormatError, match="line 2"):
        parse_annotations("frame,present,x,y,w,h\n0,1,0.9,0.9,0.3,0.3\n")


def test_parse_annotations_rejects_non_monotone_frames():
    text = "frame,present,x,y,w,h\n3,0,,,,\n2,0,,,,\n"
    with pytest.raises(DataFormatError, match="line 3"):
        parse_annotations(text)
    with pytest.raises(DataFormatError, match="^line 2: frame index -1 is negative$"):
        parse_annotations("frame,present,x,y,w,h\n-1,0,,,,\n")


def test_frame_index_is_at_most_2_to_the_53():
    assert parse_annotations(f"frame,present,x,y,w,h\n{2**53},0,,,,\n")[0].frame_index == 2**53
    with pytest.raises(DataFormatError, match=r"^line 2: frame index above 2\*\*53$"):
        parse_predictions(f"frame,confidence,x,y,w,h\n{2**53 + 1},0.0,,,,\n")


def test_parse_annotations_rejects_garbage():
    with pytest.raises(DataFormatError, match="line 2"):
        parse_annotations("frame,present,x,y,w,h\n0,1,a,b,c,d\n")
    with pytest.raises(DataFormatError, match="line 2"):
        parse_annotations("frame,present,x,y,w,h\n0,2,,,,\n")
    with pytest.raises(DataFormatError, match="line 1"):
        parse_annotations("frames,present\n")
    with pytest.raises(DataFormatError, match="line 2"):
        parse_annotations("frame,present,x,y,w,h\n0,0,0.1,,,\n")


@pytest.mark.parametrize(
    "parse, row, cell",
    [
        (parse_annotations, "1,0, , , ,", "x"),
        (parse_annotations, "1,1,0.1,0.1,0.1,\t", "h"),
        (parse_predictions, "1,0.0,\t,,,", "x"),
        (parse_predictions, "1,0.5,0.1,0.1, ,0.1", "w"),
    ],
)
def test_box_cells_that_hold_only_whitespace_are_refused(parse, row, cell):
    # only four empty cells read as no box, as only a writer's empty cells do
    header = ANNOTATION_HEADER if parse is parse_annotations else PREDICTION_HEADER
    first = "0,0,,,," if parse is parse_annotations else "0,0.0,,,,"
    with pytest.raises(DataFormatError, match=f"^line 3: field {cell} is not a number: "):
        parse(f"{header}\n{first}\n{row}\n")


def test_annotation_presence_and_box_are_checked_together():
    with pytest.raises(DataFormatError, match="^line 2: present annotation requires a truth_box$"):
        parse_annotations("frame,present,x,y,w,h\n0,1,,,,\n")
    with pytest.raises(DataFormatError, match="^line 2: absent annotation must not carry"):
        parse_annotations("frame,present,x,y,w,h\n0,0,0.1,0.1,0.1,0.1\n")


def test_annotation_round_trip_random():
    rng = np.random.default_rng(12)
    annotations = []
    for frame in range(50):
        if rng.uniform() < 0.7:
            w, h = rng.uniform(0.05, 0.5, 2)
            x = rng.uniform(0, 1 - w)
            y = rng.uniform(0, 1 - h)
            annotations.append(
                Annotation(frame, True, BoundingBox(round(x, 6), round(y, 6), round(w, 6), round(h, 6)))
            )
        else:
            annotations.append(Annotation(frame, False))
    text = format_annotations(annotations)
    assert parse_annotations(text) == annotations
    assert format_annotations(parse_annotations(text)) == text


def test_parse_predictions_examples():
    preds = parse_predictions(
        "frame,confidence,x,y,w,h\n0,0.0,,,,\n3,0.87,0.4,0.4,0.2,0.2\n"
    )
    assert preds[0] == (0, None)
    frame, box = preds[1]
    assert frame == 3
    assert box == BoundingBox(0.4, 0.4, 0.2, 0.2, 0.87)


def test_parse_predictions_confidence_range():
    with pytest.raises(DataFormatError, match="line 2"):
        parse_predictions("frame,confidence,x,y,w,h\n0,1.3,,,,\n")
    with pytest.raises(DataFormatError, match="^line 3: frame index -2 is negative$"):
        parse_predictions("frame,confidence,x,y,w,h\n\n-2,0.5,,,,\n")


def test_prediction_round_trip_random():
    rng = np.random.default_rng(13)
    predictions = []
    for frame in range(40):
        if rng.uniform() < 0.6:
            w, h = rng.uniform(0.05, 0.5, 2)
            box = BoundingBox(
                round(rng.uniform(0, 1 - w), 6), round(rng.uniform(0, 1 - h), 6),
                round(w, 6), round(h, 6), round(rng.uniform(0, 1), 6),
            )
            predictions.append((frame, box))
        else:
            predictions.append((frame, None))
    text = format_predictions(predictions)
    assert parse_predictions(text) == predictions
    assert format_predictions(parse_predictions(text)) == text


# A coordinate that is exact in 6 decimals or lies halfway between two of
# them (a rounding tie when written), or any float in [0, 1].
_UNIT = st.one_of(st.integers(0, 2_000_000).map(lambda k: k / 2_000_000), st.floats(0.0, 1.0))


@st.composite
def _boxes(draw, confidence):
    """Boxes inside the image; about half touch the right or bottom edge."""
    x, y = draw(_UNIT), draw(_UNIT)
    w = draw(st.just(1.0 - x) | st.floats(0.0, 1.0 - x))
    h = draw(st.just(1.0 - y) | st.floats(0.0, 1.0 - y))
    return BoundingBox(x, y, w, h, draw(confidence))


@st.composite
def _increasing_frames(draw, value):
    """(frame, value) rows with strictly increasing frame indices."""
    gaps_and_values = draw(st.lists(st.tuples(st.integers(1, 3), value), max_size=20))
    frames = np.cumsum([gap for gap, _ in gaps_and_values]) - 1
    return [(int(f), v) for f, (_, v) in zip(frames, gaps_and_values)]


# written 0.499997,0.000000,0.500004,...: x+w reads back 1e-6 past the edge
EDGE_BOX = BoundingBox(0.4999965, 0.0, 0.5000035, 0.5)


@settings(max_examples=200, deadline=None)
@example(rows=[(0, EDGE_BOX), (2, None)])
@given(rows=_increasing_frames(st.none() | _boxes(st.just(1.0))))
def test_annotations_format_parse_format_is_byte_stable(rows):
    text = format_annotations([Annotation(f, box is not None, box) for f, box in rows])
    assert format_annotations(parse_annotations(text)) == text


@settings(max_examples=200, deadline=None)
@example(rows=[(0, replace(EDGE_BOX, p=0.0)), (1, None), (3, replace(EDGE_BOX, p=1.0))])
@given(rows=_increasing_frames(st.none() | _boxes(st.just(0.0) | st.just(1.0) | st.floats(0.0, 1.0))))
def test_predictions_format_parse_format_is_byte_stable(rows):
    text = format_predictions(rows)
    assert format_predictions(parse_predictions(text)) == text


# numbers that Python's int() and float() read but no writer produces:
# underscores, Arabic-Indic and fullwidth digits, whitespace around the
# number and a leading '+'
PYTHON_ONLY_NUMBERS = [
    "1_0", "0.5_0", "\u0661\u0662", "\uff11", " 1", "0.5\t", "\x0b0", "1\x0c", "+1", "+0.5",
]


@settings(max_examples=300, deadline=None)
@given(
    predictions=st.booleans(),
    rows=_increasing_frames(st.none() | _boxes(st.just(1.0))),
    junk=st.sampled_from(
        ["nan", "inf", "", "1e400", "-1", "2", "banana", "9" * 5000, *PYTHON_ONLY_NUMBERS]
    ),
    data=st.data(),
)
def test_csv_corrupted_cell_parses_or_names_its_line(predictions, rows, junk, data):
    assume(rows)
    if predictions:
        text, parse = format_predictions(rows), parse_predictions
    else:
        text = format_annotations([Annotation(f, box is not None, box) for f, box in rows])
        parse = parse_annotations
    lines = text.splitlines()
    line_no = data.draw(st.integers(2, len(lines)), label="line")
    cells = lines[line_no - 1].split(",")
    column = data.draw(st.integers(0, len(cells) - 1), label="column")
    cells[column] = junk
    lines[line_no - 1] = ",".join(cells)
    try:
        parse("\n".join(lines) + "\n")
    except DataFormatError as exc:
        # a frame index that parses may instead put the next row out of order
        assert str(exc).startswith(f"line {line_no}: ") or (
            column == 0 and str(exc).startswith(f"line {line_no + 1}: frame ")
        )
    else:
        assert junk not in PYTHON_ONLY_NUMBERS


# rewrites of a number cell that keep it plain (the first five) or that a
# reader refuses or reads differently
_CELL_EDITS = {
    "leading zero": lambda cell: "0" + cell,
    "exponent": lambda cell: cell + "e0",
    "EXPONENT": lambda cell: cell + "0E-1",
    "minus zero": lambda cell: "-0.000000",
    "short minus zero": lambda cell: "-0",
    "plus": lambda cell: "+" + cell,
    "underscore": lambda cell: cell[:1] + "_" + cell[1:],
    "space": lambda cell: cell + " ",
    "arabic-indic digit": lambda cell: "\u0661" + cell,
    "inf": lambda cell: "inf",
    "nan": lambda cell: "nan",
    "past the float range": lambda cell: "1e999",
}
# rewrites of a whole row
_ROW_EDITS = {
    "bad flag": lambda cells: [cells[0], "2", *cells[2:]],
    "missing field": lambda cells: cells[:-1],
    "box past the edge": lambda cells: [*cells[:2], "0.9", "0.1", "0.5", "0.5"],
    "empty box cell": lambda cells: [*cells[:5], ""],
    "blank line": lambda cells: [""],
    "spaces line": lambda cells: [" \t"],
}


def _read(parse, text):
    """The rows that parse reads, each box value as float.hex, so that -0
    and 0 differ; or the message of the error that it raises."""
    def hexed(box):
        return None if box is None else tuple(map(float.hex, (box.x, box.y, box.w, box.h, box.p)))

    try:
        rows = parse(text)
    except ValueError as exc:
        return str(exc)
    return [
        (row.frame_index, row.present, hexed(row.truth_box)) if isinstance(row, Annotation)
        else (row[0], hexed(row[1]))
        for row in rows
    ]


@settings(max_examples=500, deadline=None)
@given(
    predictions=st.booleans(),
    rows=_increasing_frames(st.none() | _boxes(st.just(1.0) | st.floats(0.0, 1.0))),
    edits=st.lists(
        st.tuples(
            st.sampled_from([*_CELL_EDITS, *_ROW_EDITS, "frame out of order"]),
            st.integers(0, 10**6),
            st.integers(0, 5),
        ),
        max_size=3,
    ),
    crlf=st.booleans(),
    bom=st.booleans(),
)
def test_frame_csv_readers_equal_the_first_written_reader(predictions, rows, edits, crlf, bom):
    if predictions:
        text = format_predictions(rows)
        parse, reference = parse_predictions, reference_parse_predictions
    else:
        text = format_annotations([Annotation(f, box is not None, box) for f, box in rows])
        parse, reference = parse_annotations, reference_parse_annotations
    lines = text.split("\n")
    for edit, at, column in edits:
        if len(lines) < 3:
            break
        i = 1 + at % (len(lines) - 2)
        cells = lines[i].split(",")
        if edit in _ROW_EDITS:
            cells = _ROW_EDITS[edit](cells)
        elif edit == "frame out of order":
            cells[0] = lines[1 + (at + 1) % (len(lines) - 2)].split(",")[0]
        elif column < len(cells) and (column != 1 or predictions):
            cells[column] = _CELL_EDITS[edit](cells[column])
        lines[i] = ",".join(cells)
    text = ("\r\n" if crlf else "\n").join(lines)
    if bom:
        text = "\ufeff" + text
    if predictions:
        # the first reader kept the sign of a confidence of -0
        first_written = reference

        def reference(text):
            return [(f, b and replace(b, p=b.p + 0.0)) for f, b in first_written(text)]

    assert _read(parse, text) == _read(reference, text)


@pytest.mark.parametrize("cell", ["-0.0", "-0.000000", "-0", "-0e5"])
@pytest.mark.parametrize("crlf", [False, True])
def test_a_confidence_of_minus_zero_reads_as_zero(cell, crlf):
    text = f"frame,confidence,x,y,w,h\n0,{cell},0.2,0.2,0.4,0.4\n1,{cell},,,,\n"
    if crlf:
        text = text.replace("\n", "\r\n")
    (_, box), _ = parse_predictions(text)
    assert math.copysign(1.0, box.p) == 1.0


# ---------------------------------------------------------------------------
# config

GOOD_CONFIG = """
# convoy run settings
sim.duration = 5
sim.seed = 42
sim.script = forward
sim.script_speed = 0.6
sim.leader_x = 2.0
sim.occlusions = 1.0:2.0,3.5:4.0
servo.desired_area = 0.5
servo.speed_gain = 12.0
detector_noise.center_sigma = 0.05
"""


def test_parse_config_good():
    config = parse_config(GOOD_CONFIG)
    assert config.duration == 5.0
    assert config.seed == 42
    assert config.occlusions == ((1.0, 2.0), (3.5, 4.0))
    assert config.servo.speed_gain == 12.0
    assert config.detector_noise.center_sigma == 0.05


def test_occlusions_take_spaces_around_their_separators():
    config = parse_config("sim.duration = 10\nsim.occlusions = 1.0 : 4.0, 5:6\n")
    assert config.occlusions == ((1.0, 4.0), (5.0, 6.0))


@pytest.mark.parametrize("convert", [int, float])
@pytest.mark.parametrize("raw", [" 7", "7 ", " 7\t", "\t7", "7\n", "\x0c7", "7\x0b", "+7"])
def test_plain_number_refuses_space_around_a_number_and_a_leading_plus(convert, raw):
    # int() and float() both read each of these as 7
    with pytest.raises(ValueError, match="^not a plain number: "):
        plain_number(convert, raw)


@pytest.mark.parametrize("raw, value", [("7", 7.0), ("-7", -7.0), (".5", 0.5), ("1e+3", 1e3)])
def test_plain_number_reads_plain_numbers(raw, value):
    assert plain_number(float, raw) == value


@pytest.mark.parametrize(
    "text, parse",
    [
        (ANNOTATION_HEADER + "\n 0 ,0,,,,\n", parse_annotations),
        (ANNOTATION_HEADER + "\n+0,0,,,,\n", parse_annotations),
        (PREDICTION_HEADER + "\n0, 0.5,0.1,0.1,0.2,0.2\n", parse_predictions),
        (PREDICTION_HEADER + "\n0,0.5,0.1,+0.1,0.2,0.2\n", parse_predictions),
    ],
)
def test_csv_refuses_a_number_cell_with_space_or_plus(text, parse):
    with pytest.raises(DataFormatError, match="^line 2: "):
        parse(text)


def test_parse_config_unknown_key_with_line():
    with pytest.raises(DataFormatError, match="line 3"):
        parse_config("sim.duration = 5\n\nservo.bogus = 1\n")


def test_parse_config_duplicate_key():
    with pytest.raises(DataFormatError, match="line 2"):
        parse_config("sim.seed = 1\nsim.seed = 2\n")


def test_parse_config_bad_value():
    with pytest.raises(DataFormatError, match="line 1"):
        parse_config("sim.seed = banana\n")
    with pytest.raises(DataFormatError):
        parse_config("servo.desired_area = 0\n")  # violates servo invariant


def test_parse_config_noiseless_switch():
    config = parse_config("sim.noiseless = 1\n")
    assert config.detector_noise.center_sigma == 0.0
    assert config.detector_noise.miss_prob_base == 0.0
    config = parse_config("sim.noiseless = 0\ndetector_noise.center_sigma = 0.1\n")
    assert config.detector_noise.center_sigma == 0.1


@pytest.mark.parametrize(
    "lines, message",
    [
        (["sim.noiseless = 0.5"], "line 2: key sim.noiseless must be one of 0, 1, got '0.5'"),
        (["sim.noiseless = -3"], "line 2: key sim.noiseless must be one of 0, 1, got '-3'"),
        (
            ["sim.noiseless = 1", "detector_noise.center_sigma = 0.1"],
            "line 3: detector_noise.center_sigma has no effect with sim.noiseless = 1",
        ),
        (
            ["detector_noise.miss_prob_base = 0.2", "sim.noiseless = 1"],
            "line 2: detector_noise.miss_prob_base has no effect with sim.noiseless = 1",
        ),
        (
            ["sim.script_rate = 0.2"],
            "line 2: sim.script_rate has no effect with sim.script = forward",
        ),
        (
            ["sim.script_rate = 0.2", "sim.script = depth_change"],
            "line 2: sim.script_rate has no effect with sim.script = depth_change",
        ),
        (
            ["sim.script = turn_in_place", "sim.script_speed = 0.2"],
            "line 3: sim.script_speed has no effect with sim.script = turn_in_place",
        ),
    ],
)
def test_parse_config_rejects_values_it_would_drop(lines, message):
    with pytest.raises(DataFormatError) as exc:
        parse_config("# run\n" + "\n".join(lines) + "\n")
    assert str(exc.value) == message


def test_parse_config_absent_keys_take_dataclass_defaults():
    assert parse_config("# nothing set\n") == ConvoyConfig()


def test_parse_config_depth_change_keeps_its_own_default_speed():
    velocity = parse_config("sim.script = depth_change\n").script.velocity
    assert velocity == ControlCommand(vertical_speed=-0.1)


def test_parse_config_rejects_mdpm_keys():
    with pytest.raises(DataFormatError, match="line 2: unknown config key 'mdpm.window_size'"):
        parse_config("sim.seed = 1\nmdpm.window_size = 30\n")


def test_parse_config_rejects_camera_aspect():
    # the aspect follows from the image size: pixels are square
    with pytest.raises(DataFormatError, match="line 2: unknown config key 'sim.camera_aspect'"):
        parse_config("sim.image_width = 640\nsim.camera_aspect = 1.5\n")


@pytest.mark.parametrize(
    "line",
    [
        "sim.occlusions = 1:e",
        "sim.occlusions = 5:1",
        "sim.occlusions = 1:2,2:2",
        "sim.image_width = 0",
        "sim.image_height = 0",
        "sim.frame_rate = 0",
        "sim.frame_rate = -3",
        "sim.script = banana",
        "sim.seed = -1",
        "sim.target_length = 0",
        "sim.target_height = -0.3",
        "detector_noise.center_sigma = -0.1",
        "detector_noise.miss_prob_base = 1.5",
        "detector_noise.small_area = -0.2",
        "servo.yaw_rate_limit = -1",
        "servo.forward_speed_limit = -0.5",
        "servo.command_rate = 1000",
        "sim.detector_rate = 60",
        "sim.physics_rate = 5",
        "sim.duration = 0",
        "sim.duration = 0.001",
        "sim.physics_rate = 1e308",
        "sim.duration = 1e9",
        "sim.frame_rate = 1e9",
        "sim.image_width = 4097",
        "sim.camera_hfov = 1e-310",
        "sim.current_x = 1e308",
        "sim.script_speed = 1e308",
        "sim.leader_z = -1.797692e308",
        "sim.follower_y = 1.797692e308",
        pytest.param("sim.image_height = 1" + "0" * 400, id="sim.image_height = 10**400"),
        "sim.seed = 1_0",
        "sim.duration = 2_0",
        pytest.param("sim.seed = \u0661\u0662", id="sim.seed = arabic-indic 12"),
        pytest.param("sim.duration = \uff15", id="sim.duration = fullwidth 5"),
        "sim.seed = +1",
        "sim.duration = +5",
        "sim.occlusions = +1:2",
    ],
)
def test_parse_config_rejects_bad_value_naming_its_line(line):
    with pytest.raises(DataFormatError, match="^line 2: "):
        parse_config(f"# run\n{line}\n")


@pytest.mark.parametrize("separator", ["\x0b", "\x0c", "\x1c", "\x1e", "\x85", "\u2028"])
def test_config_lines_end_at_line_feeds_alone(separator):
    # characters that str.splitlines breaks at, but an editor does not
    with pytest.raises(DataFormatError, match="^line 1: key sim.seed needs an integer"):
        parse_config(f"sim.seed = 1{separator}sim.duration = 5\n")
    with pytest.raises(DataFormatError, match="^line 2: unknown config key 'sim.bogus'"):
        parse_config(f"sim.seed = 1{separator}\nsim.bogus = 2\n")


def test_crlf_files_parse_as_their_lf_form():
    assert parse_config(GOOD_CONFIG.replace("\n", "\r\n")) == parse_config(GOOD_CONFIG)
    with pytest.raises(DataFormatError, match="^line 3: unknown config key 'sim.bogus'"):
        parse_config("sim.seed = 1\r\n\r\nsim.bogus = 2\r\n")
    box = BoundingBox(0.1, 0.2, 0.3, 0.4, 0.75)
    annotations = format_annotations([Annotation(0, True, replace(box, p=1.0)), Annotation(2, False)])
    predictions = format_predictions([(0, box), (1, None)])
    for text, parse in ((annotations, parse_annotations), (predictions, parse_predictions)):
        assert parse(text.replace("\n", "\r\n")) == parse(text)
        header, row = text.split("\n")[:2]
        with pytest.raises(DataFormatError, match="^line 3: frame 0 not after frame 0"):
            parse(f"{header}\r\n{row}\r\n{row}\r\n")


def test_parse_config_checks_rates_against_the_whole_file():
    # a rate is judged with every line, not with the defaults of the others
    config = parse_config("sim.detector_rate = 60\nsim.physics_rate = 100\n")
    assert (config.detector_rate, config.physics_rate) == (60.0, 100.0)
    assert parse_config("sim.duration = 0.01\nsim.physics_rate = 1000\n").duration == 0.01
    assert parse_config("sim.detector_rate = 50\nservo.command_rate = 50\n").detector_rate == 50
    # the conflict is named at the last line that takes part in it
    conflict = "^line 3: invalid sim.physics_rate: servo.command_rate 20 Hz exceeds"
    with pytest.raises(DataFormatError, match=conflict):
        parse_config("servo.command_rate = 20\nsim.detector_rate = 5\nsim.physics_rate = 10\n")


def test_parse_config_builds_one_config_for_a_valid_file(monkeypatch):
    builds = []
    check = ConvoyConfig.__post_init__
    monkeypatch.setattr(ConvoyConfig, "__post_init__", lambda self: builds.append(check(self)))
    assert parse_config(GOOD_CONFIG).seed == 42
    assert len(builds) == 1


@pytest.mark.parametrize(
    "lines, message",
    [
        (["sim.current_x = 1e308", "servo.speed_gain = 12"], "line 1: invalid sim.current_x: "),
        (["sim.current_x = 1e308", "sim.target_length = 0.65"], "line 1: invalid sim.current_x: "),
        (["sim.current_x = 1e308", "sim.duration = 4"], "line 1: invalid sim.current_x: over"),
        (["sim.duration = 4", "sim.current_x = 1e308"], "line 2: invalid sim.current_x: over"),
        (["sim.detector_rate = 60", "sim.image_width = 0"], "line 1: invalid sim.detector_rate: "),
        (["sim.image_width = 0", "sim.detector_rate = 60"], "line 1: invalid sim.image_width: "),
    ],
)
def test_parse_config_names_the_line_that_breaks_the_lines_before_it(lines, message):
    with pytest.raises(DataFormatError) as exc:
        parse_config("\n".join(lines) + "\n")
    assert str(exc.value).startswith(message)


def test_config_whose_motion_ends_near_the_float_range_parses_and_runs():
    # 60 s of a 1e306 m/s current: the follower ends near 6e307, under the
    # largest float, though current * ticks alone is past it
    config = parse_config("sim.current_y = 1e306\n")
    final = run_convoy(config).records[-1]
    assert all(map(math.isfinite, final.leader.position + final.follower.position))
    assert final.follower.position[1] > 5e307


# values of each key, some of which together build no config
_BLAME_POOL = {
    "sim.duration": ["0.02", "4", "60", "1000", "1e9"],
    "sim.physics_rate": ["5", "50", "100"],
    "sim.detector_rate": ["7", "60"],
    "servo.command_rate": ["10", "20", "1000"],
    "sim.frame_rate": ["15", "1e9"],
    "sim.current_x": ["0.03", "1e306", "1e308"],
    "servo.forward_speed_limit": [str(ServoConfig().forward_speed_limit), "1e308"],
    "servo.speed_gain": [str(ServoConfig().speed_gain), "1e308"],
    "sim.image_width": ["320", "0", "4097"],
    "sim.target_length": ["0.65", "1e308"],
}


@st.composite
def _pool_lines(draw):
    keys = draw(st.lists(st.sampled_from(sorted(_BLAME_POOL)), min_size=1, max_size=6, unique=True))
    return [f"{key} = {draw(st.sampled_from(_BLAME_POOL[key]))}" for key in keys]


def _parses(lines: list[str]) -> bool:
    try:
        parse_config("".join(f"{line}\n" for line in lines))
    except DataFormatError:
        return False
    return True


@settings(max_examples=300, deadline=None)
@given(lines=_pool_lines())
def test_parse_config_names_the_last_line_that_breaks_a_prefix(lines):
    try:
        parse_config("".join(f"{line}\n" for line in lines))
    except DataFormatError as exc:
        match = re.match(r"line (\d+): invalid (\S+): ", str(exc))
        assert match, str(exc)
        n = int(match[1])
        assert lines[n - 1].startswith(f"{match[2]} = ")
        assert _parses(lines[: n - 1])
        assert not any(_parses(lines[:end]) for end in range(n, len(lines) + 1))


@settings(max_examples=300, deadline=None)
@given(
    key=st.sampled_from(sorted(CONFIG_KEYS)),
    value=st.sampled_from(["nan", "inf", "-inf", "-1", "0", "banana", ""])
    | st.floats().map(str)
    | st.integers(-(10**6), 10**6).map(str),
    blank_lines=st.integers(0, 3),
)
def test_parse_config_corrupted_value_parses_or_names_its_line(key, value, blank_lines):
    line_no = blank_lines + 1
    try:
        parse_config("\n" * blank_lines + f"{key} = {value}\n")
    except DataFormatError as exc:
        assert str(exc).startswith(f"line {line_no}: ")


# ---------------------------------------------------------------------------
# PGM

@settings(max_examples=200, deadline=None)
@given(shape=st.tuples(st.integers(1, 20), st.integers(1, 20)), seed=st.integers(0, 2**32 - 1))
@example(shape=(9, 17), seed=5)
def test_pgm_round_trip_binary(shape, seed):
    frame = np.random.default_rng(seed).uniform(0, 1, shape)
    data = write_pgm(frame)
    back = read_pgm(data)
    assert back.shape == shape
    # quantized to 8 bits on write
    assert np.max(np.abs(back - frame)) <= 0.5 / 255 + 1e-12
    assert write_pgm(back) == data


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_write_pgm_matches_the_one_line_encoder_and_keeps_its_input(dtype):
    # below 0, above 1, and the half steps (k + 0.5) / 255, which round to
    # even; +-3e38 is finite in float32, but its product by 255 is not
    edges = [-3e38, -1.0, -0.5 / 255, -1e-12, 0.0, 1.0, 1.0 + 1e-12, 255.5 / 255, 2.0, 3e38]
    half_steps = (np.arange(255) + 0.5) / 255
    frame = np.concatenate([edges, half_steps, np.nextafter(half_steps, 2.0)])
    frame = frame.astype(dtype).reshape(5, -1)
    before = frame.copy()
    with np.errstate(over="ignore"):
        assert write_pgm(frame) == one_line_write_pgm(frame)
    assert frame.dtype == dtype and np.array_equal(frame, before)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_write_pgm_refuses_a_sample_that_is_not_finite(bad, dtype):
    frame = np.full((3, 4), 0.5, dtype)
    frame[1, 2] = bad
    with pytest.raises(ValueError, match="^frame holds a sample that is nan or infinite$"):
        write_pgm(frame)


def _ascii_int(n):
    return b"%d" % n


# stand-ins for a token of a PGM header: other magic numbers, and fields
# that int() takes but the reader refuses (-1, +3, 3_0), and that int()
# refuses (1e3, 0x10, 3.0)
_PGM_TOKEN = st.sampled_from(
    [b"P6", b"p5", b"P2", b"P5", b"", b"0", b"-1", b"+3", b"1e3", b"3_0", b"0x10", b"3.0",
     b"256", b"65535", b"\xff"]
) | st.integers(0, 300).map(_ascii_int)
_PGM_SPACE = st.sampled_from([b" ", b"\t", b"\r\n", b"  ", b"#c\n", b" # c 3\n", b"\n#\n", b"#", b""])


@st.composite
def _pgm_ish_bytes(draw):
    """A well-formed P5 or P2 file with up to three of its parts (a header
    token, the whitespace after it, or the payload) swapped for another."""
    magic = draw(st.sampled_from([b"P5", b"P2"]))
    width, height = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    maxval = draw(st.integers(1, 255))
    samples = draw(st.lists(st.integers(0, maxval), min_size=width * height, max_size=width * height))
    payload = bytes(samples) if magic == b"P5" else b" ".join(map(_ascii_int, samples))
    parts = [magic, b"\n", _ascii_int(width), b" ", _ascii_int(height), b"\n",
             _ascii_int(maxval), b"\n", payload]
    other_payload = st.binary(max_size=24) | st.lists(_PGM_TOKEN, max_size=20).map(b" ".join)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(parts) - 1))
        parts[i] = draw(other_payload if i == 8 else _PGM_SPACE if i % 2 else _PGM_TOKEN)
    return b"".join(parts)


@settings(max_examples=1000, deadline=None)
@given(data=_pgm_ish_bytes())
@example(data=b"P5 3_0 +1 1e3\n")
@example(data=b"P2 2 1 3 0 3")
def test_read_pgm_reads_or_refuses_any_bytes(data):
    try:
        frame = read_pgm(data)
    except DataFormatError:
        return
    assert frame.ndim == 2
    assert 0.0 <= frame.min() and frame.max() <= 1.0


def test_pgm_ascii_variant():
    text = b"P2\n# comment\n3 2\n255\n0 128 255\n64 32 16\n"
    frame = read_pgm(text)
    assert frame.shape == (2, 3)
    assert frame[0, 1] == pytest.approx(128 / 255)


def test_pgm_errors():
    with pytest.raises(DataFormatError):
        read_pgm(b"P6\n2 2\n255\n....")
    with pytest.raises(DataFormatError):
        read_pgm(b"P5\n4 4\n255\nxx")  # truncated payload
    with pytest.raises(DataFormatError):
        read_pgm(b"")


@pytest.mark.parametrize(
    "data, message",
    [
        (b"P5\n1 1\n65535\n\xff\xff", "only 8-bit PGM is read"),  # white reads as 0.0039
        (b"P2\n2 1\n255\n0 300\n", "must lie in 0..255"),  # reads as 1.18
        (b"P2\n2 1\n255\n-3 0\n", "must lie in 0..255"),  # reads as -0.012
        (b"P5\n2 1\n100\n\x00\xc8", "must lie in 0..100"),  # reads as 2.0
    ],
)
def test_pgm_rejects_samples_outside_maxval(data, message):
    with pytest.raises(DataFormatError, match=message):
        read_pgm(data)


@pytest.mark.parametrize(
    "data, message",
    [
        (b"P5\n3_2 1\n255\n" + bytes(32), "malformed PGM header"),  # read as width 32
        (b"P5\n2 1\n2_55\n\x00\x00", "malformed PGM header"),
        (b"P2\n\xef\xbc\x92 1\n255\n0 0\n", "malformed PGM header"),  # fullwidth 2
        (b"P2\n2 1\n255\n1_0 0\n", "bad P2 pixel value"),  # read as 10
        (b"P5\n+1 1\n255\n\x10", "malformed PGM header"),  # read as width 1
        (b"P2\n2 1\n255\n+1 0\n", "bad P2 pixel value"),  # read as 1
    ],
    ids=["width", "maxval", "fullwidth-width", "p2-sample", "plus-width", "p2-plus-sample"],
)
def test_pgm_refuses_numbers_only_python_reads(data, message):
    with pytest.raises(DataFormatError, match=message):
        read_pgm(data)


def test_load_frame_dir_error_names_the_file(tmp_path):
    frames = [np.zeros((4, 4))] * 3
    write_frame_dir(frames, tmp_path)
    (tmp_path / "frame_000001.pgm").write_bytes(b"P5\n4 4\n255\nxx")
    with pytest.raises(DataFormatError, match="^frame_000001.pgm: PGM pixel payload truncated$"):
        list(load_frame_dir(tmp_path))


def test_frame_dir_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    frames = [rng.uniform(0, 1, (8, 12)) for _ in range(4)]
    write_frame_dir(frames, tmp_path / "frames")
    _, loaded = zip(*load_frame_dir(tmp_path / "frames"))
    assert len(loaded) == 4
    for a, b in zip(frames, loaded):
        assert np.max(np.abs(a - b)) <= 0.5 / 255 + 1e-12


def test_load_frame_dir_empty(tmp_path):
    (tmp_path / "empty").mkdir()
    with pytest.raises(DataFormatError):
        load_frame_dir(tmp_path / "empty")


# ---------------------------------------------------------------------------
# trace CSV and reports

def test_trace_csv_shape():
    trace = run_convoy(ConvoyConfig(duration=0.5, seed=2))
    text = format_trace_csv(trace)
    lines = text.strip().split("\n")
    assert lines[0].startswith("t,leader_x")
    assert len(lines) == 1 + len(trace.records)
    assert all(line.count(",") == lines[0].count(",") for line in lines)


def test_trace_csv_matches_cell_by_cell_oracle():
    # a noisy run with an occlusion, then a record by hand for each (true box,
    # detection) presence pair, with cells that print as -0.000000
    trace = run_convoy(ConvoyConfig(duration=6.0, seed=2, occlusions=((1.0, 2.0),)))
    box = BoundingBox(0.25, 0.0, 0.125, 0.2, 0.7)
    pose = Pose((-0.0, -4e-7, 1e-7), yaw=-1e-9)
    command = ControlCommand(-0.0, -4.9e-7, 2.5)
    by_hand = [
        replace(trace.records[-1], t=t, leader=pose, follower=pose, true_box=tb, detection=db,
                command=command)
        for t, (tb, db) in enumerate([(box, None), (None, box), (None, None), (box, box)], 7)
    ]
    # one detection and one command object again after others (A, None, A
    # and A, B, A), and a box and a command equal to `box` and `command` that
    # print otherwise
    other_box = BoundingBox(0.5, 0.25, 0.25, 0.5, 0.3)
    signed_box = BoundingBox(0.25, -0.0, 0.125, 0.2, 0.7)
    other_command = ControlCommand(0.125, 0.25, -0.375)
    plus_zero = ControlCommand(0.0, -4.9e-7, 2.5)
    assert signed_box == box and plus_zero == command
    reused = [
        replace(by_hand[0], t=t, detection=db, command=cmd)
        for t, (db, cmd) in enumerate([
            (box, command), (None, plus_zero), (box, command), (signed_box, plus_zero),
            (box, other_command), (other_box, command), (box, other_command),
        ], 11)
    ]
    records = trace.records + by_hand + [replace(r, t=-0.0) for r in by_hand] + reused
    text = format_trace_csv(SimTrace(records))
    assert text == TRACE_HEADER + "\n" + "".join(trace_row_cells(r) + "\n" for r in records)
    assert "-0.000000" in text


def test_metrics_rendering_undefined_cells():
    report = MetricsReport(4, 0, 4, 0, 0, 1.0, None, None, None, None)
    text = format_metrics_text(report)
    assert "—" in text
    csv = format_metrics_csv(report)
    assert ",,," in csv  # empty undefined fields


def test_area_and_bias_histograms_count_the_same_true_positives():
    # the reader lets a box reach 1e-6 past the image edge, so an area can
    # pass 1; it counts in the last bin of both reports
    annotations = parse_annotations(
        "frame,present,x,y,w,h\n0,1,0,0,1.0000000005,1\n1,1,0.2,0.2,0.4,0.4\n"
    )
    predictions = parse_predictions(
        "frame,confidence,x,y,w,h\n0,0.9,0,0,1,1\n1,0.9,0.2,0.2,0.4,0.4\n"
    )
    hist = histogram_report(classify_frames(annotations, predictions, 0.5))
    assert hist.tp_by_area == (0, 1, 0, 0, 0, 0, 0, 0, 0, 1)
    area_counts = [row.split(",")[2] for row in format_area_histogram_csv(hist).splitlines()[1:]]
    bias_counts = [row.split(",")[2] for row in format_bias_histogram_csv(hist).splitlines()[1:]]
    assert area_counts == bias_counts
