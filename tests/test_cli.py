import contextlib
import hashlib
import io
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import uwconvoy
from uwconvoy.cli import run_cli
from uwconvoy.fileio import (
    format_annotations,
    format_predictions,
    parse_config,
    parse_predictions,
    write_frame_dir,
)
from uwconvoy.geometry import Annotation, BoundingBox
from uwconvoy.mdpm import MdpmConfig
from uwconvoy.sim import FootageScene, Pose, TargetModel, run_convoy

from oracles import one_line_write_pgm, record_walk_samples, serial_footage


@pytest.fixture
def eval_files(tmp_path):
    annotations = [
        Annotation(i, True, BoundingBox(0.2, 0.2, 0.4, 0.4)) for i in range(5)
    ] + [Annotation(i, False) for i in range(5, 8)]
    predictions = [(i, BoundingBox(0.2, 0.2, 0.4, 0.4, 0.9)) for i in range(5)] + [
        (i, None) for i in range(5, 8)
    ]
    ann_path = tmp_path / "ann.csv"
    pred_path = tmp_path / "pred.csv"
    ann_path.write_text(format_annotations(annotations))
    pred_path.write_text(format_predictions(predictions))
    return ann_path, pred_path


def test_eval_threshold(eval_files, tmp_path, capsys):
    ann_path, pred_path = eval_files
    report_dir = tmp_path / "report"
    code = run_cli(
        [
            "eval",
            "--annotations", str(ann_path),
            "--predictions", str(pred_path),
            "--threshold", "0.5",
            "--fps", "10",
            "--report-dir", str(report_dir),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "accuracy" in out and "1.0000" in out
    assert (report_dir / "metrics.csv").exists()
    assert (report_dir / "area_histogram.csv").exists()
    assert (report_dir / "center_bias.csv").exists()
    assert (report_dir / "negative_runs.csv").exists()
    metrics = (report_dir / "metrics.csv").read_text().strip().split("\n")[1]
    assert metrics.startswith("8,5,3,0,0,")


def test_eval_matches_library_metrics_exactly(tmp_path, capsys):
    from uwconvoy.evaluation import classify_frames, metrics_summary
    from uwconvoy.fileio import format_metrics_csv

    annotations = [
        Annotation(i, True, BoundingBox(0.2, 0.2, 0.4, 0.4)) for i in range(5)
    ] + [
        Annotation(5, False), Annotation(6, False),
        Annotation(7, True, BoundingBox(0.2, 0.2, 0.4, 0.4)),
        Annotation(8, True, BoundingBox(0.2, 0.2, 0.4, 0.4)),
        Annotation(9, False),
    ]
    predictions = (
        [(i, BoundingBox(0.2, 0.2, 0.4, 0.4, 0.9)) for i in range(5)]
        + [(5, None), (6, None), (7, BoundingBox(0.2, 0.2, 0.4, 0.4, 0.3)), (8, None)]
        + [(9, BoundingBox(0.5, 0.5, 0.2, 0.2, 0.8))]
    )
    ann_path, pred_path = tmp_path / "a.csv", tmp_path / "p.csv"
    ann_path.write_text(format_annotations(annotations))
    pred_path.write_text(format_predictions(predictions))
    report_dir = tmp_path / "rep"
    code = run_cli(
        [
            "eval",
            "--annotations", str(ann_path),
            "--predictions", str(pred_path),
            "--threshold", "0.5",
            "--report-dir", str(report_dir),
        ]
    )
    assert code == 0
    expected = format_metrics_csv(
        metrics_summary(classify_frames(annotations, predictions, 0.5))
    )
    assert (report_dir / "metrics.csv").read_text() == expected
    out = capsys.readouterr().out
    assert "0.7000" in out  # accuracy from the engineered confusion counts


def test_eval_auto_threshold(eval_files, capsys):
    ann_path, pred_path = eval_files
    code = run_cli(
        [
            "eval",
            "--annotations", str(ann_path),
            "--predictions", str(pred_path),
            "--auto-threshold",
        ]
    )
    assert code == 0
    assert "selected threshold: 0.900000" in capsys.readouterr().out


@pytest.mark.parametrize(
    "extra, code",
    [
        (["--threshold", "nan"], 1),
        (["--threshold", "inf"], 1),
        (["--threshold", "0.5", "--fps", "0"], 2),
        (["--threshold", "0.5", "--fps", "nan"], 1),
        (["--threshold", "2"], 1),  # confidences lie in [0, 1]
        (["--threshold", "-1"], 1),
        (["--threshold", "1.000001"], 1),
        # numbers only Python reads: float() takes them as 0.15, 15 and 15
        (["--threshold", "0.1_5"], 1),
        (["--threshold", "0.5", "--fps", "1_5"], 1),
        (["--threshold", "0.5", "--fps", "\uff11\uff15"], 1),
        (["--threshold", "+0.5"], 1),
        (["--threshold", "0.5", "--fps", " 15"], 1),
    ],
)
def test_eval_rejects_meaningless_threshold_and_fps(eval_files, capsys, extra, code):
    ann_path, pred_path = eval_files
    argv = ["eval", "--annotations", str(ann_path), "--predictions", str(pred_path)]
    assert run_cli(argv + extra) == code
    assert capsys.readouterr().err


def _write_eval_pair(directory: Path, rows) -> tuple[Path, Path]:
    """Annotation and prediction files in which each (frame, present) row is
    a TP when present and a TN when not."""
    ann_path, pred_path = directory / "ann.csv", directory / "pred.csv"
    ann_path.write_text("frame,present,x,y,w,h\n" + "".join(
        f"{f},1,0.2,0.2,0.4,0.4\n" if present else f"{f},0,,,,\n" for f, present in rows
    ))
    pred_path.write_text("frame,confidence,x,y,w,h\n" + "".join(
        f"{f},0.9,0.2,0.2,0.4,0.4\n" if present else f"{f},0.0,,,,\n" for f, present in rows
    ))
    return ann_path, pred_path


# four tracks of five TP frames, one TN frame apart
FOUR_TRACKS = [(f, f % 6 != 5) for f in range(23)]


@pytest.mark.parametrize(
    "rows, extra, message",
    [
        # frame gaps of TPs and of TNs do not fit a float
        ([(0, True), (1, False), (10**400, True), (10**400 + 1, False)],
         ["--fps", "15"], "line 4: frame index above 2**53"),
        ([(0, True), (1, False), (10**400, True), (10**400 + 1, False)],
         ["--report-dir", "report"], "line 4: frame index above 2**53"),
        # durations of 1e308 s, whose sum overflows
        (FOUR_TRACKS, ["--fps", "5e-308"], "fps 5e-308 is so small"),
        # each duration overflows
        (FOUR_TRACKS, ["--fps", "5e-324"], "fps 4.94066e-324 is so small"),
    ],
    ids=["huge-frame-fps", "huge-frame-report-dir", "fps-5e-308", "fps-5e-324"],
)
def test_eval_refuses_numbers_past_the_float_range(
    tmp_path, capsys, monkeypatch, rows, extra, message
):
    monkeypatch.chdir(tmp_path)  # where --report-dir report would go
    ann_path, pred_path = _write_eval_pair(tmp_path, rows)
    argv = ["eval", "--annotations", str(ann_path), "--predictions", str(pred_path)]
    assert run_cli(argv + ["--threshold", "0.5"] + extra) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert message in err
    assert not (tmp_path / "report").exists()


@pytest.fixture(scope="module")
def four_track_files(tmp_path_factory):
    return _write_eval_pair(tmp_path_factory.mktemp("eval"), FOUR_TRACKS)


@settings(max_examples=200, deadline=None)
@example(fps=5e-324)
@example(fps=2.2250738585072014e-308)
@example(fps=sys.float_info.max)
@given(fps=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
def test_eval_fps_either_scores_or_exits_2(four_track_files, fps):
    ann_path, pred_path = four_track_files
    argv = ["eval", "--annotations", str(ann_path), "--predictions", str(pred_path),
            "--threshold", "0.5", "--fps", repr(fps)]
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()):
        code = run_cli(argv)
    assert code in (0, 2)
    if code == 2:
        assert out.getvalue() == ""


# tracks of one, two and four TP frames, so their durations have a spread
UNEVEN_TRACKS = [(f, f not in (1, 4, 9)) for f in range(10)]


@pytest.mark.parametrize("fps", ["1e-300", "1e-200", "1e-9", "4e-9", "15"])
def test_eval_stdout_lines_stay_short_at_any_fps(tmp_path, capsys, fps):
    # track durations of 1e9 s and more print in exponent form
    ann_path, pred_path = _write_eval_pair(tmp_path, UNEVEN_TRACKS)
    argv = ["eval", "--annotations", str(ann_path), "--predictions", str(pred_path),
            "--threshold", "0.5", "--fps", fps]
    assert run_cli(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("track")] and all(
        len(line) < 60 for line in lines
    ), lines


def test_usage_errors():
    assert run_cli([]) == 1
    assert run_cli(["bogus"]) == 1
    assert run_cli(["eval", "--annotations", "x"]) == 1  # missing required args


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(Path(uwconvoy.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "uwconvoy.cli"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("usage: uwconvoy")


def test_data_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a,header\n")
    code = run_cli(
        ["eval", "--annotations", str(bad), "--predictions", str(bad), "--threshold", "0.5"]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_eval_names_the_file_that_holds_a_bad_row(eval_files, capsys):
    # both files have six fields a row, so only the path tells them apart
    ann_path, pred_path = eval_files
    lines = pred_path.read_text().splitlines()
    lines[1] = lines[1].rsplit(",", 1)[0]
    pred_path.write_text("\n".join(lines) + "\n")
    argv = ["eval", "--annotations", str(ann_path), "--predictions", str(pred_path)]
    assert run_cli(argv + ["--threshold", "0.5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {pred_path}: line 2: expected 6 fields, got 5")
    assert str(ann_path) not in err


@pytest.mark.parametrize("mode", [["--threshold", "0.5"], ["--auto-threshold"]])
@pytest.mark.parametrize("empty", ["annotations", "predictions", "both"])
def test_eval_refuses_an_input_with_no_frame_rows_by_its_name(tmp_path, capsys, mode, empty):
    ann_path, pred_path = _write_eval_pair(tmp_path, [(0, True), (1, False)])
    if empty in ("annotations", "both"):
        ann_path.write_text("frame,present,x,y,w,h\n")
    if empty in ("predictions", "both"):
        pred_path.write_text("frame,confidence,x,y,w,h\n\n")
    argv = ["eval", "--annotations", str(ann_path), "--predictions", str(pred_path)]
    assert run_cli(argv + mode) == 2
    out, err = capsys.readouterr()
    named = pred_path if empty == "predictions" else ann_path
    assert (out, err) == ("", f"error: {named}: no frame rows\n")


def test_eval_reads_a_confidence_of_minus_zero_as_zero(tmp_path, capsys):
    ann_path, pred_path = _write_eval_pair(tmp_path, [(0, True), (1, True)])
    pred_path.write_text(
        "frame,confidence,x,y,w,h\n0,-0.0,0.2,0.2,0.4,0.4\n1,-0.000000,0.2,0.2,0.4,0.4\n"
    )
    argv = ["eval", "--annotations", str(ann_path), "--predictions", str(pred_path)]
    assert run_cli(argv + ["--auto-threshold"]) == 0
    assert capsys.readouterr().out.startswith("selected threshold: 0.000000\n")


@pytest.mark.parametrize("flag", ["--config", "--annotations", "--predictions"])
def test_byte_that_is_not_utf8_names_the_input_and_its_line(eval_files, tmp_path, capsys, flag):
    ann_path, pred_path = eval_files
    if flag == "--config":
        path = tmp_path / "run.cfg"
        path.write_bytes(b"sim.seed = 3\nsim.duration = 1\n")
        argv = ["sim", "--config", str(path), "--out", str(tmp_path / "trace.csv")]
    else:
        path = ann_path if flag == "--annotations" else pred_path
        argv = ["eval", "--annotations", str(ann_path), "--predictions", str(pred_path)]
        argv += ["--threshold", "0.5"]
    lines = path.read_bytes().split(b"\n")
    lines[2] += b" \xff"
    path.write_bytes(b"\n".join(lines))
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: line 3: 'utf-8' codec can't decode byte 0xff")


def test_text_inputs_are_read_as_utf8_whatever_the_locale(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("# réglage\nsim.duration = 2\n", encoding="utf-8")
    argv = ["servo-sim", "--config", str(config), "--out"]
    _run_in_process(argv + [str(tmp_path / "parent.csv")])
    # the C locale without coercion or UTF-8 mode: the locale encoding is ASCII
    locale = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    env = dict(os.environ, PYTHONPATH=str(Path(uwconvoy.__file__).parents[1]), **locale)
    subprocess.run(
        [sys.executable, "-m", "uwconvoy.cli", *argv, str(tmp_path / "child.csv")],
        env=env, check=True, capture_output=True,
    )
    assert (tmp_path / "child.csv").read_bytes() == (tmp_path / "parent.csv").read_bytes()


@pytest.mark.parametrize("flag", ["--config", "--annotations", "--predictions"])
def test_byte_order_mark_is_read_past(eval_files, tmp_path, capsys, flag):
    ann_path, pred_path = eval_files
    if flag == "--config":
        path = tmp_path / "run.cfg"
        path.write_bytes(b"sim.seed = 3\nsim.duration = 1\n")
        argv = ["sim", "--config", str(path), "--out", str(tmp_path / "trace.csv")]
        output = tmp_path / "trace.csv"
    else:
        path = ann_path if flag == "--annotations" else pred_path
        argv = ["eval", "--annotations", str(ann_path), "--predictions", str(pred_path)]
        argv += ["--threshold", "0.5", "--report-dir", str(tmp_path / "report")]
        output = tmp_path / "report" / "metrics.csv"

    def run():
        assert run_cli(argv) == 0
        return capsys.readouterr().out, output.read_bytes()

    plain = path.read_bytes()
    without = run()
    path.write_bytes(b"\xef\xbb\xbf" + plain)
    assert run() == without
    # a bad byte after the mark names its line as in the file without it
    lines = plain.split(b"\n")
    lines[2] += b" \xff"
    path.write_bytes(b"\xef\xbb\xbf" + b"\n".join(lines))
    assert run_cli(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: line 3: 'utf-8' codec can't")


def test_missing_file_is_data_error(tmp_path):
    code = run_cli(
        [
            "eval",
            "--annotations", str(tmp_path / "nope.csv"),
            "--predictions", str(tmp_path / "nope.csv"),
            "--threshold", "0.5",
        ]
    )
    assert code == 2


def _unwritable_or_unreadable_path_argv(tmp_path, case):
    """argv that points one subcommand at a path the OS refuses, and that path."""
    config = tmp_path / "run.cfg"
    config.write_text("sim.duration = 1\n")
    missing = tmp_path / "missing" / "out.csv"
    existing_file = tmp_path / "taken"
    existing_file.write_text("")
    writable = tmp_path / "out.csv"
    if case == "mdpm --frames missing":
        path = tmp_path / "no_frames"
        return ["mdpm", "--frames", str(path), "--fps", "15", "--out", str(writable)], path
    if case == "mdpm --frames with a directory frame":
        path = tmp_path / "frames" / "frame_000000.pgm"
        path.mkdir(parents=True)
        return ["mdpm", "--frames", str(path.parent), "--fps", "15", "--out", str(writable)], path
    if case == "mdpm --out missing dir":
        frame_dir = _noise_frame_dir(tmp_path, 12)
        return ["mdpm", "--frames", str(frame_dir), "--fps", "15", "--out", str(missing)], missing
    if case == "sim --out missing dir":
        return ["sim", "--config", str(config), "--out", str(missing)], missing
    if case == "servo-sim --out missing dir":
        return ["servo-sim", "--config", str(config), "--out", str(missing)], missing
    if case == "servo-sim --out existing dir":
        existing_dir = tmp_path / "taken_dir"
        existing_dir.mkdir()
        return ["servo-sim", "--config", str(config), "--out", str(existing_dir)], existing_dir
    if case == "sim --frames-out existing file":
        argv = ["sim", "--config", str(config), "--out", str(tmp_path / "trace.csv")]
        return argv + ["--frames-out", str(existing_file)], existing_file
    if case == "sim --frames-out dir holding frames":
        frame_dir = _noise_frame_dir(tmp_path, 1)
        argv = ["sim", "--config", str(config), "--out", str(tmp_path / "trace.csv")]
        return argv + ["--frames-out", str(frame_dir)], frame_dir
    if case == "sim --annotations-out missing dir":
        argv = ["sim", "--config", str(config), "--out", str(tmp_path / "trace.csv")]
        argv += ["--frames-out", str(tmp_path / "footage"), "--annotations-out", str(missing)]
        return argv, missing
    if case == "sim --annotations-out existing dir":
        existing_dir = tmp_path / "taken_dir"
        existing_dir.mkdir()
        argv = ["sim", "--config", str(config), "--out", str(tmp_path / "trace.csv")]
        argv += ["--frames-out", str(tmp_path / "footage"), "--annotations-out", str(existing_dir)]
        return argv, existing_dir
    if case == "sim --out existing dir":
        existing_dir = tmp_path / "taken_dir"
        existing_dir.mkdir()
        argv = ["sim", "--config", str(config), "--out", str(existing_dir)]
        return argv + ["--frames-out", str(tmp_path / "footage")], existing_dir
    assert case == "eval --report-dir existing file"
    ann = tmp_path / "ann.csv"
    ann.write_text(format_annotations([Annotation(0, False)]))
    pred = tmp_path / "pred.csv"
    pred.write_text(format_predictions([(0, None)]))
    argv = ["eval", "--annotations", str(ann), "--predictions", str(pred), "--threshold", "0.5"]
    return argv + ["--report-dir", str(existing_file)], existing_file


@pytest.mark.parametrize(
    "case",
    [
        "mdpm --frames missing",
        "mdpm --frames with a directory frame",
        "mdpm --out missing dir",
        "sim --out missing dir",
        "servo-sim --out missing dir",
        "servo-sim --out existing dir",
        "sim --frames-out existing file",
        "sim --frames-out dir holding frames",
        "sim --annotations-out missing dir",
        "sim --annotations-out existing dir",
        "sim --out existing dir",
        "eval --report-dir existing file",
    ],
)
def test_path_the_os_refuses_is_data_error(tmp_path, capsys, monkeypatch, case):
    # a sim or servo-sim refusal comes before the first tick
    monkeypatch.setattr("uwconvoy.cli.run_convoy", lambda config: pytest.fail("the run started"))
    argv, path = _unwritable_or_unreadable_path_argv(tmp_path, case)
    before = sorted(tmp_path.rglob("*"))
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert str(path) in captured.err
    # the refusal comes before any output: no trace, no frames, no report
    assert captured.out == ""
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize(
    "flag, spelling",
    [
        ("--annotations-out", "trace.csv"),
        ("--frames-out", "trace.csv"),
        ("--annotations-out", "footage/../trace.csv"),
    ],
    ids=["annotations", "frames", "annotations through .."],
)
def test_two_outputs_on_one_path_exit_2(tmp_path, capsys, monkeypatch, flag, spelling):
    # refused before the first tick: neither output would hold what it names
    monkeypatch.setattr("uwconvoy.cli.run_convoy", lambda config: pytest.fail("the run started"))
    config = tmp_path / "run.cfg"
    config.write_text("sim.duration = 1\n")
    before = sorted(tmp_path.rglob("*"))
    second = str(tmp_path / spelling)
    argv = ["sim", "--config", str(config), "--out", str(tmp_path / "trace.csv"), flag, second]
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert f"error: {second} is named for two outputs" in captured.err
    assert captured.out == ""
    assert sorted(tmp_path.rglob("*")) == before


def test_sim_deterministic_outputs(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("sim.duration = 2\nsim.frame_rate = 15\n")

    def run(tag):
        out = tmp_path / f"trace_{tag}.csv"
        frames = tmp_path / f"frames_{tag}"
        code = run_cli(
            [
                "sim",
                "--config", str(config),
                "--out", str(out),
                "--seed", "7",
                "--frames-out", str(frames),
            ]
        )
        assert code == 0
        frame_files = sorted(frames.iterdir())
        return out.read_bytes(), [f.read_bytes() for f in frame_files]

    trace_a, frames_a = run("a")
    trace_b, frames_b = run("b")
    assert trace_a == trace_b
    assert len(frames_a) > 0
    assert frames_a == frames_b


def test_sim_footage_is_the_serial_render_with_gait_jitter_and_current(tmp_path):
    # the goldens pin gait jitter 0 only; jitter draws come from the stream
    # that draws the pixel noise, so they must keep its order
    from uwconvoy.sim import _run_rng  # white-box: the run's footage stream

    text = "sim.seed = 3\nsim.duration = 3\nsim.gait_jitter = 0.3\nsim.current_y = 0.03\n"
    config_path, frames = tmp_path / "run.cfg", tmp_path / "frames"
    config_path.write_text(text)
    before = threading.active_count()
    argv = ["sim", "--config", str(config_path), "--out", str(tmp_path / "trace.csv")]
    assert run_cli(argv + ["--frames-out", str(frames)]) == 0
    assert threading.active_count() == before
    config = parse_config(text)
    trace = run_convoy(config)
    scene = FootageScene(camera=config.camera, target=config.target, rng=_run_rng(3, 1))
    samples = record_walk_samples(trace.records, config.frame_rate)
    expected = serial_footage(scene, samples, config.frame_rate)
    assert len(expected) == 45
    assert [p.read_bytes() for p in sorted(frames.iterdir())] == list(
        map(one_line_write_pgm, expected)
    )


def test_sim_frame_write_error_exits_2_and_keeps_the_frames_before(tmp_path, capsys, monkeypatch):
    write_pgm = uwconvoy.fileio.write_pgm
    calls = []

    def fails_on_the_fifth(frame):
        calls.append(None)
        if len(calls) == 5:
            raise OSError("No space left on device")
        return write_pgm(frame)

    monkeypatch.setattr("uwconvoy.fileio.write_pgm", fails_on_the_fifth)
    config, frames = tmp_path / "run.cfg", tmp_path / "frames"
    config.write_text("sim.seed = 3\nsim.duration = 2\n")
    before = threading.active_count()
    argv = ["sim", "--config", str(config), "--out", str(tmp_path / "trace.csv")]
    assert run_cli(argv + ["--frames-out", str(frames)]) == 2
    assert threading.active_count() == before
    assert capsys.readouterr().err == "error: No space left on device\n"
    assert sorted(p.name for p in frames.iterdir()) == [f"frame_{i:06d}.pgm" for i in range(4)]


@pytest.mark.parametrize("seed", ["1_0", "\uff11", "\u0661\u0660", "+10", " 10", "10\t"])
def test_sim_refuses_a_seed_only_python_reads(tmp_path, capsys, seed):
    # int() reads each as 10 or 1
    config, out = tmp_path / "run.cfg", tmp_path / "trace.csv"
    config.write_text("sim.duration = 2\n")
    assert run_cli(["sim", "--config", str(config), "--out", str(out), "--seed", seed]) == 1
    assert f"argument --seed: not a plain number: {seed!r}" in capsys.readouterr().err
    assert not out.exists()


def test_sim_seed_changes_trace(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("sim.duration = 2\n")
    out1, out2, out3, out4 = (tmp_path / f"{name}.csv" for name in "abcd")
    assert run_cli(["sim", "--config", str(config), "--out", str(out1), "--seed", "1"]) == 0
    assert run_cli(["sim", "--config", str(config), "--out", str(out2), "--seed", "2"]) == 0
    assert out1.read_bytes() != out2.read_bytes()
    # the parser is built once per process, and each run parses afresh: a run
    # without --seed takes the config's seed, 0, whatever the run before it
    assert run_cli(["sim", "--config", str(config), "--out", str(out3)]) == 0
    assert run_cli(["sim", "--config", str(config), "--out", str(out4), "--seed", "0"]) == 0
    assert out3.read_bytes() == out4.read_bytes() != out2.read_bytes()
    assert uwconvoy.cli._build_parser() is uwconvoy.cli._build_parser()


def test_mdpm_subcommand(tmp_path):
    # static leader close to the camera, oscillating flippers
    scene = FootageScene(
        target=TargetModel(gait_frequency=2.0),
        rng=np.random.default_rng(4),
    )
    frames = scene.render_sequence(Pose(position=(1.2, 0.0, 0.0)), Pose(), 30, 15.0)
    frame_dir = tmp_path / "frames"
    write_frame_dir(frames, frame_dir)

    out = tmp_path / "detections.csv"
    code = run_cli(["mdpm", "--frames", str(frame_dir), "--fps", "15", "--out", str(out)])
    assert code == 0
    rows = parse_predictions(out.read_text())
    assert len(rows) == 30
    warmup = MdpmConfig().buffer_length - 1
    assert all(box is None for _, box in rows[:warmup])
    hits = [box for _, box in rows[warmup:] if box is not None]
    assert len(hits) > len(rows[warmup:]) * 0.8


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    """Every output of the README pipeline on the 6 s `sim --seed 3` clip
    (90 frames): sim footage and annotations, mdpm predictions, the eval
    stdout and reports, and the servo-sim stdout of the same run."""
    d = tmp_path_factory.mktemp("golden")
    config, servo_config = d / "run.cfg", d / "servo.cfg"
    config.write_text("sim.duration = 6\n")
    servo_config.write_text("sim.duration = 6\nsim.seed = 3\n")
    frames_dir, report_dir = d / "frames", d / "reports"
    argv = {
        "sim": [
            "sim",
            "--config", str(config),
            "--out", str(d / "trace.csv"),
            "--seed", "3",
            "--frames-out", str(frames_dir),
            "--annotations-out", str(d / "annotations.csv"),
        ],
        "mdpm": [
            "mdpm", "--frames", str(frames_dir), "--fps", "15", "--out", str(d / "predictions.csv")
        ],
        "eval": [
            "eval",
            "--annotations", str(d / "annotations.csv"),
            "--predictions", str(d / "predictions.csv"),
            "--auto-threshold",
            "--fps", "15",
            "--report-dir", str(report_dir),
        ],
        "servo-sim": ["servo-sim", "--config", str(servo_config), "--out", str(d / "servo.csv")],
    }
    stdout = {}
    for name, args in argv.items():
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert run_cli(args) == 0
        stdout[name] = out.getvalue()
    frame_files = sorted(frames_dir.iterdir())
    assert len(frame_files) == 90
    return {
        "annotations": (d / "annotations.csv").read_bytes(),
        "frames": b"".join(f.read_bytes() for f in frame_files),
        "predictions": (d / "predictions.csv").read_bytes(),
        "eval_stdout": stdout["eval"].encode(),
        **{
            name: (report_dir / name).read_bytes()
            for name in ("metrics.csv", "area_histogram.csv", "center_bias.csv", "negative_runs.csv")
        },
        "servo_sim_stdout": stdout["servo-sim"].encode(),
    }


# SHA-256 of the predictions that `sim --seed 3` footage (6 s, 90 frames, 81
# boxed) gives through `mdpm --fps 15`; frozen so a refactor of the detector
# has to keep its output bytes.
GOLDEN_PREDICTIONS_SHA256 = "d6805d1c1b2e0b4189127f7002cb7f6a4f459d59b4c2237afbb55dbf3ca89008"


def test_sim_mdpm_predictions_golden_hash(golden_run):
    data = golden_run["predictions"]
    rows = parse_predictions(data.decode())
    assert (len(rows), sum(box is not None for _, box in rows)) == (90, 81)
    assert hashlib.sha256(data).hexdigest() == GOLDEN_PREDICTIONS_SHA256


# SHA-256 of the other golden_run outputs ("frames" is the 90 PGM files
# concatenated in name order; eval selects threshold 0.147306); frozen so a
# rewrite of the renderer, the file writers or the reports has to keep
# their output bytes.
GOLDEN_PIPELINE_SHA256 = {
    "annotations": "82a43311d644545b13868ed72f9095a5327bab112fa687785a353eab130a0a77",
    "frames": "409b50f54ea520462427beef94fd70dbb4e5c236ac08c9fb9689973b3e88e8f6",
    "eval_stdout": "71e66a98466d033cec7ffe031db7c85af684c4548919263e082b0214d3718530",
    "metrics.csv": "c6a9478ebea2a3505a2df381064d6df4363048e1bfdff3d6ad76aa86737d2b98",
    "area_histogram.csv": "042831447abae07f3436877c4965462bb2c66748eac95d4b27378065160e6fd4",
    "center_bias.csv": "cda082992bfad5029f93509a978af9b043b0e6645d7a31816954fdd449606ebf",
    "negative_runs.csv": "17bd92d6b0eab108308af9a1293b1eb0ab741c30ebd4e06130633bbe06bf6ab9",
    "servo_sim_stdout": "30b4a01bc43e3d759704713ccbf2de205e5914cbda1e34ef17ff96c7f128d41a",
}


@pytest.mark.parametrize("output", sorted(GOLDEN_PIPELINE_SHA256))
def test_sim_pipeline_golden_hash(golden_run, output):
    assert hashlib.sha256(golden_run[output]).hexdigest() == GOLDEN_PIPELINE_SHA256[output]


# SHA-256 of the `sim --seed 3` trace CSV (6 s) for each leader script, and
# of a 10 s forward run with a water current and an occlusion longer than the
# 2 s loss timeout; frozen so a rewrite of the leader trajectory, the drift or
# the lost-target stop has to keep its output bytes.
GOLDEN_TRACE_SHA256 = {
    "forward": "d13bcd762b662b6adcf6f76f3f9e3467754ace41ee06c26e09856c5caa6eef41",
    "turn_in_place": "9447d9de6ac7aaabd3146f11589d06095920a19b244f2d8eaf863c21df0adfb9",
    "depth_change": "75f21bc249d3e2cbca06ebabd6e12ef9dfe80b9bfbeb2b183ed686bbcc6d441e",
    "current_and_occlusion": "70897cbb3430c0c9e360c789821cd2fc3cea98d584aa1c2f64b17583fc1ea0f0",
}
GOLDEN_TRACE_CONFIGS = {
    **{
        script: f"sim.duration = 6\nsim.script = {script}\n"
        for script in ("forward", "turn_in_place", "depth_change")
    },
    "current_and_occlusion": (
        "sim.duration = 10\nsim.occlusions = 3:6\nsim.current_y = 0.04\nsim.current_z = -0.01\n"
    ),
}


@pytest.mark.parametrize("run", sorted(GOLDEN_TRACE_SHA256))
def test_sim_trace_golden_hash(tmp_path, run):
    config = tmp_path / "run.cfg"
    config.write_text(GOLDEN_TRACE_CONFIGS[run])
    trace = tmp_path / "trace.csv"
    assert run_cli(
        ["sim", "--config", str(config), "--out", str(trace), "--seed", "3"]
    ) == 0
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == GOLDEN_TRACE_SHA256[run]


def _portability_outputs(directory: Path, run) -> dict[str, bytes | str]:
    """Outputs of the 60 s forward runs at seeds 1 and 0 and of a 20 s
    `sim --frames-out` -> `mdpm` -> `eval --auto-threshold` pipeline at
    seed 3, and the stdout of `eval` and of `servo-sim` on the 60 s config,
    each command given to run(argv), which returns its stdout."""
    long_run, short_run = directory / "60s.cfg", directory / "20s.cfg"
    long_run.write_text("sim.duration = 60\n")
    short_run.write_text("sim.duration = 20\n")
    frames, report = directory / "frames", directory / "report"
    stdout = [
        run([str(arg) for arg in argv])
        for argv in (
            ["sim", "--config", long_run, "--out", directory / "seed1.csv", "--seed", "1"],
            ["sim", "--config", long_run, "--out", directory / "seed0.csv", "--seed", "0"],
            [
                "sim", "--config", short_run, "--out", directory / "trace.csv", "--seed", "3",
                "--frames-out", frames, "--annotations-out", directory / "truth.csv",
            ],
            ["mdpm", "--frames", frames, "--fps", "15", "--out", directory / "predictions.csv"],
            [
                "eval", "--annotations", directory / "truth.csv",
                "--predictions", directory / "predictions.csv",
                "--auto-threshold", "--fps", "15", "--report-dir", report,
            ],
            ["servo-sim", "--config", long_run, "--out", directory / "servo.csv"],
        )
    ]
    outputs = {
        name: (directory / name).read_bytes()
        for name in ("seed1.csv", "seed0.csv", "trace.csv", "predictions.csv")
    }
    # eval computes the centre biases as one array operation, and servo-sim
    # its summary with np.mean and np.max
    outputs.update((f.name, f.read_bytes()) for f in sorted(report.iterdir()))
    outputs["frames"] = b"".join(f.read_bytes() for f in sorted(frames.iterdir()))
    outputs["eval stdout"], outputs["servo-sim stdout"] = stdout[-2:]
    return outputs


def _run_in_process(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert run_cli(argv) == 0
    return out.getvalue()


@pytest.fixture(scope="module")
def portability_outputs(tmp_path_factory):
    return _portability_outputs(tmp_path_factory.mktemp("portability"), _run_in_process)


# Each setting once gave other trace bytes: OpenBLAS's Prescott kernels
# round a small matrix product otherwise (seed 1), and numpy's AVX2 tier
# rounds np.exp otherwise (seed 0). A disabled feature the host lacks is
# accepted, so on such a host the second setting tests less.
@pytest.mark.parametrize(
    "setting", [{"OPENBLAS_CORETYPE": "Prescott"}, {"NPY_DISABLE_CPU_FEATURES": "X86_V4"}]
)
def test_outputs_hold_on_other_blas_kernels_and_simd_tiers(
    tmp_path, portability_outputs, setting
):
    env = dict(os.environ, PYTHONPATH=str(Path(uwconvoy.__file__).parents[1]), **setting)

    def in_child(argv):
        return subprocess.run(
            [sys.executable, "-m", "uwconvoy.cli", *argv],
            env=env, check=True, capture_output=True, text=True,
        ).stdout

    got = _portability_outputs(tmp_path, in_child)
    assert [name for name, data in portability_outputs.items() if got[name] != data] == []


# SHA-256 of the footage ("frames": the PGM files concatenated in name order)
# and annotations that `sim --seed 3` renders from a 2 s run at
# `sim.frame_rate = 10`; frozen so the configured frame rate has to keep
# reaching both outputs.
GOLDEN_FRAME_RATE_SHA256 = {
    "frames": "aae378e0a0437e92a74e8580801bff2f47526df67294f21b8660d1fcaa5ef2fe",
    "annotations": "61d0afab40504a32eb2e78398c145cba9a0e44508680f64b4eb7050af46d3114",
}


def test_sim_frame_rate_reaches_footage_and_annotations(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("sim.duration = 2\nsim.frame_rate = 10\n")
    frames_dir, annotations = tmp_path / "frames", tmp_path / "annotations.csv"
    assert run_cli(
        [
            "sim",
            "--config", str(config),
            "--out", str(tmp_path / "trace.csv"),
            "--seed", "3",
            "--frames-out", str(frames_dir),
            "--annotations-out", str(annotations),
        ]
    ) == 0
    frame_files = sorted(frames_dir.iterdir())
    rows = annotations.read_text().splitlines()[1:]
    assert (len(frame_files), len(rows)) == (20, 20)
    outputs = {
        "frames": b"".join(f.read_bytes() for f in frame_files),
        "annotations": annotations.read_bytes(),
    }
    for name, data in outputs.items():
        assert hashlib.sha256(data).hexdigest() == GOLDEN_FRAME_RATE_SHA256[name]


def _noise_frame_dir(tmp_path, count):
    rng = np.random.default_rng(5)
    frames = [rng.uniform(0, 1, (60, 60)) for _ in range(count)]
    frame_dir = tmp_path / "frames"
    write_frame_dir(frames, frame_dir)
    return frame_dir


@pytest.mark.parametrize(
    "fps, code",
    [("nan", 1), ("inf", 1), ("0", 2), ("1_5", 1), ("\uff11\uff15", 1), ("+15", 1)],
)
def test_mdpm_rejects_meaningless_fps(tmp_path, capsys, fps, code):
    frame_dir = _noise_frame_dir(tmp_path, 12)
    out = tmp_path / "detections.csv"
    assert run_cli(["mdpm", "--frames", str(frame_dir), "--fps", fps, "--out", str(out)]) == code
    assert capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "count, fps, message",
    [
        (5, "15", "holds 5 frames"),  # less than one detection buffer
        (9, "15", "holds 9 frames"),
        (9, "5", "--fps 5"),  # the 1-3 Hz band reaches Nyquist
        (12, "5", "--fps 5"),
        (12, "6", "--fps 6"),
    ],
)
def test_mdpm_rejects_input_it_cannot_detect_on(tmp_path, capsys, count, fps, message):
    frame_dir = _noise_frame_dir(tmp_path, count)
    out = tmp_path / "detections.csv"
    assert run_cli(["mdpm", "--frames", str(frame_dir), "--fps", fps, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "sizes, message",
    [
        ([(60, 60)] * 7 + [(60, 90)] + [(60, 60)] * 4,
         "frame_000007.pgm: frame dimensions changed mid-stream: 90x60 after 60x60"),
        ([(20, 20)] * 12, "frame_000000.pgm: frame 20x20 smaller than one 30px sub-window"),
    ],
    ids=["size changes mid-clip", "frame smaller than a sub-window"],
)
def test_mdpm_error_names_the_frame_file(tmp_path, capsys, sizes, message):
    frames = [np.zeros(shape) for shape in sizes]
    frame_dir, out = tmp_path / "frames", tmp_path / "detections.csv"
    write_frame_dir(frames, frame_dir)
    assert run_cli(["mdpm", "--frames", str(frame_dir), "--fps", "15", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_mdpm_names_a_truncated_last_frame_and_writes_nothing(tmp_path, capsys):
    # the frames before it are pushed, but no partial prediction file is left
    frame_dir = _noise_frame_dir(tmp_path, 12)
    last = frame_dir / "frame_000011.pgm"
    last.write_bytes(last.read_bytes()[:-1])
    out = tmp_path / "detections.csv"
    assert run_cli(["mdpm", "--frames", str(frame_dir), "--fps", "15", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: frame_000011.pgm: PGM pixel payload truncated\n"
    assert not out.exists()


@pytest.mark.parametrize("name", ["nodir/p.csv", "frames"])
def test_mdpm_refuses_its_out_path_before_reading_a_frame(tmp_path, capsys, name):
    # the truncated first frame would be named if a frame were read first
    frame_dir = _noise_frame_dir(tmp_path, 12)
    first = frame_dir / "frame_000000.pgm"
    first.write_bytes(first.read_bytes()[:-1])
    out = tmp_path / name
    reason = f"no directory {tmp_path / 'nodir'}" if name == "nodir/p.csv" else "it is a directory"
    assert run_cli(["mdpm", "--frames", str(frame_dir), "--fps", "15", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: cannot write {out}: {reason}\n"


def _traced_peak_mb(argv):
    """Peak of the memory Python and numpy allocate while run_cli(argv) runs."""
    tracemalloc.start()
    try:
        assert run_cli(argv) == 0
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_sim_and_mdpm_memory_stays_flat_in_clip_length(tmp_path):
    # 90 frames of 320x240 are 55 MB as float64 and one frame 0.6 MB, so a
    # bound of 8 MB holds only if the frames stream one at a time
    config = tmp_path / "run.cfg"
    config.write_text("sim.duration = 6\n")
    frames_dir = tmp_path / "frames"
    peaks = {
        "sim": _traced_peak_mb([
            "sim",
            "--config", str(config),
            "--out", str(tmp_path / "trace.csv"),
            "--seed", "3",
            "--frames-out", str(frames_dir),
        ]),
        "mdpm": _traced_peak_mb([
            "mdpm", "--frames", str(frames_dir), "--fps", "15", "--out", str(tmp_path / "p.csv")
        ]),
    }
    assert len(list(frames_dir.iterdir())) == 90
    assert max(peaks.values()) < 8.0, peaks


@pytest.mark.parametrize("command", ["sim", "servo-sim"])
@pytest.mark.parametrize(
    "line, message",
    [
        ("servo.command_rate = 1000", "servo.command_rate 1000 Hz exceeds physics_rate 50 Hz"),
        ("sim.duration = 0", "duration 0 s gives 0 ticks"),
        ("sim.duration = 0.001", "duration 0.001 s gives 0.05 ticks"),
        ("sim.duration = 1e9", "duration 1e+09 s gives 5e+10 ticks"),
        ("sim.frame_rate = 1e9", "frame_rate 1e+09 Hz exceeds physics_rate 50 Hz"),
        ("sim.image_width = 1000000000", "image size 1000000000x240: each side must lie in"),
    ],
    ids=["servo too fast", "zero duration", "too short", "too long", "frames too fast", "too wide"],
)
def test_run_the_loop_cannot_honour_exits_2(tmp_path, capsys, monkeypatch, command, line, message):
    # refused with the config, before the first tick
    monkeypatch.setattr("uwconvoy.cli.run_convoy", lambda config: pytest.fail("the run started"))
    config = tmp_path / "run.cfg"
    config.write_text(f"sim.seed = 3\n{line}\n")
    out = tmp_path / "trace.csv"
    assert run_cli([command, "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}: line 2: ") and message in err
    assert not out.exists()


@pytest.mark.parametrize(
    "text, line, key",
    [
        ("sim.duration = 4\nsim.current_x = 1e308\n", 2, "sim.current_x"),
        ("sim.duration = 4\nsim.script_speed = 1e308\n", 2, "sim.script_speed"),
        ("sim.duration = 4\nsim.script = turn_in_place\nsim.script_rate = 1e308\n", 3,
         "sim.script_rate"),
        ("sim.duration = 4\nservo.forward_speed_limit = 1e308\nservo.speed_gain = 1e308\n", 3,
         "servo.speed_gain"),
        ("sim.current_y = 1e306\nsim.duration = 1000\n", 2, "sim.duration"),
        ("sim.duration = 4\nsim.camera_hfov = 1e-310\n", 2, "sim.camera_hfov"),
    ],
    ids=["current", "leader speed", "leader turn", "follower speed", "duration last", "tiny fov"],
)
def test_config_past_the_float_range_is_refused_with_its_line(
    tmp_path, capsys, monkeypatch, text, line, key
):
    # refused with the config, before the first tick and before any output
    monkeypatch.setattr("uwconvoy.cli.run_convoy", lambda config: pytest.fail("the run started"))
    config = tmp_path / "run.cfg"
    config.write_text(text)
    out, frames = tmp_path / "trace.csv", tmp_path / "frames"
    argv = ["sim", "--config", str(config), "--out", str(out), "--frames-out", str(frames)]
    assert run_cli(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {config}: line {line}: invalid {key}: ")
    assert not out.exists() and not frames.exists()


def test_servo_sim_subcommand(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("sim.duration = 4\nsim.noiseless = 1\n")
    out = tmp_path / "trace.csv"
    code = run_cli(["servo-sim", "--config", str(config), "--out", str(out)])
    assert code == 0
    assert out.exists()
    assert "|dx|" in capsys.readouterr().out


def test_full_pipeline_sim_mdpm_eval(tmp_path, capsys):
    """sim renders annotated footage, mdpm detects, eval scores the output."""
    config = tmp_path / "run.cfg"
    # static leader close enough for strong flipper coverage
    config.write_text(
        "sim.duration = 3\nsim.noiseless = 1\nsim.script_speed = 0.0\n"
        "sim.leader_x = 1.2\nsim.frame_rate = 15\n"
    )
    frames_dir = tmp_path / "frames"
    annotations = tmp_path / "truth.csv"
    assert run_cli(
        [
            "sim",
            "--config", str(config),
            "--out", str(tmp_path / "trace.csv"),
            "--seed", "11",
            "--frames-out", str(frames_dir),
            "--annotations-out", str(annotations),
        ]
    ) == 0

    detections = tmp_path / "detections.csv"
    assert run_cli(
        ["mdpm", "--frames", str(frames_dir), "--fps", "15", "--out", str(detections)]
    ) == 0

    assert run_cli(
        [
            "eval",
            "--annotations", str(annotations),
            "--predictions", str(detections),
            "--threshold", "0.1",
            "--fps", "15",
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "recall" in out and "tracks" in out
