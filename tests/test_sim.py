import dataclasses
import inspect
import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace
from typing import get_args, get_origin, get_type_hints

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import uwconvoy
from uwconvoy import sim
from uwconvoy.fileio import parse_config
from uwconvoy.geometry import Annotation, BoundingBox, box_area, box_center, iou
from uwconvoy.mdpm import MdpmConfig
from uwconvoy.servo import ControlCommand, STOP_COMMAND, ServoConfig
from uwconvoy.sim import (
    CameraModel,
    ConvoyConfig,
    DetectorNoise,
    FootageScene,
    MAX_IMAGE_SIDE,
    MAX_TICKS,
    SCRIPT_PRESETS,
    Pose,
    TargetModel,
    TrajectoryScript,
    leader_trajectory,
    noisy_detector,
    project_bbox,
    run_convoy,
    step_follower,
    trace_footage,
    wrap_angle,
)

from oracles import (
    pose_axes,
    project_rect_per_corner,
    ray_sample_projection,
    record_walk_samples,
    reference_dft_amplitude,
    serial_footage,
    three_branch_leader_trajectory,
    vector_step_follower,
)

CAM = CameraModel()
TARGET = TargetModel()


# ---------------------------------------------------------------------------
# trajectories

def test_forward_script_advances_along_heading():
    start = Pose(position=(1.0, 2.0, -3.0), yaw=0.5)
    pose = leader_trajectory(TrajectoryScript(ControlCommand(forward_speed=0.6), start), 10.0)
    expected = np.array([1.0, 2.0, -3.0]) + pose_axes(start)[0] * 6.0
    assert pose.position == pytest.approx(tuple(expected), abs=1e-12)
    assert pose.yaw == start.yaw


def test_forward_script_matches_the_vector_formula_bit_for_bit():
    # a start coordinate of -0 reads as 0, whatever the sign of the speed
    for speed in (0.6, -0.6, 0.0, -0.0):
        for z in (0.0, -0.0, 1.5):
            start = Pose(position=(-0.0, 2.0, z), yaw=-2.5)
            script = TrajectoryScript(ControlCommand(forward_speed=speed), start)
            for t in (0.0, 1.5):
                pose = leader_trajectory(script, t)
                expected = np.asarray(start.position) + 0.0 + pose_axes(start)[0] * speed * t
                assert np.array(pose.position).tobytes() == expected.tobytes()


def test_turn_script_identity_at_time_zero():
    start = Pose(position=(0.0, 1.0, 0.0), yaw=-0.3)
    assert leader_trajectory(TrajectoryScript(ControlCommand(yaw_rate=0.3), start), 0.0) == start


def test_depth_script_changes_only_z():
    start = Pose(position=(4.0, 5.0, 0.0))
    pose = leader_trajectory(TrajectoryScript(ControlCommand(vertical_speed=-0.1), start), 5.0)
    assert pose.position == pytest.approx((4.0, 5.0, -0.5), abs=1e-12)


def test_leader_trajectory_rejects_negative_time():
    with pytest.raises(ValueError):
        leader_trajectory(TrajectoryScript(ControlCommand(forward_speed=0.5)), -1.0)


# the config key that sets each preset's one velocity
_PRESET_KEYS = {
    "forward": "sim.script_speed",
    "turn_in_place": "sim.script_rate",
    "depth_change": "sim.script_speed",
}
# pi and -pi, one ulp past each, where one wrap gives -pi and only a second
# gives pi, and both zeros
_EDGE_YAWS = (
    math.pi, -math.pi, math.nextafter(math.pi, 4.0), math.nextafter(-math.pi, -4.0), 0.0, -0.0
)
_start_coordinate = st.one_of(st.sampled_from((0.0, -0.0)), st.floats(-1e3, 1e3))


@settings(max_examples=1000, deadline=None)
@example(kind="turn_in_place", value=None, position=(-0.0, -0.0, -0.0),
         yaw=math.nextafter(math.pi, 4.0), t=0.02)
@example(kind="forward", value=-0.0, position=(0.0, -0.0, -0.0), yaw=-math.pi, t=0.0)
# a turn to one ulp above pi, which only a second wrap takes to pi
@example(kind="turn_in_place", value=2.0**-51, position=(2.0, 0.0, 0.0), yaw=math.pi, t=1.0)
@example(kind="depth_change", value=0.0, position=(-0.0, -0.0, -0.0), yaw=math.pi, t=1.5)
@given(
    kind=st.sampled_from(sorted(_PRESET_KEYS)),
    value=st.one_of(st.none(), st.sampled_from((0.0, -0.0)), st.floats(-10.0, 10.0)),
    position=st.tuples(_start_coordinate, _start_coordinate, _start_coordinate),
    yaw=st.one_of(st.sampled_from(_EDGE_YAWS), st.floats(-10.0, 10.0)),
    t=st.one_of(st.just(0.0), st.floats(0.0, 60.0)),
)
def test_leader_motion_equals_the_three_branch_scripts_bit_for_bit(kind, value, position, yaw, t):
    # the script as a config file builds it: the kind, its key if given, the start
    lines = [f"sim.script = {kind}", f"sim.leader_yaw = {yaw!r}"]
    lines += [f"sim.leader_{axis} = {c!r}" for axis, c in zip("xyz", position)]
    if value is not None:
        lines.append(f"{_PRESET_KEYS[kind]} = {value!r}")
    pose = leader_trajectory(parse_config("\n".join(lines)).script, t)
    # a start with a -0 coordinate moves as the start with +0 there did
    start = Pose(tuple(c + 0.0 for c in position), yaw)
    expected_position, expected_yaw = three_branch_leader_trajectory(start, t, kind, value)
    assert [c.hex() for c in pose.position] == [c.hex() for c in expected_position]
    assert pose.yaw.hex() == expected_yaw.hex()


# ---------------------------------------------------------------------------
# follower kinematics

def test_zero_command_is_fixed_point():
    pose = Pose(position=(1.0, -2.0, 0.5), yaw=0.7)
    assert step_follower(pose, STOP_COMMAND, 0.02) == pose


def test_forward_step():
    moved = step_follower(Pose(), ControlCommand(forward_speed=0.5), 1.0)
    assert moved.position == pytest.approx((0.5, 0.0, 0.0), abs=1e-12)


def test_turn_then_forward_rotates_heading():
    pose = step_follower(Pose(), ControlCommand(yaw_rate=math.pi / 2), 1.0)
    assert pose.yaw == pytest.approx(math.pi / 2)
    assert pose.position == (0.0, 0.0, 0.0)
    pose = step_follower(pose, ControlCommand(forward_speed=0.5), 1.0)
    assert pose.position == pytest.approx((0.0, 0.5, 0.0), abs=1e-12)


def test_vertical_speed_moves_z_only():
    moved = step_follower(Pose(), ControlCommand(vertical_speed=-0.2), 0.5)
    assert moved.position == pytest.approx((0.0, 0.0, -0.1), abs=1e-12)


def test_yaw_wraps():
    pose = Pose()
    for _ in range(100):
        pose = step_follower(pose, ControlCommand(yaw_rate=1.0), 1.0)
        assert -math.pi < pose.yaw <= math.pi


def test_step_matches_the_vector_formula_bit_for_bit():
    rng = np.random.default_rng(11)
    cases = [
        # a -0.0 coordinate comes out +0.0, as the vector sum made it
        (Pose(position=(-0.0, -0.0, -0.0), yaw=math.pi), STOP_COMMAND, 0.02),
        (Pose(position=(-0.0, 1.0, -0.0), yaw=-3.0), ControlCommand(forward_speed=0.0), 0.02),
        # a -0.0 height keeps the sign of 0.0 * forward speed, the heading's z
        # term; (yaw rate, forward, vertical speed)
        (Pose(position=(0.0, 0.0, -0.0)), ControlCommand(0.0, 1.0, -0.0), 0.02),
        (Pose(position=(0.0, 0.0, -0.0)), ControlCommand(0.0, -1.0, -0.0), 0.02),
        (Pose(yaw=math.pi), ControlCommand(yaw_rate=1e-9), 0.02),
        # one ulp above pi wraps to -pi, and only a second wrap gives pi
        (Pose(yaw=math.pi), ControlCommand(yaw_rate=2.0**-50, forward_speed=1.0), 0.5),
    ]
    for _ in range(2000):
        pose = Pose(
            position=tuple(rng.uniform(-50.0, 50.0, 3)),
            yaw=rng.uniform(-math.pi, math.pi),
        )
        forward, vertical, yaw_rate = rng.uniform(-2.0, 2.0, 3)
        cmd = ControlCommand(yaw_rate=yaw_rate, forward_speed=forward, vertical_speed=vertical)
        cases.append((pose, cmd, float(rng.choice([0.02, 0.1, 1 / 3, 1.7]))))
    # each case in still water, in still water of drift -0.0 and in a current
    for (pose, cmd, dt), current in zip(cases, rng.uniform(-0.01, 0.01, (len(cases), 3))):
        for drift in ((0.0, 0.0, 0.0), (-0.0, -0.0, -0.0), tuple(current.tolist())):
            position, yaw = vector_step_follower(pose, cmd, dt, drift)
            stepped = step_follower(pose, cmd, dt, drift)
            assert np.array(stepped.position).tobytes() == np.array(position).tobytes()
            assert stepped.yaw == yaw


def test_step_rejects_bad_dt():
    with pytest.raises(ValueError):
        step_follower(Pose(), STOP_COMMAND, 0.0)


def test_wrap_angle_range():
    for a in np.linspace(-20, 20, 401):
        w = wrap_angle(float(a))
        assert -math.pi < w <= math.pi
        assert math.cos(w) == pytest.approx(math.cos(a), abs=1e-9)
        assert math.sin(w) == pytest.approx(math.sin(a), abs=1e-9)


# ---------------------------------------------------------------------------
# projection

def test_projection_dead_ahead_centered():
    leader = Pose(position=(2.0, 0.0, 0.0))
    box = project_bbox(CAM, Pose(), leader, TARGET)
    assert box is not None
    assert box_center(box) == pytest.approx((0.5, 0.5), abs=1e-12)
    # width from the bearing subtended by the half-length at 2 m
    expected_w = 2.0 * math.atan(0.325 / 2.0) / (math.pi / 2.0)
    assert box.w == pytest.approx(expected_w, abs=1e-9)
    assert expected_w == pytest.approx(0.205, abs=5e-4)


def test_vertical_fov_follows_the_image_size():
    # 320/240 is bit-equal to 4/3, so the default projection keeps its bytes
    assert CAM.vertical_fov == CAM.horizontal_fov / (4.0 / 3.0)
    assert CameraModel(image_width=320, image_height=320).vertical_fov == CAM.horizontal_fov


def test_camera_refuses_a_fov_whose_angles_leave_the_float_range():
    with pytest.raises(ValueError, match=r"horizontal_fov 1e-310 outside \[1.43e-304, pi\)"):
        CameraModel(horizontal_fov=1e-310)
    smallest = 2.0 * math.pi * MAX_IMAGE_SIDE / sys.float_info.max
    with pytest.raises(ValueError, match="outside"):
        CameraModel(horizontal_fov=math.nextafter(smallest, 0.0))
    # at the smallest fov and the most elongated images, a box is finite
    for width, height in ((MAX_IMAGE_SIDE, 1), (1, MAX_IMAGE_SIDE)):
        cam = CameraModel(smallest, width, height)
        for position in ((2.0, 0.0, 0.0), (2.0, 0.3, -0.2), (2.0, -50.0, 40.0)):
            project_bbox(cam, Pose(), Pose(position=position), TARGET)


def test_projection_behind_camera_is_none():
    leader = Pose(position=(-2.0, 0.0, 0.0))
    assert project_bbox(CAM, Pose(), leader, TARGET) is None


def test_projection_outside_frustum_is_none():
    leader = Pose(position=(0.5, 30.0, 0.0))
    assert project_bbox(CAM, Pose(), leader, TARGET) is None


def test_projection_matches_ray_sampling_oracle():
    rng = np.random.default_rng(21)
    follower = Pose()
    checked = 0
    while checked < 20:
        leader = Pose(
            position=(
                rng.uniform(1.0, 4.0),
                rng.uniform(-0.8, 0.8),
                rng.uniform(-0.5, 0.5),
            ),
            yaw=rng.uniform(-0.5, 0.5),
        )
        box = project_bbox(CAM, follower, leader, TARGET)
        if box is None:
            continue
        checked += 1
        oracle = ray_sample_projection(
            CAM.horizontal_fov,
            CAM.vertical_fov,
            np.zeros(3),
            *pose_axes(follower),
            np.asarray(leader.position),
            np.asarray(leader.left()),
            np.array([0.0, 0.0, 1.0]),
            TARGET.body_length / 2.0,
            TARGET.body_height / 2.0,
            resolution=81,
        )
        assert oracle is not None
        u0, u1, v0, v1 = oracle
        assert box.x == pytest.approx(max(u0, 0.0), abs=2e-3)
        assert box.y == pytest.approx(max(v0, 0.0), abs=2e-3)
        assert box.x + box.w == pytest.approx(min(u1, 1.0), abs=2e-3)
        assert box.y + box.h == pytest.approx(min(v1, 1.0), abs=2e-3)


def test_projection_output_always_valid_box():
    rng = np.random.default_rng(33)
    for _ in range(200):
        leader = Pose(
            position=tuple(rng.uniform(-3, 5, 3)),
            yaw=rng.uniform(-math.pi, math.pi),
        )
        follower = Pose(
            position=tuple(rng.uniform(-1, 1, 3)),
            yaw=rng.uniform(-math.pi, math.pi),
        )
        box = project_bbox(CAM, follower, leader, TARGET)
        if box is not None:
            assert 0.0 <= box.x <= 1.0 and 0.0 <= box.y <= 1.0
            assert box.x + box.w <= 1.0 + 1e-9
            assert box.y + box.h <= 1.0 + 1e-9


@st.composite
def _projection_poses(draw):
    """A follower and a leader along a bearing from it, above or below the
    eye: ahead, behind (negative reach), at the image edges or past them; or a
    broadside leader whose near corners lie about 1e-9 m ahead of the eye,
    where _project_rect starts to count a corner as behind the camera."""
    if draw(st.booleans()):
        half_w = TARGET.body_length / 2.0
        eps = draw(st.floats(-3e-9, 3e-9))
        return Pose(), Pose((half_w + eps, draw(st.floats(-0.2, 0.2)), 0.0), math.pi / 2)
    position = tuple(draw(st.floats(-2.0, 2.0)) for _ in range(3))
    yaw = draw(st.floats(-math.pi, math.pi))
    reach = draw(st.floats(-2.0, 6.0))
    bearing = yaw + draw(st.floats(-1.2, 1.2))
    rise = draw(st.floats(-1.0, 1.0))
    step = (math.cos(bearing) * math.cos(rise), math.sin(bearing) * math.cos(rise), math.sin(rise))
    leader_position = tuple(p + reach * s for p, s in zip(position, step))
    return Pose(position, yaw), Pose(leader_position, draw(st.floats(-math.pi, math.pi)))


@settings(max_examples=400, deadline=None)
@example(poses=(Pose(), Pose(position=(-2.0, 0.0, 0.0))))  # behind
@example(poses=(Pose(), Pose(position=(0.325 + 1e-9, 0.0, 0.0), yaw=math.pi / 2)))  # 1e-9 edge
@example(poses=(Pose(), Pose(position=(2.0, 0.0, 0.5))))  # above the eye
@example(poses=(Pose(), Pose(position=(1.0, 1.0, 0.0))))  # clipped at the left edge
@example(poses=(Pose(), Pose(position=(1.0, 0.0, -0.75))))  # clipped at the bottom edge
@given(poses=_projection_poses())
def test_projection_matches_per_corner_oracle(poses):
    from uwconvoy.sim import _flipper_box  # white-box: the flipper patch

    follower, leader = poses
    position, left = np.asarray(leader.position), np.asarray(leader.left())
    up = np.array([0.0, 0.0, 1.0])
    half_w, half_h = TARGET.body_length / 2.0, TARGET.body_height / 2.0
    assert project_bbox(CAM, follower, leader, TARGET) == project_rect_per_corner(
        CAM, follower, position, left, up, half_w, half_h
    )
    # the flipper centre as first written, numpy sums of 3-vectors
    center = position + np.array([0.0, 0.0, -sim._FLIPPER_DROP])
    half_w, half_h = sim._FLIPPER_SIZE[0] / 2.0, sim._FLIPPER_SIZE[1] / 2.0
    assert _flipper_box(CAM, follower, leader) == project_rect_per_corner(
        CAM, follower, center, left, up, half_w, half_h
    )


# ---------------------------------------------------------------------------
# footage

def test_flipper_offset_and_gait_phase_are_not_settable():
    assert {"flipper_offset", "flipper_size"}.isdisjoint(
        f.name for f in dataclasses.fields(TargetModel)
    )
    assert sim._FLIPPER_DROP == 0.09 and sim._FLIPPER_SIZE == (0.50, 0.12)
    # the gait phase, the noise and the flipper levels are not settable, and
    # the stream has no default
    parameters = inspect.signature(FootageScene).parameters
    assert list(parameters) == ["camera", "target", "rng"]
    assert parameters["rng"].default is inspect.Parameter.empty


@pytest.mark.parametrize("jitter", [0.0, 0.3])
def test_render_sequence_is_the_serial_render(jitter, monkeypatch):
    from uwconvoy.sim import _frames  # white-box: the frame loop render_sequence uses

    monkeypatch.setattr(sim, "_NOISE_SIGMA", 0.05)

    def scene():
        target = TargetModel(gait_jitter=jitter)
        return FootageScene(target=target, rng=np.random.default_rng(8))

    leader, follower = Pose(position=(1.2, 0.1, 0.05), yaw=0.3), Pose(yaw=0.05)
    body = project_bbox(CAM, follower, leader, TARGET)
    record = SimpleNamespace(leader=leader, follower=follower, true_box=body)
    expected = serial_footage(scene(), [(i, record) for i in range(40)], 15.0)
    got = scene().render_sequence(leader, follower, 40, 15.0)
    assert [f.tobytes() for f in got] == [f.tobytes() for f in expected]
    # the loop's stream, closed after one frame, leaves no worker behind
    frames = _frames(scene(), [(i / 15.0, leader, follower, body) for i in range(40)])
    assert next(frames).tobytes() == expected[0].tobytes()
    frames.close()
    assert [t.name for t in threading.enumerate() if t.name.startswith("uwconvoy-")] == []


def test_render_empty_scene_uniform_background(monkeypatch):
    monkeypatch.setattr(sim, "_NOISE_SIGMA", 0.0)
    scene = FootageScene(rng=np.random.default_rng(0))
    frame = scene.render(Pose(position=(-5.0, 0.0, 0.0)), Pose(), None, scene.background(0.0))
    assert np.all(frame == 0.4)
    assert frame.shape == (240, 320)


def test_render_empty_scene_is_background_plus_one_normal_draw():
    scene = FootageScene(rng=np.random.default_rng(4))
    rng = np.random.default_rng(4)
    rng.uniform(0.0, 2.0 * math.pi)  # the gait phase, the scene's first draw
    for i in range(3):
        frame = scene.render(
            Pose(position=(-5.0, 0.0, 0.0)), Pose(), None, scene.background(i / 15.0)
        )
        expected = np.full((240, 320), 0.4) + rng.normal(0.0, 0.02, (240, 320))
        np.clip(expected, 0.0, 1.0, out=expected)
        assert frame.tobytes() == expected.tobytes()


def test_flipper_mid_value_at_sine_zero_crossing(monkeypatch):
    monkeypatch.setattr(sim, "_NOISE_SIGMA", 0.0)
    scene = FootageScene(rng=np.random.default_rng(5))
    # the phase starts at the scene's first draw; at 2 Hz it reaches 2*pi,
    # where sin = 0, at t = (2*pi - phase0) / (4*pi)
    phase0 = np.random.default_rng(5).uniform(0.0, 2.0 * math.pi)
    leader = Pose(position=(1.2, 0.0, 0.0))
    body = project_bbox(CAM, Pose(), leader, TARGET)
    t = (2.0 * math.pi - phase0) / (4.0 * math.pi)
    frame = scene.render(leader, Pose(), body, scene.background(t))
    lo, hi = sim._FLIPPER_RANGE
    mid = lo + (hi - lo) * 0.5
    assert np.any(np.isclose(frame, mid, atol=1e-12))


def _flipper_series(frames, scene, leader, follower):
    from uwconvoy.sim import _flipper_box  # white-box: flipper patch region

    flipper = _flipper_box(scene.camera, follower, leader)
    x0, x1, y0, y1 = scene._pixel_rect(flipper)
    return np.array([f[y0:y1, x0:x1].mean() for f in frames])


def test_flipper_series_peaks_at_gait_frequency(monkeypatch):
    monkeypatch.setattr(sim, "_NOISE_SIGMA", 0.0)
    scene = FootageScene(rng=np.random.default_rng(0))
    leader, follower = Pose(position=(1.2, 0.0, 0.0)), Pose()
    frames = scene.render_sequence(leader, follower, 150, 15.0)
    series = _flipper_series(frames, scene, leader, follower)
    scan = np.arange(0.5, 5.0, 0.05)
    amps = [reference_dft_amplitude(series, 15.0, f) for f in scan]
    assert scan[int(np.argmax(amps))] == pytest.approx(2.0, abs=0.05)


def test_gait_jitter_requires_monotonic_time():
    scene = FootageScene(target=TargetModel(gait_jitter=0.2), rng=np.random.default_rng(0))
    scene.render(Pose(position=(1.2, 0, 0)), Pose(), None, scene.background(1.0))
    with pytest.raises(ValueError):
        scene.render(Pose(position=(1.2, 0, 0)), Pose(), None, scene.background(0.5))


# ---------------------------------------------------------------------------
# detector noise

def test_noisy_detector_absent_without_fp():
    rng = np.random.default_rng(0)
    noise = DetectorNoise(false_positive_prob=0.0)
    assert noisy_detector(None, rng, noise) is None


def test_noisy_detector_noiseless_identity():
    rng = np.random.default_rng(0)
    true_box = BoundingBox(0.1, 0.2, 0.3, 0.4, 1.0)
    out = noisy_detector(true_box, rng, DetectorNoise.noiseless())
    assert out == BoundingBox(0.1, 0.2, 0.3, 0.4, 1.0)
    assert out.p == 1.0


def test_noisy_detector_center_error_statistics():
    rng = np.random.default_rng(123)
    noise = DetectorNoise()
    true_box = BoundingBox(0.3, 0.3, 0.4, 0.4, 1.0)
    errors = []
    dxs = []
    misses = 0
    n = 10000
    for _ in range(n):
        out = noisy_detector(true_box, rng, noise)
        if out is None:
            misses += 1
            continue
        (tcx, tcy), (ocx, ocy) = box_center(true_box), box_center(out)
        errors.append(math.hypot(ocx - tcx, ocy - tcy))
        dxs.append(ocx - tcx)
    assert np.mean(errors) <= 0.1  # center bias within a tenth of the image
    # per-axis offsets are zero-mean with the configured spread
    k = len(dxs)
    assert abs(np.mean(dxs)) <= 3 * noise.center_sigma / math.sqrt(k)
    assert np.std(dxs) == pytest.approx(noise.center_sigma, rel=0.05)
    # miss rate follows the configured base probability (area 0.16 < 0.2: small regime)
    p = noise.miss_prob_small
    se = math.sqrt(p * (1 - p) / n)
    assert abs(misses / n - p) <= 3 * se


def test_noisy_detector_false_positive_rate():
    rng = np.random.default_rng(7)
    noise = DetectorNoise(false_positive_prob=0.2)
    n = 5000
    fps_ = sum(1 for _ in range(n) if noisy_detector(None, rng, noise) is not None)
    se = math.sqrt(0.2 * 0.8 / n)
    assert abs(fps_ / n - 0.2) <= 3 * se


def _numbers(value):
    """Every number held in value, through dataclasses and tuples."""
    if dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from _numbers(getattr(value, f.name))
    elif isinstance(value, tuple):
        for item in value:
            yield from _numbers(item)
    elif value is not None:
        yield value


def test_trace_holds_plain_floats_after_a_false_positive():
    # the follower loses a turning leader, so the detector fires on nothing
    script = TrajectoryScript(SCRIPT_PRESETS["turn_in_place"])
    records = run_convoy(ConvoyConfig(duration=60.0, seed=3, script=script)).records
    assert any(r.true_box is None and r.detection is not None for r in records)
    assert {type(v) for r in records for v in _numbers(r)} == {float}


def test_noisy_detector_confidence_tracks_iou():
    rng = np.random.default_rng(99)
    noise = DetectorNoise(miss_prob_small=0.0, miss_prob_base=0.0)
    true_box = BoundingBox(0.25, 0.25, 0.5, 0.4, 1.0)
    pairs = []
    for _ in range(2000):
        out = noisy_detector(true_box, rng, noise)
        pairs.append((out.p, iou(out, true_box)))
    conf, overlap = np.array(pairs).T
    r = np.corrcoef(conf, overlap)[0, 1]
    assert r > 0.5


# ---------------------------------------------------------------------------
# closed loop

def _area_at_distance(d: float) -> float:
    box = project_bbox(CAM, Pose(), Pose(position=(d, 0.0, 0.0)), TARGET)
    return box_area(box) if box else 0.0


def _setpoint_distance(desired: float = 0.5) -> float:
    lo, hi = 0.2, 3.0
    for _ in range(80):
        mid = (lo + hi) / 2.0
        if _area_at_distance(mid) > desired:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"duration": 0.0}, "duration 0 s gives 0 ticks at 50 Hz"),
        ({"duration": 0.01}, "duration 0.01 s gives 0.5 ticks"),
        ({"physics_rate": 1e308}, "duration 60 s gives inf ticks at 1e[+]308 Hz"),
        ({"detector_rate": 60.0}, "detector_rate 60 Hz exceeds physics_rate 50 Hz"),
        ({"servo": ServoConfig(command_rate=1000.0)}, "servo.command_rate 1000 Hz exceeds"),
        ({"physics_rate": 5.0}, "detector_rate 7 Hz exceeds physics_rate 5 Hz"),
        ({"duration": 1e9}, "duration 1e[+]09 s gives 5e[+]10 ticks at 50 Hz; a run takes 1 to"),
        ({"duration": (MAX_TICKS + 1) / 50.0}, "duration 20000 s gives 1e[+]06 ticks"),
        ({"frame_rate": 1e9}, "frame_rate 1e[+]09 Hz exceeds physics_rate 50 Hz"),
        ({"current": (1e308, 0.0, 0.0)}, "over duration 60 s the positions and turns"),
        (
            {"script": TrajectoryScript(ControlCommand(forward_speed=1e308), Pose())},
            "may add up to inf, past the float range",
        ),
        (
            {"script": TrajectoryScript(ControlCommand(yaw_rate=1e308), Pose()), "duration": 4.0},
            "over duration 4 s",
        ),
        (
            {"servo": ServoConfig(speed_gain=1e308, forward_speed_limit=1e308)},
            "may add up to inf",
        ),
        (
            {
                "target": TargetModel(body_length=1e308),
                "script": TrajectoryScript(
                    SCRIPT_PRESETS["turn_in_place"], Pose(position=(1e308, 0.0, 0.0))
                ),
            },
            "may add up to inf",
        ),
    ],
    ids=[
        "zero duration", "too short", "too many ticks",
        "detector too fast", "servo too fast", "physics too slow",
        "too long", "one tick too long", "frames too fast",
        "current", "leader speed", "leader turn", "follower speed", "body and leader start",
    ],
)
def test_config_rejects_a_run_its_loop_cannot_honour(fields, message):
    with pytest.raises(ValueError, match=message):
        ConvoyConfig(**fields)


def test_config_allows_the_longest_run_and_fastest_frames():
    ConvoyConfig(duration=MAX_TICKS / 50.0, frame_rate=50.0)


def test_config_refuses_motion_only_at_the_top_of_the_float_range():
    with pytest.raises(ValueError, match="may add up to 1.79769e[+]308"):
        ConvoyConfig(initial_follower=Pose(position=(0.0, -1.797692e308, 0.0)))
    # a coordinate near the float range, and gains past it that the servo clamps
    config = ConvoyConfig(
        duration=4.0,
        script=TrajectoryScript(start_pose=Pose(position=(1.7e308, 0.0, 0.0))),
        servo=ServoConfig(speed_gain=1e308, depth_gain=1e308),
    )
    assert run_convoy(config).records[-1].leader.position[0] == 1.7e308


def test_pose_takes_finite_values_whose_sum_is_not_finite():
    # the pose check sums the coordinates and the yaw first; a sum past the
    # float range must not refuse a pose, nor hide the value at fault
    assert Pose((1e308, 1e308, -0.0), 1e308).position == (1e308, 1e308, -0.0)
    assert Pose((-1e308, -1e308, 0.0), 5.0).position == (-1e308, -1e308, 0.0)
    with pytest.raises(ValueError, match=r"^position \(1e\+308, 1e\+308, inf\) has an element"):
        Pose((1e308, 1e308, math.inf))
    with pytest.raises(ValueError, match="^yaw nan is not finite$"):
        Pose((1e308, 1e308, 0.0), math.nan)


_CONFIG_CLASSES = (ConvoyConfig, CameraModel, TargetModel, DetectorNoise, ServoConfig, MdpmConfig, Pose)


def _nan_cases():
    """nan in each float field of the config dataclasses, and in each
    position of each tuple-of-floats field (its default elsewhere)."""
    for cls in _CONFIG_CLASSES:
        for f in dataclasses.fields(cls):
            hint = get_type_hints(cls)[f.name]
            if hint is float:
                yield pytest.param(cls, f.name, math.nan, id=f"{cls.__name__}-{f.name}")
            elif get_origin(hint) is tuple and set(get_args(hint)) == {float}:
                for i in range(len(f.default)):
                    value = f.default[:i] + (math.nan,) + f.default[i + 1:]
                    yield pytest.param(cls, f.name, value, id=f"{cls.__name__}-{f.name}-{i}")


@pytest.mark.parametrize(
    "cls, name, value",
    [
        *_nan_cases(),
        # the target's sizes must also be finite
        pytest.param(TargetModel, "body_length", math.inf, id="TargetModel-body_length-inf"),
        pytest.param(TargetModel, "body_height", math.inf, id="TargetModel-body_height-inf"),
    ],
)
def test_config_float_field_rejects_nan(cls, name, value):
    with pytest.raises(ValueError, match=name):
        cls(**{name: value})


def test_convoy_equilibrium_with_static_leader():
    d_star = _setpoint_distance()
    cfg = ConvoyConfig(
        duration=10.0,
        script=TrajectoryScript(STOP_COMMAND, Pose(position=(d_star, 0.0, 0.0))),
        detector_noise=DetectorNoise.noiseless(),
    )
    trace = run_convoy(cfg)
    tail = [r.command for r in trace.records if r.t >= 5.0]
    for cmd in tail:
        assert abs(cmd.yaw_rate) < 1e-6
        assert abs(cmd.vertical_speed) < 1e-6
        assert cmd.forward_speed < 1e-6


def test_convoy_deterministic_across_runs():
    cfg = ConvoyConfig(duration=5.0, seed=7)
    assert run_convoy(cfg) == run_convoy(cfg)


def test_convoy_trace_shape_and_invariants():
    cfg = ConvoyConfig(duration=2.0, seed=1)
    trace = run_convoy(cfg)
    assert len(trace.records) == 100  # 2 s at 50 Hz
    times = [r.t for r in trace.records]
    assert all(b > a for a, b in zip(times, times[1:]))
    for r in trace.records:
        assert -math.pi < r.follower.yaw <= math.pi


def test_convoy_occlusion_blinds_detector():
    cfg = ConvoyConfig(
        duration=6.0,
        seed=3,
        occlusions=((2.0, 4.0),),
        detector_noise=DetectorNoise.noiseless(),
    )
    trace = run_convoy(cfg)
    # latched detection goes None at the first detector tick inside the window
    for r in trace.records:
        if 2.2 < r.t < 4.0:
            assert r.detection is None
        if r.t < 2.0:
            assert r.detection is not None


def test_convoy_current_drifts_follower():
    # occlude the whole run so commands stay at stop and only the current acts
    pushed = run_convoy(
        ConvoyConfig(
            duration=2.0,
            detector_noise=DetectorNoise.noiseless(),
            occlusions=((0.0, 100.0),),
            current=(0.0, 0.3, 0.0),
        )
    )
    # the last record holds the state before the final integration step
    expected = 0.3 * (len(pushed.records) - 1) * 0.02
    assert pushed.records[-1].follower.position[1] == pytest.approx(expected, abs=1e-9)


def test_convoy_follows_forward_leader_noiseless():
    cfg = ConvoyConfig(seed=0, detector_noise=DetectorNoise.noiseless())
    trace = run_convoy(cfg)
    for r in trace.records:
        if r.t < 30.0 or r.true_box is None:
            continue
        cx, cy = box_center(r.true_box)
        area = box_area(r.true_box)
        assert abs(cx - 0.5) < 0.1
        assert abs(cy - 0.5) < 0.1
        assert abs(area - 0.5) / 0.5 < 0.2


def test_trace_footage_deterministic():
    cfg = ConvoyConfig(duration=1.0, seed=5)
    trace = run_convoy(cfg)

    a, b = (list(trace_footage(trace, cfg)[1]) for _ in range(2))
    assert len(a) == len(b) == 15  # trace ends at t = 0.98; frames 0/15 .. 14/15
    for fa, fb in zip(a, b):
        assert np.array_equal(fa, fb)


def _counted_backgrounds(monkeypatch, fail_at=None):
    """The times FootageScene.background is called at; with fail_at, the
    call of that index, counting from 0, and each after it raise."""
    background = FootageScene.background
    drawn = []

    def counted(self, t):
        drawn.append(t)
        if fail_at is not None and len(drawn) > fail_at:
            raise RuntimeError(f"draw {len(drawn) - 1} failed")
        return background(self, t)

    monkeypatch.setattr(FootageScene, "background", counted)
    return drawn


def test_footage_closed_after_one_frame_leaves_no_worker(monkeypatch):
    cfg = ConvoyConfig(duration=2.0, seed=5)
    trace = run_convoy(cfg)
    drawn = _counted_backgrounds(monkeypatch)
    before = threading.active_count()
    _, frames = trace_footage(trace, cfg)
    # the worker starts with the first frame asked for
    assert threading.active_count() == before and drawn == []
    next(frames)
    assert threading.active_count() == before + 1
    # it draws two frames past the one taken, then waits
    deadline = time.monotonic() + 10.0
    while len(drawn) < 3 and time.monotonic() < deadline:
        time.sleep(0.01)
    time.sleep(0.2)
    assert len(drawn) == 3
    frames.close()
    assert threading.active_count() == before
    assert len(drawn) == 3


def test_footage_draw_error_is_raised_in_its_turn(monkeypatch):
    cfg = ConvoyConfig(duration=2.0, seed=5)
    trace = run_convoy(cfg)
    expected = list(trace_footage(trace, cfg)[1])[:2]
    _counted_backgrounds(monkeypatch, fail_at=2)
    before = threading.active_count()
    taken = []
    with pytest.raises(RuntimeError, match="^draw 2 failed$"):
        for frame in trace_footage(trace, cfg)[1]:
            taken.append(frame)
    assert threading.active_count() == before
    assert [f.tobytes() for f in taken] == [f.tobytes() for f in expected]


def test_footage_never_closed_does_not_hold_the_process_at_exit():
    child = (
        "from uwconvoy.sim import ConvoyConfig, run_convoy, trace_footage\n"
        "cfg = ConvoyConfig(duration=2.0, seed=5)\n"
        "_, FRAMES = trace_footage(run_convoy(cfg), cfg)\n"
        "next(FRAMES)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(uwconvoy.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", child], env=env, capture_output=True, text=True, timeout=60
    )
    assert (proc.returncode, proc.stderr) == (0, "")


@settings(max_examples=60, deadline=None)
@example(physics_rate=50.0, frame_share=0.3, ticks=400)  # the golden 15 fps at 50 Hz
@example(physics_rate=50.0, frame_share=1.0, ticks=400)
@example(physics_rate=30.0, frame_share=7 / 30, ticks=400)
@example(physics_rate=44.1, frame_share=29.97 / 44.1, ticks=1)
@given(
    physics_rate=st.floats(1.0, 200.0) | st.integers(1, 200).map(float),
    frame_share=st.floats(0.001, 1.0) | st.just(1.0),
    ticks=st.integers(1, 400),
)
def test_trace_footage_samples_as_the_record_walk(physics_rate, frame_share, ticks):
    cfg = ConvoyConfig(
        duration=ticks / physics_rate,
        physics_rate=physics_rate,
        detector_rate=min(7.0, physics_rate),
        frame_rate=min(frame_share * physics_rate, physics_rate),
        servo=ServoConfig(command_rate=min(10.0, physics_rate)),
    )
    trace = run_convoy(cfg)
    annotations, _ = trace_footage(trace, cfg)
    assert annotations == [
        Annotation(i, record.true_box is not None, record.true_box)
        for i, record in record_walk_samples(trace.records, cfg.frame_rate)
    ]


@pytest.mark.parametrize("fps", [0.0, -3.0, math.inf])
def test_trace_sampling_rejects_fps_that_never_advances(fps):
    # the config is checked when built, so footage sampling never sees such a rate
    with pytest.raises(ValueError, match="frame_rate"):
        ConvoyConfig(frame_rate=fps)


@pytest.mark.parametrize(
    "name, value",
    [
        ("physics_rate", math.inf),
        ("physics_rate", math.nan),
        ("detector_rate", math.inf),
        ("detector_rate", math.nan),
        ("frame_rate", math.nan),
        ("duration", math.inf),
        ("duration", math.nan),
        ("duration", -1.0),
    ],
)
def test_convoy_config_rejects_rate_or_duration_that_is_not_finite(name, value):
    # run_convoy would otherwise raise OverflowError on an infinite tick count
    with pytest.raises(ValueError, match=name):
        ConvoyConfig(**{name: value})
