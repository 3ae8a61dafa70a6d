import dataclasses

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from uwconvoy.geometry import _FIELD_EPS, _SUM_EPS, BoundingBox
from uwconvoy.servo import (
    STOP_COMMAND,
    YAW_INTEGRAL_LIMIT,
    ControlCommand,
    ServoConfig,
    ServoState,
    compute_errors,
    servo_update,
)

CFG = ServoConfig()

# centered box with exactly the desired area (0.5)
CENTERED_AT_SETPOINT = BoundingBox(0.0, 0.25, 1.0, 0.5, 1.0)


def test_errors_at_setpoint_are_zero():
    assert compute_errors(CENTERED_AT_SETPOINT, CFG) == (0.0, 0.0, 0.0)


def test_errors_offcenter_box():
    # center (0.7, 0.5), area 0.6*0.5/0.6 ... chosen to equal the desired 0.5
    box = BoundingBox(0.4, 0.5 - 0.5 / 0.6 / 2, 0.6, 0.5 / 0.6, 1.0)
    dx, dy, da = compute_errors(box, CFG)
    assert dx == pytest.approx(0.2, abs=1e-12)
    assert dy == pytest.approx(0.0, abs=1e-12)
    assert da == pytest.approx(0.0, abs=1e-12)


def test_errors_area_surplus():
    box = BoundingBox(0.0, 0.15, 1.0, 0.7, 1.0)  # centered, area 0.7
    dx, dy, da = compute_errors(box, CFG)
    assert (dx, dy) == (0.0, 0.0)
    assert da == pytest.approx(-0.2, abs=1e-12)


def _yaw_rate(cfg, box, state=None, now=0.0):
    cmd, state = servo_update(state or ServoState(cfg), box, now)
    return cmd.yaw_rate, state


# boxes centred vertically whose centres sit dx = 0.2, 0.3 and 0.45 right of
# the image centre
DX_02 = BoundingBox(0.5, 0.25, 0.4, 0.5, 1.0)
DX_03 = BoundingBox(0.6, 0.25, 0.4, 0.5, 1.0)
DX_045 = BoundingBox(0.9, 0.25, 0.1, 0.5, 1.0)


def test_pid_zero_error_zero_history():
    rate, _ = _yaw_rate(ServoConfig(yaw_kp=1.0, yaw_ki=0.5, yaw_kd=0.2), CENTERED_AT_SETPOINT)
    assert rate == 0.0


def test_pid_pure_proportional():
    rate, _ = _yaw_rate(ServoConfig(yaw_kp=1.0, yaw_ki=0.0, yaw_kd=0.0), DX_03)
    assert rate == pytest.approx(-0.3, abs=1e-12)


def test_pid_two_step_integral():
    # the first update integrates over 1 / command_rate = 0.1 s
    cfg = ServoConfig(yaw_kp=0.5, yaw_ki=0.1, yaw_kd=0.0, command_rate=10.0)
    rate1, state = _yaw_rate(cfg, DX_02)
    assert rate1 == pytest.approx(-0.102, abs=1e-12)
    rate2, state = _yaw_rate(cfg, DX_02, state, now=0.1)
    assert rate2 == pytest.approx(-0.104, abs=1e-12)


def test_pid_output_saturation_and_antiwindup():
    # one 10 s step at dx = 0.45 would integrate 4.5; the integral stops at 2
    cfg = ServoConfig(yaw_kp=10.0, yaw_ki=1.0, yaw_kd=0.0, yaw_rate_limit=0.5, command_rate=0.1)
    rate, state = _yaw_rate(cfg, DX_045)
    assert rate == -0.5
    assert state.yaw_integral == YAW_INTEGRAL_LIMIT == 2.0


def test_servo_stop_after_timeout():
    state = ServoState(CFG)
    _, state = servo_update(state, DX_02, 0.0)
    assert state.yaw_integral != 0.0
    cmd, state = servo_update(state, None, 2.5)
    assert cmd == STOP_COMMAND
    assert state.yaw_integral == 0.0
    assert state.yaw_prev_error is None


def test_servo_setpoint_gives_zero_command():
    state = ServoState(CFG)
    cmd, _ = servo_update(state, CENTERED_AT_SETPOINT, 0.0)
    assert cmd == ControlCommand(0.0, 0.0, 0.0)


def test_servo_forward_clamped_at_zero_when_too_close():
    state = ServoState(CFG)
    too_big = BoundingBox(0.0, 0.15, 1.0, 0.7, 1.0)  # area 0.7 > desired
    cmd, _ = servo_update(state, too_big, 0.0)
    assert cmd.forward_speed == 0.0


def test_servo_never_seen_stops():
    cmd, _ = servo_update(ServoState(CFG), None, 0.0)
    assert cmd == STOP_COMMAND


def test_servo_holds_last_command_within_timeout():
    state = ServoState(CFG)
    small = BoundingBox(0.4, 0.4, 0.2, 0.2, 1.0)  # far target, forward > 0
    cmd0, state = servo_update(state, small, 0.0)
    assert cmd0.forward_speed > 0.0
    cmd1, state = servo_update(state, None, 0.5)
    assert cmd1 == cmd0
    cmd2, state = servo_update(state, None, 1.9)
    assert cmd2 == cmd0
    cmd3, state = servo_update(state, None, 2.1)
    assert cmd3 == STOP_COMMAND


def test_servo_stop_rule_holds_for_every_late_update():
    state = ServoState(CFG)
    _, state = servo_update(state, CENTERED_AT_SETPOINT, 0.0)
    for now in (2.01, 3.0, 7.5, 30.0):
        cmd, state = servo_update(state, None, now)
        assert cmd == STOP_COMMAND


def test_servo_mirror_negates_yaw():
    box = BoundingBox(0.55, 0.25, 0.4, 0.5, 1.0)
    mirrored = BoundingBox(1.0 - 0.55 - 0.4, 0.25, 0.4, 0.5, 1.0)
    cmd_a, _ = servo_update(ServoState(CFG), box, 0.0)
    cmd_b, _ = servo_update(ServoState(CFG), mirrored, 0.0)
    assert cmd_a.yaw_rate == pytest.approx(-cmd_b.yaw_rate, abs=1e-12)
    assert cmd_a.yaw_rate != 0.0


def test_servo_vertical_sign_and_limits():
    state = ServoState(CFG)
    low_target = BoundingBox(0.3, 0.7, 0.4, 0.3, 1.0)  # center y = 0.85, below middle
    cmd, _ = servo_update(state, low_target, 0.0)
    assert cmd.vertical_speed < 0.0  # descend toward a low target (z-up frame)
    assert abs(cmd.vertical_speed) <= CFG.vertical_speed_limit
    assert abs(cmd.yaw_rate) <= CFG.yaw_rate_limit
    assert 0.0 <= cmd.forward_speed <= CFG.forward_speed_limit


def test_servo_command_saturation_random():
    import numpy as np

    rng = np.random.default_rng(8)
    state = ServoState(CFG)
    t = 0.0
    for _ in range(200):
        t += 0.1
        if rng.uniform() < 0.2:
            det = None
        else:
            w = rng.uniform(0.05, 0.9)
            h = rng.uniform(0.05, 0.9)
            det = BoundingBox(rng.uniform(0, 1 - w), rng.uniform(0, 1 - h), w, h, 1.0)
        cmd, state = servo_update(state, det, t)
        assert abs(cmd.yaw_rate) <= CFG.yaw_rate_limit
        assert abs(cmd.vertical_speed) <= CFG.vertical_speed_limit
        assert 0.0 <= cmd.forward_speed <= CFG.forward_speed_limit


def test_command_holds_only_what_the_servo_commands():
    names = [f.name for f in dataclasses.fields(ControlCommand)]
    assert names == ["yaw_rate", "forward_speed", "vertical_speed"]


_GAIN = st.floats(allow_nan=False, allow_infinity=False)
_LIMIT = st.floats(0.0, 1e308)


@st.composite
def _detection(draw):
    """None, or any box that BoundingBox accepts: each field within
    _FIELD_EPS of [0, 1], sizes from -_FIELD_EPS, and edges up to _SUM_EPS
    past the image's."""
    if draw(st.booleans()):
        return None
    lo, hi = -_FIELD_EPS, 1.0 + _FIELD_EPS
    x, y = draw(st.floats(lo, hi)), draw(st.floats(lo, hi))
    w = draw(st.floats(lo, min(hi, 1.0 + _SUM_EPS - x)))
    h = draw(st.floats(lo, min(hi, 1.0 + _SUM_EPS - y)))
    assume(x + w <= 1.0 + _SUM_EPS >= y + h)
    return BoundingBox(x, y, w, h, 1.0)


@settings(max_examples=300, deadline=None)
# a size of -_FIELD_EPS makes the area error 1 + 1e-9, past the gain's reach
@example(
    cfg=ServoConfig(desired_area=1.0, speed_gain=5.0, forward_speed_limit=1e308),
    steps=[(BoundingBox(0.0, 0.0, -1e-9, 1.0), 0.0)],
)
@given(
    cfg=st.builds(
        ServoConfig,
        desired_area=st.floats(0.0, 1.0, exclude_min=True),
        command_rate=st.floats(1e-3, 1e3),
        loss_timeout=st.floats(1e-3, 10.0),
        yaw_kp=_GAIN, yaw_ki=_GAIN, yaw_kd=_GAIN, depth_gain=_GAIN, speed_gain=_GAIN,
        yaw_rate_limit=_LIMIT, vertical_speed_limit=_LIMIT, forward_speed_limit=_LIMIT,
    ),
    steps=st.lists(st.tuples(_detection(), st.floats(0.0, 5.0)), min_size=1, max_size=20),
)
def test_servo_commands_keep_the_clamps_the_motion_bound_assumes(cfg, steps):
    # ConvoyConfig bounds a run's motion by these two speeds
    forward, vertical = cfg.speed_clamps
    state, t = ServoState(cfg), 0.0
    for detection, dt in steps:
        t += dt
        command, state = servo_update(state, detection, t)
        assert 0.0 <= command.forward_speed <= forward
        assert abs(command.vertical_speed) <= vertical


def test_servo_deterministic_sequences():
    inputs = [
        (BoundingBox(0.3, 0.3, 0.3, 0.3, 1.0), 0.0),
        (None, 0.1),
        (BoundingBox(0.35, 0.3, 0.3, 0.3, 1.0), 0.2),
        (BoundingBox(0.4, 0.35, 0.25, 0.25, 1.0), 0.3),
        (None, 3.0),
    ]

    def run():
        state = ServoState(CFG)
        out = []
        for det, now in inputs:
            cmd, state = servo_update(state, det, now)
            out.append(cmd)
        return out

    assert run() == run()


def test_servo_time_regression_rejected():
    state = ServoState(CFG)
    _, state = servo_update(state, CENTERED_AT_SETPOINT, 1.0)
    with pytest.raises(ValueError):
        servo_update(state, CENTERED_AT_SETPOINT, 0.5)


def test_servo_config_validation():
    with pytest.raises(ValueError):
        ServoConfig(desired_area=0.0)
    with pytest.raises(ValueError):
        ServoConfig(command_rate=0.0)
    with pytest.raises(ValueError):
        ServoConfig(loss_timeout=-1.0)
