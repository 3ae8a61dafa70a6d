"""Image-based visual servoing from bounding-box errors.

The controller regulates three image-space errors (Fig.-style horizontal
offset, vertical offset, and area shortfall) into velocity commands: a PID
on the horizontal offset drives yaw rate, proportional gains map the
vertical offset to vertical speed and the area shortfall to forward speed.
Pitch and roll are not commanded; they are left to the vehicle's attitude
autopilot.
If no box arrives within the loss timeout the vehicle is stopped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import BoundingBox, box_area, box_center


@dataclass(frozen=True)
class ControlCommand:
    """Velocity-level command: yaw rate, forward speed and vertical speed."""

    yaw_rate: float = 0.0
    forward_speed: float = 0.0
    vertical_speed: float = 0.0

    def is_stop(self) -> bool:
        return self == STOP_COMMAND


STOP_COMMAND = ControlCommand()

# anti-windup bound on the yaw integral (error * seconds)
YAW_INTEGRAL_LIMIT = 2.0


def _clamp(v: float, lo: float, hi: float) -> float:
    return min(max(v, lo), hi)


@dataclass(frozen=True)
class ServoConfig:
    desired_area: float = 0.5
    command_rate: float = 10.0
    loss_timeout: float = 2.0
    # gains tuned against the closed-loop simulation; all configurable
    yaw_kp: float = 1.2
    yaw_ki: float = 0.05
    yaw_kd: float = 0.1
    depth_gain: float = 0.8
    speed_gain: float = 12.0
    yaw_rate_limit: float = 1.0
    vertical_speed_limit: float = 0.5
    forward_speed_limit: float = 0.7

    def __post_init__(self):
        if not 0.0 < self.desired_area <= 1.0:
            raise ValueError(f"desired_area must be in (0, 1], got {self.desired_area}")
        for name in ("command_rate", "loss_timeout"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("yaw_kp", "yaw_ki", "yaw_kd", "depth_gain", "speed_gain"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("yaw_rate_limit", "vertical_speed_limit", "forward_speed_limit"):
            if not getattr(self, name) >= 0.0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")

    @property
    def speed_clamps(self) -> tuple[float, float]:
        """Bounds of |forward speed| and |vertical speed| over all commands:
        each limit, or the gain if less, which is what an error of 1 asks for."""
        return (
            min(self.forward_speed_limit, max(self.speed_gain, 0.0)),
            min(self.vertical_speed_limit, abs(self.depth_gain)),
        )


def compute_errors(box: BoundingBox, cfg: ServoConfig) -> tuple[float, float, float]:
    """Image-space errors (dx, dy, dA) for one observed box.

    dx, dy are the box center's offset from the image center; dA is the
    desired-minus-observed area, positive when the target looks too small
    (too far away).
    """
    cx, cy = box_center(box)
    return cx - 0.5, cy - 0.5, cfg.desired_area - box_area(box)


@dataclass(frozen=True)
class ServoState:
    """Controller state threaded through successive updates."""

    config: ServoConfig
    yaw_integral: float = 0.0
    yaw_prev_error: float | None = None
    last_detection_time: float | None = None
    last_update_time: float | None = None
    last_command: ControlCommand = STOP_COMMAND


def servo_update(
    state: ServoState, detection: BoundingBox | None, now: float
) -> tuple[ControlCommand, ServoState]:
    """Produce the command for one control tick.

    With a detection, commands follow the error mappings; without one the
    previous command is held until the loss timeout elapses, after which the
    vehicle stops and the yaw integrator resets. Call times must not go
    backwards.
    """
    cfg = state.config
    if state.last_update_time is not None and now < state.last_update_time:
        raise ValueError(
            f"time went backwards: {now} < {state.last_update_time}"
        )

    if detection is None:
        never_seen = state.last_detection_time is None
        if never_seen or now - state.last_detection_time > cfg.loss_timeout:
            stopped = ServoState(
                config=cfg,
                yaw_integral=0.0,
                yaw_prev_error=None,
                last_detection_time=state.last_detection_time,
                last_update_time=now,
                last_command=STOP_COMMAND,
            )
            return STOP_COMMAND, stopped
        held = ServoState(
            config=cfg,
            yaw_integral=state.yaw_integral,
            yaw_prev_error=state.yaw_prev_error,
            last_detection_time=state.last_detection_time,
            last_update_time=now,
            last_command=state.last_command,
        )
        return state.last_command, held

    if state.last_update_time is None or now == state.last_update_time:
        dt = 1.0 / cfg.command_rate
    else:
        dt = now - state.last_update_time

    dx, dy, d_area = compute_errors(detection, cfg)
    # PID on dx with a clamped integral
    integral = _clamp(state.yaw_integral + dx * dt, -YAW_INTEGRAL_LIMIT, YAW_INTEGRAL_LIMIT)
    derivative = 0.0 if state.yaw_prev_error is None else (dx - state.yaw_prev_error) / dt
    yaw_out = _clamp(
        cfg.yaw_kp * dx + cfg.yaw_ki * integral + cfg.yaw_kd * derivative,
        -cfg.yaw_rate_limit,
        cfg.yaw_rate_limit,
    )
    # positive dx = target right of center = yaw clockwise (negative rate,
    # z-up convention); positive dy = target low in the image = descend
    forward, vertical = cfg.speed_clamps
    command = ControlCommand(
        yaw_rate=-yaw_out,
        forward_speed=_clamp(cfg.speed_gain * d_area, 0.0, forward) if d_area > 0.0 else 0.0,
        vertical_speed=_clamp(-cfg.depth_gain * dy, -vertical, vertical),
    )
    next_state = ServoState(
        config=cfg,
        yaw_integral=integral,
        yaw_prev_error=dx,
        last_detection_time=now,
        last_update_time=now,
        last_command=command,
    )
    return command, next_state
