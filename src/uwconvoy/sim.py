"""Deterministic kinematic convoy simulator.

World frame: x east/forward, y north/left, z up. Poses carry yaw (about z,
wrapped to (-pi, pi]) and pitch (about the body y axis, clamped inside
(-pi/2, pi/2)). The camera looks along the body forward axis; image
coordinates are normalized with y growing downward, and bearing/elevation
angles map linearly onto the image (angular camera), so no calibration
matrix is involved anywhere.

The leader follows closed-form trajectory scripts; the follower integrates
velocity commands. A billboard rectangle stands in for the leader's body to
produce ground-truth boxes, synthetic grayscale footage with an oscillating
flipper region, and field-statistics-shaped noisy detections.
"""

from __future__ import annotations

import bisect
import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Iterator

import numpy as np

from .geometry import Annotation, BoundingBox, clip_box_to_image, iou
from .servo import STOP_COMMAND, ControlCommand, ServoConfig, ServoState, servo_update

_PITCH_LIMIT = math.pi / 2 - 1e-6
# Footage intensities of the background and of the leader's body.
_BACKGROUND = 0.4
_BODY_INTENSITY = 0.85

# Most physics ticks one run may take: 5.5 h at the default 50 Hz; `sim`
# peak memory grows about 1.7 kB a tick with the held trace, so about 1.7 GB.
MAX_TICKS = 10**6

# Largest image width or height: a float64 frame of 4096x4096 takes 128 MiB.
MAX_IMAGE_SIDE = 4096


def _require_finite(name: str, values: tuple[float, ...]) -> None:
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{name} {values} has an element that is not finite")


def wrap_angle(a: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    return math.pi - (math.pi - a) % (2.0 * math.pi)


def _heading(yaw: float, pitch: float) -> tuple[float, float, float]:
    """Unit forward axis of a body at yaw and pitch."""
    cy, sy = math.cos(yaw), math.sin(yaw)
    cp, sp = math.cos(pitch), math.sin(pitch)
    return cy * cp, sy * cp, sp


@dataclass(frozen=True)
class Pose:
    position: tuple[float, float, float] = (0.0, 0.0, 0.0)
    yaw: float = 0.0
    pitch: float = 0.0

    def __post_init__(self):
        _require_finite("position", self.position)
        if not -_PITCH_LIMIT <= self.pitch <= _PITCH_LIMIT:
            raise ValueError(f"pitch {self.pitch} outside (-pi/2, pi/2)")
        if not math.isfinite(self.yaw):
            raise ValueError(f"yaw {self.yaw} is not finite")
        object.__setattr__(self, "yaw", wrap_angle(self.yaw))

    def left(self) -> tuple[float, float, float]:
        """Unit left axis; level, since the body does not roll."""
        return -math.sin(self.yaw), math.cos(self.yaw), 0.0


@dataclass(frozen=True)
class CameraModel:
    horizontal_fov: float = math.pi / 2
    image_width: int = 320
    image_height: int = 240

    def __post_init__(self):
        if not 0.0 < self.horizontal_fov < math.pi:
            raise ValueError(f"horizontal_fov {self.horizontal_fov} outside (0, pi)")
        if not all(0 < side <= MAX_IMAGE_SIDE for side in (self.image_width, self.image_height)):
            raise ValueError(
                f"image size {self.image_width}x{self.image_height}: each side must lie in"
                f" 1..{MAX_IMAGE_SIDE}"
            )

    @property
    def vertical_fov(self) -> float:
        """Pixels are square in angle, so this is hfov * height / width."""
        return self.horizontal_fov / (self.image_width / self.image_height)


@dataclass(frozen=True)
class TargetModel:
    """Billboard geometry and gait parameters of the leading robot."""

    body_length: float = 0.65
    body_height: float = 0.30
    # flipper patch center offset from the body center, in board coordinates
    # (horizontal toward the board's left axis, vertical up), and its size
    flipper_offset: tuple[float, float] = (0.0, -0.09)
    flipper_size: tuple[float, float] = (0.50, 0.12)
    gait_frequency: float = 2.0
    gait_jitter: float = 0.0

    def __post_init__(self):
        if not (self.body_length > 0 and self.body_height > 0):
            raise ValueError(
                f"body_length {self.body_length} and body_height {self.body_height}"
                " must be positive"
            )
        if not 1.0 <= self.gait_frequency <= 3.0:
            raise ValueError(
                f"gait_frequency {self.gait_frequency} outside the 1-3 Hz band"
            )
        if not self.gait_jitter >= 0:
            raise ValueError(f"gait_jitter must be >= 0, got {self.gait_jitter}")
        _require_finite("flipper_offset", self.flipper_offset)
        _require_finite("flipper_size", self.flipper_size)


# ---------------------------------------------------------------------------
# leader trajectory scripts

@dataclass(frozen=True)
class TrajectoryScript:
    """Closed-form leader motion: forward, turn_in_place or depth_change."""

    kind: str
    speed: float = 0.0  # m/s for forward, m/s vertical for depth_change
    rate: float = 0.0  # rad/s for turn_in_place
    start_pose: Pose = field(default_factory=Pose)

    def __post_init__(self):
        if self.kind not in ("forward", "turn_in_place", "depth_change"):
            raise ValueError(f"unknown trajectory script {self.kind!r}")


def forward_script(speed: float = 0.6, start_pose: Pose = Pose()) -> TrajectoryScript:
    return TrajectoryScript("forward", speed=speed, start_pose=start_pose)


def turn_script(rate: float = 0.3, start_pose: Pose = Pose()) -> TrajectoryScript:
    return TrajectoryScript("turn_in_place", rate=rate, start_pose=start_pose)


def depth_script(speed: float = -0.1, start_pose: Pose = Pose()) -> TrajectoryScript:
    return TrajectoryScript("depth_change", speed=speed, start_pose=start_pose)


def leader_trajectory(script: TrajectoryScript, t: float) -> Pose:
    """Leader pose at time t >= 0."""
    if t < 0:
        raise ValueError("t must be >= 0")
    start = script.start_pose
    x, y, z = start.position
    if script.kind == "forward":
        fx, fy, fz = _heading(start.yaw, start.pitch)
        d = script.speed
        position = (x + fx * d * t, y + fy * d * t, z + fz * d * t)
        return Pose(position, start.yaw, start.pitch)
    if script.kind == "turn_in_place":
        return Pose(start.position, wrap_angle(start.yaw + script.rate * t), start.pitch)
    # depth_change, the one kind left that TrajectoryScript admits
    return Pose((x, y, z + script.speed * t), start.yaw, start.pitch)


def step_follower(
    pose: Pose, cmd: ControlCommand, dt: float, drift: tuple[float, float, float] = (0.0, 0.0, 0.0)
) -> Pose:
    """Integrate one velocity command over dt (velocity-level kinematics),
    then displace the pose by drift, the water current's travel over dt."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    # wrapped twice here and once more by Pose: wrap_angle takes a yaw one
    # ulp above pi to -pi and only a second pass to pi, and traces pin this
    yaw = wrap_angle(wrap_angle(pose.yaw + cmd.yaw_rate * dt))
    pitch = min(max(pose.pitch + cmd.pitch_rate * dt, -_PITCH_LIMIT), _PITCH_LIMIT)
    fx, fy, fz = _heading(yaw, pitch)
    v = cmd.forward_speed
    x, y, z = pose.position
    dx, dy, dz = drift
    # adding 0.0 turns a -0.0 into +0.0, which the trace CSV would show
    position = (
        x + fx * v * dt + 0.0 + dx,
        y + fy * v * dt + 0.0 + dy,
        z + fz * v * dt + cmd.vertical_speed * dt + dz,
    )
    return Pose(position, yaw, pitch)


# ---------------------------------------------------------------------------
# projection

def _project_rect(
    cam: CameraModel,
    follower: Pose,
    center: tuple[float, float, float],
    h_axis: tuple[float, float, float],
    v_axis: tuple[float, float, float],
    half_w: float,
    half_h: float,
) -> BoundingBox | None:
    """Enclosing normalized box of an upright rectangle, or None if hidden.

    The centre and the four corners, relative to the eye, are projected onto
    the follower's forward, left and up axes with plain-float dot products,
    `a0 * b0 + a1 * b1 + a2 * b2` summed left to right, which round alike on
    every IEEE host.
    """
    ex, ey, ez = follower.position
    cx, cy, cz = center
    cos_y, sin_y = math.cos(follower.yaw), math.sin(follower.yaw)
    cos_p, sin_p = math.cos(follower.pitch), math.sin(follower.pitch)
    fx, fy, fz = cos_y * cos_p, sin_y * cos_p, sin_p
    ux, uy = -sin_p * cos_y, -sin_p * sin_y
    if (cx - ex) * fx + (cy - ey) * fy + (cz - ez) * fz <= 0.0:
        return None

    hx, hy, hz = h_axis
    vx, vy, vz = v_axis
    hfov, vfov = cam.horizontal_fov, cam.vertical_fov
    us, vs = [], []
    for sx in (-1.0, 1.0):
        a = sx * half_w
        for sy in (-1.0, 1.0):
            b = sy * half_h
            rx = cx + a * hx + b * vx - ex
            ry = cy + a * hy + b * vy - ey
            rz = cz + a * hz + b * vz - ez
            xc = rx * fx + ry * fy + rz * fz
            if xc <= 1e-9:
                return None
            # the left axis (-sin_y, cos_y, 0) is level
            yc = rx * -sin_y + ry * cos_y
            zc = rx * ux + ry * uy + rz * cos_p
            az = math.atan2(yc, xc)
            el = math.atan2(zc, math.hypot(xc, yc))
            us.append(0.5 - az / hfov)
            vs.append(0.5 - el / vfov)
    x, y = min(us), min(vs)
    return clip_box_to_image(x, y, max(us) - x, max(vs) - y)


_UP = (0.0, 0.0, 1.0)


def project_bbox(
    cam: CameraModel, follower: Pose, leader: Pose, target: TargetModel
) -> BoundingBox | None:
    """Ground-truth box of the leader's body as seen by the follower."""
    return _project_rect(
        cam,
        follower,
        leader.position,
        leader.left(),
        _UP,
        target.body_length / 2.0,
        target.body_height / 2.0,
    )


def _flipper_box(
    cam: CameraModel, follower: Pose, leader: Pose, target: TargetModel
) -> BoundingBox | None:
    """Box of the leader's flipper patch as seen by the follower."""
    x, y, z = leader.position
    left = lx, ly, lz = leader.left()
    along, above = target.flipper_offset
    # position + along * left + (0, 0, above) summed as 3-vectors are; the
    # + 0.0 terms turn a -0.0 into +0.0 as that sum does
    center = (x + along * lx + 0.0, y + along * ly + 0.0, z + along * lz + above)
    return _project_rect(
        cam,
        follower,
        center,
        left,
        _UP,
        target.flipper_size[0] / 2.0,
        target.flipper_size[1] / 2.0,
    )


# ---------------------------------------------------------------------------
# synthetic footage

class _GaitPhase:
    """Flipper oscillation phase with optional per-cycle frequency jitter."""

    def __init__(self, frequency: float, jitter: float, rng: np.random.Generator, phase0: float):
        self.frequency = frequency
        self.jitter = jitter
        self.rng = rng
        self.phase0 = phase0
        self._phase = phase0
        self._last_t = 0.0
        self._boundary = phase0 + 2.0 * math.pi
        self._cycle_freq = self._draw()

    def _draw(self) -> float:
        if self.jitter == 0.0:
            return self.frequency
        factor = 1.0 + self.jitter * self.rng.standard_normal()
        return self.frequency * max(factor, 0.1)

    def at(self, t: float) -> float:
        if self.jitter == 0.0:
            return self.phase0 + 2.0 * math.pi * self.frequency * t
        if t < self._last_t:
            raise ValueError("render times must be non-decreasing with gait jitter")
        while True:
            dphase = 2.0 * math.pi * self._cycle_freq * (t - self._last_t)
            if self._phase + dphase < self._boundary:
                self._phase += dphase
                self._last_t = t
                return self._phase
            self._last_t += (self._boundary - self._phase) / (
                2.0 * math.pi * self._cycle_freq
            )
            self._phase = self._boundary
            self._boundary += 2.0 * math.pi
            self._cycle_freq = self._draw()


class FootageScene:
    """Stateful renderer for grayscale convoy footage.

    Background sits at a constant level plus optional Gaussian pixel noise;
    the target body renders brighter, and its flipper patch oscillates
    between the configured extremes at the gait frequency.
    """

    def __init__(
        self,
        camera: CameraModel = CameraModel(),
        target: TargetModel = TargetModel(),
        rng: np.random.Generator | None = None,
        flipper_range: tuple[float, float] = (0.15, 0.95),
        noise_sigma: float = 0.02,
        gait_phase0: float | None = None,
    ):
        self.camera = camera
        self.target = target
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.flipper_range = flipper_range
        self.noise_sigma = noise_sigma
        phase0 = (
            float(self.rng.uniform(0.0, 2.0 * math.pi))
            if gait_phase0 is None
            else gait_phase0
        )
        self._gait = _GaitPhase(target.gait_frequency, target.gait_jitter, self.rng, phase0)

    def _pixel_rect(self, box: BoundingBox) -> tuple[int, int, int, int]:
        w, h = self.camera.image_width, self.camera.image_height
        x0 = int(round(box.x * w))
        x1 = int(round((box.x + box.w) * w))
        y0 = int(round(box.y * h))
        y1 = int(round((box.y + box.h) * h))
        return x0, x1, y0, y1

    def background(self, t: float) -> tuple[np.ndarray, float]:
        """The noisy background of the frame at time t and the gait phase at t.

        The only method that draws from the scene's stream: one normal draw
        for the pixel noise, then any gait jitter draws. Call it once per
        frame, in frame order, before that frame's render.
        """
        cam = self.camera
        shape = (cam.image_height, cam.image_width)
        if self.noise_sigma > 0:
            # one pass: numpy draws loc + scale * z, the same bits as
            # _BACKGROUND + normal(0, sigma)
            img = self.rng.normal(_BACKGROUND, self.noise_sigma, shape)
        else:
            img = np.full(shape, _BACKGROUND)
        return img, self._gait.at(t)

    def render(
        self,
        leader: Pose,
        follower: Pose,
        body: BoundingBox | None,
        background: tuple[np.ndarray, float],
    ) -> np.ndarray:
        """The frame at time t, painted into background, this scene's
        background(t): samples in [0, 1], shape (height, width). Draws
        nothing; paints into the background's array and returns it.

        body is project_bbox of the leader as the follower sees it, with this
        scene's camera and target, or None when it is hidden.
        """
        img, phase = background
        if body is not None:
            x0, x1, y0, y1 = self._pixel_rect(body)
            img[y0:y1, x0:x1] = _BODY_INTENSITY
            flipper = _flipper_box(self.camera, follower, leader, self.target)
            if flipper is not None:
                lo, hi = self.flipper_range
                level = lo + (hi - lo) * 0.5 * (1.0 + math.sin(phase))
                x0, x1, y0, y1 = self._pixel_rect(flipper)
                img[y0:y1, x0:x1] = level

        np.clip(img, 0.0, 1.0, out=img)
        return img

    def render_sequence(
        self, leader: Pose, follower: Pose, frame_count: int, fps: float
    ) -> list[np.ndarray]:
        """Static-pose footage: frame i is rendered at time i/fps."""
        body = project_bbox(self.camera, follower, leader, self.target)
        return [
            self.render(leader, follower, body, self.background(i / fps))
            for i in range(frame_count)
        ]


# ---------------------------------------------------------------------------
# detector noise model

@dataclass(frozen=True)
class DetectorNoise:
    """Field-statistics-shaped detection noise.

    Misses concentrate on small boxes, detected centers carry Gaussian bias,
    sizes carry log-normal scatter, and confidence tracks the achieved
    overlap with the truth.
    """

    miss_prob_small: float = 0.30
    miss_prob_base: float = 0.05
    small_area: float = 0.20
    center_sigma: float = 0.05
    scale_sigma: float = 0.02
    confidence_sigma: float = 0.10
    false_positive_prob: float = 0.01

    def __post_init__(self):
        for name in ("miss_prob_small", "miss_prob_base", "small_area", "false_positive_prob"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {getattr(self, name)}")
        for name in ("center_sigma", "scale_sigma", "confidence_sigma"):
            if not getattr(self, name) >= 0.0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")

    @classmethod
    def noiseless(cls) -> "DetectorNoise":
        return cls(
            miss_prob_small=0.0, miss_prob_base=0.0, center_sigma=0.0,
            scale_sigma=0.0, confidence_sigma=0.0, false_positive_prob=0.0,
        )


def noisy_detector(
    true_box: BoundingBox | None,
    rng: np.random.Generator,
    noise: DetectorNoise = DetectorNoise(),
) -> BoundingBox | None:
    """Corrupt a ground-truth box the way the field detector statistics do."""
    if true_box is None:
        if noise.false_positive_prob > 0 and rng.uniform() < noise.false_positive_prob:
            cx, cy = rng.uniform(0.25, 0.75, 2)
            w, h = rng.uniform(0.05, 0.30, 2)
            conf = min(max(rng.normal(0.35, 0.15), 0.0), 1.0)
            return clip_box_to_image(cx - w / 2.0, cy - h / 2.0, w, h, conf)
        return None

    area = true_box.w * true_box.h
    miss_prob = noise.miss_prob_small if area < noise.small_area else noise.miss_prob_base
    if miss_prob > 0 and rng.uniform() < miss_prob:
        return None

    if noise.center_sigma == 0.0 and noise.scale_sigma == 0.0:
        boxed = replace(true_box, p=1.0)
    else:
        dx, dy = rng.normal(0.0, noise.center_sigma, 2).tolist()
        sw, sh = map(math.exp, rng.normal(0.0, noise.scale_sigma, 2))
        w = min(true_box.w * sw, 1.0)
        h = min(true_box.h * sh, 1.0)
        cx = true_box.x + true_box.w / 2.0 + dx
        cy = true_box.y + true_box.h / 2.0 + dy
        x = min(max(cx - w / 2.0, 0.0), 1.0 - w)
        y = min(max(cy - h / 2.0, 0.0), 1.0 - h)
        boxed = BoundingBox(x, y, w, h, 1.0)
    overlap = iou(boxed, true_box)
    conf = (
        overlap
        if noise.confidence_sigma == 0.0
        else min(max(overlap + rng.normal(0.0, noise.confidence_sigma), 0.0), 1.0)
    )
    return replace(boxed, p=conf)


# ---------------------------------------------------------------------------
# closed-loop convoy run

@dataclass(frozen=True)
class TraceRecord:
    t: float
    leader: Pose
    follower: Pose
    true_box: BoundingBox | None
    detection: BoundingBox | None
    command: ControlCommand


@dataclass
class SimTrace:
    records: list[TraceRecord]


# Tick times k / physics_rate and event times i / rate (detector, servo and
# frame schedules) are quotients that may round apart at the same instant; an
# event is due on a tick when it is due within this slack.
_TICK_SLACK = 1e-12


class ScheduleError(ValueError):
    """ConvoyConfig fields, each valid alone, that together ask run_convoy
    for a loop it cannot run; `fields` holds their (dataclass, name) pairs."""

    def __init__(self, message: str, *fields: tuple[type, str]):
        super().__init__(message)
        self.fields = fields


@dataclass(frozen=True)
class ConvoyConfig:
    duration: float = 60.0
    physics_rate: float = 50.0
    detector_rate: float = 7.0
    # rate at which trace_footage samples the trace into footage
    frame_rate: float = 15.0
    seed: int = 0
    script: TrajectoryScript = field(
        default_factory=lambda: forward_script(start_pose=Pose(position=(2.0, 0.0, 0.0)))
    )
    initial_follower: Pose = field(default_factory=Pose)
    servo: ServoConfig = field(default_factory=ServoConfig)
    camera: CameraModel = field(default_factory=CameraModel)
    target: TargetModel = field(default_factory=TargetModel)
    detector_noise: DetectorNoise = field(default_factory=DetectorNoise)
    # intervals [start, end) during which the detector is forced blind
    occlusions: tuple[tuple[float, float], ...] = ()
    # constant water-current drift applied to the follower, m/s
    current: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if not 0.0 <= self.duration < math.inf:
            raise ValueError(f"duration must be finite and >= 0, got {self.duration}")
        for name in ("physics_rate", "detector_rate", "frame_rate"):
            rate = getattr(self, name)
            if not 0.0 < rate < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {rate}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        _require_finite("current", self.current)
        for start, end in self.occlusions:
            if not start < end:
                raise ValueError(f"occlusion {start}:{end} must end after it starts")
        # the loop fires the detector and the servo, and samples a frame, at
        # most once per tick, and runs round(duration * physics_rate) ticks:
        # from one to MAX_TICKS
        physics = (ConvoyConfig, "physics_rate")
        for owner, name, rate in (
            ((ConvoyConfig, "detector_rate"), "detector_rate", self.detector_rate),
            ((ServoConfig, "command_rate"), "servo.command_rate", self.servo.command_rate),
            ((ConvoyConfig, "frame_rate"), "frame_rate", self.frame_rate),
        ):
            if rate > self.physics_rate:
                raise ScheduleError(
                    f"{name} {rate:g} Hz exceeds physics_rate {self.physics_rate:g} Hz",
                    owner, physics,
                )
        ticks = self.duration * self.physics_rate
        if not 0.5 < ticks < math.inf or round(ticks) > MAX_TICKS:
            raise ScheduleError(
                f"duration {self.duration:g} s gives {ticks:g} ticks at {self.physics_rate:g} Hz;"
                f" a run takes 1 to {MAX_TICKS} ticks",
                (ConvoyConfig, "duration"), physics,
            )


def _occluded(t: float, occlusions: tuple[tuple[float, float], ...]) -> bool:
    return any(start <= t < end for start, end in occlusions)


def _run_rng(seed: int, stream: int) -> np.random.Generator:
    """One of a run's two independent random streams: 0 drives the detector
    noise in run_convoy, 1 the footage in trace_footage."""
    return np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[stream])


def run_convoy(config: ConvoyConfig) -> SimTrace:
    """Run the fixed-step convoy loop and return the full trace.

    Physics advances every tick; the detector and the servo fire at their
    own rates on the ticks that cross their schedules. Detections are
    latched between detector ticks, commands between control ticks. Equal
    seeds and configs give bit-identical traces.
    """
    dt = 1.0 / config.physics_rate
    n_ticks = round(config.duration * config.physics_rate)
    rng = _run_rng(config.seed, 0)

    leader = leader_trajectory(config.script, 0.0)
    follower = config.initial_follower
    servo_state = ServoState(config.servo)
    latched: BoundingBox | None = None
    command = STOP_COMMAND
    det_i = 0
    ctl_i = 0
    records = []
    drift = tuple(c * dt for c in config.current)

    for k in range(n_ticks):
        t = k / config.physics_rate
        true_box = project_bbox(config.camera, follower, leader, config.target)

        if t >= det_i / config.detector_rate - _TICK_SLACK:
            if _occluded(t, config.occlusions):
                latched = None
            else:
                latched = noisy_detector(true_box, rng, config.detector_noise)
            det_i += 1
        if t >= ctl_i / config.servo.command_rate - _TICK_SLACK:
            command, servo_state = servo_update(servo_state, latched, t)
            ctl_i += 1

        records.append(TraceRecord(t, leader, follower, true_box, latched, command))

        leader = leader_trajectory(config.script, (k + 1) / config.physics_rate)
        follower = step_follower(follower, command, dt, drift)

    return SimTrace(records)


def trace_footage(
    trace: SimTrace, config: ConvoyConfig
) -> tuple[list[Annotation], Iterator[np.ndarray]]:
    """Sample the trace of a run of config into footage at config.frame_rate.

    Frame i, at time i / frame_rate up to the last tick, takes the last record
    at or before that time. Returns each frame's ground-truth annotation, and
    a generator that renders the frames from the same samples with the run's
    camera, target and footage stream. Each frame is painted on the caller's
    thread into a background that a one-worker ThreadPoolExecutor, started
    with the first frame asked for, draws at most _DRAW_AHEAD frames ahead,
    so a few frames are held at a time, never the clip. One worker runs the
    draws in submission order, so they keep the stream's order and the bytes
    do not depend on timing. A draw's error is raised in its frame's turn,
    and the worker is joined, its queued draws cancelled, when the frames
    end, raise or are closed.
    """
    records, fps = trace.records, config.frame_rate
    samples = []
    while (t := len(samples) / fps) <= records[-1].t + _TICK_SLACK:
        at = bisect.bisect_right(records, t + _TICK_SLACK, key=lambda r: r.t)
        samples.append((t, records[at - 1]))
    annotations = [
        Annotation(i, record.true_box is not None, record.true_box)
        for i, (_, record) in enumerate(samples)
    ]
    scene = FootageScene(camera=config.camera, target=config.target, rng=_run_rng(config.seed, 1))

    def frames():
        pool = ThreadPoolExecutor(1, thread_name_prefix="uwconvoy-draw-ahead")
        drawn = deque()
        try:
            for i, (_, r) in enumerate(samples):
                for t, _ in samples[i + len(drawn) : i + _DRAW_AHEAD + 1]:
                    drawn.append(pool.submit(scene.background, t))
                yield scene.render(r.leader, r.follower, r.true_box, drawn.popleft().result())
        finally:
            pool.shutdown(cancel_futures=True)

    return annotations, frames()


# Draws trace_footage's worker is given past the frame being painted: one
# ready while the caller paints and writes a frame, one being drawn.
_DRAW_AHEAD = 2
