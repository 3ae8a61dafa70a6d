"""Deterministic kinematic convoy simulator.

World frame: x east/forward, y north/left, z up. The vehicles stay level:
poses carry a position and a yaw (about z, wrapped to (-pi, pi]), and pitch
and roll are left to each vehicle's attitude autopilot, so the servo
commands neither and the trace's pitch and roll columns are always 0. The
camera looks along the body forward axis; image coordinates are normalized
with y growing downward, and bearing/elevation angles map linearly onto the
image (angular camera), so no calibration matrix is involved anywhere.

The leader moves at a constant velocity from its start pose; the follower
integrates velocity commands. A billboard rectangle stands in for the
leader's body to produce ground-truth boxes, synthetic grayscale footage
with an oscillating flipper region, and field-statistics-shaped noisy
detections.
"""

from __future__ import annotations

import bisect
import math
import sys
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, dataclass, field
from typing import Iterator

import numpy as np

from .geometry import Annotation, BoundingBox, clip_box_to_image, iou
from .servo import STOP_COMMAND, ControlCommand, ServoConfig, ServoState, servo_update

# Footage intensities of the background and of the leader's body, the
# standard deviation of the background's Gaussian pixel noise, and the two
# levels between which the flipper patch oscillates.
_BACKGROUND = 0.4
_BODY_INTENSITY = 0.85
_NOISE_SIGMA = 0.02
_FLIPPER_RANGE = (0.15, 0.95)

# How far the centre of the flipper patch hangs below the body centre, and
# the patch's size along the board's left axis and up, m.
_FLIPPER_DROP = 0.09
_FLIPPER_SIZE = (0.50, 0.12)

# Most physics ticks one run may take: 5.5 h at the default 50 Hz; `sim`
# peak memory grows about 1.7 kB a tick with the held trace, so about 1.7 GB.
MAX_TICKS = 10**6

# Largest image width or height: a float64 frame of 4096x4096 takes 128 MiB.
MAX_IMAGE_SIDE = 4096

# Smallest horizontal field of view: a box's width is an angle of up to pi
# over the vertical fov, which is at least hfov / MAX_IMAGE_SIDE, and twice
# that must stay a float.
_MIN_HFOV = 2.0 * math.pi * MAX_IMAGE_SIDE / sys.float_info.max


def _require_finite(name: str, values: tuple[float, ...]) -> None:
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{name} {values} has an element that is not finite")


def wrap_angle(a: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    return math.pi - (math.pi - a) % (2.0 * math.pi)


@dataclass(frozen=True)
class Pose:
    position: tuple[float, float, float] = (0.0, 0.0, 0.0)
    yaw: float = 0.0

    def __post_init__(self):
        # the sum is finite only when every coordinate and the yaw are; only
        # a pose that fails it goes on to the checks that name the fault
        if not math.isfinite(sum(self.position, self.yaw)):
            _require_finite("position", self.position)
            if not math.isfinite(self.yaw):
                raise ValueError(f"yaw {self.yaw} is not finite")
        object.__setattr__(self, "yaw", wrap_angle(self.yaw))

    def left(self) -> tuple[float, float, float]:
        """Unit left axis; level, as the body is."""
        return -math.sin(self.yaw), math.cos(self.yaw), 0.0


@dataclass(frozen=True)
class CameraModel:
    horizontal_fov: float = math.pi / 2
    image_width: int = 320
    image_height: int = 240

    def __post_init__(self):
        if not _MIN_HFOV <= self.horizontal_fov < math.pi:
            raise ValueError(f"horizontal_fov {self.horizontal_fov} outside [{_MIN_HFOV:.3g}, pi)")
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
    gait_frequency: float = 2.0
    gait_jitter: float = 0.0

    def __post_init__(self):
        for name in ("body_length", "body_height"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if not 1.0 <= self.gait_frequency <= 3.0:
            raise ValueError(
                f"gait_frequency {self.gait_frequency} outside the 1-3 Hz band"
            )
        if not self.gait_jitter >= 0:
            raise ValueError(f"gait_jitter must be >= 0, got {self.gait_jitter}")


# ---------------------------------------------------------------------------
# leader trajectory scripts

# Each script kind's leader velocity: yaw rate in rad/s, speed in m/s along
# the start heading, and climb in m/s.
SCRIPT_PRESETS = {
    "forward": ControlCommand(forward_speed=0.6),
    "turn_in_place": ControlCommand(yaw_rate=0.3),
    "depth_change": ControlCommand(vertical_speed=-0.1),
}
DEFAULT_SCRIPT = "forward"


def _unsigned(pose: Pose) -> Pose:
    # pose with each -0 coordinate read as 0, and its yaw as it is: a new Pose
    # would wrap the yaw again, and a yaw that one wrap left at -pi turns to pi
    unsigned = object.__new__(Pose)
    object.__setattr__(unsigned, "position", tuple(c + 0.0 for c in pose.position))
    object.__setattr__(unsigned, "yaw", pose.yaw)
    return unsigned


@dataclass(frozen=True)
class TrajectoryScript:
    """A start pose, whose -0 coordinates read as 0, and the leader's velocity."""

    velocity: ControlCommand = SCRIPT_PRESETS[DEFAULT_SCRIPT]
    start_pose: Pose = Pose((2.0, 0.0, 0.0))

    def __post_init__(self):
        object.__setattr__(self, "start_pose", _unsigned(self.start_pose))


def leader_trajectory(script: TrajectoryScript, t: float) -> Pose:
    """Leader pose at time t >= 0, moving along its start heading as its yaw turns."""
    if t < 0:
        raise ValueError("t must be >= 0")
    start, velocity = script.start_pose, script.velocity
    x, y, z = start.position
    v, c = velocity.forward_speed, velocity.vertical_speed
    position = (x + math.cos(start.yaw) * v * t, y + math.sin(start.yaw) * v * t, z + c * t)
    # wrapped here and once more by Pose, as step_follower's yaw is
    return Pose(position, wrap_angle(start.yaw + velocity.yaw_rate * t))


def step_follower(
    pose: Pose, cmd: ControlCommand, dt: float, drift: tuple[float, float, float] = (0.0, 0.0, 0.0)
) -> Pose:
    """Integrate one velocity command over dt (velocity-level kinematics),
    then displace the pose by drift, the water current's travel over dt.
    The body stays level: the command moves its yaw, surge and heave only."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    # wrapped twice here and once more by Pose: wrap_angle takes a yaw one
    # ulp above pi to -pi and only a second pass to pi, and traces pin this
    yaw = wrap_angle(wrap_angle(pose.yaw + cmd.yaw_rate * dt))
    v = cmd.forward_speed
    x, y, z = pose.position
    dx, dy, dz = drift
    # adding 0.0 turns a -0.0 into +0.0, which the trace CSV would show;
    # 0.0 * v, the level heading's z term, gives a -0.0 height the sign traces pin
    position = (
        x + math.cos(yaw) * v * dt + 0.0 + dx,
        y + math.sin(yaw) * v * dt + 0.0 + dy,
        z + 0.0 * v + cmd.vertical_speed * dt + dz,
    )
    return Pose(position, yaw)


# ---------------------------------------------------------------------------
# projection

def _project_rect(
    cam: CameraModel,
    follower: Pose,
    center: tuple[float, float, float],
    left: tuple[float, float, float],
    half_w: float,
    half_h: float,
) -> BoundingBox | None:
    """Enclosing normalized box of an upright rectangle, or None if hidden.

    The rectangle spans half_w along the level left axis and half_h up from
    center. The follower is level too, so each corner's height over the eye
    is its elevation's numerator, and a corner's bearing is shared by the
    corner above or below it. The centre and the corners, relative to the
    eye, are projected onto the follower's forward and left axes with
    plain-float dot products, `a0 * b0 + a1 * b1` summed left to right, which
    round alike on every IEEE host.
    """
    ex, ey, ez = follower.position
    cx, cy, cz = center
    cos_y, sin_y = math.cos(follower.yaw), math.sin(follower.yaw)
    if (cx - ex) * cos_y + (cy - ey) * sin_y <= 0.0:
        return None

    lx, ly, _ = left
    hfov, vfov = cam.horizontal_fov, cam.vertical_fov
    # the heights over the eye of the bottom and top edges
    below, above = cz + -half_h - ez, cz + half_h - ez
    # the corners at -half_w along the left axis, then at +half_w
    rx, ry = cx + -half_w * lx - ex, cy + -half_w * ly - ey
    xc = rx * cos_y + ry * sin_y
    if xc <= 1e-9:
        return None
    yc = rx * -sin_y + ry * cos_y
    u0 = 0.5 - math.atan2(yc, xc) / hfov
    reach = math.hypot(xc, yc)
    v0 = 0.5 - math.atan2(below, reach) / vfov
    v1 = 0.5 - math.atan2(above, reach) / vfov
    rx, ry = cx + half_w * lx - ex, cy + half_w * ly - ey
    xc = rx * cos_y + ry * sin_y
    if xc <= 1e-9:
        return None
    yc = rx * -sin_y + ry * cos_y
    u1 = 0.5 - math.atan2(yc, xc) / hfov
    reach = math.hypot(xc, yc)
    v2 = 0.5 - math.atan2(below, reach) / vfov
    v3 = 0.5 - math.atan2(above, reach) / vfov
    x, y = min(u0, u1), min(v0, v1, v2, v3)
    return clip_box_to_image(x, y, max(u0, u1) - x, max(v0, v1, v2, v3) - y)


def project_bbox(
    cam: CameraModel, follower: Pose, leader: Pose, target: TargetModel
) -> BoundingBox | None:
    """Ground-truth box of the leader's body as seen by the follower."""
    return _project_rect(
        cam,
        follower,
        leader.position,
        leader.left(),
        target.body_length / 2.0,
        target.body_height / 2.0,
    )


def _flipper_box(cam: CameraModel, follower: Pose, leader: Pose) -> BoundingBox | None:
    """Box of the leader's flipper patch as seen by the follower."""
    x, y, z = leader.position
    # the + 0.0 terms turn a -0.0 into +0.0, as the centre's first form, a
    # sum of 3-vectors, did
    center = (x + 0.0, y + 0.0, z - _FLIPPER_DROP)
    return _project_rect(
        cam,
        follower,
        center,
        leader.left(),
        _FLIPPER_SIZE[0] / 2.0,
        _FLIPPER_SIZE[1] / 2.0,
    )


# ---------------------------------------------------------------------------
# synthetic footage

class _GaitPhase:
    """Flipper phase from a first draw of rng, with optional per-cycle frequency jitter."""

    def __init__(self, target: TargetModel, rng: np.random.Generator):
        self.frequency, self.jitter, self.rng = target.gait_frequency, target.gait_jitter, rng
        self.phase0 = self._phase = float(rng.uniform(0.0, 2.0 * math.pi))
        self._last_t = 0.0
        self._boundary = self.phase0 + 2.0 * math.pi
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

    Background sits at a constant level plus Gaussian pixel noise of
    _NOISE_SIGMA; the target body renders brighter, and its flipper patch
    oscillates between the _FLIPPER_RANGE levels at the gait frequency, from
    a phase that is the first draw of the scene's stream, rng.
    """

    def __init__(
        self,
        camera: CameraModel = CameraModel(),
        target: TargetModel = TargetModel(),
        *,
        rng: np.random.Generator,
    ):
        self.camera = camera
        self.target = target
        self.rng = rng
        self._gait = _GaitPhase(target, self.rng)

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
        # one pass: numpy draws loc + scale * z, the same bits as
        # _BACKGROUND + normal(0, sigma), and exactly _BACKGROUND at sigma 0
        img = self.rng.normal(_BACKGROUND, _NOISE_SIGMA, (cam.image_height, cam.image_width))
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
            flipper = _flipper_box(self.camera, follower, leader)
            if flipper is not None:
                lo, hi = _FLIPPER_RANGE
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
        return list(_frames(self, [(i / fps, leader, follower, body) for i in range(frame_count)]))


# Draws _frames' worker is given past the frame being painted: one ready
# while the caller paints and writes a frame, one being drawn.
_DRAW_AHEAD = 2


def _frames(
    scene: FootageScene, samples: list[tuple[float, Pose, Pose, BoundingBox | None]]
) -> Iterator[np.ndarray]:
    """The frames of scene at (t, leader, follower, body) samples, in order.

    body is project_bbox of the leader as the follower sees it, or None.
    Each frame is painted on the caller's thread into a background that a
    one-worker ThreadPoolExecutor, started with the first frame asked for,
    draws at most _DRAW_AHEAD frames ahead, so a few frames are held at a
    time, never the clip. One worker runs the draws in submission order, so
    they keep the stream's order and the bytes do not depend on timing. A
    draw's error is raised in its frame's turn, and the worker is joined,
    its queued draws cancelled, when the frames end, raise or are closed.
    """
    pool = ThreadPoolExecutor(1, thread_name_prefix="uwconvoy-draw-ahead")
    drawn = deque()
    try:
        for i, (_, leader, follower, body) in enumerate(samples):
            for t, *_ in samples[i + len(drawn) : i + _DRAW_AHEAD + 1]:
                drawn.append(pool.submit(scene.background, t))
            yield scene.render(leader, follower, body, drawn.popleft().result())
    finally:
        pool.shutdown(cancel_futures=True)


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
            cx, cy = rng.uniform(0.25, 0.75, 2).tolist()
            w, h = rng.uniform(0.05, 0.30, 2).tolist()
            conf = min(max(rng.normal(0.35, 0.15), 0.0), 1.0)
            return clip_box_to_image(cx - w / 2.0, cy - h / 2.0, w, h, conf)
        return None

    area = true_box.w * true_box.h
    miss_prob = noise.miss_prob_small if area < noise.small_area else noise.miss_prob_base
    if miss_prob > 0 and rng.uniform() < miss_prob:
        return None

    if noise.center_sigma == 0.0 and noise.scale_sigma == 0.0:
        boxed = BoundingBox(true_box.x, true_box.y, true_box.w, true_box.h, 1.0)
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
    return BoundingBox(boxed.x, boxed.y, boxed.w, boxed.h, conf)


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


@dataclass(frozen=True)
class ConvoyConfig:
    duration: float = 60.0
    physics_rate: float = 50.0
    detector_rate: float = 7.0
    # rate at which trace_footage samples the trace into footage
    frame_rate: float = 15.0
    seed: int = 0
    script: TrajectoryScript = field(default_factory=TrajectoryScript)
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
        # a start coordinate of -0 reads as 0, as the leader's does
        object.__setattr__(self, "initial_follower", _unsigned(self.initial_follower))
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
        for name, rate in (
            ("detector_rate", self.detector_rate),
            ("servo.command_rate", self.servo.command_rate),
            ("frame_rate", self.frame_rate),
        ):
            if rate > self.physics_rate:
                raise ValueError(
                    f"{name} {rate:g} Hz exceeds physics_rate {self.physics_rate:g} Hz"
                )
        ticks = self.duration * self.physics_rate
        if not 0.5 < ticks < math.inf or round(ticks) > MAX_TICKS:
            raise ValueError(
                f"duration {self.duration:g} s gives {ticks:g} ticks at {self.physics_rate:g} Hz;"
                f" a run takes 1 to {MAX_TICKS} ticks"
            )
        # the projection sums the sizes of both vehicles' coordinates and of
        # the body; bound that sum over the run, with the leader's turn, so
        # that no tick leaves the float range. A level heading moves the sum
        # at most sqrt(2) < 2 times its speed; the follower's speeds keep the
        # servo's speed_clamps; the margin covers rounding over up to
        # MAX_TICKS steps
        forward, vertical = self.servo.speed_clamps
        rate, speed, climb = map(abs, astuple(self.script.velocity))
        speed = 2.0 * (speed + climb + forward) + rate + vertical
        reach = (speed + sum(map(abs, self.current))) * (round(ticks) / self.physics_rate)
        reach += sum(map(abs, self.script.start_pose.position + self.initial_follower.position))
        reach += self.target.body_length + self.target.body_height
        if not math.isfinite(reach * (1.0 + 1e-6)):
            raise ValueError(
                f"over duration {self.duration:g} s the positions and turns of the run may"
                f" add up to {reach:g}, past the float range"
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
    a generator of _frames that renders the frames from the same samples with
    the run's camera, target and footage stream.
    """
    records, fps = trace.records, config.frame_rate
    samples = []
    while (t := len(samples) / fps) <= records[-1].t + _TICK_SLACK:
        r = records[bisect.bisect_right(records, t + _TICK_SLACK, key=lambda rec: rec.t) - 1]
        samples.append((t, r.leader, r.follower, r.true_box))
    annotations = [Annotation(i, box is not None, box) for i, (*_, box) in enumerate(samples)]
    scene = FootageScene(camera=config.camera, target=config.target, rng=_run_rng(config.seed, 1))
    return annotations, _frames(scene, samples)
