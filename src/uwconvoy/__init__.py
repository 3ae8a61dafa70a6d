"""Tracking-by-detection convoy toolkit.

Detection geometry, reference training objectives, a frequency-domain
periodic-motion tracker, a bounding-box visual-servoing controller, a
deterministic convoy simulator, and a detector evaluation harness.
"""

from .geometry import (
    Annotation,
    BoundingBox,
    box_area,
    box_center,
    iou,
    iou_gradient,
)
from .losses import (
    LossWeights,
    rrolo_gradient,
    rrolo_loss,
    vgg_gradient,
    vgg_loss,
)
from .mdpm import (
    MdpmConfig,
    MdpmTracker,
    SpectralDetection,
    SubWindowGrid,
)
from .servo import (
    ControlCommand,
    ServoConfig,
    ServoState,
    compute_errors,
    servo_update,
)
from .sim import (
    CameraModel,
    ConvoyConfig,
    DetectorNoise,
    FootageScene,
    Pose,
    SimTrace,
    TargetModel,
    TrajectoryScript,
    leader_trajectory,
    noisy_detector,
    project_bbox,
    run_convoy,
    step_follower,
    trace_footage,
)
from .evaluation import (
    FrameResult,
    MetricsReport,
    TrackStats,
    classify_frames,
    histogram_report,
    metrics_summary,
    select_threshold,
    track_statistics,
)

__version__ = "0.1.0"
