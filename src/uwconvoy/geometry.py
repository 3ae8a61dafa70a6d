"""Bounding-box primitives shared by the whole toolkit.

Boxes live in normalized image coordinates: (x, y) is the top-left corner,
(w, h) the size, everything in [0, 1], origin at the image's top-left with
y growing downward. The confidence p rides along in the same 5-vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Slack for float round-off in the per-field [0, 1] checks.
_FIELD_EPS = 1e-9
# Slack in the x+w <= 1 and y+h <= 1 checks: the file formats round each
# field to 6 decimals, up to 5e-7, so a box that touches the right or bottom
# edge can read back up to 1e-6 past it; float round-off comes on top.
_SUM_EPS = 1e-6 + _FIELD_EPS


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box with confidence, all coordinates normalized to [0, 1]."""

    x: float
    y: float
    w: float
    h: float
    p: float = 1.0

    def __post_init__(self):
        x, y, w, h = self.x, self.y, self.w, self.h
        lo, hi = -_FIELD_EPS, 1.0 + _FIELD_EPS
        # every bound in one chained comparison, which NaN and +-inf fail;
        # only a box that fails it goes on to the checks that name the fault
        if lo <= x <= hi >= y >= lo <= w <= hi >= h >= lo <= self.p <= hi and (
            x + w <= 1.0 + _SUM_EPS >= y + h
        ):
            return
        for name in ("x", "y", "w", "h", "p"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"box field {name} is not finite: {v!r}")
            if not -_FIELD_EPS <= v <= 1.0 + _FIELD_EPS:
                raise ValueError(f"box field {name} out of [0,1]: {v!r}")
        if self.x + self.w > 1.0 + _SUM_EPS:
            raise ValueError(f"box exceeds right edge: x+w = {self.x + self.w!r}")
        if self.y + self.h > 1.0 + _SUM_EPS:
            raise ValueError(f"box exceeds bottom edge: y+h = {self.y + self.h!r}")


@dataclass(frozen=True)
class Annotation:
    """Ground truth for one frame: presence flag plus the annotated box.

    The truth box's confidence field is meaningless and fixed to 1.
    """

    frame_index: int
    present: bool
    truth_box: BoundingBox | None = None

    def __post_init__(self):
        if self.frame_index < 0:
            raise ValueError(f"frame_index must be >= 0, got {self.frame_index}")
        if self.present and self.truth_box is None:
            raise ValueError("present annotation requires a truth_box")
        if not self.present and self.truth_box is not None:
            raise ValueError("absent annotation must not carry a truth_box")


def box_area(b: BoundingBox) -> float:
    """Fraction of the image covered by the box."""
    return b.w * b.h


def box_center(b: BoundingBox) -> tuple[float, float]:
    """Center of the box in normalized coordinates."""
    return (b.x + b.w / 2.0, b.y + b.h / 2.0)


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union of two boxes; 0 when the union has zero area."""
    ax2, ay2 = a.x + a.w, a.y + a.h
    bx2, by2 = b.x + b.w, b.y + b.h
    ix = min(ax2, bx2) - max(a.x, b.x)
    iy = min(ay2, by2) - max(a.y, b.y)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    # areas from the same edge coordinates as the intersection, so identical
    # boxes score exactly 1
    union = (ax2 - a.x) * (ay2 - a.y) + (bx2 - b.x) * (by2 - b.y) - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def iou_gradient(a: BoundingBox, b: BoundingBox) -> np.ndarray:
    """d(iou)/d(a.x, a.y, a.w, a.h) holding b fixed.

    Piecewise-smooth: undefined on corner-contact configurations (where an
    intersection edge coincides with a box edge); callers sampling gradients
    must stay away from those loci.
    """
    ax1, ay1 = a.x, a.y
    ax2, ay2 = a.x + a.w, a.y + a.h
    bx1, by1 = b.x, b.y
    bx2, by2 = b.x + b.w, b.y + b.h

    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0.0 or ih <= 0.0:
        return np.zeros(4)

    inter = iw * ih
    union = a.w * a.h + b.w * b.h - inter

    # d(iw)/d(x) etc. from which of the two boxes supplies each edge
    diw_dx = (1.0 if ax2 < bx2 else 0.0) - (1.0 if ax1 > bx1 else 0.0)
    diw_dw = 1.0 if ax2 < bx2 else 0.0
    dih_dy = (1.0 if ay2 < by2 else 0.0) - (1.0 if ay1 > by1 else 0.0)
    dih_dh = 1.0 if ay2 < by2 else 0.0

    dinter = np.array([ih * diw_dx, iw * dih_dy, ih * diw_dw, iw * dih_dh])
    darea_a = np.array([0.0, 0.0, a.h, a.w])
    dunion = darea_a - dinter
    return (dinter * union - inter * dunion) / (union * union)


def clip_box_to_image(x: float, y: float, w: float, h: float, p: float = 1.0) -> BoundingBox | None:
    """Clip a raw rectangle to the unit image; None when nothing remains."""
    x2 = min(x + w, 1.0)
    y2 = min(y + h, 1.0)
    x1 = max(x, 0.0)
    y1 = max(y, 0.0)
    if x2 <= x1 or y2 <= y1:
        return None
    return BoundingBox(x1, y1, x2 - x1, y2 - y1, min(max(p, 0.0), 1.0))
