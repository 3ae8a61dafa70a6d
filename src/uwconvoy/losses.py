"""Reference detection objectives.

Two single-point losses score a predicted box z, whose p field carries the
confidence, against one annotation:

* ``vgg_loss`` - L1 box regression gated on target presence plus binary
  cross-entropy on the confidence.
* ``rrolo_loss`` - square-root coordinate regression plus (IOU - p)^2
  confidence terms weighted per presence, with tunable weights.

Closed-form gradients in (x, y, w, h, p) accompany both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Annotation, BoundingBox, iou, iou_gradient

# Confidence clamp for the cross-entropy logs; keeps the loss finite when a
# saturated confidence disagrees with the label.
BCE_EPS = 1e-7


@dataclass(frozen=True)
class LossWeights:
    """Term weights for rrolo_loss (coordinate, object, no-object)."""

    alpha_coord: float = 5.0
    alpha_obj: float = 1.0
    alpha_no_obj: float = 0.5

    def __post_init__(self):
        for name in ("alpha_coord", "alpha_obj", "alpha_no_obj"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {v!r}")


def vgg_loss(z: BoundingBox, truth: Annotation) -> float:
    """L1 localization error on present frames plus confidence cross-entropy.

    The log terms are exact when the confidence matches the label (so a
    perfect prediction scores 0) and clamped at BCE_EPS otherwise.
    """
    if truth.present:
        tb = truth.truth_box
        l1 = abs(z.x - tb.x) + abs(z.y - tb.y) + abs(z.w - tb.w) + abs(z.h - tb.h)
        bce = -math.log(max(z.p, BCE_EPS))
    else:
        l1 = 0.0
        bce = -math.log(max(1.0 - z.p, BCE_EPS))
    return l1 + bce


def vgg_gradient(z: BoundingBox, truth: Annotation) -> np.ndarray:
    """Gradient of vgg_loss in (x, y, w, h, p).

    Undefined where a coordinate exactly matches the truth (L1 kink) or the
    confidence sits at the clamp; valid elsewhere.
    """
    g = np.zeros(5)
    if truth.present:
        tb = truth.truth_box
        g[0] = math.copysign(1.0, z.x - tb.x)
        g[1] = math.copysign(1.0, z.y - tb.y)
        g[2] = math.copysign(1.0, z.w - tb.w)
        g[3] = math.copysign(1.0, z.h - tb.h)
        g[4] = -1.0 / max(z.p, BCE_EPS)
    else:
        g[4] = 1.0 / max(1.0 - z.p, BCE_EPS)
    return g


def rrolo_loss(z: BoundingBox, truth: Annotation, w: LossWeights = LossWeights()) -> float:
    """Square-root coordinate regression plus squared (IOU - p) confidence terms.

    On absent frames the overlap is defined as 0, so only the no-object term
    alpha_no_obj * p^2 remains and the box coordinates are irrelevant.
    """
    if truth.present:
        tb = truth.truth_box
        coord = (math.sqrt(tb.x) - math.sqrt(z.x)) ** 2 + (math.sqrt(tb.y) - math.sqrt(z.y)) ** 2
        size = (math.sqrt(tb.w) - math.sqrt(z.w)) ** 2 + (math.sqrt(tb.h) - math.sqrt(z.h)) ** 2
        overlap = iou(z, tb)
        return w.alpha_coord * (coord + size) + w.alpha_obj * (overlap - z.p) ** 2
    return w.alpha_no_obj * (0.0 - z.p) ** 2


def rrolo_gradient(
    z: BoundingBox, truth: Annotation, w: LossWeights = LossWeights()
) -> np.ndarray:
    """Gradient of rrolo_loss in (x, y, w, h, p).

    Requires strictly positive coordinates on present frames (square roots)
    and an overlap configuration away from corner contact.
    """
    g = np.zeros(5)
    if not truth.present:
        g[4] = 2.0 * w.alpha_no_obj * z.p
        return g
    tb = truth.truth_box
    for i, (zv, tv) in enumerate(
        [(z.x, tb.x), (z.y, tb.y), (z.w, tb.w), (z.h, tb.h)]
    ):
        if zv <= 0.0:
            raise ValueError("rrolo gradient needs strictly positive coordinates")
        g[i] = w.alpha_coord * (1.0 - math.sqrt(tv) / math.sqrt(zv))
    overlap = iou(z, tb)
    g[:4] += 2.0 * w.alpha_obj * (overlap - z.p) * iou_gradient(z, tb)
    g[4] = -2.0 * w.alpha_obj * (overlap - z.p)
    return g
