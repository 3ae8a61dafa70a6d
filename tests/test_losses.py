import math

import numpy as np
import pytest

from uwconvoy.geometry import Annotation, BoundingBox, iou
from uwconvoy.losses import (
    LossWeights,
    rrolo_gradient,
    rrolo_loss,
    vgg_gradient,
    vgg_loss,
)

from oracles import numeric_gradient, random_box_tuple, straight_line_rrolo

PRESENT = Annotation(0, True, BoundingBox(0.25, 0.2, 0.5, 0.4))
ABSENT = Annotation(0, False)


def pred(x, y, w, h, p):
    return BoundingBox(x, y, w, h, p)


def test_vgg_perfect_prediction_is_zero():
    exact = pred(0.25, 0.2, 0.5, 0.4, 1.0)
    assert vgg_loss(exact, PRESENT) == 0.0


def test_vgg_absent_half_confidence():
    value = vgg_loss(pred(0.1, 0.1, 0.2, 0.2, 0.5), ABSENT)
    assert value == pytest.approx(-math.log(0.5), abs=1e-12)


def test_vgg_pure_l1_term():
    # offsets 0.05 on each coordinate, confidence exactly right
    shifted = pred(0.30, 0.25, 0.45, 0.35, 1.0)
    assert vgg_loss(shifted, PRESENT) == pytest.approx(0.2, abs=1e-12)


def test_vgg_box_ignored_when_absent():
    a = vgg_loss(pred(0.1, 0.1, 0.2, 0.2, 0.3), ABSENT)
    b = vgg_loss(pred(0.5, 0.6, 0.3, 0.1, 0.3), ABSENT)
    assert a == b


def test_vgg_saturated_confidence_finite():
    assert math.isfinite(vgg_loss(pred(0.25, 0.2, 0.5, 0.4, 0.0), PRESENT))
    assert math.isfinite(vgg_loss(pred(0.1, 0.1, 0.2, 0.2, 1.0), ABSENT))


def test_rrolo_perfect_prediction_is_zero():
    exact = pred(0.25, 0.2, 0.5, 0.4, 1.0)
    assert rrolo_loss(exact, PRESENT, LossWeights(5, 1, 0.5)) == 0.0


def test_rrolo_no_object_term():
    value = rrolo_loss(pred(0.1, 0.1, 0.2, 0.2, 0.4), ABSENT, LossWeights(5, 1, 0.5))
    assert value == pytest.approx(0.08, abs=1e-12)


def test_rrolo_no_object_depends_only_on_confidence():
    w = LossWeights(5, 1, 0.5)
    a = rrolo_loss(pred(0.1, 0.1, 0.2, 0.2, 0.4), ABSENT, w)
    b = rrolo_loss(pred(0.6, 0.3, 0.3, 0.5, 0.4), ABSENT, w)
    assert a == b


def test_rrolo_sqrt_coordinate_term():
    # x 0.25 -> 0.16: (sqrt(.25)-sqrt(.16))^2 * 5 = 5*(0.1)^2 = 0.05
    w = LossWeights(5, 1, 0.5)
    truth = Annotation(0, True, BoundingBox(0.25, 0.2, 0.5, 0.4))
    moved = pred(0.16, 0.2, 0.5, 0.4, 0.9)
    value = rrolo_loss(moved, truth, w)
    expected = straight_line_rrolo(
        (0.16, 0.2, 0.5, 0.4, 0.9), (0.25, 0.2, 0.5, 0.4), True, (5, 1, 0.5)
    )
    coord_term = 5 * (math.sqrt(0.25) - math.sqrt(0.16)) ** 2
    assert coord_term == pytest.approx(0.05, abs=1e-12)
    assert value == pytest.approx(expected, abs=1e-12)
    assert value > coord_term  # the overlap term adds on top


def test_rrolo_matches_straight_line_oracle_random():
    rng = np.random.default_rng(3)
    w = LossWeights(5, 1, 0.5)
    for _ in range(200):
        tb = random_box_tuple(rng, 0.1, 0.6)
        pb = random_box_tuple(rng, 0.1, 0.6)
        p = rng.uniform(0.0, 1.0)
        truth = Annotation(0, True, BoundingBox(*tb))
        value = rrolo_loss(pred(*pb, p), truth, w)
        assert value == pytest.approx(
            straight_line_rrolo((*pb, p), tb, True, (5, 1, 0.5)), abs=1e-12
        )


def test_rrolo_weight_scaling_is_exact():
    w = LossWeights(5, 1, 0.5)
    scaled = LossWeights(15, 3, 1.5)
    moved = pred(0.16, 0.25, 0.45, 0.35, 0.7)
    assert rrolo_loss(moved, PRESENT, scaled) == pytest.approx(
        3.0 * rrolo_loss(moved, PRESENT, w), rel=1e-15
    )
    absent = pred(0.1, 0.1, 0.2, 0.2, 0.3)
    assert rrolo_loss(absent, ABSENT, scaled) == 3.0 * rrolo_loss(absent, ABSENT, w)


def test_losses_nonnegative_random():
    rng = np.random.default_rng(5)
    w = LossWeights(5, 1, 0.5)
    for _ in range(300):
        tb = random_box_tuple(rng, 0.05, 0.7)
        pb = random_box_tuple(rng, 0.05, 0.7)
        p = rng.uniform(0.0, 1.0)
        truth = Annotation(0, True, BoundingBox(*tb)) if rng.uniform() < 0.7 else ABSENT
        assert vgg_loss(pred(*pb, p), truth) >= 0.0
        assert rrolo_loss(pred(*pb, p), truth, w) >= 0.0


def test_weights_validation():
    with pytest.raises(ValueError):
        LossWeights(-1.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        LossWeights(float("inf"), 1.0, 0.5)


def test_numeric_gradient_quadratic():
    g = numeric_gradient(lambda v: float(v[0] ** 2), [3.0], step=1e-5)
    assert g[0] == pytest.approx(6.0, abs=1e-6)


def test_numeric_gradient_constant():
    g = numeric_gradient(lambda v: 2.5, [0.3, 0.7, 0.1], step=1e-6)
    assert np.all(g == 0.0)


def test_numeric_gradient_rejects_non_finite():
    with pytest.raises(ValueError):
        numeric_gradient(lambda v: float("nan"), [0.5])


def test_rrolo_confidence_derivative_analytic():
    w = LossWeights(5, 1, 0.5)
    truth = PRESENT
    box = BoundingBox(0.3, 0.25, 0.45, 0.35, 0.6)
    overlap = iou(box, truth.truth_box)

    def f(v):
        return rrolo_loss(pred(box.x, box.y, box.w, box.h, float(v[0])), truth, w)

    numeric = numeric_gradient(f, [0.6], step=1e-6)[0]
    assert numeric == pytest.approx(-2.0 * w.alpha_obj * (overlap - 0.6), rel=1e-6)


def _smooth_sample(rng):
    """Random (pred, truth) pair clear of every non-smooth locus by > 1e-3."""
    while True:
        tb = random_box_tuple(rng, 0.2, 0.5)
        pb = random_box_tuple(rng, 0.2, 0.5)
        p = rng.uniform(0.05, 0.95)
        coords_apart = all(abs(a - b) > 1e-3 for a, b in zip(pb, tb))
        edges = [
            pb[0] - tb[0],
            (pb[0] + pb[2]) - (tb[0] + tb[2]),
            pb[1] - tb[1],
            (pb[1] + pb[3]) - (tb[1] + tb[3]),
        ]
        overlap = iou(BoundingBox(*pb), BoundingBox(*tb))
        if (
            coords_apart
            and overlap > 1e-3
            and all(abs(e) > 1e-3 for e in edges)
            and min(pb) > 1e-3
        ):
            return pb, tb, p


def _check_gradients(analytic, numeric):
    for a, n in zip(analytic, numeric):
        assert abs(n - a) / max(abs(a), 1e-4) < 1e-4


def test_gradients_match_central_differences_at_interior_points():
    rng = np.random.default_rng(417)
    w = LossWeights(5, 1, 0.5)
    for _ in range(100):
        pb, tb, p = _smooth_sample(rng)
        truth = Annotation(0, True, BoundingBox(*tb))
        point = np.array([*pb, p])

        def f_rrolo(v):
            return rrolo_loss(pred(*v), truth, w)

        def f_vgg(v):
            return vgg_loss(pred(*v), truth)

        _check_gradients(
            rrolo_gradient(pred(*point), truth, w), numeric_gradient(f_rrolo, point, 1e-6)
        )
        _check_gradients(
            vgg_gradient(pred(*point), truth), numeric_gradient(f_vgg, point, 1e-6)
        )

        # absent-frame branch
        absent_point = np.array([*pb, p])
        _check_gradients(
            rrolo_gradient(pred(*absent_point), ABSENT, w),
            numeric_gradient(lambda v: rrolo_loss(pred(*v), ABSENT, w), absent_point, 1e-6),
        )
        _check_gradients(
            vgg_gradient(pred(*absent_point), ABSENT),
            numeric_gradient(lambda v: vgg_loss(pred(*v), ABSENT), absent_point, 1e-6),
        )
