import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uwconvoy.geometry import (
    _FIELD_EPS,
    _SUM_EPS,
    Annotation,
    BoundingBox,
    box_area,
    box_center,
    clip_box_to_image,
    iou,
    iou_gradient,
)

from oracles import per_field_box_fault, pixel_grid_iou, random_box_tuple


def test_iou_identical_boxes():
    a = BoundingBox(0.1, 0.1, 0.3, 0.3)
    assert iou(a, a) == 1.0


def test_iou_disjoint_boxes():
    a = BoundingBox(0.0, 0.0, 0.2, 0.2)
    b = BoundingBox(0.5, 0.5, 0.2, 0.2)
    assert iou(a, b) == 0.0


def test_iou_partial_overlap_analytic():
    # intersection 0.2*0.2 = 0.04, union 2*0.16 - 0.04 = 0.28
    a = BoundingBox(0.0, 0.0, 0.4, 0.4)
    b = BoundingBox(0.2, 0.2, 0.4, 0.4)
    expected = 0.04 / 0.28
    assert iou(a, b) == pytest.approx(expected, abs=1e-12)
    assert pixel_grid_iou(astuple(a), astuple(b)) == pytest.approx(expected, abs=5e-3)


def test_iou_zero_area_union_is_zero():
    a = BoundingBox(0.5, 0.5, 0.0, 0.0)
    b = BoundingBox(0.5, 0.5, 0.0, 0.0)
    assert iou(a, b) == 0.0


def test_box_area_examples():
    assert box_area(BoundingBox(0, 0, 1, 1)) == 1.0
    assert box_area(BoundingBox(0.2, 0.2, 0.5, 0.4)) == pytest.approx(0.2, abs=1e-12)
    assert box_area(BoundingBox(0, 0, 0, 0.5)) == 0.0


def test_box_center_examples():
    assert box_center(BoundingBox(0.25, 0.25, 0.5, 0.5)) == (0.5, 0.5)
    assert box_center(BoundingBox(0, 0, 0.2, 0.4)) == pytest.approx((0.1, 0.2))
    assert box_center(BoundingBox(0.8, 0.0, 0.2, 0.2)) == pytest.approx((0.9, 0.1))


def test_iou_symmetry_and_bounds_random():
    rng = np.random.default_rng(11)
    for _ in range(300):
        a = BoundingBox(*random_box_tuple(rng))
        b = BoundingBox(*random_box_tuple(rng))
        v = iou(a, b)
        assert v == iou(b, a)
        ratio = min(box_area(a), box_area(b)) / max(box_area(a), box_area(b))
        assert 0.0 <= v <= ratio + 1e-12
        assert iou(a, a) == 1.0


def test_iou_matches_pixel_grid_oracle_sample():
    rng = np.random.default_rng(20240817)
    for _ in range(100):
        a = random_box_tuple(rng)
        b = random_box_tuple(rng)
        assert abs(iou(BoundingBox(*a), BoundingBox(*b)) - pixel_grid_iou(a, b)) <= 5e-3


def test_iou_gradient_matches_central_differences():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 50:
        a = random_box_tuple(rng, 0.2, 0.5)
        b = random_box_tuple(rng, 0.2, 0.5)
        edges = [a[0] - b[0], (a[0] + a[2]) - (b[0] + b[2]),
                 a[1] - b[1], (a[1] + a[3]) - (b[1] + b[3])]
        overlap = iou(BoundingBox(*a), BoundingBox(*b))
        if overlap < 1e-3 or any(abs(e) < 1e-3 for e in edges):
            continue
        checked += 1
        grad = iou_gradient(BoundingBox(*a), BoundingBox(*b))
        h = 1e-6
        for i in range(4):
            hi, lo = list(a), list(a)
            hi[i] += h
            lo[i] -= h
            num = (iou(BoundingBox(*hi), BoundingBox(*b)) - iou(BoundingBox(*lo), BoundingBox(*b))) / (2 * h)
            assert grad[i] == pytest.approx(num, abs=1e-5)


@pytest.mark.parametrize(
    "fields",
    [
        dict(x=-0.1, y=0.0, w=0.5, h=0.5),
        dict(x=0.0, y=0.0, w=1.2, h=0.5),
        dict(x=0.7, y=0.0, w=0.5, h=0.5),  # x+w > 1
        dict(x=0.0, y=0.9, w=0.5, h=0.3),  # y+h > 1
        dict(x=0.0, y=0.0, w=0.5, h=0.5, p=1.5),
        dict(x=float("nan"), y=0.0, w=0.5, h=0.5),
    ],
)
def test_bounding_box_invariants_rejected(fields):
    with pytest.raises(ValueError):
        BoundingBox(**fields)


# each bound of a field, the floats next to it, and the values that no
# bound admits
_BOX_FIELD = st.sampled_from(
    [
        v
        for bound in (-_FIELD_EPS, 0.0, 1.0, 1.0 + _FIELD_EPS)
        for v in (np.nextafter(bound, -np.inf), bound, np.nextafter(bound, np.inf))
    ]
    + [math.nan, math.inf, -math.inf, -1.0, 2.0]
) | st.floats(-0.01, 1.01) | st.floats()


@st.composite
def _box_fields(draw):
    """x, y, w, h, p; now and then w or h puts x + w or y + h within a few
    floats of the edge's bound 1 + _SUM_EPS, on either side of it."""
    fields = [draw(_BOX_FIELD) for _ in range(5)]
    for start, size in ((0, 2), (1, 3)):
        if draw(st.booleans()):
            fields[start] = draw(st.floats(0.0, 1.0))
            size_value = (1.0 + _SUM_EPS) - fields[start]
            steps = draw(st.integers(-3, 3))
            for _ in range(abs(steps)):
                size_value = np.nextafter(size_value, math.copysign(math.inf, steps))
            fields[size] = float(size_value)
    return tuple(float(v) for v in fields)


@settings(max_examples=2000, deadline=None)
@given(fields=_box_fields())
@example(fields=(0.5, 0.0, 0.5 + _SUM_EPS, 0.5, 1.0))
@example(fields=(0.5, 0.0, float(np.nextafter(0.5 + _SUM_EPS, 1.0)), 0.5, 1.0))
@example(fields=(0.0, 0.5, 0.5, float(np.nextafter(0.5 + _SUM_EPS, 1.0)), 1.0))
@example(fields=(0.0, 0.0, 0.5, 0.5, math.nan))
@example(fields=(-math.inf, 0.0, math.inf, 0.5, 1.0))
def test_bounding_box_accepts_and_refuses_as_the_per_field_checks(fields):
    fault = per_field_box_fault(*fields, _FIELD_EPS, _SUM_EPS)
    if fault is None:
        assert astuple(BoundingBox(*fields)) == fields
    else:
        with pytest.raises(ValueError) as refused:
            BoundingBox(*fields)
        assert str(refused.value) == fault


def test_annotation_presence_consistency():
    box = BoundingBox(0.1, 0.1, 0.2, 0.2)
    Annotation(0, True, box)
    Annotation(1, False)
    with pytest.raises(ValueError):
        Annotation(0, True, None)
    with pytest.raises(ValueError):
        Annotation(0, False, box)
    with pytest.raises(ValueError):
        Annotation(-1, False)


def test_clip_box_to_image():
    clipped = clip_box_to_image(-0.2, 0.5, 0.4, 0.7)
    assert clipped == BoundingBox(0.0, 0.5, 0.2, 0.5, 1.0)
    assert clip_box_to_image(1.2, 0.0, 0.5, 0.5) is None
