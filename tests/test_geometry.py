import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyldet import (
    BehindCamera,
    Box2D,
    Box3D,
    Detection,
    box3d_corners,
    iou_2d,
    iou_3d,
    iou_bev,
    nms_bev,
    normalize_yaw,
    project_box,
    project_boxes,
)
from cyldet import geometry
from cyldet.synthetic import make_calibration
from conftest import random_car_box
from oracles import (
    corner_offsets_reference,
    iou_3d_reference,
    iou_bev_reference,
    mc_iou_3d,
    mc_iou_bev,
    nms_bev_reference,
    outcome_bits,
    outcome_of,
    polygon_area_reference,
    project_box_reference,
    project_corners_reference,
)


class TestBoxTypes:
    def test_box2d_requires_ordering(self):
        with pytest.raises(ValueError):
            Box2D(5, 0, 1, 10)
        with pytest.raises(ValueError):
            Box2D(0, 10, 5, 10)

    def test_box3d_requires_positive_dims(self):
        with pytest.raises(ValueError):
            Box3D((0, 0, 10), (1.0, -1.0, 1.0), 0.0)
        with pytest.raises(ValueError):
            Box3D((0, 0, 10), (1.0, 0.0, 1.0), 0.0)

    @pytest.mark.parametrize("yaw", [math.nan, math.inf, -math.inf])
    def test_box3d_requires_a_finite_yaw(self, yaw):
        # a NaN yaw used to be stored, and an infinite one wrapped to NaN
        with pytest.raises(ValueError, match="box fields must be finite"):
            Box3D((0, 0, 10), (1, 1, 1), yaw)

    def test_yaw_normalized_to_half_open_interval(self):
        assert Box3D((0, 0, 1), (1, 1, 1), math.pi).yaw == -math.pi
        assert Box3D((0, 0, 1), (1, 1, 1), 3 * math.pi / 2).yaw == pytest.approx(
            -math.pi / 2
        )
        assert normalize_yaw(-math.pi) == -math.pi


class TestCorners:
    def test_unit_cube_corners(self):
        corners = box3d_corners(Box3D((0, 0, 0.0001), (1, 1, 1), 0.0))
        got = {tuple(np.round(c, 9)) for c in corners - [0, 0, 0.0001]}
        want = {
            (sx, sy, sz)
            for sx in (-0.5, 0.5)
            for sy in (-0.5, 0.5)
            for sz in (-0.5, 0.5)
        }
        assert got == want

    def test_bottom_face_first(self):
        # camera y points down, so the bottom face sits at +H/2
        corners = box3d_corners(Box3D((0, 0, 5), (1, 2, 1), 0.0))
        np.testing.assert_allclose(corners[:4, 1], 1.0)
        np.testing.assert_allclose(corners[4:, 1], -1.0)

    def test_yaw_pi_permutes_corner_set(self):
        box0 = Box3D((1, 2, 3), (1.2, 1.4, 3.0), 0.0)
        box1 = Box3D((1, 2, 3), (1.2, 1.4, 3.0), math.pi)
        set0 = {tuple(np.round(c, 9)) for c in box3d_corners(box0)}
        set1 = {tuple(np.round(c, 9)) for c in box3d_corners(box1)}
        assert set0 == set1

    def test_quarter_turn_swaps_extents(self):
        corners = box3d_corners(Box3D((0, 0, 5), (1, 1, 2), math.pi / 2))
        assert corners[:, 0].max() - corners[:, 0].min() == pytest.approx(2.0)
        assert corners[:, 2].max() - corners[:, 2].min() == pytest.approx(1.0)


class TestProjectBox:
    def test_near_face_dominates(self, simple_p):
        box = Box3D((0, 0, 10), (2, 2, 2), 0.0)
        b = project_box(box, simple_p)
        assert b.xmin == pytest.approx(-100.0 / 9.0)
        assert b.xmax == pytest.approx(100.0 / 9.0)
        assert b.ymin == pytest.approx(-100.0 / 9.0)
        assert b.ymax == pytest.approx(100.0 / 9.0)

    def test_behind_camera(self, simple_p):
        with pytest.raises(BehindCamera):
            project_box(Box3D((0, 0, -10), (1, 1, 1), 0.0), simple_p)
        # partially behind also rejected
        with pytest.raises(BehindCamera):
            project_box(Box3D((0, 0, 0.4), (1, 1, 1), 0.0), simple_p)

    def test_matches_reference_projection(self, calib):
        rng = np.random.default_rng(4)
        for _ in range(50):
            box = random_car_box(rng)
            b = project_box(box, calib.p2)
            xmin, ymin, xmax, ymax = project_corners_reference(box, calib.p2)
            np.testing.assert_allclose(
                [b.xmin, b.ymin, b.xmax, b.ymax], [xmin, ymin, xmax, ymax],
                rtol=1e-12,
            )

    def test_translation_moves_hull_right(self, simple_p):
        box = Box3D((0, 0, 10), (2, 2, 2), 0.0)
        previous = project_box(box, simple_p)
        for delta in (0.5, 1.0, 2.0):
            moved = project_box(Box3D((delta, 0, 10), (2, 2, 2), 0.0), simple_p)
            assert moved.xmin > previous.xmin
            assert moved.xmax > previous.xmax
            previous = moved


# yaws at and beside +-pi, where Box3D's wrap flips the sign
_NEAR_PI = [v for pi in (math.pi, -math.pi)
            for v in (pi, math.nextafter(pi, 0.0), math.nextafter(pi, 2 * pi))]


@st.composite
def _boxes(draw):
    center = draw(st.tuples(st.floats(-30.0, 30.0), st.floats(-3.0, 3.0),
                            st.floats(-8.0, 70.0)))
    dims = draw(st.tuples(*[st.floats(0.05, 12.0)] * 3))
    yaw = draw(st.one_of(st.floats(-4.0, 4.0), st.sampled_from(_NEAR_PI)))
    return Box3D(center, dims, yaw)


@st.composite
def _projections(draw):
    """KITTI's P2, or a skewed 3x4 matrix whose last row reads x and y."""
    if draw(st.booleans()):
        return make_calibration().p2
    entry = st.floats(-1000.0, 1000.0)
    small = st.floats(-0.5, 0.5)
    return np.array([
        [draw(st.floats(100.0, 1000.0)), draw(entry), draw(entry), draw(entry)],
        [draw(small), draw(st.floats(100.0, 1000.0)), draw(entry), draw(entry)],
        [draw(small) * 0.01, draw(small) * 0.01, 1.0, draw(small)],
    ])


class TestProjectBoxesMatchesReference:
    """project_boxes against the one-box projection it replaced, box by
    box, bit for bit: the hulls' float bytes, and the type and message of
    each rejection.  The stacked (R * 8, 3) product is a BLAS call, so CI
    runs this with one BLAS thread too."""

    @settings(max_examples=300, deadline=None)
    @given(boxes=st.lists(_boxes(), max_size=10), p=_projections())
    @example(boxes=[], p=make_calibration().p2)
    # corners on the camera plane, z == 0, are behind it too
    @example(boxes=[Box3D((0.0, 0.0, 2.0), (1.0, 1.0, 4.0), 0.0)],
             p=make_calibration().p2)
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_each_box_as_the_reference_projects_it(self, boxes, p):
        want = [outcome_bits(outcome_of(project_box_reference, box, p))
                for box in boxes]
        assert [outcome_bits(hull) for hull in project_boxes(boxes, p)] == want
        assert [outcome_bits(outcome_of(project_box, box, p))
                for box in boxes] == want

    def test_behind_camera_boxes_keep_their_places(self, calib):
        ahead = Box3D((1.0, 1.0, 20.0), (1.6, 1.5, 3.9), 0.3)
        behind = Box3D((1.0, 1.0, 1.0), (1.6, 1.5, 3.9), 0.3)
        hulls = project_boxes([behind, ahead, behind, ahead], calib.p2)
        assert [type(h) for h in hulls] == [BehindCamera, Box2D] * 2
        assert hulls[1] == hulls[3] == project_box(ahead, calib.p2)


class TestIou2d:
    def test_identical(self):
        box = Box2D(10, 20, 110, 220)
        assert iou_2d(box, box) == 1.0

    def test_disjoint(self):
        assert iou_2d(Box2D(0, 0, 1, 1), Box2D(5, 5, 6, 6)) == 0.0

    def test_half_offset_unit_squares(self):
        value = iou_2d(Box2D(0, 0, 1, 1), Box2D(0.5, 0, 1.5, 1))
        assert value == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            vals = rng.uniform(0, 100, size=8)
            a = Box2D(vals[0], vals[1], vals[0] + vals[2] + 1, vals[1] + vals[3] + 1)
            b = Box2D(vals[4], vals[5], vals[4] + vals[6] + 1, vals[5] + vals[7] + 1)
            assert iou_2d(a, b) == iou_2d(b, a)
            assert 0.0 <= iou_2d(a, b) <= 1.0


class TestIouBev:
    def test_identical(self):
        box = Box3D((3, 1, 20), (1.6, 1.5, 4.0), 0.7)
        assert iou_bev(box, box) == pytest.approx(1.0, abs=1e-12)

    def test_rotated_45_degrees(self):
        a = Box3D((0, 0, 10), (1, 1, 1), 0.0)
        b = Box3D((0, 0, 10), (1, 1, 1), math.pi / 4)
        # octagon intersection: area 2*(sqrt(2)-1), IoU sqrt(2)/2
        assert iou_bev(a, b) == pytest.approx(math.sqrt(2) / 2, abs=1e-12)

    def test_half_offset_footprints(self):
        a = Box3D((0, 0, 10), (1, 1, 1), 0.0)
        b = Box3D((0.5, 0, 10), (1, 1, 1), 0.0)
        assert iou_bev(a, b) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_touching_edges_have_zero_overlap(self):
        # boxes sharing exactly one footprint edge: degenerate intersection
        a = Box3D((0.0, 0, 10), (1, 1, 2), 0.0)
        b = Box3D((1.0, 0, 10), (1, 1, 2), 0.0)
        assert iou_bev(a, b) == 0.0
        assert iou_3d(a, b) == 0.0

    def test_footprints_apart_skip_the_clip(self, monkeypatch):
        def no_clip(subject, clip):
            raise AssertionError("clipped footprints that cannot touch")

        monkeypatch.setattr(geometry, "clip_polygon", no_clip)
        a = Box3D((0.0, 0, 10), (1.6, 1.5, 4.0), 0.3)
        b = Box3D((4.4, 0, 10), (1.6, 1.5, 4.0), -1.2)
        assert iou_bev(a, b) == 0.0
        assert iou_3d(a, b) == 0.0

    def test_footprint_pi_symmetry(self):
        a = Box3D((1, 0, 10), (1.5, 1.2, 4.0), 0.3)
        b = Box3D((1, 0, 10), (1.5, 1.2, 4.0), 0.3 + math.pi)
        assert iou_bev(a, b) == pytest.approx(1.0, abs=1e-9)

    def test_rigid_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            a = random_car_box(rng)
            b = random_car_box(rng, z_range=(a.center[2] - 2, a.center[2] + 2))
            base = iou_bev(a, b)
            phi = rng.uniform(-math.pi, math.pi)
            c, s = math.cos(phi), math.sin(phi)

            def rotate(box):
                x, y, z = box.center
                return Box3D((c * x + s * z, y, -s * x + c * z),
                             box.dims, box.yaw + phi)

            assert iou_bev(rotate(a), rotate(b)) == pytest.approx(base, abs=1e-9)

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(11)
        for i in range(10):
            a = random_car_box(rng, z_range=(10, 14))
            b = random_car_box(rng, z_range=(10, 14))
            got = iou_bev(a, b)
            want = mc_iou_bev(a, b, n_samples=200_000, seed=i)
            assert got == pytest.approx(want, abs=5e-3)


class TestIou3d:
    def test_identical(self):
        box = Box3D((3, 1, 20), (1.6, 1.5, 4.0), 0.7)
        assert iou_3d(box, box) == pytest.approx(1.0, abs=1e-12)

    def test_full_vertical_offset(self):
        a = Box3D((0, 0, 10), (1, 2, 1), 0.0)
        b = Box3D((0, 2, 10), (1, 2, 1), 0.0)
        assert iou_3d(a, b) == 0.0

    def test_half_offset_unit_cubes(self):
        a = Box3D((0, 0, 10), (1, 1, 1), 0.0)
        b = Box3D((0.5, 0, 10), (1, 1, 1), 0.0)
        assert iou_3d(a, b) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = random_car_box(rng, z_range=(10, 16))
            b = random_car_box(rng, z_range=(10, 16))
            ab, ba = iou_3d(a, b), iou_3d(b, a)
            assert ab == ba
            assert 0.0 <= ab <= 1.0

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(13)
        for i in range(10):
            a = random_car_box(rng, z_range=(10, 13))
            b = random_car_box(rng, z_range=(10, 13))
            got = iou_3d(a, b)
            want = mc_iou_3d(a, b, n_samples=200_000, seed=100 + i)
            assert got == pytest.approx(want, abs=5e-3)


def _boxes(z_min=2.0):
    coord = st.floats(-20.0, 20.0)
    return st.builds(
        lambda x, y, z, dims, yaw: Box3D((x, y, z), dims, yaw),
        coord, st.floats(-2.0, 2.0), st.floats(z_min, 60.0),
        st.tuples(*[st.floats(0.3, 6.0)] * 3), st.floats(-math.pi, math.pi),
    )


@st.composite
def _box_pairs(draw):
    """A box and a second box near it, so that many pairs overlap."""
    a = draw(_boxes(z_min=10.0))
    offset = draw(st.tuples(*[st.floats(-3.0, 3.0)] * 3))
    b = draw(_boxes())
    center = tuple(c + o for c, o in zip(a.center, offset))
    return a, Box3D(center, b.dims, b.yaw)


def _turned(box, angle, dims=None):
    return Box3D(box.center, dims or box.dims, box.yaw + angle)


class TestIouProperties:
    """iou_bev and iou_3d on random box pairs: symmetric, in [0, 1], 1 on
    the box itself, blind to yaw + pi, and 1 for a quarter turn with
    width and length swapped (the same footprint)."""

    @settings(max_examples=300, deadline=None)
    @given(_box_pairs())
    # the shoelace area of this clip exceeds 0.3 * 0.3 by a few ulp
    @example((Box3D((0.0, 0.0, 10.0), (0.3, 1.0, 0.3), 0.0),) * 2)
    def test_symmetric_and_bounded(self, pair):
        a, b = pair
        for iou in (iou_bev, iou_3d):
            ab = iou(a, b)
            assert 0.0 <= ab <= 1.0
            assert iou(b, a) == ab

    @settings(max_examples=300, deadline=None)
    @given(_boxes())
    def test_box_with_itself(self, box):
        for iou in (iou_bev, iou_3d):
            assert iou(box, box) == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=300, deadline=None)
    @given(_box_pairs())
    def test_yaw_plus_pi_changes_nothing(self, pair):
        a, b = pair
        for iou in (iou_bev, iou_3d):
            assert iou(_turned(a, math.pi), b) == pytest.approx(
                iou(a, b), abs=1e-9)
            assert iou(a, _turned(a, math.pi)) == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=300, deadline=None)
    @given(_boxes(), st.sampled_from([-1, 1]))
    def test_quarter_turn_with_swapped_extents(self, box, sign):
        w, h, length = box.dims
        turned = _turned(box, sign * math.pi / 2, (length, h, w))
        for iou in (iou_bev, iou_3d):
            assert iou(box, turned) == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=300, deadline=None)
    @given(_boxes(z_min=10.0), st.sampled_from([0, 2]), st.sampled_from([-1, 1]))
    def test_touching_footprints_do_not_overlap(self, box, axis, sign):
        # the neighbour shares one footprint edge: shifted by the full
        # extent along the box's own width (axis 0) or length (axis 2)
        c, s = math.cos(box.yaw), math.sin(box.yaw)
        direction = (c, -s) if axis == 0 else (s, c)
        step = sign * box.dims[axis]
        x, y, z = box.center
        neighbour = Box3D((x + step * direction[0], y,
                           z + step * direction[1]), box.dims, box.yaw)
        for iou in (iou_bev, iou_3d):
            assert iou(box, neighbour) == pytest.approx(0.0, abs=1e-9)


def _clip_only(iou, a, b):
    with pytest.MonkeyPatch.context() as m:
        m.setattr(geometry, "_footprints_apart", lambda a, b: False)
        return iou(a, b)


_GAPS = (st.floats(-1e-3, 1e-3)
         | st.sampled_from([0.0, 1e-13, -1e-13, 1e-12, 3e-9, 1e-8, 1e-6]))


@st.composite
def _near_touching_pairs(draw):
    """Two boxes whose footprints' circumscribed circles are within 1e-3 m
    of touching, at any yaw.  In half of the pairs a corner of each
    footprint points, within 1e-3 rad, at the other's center, so that the
    footprints themselves come that close to touching."""
    a = draw(_boxes(z_min=10.0))
    dims = draw(st.tuples(*[st.floats(0.3, 6.0)] * 3))
    reach = 0.5 * (math.hypot(a.dims[0], a.dims[2])
                   + math.hypot(dims[0], dims[2]))
    distance = reach + draw(_GAPS)
    if draw(st.booleans()):
        corner = draw(st.integers(0, 3))
        x, _, z = corner_offsets_reference(a.dims, a.yaw)[corner]
        direction = math.atan2(z, x)
        # a yaw turns the footprint clockwise in the x-z plane; corner 0 of
        # the second box then points back along the center line
        yaw = (math.atan2(dims[2], dims[0]) - direction - math.pi
               + draw(st.floats(-1e-3, 1e-3)))
    else:
        direction = draw(st.floats(-math.pi, math.pi))
        yaw = draw(st.floats(-math.pi, math.pi))
    ax, ay, az = a.center
    center = (ax + distance * math.cos(direction),
              ay + draw(st.floats(-1.0, 1.0)),
              az + distance * math.sin(direction))
    return a, Box3D(center, dims, yaw)


class TestSeparationReject:
    """The reject of footprints whose circumscribed circles lie apart gives
    the clip's own result, bit for bit, on pairs at the edge of it."""

    @settings(max_examples=1000, deadline=None)
    @given(_near_touching_pairs())
    def test_equals_the_clip(self, pair):
        a, b = pair
        for iou in (iou_bev, iou_3d):
            for x, y in ((a, b), (b, a)):
                assert iou(x, y).hex() == _clip_only(iou, x, y).hex()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_near_touching_pairs(), min_size=1, max_size=6),
           st.lists(st.floats(0.0, 1.0), min_size=12, max_size=12))
    def test_nms_at_threshold_zero_is_unchanged(self, pairs, confidences):
        box2d = Box2D(0.0, 0.0, 1.0, 1.0)
        dets = [Detection(box, box2d, 1.0, c)
                for box, c in zip([box for pair in pairs for box in pair],
                                  confidences)]
        assert nms_bev(dets, 0.0) == _clip_only(nms_bev, dets, 0.0)


def _signed_zero_twins(box):
    """The box moved to x = 0.0, and an equal box at x = -0.0."""
    _, y, z = box.center
    return [Box3D((x, y, z), box.dims, box.yaw) for x in (0.0, -0.0)]


@st.composite
def _detection_sets(draw):
    """Detections on near-touching and overlapping boxes, with repeats of
    one box object, equal copies, signed-zero twins and tied confidences."""
    pairs = draw(st.lists(_near_touching_pairs() | _box_pairs(),
                          min_size=1, max_size=5))
    boxes = [box for pair in pairs for box in pair]
    for i in draw(st.lists(st.integers(0, len(boxes) - 1), max_size=4)):
        box = boxes[i]
        boxes += draw(st.sampled_from([
            [box], [Box3D(box.center, box.dims, box.yaw)],
            _signed_zero_twins(box)]))
    confidence = st.sampled_from([0.25, 0.5, 0.5, 0.9]) | st.floats(0.0, 1.0)
    box2d = Box2D(0.0, 0.0, 1.0, 1.0)
    return [Detection(box, box2d, 1.0, draw(confidence)) for box in boxes]


class TestOverlapBits:
    """IoUs, areas and NMS equal the references (the overlap code that
    rebuilt both footprints for every pair and clipped on numpy scalars)
    bit for bit, with and without a footprint memo."""

    @settings(max_examples=500, deadline=None)
    @given(_near_touching_pairs() | _box_pairs(), st.booleans())
    @example((Box3D((0.0, 0.0, 10.0), (0.3, 1.0, 0.3), 0.0),) * 2, False)
    @example(tuple(_signed_zero_twins(Box3D((1.0, 0.0, 10.0), (1.6, 1.5, 3.9),
                                            0.4))), True)
    def test_ious_equal_the_reference(self, pair, zero_twins):
        a, b = pair
        boxes = [a, b] + (_signed_zero_twins(a) if zero_twins else [])
        memo = {}
        for iou, reference in ((iou_bev, iou_bev_reference),
                               (iou_3d, iou_3d_reference)):
            for x in boxes:
                for y in boxes:
                    want = reference(x, y).hex()
                    assert iou(x, y).hex() == want
                    assert iou(x, y, memo).hex() == want

    @settings(max_examples=1000, deadline=None)
    @given(st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3))
                    | st.tuples(st.floats(-1.0, 1.0), st.floats(-1e-6, 1e-6)),
                    min_size=3, max_size=8))
    def test_polygon_area_equals_the_reference(self, vertices):
        poly = np.array(vertices)
        assert (geometry.polygon_area(poly).hex()
                == polygon_area_reference(poly).hex())

    @settings(max_examples=300, deadline=None)
    @given(_detection_sets(),
           st.sampled_from([0.0, 0.1, 0.5, 0.7]) | st.floats(0.0, 1.0))
    def test_nms_keeps_what_the_reference_keeps(self, dets, threshold):
        kept = nms_bev(dets, threshold)
        assert [id(d) for d in kept] == [
            id(d) for d in nms_bev_reference(dets, threshold)]
