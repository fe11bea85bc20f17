import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cyldet import (
    Box2D,
    Box3D,
    CornerConfiguration,
    MonoEstimate,
    NoFeasibleConfiguration,
    ScatterParams,
    SingularSystem,
    box3d_corners,
    enumerate_configurations,
    geometric_agreement_search,
    iou_2d,
    project_box,
    solve_translation,
    spatial_scatter,
)
from cyldet.geometry import (project_points, rotations_about_y,
                             stacked_corner_offsets)
from cyldet.mono import (
    _SEARCH_TABLES,
    agreement_search_frame,
    spatial_scatter_frame,
    _feasibility,
    _side_systems,
    _solve_configs,
)
from conftest import random_car_box
from oracles import (
    agreement_search_reference,
    solve_translation_reference,
    spatial_scatter_reference,
)


def tight_configuration(box, p):
    """True tangency assignment, read off the projected corners."""
    uv = project_points(box3d_corners(box), np.asarray(p))
    return CornerConfiguration(
        left=int(np.argmin(uv[:, 0])),
        right=int(np.argmax(uv[:, 0])),
        top=int(np.argmin(uv[:, 1])),
        bottom=int(np.argmax(uv[:, 1])),
    )


class TestSolveTranslation:
    def test_round_trip_with_true_configuration(self, calib):
        rng = np.random.default_rng(0)
        for _ in range(40):
            box = random_car_box(rng)
            b2d = project_box(box, calib.p2)
            config = tight_configuration(box, calib.p2)
            center, residual = solve_translation(
                b2d, box.dims, box.yaw, config, calib.p2
            )
            assert np.linalg.norm(center - box.center) < 1e-3
            assert residual < 1e-6

    def test_single_corner_configuration_is_singular(self, calib):
        config = CornerConfiguration(left=3, right=3, top=3, bottom=3)
        with pytest.raises(SingularSystem):
            solve_translation(
                Box2D(100, 100, 200, 200), (1.6, 1.5, 3.9), 0.3, config, calib.p2
            )

    def test_opposite_sides_sharing_a_corner_are_singular(self, calib):
        with pytest.raises(SingularSystem):
            solve_translation(
                Box2D(100, 100, 200, 200), (1.6, 1.5, 3.9), 0.3,
                CornerConfiguration(left=2, right=2, top=4, bottom=1), calib.p2,
            )

    def test_projective_scale_invariance(self, simple_p):
        box = Box3D((1.0, 0.2, 12.0), (1.6, 1.5, 3.9), 0.4)
        b2d = project_box(box, simple_p)
        config = tight_configuration(box, simple_p)
        center, _ = solve_translation(b2d, box.dims, box.yaw, config, simple_p)

        doubled_p = simple_p.copy()
        doubled_p[0, 0] *= 2.0
        doubled_p[1, 1] *= 2.0
        doubled_b2d = Box2D(2 * b2d.xmin, 2 * b2d.ymin, 2 * b2d.xmax, 2 * b2d.ymax)
        center2, _ = solve_translation(
            doubled_b2d, box.dims, box.yaw, config, doubled_p
        )
        np.testing.assert_allclose(center2, center, atol=1e-9)

    def test_larger_dims_solve_farther_from_camera(self, calib):
        # same 2D box with grown physical size implies a more distant object
        rng = np.random.default_rng(1)
        for _ in range(100):
            box = random_car_box(rng)
            b2d = project_box(box, calib.p2)
            config = tight_configuration(box, calib.p2)
            grown = tuple(1.05 * d for d in box.dims)
            center, _ = solve_translation(
                b2d, grown, box.yaw, config, calib.p2, residual_cap=np.inf
            )
            assert center[2] > box.center[2]
            assert np.linalg.norm(center) > np.linalg.norm(box.center)


class TestConfigurationSet:
    def test_full_enumeration_size(self):
        configs = enumerate_configurations()
        assert configs.shape == (4096, 4)
        assert len(np.unique(configs, axis=0)) == 4096

    def test_row_i_holds_the_base8_digits_of_i(self):
        np.testing.assert_array_equal(
            enumerate_configurations() @ [512, 64, 8, 1], np.arange(4096))

    def test_configuration_index_is_base8(self):
        config = CornerConfiguration(left=1, right=2, top=3, bottom=4)
        assert config.index == ((1 * 8 + 2) * 8 + 3) * 8 + 4


def _edge_groups(configs):
    """Group number of each configuration row: rows with equal
    (left & 3, right & 3, top, bottom), whose left and right corners lie
    on the same vertical edges, share one."""
    keys = np.column_stack((configs[:, :2] & 3, configs[:, 2:]))
    return np.unique(keys, axis=0, return_inverse=True)[1].ravel()


class TestRepresentativeRows:
    """Corners i and i + 4 share a vertical edge.  With P[0, 1] == P[2, 1]
    == 0 the rows of one group solve and test alike, bit for bit, so the
    search solves only each group's lowest configuration index."""

    def test_each_group_keeps_its_lowest_index(self):
        (configs, index), (reps, rep_index) = _SEARCH_TABLES
        assert (len(configs), len(reps)) == (3136, 896)
        np.testing.assert_array_equal(reps @ [512, 64, 8, 1], rep_index)
        lowest = {}
        for group, i in zip(_edge_groups(configs).tolist(), index.tolist()):
            lowest[group] = min(lowest.get(group, i), i)
        assert sorted(rep_index.tolist()) == sorted(lowest.values())

    @pytest.mark.parametrize("skew", [None, (0, 1), (2, 1)])
    def test_rows_of_a_group_solve_alike_without_skew(self, calib, skew):
        p = calib.p2.copy()
        if skew is not None:
            p[skew] = 1e-3
        (configs, _), _ = _SEARCH_TABLES
        groups = _edge_groups(configs)
        order = np.argsort(groups, kind="stable")
        rng = np.random.default_rng(7)
        for _ in range(10):
            box = random_car_box(rng)
            b2d = project_box(box, p)
            offsets = stacked_corner_offsets([box.dims],
                                             rotations_about_y([box.yaw]))
            a, k, coords, pinv, _, _ = _side_systems([b2d], p)
            centers = _solve_configs(a, k, pinv, offsets, configs)[0]
            rms, _ = _feasibility(coords[0], centers[:, None, :]
                                  + offsets[0][configs], p, centers, math.inf)
            solved = np.column_stack((centers, rms))[order]
            # each group is a run of 2 or 4 rows in group order; a row
            # equal to the one before it, bit for bit, is a repeat
            same = (solved[1:].view(np.int64)
                    == solved[:-1].view(np.int64)).all(axis=1)
            within = groups[order][1:] == groups[order][:-1]
            if skew is None:
                assert same[within].all()
            else:
                assert not same[within].any()


class TestAgreementSearch:
    def test_round_trip_recovery(self, calib):
        rng = np.random.default_rng(2)
        errors = []
        for _ in range(100):
            box = random_car_box(rng)
            b2d = project_box(box, calib.p2)
            est = geometric_agreement_search(b2d, box.dims, box.yaw, calib.p2)
            errors.append(np.linalg.norm(np.array(est.solved_center) - box.center))
            assert est.agreement >= 0.99
        assert np.median(errors) <= 1e-2

    def test_agreement_equals_reprojection_iou(self, calib):
        rng = np.random.default_rng(4)
        for _ in range(20):
            box = random_car_box(rng)
            b2d = project_box(box, calib.p2)
            est = geometric_agreement_search(b2d, box.dims, box.yaw, calib.p2)
            solved = Box3D(est.solved_center, est.dims, est.yaw)
            recomputed = iou_2d(b2d, project_box(solved, calib.p2))
            assert est.agreement == pytest.approx(recomputed, abs=1e-9)

    def test_scalar_multiple_of_p_changes_nothing(self, calib):
        box = Box3D((1.5, 0.4, 18.0), (1.7, 1.4, 4.2), -0.8)
        b2d = project_box(box, calib.p2)
        est1 = geometric_agreement_search(b2d, box.dims, box.yaw, calib.p2)
        est2 = geometric_agreement_search(b2d, box.dims, box.yaw, 3.7 * calib.p2)
        assert est1.best_config == est2.best_config
        np.testing.assert_allclose(est2.solved_center, est1.solved_center,
                                   atol=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(
        z=st.floats(6.0, 50.0),
        x_over_z=st.floats(-0.25, 0.25),
        y=st.floats(-1.0, 2.0),
        dims=st.tuples(st.floats(1.5, 1.9), st.floats(1.3, 1.8),
                       st.floats(3.4, 4.6)),
        yaw=st.floats(-math.pi, math.pi),
        dims_scale=st.floats(0.9, 1.1),
    )
    def test_scalar_solve_matches_search(self, calib, z, x_over_z, y, dims,
                                         yaw, dims_scale):
        box = Box3D((x_over_z * z, y, z), dims, yaw)
        b2d = project_box(box, calib.p2)
        seed_dims = tuple(dims_scale * d for d in dims)
        try:
            est = geometric_agreement_search(b2d, seed_dims, yaw, calib.p2)
        except NoFeasibleConfiguration:
            assume(False)
        solved = solve_translation(
            b2d, est.dims, est.yaw, est.best_config, calib.p2
        )
        assert solved is not None
        center, residual = solved
        # one solver, but BLAS rounds a one-row product and the full-table
        # product differently, so the two agree to about one ulp
        assert (np.linalg.norm(center - np.array(est.solved_center))
                <= 1e-9 * np.linalg.norm(center))
        # exact fits leave a residual near zero; 1e-9 px is the floor there
        assert residual == pytest.approx(est.residual, rel=1e-9, abs=1e-9)

    def test_degenerate_2d_box(self, calib):
        tiny = Box2D(600.0, 180.0, 600.0 + 1e-7, 180.0 + 1e-7)
        try:
            est = geometric_agreement_search(tiny, (1.6, 1.5, 3.9), 0.3, calib.p2)
        except NoFeasibleConfiguration:
            return
        assert est.agreement < 0.5


class TestSpatialScatter:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            ScatterParams(s=0.0)
        with pytest.raises(ValueError):
            ScatterParams(s=1.0)
        # a NaN stride used to pass, then fail every frame in the seed count
        for stride in (0.0, -1.6, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="stride must be finite"):
                ScatterParams(s=0.5, stride=stride)

    def test_zero_deviation_limit(self, calib):
        box = Box3D((2.0, 0.5, 15.0), (1.6, 1.5, 3.9), 0.3)
        b2d = project_box(box, calib.p2)
        est = geometric_agreement_search(b2d, box.dims, box.yaw, calib.p2)
        result = spatial_scatter(est, ScatterParams(s=1e-9, stride=1.6), calib.p2)
        assert len(result) == 1
        np.testing.assert_allclose(
            result.seed_points[0], est.solved_center, atol=1e-6
        )

    def test_known_span_ceiling(self, simple_p):
        # with a zero fourth column the solve scales exactly with the dims,
        # so s = 0.2 at depth 10 gives a 4 m span and ceil(4 / 1.6) = 3 seeds
        box = Box3D((0.0, 0.0, 10.0), (1.6, 1.5, 3.9), 0.25)
        b2d = project_box(box, simple_p)
        est = geometric_agreement_search(b2d, box.dims, box.yaw, simple_p)
        result = spatial_scatter(est, ScatterParams(s=0.2, stride=1.6), simple_p)
        assert np.linalg.norm(result.p2 - result.p1) == pytest.approx(4.0, abs=1e-9)
        assert len(result) == 3

    def test_seed_count_matches_ceiling(self, calib):
        rng = np.random.default_rng(5)
        for _ in range(50):
            box = random_car_box(rng)
            b2d = project_box(box, calib.p2)
            est = geometric_agreement_search(b2d, box.dims, box.yaw, calib.p2)
            s = rng.uniform(0.05, 0.8)
            stride = rng.uniform(0.5, 3.0)
            result = spatial_scatter(est, ScatterParams(s, stride), calib.p2)
            span = np.linalg.norm(result.p2 - result.p1)
            assert len(result) == max(1, math.ceil(span / stride))

    def test_seeds_equally_spaced_from_p1(self, calib):
        box = Box3D((1.0, 0.5, 20.0), (1.6, 1.5, 3.9), 1.0)
        b2d = project_box(box, calib.p2)
        est = geometric_agreement_search(b2d, box.dims, box.yaw, calib.p2)
        result = spatial_scatter(est, ScatterParams(0.5, 1.6), calib.p2)
        np.testing.assert_allclose(result.seed_points[0], result.p1, atol=1e-12)
        steps = np.diff(result.seed_points, axis=0)
        assert np.abs(steps - steps[0]).max() < 1e-9
        span = np.linalg.norm(result.p2 - result.p1)
        np.testing.assert_allclose(
            np.linalg.norm(steps[0]), span / len(result), atol=1e-9
        )

    def test_small_extreme_is_closer(self, calib):
        rng = np.random.default_rng(6)
        for _ in range(30):
            box = random_car_box(rng)
            b2d = project_box(box, calib.p2)
            est = geometric_agreement_search(b2d, box.dims, box.yaw, calib.p2)
            result = spatial_scatter(est, ScatterParams(0.4, 1.6), calib.p2)
            assert np.linalg.norm(result.p1) < np.linalg.norm(result.p2)

    def test_count_monotone_in_s_and_stride(self, calib):
        box = Box3D((0.5, 0.3, 25.0), (1.6, 1.5, 3.9), 0.7)
        b2d = project_box(box, calib.p2)
        est = geometric_agreement_search(b2d, box.dims, box.yaw, calib.p2)
        counts_s = [
            len(spatial_scatter(est, ScatterParams(s, 1.6), calib.p2))
            for s in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
        ]
        assert counts_s == sorted(counts_s)
        counts_m = [
            len(spatial_scatter(est, ScatterParams(0.5, m), calib.p2))
            for m in (0.4, 0.8, 1.6, 3.2)
        ]
        assert counts_m == sorted(counts_m, reverse=True)


def _outcome(fn, *args, **kwargs):
    """fn's result, or the type and message of the pose error it raised."""
    try:
        return fn(*args, **kwargs)
    except (NoFeasibleConfiguration, SingularSystem) as exc:
        return type(exc), str(exc)


def _drawn_box2d(kind, tight, offsets, corner, size):
    """The 2D box of one drawn case: the car's own box (noise 0), a noised
    one, or a tiny, huge or off-image box that ignores the car."""
    if kind == "tight":
        return tight
    if kind == "noisy":
        left, top, right, bottom = offsets
        return Box2D(tight.xmin + left, tight.ymin + top,
                     max(tight.xmax + right, tight.xmin + left + 1.0),
                     max(tight.ymax + bottom, tight.ymin + top + 1.0))
    scale = {"tiny": 1e-3, "huge": 2000.0, "off_image": 1.0}[kind]
    x, y = corner
    if kind == "off_image":
        x += 1600.0 if x >= 0 else -1000.0
    return Box2D(x, y, x + scale * size[0], y + scale * size[1])


class TestSearchMatchesReference:
    """The search solves only the non-degenerate configurations, only one
    row per vertical-edge group when P[0, 1] == P[2, 1] == 0, and tests
    only the rows with the center ahead of the camera; solve_translation
    and spatial_scatter share its 4x8 right-hand sides.  Every outcome
    must equal that of the reference that solves each row of the whole
    set, bit for bit, or raise the same error with the same message, with
    and without those zeros."""

    @settings(max_examples=300, deadline=None)
    @given(
        z=st.floats(3.0, 60.0),
        x_over_z=st.floats(-0.4, 0.4),
        y=st.floats(-1.0, 2.0),
        dims=st.tuples(st.floats(1.4, 2.0), st.floats(1.3, 1.9),
                       st.floats(3.3, 4.8)),
        yaw=st.floats(-math.pi, math.pi),
        dims_noise=st.tuples(*[st.floats(-0.2, 0.2)] * 3),
        yaw_noise=st.floats(-0.3, 0.3),
        kind=st.sampled_from(["tight", "noisy", "tiny", "huge", "off_image"]),
        offsets=st.tuples(*[st.floats(-20.0, 20.0)] * 4),
        corner=st.tuples(st.floats(-600.0, 1300.0), st.floats(-300.0, 700.0)),
        size=st.tuples(st.floats(0.5, 3.0), st.floats(0.5, 3.0)),
        residual_cap=st.sampled_from([2.0, 10.0, math.inf]),
        s=st.floats(1e-9, 0.9),
        config=st.tuples(*[st.integers(0, 7)] * 4),
        skew=st.just((0.0, 0.0))
        | st.sampled_from([(1e-3, 0.0), (0.0, 1e-5), (-1e-3, 1e-5)]),
    )
    # noise 0: both corners of a vertical edge project to one image column,
    # so four configurations (left 2 or 6, right 0 or 4, top 5, bottom 3)
    # solve to the same center bit for bit and tie on IoU and residual; the
    # lowest configuration index must win
    @example(z=15.0, x_over_z=2.0 / 15.0, y=1.2, dims=(1.6, 1.5, 3.9),
             yaw=0.3, dims_noise=(0.0, 0.0, 0.0), yaw_noise=0.0,
             kind="tight", offsets=(0.0,) * 4, corner=(0.0, 0.0),
             size=(1.0, 1.0), residual_cap=10.0, s=0.5,
             config=(2, 0, 5, 3), skew=(0.0, 0.0))
    # the same car seen through a projection whose first and third rows
    # read y (P[0, 1] and P[2, 1]), where those corners no longer tie
    @example(z=15.0, x_over_z=2.0 / 15.0, y=1.2, dims=(1.6, 1.5, 3.9),
             yaw=0.3, dims_noise=(0.0, 0.0, 0.0), yaw_noise=0.0,
             kind="tight", offsets=(0.0,) * 4, corner=(0.0, 0.0),
             size=(1.0, 1.0), residual_cap=10.0, s=0.5,
             config=(6, 4, 5, 3), skew=(1e-3, 1e-5))
    def test_search_scatter_and_solve_match_reference(
            self, calib, z, x_over_z, y, dims, yaw, dims_noise, yaw_noise,
            kind, offsets, corner, size, residual_cap, s, config, skew):
        p = calib.p2.copy()
        p[0, 1], p[2, 1] = skew
        tight = project_box(Box3D((x_over_z * z, y, z), dims, yaw), p)
        b2d = _drawn_box2d(kind, tight, offsets, corner, size)
        seed_dims = tuple(d * (1.0 + n) for d, n in zip(dims, dims_noise))
        seed_yaw = yaw + yaw_noise

        est = _outcome(geometric_agreement_search, b2d, seed_dims, seed_yaw,
                       p, residual_cap=residual_cap)
        assert est == _outcome(agreement_search_reference, b2d, seed_dims,
                               seed_yaw, p, residual_cap=residual_cap)
        if not isinstance(est, tuple):
            params = ScatterParams(s=s, stride=1.6)
            got = spatial_scatter(est, params, p)
            want = spatial_scatter_reference(est, params, p)
            for name in ("seed_points", "p1", "p2"):
                assert (getattr(got, name).tobytes()
                        == getattr(want, name).tobytes())

        solved = [
            _outcome(solve, b2d, seed_dims, seed_yaw,
                     CornerConfiguration(*config), p,
                     residual_cap=residual_cap)
            for solve in (solve_translation, solve_translation_reference)
        ]
        # a solved center compares by its bytes
        got, want = (
            (r[0].tobytes(), r[1])
            if r is not None and isinstance(r[0], np.ndarray) else r
            for r in solved
        )
        assert got == want


def _drawn_object(p, z, x_over_z, y, dims, yaw, dims_noise, yaw_noise, kind,
                  offsets, corner, size):
    """(box2d, dims, yaw) of one drawn object: a car seen through p, with
    a 2D box of one of _drawn_box2d's kinds, or a singular one of 1e-7 px,
    and noised dims and yaw."""
    if kind == "singular":
        box2d = Box2D(corner[0], corner[1], corner[0] + 1e-7, corner[1] + 1e-7)
    else:
        tight = project_box(Box3D((x_over_z * z, y, z), dims, yaw), p)
        box2d = _drawn_box2d(kind, tight, offsets, corner, size)
    return (box2d, tuple(d * (1.0 + n) for d, n in zip(dims, dims_noise)),
            yaw + yaw_noise)


def _bits(outcome):
    """An estimate's fields, its floats by their bytes, or an error's type
    and message."""
    if isinstance(outcome, Exception):
        return type(outcome), str(outcome)
    floats = (*outcome.solved_center, outcome.agreement, outcome.residual)
    return (outcome.box2d, outcome.dims, outcome.yaw, outcome.best_config,
            np.array(floats).tobytes())


def _reference(box2d, dims, yaw, p, residual_cap):
    try:
        return agreement_search_reference(box2d, dims, yaw, p,
                                          residual_cap=residual_cap)
    except (NoFeasibleConfiguration, ValueError) as exc:
        return exc


_OBJECT = st.tuples(
    st.floats(3.0, 60.0),                                   # z
    st.floats(-0.4, 0.4),                                   # x / z
    st.floats(-1.0, 2.0),                                   # y
    st.tuples(st.floats(1.4, 2.0), st.floats(1.3, 1.9), st.floats(3.3, 4.8)),
    st.floats(-math.pi, math.pi),                           # yaw
    st.tuples(*[st.floats(-0.2, 0.2)] * 3),                 # dims noise
    st.floats(-0.3, 0.3),                                   # yaw noise
    st.sampled_from(["tight", "noisy", "tiny", "huge", "off_image",
                     "singular"]),
    st.tuples(*[st.floats(-20.0, 20.0)] * 4),               # noisy offsets
    st.tuples(st.floats(-600.0, 1300.0), st.floats(-300.0, 700.0)),
    st.tuples(st.floats(0.5, 3.0), st.floats(0.5, 3.0)),    # box size
)


class TestFrameSearchMatchesReference:
    """agreement_search_frame searches every object of a frame in one
    stack, and spatial_scatter_frame scatters every estimate for every
    params in one.  Each object's outcome must equal that of the one-object
    reference, bit for bit, or be the same error with the same message,
    whichever objects share its frame and in whatever order, and whichever
    params share its scatter, and no object may warn."""

    @pytest.mark.filterwarnings("error")
    def test_zero_singular_values_fail_without_a_warning(self):
        # a zero projection leaves every constraint matrix all zero, so
        # each singular value is 0 and a pseudo-inverse would divide by it
        p = np.zeros((3, 4))
        boxes = [Box2D(600.0, 180.0, 640.0, 210.0), Box2D(1.0, 2.0, 3.0, 4.0)]
        frame = agreement_search_frame(boxes, [(1.6, 1.5, 3.9)] * 2,
                                       [0.3, -2.0], p)
        assert [_bits(o) for o in frame] == [
            _bits(_reference(b, (1.6, 1.5, 3.9), y, p, 10.0))
            for b, y in zip(boxes, [0.3, -2.0])]
        assert "singular values [0. 0. 0.]" in str(frame[0])

    @pytest.mark.filterwarnings("error")
    @settings(max_examples=200, deadline=None)
    @given(
        objects=st.lists(_OBJECT, max_size=10),
        residual_cap=st.sampled_from([2.0, 10.0, math.inf]),
        skew=st.just((0.0, 0.0))
        | st.sampled_from([(1e-3, 0.0), (0.0, 1e-5), (-1e-3, 1e-5)]),
    )
    # a good car, a singular box and an off-image box in one frame
    @example(
        objects=[
            (15.0, 2.0 / 15.0, 1.2, (1.6, 1.5, 3.9), 0.3, (0.0,) * 3, 0.0,
             "tight", (0.0,) * 4, (0.0, 0.0), (1.0, 1.0)),
            (15.0, 0.0, 1.2, (1.6, 1.5, 3.9), 0.3, (0.0,) * 3, 0.0,
             "singular", (0.0,) * 4, (600.0, 180.0), (1.0, 1.0)),
            (30.0, -0.2, 0.5, (1.8, 1.6, 4.2), -1.0, (0.1, 0.0, -0.1), 0.2,
             "off_image", (0.0,) * 4, (900.0, 100.0), (2.0, 1.5)),
        ],
        residual_cap=10.0, skew=(0.0, 0.0))
    def test_each_object_as_if_alone(self, calib, objects, residual_cap,
                                     skew):
        p = calib.p2.copy()
        p[0, 1], p[2, 1] = skew
        drawn = [_drawn_object(p, *obj) for obj in objects]
        boxes, dims, yaws = ([d[i] for d in drawn] for i in range(3))
        want = [_bits(_reference(*d, p, residual_cap)) for d in drawn]

        def search(boxes, dims, yaws):
            return agreement_search_frame(boxes, dims, yaws, p,
                                          residual_cap)

        frame = search(boxes, dims, yaws)
        assert [_bits(o) for o in frame] == want
        backwards = search(boxes[::-1], dims[::-1], yaws[::-1])[::-1]
        assert [_bits(o) for o in backwards] == want
        alone = [search([b], [d], [y])[0] for b, d, y in drawn]
        assert [_bits(o) for o in alone] == want

        estimates = [o for o in frame if isinstance(o, MonoEstimate)]
        # a winner's center is finite, so the scatter sweep, which builds no
        # region, need not check what a region's center would
        assert all(np.isfinite(est.solved_center).all() for est in estimates)
        scatters = []
        for s in (1e-9, 0.5, 1.0 - 1e-9):
            # the stride keeps each scatter to at most 256 seeds: a tiny
            # box's car solves kilometres away, and so does its grown end
            ends = [spatial_scatter_reference(
                est, ScatterParams(s=s, stride=1e300), p) for est in estimates]
            stride = max([1.6] + [float(np.linalg.norm(r.p2 - r.p1)) / 256
                                  for r in ends])
            scatters.append(ScatterParams(s=s, stride=stride))
        # every params in one call gives each params the bytes it gets alone
        stacked, stacked_counts, stacked_p1, stacked_p2 = (
            spatial_scatter_frame(estimates, scatters, p))
        runs = np.split(stacked, np.cumsum(stacked_counts.sum(axis=1))[:-1])
        for k, params in enumerate(scatters):
            seeds, counts, p1, p2 = spatial_scatter_frame(estimates, [params],
                                                          p)
            assert [x.tobytes() for x in (seeds, counts, p1, p2)] == [
                x.tobytes() for x in (runs[k], stacked_counts[k:k + 1],
                                      stacked_p1[k:k + 1],
                                      stacked_p2[k:k + 1])]
            assert len(seeds) == counts.sum()
            start = 0
            for est, count, got_p1, got_p2 in zip(estimates, counts[0], p1[0],
                                                  p2[0]):
                ref = spatial_scatter_reference(est, params, p)
                got = seeds[start:start + count]
                start += count
                assert got.tobytes() == ref.seed_points.tobytes()
                assert got_p1.tobytes() == ref.p1.tobytes()
                assert got_p2.tobytes() == ref.p2.tobytes()


# dims of a car that are not all finite and > 0
_BAD_DIMS = [(-1.6, 1.5, 3.9), (0.0, 1.5, 3.9), (math.nan, 1.5, 3.9),
             (1.6, math.inf, 3.9)]


def _input_message(dims, yaw):
    return (f"dims must be finite and > 0 and yaw finite, got dims {dims} "
            f"and yaw {yaw}")


@pytest.mark.parametrize("cap", [-1.0, 0.0, math.nan])
def test_a_residual_cap_not_above_zero_is_a_setting_error(calib, cap):
    # it used to be searched and report no feasible configuration, which
    # blames the data
    box = random_car_box(np.random.default_rng(3))
    b2d = project_box(box, calib.p2)
    config = tight_configuration(box, calib.p2)
    with pytest.raises(ValueError, match="residual_cap must be positive"):
        solve_translation(b2d, box.dims, box.yaw, config, calib.p2,
                          residual_cap=cap)
    for boxes in ([b2d], []):
        with pytest.raises(ValueError, match="residual_cap must be positive"):
            agreement_search_frame(boxes, [box.dims] * len(boxes),
                                   [box.yaw] * len(boxes), calib.p2,
                                   residual_cap=cap)


class TestInputsCheckedUpFront:
    """An object whose dims are not all finite and > 0, or whose yaw is not
    finite, fails first, with a NoFeasibleConfiguration that names them.
    Its rows are masked out like a singular object's, so it neither warns
    nor changes the other objects' outcomes.  Dims of -1.6 used to fail
    only when the search found a winner, as Box3D rejected it; dims of 0
    or NaN reported no feasible configuration, and inf dims warned."""

    @staticmethod
    def good_objects(calib):
        rng = np.random.default_rng(8)
        boxes = [random_car_box(rng) for _ in range(3)]
        return [(project_box(box, calib.p2), box.dims, box.yaw)
                for box in boxes]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("dims", _BAD_DIMS)
    def test_bad_dims_fail_by_name_and_leave_the_rest(self, calib, dims):
        good = self.good_objects(calib)
        bad = (good[1][0], dims, good[1][2])
        objects = [bad, good[0], good[1], bad, good[2]]
        frame = agreement_search_frame(*zip(*objects), calib.p2)
        for outcome in (frame[0], frame[3]):
            assert type(outcome) is NoFeasibleConfiguration
            assert str(outcome) == _input_message(dims, bad[2])
        alone = agreement_search_frame(*zip(*good), calib.p2)
        assert all(isinstance(est, MonoEstimate) for est in alone)
        assert ([_bits(o) for o in (frame[1], frame[2], frame[4])]
                == [_bits(o) for o in alone])
        with pytest.raises(NoFeasibleConfiguration, match=r"got dims \("):
            geometric_agreement_search(*bad, calib.p2)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("yaw", [math.inf, -math.inf, math.nan])
    def test_a_yaw_not_finite_fails_by_name(self, calib, yaw):
        # an infinite yaw used to fail the whole frame in math.cos
        good = self.good_objects(calib)
        box2d, dims, _ = good[0]
        frame = agreement_search_frame(
            [box2d, good[1][0]], [dims, good[1][1]], [yaw, good[1][2]],
            calib.p2)
        assert type(frame[0]) is NoFeasibleConfiguration
        assert str(frame[0]) == _input_message(tuple(dims), yaw)
        assert _bits(frame[1]) == _bits(
            agreement_search_frame([good[1][0]], [good[1][1]], [good[1][2]],
                                   calib.p2)[0])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("sides", [
        (600.0, 180.0, math.inf, 210.0), (-math.inf, 180.0, 700.0, 210.0),
        (-math.inf, -math.inf, math.inf, math.inf),
        (-1e308, 180.0, 1e308, 210.0)])
    def test_a_box_side_not_finite_fails_by_name_and_leaves_the_rest(
            self, calib, sides):
        # an infinite side used to make the stacked SVD raise LinAlgError,
        # failing the frame; a side of 1e308 warned as its system was solved
        good = self.good_objects(calib)
        bad = (Box2D(*sides), (1.6, 1.5, 3.9), 0.3)
        objects = [good[0], bad, good[1], good[2], bad]
        frame = agreement_search_frame(*zip(*objects), calib.p2)
        message = (f"2D box sides must be finite, got {sides}"
                   if not all(map(math.isfinite, sides))
                   else "constraint matrix is rank deficient")
        for outcome in (frame[1], frame[4]):
            assert type(outcome) is NoFeasibleConfiguration
            assert str(outcome).startswith(message)
        alone = agreement_search_frame(*zip(*good), calib.p2)
        assert ([_bits(o) for o in (frame[0], frame[2], frame[3])]
                == [_bits(o) for o in alone])
        with pytest.raises(NoFeasibleConfiguration, match=r"^2D box|^constr"):
            geometric_agreement_search(*bad, calib.p2)
        with pytest.raises(SingularSystem, match=r"^2D box|^constr"):
            solve_translation(*bad, CornerConfiguration(0, 1, 4, 2), calib.p2)

    @pytest.mark.filterwarnings("error")
    @settings(max_examples=100, deadline=None)
    @given(
        objects=st.lists(st.tuples(
            _OBJECT,
            st.none() | st.tuples(*[st.floats(-10.0, 10.0) | st.sampled_from(
                [0.0, -0.0, math.nan, math.inf, -math.inf])] * 3),
            st.none() | st.floats(-10.0, 10.0)
            | st.sampled_from([math.nan, math.inf, -math.inf]),
        ), max_size=6),
    )
    def test_every_outcome_is_an_estimate_or_no_feasible_configuration(
            self, calib, objects):
        p = calib.p2
        drawn = []
        for obj, dims, yaw in objects:
            box2d, good_dims, good_yaw = _drawn_object(p, *obj)
            drawn.append((box2d, good_dims if dims is None else dims,
                          good_yaw if yaw is None else yaw))
        boxes, dims, yaws = ([d[i] for d in drawn] for i in range(3))
        frame = agreement_search_frame(boxes, dims, yaws, p)
        assert len(frame) == len(drawn)
        for outcome, (_, d, y) in zip(frame, drawn):
            assert type(outcome) in (MonoEstimate, NoFeasibleConfiguration)
            valid = all(math.isfinite(v) and v > 0.0 for v in d)
            if not (valid and math.isfinite(y)):
                assert str(outcome) == _input_message(
                    tuple(float(v) for v in d), float(y))
            elif isinstance(outcome, MonoEstimate):
                assert 0.0 <= outcome.agreement <= 1.0
