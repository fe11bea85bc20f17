import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cyldet import (
    Box2D,
    Box3D,
    CornerConfiguration,
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
from cyldet.geometry import project_points
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

    def test_reduced_enumeration(self):
        configs = enumerate_configurations(reduced=True)
        assert configs.shape == (128, 4)
        assert np.all(configs[:, 0] < 4)
        assert np.all(configs[:, 1] < 4)
        assert np.all(configs[:, 2] >= 4)
        assert np.all(configs[:, 3] < 4)

    def test_configuration_index_is_base8(self):
        config = CornerConfiguration(left=1, right=2, top=3, bottom=4)
        assert config.index == ((1 * 8 + 2) * 8 + 3) * 8 + 4


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

    def test_reduced_mode_matches_full_on_round_trips(self, calib):
        rng = np.random.default_rng(3)
        for _ in range(25):
            box = random_car_box(rng)
            b2d = project_box(box, calib.p2)
            est = geometric_agreement_search(
                b2d, box.dims, box.yaw, calib.p2, reduced=True
            )
            assert est.agreement >= 0.99
            assert np.linalg.norm(np.array(est.solved_center) - box.center) < 1e-2

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
        with pytest.raises(ValueError):
            ScatterParams(s=0.5, stride=0.0)

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
    """The search solves only the non-degenerate configurations and tests
    only the rows with the center ahead of the camera; solve_translation
    and spatial_scatter share its 4x8 right-hand sides.  Every outcome
    must equal that of the reference that solves each row of the whole
    set, bit for bit, or raise the same error with the same message."""

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
        reduced=st.booleans(),
        s=st.floats(1e-9, 0.9),
        config=st.tuples(*[st.integers(0, 7)] * 4),
    )
    # noise 0: both corners of a vertical edge project to one image column,
    # so four configurations (left 2 or 6, right 0 or 4, top 5, bottom 3)
    # solve to the same center bit for bit and tie on IoU and residual; the
    # lowest configuration index must win
    @example(z=15.0, x_over_z=2.0 / 15.0, y=1.2, dims=(1.6, 1.5, 3.9),
             yaw=0.3, dims_noise=(0.0, 0.0, 0.0), yaw_noise=0.0,
             kind="tight", offsets=(0.0,) * 4, corner=(0.0, 0.0),
             size=(1.0, 1.0), residual_cap=10.0, reduced=False, s=0.5,
             config=(2, 0, 5, 3))
    def test_search_scatter_and_solve_match_reference(
            self, calib, z, x_over_z, y, dims, yaw, dims_noise, yaw_noise,
            kind, offsets, corner, size, residual_cap, reduced, s, config):
        p = calib.p2
        tight = project_box(Box3D((x_over_z * z, y, z), dims, yaw), p)
        b2d = _drawn_box2d(kind, tight, offsets, corner, size)
        seed_dims = tuple(d * (1.0 + n) for d, n in zip(dims, dims_noise))
        seed_yaw = yaw + yaw_noise

        est = _outcome(geometric_agreement_search, b2d, seed_dims, seed_yaw,
                       p, residual_cap=residual_cap, reduced=reduced)
        assert est == _outcome(agreement_search_reference, b2d, seed_dims,
                               seed_yaw, p, residual_cap=residual_cap,
                               reduced=reduced)
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
