import dataclasses
import math

import numpy as np
import pytest

import cyldet
from cyldet import (
    Box3D,
    Detection,
    EmptyCloud,
    OracleConfig,
    PipelineConfig,
    PointCloud,
    ProposalRegion,
    WrongFrame,
    decode_box,
    detect_frame,
    gather_cylinder,
    iou_2d,
    iou_3d,
    nms_bev,
    oracle_predictors,
    project_box,
    sample_points,
    voxel_downsample,
)
from cyldet.pipeline import (
    OracleBrnPredictor,
    OracleMonocularPredictor,
    OracleRpnPredictor,
    format_detection,
    parse_detection_line,
)
from cyldet.synthetic import make_frame
from oracles import greedy_nms_reference, optimal_match_count


def camera_cloud(points):
    pts = np.asarray(points, dtype=float)
    if pts.shape[1] == 3:
        pts = np.column_stack([pts, np.zeros(len(pts))])
    return PointCloud(pts, frame="camera")


class TestGatherCylinder:
    region = ProposalRegion(center=(5.0, 1.0, 20.0), radius=2.0,
                            y_extent=(-1.0, 3.0))

    def test_center_point_becomes_origin(self):
        cloud = camera_cloud([[5.0, 1.0, 20.0]])
        out = gather_cylinder(cloud, self.region)
        np.testing.assert_array_equal(out.points, [[0.0, 0.0, 0.0, 0.0]])

    def test_point_just_outside_radius_excluded(self):
        cloud = camera_cloud([[5.0 + 2.0 + 1e-9, 1.0, 20.0]])
        assert len(gather_cylinder(cloud, self.region)) == 0

    def test_vertical_band(self):
        cloud = camera_cloud([[5.0, -1.5, 20.0], [5.0, 3.5, 20.0], [5.0, 0.0, 20.0]])
        assert len(gather_cylinder(cloud, self.region)) == 1

    def test_requires_camera_frame(self):
        with pytest.raises(WrongFrame):
            gather_cylinder(PointCloud([[0, 0, 0, 0]], frame="lidar"), self.region)

    def test_matches_linear_scan(self):
        rng = np.random.default_rng(0)
        pts = np.column_stack([
            rng.uniform(0, 10, 500), rng.uniform(-2, 4, 500),
            rng.uniform(15, 25, 500), rng.uniform(0, 1, 500),
        ])
        out = gather_cylinder(camera_cloud(pts), self.region)
        expected = [
            p for p in pts
            if math.hypot(p[0] - 5.0, p[2] - 20.0) <= 2.0 and -1.0 <= p[1] <= 3.0
        ]
        assert len(out) == len(expected)
        np.testing.assert_allclose(
            out.points, np.array(expected) - [5.0, 1.0, 20.0, 0.0], atol=1e-12
        )


class TestVoxelDownsample:
    def test_same_voxel_collapses_to_centroid(self):
        cloud = camera_cloud([[0.01, 0.01, 0.01], [0.02, 0.01, 0.01]])
        out = voxel_downsample(cloud, 0.1)
        assert len(out) == 1
        np.testing.assert_allclose(out.points[0, :3], [0.015, 0.01, 0.01])

    def test_grid_separated_points_unchanged(self):
        pts = np.array([[i * 0.1 + 0.05, 0.05, 0.05] for i in range(10)])
        out = voxel_downsample(camera_cloud(pts), 0.1)
        assert len(out) == 10

    def test_occupancy_matches_hash_reference(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(-5, 5, size=(2000, 3))
        out = voxel_downsample(camera_cloud(pts), 0.25)
        expected = {tuple(np.floor(p / 0.25).astype(int)) for p in pts}
        got = {tuple(np.floor(p[:3] / 0.25).astype(int)) for p in out.points}
        assert got == expected

    def test_reflectance_averaged(self):
        cloud = PointCloud([[0.01, 0.01, 0.01, 0.2], [0.02, 0.01, 0.01, 0.8]],
                           frame="camera")
        out = voxel_downsample(cloud, 0.1)
        assert out.points[0, 3] == pytest.approx(0.5)


class TestSamplePoints:
    def test_exact_size_is_permutation(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(0, 1, size=(64, 4))
        out = sample_points(PointCloud(pts, frame="camera"), 64, seed=0)
        assert sorted(map(tuple, out.points)) == sorted(map(tuple, pts))

    def test_single_point_repeated(self):
        cloud = camera_cloud([[1.0, 2.0, 3.0]])
        out = sample_points(cloud, 4, seed=0)
        assert len(out) == 4
        np.testing.assert_array_equal(out.points,
                                      np.tile([[1, 2, 3, 0]], (4, 1)))

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(0, 1, size=(100, 4))
        cloud = PointCloud(pts, frame="camera")
        a = sample_points(cloud, 30, seed=17)
        b = sample_points(cloud, 30, seed=17)
        np.testing.assert_array_equal(a.points, b.points)

    def test_empty_cloud(self):
        with pytest.raises(EmptyCloud):
            sample_points(PointCloud(np.zeros((0, 4)), frame="camera"), 4, seed=0)

    def test_top_up_keeps_every_original(self):
        rng = np.random.default_rng(4)
        pts = rng.uniform(0, 1, size=(10, 4))
        out = sample_points(PointCloud(pts, frame="camera"), 25, seed=1)
        assert len(out) == 25
        got = set(map(tuple, out.points))
        assert got == set(map(tuple, pts))


class TestOracleMonocular:
    def test_zero_noise_is_exact(self):
        frame = make_frame("000000", seed=5, n_cars=3)
        dets = OracleMonocularPredictor(OracleConfig())(frame)
        assert len(dets) == len(frame.labels)
        for det, lab in zip(dets, frame.labels):
            assert det.box2d == lab.bbox2d
            np.testing.assert_allclose(det.dims, lab.box3d.dims)
            assert det.yaw == lab.box3d.yaw

    def test_seeded_reproducibility(self):
        frame = make_frame("000001", seed=6, n_cars=2)
        cfg = OracleConfig(dims_noise_sigma=0.1, yaw_noise_sigma=0.1,
                           box2d_noise_sigma=2.0, rng_seed=9)
        a = OracleMonocularPredictor(cfg)(frame)
        b = OracleMonocularPredictor(cfg)(frame)
        assert a == b

    def test_dims_noise_calibration(self):
        # relative std of the dim multiplier should track the configured
        # sigma; one label sampled under many seeds
        frame = make_frame("000002", seed=7, n_cars=1)
        true_dims = np.array(frame.labels[0].box3d.dims)
        ratios = []
        for k in range(10_000):
            cfg = OracleConfig(dims_noise_sigma=0.1, rng_seed=k)
            det = OracleMonocularPredictor(cfg)(frame)[0]
            ratios.append(det.dims[0] / true_dims[0])
        std = np.std(ratios)
        assert abs(std - 0.1) < 0.005


class TestOraclePointHeads:
    def setup_method(self):
        self.frame = make_frame("000003", seed=8, n_cars=1)
        self.label = self.frame.labels[0]
        self.config = PipelineConfig()

    def region_at(self, center):
        return ProposalRegion(tuple(center), radius=2.0, y_extent=(-1.0, 3.0),
                              bounds=(2.0, 2.0, 2.0))

    def test_centered_region_decodes_exactly(self):
        region = self.region_at(self.label.box3d.center)
        brn = OracleBrnPredictor(clusters=self.config.clusters,
                                 bins=self.config.bins)
        out = brn(None, region, self.frame)
        box = decode_box(out, region, self.config.clusters, self.config.bins)
        np.testing.assert_allclose(box.center, self.label.box3d.center,
                                   atol=1e-6)
        np.testing.assert_allclose(box.dims, self.label.box3d.dims, atol=1e-6)
        assert iou_3d(box, self.label.box3d) > 1 - 1e-6

    def test_far_region_scores_low(self):
        center = np.array(self.label.box3d.center) + [10.0, 0.0, 0.0]
        rpn = OracleRpnPredictor()
        out = rpn(None, self.region_at(center), self.frame)
        assert cyldet.objectness(out.t_obj) < 0.5

    def test_near_region_scores_high(self):
        rpn = OracleRpnPredictor()
        out = rpn(None, self.region_at(self.label.box3d.center), self.frame)
        assert cyldet.objectness(out.t_obj) > 0.9

    def test_decoded_location_always_within_bounds(self):
        rng = np.random.default_rng(9)
        rpn = OracleRpnPredictor(OracleConfig(center_noise_sigma=1.0))
        for _ in range(50):
            center = np.array(self.label.box3d.center) + rng.uniform(-4, 4, 3)
            region = self.region_at(center)
            out = rpn(None, region, self.frame)
            decoded = cyldet.decode_location(out.t_loc, region)
            off = np.abs(decoded - np.array(region.center))
            assert np.all(off <= np.array(region.bounds) + 1e-12)


class TestDetectFrame:
    def test_single_car_zero_noise(self):
        frame = make_frame("000010", seed=10, n_cars=1)
        dets = detect_frame(frame, oracle_predictors(), PipelineConfig())
        assert len(dets) == 1
        assert iou_3d(dets[0].box3d, frame.labels[0].box3d) >= 0.99

    def test_impossible_threshold_yields_nothing(self):
        frame = make_frame("000011", seed=11, n_cars=2)
        config = PipelineConfig(objectness_threshold=1.0)
        assert detect_frame(frame, oracle_predictors(), config) == []

    def test_two_separated_cars(self):
        frame = make_frame("000012", seed=12, n_cars=2)
        dets = detect_frame(frame, oracle_predictors(), PipelineConfig())
        assert len(dets) == 2
        count = optimal_match_count(
            [d.box3d for d in dets], [lab.box3d for lab in frame.labels],
            0.99, iou_3d,
        )
        assert count == 2

    def test_deterministic_under_seed(self):
        frame = make_frame("000013", seed=13, n_cars=3)
        preds = oracle_predictors(OracleConfig(dims_noise_sigma=0.05, rng_seed=2))
        config = PipelineConfig(seed=5)
        a = detect_frame(frame, preds, config)
        b = detect_frame(frame, preds, config)
        assert a == b

    def test_threshold_monotonicity(self):
        frame = make_frame("000014", seed=14, n_cars=4)
        preds = oracle_predictors(OracleConfig(dims_noise_sigma=0.1, rng_seed=3))
        counts = []
        for threshold in (0.05, 0.25, 0.5, 0.8):
            config = PipelineConfig(objectness_threshold=threshold)
            counts.append(len(detect_frame(frame, preds, config)))
        assert counts == sorted(counts, reverse=True)

    def test_confidence_is_reprojection_agreement(self):
        frame = make_frame("000015", seed=15, n_cars=2)
        dets = detect_frame(frame, oracle_predictors(), PipelineConfig())
        for det in dets:
            recomputed = iou_2d(
                det.box2d_source, project_box(det.box3d, frame.calib.p2)
            )
            assert det.confidence == pytest.approx(recomputed, abs=1e-9)

    def test_data_errors_drop_proposals_other_errors_propagate(self):
        frame = make_frame("000018", seed=18, n_cars=2)
        no_points = dataclasses.replace(frame, cloud=camera_cloud(np.zeros((0, 4))))
        assert detect_frame(no_points, oracle_predictors(), PipelineConfig()) == []

        def broken_rpn(points, region, frame):
            raise TypeError("proposal head bug")

        predictors = dataclasses.replace(oracle_predictors(), rpn=broken_rpn)
        with pytest.raises(TypeError, match="proposal head bug"):
            detect_frame(frame, predictors, PipelineConfig())

    def test_all_modes_run(self):
        frame = make_frame("000016", seed=16, n_cars=2)
        for mode in ("single_stage", "single_stage_twice", "rpn_brn_brn"):
            dets = detect_frame(frame, oracle_predictors(),
                                PipelineConfig(mode=mode))
            assert len(dets) == 2


def make_detection(center, yaw, confidence, dims=(1.6, 1.5, 3.9)):
    return Detection(
        box3d=Box3D(center, dims, yaw),
        box2d_source=cyldet.Box2D(0, 0, 10, 10),
        objectness=confidence,
        confidence=confidence,
    )


class TestNmsBev:
    def test_single_detection_unchanged(self):
        det = make_detection((0, 0, 10), 0.0, 0.9)
        assert nms_bev([det], 0.05) == [det]

    def test_duplicate_keeps_higher_confidence(self):
        a = make_detection((0, 0, 10), 0.0, 0.9)
        b = make_detection((0, 0, 10), 0.0, 0.8)
        assert nms_bev([b, a], 0.05) == [a]

    def test_threshold_one_keeps_everything(self):
        dets = [make_detection((0, 0, 10), 0.0, 0.9),
                make_detection((0, 0, 10), 0.0, 0.8)]
        assert len(nms_bev(dets, 1.0)) == 2

    def test_matches_reference_on_random_sets(self):
        # tied confidences pin the tie order (insertion index) that
        # detect_frame relies on when it hands detections over unsorted
        def distinct(rng):
            return float(rng.uniform(0, 1))

        def tied(rng):
            return float(rng.choice([0.5, 0.7, 0.9]))

        for draw_confidence in (distinct, tied):
            rng = np.random.default_rng(20)
            for trial in range(100):
                n = int(rng.integers(1, 12))
                dets = [
                    make_detection(
                        (rng.uniform(-8, 8), 0.0, rng.uniform(10, 25)),
                        rng.uniform(-math.pi, math.pi),
                        draw_confidence(rng),
                    )
                    for _ in range(n)
                ]
                threshold = float(rng.uniform(0.0, 0.7))
                kept = nms_bev(dets, threshold)
                ref = greedy_nms_reference(
                    [d.box3d for d in dets], [d.confidence for d in dets],
                    threshold, cyldet.iou_bev,
                )
                assert kept == [dets[i] for i in ref]

    def test_kept_pairs_below_threshold(self):
        rng = np.random.default_rng(21)
        dets = [
            make_detection(
                (rng.uniform(-5, 5), 0.0, rng.uniform(10, 20)),
                rng.uniform(-math.pi, math.pi),
                float(rng.uniform(0, 1)),
            )
            for _ in range(20)
        ]
        kept = nms_bev(dets, 0.3)
        assert set(map(id, kept)) <= set(map(id, dets))
        for i, a in enumerate(kept):
            for b in kept[:i]:
                assert cyldet.iou_bev(a.box3d, b.box3d) <= 0.3


class TestDetectionDocument:
    def test_line_round_trip(self):
        det = make_detection((1.25, 0.5, 17.5), 0.8, 0.93)
        line = format_detection("000123", det)
        frame_id, class_name, back = parse_detection_line(line)
        assert frame_id == "000123"
        assert class_name == "Car"
        np.testing.assert_allclose(back.box3d.center, det.box3d.center,
                                   atol=1e-6)
        np.testing.assert_allclose(back.box3d.dims, det.box3d.dims, atol=1e-6)
        assert back.box3d.yaw == pytest.approx(det.box3d.yaw, abs=1e-6)
        assert back.confidence == pytest.approx(det.confidence, abs=1e-6)

    def test_kitti_field_order_with_bottom_center(self):
        det = make_detection((2.0, 1.0, 10.0), 0.0, 0.5, dims=(1.0, 2.0, 4.0))
        fields = format_detection("0", det).split()
        # h w l then location with y at the bottom face (center y + h/2)
        assert [float(f) for f in fields[6:9]] == [2.0, 1.0, 4.0]
        assert float(fields[10]) == pytest.approx(2.0)

    def test_write_read_file(self, tmp_path):
        frame = make_frame("000017", seed=17, n_cars=2)
        dets = detect_frame(frame, oracle_predictors(), PipelineConfig())
        path = tmp_path / "out.txt"
        cyldet.write_detections(path, frame.frame_id, dets)
        rows = cyldet.read_detections(path)
        assert len(rows) == len(dets)
        for (fid, cls, det), want in zip(rows, dets):
            assert fid == frame.frame_id
            np.testing.assert_allclose(det.box3d.center, want.box3d.center,
                                       atol=1e-6)
