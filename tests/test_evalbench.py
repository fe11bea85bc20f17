import dataclasses
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cyldet
from cyldet import (
    Box2D,
    Box3D,
    DesyncConfig,
    EvalConfig,
    GroundTruthLabel,
    OracleConfig,
    PipelineConfig,
    PointCloud,
    average_precision,
    desync_frame,
    desync_robustness_curve,
    detect_frame,
    detection_recall,
    evaluate_detections,
    iou_3d,
    match_detections,
    oracle_predictors,
    proposal_recall,
    sweep_objectness,
    sweep_scatter,
    write_csv,
)
from cyldet import evalbench, pipeline
from cyldet.pipeline import Detection, seed_proposals
from cyldet.synthetic import make_frames
from oracles import optimal_match_count


def gt_label(center, yaw=0.0, dims=(1.6, 1.5, 3.9), difficulty="easy"):
    return GroundTruthLabel(
        class_name="Car", truncation=0.0, occlusion=0, alpha=0.0,
        bbox2d=Box2D(0, 0, 100, 100),
        box3d=Box3D(center, dims, yaw),
        difficulty=difficulty,
    )


def detection(center, yaw=0.0, confidence=0.9, dims=(1.6, 1.5, 3.9)):
    return Detection(
        box3d=Box3D(center, dims, yaw),
        box2d_source=Box2D(0, 0, 100, 100),
        objectness=confidence,
        confidence=confidence,
    )


class TestMatchDetections:
    def test_exact_hit(self):
        gts = [gt_label((0, 0, 10))]
        result = match_detections([detection((0, 0, 10))], gts, EvalConfig())
        assert (result.tp, result.fp, result.fn) == (1, 0, 0)

    def test_low_overlap_is_fp_and_fn(self):
        gts = [gt_label((0, 0, 10))]
        dets = [detection((1.2, 0, 10))]
        assert iou_3d(dets[0].box3d, gts[0].box3d) < 0.7
        result = match_detections(dets, gts, EvalConfig())
        assert (result.tp, result.fp, result.fn) == (0, 1, 1)

    def test_one_to_one(self):
        gts = [gt_label((0, 0, 10))]
        dets = [detection((0, 0, 10), confidence=0.9),
                detection((0, 0, 10), confidence=0.8)]
        result = match_detections(dets, gts, EvalConfig())
        assert result.tp == 1
        assert result.fp == 1

    def test_harder_than_active_absorbs_without_penalty(self):
        gts = [gt_label((0, 0, 10), difficulty="hard")]
        dets = [detection((0, 0, 10))]
        result = match_detections(dets, gts, EvalConfig(difficulty="moderate"))
        assert (result.tp, result.fp, result.fn) == (0, 0, 0)
        assert result.ignored_dets == (0,)

    def test_ignored_labels_never_count_as_fn(self):
        gts = [gt_label((0, 0, 10), difficulty="ignored")]
        result = match_detections([], gts, EvalConfig(difficulty="hard"))
        assert (result.tp, result.fp, result.fn) == (0, 0, 0)

    def test_easier_strata_stay_active(self):
        gts = [gt_label((0, 0, 10), difficulty="easy")]
        result = match_detections([], gts, EvalConfig(difficulty="hard"))
        assert result.fn == 1

    def test_matches_highest_iou_gt(self):
        gts = [gt_label((0, 0, 10)), gt_label((0.3, 0, 10))]
        dets = [detection((0.25, 0, 10))]
        result = match_detections(dets, gts, EvalConfig(iou_threshold=0.3))
        assert result.matches[0][1] == 1

    def test_counts_match_bruteforce_on_small_instances(self):
        rng = np.random.default_rng(0)
        cfg = EvalConfig(iou_threshold=0.5)
        for _ in range(40):
            n_gt = int(rng.integers(1, 5))
            gts, dets = [], []
            centers = []
            for _ in range(n_gt):
                while True:
                    c = (rng.uniform(-20, 20), 0.0, rng.uniform(8, 40))
                    if all(abs(c[0] - o[0]) + abs(c[2] - o[2]) > 6 for o in centers):
                        centers.append(c)
                        break
                gts.append(gt_label(centers[-1], yaw=rng.uniform(-math.pi, math.pi)))
                if rng.uniform() < 0.8:
                    noise = rng.uniform(-0.4, 0.4, size=2)
                    dets.append(detection(
                        (centers[-1][0] + noise[0], 0.0, centers[-1][2] + noise[1]),
                        yaw=gts[-1].box3d.yaw,
                        confidence=float(rng.uniform(0.2, 1.0)),
                    ))
            if rng.uniform() < 0.5:
                dets.append(detection(
                    (rng.uniform(-20, 20), 0.0, rng.uniform(8, 40)),
                    confidence=float(rng.uniform(0.2, 1.0)),
                ))
            result = match_detections(dets, gts, cfg)
            optimal = optimal_match_count(
                [d.box3d for d in dets], [g.box3d for g in gts],
                cfg.iou_threshold, iou_3d,
            )
            assert result.tp == optimal
            assert result.fp == len(dets) - optimal
            assert result.fn == len(gts) - optimal

    @settings(max_examples=150, deadline=None)
    @given(
        gts=st.lists(st.tuples(st.floats(8.0, 40.0),
                               st.floats(-math.pi, math.pi)),
                     min_size=1, max_size=4),
        dets=st.lists(st.tuples(st.integers(0, 3), st.floats(-0.6, 0.6),
                                st.floats(-0.6, 0.6), st.floats(-0.3, 0.3),
                                st.floats(0.01, 1.0)),
                      max_size=6),
        strays=st.lists(st.tuples(st.floats(-20.0, 20.0),
                                  st.floats(0.01, 1.0)), max_size=2),
        iou_threshold=st.sampled_from([0.3, 0.5, 0.7]),
        match_metric=st.sampled_from(["iou_3d", "iou_bev"]),
    )
    def test_greedy_is_optimal_on_separated_ground_truths(
            self, gts, dets, strays, iou_threshold, match_metric):
        # ground truths 12 m apart, detections within 0.6 m of one of them
        # and strays 40 m behind: no detection can overlap two ground
        # truths, so greedy matching is optimal
        labels = [gt_label((12.0 * i, 0.0, z), yaw=yaw)
                  for i, (z, yaw) in enumerate(gts)]
        detections = [
            detection((labels[g].box3d.center[0] + dx, 0.0,
                       labels[g].box3d.center[2] + dz),
                      yaw=labels[g].box3d.yaw + dyaw, confidence=conf)
            for g, dx, dz, dyaw, conf in dets if g < len(labels)
        ] + [detection((x, 0.0, 80.0), confidence=conf)
             for x, conf in strays]
        cfg = EvalConfig(iou_threshold=iou_threshold,
                         match_metric=match_metric)
        result = match_detections(detections, labels, cfg)
        optimal = optimal_match_count(
            [d.box3d for d in detections], [g.box3d for g in labels],
            iou_threshold, cfg.metric,
        )
        assert result.tp == optimal
        assert result.fp == len(detections) - optimal
        assert result.fn == len(labels) - optimal


class TestAveragePrecision:
    def test_perfect_detector(self):
        scored = [(0.9, True), (0.8, True), (0.7, True)]
        curve = average_precision(scored, n_gt=3, mode="r11")
        assert curve.ap == 1.0

    def test_no_detections(self):
        assert average_precision([], n_gt=5).ap == 0.0

    def test_hand_computed_case(self):
        # TP@0.9, FP@0.8, TP@0.7 over 2 GTs:
        # points (0.5, 1), (0.5, 0.5), (1.0, 2/3)
        # interp precision: 1.0 for r <= 0.5, 2/3 above -> (6*1 + 5*2/3)/11
        scored = [(0.9, True), (0.8, False), (0.7, True)]
        curve = average_precision(scored, n_gt=2, mode="r11")
        assert curve.ap == pytest.approx(28.0 / 33.0, abs=1e-12)

    def test_r40_variant(self):
        scored = [(0.9, True), (0.8, False), (0.7, True)]
        curve = average_precision(scored, n_gt=2, mode="r40")
        # 20 grid points at r <= 0.5 see precision 1.0, the rest 2/3
        assert curve.ap == pytest.approx((20 * 1.0 + 20 * 2.0 / 3.0) / 40.0,
                                         abs=1e-12)

    def test_recalls_non_decreasing(self):
        rng = np.random.default_rng(1)
        scored = [(float(rng.uniform()), bool(rng.integers(0, 2)))
                  for _ in range(100)]
        curve = average_precision(scored, n_gt=30)
        recalls = [p[0] for p in curve.points]
        assert recalls == sorted(recalls)

    def test_ap_consistent_with_points(self):
        rng = np.random.default_rng(2)
        scored = [(float(rng.uniform()), bool(rng.integers(0, 2)))
                  for _ in range(60)]
        curve = average_precision(scored, n_gt=20, mode="r11")
        recalls = np.array([p[0] for p in curve.points])
        precisions = np.array([p[1] for p in curve.points])
        grid = np.linspace(0, 1, 11)
        expected = np.mean([
            precisions[recalls >= g - 1e-12].max()
            if np.any(recalls >= g - 1e-12) else 0.0
            for g in grid
        ])
        assert curve.ap == pytest.approx(expected, abs=1e-9)


class TestRecallHelpers:
    def test_full_coverage(self):
        gts = [gt_label((0, 0, 10)), gt_label((5, 0, 20))]
        seeds = [(0.5, 0, 10), (5.0, 0, 21.0)]
        recall, per_gt = proposal_recall(seeds, gts, radius=2.0)
        assert recall == 1.0
        assert per_gt == 1.0

    def test_no_proposals(self):
        gts = [gt_label((0, 0, 10))]
        recall, per_gt = proposal_recall(np.zeros((0, 3)), gts, radius=2.0)
        assert recall == 0.0
        assert per_gt == 0.0

    def test_matches_linear_scan(self):
        rng = np.random.default_rng(3)
        gts = [gt_label((rng.uniform(-10, 10), 0, rng.uniform(8, 30)))
               for _ in range(12)]
        seeds = rng.uniform((-12, -1, 5), (12, 1, 35), size=(40, 3))
        recall, _ = proposal_recall(seeds, gts, radius=2.5)
        expected = np.mean([
            any(math.hypot(s[0] - g.box3d.center[0], s[2] - g.box3d.center[2])
                <= 2.5 for s in seeds)
            for g in gts
        ])
        assert recall == pytest.approx(expected)

    def test_capture_row_counts_captured_ground_truths_exactly(self):
        # 20 ground truths with none captured, then 25 with 7 captured: the
        # float round trip of recall * len(gts) read 0.15555555555555559
        far = [gt_label((float(x), 0.0, 60.0)) for x in range(-40, 60, 5)]
        near = [gt_label((float(x), 0.0, 20.0)) for x in range(-60, 65, 5)]
        seeds = [gt.box3d.center for gt in near[:7]]
        assert len(far) == 20 and len(near) == 25
        value, recall, per_gt = evalbench._capture_row(
            0.5, [([], far), (seeds, near)], radius=1.0)
        assert (value, recall, per_gt) == (0.5, 7 / 45, 7 / 45)

    def test_detection_recall_uses_matching(self):
        gts = [gt_label((0, 0, 10)), gt_label((8, 0, 20))]
        dets = [detection((0, 0, 10))]
        assert detection_recall(dets, gts, EvalConfig()) == 0.5


class TestSweeps:
    frames = make_frames(6, seed=30, cars_per_frame=(1, 3))

    def test_scatter_zero_noise_full_recall(self):
        preds = oracle_predictors()
        rows = sweep_scatter(self.frames, preds.monocular,
                             [0.0, 0.2, 0.4], PipelineConfig())
        for s, recall, per_gt in rows:
            assert recall == 1.0
        assert rows[0][2] == pytest.approx(1.0)  # single seed at s = 0

    def test_scatter_monotone_with_noise(self):
        preds = oracle_predictors(OracleConfig(dims_noise_sigma=0.1,
                                               yaw_noise_sigma=0.1, rng_seed=4))
        rows = sweep_scatter(self.frames, preds.monocular,
                             [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6],
                             PipelineConfig())
        recalls = [r for _, r, _ in rows]
        per_gts = [p for _, _, p in rows]
        assert recalls == sorted(recalls)
        assert per_gts == sorted(per_gts)

    @pytest.mark.parametrize("s_values", [
        [0.0, 0.3, 0.6],
        [0.0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.55, 0.6],
    ])
    def test_scatter_solves_each_pose_once_per_frame(self, monkeypatch,
                                                     caplog, s_values):
        # residual cap 2 px makes two of the ten noised poses fail
        preds = oracle_predictors(OracleConfig(
            dims_noise_sigma=0.3, yaw_noise_sigma=0.3, box2d_noise_sigma=3.0,
            rng_seed=1))
        config = PipelineConfig(residual_cap=2.0)
        # rows as built by seeding every s afresh
        seeded = []
        for s in s_values:
            cfg = evalbench._clamped_scatter(config, s)
            seeded.append(evalbench._capture_row(s, [
                ([r.center for _, _, _, r in
                  seed_proposals(frame, preds.monocular, cfg)], frame.labels)
                for frame in self.frames
            ], cfg.region_radius))

        calls = []
        search = pipeline.agreement_search_frame

        def counted(boxes, *args, **kwargs):
            calls.append(list(boxes))
            return search(boxes, *args, **kwargs)

        monkeypatch.setattr(pipeline, "agreement_search_frame", counted)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="cyldet"):
            rows = sweep_scatter(self.frames, preds.monocular, s_values,
                                 config)
        assert rows == seeded
        # one search per frame, over all of its objects
        assert calls == [[det.box2d for det in preds.monocular(frame)]
                         for frame in self.frames]
        assert [r.getMessage() for r in caplog.records] == [
            "frame 000000 object 0: no corner configuration yields a "
            "feasible translation",
            "frame 000002 object 1: no corner configuration yields a "
            "feasible translation",
        ]

    def test_objectness_extremes(self):
        preds = oracle_predictors()
        rows = sweep_objectness(self.frames, preds, [0.0, 1.0],
                                PipelineConfig())
        assert rows[0][1] == 1.0   # keep everything
        assert rows[1][1] == 0.0   # objectness is strictly below 1
        assert rows[1][2] == 0.0

    def test_objectness_monotone(self):
        preds = oracle_predictors(OracleConfig(dims_noise_sigma=0.1, rng_seed=5))
        rows = sweep_objectness(self.frames, preds,
                                [0.05, 0.1, 0.2, 0.3, 0.4, 0.5],
                                PipelineConfig())
        recalls = [r for _, r, _ in rows]
        per_gts = [p for _, _, p in rows]
        assert recalls == sorted(recalls, reverse=True)
        assert per_gts == sorted(per_gts, reverse=True)

    def test_objectness_logs_dropped_proposals_like_detect_frame(self, caplog):
        frame = self.frames[0]
        empty = dataclasses.replace(
            frame, cloud=PointCloud(np.zeros((0, 4)), frame="camera")
        )
        preds = oracle_predictors()

        def drops(run):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="cyldet"):
                run()
            return list(caplog.records)

        swept = drops(lambda: sweep_objectness([empty], preds, [0.0],
                                               PipelineConfig()))
        detected = drops(lambda: detect_frame(empty, preds, PipelineConfig()))
        assert swept
        assert all(len(r.args) == 5 and r.args[3] == "EmptyCloud" for r in swept)
        assert [r.getMessage() for r in swept] == [r.getMessage() for r in detected]

    def test_objectness_propagates_programming_errors(self):
        def broken_rpn(points, region, frame):
            raise TypeError("proposal head bug")

        preds = dataclasses.replace(oracle_predictors(), rpn=broken_rpn)
        with pytest.raises(TypeError, match="proposal head bug"):
            sweep_objectness(self.frames, preds, [0.5], PipelineConfig())

    def test_sweeps_read_frames_once(self):
        # an iterator can be read only once: every row must come from the
        # same single pass that a list gives
        preds = oracle_predictors(OracleConfig(dims_noise_sigma=0.1,
                                               yaw_noise_sigma=0.1, rng_seed=4))
        config = PipelineConfig()
        scatter_s = [0.0, 0.3, 0.6]
        thresholds = [0.1, 0.3, 0.5]
        assert (sweep_scatter(iter(self.frames), preds.monocular, scatter_s,
                              config)
                == sweep_scatter(self.frames, preds.monocular, scatter_s,
                                 config))
        assert (sweep_objectness(iter(self.frames), preds, thresholds, config)
                == sweep_objectness(self.frames, preds, thresholds, config))


class TestDesync:
    frames = make_frames(4, seed=31, cars_per_frame=(1, 3))

    def test_zero_bounds_is_identity(self):
        frame = self.frames[0]
        out = desync_frame(frame, DesyncConfig(max_xy=0.0, max_z_vertical=0.0))
        np.testing.assert_array_equal(out.cloud.points, frame.cloud.points)
        for got, want in zip(out.labels, frame.labels):
            assert got.box3d.center == want.box3d.center

    def test_points_and_labels_share_one_translation(self):
        frame = self.frames[1]
        out = desync_frame(frame, DesyncConfig(max_xy=0.8, max_z_vertical=0.2,
                                               rng_seed=3))
        point_shift = out.cloud.points[:, :3] - frame.cloud.points[:, :3]
        label_shifts = np.array([
            np.array(g.box3d.center) - np.array(w.box3d.center)
            for g, w in zip(out.labels, frame.labels)
        ])
        assert np.abs(point_shift - point_shift[0]).max() < 1e-12
        assert np.abs(label_shifts - point_shift[0]).max() < 1e-12
        shift = point_shift[0]
        assert abs(shift[0]) <= 0.8 and abs(shift[2]) <= 0.8
        assert abs(shift[1]) <= 0.2

    def test_offsets_preserved(self):
        frame = self.frames[2]
        out = desync_frame(frame, DesyncConfig(rng_seed=9))
        for got, want in zip(out.labels, frame.labels):
            offsets_before = frame.cloud.xyz - np.array(want.box3d.center)
            offsets_after = out.cloud.xyz - np.array(got.box3d.center)
            assert np.abs(offsets_after - offsets_before).max() < 1e-12

    def test_2d_boxes_and_calib_untouched(self):
        frame = self.frames[3]
        out = desync_frame(frame, DesyncConfig(rng_seed=1))
        assert out.calib is frame.calib
        for got, want in zip(out.labels, frame.labels):
            assert got.bbox2d == want.bbox2d
            assert got.box3d.dims == want.box3d.dims
            assert got.box3d.yaw == want.box3d.yaw

    def test_deterministic_per_seed_and_frame(self):
        frame = self.frames[0]
        a = desync_frame(frame, DesyncConfig(rng_seed=5))
        b = desync_frame(frame, DesyncConfig(rng_seed=5))
        np.testing.assert_array_equal(a.cloud.points, b.cloud.points)

    def test_zero_magnitude_curve_is_exact(self):
        preds = oracle_predictors()
        rows = desync_robustness_curve(
            self.frames, preds, [0.0], PipelineConfig(),
            EvalConfig(iou_threshold=0.5), n_seeds=1,
        )
        assert rows[0][1] == 1.0

    def test_map_metric_mode(self):
        preds = oracle_predictors()
        rows = desync_robustness_curve(
            self.frames, preds, [0.0], PipelineConfig(),
            EvalConfig(iou_threshold=0.5), metric="map", n_seeds=1,
        )
        assert rows[0][1] == 1.0

    def test_curve_reads_frames_once(self):
        preds = oracle_predictors(OracleConfig(dims_noise_sigma=0.1, rng_seed=2))

        def curve(frames):
            return desync_robustness_curve(
                frames, preds, [0.0, 0.4], PipelineConfig(),
                EvalConfig(iou_threshold=0.5), metric="map", n_seeds=2,
            )

        assert curve(iter(self.frames)) == curve(self.frames)

    @pytest.mark.parametrize("n_seeds", [0, -1])
    def test_no_seed_draws_is_an_error(self, n_seeds):
        def exhausted():
            raise AssertionError("frames read before the check")
            yield

        with pytest.raises(ValueError, match="n_seeds must be >= 1"):
            desync_robustness_curve(exhausted(), oracle_predictors(), [0.2],
                                    n_seeds=n_seeds)


class TestEvaluateDetections:
    def test_aggregates_over_frames(self):
        frames = make_frames(3, seed=32, cars_per_frame=(1, 2))
        preds = oracle_predictors()
        per_frame = [
            (cyldet.detect_frame(f, preds, PipelineConfig()), f.labels)
            for f in frames
        ]
        stats = evaluate_detections(per_frame, EvalConfig())
        assert stats["recall"] == 1.0
        assert stats["ap"] == 1.0
        assert stats["fp"] == 0


class TestCsv:
    def test_header_and_decimal_format(self, tmp_path):
        path = tmp_path / "rows.csv"
        write_csv(path, ("s", "recall"), [(0.5, 0.9666), (0.1, 1.0 / 3.0)])
        lines = path.read_text().splitlines()
        assert lines[0] == "s,recall"
        assert lines[1] == "0.5,0.9666"
        assert "." in lines[2] and "," in lines[2]
