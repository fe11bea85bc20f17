import dataclasses
import logging
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    evaluate_detections,
    iou_3d,
    match_detections,
    oracle_predictors,
    sweep_objectness,
    sweep_scatter,
    write_csv,
)
from cyldet import evalbench, geometry, pipeline
from cyldet.kitti import DIFFICULTIES
from cyldet.mono import spatial_scatter_frame
from cyldet.pipeline import (
    Detection,
    nms_bev,
    run_proposals,
    seed_proposals,
    solve_poses,
)
from cyldet.synthetic import make_frame, make_frames
from oracles import (
    Captures,
    clamped_scatter_reference,
    match_detections_reference,
    optimal_match_count,
    proposal_recall,
    sweep_objectness_reference,
    sweep_scatter_reference,
)
from test_geometry import _box_pairs, _near_touching_pairs, _signed_zero_twins


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
        captures = Captures(radius=1.0)
        captures.add([], far)
        captures.add(seeds, near)
        assert captures.row(0.5) == (0.5, 7 / 45, 7 / 45)

    def test_recall_of_one_frame_uses_matching(self):
        gts = [gt_label((0, 0, 10)), gt_label((8, 0, 20))]
        dets = [detection((0, 0, 10))]
        stats = evaluate_detections([(dets, gts)], EvalConfig())
        assert stats["recall"] == 0.5


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
            cfg = clamped_scatter_reference(config, s)
            captures = Captures(cfg.region.radius)
            for frame in self.frames:
                captures.add([r.center for _, _, _, r in
                              seed_proposals(frame, preds.monocular, cfg)],
                             frame.labels)
            seeded.append(captures.row(s))

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

    @pytest.mark.parametrize("y", [math.nan, math.inf])
    def test_a_seed_center_that_is_not_finite_raises_as_a_region_does(
            self, y):
        # the scatter sweep builds no region, and no frame gives it such an
        # estimate: its estimates come from the search, whose winners have
        # finite centers (TestFrameSearchMatchesReference in test_mono.py)
        frame = self.frames[0]
        (obj_idx, det2d, est), *_ = solve_poses(
            frame, oracle_predictors().monocular)
        x, _, z = est.solved_center
        est = dataclasses.replace(est, solved_center=(x, y, z))
        with pytest.raises(ValueError, match="^center must be finite$"):
            pipeline.scatter_proposals(frame, [(obj_idx, det2d, est)],
                                       PipelineConfig())

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

    @pytest.mark.parametrize("kind, values, message", [
        ("scatter", [0.5, 1.0], r"s must be in \[0, 1\), got 1\.0"),
        ("scatter", [1.5], r"got 1\.5"),
        ("scatter", [-0.1, 0.0], r"got -0\.1"),
        ("scatter", [math.nan], r"got nan"),
        ("objectness", [1.5, -0.2],
         r"threshold must be in \[0, 1\], got 1\.5"),
        ("objectness", [0.0, -0.2], r"got -0\.2"),
        ("objectness", [math.nan], r"got nan"),
        ("objectness", [math.inf], r"got inf"),
    ])
    def test_values_outside_their_range_raise_before_any_frame(
            self, kind, values, message):
        # they used to give rows: s = 1.5 and 1 a recall of 1, s = -0.1 and
        # thresholds of 1.5, -0.2 and NaN rows that meant nothing
        def unread():
            raise AssertionError("a frame was read")
            yield

        preds = oracle_predictors()
        with pytest.raises(ValueError, match=message):
            if kind == "scatter":
                sweep_scatter(unread(), preds.monocular, iter(values))
            else:
                sweep_objectness(unread(), preds, iter(values))

    def test_the_ends_of_each_range_are_values(self):
        for kind, values in [("scatter", [0.0, 1.0 - 1e-16]),
                             ("objectness", [0.0, 1.0]),
                             ("desync", [0.0, 1e308])]:
            assert evalbench.check_sweep_values(kind, iter(values)) == values


class _FailingMonocular:
    """The noised oracle's detections, with the yaw of each object whose
    index is in failing made NaN, so that its pose fails."""

    def __init__(self, cfg, failing):
        self.oracle = oracle_predictors(cfg).monocular
        self.failing = failing

    def __call__(self, frame):
        return [dataclasses.replace(det, yaw=math.nan)
                if i in self.failing else det
                for i, det in enumerate(self.oracle(frame))]


# s values of the scatter grid: 0 is clamped to 1e-9, and 1 - 1e-9 is the
# largest that ScatterParams takes
_S_VALUES = st.sampled_from([0.0, 1e-9, 0.05, 0.3, 0.5, 0.75, 1.0 - 1e-9]) | (
    st.floats(0.0, 1.0, exclude_max=True))
_THRESHOLDS = (st.sampled_from([0.0, 0.01, 0.25, 0.5, 1.0])
               | st.floats(0.0, 1.0))


class TestSweepMatchesReference:
    """sweep_scatter scatters all of a frame's s values in one stacked
    solve and counts captures from the seed arrays; sweep_objectness counts
    every threshold row of a frame in one pass.  Their rows must equal
    those of the per-s and per-row references bit for bit, and the seeds
    that the stacked scatter gives each s must be the bytes that the
    spatial_scatter_frame gives it alone, whatever the grid and whichever
    poses fail."""

    @pytest.mark.filterwarnings("error")
    @settings(max_examples=60, deadline=None)
    @given(
        cars=st.lists(st.integers(0, 10), min_size=1, max_size=3),
        seed=st.integers(0, 2**16),
        noise=st.sampled_from([0.0, 0.1, 0.3]),
        residual_cap=st.sampled_from([2.0, 10.0]),
        failing=st.sets(st.integers(0, 9), max_size=4),
        s_values=st.lists(_S_VALUES, max_size=8),
        thresholds=st.lists(_THRESHOLDS, max_size=8),
        at_scores=st.lists(st.integers(0, 10**6), max_size=4),
    )
    @example(cars=[3, 0, 10], seed=7, noise=0.3, residual_cap=2.0,
             failing={1, 4}, s_values=[0.0, 1.0 - 1e-9, 0.5, 0.5, 0.0, 1e-9],
             thresholds=[0.0, 1.0, 0.5, 0.5], at_scores=[0, 5, 5, 17])
    def test_rows_and_seeds(self, cars, seed, noise, residual_cap, failing,
                            s_values, thresholds, at_scores):
        frames = [make_frame(f"{i:06d}", seed=seed + i, n_cars=n,
                             ground_points=200)
                  for i, n in enumerate(cars)]
        cfg = OracleConfig(dims_noise_sigma=noise, yaw_noise_sigma=noise,
                           box2d_noise_sigma=10.0 * noise,
                           center_noise_sigma=noise, rng_seed=seed)
        preds = dataclasses.replace(oracle_predictors(cfg),
                                    monocular=_FailingMonocular(cfg, failing))
        config = PipelineConfig(residual_cap=residual_cap)
        # thresholds equal to some of the scores, which the rows count as
        # kept, and repeated
        scores = [score for frame in frames for score, _ in run_proposals(
            frame, preds, config, ("rpn",), evalbench._score_seed_regions)]
        if scores:
            thresholds = thresholds + [scores[i % len(scores)]
                                       for i in at_scores]
        assert (sweep_scatter(frames, preds.monocular, s_values, config)
                == sweep_scatter_reference(frames, preds.monocular, s_values,
                                           config))
        assert (sweep_objectness(frames, preds, thresholds, config)
                == sweep_objectness_reference(frames, preds, thresholds,
                                              config))

        scatters = [clamped_scatter_reference(config, s).scatter
                    for s in s_values]
        for frame in frames:
            estimates = [est for _, _, est in
                         solve_poses(frame, preds.monocular, config)]
            p = frame.calib.p2
            seeds, counts, p1, p2 = spatial_scatter_frame(estimates,
                                                          scatters, p)
            assert counts.shape == (len(scatters), len(estimates))
            ends = np.cumsum(counts.sum(axis=1))
            for params, run, got_counts, got_p1, got_p2 in zip(
                    scatters, np.split(seeds, ends[:-1]), counts, p1, p2):
                alone, alone_counts, alone_p1, alone_p2 = (
                    spatial_scatter_frame(estimates, [params], p))
                want = [alone, alone_counts[0], alone_p1[0], alone_p2[0]]
                assert [run.tobytes(), got_counts.tobytes(), got_p1.tobytes(),
                        got_p2.tobytes()] == [x.tobytes() for x in want]


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

    @pytest.mark.parametrize("max_xy, max_z_vertical", [
        (math.nan, 0.2), (math.inf, 0.2), (-0.5, 0.2),
        (0.8, math.nan), (0.8, math.inf), (0.8, -1e-9)])
    def test_bounds_not_finite_and_at_least_zero_are_rejected(
            self, max_xy, max_z_vertical):
        # NaN and inf used to be accepted; inf made rng.uniform raise
        # OverflowError
        with pytest.raises(ValueError, match="finite and >= 0"):
            DesyncConfig(max_xy=max_xy, max_z_vertical=max_z_vertical)

    @pytest.mark.parametrize("magnitude", [math.inf, math.nan, -0.5])
    def test_magnitude_not_finite_and_at_least_zero_raises_before_any_frame(
            self, magnitude):
        def unread():
            raise AssertionError("a frame was read")
            yield

        with pytest.raises(ValueError, match="finite and >= 0"):
            desync_robustness_curve(unread(), oracle_predictors(),
                                    [0.2, magnitude])

    @pytest.mark.parametrize("magnitude, ratio", [
        (0.5, -1.0), (0.0, -1.0), (0.5, math.nan), (0.0, math.inf),
        (0.5, -math.inf)])
    def test_vertical_ratio_not_finite_and_at_least_zero_raises_before_any_frame(
            self, magnitude, ratio):
        # it used to name the product ("desync translation bound must be
        # finite and >= 0, got -0.5", or "got nan"), and at magnitude 0 a
        # ratio of -1 gave a bound of -0.0, which rng.uniform rejected only
        # after the first frame was read
        def unread():
            raise AssertionError("a frame was read")
            yield

        with pytest.raises(ValueError, match=re.escape(
                f"vertical_ratio must be finite and >= 0, got {ratio!r}")):
            desync_robustness_curve(unread(), oracle_predictors(), [magnitude],
                                    vertical_ratio=ratio)

    def test_a_signed_zero_bound_is_zero(self):
        # -0.0 passed every check, then rng.uniform(0.0, -0.0) raised
        # "high - low < 0"
        values = evalbench.check_sweep_values("desync", [-0.0, 0.5, 0])
        assert [(v, math.copysign(1.0, v)) for v in values] == [
            (0.0, 1.0), (0.5, 1.0), (0.0, 1.0)]
        cfg = DesyncConfig(max_xy=-0.0, max_z_vertical=-0.0)
        assert math.copysign(1.0, cfg.max_xy) == 1.0
        assert math.copysign(1.0, cfg.max_z_vertical) == 1.0
        frame = self.frames[0]
        np.testing.assert_array_equal(desync_frame(frame, cfg).cloud.points,
                                      frame.cloud.points)
        preds = oracle_predictors(OracleConfig(dims_noise_sigma=0.1,
                                               rng_seed=2))

        def curve(magnitudes, ratio):
            return desync_robustness_curve(
                self.frames, preds, magnitudes, PipelineConfig(),
                EvalConfig(iou_threshold=0.5), vertical_ratio=ratio)

        rows = curve([-0.0, 0.4], -0.0)
        assert rows == curve([0.0, 0.4], 0.0)
        assert math.copysign(1.0, rows[0][0]) == 1.0

    @pytest.mark.parametrize("n_seeds", [0, -1])
    def test_no_seed_draws_is_an_error(self, n_seeds):
        def exhausted():
            raise AssertionError("frames read before the check")
            yield

        with pytest.raises(ValueError, match="n_seeds must be >= 1"):
            desync_robustness_curve(exhausted(), oracle_predictors(), [0.2],
                                    n_seeds=n_seeds)


class TestDesyncCurveMemory:
    """Each draw of desync_robustness_curve matches a frame as it finishes
    and keeps only its (confidence, is_tp) pairs and counts, not every
    frame's detections and labels until the split ends."""

    @staticmethod
    def curve(n_frames):
        frames = (make_frame(f"{i:06d}", seed=100 + i, n_cars=3,
                             ground_points=200) for i in range(n_frames))
        preds = oracle_predictors(OracleConfig(
            dims_noise_sigma=0.05, yaw_noise_sigma=0.05, box2d_noise_sigma=1.0,
            center_noise_sigma=0.1, rng_seed=4))
        return desync_robustness_curve(frames, preds, [0.3, 0.8],
                                       PipelineConfig(), EvalConfig(),
                                       metric="map", seed=9)

    def test_rows_are_unchanged_and_peak_heap_does_not_grow(self, caplog):
        # the log capture would keep every drop line of the split
        caplog.set_level(logging.ERROR, logger="cyldet")

        def peak(n_frames):
            tracemalloc.start()
            try:
                return self.curve(n_frames), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # warm up: the first run fills caches that later runs reuse
        self.curve(5)
        _, short = peak(20)
        rows, long = peak(200)
        # written when each draw kept every frame's detections and labels
        # and evaluated them after the last frame
        assert rows == [(0.3, float.fromhex("0x1.8d45abad9ea97p-1")),
                        (0.8, float.fromhex("0x1.47bd090af1de2p-1"))]
        # what still grows is the AP's (confidence, is_tp) pairs: 0.12 MB
        # more for the 200 frames than for the 20 (0.64 MB); keeping every
        # frame's detections and labels made it 1.53 MB more
        assert long - short < 0.3e6


class TestSweepMemory:
    """Each sweep row adds a frame's counts as the frame finishes, instead
    of keeping every frame's seed centers or scored regions until the
    split ends."""

    preds = oracle_predictors(OracleConfig(
        dims_noise_sigma=0.05, yaw_noise_sigma=0.05, box2d_noise_sigma=1.0,
        center_noise_sigma=0.1, rng_seed=4))

    @staticmethod
    def frames(n_frames):
        return (make_frame(f"{i:06d}", seed=100 + i, n_cars=3,
                           ground_points=200) for i in range(n_frames))

    def scatter(self, n_frames):
        return sweep_scatter(self.frames(n_frames), self.preds.monocular,
                             [0.0, 0.3, 0.6])

    def objectness(self, n_frames):
        return sweep_objectness(self.frames(n_frames), self.preds, [0.1, 0.6])

    # written when each sweep kept every frame's seeds until the split
    # ended: 2.30 MB (scatter) and 1.66 MB (objectness) more for 200
    # frames than for 20
    @pytest.mark.parametrize("kind, hex_rows", [
        ("scatter", [
            ("0x0.0p+0", "0x1.db4e81b4e81b5p-1", "0x1.0000000000000p+0"),
            ("0x1.3333333333333p-2", "0x1.0000000000000p+0",
             "0x1.1e06d3a06d3a0p+3"),
            ("0x1.3333333333333p-1", "0x1.0000000000000p+0",
             "0x1.15f258bf258bfp+4")]),
        ("objectness", [
            ("0x1.999999999999ap-4", "0x1.0000000000000p+0",
             "0x1.a1b4e81b4e81bp+0"),
            ("0x1.3333333333333p-1", "0x1.7f258bf258bf2p-1",
             "0x1.8e81b4e81b4e8p-1")]),
    ])
    def test_rows_are_unchanged_and_peak_heap_does_not_grow(
            self, caplog, kind, hex_rows):
        # the log capture would keep every drop line of the split
        caplog.set_level(logging.ERROR, logger="cyldet")
        sweep = getattr(self, kind)

        def peak(n_frames):
            tracemalloc.start()
            try:
                return sweep(n_frames), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # warm up: the first run fills caches that later runs reuse
        sweep(5)
        _, short = peak(20)
        rows, long = peak(200)
        assert rows == [tuple(float.fromhex(v) for v in row)
                        for row in hex_rows]
        assert long - short < 0.3e6


@st.composite
def _match_cases(draw):
    """Detections and ground truths on near-touching and overlapping box
    pairs, with exact hits, one box object shared, signed-zero twins, tied
    confidences and every difficulty."""
    pairs = draw(st.lists(_near_touching_pairs() | _box_pairs(),
                          min_size=1, max_size=5))
    det_boxes = [a for a, _ in pairs]
    gt_boxes = [b for _, b in pairs]
    for i in draw(st.lists(st.integers(0, len(pairs) - 1), max_size=4)):
        box = gt_boxes[i]
        det_boxes += draw(st.sampled_from([
            [box], [Box3D(box.center, box.dims, box.yaw)],
            _signed_zero_twins(box)]))
    confidence = st.sampled_from([0.25, 0.5, 0.5, 0.9]) | st.floats(0.0, 1.0)
    dets = [Detection(box, Box2D(0, 0, 100, 100), 1.0, draw(confidence))
            for box in det_boxes]
    gts = [dataclasses.replace(gt_label((0, 0, 10)), box3d=box,
                               difficulty=draw(st.sampled_from(DIFFICULTIES)))
           for box in gt_boxes]
    cfg = EvalConfig(
        iou_threshold=draw(st.sampled_from([0.1, 0.5, 0.7, 1.0])
                           | st.floats(0.01, 1.0)),
        difficulty=draw(st.sampled_from(evalbench.EVAL_DIFFICULTIES)),
        match_metric=draw(st.sampled_from(evalbench.MATCH_METRICS)))
    return dets, gts, cfg


class TestOverlapBits:
    """Matching equals the reference (the overlap code that rebuilt both
    footprints for every pair and clipped on numpy scalars) bit for bit,
    and NMS and matching build each box's footprint at most once."""

    @settings(max_examples=300, deadline=None)
    @given(_match_cases())
    def test_match_results_equal_the_reference(self, case):
        dets, gts, cfg = case
        got = match_detections(dets, gts, cfg)
        want = match_detections_reference(dets, gts, cfg)
        assert got == want
        assert all(type(iou) is float for _, _, iou in got.matches)
        assert ([iou.hex() for _, _, iou in got.matches]
                == [iou.hex() for _, _, iou in want.matches])

    def test_each_footprint_is_built_at_most_once_per_call(self, monkeypatch):
        built = []
        footprint = geometry.footprint_polygon

        def counted(box):
            built.append(id(box))
            return footprint(box)

        monkeypatch.setattr(geometry, "footprint_polygon", counted)
        rng = np.random.default_rng(8)
        boxes = [Box3D((x, 0.0, z), (1.6, 1.5, 3.9), yaw) for x, z, yaw in
                 rng.uniform((-2, 10, -3), (2, 14, 3), size=(12, 3))]
        # at threshold 1 nothing is suppressed, so every pair is scored
        dets = [detection(box.center, box.yaw, c) for box, c in
                zip(boxes, rng.uniform(size=12))]
        nms_bev(dets, 1.0)
        assert sorted(built) == sorted(id(d.box3d) for d in dets)
        # every detection meets every ground truth, active and ignored
        built.clear()
        gts = [gt_label(box.center, box.yaw, difficulty=difficulty)
               for box, difficulty in zip(boxes[:6], DIFFICULTIES * 2)]
        for metric in evalbench.MATCH_METRICS:
            match_detections(dets, gts, EvalConfig(iou_threshold=1.0,
                                                   match_metric=metric))
            assert sorted(built) == sorted(
                id(box) for box in [d.box3d for d in dets]
                + [g.box3d for g in gts])
            built.clear()


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
