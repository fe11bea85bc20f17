"""Detection evaluation: matching, average precision, recall sweeps, and
the sensor-desynchronization simulator.

Matching follows the usual difficulty-stratified protocol: ground truths
of the evaluated stratum (and every easier one) count toward recall;
harder and ignored ground truths absorb overlapping detections without
rewarding or penalizing them.  The desync simulator rigidly translates
the point cloud together with the 3D labels while leaving 2D boxes and
calibration untouched, emulating a Lidar that drifted relative to the
camera between captures.
"""

from dataclasses import dataclass, replace

import numpy as np

from .geometry import iou_3d, iou_bev
from .kitti import DIFFICULTIES, FrameData, PointCloud, WrongFrame
from .kitti import stable_id_hash
from .pipeline import (
    PipelineConfig,
    detect_frame,
    derive_seed,
    objectness,
    run_proposals,
    scatter_proposals,
    solve_poses,
)

# Unused here, but perfbench/layers.py patches these names on this module.
from .pipeline import gather_cylinder, seed_proposals  # noqa: F401
from .pipeline import sample_points, voxel_downsample  # noqa: F401

# the accepted values of EvalConfig's fields and of the desync metric;
# a difficulty also scores every easier one, and "ignored" is never scored
EVAL_DIFFICULTIES = DIFFICULTIES[:-1]
_ACTIVE = {difficulty: EVAL_DIFFICULTIES[:i + 1]
           for i, difficulty in enumerate(EVAL_DIFFICULTIES)}
AP_MODES = ("r11", "r40")
MATCH_METRICS = ("iou_3d", "iou_bev")
DESYNC_METRICS = ("recall", "map")


@dataclass(frozen=True)
class EvalConfig:
    iou_threshold: float = 0.7
    difficulty: str = "moderate"
    ap_mode: str = "r11"
    match_metric: str = "iou_3d"

    def __post_init__(self):
        if not 0.0 < self.iou_threshold <= 1.0:
            raise ValueError("iou_threshold must be in (0, 1]")
        if self.difficulty not in EVAL_DIFFICULTIES:
            raise ValueError(f"difficulty must be one of {EVAL_DIFFICULTIES}")
        if self.ap_mode not in AP_MODES:
            raise ValueError(f"ap_mode must be one of {AP_MODES}")
        if self.match_metric not in MATCH_METRICS:
            raise ValueError(f"match_metric must be one of {MATCH_METRICS}")

    @property
    def metric(self):
        return iou_3d if self.match_metric == "iou_3d" else iou_bev


@dataclass(frozen=True)
class DesyncConfig:
    max_xy: float = 0.8
    max_z_vertical: float = 0.2
    rng_seed: int = 0

    def __post_init__(self):
        if self.max_xy < 0.0 or self.max_z_vertical < 0.0:
            raise ValueError("translation bounds must be >= 0")


@dataclass(frozen=True)
class MatchResult:
    tp: int
    fp: int
    fn: int
    matches: tuple      # (det_index, gt_index, iou) per true positive
    ignored_dets: tuple  # detection indices absorbed by ignore-class GTs


def match_detections(detections, gts, cfg=EvalConfig()):
    """Greedy one-to-one matching in descending confidence order.

    Each detection takes the highest-IoU not-yet-matched active ground
    truth if that IoU clears the threshold.  Detections overlapping only
    harder-than-active or ignored ground truths are dropped from the
    tally; everything else unmatched is a false positive.
    """
    active = [i for i, g in enumerate(gts) if g.difficulty in _ACTIVE[cfg.difficulty]]
    ignore = [i for i in range(len(gts)) if i not in active]
    metric = cfg.metric
    order = sorted(range(len(detections)),
                   key=lambda i: (-detections[i].confidence, i))
    matched_gts = set()
    matches, ignored_dets = [], []
    fp = 0
    for det_idx in order:
        det = detections[det_idx]
        best_iou, best_gt = 0.0, None
        for gt_idx in active:
            if gt_idx in matched_gts:
                continue
            iou = metric(det.box3d, gts[gt_idx].box3d)
            if iou > best_iou:
                best_iou, best_gt = iou, gt_idx
        if best_gt is not None and best_iou >= cfg.iou_threshold:
            matched_gts.add(best_gt)
            matches.append((det_idx, best_gt, best_iou))
            continue
        if any(metric(det.box3d, gts[g].box3d) >= cfg.iou_threshold
               for g in ignore):
            ignored_dets.append(det_idx)
            continue
        fp += 1
    return MatchResult(
        tp=len(matches),
        fp=fp,
        fn=len(active) - len(matches),
        matches=tuple(matches),
        ignored_dets=tuple(ignored_dets),
    )


@dataclass(frozen=True)
class PrCurve:
    """Raw (recall, precision) points plus the interpolated AP."""

    points: tuple
    ap: float
    mode: str = "r11"


def _interpolated_ap(points, mode):
    if mode == "r11":
        grid = np.linspace(0.0, 1.0, 11)
    else:
        grid = np.arange(1, 41) / 40.0
    if not points:
        return 0.0
    recalls = np.array([p[0] for p in points])
    precisions = np.array([p[1] for p in points])
    values = []
    for r in grid:
        mask = recalls >= r - 1e-12
        values.append(precisions[mask].max() if np.any(mask) else 0.0)
    return float(np.mean(values))


def average_precision(scored, n_gt, mode="r11"):
    """PR curve and AP from (confidence, is_true_positive) pairs.

    scored need not be sorted; n_gt is the number of active ground truths
    over the whole evaluation set.
    """
    order = sorted(range(len(scored)), key=lambda i: (-scored[i][0], i))
    tp = fp = 0
    points = []
    for i in order:
        if scored[i][1]:
            tp += 1
        else:
            fp += 1
        recall = tp / n_gt if n_gt else 0.0
        points.append((recall, tp / (tp + fp)))
    return PrCurve(points=tuple(points), ap=_interpolated_ap(points, mode),
                   mode=mode)


def evaluate_detections(per_frame, cfg=EvalConfig()):
    """Aggregate matching over (detections, gts) pairs, one per frame.

    per_frame may be any iterable, read once: each frame is matched as it
    arrives, and only its (confidence, is_tp) pairs and counts are kept.
    Returns a dict with tp/fp/fn counts, recall, and the PR curve with AP.
    """
    scored = []
    tp = fp = fn = n_active = 0
    for detections, gts in per_frame:
        result = match_detections(detections, gts, cfg)
        tp += result.tp
        fp += result.fp
        fn += result.fn
        n_active += result.tp + result.fn
        matched = {d for d, _, _ in result.matches}
        ignored = set(result.ignored_dets)
        for idx, det in enumerate(detections):
            if idx in ignored:
                continue
            scored.append((det.confidence, idx in matched))
    curve = average_precision(scored, n_active, cfg.ap_mode)
    recall = tp / n_active if n_active else 0.0
    return {
        "tp": tp, "fp": fp, "fn": fn,
        "recall": recall, "ap": curve.ap, "curve": curve,
    }


def _captured(seeds, gts, radius):
    """How many ground truths have a seed within the cylinder radius
    (ground-plane distance), as an integer."""
    seeds = np.asarray(seeds, dtype=float).reshape(-1, 3)
    captured = 0
    for gt in gts:
        cx, _, cz = gt.box3d.center
        if len(seeds) and np.any(
            np.hypot(seeds[:, 0] - cx, seeds[:, 2] - cz) <= radius
        ):
            captured += 1
    return captured


def proposal_recall(seeds, gts, radius):
    """Fraction of ground truths with a seed within the cylinder radius
    (ground-plane distance), plus seeds per ground truth."""
    seeds = np.asarray(seeds, dtype=float).reshape(-1, 3)
    if not gts:
        return 0.0, 0.0
    return _captured(seeds, gts, radius) / len(gts), len(seeds) / len(gts)


def detection_recall(detections, gts, cfg=EvalConfig()):
    """Fraction of active ground truths matched at the configured IoU."""
    result = match_detections(detections, gts, cfg)
    total = result.tp + result.fn
    return result.tp / total if total else 0.0


def _clamped_scatter(config, s):
    # ScatterParams requires s strictly inside (0, 1); the s = 0 sweep row
    # is realized as the limit, which collapses to the unscaled solution.
    s_eff = min(max(s, 1e-9), 1.0 - 1e-9)
    return replace(config, scatter=replace(config.scatter, s=s_eff))


def _capture_row(value, frames, radius):
    """(value, capture recall, seeds per GT) over (seed centers, gts)
    pairs, one pair per frame.  Captured ground truths are counted as
    integers, so the recall is their count over the total, exactly."""
    captured = total_gts = total_seeds = 0
    for seeds, gts in frames:
        captured += _captured(seeds, gts, radius)
        total_gts += len(gts)
        total_seeds += len(seeds)
    return (
        float(value),
        captured / total_gts if total_gts else 0.0,
        total_seeds / total_gts if total_gts else 0.0,
    )


def sweep_scatter(frames, monocular, s_values, config=PipelineConfig()):
    """Capture recall and seeds-per-GT of the scattered proposals, per s.

    Counts raw stage-(a) seed regions, before any objectness filtering,
    so the seeds-per-GT column reflects the scatter arithmetic alone.
    The poses do not depend on s, so each frame's are solved once (and
    each pose failure logged once) and scattered once per s.
    frames may be any iterable; it is read once.
    Returns (s, recall, proposals_per_gt) rows.
    """
    rows = [(s, _clamped_scatter(config, s), []) for s in s_values]
    for frame in frames:
        poses = solve_poses(frame, monocular, config)
        for _, cfg, pairs in rows:
            pairs.append((
                [r.center for _, _, _, r in scatter_proposals(frame, poses, cfg)],
                frame.labels,
            ))
    return [_capture_row(s, pairs, cfg.region_radius) for s, cfg, pairs in rows]


def _score_seed_region(stage, proposal, out):
    """Stage-0 objectness of one seed region, with the region center."""
    return objectness(out.t_obj), proposal[3].center


def sweep_objectness(frames, predictors, thresholds, config=PipelineConfig()):
    """Capture recall and kept-proposals-per-GT after objectness filtering.

    The proposal head scores every seed region once, dropping proposals
    as detect_frame does; each threshold row then filters the same scored
    set, so the sweep is exactly nested.  frames may be any iterable; it
    is read once.
    Returns (threshold, recall, proposals_per_gt) rows.
    """
    scored_frames = [
        (run_proposals(frame, predictors, config, ("rpn",),
                       _score_seed_region),
         frame.labels)
        for frame in frames
    ]
    return [
        _capture_row(threshold, [
            ([center for score, center in scored if score >= threshold], gts)
            for scored, gts in scored_frames
        ], config.region_radius)
        for threshold in thresholds
    ]


def desync_frame(frame, cfg=DesyncConfig()):
    """Rigidly translate the cloud and the 3D labels by one shared random
    offset: ground-plane axes (camera x, z) within max_xy each, vertical
    (camera y) within max_z_vertical.  2D boxes and calibration stay put.
    """
    if frame.cloud.frame != "camera":
        raise WrongFrame("desync expects a camera-frame cloud")
    rng = np.random.default_rng(
        np.random.SeedSequence(
            [cfg.rng_seed & 0xFFFFFFFF, stable_id_hash(frame.frame_id)]
        )
    )
    shift = np.array([
        rng.uniform(-cfg.max_xy, cfg.max_xy),
        rng.uniform(-cfg.max_z_vertical, cfg.max_z_vertical),
        rng.uniform(-cfg.max_xy, cfg.max_xy),
    ])
    points = frame.cloud.points.copy(order="K")
    points[:, :3] += shift
    labels = tuple(
        replace(
            lab,
            box3d=replace(
                lab.box3d, center=tuple(np.asarray(lab.box3d.center) + shift)
            ),
        )
        for lab in frame.labels
    )
    return FrameData(
        frame_id=frame.frame_id,
        calib=frame.calib,
        labels=labels,
        cloud=PointCloud(points, frame="camera"),
    )


def desync_robustness_curve(frames, predictors, magnitudes,
                            config=PipelineConfig(), eval_cfg=EvalConfig(),
                            metric="recall", n_seeds=1, vertical_ratio=0.25,
                            seed=0):
    """(discrepancy, metric) rows: for each translation cap, desync every
    frame, run the detector, and evaluate; averaged over n_seeds draws.

    The vertical cap scales as vertical_ratio times the ground-plane cap.
    metric selects 'recall' or 'map'.  frames may be any iterable; it is
    read once.
    """
    if metric not in DESYNC_METRICS:
        raise ValueError(f"metric must be one of {DESYNC_METRICS}")
    if n_seeds < 1:
        raise ValueError("n_seeds must be >= 1")
    magnitudes = list(magnitudes)
    draws = [
        (DesyncConfig(max_xy=m, max_z_vertical=m * vertical_ratio,
                      rng_seed=derive_seed(seed, k)), [])
        for m in magnitudes for k in range(n_seeds)
    ]
    for frame in frames:
        for desync_cfg, per_frame in draws:
            shifted = desync_frame(frame, desync_cfg)
            dets = detect_frame(shifted, predictors, config)
            per_frame.append((dets, shifted.labels))
    key = "recall" if metric == "recall" else "ap"
    values = [evaluate_detections(per_frame, eval_cfg)[key]
              for _, per_frame in draws]
    return [
        (float(m), float(np.mean(values[i * n_seeds:(i + 1) * n_seeds])))
        for i, m in enumerate(magnitudes)
    ]


def write_csv(path, header, rows):
    """Plain CSV with a header row and '.'-decimal float formatting."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format(float(v), ".10g") for v in row) + "\n")
