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

from .geometry import data_outcome, iou_3d, iou_bev
from .kitti import DIFFICULTIES, FrameData, PointCloud, WrongFrame
from .kitti import stable_id_hash
from .pipeline import (
    PipelineConfig,
    confidence_order,
    detect_frame,
    derive_seed,
    objectness,
    run_proposals,
    solve_poses,
)
from .mono import spatial_scatter_frame

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
        max_xy, max_z = check_sweep_values(
            "desync", (self.max_xy, self.max_z_vertical))
        object.__setattr__(self, "max_xy", max_xy)
        object.__setattr__(self, "max_z_vertical", max_z)


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
    tally; everything else unmatched is a false positive.  Detections
    are walked in confidence_order.  A box that NMS already clipped
    reuses its footprint (Box3D.footprint).
    """
    active = [i for i, g in enumerate(gts) if g.difficulty in _ACTIVE[cfg.difficulty]]
    ignore = [i for i in range(len(gts)) if i not in active]
    metric = cfg.metric
    order = confidence_order([det.confidence for det in detections])
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
        if any(metric(det.box3d, gts[g].box3d)
               >= cfg.iou_threshold for g in ignore):
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


def average_precision(scored, n_gt, mode="r11"):
    """PR curve and AP from (confidence, is_true_positive) pairs.

    scored need not be sorted; n_gt is the number of active ground truths
    over the whole evaluation set.  Point k holds the recall and precision
    of the first k + 1 pairs in confidence_order.  The AP is the mean over
    the r11 or r40 recall grid of the best precision at a recall of at
    least the grid value less 1e-12, or 0.0 where there is none.
    """
    order = confidence_order([confidence for confidence, _ in scored])
    tp = np.cumsum([bool(scored[i][1]) for i in order], dtype=np.int64)
    recall = tp / n_gt if n_gt else np.zeros(len(tp))
    precision = tp / np.arange(1, len(tp) + 1)
    grid = (np.linspace(0.0, 1.0, 11) if mode == "r11"
            else np.arange(1, 41) / 40.0)
    # the best precision at each rank or after it, then 0.0 past the end
    best = np.append(np.maximum.accumulate(precision[::-1])[::-1], 0.0)
    ap = float(np.mean(best[np.searchsorted(recall, grid - 1e-12)]))
    return PrCurve(points=tuple(zip(recall.tolist(), precision.tolist())),
                   ap=ap, mode=mode)


class _Tally:
    """The counts and (confidence, is_tp) pairs of the frames matched so
    far: all that evaluate_detections keeps of a frame."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.tp = self.fp = self.fn = 0
        self.scored = []

    def add(self, detections, gts):
        result = match_detections(detections, gts, self.cfg)
        self.tp += result.tp
        self.fp += result.fp
        self.fn += result.fn
        matched = {d for d, _, _ in result.matches}
        ignored = set(result.ignored_dets)
        self.scored.extend((det.confidence, idx in matched)
                           for idx, det in enumerate(detections)
                           if idx not in ignored)

    def stats(self):
        n_active = self.tp + self.fn
        curve = average_precision(self.scored, n_active, self.cfg.ap_mode)
        recall = self.tp / n_active if n_active else 0.0
        return {
            "tp": self.tp, "fp": self.fp, "fn": self.fn,
            "recall": recall, "ap": curve.ap, "curve": curve,
        }


def evaluate_detections(per_frame, cfg=EvalConfig()):
    """Aggregate matching over (detections, gts) pairs, one per frame.

    per_frame may be any iterable, read once: each frame is matched as it
    arrives, and only its (confidence, is_tp) pairs and counts are kept.
    Returns a dict with tp/fp/fn counts, recall, and the PR curve with AP.
    """
    tally = _Tally(cfg)
    for detections, gts in per_frame:
        tally.add(detections, gts)
    return tally.stats()


def _within_radius(seeds, gts, radius):
    """(G, S) table of which seeds (S, 3) lie within the cylinder radius of
    each ground truth (ground-plane distance, one np.hypot per pair)."""
    centers = np.array([gt.box3d.center for gt in gts],
                       dtype=float).reshape(-1, 3)
    return np.hypot(seeds[:, 0] - centers[:, :1],
                    seeds[:, 2] - centers[:, 2:]) <= radius


def _capture_rows(values, captured, gts, seeds):
    """(value, capture recall, seeds per GT) rows from each row's captured
    and seed totals and the ground-truth total; the recall is the captured
    count over the total, exactly."""
    if not gts:
        return [(float(value), 0.0, 0.0) for value in values]
    return [(float(value), c / gts, n / gts)
            for value, c, n in zip(values, captured.tolist(), seeds.tolist())]


def check_sweep_values(kind, values):
    """values as a list, each plus 0.0, or ValueError naming the first one
    outside the range of the sweep kind's setting.  Each sweep checks its
    values before it reads a frame.  Adding 0.0 turns -0.0 into 0.0, whose
    sign rng.uniform(-v, v) would otherwise read as high < low, and leaves
    every other value's bits as they are."""
    message, inside = {
        "scatter": ("s must be in [0, 1)", lambda v: 0.0 <= v < 1.0),
        "objectness": ("objectness threshold must be in [0, 1]",
                       lambda v: 0.0 <= v <= 1.0),
        "desync": ("desync translation bound must be finite and >= 0",
                   lambda v: 0.0 <= v < np.inf),
    }[kind]
    values = list(values)
    for v in values:
        # negated, so that NaN is rejected too
        if not inside(v):
            raise ValueError(f"{message}, got {v!r}")
    return [v + 0.0 for v in values]


def sweep_scatter(frames, monocular, s_values, config=PipelineConfig()):
    """Capture recall and seeds-per-GT of the scattered proposals, per s.

    Counts raw stage-(a) seeds, before any objectness filtering, so the
    seeds-per-GT column reflects the scatter arithmetic alone.  The poses
    do not depend on s, so each frame's are solved once (and each pose
    failure logged once), and all of its s values are scattered in one
    stacked solve; a ground truth is captured at s when a seed of s lies
    within the region radius, read from one ground-truth by seed distance
    table per frame.  No region is built and no point cloud is read, so a
    frame's cloud may be None.  frames may be any iterable; it is read
    once, and each row adds a frame's counts as the frame finishes.
    Returns (s, recall, proposals_per_gt) rows.
    """
    s_values = check_sweep_values("scatter", s_values)
    # ScatterParams requires s strictly inside (0, 1); the s = 0 sweep row
    # is realized as the limit, which collapses to the unscaled solution.
    scatters = [replace(config.scatter, s=min(max(s, 1e-9), 1.0 - 1e-9))
                for s in s_values]
    captured = np.zeros(len(scatters), dtype=int)
    seeds_total = np.zeros(len(scatters), dtype=int)
    gts = 0
    for frame in frames:
        poses = solve_poses(frame, monocular, config)
        seeds, counts, _, _ = spatial_scatter_frame(
            [est for _, _, est in poses], scatters, frame.calib.p2)
        counts = counts.sum(axis=1)
        gts += len(frame.labels)
        seeds_total += counts
        if len(seeds):
            # each s's seeds are a nonempty run of the table's columns
            starts = np.cumsum(counts) - counts
            captured += np.logical_or.reduceat(
                _within_radius(seeds, frame.labels, config.region.radius),
                starts, axis=1).sum(axis=0)
    return _capture_rows(s_values, captured, gts, seeds_total)


def _score(proposal, out):
    return objectness(out.t_obj), proposal[3].center


def _score_seed_regions(stage, proposals, outputs):
    """Stage-0 objectness of each seed region, with the region center, or
    the ValueError of a NaN objectness."""
    return [data_outcome(_score, proposal, out)
            for proposal, out in zip(proposals, outputs)]


def sweep_objectness(frames, predictors, thresholds, config=PipelineConfig()):
    """Capture recall and kept-proposals-per-GT after objectness filtering.

    The proposal head scores every seed region once, dropping proposals
    as detect_frame does; each threshold row then filters the same scored
    set, so the sweep is exactly nested.  Every row of a frame is counted
    in one pass: a ground truth is captured at threshold t when the best
    score among the regions within the radius of it is >= t, and the
    regions kept at t are counted over the sorted scores.  frames may be
    any iterable; it is read once, and each row adds a frame's counts as
    the frame finishes.  Returns (threshold, recall, proposals_per_gt)
    rows.
    """
    thresholds = check_sweep_values("objectness", thresholds)
    ts = np.array(thresholds, dtype=float)
    captured = np.zeros(len(ts), dtype=int)
    kept = np.zeros(len(ts), dtype=int)
    gts = 0
    for frame in frames:
        scored = run_proposals(frame, predictors, config, ("rpn",),
                               _score_seed_regions)
        scores = np.array([score for score, _ in scored], dtype=float)
        centers = np.array([center for _, center in scored],
                           dtype=float).reshape(-1, 3)
        within = _within_radius(centers, frame.labels, config.region.radius)
        best = np.where(within, scores, -np.inf).max(axis=1, initial=-np.inf)
        gts += len(frame.labels)
        captured += np.count_nonzero(best[:, None] >= ts, axis=0)
        kept += len(scores) - np.searchsorted(np.sort(scores), ts)
    return _capture_rows(thresholds, captured, gts, kept)


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
    read once, and each draw matches a frame as it finishes, keeping only
    its (confidence, is_tp) pairs and counts.
    """
    if metric not in DESYNC_METRICS:
        raise ValueError(f"metric must be one of {DESYNC_METRICS}")
    if n_seeds < 1:
        raise ValueError("n_seeds must be >= 1")
    if not 0.0 <= vertical_ratio < np.inf:  # negated, so that NaN fails too
        raise ValueError("vertical_ratio must be finite and >= 0, got "
                         f"{vertical_ratio!r}")
    magnitudes = check_sweep_values("desync", magnitudes)
    draws = [
        (DesyncConfig(max_xy=m, max_z_vertical=m * vertical_ratio,
                      rng_seed=derive_seed(seed, k)), _Tally(eval_cfg))
        for m in magnitudes for k in range(n_seeds)
    ]
    for frame in frames:
        for desync_cfg, tally in draws:
            shifted = desync_frame(frame, desync_cfg)
            dets = detect_frame(shifted, predictors, config)
            tally.add(dets, shifted.labels)
    key = "recall" if metric == "recall" else "ap"
    values = [tally.stats()[key] for _, tally in draws]
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
