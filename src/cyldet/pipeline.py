"""End-to-end detection orchestration over pluggable predictors.

Stages per frame: (a) a monocular predictor yields 2D boxes with dims and
heading, which the agreement search plus spatial scattering turns into 3D
seed points; (b) cylinder regions around the seeds are scored by a
proposal head (objectness plus a re-centering location); (c) a box head
regresses the full box, optionally re-centered and run twice; (d) each
detection is scored by the IoU between its source 2D box and the
projected 3D box, then bird's-eye-view NMS removes duplicates.

Predictors are callables: monocular(frame) -> [Mono2DDetection];
rpn(points, region, frame) -> RpnOutput; brn(points, region, frame) ->
BrnOutput.  Oracle implementations backed by ground truth (with optional
seeded noise) stand in for trained networks.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logit

from .codec import (
    BrnOutput,
    ProposalRegion,
    RotationBins,
    RpnOutput,
    SizeClusters,
    decode_location,
    decode_rotation,
    decode_size,
    encode_location,
    encode_rotation,
    encode_size,
    objectness,
)
from .geometry import Box2D, Box3D, iou_2d, iou_bev, project_box
from .kitti import PointCloud, WrongFrame, stable_id_hash
from .mono import (
    NoFeasibleConfiguration,
    ScatterParams,
    SingularSystem,
    geometric_agreement_search,
    spatial_scatter,
)

logger = logging.getLogger(__name__)

PREDICT_SAMPLE_COUNT = 512
PIPELINE_MODES = ("single_stage", "single_stage_twice", "rpn_brn_brn")

DEFAULT_SIZE_CLUSTERS = SizeClusters(
    np.array([[1.4, 1.5, 3.4], [1.5, 1.65, 3.9], [1.8, 1.9, 4.6]])
)
DEFAULT_ROTATION_BINS = RotationBins(12)


class EmptyCloud(ValueError):
    pass


def gather_cylinder(cloud, region):
    """Points inside a standing-cylinder region, re-expressed relative to
    the region center.  The cloud must be in the camera frame."""
    if cloud.frame != "camera":
        raise WrongFrame(f"expected camera frame, got {cloud.frame}")
    pts = cloud.points
    cx, cy, cz = region.center
    dx = pts[:, 0] - cx
    dz = pts[:, 2] - cz
    mask = (
        (dx * dx + dz * dz <= region.radius**2)
        & (pts[:, 1] >= region.y_extent[0])
        & (pts[:, 1] <= region.y_extent[1])
    )
    rel = pts[mask] - np.array([cx, cy, cz, 0.0])
    return PointCloud(rel, frame="camera")


def voxel_downsample(cloud, resolution=0.1):
    """One centroid per occupied voxel of the given edge length."""
    if resolution <= 0.0:
        raise ValueError("resolution must be positive")
    pts = cloud.points
    if len(pts) == 0:
        return cloud
    keys = np.floor(pts[:, :3] / resolution).astype(np.int64)
    _, inverse, counts = np.unique(
        keys, axis=0, return_inverse=True, return_counts=True
    )
    sums = np.zeros((len(counts), 4))
    np.add.at(sums, inverse, pts)
    return PointCloud(sums / counts[:, None], frame=cloud.frame)


def sample_points(cloud, n, seed):
    """Exactly n points: a permutation-free subset without replacement when
    the cloud is large enough, otherwise every point plus seeded top-up
    draws with replacement."""
    if n <= 0:
        raise ValueError("n must be positive")
    if len(cloud) == 0:
        raise EmptyCloud("cannot sample from an empty cloud")
    rng = np.random.default_rng(seed)
    pts = cloud.points
    if len(pts) >= n:
        idx = rng.choice(len(pts), size=n, replace=False)
    else:
        extra = rng.choice(len(pts), size=n - len(pts), replace=True)
        idx = np.concatenate([np.arange(len(pts)), extra])
    return PointCloud(pts[idx], frame=cloud.frame)


def derive_seed(*parts):
    """Deterministic child seed from integer parts."""
    return int(np.random.SeedSequence([int(p) & 0xFFFFFFFF for p in parts])
               .generate_state(1)[0])


@dataclass(frozen=True)
class Mono2DDetection:
    """One monocular detection: 2D box plus regressed dims (W, H, L),
    heading, and class score."""

    box2d: Box2D
    dims: tuple
    yaw: float
    score: float = 1.0

    def __post_init__(self):
        dims = tuple(float(v) for v in self.dims)
        if min(dims) <= 0.0:
            raise ValueError("dims must be strictly positive")
        object.__setattr__(self, "dims", dims)


@dataclass(frozen=True)
class OracleConfig:
    """Gaussian noise levels for the ground-truth-backed predictors."""

    dims_noise_sigma: float = 0.0      # relative, multiplies each dim
    yaw_noise_sigma: float = 0.0       # radians
    center_noise_sigma: float = 0.0    # meters, point-head location targets
    box2d_noise_sigma: float = 0.0     # pixels
    rng_seed: int = 0

    def __post_init__(self):
        for name in ("dims_noise_sigma", "yaw_noise_sigma",
                     "center_noise_sigma", "box2d_noise_sigma"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")


def _label_rng(cfg, frame_id, label_idx, stream):
    return np.random.default_rng(
        np.random.SeedSequence(
            [cfg.rng_seed & 0xFFFFFFFF, stable_id_hash(frame_id), label_idx, stream]
        )
    )


class OracleMonocularPredictor:
    """Emits each ground-truth car's 2D box, dims, and heading with
    configurable seeded noise; the noise draw is a pure function of
    (seed, frame id, label index), so reruns are reproducible."""

    def __init__(self, cfg=OracleConfig()):
        self.cfg = cfg

    def __call__(self, frame):
        out = []
        for idx, lab in enumerate(frame.labels):
            rng = _label_rng(self.cfg, frame.frame_id, idx, stream=1)
            dims, yaw = _noised_dims_yaw(self.cfg, lab.box3d, rng)
            b = lab.bbox2d
            coords = np.array([b.xmin, b.ymin, b.xmax, b.ymax])
            coords += self.cfg.box2d_noise_sigma * rng.standard_normal(4)
            xmin, xmax = sorted((coords[0], coords[2]))
            ymin, ymax = sorted((coords[1], coords[3]))
            if xmax - xmin < 1.0:
                xmin, xmax = xmin - 0.5, xmin + 0.5
            if ymax - ymin < 1.0:
                ymin, ymax = ymin - 0.5, ymin + 0.5
            out.append(
                Mono2DDetection(
                    box2d=Box2D(xmin, ymin, xmax, ymax),
                    dims=tuple(dims),
                    yaw=yaw,
                    score=1.0,
                )
            )
        return out


def _noised_dims_yaw(cfg, box3d, rng):
    """Dims (W, H, L) with relative noise, floored at a fifth of the true
    dims, and yaw with absolute noise; draws three normals, then one."""
    dims = np.array(box3d.dims)
    noised = dims * (1.0 + cfg.dims_noise_sigma * rng.standard_normal(3))
    yaw = box3d.yaw + cfg.yaw_noise_sigma * rng.standard_normal()
    return np.maximum(noised, 0.2 * dims), yaw


def _noised_truth(cfg, frame, idx):
    """Noised copy of label idx's box, shared by both point-head oracles."""
    lab = frame.labels[idx]
    rng = _label_rng(cfg, frame.frame_id, idx, stream=2)
    center = np.asarray(lab.box3d.center) + (
        cfg.center_noise_sigma * rng.standard_normal(3)
    )
    dims, yaw = _noised_dims_yaw(cfg, lab.box3d, rng)
    return center, dims, yaw


def _nearest_label(frame, region):
    if not frame.labels:
        return None, None
    centers = np.array([lab.box3d.center for lab in frame.labels])
    d = np.linalg.norm(centers - np.asarray(region.center), axis=1)
    idx = int(np.argmin(d))
    return idx, centers[idx]


def _graded_objectness(ground_dist, radius):
    """Proximity-graded objectness probability in (0, 1), driven by the
    ground-plane distance between the region center and the true center.

    Near 1 when the object is centered, ~0.33 at half the stride-induced
    worst case (0.4 radius), crossing 0.25 just above it, near 0 a radius
    away; this stands in for a point network's falloff as the object
    drifts off the region's receptive center."""
    return 0.98 * math.exp(-7.0 * (ground_dist / radius) ** 2) + 0.01


def _within_bounds(center, region):
    """Whether center lies strictly inside the region's location bounds."""
    off = (np.asarray(center) - np.asarray(region.center)) / np.asarray(region.bounds)
    return np.abs(off).max() < 1.0


def _clamped_encode(center, region):
    off = np.asarray(center) - np.asarray(region.center)
    m = np.asarray(region.bounds)
    off = np.clip(off, -(1.0 - 1e-9) * m, (1.0 - 1e-9) * m)
    return encode_location(np.asarray(region.center) + off, region)


class OracleRpnPredictor:
    """Proposal-head oracle: location encoding of the (noised) nearest
    ground truth when it lies within the region bounds, with objectness
    graded by the true center's normalized offset."""

    def __init__(self, cfg=OracleConfig()):
        self.cfg = cfg

    def __call__(self, points, region, frame):
        idx, true_center = _nearest_label(frame, region)
        if idx is None:
            return RpnOutput(t_loc=(0.0, 0.0, 0.0), t_obj=float(logit(0.01)))
        ground_dist = math.hypot(
            true_center[0] - region.center[0], true_center[2] - region.center[2]
        )
        prob = _graded_objectness(ground_dist, region.radius)
        t_obj = float(logit(prob))
        if not _within_bounds(true_center, region):
            return RpnOutput(t_loc=(0.0, 0.0, 0.0), t_obj=t_obj)
        center, _, _ = _noised_truth(self.cfg, frame, idx)
        return RpnOutput(t_loc=tuple(_clamped_encode(center, region)), t_obj=t_obj)


class OracleBrnPredictor:
    """Box-head oracle: encodings of the (noised) nearest ground truth via
    the location, rotation-bin, and size-cluster codecs."""

    def __init__(self, cfg=OracleConfig(), clusters=DEFAULT_SIZE_CLUSTERS,
                 bins=DEFAULT_ROTATION_BINS):
        self.cfg = cfg
        self.clusters = clusters
        self.bins = bins

    def __call__(self, points, region, frame):
        zeros = BrnOutput(
            t_loc=(0.0, 0.0, 0.0),
            rot_logits=np.zeros(self.bins.n_bins),
            rot_residuals=np.zeros(self.bins.n_bins),
            size_logits=np.zeros(self.clusters.n_clusters),
            size_residuals=np.zeros((self.clusters.n_clusters, 3)),
        )
        idx, true_center = _nearest_label(frame, region)
        if idx is None or not _within_bounds(true_center, region):
            return zeros
        center, dims_whl, yaw = _noised_truth(self.cfg, frame, idx)
        w, h, length = dims_whl
        rot_logits, rot_residuals = encode_rotation(yaw, self.bins)
        size_logits, size_residuals = encode_size((h, w, length), self.clusters)
        return BrnOutput(
            t_loc=tuple(_clamped_encode(center, region)),
            rot_logits=rot_logits,
            rot_residuals=rot_residuals,
            size_logits=size_logits,
            size_residuals=size_residuals,
        )


@dataclass(frozen=True)
class Predictors:
    monocular: object
    rpn: object
    brn: object


def oracle_predictors(cfg=OracleConfig(), clusters=DEFAULT_SIZE_CLUSTERS,
                      bins=DEFAULT_ROTATION_BINS):
    """Bundle of the three ground-truth-backed predictors."""
    return Predictors(
        monocular=OracleMonocularPredictor(cfg),
        rpn=OracleRpnPredictor(cfg),
        brn=OracleBrnPredictor(cfg, clusters, bins),
    )


@dataclass(frozen=True)
class Detection:
    """Final detection: 3D box, its source 2D box, proposal objectness,
    and the 2D/projected-3D agreement used as confidence."""

    box3d: Box3D
    box2d_source: Box2D
    objectness: float
    confidence: float
    provenance: tuple = ()


@dataclass(frozen=True)
class PipelineConfig:
    scatter: ScatterParams = ScatterParams()
    mode: str = "rpn_brn_brn"
    objectness_threshold: float = 0.25
    nms_threshold: float = 0.05
    region_radius: float = 2.0
    region_y_extent: tuple = (-1.0, 3.0)
    region_bounds: tuple = (2.0, 2.0, 2.0)
    voxel_resolution: float = 0.1
    sample_count: int = PREDICT_SAMPLE_COUNT
    residual_cap: float = 10.0
    reduced_configs: bool = False
    clusters: SizeClusters = DEFAULT_SIZE_CLUSTERS
    bins: RotationBins = DEFAULT_ROTATION_BINS
    seed: int = 0

    def __post_init__(self):
        if self.mode not in PIPELINE_MODES:
            raise ValueError(f"mode must be one of {PIPELINE_MODES}")


def decode_box(brn_out, region, clusters, bins):
    """Box3D from a box-head output relative to its region."""
    center = decode_location(brn_out.t_loc, region)
    yaw = decode_rotation(brn_out.rot_logits, brn_out.rot_residuals, bins)
    h, w, length = decode_size(brn_out.size_logits, brn_out.size_residuals, clusters)
    return Box3D(tuple(center), (w, h, length), yaw)


def region_points(frame, region, config, sample_seed):
    """The point-head input for one region: gather, voxel-downsample, then
    sample config.sample_count points.  Raises EmptyCloud when the region
    holds no point."""
    gathered = gather_cylinder(frame.cloud, region)
    if len(gathered) == 0:
        raise EmptyCloud("no points inside the proposal region")
    downsampled = voxel_downsample(gathered, config.voxel_resolution)
    return sample_points(downsampled, config.sample_count, sample_seed)


def seed_proposals(frame, monocular, config=PipelineConfig()):
    """Stage (a): monocular detections -> agreement search -> scattered
    cylinder regions.  Returns (obj_idx, seed_idx, det2d, region) tuples;
    objects whose pose cannot be solved are logged and skipped."""
    p = frame.calib.p2
    proposals = []
    for obj_idx, det2d in enumerate(monocular(frame)):
        try:
            est = geometric_agreement_search(
                det2d.box2d, det2d.dims, det2d.yaw, p,
                residual_cap=config.residual_cap,
                reduced=config.reduced_configs,
            )
            scatter = spatial_scatter(est, config.scatter, p)
        except (NoFeasibleConfiguration, SingularSystem) as exc:
            logger.warning("frame %s object %d: %s", frame.frame_id, obj_idx, exc)
            continue
        for seed_idx, seed in enumerate(scatter.seed_points):
            region = ProposalRegion(
                (seed[0], est.solved_center[1], seed[2]),
                radius=config.region_radius,
                y_extent=config.region_y_extent,
                bounds=config.region_bounds,
            )
            proposals.append((obj_idx, seed_idx, det2d, region))
    return proposals


def detect_frame(frame, predictors, config=PipelineConfig()):
    """Run the staged pipeline on one frame and return NMS-kept detections.

    A proposal that raises a data error (any ValueError: EmptyCloud for an
    empty region, BehindCamera, OutOfBounds, NonPositiveDims,
    SingularSystem, WrongFrame, or an invalid box) is logged and dropped;
    it never aborts the frame.  Any other exception is a programming error
    and propagates.
    """
    frame_hash = stable_id_hash(frame.frame_id)
    proposals = seed_proposals(frame, predictors.monocular, config)

    detections = []
    for obj_idx, seed_idx, det2d, region in proposals:
        try:
            det = _run_proposal(
                frame, predictors, config, region,
                (frame_hash, obj_idx, seed_idx), det2d,
            )
        except ValueError as exc:
            logger.warning(
                "frame %s proposal obj%d.seed%d dropped: %s: %s",
                frame.frame_id, obj_idx, seed_idx, type(exc).__name__, exc,
            )
            continue
        if det is not None:
            detections.append(det)

    return nms_bev(detections, config.nms_threshold)


def _run_proposal(frame, predictors, config, region, ids, det2d):
    frame_hash, obj_idx, seed_idx = ids

    def staged_points(reg, stage):
        return region_points(
            frame, reg, config,
            derive_seed(config.seed, frame_hash, obj_idx, seed_idx, stage),
        )

    def rpn_score(reg, stage):
        out = predictors.rpn(staged_points(reg, stage), reg, frame)
        return objectness(out.t_obj), decode_location(out.t_loc, reg)

    def brn_box(reg, stage):
        out = predictors.brn(staged_points(reg, stage), reg, frame)
        return decode_box(out, reg, config.clusters, config.bins)

    if config.mode == "rpn_brn_brn":
        score, center = rpn_score(region, 0)
        if score < config.objectness_threshold:
            return None
        region1 = region.recentered(center)
        box1 = brn_box(region1, 1)
        region2 = region1.recentered(box1.center)
        final = brn_box(region2, 2)
    elif config.mode == "single_stage":
        score, _ = rpn_score(region, 0)
        if score < config.objectness_threshold:
            return None
        final = brn_box(region, 1)
    else:  # single_stage_twice
        score, _ = rpn_score(region, 0)
        if score < config.objectness_threshold:
            return None
        box1 = brn_box(region, 1)
        region1 = region.recentered(box1.center)
        score, _ = rpn_score(region1, 2)
        if score < config.objectness_threshold:
            return None
        final = brn_box(region1, 3)

    confidence = iou_2d(det2d.box2d, project_box(final, frame.calib.p2))
    return Detection(
        box3d=final,
        box2d_source=det2d.box2d,
        objectness=float(score),
        confidence=float(confidence),
        provenance=(f"obj{obj_idx}.seed{seed_idx}",),
    )


def nms_bev(detections, threshold):
    """Greedy bird's-eye-view NMS: walk detections by descending
    confidence (ties keep insertion order) and suppress any detection
    whose footprint IoU with an already kept one exceeds the threshold."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must be in [0, 1]")
    order = sorted(range(len(detections)), key=lambda i: (-detections[i].confidence, i))
    kept = []
    kept_idx = []
    for i in order:
        cand = detections[i]
        if any(iou_bev(cand.box3d, detections[j].box3d) > threshold
               for j in kept_idx):
            continue
        kept_idx.append(i)
        kept.append(cand)
    return kept


def format_detection(frame_id, det, class_name="Car"):
    """One text line: frame id, class, 2D box, KITTI-ordered 3D box fields
    (h w l, bottom-face-center location, yaw), objectness, confidence."""
    b = det.box2d_source
    w, h, length = det.box3d.dims
    x, y, z = det.box3d.center
    values = [b.xmin, b.ymin, b.xmax, b.ymax,
              h, w, length, x, y + h / 2.0, z, det.box3d.yaw,
              det.objectness, det.confidence]
    return " ".join([str(frame_id), class_name] + [f"{v:.9f}" for v in values])


def write_detections(path, frame_id, detections, class_name="Car"):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for det in detections:
            fh.write(format_detection(frame_id, det, class_name) + "\n")


def parse_detection_line(line):
    """Inverse of format_detection; returns (frame_id, class, Detection)."""
    fields = line.split()
    if len(fields) != 15:
        raise ValueError(f"expected 15 fields, got {len(fields)}")
    frame_id, class_name = fields[0], fields[1]
    nums = [float(t) for t in fields[2:]]
    box2d = Box2D(*nums[0:4])
    h, w, length = nums[4:7]
    x, y_bottom, z = nums[7:10]
    yaw = nums[10]
    det = Detection(
        box3d=Box3D((x, y_bottom - h / 2.0, z), (w, h, length), yaw),
        box2d_source=box2d,
        objectness=nums[11],
        confidence=nums[12],
    )
    return frame_id, class_name, det


def read_detections(path):
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                out.append(parse_detection_line(line))
    return out
