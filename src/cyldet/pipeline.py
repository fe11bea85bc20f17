"""End-to-end detection orchestration over pluggable predictors.

Stages per frame: (a) a monocular predictor yields 2D boxes with dims and
heading; solve_poses searches them all in one agreement_search_frame call
(one stack of constraint systems per frame) and logs the failures in
object order, and scatter_proposals turns every solved pose into 3D seed
points and their cylinder regions in one spatial_scatter_frame call (the
scatter sweep makes the same call once per frame with every s, and builds
no region); (b) cylinder regions around the seeds are scored by a proposal
head (objectness plus a re-centering location); (c) a box head regresses
the full box, in a head sequence set by the mode (MODE_STAGES):
  single_stage        rpn, then brn on the same region;
  single_stage_twice  rpn, brn, then rpn and brn again on the region
                      re-centered at the first box;
  rpn_brn_brn         rpn, brn on the region re-centered at the rpn
                      location, then brn re-centered at that box;
(d) each detection is scored by the IoU between its source 2D box and the
projected 3D box, then bird's-eye-view NMS removes duplicates.

Predictors are callables: monocular(frame) -> [Mono2DDetection];
rpn(points, region, frame) -> RpnOutput; brn(points, region, frame) ->
BrnOutput, where points() returns the region's prepared PointCloud
(gather, voxel, sample), so a head that never calls it costs no point
work.  run_proposals runs the stages of (b) and (c) stage-major, for
detect_frame and the objectness sweep alike: each stage runs over every
region of the frame that the stage before kept, drops an empty one with
EmptyCloud, from one occupancy query, before its head runs, calls the
head once per region, then hands the whole stage to one step call, which
returns one outcome per proposal; dropped proposals are logged at the
frame's end in (object, seed) order.  detect_frame's step decodes the
rotations and sizes of a box-head stage as one stack (decode_boxes) and
projects the last stage's boxes as one stack (geometry.project_boxes),
each box bit for bit as it would come alone; objectness and locations
stay scalar math.  A proposal's location is a tuple of plain floats from
the scatter to the last box head: the gate and decode_boxes decode it
with codec.decode_location_floats, and no numpy 3-vector is built per
region.  A box head's logits that hold a NaN drop its proposal with
NanLogits.  Every region of a run is PipelineConfig.region
recentered; each frame has one RegionIndex, built from that shape, which
picks its own cells and rejects a cloud not in the camera frame with
WrongFrame.  The index counts the points per cell when built, and sorts
them only for the first members query: a head that reads points, or a
center its counts cannot settle.
At every predictor boundary a ValueError is data, an infeasible pose
included, and its object or proposal is dropped and logged; a TypeError
is wiring (an output of the wrong type or shape), and propagates.
Oracles backed by ground truth (with optional seeded noise) stand in for
trained networks: oracle_predictors bundles the three methods of one
object, whose point heads read no points and share a table of the last
frame's labels in plain floats, filled when a frame first reaches them:
each label's noise is drawn, and its box encoded, once per frame.  They
encode a location in plain floats (codec.encode_location_floats), and
the box head answers a region with no label in its bounds with its
bundle's one set of read-only zero codes.
"""

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .codec import (
    BrnOutput,
    ProposalRegion,
    RotationBins,
    RpnOutput,
    SizeClusters,
    decode_location_floats,
    decode_rotations,
    decode_sizes,
    encode_location_floats,
    encode_rotation,
    encode_size,
    logit,
    objectness,
    rotation_codes,
    size_codes,
)
from .geometry import (Box2D, Box3D, data_outcome, iou_2d, iou_bev,
                       project_boxes)
# the step decodes and projects a stage at once, and locations stay plain
# floats; perfbench/layers.py patches these one-item and numpy names on
# this module
from .codec import decode_location, encode_location  # noqa: F401
from .codec import decode_rotation, decode_size  # noqa: F401
from .geometry import project_box  # noqa: F401
from .kitti import PointCloud, WrongFrame, stable_id_hash
from .kitti import box_from_fields, box_to_fields, parse_file, parse_lines
from .mono import (
    DEFAULT_RESIDUAL_CAP,
    ScatterParams,
    agreement_search_frame,
    check_residual_cap,
    spatial_scatter_frame,
)
# seeding calls the frame functions above; perfbench/layers.py patches
# these one-object names on this module
from .mono import geometric_agreement_search, spatial_scatter  # noqa: F401

logger = logging.getLogger(__name__)

PREDICT_SAMPLE_COUNT = 512
# (head, recenter) per stage of each mode, as listed for stage (c) above;
# recenter moves the region onto this stage's output for the next stage.
MODE_STAGES = {
    "single_stage": (("rpn", False), ("brn", False)),
    "single_stage_twice": (("rpn", False), ("brn", True),
                           ("rpn", False), ("brn", False)),
    "rpn_brn_brn": (("rpn", True), ("brn", True), ("brn", False)),
}
PIPELINE_MODES = tuple(MODE_STAGES)

DEFAULT_SIZE_CLUSTERS = SizeClusters(
    np.array([[1.4, 1.5, 3.4], [1.5, 1.65, 3.9], [1.8, 1.9, 4.6]])
)
DEFAULT_ROTATION_BINS = RotationBins(12)


class EmptyCloud(ValueError):
    pass


# grid cells are numbered within +-_CELL_LIMIT, so that cell keys fit in
# int64 however far a point or region lies; the points of an edge cell are
# still tested exactly.  Such a far point can stretch the grid to about
# 2**61 cells, so the per-cell table of counts is built only for a grid of
# at most max(2**16, 4 * band points) cells; a larger grid sorts its keys
# at build instead and counts them with searchsorted
_CELL_LIMIT = 2**30


class RegionIndex:
    """Cylinder membership over one camera-frame cloud for one region shape,
    whose regions differ only by center (recentered keeps the rest); a
    cloud not in the camera frame raises WrongFrame.

    At construction, each point inside the shape's band y_extent
    (inclusive) gets the x-major key of its cell in a square x-z grid of
    cells radius / 3 wide, and the index counts the points per cell:
    starts[k], a prefix sum of np.bincount(keys), is the number of band
    points with a key below k, the integer np.searchsorted(sorted keys, k)
    gives.  That sorts nothing, and copies no point when the band holds
    them all.  occupied() answers many centers at once: the table counts
    the points of the 3x3 block of cells around each center's cell, which
    lies inside the circle, and it calls members() only for a center whose
    block is empty or clipped.  The first members() call sorts the band's
    points by key, with numpy's stable sort on the narrowest unsigned type
    that holds the keys (a radix sort up to 2**16 cells).  members() reads
    the cells its circle can reach, widened by a few ulps against rounding,
    as one slice of the sorted arrays per x column, and tests those points
    with dx*dx + dz*dz <= r**2, exactly for any cell width.  A grid too
    large for the table (see _CELL_LIMIT) is sorted at construction and
    counted with searchsorted.
    """

    def __init__(self, cloud, shape):
        if cloud.frame != "camera":
            raise WrongFrame(f"expected camera frame, got {cloud.frame}")
        self.cloud = cloud
        self.radius = shape.radius
        # cells of a third of the radius, so that occupied() settles most
        # centers from the 3x3 block of cells around them
        self.cell = shape.radius / 3
        pts = cloud.points
        y0, y1 = shape.y_extent
        band = np.flatnonzero((pts[:, 1] >= y0) & (pts[:, 1] <= y1))
        xz = pts[:, ::2].T  # rows x and z
        if len(band) < len(pts):
            xz = np.take(xz, band, axis=1)
        # a far point's division may overflow to +-inf, which the clip
        # takes in
        with np.errstate(over="ignore"):
            cells = [np.clip(np.floor(v / self.cell), -_CELL_LIMIT,
                             _CELL_LIMIT).astype(np.int64) for v in xz]
        self._lo, self._shape = [0, 0], [0, 0]
        if len(band):
            self._lo = [int(c.min()) for c in cells]
            self._shape = [int(c.max()) - lo + 1
                           for c, lo in zip(cells, self._lo)]
        # x-major cell keys, so one x column of cells is one key range
        self._keys = (cells[0] - self._lo[0]) * self._shape[1] + (
            cells[1] - self._lo[1])
        self._members, self._xz = band, xz
        self._sorted = False
        self._starts = None
        grid = self._shape[0] * self._shape[1]
        if grid > max(2**16, 4 * len(band)):
            self._sort()
        else:
            self._starts = np.zeros(grid + 1, np.int64)
            np.cumsum(np.bincount(self._keys, minlength=grid),
                      out=self._starts[1:])

    def _sort(self):
        # any order within a cell will do, as members() sorts its result;
        # numpy's stable sort is a linear-time radix sort on integers of 16
        # bits or less, which hold the keys of any grid up to 2**16 cells
        narrow = np.min_scalar_type(self._keys.max(initial=0))
        order = np.argsort(self._keys.astype(narrow), kind="stable")
        self._keys = self._keys[order]
        self._members = self._members[order]
        self._xz = np.take(self._xz, order, axis=1)
        self._sorted = True

    def _count(self, keys):
        # the number of band points whose key is below each of keys
        if self._starts is None:
            return np.searchsorted(self._keys, keys)
        return self._starts[np.clip(keys, 0, len(self._starts) - 1)]

    def _clamp(self, axis, lo, hi):
        # grid-relative cells lo..hi of axis, cut to the grid
        return (max(lo - self._lo[axis], 0),
                min(hi - self._lo[axis], self._shape[axis] - 1))

    def _cell_range(self, axis, center):
        # widened by 2**-48 of the cell numbers, many times the rounding
        # error of a point's offset: no point outside the widened cells
        # rounds onto the circle
        lo, hi = (min(max(v / self.cell, -_CELL_LIMIT), _CELL_LIMIT)
                  for v in (center - self.radius, center + self.radius))
        pad = (abs(lo) + abs(hi)) * 2**-48
        return self._clamp(axis, math.floor(lo - pad), math.floor(hi + pad))

    def _runs(self, x0, x1, z0, z1):
        # (start, stop) of the z-run [z0, z1] of each x column x0..x1 in the
        # sorted arrays, interleaved
        width = self._shape[1]
        return self._count([
            column * width + z for column in range(x0, x1 + 1)
            for z in (z0, z1 + 1)])

    def members(self, center):
        """Cloud-order indices of the points inside the region centered at
        center, an (x, y, z) of floats."""
        cx, _, cz = center
        x0, x1 = self._cell_range(0, cx)
        z0, z1 = self._cell_range(1, cz)
        if x0 > x1 or z0 > z1:
            return np.zeros(0, np.int64)
        if not self._sorted:
            self._sort()
        bounds = self._runs(x0, x1, z0, z1).tolist()
        runs = [slice(a, b) for a, b in zip(bounds[::2], bounds[1::2])]
        dx, dz = np.concatenate([self._xz[:, s] for s in runs], axis=1)
        dx -= cx
        dz -= cz
        # a far point's square may overflow to inf, which is outside
        with np.errstate(over="ignore"):
            inside = dx * dx + dz * dz <= self.radius**2
        members = np.concatenate([self._members[s] for s in runs])
        return np.sort(members[inside])

    def occupied(self, centers):
        """Whether len(members(center)) > 0 for each of centers, an (R, 3)
        array or sequence, as a bool array."""
        centers = np.asarray(centers, dtype=float).reshape(-1, 3)
        # a point of the 3x3 block of cells around the center's cell lies
        # less than 2*sqrt(2) < 2.83 cells from the center, however the
        # divisions round (cell numbers below 2**30 keep that error under
        # 1e-6 cells), so with cells of r / 3 it passes members()' test;
        # the block must hold no clipped cell, where far points lie (a
        # center that overflows the division to +-inf is clipped too)
        with np.errstate(over="ignore"):
            cells = centers[:, ::2] / self.cell
        cells = np.floor(np.clip(cells, -_CELL_LIMIT,
                                 _CELL_LIMIT)).astype(np.int64)
        settled = np.abs(cells).max(axis=1) < _CELL_LIMIT - 1
        # the block's z-run [z0, z1] in each of its three x columns, cut to
        # the grid's rows; a run outside the grid, in a column or a row
        # beyond its edge, has no key range with start < stop
        block = cells - self._lo
        z0 = np.maximum(block[:, 1] - 1, 0)
        z1 = np.minimum(block[:, 1] + 1, self._shape[1] - 1)
        keys = ((block[:, :1] + [-1, 0, 1])[:, :, None] * self._shape[1]
                + np.stack((z0, z1 + 1), axis=1)[:, None, :])
        bounds = self._count(keys)
        occupied = settled & (bounds[:, :, 1] > bounds[:, :, 0]).any(axis=1)
        # an empty or clipped block falls back to the members query
        for i in np.flatnonzero(~occupied):
            occupied[i] = len(self.members(centers[i].tolist())) > 0
        return occupied

    def points(self, members, center):
        """The member points re-expressed relative to center."""
        rel = self.cloud.points[members] - np.array([*center, 0.0])
        return PointCloud(rel, frame="camera")


def gather_cylinder(cloud, region):
    """Points inside a standing-cylinder region, re-expressed relative to
    the region center.  The cloud must be in the camera frame."""
    index = RegionIndex(cloud, region)
    return index.points(index.members(region.center), region.center)


def voxel_downsample(cloud, resolution):
    """One centroid per occupied voxel of the given edge length."""
    if not 0.0 < resolution < math.inf:  # NaN fails too
        raise ValueError("resolution must be finite and positive")
    pts = cloud.points
    if len(pts) == 0:
        return cloud
    keys = np.floor(pts[:, :3] / resolution).astype(np.int64)
    voxels, inverse, counts = np.unique(
        keys, axis=0, return_inverse=True, return_counts=True
    )
    sums = np.zeros((len(counts), 4))
    np.add.at(sums, inverse, pts)
    centroids = sums / counts[:, None]
    # rounding can carry the mean of points on a voxel face across it; the
    # range of the voxel's own points holds it inside
    outside = np.floor(centroids[:, :3] / resolution) != voxels
    for v, axis in zip(*np.nonzero(outside)):
        coords = pts[inverse == v, axis]
        centroids[v, axis] = np.clip(centroids[v, axis], coords.min(),
                                     coords.max())
    return PointCloud(centroids, frame=cloud.frame)


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
    """One monocular detection: 2D box plus regressed dims (W, H, L) and
    heading."""

    box2d: Box2D
    dims: tuple
    yaw: float

    def __post_init__(self):
        dims, yaw = _monocular_fields(self)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "yaw", yaw)


def _monocular_fields(det2d):
    """The dims of a monocular output as three floats, and its yaw as a
    float.  A box that is not a Box2D, dims that are not three numbers or
    a yaw that is not one are a wiring bug and raise TypeError; the pose
    search checks their values, failing this object alone."""
    try:
        dims = tuple(float(v) for v in det2d.dims)
        yaw = float(det2d.yaw)
    except ValueError as exc:
        raise TypeError(f"dims and yaw must be numbers: {exc}") from None
    if not isinstance(det2d.box2d, Box2D) or len(dims) != 3:
        raise TypeError("want a Box2D and 3 dims (W, H, L), got "
                        f"{type(det2d.box2d).__name__} and {dims}")
    return dims, yaw


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
            if not 0.0 <= getattr(self, name) < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be finite and >= 0")


def _label_rng(cfg, frame_id, label_idx, stream):
    return np.random.default_rng(
        np.random.SeedSequence(
            [cfg.rng_seed & 0xFFFFFFFF, stable_id_hash(frame_id), label_idx, stream]
        )
    )


def _noised_dims_yaw(cfg, box3d, rng):
    """Dims (W, H, L) with relative noise, floored at a fifth of the true
    dims, and yaw with absolute noise; draws three normals, then one."""
    dims = np.array(box3d.dims)
    noised = dims * (1.0 + cfg.dims_noise_sigma * rng.standard_normal(3))
    yaw = box3d.yaw + cfg.yaw_noise_sigma * rng.standard_normal()
    return np.maximum(noised, 0.2 * dims), yaw


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
    x, y, z = center
    (rx, ry, rz), (mx, my, mz) = region.center, region.bounds
    return (abs((x - rx) / mx) < 1.0 and abs((y - ry) / my) < 1.0
            and abs((z - rz) / mz) < 1.0)


def _clamped_encode(center, region):
    """encode_location_floats of center moved, on each axis, to within
    (1 - 1e-9) of the region's bound; the move rounds, so far from the
    origin it can land on the bound, which OutOfBounds rejects."""
    x, y, z = center
    (rx, ry, rz), (mx, my, mz) = region.center, region.bounds
    lx, ly, lz = (1.0 - 1e-9) * mx, (1.0 - 1e-9) * my, (1.0 - 1e-9) * mz
    return encode_location_floats((rx + min(max(x - rx, -lx), lx),
                                   ry + min(max(y - ry, -ly), ly),
                                   rz + min(max(z - rz, -lz), lz)), region)


def _read_only(*arrays):
    """arrays, each made read-only, as a tuple."""
    for array in arrays:
        array.flags.writeable = False
    return arrays


class _Oracles:
    """The ground-truth-backed predictors of one bundle, as the methods
    monocular, rpn and brn.  The point heads read no points; they share a
    table of the last frame's labels in plain floats, filled when a frame
    first reaches them: each label's center, noised box and box-head codes
    under the bundle's size clusters and rotation bins.  The table keeps
    the frame's id and labels, not the frame, so it holds no point cloud;
    holding the labels also keeps their identity unique.  The box head
    answers a region with no label inside its bounds with the bundle's
    one set of read-only zero codes."""

    def __init__(self, cfg, clusters, bins):
        self.cfg = cfg
        self.clusters = clusters
        self.bins = bins
        self.frame_id = self.labels = None
        self.zero_codes = _read_only(
            np.zeros(bins.n_bins), np.zeros(bins.n_bins),
            np.zeros(clusters.n_clusters), np.zeros((clusters.n_clusters, 3)))

    def monocular(self, frame):
        """Each ground-truth car's 2D box, dims and heading with seeded
        noise, a pure function of (seed, frame id, label index)."""
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
            out.append(Mono2DDetection(Box2D(xmin, ymin, xmax, ymax),
                                       tuple(dims), yaw))
        return out

    def nearest(self, frame, region):
        """Index of the label of frame nearest the region center, the first
        of equally near ones, or None for a frame without labels, after
        filling the table unless it holds frame's labels.  The distances
        round as np.linalg.norm's rows do."""
        if self.frame_id != frame.frame_id or self.labels is not frame.labels:
            self.frame_id, self.labels = frame.frame_id, frame.labels
            self.centers, self.noised, self.codes = [], [], []
            sigma = self.cfg.center_noise_sigma
            for idx, lab in enumerate(frame.labels):
                box = lab.box3d
                rng = _label_rng(self.cfg, frame.frame_id, idx, stream=2)
                self.centers.append(box.center)
                self.noised.append(tuple(
                    c + sigma * n for c, n in
                    zip(box.center, rng.standard_normal(3).tolist())))
                (w, h, length), yaw = _noised_dims_yaw(self.cfg, box, rng)
                self.codes.append(_read_only(
                    *encode_rotation(yaw, self.bins),
                    *encode_size((h, w, length), self.clusters)))
        best, best_d = None, math.inf
        rx, ry, rz = region.center
        for idx, (x, y, z) in enumerate(self.centers):
            dx, dy, dz = x - rx, y - ry, z - rz
            d = math.sqrt((dx * dx + dy * dy) + dz * dz)
            if best is None or d < best_d:
                best, best_d = idx, d
        return best

    def rpn(self, points, region, frame):
        """Proposal head: the location encoding of the nearest label's
        noised center when its true center lies within the region bounds,
        with objectness graded by the true center's ground distance."""
        idx = self.nearest(frame, region)
        if idx is None:
            return RpnOutput(t_loc=(0.0, 0.0, 0.0), t_obj=logit(0.01))
        true_center = self.centers[idx]
        (x, _, z), (rx, _, rz) = true_center, region.center
        t_obj = logit(_graded_objectness(math.hypot(x - rx, z - rz),
                                         region.radius))
        if not _within_bounds(true_center, region):
            return RpnOutput(t_loc=(0.0, 0.0, 0.0), t_obj=t_obj)
        return RpnOutput(t_loc=_clamped_encode(self.noised[idx], region),
                         t_obj=t_obj)

    def brn(self, points, region, frame):
        """Box head: the nearest label's noised center and its read-only
        rotation and size codes, when its true center lies within the
        region bounds; zero codes otherwise."""
        idx = self.nearest(frame, region)
        if idx is None or not _within_bounds(self.centers[idx], region):
            t_loc, codes = (0.0, 0.0, 0.0), self.zero_codes
        else:
            t_loc = _clamped_encode(self.noised[idx], region)
            codes = self.codes[idx]
        return BrnOutput(t_loc, *codes)


@dataclass(frozen=True)
class Predictors:
    monocular: object
    rpn: object
    brn: object


def oracle_predictors(cfg=OracleConfig(), clusters=DEFAULT_SIZE_CLUSTERS,
                      bins=DEFAULT_ROTATION_BINS):
    """Bundle of the three ground-truth-backed predictors, the methods of
    one _Oracles, whose point heads share its label table."""
    o = _Oracles(cfg, clusters, bins)
    return Predictors(monocular=o.monocular, rpn=o.rpn, brn=o.brn)


@dataclass(frozen=True)
class Detection:
    """Final detection: 3D box, its source 2D box, proposal objectness,
    and the 2D/projected-3D agreement used as confidence."""

    box3d: Box3D
    box2d_source: Box2D
    objectness: float
    confidence: float


@dataclass(frozen=True)
class PipelineConfig:
    scatter: ScatterParams = ScatterParams()
    mode: str = "rpn_brn_brn"
    objectness_threshold: float = 0.25
    nms_threshold: float = 0.05
    # the shape of every proposal's region; its center is not read
    region: ProposalRegion = ProposalRegion((0.0, 0.0, 0.0))
    voxel_resolution: float = 0.1
    sample_count: int = PREDICT_SAMPLE_COUNT
    residual_cap: float = DEFAULT_RESIDUAL_CAP
    clusters: SizeClusters = DEFAULT_SIZE_CLUSTERS
    bins: RotationBins = DEFAULT_ROTATION_BINS
    seed: int = 0

    def __post_init__(self):
        if self.mode not in PIPELINE_MODES:
            raise ValueError(f"mode must be one of {PIPELINE_MODES}")
        if not 0.0 < self.voxel_resolution < math.inf:  # NaN fails too
            raise ValueError("voxel_resolution must be finite and positive")
        if self.sample_count < 1:
            raise ValueError("sample_count must be >= 1")
        check_residual_cap(self.residual_cap)
        if not 0.0 <= self.nms_threshold <= 1.0:
            raise ValueError("nms_threshold must be in [0, 1]")
        if not 0.0 <= self.objectness_threshold <= 1.0:
            raise ValueError("objectness_threshold must be in [0, 1]")


def decode_boxes(outputs, regions, clusters, bins):
    """For each box-head output, the Box3D it decodes to relative to its
    region, or the ValueError that rejects it (NanLogits, NonPositiveDims,
    a box that is not finite), in order: the outcomes of a batch call, as
    geometry.data_outcome makes them.  Every output's codes are checked
    against bins and clusters first (a TypeError, before any stacking);
    then the rotation and size codes of all outputs are decoded as one
    stack (NanLogits rejects logits that hold a NaN, the rotation's
    first), and each location in plain floats as its box is built."""
    codes = [(*rotation_codes(out.rot_logits, out.rot_residuals, bins),
              *size_codes(out.size_logits, out.size_residuals, clusters))
             for out in outputs]
    if not codes:
        return []
    # the codes were checked above, so each stack is one array, not ragged
    rot_logits, rot_residuals, size_logits, size_residuals = map(
        np.array, zip(*codes))
    yaws = decode_rotations(rot_logits, rot_residuals, bins)
    sizes = decode_sizes(size_logits, size_residuals, clusters)
    outcomes = []
    for out, region, hwl, yaw in zip(outputs, regions, sizes, yaws,
                                     strict=True):
        if isinstance(yaw, ValueError):
            hwl = yaw
        elif not isinstance(hwl, ValueError):
            h, w, length = hwl.tolist()
            center = decode_location_floats(out.t_loc, region)
            hwl = data_outcome(Box3D, center, (w, h, length), yaw)
        outcomes.append(hwl)
    return outcomes


def region_points(index, region, config, *seed_parts):
    """The point-head input for one region of the frame whose RegionIndex
    is index: gather, voxel-downsample, then sample config.sample_count
    points, seeded with derive_seed(*seed_parts).  Raises EmptyCloud when
    the region holds no point."""
    members = index.members(region.center)
    if len(members) == 0:
        raise EmptyCloud("no points inside the proposal region")
    gathered = index.points(members, region.center)
    downsampled = voxel_downsample(gathered, config.voxel_resolution)
    return sample_points(downsampled, config.sample_count,
                         derive_seed(*seed_parts))


def solve_poses(frame, monocular, config=PipelineConfig()):
    """Stage (a), first half: monocular detections -> agreement search,
    one agreement_search_frame call for all of them.  Returns (obj_idx,
    det2d, estimate) tuples.  An object whose pose cannot be solved,
    invalid dims or yaw included, is data: it is logged with the
    ValueError that the search returns for it, in object order, and
    skipped, so no object fails its frame.  Every output, Mono2DDetection
    or not, passes _monocular_fields, so one of the wrong type or shape
    raises TypeError."""
    detections = list(monocular(frame))
    fields = [_monocular_fields(det2d) for det2d in detections]
    outcomes = agreement_search_frame(
        [det2d.box2d for det2d in detections],
        [dims for dims, _ in fields], [yaw for _, yaw in fields],
        frame.calib.p2, residual_cap=config.residual_cap,
    )
    poses = []
    for obj_idx, (det2d, est) in enumerate(zip(detections, outcomes)):
        if isinstance(est, ValueError):
            logger.warning("frame %s object %d: %s", frame.frame_id, obj_idx, est)
        else:
            poses.append((obj_idx, det2d, est))
    return poses


def scatter_proposals(frame, poses, config=PipelineConfig()):
    """Stage (a), second half: solved poses -> scattered cylinder regions,
    (obj_idx, seed_idx, det2d, region) tuples, from one
    spatial_scatter_frame call.  The scatter re-solves the search's own
    constraint system, which each estimate carries, with its
    non-degenerate winner, so it cannot fail where the search succeeded."""
    shape = config.region
    seeds, counts, _, _ = spatial_scatter_frame(
        [est for _, _, est in poses], [config.scatter], frame.calib.p2)
    seeds = iter(seeds.tolist())
    proposals = []
    for (obj_idx, det2d, est), count in zip(poses, counts[0].tolist()):
        for seed_idx in range(count):
            x, _, z = next(seeds)
            region = shape.recentered((x, est.solved_center[1], z))
            proposals.append((obj_idx, seed_idx, det2d, region))
    return proposals


def seed_proposals(frame, monocular, config=PipelineConfig()):
    """Stage (a): solve_poses, then scatter_proposals."""
    return scatter_proposals(frame, solve_poses(frame, monocular, config),
                             config)


def run_proposals(frame, predictors, config, heads, step):
    """The frame's seeded proposals through one stage per name in heads,
    stage-major: stage k runs that head on the region of every proposal
    the stage before kept, in seed order, then hands the whole stage to
    step(k, proposals, outputs), which returns one outcome per proposal:
    its proposal for stage k + 1 (its result, at the last stage), None to
    drop it unlogged, or the ValueError that drops it.  Proposals are
    (obj_idx, seed_idx, det2d, region) tuples; the last stage's results
    are returned in seed order.

    Each stage asks the frame's RegionIndex once which of its regions hold
    a point, and drops an empty one with EmptyCloud before its head runs.
    A head's points() returns region_points(index, region, config,
    config.seed, frame hash, obj_idx, seed_idx, k), prepared again on each
    call, not cached: a head that needs them twice keeps them.  A cloud
    not in the camera frame fails the whole frame with WrongFrame, raised
    when the index is built.

    A proposal whose head raises a data error (any ValueError), or whose
    outcome is one (EmptyCloud for an empty region, BehindCamera,
    OutOfBounds, NonPositiveDims, NanLogits, SingularSystem, a NaN
    objectness, or an invalid box), is dropped, and logged at the end of
    the frame in (obj_idx, seed_idx) order; it never aborts the frame.  Any
    exception raised by step, and any other exception from a head, is a
    programming error and propagates.
    """
    frame_hash = stable_id_hash(frame.frame_id)
    index = RegionIndex(frame.cloud, config.region)
    proposals = seed_proposals(frame, predictors.monocular, config)
    drops = []
    for stage, name in enumerate(heads):
        head = getattr(predictors, name)
        occupied = index.occupied([p[3].center for p in proposals])
        ran, outputs = [], []
        for proposal, full in zip(proposals, occupied.tolist()):
            obj_idx, seed_idx, _, region = proposal
            try:
                if not full:
                    raise EmptyCloud("no points inside the proposal region")
                points = functools.partial(
                    region_points, index, region, config, config.seed,
                    frame_hash, obj_idx, seed_idx, stage)
                outputs.append(head(points, region, frame))
            except ValueError as exc:
                # without its traceback, which would hold this frame and
                # its index in a reference cycle until the next collection
                drops.append((obj_idx, seed_idx, exc.with_traceback(None)))
                continue
            ran.append(proposal)
        proposals = []
        for (obj_idx, seed_idx, _, _), outcome in zip(
                ran, step(stage, ran, outputs), strict=True):
            if isinstance(outcome, ValueError):
                drops.append((obj_idx, seed_idx,
                              outcome.with_traceback(None)))
            elif outcome is not None:
                proposals.append(outcome)
    for obj_idx, seed_idx, exc in sorted(drops, key=lambda d: d[:2]):
        logger.warning(
            "frame %s proposal obj%d.seed%d dropped: %s: %s",
            frame.frame_id, obj_idx, seed_idx, type(exc).__name__, exc,
        )
    return proposals


def detect_frame(frame, predictors, config=PipelineConfig()):
    """Run the staged pipeline on one frame and return NMS-kept detections;
    dropped proposals are handled as in run_proposals.  A proposal-head
    stage gates and re-centers its proposals one by one, in scalar floats;
    a box-head stage decodes its boxes with decode_boxes, and the last
    stage projects them with project_boxes, each as one stack."""
    stages = MODE_STAGES[config.mode]
    scores = {}

    def gate(recenter, proposal, out):
        obj_idx, seed_idx, det2d, region = proposal
        score = objectness(out.t_obj)
        if score < config.objectness_threshold:
            return None
        scores[obj_idx, seed_idx] = score
        center = decode_location_floats(out.t_loc, region)
        if recenter:
            region = region.recentered(center)
        return obj_idx, seed_idx, det2d, region

    def step(stage, proposals, outputs):
        head, recenter = stages[stage]
        if head == "rpn":
            return [data_outcome(gate, recenter, proposal, out)
                    for proposal, out in zip(proposals, outputs)]
        outcomes = decode_boxes(outputs, [p[3] for p in proposals],
                                config.clusters, config.bins)
        live = [i for i, box in enumerate(outcomes)
                if not isinstance(box, ValueError)]
        if stage + 1 < len(stages):
            for i in live:
                obj_idx, seed_idx, det2d, region = proposals[i]
                if recenter:
                    region = region.recentered(outcomes[i].center)
                outcomes[i] = obj_idx, seed_idx, det2d, region
            return outcomes
        hulls = project_boxes([outcomes[i] for i in live], frame.calib.p2)
        for i, hull in zip(live, hulls):
            obj_idx, seed_idx, det2d, _ = proposals[i]
            if not isinstance(hull, ValueError):
                hull = Detection(
                    box3d=outcomes[i],
                    box2d_source=det2d.box2d,
                    objectness=float(scores[obj_idx, seed_idx]),
                    confidence=float(iou_2d(det2d.box2d, hull)),
                )
            outcomes[i] = hull
        return outcomes

    detections = run_proposals(frame, predictors, config,
                               [head for head, _ in stages], step)
    return nms_bev(detections, config.nms_threshold)


def confidence_order(confidences):
    """Indices of confidences by descending value, ties in index order:
    the one order in which NMS, matching and the PR curve walk
    detections."""
    return sorted(range(len(confidences)), key=lambda i: (-confidences[i], i))


def nms_bev(detections, threshold):
    """Greedy bird's-eye-view NMS: walk detections in confidence_order
    and suppress any detection whose footprint IoU with an already kept
    one exceeds the threshold.  A box keeps the footprint it builds
    (Box3D.footprint), so matching the kept detections reuses it."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must be in [0, 1]")
    kept = []
    for i in confidence_order([det.confidence for det in detections]):
        box = detections[i].box3d
        if not any(iou_bev(box, detections[j].box3d) > threshold
                   for j in kept):
            kept.append(i)
    return [detections[i] for i in kept]


def format_detection(frame_id, det):
    """One text line: frame id, Car, 2D box, KITTI-ordered 3D box fields
    (h w l, bottom-face-center location, yaw), objectness, confidence."""
    b = det.box2d_source
    values = [b.xmin, b.ymin, b.xmax, b.ymax, *box_to_fields(det.box3d),
              det.objectness, det.confidence]
    return " ".join([str(frame_id), "Car"] + [f"{v:.9f}" for v in values])


def write_detections(path, frame_id, detections):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for det in detections:
            fh.write(format_detection(frame_id, det) + "\n")


def parse_detection_line(line):
    """Inverse of format_detection; returns (frame_id, class, Detection)."""
    fields = line.split()
    if len(fields) != 15:
        raise ValueError(f"expected 15 fields, got {len(fields)}")
    frame_id, class_name = fields[0], fields[1]
    nums = [float(t) for t in fields[2:]]
    # Box3D rejects a 3D box field that is not finite
    for name, value in zip(("xmin", "ymin", "xmax", "ymax", "objectness",
                            "confidence"), nums[:4] + nums[11:]):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    det = Detection(
        box3d=box_from_fields(nums[4:11]),
        box2d_source=Box2D(*nums[0:4]),
        objectness=nums[11],
        confidence=nums[12],
    )
    return frame_id, class_name, det


def read_detections(path):
    """parse_detection_line of each non-blank line, read by
    kitti.parse_file: an error names the path and the line."""
    return parse_file(path,
                      lambda text: parse_lines(text, parse_detection_line))
