"""Independent reference implementations used to cross-check the library.

Everything here works from the box definitions alone (center, dims, yaw
about the vertical axis) and deliberately avoids the library's geometry
code paths.  The pose-search, point-head, frame-transform, overlap, sweep,
box-step and whole-pipeline references at the end are the exception: they
are the earlier, slower forms of the library's search, scatter, oracle
heads, row-major cloud transforms, of its IoUs, NMS, matching and average
precision, of its recall sweeps, of its box decode and projection and of detect_frame, one
object, region, pair, sweep row, box, ranked pair or proposal at a time
where the library stacks or caches them, built on the library's noise draws and
pipeline stages, with their own corner table and copy of the constraint
rows, of the point preparation and of the numpy arithmetic the library
has since replaced, so that the two can be compared bit for bit.
"""

import functools
import itertools
import math
from dataclasses import replace

import numpy as np

from cyldet.codec import (
    BrnOutput,
    NanLogits,
    NonPositiveDims,
    ProposalRegion,
    RpnOutput,
    decode_location,
    encode_location,
    encode_rotation,
    encode_size,
    logit,
    objectness,
)
from cyldet.evalbench import (
    _ACTIVE,
    MatchResult,
    PrCurve,
    check_sweep_values,
)
from cyldet.geometry import BehindCamera, Box2D, Box3D, iou_2d
from cyldet.kitti import PointCloud, stable_id_hash
from cyldet.mono import (
    DEFAULT_RESIDUAL_CAP,
    CornerConfiguration,
    MonoEstimate,
    NoFeasibleConfiguration,
    ScatterResult,
    SingularSystem,
    RANK_RCOND,
    _config_table,
)
from cyldet.pipeline import (
    Detection,
    EmptyCloud,
    PipelineConfig,
    _graded_objectness,
    _label_rng,
    _noised_dims_yaw,
    run_proposals,
    scatter_proposals,
    solve_poses,
)


def footprint_membership(points_xz, box):
    """Boolean mask: which (x, z) points fall inside the box footprint."""
    points_xz = np.asarray(points_xz, dtype=float)
    w, _, length = box.dims
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    dx = points_xz[:, 0] - box.center[0]
    dz = points_xz[:, 1] - box.center[2]
    # inverse of the yaw rotation applied to the offset
    local_x = c * dx - s * dz
    local_z = s * dx + c * dz
    return (np.abs(local_x) <= w / 2.0) & (np.abs(local_z) <= length / 2.0)


def footprint_aabb(box):
    w, _, length = box.dims
    c, s = abs(math.cos(box.yaw)), abs(math.sin(box.yaw))
    ex = c * w / 2.0 + s * length / 2.0
    ez = s * w / 2.0 + c * length / 2.0
    return (box.center[0] - ex, box.center[0] + ex,
            box.center[2] - ez, box.center[2] + ez)


def mc_iou_bev(a, b, n_samples=1_000_000, seed=0):
    """Monte-Carlo footprint IoU: the intersection is estimated by
    rejection sampling over the overlap of the two footprint AABBs, the
    individual areas are analytic."""
    ax0, ax1, az0, az1 = footprint_aabb(a)
    bx0, bx1, bz0, bz1 = footprint_aabb(b)
    x0, x1 = max(ax0, bx0), min(ax1, bx1)
    z0, z1 = max(az0, bz0), min(az1, bz1)
    area_a = a.dims[0] * a.dims[2]
    area_b = b.dims[0] * b.dims[2]
    if x0 >= x1 or z0 >= z1:
        return 0.0
    rng = np.random.default_rng(seed)
    pts = rng.uniform((x0, z0), (x1, z1), size=(n_samples, 2))
    both = footprint_membership(pts, a) & footprint_membership(pts, b)
    inter = (x1 - x0) * (z1 - z0) * both.mean()
    return inter / (area_a + area_b - inter)


def mc_iou_3d(a, b, n_samples=1_000_000, seed=0):
    """Monte-Carlo volumetric IoU by sampling the overlap of the 3D AABBs."""
    ax0, ax1, az0, az1 = footprint_aabb(a)
    bx0, bx1, bz0, bz1 = footprint_aabb(b)
    ay0, ay1 = a.center[1] - a.dims[1] / 2.0, a.center[1] + a.dims[1] / 2.0
    by0, by1 = b.center[1] - b.dims[1] / 2.0, b.center[1] + b.dims[1] / 2.0
    x0, x1 = max(ax0, bx0), min(ax1, bx1)
    y0, y1 = max(ay0, by0), min(ay1, by1)
    z0, z1 = max(az0, bz0), min(az1, bz1)
    vol_a = a.dims[0] * a.dims[1] * a.dims[2]
    vol_b = b.dims[0] * b.dims[1] * b.dims[2]
    if x0 >= x1 or y0 >= y1 or z0 >= z1:
        return 0.0
    rng = np.random.default_rng(seed)
    pts = rng.uniform((x0, y0, z0), (x1, y1, z1), size=(n_samples, 3))
    in_a = (footprint_membership(pts[:, [0, 2]], a)
            & (np.abs(pts[:, 1] - a.center[1]) <= a.dims[1] / 2.0))
    in_b = (footprint_membership(pts[:, [0, 2]], b)
            & (np.abs(pts[:, 1] - b.center[1]) <= b.dims[1] / 2.0))
    inter = (x1 - x0) * (y1 - y0) * (z1 - z0) * (in_a & in_b).mean()
    return inter / (vol_a + vol_b - inter)


def mc_iou_bev_stratified(a, b, side=1000, seed=0):
    """Variance-reduced rejection sampling: one jittered sample per cell of
    a side x side grid over the footprint-AABB overlap (side^2 samples)."""
    ax0, ax1, az0, az1 = footprint_aabb(a)
    bx0, bx1, bz0, bz1 = footprint_aabb(b)
    x0, x1 = max(ax0, bx0), min(ax1, bx1)
    z0, z1 = max(az0, bz0), min(az1, bz1)
    area_a = a.dims[0] * a.dims[2]
    area_b = b.dims[0] * b.dims[2]
    if x0 >= x1 or z0 >= z1:
        return 0.0
    rng = np.random.default_rng(seed)
    n = side * side
    grid = np.arange(side) / side
    xs = x0 + (np.repeat(grid, side) + rng.uniform(0, 1 / side, n)) * (x1 - x0)
    zs = z0 + (np.tile(grid, side) + rng.uniform(0, 1 / side, n)) * (z1 - z0)
    pts = np.column_stack([xs, zs])
    both = footprint_membership(pts, a) & footprint_membership(pts, b)
    inter = (x1 - x0) * (z1 - z0) * both.mean()
    return inter / (area_a + area_b - inter)


def mc_iou_3d_stratified(a, b, side=100, seed=0):
    """3D analogue of mc_iou_bev_stratified with side^3 jittered samples."""
    ax0, ax1, az0, az1 = footprint_aabb(a)
    bx0, bx1, bz0, bz1 = footprint_aabb(b)
    ay0, ay1 = a.center[1] - a.dims[1] / 2.0, a.center[1] + a.dims[1] / 2.0
    by0, by1 = b.center[1] - b.dims[1] / 2.0, b.center[1] + b.dims[1] / 2.0
    x0, x1 = max(ax0, bx0), min(ax1, bx1)
    y0, y1 = max(ay0, by0), min(ay1, by1)
    z0, z1 = max(az0, bz0), min(az1, bz1)
    vol_a = a.dims[0] * a.dims[1] * a.dims[2]
    vol_b = b.dims[0] * b.dims[1] * b.dims[2]
    if x0 >= x1 or y0 >= y1 or z0 >= z1:
        return 0.0
    rng = np.random.default_rng(seed)
    n = side**3
    idx = np.arange(n)
    gx = (idx // (side * side)) / side
    gy = ((idx // side) % side) / side
    gz = (idx % side) / side
    xs = x0 + (gx + rng.uniform(0, 1 / side, n)) * (x1 - x0)
    ys = y0 + (gy + rng.uniform(0, 1 / side, n)) * (y1 - y0)
    zs = z0 + (gz + rng.uniform(0, 1 / side, n)) * (z1 - z0)
    pts = np.column_stack([xs, ys, zs])
    in_a = (footprint_membership(pts[:, [0, 2]], a)
            & (np.abs(pts[:, 1] - a.center[1]) <= a.dims[1] / 2.0))
    in_b = (footprint_membership(pts[:, [0, 2]], b)
            & (np.abs(pts[:, 1] - b.center[1]) <= b.dims[1] / 2.0))
    inter = (x1 - x0) * (y1 - y0) * (z1 - z0) * (in_a & in_b).mean()
    return inter / (vol_a + vol_b - inter)


def project_corners_reference(box, p):
    """Brute-force pixel hull of the 8 corners, built from first principles."""
    w, h, length = box.dims
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    us, vs = [], []
    for sx in (-0.5, 0.5):
        for sy in (-0.5, 0.5):
            for sz in (-0.5, 0.5):
                lx, ly, lz = sx * w, sy * h, sz * length
                x = c * lx + s * lz + box.center[0]
                y = ly + box.center[1]
                z = -s * lx + c * lz + box.center[2]
                hom = np.asarray(p) @ np.array([x, y, z, 1.0])
                us.append(hom[0] / hom[2])
                vs.append(hom[1] / hom[2])
    return min(us), min(vs), max(us), max(vs)


# Half-extent signs of the 8 corners, in the library's corner order: the
# bottom face (y = +H/2) counter-clockwise in the x-z plane, then the top
# face in the same order.
_CORNER_SIGNS_REFERENCE = np.array([
    [+1, +1, +1], [-1, +1, +1], [-1, +1, -1], [+1, +1, -1],
    [+1, -1, +1], [-1, -1, +1], [-1, -1, -1], [+1, -1, -1],
], dtype=float)


def corner_offsets_reference(dims, yaw):
    """Offsets of the 8 corners from the box center, (8, 3): the local
    half-extents times the transposed rotation about the y axis."""
    c, s = math.cos(yaw), math.sin(yaw)
    rotation = np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
    w, h, length = dims
    local = _CORNER_SIGNS_REFERENCE * (0.5 * np.array([w, h, length]))
    return local @ rotation.T


def cylinder_members_reference(points, region):
    """Indices of the (N, 4) points inside a standing-cylinder region, by a
    scan of every point: dx*dx + dz*dz <= r**2 on the ground plane and the
    inclusive vertical band y_extent."""
    points = np.asarray(points, dtype=float)
    cx, _, cz = region.center
    y0, y1 = region.y_extent
    dx = points[:, 0] - cx
    dz = points[:, 2] - cz
    inside = ((dx * dx + dz * dz <= region.radius**2)
              & (points[:, 1] >= y0) & (points[:, 1] <= y1))
    return np.flatnonzero(inside)


def block_certificate_reference(points, region, cell, limit=2**30):
    """Whether the 3x3 block of x-z cells around the region center's cell
    holds a point of the band, for a region at least 2.9 cells wide whose
    block holds no cell clipped at the cell-number limit, by a scan of
    every point.  Cell numbers are floor(v / cell), clipped to +-limit."""
    def cell_of(v):
        return math.floor(min(max(v / cell, -limit), limit))

    ix, iz = cell_of(region.center[0]), cell_of(region.center[2])
    if region.radius < 2.9 * cell or max(abs(ix), abs(iz)) >= limit - 1:
        return False
    y0, y1 = region.y_extent
    return any(y0 <= y <= y1 and abs(cell_of(x) - ix) <= 1
               and abs(cell_of(z) - iz) <= 1 for x, y, z, _ in points)


def greedy_nms_reference(boxes, confidences, threshold, iou_fn):
    """O(n^2) greedy suppression; returns kept indices."""
    order = sorted(range(len(boxes)), key=lambda i: (-confidences[i], i))
    kept = []
    for i in order:
        if all(iou_fn(boxes[i], boxes[j]) <= threshold for j in kept):
            kept.append(i)
    return kept


def optimal_match_count(det_boxes, gt_boxes, threshold, iou_fn):
    """Maximum one-to-one matching size with IoU >= threshold, by
    exhaustive assignment enumeration (small instances only)."""
    n_det, n_gt = len(det_boxes), len(gt_boxes)
    feasible = [
        [iou_fn(d, g) >= threshold for g in gt_boxes] for d in det_boxes
    ]
    best = 0
    for k in range(min(n_det, n_gt), 0, -1):
        for det_subset in itertools.combinations(range(n_det), k):
            for gt_perm in itertools.permutations(range(n_gt), k):
                if all(feasible[d][g] for d, g in zip(det_subset, gt_perm)):
                    return k
        if best:
            break
    return best


def exact_two_means(points):
    """Globally optimal 2-means by enumerating every nonempty bipartition."""
    points = np.asarray(points, dtype=float)
    n = len(points)
    best_sse, best_centroids = np.inf, None
    for bits in range(1, 2 ** (n - 1)):
        mask = np.array([(bits >> i) & 1 for i in range(n)], dtype=bool)
        if not mask.any() or mask.all():
            continue
        c0 = points[mask].mean(axis=0)
        c1 = points[~mask].mean(axis=0)
        sse = (((points[mask] - c0) ** 2).sum()
               + ((points[~mask] - c1) ** 2).sum())
        if sse < best_sse:
            best_sse = sse
            best_centroids = np.array([c0, c1])
    order = np.lexsort(best_centroids.T[::-1])
    return best_centroids[order], best_sse


def central_difference(f, x, h=1e-5):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def side_system_reference(box2d, p):
    """One box's constraint rows for [left, right, top, bottom] and their
    pseudo-inverse, (a, k, coords, rows, pinv), from its own SVD.  Raises
    SingularSystem when the constraint matrix is rank deficient."""
    p = np.asarray(p, dtype=float)
    coords = np.array([box2d.xmin, box2d.xmax, box2d.ymin, box2d.ymax])
    rows = np.array([0, 0, 1, 1])
    a = p[rows, :3] - coords[:, None] * p[2, :3]
    k = p[rows, 3] - coords * p[2, 3]
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    if s[0] <= 0.0 or s[-1] / s[0] < RANK_RCOND:
        raise SingularSystem(
            f"constraint matrix is rank deficient (singular values {s})"
        )
    return a, k, coords, rows, (vt.T / s) @ u.T


def _solve_rows_reference(system, sel_offsets):
    """Least-squares translations (M, 3) for the constrained corner
    offsets (M, 4, 3), one right-hand side per row."""
    a, k, _, _, pinv = system
    b = -(np.einsum("ij,mij->mi", a, sel_offsets) + k)      # (M, 4)
    return b @ pinv.T


def _feasibility_reference(system, sel_offsets, p, centers, residual_cap):
    """(rms pixel residuals (M,), feasible (M,)) of solved translations,
    each row's constrained corners (M, 4, 3) projected as one stack."""
    p = np.asarray(p, dtype=float)
    _, _, coords, rows, _ = system
    corners = centers[:, None, :] + sel_offsets
    w = corners @ p[2, :3] + p[2, 3]
    num = np.einsum("...ij,ij->...i", corners, p[rows, :3]) + p[rows, 3]
    with np.errstate(divide="ignore", invalid="ignore"):
        uv = num / w
        rms = np.sqrt(np.mean((uv - coords) ** 2, axis=1))
    feasible = (
        (centers[:, 2] > 0.0)
        & np.all(w > 0.0, axis=1)
        & (rms <= residual_cap)
        & (uv[:, 0] <= uv[:, 1] + residual_cap)
        & (uv[:, 2] <= uv[:, 3] + residual_cap)
    )
    return rms, feasible


# every (left, right, top, bottom) corner assignment, in base-8 index order
_ALL_CONFIGURATIONS = np.array(list(itertools.product(range(8), repeat=4)))


def agreement_search_reference(box2d, dims, yaw, p,
                               residual_cap=DEFAULT_RESIDUAL_CAP):
    """The search over the 4096 rows of _ALL_CONFIGURATIONS: each row
    gathers its own corner offsets and is solved, and the degenerate rows
    (one corner pinned to two opposite sides) are masked after the solve.
    The agreement is the IoU that the winner was ranked by."""
    p = np.asarray(p, dtype=float)
    offsets = corner_offsets_reference(dims, yaw)
    configs = _ALL_CONFIGURATIONS
    sel_offsets = np.take(offsets, configs, axis=0)   # (M, 4, 3)
    try:
        system = side_system_reference(box2d, p)
    except SingularSystem as exc:
        raise NoFeasibleConfiguration(str(exc)) from exc
    centers = _solve_rows_reference(system, sel_offsets)
    rms, feasible = _feasibility_reference(system, sel_offsets, p,
                                          centers, residual_cap)
    feasible &= (configs[:, 0] != configs[:, 1]) & (configs[:, 2] != configs[:, 3])
    if not np.any(feasible):
        raise NoFeasibleConfiguration(
            "no corner configuration yields a feasible translation"
        )

    centers_f = centers[feasible]
    rms_f = rms[feasible]
    configs_f = configs[feasible]
    corners = centers_f[:, None, :] + offsets[None, :, :]      # (F, 8, 3)
    w_all = corners @ p[2, :3] + p[2, 3]
    u_all = (corners @ p[0, :3] + p[0, 3]) / w_all
    v_all = (corners @ p[1, :3] + p[1, 3]) / w_all
    in_front = np.all(w_all > 0.0, axis=1) & np.all(corners[:, :, 2] > 0.0, axis=1)

    xmin_c, xmax_c = u_all.min(axis=1), u_all.max(axis=1)
    ymin_c, ymax_c = v_all.min(axis=1), v_all.max(axis=1)
    iw = np.minimum(xmax_c, box2d.xmax) - np.maximum(xmin_c, box2d.xmin)
    ih = np.minimum(ymax_c, box2d.ymax) - np.maximum(ymin_c, box2d.ymin)
    inter = np.clip(iw, 0.0, None) * np.clip(ih, 0.0, None)
    area_c = (xmax_c - xmin_c) * (ymax_c - ymin_c)
    iou = np.where(
        in_front, inter / (area_c + box2d.area - inter), -1.0
    )
    if not np.any(iou >= 0.0):
        raise NoFeasibleConfiguration(
            "every feasible translation projects partly behind the camera"
        )

    config_index = (
        ((configs_f[:, 0] * 8 + configs_f[:, 1]) * 8 + configs_f[:, 2]) * 8
        + configs_f[:, 3]
    )
    best = np.lexsort((config_index, rms_f, -iou))[0]
    center = centers_f[best]
    return MonoEstimate(
        box2d=box2d,
        dims=tuple(float(d) for d in dims),
        yaw=float(yaw),
        solved_center=tuple(float(c) for c in center),
        best_config=CornerConfiguration(*configs_f[best]),
        agreement=float(iou[best]),
        residual=float(rms_f[best]),
    )


def solve_translation_reference(box2d, dims, yaw, config, p,
                                residual_cap=DEFAULT_RESIDUAL_CAP):
    """One configuration's (center, rms) or None, from its own gather."""
    sel_offsets = corner_offsets_reference(dims, yaw)[_config_table(config)]
    system = side_system_reference(box2d, p)
    centers = _solve_rows_reference(system, sel_offsets)
    rms, feasible = _feasibility_reference(system, sel_offsets, p,
                                          centers, residual_cap)
    if not feasible[0]:
        return None
    return centers[0], float(rms[0])


def spatial_scatter_reference(est, params, p):
    """Seeds between the shrunk- and grown-dims re-solves of the winning
    configuration, each extreme from its own gather."""
    dims = np.asarray(est.dims, dtype=float)
    table = _config_table(est.best_config)
    system = side_system_reference(est.box2d, p)
    p1, p2 = (
        _solve_rows_reference(
            system, corner_offsets_reference(dims * scale, est.yaw)[table])[0]
        for scale in (1.0 - params.s, 1.0 + params.s)
    )
    span = float(np.linalg.norm(p2 - p1))
    count = max(1, math.ceil(span / params.stride))
    steps = np.arange(count, dtype=float)[:, None] / count
    return ScatterResult(seed_points=p1 + steps * (p2 - p1), p1=p1, p2=p2)


class _LabelTableReference:
    """One frame's label centers as an array, and label idx's noised box
    drawn anew on each truth() call."""

    def __init__(self, cfg, frame):
        self.cfg = cfg
        self.frame_id = frame.frame_id
        self.labels = frame.labels
        self.centers = np.array([lab.box3d.center for lab in frame.labels])

    def nearest(self, region):
        if not self.labels:
            return None, None
        d = np.linalg.norm(self.centers - np.asarray(region.center), axis=1)
        idx = int(np.argmin(d))
        return idx, self.centers[idx]

    def truth(self, idx):
        box = self.labels[idx].box3d
        rng = _label_rng(self.cfg, self.frame_id, idx, stream=2)
        center = np.asarray(box.center) + (
            self.cfg.center_noise_sigma * rng.standard_normal(3)
        )
        return (center, *_noised_dims_yaw(self.cfg, box, rng))


def _within_bounds_reference(center, region):
    off = (np.asarray(center) - np.asarray(region.center)) / np.asarray(region.bounds)
    return np.abs(off).max() < 1.0


def _clamped_encode_reference(center, region):
    off = np.asarray(center) - np.asarray(region.center)
    m = np.asarray(region.bounds)
    off = np.clip(off, -(1.0 - 1e-9) * m, (1.0 - 1e-9) * m)
    return encode_location(np.asarray(region.center) + off, region)


def oracle_rpn_reference(cfg, region, frame):
    """The proposal-head oracle's output, from a label table of its own."""
    table = _LabelTableReference(cfg, frame)
    idx, true_center = table.nearest(region)
    if idx is None:
        return RpnOutput(t_loc=(0.0, 0.0, 0.0), t_obj=logit(0.01))
    ground_dist = math.hypot(
        true_center[0] - region.center[0], true_center[2] - region.center[2]
    )
    t_obj = logit(_graded_objectness(ground_dist, region.radius))
    if not _within_bounds_reference(true_center, region):
        return RpnOutput(t_loc=(0.0, 0.0, 0.0), t_obj=t_obj)
    center, _, _ = table.truth(idx)
    return RpnOutput(t_loc=tuple(_clamped_encode_reference(center, region)),
                     t_obj=t_obj)


def oracle_brn_reference(cfg, clusters, bins, region, frame):
    """The box-head oracle's output, from a label table of its own."""
    table = _LabelTableReference(cfg, frame)
    idx, true_center = table.nearest(region)
    if idx is None or not _within_bounds_reference(true_center, region):
        return BrnOutput(
            t_loc=(0.0, 0.0, 0.0),
            rot_logits=np.zeros(bins.n_bins),
            rot_residuals=np.zeros(bins.n_bins),
            size_logits=np.zeros(clusters.n_clusters),
            size_residuals=np.zeros((clusters.n_clusters, 3)),
        )
    center, dims_whl, yaw = table.truth(idx)
    w, h, length = dims_whl
    rot_logits, rot_residuals = encode_rotation(yaw, bins)
    size_logits, size_residuals = encode_size((h, w, length), clusters)
    return BrnOutput(
        t_loc=tuple(_clamped_encode_reference(center, region)),
        rot_logits=rot_logits,
        rot_residuals=rot_residuals,
        size_logits=size_logits,
        size_residuals=size_residuals,
    )


def lidar_to_camera_reference(cloud, calib):
    """The row-major Lidar-to-camera transform: (N, 3) coordinates times
    the transposed rotations, the reflectance column stacked back on."""
    xyz = cloud.xyz
    ref = xyz @ calib.tr_velo_to_cam[:, :3].T + calib.tr_velo_to_cam[:, 3]
    cam = ref @ calib.r0_rect.T
    return PointCloud(np.column_stack([cam, cloud.points[:, 3]]), frame="camera")


def camera_to_lidar_reference(cloud, calib):
    """The row-major inverse of lidar_to_camera_reference."""
    ref = cloud.xyz @ calib.r0_rect
    lidar = (ref - calib.tr_velo_to_cam[:, 3]) @ calib.tr_velo_to_cam[:, :3]
    return PointCloud(np.column_stack([lidar, cloud.points[:, 3]]), frame="lidar")


# The overlap code as it was before each box's footprint was built once
# per NMS or matching call and clipped in plain floats: the footprint
# rebuilt for every pair, the clip on numpy scalars, np.roll in the area.
_CLIP_EPS = 1e-12


def footprint_polygon_reference(box):
    corners = np.asarray(box.center) + corner_offsets_reference(box.dims,
                                                             box.yaw)
    return corners[:4][:, [0, 2]]


def polygon_area_reference(poly):
    if len(poly) < 3:
        return 0.0
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y))


def clip_polygon_reference(subject, clip):
    output = [tuple(v) for v in subject]
    n = len(clip)
    for i in range(n):
        if not output:
            break
        ax, ay = clip[i]
        bx, by = clip[(i + 1) % n]
        ex, ey = bx - ax, by - ay
        vertices = output
        output = []
        m = len(vertices)
        side = [ex * (vy - ay) - ey * (vx - ax) for vx, vy in vertices]
        for j in range(m):
            k = (j + 1) % m
            (cx, cy), s_c = vertices[j], side[j]
            (dx, dy), s_d = vertices[k], side[k]
            if s_c >= -_CLIP_EPS:
                output.append((cx, cy))
            if (s_c >= -_CLIP_EPS) != (s_d >= -_CLIP_EPS):
                t = s_c / (s_c - s_d)
                output.append((cx + t * (dx - cx), cy + t * (dy - cy)))
    if len(output) < 3:
        return np.zeros((0, 2))
    return np.array(output)


def _footprints_apart_reference(a, b):
    (ax, _, az), (bx, _, bz) = a.center, b.center
    (aw, _, al), (bw, _, bl) = a.dims, b.dims
    reach = 0.5 * (math.hypot(aw, al) + math.hypot(bw, bl))
    slack = (2.0 * _CLIP_EPS / min(aw, al, bw, bl)
             + 1e-9 * (reach + abs(ax) + abs(az) + abs(bx) + abs(bz)))
    return math.hypot(ax - bx, az - bz) > reach + slack


def _bev_intersection_area_reference(a, b):
    if (b.center, b.dims, b.yaw) < (a.center, a.dims, a.yaw):
        a, b = b, a
    if _footprints_apart_reference(a, b):
        return 0.0
    inter = clip_polygon_reference(footprint_polygon_reference(a),
                                   footprint_polygon_reference(b))
    return max(0.0, polygon_area_reference(inter))


def iou_bev_reference(a, b):
    area_a = a.dims[0] * a.dims[2]
    area_b = b.dims[0] * b.dims[2]
    inter = min(_bev_intersection_area_reference(a, b), area_a, area_b)
    if inter <= 0.0:
        return 0.0
    return inter / (area_a + area_b - inter)


def iou_3d_reference(a, b):
    a_lo, a_hi = a.center[1] - a.dims[1] / 2.0, a.center[1] + a.dims[1] / 2.0
    b_lo, b_hi = b.center[1] - b.dims[1] / 2.0, b.center[1] + b.dims[1] / 2.0
    overlap = max(0.0, min(a_hi, b_hi) - max(a_lo, b_lo))
    if overlap <= 0.0:
        return 0.0
    inter = min(_bev_intersection_area_reference(a, b) * overlap,
                a.volume, b.volume)
    if inter <= 0.0:
        return 0.0
    return inter / (a.volume + b.volume - inter)


def nms_bev_reference(detections, threshold):
    """Kept detections, in kept order."""
    order = sorted(range(len(detections)),
                   key=lambda i: (-detections[i].confidence, i))
    kept_idx = []
    for i in order:
        if any(iou_bev_reference(detections[i].box3d, detections[j].box3d)
               > threshold for j in kept_idx):
            continue
        kept_idx.append(i)
    return [detections[i] for i in kept_idx]


def match_detections_reference(detections, gts, cfg):
    active = [i for i, g in enumerate(gts)
              if g.difficulty in _ACTIVE[cfg.difficulty]]
    ignore = [i for i in range(len(gts)) if i not in active]
    metric = {"iou_3d": iou_3d_reference,
              "iou_bev": iou_bev_reference}[cfg.match_metric]
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
    return MatchResult(tp=len(matches), fp=fp, fn=len(active) - len(matches),
                       matches=tuple(matches), ignored_dets=tuple(ignored_dets))


def average_precision_reference(scored, n_gt, mode="r11"):
    """The PR curve as a running tally, one (confidence, is_tp) pair at a
    time, and the AP as a masked maximum per recall grid value."""
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
    if mode == "r11":
        grid = np.linspace(0.0, 1.0, 11)
    else:
        grid = np.arange(1, 41) / 40.0
    ap = 0.0
    if points:
        recalls = np.array([p[0] for p in points])
        precisions = np.array([p[1] for p in points])
        values = []
        for r in grid:
            mask = recalls >= r - 1e-12
            values.append(precisions[mask].max() if np.any(mask) else 0.0)
        ap = float(np.mean(values))
    return PrCurve(points=tuple(points), ap=ap, mode=mode)


# The recall sweeps as they were before each frame's s values were
# scattered in one stacked solve and each frame's rows counted in one pass:
# one scatter_proposals call per s, a region built for every seed, and one
# ground-truth loop per sweep row.
class Captures:
    """The integer totals of one sweep row over the frames added so far:
    ground truths with a seed within the cylinder radius (ground-plane
    distance), ground truths and seeds."""

    def __init__(self, radius):
        self.radius = radius
        self.captured = self.gts = self.seeds = 0

    def add(self, seeds, gts):
        seeds = np.asarray(seeds, dtype=float).reshape(-1, 3)
        for gt in gts:
            cx, _, cz = gt.box3d.center
            if len(seeds) and np.any(
                np.hypot(seeds[:, 0] - cx, seeds[:, 2] - cz) <= self.radius
            ):
                self.captured += 1
        self.gts += len(gts)
        self.seeds += len(seeds)

    def row(self, value):
        """(value, capture recall, seeds per GT); the recall is the
        captured count over the total, exactly."""
        if not self.gts:
            return float(value), 0.0, 0.0
        return float(value), self.captured / self.gts, self.seeds / self.gts


def proposal_recall(seeds, gts, radius):
    """Fraction of ground truths with a seed within the cylinder radius
    (ground-plane distance), plus seeds per ground truth."""
    captures = Captures(radius)
    captures.add(seeds, gts)
    return captures.row(0.0)[1:]


def clamped_scatter_reference(config, s):
    """config with its scatter s clamped into (0, 1): the s = 0 sweep row
    is the limit."""
    s_eff = min(max(s, 1e-9), 1.0 - 1e-9)
    return replace(config, scatter=replace(config.scatter, s=s_eff))


def sweep_scatter_reference(frames, monocular, s_values,
                            config=PipelineConfig()):
    rows = [(s, clamped_scatter_reference(config, s),
             Captures(config.region.radius))
            for s in check_sweep_values("scatter", s_values)]
    for frame in frames:
        poses = solve_poses(frame, monocular, config)
        for _, cfg, captures in rows:
            proposals = scatter_proposals(frame, poses, cfg)
            captures.add([r.center for _, _, _, r in proposals],
                         frame.labels)
    return [captures.row(s) for s, _, captures in rows]


def _score_one_by_one(stage, proposals, outputs):
    scored = []
    for proposal, out in zip(proposals, outputs):
        try:
            scored.append((objectness(out.t_obj), proposal[3].center))
        except ValueError as exc:
            scored.append(exc)
    return scored


def sweep_objectness_reference(frames, predictors, thresholds,
                               config=PipelineConfig()):
    rows = [(threshold, Captures(config.region.radius))
            for threshold in check_sweep_values("objectness", thresholds)]
    for frame in frames:
        scored = run_proposals(frame, predictors, config, ("rpn",),
                               _score_one_by_one)
        for threshold, captures in rows:
            captures.add(
                [center for score, center in scored if score >= threshold],
                frame.labels)
    return [captures.row(threshold) for threshold, captures in rows]


# The box-head step as it was before a stage's boxes were decoded and
# projected as one stack: one output, or one box, at a time.  Logits that
# hold a NaN are rejected, as the library rejects them, before any argmax.
def decode_box_reference(brn_out, region, clusters, bins):
    center = decode_location(brn_out.t_loc, region)
    logits = np.asarray(brn_out.rot_logits, dtype=float)
    residuals = np.asarray(brn_out.rot_residuals, dtype=float)
    if logits.shape != (bins.n_bins,) or residuals.shape != (bins.n_bins,):
        raise TypeError("encoding arity does not match the bin count")
    if np.isnan(logits).any():
        raise NanLogits("rotation logits hold a NaN")
    idx = int(np.argmax(logits))
    yaw = ((idx + 0.5) * bins.width + residuals[idx]) % math.pi
    logits = np.asarray(brn_out.size_logits, dtype=float)
    residuals = np.asarray(brn_out.size_residuals, dtype=float).reshape(-1, 3)
    if (logits.shape != (clusters.n_clusters,)
            or len(residuals) != clusters.n_clusters):
        raise TypeError("encoding arity does not match the cluster count")
    if np.isnan(logits).any():
        raise NanLogits("size logits hold a NaN")
    idx = int(np.argmax(logits))
    dims = clusters.centroids[idx] + residuals[idx]
    if np.any(dims <= 0.0):
        raise NonPositiveDims(
            f"decoded dims {tuple(dims)} not strictly positive")
    h, w, length = dims
    return Box3D(tuple(center), (w, h, length), yaw)


def project_box_reference(box, p):
    corners = np.asarray(box.center) + corner_offsets_reference(box.dims,
                                                                box.yaw)
    if np.any(corners[:, 2] <= 0.0):
        raise BehindCamera(f"box at {box.center} has corners with z <= 0")
    p = np.asarray(p, dtype=float)
    hom = corners @ p[:, :3].T + p[:, 3]
    uv = hom[:, :2] / hom[:, 2:3]
    return Box2D(uv[:, 0].min(), uv[:, 1].min(), uv[:, 0].max(),
                 uv[:, 1].max())


def outcome_of(fn, *args):
    """fn(*args), or the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return exc


def outcome_bits(outcome):
    """What the box-step tests compare: an error's type and message, or
    the bytes of a Box2D's or a Box3D's floats."""
    if isinstance(outcome, Exception):
        return type(outcome), str(outcome)
    if isinstance(outcome, Box2D):
        values = (outcome.xmin, outcome.ymin, outcome.xmax, outcome.ymax)
    else:
        values = (*outcome.center, *outcome.dims, outcome.yaw)
    return np.array(values).tobytes()


# The whole pipeline as it ran before it went stage-major: one proposal at
# a time through every stage of its mode, each region found by a scan of
# every point and its points prepared by the voxel step and the sampler
# below, then the heads and the one-box decode and projection above.
# (head, recenter the next stage's region on this stage's output) per stage
_MODE_STAGES_REFERENCE = {
    "single_stage": (("rpn", False), ("brn", False)),
    "single_stage_twice": (("rpn", False), ("brn", True), ("rpn", False),
                           ("brn", False)),
    "rpn_brn_brn": (("rpn", True), ("brn", True), ("brn", False)),
}


def voxel_downsample_reference(points, resolution):
    """One centroid per occupied voxel of an (N, 4) array, in the order of
    np.unique(axis=0) over the voxel keys.  A centroid whose rounding
    carried it out of its voxel is clipped, on that axis, to the range of
    its own points."""
    keys = np.floor(points[:, :3] / resolution).astype(np.int64)
    voxels, inverse, counts = np.unique(keys, axis=0, return_inverse=True,
                                        return_counts=True)
    inverse = inverse.reshape(-1)
    sums = np.zeros((len(voxels), 4))
    np.add.at(sums, inverse, points)
    centroids = sums / counts[:, None]
    lo = np.full((len(voxels), 3), math.inf)
    hi = np.full((len(voxels), 3), -math.inf)
    np.minimum.at(lo, inverse, points[:, :3])
    np.maximum.at(hi, inverse, points[:, :3])
    xyz = centroids[:, :3]
    outside = np.floor(xyz / resolution) != voxels
    centroids[:, :3] = np.where(outside, np.clip(xyz, lo, hi), xyz)
    return centroids


def region_points_reference(cloud, members, region, config, *seed_parts):
    """The members of cloud relative to the region center, voxelized, then
    config.sample_count of them drawn with a generator seeded from the
    seed parts: without replacement from a large enough set, otherwise
    all of them and the rest drawn with replacement."""
    rel = cloud.points[members] - np.array([*region.center, 0.0])
    pts = voxel_downsample_reference(rel, config.voxel_resolution)
    seed = np.random.SeedSequence([p & 0xFFFFFFFF for p in seed_parts])
    rng = np.random.default_rng(int(seed.generate_state(1)[0]))
    n = config.sample_count
    if len(pts) >= n:
        idx = rng.choice(len(pts), size=n, replace=False)
    else:
        idx = np.concatenate([
            np.arange(len(pts)),
            rng.choice(len(pts), size=n - len(pts), replace=True)])
    return PointCloud(pts[idx], frame="camera")


def _proposal_reference(frame, predictors, config, obj_idx, seed_idx, det2d,
                        region):
    """One proposal through every stage: its Detection, or None when a
    proposal head's objectness falls below the threshold.  A data error
    raises."""
    frame_hash = stable_id_hash(frame.frame_id)
    score = box = None
    for stage, (head, recenter) in enumerate(
            _MODE_STAGES_REFERENCE[config.mode]):
        with np.errstate(over="ignore"):   # a far point's square
            members = cylinder_members_reference(frame.cloud.points, region)
        if len(members) == 0:
            raise EmptyCloud("no points inside the proposal region")
        points = functools.partial(
            region_points_reference, frame.cloud, members, region, config,
            config.seed, frame_hash, obj_idx, seed_idx, stage)
        out = getattr(predictors, head)(points, region, frame)
        if head == "rpn":
            score = objectness(out.t_obj)
            if score < config.objectness_threshold:
                return None
            center = decode_location(out.t_loc, region)
        else:
            box = decode_box_reference(out, region, config.clusters,
                                       config.bins)
            center = box.center
        if recenter:
            region = ProposalRegion(center, region.radius, region.y_extent,
                                    region.bounds)
    hull = project_box_reference(box, frame.calib.p2)
    return Detection(box3d=box, box2d_source=det2d.box2d,
                     objectness=float(score),
                     confidence=float(iou_2d(det2d.box2d, hull)))


def detect_frame_reference(frame, predictors, config):
    """(detections, log lines) of detect_frame: each object searched on
    its own, each pose scattered on its own, then each seed's proposal run
    through every stage before the next seed's, and the detections put
    through the reference NMS.  The log lines are the pose failures, then
    the dropped proposals, each in object and seed order."""
    p = frame.calib.p2
    lines, poses, detections = [], [], []
    for obj_idx, det2d in enumerate(predictors.monocular(frame)):
        try:
            poses.append((obj_idx, det2d, agreement_search_reference(
                det2d.box2d, det2d.dims, det2d.yaw, p,
                residual_cap=config.residual_cap)))
        except NoFeasibleConfiguration as exc:
            lines.append(f"frame {frame.frame_id} object {obj_idx}: {exc}")
    for obj_idx, det2d, est in poses:
        seeds = spatial_scatter_reference(est, config.scatter, p).seed_points
        for seed_idx, (x, _, z) in enumerate(seeds.tolist()):
            region = ProposalRegion((x, est.solved_center[1], z),
                                    config.region.radius,
                                    config.region.y_extent,
                                    config.region.bounds)
            try:
                det = _proposal_reference(frame, predictors, config, obj_idx,
                                          seed_idx, det2d, region)
            except ValueError as exc:
                drop = f"{type(exc).__name__}: {exc}"
                lines.append(f"frame {frame.frame_id} proposal "
                             f"obj{obj_idx}.seed{seed_idx} dropped: {drop}")
                continue
            if det is not None:
                detections.append(det)
    return nms_bev_reference(detections, config.nms_threshold), lines
