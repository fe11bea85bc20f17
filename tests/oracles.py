"""Independent reference implementations used to cross-check the library.

Everything here works from the box definitions alone (center, dims, yaw
about the vertical axis) and deliberately avoids the library's geometry
code paths.  The pose-search, point-head and frame-transform references
at the end are the exception: they are the earlier, slower forms of the
library's search, scatter, oracle heads and row-major cloud transforms,
one object or region at a time where the library stacks them, built
on the library's noise draws, with their own copy of the constraint
rows and of the numpy arithmetic the library has since replaced, so
that the two can be compared bit for bit.
"""

import itertools
import math

import numpy as np

from cyldet.codec import (
    BrnOutput,
    RpnOutput,
    encode_location,
    encode_rotation,
    encode_size,
    logit,
)
from cyldet.geometry import corner_offsets
from cyldet.kitti import PointCloud
from cyldet.mono import (
    DEFAULT_RESIDUAL_CAP,
    CornerConfiguration,
    MonoEstimate,
    NoFeasibleConfiguration,
    ScatterResult,
    SingularSystem,
    RANK_RCOND,
    _config_table,
    enumerate_configurations,
)
from cyldet.pipeline import _graded_objectness, _label_rng, _noised_dims_yaw


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


def agreement_search_reference(box2d, dims, yaw, p,
                               residual_cap=DEFAULT_RESIDUAL_CAP,
                               reduced=False):
    """The search over every configuration of the set: each row gathers
    its own corner offsets and is solved, and the degenerate rows (one
    corner pinned to two opposite sides) are masked after the solve.  The
    agreement is the IoU that the winner was ranked by."""
    p = np.asarray(p, dtype=float)
    offsets = corner_offsets(dims, yaw)
    configs = enumerate_configurations(reduced=reduced)
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
    sel_offsets = corner_offsets(dims, yaw)[_config_table(config)]
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
            system, corner_offsets(dims * scale, est.yaw)[table])[0]
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
