"""Independent reference implementations used to cross-check the library.

Everything here works from the box definitions alone (center, dims, yaw
about the vertical axis) and deliberately avoids the library's geometry
code paths.  The pose-search references at the end are the exception:
they are the earlier, slower form of the library's search, built on the
library's own constraint rows and feasibility test, so that the two can
be compared bit for bit.
"""

import itertools
import math

import numpy as np

from cyldet.geometry import Box3D, corner_offsets, iou_2d, project_box
from cyldet.mono import (
    DEFAULT_RESIDUAL_CAP,
    CornerConfiguration,
    MonoEstimate,
    NoFeasibleConfiguration,
    ScatterResult,
    SingularSystem,
    _config_table,
    _feasibility,
    _side_system,
    enumerate_configurations,
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


def _solve_rows_reference(system, sel_offsets):
    """Least-squares translations (M, 3) for the constrained corner
    offsets (M, 4, 3), one right-hand side per row."""
    a, k, _, _, pinv = system
    b = -(np.einsum("ij,mij->mi", a, sel_offsets) + k)      # (M, 4)
    return b @ pinv.T


def agreement_search_reference(box2d, dims, yaw, p,
                               residual_cap=DEFAULT_RESIDUAL_CAP,
                               reduced=False):
    """The search over every configuration of the set: each row gathers
    its own corner offsets and is solved, and the degenerate rows (one
    corner pinned to two opposite sides) are masked after the solve."""
    p = np.asarray(p, dtype=float)
    offsets = corner_offsets(dims, yaw)
    configs = enumerate_configurations(reduced=reduced)
    sel_offsets = np.take(offsets, configs, axis=0)   # (M, 4, 3)
    try:
        system = _side_system(box2d, p)
    except SingularSystem as exc:
        raise NoFeasibleConfiguration(str(exc)) from exc
    centers = _solve_rows_reference(system, sel_offsets)
    rms, feasible = _feasibility(system, sel_offsets, p, centers, residual_cap)
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
    agreement = iou_2d(
        box2d, project_box(Box3D(tuple(center), tuple(dims), yaw), p)
    )
    return MonoEstimate(
        box2d=box2d,
        dims=tuple(float(d) for d in dims),
        yaw=float(yaw),
        solved_center=tuple(float(c) for c in center),
        best_config=CornerConfiguration(*configs_f[best]),
        agreement=float(agreement),
        residual=float(rms_f[best]),
    )


def solve_translation_reference(box2d, dims, yaw, config, p,
                                residual_cap=DEFAULT_RESIDUAL_CAP):
    """One configuration's (center, rms) or None, from its own gather."""
    sel_offsets = corner_offsets(dims, yaw)[_config_table(config)]
    system = _side_system(box2d, p)
    centers = _solve_rows_reference(system, sel_offsets)
    rms, feasible = _feasibility(system, sel_offsets, p, centers, residual_cap)
    if not feasible[0]:
        return None
    return centers[0], float(rms[0])


def spatial_scatter_reference(est, params, p):
    """Seeds between the shrunk- and grown-dims re-solves of the winning
    configuration, each extreme from its own gather."""
    dims = np.asarray(est.dims, dtype=float)
    table = _config_table(est.best_config)
    system = _side_system(est.box2d, p)
    p1, p2 = (
        _solve_rows_reference(
            system, corner_offsets(dims * scale, est.yaw)[table])[0]
        for scale in (1.0 - params.s, 1.0 + params.s)
    )
    span = float(np.linalg.norm(p2 - p1))
    count = max(1, math.ceil(span / params.stride))
    steps = np.arange(count, dtype=float)[:, None] / count
    return ScatterResult(seed_points=p1 + steps * (p2 - p1), p1=p1, p2=p2)
