"""Oriented-box geometry: corners, camera projection, 2D / BEV / 3D IoU.

Camera frame convention throughout: x right, y down, z forward (meters).
A 3D box is an oriented cuboid whose yaw rotates about the camera y axis;
at yaw 0 the width spans x and the length spans z.

BEV and 3D IoU clip one footprint polygon by the other, except for two
footprints whose circumscribed circles lie clearly apart: their
intersection area is 0.0 without a clip, as the clip would find.  The
clip runs on plain floats; each box builds its footprint once, when it
first reaches the clip, and keeps it (Box3D.footprint).
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

CLIP_EPS = 1e-12


class BehindCamera(ValueError):
    """Raised when a box corner lies at or behind the camera plane (z <= 0)."""


def data_outcome(fn, *args):
    """fn(*args), or the ValueError it raises, as an outcome: a data
    failure is a ValueError, which a batch call returns in its item's
    place and a one-item call raises (single_result)."""
    try:
        return fn(*args)
    except ValueError as exc:
        return exc


def single_result(outcomes):
    """The outcome of a one-item batch call, raised if it is a ValueError:
    the inverse of data_outcome."""
    (outcome,) = outcomes
    if isinstance(outcome, ValueError):
        raise outcome
    return outcome


def normalize_yaw(yaw):
    """Wrap an angle into [-pi, pi)."""
    return (float(yaw) + math.pi) % (2.0 * math.pi) - math.pi


@dataclass(frozen=True)
class Box2D:
    """Axis-aligned image-plane rectangle in pixels."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __post_init__(self):
        for name in ("xmin", "ymin", "xmax", "ymax"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not (self.xmin < self.xmax and self.ymin < self.ymax):
            raise ValueError(
                "Box2D must be well ordered, got "
                f"({self.xmin}, {self.ymin}, {self.xmax}, {self.ymax})"
            )

    @property
    def width(self):
        return self.xmax - self.xmin

    @property
    def height(self):
        return self.ymax - self.ymin

    @property
    def area(self):
        return self.width * self.height


@dataclass(frozen=True)
class Box3D:
    """Oriented 3D box: geometric center (X, Y, Z), dims (W, H, L), yaw.

    The center is the centroid of the cuboid, not the KITTI bottom-face
    point; yaw is stored normalized to [-pi, pi).
    """

    center: tuple
    dims: tuple
    yaw: float

    def __post_init__(self):
        center = tuple(float(v) for v in self.center)
        dims = tuple(float(v) for v in self.dims)
        if len(center) != 3 or len(dims) != 3:
            raise ValueError("center and dims must be 3-vectors")
        if not all(math.isfinite(v) for v in (*center, *dims, self.yaw)):
            raise ValueError("box fields must be finite")
        if min(dims) <= 0.0:
            raise ValueError(f"dims must be strictly positive, got {dims}")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "yaw", normalize_yaw(self.yaw))

    @property
    def volume(self):
        w, h, length = self.dims
        return w * h * length

    @functools.cached_property
    def footprint(self):
        """footprint_polygon as (x, z) pairs of plain floats, built on
        first use and kept; not a field, so equality, hashing and repr
        ignore it."""
        return tuple(map(tuple, footprint_polygon(self).tolist()))


def rotations_about_y(yaws):
    """The 3x3 rotation matrix about the camera y axis of each yaw, as one
    (N, 3, 3) stack, from math's cosine and sine of each."""
    flat = []
    for yaw in yaws:
        c, s = math.cos(yaw), math.sin(yaw)
        flat += (c, 0.0, s, 0.0, 1.0, 0.0, -s, 0.0, c)
    return np.array(flat).reshape(-1, 3, 3)


# Half-extent signs for the 8 corners: bottom face (y = +H/2, camera y points
# down) first, counter-clockwise in the x-z plane; top face in the same x-z
# order.  Vertical edges pair corner i with corner i + 4.
_CORNER_SIGNS = np.array(
    [
        [+1, +1, +1],
        [-1, +1, +1],
        [-1, +1, -1],
        [+1, +1, -1],
        [+1, -1, +1],
        [-1, -1, +1],
        [-1, -1, -1],
        [+1, -1, -1],
    ],
    dtype=float,
)


def stacked_corner_offsets(dims, rotations):
    """Rotated offsets of the 8 corners from the box center for each (dims,
    rotation) pair, as one (N, 8, 3) stack, for N dims (W, H, L) and
    rotations (N, 3, 3) from rotations_about_y.  Each slice of the stacked
    matrix product makes the call that one box's own product would."""
    local = _CORNER_SIGNS * (0.5 * np.asarray(dims, dtype=float))[:, None, :]
    return local @ rotations.transpose(0, 2, 1)


def box3d_corners(box):
    """8 corner points of a Box3D in the camera frame, shape (8, 3)."""
    return np.asarray(box.center) + stacked_corner_offsets(
        [box.dims], rotations_about_y([box.yaw]))[0]


def project_points(points, p):
    """Project (N, 3) camera-frame points through a 3x4 matrix to pixels."""
    points = np.asarray(points, dtype=float)
    hom = points @ p[:, :3].T + p[:, 3]
    return hom[:, :2] / hom[:, 2:3]


def project_boxes(boxes, p):
    """For each 3D box, the axis-aligned pixel hull of its 8 projected
    corners, or the ValueError that rejects it: BehindCamera when any
    corner has camera-frame z <= 0, or Box2D's own for a hull that is not
    well ordered.  The corners of the boxes ahead of the camera are
    projected as one (R * 8, 3) matrix product, whose rows round as each
    box's own (8, 3) product does."""
    p = np.asarray(p, dtype=float)
    if not boxes:
        return []
    corners = np.array([box.center for box in boxes])[:, None, :] + (
        stacked_corner_offsets([box.dims for box in boxes],
                               rotations_about_y([box.yaw for box in boxes])))
    behind = (corners[:, :, 2] <= 0.0).any(axis=1).tolist()
    if any(behind):
        corners = corners[np.logical_not(behind)]
    uv = project_points(corners.reshape(-1, 3), p).reshape(-1, 8, 2)
    hulls = iter(zip(uv.min(axis=1).tolist(), uv.max(axis=1).tolist()))
    out = []
    for box, back in zip(boxes, behind):
        if back:
            out.append(BehindCamera(
                f"box at {box.center} has corners with z <= 0"))
            continue
        (umin, vmin), (umax, vmax) = next(hulls)
        out.append(data_outcome(Box2D, umin, vmin, umax, vmax))
    return out


def project_box(box, p):
    """Axis-aligned pixel hull of the 8 projected corners of a 3D box;
    the one-box call of project_boxes.

    Raises BehindCamera when any corner has camera-frame z <= 0.
    """
    return single_result(project_boxes([box], p))


def iou_2d(a, b):
    """Intersection over union of two axis-aligned rectangles."""
    iw = min(a.xmax, b.xmax) - max(a.xmin, b.xmin)
    ih = min(a.ymax, b.ymax) - max(a.ymin, b.ymin)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    return inter / (a.area + b.area - inter)


def footprint_polygon(box):
    """Ground-plane (x, z) rectangle of a Box3D, counter-clockwise, (4, 2)."""
    corners = box3d_corners(box)
    return corners[:4][:, [0, 2]]


def polygon_area(poly):
    """Shoelace area of a counter-clockwise polygon, (N, 2).

    The sums are two np.dot calls, each of a strided column and a
    contiguous gathered copy: BLAS picks its summation order by layout,
    and a plain-float loop does not reproduce it bit for bit."""
    n = len(poly)
    if n < 3:
        return 0.0
    x, y = poly[:, 0], poly[:, 1]
    nxt = np.arange(1, n + 1) % n
    return 0.5 * float(np.dot(x, y[nxt]) - np.dot(x[nxt], y))


def clip_polygon(subject, clip):
    """Sutherland-Hodgman clip of a convex subject polygon by a convex clip
    polygon.  Both counter-clockwise sequences of (x, y) pairs; plain
    floats are fastest.  Returns the (possibly empty) intersection
    polygon, (N, 2)."""
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
        # Signed distance from the edge line; interior of a CCW polygon is
        # on the positive side.
        side = [ex * (vy - ay) - ey * (vx - ax) for vx, vy in vertices]
        for j in range(m):
            k = (j + 1) % m
            (cx, cy), s_c = vertices[j], side[j]
            (dx, dy), s_d = vertices[k], side[k]
            if s_c >= -CLIP_EPS:
                output.append((cx, cy))
            if (s_c >= -CLIP_EPS) != (s_d >= -CLIP_EPS):
                t = s_c / (s_c - s_d)
                output.append((cx + t * (dx - cx), cy + t * (dy - cy)))
    if len(output) < 3:
        return np.zeros((0, 2))
    return np.array(output)


def _footprints_apart(a, b):
    """Whether the x-z distance between the centers exceeds the sum of the
    footprints' half-diagonals by more than the clip's tolerance (CLIP_EPS
    over the shortest edge, doubled) plus 1e-9 of the coordinates' scale,
    far above their rounding.  No point of one footprint then comes within
    the clip's tolerance of the other, and the clip would find no area."""
    (ax, _, az), (bx, _, bz) = a.center, b.center
    (aw, _, al), (bw, _, bl) = a.dims, b.dims
    reach = 0.5 * (math.hypot(aw, al) + math.hypot(bw, bl))
    slack = (2.0 * CLIP_EPS / min(aw, al, bw, bl)
             + 1e-9 * (reach + abs(ax) + abs(az) + abs(bx) + abs(bz)))
    return math.hypot(ax - bx, az - bz) > reach + slack


def _bev_intersection_area(a, b):
    # clip in a canonical operand order so iou_*(a, b) == iou_*(b, a)
    # exactly despite floating-point rounding in the clipper
    if (b.center, b.dims, b.yaw) < (a.center, a.dims, a.yaw):
        a, b = b, a
    if _footprints_apart(a, b):
        return 0.0
    inter = clip_polygon(a.footprint, b.footprint)
    return max(0.0, polygon_area(inter))


def iou_bev(a, b):
    """IoU of the two yaw-rotated box footprints in the x-z ground plane."""
    area_a = a.dims[0] * a.dims[2]
    area_b = b.dims[0] * b.dims[2]
    # rounding in the clip can carry the intersection past either area
    inter = min(_bev_intersection_area(a, b), area_a, area_b)
    if inter <= 0.0:
        return 0.0
    return inter / (area_a + area_b - inter)


def _y_overlap(a, b):
    a_lo, a_hi = a.center[1] - a.dims[1] / 2.0, a.center[1] + a.dims[1] / 2.0
    b_lo, b_hi = b.center[1] - b.dims[1] / 2.0, b.center[1] + b.dims[1] / 2.0
    return max(0.0, min(a_hi, b_hi) - max(a_lo, b_lo))


def iou_3d(a, b):
    """Volumetric IoU: BEV intersection area times vertical overlap."""
    overlap = _y_overlap(a, b)
    if overlap <= 0.0:
        return 0.0
    inter = min(_bev_intersection_area(a, b) * overlap, a.volume,
                b.volume)
    if inter <= 0.0:
        return 0.0
    return inter / (a.volume + b.volume - inter)
