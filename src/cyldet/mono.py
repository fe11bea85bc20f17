"""Monocular pose recovery and spatial scattering of 3D seed points.

Given a tight 2D detection plus regressed dims and heading, each corner
configuration assigns one 3D box corner to each 2D box side (left, right,
top, bottom).  Pinning the assigned corner's image coordinate to its side
yields, after cross-multiplying the projection, one linear constraint on
the unknown translation per side; the 4x3 system is solved by least
squares.  The configuration whose re-projected box best overlaps the 2D
box wins.

The constraint system depends only on the 2D box and the projection, so
it is built and factored once per caller.  A configuration picks one of
the eight corners for each side, so the right-hand sides of all
configurations come from one 4x8 table (every side against every
corner), and one batched matrix product solves a whole configuration
table: the agreement search passes its search table, solve_translation
and the two re-solves of spatial_scatter (which share one system) a
one-row table.  The scatter re-solves skip the feasibility check.

The search tables, built once at import, hold only the non-degenerate
configurations (3136 of the full 4096, 96 of the reduced 128): a
configuration that pins one corner to two opposite sides forces that
corner onto the camera plane and is never feasible.  Of the solved rows,
only those with the center ahead of the camera go on to the per-corner
feasibility and overlap tests; the others are infeasible by the first
test.
"""

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Box2D, Box3D, corner_offsets, iou_2d, project_box

RANK_RCOND = 1e-10
DEFAULT_RESIDUAL_CAP = 10.0


class SingularSystem(ValueError):
    """The 4x3 constraint system cannot determine a translation."""


class NoFeasibleConfiguration(RuntimeError):
    """Every corner configuration was infeasible for the given inputs."""


def check_residual_cap(residual_cap):
    """ValueError unless the search's pixel residual cap is above 0."""
    # negated, so that NaN is rejected too
    if not residual_cap > 0.0:
        raise ValueError("residual_cap must be positive")


@dataclass(frozen=True)
class CornerConfiguration:
    """Assignment of a 3D corner index (0..7) to each 2D box side."""

    left: int
    right: int
    top: int
    bottom: int

    def __post_init__(self):
        for name in ("left", "right", "top", "bottom"):
            side = int(getattr(self, name))
            if not 0 <= side <= 7:
                raise ValueError("corner indices must be in 0..7")
            object.__setattr__(self, name, side)

    @property
    def index(self):
        return ((self.left * 8 + self.right) * 8 + self.top) * 8 + self.bottom

    def as_array(self):
        return np.array([self.left, self.right, self.top, self.bottom])


@dataclass(frozen=True)
class MonoEstimate:
    box2d: Box2D
    dims: tuple
    yaw: float
    solved_center: tuple
    best_config: CornerConfiguration
    agreement: float
    residual: float


@dataclass(frozen=True)
class ScatterParams:
    """Size-deviation ratio s in (0, 1) and seed stride in meters."""

    s: float = 0.5
    stride: float = 1.6

    def __post_init__(self):
        if not 0.0 < self.s < 1.0:
            raise ValueError(f"s must be in (0, 1), got {self.s}")
        if self.stride <= 0.0:
            raise ValueError(f"stride must be positive, got {self.stride}")


@dataclass(frozen=True)
class ScatterResult:
    """Equally spaced seed points on the segment between the extreme-size
    solutions p1 (shrunk dims, nearer) and p2 (grown dims, farther)."""

    seed_points: np.ndarray
    p1: np.ndarray
    p2: np.ndarray

    def __post_init__(self):
        seeds = np.asarray(self.seed_points, dtype=float).reshape(-1, 3)
        seeds.flags.writeable = False
        object.__setattr__(self, "seed_points", seeds)
        object.__setattr__(self, "p1", np.asarray(self.p1, dtype=float))
        object.__setattr__(self, "p2", np.asarray(self.p2, dtype=float))

    def __len__(self):
        return self.seed_points.shape[0]


def _side_system(box2d, p):
    """Constraint rows for [left, right, top, bottom] and their
    pseudo-inverse: (a, k, coords, rows, pinv).

    Side i with image coordinate q_i taken from projection row r_i gives
    a_i . (T + o) + k_i = 0 with a_i = P[r_i,:3] - q_i P[2,:3].  Raises
    SingularSystem when the constraint matrix is rank deficient.
    """
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


def _config_table(config):
    """One-row configuration table for the scalar solves.  Raises
    SingularSystem for a configuration that pins one corner to two
    opposite sides, which forces that corner onto the camera plane."""
    if config.left == config.right or config.top == config.bottom:
        raise SingularSystem(
            "configuration pins one corner to two opposite sides, which "
            "forces the corner onto the camera plane"
        )
    return config.as_array()[None, :]


def _solve_configs(system, offsets, configs):
    """Least-squares translations (M, 3) of an (M, 4) configuration table
    for the corner offsets (8, 3)."""
    a, k, _, _, pinv = system
    tiled = np.repeat(offsets[:, None, :], 4, axis=1)         # (8, 4, 3)
    b8 = -(np.einsum("ij,mij->mi", a, tiled) + k)              # (8, 4)
    return b8[configs, np.arange(4)] @ pinv.T


def _feasibility(system, sel_offsets, p, centers, residual_cap):
    """(rms pixel residuals (M,), feasible (M,)) of solved translations.

    A solution is infeasible when its center lies behind the camera, a
    constrained corner projects behind it, the side ordering is violated,
    or the residual exceeds the cap.
    """
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


def solve_translation(box2d, dims, yaw, config, p, residual_cap=DEFAULT_RESIDUAL_CAP):
    """Least-squares translation for one corner configuration.

    Returns (center (3,), rms pixel residual) or None when the solution is
    geometrically infeasible (center behind the camera, mirror-image
    projection, side ordering violated, or residual above the cap).
    Raises SingularSystem for rank-deficient or structurally degenerate
    configurations (one corner pinned to both members of opposite sides).
    """
    table = _config_table(config)
    offsets = corner_offsets(dims, yaw)
    system = _side_system(box2d, p)
    centers = _solve_configs(system, offsets, table)
    rms, feasible = _feasibility(system, offsets[table], p, centers,
                                 residual_cap)
    if not feasible[0]:
        return None
    return centers[0], float(rms[0])


def enumerate_configurations(reduced=False):
    """Corner-index table of candidate configurations, shape (M, 4).

    The full set enumerates all 4096 side-to-corner assignments.  The
    reduced 128-entry set assumes an upright box and a zero-skew
    projection: the horizontal extremes then lie on one of the four
    vertical edges (whose two corners share their horizontal image
    coordinate, so the bottom corner represents the edge), and the
    vertical extremes lie on a depth-extreme footprint corner, the top on
    the upper face and the bottom on the lower face, with the two corners
    either sharing a footprint corner or sitting on antipodal ones.
    """
    if not reduced:
        idx = np.arange(4096)
        return np.stack(
            [(idx >> 9) & 7, (idx >> 6) & 7, (idx >> 3) & 7, idx & 7], axis=1
        )
    vertical_patterns = ((0, 0), (1, 1), (2, 2), (3, 3),
                         (0, 2), (2, 0), (1, 3), (3, 1))
    rows = []
    for left in range(4):
        for right in range(4):
            for top_fp, bottom_fp in vertical_patterns:
                rows.append((left, right, top_fp + 4, bottom_fp))
    return np.array(rows)


def _search_table(reduced):
    """The non-degenerate rows of a configuration set, read-only, and
    their base-8 configuration indices."""
    configs = enumerate_configurations(reduced=reduced)
    configs = configs[(configs[:, 0] != configs[:, 1])
                      & (configs[:, 2] != configs[:, 3])]
    index = configs @ np.array([512, 64, 8, 1])
    for table in (configs, index):
        table.flags.writeable = False
    return configs, index


# keyed by the reduced flag
_SEARCH_TABLES = {reduced: _search_table(reduced) for reduced in (False, True)}


def geometric_agreement_search(
    box2d, dims, yaw, p, residual_cap=DEFAULT_RESIDUAL_CAP, reduced=False
):
    """Best-overlap translation over the corner configuration set.

    Every non-degenerate configuration is solved by least squares;
    feasible candidates are scored by the 2D IoU between the input box and
    the axis-aligned hull of their re-projected corners.  Ties resolve by
    smaller pixel residual, then lower configuration index.
    """
    p = np.asarray(p, dtype=float)
    offsets = corner_offsets(dims, yaw)
    configs, config_index = _SEARCH_TABLES[bool(reduced)]
    try:
        system = _side_system(box2d, p)
    except SingularSystem as exc:
        raise NoFeasibleConfiguration(str(exc)) from exc
    centers = _solve_configs(system, offsets, configs)
    ahead = centers[:, 2] > 0.0
    centers, configs, config_index = (
        centers[ahead], configs[ahead], config_index[ahead])
    # the same gather as offsets[configs], about four times faster
    sel_offsets = np.take(offsets, configs, axis=0)   # (M, 4, 3)
    rms, feasible = _feasibility(system, sel_offsets, p, centers, residual_cap)
    if not np.any(feasible):
        raise NoFeasibleConfiguration(
            "no corner configuration yields a feasible translation"
        )

    centers_f = centers[feasible]
    rms_f = rms[feasible]
    configs_f = configs[feasible]
    index_f = config_index[feasible]
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

    best = np.lexsort((index_f, rms_f, -iou))[0]
    best_config = CornerConfiguration(*configs_f[best])
    center = centers_f[best]
    agreement = iou_2d(
        box2d, project_box(Box3D(tuple(center), tuple(dims), yaw), p)
    )
    return MonoEstimate(
        box2d=box2d,
        dims=tuple(float(d) for d in dims),
        yaw=float(yaw),
        solved_center=tuple(float(c) for c in center),
        best_config=best_config,
        agreement=float(agreement),
        residual=float(rms_f[best]),
    )


def spatial_scatter(est, params, p):
    """Seed points between the shrunk- and grown-dims re-solves of the
    winning configuration.

    Both extremes keep the configuration fixed; the segment between their
    centers is divided into ceil(len / stride) seeds (at least one),
    starting at the shrunk-dims end and spaced len / n apart.
    """
    dims = np.asarray(est.dims, dtype=float)
    table = _config_table(est.best_config)
    system = _side_system(est.box2d, p)
    p1, p2 = (
        _solve_configs(system, corner_offsets(dims * scale, est.yaw), table)[0]
        for scale in (1.0 - params.s, 1.0 + params.s)
    )
    span = float(np.linalg.norm(p2 - p1))
    count = max(1, math.ceil(span / params.stride))
    steps = np.arange(count, dtype=float)[:, None] / count
    seeds = p1 + steps * (p2 - p1)
    return ScatterResult(seed_points=seeds, p1=p1, p2=p2)
