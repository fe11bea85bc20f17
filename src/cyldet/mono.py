"""Monocular pose recovery and spatial scattering of 3D seed points.

Given a tight 2D detection plus regressed dims and heading, each corner
configuration assigns one 3D box corner to each 2D box side (left, right,
top, bottom).  Pinning the assigned corner's image coordinate to its side
yields, after cross-multiplying the projection, one linear constraint on
the unknown translation per side; the 4x3 system is solved by least
squares.  The configuration whose re-projected box best overlaps the 2D
box wins, and that overlap (2D IoU), as the search ranked it, is the
estimate's agreement: the winner is not projected again.

Every object of a frame is searched in one call (agreement_search_frame)
and scattered in one call (spatial_scatter_frame), which takes every s of
the scatter sweep at once: each estimate's rotation is built once, and
both ends of every (s, estimate) pair are solved as one stack.
geometric_agreement_search, solve_translation and spatial_scatter are
one-object calls of the same code.  The constraint system
depends only on the 2D box and the projection, so a frame's systems are
built once, as one (N, 4, 3) stack with one SVD and one stacked
pseudo-inverse: each estimate carries its own, and the re-solves of the
scatter reuse it.
A configuration picks one of the eight corners for each side, so the
right-hand sides of all of an object's configurations come from one 4x8
table (every side against every corner), and one stacked matrix product
solves every object's configuration table: the search passes its search
table, solve_translation and the scatter re-solves a one-row table.  The
scatter re-solves skip the feasibility check.  Stacking changes no bit:
each slice of a stacked matmul, SVD or einsum makes the call that one
object's own product makes, the flat (rows * corners, 3) products keep
each object's rows in their order, and the rest is elementwise or
reduces each row alone.  Every object's outcome is an estimate or a
NoFeasibleConfiguration, and a failing object does not touch its
neighbours' values: the rows of an object whose dims, yaw or 2D box
sides are invalid (checked first, up front) or whose system is rank
deficient are skipped, and nothing warns.

The search tables, built once at import, hold only the non-degenerate
configurations, 3136 of the 4096: a configuration that pins one corner to
two opposite sides forces that corner onto the camera plane and is never
feasible.  When the projection's first and third rows read no y
(P[0, 1] == P[2, 1] == 0, as in KITTI's rectified P2), the two corners of
a vertical edge pin the left and right sides alike, so the search solves
one representative row per distinct configuration: 896 of the 3136 rows.
Of the solved rows, only those with the center ahead of the camera go on
to the per-corner feasibility and overlap tests, as flat (object, row)
pairs; the others are infeasible by the first test.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import Box2D, rotations_about_y, stacked_corner_offsets
# perfbench/layers.py patches these names on this module
from .geometry import iou_2d, project_box  # noqa: F401

RANK_RCOND = 1e-10
# the projection row that each side [left, right, top, bottom] reads
_SIDE_ROWS = np.array([0, 0, 1, 1])
_SIDES = np.arange(4)
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


@dataclass(frozen=True)
class MonoEstimate:
    box2d: Box2D
    dims: tuple
    yaw: float
    solved_center: tuple
    best_config: CornerConfiguration
    agreement: float
    residual: float
    # the search's (box2d, P bytes, (a, k, pinv)) of the box's constraint
    # system, which the scatter reuses for the same box and P
    system: tuple = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class ScatterParams:
    """Size-deviation ratio s in (0, 1) and seed stride in meters."""

    s: float = 0.5
    stride: float = 1.6

    def __post_init__(self):
        if not 0.0 < self.s < 1.0:
            raise ValueError(f"s must be in (0, 1), got {self.s}")
        if not 0.0 < self.stride < math.inf:  # NaN fails too
            raise ValueError(f"stride must be finite and positive, got "
                             f"{self.stride}")


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


def _system_message(box2d, s):
    """The error message of a 2D box whose constraint system _side_systems
    marks singular: a side is not finite, or the singular values s are
    below the rank tolerance."""
    sides = (box2d.xmin, box2d.ymin, box2d.xmax, box2d.ymax)
    if not all(map(math.isfinite, sides)):
        return f"2D box sides must be finite, got {sides}"
    return f"constraint matrix is rank deficient (singular values {s})"


def _side_systems(boxes, p):
    """Constraint rows for [left, right, top, bottom] of each 2D box under
    one projection, and their pseudo-inverses, as one stack:
    (a (N, 4, 3), k (N, 4), coords (N, 4), pinv (N, 3, 4), s (N, 3),
    singular (N,)).

    Side i with image coordinate q_i taken from projection row r_i gives
    a_i . (T + o) + k_i = 0 with a_i = P[r_i,:3] - q_i P[2,:3].  A box
    whose constraint matrix is rank deficient, or that has an infinite
    side, is marked singular, and its system is zeroed, so that solving it
    neither warns nor overflows.  An infinite side's rows are built from a
    zero box instead, whose SVD converges.
    """
    p = np.asarray(p, dtype=float)
    coords = np.array([[b.xmin, b.xmax, b.ymin, b.ymax] for b in boxes],
                      dtype=float).reshape(-1, 4)
    finite = np.all(np.isfinite(coords), axis=1)
    sides = np.where(finite[:, None], coords, 0.0)
    a = p[_SIDE_ROWS, :3] - sides[:, :, None] * p[2, :3]
    k = p[_SIDE_ROWS, 3] - sides * p[2, 3]
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        singular = (s[:, 0] <= 0.0) | (s[:, -1] / s[:, 0] < RANK_RCOND)
        singular |= ~finite
        pinv = (np.swapaxes(vt, 1, 2) / s[:, None, :]) @ np.swapaxes(u, 1, 2)
    a[singular], k[singular], pinv[singular] = 0.0, 0.0, 0.0
    return a, k, coords, pinv, s, singular


def _config_table(config):
    """One-row configuration table for the scalar solves.  Raises
    SingularSystem for a configuration that pins one corner to two
    opposite sides, which forces that corner onto the camera plane."""
    if config.left == config.right or config.top == config.bottom:
        raise SingularSystem(
            "configuration pins one corner to two opposite sides, which "
            "forces the corner onto the camera plane"
        )
    return np.array([[config.left, config.right, config.top, config.bottom]])


def _solve_configs(a, k, pinv, offsets, configs):
    """Least-squares translations (N, M, 3) of N systems (a, k, pinv) for
    their corner offsets (N, 8, 3) and configuration tables configs, one
    (M, 4) table for all or one per system (N, M, 4)."""
    tiled = np.repeat(offsets[:, :, None, :], 4, axis=2)       # (N, 8, 4, 3)
    b8 = -(np.einsum("nij,nmij->nmi", a, tiled) + k[:, None, :])  # (N, 8, 4)
    # rows[n, m, i] = b8[n, configs[.., m, i], i], read from b8's rows of 32
    cols = configs * 4 + _SIDES
    b8 = b8.reshape(len(b8), 32)
    rows = (np.take(b8, cols, axis=1) if cols.ndim == 2
            else np.take_along_axis(b8[:, None, :], cols, axis=2))
    return rows @ np.swapaxes(pinv, 1, 2)


def _all_of_each(mask):
    """mask.all(axis=1) of an (R, 4) or (R, 8) bool array, each row's bytes
    read as one integer: several times faster."""
    dtype, ones = {4: (np.uint32, 0x01010101),
                   8: (np.uint64, 0x0101010101010101)}[mask.shape[1]]
    return np.ascontiguousarray(mask).view(dtype)[:, 0] == ones


def _feasibility(coords, corners, p, centers, residual_cap):
    """(rms pixel residuals (M,), feasible (M,)) of solved translations
    centers (M, 3), with each row's constrained corners (M, 4, 3) and the
    box sides it was solved for (M, 4), or one box's sides (4,).

    A solution is infeasible when its center lies behind the camera, a
    constrained corner projects behind it, the side ordering is violated,
    or the residual exceeds the cap.
    """
    p = np.asarray(p, dtype=float)
    # one product over the (M * 4, 3) flat corners: the values of the
    # stacked product, several times faster
    w = (corners.reshape(-1, 3) @ p[2, :3]).reshape(-1, 4) + p[2, 3]
    num = (np.einsum("...ij,ij->...i", corners, p[_SIDE_ROWS, :3])
           + p[_SIDE_ROWS, 3])
    with np.errstate(divide="ignore", invalid="ignore"):
        uv = num / w
        residuals = uv - coords
        rms = np.sqrt(np.mean(np.square(residuals, out=residuals), axis=1))
    feasible = (
        (centers[:, 2] > 0.0)
        & _all_of_each(w > 0.0)
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
    configurations (one corner pinned to both members of opposite sides),
    and ValueError for a residual cap not above 0.
    """
    check_residual_cap(residual_cap)
    table = _config_table(config)
    offsets = stacked_corner_offsets([dims], rotations_about_y([yaw]))
    a, k, coords, pinv, s, singular = _side_systems([box2d], p)
    if singular[0]:
        raise SingularSystem(_system_message(box2d, s[0]))
    centers = _solve_configs(a, k, pinv, offsets, table)[0]
    rms, feasible = _feasibility(coords[0], centers[:, None, :]
                                 + offsets[0][table], p, centers, residual_cap)
    if not feasible[0]:
        return None
    return centers[0], float(rms[0])


def enumerate_configurations():
    """Corner-index table of all 4096 side-to-corner assignments, shape
    (4096, 4): row i holds the base-8 digits of i."""
    idx = np.arange(4096)
    return np.stack([(idx >> shift) & 7 for shift in (9, 6, 3, 0)], axis=1)


def _search_table():
    """The non-degenerate rows of the configuration set and their base-8
    configuration indices, read-only, and the same for the representative
    rows: the lowest index of each group of rows with equal (left & 3,
    right & 3, top, bottom), 896 of the 3136 rows."""
    configs = enumerate_configurations()
    configs = configs[(configs[:, 0] != configs[:, 1])
                      & (configs[:, 2] != configs[:, 3])]
    index = configs @ np.array([512, 64, 8, 1])
    # a row's group is its index with left and right taken mod 4; the
    # indices ascend, so a group's first row is its lowest
    kept = np.sort(np.unique(index & ~0o4400, return_index=True)[1])
    tables = (configs, index, configs[kept], index[kept])
    for table in tables:
        table.flags.writeable = False
    return tables[:2], tables[2:]


_SEARCH_TABLES = _search_table()


def agreement_search_frame(boxes, dims, yaws, p,
                           residual_cap=DEFAULT_RESIDUAL_CAP):
    """Best-overlap translation over the corner configuration set, for
    every object (boxes[i], dims[i], yaws[i]) of a frame at once.

    Returns one outcome per object, in object order: its MonoEstimate, or
    the NoFeasibleConfiguration of an object that has none.  An object
    fails, first, when its dims are not all finite and > 0 or its yaw is
    not finite (the message names them), then when a side of its 2D box is
    infinite (named too), then when its constraint matrix is rank
    deficient, then when no configuration is feasible, then when
    every feasible one projects partly behind the camera.  Nothing else
    fails, and a failing object neither warns nor changes its neighbours'
    outcomes: its rows are masked out.

    Every non-degenerate configuration is solved by least squares;
    feasible candidates are scored by the 2D IoU between the input box and
    the axis-aligned hull of their re-projected corners, and the winner's
    IoU is its agreement.  Ties resolve by smaller pixel residual, then
    lower configuration index.  The rows of all objects are solved as one
    stack, tested and scored as one flat list of (object, row) pairs, and
    each object's winner is the first of its rows in one lexsort.

    With P[0, 1] == P[2, 1] == 0 the left and right constraint rows and
    their projections read no y, so corners i and i + 4 (one vertical
    edge) pin those sides alike: the rows of a group (see _search_table)
    solve and score alike, bit for bit, and only its representative, which
    wins their tie, is searched.  A residual cap not above 0 is a
    ValueError, whatever the objects.
    """
    check_residual_cap(residual_cap)
    p = np.asarray(p, dtype=float)
    outcomes = [None] * len(boxes)
    if not outcomes:
        return outcomes
    dims = np.asarray(dims, dtype=float).reshape(-1, 3)
    yaws = np.asarray(yaws, dtype=float)
    bad = ~(np.all(np.isfinite(dims) & (dims > 0.0), axis=1)
            & np.isfinite(yaws))
    # a bad object is searched as a unit cube, so that nothing warns
    offsets = stacked_corner_offsets(
        np.where(bad[:, None], 1.0, dims),
        rotations_about_y(np.where(bad, 0.0, yaws)))
    every_row, representatives = _SEARCH_TABLES
    configs, config_index = (
        representatives if p[0, 1] == 0.0 and p[2, 1] == 0.0 else every_row)
    a, k, coords, pinv, s, singular = _side_systems(boxes, p)
    failed = bad | singular
    for i in np.flatnonzero(failed).tolist():
        outcomes[i] = NoFeasibleConfiguration(
            "dims must be finite and > 0 and yaw finite, got dims "
            f"{tuple(dims[i].tolist())} and yaw {yaws[i]}" if bad[i]
            else _system_message(boxes[i], s[i]))
    m = len(configs)
    centers = _solve_configs(a, k, pinv, offsets, configs).reshape(-1, 3)
    # the rows ahead of the camera, as flat (object, row) pairs in order
    pairs = np.flatnonzero((centers[:, 2] > 0.0) & np.repeat(~failed, m))
    obj, row = np.divmod(pairs, m)
    centers = np.take(centers, pairs, axis=0)                   # (K, 3)
    # each row's constrained corners: offsets[obj, configs[row]] as one flat
    # gather (several times faster), plus the row's center, in place; the
    # temporaries of a dense frame's rows come to about 1 MB
    flat = np.take(configs, row, axis=0)
    flat += (obj * 8)[:, None]
    corners = np.take(offsets.reshape(-1, 3), flat, axis=0)    # (K, 4, 3)
    del flat
    corners += centers[:, None, :]
    rms, feasible = _feasibility(np.take(coords, obj, axis=0), corners,
                                 p, centers, residual_cap)
    kept = np.flatnonzero(feasible)
    obj, row, centers, rms = (
        np.take(v, kept, axis=0) for v in (obj, row, centers, rms))

    # every corner of each feasible row, re-projected (F * 8, 3)
    corners = (np.repeat(centers, 8, axis=0)
               + np.take(offsets, obj, axis=0).reshape(-1, 3))
    with np.errstate(divide="ignore", invalid="ignore"):
        w_all = corners @ p[2, :3] + p[2, 3]
        u_all = (corners @ p[0, :3] + p[0, 3]) / w_all
        v_all = (corners @ p[1, :3] + p[1, 3]) / w_all
    in_front = _all_of_each(((w_all > 0.0) & (corners[:, 2] > 0.0))
                            .reshape(-1, 8))
    # corner-major, so that each reduction over the 8 corners is fast
    u_all, v_all = (x.reshape(-1, 8).T.copy() for x in (u_all, v_all))
    xmin, xmax, ymin, ymax = np.take(coords, obj, axis=0).T
    area = np.take([b.area for b in boxes], obj)
    xmin_c, xmax_c = u_all.min(axis=0), u_all.max(axis=0)
    ymin_c, ymax_c = v_all.min(axis=0), v_all.max(axis=0)
    iw = np.minimum(xmax_c, xmax) - np.maximum(xmin_c, xmin)
    ih = np.minimum(ymax_c, ymax) - np.maximum(ymin_c, ymin)
    inter = np.clip(iw, 0.0, None) * np.clip(ih, 0.0, None)
    area_c = (xmax_c - xmin_c) * (ymax_c - ymin_c)
    with np.errstate(divide="ignore", invalid="ignore"):
        iou = np.where(in_front, inter / (area_c + area - inter), -1.0)

    order = np.lexsort((config_index[row], rms, -iou, obj))
    # each object's first row in that order is its winner; iou is -1 where
    # a corner lies behind the camera, and NaN sorts last, so the winner's
    # is >= 0 unless no row's is
    p_bytes = p.tobytes()
    for best in order[np.diff(obj[order], prepend=-1) != 0].tolist():
        i = int(obj[best])
        if iou[best] >= 0.0:
            outcomes[i] = MonoEstimate(
                box2d=boxes[i],
                dims=tuple(dims[i].tolist()),
                yaw=float(yaws[i]),
                solved_center=tuple(centers[best].tolist()),
                best_config=CornerConfiguration(*configs[row[best]].tolist()),
                agreement=float(iou[best]),
                residual=float(rms[best]),
                system=(boxes[i], p_bytes, (a[i], k[i], pinv[i])),
            )
        else:
            outcomes[i] = NoFeasibleConfiguration(
                "every feasible translation projects partly behind the camera")
    return [
        NoFeasibleConfiguration(
            "no corner configuration yields a feasible translation")
        if outcome is None else outcome
        for outcome in outcomes
    ]


def geometric_agreement_search(box2d, dims, yaw, p,
                               residual_cap=DEFAULT_RESIDUAL_CAP):
    """Best-overlap translation of one object over the corner
    configuration set: agreement_search_frame of this object alone.
    Returns its MonoEstimate, or raises the NoFeasibleConfiguration that
    the frame search returns for it."""
    (outcome,) = agreement_search_frame([box2d], [dims], [yaw], p,
                                        residual_cap)
    if isinstance(outcome, NoFeasibleConfiguration):
        raise outcome
    return outcome


def spatial_scatter_frame(estimates, params, p):
    """Seed points of every estimate of a frame for each of K ScatterParams
    in params: (seeds (S, 3), counts (K, N), p1 (K, N, 3), p2 (K, N, 3))
    for N estimates.  The counts[k].sum() seeds of params[k] follow those
    of the params before it, and within them estimate i's counts[k, i]
    seeds follow those of the estimates before it.

    p1 and p2 re-solve the winning configuration at shrunk and grown dims;
    the segment between them is divided into ceil(len / stride) seeds (at
    least one), starting at p1 and spaced len / n apart.  An estimate's
    constraint system is the search's when it carries the one for its own
    box and this P; the others are built as one stack.  Both ends of every
    (params, estimate) pair are solved as one stacked product of one-row
    tables, so each params gets the bits it gets alone.  Raises
    SingularSystem for a degenerate winning configuration, then for a
    rank-deficient system; with no params or no estimates, nothing is
    solved and nothing raises.
    """
    p = np.asarray(p, dtype=float)
    n, m = len(estimates), len(params)
    if not n * m:
        return (np.zeros((0, 3)), np.zeros((m, n), dtype=int),
                *np.zeros((2, m, n, 3)))
    tables = np.stack([_config_table(est.best_config) for est in estimates])
    p_bytes = p.tobytes()
    systems = [est.system[2] if est.system is not None
               and est.system[0] is est.box2d and est.system[1] == p_bytes
               else None for est in estimates]
    own = [i for i, system in enumerate(systems) if system is None]
    if own:
        a, k, _, pinv, s, singular = _side_systems(
            [estimates[i].box2d for i in own], p)
        for j, i in enumerate(own):
            if singular[j]:
                raise SingularSystem(_system_message(estimates[i].box2d,
                                                     s[j]))
            systems[i] = (a[j], k[j], pinv[j])
    # the ends in (params, shrunk or grown, estimate) order
    scales = np.array([(1.0 - q.s, 1.0 + q.s) for q in params])
    dims = np.array([est.dims for est in estimates], dtype=float)
    every = np.tile(np.arange(n), 2 * m)
    a, k, pinv = (np.stack(part)[every] for part in zip(*systems))
    offsets = stacked_corner_offsets(
        (scales.reshape(-1, 1, 1) * dims).reshape(-1, 3),
        rotations_about_y([est.yaw for est in estimates])[every])
    ends = _solve_configs(a, k, pinv, offsets, tables[every])[:, 0]
    ends = ends.reshape(m, 2, n, 3)
    p1, p2 = ends[:, 0], ends[:, 1]
    span = (p2 - p1).reshape(-1, 3)
    # one 1-D norm per (params, estimate) pair, as np.linalg.norm rounds
    # it: a row-wise norm rounds differently, and the seed count is its
    # ceiling
    strides = [q.stride for q in params for _ in range(n)]
    counts = np.array([max(1, math.ceil(math.sqrt(d.dot(d)) / stride))
                       for d, stride in zip(span, strides)])
    # seed j of a pair sits j / count of the way along its span
    owner = np.repeat(np.arange(n * m), counts)
    j = np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)
    seeds = (p1.reshape(-1, 3)[owner]
             + (j / counts[owner])[:, None] * span[owner])
    return seeds, counts.reshape(m, n), p1, p2


def spatial_scatter(est, params, p):
    """Seed points between the shrunk- and grown-dims re-solves of the
    estimate's winning configuration: spatial_scatter_frame of this
    estimate alone, as a ScatterResult."""
    seeds, _, p1, p2 = spatial_scatter_frame([est], [params], p)
    return ScatterResult(seed_points=seeds, p1=p1[0, 0], p2=p2[0, 0])
