"""Codecs between raw network-style outputs and box quantities.

Location offsets are squashed through a sigmoid so the decoded point can
never leave the proposal's per-axis bounds.  The sigmoid (``expit``) and
its inverse (``logit``) are scalar float64 functions on Python's ``math``
(the C library's exp, log and log1p) in the form of ``scipy.special``, so
they give scipy's bits without importing it.  Rotation and size use a
hybrid class-plus-residual parameterization: rotation bins equally divide
[0, pi), size classes are k-means clusters of (H, W, L) training dims.
"""

import math
from dataclasses import dataclass, field

import numpy as np


class OutOfBounds(ValueError):
    pass


class NonPositiveDims(ValueError):
    pass


class InsufficientData(ValueError):
    pass


@dataclass(frozen=True)
class ProposalRegion:
    """Standing-cylinder region: center, ground-plane radius, vertical band,
    and the per-axis location-decode bounds (m_x, m_y, m_z)."""

    center: tuple
    radius: float = 2.0
    y_extent: tuple = (-1.0, 3.0)
    bounds: tuple = (2.0, 2.0, 2.0)

    def __post_init__(self):
        bounds = tuple(float(v) for v in self.bounds)
        y_extent = tuple(float(v) for v in self.y_extent)
        if len(bounds) != 3:
            raise ValueError("bounds must be a 3-vector")
        if not (math.isfinite(self.radius) and self.radius > 0.0):
            raise ValueError("radius must be finite and positive")
        if not all(math.isfinite(b) and b > 0.0 for b in bounds):
            raise ValueError("bounds must be finite and positive")
        if not y_extent[0] < y_extent[1]:
            raise ValueError("y_extent must be ordered")
        object.__setattr__(self, "center", _region_center(self.center))
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "y_extent", y_extent)
        object.__setattr__(self, "radius", float(self.radius))

    def recentered(self, center):
        """This region moved to center; the radius, band and bounds, checked
        when this region was made, are copied as they are."""
        region = object.__new__(ProposalRegion)
        region.__dict__.update(self.__dict__, center=_region_center(center))
        return region


def _region_center(center):
    center = tuple(map(float, center))
    if len(center) != 3:
        raise ValueError("center must be a 3-vector")
    if not all(map(math.isfinite, center)):
        raise ValueError("center must be finite")
    return center


def expit(x):
    """Logistic sigmoid 1 / (1 + exp(-x)) of a float, as scipy.special.expit
    computes it; 0.0 where exp(-x) overflows."""
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:
        return 0.0


def logit(p):
    """Inverse of expit, as scipy.special.logit computes it: log(p / (1 - p))
    outside [0.3, 0.65], and log1p(s) - log1p(-s) with s = 2 * (p - 0.5)
    inside, where the plain form loses precision.  -inf at 0, +inf at 1,
    nan outside [0, 1]."""
    if 0.3 <= p <= 0.65:
        s = 2.0 * (p - 0.5)
        return math.log1p(s) - math.log1p(-s)
    if p == 0.0:
        return -math.inf
    if p == 1.0:
        return math.inf
    if not 0.0 < p < 1.0:
        return math.nan
    return math.log(p / (1.0 - p))


def decode_location(t, region):
    """Map raw (t_x, t_y, t_z) into a point bounded by the region:
    axis = center + 2 * (sigmoid(t) - 0.5) * bound, one float per axis."""
    return np.array([
        c + 2.0 * (expit(float(v)) - 0.5) * m
        for v, c, m in zip(t, region.center, region.bounds, strict=True)
    ])


def encode_location(target, region):
    """Inverse of decode_location; the target must lie strictly inside the
    per-axis bounds."""
    off = [float(v) - c for v, c in zip(target, region.center, strict=True)]
    m = region.bounds
    if any(abs(o) >= b for o, b in zip(off, m)):
        raise OutOfBounds(
            f"target offset {tuple(off)} not strictly inside bounds {m}"
        )
    return np.array([logit(o / (2.0 * b) + 0.5) for o, b in zip(off, m)])


def objectness(t_o):
    """Sigmoid squashing of the raw objectness output, in float64.  A NaN
    output raises ValueError, as no threshold would reject it; +inf gives
    1.0 and -inf 0.0."""
    t_o = float(t_o)
    if math.isnan(t_o):
        raise ValueError("objectness output is NaN")
    return expit(t_o)


@dataclass(frozen=True)
class RotationBins:
    """Equal partition of [0, pi) into n_bins heading bins."""

    n_bins: int

    def __post_init__(self):
        if self.n_bins < 1:
            raise ValueError("n_bins must be >= 1")

    @property
    def width(self):
        return math.pi / self.n_bins


HOT_LOGIT = 10.0


def encode_rotation(yaw, bins):
    """Encode a heading as (logits, residuals) over the rotation bins.

    The heading is folded into [0, pi) first; the residual is stored at
    the target bin, in radians from the bin's center.
    """
    yaw = float(yaw) % math.pi
    idx = min(int(yaw / bins.width), bins.n_bins - 1)
    logits = np.zeros(bins.n_bins)
    logits[idx] = HOT_LOGIT
    residuals = np.zeros(bins.n_bins)
    residuals[idx] = yaw - (idx + 0.5) * bins.width
    return logits, residuals


def decode_rotation(logits, residuals, bins):
    """Heading in [0, pi) from the winning bin center plus its residual."""
    logits = np.asarray(logits, dtype=float)
    residuals = np.asarray(residuals, dtype=float)
    if logits.shape != (bins.n_bins,) or residuals.shape != (bins.n_bins,):
        # the head and the config disagree on the bins: a wiring bug, not data
        raise TypeError("encoding arity does not match the bin count")
    idx = int(np.argmax(logits))
    return ((idx + 0.5) * bins.width + residuals[idx]) % math.pi


@dataclass(frozen=True)
class SizeClusters:
    """k-means centroids of box dims in (H, W, L) order."""

    centroids: np.ndarray
    sse: float = 0.0
    sse_history: tuple = field(default=(), compare=False)

    def __post_init__(self):
        c = np.asarray(self.centroids, dtype=float).reshape(-1, 3)
        if len(c) == 0:
            raise ValueError("centroids must hold at least one cluster")
        if not np.isfinite(c).all():
            raise ValueError("centroids must be finite")
        if np.any(c <= 0.0):
            raise ValueError("centroids must be strictly positive")
        # a set of row tuples, not np.unique(c, axis=0), which imports
        # numpy.ma
        if len({tuple(row) for row in c.tolist()}) != len(c):
            raise ValueError("centroids must be distinct")
        c.flags.writeable = False
        object.__setattr__(self, "centroids", c)

    @property
    def n_clusters(self):
        return self.centroids.shape[0]

    def assign(self, dims):
        d = self.centroids - np.asarray(dims, dtype=float)
        return int(np.argmin(np.einsum("ij,ij->i", d, d)))


def _kmeans_pp_init(data, k, rng):
    centroids = [data[rng.integers(len(data))]]
    for _ in range(1, k):
        d2 = np.min(
            [np.sum((data - c) ** 2, axis=1) for c in centroids], axis=0
        )
        total = d2.sum()
        if total <= 0.0:
            # all remaining points coincide with a centroid; pick any new one
            remaining = np.ones(len(data), dtype=bool)
            probs = remaining / remaining.sum()
        else:
            probs = d2 / total
        centroids.append(data[rng.choice(len(data), p=probs)])
    return np.array(centroids)


def _lloyd(data, centroids, max_iter=100):
    assignment = None
    history = []
    for _ in range(max_iter):
        d2 = ((data[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_assignment = np.argmin(d2, axis=1)
        history.append(float(d2[np.arange(len(data)), new_assignment].sum()))
        if assignment is not None and np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
        for j in range(len(centroids)):
            members = data[assignment == j]
            if len(members):
                centroids[j] = members.mean(axis=0)
    return centroids, assignment, history


KMEANS_RESTARTS = 10


def check_cluster_count(n_clusters):
    """ValueError unless at least one size cluster is asked for."""
    if n_clusters < 1:
        raise ValueError("n_clusters must be >= 1")


def fit_size_clusters(dims, n_clusters, seed):
    """Lloyd's k-means over (H, W, L) rows with k-means++ seeding.

    dims may be an (N, 3) array or a list of labels exposing box3d; the
    best of KMEANS_RESTARTS seeded restarts (by within-cluster SSE) is
    returned.
    """
    check_cluster_count(n_clusters)
    data = _dims_array(dims)
    if len(np.unique(data, axis=0)) < n_clusters:
        raise InsufficientData(
            f"need at least {n_clusters} distinct dim triples, "
            f"got {len(np.unique(data, axis=0))}"
        )
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(KMEANS_RESTARTS):
        centroids = _kmeans_pp_init(data, n_clusters, rng)
        centroids, _, history = _lloyd(data, centroids)
        if best is None or history[-1] < best[1][-1]:
            best = (centroids, history)
    centroids, history = best
    order = np.lexsort(centroids.T[::-1])
    return SizeClusters(centroids[order], sse=history[-1], sse_history=tuple(history))


def _dims_array(dims):
    if hasattr(dims, "__len__") and len(dims) and hasattr(dims[0], "box3d"):
        rows = []
        for lab in dims:
            w, h, length = lab.box3d.dims
            rows.append((h, w, length))
        return np.array(rows, dtype=float)
    return np.asarray(dims, dtype=float).reshape(-1, 3)


def encode_size(dims_hwl, clusters):
    """Encode (H, W, L) as cluster logits plus per-cluster residuals; the
    winning cluster's residual is dims - centroid."""
    dims_hwl = np.asarray(dims_hwl, dtype=float)
    idx = clusters.assign(dims_hwl)
    logits = np.zeros(clusters.n_clusters)
    logits[idx] = HOT_LOGIT
    residuals = np.zeros((clusters.n_clusters, 3))
    residuals[idx] = dims_hwl - clusters.centroids[idx]
    return logits, residuals


def decode_size(logits, residuals, clusters):
    """(H, W, L) from the winning centroid plus its residual triple."""
    logits = np.asarray(logits, dtype=float)
    residuals = np.asarray(residuals, dtype=float).reshape(-1, 3)
    if logits.shape != (clusters.n_clusters,) or len(residuals) != clusters.n_clusters:
        raise TypeError("encoding arity does not match the cluster count")
    idx = int(np.argmax(logits))
    dims = clusters.centroids[idx] + residuals[idx]
    if np.any(dims <= 0.0):
        raise NonPositiveDims(f"decoded dims {tuple(dims)} not strictly positive")
    return dims


def save_size_clusters(clusters, path):
    """Persist centroids as one 'H W L' line per cluster."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in clusters.centroids:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def load_size_clusters(path):
    """SizeClusters from a file of one 'H W L' line per cluster, blank
    lines skipped; a ValueError names the path, and the line of a line
    that is not three numbers."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for n, line in enumerate(fh, 1):
            tokens = line.split()
            if not tokens:
                continue
            try:
                row = [float(t) for t in tokens]
            except ValueError:
                row = ()
            if len(row) != 3:
                raise ValueError(f"{path}: line {n}: want three numbers "
                                 f"H W L, got {line.strip()!r}")
            rows.append(row)
    try:
        return SizeClusters(np.array(rows))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class RpnOutput:
    """Region-proposal head output: location offsets plus raw objectness."""

    t_loc: tuple
    t_obj: float

    def __post_init__(self):
        t = tuple(float(v) for v in self.t_loc)
        if len(t) != 3:
            raise ValueError("t_loc must be a 3-vector")
        object.__setattr__(self, "t_loc", t)


@dataclass(frozen=True)
class BrnOutput:
    """Box-regression head output: location, rotation cls+reg, size cls+reg."""

    t_loc: tuple
    rot_logits: np.ndarray
    rot_residuals: np.ndarray
    size_logits: np.ndarray
    size_residuals: np.ndarray

    def __post_init__(self):
        t = tuple(float(v) for v in self.t_loc)
        if len(t) != 3:
            raise ValueError("t_loc must be a 3-vector")
        rl = np.asarray(self.rot_logits, dtype=float).ravel()
        rr = np.asarray(self.rot_residuals, dtype=float).ravel()
        sl = np.asarray(self.size_logits, dtype=float).ravel()
        sr = np.asarray(self.size_residuals, dtype=float).reshape(-1, 3)
        if rl.shape != rr.shape:
            raise ValueError("rotation logits and residuals disagree in length")
        if sl.shape[0] != sr.shape[0]:
            raise ValueError("size logits and residuals disagree in length")
        object.__setattr__(self, "t_loc", t)
        for name, arr in (
            ("rot_logits", rl),
            ("rot_residuals", rr),
            ("size_logits", sl),
            ("size_residuals", sr),
        ):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
