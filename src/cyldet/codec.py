"""Codecs between raw network-style outputs and box quantities.

Location offsets are squashed through a sigmoid so the decoded point can
never leave the proposal's per-axis bounds.  The sigmoid (``expit``) and
its inverse (``logit``) are scalar float64 functions on Python's ``math``
(the C library's exp, log and log1p) in the form of ``scipy.special``, so
they give scipy's bits without importing it.  The location codec is one
pair of functions on plain floats, decode_location_floats and
encode_location_floats, which return tuples; the pipeline carries a
proposal's location in them, and decode_location and encode_location are
their numpy 3-vectors.  Rotation and size use a hybrid class-plus-residual
parameterization: rotation bins equally divide [0, pi), size classes are
k-means clusters of (H, W, L) training dims.  Logits that hold a NaN pick
no class: their row decodes to NanLogits, a ValueError.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import single_result
from .kitti import parse_file, parse_lines


class OutOfBounds(ValueError):
    pass


class NonPositiveDims(ValueError):
    pass


class InsufficientData(ValueError):
    pass


class NanLogits(ValueError):
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


def _offsets(t_loc):
    """A head output's t_loc as three floats; anything else, a value that
    is not a number included, is a wiring bug and raises TypeError."""
    try:
        t = tuple(map(float, t_loc))
    except ValueError as exc:
        raise TypeError(f"t_loc must hold numbers: {exc}") from None
    if len(t) != 3:
        raise TypeError("t_loc must be a 3-vector")
    return t


def decode_location_floats(t, region):
    """Map raw (t_x, t_y, t_z) into a point bounded by the region, as a
    tuple of floats: axis = center + 2 * (sigmoid(t) - 0.5) * bound.  A t
    that is not three numbers is a wiring bug and raises TypeError."""
    (tx, ty, tz), (cx, cy, cz), (mx, my, mz) = (_offsets(t), region.center,
                                                region.bounds)
    return (cx + 2.0 * (expit(tx) - 0.5) * mx,
            cy + 2.0 * (expit(ty) - 0.5) * my,
            cz + 2.0 * (expit(tz) - 0.5) * mz)


def decode_location(t, region):
    """decode_location_floats as a numpy 3-vector."""
    return np.array(decode_location_floats(t, region))


def encode_location_floats(target, region):
    """Inverse of decode_location_floats, as a tuple of floats; the target
    must lie strictly inside the per-axis bounds, or OutOfBounds."""
    x, y, z = target
    (cx, cy, cz), (mx, my, mz) = region.center, region.bounds
    ox, oy, oz = float(x) - cx, float(y) - cy, float(z) - cz
    if abs(ox) >= mx or abs(oy) >= my or abs(oz) >= mz:
        raise OutOfBounds(f"target offset {(ox, oy, oz)} not strictly "
                          f"inside bounds {region.bounds}")
    return (logit(ox / (2.0 * mx) + 0.5), logit(oy / (2.0 * my) + 0.5),
            logit(oz / (2.0 * mz) + 0.5))


def encode_location(target, region):
    """encode_location_floats as a numpy 3-vector."""
    return np.array(encode_location_floats(target, region))


def objectness(t_o):
    """Sigmoid squashing of the raw objectness output, in float64.  A NaN
    output raises ValueError, as no threshold would reject it; +inf gives
    1.0 and -inf 0.0.  An output that is not a number is a wiring bug and
    raises TypeError."""
    try:
        t_o = float(t_o)
    except ValueError as exc:
        raise TypeError(f"objectness output is not a number: {exc}") from None
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


def _float_array(values):
    """values as a float array; a ragged nesting or an item that is not a
    number is a head's wiring bug, not data, and raises TypeError."""
    try:
        return np.asarray(values, dtype=float)
    except ValueError as exc:
        raise TypeError(f"want an array of numbers: {exc}") from None


def rotation_codes(logits, residuals, bins):
    """One head output's rotation logits and residuals as float arrays.
    The arity is checked here, before any stacking: when the head and the
    config disagree on the bins, that is a wiring bug, not data, and it
    raises TypeError."""
    logits = _float_array(logits)
    residuals = _float_array(residuals)
    if logits.shape != (bins.n_bins,) or residuals.shape != (bins.n_bins,):
        raise TypeError("encoding arity does not match the bin count")
    return logits, residuals


def decode_rotations(logits, residuals, bins):
    """For stacked (N, n_bins) logits and residuals, each row's heading in
    [0, pi), its winning bin center plus its residual, or the NanLogits
    that rejects a row whose logits hold a NaN."""
    idx = np.argmax(logits, axis=1)
    yaws = ((idx + 0.5) * bins.width
            + residuals[np.arange(len(idx)), idx]) % math.pi
    nan = np.isnan(logits).any(axis=1).tolist()
    return [NanLogits("rotation logits hold a NaN") if bad else yaw
            for yaw, bad in zip(yaws.tolist(), nan)]


def decode_rotation(logits, residuals, bins):
    """Heading in [0, pi) from the winning bin center plus its residual;
    the one-item call of decode_rotations, which raises its error."""
    logits, residuals = rotation_codes(logits, residuals, bins)
    return single_result(decode_rotations(logits[None], residuals[None], bins))


@dataclass(frozen=True)
class SizeClusters:
    """k-means centroids of box dims in (H, W, L) order."""

    centroids: np.ndarray
    sse: float = 0.0
    sse_history: tuple = field(default=(), compare=False)

    def __post_init__(self):
        c = np.asarray(self.centroids, dtype=float)
        if c.size == 0:
            raise ValueError("centroids must hold at least one cluster")
        if c.ndim != 2 or c.shape[1] != 3:
            raise ValueError(f"centroids must be a (K, 3) array, got shape "
                             f"{c.shape}")
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


def size_codes(logits, residuals, clusters):
    """One head output's size logits and (K, 3) residuals as float arrays,
    checked against the cluster count as rotation_codes checks the bins."""
    logits = _float_array(logits)
    residuals = _float_array(residuals)
    k = clusters.n_clusters
    if logits.shape != (k,) or residuals.size != 3 * k:
        raise TypeError("encoding arity does not match the cluster count")
    return logits, residuals.reshape(k, 3)


def decode_sizes(logits, residuals, clusters):
    """For stacked (N, K) logits and (N, K, 3) residuals, each row's
    winning centroid plus its residual triple, (H, W, L), or the error
    that rejects it: NanLogits for logits that hold a NaN, else
    NonPositiveDims for a triple with a dim at or below 0 (NaN passes)."""
    idx = np.argmax(logits, axis=1)
    dims = clusters.centroids[idx] + residuals[np.arange(len(idx)), idx]
    nan = np.isnan(logits).any(axis=1).tolist()
    small = (dims <= 0.0).any(axis=1).tolist()
    return [NanLogits("size logits hold a NaN") if bad else
            NonPositiveDims(f"decoded dims {tuple(row)} not strictly positive")
            if too_small else row
            for row, bad, too_small in zip(dims, nan, small)]


def decode_size(logits, residuals, clusters):
    """(H, W, L) from the winning centroid plus its residual triple; the
    one-item call of decode_sizes, which raises its error."""
    logits, residuals = size_codes(logits, residuals, clusters)
    return single_result(decode_sizes(logits[None], residuals[None], clusters))


def save_size_clusters(clusters, path):
    """Persist centroids as one 'H W L' line per cluster."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in clusters.centroids:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def _centroid_line(line):
    try:
        row = [float(t) for t in line.split()]
    except ValueError:
        row = ()
    if len(row) != 3:
        raise ValueError(f"want three numbers H W L, got {line!r}")
    return row


def load_size_clusters(path):
    """SizeClusters from a file of one 'H W L' line per cluster, blank
    lines skipped, read by kitti.parse_file: an error names the path, and
    a line that is not three numbers its line number too."""
    return parse_file(path, lambda text: SizeClusters(
        np.array(parse_lines(text, _centroid_line))))


@dataclass(frozen=True)
class RpnOutput:
    """Region-proposal head output: location offsets plus raw objectness.
    A t_loc that is not a 3-vector is a wiring bug and raises TypeError."""

    t_loc: tuple
    t_obj: float

    def __post_init__(self):
        object.__setattr__(self, "t_loc", _offsets(self.t_loc))


@dataclass(frozen=True)
class BrnOutput:
    """Box-regression head output: location, rotation cls+reg, size cls+reg.
    A t_loc that is not a 3-vector, or logits and residuals that disagree
    in length, is a wiring bug and raises TypeError, as rotation_codes
    does."""

    t_loc: tuple
    rot_logits: np.ndarray
    rot_residuals: np.ndarray
    size_logits: np.ndarray
    size_residuals: np.ndarray

    def __post_init__(self):
        t = _offsets(self.t_loc)
        rl = _float_array(self.rot_logits).ravel()
        rr = _float_array(self.rot_residuals).ravel()
        sl = _float_array(self.size_logits).ravel()
        sr = _float_array(self.size_residuals).ravel()
        if rl.shape != rr.shape:
            raise TypeError("rotation logits and residuals disagree in length")
        if sr.size != 3 * sl.size:
            raise TypeError("size logits and residuals disagree in length")
        sr = sr.reshape(-1, 3)
        object.__setattr__(self, "t_loc", t)
        for name, arr in (
            ("rot_logits", rl),
            ("rot_residuals", rr),
            ("size_logits", sl),
            ("size_residuals", sr),
        ):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
