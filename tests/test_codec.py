import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from cyldet import (
    BrnOutput,
    InsufficientData,
    KittiFormatError,
    NanLogits,
    NonPositiveDims,
    OutOfBounds,
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
    fit_size_clusters,
    load_size_clusters,
    objectness,
    save_size_clusters,
)
from cyldet.codec import (
    decode_location_floats,
    decode_rotations,
    decode_sizes,
    encode_location_floats,
    expit,
    logit,
)
from cyldet.pipeline import _clamped_encode
from oracles import _clamped_encode_reference, exact_two_means


@pytest.fixture
def region():
    return ProposalRegion(center=(10.0, 1.0, 25.0), bounds=(2.0, 2.0, 2.0))


class TestLocationCodec:
    def test_zero_maps_to_center(self, region):
        np.testing.assert_allclose(decode_location((0, 0, 0), region),
                                   region.center)

    def test_analytic_sigmoid_point(self):
        region = ProposalRegion(center=(10.0, 0.0, 0.0), bounds=(2.0, 2.0, 2.0))
        decoded = decode_location((math.log(3.0), 0.0, 0.0), region)
        assert decoded[0] == pytest.approx(11.0, abs=1e-12)

    def test_saturation_stays_within_bounds(self, region):
        decoded = decode_location((40.0, -40.0, 40.0), region)
        assert decoded[0] == pytest.approx(region.center[0] + 2.0, abs=1e-6)
        assert decoded[1] == pytest.approx(region.center[1] - 2.0, abs=1e-6)
        off = np.abs(decoded - np.array(region.center))
        assert np.all(off <= np.array(region.bounds))

    def test_encode_center_is_zero(self, region):
        np.testing.assert_allclose(encode_location(region.center, region),
                                   [0, 0, 0], atol=1e-12)

    def test_encode_half_bound_is_log3(self, region):
        target = (region.center[0] + 1.0, region.center[1], region.center[2])
        t = encode_location(target, region)
        assert t[0] == pytest.approx(math.log(3.0), abs=1e-12)

    def test_boundary_excluded(self, region):
        target = (region.center[0] + 2.0, region.center[1], region.center[2])
        with pytest.raises(OutOfBounds):
            encode_location(target, region)

    def test_round_trips(self, region):
        rng = np.random.default_rng(0)
        for _ in range(200):
            target = np.array(region.center) + rng.uniform(-1, 1, 3) * 1.99
            t = encode_location(target, region)
            np.testing.assert_allclose(decode_location(t, region), target,
                                       atol=1e-9)
            np.testing.assert_allclose(
                encode_location(decode_location(t, region), region), t, atol=1e-9
            )

    def test_decoded_never_violates_bounds(self, region):
        rng = np.random.default_rng(1)
        t = rng.uniform(-100, 100, size=(1000, 3))
        for row in t:
            off = np.abs(decode_location(row, region) - np.array(region.center))
            assert np.all(off <= np.array(region.bounds) + 1e-12)


# offsets that saturate the sigmoid, and NaN, beside ordinary ones
_T = st.one_of(st.floats(-800.0, 800.0),
               st.sampled_from([40.0, -40.0, math.nan]))
# centers near the origin, and near +-1e7 m, where the float spacing,
# 2**-29 m, exceeds twice 1e-9 of a bound below 0.93 m
_CENTER = st.one_of(st.floats(-80.0, 80.0), st.floats(1e7 - 50.0, 1e7 + 50.0),
                    st.floats(-1e7 - 50.0, -1e7 + 50.0))
_BOUNDS = st.tuples(*[st.floats(0.1, 5.0)] * 3)


def _all_floats(values):
    return type(values) is tuple and all(type(v) is float for v in values)


class TestLocationFloats:
    """The plain-float location codec, which the pipeline's gate and box
    decode and the oracle heads use: a tuple of Python floats whose numpy
    3-vector is decode_location's or encode_location's, byte for byte,
    and scipy's bits.  The oracle heads' clamp keeps the OutOfBounds
    check where rounding lands the clamped target on the bound."""

    @settings(max_examples=300, deadline=None)
    @given(center=st.tuples(*[_CENTER] * 3), bounds=_BOUNDS,
           t=st.tuples(*[_T] * 3))
    def test_decode(self, center, bounds, t):
        region = ProposalRegion(center=center, bounds=bounds)
        got = decode_location_floats(t, region)
        assert _all_floats(got)
        assert np.array(got).tobytes() == decode_location(t, region).tobytes()
        _assert_same_bits(got, np.asarray(region.center) + 2.0 * (
            special.expit(np.asarray(t)) - 0.5) * np.asarray(region.bounds))
        if any(map(math.isnan, t)):
            # the gate moves the region onto the decoded point, and drops it
            with pytest.raises(ValueError, match="center must be finite"):
                region.recentered(got)

    @settings(max_examples=300, deadline=None)
    @given(center=st.tuples(*[_CENTER] * 3), bounds=_BOUNDS,
           fraction=st.tuples(*[st.floats(-1.0, 1.0)] * 3))
    def test_encode(self, center, bounds, fraction):
        region = ProposalRegion(center=center, bounds=bounds)
        target = np.asarray(region.center) + np.multiply(fraction,
                                                         region.bounds)
        off = target - np.asarray(region.center)
        m = np.asarray(region.bounds)
        if np.any(np.abs(off) >= m):
            for encode in (encode_location_floats, encode_location):
                with pytest.raises(OutOfBounds):
                    encode(target, region)
            return
        got = encode_location_floats(target, region)
        assert _all_floats(got)
        assert np.array(got).tobytes() == encode_location(target,
                                                          region).tobytes()
        _assert_same_bits(got, special.logit(off / (2.0 * m) + 0.5))

    @settings(max_examples=300, deadline=None)
    @given(center=st.tuples(*[_CENTER] * 3), bounds=_BOUNDS,
           offset=st.tuples(*[st.floats(-50.0, 50.0)] * 3))
    def test_clamped_encode(self, center, bounds, offset):
        region = ProposalRegion(center=center, bounds=bounds)
        target = tuple(c + o for c, o in zip(region.center, offset))
        try:
            want = _clamped_encode_reference(target, region)
        except OutOfBounds:
            with pytest.raises(OutOfBounds):
                _clamped_encode(target, region)
            return
        got = _clamped_encode(target, region)
        assert _all_floats(got) and np.array(got).tobytes() == want.tobytes()

    def test_the_clamp_can_land_on_the_bound(self):
        # 1e-9 of a 0.5 m bound is below half the float spacing at 1e7 m,
        # so the target clamped inside the bound rounds onto it
        region = ProposalRegion(center=(1e7, 0.0, 1e7), bounds=(0.5, 0.5, 0.5))
        for clamp in (_clamped_encode, _clamped_encode_reference):
            with pytest.raises(OutOfBounds):
                clamp((1e7 + 5.0, 0.0, 1e7), region)


class TestRotationCodec:
    def test_winning_bin_center(self):
        bins = RotationBins(2)
        yaw = decode_rotation([5.0, 0.0], [0.0, 0.0], bins)
        assert yaw == pytest.approx(math.pi / 4)

    def test_arity_mismatch_is_not_a_data_error(self):
        # a head built for other bins is a wiring bug that must surface,
        # not a ValueError that detection drops as bad data
        logits, residuals = encode_rotation(1.0, RotationBins(12))
        with pytest.raises(TypeError, match="arity"):
            decode_rotation(logits, residuals, RotationBins(8))
        with pytest.raises(TypeError, match="arity"):
            decode_rotation(logits, residuals[:-1], RotationBins(12))

    def test_round_trip(self):
        bins = RotationBins(8)
        logits, residuals = encode_rotation(1.0, bins)
        assert decode_rotation(logits, residuals, bins) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_residual_wraps_into_half_turn(self):
        bins = RotationBins(2)
        raw = math.pi / 4 + math.pi / 2
        expected = raw % math.pi  # modular-arithmetic reference
        got = decode_rotation([5.0, 0.0], [math.pi / 2, 0.0], bins)
        assert got == pytest.approx(expected, abs=1e-12)
        big = decode_rotation([5.0, 0.0], [math.pi, 0.0], bins)
        assert big == pytest.approx((math.pi / 4 + math.pi) % math.pi, abs=1e-12)

    def test_heading_folds_before_encoding(self):
        bins = RotationBins(12)
        logits, residuals = encode_rotation(2.5 + math.pi, bins)
        assert decode_rotation(logits, residuals, bins) == pytest.approx(2.5)

    def test_logit_shift_invariance(self):
        bins = RotationBins(6)
        logits, residuals = encode_rotation(0.9, bins)
        shifted = np.asarray(logits) + 123.4
        assert decode_rotation(shifted, residuals, bins) == decode_rotation(
            logits, residuals, bins
        )

    def test_round_trip_many(self):
        bins = RotationBins(12)
        rng = np.random.default_rng(2)
        for yaw in rng.uniform(0, math.pi, size=200):
            logits, residuals = encode_rotation(yaw, bins)
            assert decode_rotation(logits, residuals, bins) == pytest.approx(
                yaw, abs=1e-9
            )

    @pytest.mark.parametrize("nan_at", [[0], [5], list(range(12))])
    def test_nan_logits_pick_no_bin(self, nan_at):
        # argmax would pick the first NaN's bin and keep a heading
        bins = RotationBins(12)
        logits, residuals = encode_rotation(1.0, bins)
        logits = logits.copy()
        logits[nan_at] = math.nan
        with pytest.raises(NanLogits, match="rotation logits hold a NaN"):
            decode_rotation(logits, residuals, bins)
        # stacked, only the row holding the NaN is rejected
        good, _ = encode_rotation(2.0, bins)
        yaws = decode_rotations(np.array([good, logits]),
                                np.array([residuals, residuals]), bins)
        assert isinstance(yaws[1], NanLogits) and isinstance(yaws[0], float)


class TestSizeClusters:
    def test_single_cluster_is_mean(self):
        rng = np.random.default_rng(3)
        dims = rng.uniform(1.0, 5.0, size=(40, 3))
        clusters = fit_size_clusters(dims, 1, seed=0)
        np.testing.assert_allclose(clusters.centroids[0], dims.mean(axis=0),
                                   atol=1e-9)

    def test_two_separated_groups(self):
        rng = np.random.default_rng(4)
        group_a = np.array([1.5, 1.6, 3.9]) + 0.01 * rng.standard_normal((6, 3))
        group_b = np.array([3.0, 2.5, 10.0]) + 0.01 * rng.standard_normal((6, 3))
        data = np.vstack([group_a, group_b])
        clusters = fit_size_clusters(data, 2, seed=1)
        want, _ = exact_two_means(data)
        np.testing.assert_allclose(clusters.centroids, want, atol=1e-6)

    @pytest.mark.parametrize("n_clusters", [0, -2])
    def test_fewer_than_one_cluster_is_rejected(self, n_clusters):
        # k-means++ seeds one centroid first, so 0 used to fit one cluster
        dims = np.random.default_rng(3).uniform(1.0, 5.0, size=(40, 3))
        with pytest.raises(ValueError, match="n_clusters"):
            fit_size_clusters(dims, n_clusters, seed=0)

    def test_insufficient_distinct_points(self):
        data = np.tile([[1.5, 1.6, 3.9]], (10, 1))
        with pytest.raises(InsufficientData):
            fit_size_clusters(data, 2, seed=0)

    def test_lloyd_sse_never_increases(self):
        rng = np.random.default_rng(5)
        dims = rng.uniform(1.0, 6.0, size=(100, 3))
        clusters = fit_size_clusters(dims, 4, seed=2)
        history = np.array(clusters.sse_history)
        assert np.all(np.diff(history) <= 1e-9)

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(6)
        dims = rng.uniform(1.0, 6.0, size=(60, 3))
        a = fit_size_clusters(dims, 3, seed=7)
        b = fit_size_clusters(dims, 3, seed=7)
        np.testing.assert_array_equal(a.centroids, b.centroids)

    def test_accepts_labels(self):
        from cyldet.synthetic import make_frames

        labels = [lab for f in make_frames(4, seed=9) for lab in f.labels]
        clusters = fit_size_clusters(labels, 2, seed=0)
        assert clusters.centroids.shape == (2, 3)

    def test_persistence_round_trip(self, tmp_path):
        clusters = SizeClusters(np.array([[1.5, 1.6, 3.9], [1.8, 1.9, 4.6]]))
        path = tmp_path / "sizes.txt"
        save_size_clusters(clusters, path)
        loaded = load_size_clusters(path)
        np.testing.assert_array_equal(loaded.centroids, clusters.centroids)

    @pytest.mark.parametrize("text, line", [
        ("1.4 1.5 3.4 1.0\n1.5 1.6 3.9 1.0\n1.8 1.9 4.6 1.0\n", 1),
        ("1.4 1.5 3.4\n\n1.5 1.6\n", 3),
        ("1.4 1.5 3.4\n1.5 abc 3.9\n", 2),
    ], ids=["4 columns", "2 columns", "bad token"])
    def test_a_line_that_is_not_three_numbers_is_named(self, tmp_path, text,
                                                       line):
        # 4 columns used to load as scrambled clusters, 4 to the 3 lines
        path = tmp_path / "sizes.txt"
        path.write_text(text)
        bad = text.splitlines()[line - 1]
        with pytest.raises(ValueError) as info:
            load_size_clusters(path)
        assert str(info.value) == (f"{path}: line {line}: want three numbers "
                                   f"H W L, got {bad!r}")

    @pytest.mark.parametrize("text", ["", "\n  \n"])
    def test_a_file_without_a_cluster_is_rejected(self, tmp_path, text):
        # it used to load as 0 clusters, and every proposal then failed
        path = tmp_path / "sizes.txt"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            load_size_clusters(path)
        assert str(info.value) == (f"{path}: centroids must hold at least "
                                   "one cluster")
        with pytest.raises(ValueError, match="at least one cluster"):
            SizeClusters(np.zeros((0, 3)))

    def test_a_file_that_is_not_utf8_is_named(self, tmp_path):
        # it used to fail with the bare UnicodeDecodeError text
        path = tmp_path / "sizes.txt"
        path.write_bytes(b"1.4 1.5 3.4\n\xff")
        with pytest.raises(ValueError) as info:
            load_size_clusters(path)
        assert type(info.value) is KittiFormatError
        assert str(info.value).startswith(f"{path}: not UTF-8 text: ")

    @pytest.mark.parametrize("centroids", [
        [[1.4, 1.5, 3.4, 1.5, 1.6, 3.9]], [1.4, 1.5, 3.4],
        [[1.4, 1.5], [3.4, 1.5], [1.6, 3.9]], [[[1.4, 1.5, 3.4]]],
    ], ids=["1x6", "flat 3", "3x2", "1x1x3"])
    def test_centroids_not_k_by_3_are_rejected(self, centroids):
        # a (1, 6) array used to be re-cut into 2 clusters
        shape = np.shape(centroids)
        with pytest.raises(ValueError) as info:
            SizeClusters(np.array(centroids))
        assert str(info.value) == (
            f"centroids must be a (K, 3) array, got shape {shape}")


class TestSizeCodec:
    clusters = SizeClusters(np.array([[1.4, 1.5, 3.4], [1.8, 1.9, 4.6]]))

    def test_arity_mismatch_is_not_a_data_error(self):
        with pytest.raises(TypeError, match="arity"):
            decode_size(np.zeros(3), np.zeros((3, 3)), self.clusters)
        with pytest.raises(TypeError, match="arity"):
            decode_size(np.zeros(2), np.zeros((1, 3)), self.clusters)

    def test_zero_residuals_give_centroid(self):
        logits = np.array([0.0, 4.0])
        residuals = np.zeros((2, 3))
        np.testing.assert_array_equal(
            decode_size(logits, residuals, self.clusters),
            self.clusters.centroids[1],
        )

    def test_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            dims = rng.uniform(1.0, 5.0, size=3)
            logits, residuals = encode_size(dims, self.clusters)
            np.testing.assert_allclose(
                decode_size(logits, residuals, self.clusters), dims, atol=1e-9
            )

    def test_nearest_centroid_assignment(self):
        logits, _ = encode_size((1.41, 1.52, 3.38), self.clusters)
        assert np.argmax(logits) == 0
        logits, _ = encode_size((1.83, 1.88, 4.7), self.clusters)
        assert np.argmax(logits) == 1

    def test_non_positive_dims_rejected(self):
        logits = np.array([4.0, 0.0])
        residuals = np.zeros((2, 3))
        residuals[0] = -self.clusters.centroids[0]
        with pytest.raises(NonPositiveDims):
            decode_size(logits, residuals, self.clusters)

    @pytest.mark.parametrize("logits", [[math.nan, 0.0], [4.0, math.nan],
                                        [math.nan, math.nan]])
    def test_nan_logits_pick_no_cluster(self, logits):
        # checked before the dims, which here would not be positive either
        residuals = -np.array(self.clusters.centroids)
        with pytest.raises(NanLogits, match="size logits hold a NaN"):
            decode_size(logits, residuals, self.clusters)
        dims = decode_sizes(np.array([[0.0, 4.0], logits]),
                            np.zeros((2, 2, 3)), self.clusters)
        assert isinstance(dims[1], NanLogits)
        assert dims[0].tolist() == self.clusters.centroids[1].tolist()


class TestObjectness:
    def test_midpoint(self):
        assert objectness(0.0) == 0.5

    def test_analytic(self):
        assert objectness(math.log(3.0)) == pytest.approx(0.75, abs=1e-12)

    def test_saturation(self):
        assert objectness(-40.0) < 1e-17
        assert objectness(40.0) >= 1.0 - 1e-15

    def test_infinities_saturate_and_nan_raises(self):
        assert objectness(-math.inf) == 0.0
        assert objectness(math.inf) == 1.0
        for nan in (math.nan, np.float32("nan"), np.float64("nan")):
            with pytest.raises(ValueError, match="NaN"):
                objectness(nan)


class TestHeadOutputArity:
    def test_mismatched_encodings_rejected(self):
        # a wiring bug, not data: it must not pass for a dropped proposal
        codes = {"rot_logits": np.zeros(4), "rot_residuals": np.zeros(4),
                 "size_logits": np.zeros(2), "size_residuals": np.zeros((2, 3))}
        with pytest.raises(TypeError, match="rotation logits and residuals"):
            BrnOutput(t_loc=(0, 0, 0), **{**codes,
                                          "rot_residuals": np.zeros(5)})
        with pytest.raises(TypeError, match="size logits and residuals"):
            BrnOutput(t_loc=(0, 0, 0), **{**codes,
                                          "size_residuals": np.zeros((3, 3))})
        with pytest.raises(TypeError, match="t_loc must be a 3-vector"):
            BrnOutput(t_loc=(0, 0, 0, 0), **codes)
        with pytest.raises(TypeError, match="t_loc must be a 3-vector"):
            RpnOutput(t_loc=(0, 0), t_obj=0.0)


class TestProposalRegion:
    def test_validation(self):
        with pytest.raises(ValueError):
            ProposalRegion(center=(0, 0, 0), radius=0.0)
        with pytest.raises(ValueError):
            ProposalRegion(center=(0, 0, 0), bounds=(1.0, -1.0, 1.0))
        with pytest.raises(ValueError):
            ProposalRegion(center=(0, 0, 0), y_extent=(2.0, 1.0))
        with pytest.raises(ValueError, match="radius"):
            ProposalRegion(center=(0, 0, 0), radius=math.nan)
        with pytest.raises(ValueError, match="bounds"):
            ProposalRegion(center=(0, 0, 0), bounds=(1.0, math.nan, 1.0))
        with pytest.raises(ValueError, match="radius"):
            ProposalRegion(center=(0, 0, 0), radius=math.inf)
        with pytest.raises(ValueError, match="bounds"):
            ProposalRegion(center=(0, 0, 0), bounds=(1.0, 1.0, -math.inf))
        with pytest.raises(ValueError, match="bounds"):
            ProposalRegion(center=(0, 0, 0), bounds=(math.inf, 1.0, 1.0))

    def test_center_must_be_finite(self):
        region = ProposalRegion(center=(1.0, 2.0, 3.0))
        for center in ((math.nan, 0.0, 0.0), (0.0, math.inf, 0.0),
                       (0.0, 0.0, -math.inf)):
            with pytest.raises(ValueError, match="center must be finite"):
                ProposalRegion(center=center)
            with pytest.raises(ValueError, match="center must be finite"):
                region.recentered(center)
        with pytest.raises(ValueError, match="center must be a 3-vector"):
            region.recentered((1.0, 2.0))

    def test_recenter_preserves_shape(self):
        region = ProposalRegion(center=(1, 2, 3), radius=1.5,
                                y_extent=(-0.5, 2.5), bounds=(1, 2, 3))
        moved = region.recentered((9, 9, 9))
        assert moved.center == (9.0, 9.0, 9.0)
        assert moved.radius == region.radius
        assert moved.y_extent == region.y_extent
        assert moved.bounds == region.bounds


def _heading_gap(a, b):
    """Distance between two headings on the half-turn circle [0, pi)."""
    gap = abs(a - b) % math.pi
    return min(gap, math.pi - gap)


class TestCodecRoundTrips:
    @settings(max_examples=300, deadline=None)
    @given(
        center=st.tuples(*[st.floats(-80.0, 80.0)] * 3),
        bounds=st.tuples(*[st.floats(0.1, 5.0)] * 3),
        fraction=st.tuples(*[st.floats(-0.999, 0.999)] * 3),
    )
    def test_location_inside_its_bounds(self, center, bounds, fraction):
        region = ProposalRegion(center=center, bounds=bounds)
        target = np.array(center) + np.array(fraction) * np.array(bounds)
        decoded = decode_location(encode_location(target, region), region)
        np.testing.assert_allclose(decoded, target, rtol=0, atol=1e-9)
        assert np.all(np.abs(decoded - np.array(center)) < np.array(bounds))

    @settings(max_examples=300, deadline=None)
    @given(
        yaw=st.floats(-20.0, 20.0),
        n_bins=st.integers(1, 36),
    )
    def test_rotation_bins(self, yaw, n_bins):
        bins = RotationBins(n_bins)
        logits, residuals = encode_rotation(yaw, bins)
        # the winning bin holds the heading, folded into [0, pi)
        folded = yaw % math.pi
        idx = int(np.argmax(logits))
        assert idx == min(int(folded / bins.width), n_bins - 1)
        decoded = decode_rotation(logits, residuals, bins)
        assert 0.0 <= decoded < math.pi
        assert _heading_gap(decoded, yaw) <= 1e-9

    @settings(max_examples=300, deadline=None)
    @given(
        centroids=st.lists(st.tuples(*[st.floats(0.5, 12.0)] * 3),
                           min_size=1, max_size=5, unique=True),
        dims=st.tuples(*[st.floats(0.2, 15.0)] * 3),
    )
    def test_size_clusters(self, centroids, dims):
        clusters = SizeClusters(np.array(centroids))
        logits, residuals = encode_size(dims, clusters)
        # the nearest centroid wins, by squared distance
        sq = ((np.array(centroids) - np.array(dims)) ** 2).sum(axis=1)
        assert sq[int(np.argmax(logits))] == sq.min()
        decoded = decode_size(logits, residuals, clusters)
        np.testing.assert_allclose(decoded, dims, rtol=1e-12, atol=1e-12)


def _assert_same_bits(got, want):
    """Equal float64 bit patterns; any NaN matches any NaN (its sign and
    payload are not part of a result)."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    mismatched = np.flatnonzero(got.view(np.int64)[~nan] != want.view(np.int64)[~nan])
    assert mismatched.size == 0, (
        f"{mismatched.size} of {got.size} differ, first at "
        f"{want[~nan][mismatched[0]]!r}: got {got[~nan][mismatched[0]]!r}"
    )


class TestScipyIdentity:
    """The codec's libm sigmoid and logit give scipy.special's bits.  A
    vectorised exp or log (numpy's SIMD loops) differs in the last bit on
    a few percent of inputs, so each function is checked on 2 * 10^5
    seeded values, not only on a hundred drawn ones."""

    def test_expit_array(self):
        rng = np.random.default_rng(20261018)
        x = np.concatenate([
            rng.normal(0.0, 8.0, 100_000),
            rng.uniform(-760.0, 760.0, 50_000),
            rng.normal(0.0, 1e-6, 25_000),
            rng.uniform(-745.2, -708.0, 25_000),
        ])
        _assert_same_bits([expit(float(v)) for v in x], special.expit(x))

    def test_logit_array(self):
        rng = np.random.default_rng(20261019)
        p = np.concatenate([
            rng.uniform(0.0, 1.0, 100_000),
            rng.uniform(0.29, 0.66, 50_000),
            10.0 ** rng.uniform(-320.0, 0.0, 25_000),
            1.0 - 10.0 ** rng.uniform(-16.0, 0.0, 25_000),
        ])
        _assert_same_bits([logit(float(v)) for v in p], special.logit(p))

    @pytest.mark.parametrize("x", [
        0.0, -0.0, math.inf, -math.inf, math.nan, -709.78, -709.79, -745.0,
        -800.0, 709.79, 800.0, 5e-324, -5e-324, 2.2250738585072014e-308,
        -2.2250738585072014e-308,
    ])
    def test_expit_edges(self, x):
        _assert_same_bits(expit(x), special.expit(x))

    @pytest.mark.parametrize("p", [
        0.0, -0.0, 1.0, -0.5, 1.5, math.nan, math.inf, -math.inf, 0.5,
        5e-324, 0.3, 0.65, math.nextafter(0.3, 0.0), math.nextafter(0.3, 1.0),
        math.nextafter(0.65, 0.0), math.nextafter(0.65, 1.0),
        math.nextafter(1.0, 0.0),
    ])
    def test_logit_edges(self, p):
        _assert_same_bits(logit(p), special.logit(p))

    def test_objectness_is_expit(self):
        t = np.random.default_rng(3).normal(0.0, 10.0, 1000)
        _assert_same_bits([objectness(v) for v in t], special.expit(t))

    @settings(max_examples=300, deadline=None)
    @given(
        center=st.tuples(*[st.floats(-80.0, 80.0)] * 3),
        bounds=st.tuples(*[st.floats(0.1, 5.0)] * 3),
        t=st.tuples(*[st.floats(-800.0, 800.0)] * 3),
    )
    def test_decode_location(self, center, bounds, t):
        region = ProposalRegion(center=center, bounds=bounds)
        want = (np.asarray(region.center)
                + 2.0 * (special.expit(np.asarray(t)) - 0.5)
                * np.asarray(region.bounds))
        assert decode_location(t, region).tobytes() == want.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(
        center=st.tuples(*[st.floats(-80.0, 80.0)] * 3),
        bounds=st.tuples(*[st.floats(0.1, 5.0)] * 3),
        fraction=st.tuples(*[st.floats(-1.0, 1.0, exclude_min=True,
                                       exclude_max=True)] * 3),
    )
    def test_encode_location(self, center, bounds, fraction):
        region = ProposalRegion(center=center, bounds=bounds)
        target = np.array(center) + np.array(fraction) * np.array(bounds)
        off = target - np.asarray(region.center)
        m = np.asarray(region.bounds)
        if np.any(np.abs(off) >= m):
            with pytest.raises(OutOfBounds):
                encode_location(target, region)
            return
        want = special.logit(off / (2.0 * m) + 0.5)
        assert encode_location(target, region).tobytes() == want.tobytes()
