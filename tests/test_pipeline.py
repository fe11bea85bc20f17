import collections
import dataclasses
import hashlib
import logging
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import logit

import cyldet
from cyldet import codec, mono, pipeline
from cyldet import (
    Box2D,
    Box3D,
    BrnOutput,
    Detection,
    EmptyCloud,
    NoFeasibleConfiguration,
    OracleConfig,
    PipelineConfig,
    PointCloud,
    ProposalRegion,
    RotationBins,
    RpnOutput,
    ScatterParams,
    WrongFrame,
    decode_boxes,
    decode_location,
    detect_frame,
    gather_cylinder,
    iou_2d,
    iou_3d,
    nms_bev,
    oracle_predictors,
    project_box,
    sample_points,
    seed_proposals,
    spatial_scatter,
    sweep_objectness,
    sweep_scatter,
    voxel_downsample,
)
from cyldet.evalbench import DesyncConfig, desync_frame
from cyldet.kitti import camera_to_lidar, load_frame, stable_id_hash
from cyldet.pipeline import (
    Mono2DDetection,
    Predictors,
    RegionIndex,
    derive_seed,
    format_detection,
    parse_detection_line,
    region_points,
    scatter_proposals,
    solve_poses,
)
from cyldet.synthetic import make_frame, make_frames, write_dataset
from oracles import (
    _LabelTableReference,
    agreement_search_reference,
    block_certificate_reference,
    cylinder_members_reference,
    decode_box_reference,
    detect_frame_reference,
    greedy_nms_reference,
    optimal_match_count,
    oracle_brn_reference,
    oracle_rpn_reference,
    outcome_bits,
    outcome_of,
    spatial_scatter_reference,
)


def reading_head(oracle):
    """A point head that reads its region's points, then answers as oracle
    does."""
    def read(points, region, frame):
        points()
        return oracle(points, region, frame)
    return read


def camera_cloud(points):
    pts = np.asarray(points, dtype=float)
    if pts.shape[1] == 3:
        pts = np.column_stack([pts, np.zeros(len(pts))])
    return PointCloud(pts, frame="camera")


class TestGatherCylinder:
    region = ProposalRegion(center=(5.0, 1.0, 20.0), radius=2.0,
                            y_extent=(-1.0, 3.0))

    def test_center_point_becomes_origin(self):
        cloud = camera_cloud([[5.0, 1.0, 20.0]])
        out = gather_cylinder(cloud, self.region)
        np.testing.assert_array_equal(out.points, [[0.0, 0.0, 0.0, 0.0]])

    def test_point_just_outside_radius_excluded(self):
        cloud = camera_cloud([[5.0 + 2.0 + 1e-9, 1.0, 20.0]])
        assert len(gather_cylinder(cloud, self.region)) == 0

    def test_vertical_band(self):
        cloud = camera_cloud([[5.0, -1.5, 20.0], [5.0, 3.5, 20.0], [5.0, 0.0, 20.0]])
        assert len(gather_cylinder(cloud, self.region)) == 1

    def test_requires_camera_frame(self):
        with pytest.raises(WrongFrame):
            gather_cylinder(PointCloud([[0, 0, 0, 0]], frame="lidar"), self.region)

    def test_matches_linear_scan(self):
        rng = np.random.default_rng(0)
        pts = np.column_stack([
            rng.uniform(0, 10, 500), rng.uniform(-2, 4, 500),
            rng.uniform(15, 25, 500), rng.uniform(0, 1, 500),
        ])
        out = gather_cylinder(camera_cloud(pts), self.region)
        expected = [
            p for p in pts
            if math.hypot(p[0] - 5.0, p[2] - 20.0) <= 2.0 and -1.0 <= p[1] <= 3.0
        ]
        assert len(out) == len(expected)
        np.testing.assert_allclose(
            out.points, np.array(expected) - [5.0, 1.0, 20.0, 0.0], atol=1e-12
        )


class TestRegionIndex:
    """RegionIndex membership equals the scan of every point
    (oracles.cylinder_members_reference) exactly, boundary points
    included, for any region radius, whose third is the index's cell
    width; occupied() is True exactly when that scan finds a point."""

    band = (-1.0, 3.0)
    _edge_y = st.sampled_from([
        -1.0, 3.0, math.nextafter(-1.0, -math.inf),
        math.nextafter(3.0, math.inf), 0.5, -5.0, 7.0,
    ])
    # grid-aligned values put points on cell edges as well; far values (a
    # corrupt scan) must not disturb the grid for the others
    _coord = (st.floats(-40.0, 40.0)
              | st.integers(-80, 80).map(lambda k: k * 0.5)
              | st.sampled_from([-1e30, -1e15, 1e15, 1e30]))
    # radii whose cells are 0.5, 2 and 3 m wide, on which the grid-aligned
    # values above lie, among others
    _radius = st.sampled_from([0.3, 1.0, 1.5, 2.0, 2.5, 6.0, 7.3, 9.0])

    def shape(self, radius):
        return ProposalRegion((0.0, 0.0, 0.0), radius, self.band)

    def assert_matches(self, points, centers, radius):
        cloud = PointCloud(np.reshape(points, (-1, 4)), frame="camera")
        shape = self.shape(radius)
        index = RegionIndex(cloud, shape)
        for center, found in zip(centers, index.occupied(centers),
                                 strict=True):
            want = cylinder_members_reference(cloud.points,
                                              shape.recentered(center))
            assert found == (len(want) > 0)
            np.testing.assert_array_equal(index.members(center), want)

    @settings(max_examples=300, deadline=None)
    @given(
        center=st.tuples(st.floats(-40.0, 40.0), st.floats(-2.0, 4.0),
                         st.floats(-40.0, 40.0)),
        radius=_radius,
        on_circle=st.lists(st.tuples(st.floats(0.0, 2 * math.pi), _edge_y),
                           min_size=1, max_size=40),
    )
    def test_points_on_the_circle(self, center, radius, on_circle):
        cx, _, cz = center
        points = [[cx + radius * math.cos(a), y, cz + radius * math.sin(a), 0.0]
                  for a, y in on_circle]
        self.assert_matches(points, [center], radius)

    @settings(max_examples=300, deadline=None)
    @given(
        points=st.lists(st.tuples(_coord, _edge_y, _coord, st.integers(1, 3)),
                        max_size=40),
        centers=st.lists(st.tuples(st.floats(-100.0, 100.0),
                                   st.floats(-100.0, 100.0)),
                         min_size=1, max_size=6),
        radius=_radius,
    )
    # every point outside the band; two copies of a point on a cell corner,
    # queried from a region outside the grid; a point one cell left of the
    # circle's cells whose offset rounds to exactly -r (the padding's case);
    # points beyond the cell-number limit
    @example(points=[(1.0, 7.0, 1.0, 2), (3.0, -5.0, 2.0, 1)],
             centers=[(1.0, 1.0)], radius=6.0)
    @example(points=[(2.0, 0.5, 2.0, 2)], centers=[(60.0, -60.0), (2.0, 2.0)],
             radius=6.0)
    @example(points=[(math.nextafter(2.0, 0.0), 0.5, 0.0, 1)],
             centers=[(8.0, 0.0)], radius=6.0)
    @example(points=[(1.0, 0.5, 1.0, 1), (1e15, 0.5, 0.0, 1),
                     (0.0, 0.5, 1e15, 1), (1e30, 0.5, -1e30, 2)],
             centers=[(0.0, 0.0), (1e15, 0.0), (1e30, -1e30)], radius=6.0)
    def test_clouds_with_duplicates_and_far_regions(self, points, centers,
                                                    radius):
        rows = [[x, y, z, 0.0] for x, y, z, copies in points
                for _ in range(copies)]
        self.assert_matches(rows, [(x, 0.0, z) for x, z in centers], radius)

    @settings(max_examples=100, deadline=None)
    @given(
        radius=st.sampled_from([1.5, 6.0, 9.0]),
        crowded=st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4),
                                   st.integers(100, 1500)),
                         min_size=1, max_size=4),
        ys=st.lists(_edge_y, min_size=1, max_size=7),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_crowded_cells(self, radius, crowded, ys, seed):
        """Hundreds to thousands of points in a few cells, with copies,
        points on cell edges, and points on and one ulp outside every
        circle."""
        rng = np.random.default_rng(seed)
        cell = radius / 3
        # (x, z) of the center in cells of the crowded cell: circles whose
        # edges lie inside cells, on cell edges on one axis, or on both
        shapes = [(0.5, 0.5), (1.0, 0.5), (0.5, 0.0), (0.0, 0.0), (1.0, 0.0)]
        rows, centers = [], []

        def add(x, z):
            rows.append(np.column_stack((x, rng.choice(ys, len(x)),
                                         z, np.zeros(len(x)))))

        for i, j, count in crowded:
            offsets = rng.uniform(0.0, 1.0, (count, 2))
            offsets[rng.random((count, 2)) < 0.25] = 0.0
            x, z = ((np.array([i, j]) + offsets) * cell).T
            copies = rng.integers(1, 4, count)
            add(np.repeat(x, copies), np.repeat(z, copies))
            for fx, fz in shapes:
                cx, cz = (i + fx) * cell, (j + fz) * cell
                centers.append((cx, 0.0, cz))
                a = rng.uniform(0.0, 2 * math.pi, 20)
                add(cx + radius * np.cos(a), cz + radius * np.sin(a))
                out = np.nextafter([cx - radius, cx + radius],
                                   [-math.inf, math.inf])
                add(out, [cz, cz])
                add([cx, cx], np.nextafter([cz - radius, cz + radius],
                                           [-math.inf, math.inf]))
        self.assert_matches(np.concatenate(rows), centers, radius)

    @settings(max_examples=300, deadline=None)
    @given(
        radius=st.sampled_from([0.3, 2.0, 7.3]),
        cell_xz=(st.tuples(st.integers(-6, 6), st.integers(-6, 6))
                 | st.sampled_from([(2**30 - 2, 0), (2**30 - 3, 4),
                                    (-2**30 + 1, -2), (5, 2**30 - 1),
                                    (-2**30, 2**30 - 2)])),
        frac=st.tuples(*[st.sampled_from([0.0, 0.5, math.nextafter(1.0, 0.0)])
                         | st.floats(0.0, 1.0, exclude_max=True)] * 2),
        picks=st.lists(st.tuples(st.integers(0, 63), _edge_y), max_size=8),
    )
    # the only point lies clipped into the block's edge cell, far away
    @example(radius=2.0, cell_xz=(2**30 - 1, 0), frac=(0.5, 0.5),
             picks=[(30, 0.5)])
    # the only point is the block corner farthest from the center
    @example(radius=2.0, cell_xz=(0, 0), frac=(math.nextafter(1.0, 0.0),) * 2,
             picks=[(5, 0.5)])
    def test_cells_of_a_third_of_the_radius(self, radius, cell_xz, frac,
                                            picks):
        """occupied() settles a region from the 3x3 block around its
        center's cell: points on the block's corners and one ulp outside
        it, on and one ulp outside the circle, and far points clipped into
        the edge cells near the center."""
        cell = radius / 3
        (i, j), (fx, fz) = cell_xz, frac
        cx, cz = (i + fx) * cell, (j + fz) * cell
        xs, zs = ([math.nextafter((k - 1) * cell, -math.inf), (k - 1) * cell,
                   math.nextafter((k + 2) * cell, -math.inf), (k + 2) * cell]
                  for k in (i, j))
        def ring(c):
            # on the circle, and one ulp outside it, on either side of c
            return [c - radius, c + radius,
                    math.nextafter(c - radius, -math.inf),
                    math.nextafter(c + radius, math.inf)]

        candidates = [(x, z) for x in xs for z in zs]
        candidates += [(v, cz) for v in ring(cx)] + [(cx, v) for v in ring(cz)]
        candidates += [(x, z) for x in (-1e30, -1e15, 1e15, 1e30)
                       for z in (cz, 1e15, -1e30)]
        candidates += [(cx, z) for z in (-1e30, -1e15, 1e15, 1e30)]
        # 16 + 4 + 4 + 12 + 4 = 40 distinct candidates; larger picks
        # repeat the block corners
        candidates += candidates[:24]
        points = [[candidates[k][0], y, candidates[k][1], 0.0]
                  for k, y in picks]
        self.assert_matches(points, [(cx, 0.0, cz)], radius)

    def test_block_beyond_the_grid_edge(self):
        # the block's top row of cells lies above the grid's; its z-run
        # must end at the grid's top row, not run on into the next column
        cell = 2.0 / 3
        points = [[x * cell, 0.5, z * cell, 0.0]
                  for x, z in ((2.5, -4.5), (6.5, 0.5), (-0.5, -4.5))]
        self.assert_matches(points, [(0.5 * cell, 0.0, 0.5 * cell)], 2.0)

    def test_every_region_of_a_large_frame(self, monkeypatch):
        frame = make_frames(1, seed=8, cars_per_frame=(5, 5),
                            ground_points=58000)[0]
        config = PipelineConfig()
        predictors = oracle_predictors(OracleConfig(dims_noise_sigma=0.1,
                                                    yaw_noise_sigma=0.1))
        queried = {"members": [], "occupied": []}
        members, occupied = RegionIndex.members, RegionIndex.occupied

        def record(name, query):
            # occupied() takes the centers of every region of a stage at once
            def recorded(index, centers):
                queried[name].extend(centers if name == "occupied"
                                     else [centers])
                return query(index, centers)
            return recorded

        monkeypatch.setattr(RegionIndex, "members", record("members", members))
        monkeypatch.setattr(RegionIndex, "occupied",
                            record("occupied", occupied))
        detect_frame(frame, predictors, config)
        seeds = {region.center for *_, region in seed_proposals(
            frame, predictors.monocular, config)}
        # the oracle heads read no points: every seed region, and the
        # regions re-centred on a head's output, are checked with
        # occupied(), and its block of cells settles most of them
        asked = set(queried["occupied"])
        assert seeds <= asked
        assert len(asked - seeds) >= 5
        assert len(queried["members"]) < len(queried["occupied"]) / 4
        index = RegionIndex(frame.cloud, config.region)
        for center in asked:
            want = cylinder_members_reference(
                frame.cloud.points, config.region.recentered(center))
            np.testing.assert_array_equal(members(index, center), want)
            assert occupied(index, [center])[0] == (len(want) > 0)

    # in cells: a point's coordinate, and a region center's, which reaches
    # past the points' grid on every side and to the clipped far cells
    _in_cells = st.tuples(
        st.integers(-4, 4),
        st.sampled_from([0.0, 0.5, math.nextafter(1.0, 0.0)])
        | st.floats(0.0, 1.0, exclude_max=True)).map(sum)
    _center_in_cells = (st.tuples(st.integers(-8, 8), st.floats(0.0, 1.0))
                        .map(sum)
                        | st.sampled_from([2**30 - 1.5, -2**30 + 0.5, 3e29,
                                           -1e30]))

    @settings(max_examples=300, deadline=None)
    @given(
        radius=st.sampled_from([0.9, 2.0, 7.3]),
        points=st.lists(st.tuples(_in_cells, _edge_y, _in_cells), max_size=30),
        far=st.lists(st.sampled_from([(1e30, 0.0), (0.0, -1e30),
                                      (-1e15, 1e15)]), max_size=2),
        centers=st.lists(st.tuples(_center_in_cells, _center_in_cells),
                         max_size=12),
        frac=st.tuples(*[st.sampled_from([0.0, math.nextafter(1.0, 0.0)])
                         | st.floats(0.0, 1.0, exclude_max=True)] * 2),
    )
    # no region; the block's top row above the grid's, where its z-run
    # must end at the grid's top row and not run on into the next column
    @example(radius=2.0, points=[], far=[], centers=[], frac=(0.5, 0.5))
    @example(radius=2.0, points=[(2.5, 0.5, -4.5), (6.5, 0.5, 0.5),
                                 (-0.5, 0.5, -4.5)], far=[],
             centers=[(0.5, 0.5)], frac=(0.5, 0.5))
    def test_batched_occupancy_is_the_scan_of_every_point(
            self, radius, points, far, centers, frac):
        """occupied() over many centers, with cells of a third of the
        radius: a region is settled by its 3x3 block when it holds a
        point, and only the others (a block clipped at the cell-number
        limit, an empty block) ask members()."""
        cell = radius / 3
        rows = [[x * cell, y, z * cell, 0.0] for x, y, z in points]
        rows += [[x, 0.5, z, 0.0] for x, z in far]
        cloud = PointCloud(np.reshape(rows, (-1, 4)), frame="camera")
        if points:
            # the first point in each cell of its region's 3x3 block, and
            # in each cell of the ring just outside it
            x, _, z = points[0]
            centers = centers + [
                (math.floor(x) + dx + frac[0], math.floor(z) + dz + frac[1])
                for dx in range(-2, 3) for dz in range(-2, 3)]
        shape = self.shape(radius)
        regions = [shape.recentered((x * cell, 0.0, z * cell))
                   for x, z in centers]
        asked = []

        class Recorded(RegionIndex):
            def members(self, center):
                asked.append(tuple(center))
                return super().members(center)

        got = Recorded(cloud, shape).occupied([r.center for r in regions])
        assert got.dtype == bool and got.shape == (len(regions),)
        assert got.tolist() == [
            len(cylinder_members_reference(cloud.points, region)) > 0
            for region in regions]
        assert asked == [
            region.center for region in regions
            if not block_certificate_reference(cloud.points, region, cell)]

    @pytest.mark.parametrize("far", [None, (1e30, 0.0), (-1e30, 1e30),
                                     (0.0, -1e15)])
    def test_both_sides_of_the_table_bound(self, far):
        """A grid of at most max(2**16, 4 * band points) cells is counted
        in a table; a far point stretches the grid beyond that, and the
        index sorts at construction instead.  Either way every answer is
        the scan of every point, whether members() runs before or after
        the first occupied() call."""
        rng = np.random.default_rng(3)
        shape, cell = self.shape(2.0), 2.0 / 3
        xz = rng.uniform(-12.0, 12.0, (3000, 2))
        # points on cell edges, and in the grid's four corner cells, where
        # the z-run of the last column ends at the table's last entry
        xz[:300] = np.round(xz[:300] / cell) * cell
        xz[:4] = [(-12.0, -12.0), (-12.0, 12.0), (12.0, -12.0), (12.0, 12.0)]
        ys = rng.choice([-1.0, 0.5, 3.0, 3.5], len(xz))
        rows = np.column_stack((xz[:, 0], ys, xz[:, 1], np.zeros(len(xz))))
        if far is not None:
            rows = np.vstack((rows, [far[0], 0.5, far[1], 0.0]))
        cloud = PointCloud(rows, frame="camera")
        xz_centers = np.vstack((rng.uniform(-16.0, 16.0, (80, 2)), xz[:4],
                                [(13.0, 13.0), (-13.5, 0.0), (0.0, 14.0)]))
        centers = [(x, 0.0, z) for x, z in xz_centers.tolist()]
        want = [cylinder_members_reference(rows, shape.recentered(c))
                for c in centers]
        assert 0 < sum(len(w) > 0 for w in want) < len(centers)

        first = RegionIndex(cloud, shape)
        before = [first.members(c) for c in centers]
        occupied_after = first.occupied(centers)
        after = [first.members(c) for c in centers]
        fresh = RegionIndex(cloud, shape)
        occupied_first = fresh.occupied(centers)
        fresh_members = [fresh.members(c) for c in centers]
        for found in (occupied_after, occupied_first):
            assert found.tolist() == [len(w) > 0 for w in want]
        for got in (before, after, fresh_members):
            for g, w in zip(got, want, strict=True):
                np.testing.assert_array_equal(g, w)
        assert (fresh._starts is None) == (far is not None)

    @pytest.mark.parametrize("far", [1e30, -1e30])
    def test_far_points_build_no_large_table(self, far):
        rows = [[0.0, 0.5, 0.0, 0.0], [far, 0.5, -far, 0.0],
                [1.0, 0.5, far, 0.0]]
        index = RegionIndex(camera_cloud(rows), self.shape(2.0))
        assert index.occupied([(0.0, 0.0, 0.0)]).tolist() == [True]
        starts = index._starts
        assert starts is None or len(starts) <= max(2**16, 4 * len(rows)) + 1
        np.testing.assert_array_equal(index.members((0.0, 0.0, 0.0)), [0])

    # the overflows to +-inf are the case under test, and warn of nothing
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("far", [[], [(1e308, 0.0), (0.0, -1e308)],
                                     [(5e307, 0.0), (0.0, -5e307)]])
    def test_a_center_past_the_cell_numbers(self, far):
        """A finite center that overflows the division by the cell to
        +-inf is clipped like a far point and left to members(); both
        queries are the scan of every point, whether a far point sits on
        the center, lies clipped into its cell out of reach, or is
        absent."""
        rows = [[0.0, 0.5, 0.0, 0.0], [1.0, 0.5, 2.0, 0.0]]
        rows += [[x, 0.5, z, 0.0] for x, z in far]
        # cells of 0.5
        shape = self.shape(1.5)
        index = RegionIndex(camera_cloud(rows), shape)
        centers = [(1e308, 0.0, 0.0), (-1e308, 0.0, 0.0), (0.0, 0.0, 1e308),
                   (0.0, 0.0, -1e308), (0.0, 0.0, 0.0)]
        # the reference scan's squares overflow too
        with np.errstate(over="ignore"):
            want = [cylinder_members_reference(rows, shape.recentered(c))
                    for c in centers]
        assert index.occupied(centers).tolist() == [len(w) > 0 for w in want]
        for center, w in zip(centers, want, strict=True):
            np.testing.assert_array_equal(index.members(center), w)

    def test_a_loaded_frame_is_counted_not_sorted(self, monkeypatch):
        # every point of a 58k-point frame lies in the band; the oracle
        # heads read none, and their regions are settled from the table of
        # counts, so the points are never sorted
        frame = make_frames(1, seed=4, cars_per_frame=(5, 5),
                            ground_points=58000)[0]
        sorts, asked = [], []
        sort, occupied = RegionIndex._sort, RegionIndex.occupied

        def counted_sort(index):
            sorts.append(index)
            return sort(index)

        def counted_occupied(index, centers):
            asked.extend(centers)
            return occupied(index, centers)

        monkeypatch.setattr(RegionIndex, "_sort", counted_sort)
        monkeypatch.setattr(RegionIndex, "occupied", counted_occupied)
        predictors = oracle_predictors(OracleConfig(dims_noise_sigma=0.1,
                                                    yaw_noise_sigma=0.1))
        assert detect_frame(frame, predictors, PipelineConfig())
        assert len(asked) > 50 and sorts == []

    def test_a_lidar_cloud_is_rejected_at_construction(self):
        with pytest.raises(WrongFrame, match="expected camera frame"):
            RegionIndex(PointCloud([[0, 0, 0, 0]], frame="lidar"),
                        self.shape(2.0))


class TestVoxelDownsample:
    @pytest.mark.parametrize("resolution", [0.0, -0.1, math.nan, math.inf,
                                            -math.inf])
    def test_resolution_must_be_finite_and_positive(self, resolution):
        cloud = camera_cloud([[0.01, 0.01, 0.01]])
        with pytest.raises(ValueError, match="finite and positive"):
            voxel_downsample(cloud, resolution)

    def test_same_voxel_collapses_to_centroid(self):
        cloud = camera_cloud([[0.01, 0.01, 0.01], [0.02, 0.01, 0.01]])
        out = voxel_downsample(cloud, 0.1)
        assert len(out) == 1
        np.testing.assert_allclose(out.points[0, :3], [0.015, 0.01, 0.01])

    def test_grid_separated_points_unchanged(self):
        pts = np.array([[i * 0.1 + 0.05, 0.05, 0.05] for i in range(10)])
        out = voxel_downsample(camera_cloud(pts), 0.1)
        assert len(out) == 10

    def test_occupancy_matches_hash_reference(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(-5, 5, size=(2000, 3))
        out = voxel_downsample(camera_cloud(pts), 0.25)
        expected = {tuple(np.floor(p / 0.25).astype(int)) for p in pts}
        got = {tuple(np.floor(p[:3] / 0.25).astype(int)) for p in out.points}
        assert got == expected

    def test_reflectance_averaged(self):
        cloud = PointCloud([[0.01, 0.01, 0.01, 0.2], [0.02, 0.01, 0.01, 0.8]],
                           frame="camera")
        out = voxel_downsample(cloud, 0.1)
        assert out.points[0, 3] == pytest.approx(0.5)

    # a coordinate in voxel units: a cell index plus a fraction that is often
    # 0, so that many points sit exactly on a voxel face
    _coord = st.tuples(
        st.integers(-40, 40),
        st.sampled_from([0.0, 0.25, 0.5, 0.75]) | st.floats(0.0, 0.999),
    ).map(sum)

    @settings(max_examples=300, deadline=None)
    @given(
        resolution=st.sampled_from([0.1, 0.25, 0.3]),
        points=st.lists(
            st.tuples(st.tuples(_coord, _coord, _coord, st.floats(0.0, 1.0)),
                      st.integers(1, 4)),
            min_size=1, max_size=30,
        ),
    )
    # three copies of a point on a face: their mean rounds to one ulp
    # outside the voxel unless it is held inside
    @example(resolution=0.1, points=[((-1.0, 0.0, 0.0, 0.5), 3)])
    def test_centroids_stay_in_their_voxels(self, resolution, points):
        pts = np.array([
            [c * resolution for c in xyz] + [r]
            for (*xyz, r), copies in points for _ in range(copies)
        ])
        out = voxel_downsample(PointCloud(pts, frame="camera"), resolution)
        keys = [tuple(k) for k in np.floor(pts[:, :3] / resolution).astype(int)]
        out_keys = [tuple(k) for k in
                    np.floor(out.points[:, :3] / resolution).astype(int)]
        assert sorted(out_keys) == sorted(set(keys))
        for key, centroid in zip(out_keys, out.points):
            members = pts[[k == key for k in keys]]
            np.testing.assert_allclose(centroid, members.mean(axis=0),
                                       rtol=1e-12, atol=1e-12)


class TestSamplePoints:
    def test_exact_size_is_permutation(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(0, 1, size=(64, 4))
        out = sample_points(PointCloud(pts, frame="camera"), 64, seed=0)
        assert sorted(map(tuple, out.points)) == sorted(map(tuple, pts))

    def test_single_point_repeated(self):
        cloud = camera_cloud([[1.0, 2.0, 3.0]])
        out = sample_points(cloud, 4, seed=0)
        assert len(out) == 4
        np.testing.assert_array_equal(out.points,
                                      np.tile([[1, 2, 3, 0]], (4, 1)))

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(0, 1, size=(100, 4))
        cloud = PointCloud(pts, frame="camera")
        a = sample_points(cloud, 30, seed=17)
        b = sample_points(cloud, 30, seed=17)
        np.testing.assert_array_equal(a.points, b.points)

    def test_empty_cloud(self):
        with pytest.raises(EmptyCloud):
            sample_points(PointCloud(np.zeros((0, 4)), frame="camera"), 4, seed=0)

    def test_top_up_keeps_every_original(self):
        rng = np.random.default_rng(4)
        pts = rng.uniform(0, 1, size=(10, 4))
        out = sample_points(PointCloud(pts, frame="camera"), 25, seed=1)
        assert len(out) == 25
        got = set(map(tuple, out.points))
        assert got == set(map(tuple, pts))


class TestRegionPointsFingerprint:
    """The sha256 of every seed region's point-head input on a few frames,
    and of every points() result at every stage.  The oracle heads never
    call points(), so no detection document pins gather, voxel and sample;
    these digests do."""

    # recorded with a scan of every point per region: region points must
    # not depend on how a region's points are found
    DIGEST = "98d0764e5f1e31a2edb251537f3bc2a5f29207a7c57d77535306157c5ebd6afd"

    @staticmethod
    def frames():
        frames = make_frames(4, seed=21)
        frames.append(make_frame("000004", seed=22, n_cars=8,
                                 ground_points=16800, z_range=(8, 45)))
        return frames

    def test_digest_is_unchanged(self):
        config = PipelineConfig()
        monocular = oracle_predictors(
            OracleConfig(dims_noise_sigma=0.1, yaw_noise_sigma=0.1)).monocular
        digest = hashlib.sha256()
        regions = empty = 0
        for frame in self.frames():
            frame_hash = stable_id_hash(frame.frame_id)
            index = RegionIndex(frame.cloud, config.region)
            for obj_idx, seed_idx, _, region in seed_proposals(
                    frame, monocular, config):
                regions += 1
                try:
                    points = region_points(index, region, config, config.seed,
                                           frame_hash, obj_idx, seed_idx,
                                           0).points
                except EmptyCloud:
                    empty += 1
                    digest.update(b"empty")
                    continue
                digest.update(points.tobytes())
        assert (regions, empty) == (309, 16)
        assert digest.hexdigest() == self.DIGEST

    # every points() result of every stage in the three modes, through
    # detect_frame, on frames() and loaded_frame(); recorded from the points
    # a plain-function head was handed before heads called points()
    STAGE_DIGEST = (
        "dc1a21b9e384d38e762963dd5fce0a5e868eb24813fcfb6a8762ad0f08356eb5")

    @staticmethod
    def loaded_frame(root):
        """A 5-car frame with 58k ground points written as a KITTI tree and
        read back: a column-major cloud, whose index sorts its points on the
        first members query."""
        frame = make_frames(1, seed=4, cars_per_frame=(5, 5),
                            ground_points=58000)[0]
        write_dataset(root, [frame])
        return load_frame(root, frame.frame_id)

    def test_stage_digest_is_unchanged(self, tmp_path):
        frames = self.frames() + [self.loaded_frame(str(tmp_path))]
        assert frames[-1].cloud.points.flags.f_contiguous
        oracles = oracle_predictors(OracleConfig(dims_noise_sigma=0.1,
                                                 yaw_noise_sigma=0.1))
        digest = hashlib.sha256()

        def head(name, oracle):
            def read(points, region, frame):
                digest.update(name.encode())
                digest.update(points().points.tobytes())
                return oracle(points, region, frame)
            return read

        reading = Predictors(oracles.monocular, head("rpn", oracles.rpn),
                             head("brn", oracles.brn))
        for mode in pipeline.PIPELINE_MODES:
            config = PipelineConfig(mode=mode)
            for frame in frames:
                assert (detect_frame(frame, reading, config)
                        == detect_frame(frame, oracles, config))
        assert digest.hexdigest() == self.STAGE_DIGEST


class TestOracleMonocular:
    def test_zero_noise_is_exact(self):
        frame = make_frame("000000", seed=5, n_cars=3)
        dets = oracle_predictors(OracleConfig()).monocular(frame)
        assert len(dets) == len(frame.labels)
        for det, lab in zip(dets, frame.labels):
            assert det.box2d == lab.bbox2d
            np.testing.assert_allclose(det.dims, lab.box3d.dims)
            assert det.yaw == lab.box3d.yaw

    def test_seeded_reproducibility(self):
        frame = make_frame("000001", seed=6, n_cars=2)
        cfg = OracleConfig(dims_noise_sigma=0.1, yaw_noise_sigma=0.1,
                           box2d_noise_sigma=2.0, rng_seed=9)
        a = oracle_predictors(cfg).monocular(frame)
        b = oracle_predictors(cfg).monocular(frame)
        assert a == b

    def test_dims_noise_calibration(self):
        # relative std of the dim multiplier should track the configured
        # sigma; one label sampled under many seeds
        frame = make_frame("000002", seed=7, n_cars=1)
        true_dims = np.array(frame.labels[0].box3d.dims)
        ratios = []
        for k in range(10_000):
            cfg = OracleConfig(dims_noise_sigma=0.1, rng_seed=k)
            det = oracle_predictors(cfg).monocular(frame)[0]
            ratios.append(det.dims[0] / true_dims[0])
        std = np.std(ratios)
        assert abs(std - 0.1) < 0.005


class TestOraclePointHeads:
    def setup_method(self):
        self.frame = make_frame("000003", seed=8, n_cars=1)
        self.label = self.frame.labels[0]
        self.config = PipelineConfig()

    def region_at(self, center):
        return ProposalRegion(tuple(center), radius=2.0, y_extent=(-1.0, 3.0),
                              bounds=(2.0, 2.0, 2.0))

    def test_centered_region_decodes_exactly(self):
        region = self.region_at(self.label.box3d.center)
        brn = oracle_predictors(clusters=self.config.clusters,
                                bins=self.config.bins).brn
        out = brn(None, region, self.frame)
        (box,) = decode_boxes([out], [region], self.config.clusters,
                              self.config.bins)
        np.testing.assert_allclose(box.center, self.label.box3d.center,
                                   atol=1e-6)
        np.testing.assert_allclose(box.dims, self.label.box3d.dims, atol=1e-6)
        assert iou_3d(box, self.label.box3d) > 1 - 1e-6

    def test_far_region_scores_low(self):
        center = np.array(self.label.box3d.center) + [10.0, 0.0, 0.0]
        rpn = oracle_predictors().rpn
        out = rpn(None, self.region_at(center), self.frame)
        assert cyldet.objectness(out.t_obj) < 0.5

    def test_near_region_scores_high(self):
        rpn = oracle_predictors().rpn
        out = rpn(None, self.region_at(self.label.box3d.center), self.frame)
        assert cyldet.objectness(out.t_obj) > 0.9

    def test_decoded_location_always_within_bounds(self):
        rng = np.random.default_rng(9)
        rpn = oracle_predictors(OracleConfig(center_noise_sigma=1.0)).rpn
        for _ in range(50):
            center = np.array(self.label.box3d.center) + rng.uniform(-4, 4, 3)
            region = self.region_at(center)
            out = rpn(None, region, self.frame)
            decoded = cyldet.decode_location(out.t_loc, region)
            off = np.abs(decoded - np.array(region.center))
            assert np.all(off <= np.array(region.bounds) + 1e-12)


class TestOracleLabelTable:
    """The point heads of a bundle keep the label table of the last frame
    they saw; their outputs must not depend on the frames seen before."""

    cfg = OracleConfig(dims_noise_sigma=0.1, yaw_noise_sigma=0.1,
                       center_noise_sigma=0.3, rng_seed=4)

    @staticmethod
    def assert_same(got, want):
        assert type(got) is type(want)
        for field in dataclasses.fields(got):
            np.testing.assert_array_equal(getattr(got, field.name),
                                          getattr(want, field.name))

    def test_frames_in_turn_give_the_outputs_of_fresh_oracles(self):
        a = make_frame("000030", seed=30, n_cars=3)
        # the same labels under another id, and other labels under the same
        # id, each made after the one before is gone
        renamed = dataclasses.replace(a, frame_id="000031")
        assert renamed.labels is a.labels
        shifted = [lambda k=k: desync_frame(a, DesyncConfig(max_xy=1.0,
                                                            rng_seed=k))
                   for k in range(3)]
        # regions beside each car, within the location bounds of the
        # shifted cars too, and one far from every car
        centers = [np.add(lab.box3d.center, offset) for lab in a.labels
                   for offset in ((0.3, 0.0, -0.2), (-0.5, 0.1, 0.4))]
        regions = [ProposalRegion(tuple(c)) for c in centers]
        regions.append(ProposalRegion((30.0, 0.0, 80.0)))
        oracles = oracle_predictors(self.cfg)
        rpn, brn = oracles.rpn, oracles.brn
        for make in (lambda: a, *shifted, lambda: a, lambda: renamed,
                     lambda: a):
            frame = make()
            for region in regions:
                for oracle, fresh in ((rpn, oracle_predictors(self.cfg).rpn),
                                      (brn, oracle_predictors(self.cfg).brn)):
                    self.assert_same(oracle(None, region, frame),
                                     fresh(None, region, frame))


# quarter meters, which add and square exactly at these sizes
QUARTERS = st.integers(-7, 7).map(lambda k: k / 4)
_ORACLE_FRAME = make_frame("000040", seed=40, n_cars=1)


@st.composite
def oracle_cases(draw):
    """(frame, regions, cfg, brn_first): labels on a quarter-meter grid
    around the first region's center, as exact mirror images of one
    another (equally near), on a face of its location bounds, or anywhere
    near; a frame may have none."""
    bounds = draw(st.sampled_from([(2.0, 2.0, 2.0), (1.5, 0.75, 2.5)]))
    anchor = tuple(draw(QUARTERS) * 10 + a for a in (0.0, 1.0, 20.0))
    anywhere = st.floats(-40.0, 40.0)
    regions = [ProposalRegion(anchor, bounds=bounds)] + [
        ProposalRegion(tuple(draw(anywhere) for _ in range(3)), bounds=bounds)
        for _ in range(draw(st.integers(0, 2)))]
    centers = []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("mirror", "face", "grid", "anywhere")))
        if kind == "anywhere":
            centers.append(tuple(draw(anywhere) for _ in range(3)))
            continue
        off = [draw(QUARTERS) for _ in range(3)]
        axis = draw(st.integers(0, 2))
        if kind == "face":
            off = [max(min(o, m), -m) for o, m in zip(off, bounds)]
            off[axis] = draw(st.sampled_from((-1.0, 1.0))) * bounds[axis]
        offsets = [off]
        if kind == "mirror":
            offsets.append(off[:axis] + [-off[axis]] + off[axis + 1:])
        centers += [tuple(a + o for a, o in zip(anchor, off))
                    for off in offsets]
    base = _ORACLE_FRAME.labels[0]
    labels = [dataclasses.replace(base, box3d=Box3D(
        center, tuple(draw(st.floats(1.0, 5.0)) for _ in range(3)),
        draw(st.floats(-4.0, 4.0)))) for center in centers]
    frame = dataclasses.replace(_ORACLE_FRAME, labels=labels)
    sigmas = st.sampled_from((0.0, 0.1))
    cfg = OracleConfig(dims_noise_sigma=draw(sigmas),
                       yaw_noise_sigma=draw(sigmas),
                       center_noise_sigma=draw(st.sampled_from((0.0, 0.3,
                                                                3.0))),
                       rng_seed=draw(st.integers(0, 2**32 - 1)))
    return frame, regions, cfg, draw(st.booleans())


class TestOracleHeadsMatchReference:
    """The oracle heads, which share one label table of plain floats per
    frame, against the numpy oracles of tests/oracles.py, which draw every
    label's noise anew on each call."""

    @staticmethod
    def assert_same_bits(got, want):
        assert type(got) is type(want)
        for field in dataclasses.fields(got):
            g = np.asarray(getattr(got, field.name), dtype=float)
            w = np.asarray(getattr(want, field.name), dtype=float)
            assert g.shape == w.shape and g.tobytes() == w.tobytes(), field

    @settings(max_examples=300, deadline=None)
    @given(oracle_cases())
    def test_outputs_equal_the_reference_bit_for_bit(self, case):
        frame, regions, cfg, brn_first = case
        oracles = oracle_predictors(cfg)
        table = oracles.brn.__self__
        clusters, bins = table.clusters, table.bins
        for region in regions:
            calls = [(oracles.rpn, lambda: oracle_rpn_reference(
                cfg, region, frame)),
                     (oracles.brn, lambda: oracle_brn_reference(
                         cfg, clusters, bins, region, frame))]
            for head, reference in calls[::-1] if brn_first else calls:
                self.assert_same_bits(head(None, region, frame), reference())

    def test_the_zero_codes_are_the_bundles_and_read_only(self):
        # a region with no label inside its bounds gets the zero codes
        frame = make_frame("000041", seed=41, n_cars=3)
        region = ProposalRegion((30.0, 0.0, 80.0))
        names = ("rot_logits", "rot_residuals", "size_logits",
                 "size_residuals")
        brn = oracle_predictors().brn
        first, again = brn(None, region, frame), brn(None, region, frame)
        other = oracle_predictors(bins=RotationBins(5)).brn(None, region,
                                                             frame)
        assert other.rot_logits.shape == (5,)
        for name in names:
            code = getattr(first, name)
            assert not code.any()
            assert np.shares_memory(code, getattr(again, name))
            assert not np.shares_memory(code, getattr(other, name))
            with pytest.raises(ValueError):
                code.flags.writeable = True

    def test_the_heads_of_a_bundle_share_one_table(self):
        frame = make_frame("000041", seed=41, n_cars=3)
        cfg = OracleConfig(dims_noise_sigma=0.1, yaw_noise_sigma=0.1)
        clusters = cyldet.SizeClusters(np.array([[1.5, 1.6, 3.9],
                                                 [1.6, 1.8, 4.4]]))
        bins = RotationBins(5)
        oracles = oracle_predictors(cfg, clusters, bins)
        # one table, bound to the bundle's codecs, serves both heads
        table = oracles.brn.__self__
        assert oracles.rpn.__self__ is table
        assert table.clusters is clusters and table.bins is bins
        regions = [ProposalRegion(np.add(lab.box3d.center, 0.2))
                   for lab in frame.labels]
        for _ in range(2):
            for region in regions:
                self.assert_same_bits(
                    oracles.rpn(None, region, frame),
                    oracle_rpn_reference(cfg, region, frame))
                out = oracles.brn(None, region, frame)
                self.assert_same_bits(out, oracle_brn_reference(
                    cfg, clusters, bins, region, frame))
                # the codes are kept per label, and no output can write
                # to them
                for name in ("rot_logits", "rot_residuals", "size_logits",
                             "size_residuals"):
                    with pytest.raises(ValueError):
                        getattr(out, name).flags.writeable = True

    NEAR, OTHER = (0.07093, 2.702782, -2.135042), (-2.135042, 2.702782, 0.07093)

    @pytest.mark.parametrize("region_center, centers, wins", [
        # equally near: the first label wins
        ((0.5, 1.0, 20.0), ((1.5, 1.0, 20.0), (-0.5, 1.0, 20.0)), 0),
        ((0.5, 1.0, 20.0), ((-0.5, 1.0, 20.0), (1.5, 1.0, 20.0)), 0),
        # NEAR is one ulp nearer as ((dx*dx + dy*dy) + dz*dz) rounds, and
        # one ulp farther as dx*dx + (dy*dy + dz*dz) does
        ((0.0, 0.0, 0.0), (NEAR, OTHER), 0),
        ((0.0, 0.0, 0.0), (OTHER, NEAR), 1)])
    def test_ties_and_near_ties_go_as_numpy_rounds(self, region_center,
                                                    centers, wins):
        base = _ORACLE_FRAME.labels[0]
        frame = dataclasses.replace(_ORACLE_FRAME, labels=[
            dataclasses.replace(base, box3d=Box3D(c, base.box3d.dims, 0.0))
            for c in centers])
        region = ProposalRegion(region_center)
        want = _LabelTableReference(OracleConfig(), frame).nearest(region)
        assert want[0] == wins
        table = oracle_predictors().rpn.__self__
        got = table.nearest(frame, region)
        assert (got, table.centers[got]) == (wins, centers[wins])


class TestWorkDoneOnce:
    """Counted calls: what one object or one label needs is computed once."""

    noisy = OracleConfig(dims_noise_sigma=0.1, yaw_noise_sigma=0.1,
                         center_noise_sigma=0.1, box2d_noise_sigma=1.0)

    @staticmethod
    def count_side_systems(monkeypatch):
        """The boxes of each stacked constraint-system build."""
        calls = []
        side_systems = mono._side_systems

        def counted(boxes, p):
            calls.append(list(boxes))
            return side_systems(boxes, p)

        monkeypatch.setattr(mono, "_side_systems", counted)
        return calls

    def test_each_label_is_noised_once_per_frame(self, monkeypatch):
        draws = collections.Counter()
        label_rng = pipeline._label_rng

        def counted(cfg, frame_id, label_idx, stream):
            if stream == 2:
                draws[frame_id, label_idx] += 1
            return label_rng(cfg, frame_id, label_idx, stream)

        monkeypatch.setattr(pipeline, "_label_rng", counted)
        frames = make_frames(4, seed=5, cars_per_frame=(2, 4))
        oracles = oracle_predictors(self.noisy)
        for mode in pipeline.PIPELINE_MODES:
            draws.clear()
            for frame in frames:
                assert detect_frame(frame, oracles, PipelineConfig(mode=mode))
            # both heads read the truth of every label, from one table
            assert set(draws) == {(f.frame_id, i) for f in frames
                                  for i in range(len(f.labels))}
            assert set(draws.values()) == {1}

    def test_a_bundle_encodes_each_label_once_per_frame(self, monkeypatch):
        calls = collections.Counter()

        def counted(name):
            call = getattr(pipeline, name)

            def wrapper(*args, **kwargs):
                stream = kwargs.get("stream")
                if name != "_label_rng" or stream == 2:
                    calls[name] += 1
                return call(*args, **kwargs)

            monkeypatch.setattr(pipeline, name, wrapper)

        for name in ("_label_rng", "encode_rotation", "encode_size"):
            counted(name)
        a = make_frame("000042", seed=42, n_cars=3)
        b = make_frame("000043", seed=43, n_cars=2)
        oracles = oracle_predictors(self.noisy)
        # a is asked for again after b, and each frame's regions lie
        # beside every label, each region asked of both heads in turn
        for frame in (a, b, a):
            calls.clear()
            for lab in frame.labels:
                for dx in (-0.3, 0.0, 0.3):
                    for dz in (-0.2, 0.2):
                        region = ProposalRegion(
                            tuple(np.add(lab.box3d.center, (dx, 0.1, dz))))
                        assert oracles.rpn(None, region, frame).t_obj > 0
                        oracles.brn(None, region, frame)
            assert calls == dict.fromkeys(
                ("_label_rng", "encode_rotation", "encode_size"),
                len(frame.labels))

    def test_the_scatter_reuses_the_search_system(self, monkeypatch):
        calls = self.count_side_systems(monkeypatch)
        monocular = oracle_predictors(self.noisy).monocular
        config = PipelineConfig()
        for frame in make_frames(4, seed=6, cars_per_frame=(2, 4)):
            calls.clear()
            poses = solve_poses(frame, monocular, config)
            got = scatter_proposals(frame, poses, config)
            # one stacked build for all of the frame's objects, in the
            # search; the scatter builds none
            assert calls == [[det.box2d for det in monocular(frame)]]
            assert len(poses) == len(frame.labels) > 1
            # the same estimates without the search's system rebuild them,
            # again as one stack
            rebuilt = scatter_proposals(frame, [
                (obj_idx, det2d, dataclasses.replace(est, system=None))
                for obj_idx, det2d, est in poses], config)
            assert calls[1:] == [[est.box2d for _, _, est in poses]]
            centers = [np.array([r.center for *_, r in proposals]).tobytes()
                       for proposals in (got, rebuilt)]
            assert centers[0] == centers[1]
            # under another P, or for another box, the scatter builds its own
            p = frame.calib.p2 * 1.5
            _, _, est = poses[0]
            for other in (est, dataclasses.replace(
                    est, box2d=dataclasses.replace(est.box2d, xmin=est.box2d.xmin - 3.0))):
                for want_p in (p, frame.calib.p2):
                    got = spatial_scatter(other, config.scatter, want_p)
                    want = spatial_scatter_reference(other, config.scatter, want_p)
                    assert got.seed_points.tobytes() == want.seed_points.tobytes()

    def test_the_scatter_sweep_solves_each_object_once(self, monkeypatch):
        frames = make_frames(4, seed=7)
        monocular = oracle_predictors(self.noisy).monocular
        poses = [len(solve_poses(f, monocular)) for f in frames]
        calls = self.count_side_systems(monkeypatch)
        solves, regions = [], []
        solve_configs = mono._solve_configs
        region_center = codec._region_center

        def counted_solve(a, *args):
            solves.append(len(a))
            return solve_configs(a, *args)

        def counted_region(center):
            regions.append(center)
            return region_center(center)

        monkeypatch.setattr(mono, "_solve_configs", counted_solve)
        monkeypatch.setattr(codec, "_region_center", counted_region)
        for s_values in ([0.5], [0.1, 0.3, 0.5, 0.7, 0.9], [0.0] * 9):
            calls.clear()
            solves.clear()
            sweep_scatter(frames, monocular, s_values)
            # one build per frame, in its search, and none per s
            assert calls == [[det.box2d for det in monocular(f)]
                             for f in frames]
            # per frame, the search's solve, then one scatter solve of both
            # ends of every (s, pose) pair
            assert solves == [rows for f, n in zip(frames, poses)
                              for rows in (len(monocular(f)),
                                           2 * len(s_values) * n)]
        # the captures are counted from the seeds: no region is built
        assert regions == []


class TestSolvePosesLogs:
    """solve_poses searches a frame's objects in one call, and logs the
    failures afterwards, in object order, as a loop over the objects
    would."""

    def test_failures_log_as_a_per_object_loop(self, caplog):
        frame = make_frame("000007", seed=7, n_cars=3)
        good = [Mono2DDetection(lab.bbox2d, lab.box3d.dims, lab.box3d.yaw)
                for lab in frame.labels]
        car = (1.6, 1.5, 3.9)
        # a box of 1e-7 px, whose constraint matrix is rank deficient; a
        # box wider than the image, which no configuration fits; and one
        # whose only feasible solves put corners behind the camera
        bad = [Mono2DDetection(Box2D(600.0, 180.0, 600.0 + 1e-7, 180.0 + 1e-7),
                               car, 0.3),
               Mono2DDetection(Box2D(0.0, 0.0, 2000.0, 1000.0), car, 0.3),
               Mono2DDetection(Box2D(1092.0, -73.0, 5208.0, 1347.0), car, 2.0)]
        detections = [good[0], bad[0], good[1], bad[1], bad[2], good[2]]
        p = frame.calib.p2

        expected_poses, expected_log = [], []
        for obj_idx, det2d in enumerate(detections):
            try:
                est = agreement_search_reference(det2d.box2d, det2d.dims,
                                                 det2d.yaw, p)
            except NoFeasibleConfiguration as exc:
                expected_log.append(f"frame 000007 object {obj_idx}: {exc}")
                continue
            expected_poses.append((obj_idx, det2d, est))
        assert [m.split(": ", 1)[1][:12] for m in expected_log] == [
            "constraint m", "no corner co", "every feasib"]

        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="cyldet"):
            poses = solve_poses(frame, lambda _: detections, PipelineConfig())
        assert [r.getMessage() for r in caplog.records] == expected_log
        assert poses == expected_poses
        for (_, _, got), (_, _, want) in zip(poses, expected_poses):
            assert (np.array(got.solved_center).tobytes()
                    == np.array(want.solved_center).tobytes())


    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("dims, make", [
        *[(dims, collections.namedtuple("Det", "box2d dims yaw"))
          for dims in [(-1.6, 1.5, 3.9), (0.0, 1.5, 3.9),
                       (math.nan, 1.5, 3.9), (1.6, math.inf, 3.9)]],
        ((-1.6, 1.5, 3.9), Mono2DDetection), ((0.0, 1.5, 3.9), Mono2DDetection),
        ((math.nan, 1.5, 3.9), Mono2DDetection),
    ], ids=["dims0", "dims1", "dims2", "dims3", "mono2d-dims0",
            "mono2d-dims1", "mono2d-dims2"])
    def test_bad_dims_fail_their_object_not_the_frame(self, caplog, dims,
                                                      make):
        # dims of -1.6 used to raise out of solve_poses, failing the frame,
        # and a Mono2DDetection used to reject dims at or below 0 itself,
        # which failed the frame of the predictor that built it
        frame = make_frame("000007", seed=7, n_cars=3)
        good = [Mono2DDetection(lab.bbox2d, lab.box3d.dims, lab.box3d.yaw)
                for lab in frame.labels]
        # a predictor need not return Mono2DDetections; the search checks
        # the dims of whatever it returns
        bad = make(good[1].box2d, dims, good[1].yaw)
        detections = [bad, good[0], good[1], bad, good[2]]
        alone = solve_poses(frame, lambda _: good, PipelineConfig())

        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="cyldet"):
            poses = solve_poses(frame, lambda _: detections, PipelineConfig())
        assert [r.getMessage() for r in caplog.records] == [
            f"frame 000007 object {obj_idx}: dims must be finite and > 0 and "
            f"yaw finite, got dims {dims} and yaw {bad.yaw}"
            for obj_idx in (0, 3)]
        assert [(i, det2d) for i, det2d, _ in poses] == [
            (1, good[0]), (2, good[1]), (4, good[2])]
        assert [est for _, _, est in poses] == [est for _, _, est in alone]
        for (_, _, got), (_, _, want) in zip(poses, alone):
            assert (np.array(got.solved_center).tobytes()
                    == np.array(want.solved_center).tobytes())

    @pytest.mark.filterwarnings("error")
    def test_an_infinite_box_side_fails_its_object_not_the_frame(self, caplog):
        # the stacked SVD used to raise LinAlgError, failing the frame
        frame = make_frame("000007", seed=7, n_cars=3)
        good = [Mono2DDetection(lab.bbox2d, lab.box3d.dims, lab.box3d.yaw)
                for lab in frame.labels]
        bad = Mono2DDetection(Box2D(600.0, 180.0, math.inf, 210.0),
                              good[1].dims, good[1].yaw)
        alone = solve_poses(frame, lambda _: good, PipelineConfig())

        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="cyldet"):
            poses = solve_poses(frame, lambda _: [good[0], bad, *good[1:]],
                                PipelineConfig())
        assert [r.getMessage() for r in caplog.records] == [
            "frame 000007 object 1: 2D box sides must be finite, got "
            "(600.0, 180.0, inf, 210.0)"]
        assert [(i, det2d) for i, det2d, _ in poses] == [
            (0, good[0]), (2, good[1]), (3, good[2])]
        for (_, _, got), (_, _, want) in zip(poses, alone):
            assert got == want
            assert (np.array(got.solved_center).tobytes()
                    == np.array(want.solved_center).tobytes())


class TestDetectFrame:
    def test_single_car_zero_noise(self):
        frame = make_frame("000010", seed=10, n_cars=1)
        dets = detect_frame(frame, oracle_predictors(), PipelineConfig())
        assert len(dets) == 1
        assert iou_3d(dets[0].box3d, frame.labels[0].box3d) >= 0.99

    def test_impossible_threshold_yields_nothing(self):
        frame = make_frame("000011", seed=11, n_cars=2)
        config = PipelineConfig(objectness_threshold=1.0)
        assert detect_frame(frame, oracle_predictors(), config) == []

    def test_two_separated_cars(self):
        frame = make_frame("000012", seed=12, n_cars=2)
        dets = detect_frame(frame, oracle_predictors(), PipelineConfig())
        assert len(dets) == 2
        count = optimal_match_count(
            [d.box3d for d in dets], [lab.box3d for lab in frame.labels],
            0.99, iou_3d,
        )
        assert count == 2

    def test_deterministic_under_seed(self):
        frame = make_frame("000013", seed=13, n_cars=3)
        preds = oracle_predictors(OracleConfig(dims_noise_sigma=0.05, rng_seed=2))
        config = PipelineConfig(seed=5)
        a = detect_frame(frame, preds, config)
        b = detect_frame(frame, preds, config)
        assert a == b

    def test_threshold_monotonicity(self):
        frame = make_frame("000014", seed=14, n_cars=4)
        preds = oracle_predictors(OracleConfig(dims_noise_sigma=0.1, rng_seed=3))
        counts = []
        for threshold in (0.05, 0.25, 0.5, 0.8):
            config = PipelineConfig(objectness_threshold=threshold)
            counts.append(len(detect_frame(frame, preds, config)))
        assert counts == sorted(counts, reverse=True)

    def test_confidence_is_reprojection_agreement(self):
        frame = make_frame("000015", seed=15, n_cars=2)
        dets = detect_frame(frame, oracle_predictors(), PipelineConfig())
        for det in dets:
            recomputed = iou_2d(
                det.box2d_source, project_box(det.box3d, frame.calib.p2)
            )
            assert det.confidence == pytest.approx(recomputed, abs=1e-9)

    def test_data_errors_drop_proposals_other_errors_propagate(self):
        frame = make_frame("000018", seed=18, n_cars=2)
        no_points = dataclasses.replace(frame, cloud=camera_cloud(np.zeros((0, 4))))
        assert detect_frame(no_points, oracle_predictors(), PipelineConfig()) == []

        def broken_rpn(points, region, frame):
            raise TypeError("proposal head bug")

        predictors = dataclasses.replace(oracle_predictors(), rpn=broken_rpn)
        with pytest.raises(TypeError, match="proposal head bug"):
            detect_frame(frame, predictors, PipelineConfig())

    def test_a_lidar_cloud_fails_the_frame(self):
        # whether or not the heads read points, the frame's index rejects
        # the cloud before any region is asked
        frame = make_frame("000018", seed=18, n_cars=2)
        lidar = dataclasses.replace(
            frame, cloud=camera_to_lidar(frame.cloud, frame.calib))
        oracles = oracle_predictors()
        reading = dataclasses.replace(oracles, rpn=reading_head(oracles.rpn),
                                      brn=reading_head(oracles.brn))
        for predictors in (oracles, reading):
            with pytest.raises(WrongFrame, match="expected camera frame"):
                detect_frame(lidar, predictors, PipelineConfig())
            with pytest.raises(WrongFrame, match="expected camera frame"):
                sweep_objectness([lidar], predictors, [0.25], PipelineConfig())

    @pytest.mark.parametrize("mode", pipeline.PIPELINE_MODES)
    def test_a_nan_rotation_residual_drops_its_proposal(self, mode, caplog):
        # its NaN yaw used to be ignored at an intermediate stage, and to
        # fail as an unordered Box2D at the last
        frame = make_frame("000018", seed=18, n_cars=2)
        oracles = oracle_predictors()

        def brn(points, region, frame):
            out = oracles.brn(points, region, frame)
            return dataclasses.replace(out, rot_residuals=np.full_like(
                out.rot_residuals, math.nan))

        predictors = dataclasses.replace(oracles, brn=brn)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="cyldet"):
            assert detect_frame(frame, predictors,
                                PipelineConfig(mode=mode)) == []
        lines = [r.getMessage() for r in caplog.records
                 if " dropped: " in r.getMessage()]
        assert lines and all(
            line.endswith("dropped: ValueError: box fields must be finite")
            for line in lines if "EmptyCloud" not in line)

    def test_head_config_arity_mismatch_propagates(self):
        # oracle heads encode 12 rotation bins; the config decodes 8
        frame = make_frame("000019", seed=19, n_cars=1)
        config = PipelineConfig(bins=RotationBins(8))
        with pytest.raises(TypeError, match="arity"):
            detect_frame(frame, oracle_predictors(), config)

    def test_a_head_output_of_the_wrong_shape_propagates(self):
        # a wiring bug, not data: every proposal used to be dropped with
        # "ValueError: t_loc must be a 3-vector" or "ValueError: rotation
        # logits and residuals disagree in length", and the frame kept no
        # detection
        frame = make_frames(1, seed=5)[0]
        oracles = oracle_predictors()

        def rpn(points, region, frame):
            out = oracles.rpn(points, region, frame)
            return dataclasses.replace(out, t_loc=out.t_loc[:2])

        def brn(points, region, frame):
            out = oracles.brn(points, region, frame)
            return dataclasses.replace(
                out, rot_residuals=out.rot_residuals[:-1])

        short_t_loc = dataclasses.replace(oracles, rpn=rpn)
        short_residuals = dataclasses.replace(oracles, brn=brn)
        with pytest.raises(TypeError, match="t_loc must be a 3-vector"):
            detect_frame(frame, short_t_loc, PipelineConfig())
        with pytest.raises(TypeError, match="disagree in length"):
            detect_frame(frame, short_residuals, PipelineConfig())
        with pytest.raises(TypeError, match="t_loc must be a 3-vector"):
            sweep_objectness([frame], short_t_loc, [0.25], PipelineConfig())
        # the objectness sweep runs no box head
        assert (sweep_objectness([frame], short_residuals, [0.25],
                                 PipelineConfig())
                == sweep_objectness([frame], oracles, [0.25],
                                    PipelineConfig()))

    @pytest.mark.parametrize("spoil, message", [
        (lambda det: (det.box2d, det.dims[:2]), r"3 dims .*, got Box2D and \("),
        (lambda det: (det.box2d, det.dims * 2), r"3 dims .*, got Box2D and \("),
        (lambda det: (dataclasses.astuple(det.box2d), det.dims),
         r"want a Box2D .*, got tuple and \("),
    ], ids=["two-dims", "six-dims", "tuple-box"])
    def test_a_monocular_output_of_the_wrong_shape_propagates(self, spoil,
                                                               message):
        # a wiring bug, not data: dims of 2 or 6 values used to reach the
        # pose search, whose np.asarray raised numpy's ValueError, so the
        # frame failed as a data error
        frame = make_frames(1, seed=5)[0]
        oracles = oracle_predictors()

        def monocular(frame):
            first, *rest = oracles.monocular(frame)
            return [Mono2DDetection(*spoil(first), first.yaw), *rest]

        spoiled = dataclasses.replace(oracles, monocular=monocular)
        with pytest.raises(TypeError, match=message):
            detect_frame(frame, spoiled, PipelineConfig())
        with pytest.raises(TypeError, match=message):
            sweep_objectness([frame], spoiled, [0.25], PipelineConfig())
        with pytest.raises(TypeError, match=message):
            sweep_scatter([frame], monocular, [0.5], PipelineConfig())

    def test_all_modes_run(self):
        frame = make_frame("000016", seed=16, n_cars=2)
        for mode in ("single_stage", "single_stage_twice", "rpn_brn_brn"):
            dets = detect_frame(frame, oracle_predictors(),
                                PipelineConfig(mode=mode))
            assert len(dets) == 2


# a duck type of each predictor's output, with its dataclass's fields
_DUCKS = {
    "monocular": collections.namedtuple("Mono", "box2d dims yaw"),
    "rpn": collections.namedtuple("Rpn", "t_loc t_obj"),
    "brn": collections.namedtuple(
        "Brn", "t_loc rot_logits rot_residuals size_logits size_residuals"),
}
_CLASSES = {"monocular": Mono2DDetection, "rpn": RpnOutput, "brn": BrnOutput}
_VECTOR_SPOILS = {
    "short": lambda v: list(np.ravel(v))[:-1],
    "long": lambda v: [*np.ravel(v), 0.5],
    "ragged": lambda v: [list(np.ravel(v)[:2]), *np.ravel(v)[1:]],
    "none": lambda v: None,
    "object": lambda v: object(),
    "text": lambda v: ["x"] * np.size(v),
}
_SCALAR_SPOILS = {
    "pair": lambda v: [v, v],
    "none": lambda v: None,
    "object": lambda v: object(),
    "text": lambda v: "x",
}
_BOX_SPOILS = {"tuple": dataclasses.astuple, "none": lambda v: None,
               "text": lambda v: "x"}


def _spoils_of(field):
    if field == "box2d":
        return _BOX_SPOILS
    return _SCALAR_SPOILS if field in ("yaw", "t_obj") else _VECTOR_SPOILS


def _spoiled(predictors, kind, make, field, spoil):
    """predictors with every output of kind rebuilt by make, with field
    replaced by spoil of its value."""
    def rebuilt(out):
        values = {name: getattr(out, name) for name in _DUCKS[kind]._fields}
        values[field] = spoil(values[field])
        return make(**values)

    if kind == "monocular":
        return dataclasses.replace(predictors, monocular=lambda frame: [
            rebuilt(det2d) for det2d in predictors.monocular(frame)])
    head = getattr(predictors, kind)
    return dataclasses.replace(predictors, **{
        kind: lambda points, region, frame: rebuilt(head(points, region,
                                                         frame))})


@st.composite
def _malformed(draw):
    """(kind, make, field, spoil): every output of one predictor kind,
    built as its dataclass or a duck type, with one field of the wrong
    arity or type, or ragged."""
    kind = draw(st.sampled_from(sorted(_DUCKS)))
    make = draw(st.sampled_from([_CLASSES[kind], _DUCKS[kind]]))
    field = draw(st.sampled_from(_DUCKS[kind]._fields))
    spoils = _spoils_of(field)
    return kind, make, field, spoils[draw(st.sampled_from(sorted(spoils)))]


@st.composite
def _bad_values(draw):
    """(kind, make, field, spoil): every output of one predictor kind,
    well formed, with one field holding a value the pipeline rejects as
    data: NaN, infinite or at or below 0."""
    kind = draw(st.sampled_from(sorted(_DUCKS)))
    make = draw(st.sampled_from([_CLASSES[kind], _DUCKS[kind]]))
    field, values = draw(st.sampled_from({
        "monocular": [("dims", [math.nan, math.inf, 0.0, -1.6]),
                      ("yaw", [math.nan, math.inf])],
        "rpn": [("t_loc", [math.nan]), ("t_obj", [math.nan])],
        "brn": [("t_loc", [math.nan]), ("rot_residuals", [math.nan]),
                ("size_residuals", [math.nan, -100.0])],
    }[kind]))
    value = draw(st.sampled_from(values))
    if field in ("yaw", "t_obj"):
        return kind, make, field, lambda v: value
    if field.endswith("residuals"):  # the winning bin's or cluster's too
        return kind, make, field, lambda v: np.full_like(v, value)
    i = draw(st.integers(0, 2))
    return kind, make, field, lambda v: (*v[:i], value, *v[i + 1:])


class TestWiringErrorsRaise:
    """At every predictor boundary, an output of the wrong arity or type
    (a string that is not a number included), or a ragged one, is wiring:
    detect_frame, and sweep_objectness where it reads the field, raise
    TypeError, whether the predictor returns the output's dataclass or a
    duck type.  A well-formed output with a bad value is data: its object
    or proposal is dropped and logged."""

    frame = make_frames(1, seed=5)[0]

    @settings(max_examples=150, deadline=None)
    @given(case=_malformed(), mode=st.sampled_from(pipeline.PIPELINE_MODES))
    def test_a_malformed_output_raises_type_error(self, case, mode):
        kind, make, field, spoil = case
        oracles = oracle_predictors()
        spoiled = _spoiled(oracles, kind, make, field, spoil)
        config = PipelineConfig(mode=mode)
        with pytest.raises(TypeError):
            detect_frame(self.frame, spoiled, config)
        # the objectness sweep runs no box head, and reads only t_obj of a
        # proposal head's output; a dataclass checks every field when built
        if kind == "monocular" or (kind == "rpn" and (make is RpnOutput
                                                      or field == "t_obj")):
            with pytest.raises(TypeError):
                sweep_objectness([self.frame], spoiled, [0.25], config)
        else:
            assert (sweep_objectness([self.frame], spoiled, [0.25], config)
                    == sweep_objectness([self.frame], oracles, [0.25],
                                        config))

    @settings(max_examples=60, deadline=None)
    @given(case=_bad_values())
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_bad_value_is_dropped_and_logged(self, case):
        kind, make, field, spoil = case
        spoiled = _spoiled(oracle_predictors(), kind, make, field, spoil)
        lines = _Lines()
        logger = logging.getLogger("cyldet")
        logger.addHandler(lines)
        try:
            assert detect_frame(self.frame, spoiled, PipelineConfig()) == []
            sweep_objectness([self.frame], spoiled, [0.25], PipelineConfig())
        finally:
            logger.removeHandler(lines)
        assert lines.lines
        # one line per object (monocular) or dropped proposal
        assert all(re.fullmatch(r"frame 000000 (object \d+: dims must be "
                                r"finite .*|proposal .* dropped: .*)", line)
                   for line in lines.lines)


_WILD = st.sampled_from([math.nan, math.inf, -math.inf])


@st.composite
def _brn_outputs(draw, n_bins, n_clusters):
    """A box-head output whose location and codes may be NaN or infinite,
    and whose size residuals may decode to dims at or below 0."""
    def floats(lo, hi, n):
        return draw(st.lists(st.one_of(st.floats(lo, hi), _WILD),
                             min_size=n, max_size=n))

    return BrnOutput(
        t_loc=floats(-30.0, 30.0, 3),
        rot_logits=floats(-20.0, 20.0, n_bins),
        rot_residuals=floats(-4.0, 4.0, n_bins),
        size_logits=floats(-20.0, 20.0, n_clusters),
        size_residuals=np.reshape(floats(-6.0, 3.0, 3 * n_clusters), (-1, 3)),
    )


@st.composite
def _decode_cases(draw):
    """(outputs, regions, clusters, bins), with 0 to 8 outputs."""
    bins = RotationBins(draw(st.integers(1, 13)))
    clusters = cyldet.SizeClusters(np.array(draw(st.lists(
        st.tuples(*[st.floats(0.5, 5.0)] * 3), min_size=1, max_size=4,
        unique=True))))
    n = draw(st.integers(0, 8))
    outputs = [draw(_brn_outputs(bins.n_bins, clusters.n_clusters))
               for _ in range(n)]
    regions = [ProposalRegion(draw(st.tuples(*[st.floats(-50.0, 50.0)] * 3)),
                              bounds=draw(st.tuples(*[st.floats(0.1, 5.0)] * 3)))
               for _ in range(n)]
    return outputs, regions, clusters, bins


class TestDecodeBoxesMatchesReference:
    """decode_boxes against the one-output decode it replaced, output by
    output, bit for bit: the boxes' float bytes, and the type and message
    of each rejection."""

    @settings(max_examples=300, deadline=None)
    @given(case=_decode_cases())
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_each_output_as_the_reference_decodes_it(self, case):
        outputs, regions, clusters, bins = case
        want = [outcome_bits(outcome_of(decode_box_reference, out, region,
                                        clusters, bins))
                for out, region in zip(outputs, regions)]
        got = decode_boxes(outputs, regions, clusters, bins)
        assert [outcome_bits(box) for box in got] == want

    def test_an_arity_mismatch_raises_before_stacking(self):
        # stacked, the 8-bin output beside 12-bin ones would make a ragged
        # array, whose ValueError would pass for a data error and drop it
        config = PipelineConfig()
        region = ProposalRegion((0.0, 1.0, 20.0))
        codes = {"rot_logits": np.zeros(12), "rot_residuals": np.zeros(12),
                 "size_logits": np.zeros(3),
                 "size_residuals": np.zeros((3, 3))}
        good = BrnOutput(t_loc=(0.0, 0.0, 0.0), **codes)
        nan = BrnOutput(t_loc=(math.nan, 0.0, 0.0), **codes)
        for name, size in (("rot_logits", 8), ("size_logits", 2)):
            odd = dataclasses.replace(good, **{
                name: np.zeros(size),
                name.replace("logits", "residuals"):
                    np.zeros((size, 3) if name == "size_logits" else size)})
            for outputs in ([good, odd, good], [nan, odd], [odd]):
                with pytest.raises(TypeError, match="arity"):
                    decode_boxes(outputs, [region] * len(outputs),
                                 config.clusters, config.bins)


class TestModeStages:
    """Each mode's head sequence on one proposal, logged as (head, region
    center) by point heads that move every region by a fixed encoded
    offset, so each re-centering shows in the log."""

    frame = make_frame("000017", seed=17, n_cars=1)
    rpn_t_loc = (0.5, 0.0, -0.5)
    brn_t_loc = (-0.25, 0.0, 0.25)

    def run(self, mode):
        config = PipelineConfig(mode=mode, scatter=ScatterParams(s=1e-3))
        monocular = oracle_predictors().monocular
        (_, _, _, seed_region), = seed_proposals(self.frame, monocular, config)
        calls = []
        probs = iter([0.6, 0.9])

        def rpn(points, region, frame):
            calls.append(("rpn", region.center))
            return RpnOutput(t_loc=self.rpn_t_loc, t_obj=float(logit(next(probs))))

        def brn(points, region, frame):
            calls.append(("brn", region.center))
            n_bins, n_clusters = config.bins.n_bins, config.clusters.n_clusters
            return BrnOutput(
                t_loc=self.brn_t_loc,
                rot_logits=np.zeros(n_bins), rot_residuals=np.zeros(n_bins),
                size_logits=np.zeros(n_clusters),
                size_residuals=np.zeros((n_clusters, 3)),
            )

        dets = detect_frame(self.frame, Predictors(monocular, rpn, brn), config)
        assert len(dets) == 1
        return seed_region, calls, dets[0]

    @staticmethod
    def moved(region, t_loc):
        return region.recentered(decode_location(t_loc, region))

    @staticmethod
    def assert_calls(calls, expected):
        assert [head for head, _ in calls] == [head for head, _ in expected]
        np.testing.assert_allclose([c for _, c in calls],
                                   [r.center for _, r in expected],
                                   rtol=0.0, atol=1e-12)

    def test_single_stage(self):
        region, calls, det = self.run("single_stage")
        self.assert_calls(calls, [("rpn", region), ("brn", region)])
        assert det.objectness == pytest.approx(0.6)

    def test_single_stage_twice(self):
        region, calls, det = self.run("single_stage_twice")
        region1 = self.moved(region, self.brn_t_loc)
        self.assert_calls(calls, [("rpn", region), ("brn", region),
                                  ("rpn", region1), ("brn", region1)])
        assert det.objectness == pytest.approx(0.9)
        np.testing.assert_allclose(det.box3d.center,
                                   self.moved(region1, self.brn_t_loc).center)

    def test_rpn_brn_brn(self):
        region, calls, det = self.run("rpn_brn_brn")
        region1 = self.moved(region, self.rpn_t_loc)
        region2 = self.moved(region1, self.brn_t_loc)
        self.assert_calls(calls, [("rpn", region), ("brn", region1),
                                  ("brn", region2)])
        assert det.objectness == pytest.approx(0.6)
        np.testing.assert_allclose(det.box3d.center,
                                   self.moved(region2, self.brn_t_loc).center)


class TestPointPreparation:
    """Points are prepared only when a head calls points(); the empty-region
    drop applies to every head."""

    # a dense frame: far cars and ground, so some seed regions are empty
    frame = make_frame("000020", seed=22, n_cars=8, ground_points=16800,
                       z_range=(8, 45))
    config = PipelineConfig(objectness_threshold=0.05)
    oracles = oracle_predictors(OracleConfig(dims_noise_sigma=0.1,
                                             yaw_noise_sigma=0.1))

    def outputs(self, predictors, caplog):
        """Detections, objectness-sweep rows and drop lines of one frame."""
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="cyldet"):
            dets = detect_frame(self.frame, predictors, self.config)
            rows = sweep_objectness([self.frame], predictors, [0.05, 0.5],
                                    self.config)
        return dets, rows, [r.getMessage() for r in caplog.records]

    @staticmethod
    def refuse_points(monkeypatch):
        def refuse(*args):
            raise AssertionError("points prepared for an oracle head")

        for name in ("voxel_downsample", "sample_points", "derive_seed"):
            monkeypatch.setattr(pipeline, name, refuse)

    def test_oracle_heads_prepare_no_points(self, monkeypatch, caplog):
        # heads that call points() get the outputs of heads that do not
        reading = Predictors(self.oracles.monocular,
                             reading_head(self.oracles.rpn),
                             reading_head(self.oracles.brn))
        expected = self.outputs(reading, caplog)
        assert any("EmptyCloud" in line for line in expected[2])
        self.refuse_points(monkeypatch)
        assert self.outputs(self.oracles, caplog) == expected

    def test_wrapped_oracle_heads_prepare_no_points(self, monkeypatch,
                                                    caplog):
        # a plain function around an oracle, as a tracer wraps a head,
        # takes the oracle's path: nothing is prepared unless it is asked
        expected = self.outputs(self.oracles, caplog)
        wrapped = Predictors(self.oracles.monocular,
                             lambda *args: self.oracles.rpn(*args),
                             lambda *args: self.oracles.brn(*args))
        self.refuse_points(monkeypatch)
        assert self.outputs(wrapped, caplog) == expected

    @pytest.mark.parametrize("mode", pipeline.PIPELINE_MODES)
    def test_point_heads_receive_region_points(self, monkeypatch, mode):
        config = dataclasses.replace(self.config, mode=mode)
        seeds = []

        def recorded_seed(*parts):
            seeds.append(parts)
            return derive_seed(*parts)

        monkeypatch.setattr(pipeline, "derive_seed", recorded_seed)
        calls = []
        index = RegionIndex(self.frame.cloud, config.region)

        def head(name, oracle):
            def read(points, region, frame):
                got = points().points
                expected = region_points(index, region, config, *seeds[-1])
                np.testing.assert_array_equal(got, expected.points)
                # prepared again on each call, with the same bits
                np.testing.assert_array_equal(points().points, got)
                calls.append((name, seeds[-1][-1]))
                return oracle(points, region, frame)
            return read

        predictors = Predictors(self.oracles.monocular,
                                head("rpn", self.oracles.rpn),
                                head("brn", self.oracles.brn))
        assert (detect_frame(self.frame, predictors, config)
                == detect_frame(self.frame, self.oracles, config))
        stages = pipeline.MODE_STAGES[mode]
        assert {name for name, _ in calls} == {"rpn", "brn"}
        assert all(stages[stage][0] == name for name, stage in calls)

        # the sweep runs the proposal head once per seed region, at stage 0
        calls.clear()
        thresholds = [0.05, 0.5]
        assert (sweep_objectness([self.frame], predictors, thresholds, config)
                == sweep_objectness([self.frame], self.oracles, thresholds,
                                    config))
        assert calls and set(calls) == {("rpn", 0)}


class TestStageMajor:
    """detect_frame runs each stage over every region the stage before
    kept; the drop lines still come out at the end of the frame, one per
    dropped proposal, in (obj, seed) order."""

    frame = TestPointPreparation.frame
    config = dataclasses.replace(TestPointPreparation.config,
                                 mode="rpn_brn_brn")
    oracles = TestPointPreparation.oracles

    class Chosen(ValueError):
        pass

    def run(self, monkeypatch, caplog, raise_at):
        """(obj, seed, stage) of each head call in call order, and the drop
        lines, with heads that raise Chosen at the triples in raise_at."""
        parts = []

        def recorded_seed(*seed_parts):
            parts.append(seed_parts)
            return derive_seed(*seed_parts)

        monkeypatch.setattr(pipeline, "derive_seed", recorded_seed)
        calls = []

        def head(oracle):
            # the seed of the points it reads names its call
            def read(points, region, frame):
                points()
                triple = parts[-1][2:]
                calls.append(triple)
                if triple in raise_at:
                    raise self.Chosen("obj%d seed%d stage%d" % triple)
                return oracle(points, region, frame)
            return read

        predictors = Predictors(self.oracles.monocular,
                                head(self.oracles.rpn), head(self.oracles.brn))
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="cyldet"):
            detect_frame(self.frame, predictors, self.config)
        return calls, [r.getMessage() for r in caplog.records
                       if " dropped: " in r.getMessage()]

    def test_drop_lines_come_in_seed_order(self, monkeypatch, caplog):
        calls, plain = self.run(monkeypatch, caplog, set())
        # stage-major: each stage's calls, in seed order, after the last
        # stage's
        assert calls == sorted(calls, key=lambda t: (t[2], t[0], t[1]))
        assert {stage for *_, stage in calls} == {0, 1, 2}
        assert any("EmptyCloud" in line for line in plain)
        chosen = {t for t in calls if (31 * t[0] + t[1]) % 7 == t[2]}
        assert {stage for *_, stage in chosen} == {0, 1, 2}
        _, lines = self.run(monkeypatch, caplog, chosen)

        def key(line):
            return tuple(map(int, re.search(r"obj(\d+)\.seed(\d+) ",
                                            line).groups()))

        expected = {key(line): line for line in plain}
        assert len(expected) == len(plain)
        for obj_idx, seed_idx, stage in chosen:
            expected[obj_idx, seed_idx] = (
                f"frame {self.frame.frame_id} proposal obj{obj_idx}."
                f"seed{seed_idx} dropped: Chosen: obj{obj_idx} "
                f"seed{seed_idx} stage{stage}")
        assert lines == [expected[k] for k in sorted(expected)]

    def test_a_nan_location_drops_its_proposal_by_its_center(self, caplog):
        # the proposal head's location of every other region that passes
        # its gate is NaN; in rpn_brn_brn the region moves onto it
        frames = make_frames(3, seed=5)
        config = PipelineConfig(mode="rpn_brn_brn")
        oracles = oracle_predictors()
        seeds = {frame.frame_id: {
            region: (obj_idx, seed_idx) for obj_idx, seed_idx, _, region
            in seed_proposals(frame, oracles.monocular, config)}
            for frame in frames}
        scored, spoiled = [], set()

        class NanRpn:
            def __call__(self, points, region, frame):
                out = oracles.rpn(points, region, frame)
                if (pipeline.objectness(out.t_obj)
                        < config.objectness_threshold):
                    return out
                scored.append(region)
                if len(scored) % 2:
                    obj_idx, seed_idx = seeds[frame.frame_id][region]
                    spoiled.add((frame.frame_id, str(obj_idx), str(seed_idx)))
                    return RpnOutput((math.nan, 0.0, 0.0), out.t_obj)
                return out

        def drop_lines(predictors):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="cyldet"):
                for frame in frames:
                    detect_frame(frame, predictors, config)
            key = re.compile(r"frame (\S+) proposal obj(\d+)\.seed(\d+) ")
            return {key.match(line).groups(): line
                    for line in (r.getMessage() for r in caplog.records)
                    if " dropped: " in line}

        plain = drop_lines(oracles)
        lines = drop_lines(dataclasses.replace(oracles, rpn=NanRpn()))
        assert len(spoiled) >= 5
        for key in spoiled:
            assert lines.pop(key).endswith(
                "dropped: ValueError: center must be finite")
        assert lines == {k: v for k, v in plain.items() if k not in spoiled}


class TestStackedStepMatchesReference:
    """Heads that return a NaN objectness, NaN or infinite locations,
    non-positive dims, or boxes reaching behind the camera at chosen
    regions, in all three modes: the drop lines and the documents hash to
    the digests recorded from the per-proposal step, which decoded and
    projected one box at a time.  Every kind of drop occurs."""

    frames = make_frames(2, seed=5) + [TestPointPreparation.frame]
    oracles = TestPointPreparation.oracles
    DIGESTS = {
        "single_stage": (
            "00efce88c8fd618ccdfe951dffbc19f098af96bac1ea98422592ed8b59714b1a",
            "f0a569bccd30757298c82a2b642f054654a7d0161e3e03a60ab2bce800113bc4"),
        "single_stage_twice": (
            "eaee83a7aebaea66b5a0c889689484070e8086710646732549033541851997a4",
            "66907233fae6edebe8a0fcd2d3008a3f8015e94a438d541398bcf621984ce735"),
        "rpn_brn_brn": (
            "4b68422b66a7ec70dcf20783f00c59a020d0518be4f82a9e22beb764abc1104c",
            "936f57fec2019271b6f9d1f9b454a733b42e7dfb1d0a5704aa0a4bbf2f9cadcb"),
    }
    KINDS = ("EmptyCloud", "BehindCamera", "NonPositiveDims",
             "ValueError: box fields must be finite",
             "ValueError: objectness output is NaN")

    @staticmethod
    def chosen(region):
        return round(region.center[2] * 1e3) % 7

    def spoiled(self, oracles):
        def rpn(points, region, frame):
            out = oracles.rpn(points, region, frame)
            if self.chosen(region) == 0:
                return RpnOutput(out.t_loc, math.nan)
            return out

        def brn(points, region, frame):
            out = oracles.brn(points, region, frame)
            residuals = out.size_residuals
            change = {
                1: {"size_residuals": residuals - 10.0},
                # a box 200 m long reaches behind the camera
                2: {"size_residuals": residuals + [0.0, 0.0, 200.0]},
                3: {"t_loc": (math.nan, 0.0, math.inf)},
            }.get(self.chosen(region))
            return dataclasses.replace(out, **change) if change else out

        return Predictors(oracles.monocular, rpn, brn)

    @pytest.mark.parametrize("mode", pipeline.PIPELINE_MODES)
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_drop_lines_and_documents_are_unchanged(self, mode, caplog):
        config = PipelineConfig(mode=mode, objectness_threshold=0.05)
        predictors = self.spoiled(self.oracles)
        documents = []
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="cyldet"):
            for frame in self.frames:
                documents += [format_detection(frame.frame_id, det) for det
                              in detect_frame(frame, predictors, config)]
        lines = [r.getMessage() for r in caplog.records
                 if " dropped: " in r.getMessage()]
        assert all(any(f"dropped: {kind}" in line for line in lines)
                   for kind in self.KINDS)
        assert (hashlib.sha256("\n".join(lines).encode()).hexdigest(),
                hashlib.sha256("\n".join(documents).encode()).hexdigest()
                ) == self.DIGESTS[mode]


class _Lines(logging.Handler):
    """The messages of the records logged while it is attached."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.lines = []

    def emit(self, record):
        self.lines.append(record.getMessage())


def _points_head(head):
    """A head that prepares its region's points and answers as head does,
    nudged by their digest: every stage's points reach the documents, and
    a region whose digest is 0 mod 8 is dropped with a line that names
    it."""
    def read(points, region, frame):
        digest = hashlib.sha256(points().points.tobytes()).hexdigest()
        if int(digest, 16) % 8 == 0:
            raise ValueError(f"points {digest[:16]}")
        out = head(points, region, frame)
        nudge = int(digest[:6], 16) * 2.0**-24 * 1e-4
        t_loc = tuple(v + nudge for v in out.t_loc)
        if isinstance(out, RpnOutput):
            return RpnOutput(t_loc, out.t_obj + nudge)
        return dataclasses.replace(out, t_loc=t_loc)
    return read


class TestDetectFrameMatchesReference:
    """detect_frame against detect_frame_reference, which runs one
    proposal at a time through every stage, finds each region's points by
    a scan of every point and prepares them on its own: the same document
    bytes and the same log lines, with pose failures, empty regions, far
    points, heads that drop chosen regions, and heads that read their
    points or do not, in all three modes."""

    # a box of 1e-7 px, whose constraint matrix is rank deficient; a box
    # wider than the image, which no configuration fits; and one whose only
    # feasible solves put corners behind the camera
    UNSOLVABLE = [
        Mono2DDetection(Box2D(600.0, 180.0, 600.0 + 1e-7, 180.0 + 1e-7),
                        (1.6, 1.5, 3.9), 0.3),
        Mono2DDetection(Box2D(0.0, 0.0, 2000.0, 1000.0), (1.6, 1.5, 3.9), 0.3),
        Mono2DDetection(Box2D(1092.0, -73.0, 5208.0, 1347.0),
                        (1.6, 1.5, 3.9), 2.0)]

    @staticmethod
    def drawn_frame(seed, n_cars, ground_points, far):
        frame = make_frame(f"{seed:06d}", seed=seed, n_cars=n_cars,
                           ground_points=ground_points, z_range=(8.0, 45.0))
        if far is None:
            return frame
        points = np.vstack([frame.cloud.points, [[far, 0.5, far, 0.5]]])
        return dataclasses.replace(frame,
                                   cloud=PointCloud(points, frame="camera"))

    @pytest.mark.parametrize("reading", [False, True])
    @pytest.mark.parametrize("mode", pipeline.PIPELINE_MODES)
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**16), n_cars=st.integers(1, 4),
           ground_points=st.sampled_from([0, 300, 2000]),
           far=st.sampled_from([None, 1e7, 1e300]),
           noise=st.sampled_from([0.0, 0.1]),
           unsolvable=st.lists(st.integers(0, 2), max_size=2),
           spoil=st.booleans())
    @example(seed=1, n_cars=3, ground_points=2000, far=1e300, noise=0.1,
             unsolvable=[0, 1, 2], spoil=True)
    @example(seed=2, n_cars=2, ground_points=0, far=None, noise=0.0,
             unsolvable=[], spoil=False)
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_documents_and_log_lines(self, mode, reading, seed, n_cars,
                                     ground_points, far, noise, unsolvable,
                                     spoil):
        frame = self.drawn_frame(seed, n_cars, ground_points, far)
        oracles = oracle_predictors(OracleConfig(
            dims_noise_sigma=noise, yaw_noise_sigma=noise,
            center_noise_sigma=noise, box2d_noise_sigma=noise))
        if spoil:
            oracles = TestStackedStepMatchesReference().spoiled(oracles)
        rpn, brn = oracles.rpn, oracles.brn
        if reading:
            rpn, brn = _points_head(rpn), _points_head(brn)

        def monocular(frame):
            found = oracles.monocular(frame)
            return ([self.UNSOLVABLE[i] for i in unsolvable[:1]] + found
                    + [self.UNSOLVABLE[i] for i in unsolvable[1:]])

        predictors = Predictors(monocular, rpn, brn)
        config = PipelineConfig(mode=mode, objectness_threshold=0.05)
        want, want_lines = detect_frame_reference(frame, predictors, config)
        handler = _Lines()
        log = logging.getLogger("cyldet")
        log.addHandler(handler)
        try:
            got = detect_frame(frame, predictors, config)
        finally:
            log.removeHandler(handler)
        assert handler.lines == want_lines
        assert ([format_detection(frame.frame_id, d) for d in got]
                == [format_detection(frame.frame_id, d) for d in want])


class TestNanObjectness:
    """A NaN objectness drops its proposal with a line that names it; no
    threshold would reject it, as every comparison with NaN is false."""

    frame = make_frames(1, seed=5)[0]
    oracles = oracle_predictors()

    def spoiled(self, spoil, t_obj):
        """The oracles, with the proposal head's t_obj replaced by t_obj on
        each call whose number (from 0) spoil accepts."""
        rpn, calls = self.oracles.rpn, []

        class Rpn:
            def __call__(self, points, region, frame):
                out = rpn(points, region, frame)
                calls.append(region)
                if spoil(len(calls) - 1):
                    return RpnOutput(out.t_loc, t_obj)
                return out

        return dataclasses.replace(self.oracles, rpn=Rpn()), calls

    def test_all_nan_detects_nothing(self, caplog):
        config = PipelineConfig()
        seeds = seed_proposals(self.frame, self.oracles.monocular, config)
        predictors, calls = self.spoiled(lambda i: True, math.nan)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="cyldet"):
            assert detect_frame(self.frame, predictors, config) == []
        lines = [r.getMessage() for r in caplog.records
                 if " dropped: " in r.getMessage()]
        nan = [line for line in lines
               if line.endswith("ValueError: objectness output is NaN")]
        assert len(lines) == len(seeds) and len(nan) == len(calls) > 0
        thresholds = [0.0, 0.05, 0.25, 0.9]
        assert (sweep_objectness([self.frame], predictors, thresholds, config)
                == [(t, 0.0, 0.0) for t in thresholds])

    @pytest.mark.parametrize("mode", pipeline.PIPELINE_MODES)
    def test_nan_and_minus_inf_write_the_same_documents(self, mode):
        config = PipelineConfig(mode=mode)

        def document(predictors):
            return [format_detection(self.frame.frame_id, det)
                    for det in detect_frame(self.frame, predictors, config)]

        def every_other(i):
            return i % 2 == 1

        nan, _ = self.spoiled(every_other, math.nan)
        minus_inf, _ = self.spoiled(every_other, -math.inf)
        assert document(nan) == document(minus_inf)
        assert all("nan" not in line for line in document(nan))


class TestNanHeadOutputs:
    """A box head's logits that hold a NaN pick no bin or cluster (an
    argmax would pick the NaN's): its proposal is dropped and logged with
    NanLogits in every mode, whether the head returns a BrnOutput or a
    duck type.  A NaN location is dropped by the gate that moves the
    region onto it."""

    frame = make_frames(1, seed=5)[0]

    def drop_lines(self, predictors, mode):
        lines = _Lines()
        logger = logging.getLogger("cyldet")
        logger.addHandler(lines)
        try:
            assert detect_frame(self.frame, predictors,
                                PipelineConfig(mode=mode)) == []
        finally:
            logger.removeHandler(lines)
        assert all(re.fullmatch(r"frame 000000 proposal obj\d+\.seed\d+ "
                                r"dropped: .*", line) for line in lines.lines)
        return lines.lines

    @pytest.mark.parametrize("mode", pipeline.PIPELINE_MODES)
    @pytest.mark.parametrize("make", [BrnOutput, _DUCKS["brn"]],
                             ids=["dataclass", "duck"])
    @pytest.mark.parametrize("field, what", [("rot_logits", "rotation"),
                                             ("size_logits", "size")])
    def test_nan_logits_detect_nothing(self, field, what, make, mode):
        spoiled = _spoiled(oracle_predictors(), "brn", make, field,
                           lambda v: np.full_like(v, math.nan))
        lines = self.drop_lines(spoiled, mode)
        assert any(line.endswith(f"NanLogits: {what} logits hold a NaN")
                   for line in lines)

    def test_a_nan_location_is_dropped_where_the_region_moves_onto_it(self):
        spoiled = _spoiled(oracle_predictors(), "rpn", RpnOutput, "t_loc",
                           lambda v: (v[0], math.nan, v[2]))
        lines = self.drop_lines(spoiled, "rpn_brn_brn")
        assert any(line.endswith("ValueError: center must be finite")
                   for line in lines)


class TestOracleConfig:
    @pytest.mark.parametrize("field", ["dims_noise_sigma", "yaw_noise_sigma",
                                       "center_noise_sigma",
                                       "box2d_noise_sigma"])
    @pytest.mark.parametrize("value", [-0.1, math.nan, math.inf, -math.inf])
    def test_noise_must_be_finite_and_at_least_zero(self, field, value):
        # a NaN sigma used to pass and drop every object or proposal,
        # which read as recall 0 rather than a bad setting
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            OracleConfig(**{field: value})


class TestPipelineConfig:
    @pytest.mark.parametrize("field, value", [
        ("voxel_resolution", 0.0), ("voxel_resolution", -0.1),
        ("voxel_resolution", math.nan), ("voxel_resolution", math.inf),
        ("voxel_resolution", -math.inf),
        ("sample_count", 0), ("sample_count", -3),
    ])
    def test_point_preparation_settings_are_checked(self, field, value):
        # checked up front: a head that reads no points would never reject them
        with pytest.raises(ValueError, match=field):
            PipelineConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("residual_cap", 0.0), ("residual_cap", -1.0),
        ("residual_cap", math.nan),
        ("nms_threshold", -0.01), ("nms_threshold", 1.5),
        ("nms_threshold", math.nan),
        ("objectness_threshold", -0.01), ("objectness_threshold", 1.5),
        ("objectness_threshold", math.nan),
    ])
    def test_search_and_nms_settings_are_checked(self, field, value):
        # a bad cap fails every pose and a bad NMS threshold every frame,
        # which would read as bad data rather than a bad setting; a NaN
        # objectness threshold would pass every proposal
        with pytest.raises(ValueError, match=field):
            PipelineConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("region_radius", 0.0), ("region_radius", -1.0),
        ("region_radius", math.nan),
        ("region_y_extent", (3.0, -1.0)), ("region_y_extent", (1.0, 1.0)),
        ("region_y_extent", (math.nan, 3.0)),
        ("region_bounds", (2.0, 0.0, 2.0)),
        ("region_bounds", (2.0, 2.0, math.nan)), ("region_bounds", (2.0, 2.0)),
        ("region_radius", math.inf), ("region_bounds", (2.0, math.inf, 2.0)),
        ("region_bounds", (2.0, 2.0, -1.0)),
    ])
    def test_region_settings_are_checked(self, field, value):
        # the region is a ProposalRegion, checked by its own rules, whose
        # messages name the field: a bad region used to fail every
        # proposal, which read as recall 0 rather than a bad setting
        name = field.removeprefix("region_")
        with pytest.raises(ValueError, match=name) as want:
            ProposalRegion((0.0, 0.0, 0.0), **{name: value})
        with pytest.raises(ValueError) as got:
            PipelineConfig(region=ProposalRegion((0, 0, 0), **{name: value}))
        assert str(got.value) == str(want.value)

    def test_region_is_the_shape_of_every_proposal(self):
        config = PipelineConfig(region=ProposalRegion(
            (0, 0, 0), radius=3, y_extent=(-2, 2.5), bounds=(1.5, 2, 2.5)))
        shape = config.region
        assert shape == ProposalRegion((0.0, 0.0, 0.0), 3.0, (-2.0, 2.5),
                                       (1.5, 2.0, 2.5))
        frame = make_frame("000007", seed=7, n_cars=3)
        proposals = seed_proposals(frame, oracle_predictors().monocular, config)
        assert len(proposals) > 3
        for *_, region in proposals:
            assert region == shape.recentered(region.center)
            assert all(type(v) is float for v in (
                region.radius, *region.y_extent, *region.bounds))

    def test_settings_at_their_limits_are_accepted(self):
        for threshold in (0.0, 1.0):
            PipelineConfig(residual_cap=math.inf, nms_threshold=threshold,
                           objectness_threshold=threshold)


def make_detection(center, yaw, confidence, dims=(1.6, 1.5, 3.9)):
    return Detection(
        box3d=Box3D(center, dims, yaw),
        box2d_source=cyldet.Box2D(0, 0, 10, 10),
        objectness=confidence,
        confidence=confidence,
    )


class TestNmsBev:
    def test_single_detection_unchanged(self):
        det = make_detection((0, 0, 10), 0.0, 0.9)
        assert nms_bev([det], 0.05) == [det]

    def test_duplicate_keeps_higher_confidence(self):
        a = make_detection((0, 0, 10), 0.0, 0.9)
        b = make_detection((0, 0, 10), 0.0, 0.8)
        assert nms_bev([b, a], 0.05) == [a]

    def test_threshold_one_keeps_everything(self):
        dets = [make_detection((0, 0, 10), 0.0, 0.9),
                make_detection((0, 0, 10), 0.0, 0.8)]
        assert len(nms_bev(dets, 1.0)) == 2

    def test_matches_reference_on_random_sets(self):
        # tied confidences pin the tie order (insertion index) that
        # detect_frame relies on when it hands detections over unsorted
        def distinct(rng):
            return float(rng.uniform(0, 1))

        def tied(rng):
            return float(rng.choice([0.5, 0.7, 0.9]))

        for draw_confidence in (distinct, tied):
            rng = np.random.default_rng(20)
            for trial in range(100):
                n = int(rng.integers(1, 12))
                dets = [
                    make_detection(
                        (rng.uniform(-8, 8), 0.0, rng.uniform(10, 25)),
                        rng.uniform(-math.pi, math.pi),
                        draw_confidence(rng),
                    )
                    for _ in range(n)
                ]
                threshold = float(rng.uniform(0.0, 0.7))
                kept = nms_bev(dets, threshold)
                ref = greedy_nms_reference(
                    [d.box3d for d in dets], [d.confidence for d in dets],
                    threshold, cyldet.iou_bev,
                )
                assert kept == [dets[i] for i in ref]

    def test_kept_pairs_below_threshold(self):
        rng = np.random.default_rng(21)
        dets = [
            make_detection(
                (rng.uniform(-5, 5), 0.0, rng.uniform(10, 20)),
                rng.uniform(-math.pi, math.pi),
                float(rng.uniform(0, 1)),
            )
            for _ in range(20)
        ]
        kept = nms_bev(dets, 0.3)
        assert set(map(id, kept)) <= set(map(id, dets))
        for i, a in enumerate(kept):
            for b in kept[:i]:
                assert cyldet.iou_bev(a.box3d, b.box3d) <= 0.3


class TestDetectionDocument:
    def test_line_round_trip(self):
        det = make_detection((1.25, 0.5, 17.5), 0.8, 0.93)
        line = format_detection("000123", det)
        frame_id, class_name, back = parse_detection_line(line)
        assert frame_id == "000123"
        assert class_name == "Car"
        np.testing.assert_allclose(back.box3d.center, det.box3d.center,
                                   atol=1e-6)
        np.testing.assert_allclose(back.box3d.dims, det.box3d.dims, atol=1e-6)
        assert back.box3d.yaw == pytest.approx(det.box3d.yaw, abs=1e-6)
        assert back.confidence == pytest.approx(det.confidence, abs=1e-6)

    def test_kitti_field_order_with_bottom_center(self):
        det = make_detection((2.0, 1.0, 10.0), 0.0, 0.5, dims=(1.0, 2.0, 4.0))
        fields = format_detection("0", det).split()
        # h w l then location with y at the bottom face (center y + h/2)
        assert [float(f) for f in fields[6:9]] == [2.0, 1.0, 4.0]
        assert float(fields[10]) == pytest.approx(2.0)

    def test_write_read_file(self, tmp_path):
        frame = make_frame("000017", seed=17, n_cars=2)
        dets = detect_frame(frame, oracle_predictors(), PipelineConfig())
        path = tmp_path / "out.txt"
        cyldet.write_detections(path, frame.frame_id, dets)
        rows = cyldet.read_detections(path)
        assert len(rows) == len(dets)
        for (fid, cls, det), want in zip(rows, dets):
            assert fid == frame.frame_id
            np.testing.assert_allclose(det.box3d.center, want.box3d.center,
                                       atol=1e-6)

    @pytest.mark.parametrize("edit, message", [
        (lambda fields: fields[:5], "expected 15 fields, got 5"),
        (lambda fields: fields[:8] + ["x"] + fields[9:],
         "could not convert string to float: 'x'"),
        (lambda fields: fields[:11] + ["inf"] + fields[12:],
         "box fields must be finite"),
    ], ids=["field-count", "not-a-number", "infinite-z"])
    def test_a_bad_line_names_its_file_and_line(self, tmp_path, edit,
                                                message):
        # the message used to name neither the file nor the line
        line = format_detection("000005", make_detection((1.0, 0.5, 17.5),
                                                         0.8, 0.9))
        path = tmp_path / "000005.txt"
        path.write_text(f"{line}\n\n{' '.join(edit(line.split()))}\n")
        with pytest.raises(ValueError) as info:
            cyldet.read_detections(path)
        assert type(info.value) is ValueError
        assert str(info.value) == f"{path}: line 3: {message}"

    def test_a_document_that_is_not_utf8_is_named(self, tmp_path):
        # it used to raise the bare UnicodeDecodeError, naming no file
        line = format_detection("000005", make_detection((1.0, 0.5, 17.5),
                                                         0.8, 0.9))
        path = tmp_path / "000005.txt"
        path.write_bytes(f"{line}\n".encode() + b"\xff")
        with pytest.raises(cyldet.KittiFormatError) as info:
            cyldet.read_detections(path)
        assert str(info.value).startswith(f"{path}: not UTF-8 text: ")
