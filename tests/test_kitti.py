import math
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cyldet
from cyldet import (
    Box2D,
    FieldCountMismatch,
    MalformedNumber,
    MissingFile,
    MissingKey,
    PointCloud,
    TruncatedRecord,
    WrongFrame,
    assign_difficulty,
    camera_to_lidar,
    emit_calibration,
    emit_labels,
    emit_velodyne,
    iter_split,
    lidar_to_camera,
    load_frame,
    parse_calibration,
    parse_labels,
    parse_velodyne,
)
from cyldet import synthetic
from cyldet.evalbench import desync_frame
from cyldet.geometry import Box3D
from cyldet.kitti import CalibrationSet, parse_lines
from cyldet.synthetic import make_calibration, make_frames, write_dataset
from oracles import camera_to_lidar_reference, lidar_to_camera_reference

IDENTITY_CALIB = """P2: 1 0 0 0 0 1 0 0 0 0 1 0
R0_rect: 1 0 0 0 1 0 0 0 1
Tr_velo_to_cam: 1 0 0 0 0 1 0 0 0 0 1 0
"""


def rotation_xyz(a, b, c):
    ca, sa = math.cos(a), math.sin(a)
    cb, sb = math.cos(b), math.sin(b)
    cc, sc = math.cos(c), math.sin(c)
    rx = np.array([[1, 0, 0], [0, ca, -sa], [0, sa, ca]])
    ry = np.array([[cb, 0, sb], [0, 1, 0], [-sb, 0, cb]])
    rz = np.array([[cc, -sc, 0], [sc, cc, 0], [0, 0, 1]])
    return rz @ ry @ rx


def random_calib(rng):
    tr = np.zeros((3, 4))
    tr[:, :3] = rotation_xyz(*rng.uniform(-1, 1, size=3))
    tr[:, 3] = rng.uniform(-2, 2, size=3)
    p2 = np.array([
        [rng.uniform(500, 900), 0.0, rng.uniform(500, 700), rng.uniform(-50, 50)],
        [0.0, rng.uniform(500, 900), rng.uniform(150, 250), rng.uniform(-1, 1)],
        [0.0, 0.0, 1.0, rng.uniform(-0.01, 0.01)],
    ])
    return CalibrationSet(
        p2=p2, r0_rect=rotation_xyz(*rng.uniform(-0.01, 0.01, size=3)),
        tr_velo_to_cam=tr,
    )


class TestCalibration:
    def test_identity_round_trip(self):
        calib = parse_calibration(IDENTITY_CALIB)
        np.testing.assert_array_equal(
            calib.p2, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
        )

    def test_missing_key(self):
        text = "\n".join(
            line for line in IDENTITY_CALIB.splitlines() if not line.startswith("P2")
        )
        with pytest.raises(MissingKey, match="P2"):
            parse_calibration(text)

    def test_malformed_number_names_line_and_key(self):
        text = IDENTITY_CALIB.replace("R0_rect: 1", "R0_rect: abc")
        with pytest.raises(MalformedNumber, match="R0_rect"):
            parse_calibration(text)

    def test_wrong_value_count(self):
        text = IDENTITY_CALIB.replace(
            "P2: 1 0 0 0 0 1 0 0 0 0 1 0", "P2: 1 0 0 0 0 1 0 0 0 0 1"
        )
        with pytest.raises(FieldCountMismatch, match="P2"):
            parse_calibration(text)

    def test_emit_parse_round_trip(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            calib = random_calib(rng)
            back = parse_calibration(emit_calibration(calib))
            np.testing.assert_allclose(back.p2, calib.p2, atol=1e-9)
            np.testing.assert_allclose(back.r0_rect, calib.r0_rect, atol=1e-9)
            np.testing.assert_allclose(
                back.tr_velo_to_cam, calib.tr_velo_to_cam, atol=1e-9
            )

    def test_rejects_non_orthonormal_rotation(self):
        bad = IDENTITY_CALIB.replace("R0_rect: 1 0 0", "R0_rect: 1 0.1 0")
        with pytest.raises(ValueError, match="orthonormal"):
            parse_calibration(bad)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key, old, new", [
        ("P2", "P2: 1 0 0 0", "P2: 1 0 0 {}"),
        ("R0_rect", "R0_rect: 1 0 0", "R0_rect: {} 0 0"),
        ("Tr_velo_to_cam", "Tr_velo_to_cam: 1 0 0 0",
         "Tr_velo_to_cam: {} 0 0 0"),
        ("Tr_velo_to_cam", "Tr_velo_to_cam: 1 0 0 0 0 1 0 0 0 0 1 0",
         "Tr_velo_to_cam: 1 0 0 0 0 1 0 0 0 0 1 {}"),
    ], ids=["P2", "R0_rect", "Tr-rotation", "Tr-translation"])
    def test_rejects_non_finite_entries_naming_the_matrix(self, key, old, new,
                                                          value):
        # a NaN rotation passed the orthonormality test, whose deviation
        # NaN is not above the tolerance, and no check read the translation
        text = IDENTITY_CALIB.replace(old, new.format(value))
        assert text != IDENTITY_CALIB
        with pytest.raises(ValueError) as info:
            parse_calibration(text)
        assert str(info.value) == f"{key} has non-finite entries"


class TestParseLines:
    def test_lines_count_from_one_blank_lines_included(self):
        seen = []

        def parse_line(line):
            seen.append(line)
            if line == "bad":
                raise MalformedNumber("no number")
            return None if line == "skip" else line.upper()

        assert parse_lines("a\n\n  skip \r\n\tb\n", parse_line) == ["A", "B"]
        # each line stripped, blank ones never passed
        assert seen == ["a", "skip", "b"]
        with pytest.raises(MalformedNumber) as info:
            parse_lines("a\n \nskip\n\nbad\nb\n", parse_line)
        # the type is kept, and the line counts the blank lines before it
        assert type(info.value) is MalformedNumber
        assert str(info.value) == "line 5: no number"

    def test_only_a_value_error_gains_the_line(self):
        def parse_line(line):
            raise TypeError("wiring")

        with pytest.raises(TypeError, match="^wiring$"):
            parse_lines("a\n", parse_line)


class TestLabels:
    LINE = "Car 0.0 0 0.0 100 100 200 200 2.0 1.0 4.0 0.0 2.0 10.0 0.0"

    def test_field_mapping_with_half_height_shift(self):
        (label,) = parse_labels(self.LINE)
        assert label.box3d.center == (0.0, 1.0, 10.0)
        assert label.box3d.dims == (1.0, 2.0, 4.0)
        assert label.box3d.yaw == 0.0
        assert label.bbox2d == Box2D(100, 100, 200, 200)
        assert label.difficulty == "easy"

    def test_field_count_mismatch(self):
        with pytest.raises(FieldCountMismatch, match="15"):
            parse_labels(" ".join(self.LINE.split()[:14]))

    def test_malformed_number(self):
        with pytest.raises(MalformedNumber):
            parse_labels(self.LINE.replace("10.0", "ten"))

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("position, field", enumerate(
        ["truncated", "occluded", "alpha", "left", "top", "right", "bottom",
         "height", "width", "length", "x", "y", "z", "rotation_y"], start=1))
    def test_a_number_that_is_not_finite_is_malformed(self, position, field,
                                                       token):
        # an infinite occlusion used to raise OverflowError, a NaN one a
        # bare ValueError, and a NaN truncation made the car "ignored"
        fields = self.LINE.split()
        fields[position] = token
        with pytest.raises(MalformedNumber, match=(
                f"^line 2: {field} must be finite, got {float(token)}$")):
            parse_labels(self.LINE + "\n" + " ".join(fields))

    @pytest.mark.parametrize("token", ["0.5", "1.25", "-0.5"])
    def test_a_fractional_occlusion_is_malformed(self, token):
        # int() used to truncate it
        line = self.LINE.replace("0.0 0 0.0", f"0.0 {token} 0.0", 1)
        with pytest.raises(MalformedNumber, match=(
                f"^line 1: occluded must be a whole number, got {token}$")):
            parse_labels(line)

    def test_a_box_out_of_order_names_its_line(self, tmp_path):
        # the message used to name the file but not the line
        write_dataset(str(tmp_path), make_frames(1, seed=13))
        fields = self.LINE.split()
        fields[4], fields[6] = fields[6], fields[4]
        path = tmp_path / "label_2" / "000000.txt"
        path.write_text(f"{self.LINE}\n\n{' '.join(fields)}\n")
        with pytest.raises(ValueError) as info:
            load_frame(str(tmp_path), "000000", cloud=False)
        assert type(info.value) is ValueError
        assert str(info.value).startswith(
            f"{path}: line 3: Box2D must be well ordered")

    def test_a_whole_occlusion_may_be_written_as_a_float(self):
        (label,) = parse_labels(self.LINE.replace("0.0 0 0.0", "0.0 2.0 0.0"))
        assert label.occlusion == 2 and type(label.occlusion) is int

    def test_class_filter(self):
        lines = self.LINE + "\n" + self.LINE.replace("Car", "Pedestrian")
        assert len(parse_labels(lines)) == 1
        assert len(parse_labels(lines, classes=None)) == 2
        assert len(parse_labels(lines, classes=("Pedestrian",))) == 1

    def test_dontcare_always_dropped(self):
        line = "DontCare -1 -1 -10 100 100 200 200 -1 -1 -1 -1000 -1000 -1000 -10"
        assert parse_labels(line, classes=None) == []

    def test_emit_parse_round_trip(self):
        rng = np.random.default_rng(1)
        original = []
        for _ in range(30):
            box = cyldet.Box3D(
                tuple(rng.uniform(-20, 20, size=2)) + (rng.uniform(5, 60),),
                tuple(rng.uniform(1, 5, size=3)),
                rng.uniform(-math.pi, math.pi),
            )
            xs = np.sort(rng.uniform(0, 500, size=2))
            ys = np.sort(rng.uniform(0, 300, size=2))
            original.append(
                cyldet.GroundTruthLabel(
                    class_name="Car",
                    truncation=float(rng.uniform(0, 1)),
                    occlusion=int(rng.integers(0, 4)),
                    alpha=float(rng.uniform(-math.pi, math.pi)),
                    bbox2d=Box2D(xs[0], ys[0], xs[1] + 1.0, ys[1] + 1.0),
                    box3d=box,
                    difficulty="ignored",
                )
            )
        parsed = parse_labels(emit_labels(original))
        assert len(parsed) == len(original)
        for got, want in zip(parsed, original):
            np.testing.assert_allclose(got.box3d.center, want.box3d.center,
                                       atol=1e-6)
            np.testing.assert_allclose(got.box3d.dims, want.box3d.dims, atol=1e-6)
            assert got.box3d.yaw == pytest.approx(want.box3d.yaw, abs=1e-6)
            assert got.truncation == pytest.approx(want.truncation, abs=1e-6)
            assert got.occlusion == want.occlusion


class TestVelodyne:
    def test_direct_decode(self):
        data = np.array([[1, 2, 3, 0.5], [4, 5, 6, 0.1]], dtype="<f4").tobytes()
        cloud = parse_velodyne(data)
        assert cloud.frame == "lidar"
        np.testing.assert_allclose(
            cloud.points, [[1, 2, 3, 0.5], [4, 5, 6, 0.1]], atol=1e-7
        )

    def test_empty_stream(self):
        assert len(parse_velodyne(b"")) == 0

    def test_truncated_record(self):
        with pytest.raises(TruncatedRecord):
            parse_velodyne(b"\x00" * 17)

    def test_emit_round_trip(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(-50, 50, size=(100, 4)).astype(np.float32).astype(float)
        cloud = PointCloud(pts, frame="lidar")
        back = parse_velodyne(emit_velodyne(cloud))
        np.testing.assert_array_equal(back.points, cloud.points)


class TestPointCloudShape:
    @pytest.mark.parametrize("shape", [(4, 3), (3, 5), (4,), (2, 2, 4)])
    def test_points_not_n_by_4_are_rejected(self, shape):
        # a (4, 3) array used to be read as three points of four values
        pts = np.arange(float(np.prod(shape))).reshape(shape)
        with pytest.raises(ValueError,
                           match=rf"\(N, 4\) array .* got shape "
                                 rf"{re.escape(str(shape))}"):
            PointCloud(pts, frame="camera")

    @pytest.mark.parametrize("points", [[], np.zeros((0, 4)), np.zeros((0,))])
    def test_empty_points_are_an_empty_cloud(self, points):
        assert PointCloud(points, frame="camera").points.shape == (0, 4)


class TestFrameTransforms:
    def test_identity_transform(self):
        calib = parse_calibration(IDENTITY_CALIB)
        cloud = PointCloud([[1, 2, 3, 0.5]], frame="lidar")
        out = lidar_to_camera(cloud, calib)
        assert out.frame == "camera"
        np.testing.assert_array_equal(out.points, cloud.points)

    def test_pure_translation(self):
        text = IDENTITY_CALIB.replace(
            "Tr_velo_to_cam: 1 0 0 0 0 1 0 0 0 0 1 0",
            "Tr_velo_to_cam: 1 0 0 0 0 1 0 0 0 0 1 1",
        )
        calib = parse_calibration(text)
        out = lidar_to_camera(PointCloud([[0, 0, 0, 0.7]], frame="lidar"), calib)
        np.testing.assert_allclose(out.points, [[0, 0, 1, 0.7]])

    def test_inverse_recovers_input(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            calib = random_calib(rng)
            pts = np.column_stack(
                [rng.uniform(-30, 30, size=(50, 3)), rng.uniform(0, 1, size=50)]
            )
            cloud = PointCloud(pts, frame="lidar")
            back = camera_to_lidar(lidar_to_camera(cloud, calib), calib)
            np.testing.assert_allclose(back.points, pts, atol=1e-9)

    def test_preserves_pairwise_distances(self):
        rng = np.random.default_rng(4)
        calib = random_calib(rng)
        pts = np.column_stack(
            [rng.uniform(-30, 30, size=(40, 3)), np.zeros(40)]
        )
        out = lidar_to_camera(PointCloud(pts, frame="lidar"), calib)
        d_in = np.linalg.norm(pts[:, None, :3] - pts[None, :, :3], axis=2)
        d_out = np.linalg.norm(
            out.points[:, None, :3] - out.points[None, :, :3], axis=2
        )
        np.testing.assert_allclose(d_out, d_in, atol=1e-6)

    def test_wrong_frame(self):
        calib = parse_calibration(IDENTITY_CALIB)
        camera_cloud = PointCloud([[0, 0, 0, 0]], frame="camera")
        with pytest.raises(WrongFrame):
            lidar_to_camera(camera_cloud, calib)
        with pytest.raises(WrongFrame):
            camera_to_lidar(PointCloud([[0, 0, 0, 0]], frame="lidar"), calib)


class TestTransformMatchesReference:
    """The transforms compute on coordinate rows of a column-major cloud;
    they give the row-major references' bits for either input layout."""

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.sampled_from([0, 1, 2, 58_400]) | st.integers(0, 5000),
        order=st.sampled_from("CF"),
        angles=st.lists(st.floats(-math.pi, math.pi), min_size=6, max_size=6),
        scale=st.sampled_from([1e-3, 1.0, 80.0, 1e6]),
        far=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bits_equal_the_row_major_reference(self, n, order, angles, scale,
                                                far, seed):
        rng = np.random.default_rng(seed)
        tr = np.zeros((3, 4))
        tr[:, :3] = rotation_xyz(*angles[:3])
        tr[:, 3] = rng.uniform(-scale, scale, size=3)
        calib = CalibrationSet(p2=make_calibration().p2,
                               r0_rect=rotation_xyz(*angles[3:]),
                               tr_velo_to_cam=tr)
        pts = rng.uniform(-scale, scale, size=(n, 4))
        if far:
            pts[::3, :3] *= 1e9
        pts = np.array(pts, order=order)
        for frame, transform, reference in (
            ("lidar", lidar_to_camera, lidar_to_camera_reference),
            ("camera", camera_to_lidar, camera_to_lidar_reference),
        ):
            cloud = PointCloud(pts, frame=frame)
            got, want = transform(cloud, calib), reference(cloud, calib)
            assert got.frame == want.frame
            assert got.points.shape == want.points.shape == (n, 4)
            assert got.points.tobytes() == want.points.tobytes()


class TestColumnMajorClouds:
    """Whole-frame clouds are stored column-major (F-contiguous (N, 4)),
    from the velodyne bytes through both transforms to a desynced copy."""

    def test_every_whole_frame_cloud_is_column_major(self, tmp_path):
        frame = synthetic.make_frame("000000", seed=1)
        lidar = camera_to_lidar(frame.cloud, frame.calib)
        clouds = [
            frame.cloud,
            desync_frame(frame).cloud,
            lidar,
            parse_velodyne(emit_velodyne(lidar)),
            lidar_to_camera(lidar, frame.calib),
            next(iter_split(write_dataset(str(tmp_path), [frame]),
                            str(tmp_path))).cloud,
        ]
        for cloud in clouds:
            assert len(cloud) > 2000 and cloud.points.flags.f_contiguous

    def test_transforms_of_a_row_major_cloud_are_column_major(self):
        calib = make_calibration()
        pts = np.random.default_rng(5).uniform(-30, 30, size=(50, 4))
        for frame, transform in (("lidar", lidar_to_camera),
                                 ("camera", camera_to_lidar)):
            cloud = PointCloud(pts, frame=frame)
            assert cloud.points.flags.c_contiguous
            assert transform(cloud, calib).points.flags.f_contiguous


class TestDifficulty:
    def box(self, height):
        return Box2D(0, 0, 50, height)

    def test_strata(self):
        assert assign_difficulty(self.box(50), 0, 0.0) == "easy"
        assert assign_difficulty(self.box(30), 1, 0.2) == "moderate"
        assert assign_difficulty(self.box(30), 2, 0.45) == "hard"
        assert assign_difficulty(self.box(20), 0, 0.0) == "ignored"

    def test_boundaries(self):
        assert assign_difficulty(self.box(40), 0, 0.15) == "easy"
        assert assign_difficulty(self.box(25), 1, 0.30) == "moderate"
        assert assign_difficulty(self.box(25), 2, 0.50) == "hard"

    def test_monotone_in_each_field(self):
        rng = np.random.default_rng(5)
        rank = {"easy": 0, "moderate": 1, "hard": 2, "ignored": 3}
        for _ in range(300):
            height = rng.uniform(10, 60)
            occ = int(rng.integers(0, 4))
            trunc = rng.uniform(0, 0.8)
            base = rank[assign_difficulty(self.box(height), occ, trunc)]
            assert rank[assign_difficulty(self.box(height + 5), occ, trunc)] <= base
            if occ > 0:
                assert rank[assign_difficulty(self.box(height), occ - 1, trunc)] <= base
            better_trunc = max(0.0, trunc - 0.1)
            assert rank[assign_difficulty(self.box(height), occ, better_trunc)] <= base


class TestDatasetLoading:
    def test_iter_split(self, tmp_path):
        frames = make_frames(2, seed=10, cars_per_frame=(1, 2))
        split = write_dataset(str(tmp_path), frames)
        loaded = list(iter_split(split, str(tmp_path)))
        assert [f.frame_id for f in loaded] == ["000000", "000001"]
        for got, want in zip(loaded, frames):
            assert len(got.labels) == len(want.labels)
            assert got.cloud.frame == "camera"
            np.testing.assert_allclose(
                got.cloud.xyz, want.cloud.xyz, atol=1e-4
            )
            for lg, lw in zip(got.labels, want.labels):
                np.testing.assert_allclose(
                    lg.box3d.center, lw.box3d.center, atol=1e-9
                )

    def test_missing_file_names_frame(self, tmp_path):
        frames = make_frames(2, seed=11)
        split = write_dataset(str(tmp_path), frames)
        os.remove(tmp_path / "velodyne" / "000001.bin")
        with pytest.raises(MissingFile, match="000001"):
            list(iter_split(split, str(tmp_path)))

    def test_a_frame_loaded_without_its_scan(self, tmp_path):
        write_dataset(str(tmp_path), make_frames(2, seed=13))
        for frame_id in ("000000", "000001"):
            full = load_frame(str(tmp_path), frame_id)
            bare = load_frame(str(tmp_path), frame_id, cloud=False)
            assert bare.cloud is None
            assert bare.frame_id == frame_id
            for name in ("p2", "r0_rect", "tr_velo_to_cam"):
                np.testing.assert_array_equal(getattr(bare.calib, name),
                                              getattr(full.calib, name))
            assert bare.labels == full.labels

    def test_a_frame_loaded_without_its_scan_needs_the_scan(self, tmp_path):
        split = write_dataset(str(tmp_path), make_frames(2, seed=13))
        os.remove(tmp_path / "velodyne" / "000001.bin")
        with pytest.raises(MissingFile, match="000001"):
            list(iter_split(split, str(tmp_path), cloud=False))

    @pytest.mark.parametrize("sub, name, content, error, message", [
        ("calib", "000000.txt", "P2: 1 0 0 0 0 1 0 0 0 0 1 x\n",
         MalformedNumber, "line 1: key P2"),
        ("label_2", "000000.txt",
         "Car 0 inf 0 600 150 700 250 1.5 1.6 3.9 0 1.7 20 0\n",
         MalformedNumber, "line 1: occluded must be finite, got inf"),
        ("velodyne", "000000.bin", b"\x00" * 100, TruncatedRecord,
         "velodyne stream of 100 bytes is not a multiple of 16"),
        ("velodyne", "000000.bin",
         np.array([[0, np.nan, 0, 0]], dtype="<f4").tobytes(), ValueError,
         "point cloud has non-finite coordinates"),
    ], ids=["calib", "label", "truncated scan", "nan scan"])
    def test_a_file_that_does_not_parse_names_its_path(
            self, tmp_path, sub, name, content, error, message):
        write_dataset(str(tmp_path), make_frames(1, seed=13))
        path = os.path.join(str(tmp_path), sub, name)
        with open(path, "wb") as fh:
            fh.write(content.encode() if isinstance(content, str) else content)
        with pytest.raises(error) as info:
            load_frame(str(tmp_path), "000000")
        # the type is kept, and the message is the old one after the path
        assert type(info.value) is error
        assert str(info.value).startswith(f"{path}: {message}")

    @pytest.mark.parametrize("sub", ["calib", "label_2"])
    def test_a_text_file_that_is_not_utf8_names_its_path(self, tmp_path,
                                                         sub):
        # the decode error used to name neither the frame nor the file
        write_dataset(str(tmp_path), make_frames(1, seed=13))
        path = os.path.join(str(tmp_path), sub, "000000.txt")
        with open(path, "ab") as fh:
            fh.write(b"\xff")
        with pytest.raises(cyldet.KittiFormatError) as info:
            load_frame(str(tmp_path), "000000", cloud=False)
        assert str(info.value).startswith(f"{path}: not UTF-8 text: ")
        assert "can't decode byte 0xff" in str(info.value)

    def test_calibration_consistency(self, tmp_path):
        frames = make_frames(1, seed=12)
        write_dataset(str(tmp_path), frames)
        loaded = list(iter_split(str(tmp_path / "synth.txt"), str(tmp_path)))
        np.testing.assert_allclose(
            loaded[0].calib.p2, make_calibration().p2, atol=1e-9
        )


class TestSyntheticScenes:
    def test_a_box_behind_the_camera_is_not_placed(self):
        box = Box3D((0.0, 0.8, -10.0), (1.7, 1.5, 4.0), 0.3)
        assert synthetic._box_fits_image(box, make_calibration().p2) is None

    def test_a_projection_bug_surfaces(self, monkeypatch):
        def broken(box, p):
            raise TypeError("projection bug")

        monkeypatch.setattr(synthetic, "project_box", broken)
        with pytest.raises(TypeError, match="projection bug"):
            synthetic.make_frame("000000", seed=0)
