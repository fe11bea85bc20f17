import dataclasses
import json
import logging
import os
import tracemalloc

import numpy as np
import pytest

import cyldet.cli
import cyldet.kitti
from cyldet.cli import main
from cyldet.codec import load_size_clusters
from cyldet.pipeline import Mono2DDetection
from cyldet.synthetic import make_frames, write_dataset


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    frames = make_frames(6, seed=40, cars_per_frame=(1, 3))
    split = write_dataset(str(root), frames)
    return str(root), split, frames


def read_tree(path):
    out = {}
    for dirpath, _, files in os.walk(path):
        for name in sorted(files):
            full = os.path.join(dirpath, name)
            with open(full, "rb") as fh:
                out[os.path.relpath(full, path)] = fh.read()
    return out


class TestSolvePose:
    def solve_args(self, dataset, extra=()):
        root, split, frames = dataset
        lab = frames[0].labels[0]
        b = lab.bbox2d
        return [
            "solve-pose",
            "--calib", os.path.join(root, "calib", "000000.txt"),
            "--box2d", f"{b.xmin},{b.ymin},{b.xmax},{b.ymax}",
            "--dims", ",".join(str(d) for d in lab.box3d.dims),
            "--yaw", str(lab.box3d.yaw),
            *extra,
        ], lab

    def test_round_trip_report(self, dataset, capsys):
        args, lab = self.solve_args(dataset)
        assert main(args) == 0
        out = capsys.readouterr().out
        agreement = float(out.split("agreement: ")[1].split()[0])
        assert agreement >= 0.99

    def test_json_output_matches_text(self, dataset, capsys):
        args, lab = self.solve_args(dataset, extra=["--json"])
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["agreement"] >= 0.99
        np.testing.assert_allclose(payload["center"], lab.box3d.center,
                                   atol=1e-2)

    def test_missing_calib_is_usage_error(self):
        rc = main(["solve-pose", "--box2d", "0,0,10,10", "--dims", "1,1,1",
                   "--yaw", "0"])
        assert rc == 1

    def test_unparseable_flags_are_usage_error(self):
        assert main(["solve-pose"]) == 1

    @pytest.mark.parametrize("flag, text, token", [
        ("--box2d", "1,2,x,4", "x"), ("--dims", "1.6,1.5,abc", "abc"),
    ])
    def test_malformed_number_is_usage_error(self, dataset, capsys, flag, text,
                                             token):
        root, _, _ = dataset
        args = {"--box2d": "648.4,158.9,757.1,242.7", "--dims": "1.6,1.5,3.9"}
        args[flag] = text
        rc = main(["solve-pose", "--calib", os.path.join(root, "calib", "000000.txt"),
                   "--box2d", args["--box2d"], "--dims", args["--dims"],
                   "--yaw", "0.3"])
        assert rc == 1
        assert repr(token) in capsys.readouterr().err

    def test_infeasible_input_is_data_error(self, dataset):
        root, _, _ = dataset
        rc = main([
            "solve-pose",
            "--calib", os.path.join(root, "calib", "000000.txt"),
            "--box2d", "600,180,600.0000001,180.0000001",
            "--dims", "1.6,1.5,3.9",
            "--yaw", "0.3",
        ])
        assert rc == 2

    def test_dims_not_above_zero_are_a_data_error(self, dataset, capsys):
        # the search checks its inputs up front and names the dims; they
        # used to fail only if a winner was found, when Box3D rejected them
        root, _, _ = dataset
        rc = main(["solve-pose", "--calib", os.path.join(root, "calib", "000000.txt"),
                   "--box2d", "648.4,158.9,757.1,242.7",
                   "--dims=-1.6,1.5,3.9", "--yaw", "0.3"])
        assert rc == 2
        assert "got dims (-1.6, 1.5, 3.9)" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, rc, out, err", [
        ("--dims", "-1.6,1.5,3.9", 2, "", "got dims (-1.6, 1.5, 3.9)"),
        ("--box2d", "-20,100,50,200", 0, "center: ", ""),
        ("--residual-cap", "-1e-3", 2, "", "residual_cap must be positive"),
    ])
    def test_a_number_list_that_starts_with_minus_is_a_value(
            self, dataset, capsys, flag, value, rc, out, err):
        # argparse used to read it as a flag unless attached with "=", and
        # exit 1 with "expected one argument"
        root, _, _ = dataset
        args = {"--box2d": "648.4,158.9,757.1,242.7", "--dims": "1.6,1.5,3.9",
                "--residual-cap": "3.0"}
        args[flag] = value
        argv = ["solve-pose", "--calib",
                os.path.join(root, "calib", "000000.txt"), "--yaw", "0.3"]
        for name, text in args.items():
            argv += [name, text]
        assert main(argv) == rc
        captured = capsys.readouterr()
        assert out in captured.out and err in captured.err
        assert "expected one argument" not in captured.err

    @pytest.mark.parametrize("content, message", [
        (b"P2: 1 2 3\n", "line 1: key P2 expects 12 values, got 3"),
        (None, "not UTF-8 text: "),
    ], ids=["malformed", "not-utf8"])
    def test_a_calib_file_that_does_not_parse_is_named(
            self, dataset, tmp_path, capsys, content, message):
        # both used to exit 2 naming no file
        args, _ = self.solve_args(dataset)
        path = tmp_path / "calib.txt"
        if content is None:  # a good file, then byte 0xff
            with open(args[args.index("--calib") + 1], "rb") as fh:
                content = fh.read() + b"\xff"
        path.write_bytes(content)
        args[args.index("--calib") + 1] = str(path)
        assert main(args) == 2
        assert f"error: {path}: {message}" in capsys.readouterr().err

    def test_reduced_search_flag_is_gone(self, dataset, capsys):
        # the 128-row configuration set it selected was deleted: every
        # search runs over the 4096-row set
        args, _ = self.solve_args(dataset, extra=["--reduced"])
        assert main(args) == 1
        assert "unrecognized arguments: --reduced" in capsys.readouterr().err

    @pytest.mark.parametrize("cap", ["-1", "nan"])
    def test_residual_cap_not_above_zero_is_rejected_as_by_detect(
            self, dataset, tmp_path, capsys, cap):
        # it used to reach the search and report no feasible configuration
        root, split, _ = dataset
        args, _ = self.solve_args(dataset, extra=["--residual-cap", cap])
        rc = main(args)
        assert "error: residual_cap must be positive" in capsys.readouterr().err
        assert rc == main(["detect", "--dataset-root", root, "--split", split,
                           "--output-dir", str(tmp_path / "out"),
                           "--residual-cap", cap]) == 2


class TestDetect:
    def test_zero_noise_summary(self, dataset, tmp_path, capsys):
        root, split, frames = dataset
        out_dir = str(tmp_path / "out")
        rc = main(["detect", "--dataset-root", root, "--split", split,
                   "--output-dir", out_dir, "--seed", "3"])
        assert rc == 0
        summary = capsys.readouterr().out
        assert "recall 1.000000" in summary
        det_dir = os.path.join(out_dir, "detections")
        assert len(os.listdir(det_dir)) == len(frames)
        assert os.path.exists(os.path.join(out_dir, "config_effective.ini"))

    def test_rerun_is_byte_identical(self, dataset, tmp_path):
        root, split, _ = dataset
        dirs = []
        for name in ("a", "b"):
            out_dir = str(tmp_path / name)
            rc = main(["detect", "--dataset-root", root, "--split", split,
                       "--output-dir", out_dir, "--seed", "11",
                       "--dims-noise", "0.05", "--jobs", "2"])
            assert rc == 0
            tree = read_tree(out_dir)
            # the echoed config legitimately embeds the differing output
            # path; the data outputs must match byte for byte
            tree.pop("config_effective.ini")
            dirs.append(tree)
        assert dirs[0] == dirs[1]

    def test_modes_write_valid_documents(self, dataset, tmp_path):
        from cyldet.pipeline import parse_detection_line

        root, split, _ = dataset
        for mode in ("single_stage", "rpn_brn_brn"):
            out_dir = str(tmp_path / mode)
            rc = main(["detect", "--dataset-root", root, "--split", split,
                       "--output-dir", out_dir, "--mode", mode])
            assert rc == 0
            det_dir = os.path.join(out_dir, "detections")
            for name in os.listdir(det_dir):
                with open(os.path.join(det_dir, name)) as fh:
                    for line in fh:
                        frame_id, class_name, det = parse_detection_line(line)
                        assert class_name == "Car"
                        assert 0.0 <= det.confidence <= 1.0

    def test_env_var_dataset_root(self, dataset, tmp_path, monkeypatch):
        root, split, _ = dataset
        monkeypatch.setenv("ROARNET_DATASET_ROOT", root)
        out_dir = str(tmp_path / "env_out")
        rc = main(["detect", "--split", split, "--output-dir", out_dir])
        assert rc == 0

    def test_missing_split_is_data_error(self, dataset, tmp_path):
        root, _, _ = dataset
        rc = main(["detect", "--dataset-root", root, "--split", "nope.txt",
                   "--output-dir", str(tmp_path / "x")])
        assert rc == 2

    def test_failed_frames_count_against_recall(self, dataset, tmp_path,
                                                monkeypatch, capsys):
        root, split, frames = dataset
        detect_frame = cyldet.cli.detect_frame
        failing = {frames[0].frame_id}

        def flaky_detect_frame(frame, predictors, config):
            if frame.frame_id in failing:
                raise ValueError("simulated data error")
            return detect_frame(frame, predictors, config)

        monkeypatch.setattr(cyldet.cli, "detect_frame", flaky_detect_frame)
        args = ["detect", "--dataset-root", root, "--split", split,
                "--seed", "3"]
        assert main(args + ["--output-dir", str(tmp_path / "one")]) == 0
        tokens = capsys.readouterr().out.split()
        summary = dict(zip(tokens[::2], tokens[1::2]))
        # every frame is found at zero noise (test_zero_noise_summary)
        assert float(summary["recall"]) < 1.0
        assert int(summary["fn"]) == len(frames[0].labels)
        assert summary["failed"] == "1"

        failing.update(frame.frame_id for frame in frames)
        assert main(args + ["--output-dir", str(tmp_path / "all")]) == 2

    def test_an_infinite_occlusion_is_data_error(self, tmp_path, capsys):
        # int(inf) used to raise OverflowError: exit 3 with a traceback
        root = str(tmp_path / "data")
        split = write_dataset(root, make_frames(2, seed=40))
        path = os.path.join(root, "label_2", "000001.txt")
        with open(path, encoding="utf-8") as fh:
            fields = fh.read().split()
        fields[2] = "inf"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(" ".join(fields[:15]) + "\n")
        rc = main(["detect", "--dataset-root", root, "--split", split,
                   "--output-dir", str(tmp_path / "out")])
        assert rc == 2
        assert (f"error: {path}: line 1: occluded must be finite, got inf"
                in capsys.readouterr().err)

    def test_programming_error_is_internal_error(self, dataset, tmp_path,
                                                 monkeypatch):
        root, split, _ = dataset

        def broken_detect_frame(frame, predictors, config):
            raise TypeError("detector bug")

        monkeypatch.setattr(cyldet.cli, "detect_frame", broken_detect_frame)
        rc = main(["detect", "--dataset-root", root, "--split", split,
                   "--output-dir", str(tmp_path / "out")])
        assert rc == 3

    def test_frames_stream_through_one_serial_loop(self, dataset, tmp_path,
                                                   monkeypatch):
        root, split, frames = dataset
        load_frame = cyldet.kitti.load_frame
        detect_frame = cyldet.cli.detect_frame
        calls = []

        def logged_load_frame(dataset_root, frame_id, **kwargs):
            calls.append(("load", frame_id))
            return load_frame(dataset_root, frame_id, **kwargs)

        def logged_detect_frame(frame, predictors, config):
            calls.append(("detect", frame.frame_id))
            return detect_frame(frame, predictors, config)

        monkeypatch.setattr(cyldet.kitti, "load_frame", logged_load_frame)
        monkeypatch.setattr(cyldet.cli, "detect_frame", logged_detect_frame)
        rc = main(["detect", "--dataset-root", root, "--split", split,
                   "--output-dir", str(tmp_path / "out"), "--jobs", "2"])
        assert rc == 0
        assert calls == [(step, frame.frame_id) for frame in frames
                         for step in ("load", "detect")]

    def test_missing_last_frame_file_is_data_error(self, tmp_path):
        root = tmp_path / "data"
        split = write_dataset(str(root), make_frames(3, seed=42))
        os.remove(root / "velodyne" / "000002.bin")
        out_dir = tmp_path / "out"
        rc = main(["detect", "--dataset-root", str(root), "--split", split,
                   "--output-dir", str(out_dir)])
        assert rc == 2
        assert not (out_dir / "summary.txt").exists()

    @pytest.mark.parametrize("key", ["voxel_resolution", "sample_count"])
    def test_point_preparation_setting_of_zero_is_data_error(
            self, dataset, tmp_path, capsys, key):
        # checked before any frame runs; the oracle heads prepare no
        # points, so no frame would reject it
        root, split, _ = dataset
        config = tmp_path / "zero.ini"
        config.write_text(f"[pipeline]\n{key} = 0\n")
        out_dir = tmp_path / "out"
        rc = main(["detect", "--dataset-root", root, "--split", split,
                   "--output-dir", str(out_dir), "--config", str(config)])
        assert rc == 2
        assert key in capsys.readouterr().err
        assert not (out_dir / "summary.txt").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--residual-cap", "-1"), ("--residual-cap", "nan"),
        ("--nms-threshold", "2"), ("--objectness-threshold", "nan"),
        ("--objectness-threshold", "-0.5"), ("--radius", "-1"),
        ("--radius", "0"), ("--radius", "inf"),
    ])
    def test_search_or_nms_setting_out_of_range_is_data_error(
            self, dataset, tmp_path, capsys, flag, value):
        # checked before any frame runs: a negative cap or radius used to
        # fail every pose or proposal and report recall 0 with exit code 0
        root, split, _ = dataset
        out_dir = tmp_path / "out"
        rc = main(["detect", "--dataset-root", root, "--split", split,
                   "--output-dir", str(out_dir), flag, value])
        assert rc == 2
        assert flag[2:].replace("-", "_") in capsys.readouterr().err
        assert not (out_dir / "summary.txt").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("flag, name", [
        ("--dims-noise", "dims_noise_sigma"),
        ("--center-noise", "center_noise_sigma"),
        ("--scatter-stride", "stride"),
        ("[pipeline] voxel_resolution", "voxel_resolution"),
    ])
    def test_setting_not_finite_fails_before_writing(
            self, dataset, tmp_path, capsys, flag, name, value):
        # a NaN noise used to drop every object or proposal, exiting 0
        # with recall 0, and a NaN stride failed every frame
        root, split, _ = dataset
        out_dir = tmp_path / "out"
        args = ["detect", "--dataset-root", root, "--split", split,
                "--output-dir", str(out_dir)]
        if flag.startswith("["):
            config = tmp_path / "setting.ini"
            section, key = flag[1:].split("] ")
            config.write_text(f"[{section}]\n{key} = {value}\n")
            args += ["--config", str(config)]
        else:
            args.append(f"{flag}={value}")
        assert main(args) == 2
        assert f"{name} must be finite" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_eval_setting_out_of_range_fails_before_writing(
            self, dataset, tmp_path, capsys):
        # [eval] used to be checked after config_effective.ini and an empty
        # detections/ were written
        root, split, _ = dataset
        config = tmp_path / "eval.ini"
        config.write_text("[eval]\niou_threshold = 2\n")
        out_dir = tmp_path / "out"
        rc = main(["detect", "--dataset-root", root, "--split", split,
                   "--output-dir", str(out_dir), "--config", str(config)])
        assert rc == 2
        assert "iou_threshold" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_unordered_region_band_is_data_error(self, dataset, tmp_path,
                                                 capsys):
        root, split, _ = dataset
        config = tmp_path / "band.ini"
        config.write_text("[pipeline]\ny_min = 3\ny_max = -1\n")
        out_dir = tmp_path / "out"
        rc = main(["detect", "--dataset-root", root, "--split", split,
                   "--output-dir", str(out_dir), "--config", str(config)])
        assert rc == 2
        assert "y_extent" in capsys.readouterr().err
        assert not (out_dir / "summary.txt").exists()

    @pytest.mark.parametrize("row", ["nan 1.6 3.9", "1.5 inf 3.9",
                                     "1.5 1.6 -inf", "0 1.6 3.9"])
    def test_size_cluster_not_finite_and_positive_is_data_error(
            self, dataset, tmp_path, capsys, row):
        # a nan centroid used to decode every box to nan, drop every
        # proposal and report recall 0 with exit code 0
        root, split, _ = dataset
        clusters = tmp_path / "clusters.txt"
        clusters.write_text(f"1.4 1.5 3.4\n{row}\n")
        out_dir = tmp_path / "out"
        rc = main(["detect", "--dataset-root", root, "--split", split,
                   "--output-dir", str(out_dir),
                   "--size-clusters-file", str(clusters)])
        assert rc == 2
        assert "centroids must be" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("text, message", [
        ("1.4 1.5 3.4 1\n1.5 1.6 3.9 1\n1.8 1.9 4.6 1\n",
         "line 1: want three numbers H W L, got '1.4 1.5 3.4 1'"),
        ("1.4 1.5\n", "line 1: want three numbers H W L, got '1.4 1.5'"),
        ("", "centroids must hold at least one cluster"),
        ("1.4 1.5 abc\n",
         "line 1: want three numbers H W L, got '1.4 1.5 abc'"),
    ], ids=["4 columns", "2 columns", "empty", "bad token"])
    def test_size_clusters_file_not_of_h_w_l_lines_is_data_error(
            self, dataset, tmp_path, capsys, text, message):
        # 4 columns and an empty file used to exit 0, the empty one with
        # recall 0, and a bad token failed without naming the file
        root, split, _ = dataset
        clusters = tmp_path / "clusters.txt"
        clusters.write_text(text)
        out_dir = tmp_path / "out"
        rc = main(["detect", "--dataset-root", root, "--split", split,
                   "--output-dir", str(out_dir),
                   "--size-clusters-file", str(clusters)])
        assert rc == 2
        assert f"error: {clusters}: {message}\n" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_size_clusters_file_not_utf8_is_data_error(self, dataset,
                                                       tmp_path, capsys):
        # it used to exit 2 with the bare UnicodeDecodeError text
        root, split, _ = dataset
        clusters = tmp_path / "clusters.txt"
        clusters.write_bytes(b"1.4 1.5 3.4\n\xff")
        out_dir = tmp_path / "out"
        rc = main(["detect", "--dataset-root", root, "--split", split,
                   "--output-dir", str(out_dir),
                   "--size-clusters-file", str(clusters)])
        assert rc == 2
        assert f"error: {clusters}: not UTF-8 text: " in capsys.readouterr().err
        assert not out_dir.exists()

    def test_failed_frame_removes_its_old_document(self, dataset, tmp_path,
                                                   monkeypatch, capsys):
        root, split, frames = dataset
        args = ["detect", "--dataset-root", root, "--split", split,
                "--output-dir", str(tmp_path / "out")]
        assert main(args) == 0
        det_dir = tmp_path / "out" / "detections"
        assert len(os.listdir(det_dir)) == len(frames)
        detect_frame = cyldet.cli.detect_frame
        failing = frames[1].frame_id

        def flaky_detect_frame(frame, predictors, config):
            if frame.frame_id == failing:
                raise ValueError("simulated data error")
            return detect_frame(frame, predictors, config)

        monkeypatch.setattr(cyldet.cli, "detect_frame", flaky_detect_frame)
        capsys.readouterr()
        assert main(args) == 0
        assert capsys.readouterr().out.split()[-2:] == ["failed", "1"]
        assert sorted(os.listdir(det_dir)) == sorted(
            f.frame_id + ".txt" for f in frames if f.frame_id != failing)

    def test_head_config_mismatch_is_internal_error(self, dataset, tmp_path,
                                                    monkeypatch):
        root, split, _ = dataset
        oracle_predictors = cyldet.cli.oracle_predictors
        # heads built with the library's 12 rotation bins, whatever the config
        monkeypatch.setattr(cyldet.cli, "oracle_predictors",
                            lambda cfg, clusters, bins: oracle_predictors(cfg))
        config = tmp_path / "bins.ini"
        config.write_text("[pipeline]\nrotation_bins = 8\n")
        rc = main(["detect", "--dataset-root", root, "--split", split,
                   "--output-dir", str(tmp_path / "out"),
                   "--config", str(config)])
        assert rc == 3

    def test_monocular_output_of_the_wrong_shape_is_internal_error(
            self, dataset, tmp_path, monkeypatch):
        # it used to fail each frame as a data error and exit 2
        root, split, _ = dataset
        oracle_predictors = cyldet.cli.oracle_predictors

        def spoiled(*args, **kwargs):
            oracles = oracle_predictors(*args, **kwargs)

            def monocular(frame):
                first, *rest = oracles.monocular(frame)
                return [Mono2DDetection(first.box2d, first.dims[:2],
                                        first.yaw), *rest]

            return dataclasses.replace(oracles, monocular=monocular)

        monkeypatch.setattr(cyldet.cli, "oracle_predictors", spoiled)
        rc = main(["detect", "--dataset-root", root, "--split", split,
                   "--output-dir", str(tmp_path / "out")])
        assert rc == 3

    def test_config_file_with_flag_override(self, dataset, tmp_path, capsys):
        root, split, _ = dataset
        config = tmp_path / "run.ini"
        config.write_text(
            "[run]\nseed = 5\n[thresholds]\nobjectness = 0.995\n"
        )
        out_dir = str(tmp_path / "cfg_out")
        # config alone: threshold 0.99 kills every proposal
        rc = main(["detect", "--dataset-root", root, "--split", split,
                   "--output-dir", out_dir, "--config", str(config)])
        assert rc == 0
        assert "recall 0.000000" in capsys.readouterr().out
        # flag wins over the config value
        rc = main(["detect", "--dataset-root", root, "--split", split,
                   "--output-dir", out_dir, "--config", str(config),
                   "--objectness-threshold", "0.25"])
        assert rc == 0
        assert "recall 1.000000" in capsys.readouterr().out


def _setting_values(row):
    """Two distinct values for one settings row, as typed from a flag."""
    if row.choices:
        return row.choices[0], row.choices[1]
    return {str: ("a", "b"), int: (7, 8), float: (0.125, 0.375)}[row.cast]


@pytest.fixture(scope="module")
def long_split(tmp_path_factory):
    """A 200-frame tree with 200 ground points per frame, and the list of
    its first 20 frames."""
    root = tmp_path_factory.mktemp("long")
    split = write_dataset(str(root / "data"), make_frames(
        200, seed=50, cars_per_frame=(1, 3), ground_points=200))
    with open(split, encoding="utf-8") as fh:
        ids = fh.read().split()
    short = root / "short.txt"
    short.write_text("\n".join(ids[:20]) + "\n")
    return str(root / "data"), split, str(short)


# noised oracles, so that the split has misses, false positives and an AP
# below 1
_NOISE = ["--dims-noise", "0.05", "--yaw-noise", "0.05", "--box2d-noise", "1",
          "--center-noise", "0.1", "--seed", "4"]


class TestDetectEvaluatesAsFramesFinish:
    """cyldet detect matches each frame as it finishes and keeps only its
    (confidence, is_tp) pairs and counts, not every frame's detections and
    labels until the split ends."""

    def test_summary_of_a_long_split_is_unchanged(self, long_split, tmp_path):
        root, split, _ = long_split
        out_dir = tmp_path / "out"
        assert main(["detect", "--dataset-root", root, "--split", split,
                     "--output-dir", str(out_dir), *_NOISE]) == 0
        # written when cmd_detect kept every frame's detections and labels
        # in a list and evaluated it after the last frame
        assert (out_dir / "summary.txt").read_text() == (
            "frames 200 tp 339 fp 81 fn 81 recall 0.807143 ap 0.794938 "
            "failed 0\n")

    def test_peak_heap_does_not_grow_with_the_split(self, long_split,
                                                    tmp_path, caplog):
        root, split, short = long_split
        # the log capture would keep every drop line of the split
        caplog.set_level(logging.ERROR, logger="cyldet")

        def peak(split, name):
            tracemalloc.start()
            try:
                assert main(["detect", "--dataset-root", root, "--split",
                             split, "--output-dir", str(tmp_path / name),
                             *_NOISE]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # warm up: the first run fills caches that later runs reuse
        main(["detect", "--dataset-root", root, "--split", short,
              "--output-dir", str(tmp_path / "warm"), *_NOISE])
        # the AP's (confidence, is_tp) pairs and PR points still grow with
        # the detections: 0.11 MB more for the 200 frames than for the 20
        # (0.59 MB); keeping every frame's detections and labels until the
        # split ended made it 0.69 MB more
        assert peak(split, "long") - peak(short, "short") < 0.3e6


class TestSettings:
    FLAG_ROWS = [row for row in cyldet.cli._SCHEMA if row.flag]

    @pytest.mark.parametrize("row", FLAG_ROWS, ids=lambda row: row.flag)
    def test_flag_sets_its_setting_over_the_config_file(self, row, tmp_path):
        from_config, from_flag = _setting_values(row)
        config = tmp_path / "run.ini"
        config.write_text(f"[{row.section}]\n{row.key} = {from_config}\n")
        command = (["sweep", "desync", "--values", "0"]
                   if row.section == "desync" else ["detect"])
        parser = cyldet.cli.build_parser()
        for extra, want in (([], from_config),
                            ([row.flag, str(from_flag)], from_flag)):
            args = parser.parse_args(command + ["--config", str(config)]
                                     + extra)
            settings = cyldet.cli._resolve_settings(args)
            assert settings[row.section][row.key] == want

    def test_desync_flags_are_sweep_only(self):
        for row in self.FLAG_ROWS:
            if row.section == "desync":
                assert main(["detect", row.flag, "1"]) == 1

    @pytest.mark.parametrize("text, name", [
        ("[thresholds]\nobjectnes = 0.999\n", "[thresholds] objectnes"),
        ("[threshold]\nobjectness = 0.999\n", "[threshold] objectness"),
        ("[extra]\n", "[extra]"),
        ("[DEFAULT]\nseed = 5\n[run]\n", "[DEFAULT] seed"),
    ])
    def test_unknown_config_key_is_usage_error(self, dataset, tmp_path,
                                               capsys, text, name):
        root, split, _ = dataset
        config = tmp_path / "run.ini"
        config.write_text(text)
        out_dir = tmp_path / "out"
        rc = main(["detect", "--dataset-root", root, "--split", split,
                   "--output-dir", str(out_dir), "--config", str(config)])
        assert rc == 1
        assert name in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("row", [row for row in FLAG_ROWS if row.choices],
                             ids=lambda row: row.key)
    def test_config_value_outside_the_choices_is_usage_error(
            self, dataset, tmp_path, capsys, row):
        # as it is for the flag, and before any frame runs
        root, split, _ = dataset
        config = tmp_path / "run.ini"
        config.write_text(f"[{row.section}]\n{row.key} = bogus\n")
        out_dir = tmp_path / "out"
        rc = main(["sweep", "desync", "--values", "0", "--dataset-root", root,
                   "--split", split, "--output-dir", str(out_dir),
                   "--config", str(config)])
        assert rc == 1
        assert f"[{row.section}] {row.key}" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "row, text",
        [(row, text) for row in cyldet.cli._SCHEMA if row.cast is not str
         for text in (["abc", "1.5"] if row.cast is int else ["abc", ""])],
        ids=lambda v: v if isinstance(v, str) else f"{v.section}.{v.key}")
    def test_config_value_that_does_not_parse_is_usage_error(
            self, dataset, tmp_path, monkeypatch, capsys, row, text):
        # it used to exit 2 with the cast's own message, naming no key
        root, split, _ = dataset

        def no_frames(*args):
            raise AssertionError("a frame was read")

        monkeypatch.setattr(cyldet.cli, "iter_split", no_frames)
        config = tmp_path / "run.ini"
        config.write_text(f"[{row.section}]\n{row.key} = {text}\n")
        out_dir = tmp_path / "out"
        rc = main(["detect", "--dataset-root", root, "--split", split,
                   "--output-dir", str(out_dir), "--config", str(config)])
        kind = "an int" if row.cast is int else "a float"
        assert rc == 1
        assert capsys.readouterr().err == (
            f"usage error: [{row.section}] {row.key} must be {kind}, "
            f"got {text!r}\n")
        assert not out_dir.exists()

    @pytest.mark.parametrize("text, message", [
        ("seed = 5\n", "File contains no section headers."),
        ("[run]\nseed = 5\nseed = 6\n",
         "option 'seed' in section 'run' already exists"),
        ("[run]\nseed = 5\n[run]\nmode = single_stage\n",
         "section 'run' already exists"),
    ], ids=["no-section", "duplicate-option", "duplicate-section"])
    def test_a_config_file_that_does_not_parse_is_usage_error(
            self, dataset, tmp_path, capsys, text, message):
        # each used to exit 3 with configparser's traceback
        root, split, _ = dataset
        config = tmp_path / "run.ini"
        config.write_text(text)
        out_dir = tmp_path / "out"
        rc = main(["detect", "--dataset-root", root, "--split", split,
                   "--output-dir", str(out_dir), "--config", str(config)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ")
        assert message in err and repr(str(config)) in err
        assert not out_dir.exists()

    def test_a_percent_sign_is_literal(self, dataset, tmp_path):
        # "pct%1" as --output-dir used to exit 2 (invalid interpolation
        # syntax), and a config value holding "%" to exit 3
        root, split, _ = dataset
        where = ["--dataset-root", root, "--split", split]
        flagged = tmp_path / "pct%1"
        assert main(["detect", *where, "--output-dir", str(flagged)]) == 0
        echo = (flagged / "config_effective.ini").read_text()
        assert f"output_dir = {flagged}\n" in echo
        for written, made in (("a%b", "a%b"), ("c%%d", "c%%d")):
            config = tmp_path / "run.ini"
            config.write_text(f"[run]\noutput_dir = {tmp_path / written}\n")
            assert main(["detect", *where, "--config", str(config)]) == 0
            assert (tmp_path / made / "summary.txt").exists()

    def test_echoed_config_reproduces_the_run(self, dataset, tmp_path):
        root, split, _ = dataset
        first = tmp_path / "first"
        assert main(["detect", "--dataset-root", root, "--split", split,
                     "--output-dir", str(first), "--seed", "4",
                     "--dims-noise", "0.1", "--mode", "single_stage_twice",
                     "--objectness-threshold", "0.3", "--ap-mode", "r40",
                     "--match-metric", "iou_bev"]) == 0
        second = tmp_path / "second"
        assert main(["detect", "--config", str(first / "config_effective.ini"),
                     "--output-dir", str(second)]) == 0
        trees = [read_tree(str(out)) for out in (first, second)]
        # the echoes differ only in the output directory
        echoes = [tree.pop("config_effective.ini").decode() for tree in trees]
        assert echoes[1].replace(str(second), str(first)) == echoes[0]
        assert trees[0] == trees[1]

    @pytest.mark.parametrize("command", [
        ["fit-sizes", "--clusters", "1", "--mode", "single_stage",
         "--output", "sizes.txt"],
        ["sweep", "scatter", "--values", "0.3", "--jobs", "1",
         "--output-dir", "out"],
    ], ids=["fit-sizes-mode", "sweep-jobs"])
    def test_a_flag_the_command_never_reads_is_usage_error(
            self, dataset, tmp_path, monkeypatch, capsys, command):
        # both used to be accepted and ignored
        root, split, _ = dataset
        monkeypatch.chdir(tmp_path)
        rc = main(command + ["--dataset-root", root, "--split", split])
        assert rc == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []


class TestSweep:
    def test_desync_nine_rows(self, dataset, tmp_path):
        root, split, _ = dataset
        out_dir = str(tmp_path / "sweep")
        rc = main(["sweep", "desync", "--dataset-root", root, "--split", split,
                   "--output-dir", out_dir, "--values", "0:0.8:0.1"])
        assert rc == 0
        lines = open(os.path.join(out_dir, "sweep_desync.csv")).read().splitlines()
        assert lines[0] == "discrepancy_m,recall"
        assert len(lines) == 10

    @pytest.mark.parametrize("seeds", ["0", "-1"])
    def test_desync_without_seed_draws_is_data_error(
            self, dataset, tmp_path, monkeypatch, capsys, seeds):
        # it used to exit 2 only after writing config_effective.ini, and
        # named no setting ("n_seeds must be >= 1")
        root, split, _ = dataset

        def no_frames(*args):
            raise AssertionError("a frame was read")

        monkeypatch.setattr(cyldet.cli, "iter_split", no_frames)
        out_dir = tmp_path / "sweep"
        rc = main(["sweep", "desync", "--dataset-root", root, "--split", split,
                   "--output-dir", str(out_dir), "--values", "0.2",
                   "--desync-seeds", seeds])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: [desync] seeds must be >= 1, got {int(seeds)}\n")
        assert not out_dir.exists()

    def test_detect_with_desync_seeds_below_one_is_data_error(
            self, dataset, tmp_path, capsys):
        # detect runs no desync sweep, but checks [desync] as it checks
        # vertical_ratio; it used to exit 0
        root, split, _ = dataset
        config = tmp_path / "seeds.ini"
        config.write_text("[desync]\nseeds = 0\n")
        out_dir = tmp_path / "detect"
        rc = main(["detect", "--config", str(config), "--dataset-root", root,
                   "--split", split, "--output-dir", str(out_dir)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: [desync] seeds must be >= 1, got 0\n")
        assert not out_dir.exists()

    @pytest.mark.parametrize("spec", ["0.7:0.1:0.1", "nan:1:0.1", ","])
    def test_empty_grid_is_usage_error_before_any_frame(
            self, dataset, tmp_path, monkeypatch, capsys, spec):
        # it used to solve every frame and write a header-only CSV
        root, split, _ = dataset

        def no_frames(*args):
            raise AssertionError("a frame was read")

        monkeypatch.setattr(cyldet.cli, "iter_split", no_frames)
        out_dir = tmp_path / "sweep"
        rc = main(["sweep", "scatter", "--dataset-root", root, "--split", split,
                   "--output-dir", str(out_dir), "--values", spec])
        assert rc == 1
        assert "empty" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("spec, token", [
        ("0.1,abc", "abc"), ("a:b:c", "a"), ("0:1:x", "x"), ("0.1, 2e", "2e"),
    ])
    def test_malformed_grid_is_usage_error_before_any_frame(
            self, dataset, tmp_path, monkeypatch, capsys, spec, token):
        # float()'s ValueError used to reach main as a data error (exit 2)
        root, split, _ = dataset

        def no_frames(*args):
            raise AssertionError("a frame was read")

        monkeypatch.setattr(cyldet.cli, "iter_split", no_frames)
        out_dir = tmp_path / "sweep"
        rc = main(["sweep", "scatter", "--dataset-root", root, "--split", split,
                   "--output-dir", str(out_dir), "--values", spec])
        assert rc == 1
        assert repr(token) in capsys.readouterr().err
        assert not out_dir.exists()

    def test_step_below_the_start_resolution_is_usage_error(
            self, dataset, tmp_path, monkeypatch, capsys):
        # 1e16 + 1.0 == 1e16: the range loop used to grow its list until
        # memory ran out
        root, split, _ = dataset

        def no_frames(*args):
            raise AssertionError("a frame was read")

        monkeypatch.setattr(cyldet.cli, "iter_split", no_frames)
        out_dir = tmp_path / "sweep"
        rc = main(["sweep", "scatter", "--dataset-root", root, "--split", split,
                   "--output-dir", str(out_dir), "--values", "1e16:2e16:1"])
        assert rc == 1
        assert "step" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("spec", ["0:1e9:1e-9", "0:10000:1",
                                      "-1e300:1e300:1e-300",
                                      "-1.7e308:1.7e308:1e300"])
    def test_range_of_too_many_values_is_usage_error_before_any_frame(
            self, dataset, tmp_path, monkeypatch, capsys, spec):
        # 10**18 values: the range loop used to grow its list until memory
        # ran out; the span of the last one overflows to inf
        root, split, _ = dataset

        def no_frames(*args):
            raise AssertionError("a frame was read")

        monkeypatch.setattr(cyldet.cli, "iter_split", no_frames)
        out_dir = tmp_path / "sweep"
        rc = main(["sweep", "scatter", "--dataset-root", root, "--split", split,
                   "--output-dir", str(out_dir), f"--values={spec}"])
        assert rc == 1
        assert str(cyldet.cli.MAX_GRID_VALUES) in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("kind, spec, message", [
        ("scatter", "1.5,1.0", "s must be in [0, 1), got 1.5"),
        ("scatter", "-0.1:0.5:0.1", "s must be in [0, 1), got -0.1"),
        ("objectness", "1.5,-0.2",
         "objectness threshold must be in [0, 1], got 1.5"),
        ("objectness", "nan", "got nan"),
        ("desync", "inf", "desync translation bound must be finite and >= 0, "
         "got inf"),
        ("desync", "nan", "got nan"),
        ("desync", "-0.5", "got -0.5"),
    ])
    def test_value_outside_its_range_is_usage_error_before_any_frame(
            self, dataset, tmp_path, monkeypatch, capsys, kind, spec, message):
        # scatter and objectness used to write rows for these values with
        # exit 0; desync inf or NaN exited 3 with an OverflowError from the
        # draw, and -0.5 exited 2 after writing config_effective.ini
        root, split, _ = dataset

        def no_frames(*args):
            raise AssertionError("a frame was read")

        monkeypatch.setattr(cyldet.cli, "iter_split", no_frames)
        out_dir = tmp_path / "sweep"
        rc = main(["sweep", kind, "--dataset-root", root, "--split", split,
                   "--output-dir", str(out_dir), f"--values={spec}"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("usage error: ") and message in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("ratio", ["-1", "nan", "inf"])
    def test_vertical_ratio_not_finite_and_at_least_zero_fails_before_writing(
            self, dataset, tmp_path, monkeypatch, capsys, ratio):
        # -1 used to exit 2 after writing config_effective.ini, naming the
        # product ("desync translation bound ...") instead of the setting
        root, split, _ = dataset

        def no_frames(*args):
            raise AssertionError("a frame was read")

        monkeypatch.setattr(cyldet.cli, "iter_split", no_frames)
        config = tmp_path / "ratio.ini"
        config.write_text(f"[desync]\nvertical_ratio = {ratio}\n")
        out_dir = tmp_path / "sweep"
        rc = main(["sweep", "desync", "--config", str(config),
                   "--dataset-root", root, "--split", split,
                   "--output-dir", str(out_dir), "--values", "0.2"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: [desync] vertical_ratio must be finite and >= 0, "
            f"got {float(ratio)!r}\n")
        assert not out_dir.exists()

    def test_a_signed_zero_desync_bound_is_zero(self, dataset, tmp_path):
        # --values=-0.0, and a vertical_ratio of -0.0, passed every check,
        # then exited 2 from rng.uniform(0.0, -0.0) ("high - low < 0")
        # after writing config_effective.ini
        root, split, _ = dataset
        csvs = {}
        for name, ratio, values in [("zero", "0.0", "0.0"),
                                    ("negative", "0.0", "-0.0"),
                                    ("ratio", "0.0", "0.2"),
                                    ("negative_ratio", "-0.0", "0.2")]:
            config = tmp_path / f"{name}.ini"
            config.write_text(f"[desync]\nvertical_ratio = {ratio}\n")
            out_dir = tmp_path / name
            rc = main(["sweep", "desync", "--config", str(config),
                       "--dataset-root", root, "--split", split,
                       "--output-dir", str(out_dir), f"--values={values}"])
            assert rc == 0
            csvs[name] = (out_dir / "sweep_desync.csv").read_bytes()
        assert csvs["negative"] == csvs["zero"]
        assert csvs["negative_ratio"] == csvs["ratio"]
        assert csvs["zero"].splitlines()[1].startswith(b"0,")

    def test_eval_setting_out_of_range_fails_before_writing(
            self, dataset, tmp_path, capsys):
        # [eval] used to be checked after config_effective.ini was written
        root, split, _ = dataset
        config = tmp_path / "eval.ini"
        config.write_text("[eval]\niou_threshold = 2\n")
        out_dir = tmp_path / "sweep"
        rc = main(["sweep", "desync", "--config", str(config),
                   "--dataset-root", root, "--split", split,
                   "--output-dir", str(out_dir), "--values", "0.2"])
        assert rc == 2
        assert "iou_threshold" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_range_of_the_most_values_is_accepted(self):
        most = cyldet.cli.MAX_GRID_VALUES
        values = cyldet.cli._parse_values(f"0:{most - 1}:1")
        assert values == list(range(most))

    # no infinite start or stop here: without its check, the range loop
    # would never end
    @pytest.mark.parametrize("spec", ["0:1:nan", "0:1:0", "0:1:-0.1"])
    def test_step_not_above_zero_is_usage_error(self, spec):
        with pytest.raises(cyldet.cli.UsageError, match="step"):
            cyldet.cli._parse_values(spec)

    def test_scatter_includes_zero(self, dataset, tmp_path):
        root, split, _ = dataset
        out_dir = str(tmp_path / "sweep_s")
        rc = main(["sweep", "scatter", "--dataset-root", root, "--split", split,
                   "--output-dir", out_dir, "--values", "0,0.25,0.5"])
        assert rc == 0
        lines = open(os.path.join(out_dir, "sweep_scatter.csv")).read().splitlines()
        assert lines[1].startswith("0,")
        assert len(lines) == 4

    def test_identical_seeds_give_identical_csv(self, dataset, tmp_path):
        root, split, _ = dataset
        contents = []
        for name in ("s1", "s2"):
            out_dir = str(tmp_path / name)
            rc = main(["sweep", "objectness", "--dataset-root", root,
                       "--split", split, "--output-dir", out_dir,
                       "--values", "0.1,0.3,0.5", "--seed", "7",
                       "--dims-noise", "0.1"])
            assert rc == 0
            contents.append(
                open(os.path.join(out_dir, "sweep_objectness.csv")).read()
            )
        assert contents[0] == contents[1]


class TestFitSizes:
    def test_single_cluster_is_mean(self, dataset, tmp_path):
        root, split, frames = dataset
        out_file = str(tmp_path / "sizes.txt")
        rc = main(["fit-sizes", "--dataset-root", root, "--split", split,
                   "--clusters", "1", "--output", out_file, "--seed", "0"])
        assert rc == 0
        clusters = load_size_clusters(out_file)
        dims = np.array([
            (lab.box3d.dims[1], lab.box3d.dims[0], lab.box3d.dims[2])
            for f in frames for lab in f.labels
        ])
        np.testing.assert_allclose(clusters.centroids[0], dims.mean(axis=0),
                                   atol=1e-9)

    def test_rerun_same_seed_identical(self, dataset, tmp_path):
        root, split, _ = dataset
        files = []
        for name in ("f1.txt", "f2.txt"):
            out_file = str(tmp_path / name)
            rc = main(["fit-sizes", "--dataset-root", root, "--split", split,
                       "--clusters", "2", "--output", out_file, "--seed", "3"])
            assert rc == 0
            files.append(open(out_file).read())
        assert files[0] == files[1]

    def test_sse_non_increasing_in_k(self, dataset, tmp_path, capsys):
        root, split, _ = dataset
        sses = []
        for k in (1, 2, 3):
            out_file = str(tmp_path / f"k{k}.txt")
            rc = main(["fit-sizes", "--dataset-root", root, "--split", split,
                       "--clusters", str(k), "--output", out_file,
                       "--seed", "0"])
            assert rc == 0
            out = capsys.readouterr().out
            sses.append(float(out.split("sse ")[1].split()[0]))
        assert sses == sorted(sses, reverse=True)

    @pytest.mark.parametrize("clusters", ["0", "-2"])
    def test_fewer_than_one_cluster_is_data_error(self, dataset, tmp_path,
                                                  monkeypatch, capsys,
                                                  clusters):
        # it used to write a one-cluster file and exit 0, and then to load
        # the whole split before it rejected the count
        root, split, _ = dataset
        loaded = []
        load_frame = cyldet.kitti.load_frame

        def recorded(*args, **kwargs):
            loaded.append(args)
            return load_frame(*args, **kwargs)

        monkeypatch.setattr(cyldet.kitti, "load_frame", recorded)
        out_file = tmp_path / "sizes.txt"
        rc = main(["fit-sizes", "--dataset-root", root, "--split", split,
                   "--clusters", clusters, "--output", str(out_file)])
        assert rc == 2
        assert "n_clusters" in capsys.readouterr().err
        assert not out_file.exists()
        assert loaded == []

    def test_insufficient_data_is_data_error(self, tmp_path):
        root = tmp_path / "tiny"
        frames = make_frames(1, seed=41, cars_per_frame=(1, 1))
        split = write_dataset(str(root), frames)
        rc = main(["fit-sizes", "--dataset-root", str(root), "--split", split,
                   "--clusters", "5", "--output", str(tmp_path / "s.txt")])
        assert rc == 2


# SCATTER and fit-sizes --clusters 2 --seed 3 on the dataset fixture's
# tree, recorded while every command read every scan
SCATTER_CSV = (b"s,recall,proposals_per_gt\n0,0.3333333333,1\n"
               b"0.1,0.4444444444,3.222222222\n0.3,0.6666666667,8.777777778\n")
SIZES_TXT = (b"1.4273872897149928 1.6637397229963813 4.18770734138212\n"
             b"1.4953206462919253 1.7172591098959855 3.6998039207163793\n")
SCATTER = ["sweep", "scatter", "--values", "0,0.1,0.3", "--seed", "7",
           "--dims-noise", "0.2", "--box2d-noise", "3"]


def _output(command, out_dir):
    if command[0] == "fit-sizes":
        return ["--output", os.path.join(out_dir, "sizes.txt")]
    return ["--output-dir", out_dir]


class TestFrameFilesRead:
    """sweep scatter and fit-sizes read calibration and labels alone; the
    other commands read each frame's scan too.  Every command needs all
    three files of every frame."""

    COMMANDS = [["detect"], ["sweep", "scatter", "--values", "0.3"],
                ["sweep", "objectness", "--values", "0.3"],
                ["sweep", "desync", "--values", "0.2"],
                ["fit-sizes", "--clusters", "1"]]

    @pytest.fixture
    def tree(self, tmp_path):
        root = str(tmp_path / "data")
        split = write_dataset(root, make_frames(3, seed=40))
        return root, ["--dataset-root", root, "--split", split]

    def test_scatter_sweep_and_fit_sizes_read_no_scan(self, dataset, tmp_path,
                                                      monkeypatch):
        root, split, _ = dataset

        def no_scan(data):
            raise AssertionError("a scan was read")

        monkeypatch.setattr(cyldet.kitti, "parse_velodyne", no_scan)
        where = ["--dataset-root", root, "--split", split]
        out_dir = str(tmp_path)
        assert main(SCATTER + where + ["--output-dir", out_dir]) == 0
        assert main(["fit-sizes", "--clusters", "2", "--seed", "3"] + where
                    + _output(["fit-sizes"], out_dir)) == 0
        assert (tmp_path / "sweep_scatter.csv").read_bytes() == SCATTER_CSV
        assert (tmp_path / "sizes.txt").read_bytes() == SIZES_TXT

    @pytest.mark.parametrize("corrupt", ["truncated", "nan"])
    def test_a_bad_scan_fails_only_the_commands_that_read_scans(
            self, tree, tmp_path, corrupt):
        root, where = tree
        intact = tmp_path / "intact"
        assert main(SCATTER + where + ["--output-dir", str(intact)]) == 0
        path = os.path.join(root, "velodyne", "000001.bin")
        with open(path, "rb") as fh:
            data = fh.read()
        with open(path, "wb") as fh:
            if corrupt == "truncated":
                fh.write(data[:-4])
            else:
                fh.write(np.float32(np.nan).tobytes() + data[4:])
        bad = tmp_path / "bad"
        assert main(SCATTER + where + ["--output-dir", str(bad)]) == 0
        assert ((bad / "sweep_scatter.csv").read_bytes()
                == (intact / "sweep_scatter.csv").read_bytes())
        for command in (["detect"], ["sweep", "objectness", "--values", "0.3"]):
            assert main(command + where + _output(command, str(tmp_path))) == 2

    @pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
    def test_a_missing_scan_fails_every_command(self, tree, tmp_path, capsys,
                                                command):
        root, where = tree
        path = os.path.join(root, "velodyne", "000001.bin")
        os.remove(path)
        assert main(command + where + _output(command, str(tmp_path))) == 2
        assert (f"error: frame 000001: missing velodyne file {path}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
    def test_a_split_list_that_is_not_utf8_is_named(self, tree, tmp_path,
                                                    capsys, command):
        # it used to exit 2 printing only the decode error: the list was
        # read with the first frame, after detect and sweep had made the
        # output directory and echoed their configuration into it
        root, where = tree
        path = where[-1]
        with open(path, "ab") as fh:
            fh.write(b"\xff")
        out_dir = str(tmp_path / "out")
        assert main(command + where + _output(command, out_dir)) == 2
        assert (f"error: {path}: not UTF-8 text: "
                in capsys.readouterr().err)
        assert not os.path.exists(out_dir)

    @pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
    def test_a_label_file_that_is_not_utf8_is_named(self, tree, tmp_path,
                                                    capsys, command):
        # it used to exit 2 printing only the decode error
        root, where = tree
        path = os.path.join(root, "label_2", "000001.txt")
        with open(path, "ab") as fh:
            fh.write(b"\xff")
        out_dir = str(tmp_path / "out")
        assert main(command + where + _output(command, out_dir)) == 2
        err = capsys.readouterr().err
        assert f"error: {path}: not UTF-8 text: " in err
        assert "can't decode byte 0xff" in err

    @pytest.mark.parametrize("name, content, message", [
        ("calib/000001.txt", b"P2: 1 0 0 0 0 1 0 0 0 0 1 x\n",
         "line 1: key P2: could not convert string to float: 'x'"),
        ("label_2/000001.txt",
         b"Car 0 inf 0 600 150 700 250 1.5 1.6 3.9 0 1.7 20 0\n",
         "line 1: occluded must be finite, got inf"),
        ("velodyne/000001.bin", b"\x00" * 100,
         "velodyne stream of 100 bytes is not a multiple of 16"),
        ("velodyne/000001.bin",
         np.array([[0, np.nan, 0, 0]], dtype="<f4").tobytes(),
         "point cloud has non-finite coordinates"),
    ], ids=["calib", "label", "truncated scan", "nan scan"])
    def test_a_file_that_does_not_parse_is_named(self, tree, tmp_path,
                                                 capsys, name, content,
                                                 message):
        # the message used to name neither the frame nor the file
        root, where = tree
        path = os.path.join(root, *name.split("/"))
        with open(path, "wb") as fh:
            fh.write(content)
        rc = main(["detect"] + where + ["--output-dir", str(tmp_path)])
        assert rc == 2
        assert f"error: {path}: {message}\n" in capsys.readouterr().err
