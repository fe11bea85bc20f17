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
    def test_desync_without_seed_draws_is_data_error(self, dataset, tmp_path,
                                                     seeds):
        root, split, _ = dataset
        out_dir = tmp_path / "sweep"
        rc = main(["sweep", "desync", "--dataset-root", root, "--split", split,
                   "--output-dir", str(out_dir), "--values", "0.2",
                   "--desync-seeds", seeds])
        assert rc == 2
        assert not (out_dir / "sweep_desync.csv").exists()

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
