import json
import os

import numpy as np
import pytest

import cyldet.cli
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

    def test_insufficient_data_is_data_error(self, tmp_path):
        root = tmp_path / "tiny"
        frames = make_frames(1, seed=41, cars_per_frame=(1, 1))
        split = write_dataset(str(root), frames)
        rc = main(["fit-sizes", "--dataset-root", str(root), "--split", split,
                   "--clusters", "5", "--output", str(tmp_path / "s.txt")])
        assert rc == 2
