"""The command line as a process: `python -m cyldet.cli` over a 3-frame
synthetic tree, and each demo script.  test_cli.py pins every command's
exit code, message and files through cli.main; these check only what a
child process shows: that the exit code reaches the shell through
sys.exit, that stderr holds one message line and no traceback, and that
a failed run writes nothing."""

import glob
import json
import os
import subprocess
import sys

import pytest

import cyldet
from cyldet.synthetic import make_frames, write_dataset

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cyldet.__file__)))
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))
SOLVE = ["solve-pose", "--box2d", "648.4,158.9,757.1,242.7",
         "--dims", "1.6,1.5,3.9", "--yaw", "0.3"]


def run(argv, cwd):
    """The finished child process of python with argv, run in cwd with the
    package under test on its path."""
    return subprocess.run([sys.executable, *argv], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=300)


def cyldet_cli(args, tree, cwd):
    """The finished `python -m cyldet.cli` run of args, given the tree's
    first calibration file (solve-pose) or its root and split list."""
    root, split = tree
    where = (["--calib", os.path.join(root, "calib", "000000.txt")]
             if args[0] == "solve-pose" else
             ["--dataset-root", root, "--split", split])
    return run(["-m", "cyldet.cli", *args, *where], cwd)


def listing(path):
    return sorted(os.path.relpath(os.path.join(dirpath, name), path)
                  for dirpath, dirs, files in os.walk(path)
                  for name in dirs + files)


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    root = tmp_path_factory.mktemp("console") / "data"
    split = write_dataset(str(root), make_frames(3, seed=0))
    return str(root), split


def test_a_detect_run_exits_0(tree, tmp_path):
    (tmp_path / "run.ini").write_text(
        "[run]\nseed = 1\n[thresholds]\nobjectness = 0.3\n")
    done = cyldet_cli(["detect", "--config", "run.ini", "--output-dir",
                       "out"], tree, tmp_path)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.startswith("frames 3 ")
    assert len(os.listdir(tmp_path / "out" / "detections")) == 3


def test_a_solved_pose_exits_0(tree, tmp_path):
    done = cyldet_cli([*SOLVE, "--json"], tree, tmp_path)
    assert (done.returncode, done.stderr) == (0, "")
    assert json.loads(done.stdout)["agreement"] >= 0.99


@pytest.mark.parametrize("args, rc, message", [
    (["detect", "--config", "typo.ini", "--output-dir", "out"], 1,
     "usage error: unknown config key [thresholds] objectnes in typo.ini"),
    (["sweep", "scatter", "--values", "0.7:0.1:0.1", "--output-dir", "out"],
     1, "usage error: value grid '0.7:0.1:0.1' is empty"),
    (["sweep", "desync", "--values", "0.2", "--desync-seeds", "0",
      "--output-dir", "out"], 2, "error: [desync] seeds must be >= 1, got 0"),
    ([*SOLVE, "--residual-cap", "-1"], 2,
     "error: residual_cap must be positive"),
    (["detect", "--output-dir", "typo.ini"], 2,
     "error: [Errno 17] File exists: 'typo.ini'"),
], ids=["config-key", "empty-grid", "desync-seeds", "residual-cap",
        "output-dir-is-a-file"])
def test_a_failed_run_exits_with_one_line_and_writes_nothing(
        tree, tmp_path, args, rc, message):
    (tmp_path / "typo.ini").write_text("[thresholds]\nobjectnes = 0.3\n")
    before = listing(tmp_path)
    done = cyldet_cli(args, tree, tmp_path)
    assert (done.returncode, done.stdout, done.stderr) == (rc, "",
                                                           message + "\n")
    assert listing(tmp_path) == before


@pytest.mark.parametrize("demo", DEMOS, ids=os.path.basename)
def test_a_demo_exits_0(tmp_path, demo):
    done = run([demo], tmp_path)
    assert done.returncode == 0, done.stderr
