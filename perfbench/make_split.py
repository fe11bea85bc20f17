"""Write the cli_split KITTI tree, timed, in a process of its own.

    python3 perfbench/make_split.py --root DIR --seed N

Removes any previous tree, generates the frames and writes the tree, and
prints {"setup_s": seconds} as the last line: the time at reference speed,
scaled by the kernel runs around it in this process (see pace.py).
Running set-up apart keeps the split out of the benchmark process, whose
peak RSS would otherwise become the floor of every child's.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import workloads  # noqa: E402
from pace import Pace  # noqa: E402

from cyldet import synthetic  # noqa: E402


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    wl = workloads.WORKLOADS["cli_split"]
    shutil.rmtree(args.root, ignore_errors=True)
    _, setup_s = Pace().timed(lambda: synthetic.write_dataset(
        args.root, workloads.generate(wl, args.seed, wl.frames)))
    print(json.dumps({"setup_s": setup_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
