"""Run one cyldet command as the ``cyldet`` console script does, timed at
reference speed from inside the process.

    python3 perfbench/cli_child.py detect --dataset-root DIR ...

The reference kernel (see pace.py) runs just before ``import cyldet.cli``
and just after ``main`` returns, in this process, so that it measures the
machine the command ran on.  After the command's own output, the last line
is {"exit": code, "wall_s": seconds, "scale": factor}; wall_s runs from the
import to the return of main, and wall_s * scale is the command's time at
reference speed.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
from time import perf_counter  # noqa: E402

from pace import Pace  # noqa: E402


def main(argv):
    def command():
        start = perf_counter()
        from cyldet import cli
        code = cli.main(argv)
        return code, perf_counter() - start

    (code, wall), scale = Pace().around(command)
    sys.stdout.flush()
    sys.stderr.flush()
    print(json.dumps({"exit": code, "wall_s": wall, "scale": scale}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
