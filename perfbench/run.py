"""cyldet benchmark: one workload per invocation.

    python3 perfbench/run.py --workload sparse --seed 1 --seconds 20 --trace 0

--trace 0 measures the end-to-end metrics with nothing wrapped; --trace 1
runs the same work once untraced and once with every layer wrapped, and
reports the per-layer metrics.  The human-readable report comes first; the
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Full results (and, when traced, every span) are
written under perfbench/out/.
"""

import os
import sys

# Native thread pools stay at one thread, here and in every child process,
# so that the only parallelism measured is the program's own.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import platform  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")

def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sparse", "dense", "cli_split"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def _environment():
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def main(argv=None):
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cyldet", "__init__.py")):
        print(f"error: no cyldet sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    import workloads

    # Dropped proposals are logged as warnings; traced runs count them, and
    # no run prints them.
    logger = logging.getLogger("cyldet")
    logger.addHandler(logging.NullHandler())
    logger.propagate = False
    os.makedirs(workloads.OUT, exist_ok=True)
    result = workloads.run(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    env = dict(_environment(), jobs=workloads.JOBS)

    metrics = dict(result["metrics"])
    attempted, failed = result["attempted"], result["failed"]
    if not args.trace:
        metrics["frame_fail_ratio"] = (failed / attempted, "ratio")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          "closed loop, 1 caller")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("samples " + " ".join(f"{k}={v}" for k, v in result["samples"].items()))
    for name, (value, unit) in metrics.items():
        print(f"{name:42s} {value:14.6f} {unit}")
    checks = result["checks"]
    print("checks " + " ".join(f"{k}={'ok' if v else 'FAIL'}"
                               for k, v in checks.results.items()))

    stem = os.path.join(workloads.OUT, f"{args.workload}-trace{args.trace}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "samples": result["samples"],
        "checks": checks.results, "fingerprint": result.get("fingerprint"),
        "canary": result.get("canary"),
        "repeats": result.get("repeats"),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        with open(stem + "-spans.json", "w", encoding="utf-8") as fh:
            json.dump(result["tracer"].to_json(), fh)

    line = {
        "correct": checks.ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()
                    if k not in workloads.REPORT_ONLY},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
