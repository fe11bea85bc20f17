import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for path in (BENCH_DIR, os.path.join(os.path.dirname(BENCH_DIR), "src")):
    if path not in sys.path:
        sys.path.insert(0, path)
