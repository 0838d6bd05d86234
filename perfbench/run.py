"""Benchmark for catpop: one workload per run, result as a JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload law-T4 --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the last line of standard output reports the end-to-end
metrics (``setup_s``, ``wall_s``, ``cpu_s``, ``peak_rss_mb``); with
``--trace 1`` it reports the per-layer metrics of the traced run.  The lines
before it give every check's verdict and the metrics in readable form.
catpop is imported from ``src/`` of the checkout the script sits in, and
the run stops with an error if it is not there.
"""

from __future__ import annotations

import os
import sys
import time

T0 = time.perf_counter()
# One BLAS thread: on a shared 2-core machine a second thread makes the dense
# oracle's time depend on the neighbours' load and spin-waits inflate CPU time.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT)]

import catpop  # noqa: E402

if not Path(catpop.__file__).resolve().is_relative_to(SRC):
    raise SystemExit(f"catpop was imported from {catpop.__file__}, not from {SRC}")

from perfbench import bench  # noqa: E402


if __name__ == "__main__":
    sys.exit(bench.main(T0))
