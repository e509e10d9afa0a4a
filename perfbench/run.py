"""Open-loop serving benchmark: one workload per run.

Run from the root of a checkout::

    python3 perfbench/run.py --workload rnn_stream --seed 1 \\
        --seconds 25 --trace 0

A run sets the workload up several times from the float model (reporting
the median as ``setup_s``), then drives open-loop Poisson phases at the
workload's fixed rates: a nominal-rate phase for latency and a
saturating-rate phase, with a bounded client window, for throughput.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs each
phase untraced and traced, prints the per-layer metrics and writes the
spans to
``.perfbench/traces/<workload>-seed<seed>.jsonl``. Answers are checked bit
for bit; a mismatch prints ``"correct": false`` and exits 1. The last
line of standard output is the JSON result; the lines before it give
each number with its sample count. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: {ROOT / 'src' / 'repro'} is missing; run the "
              "benchmark from a checkout of the repository",
              file=sys.stderr)
        return 2
    work = OUT / f"run-{os.getpid()}-{time.time_ns()}"
    (work / "tmp").mkdir(parents=True)
    # Compiler probes, gcc and the per-set-up codegen caches all write
    # inside the run directory, which is removed at exit.
    os.environ["TMPDIR"] = str(work / "tmp")
    tempfile.tempdir = None
    # One BLAS thread, set before numpy loads: the server runs its own
    # worker threads, batch-16 GEMMs of these models are too small to
    # split, and spinning BLAS threads on a small machine starve the
    # serving threads (nominal p99 roughly doubles with two).
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import bench

        return bench.run(args, work, OUT)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
