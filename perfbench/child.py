"""One measured step of the benchmark, run in a fresh process.

    python3 perfbench/child.py setup --households N --seed S --workspace DIR --result FILE [--trace]
    python3 perfbench/child.py evaluate --manifest FILE --output-dir DIR --result FILE [--trace]

``setup`` times ``synthmeter.cli.build_demo_workspace``; ``evaluate`` times
``synthmeter.report.run_full_evaluation``. The clock starts after all
imports (and after the tracer is installed). The result file holds the
wall time, this process's peak RSS, the environment and, with
``--trace``, the recorded spans.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np

import tracing
from synthmeter import cli, report


def _environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "synthmeter": str(Path(cli.__file__).resolve().parent),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("step", choices=["setup", "evaluate"])
    parser.add_argument("--households", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--workspace")
    parser.add_argument("--manifest")
    parser.add_argument("--output-dir")
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    recorder = tracing.Recorder()
    if args.trace:
        recorder.install()
    start = time.perf_counter()
    if args.step == "setup":
        cli.build_demo_workspace(Path(args.workspace), households=args.households, seed=args.seed)
    else:
        report.run_full_evaluation(args.manifest, output_dir=args.output_dir)
    seconds = time.perf_counter() - start
    result = {
        "seconds": seconds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": _environment(),
        "spans": recorder.spans,
    }
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
