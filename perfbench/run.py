"""Run one workload of the mcpad benchmark.

    python3 perfbench/run.py --workload grandtest-classical --seed 1 --seconds 20 --trace 0

Prints every metric with its unit, then, as the last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
full record of the run (environment, repetitions, digests, failures) is
written under ``perfbench/runs/``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("grandtest-classical", "grandtest-mccnn", "loo-mccnn-frozen")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> int:
    """Limit BLAS threads to the CPUs this process may use; must run before
    numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    current = os.environ.get("OPENBLAS_NUM_THREADS", "")
    threads = min(int(current), nproc) if current.isdigit() and int(current) > 0 else nproc
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True,
                        help="measurement window for the repeated chain")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mcpad" / "__init__.py").is_file():
        print(f"error: no mcpad sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    cap_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import harness

    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), HERE / "runs")
    for name, metric in result["metrics"].items():
        print(f"{name:42s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"attempted {result['attempted']} stage calls, failed {result['failed']}, "
          f"correct {result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
