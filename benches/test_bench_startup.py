"""Start-up cost of one CLI stage: a fresh ``python -m mcpad.cli --help``
process.

    PYTHONPATH=src python -m pytest benches/test_bench_startup.py --benchmark-only

``testpaths`` in pyproject.toml names only ``tests/``, so the tier-1 run does
not collect this directory. Each pipeline stage runs as its own ``mcpad``
process and pays for what the CLI imports before the stage starts; the
in-process ``perfbench`` chain imports the package once per run, so it cannot
see that cost. ``extra_info`` records each process's wall time (start to
exit) and peak resident set (``ru_maxrss`` from ``os.wait4``), and their
medians.

A small launcher interpreter starts each CLI process and reads its usage.
On Linux a process keeps the peak of the process it was forked from
through ``exec``, so a CLI process started from this benchmark's own,
larger process would read this one's peak instead of its own.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"

_LAUNCH = """
import json, os, subprocess, sys, time
start = time.perf_counter()
proc = subprocess.Popen([sys.executable, "-m", "mcpad.cli", "--help"], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
wall_ms = (time.perf_counter() - start) * 1e3
proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
print(json.dumps([wall_ms, usage.ru_maxrss / 1024, proc.returncode]))  # ru_maxrss is in KiB on Linux
"""


def test_cli_help_process(benchmark):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    wall, maxrss, codes = [], [], []

    def run():
        launched = subprocess.run([sys.executable, "-c", _LAUNCH], env=env,
                                  capture_output=True, text=True, check=True)
        wall_ms, maxrss_mb, code = json.loads(launched.stdout)
        wall.append(wall_ms)
        maxrss.append(maxrss_mb)
        codes.append(code)

    rounds = 10
    benchmark.pedantic(run, rounds=rounds, iterations=1, warmup_rounds=1)
    # the timed rounds, without the warm-up; --benchmark-disable runs one round only
    benchmark.extra_info["wall_ms_per_process"] = wall[-rounds:]
    benchmark.extra_info["wall_ms_median"] = float(np.median(wall[-rounds:]))
    benchmark.extra_info["maxrss_mb_per_process"] = maxrss[-rounds:]
    benchmark.extra_info["maxrss_mb_median"] = float(np.median(maxrss[-rounds:]))
    assert codes == [0] * len(codes)
