"""Every case under ``benches/`` and ``perfbench/tests`` runs once, so a
bench that no longer runs against the package, or a change that breaks what
``perfbench/spans.py`` patches and reads in ``src/``, fails the test suite.
``testpaths`` names only ``tests/``, so the suite collects neither itself."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _pytest(*args: str) -> None:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", *args, "-q"],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]


def test_benches_run_once():
    pytest.importorskip("pytest_benchmark")
    _pytest("benches", "--benchmark-disable")


def test_perfbench_checks_pass():
    _pytest("perfbench/tests")
