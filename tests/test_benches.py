"""Every case under ``benches/`` runs once, untimed, so a bench that no
longer runs against the package fails the test suite. ``testpaths`` names
only ``tests/``, so the suite does not collect ``benches/`` itself."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("pytest_benchmark")

ROOT = Path(__file__).resolve().parents[1]


def test_benches_run_once():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "benches", "--benchmark-disable", "-q"],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
