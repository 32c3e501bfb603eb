"""The experiment scripts under scripts/ run to completion on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(*args: str) -> subprocess.CompletedProcess:
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )


def test_measure_orders():
    proc = _run("scripts/measure_orders.py", "--doublings", "4")
    assert proc.returncode == 0, proc.stderr


def test_run_verification(tmp_path):
    proc = _run("scripts/run_verification.py", "--t-max", "20", "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "report.json").exists()
