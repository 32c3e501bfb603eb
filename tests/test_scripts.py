"""The experiment scripts under scripts/ run to completion on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _env() -> dict:
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=120
    )


def test_measure_orders():
    proc = _run("scripts/measure_orders.py", "--doublings", "4")
    assert proc.returncode == 0, proc.stderr


def test_measure_orders_closed_stdout_exits_1_quietly():
    """A reader that closes early (``| head -1``) ends the script with exit
    1 and nothing on stderr, as ``zetascope`` does, not a traceback."""
    proc = subprocess.Popen(
        [sys.executable, "scripts/measure_orders.py", "--doublings", "4"],
        cwd=ROOT,
        env=_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdout.close()  # closed before the script writes its first line
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (1, b"")
