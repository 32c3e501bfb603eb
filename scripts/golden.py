#!/usr/bin/env python3
"""Write the golden pipeline outputs under tests/golden/, or check them.

The pipelines are the 10.0123-50 scan with its verify report (exit 0) and
the 10.0123-100 scan with its default verify report (exit 3: the default
sweep misses C4 and C5 above t = 65.5). Each runs the CLI in a fresh
temporary directory, so the report's zeros_file is the bare file name.
tests/test_golden.py compares a fresh run with these files within stated
tolerances; --check compares the bytes.

Usage:
    PYTHONPATH=src python scripts/golden.py          # regenerate the files
    PYTHONPATH=src python scripts/golden.py --check  # exit 1 on any difference
"""

import argparse
import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

from zetascope.cli import main as cli_main

GOLDEN = Path(__file__).resolve().parents[1] / "tests" / "golden"

#: (command line, exit code) of each step, in order; each writes one file
RUNS = (
    (["zeros", "--t-min", "10.0123", "--t-max", "50", "--out", "zeros_50.csv"], 0),
    (["verify", "--zeros", "zeros_50.csv", "--out", "report_50.json"], 0),
    (["zeros", "--t-min", "10.0123", "--t-max", "100", "--out", "zeros_100.csv"], 0),
    (["verify", "--zeros", "zeros_100.csv", "--out", "report_100.json"], 3),
)
FILES = tuple(argv[-1] for argv, _ in RUNS)


def produce(workdir: Path) -> list[int]:
    """Run every step in ``workdir``, stdout discarded; the exit codes."""
    codes = []
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for argv, _ in RUNS:
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(cli_main(argv))
    finally:
        os.chdir(cwd)
    return codes


def main(check: bool) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        codes = produce(Path(tmp))
        expected = [code for _, code in RUNS]
        if codes != expected:
            print(f"exit codes {codes}, expected {expected}", file=sys.stderr)
            return 1
        if not check:
            GOLDEN.mkdir(exist_ok=True)
            for name in FILES:
                (GOLDEN / name).write_bytes((Path(tmp) / name).read_bytes())
            return 0
        differ = [n for n in FILES if (Path(tmp) / n).read_bytes() != (GOLDEN / n).read_bytes()]
    for name in differ:
        print(f"{name} differs from {GOLDEN / name}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--check", action="store_true", help="compare the bytes; write nothing")
    sys.exit(main(parser.parse_args().check))
