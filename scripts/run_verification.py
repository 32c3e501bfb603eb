#!/usr/bin/env python3
"""End-to-end experiment: locate the zeros below t = 50, run every
convergence/identity claim at each of them, and leave zeros.csv plus
report.json behind.

Usage:
    python scripts/run_verification.py [--t-max 50] [--out-dir results]
"""

import argparse
import sys
from pathlib import Path

from zetascope.cli import main as cli_main


def run(t_max: float, out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    zeros_csv = out_dir / "zeros.csv"
    report_json = out_dir / "report.json"
    rc = cli_main(["zeros", "--t-min", "10", "--t-max", str(t_max), "--out", str(zeros_csv)])
    if rc != 0:
        return rc
    rc = cli_main(["verify", "--zeros", str(zeros_csv), "--out", str(report_json)])
    cli_main(["report", "--in", str(report_json)])
    return rc


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--t-max", type=float, default=50.0)
    parser.add_argument("--out-dir", type=Path, default=Path("results"))
    args = parser.parse_args()
    sys.exit(run(args.t_max, args.out_dir))
