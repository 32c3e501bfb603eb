"""Child process that runs one pipeline in process, traced or not.

Imports only zetascope (with numpy) and the benchmark's standard-library
modules, never mpmath, so its memory and import time are the program's.

    python perfbench/inproc.py --t-min T --t-max T [--verify] --out DIR [--spans FILE]

It calls the functions ``zetascope zeros`` and ``zetascope verify`` call,
through module attributes looked up at call time, so a Tracer installed
before the run sees every call and no span is lost in a pool worker. The
summary written to DIR/summary.json carries the wall time of the pipeline
itself, without imports.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import tracing


def run_pipeline(t_min: float, t_max: float, verify: bool, out: Path) -> dict:
    from zetascope import cli, convergence, zeros

    csv_path = out / "zeros.csv"
    start = time.perf_counter_ns()
    records = zeros.find_zeros(t_min, t_max)
    cli.write_zeros_csv(records, csv_path)
    summary = {"zeros": [r.t for r in records]}
    if verify:
        loaded = cli.read_zeros_csv(csv_path)
        rows = convergence.verify_claims(loaded, convergence.SweepPlan())
        with open(out / "report.json", "w") as fh:
            json.dump({"results": [r.as_dict() for r in rows]}, fh, indent=2)
        summary["claims"] = [[r.zero_index, r.claim, r.passed] for r in rows]
        summary["zero_count"] = len(loaded)
    summary["wall_ns"] = time.perf_counter_ns() - start
    return summary


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--t-min", type=float, required=True)
    parser.add_argument("--t-max", type=float, required=True)
    parser.add_argument("--verify", action="store_true")
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args()

    tracer = None
    if args.spans:
        tracer = tracing.Tracer()
        tracer.install()
    out = Path(args.out)
    summary = run_pipeline(args.t_min, args.t_max, args.verify, out)
    if tracer is not None:
        tracer.dump(args.spans)
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh)


if __name__ == "__main__":
    main()
