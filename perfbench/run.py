#!/usr/bin/env python3
"""zetascope benchmark: two closed-loop workloads, one caller each.

    python3 perfbench/run.py --workload verify-10 --seed 1 --seconds 55 --trace 0

Run from the root of a zetascope checkout. ``--trace 0`` times the workload
end to end with tracing off; ``--trace 1`` runs it in process with spans
around every public function and reports per-layer metrics. Human-readable
lines come first; the last line of stdout is the JSON result. The metric
names and units are read from BENCHMARK.json. See perfbench/README.md for
why each workload exists and which end-to-end metric each layer metric
should move.

Every timed operation runs in a fresh child process that imports only
zetascope and numpy; mpmath runs here, outside every timed region.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path
from typing import NamedTuple

import mpmath

import stats
import tracing
import workloads

HERE = Path(__file__).resolve().parent
PY = sys.executable

#: the whole run, children included, must end within this many seconds
RUN_LIMIT_S = 170.0
#: fresh-interpreter imports per run; setup_s is their median
SETUP_REPEATS = 9
#: zero ordinates must match mpmath within this, as tests/test_zeros.py has it
ZERO_TOL = 1e-9
#: claims gated at every zero; C6 is the known red and only recorded
GATED_CLAIMS = ("C1", "C2", "C3", "C4", "C5", "C7", "C8", "C9")
#: claims whose measured value must match the stored reference
VALUE_CLAIMS = ("C1", "C2", "C3", "C4", "C5", "C9")
CLAIM_VALUE_TOL = 1e-6
EXIT_CLAIMS_FAILED = 3

SETUP_CODE = (
    "import time; t = time.perf_counter(); import zetascope; "
    "print(repr(time.perf_counter() - t))"
)

#: per-layer metrics that count work and must repeat exactly between runs
COUNTERS = (
    "series.passes",
    "series.terms",
    "series.useful_term_ratio",
    "convergence.sweep_calls",
    "convergence.passes_per_zero",
    "convergence.terms_per_zero",
    "zeros.hardy_z_calls",
    "zeros.bisect_evals",
    "zeros.found",
    "euler_maclaurin.reference_calls",
    "euler_maclaurin.remainder_calls",
    "euler_maclaurin.remainder_terms",
    "euler_maclaurin.remainder_retries",
    "special.log_gamma_calls",
    "special.pow_calls",
    "functional_eq.calls",
    "functional_eq.passes_per_call",
)


class BenchError(Exception):
    """The benchmark cannot run here; exit non-zero without a result."""


class Child(NamedTuple):
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    timed_out: bool
    stdout: str
    stderr: str


class Op(NamedTuple):
    wall_s: float
    cpu_s: float
    rss_mb: float
    problems: list


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


class Bench:
    """Run-wide state: paths, child environment, deadline and outcomes."""

    def __init__(self, root: Path, seed: int, seconds: float):
        self.root = root
        self.seed = seed
        self.seconds = seconds
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.work = root / ".bench_work" / f"run-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ)
        self.env.pop("ZETASCOPE_CONFIG", None)
        path = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(root / "src") + (os.pathsep + path if path else "")
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def child(self, cmd: list[str], cwd: Path | None = None) -> Child:
        """Run one child to completion; wall, CPU and peak RSS include the
        workers it reaps. Killed, with its process group, at the deadline."""
        out_path, err_path = self.work / "child.out", self.work / "child.err"
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            return Child(-1, 0.0, 0.0, 0.0, True, "", "run time limit reached")
        fired = threading.Event()

        def expire(pgid: int) -> None:
            fired.set()
            _kill_group(pgid)

        with open(out_path, "w") as out, open(err_path, "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [str(c) for c in cmd],
                cwd=cwd or self.root,
                env=self.env,
                stdin=subprocess.DEVNULL,
                stdout=out,
                stderr=err,
                start_new_session=True,
            )
            timer = threading.Timer(timeout, expire, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                _kill_group(proc.pid)
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        _kill_group(proc.pid)  # anything the child left in its group
        return Child(
            proc.returncode,
            wall,
            usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0,
            fired.is_set(),
            out_path.read_text(),
            err_path.read_text(),
        )

    def more(self, started: float, walls: list[float], within: bool = False) -> bool:
        """Closed loop: start another operation while the measuring time
        lasts (``within``: while another one would end inside it) and the
        slowest one so far still fits before the deadline."""
        if not walls:
            return True
        now = time.monotonic()
        end = now + max(walls) if within else now
        return end - started < self.seconds and now + 1.5 * max(walls) < self.deadline

    def record(self, problems: list[str]) -> list[str]:
        """Count one attempted operation, failed if it has any problem."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return problems

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


# ---------------------------------------------------------------- gates


def child_problems(what: str, c: Child, expect=(0,)) -> list[str]:
    if c.timed_out:
        return [f"{what}: timed out"]
    if c.code not in expect:
        tail = c.stderr.strip().splitlines()[-1:] or [""]
        return [f"{what}: exit code {c.code} {tail[0]}"]
    return []


def zero_problems(ts: list[float], ref: list[float]) -> list[str]:
    if len(ts) != len(ref):
        return [f"found {len(ts)} zeros, expected {len(ref)}"]
    return [
        f"zero {k}: t={t!r} is {abs(t - r):.2e} from mpmath"
        for k, (t, r) in enumerate(zip(ts, ref), 1)
        if not abs(t - r) <= ZERO_TOL
    ]


def zero_ordinates(count: int) -> list[float]:
    """mpmath's first ``count`` zero ordinates, computed outside the timing."""
    with mpmath.workdps(25):
        return [float(mpmath.zetazero(k).imag) for k in range(1, count + 1)]


def read_zero_ts(path: Path) -> list[float]:
    with open(path, newline="") as fh:
        return [float(row["t"]) for row in csv.DictReader(fh)]


def claim_problems(rows: list[dict], zero_count: int, reference: dict | None) -> list[str]:
    """C1-C5 and C7-C9 pass at every zero; with a reference, their values
    match it within CLAIM_VALUE_TOL (values, not bytes, so a kernel that
    changes the last bits stays legal)."""
    by_key = {(int(r["zero_index"]), r["claim"]): r for r in rows}
    problems = []
    for k in range(1, zero_count + 1):
        for claim in GATED_CLAIMS:
            row = by_key.get((k, claim))
            if row is None:
                problems.append(f"zero {k} {claim}: missing")
            elif not row["pass"]:
                problems.append(f"zero {k} {claim}: failed")
            elif reference is not None and claim in VALUE_CLAIMS:
                want = _parse_measured(reference[str(k)][claim])
                got = _parse_measured(row["measured"])
                if not abs(got - want) <= CLAIM_VALUE_TOL * max(1.0, abs(want)):
                    problems.append(f"zero {k} {claim}: {row['measured']} vs {reference[str(k)][claim]}")
    return problems


def _parse_measured(text: str) -> complex:
    return complex(text.replace("i", "j"))


# ---------------------------------------------------------------- steps


def measure_setup(b: Bench) -> float:
    values = []
    for _ in range(SETUP_REPEATS):
        c = b.child([PY, "-c", SETUP_CODE])
        if c.code != 0 or c.timed_out:
            raise BenchError(f"import zetascope failed: {c.stderr.strip()[-500:]}")
        values.append(float(c.stdout))
    return stats.quantile(values, 0.5)


def cli_zeros(b: Bench, t_min: float, t_max: float) -> Child:
    return b.child(
        [PY, "-m", "zetascope.cli", "zeros", "--t-min", repr(t_min), "--t-max", repr(t_max),
         "--out", "zeros.csv"],
        cwd=b.work,
    )


def cli_verify(b: Bench) -> Child:
    # default flags: n0 = 64, 10 doublings and the default pool; never --jobs
    return b.child(
        [PY, "-m", "zetascope.cli", "verify", "--zeros", "zeros.csv", "--out", "report.json"],
        cwd=b.work,
    )


class Pipeline:
    """`zetascope zeros` then, for verify-10, `zetascope verify`, gated.

    Outputs must be byte-identical between the operations of one run."""

    def __init__(self, b: Bench, workload: str):
        self.b = b
        self.t_max, count, self.verify = workloads.PIPELINES[workload]
        self.t_min = workloads.scan_t_min(workload, b.seed)
        self.ref_t = zero_ordinates(count)
        self.reference = (
            json.loads((HERE / "reference_claims.json").read_text()) if self.verify else None
        )
        self.first_bytes = None
        self.stage_s: dict[str, list[float]] = {"zeros_s": [], "verify_s": []}

    def run(self) -> Op:
        b = self.b
        z = cli_zeros(b, self.t_min, self.t_max)
        problems = child_problems("zeros", z)
        children = [z]
        if not problems:
            problems += zero_problems(read_zero_ts(b.work / "zeros.csv"), self.ref_t)
        if self.verify and not problems:
            v = cli_verify(b)
            children.append(v)
            problems += child_problems("verify", v, expect=(0, EXIT_CLAIMS_FAILED))
            if not v.timed_out and v.code in (0, EXIT_CLAIMS_FAILED):
                rows = json.loads((b.work / "report.json").read_text())["results"]
                any_failed = any(not r["pass"] for r in rows)
                if (v.code == EXIT_CLAIMS_FAILED) != any_failed:
                    problems.append(f"verify exit code {v.code} with any_failed={any_failed}")
                problems += claim_problems(rows, len(self.ref_t), self.reference)
            self.stage_s["verify_s"].append(v.wall_s)
        self.stage_s["zeros_s"].append(z.wall_s)
        outputs = ("zeros.csv", "report.json") if self.verify else ("zeros.csv",)
        if not problems:
            data = [(b.work / name).read_bytes() for name in outputs]
            if self.first_bytes is None:
                self.first_bytes = data
            elif data != self.first_bytes:
                problems.append("outputs differ from the run's first operation")
        return Op(
            sum(c.wall_s for c in children),
            sum(c.cpu_s for c in children),
            max(c.rss_mb for c in children),
            b.record(problems),
        )


def describe_latency(what: str, lat_s: list[float]) -> str:
    """Median and the highest percentile with ten samples beyond it."""
    level = stats.tail_level(len(lat_s))
    tail = (
        f"p{100 * level:g} {1e3 * stats.quantile(lat_s, level):.3f} ms"
        if level
        else "no percentile has ten samples beyond it"
    )
    return (f"{what}: {len(lat_s)} samples, median {1e3 * stats.quantile(lat_s, 0.5):.3f} ms, "
            f"{tail}")


def timed_run(b: Bench, workload: str) -> dict:
    """The end-to-end figures. Every operation of a run does the same work,
    and on a shared machine the fastest of them repeats between runs far
    better than their median or mean, which move with other tenants' load."""
    setup_s = measure_setup(b)
    pipe = Pipeline(b, workload)
    ops: list[Op] = []
    started = time.monotonic()
    while b.more(started, [op.wall_s for op in ops]):
        ops.append(pipe.run())
    good = [op for op in ops if not op.problems] or ops
    print(f"t_min {pipe.t_min!r}, t_max {pipe.t_max}")
    print(describe_latency("operation latency", [op.wall_s for op in good]))
    for stage, values in pipe.stage_s.items():
        if values:
            print(f"  {stage} median {stats.quantile(values, 0.5):.4f} s, best {min(values):.4f} s")
    print(f"  cpu per operation median {stats.quantile([op.cpu_s for op in good], 0.5):.3f} s")
    return {
        "setup_s": setup_s,
        "op_best_ms": 1e3 * min(op.wall_s for op in good),
        "peak_rss_mb": max(op.rss_mb for op in good),
    }


# ---------------------------------------------------------------- traced


def traced_run(b: Bench, workload: str) -> dict:
    """One untraced CLI operation for the process-level numbers, then
    alternating untraced/traced in-process runs of the same inputs."""
    pipe = Pipeline(b, workload)
    op = pipe.run()
    m: dict[str, float] = {
        "cli.cpu_s": op.cpu_s,
        "cli.cpu_per_wall": op.cpu_s / op.wall_s,
        "cli.zeros_s": pipe.stage_s["zeros_s"][-1],
        "cli.verify_s": (pipe.stage_s["verify_s"] or [0.0])[-1],
    }
    summary_path, spans_path = b.work / "summary.json", b.work / "spans.json"

    def inproc(spans: bool) -> dict | None:
        cmd = [PY, HERE / "inproc.py", "--t-min", repr(pipe.t_min), "--t-max", repr(pipe.t_max),
               "--out", b.work]
        cmd += ["--verify"] if pipe.verify else []
        c = b.child(cmd + (["--spans", spans_path] if spans else []))
        problems = child_problems("in-process run", c)
        summary = None if problems else json.loads(summary_path.read_text())
        if summary is not None:
            problems += zero_problems(summary["zeros"], pipe.ref_t)
            if pipe.verify:
                rows = [{"zero_index": k, "claim": cl, "pass": ok} for k, cl, ok in summary["claims"]]
                problems += claim_problems(rows, len(pipe.ref_t), None)
        b.record(problems)
        return summary

    untraced, reps, pair_s, results = [], [], [], set()
    started = time.monotonic()
    # at least two pairs, so that the counters are seen to repeat
    while len(pair_s) < 2 or b.more(started, pair_s, within=True):
        t0 = time.monotonic()
        plain = inproc(spans=False)
        traced = inproc(spans=True)
        pair_s.append(time.monotonic() - t0)
        if plain is None or traced is None:
            break
        for s in (plain, traced):
            results.add(json.dumps([s["zeros"], s.get("claims")]))
        untraced.append(plain["wall_ns"] / 1e9)
        spans, absent = tracing.load_spans(spans_path)
        reps.append(tracing.layer_metrics(spans, traced["wall_ns"], traced.get("zero_count", 0)))
    if not reps:
        raise BenchError("no traced run completed: " + "; ".join(b.problems[:3]))
    if absent:
        print("absent entry points: " + ", ".join(absent))
    if any(rep[k] != reps[0][k] for rep in reps for k in COUNTERS):
        b.record(["work counters differ between traced runs"])
    if len(results) != 1:
        b.record(["traced and untraced runs computed different results"])
    # the runs with the median wall time (the lower one of an even count)
    middle = (len(reps) - 1) // 2
    m.update(sorted(reps, key=lambda r: r["trace.wall_s"])[middle])
    m["trace.untraced_wall_s"] = sorted(untraced)[middle]
    m["trace.overhead_s"] = m["trace.wall_s"] - m["trace.untraced_wall_s"]
    print(f"{len(reps)} untraced/traced pairs; median traced wall {m['trace.wall_s']:.4f} s, "
          f"untraced {m['trace.untraced_wall_s']:.4f} s, "
          f"tracing overhead {m['trace.overhead_s']:.4f} s")
    accounted = sum(m[f"{mod}.self_s"] for mod in tracing.MODULES) + m["bench.self_s"]
    print(f"module self times + benchmark self time = {accounted:.4f} s "
          f"of {m['trace.wall_s']:.4f} s traced wall")
    return m


# ---------------------------------------------------------------- main


def machine_record() -> dict:
    affinity = sorted(os.sched_getaffinity(0))
    try:
        nproc = int(subprocess.run(["nproc"], capture_output=True, text=True, timeout=10).stdout)
    except (OSError, ValueError, subprocess.SubprocessError):
        nproc = len(affinity)
    return {
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "affinity": affinity,
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.PIPELINES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "zetascope" / "__init__.py").is_file():
        print("error: run from the root of a zetascope checkout (no src/zetascope)", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    machine = machine_record()
    print("machine: " + json.dumps(machine))
    if (machine["cpu_count"] or 1) > machine["nproc"]:
        print("warning: verify's default pool of os.cpu_count() workers exceeds nproc")
    print(f"load average before: {os.getloadavg()}")
    b = Bench(root, args.seed, args.seconds)
    try:
        metrics = (traced_run if args.trace else timed_run)(b, args.workload)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        b.cleanup()
    print(f"load average after: {os.getloadavg()}")

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 2
    for p in b.problems[:20]:
        print(f"FAILED: {p}")
    print(f"ops_failed_ratio {b.failed / max(b.attempted, 1):g} ({b.failed} of {b.attempted})")
    for m in wanted:
        print(f"{m['name']:<36} {metrics[m['name']]!r:>24} {m['unit']}")
    result = {
        "correct": b.failed == 0,
        "attempted": b.attempted,
        "failed": b.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
