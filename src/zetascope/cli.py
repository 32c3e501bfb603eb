"""Command-line surface: eval, zeros, verify, report.

Configuration precedence: built-in defaults < JSON file named by the
ZETASCOPE_CONFIG environment variable < command-line flags. Data files are
byte-deterministic for identical configuration; run parameters live in a
sidecar field of the JSON report, never timestamps.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

from . import convergence, functional_eq, series, zeros as zeros_mod
from .errors import ConfigError, DomainError, ZetascopeError
from .euler_maclaurin import EulerMaclaurinConfig, remainder, zeta_hat_reference
from .zeros import ZeroRecord

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MODULE_ERROR = 2
EXIT_CLAIMS_FAILED = 3

REPORT_SCHEMA = 1


class UsageError(ZetascopeError):
    """A malformed input file; the command exits with EXIT_USAGE."""


#: eval --what name -> (value at (z, n, Euler-Maclaurin config), whether it depends on n)
_QUANTITIES = {
    "zeta_n": (lambda z, n, em: series.zeta_partial(z, n), True),
    "xi_n": (lambda z, n, em: series.xi_partial(z, n), True),
    "zeta_hat_n": (lambda z, n, em: series.zeta_hat_partial(z, n), True),
    "zeta_hat": (lambda z, n, em: zeta_hat_reference(z, em), False),
    "H_hat": (lambda z, n, em: functional_eq.h_hat_exact(z), False),
    "H_hat_n": (lambda z, n, em: functional_eq.h_hat_n(z, n), True),
    "H_n": (lambda z, n, em: functional_eq.h_n(z, n), True),
    "h_2n": (lambda z, n, em: functional_eq.small_h_2n(z, n), True),
    "g_2n": (lambda z, n, em: functional_eq.small_g_2n(z, n), True),
    "R_n": (lambda z, n, em: remainder(z, n, em), True),
}

ZEROS_CSV_COLUMNS = (
    "index",
    "t",
    "re_rho",
    "im_rho",
    "residual",
    "bracket_lo",
    "bracket_hi",
)


@dataclass(frozen=True)
class RunConfig:
    """Validated run-wide defaults; flags override file values."""

    em: EulerMaclaurinConfig = field(default_factory=EulerMaclaurinConfig)
    n0: int = 64
    doublings: int = 10
    t_min: float = 10.0
    t_max: float = 50.0
    step: float = 0.05

    def __post_init__(self):
        convergence._check_grid(self.n0, self.doublings)
        zeros_mod._check_scan(self.t_min, self.t_max, self.step)


#: the keys a config file may set: the em. keys set EulerMaclaurinConfig fields
_EM_KEYS = ("depth", "n_base", "target_rel_error", "window_C")
_RUN_KEYS = ("n0", "doublings", "t_min", "t_max", "step")


def load_config(env: dict | None = None) -> RunConfig:
    """Defaults, overlaid with the flat dotted-key JSON file from
    ZETASCOPE_CONFIG when set."""
    env = env if env is not None else os.environ
    path = env.get("ZETASCOPE_CONFIG")
    cfg = RunConfig()
    if not path:
        return cfg
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    unknown = sorted(set(data) - {f"em.{k}" for k in _EM_KEYS} - set(_RUN_KEYS))
    if unknown:
        raise ConfigError(f"config file {path} has unknown keys {', '.join(unknown)}")
    em = {
        k: _typed(f"em.{k}", data[f"em.{k}"], getattr(cfg.em, k))
        for k in _EM_KEYS
        if f"em.{k}" in data
    }
    run = {k: _typed(k, data[k], getattr(cfg, k)) for k in _RUN_KEYS if k in data}
    return replace(cfg, em=replace(cfg.em, **em), **run)


def _typed(key: str, value, default):
    """value, if it has the type of the key's default (an int may stand for
    a float); ConfigError otherwise."""
    kind = type(default)
    if isinstance(value, bool) or not (
        isinstance(value, kind) or (kind is float and isinstance(value, int))
    ):
        raise ConfigError(f"config key {key!r} must be {kind.__name__}, got {value!r}")
    return value


def parse_complex(text: str) -> complex:
    """Accepts '2', '0.5+14.1i', '-1.5-3e-2i' (i or j suffix)."""
    cleaned = text.strip().replace(" ", "").replace("i", "j")
    try:
        return complex(cleaned)
    except ValueError as exc:
        raise ZetascopeError(f"cannot parse complex value {text!r}") from exc


def _format_real(x: float, signed: bool = False) -> str:
    sign = "+" if signed else ""
    if x == 0:
        return "+0" if signed else "0"
    if 1e-4 <= abs(x) < 1e16:
        return f"{x:{sign}.15f}"
    return f"{x:{sign}.15e}"


def format_value(v: complex) -> str:
    """15 digits after the point; drops a numerically-silent imaginary part."""
    if v == 0:
        return "0"
    if abs(v.imag) <= 1e-14 * max(1.0, abs(v.real)):
        return _format_real(v.real)
    return _format_real(v.real) + _format_real(v.imag, signed=True) + "i"


def cmd_eval(args, cfg: RunConfig) -> int:
    if args.z is not None:
        z = parse_complex(args.z)
    elif args.re is not None:
        z = complex(args.re, args.im or 0.0)
    else:
        print("usage error: provide --z or --re/--im", file=sys.stderr)
        return EXIT_USAGE
    if args.what not in _QUANTITIES:
        print(
            f"usage error: unknown quantity {args.what!r}; choose from "
            + ", ".join(_QUANTITIES),
            file=sys.stderr,
        )
        return EXIT_USAGE
    n = args.n if args.n is not None else 1024
    fn, depends_on_n = _QUANTITIES[args.what]
    print(format_value(fn(z, n, cfg.em)))
    if depends_on_n:
        print(f"n = {n}")
    return EXIT_OK


def write_zeros_csv(records: list[ZeroRecord], path: Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ZEROS_CSV_COLUMNS)
        for r in records:
            writer.writerow(
                [
                    r.index,
                    repr(r.t),
                    repr(r.rho.real),
                    repr(r.rho.imag),
                    repr(r.residual),
                    repr(r.bracket[0]),
                    repr(r.bracket[1]),
                ]
            )


def read_zeros_csv(path: Path) -> list[ZeroRecord]:
    """The records of a zeros CSV; UsageError if a row is malformed."""
    records = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in ZEROS_CSV_COLUMNS if c not in (reader.fieldnames or ())]
        if missing:
            raise UsageError(f"zeros file {path} lacks the columns {', '.join(missing)}")
        for line, row in enumerate(reader, start=2):
            try:
                records.append(
                    ZeroRecord(
                        index=int(row["index"]),
                        t=float(row["t"]),
                        rho=complex(float(row["re_rho"]), float(row["im_rho"])),
                        bracket=(float(row["bracket_lo"]), float(row["bracket_hi"])),
                        residual=float(row["residual"]),
                    )
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise UsageError(f"malformed zeros file {path}, line {line}: {exc!r}") from exc
    return records


def cmd_zeros(args, cfg: RunConfig) -> int:
    t_min = args.t_min if args.t_min is not None else cfg.t_min
    t_max = args.t_max if args.t_max is not None else cfg.t_max
    step = args.step if args.step is not None else cfg.step
    try:
        zeros_mod._check_scan(t_min, t_max, step)
    except DomainError as exc:
        raise UsageError(str(exc)) from exc
    records = zeros_mod.find_zeros(t_min, t_max, step, cfg.em)
    write_zeros_csv(records, Path(args.out))
    print(len(records))
    return EXIT_OK


def cmd_verify(args, cfg: RunConfig) -> int:
    zeros_path = Path(args.zeros)
    if not zeros_path.exists():
        print(f"error: zeros file {zeros_path} does not exist", file=sys.stderr)
        return EXIT_USAGE
    records = read_zeros_csv(zeros_path)
    if not records:
        raise UsageError(f"zeros file {zeros_path} holds no zeros")
    n0 = args.n0 if args.n0 is not None else cfg.n0
    doublings = args.doublings if args.doublings is not None else cfg.doublings
    try:
        plan = convergence.SweepPlan(n0=n0, doublings=doublings, cfg=cfg.em)
    except DomainError as exc:
        raise UsageError(str(exc)) from exc
    rows = convergence.verify_claims(records, plan)
    report = {
        "schema": REPORT_SCHEMA,
        "run": {
            "n0": n0,
            "doublings": doublings,
            "zeros_file": str(zeros_path),
            "zero_count": len(records),
        },
        "results": [r.as_dict() for r in rows],
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    failing = [r for r in rows if not r.passed]
    if failing:
        print(f"{len(failing)} claim(s) failed:")
        for r in failing:
            print(f"  zero {r.zero_index} {r.claim}: measured {r.measured} "
                  f"(tolerance {r.tolerance:g}) {r.detail}")
        return EXIT_CLAIMS_FAILED
    print(f"all {len(rows)} claims passed")
    return EXIT_OK


def cmd_report(args, cfg: RunConfig) -> int:
    path = Path(getattr(args, "in"))
    if not path.exists():
        print(f"error: report file {path} does not exist", file=sys.stderr)
        return EXIT_USAGE
    header = ("zero", "claim", "expected", "measured", "tol", "pass")
    widths = [len(h) for h in header]
    table = []
    try:
        for r in json.loads(path.read_text())["results"]:
            line = (
                str(r["zero_index"]),
                str(r["claim"]),
                str(r["expected"]),
                str(r["measured"]),
                f"{r['tolerance']:g}",
                "yes" if r["pass"] else "NO",
            )
            widths = [max(w, len(c)) for w, c in zip(widths, line)]
            table.append(line)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"malformed report {path}: {exc!r}") from exc
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    print(fmt.format(*header))
    for line in table:
        print(fmt.format(*line))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zetascope",
        description="Zeta partial sums, critical-line zeros, and convergence checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one quantity at a point")
    p_eval.add_argument("--z", help="complex point, e.g. 0.5+14.13i")
    p_eval.add_argument("--re", type=float, help="real part (alternative to --z)")
    p_eval.add_argument("--im", type=float, help="imaginary part")
    p_eval.add_argument("--what", required=True, help="quantity name")
    p_eval.add_argument("--n", type=int, help="truncation length for finite sums")

    p_zeros = sub.add_parser("zeros", help="scan for critical-line zeros")
    p_zeros.add_argument("--t-min", type=float, dest="t_min")
    p_zeros.add_argument("--t-max", type=float, dest="t_max")
    p_zeros.add_argument("--step", type=float)
    p_zeros.add_argument("--out", default="zeros.csv")

    p_verify = sub.add_parser("verify", help="run the claim checks at each zero")
    p_verify.add_argument("--zeros", required=True, help="zeros CSV from the scan")
    p_verify.add_argument("--n0", type=int)
    p_verify.add_argument("--doublings", type=int)
    p_verify.add_argument("--out", default="report.json")

    p_report = sub.add_parser("report", help="pretty-print a JSON report")
    p_report.add_argument("--in", default="report.json")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config()
    except (OSError, json.JSONDecodeError, ZetascopeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    handlers = {
        "eval": cmd_eval,
        "zeros": cmd_zeros,
        "verify": cmd_verify,
        "report": cmd_report,
    }
    try:
        return handlers[args.command](args, cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ZetascopeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MODULE_ERROR


if __name__ == "__main__":
    sys.exit(main())
