"""Command-line surface: eval, zeros, verify, report.

Flags set the run, and nothing else does: the scan window, the sweep and
the paths. Data files are byte-deterministic for identical flags; run
parameters live in a sidecar field of the JSON report, never timestamps.
"""

from __future__ import annotations

import gc
import io
import math
import os
import sys
from types import SimpleNamespace

import zetascope

from .errors import DomainError, ZetascopeError
from .euler_maclaurin import remainder, zeta_hat_reference
from .special import N_CAP, T_CEILING, ZeroRecord, _check_grid, h_hat_exact

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MODULE_ERROR = 2
EXIT_CLAIMS_FAILED = 3

REPORT_SCHEMA = 1


class UsageError(ZetascopeError):
    """A bad flag or input file; the command exits with EXIT_USAGE."""


#: eval --what name -> (value at (z, n), the multiple of n it sums to: 0 if
#: it does not depend on n); the finite-n series and functional_eq names are
#: read from the package, so only their evals load those modules (and
#: numpy), and H_hat, zeta_hat and R_n load neither
_QUANTITIES = {
    "zeta_n": (lambda z, n: zetascope.zeta_partial(z, n), 1),
    "xi_n": (lambda z, n: zetascope.xi_partial(z, n), 1),
    "zeta_hat_n": (lambda z, n: zetascope.zeta_hat_partial(z, n), 1),
    "zeta_hat": (lambda z, n: zeta_hat_reference(z), 0),
    "H_hat": (lambda z, n: h_hat_exact(z), 0),
    "H_hat_n": (lambda z, n: zetascope.h_hat_n(z, n), 1),
    "H_n": (lambda z, n: zetascope.h_n(z, n), 1),
    "h_2n": (lambda z, n: zetascope.small_h_2n(z, n), 2),
    "g_2n": (lambda z, n: zetascope.small_g_2n(z, n), 2),
    "R_n": (lambda z, n: remainder(z, n), 1),
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


def _read_text(path) -> str:
    """An input file as UTF-8 text, line ends kept; UsageError naming it if it is not UTF-8."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path} is not UTF-8 text: {exc}") from exc


def _output(name: str) -> str:
    """An output path, as given; UsageError if it is empty or a directory,
    ends in a separator or its directory is missing."""
    if not name or os.path.isdir(name) or not os.path.isdir(os.path.dirname(name) or "."):
        raise UsageError(
            f"cannot write {name!r}: it is empty or a directory, or its directory does not exist"
        )
    return name


def parse_complex(text: str) -> complex:
    """Accepts '2', '0.5+14.1i', '-1.5-3e-2i', 'inf' (i or j suffix; only a
    trailing i is the imaginary unit, so 'inf' and '1+infi' keep their i)."""
    cleaned = text.strip().replace(" ", "")
    if cleaned.endswith("i"):
        cleaned = cleaned[:-1] + "j"
    try:
        return complex(cleaned)
    except ValueError as exc:
        raise UsageError(f"cannot parse complex value {text!r}") from exc


def _format_real(x: float, signed: bool = False) -> str:
    sign = "+" if signed else ""
    if x == 0:
        return "0"
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


def cmd_eval(args) -> int:
    z = parse_complex(args.z)
    if args.what not in _QUANTITIES:
        raise UsageError(
            f"unknown quantity {args.what!r}; choose from " + ", ".join(_QUANTITIES)
        )
    fn, reach = _QUANTITIES[args.what]
    cap = N_CAP // max(reach, 1)
    if not 1 <= args.n <= cap:
        raise UsageError(f"--n must lie in [1, {cap}], got {args.n}")
    print(format_value(fn(z, args.n)))
    if reach:
        print(f"n = {args.n}")
    return EXIT_OK


def write_zeros_csv(records: list[ZeroRecord], path) -> None:
    """The records as CSV: a header row, then the index and the repr of each
    float, comma-separated, each row ended by \r\n. No field needs quoting,
    so these are the bytes csv.writer writes, without loading csv."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(ZEROS_CSV_COLUMNS) + "\r\n")
        for r in records:
            fields = (r.t, r.rho.real, r.rho.imag, r.residual, *r.bracket)
            fh.write(",".join((str(r.index), *map(repr, fields))) + "\r\n")


def _finite(text: str) -> float:
    """The float a field spells; ValueError unless it is finite."""
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"{text!r} is not a finite number")
    return x


def read_zeros_csv(path) -> list[ZeroRecord]:
    """The records of a zeros CSV; UsageError if a row is malformed (a field
    past csv's size limit too) or a number in it is not finite."""
    import csv  # only verify reads a zeros file

    records = []
    reader = csv.DictReader(io.StringIO(_read_text(path), newline=""))
    try:
        columns, rows = reader.fieldnames or (), list(reader)
    except csv.Error as exc:
        line = reader.line_num + 1  # the first line of the record it stopped in
        raise UsageError(f"malformed zeros file {path}, line {line}: {exc!r}") from exc
    missing = [c for c in ZEROS_CSV_COLUMNS if c not in columns]
    if missing:
        raise UsageError(f"zeros file {path} lacks the columns {', '.join(missing)}")
    for line, row in enumerate(rows, start=2):
        try:
            records.append(
                ZeroRecord(
                    index=int(row["index"]),
                    t=_finite(row["t"]),
                    rho=complex(_finite(row["re_rho"]), _finite(row["im_rho"])),
                    bracket=(_finite(row["bracket_lo"]), _finite(row["bracket_hi"])),
                    residual=_finite(row["residual"]),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise UsageError(f"malformed zeros file {path}, line {line}: {exc!r}") from exc
    return records


def cmd_zeros(args) -> int:
    from . import zeros as zeros_mod  # only a scan loads the scan

    out = _output(args.out)
    try:  # a failed scan is a NumericalError: every DomainError is the window
        records = zeros_mod.find_zeros(args.t_min, args.t_max)
    except DomainError as exc:
        raise UsageError(f"{exc} (the scan is set by --t-min and --t-max)") from exc
    write_zeros_csv(records, out)
    print(len(records))
    return EXIT_OK


def cmd_verify(args) -> int:
    from pathlib import Path  # the report's zeros_file is the path as pathlib normalises it

    from . import convergence

    try:
        _check_grid(args.n0, args.doublings)
    except DomainError as exc:
        raise UsageError(str(exc)) from exc
    out = _output(args.out)
    zeros_path = Path(args.zeros)
    records = read_zeros_csv(zeros_path)
    if not records:
        raise UsageError(f"zeros file {zeros_path} holds no zeros")
    try:  # a zero that no sweep reaches is refused before any work
        rows = convergence.verify_claims(records, convergence.SweepPlan(args.n0, args.doublings))
    except DomainError as exc:
        raise UsageError(f"{exc} (the sweep is set by --n0 and --doublings)") from exc
    report = {
        "schema": REPORT_SCHEMA,
        "run": {
            "n0": args.n0,
            "doublings": args.doublings,
            "zeros_file": str(zeros_path),
            "zero_count": len(records),
        },
        "results": [r.as_dict() for r in rows],
    }
    import json
    with open(out, "w") as fh:
        fh.write(json.dumps(report, indent=2) + "\n")
    failing = [r for r in rows if not r.passed]
    if failing:
        print(f"{len(failing)} claim(s) failed:")
        for r in failing:
            print(f"  zero {r.zero_index} {r.claim}: measured {r.measured} "
                  f"(tolerance {r.tolerance:g}) {r.detail}")
        return EXIT_CLAIMS_FAILED
    print(f"all {len(rows)} claims passed")
    return EXIT_OK


def cmd_report(args) -> int:
    import json
    path = getattr(args, "in")
    header = ("zero", "claim", "expected", "measured", "tol", "pass")
    widths = [len(h) for h in header]
    table = []
    try:
        for r in json.loads(_read_text(path))["results"]:
            line = (
                *(str(r[k]) for k in ("zero_index", "claim", "expected", "measured")),
                f"{r['tolerance']:g}",
                "yes" if r["pass"] else "NO",
            )
            widths = [max(w, len(c)) for w, c in zip(widths, line)]
            table.append(line)
    except (KeyError, TypeError, ValueError, RecursionError) as exc:  # deep nesting too
        raise UsageError(f"malformed report {path}: {exc!r}") from exc
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    print(fmt.format(*header))
    for line in table:
        print(fmt.format(*line))
    return EXIT_OK


# The command line is read from one table rather than by argparse or
# getopt: importing those (and the gettext and locale they pull in) and
# building the parsers took about 6.6 ms of a 70-80 ms `zetascope zeros`
# process (2-vCPU VM, Python 3.11).

#: marks a flag that must be given
_REQUIRED = object()

#: command -> (handler, help, {flag: (type, default or _REQUIRED, help)});
#: a flag sets the attribute named by its name without the leading "--", with
#: "-" read as "_"
_COMMANDS = {
    "eval": (cmd_eval, "evaluate one quantity at a point", {
        "--z": (str, _REQUIRED, "complex point, e.g. 0.5+14.13i or -0.7+40i"),
        "--what": (str, _REQUIRED, "quantity name: " + ", ".join(_QUANTITIES)),
        "--n": (int, 1024, "truncation length for finite sums"),
    }),
    "zeros": (cmd_zeros, "scan for critical-line zeros", {
        "--t-min": (float, 10.0, "lower end of the scan window"),
        "--t-max": (float, 50.0, f"upper end of the scan window, at most {T_CEILING}"),
        "--out": (str, "zeros.csv", "CSV file to write"),
    }),
    "verify": (cmd_verify, "run the claim checks at each zero", {
        "--zeros": (str, _REQUIRED, "zeros CSV from the scan"),
        "--n0": (int, 64, "first n of each sweep"),
        "--doublings": (int, 10, "doublings of n0 in each sweep"),
        "--out": (str, "report.json", "JSON report to write"),
    }),
    "report": (cmd_report, "pretty-print a JSON report", {
        "--in": (str, "report.json", "JSON report to read"),
    }),
}

_HELP_FLAGS = ("-h", "--help")


def _attribute(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _usage(command: str | None) -> str:
    if command is None:
        return "usage: zetascope [-h] {" + ",".join(_COMMANDS) + "} ..."
    words = []
    for flag, (_, default, _) in _COMMANDS[command][2].items():
        word = f"{flag} {_attribute(flag).upper()}"
        words.append(word if default is _REQUIRED else f"[{word}]")
    return f"usage: zetascope {command} [-h] " + " ".join(words)


def _help(command: str | None):
    """Print the usage and the help of every flag (of every command at top
    level); exit EXIT_OK."""
    lines = [_usage(command), ""]
    if command is None:
        lines += ["Zeta partial sums, critical-line zeros, and convergence checks", ""]
    for name in _COMMANDS if command is None else (command,):
        _, text, flags = _COMMANDS[name]
        lines.append(f"zetascope {name}: {text}")
        for flag, (_, default, note) in flags.items():
            attr = _attribute(flag)
            if default is _REQUIRED:
                note += " (required)"
            else:
                note += f" (default: {default})"
            lines.append(f"  {flag + ' ' + attr.upper():<24}{note}")
        lines.append("")
    lines.append(f"  {'-h, --help':<24}show this help and exit")
    print("\n".join(lines))
    raise SystemExit(EXIT_OK)


def _fail(command: str | None, message: str):
    """Print the usage and the error to stderr; exit EXIT_USAGE."""
    prog = "zetascope" if command is None else f"zetascope {command}"
    sys.stderr.write(f"{_usage(command)}\n{prog}: error: {message}\n")
    raise SystemExit(EXIT_USAGE)


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The command and its flags' attributes: the last value given as
    ``--flag value`` or ``--flag=value``, else the flag's default. A value
    may begin with "-", but one of the command's flags is not a value.
    -h or --help prints the help and exits EXIT_OK; a malformed command
    line prints the usage and an error to stderr and exits EXIT_USAGE."""
    if argv and argv[0] in _HELP_FLAGS:
        _help(None)
    if not argv:
        _fail(None, "the following arguments are required: command")
    command, rest = argv[0], iter(argv[1:])
    if command not in _COMMANDS:
        choices = ", ".join(map(repr, _COMMANDS))
        _fail(None, f"argument command: invalid choice: {command!r} (choose from {choices})")
    flags = _COMMANDS[command][2]
    given, unknown = {}, []
    for token in rest:
        if token in _HELP_FLAGS:
            _help(command)
        flag, eq, value = token.partition("=")
        if flag not in flags:
            unknown.append(token)
            continue
        if not eq:
            value = next(rest, None)
            if value is None or value in flags or value in _HELP_FLAGS:
                _fail(command, f"argument {flag}: expected one argument")
        kind = flags[flag][0]
        try:
            given[flag] = kind(value)
        except ValueError:
            _fail(command, f"argument {flag}: invalid {kind.__name__} value: {value!r}")
    missing = [f for f, (_, default, _) in flags.items() if default is _REQUIRED and f not in given]
    if missing:
        _fail(command, "the following arguments are required: " + ", ".join(missing))
    if unknown:
        _fail(None, "unrecognized arguments: " + " ".join(unknown))
    values = {_attribute(f): given.get(f, default) for f, (_, default, _) in flags.items()}
    return SimpleNamespace(command=command, **values)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        code = _COMMANDS[args.command][0](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader of stdout is gone: the flush at exit goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
    except (UsageError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ZetascopeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MODULE_ERROR


def run() -> None:
    """The `zetascope` command: main, then exit. The collector's generations
    are frozen first, so the interpreter's last collection skips the objects
    numpy and the package left alive; main itself stays free of that
    process-wide step, so it can be called in process."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
