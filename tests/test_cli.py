import contextlib
import csv
import io
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from zetascope import cli, convergence, zeros as zeros_mod
from zetascope.cli import (
    EXIT_CLAIMS_FAILED,
    EXIT_MODULE_ERROR,
    EXIT_OK,
    EXIT_USAGE,
    REPORT_SCHEMA,
    ZEROS_CSV_COLUMNS,
    format_value,
    main,
    parse_complex,
    read_zeros_csv,
    write_zeros_csv,
)
from zetascope.errors import ZetascopeError
from zetascope.zeros import ZeroRecord

ROOT = Path(__file__).resolve().parents[1]

#: glibc's tunable that masks its FMA, AVX2 and AVX-512 variants of libm
_NO_FMA = "glibc.cpu.hwcaps=-AVX2,-FMA,-AVX512F"


def _spawn(args, cwd, stdout=subprocess.PIPE, **env) -> subprocess.CompletedProcess:
    """`zetascope ARGS` in a child process, so a hang fails on the timeout."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(p for p in path if p))
    return subprocess.run(
        [sys.executable, "-m", "zetascope.cli", *args],
        cwd=cwd,
        env=env,
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        timeout=60,
    )


class TestProcess:
    @staticmethod
    def _modules_after(*argvs, site: bool = True) -> tuple[list[int], list[str]]:
        """The exit codes of cli.main on each argv in turn, in a fresh child
        process, and the modules loaded then, read before the child's own
        json import. Without ``site`` the child runs under -S: no site
        module, so no .pth file imports anything first."""
        code = (
            "import sys; from zetascope import cli; "
            f"codes = [cli.main(argv) for argv in {list(argvs)!r}]; "
            "modules = sorted(sys.modules); "
            "import json; print(json.dumps([codes, modules]))"
        )
        child = subprocess.run(
            [sys.executable, *(() if site else ("-S",)), "-c", code],
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            capture_output=True,
            text=True,
            timeout=60,
        )
        return json.loads(child.stdout.splitlines()[-1])

    def test_zeros_loads_no_claim_modules(self, tmp_path):
        # a scan needs neither the claims nor the functional equation, nor
        # the numpy partial sums; its records are named tuples, its
        # Bernoulli numbers integer arithmetic, and it reads no JSON. The child runs without site-packages, which also
        # shows that the scan needs none
        argv = ["zeros", "--t-min", "14", "--t-max", "15", "--out", str(tmp_path / "z.csv")]
        codes, modules = self._modules_after(argv, site=False)
        assert codes == [EXIT_OK]
        assert "zetascope.zeros" in modules
        assert "zetascope.convergence" not in modules
        assert "zetascope.functional_eq" not in modules
        assert "zetascope.series" not in modules
        assert "numpy" not in modules
        for name in ("dataclasses", "inspect", "fractions", "decimal", "json"):
            assert name not in modules
        # the command line is read without argparse, and so without gettext
        # and the locale module its lookup imports
        for name in ("argparse", "gettext", "locale"):
            assert name not in modules
        # with namedtuple records, a dict cache, hand-written CSV rows and
        # os.path, a scan loads neither typing, csv nor pathlib, nor the re,
        # enum and functools they import
        for name in ("re", "typing", "csv", "pathlib", "enum", "functools"):
            assert name not in modules

    def test_verify_loads_no_dataclasses_or_fractions(self, tmp_path):
        # numpy imports inspect itself, so only these two can be pinned here;
        # the zeros' record is special's, so verify never loads the scan
        zeros_csv, report = tmp_path / "z.csv", str(tmp_path / "r.json")
        golden = (ROOT / "tests" / "golden" / "zeros_50.csv").read_bytes()
        zeros_csv.write_bytes(b"".join(golden.splitlines(keepends=True)[:2]))
        codes, modules = self._modules_after(["verify", "--zeros", str(zeros_csv), "--out", report])
        assert codes == [EXIT_OK]
        assert "zetascope.convergence" in modules
        assert "zetascope.zeros" not in modules
        assert "dataclasses" not in modules
        assert "fractions" not in modules
        assert "argparse" not in modules
        assert "gettext" not in modules

    def test_scan_bytes_keep_with_the_libm_variants_masked(self, tmp_path):
        # zeros.csv holds ordinates and brackets, which glibc's FMA, AVX2 and
        # AVX-512 variants of cos and log do not move; |zeta| at the ordinate,
        # once a column, did (zero 18 of this scan). Two children, one with
        # the variants masked; each prints math.cos(1.31), whose last bit
        # shows whether the mask took effect
        code = (
            "import math; from zetascope import cli; print(math.cos(1.31).hex()); "
            "cli.main(['zeros', '--t-min', '10.0123', '--t-max', '100', '--out', 'zeros.csv'])"
        )
        env = {k: v for k, v in os.environ.items() if k != "GLIBC_TUNABLES"}
        env["PYTHONPATH"] = str(ROOT / "src")
        runs = []
        for name, tunables in (("plain", {}), ("masked", {"GLIBC_TUNABLES": _NO_FMA})):
            (tmp_path / name).mkdir()
            child = subprocess.run(
                [sys.executable, "-S", "-c", code],
                cwd=tmp_path / name,
                env=dict(env, **tunables),
                capture_output=True,
                text=True,
                timeout=60,
            )
            lines = child.stdout.splitlines()
            assert lines[1:] == ["29"], child.stderr
            runs.append((lines[0], (tmp_path / name / "zeros.csv").read_bytes()))
        (cos_plain, plain), (cos_masked, masked) = runs
        if cos_plain == cos_masked:
            pytest.skip(f"GLIBC_TUNABLES={_NO_FMA} left math.cos(1.31) as it was: no effect here")
        assert masked == plain

    def test_exact_evals_load_no_numpy(self):
        # H_hat is special's, zeta_hat and R_n euler_maclaurin's: none of the
        # three reads the partial sums
        argvs = [["eval", "--what", what, "--z", "0.3+5i"] for what in ("H_hat", "zeta_hat", "R_n")]
        codes, modules = self._modules_after(*argvs)
        assert codes == [EXIT_OK] * 3
        assert "zetascope.special" in modules
        for name in ("numpy", "zetascope.series", "zetascope.functional_eq", "zetascope.zeros"):
            assert name not in modules

    def test_run_freezes_the_collector_and_exits_with_main_code(self, monkeypatch):
        from zetascope import cli

        calls = []
        monkeypatch.setattr(cli, "main", lambda: calls.append("main") or EXIT_CLAIMS_FAILED)
        monkeypatch.setattr(cli.gc, "freeze", lambda: calls.append("freeze"))
        with pytest.raises(SystemExit) as exit_:
            cli.run()
        assert exit_.value.code == EXIT_CLAIMS_FAILED
        assert calls == ["main", "freeze"]


class TestFlags:
    """The command line: --flag value or --flag=value, the last of a
    repeated flag, and values that begin with "-"."""

    def test_flag_equals_value(self, capsys):
        assert main(["eval", "--what=zeta_n", "--z=2", "--n=3"]) == EXIT_OK
        assert capsys.readouterr().out.splitlines() == ["1.361111111111111", "n = 3"]

    def test_negative_point_as_separate_value(self, capsys):
        # argparse took "-0.7+40i" for a flag; the --z=... form printed these lines
        assert main(["eval", "--what", "zeta_n", "--z", "-0.7+40i", "--n", "777"]) == EXIT_OK
        assert capsys.readouterr().out.splitlines() == [
            "1396.612134330375739-1509.063869668697862i",
            "n = 777",
        ]

    def test_flag_as_value_is_a_missing_value(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["zeros", "--out", "--t-min", "10"])
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage: zetascope zeros")
        assert "argument --out: expected one argument" in err
        assert list(tmp_path.iterdir()) == []

    def test_repeated_flag_keeps_its_last_value(self, capsys):
        assert main(["eval", "--what", "H_hat", "--z", "7", "--what", "zeta_n", "--n", "9",
                     "--z", "2", "--n", "3"]) == EXIT_OK
        assert capsys.readouterr().out.splitlines() == ["1.361111111111111", "n = 3"]

    def test_command_help_names_every_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--help"])
        assert exc.value.code == EXIT_OK
        out = capsys.readouterr().out
        for flag in ("--zeros", "--n0", "--doublings", "--out"):
            assert flag in out


class TestParsing:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("2", 2 + 0j),
            ("0.5+14.1i", complex(0.5, 14.1)),
            ("0.5+14.1j", complex(0.5, 14.1)),
            ("-1.5-3e-2i", complex(-1.5, -0.03)),
            (" 1 + 2i ", complex(1, 2)),
            # only a trailing i is the imaginary unit: inf keeps its i
            ("inf", complex(math.inf, 0)),
            ("-inf", complex(-math.inf, 0)),
            ("1+infi", complex(1, math.inf)),
            ("infj", complex(0, math.inf)),
        ],
    )
    def test_complex_forms(self, text, expected):
        assert parse_complex(text) == expected

    def test_complex_rejects_garbage(self):
        with pytest.raises(ZetascopeError):
            parse_complex("one plus two eye")


class TestFormatting:
    def test_real_fifteen_decimals(self):
        assert format_value(complex(math.pi**2 / 6.0, 0.0)) == "1.644934066848226"

    def test_unit_value(self):
        assert format_value(1.0 + 0.0j) == "1.000000000000000"

    def test_exact_zero(self):
        assert format_value(0.0 + 0.0j) == "0"

    def test_silent_imaginary_dropped(self):
        assert format_value(complex(2.0, 1e-16)) == "2.000000000000000"

    def test_full_complex(self):
        s = format_value(complex(1.25, -0.5))
        assert s == "1.250000000000000-0.500000000000000i"

    def test_small_magnitudes_use_exponent(self):
        assert "e" in format_value(complex(3.0e-9, 0.0))

    def test_imaginary_part_kept_against_a_small_real_part(self):
        # the test is relative: 1e-16 is not silent beside 1e-18
        assert format_value(complex(1e-18, 1e-16)) == "1.000000000000000e-18+1.000000000000000e-16i"
        assert format_value(complex(float("nan"), 0.0)) == "nan"


class TestEval:
    def test_partial_sum(self, capsys):
        code = main(["eval", "--what", "zeta_n", "--z", "2", "--n", "3"])
        out = capsys.readouterr().out.splitlines()
        assert code == EXIT_OK
        assert out[0] == "1.361111111111111"
        assert out[1] == "n = 3"

    def test_reference_value_has_no_n_line(self, capsys):
        code = main(["eval", "--what", "zeta_hat", "--z", "2"])
        out = capsys.readouterr().out.splitlines()
        assert code == EXIT_OK
        assert out[0] == "1.644934066848226"
        assert len(out) == 1

    def test_real_point(self, capsys):
        code = main(["eval", "--what", "H_hat", "--z", "0.5"])
        assert code == EXIT_OK
        assert capsys.readouterr().out.splitlines()[0] == "1.000000000000000"

    def test_missing_point_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["eval", "--what", "zeta_n"])
        assert exited.value.code == EXIT_USAGE
        assert "required: --z" in capsys.readouterr().err

    def test_unknown_quantity_is_usage_error(self, capsys):
        assert main(["eval", "--what", "nope", "--z", "2"]) == EXIT_USAGE

    def test_pole_is_module_error(self, capsys):
        assert main(["eval", "--what", "zeta_hat", "--z", "1"]) == EXIT_MODULE_ERROR
        assert "error" in capsys.readouterr().err

    def test_small_value_keeps_its_imaginary_part(self, capsys):
        # an imaginary part above 1e-14 of the real part's modulus is printed
        assert main(["eval", "--what", "R_n", "--z", "10+10i", "--n", "1000"]) == EXIT_OK
        assert capsys.readouterr().out.splitlines() == [
            "8.015201233577413e-34+8.639750570561924e-34i",
            "n = 1000",
        ]


@pytest.fixture()
def first_zero_csv(tmp_path, capsys):
    path = tmp_path / "zeros.csv"
    code = main(
        ["zeros", "--t-min", "14.0", "--t-max", "14.3", "--out", str(path)]
    )
    capsys.readouterr()
    assert code == EXIT_OK
    return path


class TestZeros:
    def test_scan_writes_csv(self, first_zero_csv):
        records = read_zeros_csv(first_zero_csv)
        assert len(records) == 1
        assert records[0].t == pytest.approx(14.134725141734694, abs=1e-9)

    def test_round_trip_is_lossless(self, first_zero_csv):
        rec = read_zeros_csv(first_zero_csv)[0]
        text = first_zero_csv.read_text()
        assert repr(rec.t) in text
        assert all(repr(x) in text for x in rec.bracket)

    def test_bytes_are_csv_writer_bytes(self, tmp_path):
        # csv.writer, which wrote the file before, is the reference
        records = read_zeros_csv(ROOT / "tests" / "golden" / "zeros_50.csv")
        records.append(ZeroRecord(11, 1e-300, complex(0.5, -0.0), (-1.5e16, math.inf)))
        write_zeros_csv(records, tmp_path / "z.csv")
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(ZEROS_CSV_COLUMNS)
        for r in records:
            fields = (r.t, r.rho.real, r.rho.imag, *r.bracket)
            writer.writerow([r.index, *map(repr, fields)])
        assert (tmp_path / "z.csv").read_bytes() == expected.getvalue().encode()

    def test_deterministic_bytes(self, first_zero_csv, tmp_path, capsys):
        again = tmp_path / "again.csv"
        main(["zeros", "--t-min", "14.0", "--t-max", "14.3", "--out", str(again)])
        capsys.readouterr()
        assert again.read_bytes() == first_zero_csv.read_bytes()

    def test_bad_interval_is_usage_error(self, tmp_path, capsys):
        code = main(["zeros", "--t-min", "50", "--t-max", "10",
                     "--out", str(tmp_path / "z.csv")])
        assert code == EXIT_USAGE

    def test_window_below_the_rising_branch_writes_the_header_only(self, tmp_path, capsys):
        # theta falls below t = 6.29, so (0.5, 5) holds no Gram point and no zero
        out = tmp_path / "z.csv"
        assert main(["zeros", "--t-min", "0.5", "--t-max", "5", "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().out == "0\n"
        assert out.read_bytes() == (",".join(ZEROS_CSV_COLUMNS) + "\r\n").encode()


class TestVerifyAndReport:
    def test_full_cycle_on_first_zero(self, first_zero_csv, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main(
            ["verify", "--zeros", str(first_zero_csv), "--out", str(report_path)]
        )
        capsys.readouterr()
        assert code == EXIT_OK
        report = json.loads(report_path.read_text())
        assert report["schema"] == REPORT_SCHEMA
        assert report["run"]["zero_count"] == 1
        assert len(report["results"]) == 9
        failing = [r for r in report["results"] if not r["pass"]]
        assert failing == []

        code = main(["report", "--in", str(report_path)])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "claim" in out.splitlines()[0]
        assert "NO" not in out

    def test_failing_claims_on_a_non_zero(self, tmp_path, capsys):
        # t = 13.0 is on the critical line but not a zero (the point of
        # acceptance criterion 9): every claim that needs a zero fails there
        zeros_path = tmp_path / "not_a_zero.csv"
        zeros_path.write_text(
            "index,t,re_rho,im_rho,bracket_lo,bracket_hi\n"
            "1,13.0,0.5,13.0,13.0,13.0\n"
        )
        report_path = tmp_path / "report.json"
        code = main(["verify", "--zeros", str(zeros_path), "--out", str(report_path)])
        capsys.readouterr()
        assert code == EXIT_CLAIMS_FAILED
        report = json.loads(report_path.read_text())
        failing = [r["claim"] for r in report["results"] if not r["pass"]]
        assert failing == ["C1", "C3", "C4", "C5", "C6", "C7", "C8"]

        code = main(["report", "--in", str(report_path)])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "NO" in out

    def test_a_file_with_the_residual_column_still_verifies(self, tmp_path, monkeypatch, capsys):
        # zeros.csv had a residual column, |zeta(rho)| at the ordinate,
        # until it was deleted; verify ignores a column it does not read,
        # so the old layout and the new one give the same report
        layouts = {
            "old": b"index,t,re_rho,im_rho,residual,bracket_lo,bracket_hi\r\n"
            b"1,14.134725141734675,0.5,14.134725141734675,9.758560860697482e-15,"
            b"14.134725141734657,14.134725141734693\r\n",
            "new": b"index,t,re_rho,im_rho,bracket_lo,bracket_hi\r\n"
            b"1,14.134725141734675,0.5,14.134725141734675,"
            b"14.134725141734657,14.134725141734693\r\n",
        }
        reports = []
        for name, data in layouts.items():
            (tmp_path / name).mkdir()
            monkeypatch.chdir(tmp_path / name)
            Path("zeros.csv").write_bytes(data)
            assert main(["verify", "--zeros", "zeros.csv", "--out", "report.json"]) == EXIT_OK
            reports.append(Path("report.json").read_bytes())
        capsys.readouterr()
        assert reports[0] == reports[1]

    def test_report_deterministic(self, first_zero_csv, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            main(["verify", "--zeros", str(first_zero_csv), "--out", str(path)])
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_missing_zeros_file(self, tmp_path, capsys):
        code = main(["verify", "--zeros", str(tmp_path / "absent.csv"),
                     "--out", str(tmp_path / "r.json")])
        assert code == EXIT_USAGE

    def test_too_few_doublings(self, first_zero_csv, tmp_path, capsys):
        code = main(["verify", "--zeros", str(first_zero_csv),
                     "--doublings", "3", "--out", str(tmp_path / "r.json")])
        assert code == EXIT_USAGE
        assert "doublings" in capsys.readouterr().err

    def test_missing_report_file(self, tmp_path, capsys):
        assert main(["report", "--in", str(tmp_path / "none.json")]) == EXIT_USAGE


class TestBoundaryProbes:
    """Bad input at each boundary exits through a documented code."""

    @pytest.mark.parametrize("what", ["zeta_n", "zeta_hat", "H_hat"])
    def test_nan_point_is_numerical_error(self, what, capsys):
        assert main(["eval", "--what", what, "--z", "nan"]) == EXIT_MODULE_ERROR
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "row",
        [
            "1,abc,0.5,14.1,14.1,14.1",
            # a non-finite number is refused as input: inf once reached the
            # claims (exit 3), nan a validity-window message about n0
            "1,14.1,inf,14.1,14.1,14.1",
            "1,nan,0.5,nan,14.1,14.1",
            "1,14.1,0.5,14.1,-inf,14.1",
        ],
    )
    def test_malformed_zeros_csv_is_usage_error(self, row, tmp_path, capsys):
        path = tmp_path / "zeros.csv"
        path.write_text("index,t,re_rho,im_rho,bracket_lo,bracket_hi\n" + row + "\n")
        report = tmp_path / "r.json"
        code = main(["verify", "--zeros", str(path), "--out", str(report)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"malformed zeros file {path}, line 2" in err
        assert not report.exists()

    def test_report_without_results_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        path.write_text(json.dumps({"schema": REPORT_SCHEMA}))
        assert main(["report", "--in", str(path)]) == EXIT_USAGE
        assert "results" in capsys.readouterr().err

    def test_deeply_nested_report_is_usage_error(self, tmp_path, capsys):
        # the decoder's RecursionError was a traceback
        path = tmp_path / "report.json"
        path.write_text("[" * 100000 + "]" * 100000)
        assert main(["report", "--in", str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: malformed report {path}: RecursionError(")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("line", [1, 2])
    def test_oversized_csv_field_is_usage_error(self, line, tmp_path, capsys):
        # a field past csv's limit of 131,072 characters raised csv.Error, a
        # traceback, from the header row or from a data row
        lines = [",".join(ZEROS_CSV_COLUMNS), "1,14.1,0.5,14.1,14.1,14.1"]
        lines[line - 1] += "9" * 131073
        path = tmp_path / "zeros.csv"
        path.write_text("\n".join(lines) + "\n")
        report = tmp_path / "r.json"
        assert main(["verify", "--zeros", str(path), "--out", str(report)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"malformed zeros file {path}, line {line}: Error('field larger than" in err
        assert err.count("\n") == 1
        assert not report.exists()

    def test_zeros_file_without_zeros_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "zeros.csv"
        assert main(["zeros", "--t-min", "2", "--t-max", "13", "--out", str(path)]) == EXIT_OK
        report = tmp_path / "r.json"
        assert main(["verify", "--zeros", str(path), "--out", str(report)]) == EXIT_USAGE
        assert str(path) in capsys.readouterr().err
        assert not report.exists()

    @pytest.mark.parametrize(
        "flag,value",
        [("--n0", "0"), ("--n0", "-3"), ("--doublings", "40"), ("--doublings", "100000")],
    )
    def test_bad_sweep_grid_is_usage_error_at_once(
        self, flag, value, first_zero_csv, tmp_path, capsys
    ):
        report = tmp_path / "r.json"
        start = time.perf_counter()
        code = main(["verify", "--zeros", str(first_zero_csv), flag, value, "--out", str(report)])
        assert time.perf_counter() - start < 2.0
        assert code == EXIT_USAGE
        assert value in capsys.readouterr().err
        assert not report.exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--t-min", "50", "--t-max", "10"],
            ["--t-max", "200"],
            ["--t-min", "-1"],
            ["--t-min", "nan"],
            ["--t-max", "inf"],
        ],
    )
    def test_bad_scan_range_is_usage_error(self, flags, tmp_path, capsys):
        out = tmp_path / "zeros.csv"
        assert main(["zeros", *flags, "--out", str(out)]) == EXIT_USAGE
        assert flags[-1] in capsys.readouterr().err
        assert not out.exists()

    def test_step_is_gone(self, tmp_path, capsys):
        # the scan has no step grid: the flag is a malformed command line
        out = tmp_path / "zeros.csv"
        with pytest.raises(SystemExit) as exc:
            main(["zeros", "--step", "0.05", "--out", str(out)])
        assert exc.value.code == EXIT_USAGE
        assert "unrecognized arguments: --step" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n", ["0", "-5", str(2**24 + 1)])
    def test_n_out_of_range_is_usage_error(self, n, capsys):
        assert main(["eval", "--what", "zeta_n", "--z", "2", "--n", n]) == EXIT_USAGE
        assert f"--n must lie in [1, {2**24}], got {n}" in capsys.readouterr().err

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_closed_stdout_exits_usage_without_traceback(self, unbuffered, tmp_path):
        read, write = os.pipe()
        os.close(read)
        try:
            args = ["eval", "--what", "zeta_n", "--z", "2"]
            proc = _spawn(args, tmp_path, write, PYTHONUNBUFFERED=unbuffered)
        finally:
            os.close(write)
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr == ""

    def test_h_hat_far_right_is_numerical_error_at_once(self, tmp_path):
        # Gamma(1 - z) would be lifted 1e9 unit steps; a child process, so a
        # hang fails on the timeout
        proc = _spawn(["eval", "--what", "H_hat", "--z", "1e9+1i"], tmp_path)
        assert proc.returncode == EXIT_MODULE_ERROR
        assert proc.stderr.startswith("error: log_gamma needs Re z >= -4095.5")

    @pytest.mark.parametrize("z", ["0.5+1e9i", "0.5+1e300i"])
    def test_zeta_hat_past_the_cap_is_numerical_error_at_once(self, z, tmp_path):
        # the reference would start from n >= 1.3e9; a child process, so a
        # hang fails on the timeout
        proc = _spawn(["eval", "--what", "zeta_hat", "--z", z], tmp_path)
        assert proc.returncode == EXIT_MODULE_ERROR
        assert proc.stderr.startswith("error: n=")
        assert proc.stderr.rstrip().endswith("exceeds the cap 16777216")

    @pytest.mark.parametrize(
        "what,z,message",
        [
            # the start n is infinite: math.ceil raised OverflowError, and a
            # finite n past the cap printed all of its 301 digits
            ("zeta_hat", "360+1e308i", "n=inf exceeds the cap 16777216"),
            ("zeta_hat", "0.5+1e300i", "n=1.27324e+300 exceeds the cap 16777216"),
            # Gamma(1 - z) (2 pi)^(z - 1) passes the largest float: the final
            # exp raised OverflowError
            ("H_hat", "-22241", "H_hat overflows the floats at z=(-22241+0j)"),
            ("H_hat", "-1000+3i", "H_hat overflows the floats at z=(-1000+3j)"),
            ("H_hat", "-300+200i", "H_hat overflows the floats at z=(-300+200j)"),
            # the sine's phase 2 w passes the floats: cmath.exp raised ValueError
            ("H_hat", "-1e308+300i", "H_hat overflows the floats at z=(-1e+308+300j)"),
            (
                "H_hat",
                "1e308+300i",
                "log_gamma needs Re z >= -4095.5 (a lift of at most 4096 steps), "
                "got z=(-1e+308-300j)",
            ),
        ],
    )
    def test_overflow_is_one_line_numerical_error(self, what, z, message, tmp_path):
        proc = _spawn(["eval", "--what", what, f"--z={z}"], tmp_path)
        assert (proc.returncode, proc.stdout) == (EXIT_MODULE_ERROR, "")
        assert proc.stderr == f"error: {message}\n"

    def test_h_hat_far_right_underflows_to_zero(self, capsys):
        # (z - 1)! passes the floats: math.lgamma raised OverflowError
        assert main(["eval", "--what", "H_hat", "--z=1e308"]) == EXIT_OK
        assert capsys.readouterr().out == "0\n"

    def test_h_hat_beyond_the_sine_overflow_evaluates(self, capsys):
        assert main(["eval", "--what", "H_hat", "--z", "0.5+500i"]) == EXIT_OK
        # on the critical line |H_hat| = 1
        value = parse_complex(capsys.readouterr().out.strip())
        assert abs(value) == pytest.approx(1.0, rel=1e-11)

    @pytest.mark.parametrize(
        "argv",
        [
            ["zeros", "--t-min", "14.0", "--t-max", "14.3", "--out", "{absent}/z.csv"],
            ["verify", "--zeros", "{csv}", "--out", "{absent}/r.json"],
            ["verify", "--zeros", "{dir}", "--out", "{dir}/r.json"],
            ["report", "--in", "{dir}"],
            ["verify", "--zeros", "{latin1}", "--out", "{dir}/r.json"],
        ],
    )
    def test_unusable_file_is_usage_error(self, argv, first_zero_csv, tmp_path, capsys):
        latin1 = tmp_path / "latin1.csv"
        latin1.write_bytes(b"index,t\xe9\n")
        names = {"absent": tmp_path / "absent", "csv": first_zero_csv, "dir": tmp_path,
                 "latin1": latin1}
        assert main([a.format(**names) for a in argv]) == EXIT_USAGE
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--what", "zeta_n", "--z", "2", "--n", "abc"],
            ["zeros", "--t-min", "x"],
            ["eval", "--z", "2"],
            ["frobnicate"],
            [],
        ],
    )
    def test_malformed_command_line_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE
        assert "usage: zetascope" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]])
    def test_help_exits_ok(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_OK
        assert "usage: zetascope" in capsys.readouterr().out

    def test_unparsable_point_is_usage_error(self, capsys):
        assert main(["eval", "--what", "zeta_n", "--z", "1+2k"]) == EXIT_USAGE
        assert "cannot parse complex value '1+2k'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "what,z",
        [("zeta_n", z) for z in ("inf", "-inf", "1+infi", "infj", "1e309")]
        + [("R_n", "inf"), ("R_n", "1e309")],
    )
    def test_infinite_point_is_numerical_error(self, what, z, capsys):
        # inf is the value 1e309 rounds to: refused as not finite, not as
        # unparsable; R_n at Re z = inf printed nan+nani and exited 0
        assert main(["eval", "--what", what, "--z", z]) == EXIT_MODULE_ERROR
        assert "finite" in capsys.readouterr().err

    def test_failed_scan_is_numerical_error(self, tmp_path, capsys):
        # the window is accepted, but it ends on the first zero, where |Z| backs
        # no count: a failed computation exits 2, not the window's usage error
        out = tmp_path / "zeros.csv"
        argv = ["zeros", "--t-min", "10", "--t-max", "14.134725141734693", "--out", str(out)]
        assert main(argv) == EXIT_MODULE_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("what", ["h_2n", "g_2n"])
    def test_n_past_half_the_cap_is_usage_error_for_2n_sums(self, what, capsys):
        assert main(["eval", "--what", what, "--z", "2", "--n", str(2**24)]) == EXIT_USAGE
        assert f"--n must lie in [1, {2**23}], got {2**24}" in capsys.readouterr().err

    def test_scan_range_error_names_the_flags_that_set_it(self, tmp_path, capsys):
        # the message says which flags to change
        out = tmp_path / "zeros.csv"
        assert main(["zeros", "--t-max", "200", "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err.rstrip().endswith("(the scan is set by --t-min and --t-max)")
        assert not out.exists()

    def test_window_shift_past_the_cap_is_usage_error_at_once(
        self, first_zero_csv, tmp_path, monkeypatch, capsys
    ):
        # the window shifts n0 from 2 to 4 at t = 14.1, past what 23
        # doublings allow
        def no_work(*args, **kwargs):
            raise AssertionError("the sweeps' reach was not checked first")

        monkeypatch.setattr(convergence, "_claims_for_zero", no_work)
        report = tmp_path / "r.json"
        argv = ["verify", "--zeros", str(first_zero_csv), "--out", str(report),
                "--n0", "2", "--doublings", "23"]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "zero 1 at t=14.13" in err and "exceeds the cap" in err
        assert err.rstrip().endswith("(the sweep is set by --n0 and --doublings)")
        assert not report.exists()

    def test_non_finite_ordinate_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "zeros.csv"
        path.write_text(
            "index,t,re_rho,im_rho,bracket_lo,bracket_hi\n"
            "1,nan,0.5,nan,nan,nan\n"
        )
        report = tmp_path / "r.json"
        assert main(["verify", "--zeros", str(path), "--out", str(report)]) == EXIT_USAGE
        # refused as input, before the sweep's validity window sees the NaN
        assert "line 2: ValueError(\"'nan' is not a finite number\")" in capsys.readouterr().err
        assert not report.exists()

    def test_zeros_csv_lacking_a_column_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "zeros.csv"
        path.write_text("index,t,re_rho,im_rho,bracket_lo\n1,14.1,0.5,14.1,14.1\n")
        report = tmp_path / "r.json"
        assert main(["verify", "--zeros", str(path), "--out", str(report)]) == EXIT_USAGE
        assert "lacks the columns bracket_hi" in capsys.readouterr().err
        assert not report.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--zeros", "{latin1}", "--out", "{dir}/r.json"],
            ["report", "--in", "{latin1}"],
        ],
    )
    def test_non_utf8_input_names_the_file(self, argv, tmp_path, capsys):
        latin1 = tmp_path / "latin1.txt"
        latin1.write_bytes(b'{"n0": "caf\xe9"}\n')
        assert main([a.format(latin1=latin1, dir=tmp_path) for a in argv]) == EXIT_USAGE
        assert str(latin1) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["zeros", "--out", "{out}"],
            ["verify", "--zeros", "{csv}", "--out", "{out}"],
        ],
    )
    @pytest.mark.parametrize("out", ["{absent}/out", "{absent}/", "{dir}", ""])
    def test_unwritable_output_is_refused_before_any_work(
        self, argv, out, first_zero_csv, tmp_path, monkeypatch, capsys
    ):
        def no_work(*args, **kwargs):
            raise AssertionError("the output was not checked first")

        monkeypatch.setattr(zeros_mod, "find_zeros", no_work)
        monkeypatch.setattr(convergence, "verify_claims", no_work)
        out = out.format(absent=tmp_path / "absent", dir=tmp_path)
        assert main([a.format(out=out, csv=first_zero_csv) for a in argv]) == EXIT_USAGE
        assert out in capsys.readouterr().err


#: the number grammar of the boundary fuzzer: non-finite values, signed
#: zeros, the float extremes, huge ints, underscores, non-ASCII digits and
#: near-numbers
_NUMBERS = st.sampled_from([
    "nan", "-nan", "inf", "-inf", "Infinity", "0", "-0", "0.0", "-0.0",
    "1e308", "-1e308", "1e309", "5e-324", "-5e-324", "2.2250738585072014e-308",
    "1", "-1", "2", "0.5", "14.134725", "100", "16777216", "16777217",
    str(10**30), "9" * 400, "1_000", "1__0", "_1", "١٢", "１２",
    "٣.٥", "", " ", "1e", "0x10",
])
#: complex points: a number of the grammar, or a sum of two with an i or j
_POINTS = st.one_of(
    _NUMBERS,
    st.builds(
        "{}{}{}{}".format, _NUMBERS, st.sampled_from(["+", "-", ""]), _NUMBERS,
        st.sampled_from(["i", "j"]),
    ),
)


#: the input files a fuzzed verify or report call finds in its directory
_ZEROS_FILE, _REPORT_FILE = "zeros.csv", "report.json"
#: a field one character past csv's default limit
_OVERSIZED = "9" * (131072 + 1)
#: JSON nested past the decoder's recursion limit
_DEEP = "[" * 100000 + "]" * 100000
#: up to two (position, value) edits of a row, each value from the number grammar
_EDITS = st.lists(st.tuples(st.integers(0, 7), _NUMBERS), max_size=2)


def _edited(fields: tuple, edits: list) -> list:
    """``fields`` with each (position, value) of ``edits`` written in."""
    out = list(fields)
    for at, value in edits:
        out[at % len(out)] = value
    return out


#: a zeros CSV header: the columns, or them with one missing or one extra
_CSV_HEADERS = st.one_of(st.just(ZEROS_CSV_COLUMNS), st.sampled_from([
    *(ZEROS_CSV_COLUMNS[:i] + ZEROS_CSV_COLUMNS[i + 1:] for i in range(len(ZEROS_CSV_COLUMNS))),
    *(ZEROS_CSV_COLUMNS[:i] + ("extra",) + ZEROS_CSV_COLUMNS[i:]
      for i in range(len(ZEROS_CSV_COLUMNS) + 1)),
]))
#: the first zero's row, which verify accepts, and one more field
_CSV_ROW = ("1", "14.134725", "0.5", "14.134725", "14.134725", "14.134725", "1")
#: rows of a zeros CSV: _CSV_ROW edited, each a field short, whole or long
_CSV_ROWS = st.lists(
    st.builds(
        lambda edits, width: _edited(_CSV_ROW, edits)[:width],
        _EDITS,
        st.sampled_from([len(ZEROS_CSV_COLUMNS) + d for d in (0, 1, -1)]),
    ),
    max_size=3,
)


@st.composite
def _zeros_csvs(draw) -> str:
    """A zeros CSV: a header and up to three rows, maybe one field oversized."""
    lines = [list(draw(_CSV_HEADERS)), *draw(_CSV_ROWS)]
    if draw(st.booleans()):
        at = draw(st.integers(0, 63))
        line = lines[at % len(lines)]
        line[at % len(line)] = _OVERSIZED
    return "".join(",".join(line) + "\r\n" for line in lines)


#: a report row's fields, and their values as JSON, as verify writes them
_REPORT_KEYS = ("zero_index", "claim", "expected", "measured", "tolerance", "pass")
_REPORT_VALUES = ("1", '"C1"', '"-1.5"', '"-1.49"', "0.15", "true")
#: a report value: a number of the grammar as a token (which may not parse)
#: or as a string, null or an empty container
_JSON_VALUES = st.one_of(_NUMBERS, _NUMBERS.map(json.dumps), st.sampled_from(["null", "[]", "{}"]))
#: report JSON: up to three rows, each with up to two values edited and
#: maybe one field missing; or JSON nested past the decoder's limit, or an
#: oversized number
_REPORTS = st.one_of(
    st.lists(
        st.builds(
            lambda edits, missing: "{%s}" % ", ".join(
                f'"{k}": {v}'
                for i, (k, v) in enumerate(zip(_REPORT_KEYS, _edited(_REPORT_VALUES, edits)))
                if i != missing
            ),
            st.lists(st.tuples(st.integers(0, 5), _JSON_VALUES), max_size=2),
            st.integers(0, 11),  # the field left out, if below 6
        ),
        max_size=3,
    ).map(lambda rows: '{"schema": 1, "results": [%s]}' % ", ".join(rows)),
    st.sampled_from([_DEEP, '{"results": [{"zero_index": %s}]}' % _OVERSIZED]),
)


@st.composite
def _command_lines(draw) -> list[str]:
    """A command of cli._COMMANDS with each required flag and some of the
    others, as --flag value or --flag=value: a quantity name for --what, a
    number of the grammar for a numeric flag, else a point (paths too)."""
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    argv = [command]
    for flag, (kind, default, _) in cli._COMMANDS[command][2].items():
        if default is cli._REQUIRED or draw(st.booleans()):
            if flag == "--what":
                value = draw(st.sampled_from(sorted(cli._QUANTITIES)))
            else:
                value = draw(_POINTS if kind is str else _NUMBERS)
            argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    return argv


def _overran(signum, frame):
    pytest.fail("a fuzzed command ran past its time budget")


class TestBoundaryFuzz:
    """Any command line the flags' table admits, and verify or report on any
    generated zeros CSV or report JSON, exits through a documented code:
    0-3 from main, or SystemExit 0 or 1 from the parser."""

    #: seconds one call may take; a pass to N_CAP terms takes about 1.5 s
    BUDGET = 10

    @example(argv=["eval", "--what", "H_hat", "--z=-22241"])
    @example(argv=["eval", "--what", "zeta_hat", "--z=-22241"])
    @example(argv=["eval", "--what", "H_hat", "--z=360+1e308i"])
    @example(argv=["eval", "--what", "zeta_hat", "--z=360+1e308i"])
    @example(argv=["eval", "--what", "H_hat", "--z=1e308+300i"])
    @example(argv=["eval", "--what", "zeta_hat", "--z=1e308+300i"])
    @example(argv=["eval", "--what", "zeta_n", "--z", "inf"])
    @settings(max_examples=300, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(argv=_command_lines())
    def test_exits_through_a_documented_code(self, argv, tmp_path):
        self._run(argv, {}, tmp_path)

    @example(argv=["report", "--in", _REPORT_FILE], files={_REPORT_FILE: _DEEP})
    @example(argv=["verify", "--zeros", _ZEROS_FILE], files={_ZEROS_FILE: "index,t" + _OVERSIZED})
    @example(argv=["verify", "--zeros", _ZEROS_FILE],
             files={_ZEROS_FILE: ",".join(ZEROS_CSV_COLUMNS) + "\r\n1," + _OVERSIZED + "\r\n"})
    @settings(max_examples=100, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        argv=st.sampled_from([
            [command, flag, name]
            for command, flag in (("verify", "--zeros"), ("report", "--in"))
            for name in (_ZEROS_FILE, _REPORT_FILE)
        ]),
        files=st.fixed_dictionaries({_ZEROS_FILE: _zeros_csvs(), _REPORT_FILE: _REPORTS}),
    )
    def test_input_files_exit_through_a_documented_code(self, argv, files, tmp_path):
        self._run(argv, files, tmp_path)

    def _run(self, argv, files, tmp_path):
        """main(argv) within BUDGET seconds, in a fresh directory that holds
        ``files`` (name -> text): a documented exit code, and no traceback."""
        workdir = tempfile.mkdtemp(dir=tmp_path)  # every file a call writes lands here
        for name, text in files.items():
            Path(workdir, name).write_text(text)
        cwd, err = os.getcwd(), io.StringIO()
        previous = signal.signal(signal.SIGALRM, _overran)
        signal.alarm(self.BUDGET)
        try:
            os.chdir(workdir)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    assert exc.code in (EXIT_OK, EXIT_USAGE), argv
                else:
                    assert code in (EXIT_OK, EXIT_USAGE, EXIT_MODULE_ERROR, EXIT_CLAIMS_FAILED)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
            os.chdir(cwd)
        assert "Traceback" not in err.getvalue(), argv
