import csv
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from zetascope import convergence, zeros as zeros_mod
from zetascope.cli import (
    EXIT_CLAIMS_FAILED,
    EXIT_MODULE_ERROR,
    EXIT_OK,
    EXIT_USAGE,
    REPORT_SCHEMA,
    ZEROS_CSV_COLUMNS,
    format_value,
    load_config,
    main,
    parse_complex,
    read_zeros_csv,
    write_zeros_csv,
)
from zetascope.errors import ConfigError, ZetascopeError
from zetascope.zeros import ZeroRecord

ROOT = Path(__file__).resolve().parents[1]


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
        # Bernoulli numbers integer arithmetic, and without a config file it
        # reads no JSON. The child runs without site-packages, which also
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
        # numpy imports inspect itself, so only these two can be pinned here
        zeros_csv, report = str(tmp_path / "z.csv"), str(tmp_path / "r.json")
        codes, modules = self._modules_after(
            ["zeros", "--t-min", "14", "--t-max", "15", "--out", zeros_csv],
            ["verify", "--zeros", zeros_csv, "--out", report],
        )
        assert codes == [EXIT_OK, EXIT_OK]
        assert "zetascope.convergence" in modules
        assert "dataclasses" not in modules
        assert "fractions" not in modules
        assert "argparse" not in modules
        assert "gettext" not in modules

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


class TestConfig:
    def test_defaults_without_env(self):
        cfg = load_config(env={})
        assert cfg.n0 == 64 and cfg.doublings == 10
        assert cfg.em.depth == 10

    def test_dotted_keys_overlay(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"em.depth": 6, "n0": 128, "t_max": 60.0}))
        cfg = load_config(env={"ZETASCOPE_CONFIG": str(path)})
        assert cfg.em.depth == 6
        assert cfg.n0 == 128
        assert cfg.t_max == 60.0
        assert cfg.doublings == 10  # untouched keys keep defaults

    def test_invalid_file_exits_usage(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        monkeypatch.setenv("ZETASCOPE_CONFIG", str(path))
        code = main(["eval", "--what", "zeta_n", "--z", "2"])
        assert code == EXIT_USAGE
        assert "config error" in capsys.readouterr().err

    def test_invalid_file_is_config_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="line 1 column 2"):
            load_config(env={"ZETASCOPE_CONFIG": str(path)})

    def test_flags_override_file_values(self, first_zero_csv, tmp_path, monkeypatch, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n0": 128, "doublings": 8}))
        monkeypatch.setenv("ZETASCOPE_CONFIG", str(path))
        report = tmp_path / "r.json"
        main(["verify", "--zeros", str(first_zero_csv), "--n0", "64", "--out", str(report)])
        run = json.loads(report.read_text())["run"]
        assert (run["n0"], run["doublings"]) == (64, 8)


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
        assert main(["eval", "--what", "zeta_n"]) == EXIT_USAGE
        assert "usage error" in capsys.readouterr().err

    def test_unknown_quantity_is_usage_error(self, capsys):
        assert main(["eval", "--what", "nope", "--z", "2"]) == EXIT_USAGE

    def test_pole_is_module_error(self, capsys):
        assert main(["eval", "--what", "zeta_hat", "--z", "1"]) == EXIT_MODULE_ERROR
        assert "error" in capsys.readouterr().err


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
        assert repr(rec.residual) in text

    def test_bytes_are_csv_writer_bytes(self, tmp_path):
        # csv.writer, which wrote the file before, is the reference
        records = read_zeros_csv(ROOT / "tests" / "golden" / "zeros_50.csv")
        records.append(ZeroRecord(11, 1e-300, complex(0.5, -0.0), (-1.5e16, math.inf), math.nan))
        write_zeros_csv(records, tmp_path / "z.csv")
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(ZEROS_CSV_COLUMNS)
        for r in records:
            fields = (r.t, r.rho.real, r.rho.imag, r.residual, *r.bracket)
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
            "index,t,re_rho,im_rho,residual,bracket_lo,bracket_hi\n"
            "1,13.0,0.5,13.0,0.0,13.0,13.0\n"
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

    def test_malformed_zeros_csv_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "zeros.csv"
        path.write_text(
            "index,t,re_rho,im_rho,residual,bracket_lo,bracket_hi\n"
            "1,abc,0.5,14.1,0.0,14.1,14.1\n"
        )
        code = main(["verify", "--zeros", str(path), "--out", str(tmp_path / "r.json")])
        assert code == EXIT_USAGE
        assert "line 2" in capsys.readouterr().err

    def test_wrongly_typed_config_value_is_usage_error(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n0": "abc"}))
        monkeypatch.setenv("ZETASCOPE_CONFIG", str(path))
        assert main(["eval", "--what", "zeta_n", "--z", "2"]) == EXIT_USAGE
        assert "'n0' must be int" in capsys.readouterr().err

    def test_report_without_results_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        path.write_text(json.dumps({"schema": REPORT_SCHEMA}))
        assert main(["report", "--in", str(path)]) == EXIT_USAGE
        assert "results" in capsys.readouterr().err

    def test_zeros_file_without_zeros_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "zeros.csv"
        assert main(["zeros", "--t-min", "2", "--t-max", "13", "--out", str(path)]) == EXIT_OK
        report = tmp_path / "r.json"
        assert main(["verify", "--zeros", str(path), "--out", str(report)]) == EXIT_USAGE
        assert str(path) in capsys.readouterr().err
        assert not report.exists()

    def test_deepest_remainder_config_evaluates(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"em.depth": 30, "em.target_rel_error": 1e-300}))
        monkeypatch.setenv("ZETASCOPE_CONFIG", str(path))
        assert main(["eval", "--what", "R_n", "--z", "2", "--n", "100"]) == EXIT_OK

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

    def test_step_is_gone(self, tmp_path, monkeypatch, capsys):
        # the scan has no step grid: the flag is a malformed command line and
        # the config key an unknown key, and both exit 1
        out = tmp_path / "zeros.csv"
        with pytest.raises(SystemExit) as exc:
            main(["zeros", "--step", "0.05", "--out", str(out)])
        assert exc.value.code == EXIT_USAGE
        assert "unrecognized arguments: --step" in capsys.readouterr().err
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"step": 0.05}))
        monkeypatch.setenv("ZETASCOPE_CONFIG", str(path))
        assert main(["zeros", "--out", str(out)]) == EXIT_USAGE
        assert "unknown keys step" in capsys.readouterr().err
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

    @pytest.mark.parametrize(
        "z,config",
        [
            ("0.5+1e9i", {}),
            ("0.5+1e300i", {}),
            # a window constant the config check allows for this scan range
            ("0.5+1e4i", {"t_min": 10.0, "t_max": 11.0, "em.window_C": 1e4}),
        ],
    )
    def test_zeta_hat_past_the_cap_is_numerical_error_at_once(self, z, config, tmp_path):
        # the reference would start from n >= 6.3e7; a child process, so a
        # hang fails on the timeout
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        proc = _spawn(["eval", "--what", "zeta_hat", "--z", z], tmp_path, ZETASCOPE_CONFIG=str(path))
        assert proc.returncode == EXIT_MODULE_ERROR
        assert proc.stderr.startswith("error: n=")
        assert proc.stderr.rstrip().endswith("exceeds the configured cap 16777216")

    def test_h_hat_beyond_the_sine_overflow_evaluates(self, capsys):
        assert main(["eval", "--what", "H_hat", "--z", "0.5+500i"]) == EXIT_OK
        # on the critical line |H_hat| = 1
        value = parse_complex(capsys.readouterr().out.strip())
        assert abs(value) == pytest.approx(1.0, rel=1e-11)

    def test_unknown_config_key_is_usage_error(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"em.dpeth": 5, "doublngs": 2}))
        monkeypatch.setenv("ZETASCOPE_CONFIG", str(path))
        assert main(["eval", "--what", "zeta_n", "--z", "2"]) == EXIT_USAGE
        assert "unknown keys doublngs, em.dpeth" in capsys.readouterr().err

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

    def test_non_utf8_config_is_config_error(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "cfg.json"
        path.write_bytes(b'{"n0": "\xe9"}')
        monkeypatch.setenv("ZETASCOPE_CONFIG", str(path))
        assert main(["eval", "--what", "zeta_n", "--z", "2"]) == EXIT_USAGE
        assert "config error" in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "key,argv",
        [
            ("em.window_C", ["zeros", "--t-min", "10", "--t-max", "20", "--out", "{out}"]),
            ("em.target_rel_error", ["eval", "--what", "zeta_hat", "--z", "0.5+14.134725141734693i"]),
        ],
    )
    def test_non_finite_config_value_is_config_error(self, key, argv, tmp_path, monkeypatch, capsys):
        # JSON reads 1e400 as inf: the window overflowed math.ceil, and an
        # infinite target stopped the remainder at once, with a wrong value
        path = tmp_path / "cfg.json"
        path.write_text(f'{{"{key}": 1e400}}')
        monkeypatch.setenv("ZETASCOPE_CONFIG", str(path))
        out = tmp_path / "zeros.csv"
        assert main([a.format(out=out) for a in argv]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith("config error:") and "finite" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_unparsable_point_is_usage_error(self, capsys):
        assert main(["eval", "--what", "zeta_n", "--z", "inf"]) == EXIT_USAGE
        assert "cannot parse complex value 'inf'" in capsys.readouterr().err

    @pytest.mark.parametrize("what", ["h_2n", "g_2n"])
    def test_n_past_half_the_cap_is_usage_error_for_2n_sums(self, what, capsys):
        assert main(["eval", "--what", what, "--z", "2", "--n", str(2**24)]) == EXIT_USAGE
        assert f"--n must lie in [1, {2**23}], got {2**24}" in capsys.readouterr().err

    def test_n_base_past_the_cap_is_config_error(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"em.n_base": 10**8}))
        monkeypatch.setenv("ZETASCOPE_CONFIG", str(path))
        assert main(["eval", "--what", "zeta_hat", "--z", "2"]) == EXIT_USAGE
        assert f"n_base must be in [10, {2**24}], got {10**8}" in capsys.readouterr().err

    @pytest.mark.parametrize("config", [{"em.n_base": 2**24}, {"em.window_C": 1e5}])
    def test_unbounded_scan_work_is_config_error_at_once(
        self, config, tmp_path, monkeypatch, capsys
    ):
        def no_work(*args, **kwargs):
            raise AssertionError("the scan's work was not bounded first")

        monkeypatch.setattr(zeros_mod, "find_zeros", no_work)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        monkeypatch.setenv("ZETASCOPE_CONFIG", str(path))
        out = tmp_path / "zeros.csv"
        assert main(["zeros", "--out", str(out)]) == EXIT_USAGE
        assert "may sum over 134217728 terms" in capsys.readouterr().err
        assert not out.exists()

    def test_scan_work_error_names_the_keys_that_set_it(self, tmp_path, monkeypatch, capsys):
        # verify does not scan, but its config is checked whole: the message
        # says which keys to change
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"em.window_C": 1e5}))
        monkeypatch.setenv("ZETASCOPE_CONFIG", str(path))
        csv_path = tmp_path / "zeros.csv"
        csv_path.write_text("index,t,re_rho,im_rho,residual,bracket_lo,bracket_hi\n")
        report = tmp_path / "r.json"
        assert main(["verify", "--zeros", str(csv_path), "--out", str(report)]) == EXIT_USAGE
        assert "t_min, t_max, em.n_base and em.window_C" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config,argv",
        [
            # the window shifts n0 past what the doublings allow: 64 to 2^18 or
            # more under window_C = 1e5, and 2 to 8 at t = 14.1 with 23 doublings
            ({"em.window_C": 1e5, "t_min": 10, "t_max": 11}, []),
            ({}, ["--n0", "2", "--doublings", "23"]),
        ],
    )
    def test_window_shift_past_the_cap_is_usage_error_at_once(
        self, config, argv, first_zero_csv, tmp_path, monkeypatch, capsys
    ):
        def no_work(*args, **kwargs):
            raise AssertionError("the sweeps' reach was not checked first")

        monkeypatch.setattr(convergence, "_claims_for_zero", no_work)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        monkeypatch.setenv("ZETASCOPE_CONFIG", str(path))
        report = tmp_path / "r.json"
        argv = ["verify", "--zeros", str(first_zero_csv), "--out", str(report), *argv]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "zero 1 at t=14.13" in err and "exceeds the cap" in err
        assert "n0, doublings and em.window_C" in err
        assert not report.exists()

    def test_non_finite_ordinate_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "zeros.csv"
        path.write_text(
            "index,t,re_rho,im_rho,residual,bracket_lo,bracket_hi\n"
            "1,nan,0.5,nan,0.0,nan,nan\n"
        )
        report = tmp_path / "r.json"
        assert main(["verify", "--zeros", str(path), "--out", str(report)]) == EXIT_USAGE
        assert "validity window" in capsys.readouterr().err

    def test_config_file_holding_an_array_is_config_error(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]")
        monkeypatch.setenv("ZETASCOPE_CONFIG", str(path))
        assert main(["eval", "--what", "zeta_n", "--z", "2"]) == EXIT_USAGE
        assert "must hold a JSON object" in capsys.readouterr().err

    def test_zeros_csv_lacking_a_column_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "zeros.csv"
        path.write_text("index,t,re_rho,im_rho,bracket_lo,bracket_hi\n1,14.1,0.5,14.1,14.1,14.1\n")
        report = tmp_path / "r.json"
        assert main(["verify", "--zeros", str(path), "--out", str(report)]) == EXIT_USAGE
        assert "lacks the columns residual" in capsys.readouterr().err
        assert not report.exists()

    @pytest.mark.parametrize(
        "argv,config",
        [
            (["verify", "--zeros", "{latin1}", "--out", "{dir}/r.json"], False),
            (["eval", "--what", "zeta_n", "--z", "2"], True),
            (["report", "--in", "{latin1}"], False),
        ],
    )
    def test_non_utf8_input_names_the_file(self, argv, config, tmp_path, monkeypatch, capsys):
        latin1 = tmp_path / "latin1.txt"
        latin1.write_bytes(b'{"n0": "caf\xe9"}\n')
        if config:
            monkeypatch.setenv("ZETASCOPE_CONFIG", str(latin1))
        assert main([a.format(latin1=latin1, dir=tmp_path) for a in argv]) == EXIT_USAGE
        assert str(latin1) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["zeros", "--out", "{out}"],
            ["verify", "--zeros", "{csv}", "--out", "{out}"],
        ],
    )
    @pytest.mark.parametrize("out", ["{absent}/out", "{absent}/", "{dir}"])
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
