import json
import math
import time

import pytest

from zetascope.cli import (
    EXIT_CLAIMS_FAILED,
    EXIT_MODULE_ERROR,
    EXIT_OK,
    EXIT_USAGE,
    REPORT_SCHEMA,
    format_value,
    load_config,
    main,
    parse_complex,
    read_zeros_csv,
)
from zetascope.errors import ZetascopeError


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
        path.write_text(json.dumps({"em.depth": 6, "n0": 128, "step": 0.1}))
        cfg = load_config(env={"ZETASCOPE_CONFIG": str(path)})
        assert cfg.em.depth == 6
        assert cfg.n0 == 128
        assert cfg.step == 0.1
        assert cfg.doublings == 10  # untouched keys keep defaults

    def test_invalid_file_exits_usage(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        monkeypatch.setenv("ZETASCOPE_CONFIG", str(path))
        code = main(["eval", "--what", "zeta_n", "--z", "2"])
        assert code == EXIT_USAGE
        assert "config error" in capsys.readouterr().err


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

    def test_re_im_flags(self, capsys):
        code = main(["eval", "--what", "H_hat", "--re", "0.5", "--im", "0"])
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
        ["zeros", "--t-min", "14.0", "--t-max", "14.3", "--step", "0.05",
         "--out", str(path)]
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

    def test_deterministic_bytes(self, first_zero_csv, tmp_path, capsys):
        again = tmp_path / "again.csv"
        main(["zeros", "--t-min", "14.0", "--t-max", "14.3", "--step", "0.05",
              "--out", str(again)])
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
            ["--step", "0"],
            ["--step", "nan"],
        ],
    )
    def test_bad_scan_range_is_usage_error(self, flags, tmp_path, capsys):
        out = tmp_path / "zeros.csv"
        assert main(["zeros", *flags, "--out", str(out)]) == EXIT_USAGE
        assert flags[-1] in capsys.readouterr().err
        assert not out.exists()

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
