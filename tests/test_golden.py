"""The pipelines' outputs match the golden files under tests/golden/.

A fresh run of scripts/golden.py's steps must give the golden exit codes,
structure, claim ids, pass flags and tolerances exactly. zeros.csv floats
may move by 1e-11; a number printed inside a report string may move by one
unit of its last printed digit, and every other token of the string is
exact. An expected or measured value is printed to 9 significant digits
with trailing zeros dropped, so its last printed digit is the 9th (see
_value_slack). scripts/golden.py --check is the byte-for-byte comparison.
"""

import csv
import importlib.util
import json
import math
import re
from decimal import Decimal
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("golden", ROOT / "scripts" / "golden.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

#: the largest move of a zeros.csv float
CSV_ABS_TOL = 1e-11
#: a signed decimal number as the report prints it (9g, .3e or an int)
_NUMBER = re.compile(r"[-+]?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?")
#: the share of itself by which C7's and C8's measured err/tol may move: err
#: is the difference of two sums of about 1e-4 that cancel to about 1e-12,
#: and a one-ulp change in the terms (numpy's transcendentals round
#: differently on other hardware) moved it by up to 8e-5 of itself
IDENTITY_REL_TOL = Decimal("1e-3")


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    """The exit codes and the directory of one run of every golden step."""
    workdir = tmp_path_factory.mktemp("golden")
    return golden.produce(workdir), workdir


def _rows(path: Path) -> list[list[str]]:
    return list(csv.reader(path.read_text().splitlines()))


def _same_csv(got: Path, want: Path) -> None:
    got_rows, want_rows = _rows(got), _rows(want)
    assert got_rows[0] == want_rows[0]
    assert len(got_rows) == len(want_rows)
    for g, w in zip(got_rows[1:], want_rows[1:]):
        assert g[0] == w[0]  # the index
        for a, b in zip(g[1:], w[1:]):
            assert abs(float(a) - float(b)) <= CSV_ABS_TOL, (g, w)


def _same_string(got: str, want: str, slack: Decimal | None = None) -> None:
    """Equal but for the numbers, each within ``slack`` of the golden one,
    or by default within one unit of its last printed digit."""
    assert _NUMBER.split(got) == _NUMBER.split(want), (got, want)
    for a, b in zip(_NUMBER.findall(got), _NUMBER.findall(want)):
        unit = Decimal(1).scaleb(Decimal(b).as_tuple().exponent) if slack is None else slack
        assert abs(Decimal(a) - Decimal(b)) <= unit, (got, want)


def _value_slack(claim: str, value: str) -> Decimal:
    """The allowance of an expected or measured value: one unit of the 9th
    significant digit of its largest part, so a complex value's small part
    is held to its large part's; for C7's and C8's ratio at least
    IDENTITY_REL_TOL of itself."""
    largest = max((abs(Decimal(x)) for x in _NUMBER.findall(value)), default=Decimal(0))
    slack = Decimal(1).scaleb(largest.adjusted() - 8) if largest else Decimal(0)
    if claim in ("C7", "C8"):
        slack = max(slack, IDENTITY_REL_TOL * largest)
    return slack


def _same_report(got: dict, want: dict) -> None:
    assert (got["schema"], got["run"]) == (want["schema"], want["run"])
    assert len(got["results"]) == len(want["results"])
    for g, w in zip(got["results"], want["results"]):
        assert list(g) == list(w)
        assert (g["zero_index"], g["claim"], g["pass"]) == (w["zero_index"], w["claim"], w["pass"])
        tol = g["tolerance"], w["tolerance"]
        assert tol[0] == tol[1] or all(map(math.isnan, tol)), (g, w)
        for key in ("expected", "measured"):
            _same_string(g[key], w[key], _value_slack(w["claim"], w[key]))
        _same_string(g["detail"], w["detail"])


def test_exit_codes(fresh):
    codes, _ = fresh
    assert codes == [code for _, code in golden.RUNS] == [0, 0, 0, 3]


@pytest.mark.parametrize("name", [n for n in golden.FILES if n.endswith(".csv")])
def test_zeros_csv(fresh, name):
    _same_csv(fresh[1] / name, golden.GOLDEN / name)


@pytest.mark.parametrize("name", [n for n in golden.FILES if n.endswith(".json")])
def test_report(fresh, name):
    got = json.loads((fresh[1] / name).read_text())
    _same_report(got, json.loads((golden.GOLDEN / name).read_text()))


def test_golden_holds_what_it_documents():
    # 10 zeros below t = 50, all 90 claims passing; 29 below t = 100, where
    # the default sweep fails 28 rows
    for name, zeros, failed in (("report_50.json", 10, 0), ("report_100.json", 29, 28)):
        report = json.loads((golden.GOLDEN / name).read_text())
        assert report["run"]["zero_count"] == zeros
        assert len(report["results"]) == 9 * zeros
        assert sum(not r["pass"] for r in report["results"]) == failed


def test_string_tolerance_is_one_printed_unit():
    _same_string("dev 1.477e-03 at n=512", "dev 1.478e-03 at n=512")
    for got in ("dev 1.476e-03 at n=512", "dev 1.477e-03 at n=1024", "dev 1.477e-03 at m=512"):
        with pytest.raises(AssertionError):
            _same_string(got, "dev 1.478e-03 at n=512")


@pytest.mark.parametrize(
    "claim,want,near,far",
    [
        # a complex value's parts move by at most 1e-9, its large part's unit
        ("C3", "0.999999997-7.18930302e-05i", "0.999999998-7.18940302e-05i",
         "0.999999997-7.18990302e-05i"),
        # a real value by one unit of its 9th digit, printed or not
        ("C9", "1", "0.99999999", "1.00000002"),
        ("C1", "-1.49982511", "-1.49982512", "-1.49982514"),
        ("C1", "-1.5", "-1.5", "-1.50000002"),
        # an identity ratio by 1e-3 of itself
        ("C7", "0.0900883549", "0.0900921846", "0.0902"),
    ],
)
def test_value_slack(claim, want, near, far):
    _same_string(near, want, _value_slack(claim, want))
    with pytest.raises(AssertionError):
        _same_string(far, want, _value_slack(claim, want))
