"""Tests of the benchmark's own arithmetic and gates.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import statistics

import pytest

import run
import stats
import tracing
import workloads
from tracing import Span


def test_quantile_matches_inclusive_interpolation():
    xs = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0]
    for q in (0.1, 0.25, 0.5, 0.9):
        expected = statistics.quantiles(xs, n=100, method="inclusive")[round(100 * q) - 1]
        assert stats.quantile(xs, q) == pytest.approx(expected)
    assert stats.quantile([7.0], 0.9) == 7.0
    assert stats.quantile(xs, 0.0) == 1.0 and stats.quantile(xs, 1.0) == 10.0


@pytest.mark.parametrize(
    "count,level", [(5, None), (19, None), (20, 0.5), (99, 0.5), (100, 0.9), (1000, 0.99)]
)
def test_tail_level_leaves_ten_samples_beyond(count, level):
    assert stats.tail_level(count) == level


def test_relative_spread_is_iqr_over_median():
    xs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    q1, med, q3 = statistics.quantiles(xs, n=4)
    assert stats.relative_spread(xs) == pytest.approx((q3 - q1) / med)


def _span(name, start, end, parent=-1, info=None, error=None):
    return Span(name, start, end, parent, info, error)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span("a.root", 0, 100),
        _span("b.child", 10, 30, 0),
        _span("b.child", 20, 50, 0),  # overlaps the first child
        _span("c.leaf", 25, 28, 1),
        _span("b.child", 90, 120, 0),  # clipped to the parent's end
    ]
    assert tracing.self_times(spans) == [100 - 40 - 10, 17, 30, 3, 30]


def test_self_times_of_nested_spans_sum_to_the_roots():
    spans = [
        _span("a.r", 0, 50),
        _span("a.x", 5, 20, 0),
        _span("a.y", 6, 9, 1),
        _span("a.z", 30, 45, 0),
        _span("a.r", 60, 70),
    ]
    assert sum(tracing.self_times(spans)) == 50 + 10


def test_useful_term_ratio_counts_the_longest_pass_per_point():
    passes = [[0.5, 14.0, 10], [0.5, 14.0, 20], [0.5, -14.0, 5]]
    assert tracing.useful_term_ratio(passes) == pytest.approx((20 + 5) / 35)
    assert tracing.useful_term_ratio([]) == 0.0


def test_layer_metrics_on_a_synthetic_tree():
    spans = [
        _span("convergence.verify_claims", 0, 1000),
        _span("convergence.sweep", 10, 500, 0),
        _span("series.raw_sums_at", 20, 300, 1, [0.5, 14.0, 1024]),
        _span("series.raw_sums_at", 300, 490, 1, [0.5, -14.0, 128]),
        _span("functional_eq.small_h_2n", 500, 900, 0),
        _span("series.raw_sums_at", 510, 700, 4, [0.5, 14.0, 2048]),
        _span("series.raw_sums_at", 700, 890, 4, [0.5, 14.0, 2048]),
        _span("zeros.find_zeros", 1000, 1500, -1, 3),
        _span("zeros._bisect", 1100, 1200, 7),
        _span("zeros.hardy_z", 1110, 1150, 8),
        _span("zeros.hardy_z", 1300, 1320, 7),
        _span("euler_maclaurin.remainder_with_bound", 1400, 1410, 7, None, "PrecisionNotReachedError"),
        _span("euler_maclaurin.remainder_with_bound", 1410, 1420, 7, 4),
    ]
    m = tracing.layer_metrics(spans, wall_ns=1600, zero_count=2)
    assert m["series.passes"] == 4
    assert m["series.terms"] == 1024 + 128 + 2048 + 2048
    assert m["series.useful_term_ratio"] == pytest.approx((2048 + 128) / 5248)
    assert m["series.short_pass_us"] == pytest.approx(190 / 1e3)
    assert m["convergence.sweep_calls"] == 1
    assert m["convergence.passes_per_zero"] == 2
    assert m["convergence.terms_per_zero"] == 5248 / 2
    assert m["functional_eq.calls"] == 1
    assert m["functional_eq.passes_per_call"] == 2
    assert m["zeros.hardy_z_calls"] == 2
    assert m["zeros.bisect_evals"] == 1
    assert m["zeros.found"] == 3
    assert m["euler_maclaurin.remainder_calls"] == 2
    assert m["euler_maclaurin.remainder_terms"] == 4
    assert m["euler_maclaurin.remainder_retries"] == 1
    assert m["bench.self_s"] == pytest.approx(100 / 1e9)
    total = sum(m[f"{mod}.self_s"] for mod in tracing.MODULES) + m["bench.self_s"]
    assert total == pytest.approx(m["trace.wall_s"])


def test_tracer_sees_calls_through_every_namespace():
    import zetascope
    from zetascope import functional_eq, series

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
        zetascope.h_hat_n(complex(0.5, 3.0), 8)
        sums = series.raw_sums_at(2.0, (n for n in (4, 2)))  # a one-shot iterable
    finally:
        tracer.uninstall()
    assert sorted(sums) == [2, 4]
    assert not hasattr(functional_eq.h_hat_n, "traced_name")
    names = [s.name for s in tracer.spans]
    assert names[0] == "functional_eq.h_hat_n"
    assert names.count("series.raw_sums_at") == 3
    top = [s for s in tracer.spans if s.parent < 0]
    assert [s.name for s in top] == ["functional_eq.h_hat_n", "series.raw_sums_at"]
    assert tracer.spans[-1].info == [2.0, 0.0, 4]


def test_seed_verify_counters_for_one_zero():
    """At seed, one zero's claims take 20 passes over 818,688 terms, of
    which 2^17 + 2^16 are distinct."""
    from zetascope import convergence
    from zetascope.zeros import ZeroRecord

    t = 14.134725141734694
    zero = ZeroRecord(index=1, t=t, rho=complex(0.5, t), bracket=(t, t), residual=0.0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        convergence.verify_claims([zero], convergence.SweepPlan())
    finally:
        tracer.uninstall()
    m = tracing.layer_metrics(tracer.spans, wall_ns=1, zero_count=1)
    assert m["convergence.passes_per_zero"] == 20
    assert m["convergence.terms_per_zero"] == 818_688
    assert m["series.useful_term_ratio"] == pytest.approx(196_608 / 818_688)


def test_t_min_is_seeded_inside_one_scan_step():
    a = workloads.scan_t_min("scan-100", 1)
    assert a == workloads.scan_t_min("scan-100", 1)
    assert a != workloads.scan_t_min("scan-100", 2)
    assert a != workloads.scan_t_min("verify-10", 1)
    for seed in range(50):
        assert 10.0 <= workloads.scan_t_min("verify-10", seed) < 10.0 + workloads.SCAN_STEP


def test_claim_gate_skips_c6_and_compares_values():
    reference = {"1": {"C1": "-1.5", "C2": "1", "C3": "1", "C4": "0.5+0.5i", "C5": "1", "C9": "1"}}
    rows = [
        {"zero_index": 1, "claim": c, "pass": c != "C6", "measured": reference["1"].get(c, "0")}
        for c in ("C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9")
    ]
    assert run.claim_problems(rows, 1, reference) == []
    rows[3] = dict(rows[3], measured="0.5+0.50001i")
    rows[0] = dict(rows[0], **{"pass": False})
    assert run.claim_problems(rows, 1, reference) == [
        "zero 1 C1: failed",
        "zero 1 C4: 0.5+0.50001i vs 0.5+0.5i",
    ]
    assert run.claim_problems(rows[:8], 1, None) == ["zero 1 C1: failed", "zero 1 C9: missing"]


def test_zero_gate():
    assert run.zero_problems([14.134725141734694], [14.1347251417347]) == []
    assert run.zero_problems([14.1347], [14.134725141734694])[0].startswith("zero 1")
    assert run.zero_problems([], [1.0]) == ["found 0 zeros, expected 1"]

