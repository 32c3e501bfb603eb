"""Spans around zetascope's public functions, recorded from outside the package.

``Tracer.install`` wraps every public function of the seven modules (plus
the private boundaries in ``PRIVATE``) in every ``zetascope`` namespace that
binds it: the modules import each other's functions by name, so patching
only the defining module would miss most calls. Spans are kept in memory as
(name, start_ns, end_ns, parent, info, error) and written once at the end.

The analysis half (``self_times``, ``layer_metrics``) is pure and takes the
span list, so it can be tested without the package.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import types
from collections import defaultdict
from typing import NamedTuple

MODULES = (
    "series",
    "euler_maclaurin",
    "special",
    "functional_eq",
    "zeros",
    "convergence",
    "cli",
)

#: private functions traced because a layer counter needs their boundary
PRIVATE = ("zeros._bisect", "convergence._claims_for_zero")

#: entry points the layer metrics read; a missing one is reported absent
REQUIRED = (
    "series.raw_sums_at",
    "convergence.sweep",
    "convergence.verify_claims",
    "zeros.hardy_z",
    "zeros._bisect",
    "zeros.find_zeros",
    "euler_maclaurin.zeta_hat_reference",
    "euler_maclaurin.remainder_with_bound",
    "special.log_gamma",
    "special.complex_pow_base_real",
    "cli.read_zeros_csv",
    "cli.write_zeros_csv",
)

#: passes of at most this many terms count as short (scan-100's regime)
SHORT_PASS_TERMS = 256


class Span(NamedTuple):
    name: str
    start: int
    end: int
    parent: int
    info: object
    error: str | None


def _raw_sums_before(args, kwargs):
    # materialize the checkpoints so a generator is not consumed twice
    args = list(args)
    if len(args) > 1:
        args[1] = cps = tuple(args[1])
    else:
        kwargs["checkpoints"] = cps = tuple(kwargs["checkpoints"])
    z = complex(args[0] if args else kwargs["z"])
    return tuple(args), kwargs, [z.real, z.imag, max(cps, default=0)]


#: name -> (before(args, kwargs) -> (args, kwargs, info), after(result, info) -> info)
HOOKS = {
    "series.raw_sums_at": (_raw_sums_before, None),
    "euler_maclaurin.remainder_with_bound": (None, lambda r, _: r.terms_used),
    "zeros.find_zeros": (None, lambda r, _: len(r)),
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        package = importlib.import_module("zetascope")
        modules = {m: importlib.import_module(f"zetascope.{m}") for m in MODULES}
        wrappers = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                if (
                    isinstance(obj, types.FunctionType)
                    and obj.__module__ == mod.__name__
                    and (not attr.startswith("_") or name in PRIVATE)
                ):
                    wrappers[obj] = self._wrap(obj, name)
        for ns in (package, *modules.values()):
            for attr, obj in list(vars(ns).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._saved.append((ns, attr, obj))
                    setattr(ns, attr, wrappers[obj])
        traced = {w.traced_name for w in wrappers.values()}
        self.absent = [name for name in REQUIRED if name not in traced]

    def uninstall(self) -> None:
        for ns, attr, obj in reversed(self._saved):
            setattr(ns, attr, obj)
        self._saved.clear()

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack
        before, after = HOOKS.get(name, (None, None))
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            info = None
            if before is not None:
                args, kwargs, info = before(args, kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = Span(name, start, end, parent, info, error)
            if after is not None:
                spans[idx] = spans[idx]._replace(info=after(result, info))
            return result

        traced.traced_name = name
        return traced

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"absent": self.absent, "spans": self.spans}, fh)


def load_spans(path) -> tuple[list[Span], list[str]]:
    with open(path) as fh:
        data = json.load(fh)
    return [Span(*s) for s in data["spans"]], data["absent"]


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0
        cur_lo = cur_hi = None
        for lo, hi in sorted((spans[c].start, spans[c].end) for c in children[i]):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(s.end - s.start - covered)
    return out


def useful_term_ratio(passes: list[list]) -> float:
    """Distinct (z, k) terms over terms summed, from [Re z, Im z, n] passes.

    A pass to n at z sums the terms k = 1..n, so the distinct terms at one
    z are the largest n of any pass there.
    """
    summed = sum(p[2] for p in passes)
    reach: dict[tuple[float, float], int] = {}
    for re, im, n in passes:
        reach[(re, im)] = max(reach.get((re, im), 0), n)
    return sum(reach.values()) / summed if summed else 0.0


def _mean(xs) -> float:
    return sum(xs) / len(xs) if xs else 0.0


def layer_metrics(spans: list[Span], wall_ns: int, zero_count: int) -> dict[str, float]:
    """Per-layer counts and times from one traced run of one workload.

    ``wall_ns`` is the traced workload's wall time; whatever no root span
    covers is the benchmark's own time. ``zero_count`` is the number of
    zeros verified, the base of the per-zero ratios.
    """
    selfs = self_times(spans)
    by_name = defaultdict(list)
    module_self = dict.fromkeys(MODULES, 0)
    for i, s in enumerate(spans):
        by_name[s.name].append(i)
        module_self[s.name.split(".", 1)[0]] += selfs[i]

    def dur(i: int) -> int:
        return spans[i].end - spans[i].start

    def has_ancestor(i: int, pred) -> bool:
        p = spans[i].parent
        while p >= 0:
            if pred(spans[p].name):
                return True
            p = spans[p].parent
        return False

    def top_ancestor(i: int, prefix: str) -> int:
        found, p = -1, spans[i].parent
        while p >= 0:
            if spans[p].name.startswith(prefix):
                found = p
            p = spans[p].parent
        return found

    passes = by_name["series.raw_sums_at"]
    terms = sum(spans[i].info[2] for i in passes)
    short = [dur(i) for i in passes if spans[i].info[2] <= SHORT_PASS_TERMS]
    verify_passes = [
        i for i in passes if has_ancestor(i, lambda n: n == "convergence.verify_claims")
    ]
    fe_top = [
        i
        for i, s in enumerate(spans)
        if s.name.startswith("functional_eq.") and top_ancestor(i, "functional_eq.") < 0
    ]
    fe_passes = [i for i in passes if top_ancestor(i, "functional_eq.") >= 0]
    hardy = by_name["zeros.hardy_z"]
    bisects = set(by_name["zeros._bisect"])
    remainders = by_name["euler_maclaurin.remainder_with_bound"]
    references = by_name["euler_maclaurin.zeta_hat_reference"]
    log_gammas = by_name["special.log_gamma"]
    cli_io = by_name["cli.read_zeros_csv"] + by_name["cli.write_zeros_csv"]
    roots_ns = sum(dur(i) for i, s in enumerate(spans) if s.parent < 0)
    per_zero = zero_count or 1

    m = {f"{mod}.self_s": module_self[mod] / 1e9 for mod in MODULES}
    m.update(
        {
            "series.passes": len(passes),
            "series.terms": terms,
            "series.ns_per_term": sum(dur(i) for i in passes) / terms if terms else 0.0,
            "series.useful_term_ratio": useful_term_ratio([spans[i].info for i in passes]),
            "series.short_pass_us": _mean(short) / 1e3,
            "convergence.sweep_calls": len(by_name["convergence.sweep"]),
            "convergence.passes_per_zero": len(verify_passes) / per_zero,
            "convergence.terms_per_zero": sum(spans[i].info[2] for i in verify_passes) / per_zero,
            "convergence.ms_per_zero": sum(dur(i) for i in by_name["convergence.verify_claims"])
            / per_zero
            / 1e6,
            "zeros.hardy_z_calls": len(hardy),
            "zeros.hardy_z_us": _mean([dur(i) for i in hardy]) / 1e3,
            "zeros.bisect_evals": sum(1 for i in hardy if spans[i].parent in bisects),
            "zeros.found": sum(spans[i].info for i in by_name["zeros.find_zeros"] if spans[i].info),
            "euler_maclaurin.reference_calls": len(references),
            "euler_maclaurin.reference_us": _mean([dur(i) for i in references]) / 1e3,
            "euler_maclaurin.remainder_calls": len(remainders),
            "euler_maclaurin.remainder_terms": sum(spans[i].info or 0 for i in remainders),
            "euler_maclaurin.remainder_retries": sum(
                1 for i in remainders if spans[i].error == "PrecisionNotReachedError"
            ),
            "special.log_gamma_calls": len(log_gammas),
            "special.log_gamma_us": _mean([dur(i) for i in log_gammas]) / 1e3,
            "special.pow_calls": len(by_name["special.complex_pow_base_real"]),
            "functional_eq.calls": len(fe_top),
            "functional_eq.passes_per_call": len(fe_passes) / len(fe_top) if fe_top else 0.0,
            "cli.io_s": sum(dur(i) for i in cli_io) / 1e9,
            "trace.wall_s": wall_ns / 1e9,
            "bench.self_s": (wall_ns - roots_ns) / 1e9,
        }
    )
    return m
