#!/usr/bin/env python3
"""Measure the empirical decay exponents behind the convergence claims.

For each zero below t = 50 this fits the power-law order of |zeta_hat_n|,
|h_2n|, and the Bernoulli remainder |R_n|, and prints the fitted exponents
next to the nominal ones (-1/2, -3/2, and -(Re z + 1) respectively). The
remainder's measured exponent settles the question of whether it behaves
at its guaranteed order or at the sharper leading-term order.

Usage:
    python scripts/measure_orders.py [--n0 64] [--doublings 10]
"""

import argparse
import os
import sys

from zetascope.convergence import (
    ConvergenceSeries,
    Quantity,
    SweepPlan,
    _series_from_table,
    _sweep_ns,
    fit_power_law,
)
from zetascope.euler_maclaurin import remainder
from zetascope.functional_eq import _tables
from zetascope.zeros import find_zeros


def remainder_series(rho: complex, ns: list[int]):
    pts = tuple((n, remainder(rho, n)) for n in ns)
    return ConvergenceSeries(quantity=Quantity.ZETA_HAT_AT_RHO, rho=rho, points=pts)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--n0", type=int, default=64)
    parser.add_argument("--doublings", type=int, default=10)
    args = parser.parse_args()

    zeros = find_zeros(10, 50)
    plan = SweepPlan(args.n0, args.doublings)

    print(f"{'t':>12}  {'|zeta_hat_n| (-0.5)':>20}  {'|h_2n| (-1.5)':>14}  "
          f"{'|R_n| (-1.5)':>13}")
    for zr in zeros:
        ns = _sweep_ns(zr.rho, plan)
        # one pass to the ns and their doubles holds both series
        table = _tables(Quantity.SMALL_H_2N, zr.rho, ns)
        e_hat, e_h2n = (
            fit_power_law(_series_from_table(q, zr.rho, ns, *table)).exponent
            for q in (Quantity.ZETA_HAT_AT_RHO, Quantity.SMALL_H_2N)
        )
        e_rem = fit_power_law(remainder_series(zr.rho, ns)).exponent
        print(f"{zr.t:12.6f}  {e_hat:20.4f}  {e_h2n:14.4f}  {e_rem:13.4f}")


if __name__ == "__main__":
    try:
        main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader of stdout is gone: exit 1, as zetascope does, and send
        # the flush at exit to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
