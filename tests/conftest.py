import time

import pytest

from zetascope.convergence import SweepPlan, verify_claims
from zetascope.zeros import find_zeros

# first ten zero ordinates, high-precision reference values
KNOWN_ZERO_T = (
    14.134725141734694,
    21.022039638771555,
    25.010857580145689,
    30.424876125859513,
    32.93506158773919,
    37.586178158825671,
    40.918719012147495,
    43.327073280915,
    48.00515088116716,
    49.773832477672302,
)

RHO_1 = complex(0.5, KNOWN_ZERO_T[0])


@pytest.fixture(scope="session")
def scanned_zeros():
    """The (10, 50) scan used by most integration checks, with its runtime."""
    start = time.perf_counter()
    records = find_zeros(10.0, 50.0)
    elapsed = time.perf_counter() - start
    return records, elapsed


@pytest.fixture(scope="session")
def claim_report(scanned_zeros):
    records, _ = scanned_zeros
    return verify_claims(records, SweepPlan())
