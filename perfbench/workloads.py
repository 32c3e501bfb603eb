"""Seeded inputs for the two workloads. Standard library only.

The same (workload, seed) pair always gives the same inputs; the program
under test only ever sees the generated values, never the seed.
"""

from __future__ import annotations

import random

#: the CLI's default scan step; seeded t_min offsets stay inside one step
SCAN_STEP = 0.05
T_MIN = 10.0

#: workload -> (t_max, zeros in (T_MIN, t_max), whether verify follows the scan)
PIPELINES = {
    "verify-10": (50.0, 10, True),
    "scan-100": (100.0, 29, False),
}


def scan_t_min(workload: str, seed: int) -> float:
    """t_min = 10 plus a seeded offset inside one scan step."""
    return T_MIN + SCAN_STEP * random.Random(f"{workload}:{seed}").random()
