"""The calibration loop of the performance ledger.

``bench/harness.py`` times this fixed, allocation-free loop before and
after every workload to flag runs whose host speed drifted.  The ledger
under ``bench/`` (``python3 bench/run.py``) is the one benchmark and the
pinned-output tests under ``tests/`` are the determinism gate.  The
function stays here, unchanged, only because ``bench/`` imports it from
this module; it moves into ``bench/`` with the next change to the ledger.
"""

from __future__ import annotations

import time

#: Iterations of the calibration loop (a fixed, allocation-free workload).
_CALIBRATION_LOOPS = 10_000_000


def calibrate() -> float:
    """Time the fixed calibration workload once."""
    start = time.perf_counter()
    total = 0
    for index in range(_CALIBRATION_LOOPS):
        total += index & 7
    return time.perf_counter() - start
