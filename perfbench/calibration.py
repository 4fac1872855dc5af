"""Machine-speed calibration for the timed end-to-end metrics.

The machine this benchmark runs on is shared: the same op can run twice as
slowly for tens of seconds while other tenants load it, which moves every
run-level median by more than any useful bound.  So the worker runs a fixed
calibration round next to the ops it times, and the reported times are in
reference seconds: wall seconds times ``REFERENCE_S`` / (the wall time of a
calibration round run next to them).  Compare reference seconds only with
reference seconds: ``REFERENCE_S`` is a fixed scale.

The round does the kind of work the CLI does (frozen dataclass values with
an accessor method, JSON keys for a dict of a few thousand entries, maxima
of small sums, a sort) in code of its own, so no change to gtcrystal moves
it.
"""

import json
import time
from dataclasses import dataclass

# About the seconds one round takes on a 2-vCPU x86-64 machine with Python
# 3.11; a fixed scale, not a measurement.
REFERENCE_S = 0.02


@dataclass(frozen=True)
class _Triangle:
    n: int
    rows: tuple

    def entry(self, i: int, j: int) -> int:
        if 1 <= j <= i <= self.n:
            return self.rows[self.n - i][j - 1]
        return 0


def _round() -> int:
    triangles = [
        _Triangle(3, ((a + 3, b + 1, c), (b + 1, c), (min(d, c),)))
        for a in range(12)
        for b in range(a + 1)
        for c in range(b + 1)
        for d in range(c + 1)
    ]
    keyed = {}
    for t in triangles:
        key = json.dumps({"n": t.n, "rows": [list(r) for r in t.rows]}, sort_keys=True, separators=(",", ":"))
        keyed[key] = max(t.entry(2, j) - t.entry(1, j) + t.entry(3, j + 1) for j in range(1, 3))
    return len(sorted(keyed.items()))


def calibrate() -> float:
    """Wall seconds of one calibration round, now."""
    start = time.perf_counter()
    _round()
    return time.perf_counter() - start


def scale(seconds: float, calibration_s: float) -> float:
    """Wall seconds measured next to a round of ``calibration_s``, in reference seconds."""
    return seconds * REFERENCE_S / calibration_s
