"""Helpers shared by run.py and the session processes it starts.

The calibration slice is a fixed piece of pure-Python int and dict work that
never touches hallalg. Timing it next to each measured call tells how fast
the interpreter runs at that moment, so a call's seconds can be scaled to a
nominal machine speed:

    calibrated = raw * (nominal / mean(slice before, slice after)) ** elasticity

The tight slice loop reacts more strongly to a slow machine phase than
hallalg's calls do; the elasticity (0 < e <= 1) is the measured ratio of the
two reactions, and e = 1 is plain proportional scaling.
"""

import statistics
import time

SLICE_LOOPS = 12000
SLICE_REPEATS = 5


def _slice_body(n: int) -> int:
    d = {}
    x = 12345
    for i in range(n):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        k = x & 1023
        d[k] = d.get(k, 0) + i
    return len(d)


def calib_slice() -> float:
    """Seconds for one calibration slice: the median of a few short repeats,
    so one preempted repeat does not move it."""
    times = []
    for _ in range(SLICE_REPEATS):
        t0 = time.perf_counter()
        _slice_body(SLICE_LOOPS)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Calibration:
    def __init__(self, nominal_s: float, elasticity: float):
        self.nominal_s = nominal_s
        self.elasticity = elasticity

    def __call__(self, raw_s: float, before_s: float, after_s: float) -> float:
        return raw_s * (self.nominal_s / ((before_s + after_s) / 2.0)) ** self.elasticity

    def of(self, rec, key="raw_s") -> float:
        """Calibrated seconds of a record holding key, slice_before, slice_after."""
        return self(rec[key], rec["slice_before"], rec["slice_after"])


def median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def iqr(values):
    values = list(values)
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def percentile(values, pct: float):
    """Nearest-rank percentile; 0 for no values."""
    values = sorted(values)
    if not values:
        return 0.0
    rank = max(1, -(-len(values) * pct // 100))
    return values[int(rank) - 1]
