"""Paired CPU-overhead gate shared by ``telemetry_ci.py`` and
``observability_ci.py``.

Each round runs the instrumentation-off and -on workloads back to back,
in alternating ABBA order (off/on, on/off, off/on, ...), and yields one
on/off CPU-time ratio; the gate reads the median of those ratios.  A
pair shares whatever drift the host is in (cache warmth, clock speed, a
neighbour's load) and the alternation charges the second slot to both
sides equally often, so one outlier run moves the median by at most one
rank — unlike a min-of-N comparison, whose two minima come from
different moments and read -2.98% and then +18.68% on unchanged code.

Each sample repeats its workload until it has run for at least
``MIN_SAMPLE_S`` of CPU time (the repeat count comes from a warm-up run
and is the same for both sides), since single ~50 ms runs on a shared
host spread by +-30% per pair.
"""

import math
import statistics
import sys
import time
from typing import Callable

#: CPU seconds one sample runs for, at least.
MIN_SAMPLE_S = 0.5


def _cpu_seconds(run: Callable[[], object], repeats: int = 1) -> float:
    """Mean CPU seconds of one ``run()`` over ``repeats`` calls."""
    start = time.process_time()
    for _ in range(repeats):
        run()
    return (time.process_time() - start) / repeats


def check_overhead(label: str, run_off: Callable[[], object],
                   run_on: Callable[[], object], budget: float,
                   pairs: int, grace_s: float) -> int:
    """Gate ``run_on``'s CPU cost against ``run_off``'s: 0 if the median
    per-pair overhead is within ``budget``, or if the median per-pair
    delta is at most ``grace_s`` (below measurement noise); else 1."""
    warm = _cpu_seconds(run_off)
    repeats = max(1, math.ceil(MIN_SAMPLE_S / max(warm, 1e-6)))
    ratios, deltas, offs, ons = [], [], [], []
    for index in range(pairs):
        if index % 2 == 0:
            off = _cpu_seconds(run_off, repeats)
            on = _cpu_seconds(run_on, repeats)
        else:
            on = _cpu_seconds(run_on, repeats)
            off = _cpu_seconds(run_off, repeats)
        ratios.append(on / off)
        deltas.append(on - off)
        offs.append(off)
        ons.append(on)
    overhead = statistics.median(ratios) - 1.0
    print(f"{label} cpu: off={statistics.median(offs) * 1e3:.2f} ms  "
          f"on={statistics.median(ons) * 1e3:.2f} ms  "
          f"overhead={overhead * 100:+.2f}% (budget {budget * 100:.0f}%, "
          f"median of {pairs} ABBA pairs x {repeats} runs)")
    if statistics.median(deltas) <= grace_s:
        return 0  # below measurement noise, regardless of ratio
    if overhead > budget:
        print(f"FAIL: {label} overhead {overhead * 100:.2f}% exceeds "
              f"{budget * 100:.0f}% budget", file=sys.stderr)
        return 1
    return 0
