"""Calibration kernels: fixed pure-Python work timed around every op.

The benchmark machine is shared.  For seconds to minutes at a time it runs
Python up to 2x slower, and different kinds of work slow by different
amounts.  Each workload is therefore calibrated with a kernel that does the
same kind of work as its hot layer, and an op's normalized latency is its
wall time scaled by the kernel's reference time over the kernel time
measured around the op.  Each kernel takes 1-2 ms on the 2-vCPU machine
the benchmark was written on.  The kernels never call survscore, so a change to
the program cannot move them.
"""

import csv
import io
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from statistics import median

REPEATS = 15
REFERENCE_S = 0.002  # the scale of normalized latency
_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class _Subject:
    time: float
    arm: int
    event: int


_SUBJECTS = tuple(
    _Subject((i * 7919 % 1000) / 37.0 + 0.1, i % 2, (i // 3) % 2 or i % 5 == 0) for i in range(150)
)
_BIG = [(i * 0x9E3779B97F4A7C15) << 8 for i in range(300)]  # exact-integer images are wide
_WIDE = [(i * 0x9E3779B97F4A7C15) << 20 for i in range(13)]  # exact integer images are wide


def refits() -> float:
    """Leave-one-out copies of small frozen records, sorted and bisected (grid-n300)."""
    total = 0.0
    for k in range(0, len(_SUBJECTS), 6):
        subset = _SUBJECTS[:k] + _SUBJECTS[k + 1:]
        times = sorted({s.time for s in subset if s.event})
        ordered = sorted(s.time for s in subset)
        surv = 1.0
        for t in times:
            at_risk = len(ordered) - bisect_left(ordered, t)
            surv *= 1.0 - 1.0 / at_risk
        total += surv
    return total


def tables() -> int:
    """Tuples rebuilt from record attributes and bisected per row, then CSV rows
    formatted to 6 digits (scores-n3000)."""
    out = io.StringIO()
    writer = csv.writer(out)
    for s in _SUBJECTS:
        times = tuple(r.time for r in _SUBJECTS)
        j = bisect_right(times, s.time)
        writer.writerow([f"{s.time:.6g}", s.arm, s.event, f"{j / len(times):.6g}"])
    return len(out.getvalue())


def subset_sums() -> int:
    """A colex walk over the 6-subsets of 13 wide integers, keeping a running
    sum and counting sums below a bound (exact-n22)."""
    n, k = 13, 6
    combo = list(range(k))
    s, bound, count = sum(_WIDE[:k]), sum(_WIDE) // 2, 0
    while True:
        if s <= bound:
            count += 1
        j = 0
        while j < k and combo[j] + 1 == (combo[j + 1] if j + 1 < k else n):
            j += 1
        if j == k:
            return count
        s += _WIDE[combo[j] + 1] - _WIDE[combo[j]]
        for i in range(j):
            s += _WIDE[i] - _WIDE[combo[i]]
            combo[i] = i
        combo[j] += 1


def draws() -> int:
    """Per draw: a fresh index list, 64-bit splitmix mixing, partial Fisher-Yates
    swaps and a sum of big integers over the chosen half (mc-n300)."""
    total = 0
    for r in range(10):
        idx = list(range(300))
        z = (r * 0x9E3779B97F4A7C15) & _MASK
        for i in range(150):
            z = (z + 0x9E3779B97F4A7C15) & _MASK
            w = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
            w = ((w ^ (w >> 27)) * 0x94D049BB133111EB) & _MASK
            j = i + (w ^ (w >> 31)) % (300 - i)
            idx[i], idx[j] = idx[j], idx[i]
        total += sum(_BIG[i] for i in idx[:150])
    return total


def measure(kernel) -> float:
    """Median seconds of REPEATS runs of ``kernel``: the machine's speed right now."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return median(times)
