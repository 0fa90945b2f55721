"""The host's current speed, read off a fixed pure-Python kernel.

The shared host this benchmark was written on switches between speed phases
about 1.6x apart, often within a second, and the share of time it spends in
the slow one drifts over minutes; process CPU time follows wall time.  A
report timed in a slow phase and the same report timed in a fast one differ
by that factor, so single times, and the percentiles of a run, follow the
host rather than the program.

``kernel_seconds`` times ``kernel`` (about 0.8 ms), a fixed mix of the kinds
of work the program does, just before and just after each timed report.
``at_reference`` scales a measured time by ``KERNEL_REF_S`` over the
kernel's time around it: the time the same work would take on a host where
the kernel takes ``KERNEL_REF_S``.  The kernel is part of the benchmark, not
of the program, so a change to the program moves the scaled times as it
moves the raw ones.
"""

from __future__ import annotations

import itertools
import time
from fractions import Fraction

# The kernel's time in the fast phase of the host the baseline was taken on
# (Intel Xeon at 2.1 GHz, CPython 3.11.7): scaled times read as milliseconds
# of that host.
KERNEL_REF_S = 0.0008


def kernel() -> int:
    """About equal shares of the kinds of work the reports do: a small dict
    and integer loop, Fraction sums, frozensets of combinations, sorting and
    formatting, and lookups in a larger dict.  No single kind tracks every
    report's slowdown on a slow host; their mix tracks them all within about
    15% per report."""
    acc = 0
    table: dict = {}
    big = 1
    for i in range(400):
        key = (i & 63, i % 7)
        table[key] = table.get(key, 0) + i
        acc += (table[key] * 31 + i) % 97
        if i % 32 == 0:
            big = big * 1_000_003 + acc
    total = Fraction(0)
    for i in range(1, 40):
        total += Fraction(i, i * i + 1)
    for combo in itertools.combinations(range(10), 3):
        members = frozenset(combo)
        acc += len(members | {1, 2}) + hash(members) % 7
    items = [(i * 7919) % 1009 for i in range(200)]
    acc += len(sorted(items)) + len("".join(f"{x:04d}" for x in items[:60]))
    index = {i: i for i in range(5000)}
    for i in range(0, 5000, 3):
        acc += index[(i * 7) % 5000]
    return acc + big % 1_000_007 + total.denominator % 13


def kernel_seconds(repeats: int = 2) -> float:
    """The kernel's shortest of ``repeats`` back-to-back times, so that an
    interrupt landing in one of them does not read as a slow host."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - start)
    return best


def at_reference(seconds: float, kernel_before: float, kernel_after: float) -> float:
    """``seconds`` measured between two kernel timings, at reference speed."""
    return seconds * KERNEL_REF_S / ((kernel_before + kernel_after) / 2)
