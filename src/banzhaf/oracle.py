"""Brute-force ground truth from one exhaustive truth table.

A truth table packs a function of n votes into one 2^n-bit integer whose bit
b is the value on assignment b (bit i of b = vote of voter i), and every
answer here is read from that integer with shifts, masks and `int.bit_count`.
`truth_table` fills it by calling an evaluator, a callable from an assignment
bitmask to a truth value, once per assignment; `threshold_table` fills it for
a weighted threshold function from the subset sums of its weights, with no
call per assignment.  None of it reuses the algebraic weight, derivative or
swing-counting machinery.
"""

from __future__ import annotations

from typing import Callable

from .errors import ResourceLimitError

DEFAULT_ORACLE_CAP = 24

Evaluator = Callable[[int], bool]


def truth_table(evaluate: Evaluator, n: int, cap: int = DEFAULT_ORACLE_CAP) -> int:
    """The function as a 2^n-bit integer: bit b is evaluate(b)."""
    if n > cap:
        raise ResourceLimitError(f"{n} voters exceeds oracle cap {cap}")
    # binary digits, most significant (assignment 2^n - 1) first
    return int(bytes(49 if evaluate(b) else 48 for b in reversed(range(1 << n))), 2)


def _subset_sums(weights) -> list[int]:
    """Sum of the weights in each subset, indexed by the subset's bitmask."""
    sums = [0]
    for w in weights:
        sums += [s + w for s in sums]
    return sums


def threshold_table(weights, quota: int) -> int:
    """Truth table of [quota; weights]: bit b is set when the weights of b's
    yes-voters sum to at least the quota.

    An assignment splits into its low voters (bits below `low`) and its high
    voters; the table is one row of 2^low bits per high assignment, in which
    the low assignments whose sum reaches the quota less the high sum are
    set.  Listing the low assignments by falling sum, each row is a prefix
    of that list, so the rows are built by adding bits as the threshold
    falls, once per distinct threshold, and packed 8 bits to the byte.
    """
    n = len(weights)
    # at least 3 low voters when there are high ones, so rows are whole bytes
    low = max(min(n, 3), n // 2)
    lo, hi = _subset_sums(weights[:low]), _subset_sums(weights[low:])
    falling = sorted(range(len(lo)), key=lo.__getitem__, reverse=True)
    size = max(len(lo) >> 3, 1)
    rows, row, count = {}, 0, 0
    for threshold in sorted({quota - s for s in hi}, reverse=True):
        while count < len(falling) and lo[falling[count]] >= threshold:
            row |= 1 << falling[count]
            count += 1
        rows[threshold] = row.to_bytes(size, "big")
    # most significant row (high assignment 2^(n - low) - 1) first
    return int.from_bytes(b"".join(rows[quota - s] for s in reversed(hi)), "big")


def no_mask(n: int, m: int) -> int:
    """Truth-table positions where voter m votes no: runs of 2^m set bits
    alternating with 2^m clear bits, over 2^n positions."""
    width = 2 << m
    mask = (1 << (width >> 1)) - 1
    while width < 1 << n:
        mask |= mask << width
        width <<= 1
    return mask


def oracle_weight(evaluate: Evaluator, n: int, cap: int = DEFAULT_ORACLE_CAP) -> int:
    """Count of assignments on which the function is true."""
    return truth_table(evaluate, n, cap).bit_count()


def oracle_tbp(table: int, n: int) -> list[int]:
    """Every voter's swing count in a truth table of n votes: the assignments
    with voter m voting no on which turning that vote to yes changes the
    value, i.e. the weight of the Boolean difference with respect to voter m."""
    return [(((table >> (1 << m)) ^ table) & no_mask(n, m)).bit_count() for m in range(n)]


def oracle_monotone(
    evaluate: Evaluator, n: int, cap: int = DEFAULT_ORACLE_CAP
) -> tuple[bool, tuple[int, int] | None]:
    """Check the function never drops when one vote turns high.

    Returns (verdict, witness); the witness is the smallest pair (low
    assignment, high assignment), differing in one vote, with f(low) = 1 and
    f(high) = 0.
    """
    table = truth_table(evaluate, n, cap)
    drops = []
    for m in range(n):
        lows = table & no_mask(n, m) & ~(table >> (1 << m))
        if lows:
            low = (lows & -lows).bit_length() - 1
            drops.append((low, low | 1 << m))
    return (False, min(drops)) if drops else (True, None)


def oracle_causal(evaluate: Evaluator, n: int) -> bool:
    """All-no rejects and all-yes passes."""
    return (not evaluate(0)) and evaluate((1 << n) - 1)
