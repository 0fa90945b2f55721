"""Brute-force ground truth from one exhaustive truth table.

Evaluators are callables from an assignment bitmask (bit i = vote of voter i)
to a truth value.  `truth_table` is the only exhaustive enumeration: it packs
the function into one integer whose bit b is the value on assignment b, and
every answer here is read from that integer with shifts, masks and
`int.bit_count`.  None of it reuses the algebraic weight or derivative
machinery.
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


def oracle_tbp(evaluate: Evaluator, n: int, cap: int = DEFAULT_ORACLE_CAP) -> list[int]:
    """Every voter's swing count: the assignments with voter m voting no on
    which turning that vote to yes changes the value, i.e. the weight of the
    Boolean difference with respect to voter m."""
    table = truth_table(evaluate, n, cap)
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
