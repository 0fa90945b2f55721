"""Independent reference answers for the benchmark's reports.

Nothing here imports the program under test.  Chambers are given as plain
dicts in the program's spec format (``{"type": "weighted", "voters": [...],
"weights": [...], "quota": q}`` or ``{"type": "k_of_n", "voters": [...],
"k": k}``).  Chambers of a system are conjuncts over disjoint voter blocks,
so every index is composed per chamber:

- TBP of voter v in chamber i = (local swing count of v) x prod over j != i
  of (number of winning local assignments of chamber j);
- PGI of v = (local minimal winning coalitions containing v) x prod over
  j != i of (number of minimal winning coalitions of chamber j);
- CPGI of v = local maximal losing coalitions that leave v out, because the
  maximal-losing form of a conjunction is the union of the chambers' forms.

Swing and winning counts use ``math.comb`` for k-of-n chambers and a plain
subset-sum count for weighted chambers.  PGI and CPGI come from brute-force
enumeration of each chamber's coalitions.
"""

from __future__ import annotations

import math
from array import array

# Coefficients are packed into one big integer, 32 bits apiece, so counts of
# up to 31 voters fit without carries between neighbouring coefficients.
_COEF_BITS = 32
MAX_SUBSET_SUM_VOTERS = 31
MAX_BRUTE_FORCE_VOTERS = 20


def subset_sum_counts(weights: list[int]) -> list[int]:
    """counts[s] = number of subsets of ``weights`` whose sum is s.

    The generating function prod(1 + x^w) is multiplied out on a big
    integer whose 32-bit digits are the coefficients.
    """
    if len(weights) > MAX_SUBSET_SUM_VOTERS:
        raise ValueError(f"{len(weights)} voters exceed {MAX_SUBSET_SUM_VOTERS}")
    poly = 1
    for w in weights:
        poly += poly << (_COEF_BITS * w)
    coefs = array("I")
    if coefs.itemsize * 8 != _COEF_BITS:  # pragma: no cover - exotic platforms
        raise RuntimeError("array('I') is not 32 bits wide here")
    coefs.frombytes(poly.to_bytes((sum(weights) + 1) * _COEF_BITS // 8, "little"))
    return coefs.tolist()


def chamber_weight(ch: dict) -> int:
    """Number of winning local assignments."""
    n = len(ch["voters"])
    if ch["type"] == "k_of_n":
        return sum(math.comb(n, j) for j in range(max(ch["k"], 0), n + 1))
    return sum(subset_sum_counts(ch["weights"])[ch["quota"] :])


def chamber_swings(ch: dict) -> list[int]:
    """Local swing count of every voter of the chamber."""
    n = len(ch["voters"])
    if ch["type"] == "k_of_n":
        k = ch["k"]
        return [math.comb(n - 1, k - 1) if k >= 1 else 0] * n
    weights, quota = ch["weights"], ch["quota"]
    by_weight: dict[int, int] = {}
    out = []
    for m, w in enumerate(weights):
        if w not in by_weight:
            counts = subset_sum_counts(weights[:m] + weights[m + 1 :])
            by_weight[w] = sum(counts[max(quota - w, 0) : quota])
        out.append(by_weight[w])
    return out


def _wins(ch: dict):
    if ch["type"] == "k_of_n":
        k = ch["k"]
        return lambda bits: bits.bit_count() >= k
    weights, quota = ch["weights"], ch["quota"]

    def wins(bits: int) -> bool:
        return sum(w for i, w in enumerate(weights) if bits >> i & 1) >= quota

    return wins


def chamber_coalitions(ch: dict) -> tuple[list[int], list[int]]:
    """Brute force: (minimal winning, maximal losing) coalitions as bitmasks."""
    n = len(ch["voters"])
    if n > MAX_BRUTE_FORCE_VOTERS:
        raise ValueError(f"{n} voters exceed brute-force limit {MAX_BRUTE_FORCE_VOTERS}")
    wins = _wins(ch)
    table = [wins(bits) for bits in range(1 << n)]
    mwc, mlc = [], []
    for bits in range(1 << n):
        if table[bits]:
            if all(not table[bits & ~(1 << v)] for v in range(n) if bits >> v & 1):
                mwc.append(bits)
        elif all(table[bits | 1 << v] for v in range(n) if not bits >> v & 1):
            mlc.append(bits)
    return mwc, mlc


def mwc_count(ch: dict) -> int:
    """Number of minimal winning coalitions of one chamber, without enumeration.

    A coalition of a weighted chamber is minimal winning iff it wins and
    loses without its lightest member.  Taking voters heaviest first, the
    coalitions whose last member is voter i are i plus a subset T of the
    voters before it with quota - w_i <= w(T) < quota.
    """
    n = len(ch["voters"])
    if ch["type"] == "k_of_n":
        return math.comb(n, max(ch["k"], 0))
    weights = sorted(ch["weights"], reverse=True)
    quota = ch["quota"]
    total = 0
    for i, w in enumerate(weights):
        counts = subset_sum_counts(weights[:i])
        total += sum(counts[max(quota - w, 0) : quota])
    return total


def system_tbp(chambers: list[dict]) -> list[int]:
    weights = [chamber_weight(ch) for ch in chambers]
    out = []
    for i, ch in enumerate(chambers):
        others = math.prod(w for j, w in enumerate(weights) if j != i)
        out.extend(s * others for s in chamber_swings(ch))
    return out


def system_pgi_cpgi(chambers: list[dict]) -> tuple[list[int], list[int]]:
    per = [chamber_coalitions(ch) for ch in chambers]
    pgi, cpgi = [], []
    for i, ch in enumerate(chambers):
        mwc, mlc = per[i]
        others = math.prod(len(p[0]) for j, p in enumerate(per) if j != i)
        for v in range(len(ch["voters"])):
            bit = 1 << v
            pgi.append(sum(1 for c in mwc if c & bit) * others)
            cpgi.append(sum(1 for c in mlc if not c & bit))
    return pgi, cpgi


def system_evaluator(chambers: list[dict]):
    """Whole-system decision on a global assignment bitmask (for self-checks)."""
    blocks = []
    offset = 0
    for ch in chambers:
        n = len(ch["voters"])
        blocks.append((offset, (1 << n) - 1, _wins(ch)))
        offset += n
    return lambda bits: all(w(bits >> off & mask) for off, mask, w in blocks)


def system_pgi_cpgi_enumerated(chambers: list[dict]) -> tuple[list[int], list[int]]:
    """PGI/CPGI by enumerating the whole system's coalitions, with no
    per-chamber composition (small systems only; checks the identity above)."""
    n = sum(len(ch["voters"]) for ch in chambers)
    if n > MAX_BRUTE_FORCE_VOTERS:
        raise ValueError(f"{n} voters exceed brute-force limit {MAX_BRUTE_FORCE_VOTERS}")
    wins = system_evaluator(chambers)
    table = [wins(bits) for bits in range(1 << n)]
    pgi, cpgi = [0] * n, [0] * n
    for bits in range(1 << n):
        members = [v for v in range(n) if bits >> v & 1]
        absent = [v for v in range(n) if not bits >> v & 1]
        if table[bits] and not any(table[bits & ~(1 << v)] for v in members):
            for v in members:
                pgi[v] += 1
        if not table[bits] and all(table[bits | 1 << v] for v in absent):
            # a maximal losing coalition of the whole system leaves out
            # exactly the voters its complement's prime implicant names
            for v in absent:
                cpgi[v] += 1
    return pgi, cpgi
