"""Symmetric switching functions given by (n, characteristic set).

The function is 1 exactly when the number of high inputs lies in the
characteristic set.  The full set {0..n} is the constant 1; the empty set is
the constant 0.  All values are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .combinatorics import binom
from .errors import DomainError


@dataclass(frozen=True)
class SymFunction:
    n: int
    charset: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.n < 0:
            raise DomainError(f"n must be nonnegative, got {self.n}")
        charset = frozenset(self.charset)
        object.__setattr__(self, "charset", charset)
        if any(a < 0 or a > self.n for a in charset):
            raise DomainError(f"characteristic set {sorted(charset)} outside 0..{self.n}")

    @property
    def is_constant_one(self) -> bool:
        return len(self.charset) == self.n + 1

    @property
    def is_constant_zero(self) -> bool:
        return not self.charset

    def evaluate(self, bits: int) -> bool:
        return bits.bit_count() in self.charset


def sy_expand(f: SymFunction) -> tuple[SymFunction, SymFunction]:
    """Boole-Shannon expansion about any one variable.

    Returns the low branch B (variable at 0) and the high branch C (variable
    at 1), both over n-1 variables: B = A clipped to 0..n-1, C = the
    element-wise decrement of A clipped likewise.  The recombination
    not(x)*B or x*C is disjoint and reproduces f.
    """
    if f.n < 1:
        raise DomainError("cannot expand a 0-variable function")
    upper = range(f.n)  # 0..n-1
    b = frozenset(a for a in f.charset if a in upper)
    c = frozenset(a - 1 for a in f.charset if a - 1 in upper)
    return SymFunction(f.n - 1, b), SymFunction(f.n - 1, c)


def sy_derivative(f: SymFunction) -> SymFunction:
    """Boolean difference with respect to any variable (variable-independent
    by symmetry): the symmetric function on B xor C."""
    low, high = sy_expand(f)
    return SymFunction(f.n - 1, low.charset ^ high.charset)


def sy_weight(f: SymFunction) -> int:
    """Minterm count: sum of binomials over the characteristic set."""
    return sum(binom(f.n, a) for a in f.charset)


def sy_tbp(f: SymFunction) -> int:
    """Per-voter total Banzhaf power: weight of the derivative.

    Equals sum of c(n-1, a) over the symmetric difference of the expansion
    branches; for monotone (upward-interval) charsets this also equals
    wt(high branch) - wt(low branch).
    """
    return sy_weight(sy_derivative(f))


def kofn_success(k: int, n: int) -> SymFunction:
    """The at-least-k-of-n function Sy(n; {k..n}).

    k = n is the unanimity (series) system; k <= 0 is constant true (the
    0-out-of-0 chamber is allowed); k > n is rejected as the always-false
    chamber.
    """
    if n < 0:
        raise DomainError(f"n must be nonnegative, got {n}")
    if k > n:
        raise DomainError(f"{k}-out-of-{n} is never satisfiable")
    return SymFunction(n, frozenset(range(max(k, 0), n + 1)))
