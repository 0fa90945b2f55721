"""Sum-of-products switching functions: restriction, disjointing, weights.

Products are stored as a pair of bit masks (positive literals, negative
literals) over a fixed n-variable universe.  All operations are pure; forms
are immutable and freely shareable.

Constants: the zero function is a SopForm with no products; the one function
is a single empty product.  A product that would contain both polarities of
a variable is rejected at construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import ContractViolationError, DomainError, ResourceLimitError
from .oracle import truth_table

IE_PRODUCT_CAP = 20


@dataclass(frozen=True)
class Literal:
    """A variable occurrence with polarity (positive = uncomplemented)."""

    var: int
    positive: bool = True


class Product:
    """A conjunction of literals, at most one per variable.

    The empty product is the constant 1 (literal count 0).
    """

    __slots__ = ("pos", "neg")

    def __init__(self, literals: Iterable[Literal] = ()) -> None:
        pos = neg = 0
        for lit in literals:
            if lit.var < 0:
                raise DomainError(f"negative variable index {lit.var}")
            bit = 1 << lit.var
            if lit.positive:
                pos |= bit
            else:
                neg |= bit
        if pos & neg:
            clash = (pos & neg).bit_length() - 1
            raise DomainError(f"contradictory product: variable {clash} in both polarities")
        object.__setattr__(self, "pos", pos)
        object.__setattr__(self, "neg", neg)

    @classmethod
    def from_masks(cls, pos: int, neg: int) -> "Product":
        if pos & neg:
            raise DomainError("contradictory product masks")
        p = cls.__new__(cls)
        object.__setattr__(p, "pos", pos)
        object.__setattr__(p, "neg", neg)
        return p

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Product is immutable")

    @property
    def literal_count(self) -> int:
        return (self.pos | self.neg).bit_count()

    @property
    def support(self) -> int:
        return self.pos | self.neg

    def literals(self) -> Iterator[Literal]:
        for var in _iter_bits(self.pos):
            yield Literal(var, True)
        for var in _iter_bits(self.neg):
            yield Literal(var, False)

    def opposes(self, other: "Product") -> bool:
        """True iff some variable is complemented in one and not in the other."""
        return bool(self.pos & other.neg or self.neg & other.pos)

    def conjoin(self, other: "Product") -> "Product | None":
        """Merge literal sets; None when the conjunction is the constant 0."""
        if self.opposes(other):
            return None
        return Product.from_masks(self.pos | other.pos, self.neg | other.neg)

    def evaluate(self, bits: int) -> bool:
        return not (self.pos & ~bits or self.neg & bits)

    def __eq__(self, other) -> bool:
        return isinstance(other, Product) and self.pos == other.pos and self.neg == other.neg

    def __hash__(self) -> int:
        return hash((self.pos, self.neg))

    def __repr__(self) -> str:
        parts = [f"x{v}" if self.pos >> v & 1 else f"~x{v}" for v in _iter_bits(self.support)]
        return f"Product({' '.join(parts) or 1})"


def _iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class SopForm:
    """An ordered sum of products over an n-variable universe."""

    n: int
    products: tuple[Product, ...]
    disjoint_certified: bool = False

    def __post_init__(self) -> None:
        if self.n < 0:
            raise DomainError(f"universe size must be nonnegative, got {self.n}")
        limit = (1 << self.n) - 1
        for p in self.products:
            if p.support & ~limit:
                raise DomainError(f"product {p!r} uses variables outside universe of size {self.n}")

    def evaluate(self, bits: int) -> bool:
        return any(p.evaluate(bits) for p in self.products)

    def minterms(self) -> set[int]:
        """Assignments on which the form is true, read off its truth table."""
        digits = format(truth_table(self.evaluate, self.n), "b")
        return {bits for bits, digit in enumerate(reversed(digits)) if digit == "1"}

    def __repr__(self) -> str:
        return f"SopForm(n={self.n}, products={list(self.products)!r}, disjoint={self.disjoint_certified})"


def is_pairwise_disjoint(f: SopForm) -> bool:
    """Check that every pair of products has at least one opposition."""
    return all(p.opposes(q) for p, q in itertools.combinations(f.products, 2))


def certify_disjoint(f: SopForm) -> SopForm:
    """Return a disjoint-certified copy after an explicit O(m^2) check."""
    if not is_pairwise_disjoint(f):
        raise ContractViolationError("form is not pairwise disjoint")
    return SopForm(f.n, f.products, disjoint_certified=True)


def restrict(f: SopForm, var: int, value: int) -> SopForm:
    """Boolean quotient f(X | X_var = value), over the same universe.

    Products holding the opposing literal are deleted; the agreeing literal
    is removed; disjoint certification is preserved.
    """
    if not 0 <= var < f.n:
        raise DomainError(f"variable {var} out of range for universe of size {f.n}")
    bit = 1 << var
    kept = []
    for p in f.products:
        agreeing, opposing = (p.pos, p.neg) if value else (p.neg, p.pos)
        if opposing & bit:
            continue
        if agreeing & bit:
            p = Product.from_masks(p.pos & ~bit, p.neg & ~bit)
        kept.append(p)
    return SopForm(f.n, tuple(kept), disjoint_certified=f.disjoint_certified)


def conjoin_literal(f: SopForm, var: int, positive: bool) -> SopForm:
    """AND a single literal into every product (used for quotient-times-literal
    weights).  Products already containing the opposing literal vanish."""
    if not 0 <= var < f.n:
        raise DomainError(f"variable {var} out of range for universe of size {f.n}")
    lit = Product([Literal(var, positive)])
    kept = [m for p in f.products if (m := p.conjoin(lit)) is not None]
    return SopForm(f.n, tuple(kept), disjoint_certified=f.disjoint_certified)


def make_disjoint(f: SopForm) -> SopForm:
    """Rewrite f as an equivalent pairwise-disjoint sum.

    Sequential sharp-product expansion: the first product is accepted as is;
    each later product is replaced by its set difference with the accepted
    ones, expanded variable-by-variable in ascending variable order.  The
    result is deterministic and semantically equal to f, but not promised to
    match any particular hand-derived disjoint form.
    """
    if f.disjoint_certified:
        return f
    accepted: list[Product] = []
    for p in f.products:
        pieces = [p]
        for d in accepted:
            refined: list[Product] = []
            for q in pieces:
                if q.opposes(d):
                    refined.append(q)
                    continue
                missing = d.support & ~q.support
                if not missing:
                    continue  # q is inside d; absorbed
                pos, neg = q.pos, q.neg
                for var in _iter_bits(missing):
                    bit = 1 << var
                    if d.pos & bit:
                        refined.append(Product.from_masks(pos, neg | bit))
                        pos |= bit
                    else:
                        refined.append(Product.from_masks(pos | bit, neg))
                        neg |= bit
            pieces = refined
            if not pieces:
                break
        accepted.extend(pieces)
    return SopForm(f.n, tuple(accepted), disjoint_certified=True)


def weight_disjoint(f: SopForm) -> int:
    """Minterm count of a disjoint-certified form: sum of 2^(n - literals)."""
    if not f.disjoint_certified:
        raise ContractViolationError("weight_disjoint requires a disjoint-certified form")
    return sum(1 << (f.n - p.literal_count) for p in f.products)


def weight_ie(f: SopForm, product_cap: int = IE_PRODUCT_CAP) -> int:
    """Minterm count by inclusion-exclusion; works on non-disjoint forms.

    Cost is exponential in the product count, hence the cap; disjoint large
    forms first.  Opposing conjunctions contribute 0 and prune the subtree.
    """
    prods = f.products
    if len(prods) > product_cap:
        raise ResourceLimitError(
            f"{len(prods)} products exceeds inclusion-exclusion cap {product_cap}"
        )
    n = f.n
    total = 0

    def descend(start: int, pos: int, neg: int, depth: int) -> None:
        nonlocal total
        for j in range(start, len(prods)):
            p = prods[j]
            if (pos | p.pos) & (neg | p.neg):
                continue
            new_pos, new_neg = pos | p.pos, neg | p.neg
            term = 1 << (n - (new_pos | new_neg).bit_count())
            total += -term if depth & 1 else term
            descend(j + 1, new_pos, new_neg, depth + 1)

    descend(0, 0, 0, 0)
    return total


def weight_conjoined_disjoint(f: SopForm, g: SopForm) -> int:
    """Weight of f AND g when both inputs are disjoint-certified.

    The pairwise merges of two disjoint forms are automatically disjoint, so
    the weight is a plain sum over non-opposing pairs.
    """
    if not (f.disjoint_certified and g.disjoint_certified):
        raise ContractViolationError("both forms must be disjoint-certified")
    if f.n != g.n:
        raise DomainError("universe sizes differ")
    n = f.n
    total = 0
    for p in f.products:
        for q in g.products:
            if not p.opposes(q):
                total += 1 << (n - (p.support | q.support).bit_count())
    return total


def derivative_weight(f: SopForm, var: int) -> int:
    """Weight of the Boolean difference of f with respect to var.

    Computed as wt(q1) + wt(q0) - 2 wt(q1 AND q0) over the full universe,
    halved to land in the reduced (n-1)-variable universe.  No symbolic XOR
    form is materialized.
    """
    if not 0 <= var < f.n:
        raise DomainError(f"variable {var} out of range for universe of size {f.n}")
    fd = f if f.disjoint_certified else make_disjoint(f)
    q1 = restrict(fd, var, 1)
    q0 = restrict(fd, var, 0)
    w1 = weight_disjoint(q1)
    w0 = weight_disjoint(q0)
    w_both = weight_conjoined_disjoint(q1, q0)
    full = w1 + w0 - 2 * w_both
    assert full % 2 == 0
    return full // 2


def is_positive_unate(f: SopForm) -> bool:
    """Syntactic check: no product carries a complemented literal."""
    return all(p.neg == 0 for p in f.products)
