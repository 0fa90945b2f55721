"""Voting-system models and Banzhaf / Public Good Index computation.

Systems are conjunctions of chambers over disjoint voter blocks; a plain
quota-and-weights system is the one-chamber case and a k-out-of-n chamber
is a weighted chamber with unit weights.  Total Banzhaf power is computed by
several independent routes (Boolean derivative, quotient formulas on the
decision function or its complement, closed forms for k-out-of-n chambers,
subset-sum dynamic programming, and the brute-force oracle), which must
agree exactly.  `auto` plans each chamber's route from its sizes alone: the
closed form for k-out-of-n, else subset sums or quotients, whichever the
sizes say is cheaper.

Every route but the oracle works on one chamber at a time: it returns each
member's local swing count and the chamber's weight (its number of winning
local assignments).  The chambers vote independently, so one compose step
multiplies each member's count by the other chambers' weights.  The oracle
reads the whole system's truth table, the outcome of every assignment
decided from the chambers' weights and quotas, so it checks the compose step
too; it uses no swing count, chamber weight, SOP form or binomial.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import oracle as oracle_mod
from .boolean_core import (
    Product,
    SopForm,
    conjoin_literal,
    make_disjoint,
    restrict,
    weight_disjoint,
)
from .boolean_core import derivative_weight as _sop_derivative_weight
from .combinatorics import binom, cum_binom
from .errors import (
    DomainError,
    ResourceLimitError,
    UnsupportedMethodError,
    ValidationError,
)

MWC_CAP = 10**6
DP_CAP = 10**6

METHODS = (
    "derivative",
    "quotient_pos",
    "quotient_neg",
    "quotient_diff",
    "complement",
    "closed_form",
    "oracle",
    "auto",
)


@dataclass(frozen=True)
class Chamber:
    """One conjunct of a chamber system: it passes when the weights of its
    yes-voters reach the quota.  A k-out-of-n chamber has unit weights and
    quota k; quota 0 is the constant-true chamber."""

    labels: tuple[str, ...]
    quota: int
    weights: tuple[int, ...]
    # (k, n) when the chamber is k-out-of-n; it is then decided by popcount
    _kofn: tuple[int, int] | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        labels, weights = tuple(self.labels), tuple(self.weights)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "weights", weights)
        if len(labels) != len(weights):
            raise ValidationError("labels and weights differ in length")
        if len(set(labels)) != len(labels):
            raise ValidationError("duplicate voter labels")
        if any(not isinstance(w, int) or w <= 0 for w in weights):
            raise ValidationError(f"weights must be positive integers, got {list(weights)}")
        total = sum(weights)
        if not isinstance(self.quota, int) or not 0 <= self.quota <= total:
            raise ValidationError(f"quota {self.quota} outside 0..{total}")
        kofn = None
        if self.quota == total:
            kofn = (self.n, self.n)
        elif len(set(weights)) == 1:
            kofn = (-(-self.quota // weights[0]), self.n)
        object.__setattr__(self, "_kofn", kofn)

    @classmethod
    def weighted(cls, labels, quota: int, weights) -> "Chamber":
        """A weighted chamber as a spec states it: its quota is positive."""
        return cls(labels, _positive_quota(quota), weights)

    @classmethod
    def k_of_n(cls, labels, k: int) -> "Chamber":
        labels = tuple(labels)
        return cls(labels, k, (1,) * len(labels))

    @property
    def n(self) -> int:
        return len(self.labels)

    def as_kofn(self) -> tuple[int, int] | None:
        """(k, n) when the chamber is k-out-of-n: equal weights, or unanimity."""
        return self._kofn

    @property
    def prudent(self) -> bool:
        """Quota strictly above half the total weight (warning-level only)."""
        return 2 * self.quota > sum(self.weights)

    def evaluate(self, bits: int) -> bool:
        """Decision on a chamber-local assignment bitmask."""
        if self._kofn is not None:
            return bits.bit_count() >= self._kofn[0]
        total = 0
        for i, w in enumerate(self.weights):
            if bits >> i & 1:
                total += w
        return total >= self.quota

    def weight(self) -> int:
        """Number of winning local assignments: 2^n less the coalitions below
        the quota, counted by subset sums, so capped by DP_CAP."""
        return (1 << self.n) - sum(_dp_below(self)[1])

    def symmetric_blocks(self) -> list[list[int]]:
        """Local voter indices grouped so each group provably shares one TBP."""
        groups: dict[int, list[int]] = {}
        for i, w in enumerate(self.weights):
            groups.setdefault(w, []).append(i)
        return [groups[w] for w in sorted(groups, reverse=True)]


class ScalarWeightedSystem(Chamber):
    """A (quota; weights) system standing alone: a weighted chamber with a
    positive quota, whose voters are X1, X2, ... unless labels are given."""

    def __init__(self, quota: int, weights, labels=()) -> None:
        weights = tuple(weights)
        labels = tuple(labels) or tuple(f"X{i + 1}" for i in range(len(weights)))
        super().__init__(labels, _positive_quota(quota), weights)


def _positive_quota(quota: int) -> int:
    if not isinstance(quota, int) or quota < 1:
        raise ValidationError(f"quota must be a positive integer, got {quota}")
    return quota


@dataclass(frozen=True)
class ChamberSystem:
    """Conjunction of chambers over disjoint voter blocks."""

    chambers: tuple[Chamber, ...]
    name: str = ""
    # position of each chamber's first voter in the system's voter order
    offsets: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        chambers = tuple(self.chambers)
        object.__setattr__(self, "chambers", chambers)
        if not chambers:
            raise ValidationError("at least one chamber required")
        labels = [lab for ch in chambers for lab in ch.labels]
        if len(set(labels)) != len(labels):
            raise ValidationError("duplicate voter labels across chambers")
        offsets = itertools.accumulate((ch.n for ch in chambers[:-1]), initial=0)
        object.__setattr__(self, "offsets", tuple(offsets))

    @classmethod
    def from_scalar(cls, sys: ScalarWeightedSystem, name: str = "") -> "ChamberSystem":
        return cls((sys,), name=name)

    @property
    def total_n(self) -> int:
        return sum(ch.n for ch in self.chambers)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(lab for ch in self.chambers for lab in ch.labels)

    def evaluate(self, bits: int) -> bool:
        for ch, off in zip(self.chambers, self.offsets):
            if not ch.evaluate(bits >> off & ((1 << ch.n) - 1)):
                return False
        return True

    def truth_table(self, cap: int = oracle_mod.DEFAULT_ORACLE_CAP) -> int:
        """The system's 2^n-bit truth table (bit b is evaluate(b)), built from
        each chamber's weights and quota with no call per assignment.

        Chambers are placed from the last to the first: the table of the
        chambers after each one spreads its bit b to bit b * 2^(chamber width),
        and one product with the chamber's table fills in each spread bit.
        Nothing carries, as a chamber's table is below 2^(2^width)."""
        if self.total_n > cap:
            raise ResourceLimitError(f"{self.total_n} voters exceeds oracle cap {cap}")
        *rest, last = self.chambers
        table = oracle_mod.threshold_table(last.weights, last.quota)
        for ch in reversed(rest):
            spread = int(("0" * ((1 << ch.n) - 1)).join(format(table, "b")), 2)
            table = spread * oracle_mod.threshold_table(ch.weights, ch.quota)
        return table

    def warnings(self) -> list[str]:
        out = []
        for idx, ch in enumerate(self.chambers):
            if not ch.prudent:
                out.append(
                    f"chamber {idx + 1} quota is not strictly above half the total weight"
                )
        return out


@dataclass
class VoterPower:
    label: str
    tbp: int
    ntbp: Fraction
    dummy: bool
    pgi: int | None = None
    cpgi: int | None = None


@dataclass
class PowerReport:
    system_name: str
    method: str
    voters: list[VoterPower]
    total_tbp: int
    warnings: list[str] = field(default_factory=list)

    @property
    def tbp_vector(self) -> list[int]:
        return [v.tbp for v in self.voters]

    @property
    def ntbp_vector(self) -> list[Fraction]:
        return [v.ntbp for v in self.voters]


# ---------------------------------------------------------------------------
# Prime implicant enumeration


def _minimal_coalitions(weights: tuple[int, ...], quota: int, cap: int) -> list[int]:
    """Bit masks of the minimal coalitions whose weight reaches the quota, in
    canonical (cardinality, lexicographic index) order.

    Branch and bound over weight-sorted voters on an explicit stack, so that
    the depth is not limited by the interpreter's recursion limit; a branch
    is cut as soon as it reaches the quota (supersets are non-minimal) or
    cannot reach it any more.
    """
    n = len(weights)
    order = sorted(range(n), key=lambda i: (-weights[i], i))
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + weights[order[i]]
    found: list[int] = []
    # (next position in order, coalition mask, its weight, its last member's weight)
    stack = [(0, 0, 0, 0)]
    while stack:
        idx, mask, total, last = stack.pop()
        if total >= quota:
            # voters join in non-increasing weight, so the last one is the
            # lightest; minimality needs even it to be necessary
            if not mask or total - last < quota:
                if len(found) >= cap:
                    raise ResourceLimitError(
                        f"more than {cap} minimal winning coalitions; "
                        "use method auto or closed_form"
                    )
                found.append(mask)
            continue
        if idx == n or total + suffix[idx] < quota:
            continue
        v = order[idx]
        # the branch with voter v is popped, and so searched, first
        stack.append((idx + 1, mask, total, last))
        stack.append((idx + 1, mask | 1 << v, total + weights[v], weights[v]))
    found.sort(key=lambda m: (m.bit_count(), [i for i in range(n) if m >> i & 1]))
    return found


def build_mwc_sop(ch: Chamber, cap: int = MWC_CAP) -> SopForm:
    """All minimal winning coalitions as a positive-unate sum of products."""
    masks = _minimal_coalitions(ch.weights, ch.quota, cap)
    return SopForm(ch.n, tuple(Product.from_masks(m, 0) for m in masks))


def build_mlc_sop(ch: Chamber, cap: int = MWC_CAP) -> SopForm:
    """Prime implicants of the complement as products of complemented literals.

    A maximal losing coalition leaves out a minimal blocking set of voters;
    blocking sets are the minimal coalitions reaching the complemented
    threshold (total - quota + 1).
    """
    masks = _minimal_coalitions(ch.weights, sum(ch.weights) - ch.quota + 1, cap)
    return SopForm(ch.n, tuple(Product.from_masks(0, m) for m in masks))


def _chamber_forms(system: ChamberSystem, losing: bool, cap: int) -> list[SopForm]:
    """Each chamber's MWC form, or its MLC form when losing.

    Every k-out-of-n chamber is sized against the cap by its binomial count
    before any list is built; the enumerator sizes the others as it runs.
    """
    for ch in system.chambers:
        if (kofn := ch.as_kofn()) is not None:
            k, n = kofn
            count = binom(n, n - k + 1) if losing else binom(n, k)
            if count > cap:
                kind = "maximal losing" if losing else "minimal winning"
                raise ResourceLimitError(f"{count} {kind} coalitions exceed cap {cap}")
    build = build_mlc_sop if losing else build_mwc_sop
    return [build(ch, cap=cap) for ch in system.chambers]


def _canonical_sort(products: list[Product]) -> tuple[Product, ...]:
    return tuple(
        sorted(products, key=lambda p: (p.literal_count, sorted(v.var for v in p.literals())))
    )


def mwc_sop(system: ChamberSystem, cap: int = MWC_CAP) -> SopForm:
    """Materialized prime implicants of the whole conjunction.

    With disjoint voter blocks these are exactly the cross products of the
    per-chamber minimal winning coalitions.
    """
    per_chamber = [f.products for f in _chamber_forms(system, False, cap)]
    if math.prod(map(len, per_chamber)) > cap:
        raise ResourceLimitError(f"more than {cap} minimal winning coalitions")
    combined = []
    for combo in itertools.product(*per_chamber):
        pos = 0
        for prod, off in zip(combo, system.offsets):
            pos |= prod.pos << off
        combined.append(Product.from_masks(pos, 0))
    return SopForm(system.total_n, _canonical_sort(combined))


def mlc_sop(system: ChamberSystem, cap: int = MWC_CAP) -> SopForm:
    """Materialized prime implicants of the complement.

    The complement of a conjunction over disjoint blocks is the disjunction
    of the chamber complements, so its prime implicants are the union of the
    per-chamber ones.
    """
    combined = [
        Product.from_masks(0, prod.neg << off)
        for form, off in zip(_chamber_forms(system, True, cap), system.offsets)
        for prod in form.products
    ]
    if len(combined) > cap:
        raise ResourceLimitError(f"more than {cap} maximal losing coalitions")
    return SopForm(system.total_n, _canonical_sort(combined))


# ---------------------------------------------------------------------------
# Subset-sum dynamic programming


def _dp_grid(ch: Chamber) -> tuple[int, int]:
    """Common factor g of the weights, and the table width: the quota in g units rounded up."""
    g = math.gcd(*ch.weights) or 1
    return g, -(-ch.quota // g)


def _dp_below(ch: Chamber) -> tuple[list[int], list[int]]:
    """The weights in units of their common factor, and the number of
    coalitions of each weight below the quota in those units (rounded up),
    from one forward pass over a table that must fit DP_CAP."""
    g, quota = _dp_grid(ch)
    if quota > DP_CAP:
        raise ResourceLimitError(f"subset-sum table of {quota} sums exceeds cap {DP_CAP}")
    weights = [w // g for w in ch.weights]
    below = [1] + [0] * (quota - 1) if quota else []
    for w in weights:
        # each sum s >= w gains the old table's coalitions of weight s - w
        below[w:] = [a + b for a, b in zip(below[w:], below)]
    return weights, below


def _dp_local(ch: Chamber) -> tuple[list[int], int]:
    """Each member's swing count and the chamber weight from one subset-sum
    pass over the sums below the quota q (Bilbao et al., TOP 8, 2000).

    A member of weight w swings for the others' coalitions weighing
    q - w .. q - 1.  Dividing its factor (1 + x^w) out of the counts c gives
    the others' counts c_m[s] = c[s] - c_m[s - w], so their sum over that
    window is the alternating sum over t < q of (-1)^((q - 1 - t) // w) c[t]:
    ceil(q / w) block sums from the top when w * w >= q, else w strided sums
    of each sign."""
    weights, below = _dp_below(ch)
    q = len(below)
    swings = {}
    for w in set(weights):
        if w * w >= q:
            blocks = [sum(below[max(top - w, 0) : top]) for top in range(q, 0, -w)]
            swings[w] = sum(blocks[::2]) - sum(blocks[1::2])
        else:
            # w * w < q gives q >= 2w, so no slice starts below 0
            swings[w] = sum(
                sum(below[q - 1 - r :: -2 * w]) - sum(below[q - 1 - r - w :: -2 * w])
                for r in range(w)
            )
    return [swings[w] for w in weights], (1 << ch.n) - sum(below)


# ---------------------------------------------------------------------------
# Per-chamber composition


def _compose(per_chamber: list[tuple[list[int], int]]) -> list[int]:
    """Whole-system vector from (member counts, chamber factor) per chamber:
    each member's count times the factors of all other chambers."""
    vector: list[int] = []
    for i, (local, _) in enumerate(per_chamber):
        others = math.prod(f for j, (_, f) in enumerate(per_chamber) if j != i)
        vector.extend(count * others for count in local)
    return vector


def _per_block(ch: Chamber, count) -> list[int]:
    """Member counts of one chamber: count(m) for one representative m per
    symmetric block, copied across the block."""
    values = [0] * ch.n
    for block in ch.symmetric_blocks():
        value = count(block[0])
        for m in block:
            values[m] = value
    return values


# ---------------------------------------------------------------------------
# Total Banzhaf power


def _closed_form_local(ch: Chamber) -> tuple[list[int], int]:
    """k-out-of-n: c(n - 1, k - 1) swings per member, weight C(n, k)."""
    kofn = ch.as_kofn()
    if kofn is None:
        raise UnsupportedMethodError(
            "closed form needs every chamber to reduce to k-out-of-n"
        )
    k, n = kofn
    return [binom(n - 1, k - 1) if k else 0] * n, cum_binom(n, k)


def _branch_weight(fd: SopForm, m: int, value: int) -> int:
    """wt(f/Xm · Xm) for value 1, wt(f/X̄m · X̄m) for value 0."""
    return weight_disjoint(conjoin_literal(restrict(fd, m, value), m, bool(value)))


def _sop_swing(method: str, fd: SopForm, wt: int, m: int) -> int:
    """Swing count of variable m from a disjoint form of weight wt: the
    decision function's, or for complement the complement's."""
    if method == "derivative":
        return _sop_derivative_weight(fd, m)
    if method == "quotient_neg":
        return wt - 2 * _branch_weight(fd, m, 0)
    hi = _branch_weight(fd, m, 1)
    if method == "quotient_pos":
        return 2 * hi - wt
    if method == "complement":
        return wt - 2 * hi
    return hi - _branch_weight(fd, m, 0)


def _sop_local(ch: Chamber, form: SopForm, method: str) -> tuple[list[int], int]:
    """Derivative, quotient or complement route on one chamber's disjointed
    MWC form (MLC form for complement)."""
    fd = make_disjoint(form)
    wt = weight_disjoint(fd)
    swings = _per_block(ch, lambda m: _sop_swing(method, fd, wt, m))
    return swings, (1 << ch.n) - wt if method == "complement" else wt


def _tbp_sop_route(system: ChamberSystem, method: str, mwc_cap: int) -> list[int]:
    forms = _chamber_forms(system, method == "complement", mwc_cap)
    return _compose([_sop_local(ch, f, method) for ch, f in zip(system.chambers, forms)])


def _tbp_dp_route(system: ChamberSystem) -> list[int]:
    return _compose([_dp_local(ch) for ch in system.chambers])


def _auto_local(ch: Chamber, mwc_cap: int) -> tuple[str, tuple[list[int], int]]:
    """One chamber's route, planned from its sizes alone, and its counts.
    The subset-sum pass takes about (n + distinct weights) steps per table
    cell; the MWC form has at most s = C(n, n // 2) products (Sperner),
    disjointed in about s² steps.  The SOP route is planned when the table
    exceeds DP_CAP, or when s² is the smaller and s fits the MWC cap."""
    if ch.as_kofn() is not None:
        return "closed_form", _closed_form_local(ch)
    # past 64 voters s dwarfs any table, and computing it exactly is slow
    m = min(ch.n, 64)
    s = math.comb(m, m // 2)
    width = _dp_grid(ch)[1]
    if width > DP_CAP or (s <= mwc_cap and s * s < (ch.n + len(set(ch.weights))) * width):
        return "quotient_pos", _sop_local(ch, build_mwc_sop(ch, mwc_cap), "quotient_pos")
    return "dp", _dp_local(ch)


def tbp_vector(
    system: ChamberSystem,
    method: str = "auto",
    *,
    oracle_cap: int = oracle_mod.DEFAULT_ORACLE_CAP,
    mwc_cap: int = MWC_CAP,
) -> tuple[list[int], str]:
    """Raw per-voter Banzhaf counts and the method actually used."""
    if method not in METHODS:
        raise UnsupportedMethodError(f"unknown method {method!r}")
    if method == "auto":
        routes, per_chamber = zip(*(_auto_local(ch, mwc_cap) for ch in system.chambers))
        used = "+".join(sorted(set(routes) - {"closed_form"})) or "closed_form"
        return _compose(list(per_chamber)), used
    if method == "closed_form":
        return _compose([_closed_form_local(ch) for ch in system.chambers]), method
    if method == "oracle":
        # the whole system's truth table, not composed
        return oracle_mod.oracle_tbp(system.truth_table(oracle_cap), system.total_n), method
    return _tbp_sop_route(system, method, mwc_cap), method


def tbp_report(
    system: ChamberSystem,
    method: str = "auto",
    *,
    oracle_cap: int = oracle_mod.DEFAULT_ORACLE_CAP,
    mwc_cap: int = MWC_CAP,
    with_pgi: bool = False,
) -> PowerReport:
    """Full power report: TBP, exact normalized TBP, dummy flags, and
    optionally the Public Good Index counts."""
    vector, used = tbp_vector(system, method, oracle_cap=oracle_cap, mwc_cap=mwc_cap)
    total = sum(vector)
    pgi = cpgi = None
    if with_pgi:
        pgi, cpgi = pgi_cpgi(system, cap=mwc_cap)
    voters = [
        VoterPower(label, tbp, Fraction(tbp, total) if total else Fraction(0), tbp == 0,
                   pgi=pgi[i] if pgi else None, cpgi=cpgi[i] if cpgi else None)
        for i, (label, tbp) in enumerate(zip(system.labels, vector))
    ]
    return PowerReport(
        system_name=system.name,
        method=used,
        voters=voters,
        total_tbp=total,
        warnings=system.warnings(),
    )


# ---------------------------------------------------------------------------
# Public Good Index


def pgi_cpgi(system: ChamberSystem, cap: int = MWC_CAP) -> tuple[list[int], list[int]]:
    """Per-voter counts of minimal winning coalitions containing the voter and
    of maximal-losing-coalition products naming the voter's absence.

    A minimal winning coalition of the system is one of each chamber's, so a
    member's PGI is its chamber-local count times the other chambers' MWC
    counts; the complement's prime implicants are the union of the chambers',
    so CPGI is the chamber-local count.
    """
    winning = _chamber_forms(system, False, cap)
    losing = _chamber_forms(system, True, cap)
    pgi = _compose([
        (_member_counts([p.pos for p in f.products], ch.n), len(f.products))
        for ch, f in zip(system.chambers, winning)
    ])
    cpgi = _compose([
        (_member_counts([p.neg for p in g.products], ch.n), 1)
        for ch, g in zip(system.chambers, losing)
    ])
    return pgi, cpgi


def _member_counts(masks: list[int], n: int) -> list[int]:
    return [sum(mask >> v & 1 for mask in masks) for v in range(n)]


# ---------------------------------------------------------------------------
# Structural checks and constructions


def swap_robust_check(
    system: ChamberSystem, cap: int = oracle_mod.DEFAULT_ORACLE_CAP
) -> tuple[bool, dict | None]:
    """Search for a one-for-one voter exchange between two winning coalitions
    that leaves both losing.  Returns (verdict, witness).

    Such an exchange exists exactly when two voters x and y are incomparable
    in desirability (Taylor & Zwicker, Simple Games, 1999): some Z + x wins
    while Z + y loses, and some W + y wins while W + x loses, with Z and W
    holding neither voter.  Each pair is compared on the truth table.
    """
    n = system.total_n
    table = system.truth_table(cap)
    labels = system.labels
    no = [oracle_mod.no_mask(n, m) for m in range(n)]
    for x, y in itertools.combinations(range(n), 2):
        # both indexed by Z + x, Z holding neither voter: Z + x wins, Z + y wins
        with_x = table & ~no[x] & no[y]
        with_y = (table & no[x] & ~no[y]) >> ((1 << y) - (1 << x))
        only_x, only_y = with_x & ~with_y, with_y & ~with_x
        if only_x and only_y:
            c1 = (only_x & -only_x).bit_length() - 1
            c2 = (only_y & -only_y).bit_length() - 1 - (1 << x) + (1 << y)
            return False, {
                "coalition1": _label_set(c1, labels),
                "coalition2": _label_set(c2, labels),
                "swap_out": labels[x],
                "swap_in": labels[y],
            }
    return True, None


def _label_set(bits: int, labels: tuple[str, ...]) -> list[str]:
    return [labels[i] for i in range(len(labels)) if bits >> i & 1]


def veto_equivalent_scalar(
    vetoer_count: int,
    k: int,
    n: int,
    labels: tuple[str, ...] | None = None,
) -> ScalarWeightedSystem:
    """Scalar system equivalent to (unanimity of p vetoers) AND (k-of-n others).

    Each vetoer gets weight n - k + 1 so that all of them plus k others are
    needed; everyone else keeps weight 1.
    """
    if vetoer_count < 0:
        raise DomainError("vetoer count must be nonnegative")
    if not 0 <= k <= n:
        raise DomainError(f"k={k} outside 0..{n}")
    if vetoer_count == 0 and k == 0:
        raise DomainError("always-true system has no scalar form")
    w = n - k + 1
    quota = vetoer_count * w + k
    weights = (w,) * vetoer_count + (1,) * n
    if labels is None:
        labels = tuple(f"P{i + 1}" for i in range(vetoer_count)) + tuple(
            f"N{j + 1}" for j in range(n)
        )
    return ScalarWeightedSystem(quota, weights, labels)
