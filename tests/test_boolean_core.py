"""Sum-of-products machinery against a truth-table oracle and the worked
five-variable parliament forms."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banzhaf.boolean_core import (
    Literal,
    Product,
    SopForm,
    certify_disjoint,
    conjoin_literal,
    derivative_weight,
    is_pairwise_disjoint,
    is_positive_unate,
    make_disjoint,
    restrict,
    weight_disjoint,
    weight_ie,
)
from banzhaf.errors import ContractViolationError, DomainError, ResourceLimitError
from banzhaf.oracle import oracle_monotone

from conftest import product, random_positive_sop, random_sop, sop


def tt_weight(f: SopForm) -> int:
    return len(f.minterms())


def tt_derivative_weight(f: SopForm, var: int) -> int:
    bit = 1 << var
    return sum(
        1
        for bits in range(1 << f.n)
        if bits & bit and f.evaluate(bits) != f.evaluate(bits & ~bit)
    )


# --- construction ----------------------------------------------------------


def test_contradictory_product_rejected():
    with pytest.raises(DomainError):
        Product([Literal(2, True), Literal(2, False)])


def test_empty_product_is_constant_one():
    one = Product()
    assert one.literal_count == 0
    assert all(one.evaluate(bits) for bits in range(8))


def test_sopform_rejects_out_of_universe_vars():
    with pytest.raises(DomainError):
        sop(2, product(3))


# --- restrict --------------------------------------------------------------


def test_restrict_worked_example(scottish_disjoint_sop):
    low = conjoin_literal(restrict(scottish_disjoint_sop, 0, 0), 0, False)
    assert low.disjoint_certified
    assert weight_disjoint(low) == 3  # 2 + 1


def test_restrict_absent_variable():
    f = sop(3, product(1))
    assert restrict(f, 0, 1).products == f.products


def test_restrict_out_of_range():
    with pytest.raises(DomainError):
        restrict(sop(3, product(1)), 3, 0)


def test_restrict_matches_truth_table():
    rng = random.Random(42)
    for _ in range(60):
        f = random_sop(rng, 4)
        for var in range(4):
            for value in (0, 1):
                got = restrict(f, var, value)
                bit = 1 << var
                expected = {
                    bits
                    for bits in range(1 << 4)
                    if f.evaluate((bits | bit) if value else (bits & ~bit))
                }
                assert got.minterms() == expected


# --- make_disjoint ---------------------------------------------------------


def test_make_disjoint_worked_example(scottish_mwc_sop):
    d = make_disjoint(scottish_mwc_sop)
    assert d.disjoint_certified
    assert is_pairwise_disjoint(d)
    assert weight_disjoint(d) == 15
    assert d.minterms() == scottish_mwc_sop.minterms()


def test_make_disjoint_single_product_unchanged():
    f = sop(4, product(0, 2))
    d = make_disjoint(f)
    assert d.products == f.products


def test_make_disjoint_random_forms():
    rng = random.Random(7)
    for _ in range(200):
        f = random_sop(rng, rng.randint(1, 6))
        d = make_disjoint(f)
        assert is_pairwise_disjoint(d)
        assert d.minterms() == f.minterms()


# --- weights ---------------------------------------------------------------


def test_weight_disjoint_examples(scottish_disjoint_sop):
    assert weight_disjoint(scottish_disjoint_sop) == 15
    assert weight_disjoint(sop(6, product(), disjoint=True)) == 64
    assert weight_disjoint(sop(3, disjoint=True)) == 0


def test_weight_disjoint_requires_certification(scottish_mwc_sop):
    with pytest.raises(ContractViolationError):
        weight_disjoint(scottish_mwc_sop)


def test_certify_disjoint_checks(scottish_mwc_sop, scottish_disjoint_sop):
    assert certify_disjoint(
        SopForm(5, scottish_disjoint_sop.products)
    ).disjoint_certified
    with pytest.raises(ContractViolationError):
        certify_disjoint(scottish_mwc_sop)


def test_weight_ie_worked_example(scottish_mwc_sop):
    assert weight_ie(scottish_mwc_sop) == 15


def test_weight_ie_idempotent_products():
    p = product(0, 2)
    assert weight_ie(sop(4, p, p)) == weight_ie(sop(4, p)) == 4


def test_weight_ie_cap():
    prods = tuple(product(i % 3) for i in range(25))
    with pytest.raises(ResourceLimitError):
        weight_ie(SopForm(3, prods))


def test_weight_routes_agree_randomly():
    rng = random.Random(11)
    for _ in range(120):
        f = random_sop(rng, rng.randint(1, 6))
        expected = tt_weight(f)
        assert weight_ie(f) == expected
        assert weight_disjoint(make_disjoint(f)) == expected


# --- derivative ------------------------------------------------------------


def family_sop() -> SopForm:
    # (one parent of 2) AND (two children of 3); parents are vars 0-1
    prods = [
        product(p, a, b)
        for p in (0, 1)
        for a, b in ((2, 3), (2, 4), (3, 4))
    ]
    return SopForm(5, tuple(prods))


def test_derivative_weight_family_parent():
    assert derivative_weight(family_sop(), 0) == 4
    assert derivative_weight(family_sop(), 2) == 6


def test_derivative_of_independent_variable_is_zero():
    f = sop(4, product(1, 2))
    assert derivative_weight(f, 0) == 0


def test_derivative_weight_vs_oracle():
    rng = random.Random(3)
    for _ in range(60):
        f = random_positive_sop(rng, 5)
        for var in range(5):
            assert derivative_weight(f, var) == tt_derivative_weight(f, var)


def test_derivative_of_literal_times_free_function():
    # f = A * x0 with A independent of x0: derivative weight equals wt(A)
    a = sop(4, product(1, 2), product(3))
    f = SopForm(4, tuple(conjoin_literal(a, 0, True).products))
    wt_a_reduced = tt_weight(a) // 2  # A ignores var 0
    assert derivative_weight(f, 0) == wt_a_reduced


# --- unateness -------------------------------------------------------------


def test_unateness_examples(scottish_mwc_sop, scottish_disjoint_sop):
    assert is_positive_unate(scottish_mwc_sop)
    assert not is_positive_unate(scottish_disjoint_sop)
    f = scottish_disjoint_sop
    assert oracle_monotone(f.evaluate, f.n) == (True, None)
    mixed = sop(2, product(0, (1, False)))
    verdict, (low, high) = oracle_monotone(mixed.evaluate, mixed.n)
    assert not verdict
    assert high ^ low == 1 << 1  # raising variable 1 lowers the function


# --- invariants ------------------------------------------------------------


def test_restriction_preserves_disjointness():
    rng = random.Random(19)
    for _ in range(200):
        f = make_disjoint(random_sop(rng, rng.randint(1, 6)))
        for var in range(f.n):
            for value in (0, 1):
                assert is_pairwise_disjoint(restrict(f, var, value))


def test_boole_shannon_weight_split():
    rng = random.Random(23)
    for _ in range(80):
        f = random_sop(rng, rng.randint(1, 6))
        wt = tt_weight(f)
        for var in range(f.n):
            hi = weight_ie(conjoin_literal(restrict(f, var, 1), var, True))
            lo = weight_ie(conjoin_literal(restrict(f, var, 0), var, False))
            assert hi + lo == wt


def complement_sop(f: SopForm) -> SopForm:
    """Complement by materializing false minterms (test helper)."""
    prods = []
    for bits in range(1 << f.n):
        if not f.evaluate(bits):
            prods.append(
                Product(
                    Literal(v, positive=bool(bits >> v & 1)) for v in range(f.n)
                )
            )
    return SopForm(f.n, tuple(prods))


def test_derivative_of_complement_equal():
    rng = random.Random(31)
    for _ in range(25):
        f = random_sop(rng, rng.randint(1, 5))
        g = complement_sop(f)
        for var in range(f.n):
            assert derivative_weight(f, var) == derivative_weight(g, var)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_or_derivative_pointwise_identity(data):
    """Truth table of the derivative of an OR matches the three-term XOR
    expression, pointwise over all assignments."""
    n = data.draw(st.integers(min_value=1, max_value=5))
    seed = data.draw(st.integers(min_value=0, max_value=2**30))
    rng = random.Random(seed)
    f1 = random_sop(rng, n)
    f2 = random_sop(rng, n)
    var = data.draw(st.integers(min_value=0, max_value=n - 1))
    bit = 1 << var
    union = SopForm(n, f1.products + f2.products)
    for bits in range(1 << n):
        d1 = f1.evaluate(bits | bit) != f1.evaluate(bits & ~bit)
        d2 = f2.evaluate(bits | bit) != f2.evaluate(bits & ~bit)
        lhs = union.evaluate(bits | bit) != union.evaluate(bits & ~bit)
        rhs = ((not f1.evaluate(bits)) and d2) ^ (d1 and (not f2.evaluate(bits))) ^ (d1 and d2)
        assert lhs == rhs
