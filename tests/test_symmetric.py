"""Symmetric switching functions checked by characteristic-set algebra and
by exhaustive truth tables."""

import random

import pytest

from banzhaf.combinatorics import binom, cum_binom
from banzhaf.errors import DomainError
from banzhaf.symmetric import (
    SymFunction,
    kofn_success,
    sy_derivative,
    sy_expand,
    sy_tbp,
    sy_weight,
)


def tt_weight(f: SymFunction) -> int:
    return sum(1 for bits in range(1 << f.n) if f.evaluate(bits))


def random_sym(rng: random.Random, n: int) -> SymFunction:
    charset = frozenset(a for a in range(n + 1) if rng.random() < 0.5)
    return SymFunction(n, charset)


def test_construction_validation():
    with pytest.raises(DomainError):
        SymFunction(-1, frozenset())
    with pytest.raises(DomainError):
        SymFunction(3, frozenset({4}))
    with pytest.raises(DomainError):
        SymFunction(3, frozenset({-1}))


def test_constants():
    assert SymFunction(3, frozenset(range(4))).is_constant_one
    assert SymFunction(3).is_constant_zero
    assert not kofn_success(2, 3).is_constant_one


def test_evaluate_counts_high_inputs():
    f = SymFunction(4, frozenset({1, 3}))
    for bits in range(16):
        assert f.evaluate(bits) == (bits.bit_count() in {1, 3})


def test_expand_branches_of_kofn():
    low, high = sy_expand(kofn_success(3, 5))
    assert low.charset == frozenset({3, 4})
    assert high.charset == frozenset({2, 3, 4})


def test_expand_recombination_is_exact():
    rng = random.Random(9)
    for _ in range(50):
        n = rng.randint(1, 6)
        f = random_sym(rng, n)
        low, high = sy_expand(f)
        # glue branches back with the last variable as the pivot
        for bits in range(1 << n):
            rest = bits & ((1 << (n - 1)) - 1)
            branch = high if bits >> (n - 1) & 1 else low
            assert f.evaluate(bits) == branch.evaluate(rest)


def test_expand_zero_variable_rejected():
    with pytest.raises(DomainError):
        sy_expand(SymFunction(0, frozenset({0})))


def test_derivative_of_kofn_is_exactly_threshold():
    for n in range(1, 9):
        for k in range(1, n + 1):
            assert sy_derivative(kofn_success(k, n)).charset == frozenset({k - 1})


def test_weight_is_cumulative_binomial_for_kofn():
    for n in range(0, 10):
        for k in range(0, n + 1):
            assert sy_weight(kofn_success(k, n)) == cum_binom(n, k)


def test_weight_matches_truth_table():
    rng = random.Random(13)
    for _ in range(60):
        f = random_sym(rng, rng.randint(0, 8))
        assert sy_weight(f) == tt_weight(f)


def test_tbp_of_kofn():
    assert sy_tbp(kofn_success(2, 3)) == binom(2, 1) == 2
    assert sy_tbp(kofn_success(4, 10)) == binom(9, 3) == 84
    for n in range(1, 10):
        for k in range(1, n + 1):
            assert sy_tbp(kofn_success(k, n)) == binom(n - 1, k - 1)


def test_tbp_matches_swing_count():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(1, 7)
        f = random_sym(rng, n)
        bit = 1 << (n - 1)
        swings = sum(
            1
            for bits in range(1 << n)
            if bits & bit and f.evaluate(bits) != f.evaluate(bits & ~bit)
        )
        assert sy_tbp(f) == swings


def test_kofn_boundaries():
    assert kofn_success(0, 3).is_constant_one
    assert kofn_success(-2, 3).is_constant_one
    assert kofn_success(3, 3).charset == frozenset({3})
    assert kofn_success(0, 0).is_constant_one
    with pytest.raises(DomainError):
        kofn_success(4, 3)
    with pytest.raises(DomainError):
        kofn_success(0, -1)
