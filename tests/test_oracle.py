"""Brute-force reference routines: caps, swing counts, monotonicity."""

import pytest

from banzhaf.errors import ResourceLimitError
from banzhaf.oracle import (
    no_mask,
    oracle_causal,
    oracle_monotone,
    oracle_tbp,
    oracle_weight,
    truth_table,
)


def majority3(bits: int) -> bool:
    return bits.bit_count() >= 2


def test_truth_table_bit_order():
    # majority of 3 wins on assignments 3, 5, 6 and 7
    assert truth_table(majority3, 3) == 0b11101000
    assert truth_table(lambda bits: True, 0) == 1
    assert truth_table(lambda bits: False, 0) == 0


def test_truth_table_checks_cap_before_evaluating():
    calls = []
    with pytest.raises(ResourceLimitError, match="25 voters exceeds oracle cap 24"):
        truth_table(lambda bits: calls.append(bits) or True, 25)
    assert calls == []


def test_no_mask():
    assert no_mask(1, 0) == 0b01
    assert no_mask(3, 0) == 0b01010101
    assert no_mask(3, 1) == 0b00110011
    assert no_mask(3, 2) == 0b00001111
    for n in range(1, 8):
        for m in range(n):
            assert no_mask(n, m) == sum(1 << b for b in range(1 << n) if not b >> m & 1)


def test_oracle_weight():
    assert oracle_weight(majority3, 3) == 4
    assert oracle_weight(lambda bits: True, 4) == 16
    assert oracle_weight(lambda bits: False, 4) == 0


def test_oracle_weight_cap():
    with pytest.raises(ResourceLimitError):
        oracle_weight(majority3, 25)
    assert oracle_weight(majority3, 3, cap=3) == 4


def test_oracle_tbp_majority():
    assert oracle_tbp(truth_table(majority3, 3), 3) == [2, 2, 2]


def test_oracle_tbp_dictator_and_dummy():
    dictator = lambda bits: bool(bits & 1)
    assert oracle_tbp(truth_table(dictator, 4), 4) == [8, 0, 0, 0]


def test_oracle_tbp_no_voters():
    assert oracle_tbp(truth_table(lambda bits: True, 0), 0) == []


def test_oracle_monotone_verdicts():
    ok, witness = oracle_monotone(majority3, 3)
    assert ok and witness is None
    parity = lambda bits: bits.bit_count() % 2 == 1
    # the smallest pair: assignment 1 wins, raising voter 1 gives 3, which loses
    assert oracle_monotone(parity, 3) == (False, (1, 3))
    assert oracle_monotone(lambda bits: True, 0) == (True, None)


def test_oracle_causal():
    assert oracle_causal(majority3, 3)
    assert not oracle_causal(lambda bits: True, 3)
    assert not oracle_causal(lambda bits: False, 3)
