"""Differential checks of the per-chamber routes against whole-system
enumeration, on seeded random multi-chamber systems."""

import io
import random
import tracemalloc

import pytest

from banzhaf import cli, oracle, voting
from banzhaf.errors import ResourceLimitError, UnsupportedMethodError
from banzhaf.oracle import oracle_tbp, oracle_weight, truth_table
from banzhaf.specfile import load_system
from banzhaf.voting import (
    Chamber,
    ChamberSystem,
    pgi_cpgi,
    swap_robust_check,
    tbp_vector,
)

ROUTES = ("derivative", "quotient_pos", "quotient_neg", "quotient_diff", "complement", "auto")


def random_chamber(rng: random.Random, labels: list[str]) -> Chamber:
    n = len(labels)
    kind = rng.choice(("weighted", "k_of_n", "equal_weights"))
    if kind == "k_of_n":
        return Chamber.k_of_n(labels, rng.randint(0, n))
    if kind == "equal_weights":
        weights = (rng.randint(2, 5),) * n
    else:
        weights = tuple(rng.randint(1, 9) for _ in range(n))
    return Chamber.weighted(labels, rng.randint(1, sum(weights)), weights)


def random_system(rng: random.Random) -> ChamberSystem:
    """1-3 chambers of at least one voter each, at most 10 voters in all."""
    count = rng.randint(1, 3)
    total = rng.randint(count, 10)
    cuts = sorted(rng.sample(range(1, total), count - 1))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [total])]
    return ChamberSystem(
        tuple(
            random_chamber(rng, [f"C{c}V{i}" for i in range(n)])
            for c, n in enumerate(sizes)
        )
    )


def brute_force_pgi_cpgi(system: ChamberSystem) -> tuple[list[int], list[int]]:
    """Minimal winning and maximal losing coalitions of the whole system,
    decided straight from the chamber weights and quotas."""
    n = system.total_n

    def wins(bits: int) -> bool:
        pos = 0
        for ch in system.chambers:
            yes = sum(w for i, w in enumerate(ch.weights) if bits >> (pos + i) & 1)
            if yes < ch.quota:
                return False
            pos += ch.n
        return True

    table = [wins(bits) for bits in range(1 << n)]
    pgi, cpgi = [0] * n, [0] * n
    for bits in range(1 << n):
        members = [v for v in range(n) if bits >> v & 1]
        others = [v for v in range(n) if not bits >> v & 1]
        if table[bits] and not any(table[bits ^ 1 << v] for v in members):
            for v in members:
                pgi[v] += 1
        if not table[bits] and all(table[bits | 1 << v] for v in others):
            for v in others:
                cpgi[v] += 1
    return pgi, cpgi


def test_routes_match_whole_system_oracle_on_random_chamber_systems():
    rng = random.Random(2718)
    for _ in range(150):
        system = random_system(rng)
        assert 1 <= len(system.chambers) <= 3 and system.total_n <= 10
        reference = tbp_vector(system, "oracle")[0]
        for method in ROUTES:
            assert tbp_vector(system, method)[0] == reference, (method, system)
        assert voting._tbp_dp_route(system) == reference, system
        if all(ch.as_kofn() is not None for ch in system.chambers):
            assert tbp_vector(system, "closed_form")[0] == reference, system
        else:
            with pytest.raises(UnsupportedMethodError):
                tbp_vector(system, "closed_form")
        assert pgi_cpgi(system) == brute_force_pgi_cpgi(system), system


def brute_force_swap_robust(system: ChamberSystem) -> bool:
    """The definition, scanned directly: no two winning coalitions trade one
    member each so that both results lose."""
    winning = [bits for bits in range(1 << system.total_n) if system.evaluate(bits)]
    win_set = set(winning)
    for i1, c1 in enumerate(winning):
        for c2 in winning[i1 + 1 :]:
            a_mask = c1 & ~c2
            while a_mask:
                a = a_mask & -a_mask
                b_mask = c2 & ~c1
                while b_mask:
                    b = b_mask & -b_mask
                    if ((c1 & ~a) | b) not in win_set and ((c2 & ~b) | a) not in win_set:
                        return False
                    b_mask ^= b
                a_mask ^= a
    return True


def test_swap_robust_check_matches_definition_on_random_chamber_systems():
    rng = random.Random(1999)
    not_robust = 0
    for _ in range(150):
        system = random_system(rng)
        robust, witness = swap_robust_check(system)
        assert robust == brute_force_swap_robust(system), system
        if robust:
            assert witness is None
            continue
        not_robust += 1
        index = {lab: 1 << i for i, lab in enumerate(system.labels)}
        c1 = sum(index[lab] for lab in witness["coalition1"])
        c2 = sum(index[lab] for lab in witness["coalition2"])
        out, into = index[witness["swap_out"]], index[witness["swap_in"]]
        assert c1 & out and not c1 & into, witness
        assert c2 & into and not c2 & out, witness
        assert system.evaluate(c1) and system.evaluate(c2), witness
        assert not system.evaluate(c1 - out + into), witness
        assert not system.evaluate(c2 - into + out), witness
    assert not_robust >= 20  # 27 of the 150


def test_every_route_matches_closed_form_on_tricameral():
    system = load_system("tricameral")
    expected = tbp_vector(system, "closed_form")[0]
    for method in ROUTES:
        assert tbp_vector(system, method)[0] == expected, method
    assert voting._tbp_dp_route(system) == expected


def record_enumeration(monkeypatch) -> list:
    """Route every MWC and MLC list build through a recorder."""
    enumerated = []
    for name in ("build_mwc_sop", "build_mlc_sop"):
        real = getattr(voting, name)
        monkeypatch.setattr(
            voting, name, lambda *a, real=real, **k: enumerated.append(a) or real(*a, **k)
        )
    return enumerated


def test_kofn_chambers_sized_before_any_enumeration(monkeypatch):
    council = Chamber.weighted(("A", "B", "C", "D"), 6, (4, 3, 2, 1))
    assembly = Chamber.k_of_n(tuple(f"N{i}" for i in range(6)), 3)  # 20 MWCs
    system = ChamberSystem((council, assembly))
    enumerated = record_enumeration(monkeypatch)
    with pytest.raises(ResourceLimitError):
        tbp_vector(system, "quotient_pos", mwc_cap=10)
    assert enumerated == []


def test_dp_kernel_matches_oracle_on_random_chambers():
    rng = random.Random(4242)
    chambers = []
    for i in range(300):
        n = rng.randint(1, 9)
        factor = (1, 2, 3, 5)[i % 4]
        weights = tuple(factor * rng.randint(1, 9) for _ in range(n))
        # a random quota, mostly off the grid of the common factor; 0; unanimity
        quota = (rng.randint(0, sum(weights)), 0, sum(weights))[i % 3]
        chambers.append((weights, quota))
    for _ in range(60):
        # a unit weight beside a quota of many units (strided window sums)
        rest = tuple(rng.randint(1, 9) for _ in range(rng.randint(1, 8)))
        chambers.append(((1,) + rest, rng.randint(2, sum(rest) + 1)))
        # a weight above half the quota (one or two window blocks)
        quota = rng.randint(2, sum(rest) + 1)
        chambers.append((rest + (rng.randint(quota // 2 + 1, 2 * quota),), quota))
    for weights, quota in chambers:
        n = len(weights)
        ch = Chamber(tuple(f"V{j}" for j in range(n)), quota, weights)
        swings, weight = voting._dp_local(ch)
        assert swings == oracle_tbp(truth_table(ch.evaluate, n), n), ch
        assert weight == ch.weight() == oracle_weight(ch.evaluate, n), ch


def subset_sum_reference(weights: tuple[int, ...], quota: int) -> tuple[list[int], int]:
    """Swing counts from one subset-sum count of the other voters per voter,
    and the winning count from one count of all voters."""

    def sums(ws):
        counts = {0: 1}
        for w in ws:
            for s, c in list(counts.items()):
                counts[s + w] = counts.get(s + w, 0) + c
        return counts

    swings = [
        sum(c for s, c in sums(weights[:m] + weights[m + 1 :]).items() if quota - own <= s < quota)
        for m, own in enumerate(weights)
    ]
    return swings, sum(c for s, c in sums(weights).items() if s >= quota)


def test_dp_kernel_matches_per_voter_reference_on_60_voters():
    rng = random.Random(60)
    weights = tuple(rng.randint(1, 9) for _ in range(60))
    ch = Chamber.weighted([f"V{i}" for i in range(60)], sum(weights) * 2 // 3, weights)
    assert voting._dp_local(ch) == subset_sum_reference(weights, ch.quota)


def test_dp_table_over_cap_refused_before_it_is_built():
    # gcd 1, so the table would need 10**12 cells; the SOP route has one MWC
    system = ChamberSystem((Chamber.weighted("AB", 10**12, (10**12, 1)),))
    assert tbp_vector(system, "auto") == ([2, 0], "quotient_pos")
    with pytest.raises(ResourceLimitError, match=f"cap {voting.DP_CAP}"):
        voting._tbp_dp_route(system)
    with pytest.raises(ResourceLimitError, match=f"cap {voting.DP_CAP}"):
        system.chambers[0].weight()


def record_calls(monkeypatch, name: str) -> list:
    calls = []
    real = getattr(voting, name)
    monkeypatch.setattr(voting, name, lambda *a, **k: calls.append(a) or real(*a, **k))
    return calls


def test_auto_plans_sop_for_few_voters_with_a_wide_table(monkeypatch):
    # a 600,000-sum table costs far more steps than at most C(10, 5) = 252 MWCs
    rng = random.Random(10)
    weights = tuple(rng.randint(50_000, 100_000) for _ in range(10))
    system = ChamberSystem((Chamber.weighted("ABCDEFGHIJ", sum(weights) * 4 // 5, weights),))
    tables = record_calls(monkeypatch, "_dp_below")
    vector, used = tbp_vector(system, "auto")
    assert used == "quotient_pos" and tables == []
    assert vector == tbp_vector(system, "oracle")[0]


def test_auto_plans_each_chamber_on_its_own(monkeypatch):
    assembly = Chamber.k_of_n([f"N{i}" for i in range(12)], 7)
    council = Chamber.weighted([f"C{i}" for i in range(8)], 13, (5, 5, 4, 3, 3, 2, 1, 1))
    wide = Chamber.weighted("WXYZ", 2 * 10**6, (10**6, 10**6 - 1, 3, 2))
    system = ChamberSystem((assembly, council, wide))
    kernels = record_calls(monkeypatch, "_dp_local")
    vector, used = tbp_vector(system, "auto")
    assert used == "dp+quotient_pos" and kernels == [(council,)]
    assert vector == tbp_vector(system, "quotient_pos")[0]


def test_auto_builds_no_coalition_list_for_a_large_chamber(monkeypatch):
    rng = random.Random(2500)
    weights = tuple(rng.randint(1, 3) for _ in range(2500))
    labels = [f"V{i}" for i in range(2500)]
    system = ChamberSystem((Chamber.weighted(labels, sum(weights) // 2 + 1, weights),))
    enumerated = record_enumeration(monkeypatch)
    vector, used = tbp_vector(system, "auto")
    assert used == "dp" and enumerated == []
    per_weight = dict(zip(weights, vector))
    assert vector == [per_weight[w] for w in weights]
    assert 0 < per_weight[1] < per_weight[2] < per_weight[3]


def random_table_system(rng: random.Random) -> ChamberSystem:
    """1-3 chambers, any of them empty, at most 12 voters in all; quotas
    include 0 and unanimity."""
    count = rng.randint(1, 3)
    total = rng.randint(0, 12)
    cuts = sorted(rng.randint(0, total) for _ in range(count - 1))
    chambers = []
    for c, (a, b) in enumerate(zip([0] + cuts, cuts + [total])):
        labels = [f"C{c}V{i}" for i in range(b - a)]
        kind = rng.choice(("weighted", "k_of_n", "equal_weights"))
        if kind == "k_of_n":
            chambers.append(Chamber.k_of_n(labels, rng.randint(0, len(labels))))
            continue
        if kind == "equal_weights":
            weights = (rng.randint(2, 5),) * len(labels)
        else:
            weights = tuple(rng.randint(1, 9) for _ in labels)
        quota = rng.choice((rng.randint(0, sum(weights)), 0, sum(weights)))
        chambers.append(Chamber(labels, quota, weights))
    return ChamberSystem(tuple(chambers))


TABLE_CASES = {
    "empty chamber": lambda ch: ch.n == 0,
    "k = 0": lambda ch: ch.n > 0 and ch.quota == 0 and max(ch.weights) == 1,
    "weighted quota 0": lambda ch: ch.n > 0 and ch.quota == 0 and max(ch.weights) > 1,
    "unanimity": lambda ch: ch.n > 1 and ch.quota == sum(ch.weights),
    "equal weights above 1": lambda ch: ch.n > 1 and min(ch.weights) == max(ch.weights) > 1,
}


def test_system_truth_table_matches_evaluated_table_on_random_systems():
    rng = random.Random(8128)
    seen = set()
    for _ in range(200):
        system = random_table_system(rng)
        assert system.truth_table() == truth_table(system.evaluate, system.total_n), system
        seen.update(case for ch in system.chambers for case, has in TABLE_CASES.items() if has(ch))
    assert seen == set(TABLE_CASES)


def test_oracle_and_swap_check_call_no_evaluator(monkeypatch):
    def refuse(self, bits):
        raise AssertionError("evaluate called")

    monkeypatch.setattr(Chamber, "evaluate", refuse)
    monkeypatch.setattr(ChamberSystem, "evaluate", refuse)
    for name in ("family", "unsc", "scottish2007", "tricameral"):
        for flags in (["--method", "oracle"], ["--check", "oracle"], ["--swap-robust"]):
            assert cli.run(["--system", name, *flags], out=io.StringIO()) == 0


def test_truth_table_over_cap_refused_before_any_sum(monkeypatch):
    sums = []
    real = oracle._subset_sums
    monkeypatch.setattr(oracle, "_subset_sums", lambda ws: sums.append(ws) or real(ws))
    labels = [f"V{i}" for i in range(25)]
    system = ChamberSystem((Chamber.k_of_n(labels[:5], 3), Chamber.k_of_n(labels[5:], 11)))
    with pytest.raises(ResourceLimitError, match="25 voters exceeds oracle cap 24"):
        system.truth_table()
    with pytest.raises(ResourceLimitError, match="oracle cap 20"):
        tbp_vector(system, "oracle", oracle_cap=20)
    with pytest.raises(ResourceLimitError, match="oracle cap 24"):
        swap_robust_check(system)
    assert sums == []


def test_truth_table_of_22_voters_stays_small_and_matches_dp():
    rng = random.Random(22)
    weights = tuple(rng.randint(1, 1000) for _ in range(22))
    ch = Chamber.weighted([f"V{i}" for i in range(22)], sum(weights) // 2 + 1, weights)
    tracemalloc.start()
    try:
        table = ChamberSystem((ch,)).truth_table()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert (oracle_tbp(table, 22), table.bit_count()) == voting._dp_local(ch)
