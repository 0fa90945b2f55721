"""End-to-end acceptance checks against published reference values.

Each test covers one numbered criterion and prints a single PASS or FAIL
line on the terminal (bypassing capture) so the whole gate can be read at
a glance from any pytest run.
"""

import itertools
import random
from contextlib import contextmanager
from fractions import Fraction

from banzhaf.boolean_core import SopForm, make_disjoint, restrict, weight_disjoint
from banzhaf.combinatorics import binom, cum_binom
from banzhaf.oracle import oracle_tbp, oracle_weight, truth_table
from banzhaf.render import format_sci, format_sig
from banzhaf.specfile import BUNDLED, load_system
from banzhaf.symmetric import kofn_success
from banzhaf.voting import (
    Chamber,
    ChamberSystem,
    ScalarWeightedSystem,
    build_mwc_sop,
    mlc_sop,
    mwc_sop,
    pgi_cpgi,
    swap_robust_check,
    tbp_report,
    tbp_vector,
    veto_equivalent_scalar,
)

from conftest import product


@contextmanager
def criterion(capsys, num: int, title: str):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"FAIL criterion {num}: {title}")
        raise
    with capsys.disabled():
        print(f"PASS criterion {num}: {title}")


def test_criterion_1_family_parliament(capsys):
    with criterion(capsys, 1, "family parliament TBP/NTBP by five routes"):
        system = load_system("family")
        for method in ("derivative", "quotient_pos", "quotient_neg", "closed_form", "oracle"):
            vector, used = tbp_vector(system, method)
            assert used == method
            assert vector == [4, 4, 6, 6, 6], method
        report = tbp_report(system)
        assert report.ntbp_vector == [
            Fraction(2, 13),
            Fraction(2, 13),
            Fraction(3, 13),
            Fraction(3, 13),
            Fraction(3, 13),
        ]


def test_criterion_2_security_council(capsys):
    with criterion(capsys, 2, "security council powers and veto-equivalent scalar form"):
        system = load_system("unsc")
        report = tbp_report(system)
        assert report.tbp_vector == [848] * 5 + [84] * 10
        assert report.total_tbp == 5080
        assert format_sig(Fraction(848, 5080), 3) == "0.167"
        assert format_sig(Fraction(84, 5080), 3) == "0.0165"
        scalar = veto_equivalent_scalar(5, 4, 10)
        assert scalar.quota == 39
        assert scalar.weights == (7,) * 5 + (1,) * 10
        for bits in range(1 << 15):
            assert scalar.evaluate(bits) == system.evaluate(bits)


def test_criterion_3_reduced_five_voter_parliament(capsys):
    with criterion(capsys, 3, "reduced 5-voter parliament, direct and complement routes"):
        system = ChamberSystem.from_scalar(
            ScalarWeightedSystem(65, (47, 46, 17, 16, 2))
        )
        f = make_disjoint(mwc_sop(system))
        g = make_disjoint(mlc_sop(system))
        assert weight_disjoint(f) == 15
        assert weight_disjoint(g) == 17
        expected = [9, 7, 5, 3, 3]
        for method in ("quotient_pos", "quotient_neg", "derivative"):
            assert tbp_vector(system, method)[0] == expected
        assert tbp_vector(system, "complement")[0] == expected
        assert pgi_cpgi(system) == ([4, 3, 4, 3, 3], [3, 4, 3, 3, 3])


def test_criterion_4_extended_six_voter_parliament(capsys):
    with criterion(capsys, 4, "extended 6-voter parliament and incremental construction"):
        reduced = ScalarWeightedSystem(65, (47, 46, 17, 16, 2))
        extended = ScalarWeightedSystem(65, (47, 46, 17, 16, 2, 1))
        system = ChamberSystem.from_scalar(extended)
        assert weight_disjoint(make_disjoint(mwc_sop(system))) == 32
        expected = [18, 14, 10, 6, 6, 2]
        for method in ("quotient_neg", "quotient_pos", "complement", "derivative"):
            assert tbp_vector(system, method)[0] == expected
        pgi, cpgi = pgi_cpgi(system)
        assert pgi == cpgi == [5, 4, 5, 4, 4, 2]
        # incremental route: lift the 5-voter decision to 6 variables
        # (doubling its weight) and OR in the two new coalitions
        lifted = SopForm(6, build_mwc_sop(reduced).products)
        assert weight_disjoint(make_disjoint(lifted)) == 30
        combined = SopForm(
            6, lifted.products + (product(0, 2, 5), product(1, 3, 4, 5))
        )
        direct = build_mwc_sop(extended)
        assert combined.minterms() == direct.minterms()


def test_criterion_5_tricameral_parliament(capsys):
    with criterion(capsys, 5, "tri-cameral parliament, closed form vs factored oracle"):
        system = load_system("tricameral")
        vector, used = tbp_vector(system, "closed_form")
        assert used == "closed_form"
        assert vector == [12992] * 9 + [11040] * 7 + [8004] * 5
        # the whole-system oracle: 21 voters are within the default cap of 24
        assert tbp_vector(system, "oracle")[0] == vector
        # the chambers vote independently, so a member's swing count also
        # factors into the chamber-local oracle swing times the other
        # chambers' winning counts
        per_chamber = []
        for ch in system.chambers:
            local = kofn_success(ch.quota, ch.n)
            swing = oracle_tbp(truth_table(local.evaluate, ch.n), ch.n)[0]
            weight = oracle_weight(local.evaluate, ch.n)
            per_chamber.append((swing, weight))
        for i, (swing, _) in enumerate(per_chamber):
            for j, (_, weight) in enumerate(per_chamber):
                if j != i:
                    swing *= weight
            start = sum(ch.n for ch in system.chambers[:i])
            assert swing == vector[start]


def test_criterion_6_federal_approximations(capsys):
    with criterion(capsys, 6, "federal two-chamber big-integer approximations"):
        plain = tbp_vector(load_system("usfederal"), "closed_form")[0]
        veto = tbp_vector(load_system("usfederal_veto"), "closed_form")[0]
        senator, rep = plain[0], plain[100]
        senator_v, rep_v = veto[0], veto[100]
        assert senator == binom(99, 50) * cum_binom(435, 218)
        assert rep == cum_binom(100, 51) * binom(434, 217)
        assert format_sci(senator) == "2.238e+159"
        assert format_sci(rep) == "9.906e+158"
        assert format_sci(senator_v) == "2.804e+145"
        assert format_sci(rep_v) == "2.656e+145"
        assert format_sig(Fraction(senator, rep), 4) == "2.259"
        assert format_sig(Fraction(senator_v, rep_v), 4) == "1.056"


def test_criterion_7_binomial_triangles(capsys):
    with criterion(capsys, 7, "binomial and cumulative-binomial triangles"):
        import math

        for n in range(11):
            for k in range(n + 1):
                assert binom(n, k) == math.comb(n, k)
                assert cum_binom(n, k) == sum(math.comb(n, m) for m in range(k, n + 1))
        assert binom(9, 3) == 84
        assert cum_binom(10, 4) == 848


def test_criterion_8_property_suites(capsys):
    with criterion(capsys, 8, "randomized property suites"):
        rng = random.Random(2024)

        # (a) five routes agree on 100 random monotone scalar systems
        for _ in range(100):
            n = rng.randint(2, 10)
            weights = tuple(rng.randint(1, 9) for _ in range(n))
            quota = rng.randint(1, sum(weights))
            system = ChamberSystem.from_scalar(ScalarWeightedSystem(quota, weights))
            reference = tbp_vector(system, "oracle")[0]
            for method in ("derivative", "quotient_pos", "quotient_neg", "complement"):
                assert tbp_vector(system, method)[0] == reference, method

        # (b) restriction preserves disjoint certification
        from conftest import random_sop
        from banzhaf.boolean_core import is_pairwise_disjoint

        for _ in range(200):
            f = make_disjoint(random_sop(rng, rng.randint(1, 6)))
            var = rng.randrange(f.n)
            restricted = restrict(f, var, rng.randint(0, 1))
            assert restricted.disjoint_certified
            assert is_pairwise_disjoint(restricted)

        # (c) a function and its complement tile the whole truth table
        for name in BUNDLED:
            system = load_system(name)
            n = system.total_n
            wt_f = 1
            for ch in system.chambers:
                wt_f *= ch.weight()
            # complement weight by inclusion-exclusion over chamber failures
            wt_not_f = 0
            chambers = list(system.chambers)
            for r in range(1, len(chambers) + 1):
                for subset in itertools.combinations(chambers, r):
                    term = 1
                    free = n - sum(ch.n for ch in subset)
                    for ch in subset:
                        term *= (1 << ch.n) - ch.weight()
                    wt_not_f += (-1) ** (r + 1) * (term << free)
            assert wt_f + wt_not_f == 1 << n, name

        # (d) every voter of a k-out-of-n system holds power exactly 1/n
        for n in range(1, 13):
            for k in range(1, n + 1):
                system = ChamberSystem(
                    (Chamber.k_of_n(tuple(f"V{i}" for i in range(n)), k),)
                )
                report = tbp_report(system)
                assert all(v.ntbp == Fraction(1, n) for v in report.voters)

        # (e) pointwise OR-derivative identity on random pairs
        for _ in range(40):
            n = rng.randint(1, 5)
            f1, f2 = random_sop(rng, n), random_sop(rng, n)
            union = SopForm(n, f1.products + f2.products)
            var = rng.randrange(n)
            bit = 1 << var
            for bits in range(1 << n):
                d1 = f1.evaluate(bits | bit) != f1.evaluate(bits & ~bit)
                d2 = f2.evaluate(bits | bit) != f2.evaluate(bits & ~bit)
                lhs = union.evaluate(bits | bit) != union.evaluate(bits & ~bit)
                rhs = (
                    ((not f1.evaluate(bits)) and d2)
                    ^ (d1 and (not f2.evaluate(bits)))
                    ^ (d1 and d2)
                )
                assert lhs == rhs

        # (f) scalar systems are swap robust; the family system is not
        for _ in range(20):
            n = rng.randint(2, 6)
            weights = tuple(rng.randint(1, 9) for _ in range(n))
            quota = rng.randint(1, sum(weights))
            system = ChamberSystem.from_scalar(ScalarWeightedSystem(quota, weights))
            assert swap_robust_check(system)[0]
        robust, witness = swap_robust_check(load_system("family"))
        assert not robust
        assert {witness["swap_out"][0], witness["swap_in"][0]} == {"P", "X"}
