"""Voting-system models, prime implicant enumeration, and the power-index
routes, cross-checked against each other and the brute-force oracle."""

import random
from fractions import Fraction

import pytest

from banzhaf.boolean_core import make_disjoint, weight_disjoint
from banzhaf.errors import (
    DomainError,
    ResourceLimitError,
    UnsupportedMethodError,
    ValidationError,
)
from banzhaf.oracle import oracle_monotone, oracle_tbp, oracle_weight, truth_table
from banzhaf.specfile import load_system
from banzhaf.voting import (
    Chamber,
    ChamberSystem,
    ScalarWeightedSystem,
    build_mlc_sop,
    build_mwc_sop,
    mlc_sop,
    mwc_sop,
    pgi_cpgi,
    swap_robust_check,
    tbp_report,
    tbp_vector,
    veto_equivalent_scalar,
)

SCOTTISH = ScalarWeightedSystem(65, (47, 46, 17, 16, 2))
SCOTTISH6 = ScalarWeightedSystem(65, (47, 46, 17, 16, 2, 1))

NON_AUTO = ("derivative", "quotient_pos", "quotient_neg", "quotient_diff", "complement", "oracle")


def positive_sets(form):
    return [frozenset(lit.var for lit in p.literals()) for p in form.products]


def negative_sets(form):
    return [frozenset(lit.var for lit in p.literals()) for p in form.products]


# --- scalar systems --------------------------------------------------------


def test_scalar_validation():
    with pytest.raises(ValidationError):
        ScalarWeightedSystem(3, ())
    with pytest.raises(ValidationError):
        ScalarWeightedSystem(3, (2, 0))
    with pytest.raises(ValidationError):
        ScalarWeightedSystem(0, (1, 1))
    with pytest.raises(ValidationError):
        ScalarWeightedSystem(5, (2, 2))
    with pytest.raises(ValidationError):
        ScalarWeightedSystem(3, (2, 2), labels=("A",))
    with pytest.raises(ValidationError):
        ScalarWeightedSystem(3, (2, 2), labels=("A", "A"))


def test_scalar_defaults_and_evaluate():
    assert SCOTTISH.labels == ("X1", "X2", "X3", "X4", "X5")
    assert SCOTTISH.prudent
    assert SCOTTISH.evaluate(0b00011)  # X1 + X2 = 93
    assert not SCOTTISH.evaluate(0b11100)  # 17 + 16 + 2 = 35
    assert not ScalarWeightedSystem(1, (1, 1, 1)).prudent


# --- chambers --------------------------------------------------------------


def test_chamber_validation():
    with pytest.raises(ValidationError):
        Chamber(("A", "B"), 1, (1,))
    with pytest.raises(ValidationError):
        Chamber(("A", "B"), 3, (1, 1))
    with pytest.raises(ValidationError):
        Chamber.k_of_n(("A", "B"), 3)
    with pytest.raises(ValidationError):
        Chamber.weighted(("A", "B"), 0, (1, 1))
    # k = 0 is the constant-true chamber
    assert Chamber.k_of_n(("A", "B"), 0) == Chamber(("A", "B"), 0, (1, 1))
    assert Chamber.k_of_n(("A", "B"), 0).evaluate(0)


def test_chamber_kofn_reduction():
    assert Chamber.k_of_n(("A", "B", "C"), 2).as_kofn() == (2, 3)
    # equal weights: quota 5 at weight 2 needs 3 voters
    assert Chamber.weighted("ABCD", 5, (2, 2, 2, 2)).as_kofn() == (3, 4)
    # unanimity regardless of weight spread
    assert Chamber.weighted("AB", 7, (4, 3)).as_kofn() == (2, 2)
    assert Chamber.weighted(SCOTTISH.labels, 65, SCOTTISH.weights).as_kofn() is None


def test_chamber_weight_routes_agree():
    cases = [
        Chamber.k_of_n("ABCDE", 3),
        Chamber.weighted(SCOTTISH.labels, 65, SCOTTISH.weights),
        Chamber.weighted("ABC", 4, (3, 2, 1)),
    ]
    for ch in cases:
        assert ch.weight() == oracle_weight(ch.evaluate, ch.n)


def test_chamber_symmetric_blocks():
    ch = Chamber.weighted("ABCDE", 65, (47, 46, 17, 16, 2))
    assert ch.symmetric_blocks() == [[0], [1], [2], [3], [4]]
    ch = Chamber.weighted("ABCD", 5, (3, 2, 2, 3))
    assert ch.symmetric_blocks() == [[0, 3], [1, 2]]
    assert Chamber.k_of_n("ABC", 2).symmetric_blocks() == [[0, 1, 2]]


# --- prime implicants ------------------------------------------------------


def test_build_mwc_sop_reference_products():
    form = build_mwc_sop(SCOTTISH)
    assert positive_sets(form) == [
        frozenset(s)
        for s in [{0, 1}, {0, 2, 3}, {0, 2, 4}, {0, 3, 4}, {1, 2, 3}, {1, 2, 4}]
    ]
    assert all(p.neg == 0 for p in form.products)


def test_build_mwc_sop_extended_adds_two():
    base = {frozenset(s) for s in positive_sets(build_mwc_sop(SCOTTISH))}
    extended = {frozenset(s) for s in positive_sets(build_mwc_sop(SCOTTISH6))}
    assert extended - base == {frozenset({0, 2, 5}), frozenset({1, 3, 4, 5})}


def test_build_mwc_sop_minimality_and_coverage():
    rng = random.Random(29)
    for _ in range(40):
        n = rng.randint(1, 8)
        weights = tuple(rng.randint(1, 9) for _ in range(n))
        quota = rng.randint(1, sum(weights))
        sys = ScalarWeightedSystem(quota, weights)
        form = build_mwc_sop(sys)
        # the SOP is the decision function
        assert form.minterms() == {
            bits for bits in range(1 << n) if sys.evaluate(bits)
        }
        for coalition in positive_sets(form):
            total = sum(weights[v] for v in coalition)
            assert total >= quota
            assert all(total - weights[v] < quota for v in coalition)


def test_build_mwc_sop_deep_unanimity_chamber():
    # 1,200 voters must all join: the search is 1,200 levels deep
    weights = (1, 2) * 600
    chamber = Chamber.weighted([f"V{i}" for i in range(1200)], sum(weights), weights)
    vector, used = tbp_vector(ChamberSystem((chamber,)), "quotient_pos")
    assert used == "quotient_pos"
    assert vector == [1] * 1200


def test_build_mwc_sop_cap():
    sys = ScalarWeightedSystem(5, (1,) * 10)
    with pytest.raises(ResourceLimitError):
        build_mwc_sop(sys, cap=10)


def test_build_mlc_sop_reference_products():
    form = build_mlc_sop(SCOTTISH)
    assert negative_sets(form) == [
        frozenset(s)
        for s in [{0, 1}, {0, 2}, {0, 3, 4}, {1, 2, 3}, {1, 2, 4}, {1, 3, 4}]
    ]
    assert all(p.pos == 0 for p in form.products)
    # complement truth table
    assert form.minterms() == {
        bits for bits in range(32) if not SCOTTISH.evaluate(bits)
    }


def test_mwc_sop_cross_product():
    system = load_system("family")
    form = mwc_sop(system)
    assert positive_sets(form) == [
        frozenset(s)
        for s in [
            {0, 2, 3},
            {0, 2, 4},
            {0, 3, 4},
            {1, 2, 3},
            {1, 2, 4},
            {1, 3, 4},
        ]
    ]


def test_mlc_sop_union():
    system = load_system("family")
    form = mlc_sop(system)
    assert negative_sets(form) == [
        frozenset(s) for s in [{0, 1}, {2, 3}, {2, 4}, {3, 4}]
    ]
    assert form.minterms() == {
        bits for bits in range(32) if not system.evaluate(bits)
    }


# --- chamber systems -------------------------------------------------------


def test_chamber_system_validation():
    with pytest.raises(ValidationError):
        ChamberSystem(())
    with pytest.raises(ValidationError):
        ChamberSystem(
            (Chamber.k_of_n(("A", "B"), 1), Chamber.k_of_n(("B", "C"), 1))
        )


def test_chamber_system_evaluate_and_offsets():
    system = load_system("family")
    assert system.offsets == (0, 2)
    assert system.labels == ("P1", "P2", "X1", "X2", "X3")
    assert system.evaluate(0b01101)  # P1, X1, X2
    assert not system.evaluate(0b01100)  # no parent
    assert not system.evaluate(0b00111)  # one child only


def test_warnings_flag_low_quota():
    system = load_system("family")  # 1-of-2 chamber is not a strict majority
    assert any("chamber 1" in w for w in system.warnings())
    assert load_system("usfederal").warnings() == []


# --- closed form -----------------------------------------------------------


def test_closed_form_unsc():
    vector, used = tbp_vector(load_system("unsc"), "closed_form")
    assert used == "closed_form"
    assert vector == [848] * 5 + [84] * 10


def test_closed_form_needs_kofn_chambers():
    with pytest.raises(UnsupportedMethodError):
        tbp_vector(ChamberSystem.from_scalar(SCOTTISH), "closed_form")


# --- TBP routes ------------------------------------------------------------


def test_all_routes_agree_on_family():
    system = load_system("family")
    expected = [4, 4, 6, 6, 6]
    for method in NON_AUTO + ("closed_form",):
        vector, used = tbp_vector(system, method)
        assert vector == expected, method
        assert used == method
    vector, used = tbp_vector(system, "auto")
    assert vector == expected and used == "closed_form"


def test_all_routes_agree_on_scottish():
    system = ChamberSystem.from_scalar(SCOTTISH)
    for method in NON_AUTO:
        assert tbp_vector(system, method)[0] == [9, 7, 5, 3, 3], method
    vector, used = tbp_vector(system, "auto")
    assert vector == [9, 7, 5, 3, 3] and used == "quotient_pos"


def test_unknown_method_rejected():
    with pytest.raises(UnsupportedMethodError):
        tbp_vector(load_system("family"), "shapley")


def test_auto_falls_back_to_dp_when_capped():
    system = ChamberSystem.from_scalar(SCOTTISH)
    # 5 voters may have C(5, 2) = 10 MWCs, over the cap, so auto plans dp
    vector, used = tbp_vector(system, "auto", mwc_cap=2)
    assert used == "dp"
    assert vector == [9, 7, 5, 3, 3]


def test_oracle_route_respects_cap():
    with pytest.raises(ResourceLimitError):
        tbp_vector(load_system("tricameral"), "oracle", oracle_cap=16)


def test_routes_agree_on_random_scalar_systems():
    rng = random.Random(37)
    for _ in range(30):
        n = rng.randint(2, 8)
        weights = tuple(rng.randint(1, 9) for _ in range(n))
        quota = rng.randint(1, sum(weights))
        system = ChamberSystem.from_scalar(ScalarWeightedSystem(quota, weights))
        reference = tbp_vector(system, "oracle")[0]
        for method in ("quotient_pos", "complement"):
            assert tbp_vector(system, method)[0] == reference
        assert tbp_vector(system, "auto")[0] == reference


def test_symmetric_fanout_matches_per_voter_oracle():
    # equal-weight groups must not collapse distinct voters incorrectly
    system = ChamberSystem.from_scalar(ScalarWeightedSystem(6, (3, 3, 2, 2, 1)))
    assert tbp_vector(system, "auto")[0] == oracle_tbp(truth_table(system.evaluate, 5), 5)


# --- reports ---------------------------------------------------------------


def test_tbp_report_family():
    report = tbp_report(load_system("family"))
    assert report.total_tbp == 26
    assert report.ntbp_vector == [
        Fraction(2, 13),
        Fraction(2, 13),
        Fraction(3, 13),
        Fraction(3, 13),
        Fraction(3, 13),
    ]
    assert not any(v.dummy for v in report.voters)
    assert report.system_name == "family"


def test_tbp_report_flags_dummy():
    system = ChamberSystem.from_scalar(ScalarWeightedSystem(8, (5, 3, 1)))
    report = tbp_report(system)
    assert report.tbp_vector == [2, 2, 0]
    assert [v.dummy for v in report.voters] == [False, False, True]
    assert report.voters[2].ntbp == 0


def test_tbp_report_with_pgi():
    report = tbp_report(ChamberSystem.from_scalar(SCOTTISH), with_pgi=True)
    assert [v.pgi for v in report.voters] == [4, 3, 4, 3, 3]
    assert [v.cpgi for v in report.voters] == [3, 4, 3, 3, 3]


def test_local_monotonicity_with_weights():
    rng = random.Random(41)
    for _ in range(25):
        n = rng.randint(2, 8)
        weights = tuple(sorted((rng.randint(1, 9) for _ in range(n)), reverse=True))
        quota = rng.randint(1, sum(weights))
        system = ChamberSystem.from_scalar(ScalarWeightedSystem(quota, weights))
        vector = tbp_vector(system, "auto")[0]
        assert all(v >= 0 for v in vector)
        assert all(vector[i] >= vector[i + 1] for i in range(n - 1))


# --- PGI / CPGI ------------------------------------------------------------


def test_pgi_cpgi_scottish():
    assert pgi_cpgi(ChamberSystem.from_scalar(SCOTTISH)) == (
        [4, 3, 4, 3, 3],
        [3, 4, 3, 3, 3],
    )


def test_pgi_cpgi_extended_coincide():
    pgi, cpgi = pgi_cpgi(ChamberSystem.from_scalar(SCOTTISH6))
    assert pgi == cpgi == [5, 4, 5, 4, 4, 2]


# --- structural checks -----------------------------------------------------


def test_swap_robust_scalar_systems():
    rng = random.Random(43)
    for _ in range(15):
        n = rng.randint(2, 6)
        weights = tuple(rng.randint(1, 9) for _ in range(n))
        quota = rng.randint(1, sum(weights))
        system = ChamberSystem.from_scalar(ScalarWeightedSystem(quota, weights))
        robust, witness = swap_robust_check(system)
        assert robust and witness is None


def test_swap_robust_family_counterexample():
    robust, witness = swap_robust_check(load_system("family"))
    assert not robust
    swapped = {witness["swap_out"][0], witness["swap_in"][0]}
    assert swapped == {"P", "X"}  # a parent traded against a child
    # replay the witness: both post-swap coalitions must lose
    system = load_system("family")
    idx = {lab: i for i, lab in enumerate(system.labels)}
    c1 = {idx[lab] for lab in witness["coalition1"]}
    c2 = {idx[lab] for lab in witness["coalition2"]}
    out, into = idx[witness["swap_out"]], idx[witness["swap_in"]]
    c1_new = (c1 - {out}) | {into}
    c2_new = (c2 - {into}) | {out}
    for c in (c1, c2):
        assert system.evaluate(sum(1 << v for v in c))
    for c in (c1_new, c2_new):
        assert not system.evaluate(sum(1 << v for v in c))


def test_swap_robust_cap():
    with pytest.raises(ResourceLimitError):
        swap_robust_check(load_system("usfederal"))


def test_monotone_and_causal_fixtures():
    for name in ("family", "unsc", "scottish2007_reduced", "scottish2007"):
        system = load_system(name)
        ok, witness = oracle_monotone(system.evaluate, system.total_n)
        assert ok and witness is None
        assert not system.evaluate(0)
        assert system.evaluate((1 << system.total_n) - 1)


# --- veto construction -----------------------------------------------------


def test_veto_equivalent_scalar_reference():
    scalar = veto_equivalent_scalar(5, 4, 10)
    assert scalar.quota == 39
    assert scalar.weights == (7,) * 5 + (1,) * 10
    assert scalar.labels[:5] == ("P1", "P2", "P3", "P4", "P5")


def test_veto_equivalent_scalar_truth_table():
    scalar = veto_equivalent_scalar(2, 2, 3)
    system = ChamberSystem(
        (Chamber.k_of_n(("P1", "P2"), 2), Chamber.k_of_n(("N1", "N2", "N3"), 2))
    )
    for bits in range(1 << 5):
        assert scalar.evaluate(bits) == system.evaluate(bits)


def test_veto_equivalent_scalar_errors():
    with pytest.raises(DomainError):
        veto_equivalent_scalar(-1, 2, 3)
    with pytest.raises(DomainError):
        veto_equivalent_scalar(1, 4, 3)
    with pytest.raises(DomainError):
        veto_equivalent_scalar(0, 0, 3)


# --- incremental construction ----------------------------------------------


def test_extended_system_by_augmentation():
    """Lifting the 5-voter decision to 6 variables and ORing the two new
    minimal winning coalitions reproduces the 6-voter system exactly."""
    from banzhaf.boolean_core import SopForm

    from conftest import product

    base = build_mwc_sop(SCOTTISH)
    lifted = SopForm(6, base.products)
    extra = (product(0, 2, 5), product(1, 3, 4, 5))
    combined = SopForm(6, lifted.products + extra)
    direct = build_mwc_sop(SCOTTISH6)
    assert combined.minterms() == direct.minterms()
    # lifting alone doubles the weight; the new coalitions add the rest
    assert weight_disjoint(make_disjoint(lifted)) == 30
    assert weight_disjoint(make_disjoint(direct)) == 32
