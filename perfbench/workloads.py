"""Seeded workload generators.

A workload is a list of cycles; a cycle is a list of cases; a case is one
``banzhaf`` command line plus the answer the reference expects for it.  The
timed loop runs whole cycles, so every run sees the same mix of report
shapes, and only the drawn systems change with the seed.

Each case is a dict:

- ``argv``: arguments for ``banzhaf.cli.run``; ``{spec}`` stands for the
  generated spec file, which the caller writes;
- ``spec``: the system document (``{"name": ..., "chambers": [...]}``);
- ``expect``: labels, TBP, optional PGI/CPGI, swap-robust verdict, the
  ``--check`` method, the requested indices, output format and digits.

Everything here is computed by ``reference``; nothing imports the program.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import reference as ref

FIXTURES = (
    "family",
    "unsc",
    "scottish2007_reduced",
    "scottish2007",
    "tricameral",
    "usfederal",
    "usfederal_veto",
)
# Verdicts of `--swap-robust` recorded from the program at the commit that
# introduced this benchmark; a "no" is also re-checked through its witness.
SWAP_ROBUST = {
    "family": False,
    "unsc": True,
    "scottish2007_reduced": True,
    "scottish2007": True,
}
SECOND_ROUTES = ("quotient_pos", "quotient_neg", "quotient_diff", "derivative", "complement")

# Median minimal-winning-coalition count of a random scalar chamber, weights
# 1..100, over 400 draws per (voters, quota rule).  scalar_ladder keeps only
# draws within a factor 1.15 of it, because the SOP route's cost grows with
# that count and an unbounded draw would let one seed's mix dominate.
SCALAR_MWC_MEDIAN = {
    (8, "majority"): 22, (8, "two_thirds"): 14,
    (9, "majority"): 41, (9, "two_thirds"): 25,
    (10, "majority"): 69, (10, "two_thirds"): 43,
    (11, "majority"): 120, (11, "two_thirds"): 71,
    (12, "majority"): 227, (12, "two_thirds"): 126,
    (13, "majority"): 408, (13, "two_thirds"): 216,
    (14, "majority"): 729, (14, "two_thirds"): 362,
}
MWC_BAND = 1.15
# One report per (voters, quota rule) a cycle, plus two more of the costliest
# rung (14, majority) and one more of (12, two-thirds).  Sorted by cost the 17
# reports then put the 90th percentile inside the three costliest and the
# median inside the middle cluster, not on a step between unlike reports.
SCALAR_RUNGS = [(n, rule) for n in range(8, 15) for rule in ("majority", "two_thirds")]
SCALAR_RUNGS += [(12, "two_thirds")] + [(14, "majority")] * 2

# multichamber_pgi: bands on the product of per-chamber MWC counts, which is
# the size of the cross product `mwc_sop` materialises.  The top edge is the
# size guard: one report never grows past it.
PGI_PRODUCT_BANDS = ((1, 30), (31, 100), (101, 200), (201, 300))
# (band, --check route or None) per report of a cycle.  Latency rises with the
# band and with a check, so sorted by cost a cycle reads as ten ranks; the
# layout puts the median (ranks 5-6) and the 90th percentile (ranks 9-10)
# inside a pair of like reports instead of on the step between unlike ones.
PGI_SLOTS = (
    (0, None), (0, "derivative"), (1, None), (1, "complement"),
    (2, None), (2, None), (2, "quotient_neg"), (2, "quotient_diff"),
    (3, "derivative"), (3, "derivative"),
)

# weighted_dp: (council voters, quota rule, council first) per report of a
# cycle.  An 18-voter council placed first costs most: its MWC enumeration
# runs before the cap is hit.  The two-thirds one appears three times, so it
# holds ranks 19-21 of 22 by cost, below the majority one, and the 90th
# percentile falls inside it.
DP_RUNGS = [
    (n, rule, first)
    for n in range(14, 19)
    for rule in ("majority", "two_thirds")
    for first in (False, True)
]
DP_RUNGS += [(18, "two_thirds", True)] * 2
# Median MWC count of a random council, weights 1..500, over 300 draws per
# (voters, quota rule).  A council placed first has its MWCs enumerated
# before the cap is hit, so its cost grows with that count; weighted_dp keeps
# such a draw only within a factor MWC_BAND of the median, as scalar_ladder
# does.
DP_COUNCIL_MWC_MEDIAN = {
    (14, "majority"): 698, (14, "two_thirds"): 373,
    (15, "majority"): 1294, (15, "two_thirds"): 689,
    (16, "majority"): 2302, (16, "two_thirds"): 1086,
    (17, "majority"): 4544, (17, "two_thirds"): 1941,
    (18, "majority"): 7998, (18, "two_thirds"): 3570,
}


def quota_for(weights: list[int], rule: str) -> int:
    total = sum(weights)
    if rule == "majority":
        return total // 2 + 1
    return -(-2 * total // 3)


def _weighted(prefix: str, weights: list[int], quota: int) -> dict:
    return {
        "type": "weighted",
        "voters": [f"{prefix}{i + 1}" for i in range(len(weights))],
        "weights": weights,
        "quota": quota,
    }


def _kofn(prefix: str, n: int) -> dict:
    return {"type": "k_of_n", "voters": [f"{prefix}{i + 1}" for i in range(n)], "k": n // 2 + 1}


def _expect(chambers, *, indices, fmt, digits, check=None, swap=None) -> dict:
    out: dict = {
        "labels": [v for ch in chambers for v in ch["voters"]],
        "tbp": ref.system_tbp(chambers),
        "indices": indices,
        "format": fmt,
        "digits": digits,
        "check": check,
        "swap": swap,
    }
    if "pgi" in indices or "cpgi" in indices:
        out["pgi"], out["cpgi"] = ref.system_pgi_cpgi(chambers)
    if swap is not None:
        out["chambers"] = chambers  # to re-check a counterexample
    return out


def _case(spec, *, indices, fmt, digits, check=None, swap=None, system=None):
    argv = ["--system", system or "{spec}", "--index", ",".join(indices)]
    argv += ["--format", fmt, "--digits", str(digits)]
    if check:
        argv += ["--check", check]
    if swap is not None:
        argv.append("--swap-robust")
    return {
        "argv": argv,
        "spec": spec,
        "expect": _expect(
            spec["chambers"], indices=indices, fmt=fmt, digits=digits, check=check, swap=swap
        ),
    }


# ---------------------------------------------------------------------------


def fixtures_cli(rng: random.Random, cycles: int, fixture_dir: Path) -> list[list[dict]]:
    """Every bundled fixture as users invoke it under `auto`.

    The set of reports is fixed; the seed shuffles their order and picks the
    significant digits, and the second route checked rotates with the cycle.
    """
    docs = {
        name: json.loads((fixture_dir / f"{name}.json").read_text(encoding="utf-8"))
        for name in FIXTURES
    }
    tp = ["tbp", "ntbp"]
    pgi = ["tbp", "ntbp", "pgi", "cpgi"]
    out = []
    for c in range(cycles):
        plan = []
        for name in FIXTURES:
            plan.append((name, dict(indices=tp, fmt="table")))
            plan.append((name, dict(indices=tp, fmt="json")))
        for name in ("family", "unsc", "scottish2007_reduced", "scottish2007", "tricameral"):
            plan.append((name, dict(indices=pgi, fmt="table")))
        for name in ("family", "scottish2007_reduced", "scottish2007", "unsc"):
            plan.append((name, dict(indices=tp, fmt="table", check="oracle")))
        # The 31 reports sorted by cost end: unsc swap scan, tricameral PGI,
        # then this pair, which holds the 90th percentile between them.
        plan.append(("unsc", dict(indices=tp, fmt="json", check="oracle")))
        for i, name in enumerate(("unsc", "scottish2007_reduced", "scottish2007")):
            route = SECOND_ROUTES[(c + i) % len(SECOND_ROUTES)]
            plan.append((name, dict(indices=tp, fmt="json", check=route)))
        for name in ("family", "scottish2007_reduced", "scottish2007", "unsc"):
            plan.append((name, dict(indices=tp, fmt="table", swap=SWAP_ROBUST[name])))
        rng.shuffle(plan)
        out.append(
            [
                _case(docs[name], system=name, digits=rng.randint(3, 8), **kw)
                for name, kw in plan
            ]
        )
    return out


def fixtures_probe(fixture_dir: Path) -> dict:
    """The set-up probe: a cold `usfederal` table, which grows the binomial table."""
    doc = json.loads((fixture_dir / "usfederal.json").read_text(encoding="utf-8"))
    return _case(doc, system="usfederal", indices=["tbp", "ntbp"], fmt="table", digits=4)


def scalar_ladder(rng: random.Random, cycles: int, rungs=SCALAR_RUNGS) -> list[list[dict]]:
    """One weighted chamber per report, n = 8..14, weights 1..100."""
    out = []
    for c in range(cycles):
        cycle = []
        for r, (n, rule) in enumerate(rungs):
            median = SCALAR_MWC_MEDIAN[n, rule]
            while True:
                weights = [rng.randint(1, 100) for _ in range(n)]
                if len(set(weights)) < 2:
                    continue
                ch = _weighted("X", weights, quota_for(weights, rule))
                if median / MWC_BAND <= ref.mwc_count(ch) <= median * MWC_BAND:
                    break
            spec = {"name": f"scalar-{n}-{rule}-{c}-{r}", "chambers": [ch]}
            fmt = rng.choice(("table", "json"))
            cycle.append(_case(spec, indices=["tbp", "ntbp"], fmt=fmt, digits=4))
        out.append(cycle)
    return out


def _draw_multichamber(rng: random.Random, lo: int, hi: int, max_voters: int) -> list[dict]:
    while True:
        n = rng.randint(4, 7)
        weights = [rng.randint(1, 9) for _ in range(n)]
        if len(set(weights)) < 2:
            continue
        total = sum(weights)
        chambers = [_weighted("W", weights, rng.randint(total // 2 + 1, total - 1))]
        for j in range(rng.randint(1, 2)):
            chambers.append(_kofn("AB"[j], rng.randint(3, 7)))
        if sum(len(ch["voters"]) for ch in chambers) > max_voters:
            continue
        if lo <= math.prod(ref.mwc_count(ch) for ch in chambers) <= hi:
            rng.shuffle(chambers)
            return chambers


def multichamber_pgi(
    rng: random.Random, cycles: int, slots=PGI_SLOTS, max_voters: int = 21
) -> list[list[dict]]:
    """A weighted chamber and one or two k-of-n chambers, with PGI/CPGI;
    six reports in ten add a `--check` by an SOP route."""
    indices = ["tbp", "ntbp", "pgi", "cpgi"]
    out = []
    for c in range(cycles):
        cycle = []
        for s, (band, check) in enumerate(slots):
            chambers = _draw_multichamber(rng, *PGI_PRODUCT_BANDS[band], max_voters)
            spec = {"name": f"multi-{band}-{c}-{s}", "chambers": chambers}
            fmt = rng.choice(("table", "json"))
            cycle.append(_case(spec, indices=indices, fmt=fmt, digits=4, check=check))
        out.append(cycle)
    return out


def weighted_dp(
    rng: random.Random, cycles: int, rungs=DP_RUNGS, assembly_sizes=(24, 100)
) -> list[list[dict]]:
    """A weighted council (14..18 voters, weights 1..500) and a majority
    assembly of 24..100, so the MWC cap sends `auto` to the DP.

    C(24, 13) > 10**6 already, so the assembly alone trips the cap.  A
    council with two distinct weights and a quota below its total is not a
    k-of-n chamber, so the closed form never applies.
    """
    out = []
    for c in range(cycles):
        cycle = []
        for r, (n, rule, council_first) in enumerate(rungs):
            median = DP_COUNCIL_MWC_MEDIAN.get((n, rule)) if council_first else None
            while True:
                weights = [rng.randint(1, 500) for _ in range(n)]
                quota = quota_for(weights, rule)
                if len(set(weights)) < 2 or quota >= sum(weights):
                    continue
                council = _weighted("C", weights, quota)
                if median is None:
                    break
                if median / MWC_BAND <= ref.mwc_count(council) <= median * MWC_BAND:
                    break
            assembly = _kofn("A", rng.randint(*assembly_sizes))
            chambers = [council, assembly] if council_first else [assembly, council]
            spec = {"name": f"bicameral-{n}-{rule}-{c}-{r}", "chambers": chambers}
            fmt = rng.choice(("table", "json"))
            cycle.append(_case(spec, indices=["tbp", "ntbp"], fmt=fmt, digits=4))
        out.append(cycle)
    return out
