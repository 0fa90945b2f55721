"""Exact Banzhaf voting power via switching algebra.

Library layout:

- combinatorics: arbitrary-precision binomial and cumulative binomial tables
- boolean_core: sum-of-products forms, restriction, disjointing, weights
- symmetric: symmetric switching functions and k-out-of-n systems
- voting: voting-system models and the power-index routes
- oracle: brute-force truth-table ground truth
- specfile / cli: system-spec documents and the command-line tool
"""

from .boolean_core import Literal, Product, SopForm
from .symmetric import SymFunction, kofn_success
from .voting import (
    Chamber,
    ChamberSystem,
    PowerReport,
    ScalarWeightedSystem,
    build_mlc_sop,
    build_mwc_sop,
    pgi_cpgi,
    swap_robust_check,
    tbp_report,
    veto_equivalent_scalar,
)

__all__ = [
    "Literal",
    "Product",
    "SopForm",
    "SymFunction",
    "kofn_success",
    "Chamber",
    "ChamberSystem",
    "PowerReport",
    "ScalarWeightedSystem",
    "build_mlc_sop",
    "build_mwc_sop",
    "pgi_cpgi",
    "swap_robust_check",
    "tbp_report",
    "veto_equivalent_scalar",
]

__version__ = "0.1.0"
