"""Command-line front end.

Parses a system-spec document, computes the requested power indices by the
chosen method, and emits an aligned table or a machine-readable JSON
document.  All numbers in JSON output are strings (exact integers and
"p/q" rationals) so that parsing the output recovers the values exactly.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import oracle as oracle_mod
from .errors import (
    CrossCheckError,
    DomainError,
    ParseError,
    ResourceLimitError,
    UnsupportedMethodError,
    ValidationError,
)
from .render import SCI_THRESHOLD, format_int, format_sci, format_sig
from .specfile import BUNDLED, load_system
from .voting import METHODS, PowerReport, swap_robust_check, tbp_report, tbp_vector

EXIT_CODES = {
    ParseError: 2,
    ValidationError: 3,
    UnsupportedMethodError: 4,
    DomainError: 4,
    ResourceLimitError: 5,
    CrossCheckError: 6,
}

INDICES = ("tbp", "ntbp", "pgi", "cpgi")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="banzhaf",
        description="Exact Banzhaf voting power and Public Good Index reports "
        "for weighted monotone voting systems.",
    )
    parser.add_argument(
        "--system",
        required=True,
        help="path to a system spec, '-' for stdin, or a bundled name "
        f"({', '.join(BUNDLED)})",
    )
    parser.add_argument(
        "--index",
        default="tbp,ntbp",
        help="comma-separated list from: " + ", ".join(INDICES),
    )
    parser.add_argument("--method", default="auto", choices=METHODS)
    parser.add_argument(
        "--check",
        metavar="METHOD",
        choices=[m for m in METHODS if m != "auto"],
        help="recompute with a second method and fail on disagreement",
    )
    parser.add_argument(
        "--swap-robust",
        action="store_true",
        help="also test swap robustness (needs voter count within the oracle cap)",
    )
    parser.add_argument("--format", default="table", choices=("table", "json"))
    parser.add_argument(
        "--digits", type=int, default=4, help="significant digits for decimals"
    )
    parser.add_argument(
        "--oracle-cap",
        type=int,
        default=oracle_mod.DEFAULT_ORACLE_CAP,
        help="max voter count for exhaustive enumeration",
    )
    return parser


def run(argv: list[str] | None = None, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.digits < 1:
        parser.error(f"argument --digits: must be at least 1, got {args.digits}")
    if args.oracle_cap < 0:
        parser.error(f"argument --oracle-cap: must be at least 0, got {args.oracle_cap}")
    indices = [s.strip() for s in args.index.split(",") if s.strip()]
    for idx in indices:
        if idx not in INDICES:
            raise ValidationError(f"unknown index {idx!r}; choose from {', '.join(INDICES)}")
    system = load_system(args.system)
    want_pgi = "pgi" in indices or "cpgi" in indices
    report = tbp_report(
        system, args.method, oracle_cap=args.oracle_cap, with_pgi=want_pgi
    )
    if args.check:
        other, _ = tbp_vector(system, args.check, oracle_cap=args.oracle_cap)
        if other != report.tbp_vector:
            raise CrossCheckError(
                f"methods {report.method} and {args.check} disagree: "
                f"{report.tbp_vector} vs {other}"
            )
    swap_result = None
    if args.swap_robust:
        swap_result = swap_robust_check(system, cap=args.oracle_cap)
    if args.format == "json":
        out.write(_render_json(report, indices, args, swap_result))
    else:
        out.write(_render_table(report, indices, args, swap_result))
    return 0


def _render_json(report: PowerReport, indices, args, swap_result) -> str:
    doc: dict = {
        "system": report.system_name,
        "method": report.method,
        "total_tbp": str(report.total_tbp),
        "warnings": report.warnings,
        "voters": [],
    }
    if args.check:
        doc["checked_against"] = args.check
    for v in report.voters:
        row: dict = {"voter": v.label, "dummy": v.dummy}
        if "tbp" in indices:
            row["tbp"] = str(v.tbp)
            if abs(v.tbp) >= SCI_THRESHOLD:
                row["tbp_sci"] = format_sci(v.tbp)
        if "ntbp" in indices:
            row["ntbp"] = f"{v.ntbp.numerator}/{v.ntbp.denominator}"
            row["ntbp_decimal"] = format_sig(v.ntbp, args.digits)
        if "pgi" in indices:
            row["pgi"] = str(v.pgi)
        if "cpgi" in indices:
            row["cpgi"] = str(v.cpgi)
        doc["voters"].append(row)
    if swap_result is not None:
        robust, witness = swap_result
        doc["swap_robust"] = robust
        if witness is not None:
            doc["swap_witness"] = witness
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _render_table(report: PowerReport, indices, args, swap_result) -> str:
    lines = []
    title = report.system_name or "voting system"
    lines.append(f"system: {title}")
    lines.append(f"method: {report.method}")
    if args.check:
        lines.append(f"cross-checked against: {args.check} (agreed)")
    lines.append(f"total TBP: {format_int(report.total_tbp)}")
    for warning in report.warnings:
        lines.append(f"warning: {warning}")

    header = ["voter"]
    if "tbp" in indices:
        header.append("TBP")
    if "ntbp" in indices:
        header += ["NTBP", "NTBP(dec)"]
    if "pgi" in indices:
        header.append("PGI")
    if "cpgi" in indices:
        header.append("CPGI")
    header.append("dummy")
    rows = [header]
    for v in report.voters:
        row = [v.label]
        if "tbp" in indices:
            row.append(format_int(v.tbp))
        if "ntbp" in indices:
            row.append(f"{v.ntbp.numerator}/{v.ntbp.denominator}")
            row.append(format_sig(v.ntbp, args.digits))
        if "pgi" in indices:
            row.append(str(v.pgi))
        if "cpgi" in indices:
            row.append(str(v.cpgi))
        row.append("yes" if v.dummy else "no")
        rows.append(row)
    widths = [max(len(r[c]) for r in rows) for c in range(len(header))]
    for r in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())

    if swap_result is not None:
        robust, witness = swap_result
        lines.append(f"swap robust: {'yes' if robust else 'no'}")
        if witness is not None:
            lines.append(
                "  counterexample: {%s} and {%s}, swapping %s for %s leaves both losing"
                % (
                    ", ".join(witness["coalition1"]),
                    ", ".join(witness["coalition2"]),
                    witness["swap_out"],
                    witness["swap_in"],
                )
            )
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    try:
        return run(argv)
    except BrokenPipeError:
        return 0
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
