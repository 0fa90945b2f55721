"""Check one report's rendered output against the reference answer.

The output is parsed back from the table or JSON the command printed, so
the check covers rendering as well as the numbers.  ``check_output``
returns None when the output is right and a one-line reason otherwise.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import reference as ref


class Mismatch(Exception):
    pass


def _expect_equal(what: str, got, want) -> None:
    if got != want:
        raise Mismatch(f"{what}: got {got!r}, want {want!r}")


def _check_decimal(what: str, text: str, exact: Fraction, digits: int) -> None:
    """A decimal rounded to `digits` significant digits lies within half a
    unit of its last place of the exact value (plus float slack)."""
    if exact == 0:
        _expect_equal(what, text, "0")
        return
    value = float(text)
    want = float(exact)
    unit = 10 ** (math.floor(math.log10(abs(want))) - digits + 1)
    if abs(value - want) > 0.5 * unit * (1 + 1e-9) + abs(want) * 1e-12:
        raise Mismatch(f"{what}: {text} is not {want:.{digits + 2}g} to {digits} digits")


def _check_sci(what: str, text: str, exact: int) -> None:
    if abs(float(text) - exact) > abs(exact) * 1e-3:
        raise Mismatch(f"{what}: {text} is not close to {exact}")


def _check_witness(witness: dict, labels: list[str], chambers: list[dict]) -> None:
    """Both coalitions win, each holds its named voter and not the other's,
    and swapping the two makes both lose."""
    index = {label: i for i, label in enumerate(labels)}
    wins = ref.system_evaluator(chambers)
    c1 = sum(1 << index[v] for v in witness["coalition1"])
    c2 = sum(1 << index[v] for v in witness["coalition2"])
    a, b = 1 << index[witness["swap_out"]], 1 << index[witness["swap_in"]]
    if not (wins(c1) and wins(c2) and c1 & ~c2 & a and c2 & ~c1 & b):
        raise Mismatch(f"swap witness is not two winning coalitions: {witness}")
    if wins((c1 & ~a) | b) or wins((c2 & ~b) | a):
        raise Mismatch(f"swap witness leaves a winning coalition: {witness}")


def _check_rows(rows: list[dict], total: int, expect: dict) -> None:
    indices, digits = expect["indices"], expect["digits"]
    _expect_equal("voters", [r["voter"] for r in rows], expect["labels"])
    for i, row in enumerate(rows):
        tbp = expect["tbp"][i]
        who = row["voter"]
        _expect_equal(f"{who} dummy", row["dummy"], tbp == 0)
        if "tbp" in indices:
            _expect_equal(f"{who} tbp", row["tbp"], tbp)
            if row.get("tbp_sci") is not None:
                _check_sci(f"{who} tbp_sci", row["tbp_sci"], tbp)
        if "ntbp" in indices:
            exact = Fraction(tbp, total) if total else Fraction(0)
            _expect_equal(f"{who} ntbp", row["ntbp"], f"{exact.numerator}/{exact.denominator}")
            _check_decimal(f"{who} ntbp_decimal", row["ntbp_decimal"], exact, digits)
        for key in ("pgi", "cpgi"):
            if key in indices:
                _expect_equal(f"{who} {key}", row[key], expect[key][i])


def _parse_json(text: str) -> dict:
    doc = json.loads(text)
    rows = [
        {
            "voter": v["voter"],
            "dummy": v["dummy"],
            "tbp": int(v["tbp"]) if "tbp" in v else None,
            "tbp_sci": v.get("tbp_sci"),
            "ntbp": v.get("ntbp"),
            "ntbp_decimal": v.get("ntbp_decimal"),
            "pgi": int(v["pgi"]) if "pgi" in v else None,
            "cpgi": int(v["cpgi"]) if "cpgi" in v else None,
        }
        for v in doc["voters"]
    ]
    return {
        "total": int(doc["total_tbp"]),
        "rows": rows,
        "checked": doc.get("checked_against"),
        "swap": doc.get("swap_robust"),
        "witness": doc.get("swap_witness"),
    }


def _parse_table(text: str, expect: dict) -> dict:
    lines = text.splitlines()
    out: dict = {"checked": None, "swap": None, "witness": None}
    header = None
    for i, line in enumerate(lines):
        if line.startswith("total TBP: "):
            out["total"] = int(line.split()[2])
        elif line.startswith("cross-checked against: "):
            name, verdict = line.split()[2:4]
            _expect_equal("cross-check verdict", verdict, "(agreed)")
            out["checked"] = name
        elif line.startswith("voter ") and header is None:
            header = i
        elif line.startswith("swap robust: "):
            out["swap"] = {"yes": True, "no": False}[line.split()[2]]
        elif line.startswith("  counterexample: "):
            body = line[len("  counterexample: ") :]
            first, rest = body[1:].split("} and {", 1)
            second, rest = rest.split("}, swapping ", 1)
            swap_out, rest = rest.split(" for ", 1)
            out["witness"] = {
                "coalition1": first.split(", "),
                "coalition2": second.split(", "),
                "swap_out": swap_out,
                "swap_in": rest.split(" leaves ", 1)[0],
            }
    if header is None:
        raise Mismatch("no table header")
    rows = []
    for line in lines[header + 1 : header + 1 + len(expect["labels"])]:
        cells = line.split()
        row = {"voter": cells.pop(0), "dummy": {"yes": True, "no": False}[cells.pop()]}
        if "tbp" in expect["indices"]:
            row["tbp"] = int(cells.pop(0))
            if cells and cells[0].startswith("("):
                row["tbp_sci"] = cells.pop(0).strip("()")
        if "ntbp" in expect["indices"]:
            row["ntbp"], row["ntbp_decimal"] = cells.pop(0), cells.pop(0)
        for key in ("pgi", "cpgi"):
            if key in expect["indices"]:
                row[key] = int(cells.pop(0))
        if cells:
            raise Mismatch(f"unexpected cells {cells} in row {line!r}")
        rows.append(row)
    return out | {"rows": rows}


def check_output(text: str, expect: dict) -> str | None:
    try:
        if expect["format"] == "json":
            got = _parse_json(text)
        else:
            got = _parse_table(text, expect)
        _expect_equal("total TBP", got["total"], sum(expect["tbp"]))
        _check_rows(got["rows"], got["total"], expect)
        _expect_equal("checked against", got["checked"], expect["check"])
        _expect_equal("swap robust", got["swap"], expect["swap"])
        if expect["swap"] is False:
            if got["witness"] is None:
                raise Mismatch("swap robust is 'no' without a counterexample")
            _check_witness(got["witness"], expect["labels"], expect["chambers"])
    except Mismatch as exc:
        return str(exc)
    except (KeyError, IndexError, ValueError, TypeError, AttributeError) as exc:
        return f"unparsable output: {type(exc).__name__}: {exc}"
    return None
