"""System-spec documents: a small JSON format for voting systems.

Shape:

    {
      "name": "unsc",
      "chambers": [
        {"type": "k_of_n", "voters": ["P1", ...], "k": 5},
        {"type": "weighted", "voters": [...], "weights": [...], "quota": 65}
      ]
    }

Malformed documents raise ParseError; well-formed documents with invalid
content raise ValidationError.  Error messages carry the field path.
"""

from __future__ import annotations

import json
import sys
from importlib import resources
from pathlib import Path
from typing import IO

from .errors import ParseError, ValidationError
from .voting import Chamber, ChamberSystem

BUNDLED = (
    "family",
    "unsc",
    "scottish2007_reduced",
    "scottish2007",
    "tricameral",
    "usfederal",
    "usfederal_veto",
)


def fixture_path(name: str) -> Path:
    """Filesystem path of a bundled fixture spec."""
    if name not in BUNDLED:
        raise ParseError(f"unknown bundled system {name!r}; have {', '.join(BUNDLED)}")
    return Path(str(resources.files("banzhaf").joinpath(f"fixtures/{name}.json")))


def load_system(name_or_path: str) -> ChamberSystem:
    """Load from a path, from standard input ('-'), or by bundled name."""
    path = Path(name_or_path)
    if name_or_path != "-" and not path.exists():
        if name_or_path not in BUNDLED:
            raise ParseError(f"no such system spec: {name_or_path}")
        path = fixture_path(name_or_path)
    try:
        if name_or_path == "-":
            return parse_spec(sys.stdin)
        with open(path, encoding="utf-8") as fh:
            return parse_spec(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read system spec {name_or_path}: {exc}") from exc


def parse_spec(source: IO[str] | str) -> ChamberSystem:
    """Parse and validate a system-spec document."""
    text = source if isinstance(source, str) else source.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError("invalid JSON: nested too deeply") from exc
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise ParseError("name: must be a string")
    chambers_doc = doc.get("chambers")
    if not isinstance(chambers_doc, list):
        raise ParseError("chambers: must be a list")
    if not chambers_doc:
        raise ValidationError("chambers: must not be empty")
    chambers = []
    for idx, entry in enumerate(chambers_doc):
        chambers.append(_parse_chamber(entry, f"chambers[{idx}]"))
    try:
        return ChamberSystem(tuple(chambers), name=name)
    except ValidationError as exc:
        raise ValidationError(f"chambers: {exc}") from exc


def _parse_chamber(entry: object, path: str) -> Chamber:
    if not isinstance(entry, dict):
        raise ParseError(f"{path}: must be an object")
    kind = entry.get("type")
    if kind not in ("weighted", "k_of_n"):
        raise ParseError(f"{path}.type: must be 'weighted' or 'k_of_n', got {kind!r}")
    voters = entry.get("voters")
    if not isinstance(voters, list) or not all(isinstance(v, str) for v in voters):
        raise ParseError(f"{path}.voters: must be a list of strings")
    try:
        if kind == "weighted":
            weights = entry.get("weights")
            quota = entry.get("quota")
            if not isinstance(weights, list) or not all(
                isinstance(w, int) and not isinstance(w, bool) for w in weights
            ):
                raise ParseError(f"{path}.weights: must be a list of integers")
            if not isinstance(quota, int) or isinstance(quota, bool):
                raise ParseError(f"{path}.quota: must be an integer")
            return Chamber.weighted(voters, quota, weights)
        k = entry.get("k")
        if not isinstance(k, int) or isinstance(k, bool):
            raise ParseError(f"{path}.k: must be an integer")
        return Chamber.k_of_n(voters, k)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
