"""Command-line behavior: rendering, method selection, exit codes."""

import io
import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import banzhaf.cli as cli
from banzhaf.errors import ValidationError
from banzhaf.specfile import load_system, parse_spec
from banzhaf.voting import METHODS, swap_robust_check, tbp_report


def run_cli(*argv: str) -> str:
    buf = io.StringIO()
    assert cli.run(list(argv), out=buf) == 0
    return buf.getvalue()


def test_table_output_family():
    text = run_cli("--system", "family")
    assert "system: family" in text
    assert "method: closed_form" in text
    assert "total TBP: 26" in text
    lines = [ln for ln in text.splitlines() if ln.startswith("X1")]
    assert lines and "6" in lines[0] and "3/13" in lines[0]


def test_json_output_round_trip():
    doc = json.loads(run_cli("--system", "family", "--format", "json"))
    assert doc["system"] == "family"
    assert doc["total_tbp"] == "26"
    first = doc["voters"][0]
    assert first == {
        "voter": "P1",
        "dummy": False,
        "tbp": "4",
        "ntbp": "2/13",
        "ntbp_decimal": "0.1538",
    }


def test_index_selection():
    text = run_cli(
        "--system", "scottish2007_reduced", "--index", "tbp,pgi,cpgi"
    )
    assert "PGI" in text and "CPGI" in text and "NTBP" not in text
    doc = json.loads(
        run_cli("--system", "scottish2007_reduced", "--index", "pgi", "--format", "json")
    )
    assert [v["pgi"] for v in doc["voters"]] == ["4", "3", "4", "3", "3"]
    assert "tbp" not in doc["voters"][0]


def test_unknown_index_rejected():
    with pytest.raises(ValidationError):
        cli.run(["--system", "family", "--index", "shapley"], out=io.StringIO())


def test_method_flag_and_check():
    text = run_cli(
        "--system", "unsc", "--method", "closed_form", "--check", "oracle"
    )
    assert "method: closed_form" in text
    assert "cross-checked against: oracle (agreed)" in text


def test_digits_flag():
    doc = json.loads(
        run_cli("--system", "unsc", "--format", "json", "--digits", "3")
    )
    decimals = {v["voter"][0]: v["ntbp_decimal"] for v in doc["voters"]}
    assert decimals["P"] == "0.167"
    assert decimals["N"] == "0.0165"


def test_scientific_annotation_for_huge_counts():
    text = run_cli("--system", "usfederal", "--index", "tbp")
    assert "2.238e+159" in text
    assert "9.906e+158" in text


def test_swap_robust_flag():
    text = run_cli("--system", "family", "--swap-robust")
    assert "swap robust: no" in text
    assert "counterexample" in text
    doc = json.loads(
        run_cli("--system", "scottish2007_reduced", "--swap-robust", "--format", "json")
    )
    assert doc["swap_robust"] is True
    assert "swap_witness" not in doc


def test_tricameral_oracle_check_and_swap_scan():
    argv = ["--system", "tricameral", "--check", "oracle", "--swap-robust"]
    assert "swap robust: no" in run_cli(*argv)
    doc = json.loads(run_cli(*argv, "--format", "json"))
    assert doc["swap_robust"] is False
    system = load_system("tricameral")
    index = {lab: 1 << i for i, lab in enumerate(system.labels)}
    witness = doc["swap_witness"]
    c1, c2 = (sum(index[lab] for lab in witness[key]) for key in ("coalition1", "coalition2"))
    out, into = index[witness["swap_out"]], index[witness["swap_in"]]
    assert c1 & out and not c1 & into and c2 & into and not c2 & out
    assert system.evaluate(c1) and system.evaluate(c2)
    assert not system.evaluate(c1 - out + into) and not system.evaluate(c2 - into + out)


def test_zero_voter_constant_true_chamber(monkeypatch):
    spec = {"name": "empty", "chambers": [{"type": "k_of_n", "voters": [], "k": 0}]}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(spec)))
    doc = json.loads(
        run_cli("--system", "-", "--method", "oracle", "--swap-robust", "--format", "json")
    )
    assert doc["voters"] == [] and doc["total_tbp"] == "0"
    assert doc["swap_robust"] is True


def test_stdin_spec(monkeypatch):
    spec = json.dumps(
        {
            "name": "pipe",
            "chambers": [{"type": "k_of_n", "voters": ["A", "B", "C"], "k": 2}],
        }
    )
    monkeypatch.setattr("sys.stdin", io.StringIO(spec))
    text = run_cli("--system", "-")
    assert "system: pipe" in text


def test_exit_code_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert cli.main(["--system", str(bad)]) == 2
    assert cli.main(["--system", "no_such_system"]) == 2
    assert "error:" in capsys.readouterr().err


def test_exit_code_parse_error_for_directory(tmp_path, capsys):
    assert cli.main(["--system", str(tmp_path)]) == 2
    assert "cannot read system spec" in capsys.readouterr().err


@pytest.mark.parametrize(
    "data", [b"\xff\xfe{}", b"[" * 200_000], ids=["byte-order-mark", "nested-200000"]
)
def test_exit_code_parse_error_for_undecodable_or_deep_spec(data, tmp_path, monkeypatch):
    path = tmp_path / "spec.json"
    path.write_bytes(data)
    assert cli.main(["--system", str(path)]) == 2
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    assert cli.main(["--system", "-"]) == 2


def test_exit_code_validation_error(tmp_path):
    doc = {
        "name": "x",
        "chambers": [
            {"type": "weighted", "voters": ["A"], "weights": [1], "quota": 9}
        ],
    }
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["--system", str(path)]) == 3
    assert cli.main(["--system", "family", "--index", "shapley"]) == 3


def test_exit_code_unsupported_method():
    assert (
        cli.main(["--system", "scottish2007_reduced", "--method", "closed_form"]) == 4
    )


def test_exit_code_resource_limit():
    assert cli.main(["--system", "usfederal", "--method", "oracle"]) == 5


def test_exit_code_cross_check_disagreement(monkeypatch):
    real = cli.tbp_vector

    def tampered(system, method, **kwargs):
        vector, used = real(system, method, **kwargs)
        if method == "oracle":
            vector = [v + 1 for v in vector]
        return vector, used

    monkeypatch.setattr(cli, "tbp_vector", tampered)
    assert cli.main(["--system", "family", "--check", "oracle"]) == 6


@pytest.mark.parametrize(
    "flag, value", [("--digits", "0"), ("--digits", "-3"), ("--oracle-cap", "-1")]
)
def test_argparse_rejects_out_of_range_numbers(flag, value, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["--system", "family", flag, value])
    assert exit_info.value.code == 2
    assert flag in capsys.readouterr().err


def test_argparse_rejects_unknown_method():
    with pytest.raises(SystemExit):
        cli.run(["--system", "family", "--method", "banzhaf2"], out=io.StringIO())


# values a spec field may wrongly hold
ODD_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 10**13),
    st.floats(allow_nan=False),
    st.text(max_size=3),
    st.lists(st.integers(-2, 60), max_size=7),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)


@st.composite
def near_valid_specs(draw) -> str:
    """A valid spec of at most 3 chambers and 18 voters, or that spec with
    one edit: a field dropped or given an odd value, a label repeated, the
    document wrapped in a list, or its text cut short."""
    chambers, first = [], 0
    for _ in range(draw(st.integers(0, 3))):
        n = draw(st.integers(0, 6))
        voters = [f"V{first + i}" for i in range(n)]
        first += n
        if draw(st.booleans()):
            weights = draw(st.lists(st.integers(1, 50), min_size=n, max_size=n))
            quota = draw(st.integers(0, sum(weights) + 1))
            chambers.append({"type": "weighted", "voters": voters, "weights": weights, "quota": quota})
        else:
            chambers.append({"type": "k_of_n", "voters": voters, "k": draw(st.integers(0, n + 1))})
    doc = {"name": "fuzz", "chambers": chambers}
    edit = draw(st.sampled_from(("none", "drop", "odd", "repeat", "wrap", "cut")))
    keys = ("type", "voters", "weights", "quota", "k")
    if edit in ("drop", "odd", "repeat") and chambers:
        chamber = draw(st.sampled_from(chambers))
        if edit == "drop":
            chamber.pop(draw(st.sampled_from(keys)), None)
        elif edit == "odd":
            chamber[draw(st.sampled_from(keys))] = draw(ODD_VALUES)
        else:
            chamber["voters"] = chamber["voters"] + ["V0"]
    elif edit == "odd":
        doc[draw(st.sampled_from(("name", "chambers")))] = draw(ODD_VALUES)
    text = json.dumps([doc] if edit == "wrap" else doc)
    return text[: draw(st.integers(0, len(text)))] if edit == "cut" else text


@settings(max_examples=150, deadline=None)
@given(
    text=near_valid_specs(),
    method=st.sampled_from(METHODS),
    check=st.sampled_from([None] + [m for m in METHODS if m != "auto"]),
    cap=st.integers(0, 12),
    swap=st.booleans(),
)
def test_near_valid_specs_end_in_a_documented_exit_code(text, method, check, cap, swap):
    argv = ["--system", "-", "--method", method, "--oracle-cap", str(cap)]
    argv += ["--index", "tbp,ntbp,pgi,cpgi"] + (["--check", check] if check else [])
    argv += ["--swap-robust"] if swap else []
    with mock.patch("sys.stdin", io.StringIO(text)), mock.patch(
        "sys.stdout", io.StringIO()
    ), mock.patch("sys.stderr", io.StringIO()):
        assert cli.main(argv) in {0, 2, 3, 4, 5}
    # the library path, with a small enumeration cap as well
    try:
        system = parse_spec(text)
        tbp_report(system, method, oracle_cap=cap, mwc_cap=cap, with_pgi=True)
        swap_robust_check(system, cap=cap)
    except tuple(cli.EXIT_CODES) as exc:
        assert cli.EXIT_CODES[type(exc)] in {2, 3, 4, 5}, exc
