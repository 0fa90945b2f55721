"""Command-line behavior: rendering, method selection, exit codes."""

import io
import json

import pytest

import banzhaf.cli as cli
from banzhaf.errors import ValidationError


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
