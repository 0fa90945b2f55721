"""System-spec parsing: good documents, malformed documents, bundled names."""

import json

import pytest

from banzhaf.errors import ParseError, ValidationError
from banzhaf.specfile import BUNDLED, fixture_path, load_system, parse_spec

GOOD = {
    "name": "demo",
    "chambers": [
        {"type": "k_of_n", "voters": ["A", "B"], "k": 1},
        {
            "type": "weighted",
            "voters": ["C", "D", "E"],
            "weights": [3, 2, 1],
            "quota": 4,
        },
    ],
}


def test_parse_good_document():
    system = parse_spec(json.dumps(GOOD))
    assert system.name == "demo"
    assert system.labels == ("A", "B", "C", "D", "E")
    assert system.chambers[0].quota == 1
    assert system.chambers[1].quota == 4


def test_bundled_systems_load():
    for name in BUNDLED:
        system = load_system(name)
        assert system.name == name
        assert system.total_n >= 2
        assert fixture_path(name).exists()


def test_unknown_bundled_name():
    with pytest.raises(ParseError):
        fixture_path("galactic_senate")
    with pytest.raises(ParseError):
        load_system("galactic_senate")


def test_load_from_path(tmp_path):
    path = tmp_path / "demo.json"
    path.write_text(json.dumps(GOOD))
    assert load_system(str(path)).name == "demo"


@pytest.mark.parametrize(
    "text",
    [
        "{not json",
        "[1, 2]",
        json.dumps({"name": 7, "chambers": []}),
        json.dumps({"name": "x", "chambers": "nope"}),
        json.dumps({"name": "x", "chambers": [5]}),
        json.dumps({"name": "x", "chambers": [{"type": "mystery", "voters": []}]}),
        json.dumps({"name": "x", "chambers": [{"type": "k_of_n", "voters": [1], "k": 1}]}),
        json.dumps({"name": "x", "chambers": [{"type": "k_of_n", "voters": ["A"], "k": True}]}),
        json.dumps(
            {
                "name": "x",
                "chambers": [
                    {"type": "weighted", "voters": ["A"], "weights": "big", "quota": 1}
                ],
            }
        ),
        json.dumps(
            {
                "name": "x",
                "chambers": [
                    {"type": "weighted", "voters": ["A"], "weights": [1], "quota": 1.5}
                ],
            }
        ),
    ],
)
def test_malformed_documents_raise_parse_error(text):
    with pytest.raises(ParseError):
        parse_spec(text)


@pytest.mark.parametrize(
    "doc, needle",
    [
        ({"name": "x", "chambers": []}, "empty"),
        (
            {
                "name": "x",
                "chambers": [
                    {"type": "weighted", "voters": ["A", "B"], "weights": [1, 1], "quota": 5}
                ],
            },
            "chambers[0]",
        ),
        (
            {
                "name": "x",
                "chambers": [{"type": "k_of_n", "voters": ["A", "B"], "k": 3}],
            },
            "chambers[0]",
        ),
        (
            {
                "name": "x",
                "chambers": [
                    {"type": "k_of_n", "voters": ["A"], "k": 1},
                    {"type": "k_of_n", "voters": ["A"], "k": 1},
                ],
            },
            "duplicate",
        ),
    ],
)
def test_invalid_content_raises_validation_error(doc, needle):
    with pytest.raises(ValidationError) as err:
        parse_spec(json.dumps(doc))
    assert needle in str(err.value)
