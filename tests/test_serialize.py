"""Wire formats: JSON round trips, CSV tables, parse diagnostics."""

import json
import random

import pytest

from odofull import (
    ClopenSet,
    Dyadic,
    FullGroupElement,
    NotBijectiveError,
    ParseError,
    TowerElement,
    TowerSystem,
    counterexample_report,
    escape_tower_family,
    normal_form,
    parse_element,
    random_element,
)
from odofull import serialize


def test_dyadic_strings():
    assert str(Dyadic(1, 2)) == "1/2^2"
    assert serialize.dyadic_from_str("3/2^5") == Dyadic(3, 5)
    with pytest.raises(ParseError):
        serialize.dyadic_from_str("x/2^5")
    with pytest.raises(ParseError):
        serialize.dyadic_from_str(None)


def test_dyadic_exponent_is_capped_at_parse(monkeypatch):
    monkeypatch.delenv("ERGO_DEPTH_CAP", raising=False)
    assert serialize.dyadic_from_str("1/2^72") == Dyadic(1, 72)
    assert serialize.dyadic_from_str("2/2^73") == Dyadic(1, 72)
    with pytest.raises(ParseError, match="exponent 73 exceeds cap 72"):
        serialize.dyadic_from_str("1/2^73")
    monkeypatch.setenv("ERGO_DEPTH_CAP", "3")
    assert serialize.dyadic_from_str("1/2^9") == Dyadic(1, 9)
    with pytest.raises(ParseError):
        serialize.dyadic_from_str("1/2^10")


def test_clopen_round_trip():
    subset = ClopenSet.from_prefixes(3, {1, 4, 6})
    obj = serialize.clopen_to_obj(subset)
    assert obj == {"depth": 3, "prefixes": [1, 4, 6]}
    assert serialize.clopen_from_obj(obj) == subset
    with pytest.raises(ParseError):
        serialize.clopen_from_obj({"depth": 3})
    with pytest.raises(ParseError):
        serialize.clopen_from_obj({"depth": 2, "prefixes": [9]})


@pytest.mark.parametrize("prefixes", [5, None, "1"])
def test_clopen_prefixes_must_be_a_list(prefixes):
    with pytest.raises(ParseError, match="'prefixes' must be a list"):
        serialize.clopen_from_obj({"depth": 1, "prefixes": prefixes})


def test_element_json_examples():
    odometer = parse_element('{"system":"dyadic_odometer","depth":0,"cocycle":[1]}')
    assert odometer == FullGroupElement.odometer()
    swap = parse_element('{"system":"dyadic_odometer","depth":1,"cocycle":[1,-1]}')
    assert swap == FullGroupElement(1, [1, -1])


def test_parse_rejects_non_bijective_with_diagnostic():
    with pytest.raises(NotBijectiveError, match="1 and 2"):
        parse_element('{"system":"dyadic_odometer","depth":2,"cocycle":[2,0,-1,1]}')


def test_parse_error_paths():
    with pytest.raises(ParseError):
        parse_element("{not json")
    with pytest.raises(ParseError):
        parse_element('{"system":"unknown"}')
    with pytest.raises(ParseError):
        parse_element('{"system":"dyadic_odometer","depth":1,"cocycle":[1,"x"]}')
    with pytest.raises(ParseError):
        parse_element("/nonexistent/path.json")
    with pytest.raises(ParseError):
        parse_element('["not","an","object"]')


def test_element_round_trip_random():
    rng = random.Random(601)
    for _ in range(200):
        u = random_element(rng.randint(0, 7), 5, rng=rng)
        assert parse_element(serialize.element_to_json(u)) == u


def test_big_cocycle_entries_become_strings():
    big = 1 << 60
    u = FullGroupElement(0, [big])
    obj = serialize.element_to_obj(u)
    assert obj["cocycle"] == [str(big)]
    assert parse_element(json.dumps(obj)) == u


def test_element_from_file(tmp_path):
    u = random_element(4, 2, seed=5)
    path = tmp_path / "element.json"
    path.write_text(serialize.element_to_json(u), encoding="utf-8")
    assert parse_element(str(path)) == u


def test_tower_element_round_trip():
    system = TowerSystem([(4, Dyadic(1, 3)), (8, Dyadic(1, 5))])
    u = TowerElement.from_moves(system, [{0: 2, 2: -2}, {1: 3, 4: -3}])
    obj = serialize.tower_element_to_obj(u)
    assert obj["system"] == "skyscraper"
    assert serialize.tower_element_from_obj(obj) == u
    assert parse_element(json.dumps(obj)) == u


def test_tower_element_accepts_dense_shifts():
    obj = {
        "system": "skyscraper",
        "towers": [
            {"height": 4, "base_measure": "1/2^3", "shifts": [2, 0, -2, 0]}
        ],
    }
    u = parse_element(json.dumps(obj))
    assert dict(u.moves[0]) == {0: 2, 2: -2}


@pytest.mark.parametrize(
    "tower",
    [
        {"height": 4, "base_measure": "1/2^3", "shifts": [2, 0, -2]},
        {"height": 4, "base_measure": "1/2^3", "shifts": [2, 0, -2, 0, 0]},
        {"height": 4, "base_measure": "1/2^3", "moves": [[0, 2], [2, -2], [0, 1]]},
    ],
)
def test_tower_element_rejects_malformed_tables(tower):
    obj = {"system": "skyscraper", "towers": [tower]}
    with pytest.raises(ParseError, match="tower 0"):
        serialize.tower_element_from_obj(obj)


def test_empty_word_certificate_json():
    from odofull import factor_positive

    cert = factor_positive(FullGroupElement.identity())
    obj = serialize.certificate_to_obj(cert)
    assert obj["word"] == []
    assert obj["verified"] is True


def test_certificate_serialization():
    u = FullGroupElement(1, [2, 0])
    cert = normal_form(u)
    obj = serialize.certificate_to_obj(cert)
    assert obj["verified"] is True
    assert obj["target"] == serialize.element_to_obj(u)
    kinds = [f["kind"] for f in obj["word"]]
    assert kinds[-1] == "power_of_T"
    assert obj["word"][-1]["power"] == 1
    assert all(k == "periodic" for k in kinds[:-1])


def test_escape_rows_csv_shape():
    rows = escape_tower_family(3)
    text = serialize.escape_rows_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "m,depth,measure,integral"
    assert len(lines) == 4
    assert lines[1] == "1,3,1/2^1,3/2^2"


def test_counterexample_csv_shape():
    report = counterexample_report(3)
    text = serialize.counterexample_to_csv(report)
    lines = text.strip().split("\n")
    assert lines[0] == "# mass deficit 1/2^3"
    assert lines[1] == "n,d_T,d_TA"
    assert lines[2] == "1,1/2^1,1/2^2"
    assert lines[4] == "3,1/2^1,1/2^4"


def test_no_floats_in_machine_formats():
    report = counterexample_report(4)
    obj = serialize.counterexample_to_obj(report)
    blob = json.dumps(obj)
    assert "0.5" not in blob and "0.25" not in blob
    rows = serialize.escape_rows_to_obj(escape_tower_family(2))
    assert all(isinstance(r["measure"], str) for r in rows)


def test_approx_marks_decimals():
    assert serialize.approx(Dyadic(3, 2)).startswith("3/2^2")
    assert "≈" in serialize.approx(Dyadic(3, 2))
