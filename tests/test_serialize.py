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
    RunReport,
    counterexample_report,
    decompose_pnp,
    escape_time,
    escape_tower_family,
    factor_periodic_into_involutions,
    factor_positive,
    induce,
    ncycle_support_test,
    normal_form,
    parse_element,
    random_element,
    run_verify,
)
from odofull import serialize
from odofull.verify import random_periodic_element


def test_clopen_round_trip():
    subset = ClopenSet.from_prefixes(3, {1, 4, 6})
    obj = serialize.clopen_to_obj(subset)
    assert obj == {"depth": 3, "prefixes": [1, 4, 6]}
    assert serialize.clopen_from_obj(obj) == subset
    with pytest.raises(ParseError):
        serialize.clopen_from_obj({"depth": 3})
    with pytest.raises(ParseError):
        serialize.clopen_from_obj({"depth": 2, "prefixes": [9]})
    # the constructors are the one check: no string, bool, null or float passes for an integer
    for depth in ("2", True, None):
        with pytest.raises(ParseError, match="depth must be an integer"):
            serialize.clopen_from_obj(json.loads(json.dumps({"depth": depth, "prefixes": [0]})))
    for prefix in ("1", True, 1.0):
        with pytest.raises(ParseError, match="prefix must be an integer"):
            serialize.clopen_from_obj(json.loads(json.dumps({"depth": 2, "prefixes": [prefix]})))
    with pytest.raises(ParseError, match="depth must be an integer"):
        parse_element('{"system":"dyadic_odometer","depth":"1","cocycle":[1,-1]}')
    rng = random.Random(32)
    for depth in range(11):
        for _ in range(5):
            subset = ClopenSet(depth, rng.getrandbits(1 << depth))
            text = json.dumps(serialize.clopen_to_obj(subset))
            assert serialize.clopen_from_obj(json.loads(text)) == subset


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
    # the first entry past 2**53 next to the last one within it
    edge = FullGroupElement(1, [(1 << 53) + 1, -(1 << 53) + 1])
    obj = serialize.element_to_obj(edge)
    assert obj["cocycle"] == ["9007199254740993", -9007199254740991]
    text = serialize.json_text(obj)
    assert text == json.dumps(obj, indent=2) + "\n"
    assert parse_element(text) == edge


def test_element_from_file(tmp_path):
    u = random_element(4, 2, seed=5)
    path = tmp_path / "element.json"
    path.write_text(serialize.element_to_json(u), encoding="utf-8")
    assert parse_element(str(path)) == u


@pytest.mark.parametrize(
    "tower",
    [
        {"height": 4, "base_measure": "1/2^3", "shifts": [2, 0, -2]},
        {"height": 4, "base_measure": "1/2^3", "shifts": [2, 0, -2, 0, 0]},
        {"height": 4, "base_measure": "1/2^3", "moves": [[0, 2], [2, -2], [0, 1]]},
        {"height": 2, "base_measure": "1/2^1", "moves": [[0, 1], [1, -1]]},
        {"height": 1, "base_measure": "1/2^100000000000", "shifts": [0]},
    ],
)
def test_parse_element_refuses_skyscraper_elements(tower):
    for towers in ([tower], []):
        text = json.dumps({"system": "skyscraper", "towers": towers})
        with pytest.raises(ParseError, match="system 'skyscraper' has no JSON form"):
            parse_element(text)


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


# -- the --format json emitter ------------------------------------------------


_RNG = random.Random(1301)
_SET = ClopenSet.from_prefixes(4, {0, 1, 5, 9, 10, 15})
_CLI_OBJECTS = {
    "normal-form": lambda: serialize.certificate_to_obj(
        normal_form(FullGroupElement.odometer(-5) * random_periodic_element(_RNG, 3))
    ),
    "factor-positive": lambda: serialize.certificate_to_obj(
        factor_positive(random_element(3, 0, rng=_RNG))
    ),
    "factor-positive-run": lambda: serialize.certificate_to_obj(
        factor_positive(FullGroupElement.odometer(5))
    ),
    "factor-involutions": lambda: serialize.certificate_to_obj(
        factor_periodic_into_involutions(random_periodic_element(_RNG, 4))
    ),
    "decompose": lambda: serialize.cycle_parts_to_obj(
        decompose_pnp(random_element(3, 2, rng=_RNG))
    ),
    "ncycle-found": lambda: serialize.ncycle_to_obj(
        ncycle_support_test(ClopenSet.from_prefixes(2, {0, 1}), 2)
    ),
    "ncycle-none": lambda: serialize.ncycle_to_obj(ncycle_support_test(ClopenSet.full(), 3)),
    "induce": lambda: serialize.induced_to_obj(induce(random_element(4, 1, rng=_RNG), _SET)),
    "escape": lambda: serialize.escape_result_to_obj(escape_time(_SET)),
    "escape-infinite": lambda: serialize.escape_result_to_obj(escape_time(ClopenSet.full())),
    "escape-family": lambda: serialize.escape_rows_to_obj(escape_tower_family(3)),
    "counterexample": lambda: serialize.counterexample_to_obj(counterexample_report(4)),
    "element": lambda: serialize.element_to_obj(random_element(5, 3, rng=_RNG)),
    "index": lambda: serialize.index_to_obj(-7),
    "verify": lambda: serialize.report_to_obj(run_verify("escape", 0)),
    "verify-failures": lambda: serialize.report_to_obj(
        RunReport("group", 3, [{"check": "inverse", "inputs": {"u": [1, -1]}}], 0.125)
    ),
}


def test_json_text_encodes_each_distinct_list_item_once(monkeypatch):
    encode = serialize._encode
    counts = []
    for k in (2**4, 2**16):
        calls = []
        monkeypatch.setattr(serialize, "_encode", lambda *args: calls.append(1) or encode(*args))
        obj = serialize.certificate_to_obj(factor_positive(FullGroupElement.odometer(k)))
        assert serialize.json_text(obj) == json.dumps(obj, indent=2) + "\n"
        counts.append(len(calls))
    assert counts[0] == counts[1]


@pytest.mark.parametrize("kind", sorted(_CLI_OBJECTS))
def test_json_text_is_json_dumps_on_every_cli_result(kind):
    obj = _CLI_OBJECTS[kind]()
    assert serialize.json_text(obj) == json.dumps(obj, indent=2) + "\n"


@pytest.mark.parametrize(
    "obj",
    [
        {},
        [],
        {"a": {}, "b": [], "c": {"d": [[], {}]}},
        [[], [[]], {}],
        (1, (2, 3), ()),
        {"t": (1, "x"), "u": [(), (None,)]},
        {"é": "ünïcode ☃", "k": ["\u2200", "tab\there", 'quote"']},
        [True, False, None],
        {"yes": True, "no": False, "none": None},
        [1, [2, 3], {"a": 4}, "five", None, [], {}],
        [[[[1, "deep"]]]],
        0.125,
        "bare",
        None,
    ],
)
def test_json_text_edge_shapes(obj):
    assert serialize.json_text(obj) == json.dumps(obj, indent=2) + "\n"


# -- whole-table checks at the JSON boundary ------------------------------------


def _per_entry_scan(depth, table):
    """The entry-by-entry bijectivity scan, as a reference for the messages."""
    size = 1 << depth
    hit_by = [-1] * size
    for s, n in enumerate(table):
        if not isinstance(n, int) or isinstance(n, bool):
            raise TypeError("cocycle entries must be integers")
        target = (s + n) % size
        if hit_by[target] >= 0:
            raise NotBijectiveError(f"prefixes {hit_by[target]} and {s} both map to {target}")
        hit_by[target] = s


@pytest.mark.parametrize("bad", [True, False, 1.0, 0.5])
def test_non_integer_entries_rejected(bad):
    with pytest.raises(TypeError, match="cocycle entries must be integers"):
        FullGroupElement(1, [bad, 0])
    with pytest.raises(TypeError, match="cocycle entries must be integers"):
        FullGroupElement(1, [0, bad])
    with pytest.raises(ParseError, match=f"expected an integer, got {bad!r}"):
        parse_element(json.dumps({"system": "dyadic_odometer", "depth": 1, "cocycle": [0, bad]}))


def test_colliding_tables_name_the_same_prefixes_as_the_per_entry_scan():
    rng = random.Random(1302)
    seen = 0
    for _ in range(300):
        depth = rng.randint(1, 6)
        table = [rng.randint(-9, 9) for _ in range(1 << depth)]
        try:
            _per_entry_scan(depth, table)
        except NotBijectiveError as exc:
            message = str(exc)
        else:
            continue
        seen += 1
        with pytest.raises(NotBijectiveError) as raised:
            FullGroupElement(depth, table)
        assert str(raised.value) == message
        obj = {"system": "dyadic_odometer", "depth": depth, "cocycle": table}
        with pytest.raises(NotBijectiveError) as raised:
            parse_element(json.dumps(obj))
        assert str(raised.value) == message
    assert seen > 200


def test_int_subclass_entries_still_accepted():
    class Steps(int):
        pass

    assert FullGroupElement(1, [Steps(1), Steps(-1)]) == FullGroupElement(1, [1, -1])
    u = serialize.element_from_obj({"depth": 1, "cocycle": [Steps(3), 1]})
    assert u.cocycle == (3, 1) and type(u.cocycle[0]) is int
