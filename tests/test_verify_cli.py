"""The property-suite runner and the command-line front end."""

import ast
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import odofull
from odofull import (
    Dyadic, FullGroupElement, InvariantError, cli, element, factor, induced, run_verify,
    serialize, verify,
)
from odofull.cli import build_parser, main
from odofull.verify import RunReport

ODOMETER = '{"system":"dyadic_odometer","depth":0,"cocycle":[1]}'
SWAP = '{"system":"dyadic_odometer","depth":1,"cocycle":[1,-1]}'
RETURN_HALF = '{"system":"dyadic_odometer","depth":1,"cocycle":[2,0]}'
BAD = '{"system":"dyadic_odometer","depth":2,"cocycle":[2,0,-1,1]}'
HALF_SET = '{"depth":1,"prefixes":[0]}'
# One full-support peel of T, then one peel of the return map to prefix 1.
TWO_RUNS = '{"system":"dyadic_odometer","depth":1,"cocycle":[3,1]}'


def test_run_verify_deterministic():
    first = run_verify("decompose", seed=7, scale="quick")
    second = run_verify("decompose", seed=7, scale="quick")
    assert first.cases == second.cases
    assert first.failures == second.failures == []


def test_run_verify_all_quick_clean():
    report = run_verify("all", seed=3, scale="quick")
    assert report.exit_status == 0
    assert report.failures == []
    assert report.cases == 23186


def _broken_kac(monkeypatch):
    def kac_check(subset):
        return Dyadic(2) if subset.depth == 0 else induced.kac_check(subset)

    monkeypatch.setattr(verify, "kac_check", kac_check)


def _broken_escape(monkeypatch):
    monkeypatch.setattr(verify, "escape_time", lambda s: SimpleNamespace(times={}))


def _broken_uniform_distance(monkeypatch):
    def distance(u, v, p=1):
        value = element.distance(u, v, p)
        return value + 1 if p == "uniform" and u.depth == 0 else value

    monkeypatch.setattr(verify, "distance", distance)


@pytest.mark.parametrize(
    "breakage, suite, seed, cases, failures, checks",
    [
        (_broken_kac, "kac", 0, 2274, 4, {"kac_exhaustive"}),
        (_broken_escape, "escape", 2, 297, 287, {"escape_oracle"}),
        (_broken_uniform_distance, "group", 0, 12_000, 130, {"uniform_below_l1"}),
    ],
)
def test_run_verify_records_failing_checks(
    monkeypatch, breakage, suite, seed, cases, failures, checks
):
    breakage(monkeypatch)
    report = run_verify(suite, seed=seed, scale="quick")
    assert (report.cases, len(report.failures), report.exit_status) == (cases, failures, 1)
    assert {f["check"] for f in report.failures} == checks
    first = report.failures[0]
    if suite == "kac":
        full = {"depth": 0, "prefixes": [0]}
        assert report.failures == [{"check": "kac_exhaustive", "set": full}] * 4
    elif suite == "escape":
        assert all(list(f) == ["check", "set"] for f in report.failures)
        assert serialize.clopen_from_obj(first["set"]).bits
    else:
        assert list(first) == ["check", "case", "u", "v", "w"] and first["case"] == 27
        assert serialize.element_from_obj(first["u"]).depth == 0
        assert serialize.element_to_obj(serialize.element_from_obj(first["v"])) == first["v"]


def test_run_verify_rejects_unknown():
    with pytest.raises(ValueError):
        run_verify("nonsense")
    with pytest.raises(ValueError):
        run_verify("group", scale="huge")


def test_cli_verify_exit_zero(capsys):
    assert main(["verify", "--suite", "counterexample", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "0 failures" in out


def test_cli_index(capsys):
    assert main(["index", RETURN_HALF]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_cli_compose_inverse_round_trip(capsys):
    assert main(["compose", SWAP, SWAP, "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["cocycle"] == [0]
    assert main(["inverse", ODOMETER, "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["cocycle"] == [-1]


def test_cli_induce(capsys):
    assert main(["induce", ODOMETER, "--set", HALF_SET, "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["element"]["cocycle"] == [2, 0]
    assert obj["return_times"] == {"0": 2}
    assert obj["return_time_integral"] == "1/2^0"
    assert obj["meets_every_nontrivial_orbit"] is True


def test_cli_decompose(capsys):
    assert main(["decompose", SWAP, "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["periodic"]["cocycle"] == [1, -1]
    assert obj["almost_positive"]["cocycle"] == [0]


def test_cli_factorizations(capsys):
    assert main(["factor-positive", RETURN_HALF, "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["verified"] and len(obj["word"]) == 1
    assert main(["normal-form", RETURN_HALF, "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["verified"] and obj["word"][-1] == {"kind": "power_of_T", "power": 1}
    assert main(["factor-involutions", SWAP, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["verified"]


def test_cli_ncycle(capsys):
    assert main(["ncycle", "--set", '{"depth":0,"prefixes":[0]}', "--n", "2", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["found"] and obj["witness"] == {"depth": 1, "prefixes": [0]}
    assert main(["ncycle", "--set", '{"depth":0,"prefixes":[0]}', "--n", "3", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"found": False, "witness": None}


def test_cli_ncycle_witness_depth_obeys_only_the_depth_cap(monkeypatch, capsys):
    argv = ["ncycle", "--set", '{"depth":2,"prefixes":[1]}', "--n", "256", "--format", "json"]
    assert main(argv) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["found"] and obj["witness"]["depth"] == 10
    monkeypatch.setenv("ERGO_DEPTH_CAP", "9")
    assert main(argv) == 2
    assert "depth 10 exceeds cap 9" in capsys.readouterr().err


def test_cli_escape_and_family(capsys):
    assert main(["escape", "--set", '{"depth":2,"prefixes":[0,1,2]}', "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["integral"] == "1/2^0"
    assert obj["times"] == {"0": 1, "1": 2, "2": 1}
    assert main(["escape-family", "--max-m", "2", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines == ["m,depth,measure,integral", "1,3,1/2^1,3/2^2", "2,6,1/2^2,9/2^3"]


def test_cli_counterexample_csv(capsys):
    assert main(["counterexample", "--max-n", "2", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "# mass deficit 1/2^2"
    assert lines[1:] == ["n,d_T,d_TA", "1,1/2^1,1/2^2", "2,1/2^1,1/2^3"]


def test_cli_random_is_seeded(capsys):
    assert main(["random", "--depth", "4", "--seed", "9", "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert main(["random", "--depth", "4", "--seed", "9", "--format", "json"]) == 0
    assert capsys.readouterr().out == first


def test_cli_parse_failure_exits_two(capsys):
    assert main(["index", BAD]) == 2
    assert "prefixes 1 and 2" in capsys.readouterr().err
    assert main(["index", "{broken"]) == 2
    assert main(["escape", "--set", '{"depth":0,"prefixes":[]}']) == 2
    assert main(["escape", "--set", '{"depth":1,"prefixes":5}']) == 2
    assert "'prefixes' must be a list" in capsys.readouterr().err
    assert main(["escape", "--set", '{"depth":"2","prefixes":[0]}']) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: depth must be an integer, got '2'\n"


def test_cli_out_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    assert main(["counterexample", "--max-n", "1", "--format", "csv", "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_text(encoding="utf-8").startswith("# mass deficit")


def test_cli_usage_error_exits_two():
    with pytest.raises(SystemExit) as excinfo:
        main(["no-such-command"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["index", RETURN_HALF, "--format", "yaml"])
    assert excinfo.value.code == 2


def test_cli_missing_csv_form_writes_no_out_file(tmp_path, capsys):
    target = tmp_path / "product.csv"
    assert main(["compose", SWAP, SWAP, "--format", "csv", "--out", str(target)]) == 2
    assert "no csv form for 'compose'" in capsys.readouterr().err
    assert not target.exists()


def test_cli_depth_cap_env(monkeypatch, capsys):
    monkeypatch.setenv("ERGO_DEPTH_CAP", "3")
    assert main(["random", "--depth", "4"]) == 2
    assert "cap" in capsys.readouterr().err


def test_cli_counterexample_rows_obey_depth_cap(monkeypatch, capsys):
    monkeypatch.setenv("ERGO_DEPTH_CAP", "3")
    assert main(["counterexample", "--max-n", "4"]) == 2
    assert "cap" in capsys.readouterr().err
    assert main(["counterexample", "--max-n", "3"]) == 0


def odometer_json(*cocycle):
    depth = len(cocycle).bit_length() - 1
    return json.dumps({"system": "dyadic_odometer", "depth": depth, "cocycle": list(cocycle)})


def test_cli_word_length_obeys_depth_cap(monkeypatch, capsys):
    monkeypatch.setenv("ERGO_DEPTH_CAP", "3")
    assert main(["factor-positive", odometer_json(8), "--format", "json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["word"]) == 8
    assert main(["factor-positive", odometer_json(9)]) == 2
    assert "word of 9 factors exceeds cap 2**3" in capsys.readouterr().err
    # the word cap binds factor-positive only: a normal form has at most 3 factors
    for cocycle in ([15, 1], [17, 1]):
        assert main(["normal-form", odometer_json(*cocycle), "--format", "json"]) == 0
        assert len(json.loads(capsys.readouterr().out)["word"]) <= 3


@pytest.mark.parametrize(
    "argv, code",
    [
        # [periodic w = [999999999, -999999999], T^(10^9)]
        (["normal-form", odometer_json(1999999999, 1), "--format", "json"], 0),
        (["factor-positive", odometer_json(1000000000)], 2),
        (["normal-form", odometer_json(1000000000), "--format", "json"], 0),
    ],
)
def test_cli_huge_index_returns_at_once(argv, code):
    env = {**os.environ, "PYTHONPATH": str(Path(odofull.__file__).parents[1])}
    env.pop("ERGO_DEPTH_CAP", None)
    start = time.perf_counter()
    command = [sys.executable, "-m", "odofull.cli", *argv]
    done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - start < 1
    assert done.returncode == code, done.stderr
    if code == 0:
        *periodic, power = json.loads(done.stdout)["word"]
        assert len(periodic) <= 1 and all(f["kind"] == "periodic" for f in periodic)
        assert power == {"kind": "power_of_T", "power": 10**9}


def test_cli_normal_form_of_a_random_depth_16_element_returns_at_once(tmp_path):
    source = tmp_path / "u.json"
    source.write_text(odofull.element_to_json(odofull.random_element(16, 2, seed=16)))
    env = {**os.environ, "PYTHONPATH": str(Path(odofull.__file__).parents[1])}
    env.pop("ERGO_DEPTH_CAP", None)
    start = time.perf_counter()
    command = [sys.executable, "-m", "odofull.cli", "normal-form", str(source), "--format", "json"]
    done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - start < 1
    assert done.returncode == 0, done.stderr
    cert = json.loads(done.stdout)
    assert cert["verified"] is True and len(cert["word"]) <= 3


def test_cli_skyscraper_element_is_a_parse_error(capsys):
    tower = {"height": 1, "base_measure": "1/2^100000000000", "shifts": [0]}
    start = time.perf_counter()
    assert main(["index", json.dumps({"system": "skyscraper", "towers": [tower]})]) == 2
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: system 'skyscraper' has no JSON form; pass a dyadic_odometer element\n"


def test_report_exit_status_tracks_failures():
    clean = RunReport("demo", 3)
    assert clean.exit_status == 0
    dirty = RunReport("demo", 3, failures=[{"check": "x"}])
    assert dirty.exit_status == 1


def test_cli_normal_form_of_a_huge_odometer_power(capsys):
    start = time.perf_counter()
    code = main(["normal-form", '{"system":"dyadic_odometer","depth":0,"cocycle":[1000000000]}', "--format", "json"])
    assert code == 0 and time.perf_counter() - start < 1
    assert json.loads(capsys.readouterr().out)["word"] == [{"kind": "power_of_T", "power": 1000000000}]


def test_cli_parser_is_cached_and_resolves_names_per_call(monkeypatch, capsys):
    assert main(["normal-form", RETURN_HALF, "--format", "json"]) == 0
    capsys.readouterr()
    assert build_parser() is build_parser()
    monkeypatch.setattr(serialize, "certificate_to_obj", lambda cert: {"patched": len(cert.word)})
    assert main(["normal-form", RETURN_HALF, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"patched": 2}
    monkeypatch.setattr(cli, "normal_form", factor.factor_positive)
    assert main(["normal-form", RETURN_HALF, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"patched": 1}


def test_cli_invariant_failure_exits_three(monkeypatch, capsys):
    # An index one too large, so the peel counts cannot sum to it.
    index = FullGroupElement.index
    monkeypatch.setattr(FullGroupElement, "index", lambda u: index(u) + 1)
    assert main(["factor-positive", TWO_RUNS, "--format", "json"]) == 3
    assert capsys.readouterr().err.startswith("internal error: ")


def test_certificate_that_does_not_recompose_exits_three(monkeypatch, capsys):
    # A peel that loses its first run; its counts no longer sum to the index,
    # but the dropped run escapes the check inside the real _peel.
    peel = factor._peel
    monkeypatch.setattr(factor, "_peel", lambda u: peel(u)[1:])
    u = serialize.parse_element(TWO_RUNS)
    with pytest.raises(InvariantError, match="does not recompose"):
        factor.factor_positive(u)
    assert main(["factor-positive", TWO_RUNS, "--format", "json"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: ")


def test_cli_out_of_memory_exits_two(monkeypatch, capsys):
    def exhausted(n_max):
        raise MemoryError

    monkeypatch.setattr(cli, "counterexample_report", exhausted)
    assert main(["counterexample", "--max-n", "3", "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out of memory running counterexample\n"


def test_invariant_checks_survive_optimized_mode():
    script = (
        "import sys\n"
        "from odofull import FullGroupElement\n"
        "from odofull.cli import main\n"
        "index = FullGroupElement.index\n"
        "FullGroupElement.index = lambda u: index(u) + 1\n"
        f"sys.exit(main(['factor-positive', {TWO_RUNS!r}]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(odofull.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 3, done.stderr
    assert done.stderr.startswith("internal error: ")
    assert "peel counts sum to 2, not 3" in done.stderr


def test_package_source_has_no_assert_statement():
    # python -O strips assert statements, so invariant checks must raise instead
    sources = sorted(Path(odofull.__file__).parent.glob("*.py"))
    assert len(sources) >= 10
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        asserts = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not asserts, f"{path.name} has assert statements at lines {asserts}"


def test_index_of_a_corrupt_table_raises_invariant_error():
    corrupt = object.__new__(FullGroupElement)
    corrupt.depth, corrupt.cocycle = 1, (1, 0)
    with pytest.raises(InvariantError):
        corrupt.index()
