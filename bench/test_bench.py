"""Tests of the benchmark itself; run with ``python3 -m pytest bench -q``.

They drive ``run.py`` at ``--size tiny`` in fresh processes, exactly as a
measured run is driven, and check the oracles against wrong outputs.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import odofull  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULTS = HERE / "results"
# Seeds kept apart from those of measured runs, whose result files they share.
SEED, OTHER_SEED = 9001, 9002


def bench(*args, cwd=ROOT):
    command = [sys.executable, str(Path(cwd) / "bench" / "run.py"), *map(str, args)]
    return subprocess.run(command, capture_output=True, text=True, timeout=600, cwd=cwd)


def tiny_run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    done = bench("--workload", workload, "--seed", seed, "--seconds", 0.2,
                 "--trace", trace, "--size", "tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    report = json.loads((RESULTS / f"{workload}_s{seed}_t{trace}.json").read_text())
    return result, report


def _units(entries) -> dict:
    return {m["name"]: m["unit"] for m in entries}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_reports_every_metric_and_repeats(workload):
    result, report = tiny_run(workload, SEED, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert report["fail_ratio"] == 0
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == _units(SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert set(report["stamp"]) >= {"python", "nproc", "loadavg_start", "loadavg_end", "commit", "seed"}
    assert report["depth_cap"] == 24

    _, again = tiny_run(workload, SEED, 0)
    assert again["requests_sha256"] == report["requests_sha256"]
    assert again["outputs_sha256"] == report["outputs_sha256"]
    _, other = tiny_run(workload, OTHER_SEED, 0)
    assert other["requests_sha256"] != report["requests_sha256"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_runs_report_every_layer_metric_with_repeatable_counts(workload):
    first, _ = tiny_run(workload, SEED, 1)
    second, _ = tiny_run(workload, SEED, 1)
    assert first["correct"] and second["correct"]
    units = {name: m["unit"] for name, m in first["metrics"].items()}
    assert units == _units(SPEC["per_layer"])

    def counts(result):
        return {
            name: m["value"] for name, m in result["metrics"].items()
            if not name.endswith(("_s", "growth_per_level", "overhead"))
        }

    assert counts(first) == counts(second)
    assert first["metrics"]["errors.typed"]["value"] == 0
    assert first["metrics"]["errors.untyped"]["value"] == 0


def test_full_size_tail_percentile_has_ten_samples_beyond_it():
    for name in workloads.WORKLOADS:
        workdir = RESULTS / f"work-test-{name}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            workload = workloads.build(odofull, name, SEED, "full", str(workdir))
        finally:
            shutil.rmtree(workdir)
        count = len(workload.requests)
        allowed = [q for q in (0.9, 0.99, 0.999) if round(count * (1 - q), 6) >= 10]
        assert workload.tail == max(allowed), name
        assert str(count) in next(w["why"] for w in SPEC["workloads"] if w["name"] == name)


def test_frozen_escape_family_rows_match_the_closed_form():
    for m, depth, measure, integral in workloads.ESCAPE_FAMILY:
        half = 4**m // 2
        assert depth == 3 * m
        assert measure == str(odofull.Dyadic(1, m))
        assert Fraction(*odofull.Dyadic.from_string(integral).as_integer_ratio()) == Fraction(
            half * (half + 1), 2**depth
        )


def test_oracles_reject_wrong_outputs():
    od = odofull
    workdir = RESULTS / "work-test-oracles"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        deep = workloads.build(od, "deep_tables", SEED, "tiny", str(workdir))
        for request in deep.requests:
            output = deep.execute(request)
            assert deep.reason(request, output) is None
        compose = next(r for r in deep.requests if r.kind == "compose")
        wrong = deep.execute(compose) * od.FullGroupElement.odometer()
        assert deep.reason(compose, wrong) is not None
        escape = next(r for r in deep.requests if r.kind == "escape")
        assert deep.reason(escape, od.escape_time(od.ClopenSet.full())) is not None

        small = workloads.build(od, "small_checks", SEED, "tiny", str(workdir))
        kac = next(r for r in small.requests if r.kind == "kac")
        assert small.reason(kac, od.Dyadic(1, 1)) is not None
        tower = next(r for r in small.requests if r.kind == "tower" and r.args[0].moves[0])
        product, ambient, induced = small.execute(tower)
        assert small.reason(tower, (product, ambient + od.Dyadic(1, 20), induced)) is not None

        cli = workloads.build(od, "cli_certify", SEED, "tiny", str(workdir))
        family = next(r for r in cli.requests if r.kind == "escape-family")
        good = "m,depth,measure,integral\n1,3,1/2^1,3/2^2\n2,6,1/2^2,9/2^3\n3,9,1/2^3,33/2^4\n"
        assert cli.reason(family, good) is None
        assert cli.reason(family, good.replace("33/2^4", "35/2^4")) is not None
    finally:
        shutil.rmtree(workdir)


def test_replay_reruns_one_request():
    done = bench("--workload", "deep_tables", "--seed", SEED, "--size", "tiny", "--replay", 3)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().endswith("ok")


def test_fails_without_the_package_sources():
    bare = RESULTS / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for source in HERE.glob("*.py"):
        shutil.copy(source, bare / "bench")
    try:
        done = bench("--workload", "deep_tables", "--seed", 1, "--seconds", 1, "--trace", 0, cwd=bare)
        assert done.returncode != 0
        assert '"correct"' not in done.stdout
    finally:
        shutil.rmtree(bare)
