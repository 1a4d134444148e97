"""Escape times and the diverging tower family."""

import copy
import pickle
import random
import tracemalloc
from fractions import Fraction

import pytest

from odofull import (
    ClopenSet,
    DepthCapError,
    Dyadic,
    EmptySetError,
    INFINITE,
    escape,
    escape_time,
    escape_tower_family,
)
from odofull.cli import main
from odofull.escape import EscapeRow, _runs


def escape_oracle(subset: ClopenSet) -> dict:
    """Per-point bidirectional walk, the simplest possible route."""
    size = 1 << subset.depth
    member = subset.bits
    times = {}
    for s in subset.prefixes():
        k = 1
        while ((member >> ((s + k) % size)) & 1) and ((member >> ((s - k) % size)) & 1):
            k += 1
        times[s] = k
    return times


def test_whole_space_never_escapes():
    result = escape_time(ClopenSet.full())
    assert result.is_infinite
    assert result.integral is INFINITE
    assert list(result.times.values()) == [INFINITE]


def test_infinite_survives_copies_and_pickles():
    for clone in (copy.deepcopy(INFINITE), pickle.loads(pickle.dumps(INFINITE))):
        assert clone is INFINITE
    assert repr(INFINITE) == "INFINITE"


def test_single_cylinder_escapes_immediately():
    for depth in range(1, 6):
        result = escape_time(ClopenSet.from_prefixes(depth, {depth}))
        assert set(result.times.values()) == {1}
        assert result.integral == Dyadic(1, depth)


def test_three_cylinder_run():
    result = escape_time(ClopenSet.from_prefixes(2, {0, 1, 2}))
    assert result.times == {0: 1, 1: 2, 2: 1}
    assert result.integral == Dyadic(1)


def test_empty_set_rejected():
    with pytest.raises(EmptySetError):
        escape_time(ClopenSet.empty())


def test_escape_matches_pointwise_oracle():
    rng = random.Random(401)
    for _ in range(400):
        depth = rng.randint(1, 8)
        bits = rng.getrandbits(1 << depth)
        if not bits:
            bits = 1
        subset = ClopenSet(depth, bits)
        if subset.is_full:
            continue
        result = escape_time(subset)
        assert result.times == escape_oracle(subset)
        assert result.integral == Dyadic(sum(result.times.values()), result.depth)


@pytest.mark.parametrize(
    "depth, prefixes",
    [
        (4, {14, 15, 0, 1, 2, 7}),  # a run wrapping through position 0
        (3, {7, 0}),  # a wrap-around run and nothing else
        (5, range(3, 20)),  # a single run
        (6, range(0, 62, 2)),  # alternating members
        (6, range(1, 64, 2)[1:]),  # alternating, ending at the last prefix
    ],
)
def test_escape_runs_match_member_walk(depth, prefixes):
    subset = ClopenSet.from_prefixes(depth, prefixes)
    assert subset.depth == depth
    result = escape_time(subset)
    assert result.times == escape_oracle(subset)
    assert result.integral == Dyadic(sum(result.times.values()), depth)


@pytest.mark.parametrize("depth", [14, 17])
def test_escape_matches_member_walk_on_deep_sets(depth):
    rng = random.Random(depth)
    for _ in range(2):
        subset = ClopenSet(depth, rng.getrandbits(1 << depth))
        assert escape_time(subset).times == escape_oracle(subset)


def test_tower_family_first_row():
    row = escape_tower_family(1)[0]
    assert (row.m, row.depth) == (1, 3)
    assert row.measure == Dyadic(1, 1)
    assert row.integral == Dyadic(3, 2)


def test_tower_family_measures_and_growth():
    rows = escape_tower_family(5)
    for row in rows:
        assert row.measure == Dyadic(1, row.m)
    for previous, current in zip(rows, rows[1:]):
        assert current.integral * 2 >= previous.integral * 3


def test_tower_family_closed_form():
    # escape from a run of K consecutive levels sums min(s+1, K-s)
    for row in escape_tower_family(4):
        K = 4**row.m
        assert row.integral == Dyadic((K // 2) * (K // 2 + 1), 3 * row.m)


def test_tower_family_rows_sum_runs_in_closed_form():
    for row in escape_tower_family(5):
        levels = ClopenSet.from_prefixes(row.depth, range(4**row.m))
        assert row.integral == escape_time(levels).integral
    for K in range(1, 65):
        h = (K + 1) // 2
        assert h * (K + 1 - h) == sum(min(s + 1, K - s) for s in range(K))
    # the closed form over the runs of any set that is not full, wrapping runs included
    rng = random.Random(1902)
    for _ in range(200):
        depth = rng.randint(1, 8)
        subset = ClopenSet(depth, rng.getrandbits(1 << depth) or 1)
        if subset.is_full:
            continue
        runs = [b - a + 1 for a, b in _runs(subset)]
        total = sum((K + 1) // 2 * (K + 1 - (K + 1) // 2) for K in runs)
        assert Dyadic(total, subset.depth) == escape_time(subset).integral


def test_tower_family_matches_oracle_at_small_depth():
    for row in escape_tower_family(3):
        subset = ClopenSet.from_prefixes(row.depth, range(4**row.m))
        assert row.integral == Dyadic(sum(escape_oracle(subset).values()), row.depth)


def test_tower_family_depth_cap():
    with pytest.raises(DepthCapError):
        escape_tower_family(9)
    with pytest.raises(ValueError):
        escape_tower_family(0)


def test_tower_family_refuses_a_bool_size():
    with pytest.raises(TypeError):
        escape_tower_family(True)


def test_tower_family_checks_the_depth_cap_before_any_row(monkeypatch, capsys):
    rows = []
    monkeypatch.setattr(escape, "EscapeRow", lambda *args: rows.append(args) or EscapeRow(*args))
    monkeypatch.setenv("ERGO_DEPTH_CAP", "5")
    with pytest.raises(DepthCapError, match="^depth 6 exceeds cap 5$"):
        escape_tower_family(2)
    assert rows == []
    assert len(escape_tower_family(1)) == 1 and len(rows) == 1
    monkeypatch.delenv("ERGO_DEPTH_CAP")
    assert main(["escape-family", "--max-m", "9"]) == 2
    assert capsys.readouterr().err == "error: depth 27 exceeds cap 24\n"


def test_tower_family_at_the_cap_builds_no_set():
    tracemalloc.start()
    try:
        rows = escape_tower_family(8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # a row-8 bitmask alone holds 2**24 bits, 2 MB
    assert [(row.m, row.depth) for row in rows] == [(m, 3 * m) for m in range(1, 9)]
    for row in rows:
        K, N = 4**row.m, 8**row.m
        h = (K + 1) // 2
        assert Fraction(*row.measure.as_integer_ratio()) == Fraction(K, N)
        assert Fraction(*row.integral.as_integer_ratio()) == Fraction(h * (K + 1 - h), N)
