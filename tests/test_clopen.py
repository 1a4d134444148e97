"""Cylinder-set algebra: canonical form, measures, boolean ops, translation."""

import random
from fractions import Fraction

import pytest

from odofull import (
    ClopenSet,
    DepthCapError,
    Dyadic,
    FullGroupElement,
    induce,
    ncycle_support_test,
    random_element,
)
from odofull.clopen import DEPTH_CAP_ENV, check_depth, pack, unpack
from odofull.induced import oddpart
from odofull.verify import random_clopen


def setify(a: ClopenSet, depth: int) -> set:
    """Reference model: the set of depth-``depth`` prefixes in ``a``."""
    return set(a._members(depth))


def random_set(rng, depth):
    return ClopenSet(depth, rng.getrandbits(1 << depth))


def refine(u, depth):
    """Step table of ``u`` at ``depth >= u.depth``: the canonical table, repeated."""
    return u.cocycle * 2 ** (depth - u.depth)


def test_make_merges_full_pair_to_whole_space():
    assert ClopenSet.from_prefixes(1, {0, 1}) == ClopenSet.full()
    assert ClopenSet.from_prefixes(1, {0, 1}).depth == 0


def test_make_merges_siblings():
    # sibling pair under the last-coordinate flip is (s, s + 2**(d-1))
    assert ClopenSet.from_prefixes(2, {0, 2}) == ClopenSet.from_prefixes(1, {0})
    assert ClopenSet.from_prefixes(2, {0, 2}).depth == 1


def test_make_keeps_depth_when_no_sibling_merge():
    a = ClopenSet.from_prefixes(2, {1, 2})
    assert a.depth == 2
    assert a.prefixes() == (1, 2)


def test_make_range_check():
    with pytest.raises(ValueError):
        ClopenSet.from_prefixes(2, {4})
    with pytest.raises(ValueError):
        ClopenSet.from_prefixes(0, {-1})


def test_measure_examples():
    assert ClopenSet.full().measure() == Dyadic(1)
    assert ClopenSet.empty().measure() == Dyadic(0)
    assert ClopenSet.from_prefixes(2, {1, 2}).measure() == Dyadic(1, 1)


def test_boolean_examples():
    assert ~ClopenSet.empty() == ClopenSet.full()
    half0 = ClopenSet.from_prefixes(1, {0})
    half1 = ClopenSet.from_prefixes(1, {1})
    assert (half0 | half1) == ClopenSet.full()
    assert (half0 & ClopenSet.from_prefixes(2, {0, 1})) == ClopenSet.from_prefixes(2, {0})
    assert ClopenSet.full() - half0 == half1
    assert ~half0 == half1


def test_translate_examples():
    assert ClopenSet.full().translate(12345) == ClopenSet.full()
    assert ClopenSet.from_prefixes(1, {0}).translate(1) == ClopenSet.from_prefixes(1, {1})
    assert ClopenSet.from_prefixes(2, {3}).translate(1) == ClopenSet.from_prefixes(2, {0})


def test_translate_by_table_size_is_identity_on_table():
    rng = random.Random(11)
    for _ in range(100):
        depth = rng.randint(0, 6)
        a = random_set(rng, depth)
        assert a.translate(1 << depth) == a
        assert a.translate(-(1 << depth)) == a


def test_translate_preserves_measure_and_inverts():
    rng = random.Random(13)
    for _ in range(200):
        a = random_set(rng, rng.randint(0, 7))
        k = rng.randint(-40, 40)
        assert a.translate(k).measure() == a.measure()
        assert a.translate(k).translate(-k) == a


def test_inclusion_exclusion_exact():
    rng = random.Random(17)
    for _ in range(300):
        a = random_set(rng, rng.randint(0, 6))
        b = random_set(rng, rng.randint(0, 6))
        lhs = (a | b).measure() + (a & b).measure()
        assert lhs == a.measure() + b.measure()


def test_boolean_ops_match_set_model():
    rng = random.Random(19)
    for _ in range(200):
        da, db = rng.randint(0, 5), rng.randint(0, 5)
        a, b = random_set(rng, da), random_set(rng, db)
        depth = max(da, db, a.depth, b.depth)
        sa, sb = setify(a, depth), setify(b, depth)
        assert setify(a | b, depth) == sa | sb
        assert setify(a & b, depth) == sa & sb
        assert setify(a - b, depth) == sa - sb
        assert setify(~a, depth) == set(range(1 << depth)) - sa


def test_canonicalization_is_representation_independent():
    rng = random.Random(23)
    for _ in range(200):
        a = random_set(rng, rng.randint(0, 5))
        rebuilt = ClopenSet.from_prefixes(a.depth + 2, a._members(a.depth + 2))
        assert rebuilt == a
        assert rebuilt.depth == a.depth


def test_measure_matches_fraction_model():
    rng = random.Random(29)
    for _ in range(100):
        a = random_set(rng, rng.randint(0, 8))
        assert Fraction(*a.measure().as_integer_ratio()) == Fraction(
            a.cylinder_count(), 1 << a.depth
        )


def test_depth_cap_is_hard_error(monkeypatch):
    monkeypatch.setenv(DEPTH_CAP_ENV, "5")
    with pytest.raises(DepthCapError):
        ClopenSet.from_prefixes(6, {0})
    monkeypatch.delenv(DEPTH_CAP_ENV)
    with pytest.raises(DepthCapError):
        ClopenSet.from_prefixes(25, {0})


@pytest.mark.parametrize(
    "entry",
    [
        lambda: FullGroupElement(6, [0] * 64),
        lambda: ClopenSet(6, 1),
        lambda: random_element(6),
        lambda: random_clopen(random.Random(0), 6),
    ],
    ids=["element", "clopen", "random_element", "random_clopen"],
)
def test_depth_cap_holds_at_every_public_entry(monkeypatch, entry):
    monkeypatch.setenv(DEPTH_CAP_ENV, "5")
    with pytest.raises(DepthCapError, match="depth 6 exceeds cap 5"):
        entry()


def test_depth_cap_env_override_allows_more(monkeypatch):
    monkeypatch.setenv(DEPTH_CAP_ENV, "26")
    assert ClopenSet.from_prefixes(25, {0}).depth == 25


# -- the pack/unpack helpers against a per-bit reference ---------------------


def naive_members(bits: int, size: int) -> tuple:
    """Reference model: the set bits of ``bits`` below ``size``, one by one."""
    return tuple(s for s in range(size) if (bits >> s) & 1)


def naive_refine(a: ClopenSet, depth: int) -> int:
    """Reference refinement to ``depth``: prefix ``s`` restricts to ``s mod 2**d``."""
    bits = 0
    for s in range(1 << depth):
        if (a.bits >> (s % (1 << a.depth))) & 1:
            bits |= 1 << s
    return bits


def test_unpack_pack_round_trip():
    rng = random.Random(31)
    for depth in range(13):
        size = 1 << depth
        for bits in (0, (1 << size) - 1, rng.getrandbits(size), rng.getrandbits(size)):
            flags = unpack(bits, size)
            assert len(flags) == size
            assert tuple(s for s, f in enumerate(flags) if f) == naive_members(bits, size)
            assert pack(flags) == bits


def test_unpack_pack_edges():
    assert unpack(0, 1) == b"\x00"
    assert unpack(1, 1) == b"\x01"
    assert pack(b"\x00") == 0
    assert pack(b"\x01") == 1
    assert unpack(0, 8) == bytes(8)
    assert unpack(255, 8) == b"\x01" * 8
    assert unpack(0b110, 4) == b"\x00\x01\x01\x00"
    assert pack([True, False, True]) == 0b101
    assert pack(bytearray(5)) == 0


@pytest.mark.parametrize("bits, size", [(2, 1), (1 << 8, 8), (0b1_0000_0001, 8), (-1, 8)])
def test_unpack_rejects_mask_outside_size(bits, size):
    with pytest.raises(ValueError):
        unpack(bits, size)


def test_prefixes_match_per_bit_walk():
    rng = random.Random(37)
    for _ in range(60):
        a = random_set(rng, rng.randint(0, 10))
        assert a.prefixes() == naive_members(a.bits, 1 << a.depth)
        depth = min(a.depth + rng.randint(0, 2), 10)
        assert tuple(a._members(depth)) == naive_members(naive_refine(a, depth), 1 << depth)
        assert a._flags(depth) == unpack(naive_refine(a, depth), 1 << depth)


def test_support_and_image_match_per_bit_walk():
    rng = random.Random(41)
    for _ in range(40):
        u = random_element(rng.randint(0, 10), 2, rng=rng)
        bits = 0
        for s, n in enumerate(u.cocycle):
            if n:
                bits |= 1 << s
        assert u.support() == ClopenSet(u.depth, bits)

        a = random_set(rng, rng.randint(0, 10))
        depth = max(u.depth, a.depth)
        size = 1 << depth
        steps = refine(u, depth)
        image = 0
        for s in naive_members(naive_refine(a, depth), size):
            image |= 1 << ((s + steps[s]) % size)
        assert u.image_of(a) == ClopenSet(depth, image)


def naive_induce(u, a):
    """Per-bit first-return walk: (table, return times, meets every orbit)."""
    depth = max(u.depth, a.depth)
    size = 1 << depth
    steps = refine(u, depth)
    member = naive_refine(a, depth)
    table = [0] * size
    times = {}
    for start in naive_members(member, size):
        s = (start + steps[start]) % size
        total, hops = steps[start], 1
        while not (member >> s) & 1:
            total += steps[s]
            s = (s + steps[s]) % size
            hops += 1
        table[start] = total
        times[start] = hops
    meets = True
    seen = set()
    for start in range(size):
        orbit = []
        s = start
        while s not in seen:
            seen.add(s)
            orbit.append(s)
            s = (s + steps[s]) % size
        moved = any(steps[s] for s in orbit)
        if moved and not any((member >> s) & 1 for s in orbit):
            meets = False
    return table, times, meets


def test_induce_matches_per_bit_walk():
    rng = random.Random(43)
    outcomes = set()
    for case in range(40):
        u = random_element(rng.randint(0, 8), rng.randint(0, 2), rng=rng)
        if case % 2:
            a = ClopenSet.from_prefixes(10, {rng.randrange(1 << 10)})
        else:
            a = random_set(rng, rng.randint(0, 8))
            if a.is_empty:
                continue
        table, times, meets = naive_induce(u, a)
        result = induce(u, a)
        depth = max(u.depth, a.depth)
        assert refine(result.element, depth) == tuple(table)
        assert result.return_times == times
        assert result.meets_every_nontrivial_orbit == meets
        outcomes.add(meets)
    assert outcomes == {True, False}


def test_ncycle_witness_matches_per_bit_return_cycle():
    rng = random.Random(47)
    for _ in range(60):
        a = random_set(rng, rng.randint(0, 6))
        if a.is_empty:
            continue
        order = rng.randint(2, 12)
        found, witness = ncycle_support_test(a, order)
        count = a.cylinder_count()
        assert found == (count % oddpart(order) == 0)
        if not found:
            continue
        depth = a.depth + next(e for e in range(5) if (count << e) % order == 0)
        size = 1 << depth
        member = naive_refine(a, depth)
        start = naive_members(member, size)[0]
        cycle = [start]
        s = (start + 1) % size
        while s != start:
            if (member >> s) & 1:
                cycle.append(s)
            s = (s + 1) % size
        bits = 0
        for s in cycle[::order]:
            bits |= 1 << s
        assert witness == ClopenSet(depth, bits)


def test_bool_depth_rejected():
    # True is an int, but a set built at depth True writes "depth": true
    for depth in (True, False):
        with pytest.raises(TypeError, match="depth must be an integer"):
            check_depth(depth)
        with pytest.raises(TypeError, match="depth must be an integer"):
            ClopenSet(depth, 1)
        with pytest.raises(TypeError, match="depth must be an integer"):
            ClopenSet.from_prefixes(depth, [0])
    with pytest.raises(TypeError, match="depth must be an integer"):
        check_depth(2.0)
    check_depth(0)
    # a bool mask or prefix would be read as 1 or 0
    for bits in (True, False, 2.0):
        with pytest.raises(TypeError, match="bits must be an integer"):
            ClopenSet(0, bits)
    for prefix in (True, False, 1.0):
        with pytest.raises(TypeError, match="prefix must be an integer"):
            ClopenSet.from_prefixes(1, [prefix])
    # a bool or fractional translation would shift by 1 or fail inside the rotation
    for steps in (True, False, 1.5, "1"):
        with pytest.raises(TypeError, match="steps must be an integer"):
            ClopenSet.from_prefixes(2, [1]).translate(steps)
