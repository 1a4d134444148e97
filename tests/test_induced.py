"""First-return maps, Kac sums, transpositions, and cycle-support search."""

import random
from fractions import Fraction

import pytest

from odofull import (
    ClopenSet,
    DepthCapError,
    Dyadic,
    EmptySetError,
    FullGroupElement,
    OverlapError,
    distance,
    induce,
    kac_check,
    ncycle_support_test,
    random_element,
    transposition,
)
from odofull.induced import oddpart

E = FullGroupElement
T = E.odometer()
IDENTITY = E.identity()


def refine(u, depth):
    """Step table of ``u`` at ``depth >= u.depth``: the canonical table, repeated."""
    return u.cocycle * 2 ** (depth - u.depth)


def refine_bits(a, depth):
    """Membership mask of ``a`` at ``depth >= a.depth``: the canonical mask, repeated."""
    return int(format(a.bits, f"0{1 << a.depth}b") * 2 ** (depth - a.depth), 2)


def permutation_at_depth(u, depth):
    """Prefix permutation ``s -> (s + n(s)) mod 2**depth`` of ``u`` at ``depth``."""
    size = 1 << depth
    return [(s + n) % size for s, n in enumerate(refine(u, depth))]


def random_set(rng, depth, nonempty=True):
    bits = rng.getrandbits(1 << depth)
    if nonempty and not bits:
        bits = 1 << rng.randrange(1 << depth)
    return ClopenSet(depth, bits)


def kac_gap_oracle(subset: ClopenSet) -> Fraction:
    """Return-time integral computed from successor gaps, not the walk."""
    size = 1 << subset.depth
    members = subset.prefixes()
    total = 0
    for i, s in enumerate(members):
        nxt = members[(i + 1) % len(members)]
        total += (nxt - s - 1) % size + 1
    return Fraction(total, size)


# -- induce ---------------------------------------------------------------------


def test_induce_odometer_on_half():
    result = induce(T, ClopenSet.from_prefixes(1, {0}))
    assert result.element == E(1, [2, 0])
    assert result.return_times == {0: 2}
    assert result.return_time_integral() == Dyadic(1)
    assert result.meets_every_nontrivial_orbit


def test_induce_on_whole_space_is_the_element():
    result = induce(T, ClopenSet.full())
    assert result.element == T
    assert set(result.return_times.values()) == {1}


def test_induce_odometer_on_low_quarter():
    result = induce(T, ClopenSet.from_prefixes(2, {0, 1}))
    assert result.element == E(2, [1, 3, 0, 0])
    assert result.return_time_integral() == Dyadic(1)
    assert result.element.index() == 1


def test_induce_empty_set_rejected():
    with pytest.raises(EmptySetError):
        induce(T, ClopenSet.empty())


def test_induced_element_fixes_complement():
    rng = random.Random(211)
    for _ in range(200):
        depth = rng.randint(1, 6)
        u = random_element(depth, 3, rng=rng)
        subset = random_set(rng, depth)
        result = induce(u, subset)
        support_bits = refine_bits(result.element.support(), result.depth)
        member_bits = refine_bits(subset, result.depth)
        assert support_bits & ~member_bits == 0


def test_induce_first_return_semantics_via_powers():
    """Independent check: the claimed return time r is the first power of u
    sending the cylinder into the set, and the induced map agrees with u**r
    there."""
    rng = random.Random(223)
    for _ in range(60):
        depth = rng.randint(1, 5)
        u = random_element(depth, 2, rng=rng)
        subset = random_set(rng, depth)
        result = induce(u, subset)
        depth_r = result.depth
        member = refine_bits(subset, depth_r)
        powers = {1: u}
        for s, r in result.return_times.items():
            for k in range(1, r + 1):
                if k not in powers:
                    powers[k] = powers[k - 1] * u
                landing = permutation_at_depth(powers[k], depth_r)[s]
                inside = bool((member >> landing) & 1)
                assert inside == (k == r)
            table = refine(powers[r], depth_r)
            assert refine(result.element, depth_r)[s] == table[s]


def test_induced_index_preserved_when_meeting_all_orbits():
    rng = random.Random(227)
    hit = 0
    for _ in range(300):
        depth = rng.randint(1, 7)
        u = random_element(depth, 3, rng=rng)
        subset = random_set(rng, depth)
        result = induce(u, subset)
        if result.meets_every_nontrivial_orbit:
            hit += 1
            assert result.element.index() == u.index()
    assert hit > 50


def test_odometer_return_maps_always_have_index_one():
    rng = random.Random(257)
    for _ in range(300):
        subset = random_set(rng, rng.randint(0, 8))
        assert induce(T, subset).element.index() == 1


def test_induce_contracts_l1_distance_to_identity():
    rng = random.Random(229)
    for _ in range(200):
        depth = rng.randint(1, 6)
        u = random_element(depth, 2, rng=rng)
        subset = random_set(rng, depth)
        induced = induce(u, subset).element
        assert distance(induced, IDENTITY, 1) <= distance(u, IDENTITY, 1)


# -- Kac ---------------------------------------------------------------------------


def test_kac_examples():
    assert kac_check(ClopenSet.full()) == Dyadic(1)
    assert kac_check(ClopenSet.from_prefixes(1, {0})) == Dyadic(1)
    with pytest.raises(EmptySetError):
        kac_check(ClopenSet.empty())


def test_kac_exhaustive_small_depths():
    for depth in range(4):
        for bits in range(1, 1 << (1 << depth)):
            subset = ClopenSet(depth, bits)
            assert kac_check(subset) == Dyadic(1)
            assert kac_gap_oracle(subset) == 1


def test_kac_random_sets_match_gap_oracle():
    rng = random.Random(233)
    for _ in range(300):
        subset = random_set(rng, rng.randint(4, 10))
        value = kac_check(subset)
        assert value == Dyadic(1)
        assert kac_gap_oracle(subset) == Fraction(*value.as_integer_ratio())


# -- transpositions ------------------------------------------------------------------


def test_transposition_examples():
    assert transposition(ClopenSet.from_prefixes(1, {0})) == E(1, [1, -1])
    assert transposition(ClopenSet.empty()) == IDENTITY
    with pytest.raises(OverlapError):
        transposition(ClopenSet.full())


def test_transposition_is_involution_with_zero_index():
    rng = random.Random(239)
    built = 0
    while built < 100:
        depth = rng.randint(1, 6)
        subset = random_set(rng, depth)
        if (subset & subset.translate(1)).is_empty and not subset.is_empty:
            swap = transposition(subset)
            assert swap * swap == IDENTITY
            assert swap.index() == 0
            assert swap.support() == subset | subset.translate(1)
            built += 1


# -- cycle-support search ----------------------------------------------------------------


def tiling_holds(subset: ClopenSet, piece: ClopenSet, order: int) -> bool:
    """Check the disjoint-union property through explicit set algebra."""
    return_map = induce(T, subset).element
    union = ClopenSet.empty()
    current = piece
    for _ in range(order):
        if not (union & current).is_empty:
            return False
        union = union | current
        current = return_map.image_of(current)
    return union == subset


def test_ncycle_whole_space_order_two():
    found, piece = ncycle_support_test(ClopenSet.full(), 2)
    assert found
    assert piece == ClopenSet.from_prefixes(1, {0})
    assert tiling_holds(ClopenSet.full(), piece, 2)


def test_ncycle_whole_space_order_three_never_found():
    assert ncycle_support_test(ClopenSet.full(), 3) == (False, None)


def test_ncycle_three_cylinders_order_three():
    subset = ClopenSet.from_prefixes(2, {0, 1, 2})
    found, piece = ncycle_support_test(subset, 3)
    assert found
    assert piece.cylinder_count() == 1
    assert tiling_holds(subset, piece, 3)


def test_ncycle_rejects_bad_inputs():
    with pytest.raises(EmptySetError):
        ncycle_support_test(ClopenSet.empty(), 2)
    with pytest.raises(ValueError):
        ncycle_support_test(ClopenSet.full(), 1)
    # True would read as order 1, and 2.0 would fail inside the two-adic arithmetic
    for order in (True, 2.0):
        with pytest.raises(TypeError, match=f"order must be an integer, got {order!r}"):
            ncycle_support_test(ClopenSet.full(), order)


def test_ncycle_deep_witness_is_bounded_by_the_depth_cap_alone(monkeypatch):
    # one cylinder, order 256: a witness needs eight extra levels
    subset = ClopenSet.from_prefixes(2, {1})
    found, piece = ncycle_support_test(subset, 256)
    assert found and piece.depth == 10
    assert tiling_holds(subset, piece, 256)
    monkeypatch.setenv("ERGO_DEPTH_CAP", "9")
    with pytest.raises(DepthCapError, match="depth 10 exceeds cap 9"):
        ncycle_support_test(subset, 256)


def test_ncycle_negative_verdict_ignores_depth_cap(monkeypatch):
    # five cylinders never support a 3-cycle, so no deeper level is built
    monkeypatch.setenv("ERGO_DEPTH_CAP", "5")
    subset = ClopenSet.from_prefixes(3, {2, 4, 5, 6, 7})
    assert ncycle_support_test(subset, 3) == (False, None)
    monkeypatch.delenv("ERGO_DEPTH_CAP")
    subset = ClopenSet.from_prefixes(20, {0, 1, 2, 3, 4})
    assert ncycle_support_test(subset, 3) == (False, None)


def test_ncycle_witness_always_tiles():
    rng = random.Random(241)
    for _ in range(150):
        subset = random_set(rng, rng.randint(0, 5))
        order = rng.randint(2, 12)
        found, piece = ncycle_support_test(subset, order)
        if found:
            assert tiling_holds(subset, piece, order)
        else:
            assert subset.cylinder_count() % oddpart(order) != 0
