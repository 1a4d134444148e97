"""Full-group elements: validity, group laws, index, metrics, orbits."""

import random
from fractions import Fraction

import pytest

from odofull import (
    ClopenSet,
    Dyadic,
    FullGroupElement,
    NotBijectiveError,
    ParseError,
    commutator,
    distance,
    random_element,
)
from odofull.serialize import element_from_obj

E = FullGroupElement
IDENTITY = E.identity()
T = E.odometer()


def refine(u, depth):
    """Step table of ``u`` at ``depth >= u.depth``: the canonical table, repeated."""
    return u.cocycle * 2 ** (depth - u.depth)


def permutation_at_depth(u, depth):
    """Prefix permutation ``s -> (s + n(s)) mod 2**depth`` of ``u`` at ``depth``."""
    size = 1 << depth
    return [(s + n) % size for s, n in enumerate(refine(u, depth))]


def frac_distance(u, v, p):
    """Independent exact model of the metrics via stdlib fractions."""
    depth = max(u.depth, v.depth)
    a, b = refine(u, depth), refine(v, depth)
    if p == "uniform":
        total = sum(1 for x, y in zip(a, b) if x != y)
    else:
        total = sum(abs(x - y) ** p for x, y in zip(a, b))
    return Fraction(total, 1 << depth)


# -- construction -------------------------------------------------------------


def test_identity_and_swap_are_valid():
    assert E(0, [0]) == IDENTITY
    swap = E(1, [1, -1])
    assert permutation_at_depth(swap, 1) == [1, 0]


def test_invalid_table_reports_collision():
    with pytest.raises(NotBijectiveError, match="1 and 2"):
        E(2, [2, 0, -1, 1])


def test_wrong_length_rejected():
    with pytest.raises(ValueError):
        E(1, [1])


def test_bool_entries_rejected_like_the_parser_does():
    # True is an int, but the JSON it writes ("true") does not parse back
    for table in ([True, True], [1, False]):
        with pytest.raises(TypeError, match="integers"):
            E(1, table)
    with pytest.raises(TypeError, match="integers"):
        E.odometer(True)
    with pytest.raises(TypeError, match="integers"):
        E.odometer(1.0)
    with pytest.raises(ParseError):
        element_from_obj({"depth": True, "cocycle": [1, -1]})
    for depth in (True, False):
        with pytest.raises(TypeError, match="depth must be an integer"):
            E(depth, [1, -1][: 1 << depth])
        with pytest.raises(TypeError, match="depth must be an integer"):
            random_element(depth)
    # a bool power would be read as 1 or 0, and a float fails inside bin()
    for u in (T, E(1, [1, -1])):
        for power in (True, False, 2.0):
            with pytest.raises(TypeError, match=f"power must be an integer, got {power!r}"):
                u**power


def test_canonical_depth_reduction():
    assert E(2, [1, 1, 1, 1]) == T
    assert E(2, [1, 1, 1, 1]).depth == 0
    assert E(2, [1, -1, 1, -1]).depth == 1


# -- composition, inverse, power -------------------------------------------------


def test_involution_squares_to_identity():
    swap = E(1, [1, -1])
    assert swap * swap == IDENTITY


def test_odometer_powers():
    assert T * T == E(0, [2])
    assert T**5 == E(0, [5])
    assert T**0 == IDENTITY
    assert T**-3 == E(0, [-3])


def test_powers_compose_left_to_right_from_the_element(monkeypatch):
    rng = random.Random(353)
    u = random_element(4, 2, rng=rng)
    calls = []
    compose = E.__mul__
    monkeypatch.setattr(E, "__mul__", lambda a, b: calls.append(1) or compose(a, b))
    assert u**1 is u and not calls
    for power, products in ((2, 1), (3, 2), (4, 2), (5, 3), (8, 3)):
        calls.clear()
        u**power
        assert len(calls) == products, power
    calls.clear()
    assert T ** -(10**9) == E(0, [-(10**9)]) and not calls
    monkeypatch.undo()
    for u in [T, E(0, [-3])] + [random_element(rng.randint(1, 5), 2, rng=rng) for _ in range(5)]:
        product = IDENTITY
        for k in range(41):
            assert u**k == product and u**-k == product.inverse()
            product = product * u


def test_compose_cocycle_identity_example():
    # swap composed with one odometer step, evaluated by hand
    assert E(1, [1, -1]) * T == E(1, [0, 2])


def test_inverse_examples():
    assert IDENTITY.inverse() == IDENTITY
    swap = E(1, [1, -1])
    assert swap.inverse() == swap
    assert E(1, [2, 0]).inverse() == E(1, [-2, 0])


def test_three_cycle_has_order_three():
    u = E(2, [1, 1, -2, 0])
    assert u**3 == IDENTITY
    assert u**2 == u.inverse()


def test_group_axioms_random():
    rng = random.Random(101)
    for _ in range(300):
        u = random_element(rng.randint(0, 6), 2, rng=rng)
        v = random_element(rng.randint(0, 6), 2, rng=rng)
        w = random_element(rng.randint(0, 6), 2, rng=rng)
        assert (u * v) * w == u * (v * w)
        assert u * u.inverse() == IDENTITY
        assert u.inverse() * u == IDENTITY
        assert (u * v).inverse() == v.inverse() * u.inverse()


def test_quotient_and_commutator_match_the_composed_formulas():
    rng = random.Random(109)
    for depth in range(9):
        pool = [random_element(depth, 2, rng=rng) for _ in range(4)]
        pool += [random_element(rng.randint(0, depth), 2, rng=rng) for _ in range(2)]
        pool += [T**-3, T ** (1 << depth)]
        for u in pool:
            for v in pool:
                assert u._over(v) == u * v.inverse(), (u, v)
                assert commutator(u, v) == u * v * u.inverse() * v.inverse(), (u, v)


def test_commutator_is_two_compositions_and_one_quotient(monkeypatch):
    rng = random.Random(113)
    u, v = random_element(5, 2, rng=rng), random_element(6, 2, rng=rng)
    expected = u * v * u.inverse() * v.inverse()
    calls = []
    for name in ("__mul__", "_over", "inverse"):
        method = getattr(E, name)
        monkeypatch.setattr(
            E, name, lambda *args, name=name, method=method: calls.append(name) or method(*args)
        )
    assert commutator(u, v) == expected
    assert calls == ["__mul__", "__mul__", "_over"]


# -- index ---------------------------------------------------------------------


def test_index_examples():
    assert T.index() == 1
    assert IDENTITY.index() == 0
    assert E(2, [3, 1, -2, 2]).index() == 1


def test_index_is_homomorphism_random():
    rng = random.Random(103)
    for _ in range(400):
        u = random_element(rng.randint(0, 7), 4, rng=rng)
        v = random_element(rng.randint(0, 7), 4, rng=rng)
        assert (u * v).index() == u.index() + v.index()
        assert commutator(u, v).index() == 0


def test_index_of_random_element_splits_into_wraps_plus_drift():
    rng = random.Random(107)
    for _ in range(1000):
        depth = rng.randint(0, 6)
        size = 1 << depth
        u = random_element(depth, 5, rng=rng)
        table = refine(u, max(depth, u.depth))
        wraps = sum(n // size for n in table)
        drift = sum(n % size for n in table)
        assert drift % size == 0
        assert u.index() == wraps + drift // size


# -- support and metrics -----------------------------------------------------------


def test_support_examples():
    assert IDENTITY.support() == ClopenSet.empty()
    assert T.support() == ClopenSet.full()
    assert E(1, [2, 0]).support() == ClopenSet.from_prefixes(1, {0})


def test_metric_examples():
    u = E(1, [2, 0])
    assert distance(u, u, 1) == Dyadic(0)
    assert distance(u, u, "uniform") == Dyadic(0)
    assert distance(u, u, 3) == Dyadic(0)
    assert distance(T, IDENTITY, 1) == Dyadic(1)
    assert distance(u, IDENTITY, 1) == Dyadic(1)
    assert distance(u, IDENTITY, "uniform") == Dyadic(1, 1)


def test_metric_rejects_bad_exponent():
    with pytest.raises(ValueError):
        distance(T, IDENTITY, 0)
    with pytest.raises(ValueError):
        distance(T, IDENTITY, "sup")


def test_metric_refuses_a_bool_exponent():
    # True == 1, so it would pass as the L^1 exponent
    with pytest.raises(TypeError):
        distance(T, IDENTITY, True)
    # 1.0 == 1 too: every exponent that is not an int is refused like 2.0
    for p in (1.0, Fraction(1), 2.0, Fraction(2), "1", 0, -1):
        with pytest.raises(ValueError, match="p must be 1, an integer >= 2, or 'uniform'"):
            distance(T, IDENTITY, p)
    assert distance(T, IDENTITY, 1) == distance(T, IDENTITY, 2) == Dyadic(1)


def test_metrics_match_fraction_model():
    rng = random.Random(109)
    for _ in range(200):
        u = random_element(rng.randint(0, 6), 3, rng=rng)
        v = random_element(rng.randint(0, 6), 3, rng=rng)
        for p in (1, 2, 3, "uniform"):
            got = distance(u, v, p)
            assert Fraction(*got.as_integer_ratio()) == frac_distance(u, v, p)


def test_l1_metric_right_invariant_and_dominates_uniform():
    rng = random.Random(113)
    for _ in range(300):
        u = random_element(rng.randint(0, 6), 2, rng=rng)
        v = random_element(rng.randint(0, 6), 2, rng=rng)
        w = random_element(rng.randint(0, 6), 2, rng=rng)
        assert distance(u * w, v * w, 1) == distance(u, v, 1)
        assert distance(u, v, "uniform") <= distance(u, v, 1)


# -- orbit decomposition -------------------------------------------------------------


def test_orbit_decomposition_identity():
    cycles = IDENTITY.orbit_decomposition().cycles
    assert all(c.kind == "trivial" for c in cycles)


def test_orbit_decomposition_three_cycle():
    dec = E(2, [1, 1, -2, 0]).orbit_decomposition()
    by_prefix = {c.prefixes: c for c in dec.cycles}
    assert by_prefix[(0, 1, 2)].displacement == 0
    assert by_prefix[(0, 1, 2)].kind == "periodic"
    assert by_prefix[(3,)].kind == "trivial"


def test_orbit_decomposition_single_positive_cycle():
    dec = E(2, [3, 1, -2, 2]).orbit_decomposition()
    assert len(dec.cycles) == 1
    cycle = dec.cycles[0]
    assert cycle.prefixes == (0, 3, 1, 2)
    assert cycle.displacement == 4
    assert cycle.kind == "positive"


def test_cycles_partition_prefixes():
    rng = random.Random(127)
    for _ in range(100):
        u = random_element(rng.randint(0, 7), 3, rng=rng)
        seen = [s for c in u.orbit_decomposition().cycles for s in c.prefixes]
        assert sorted(seen) == list(range(1 << u.depth))


def test_partial_sums_repeat_shifted_by_displacement():
    rng = random.Random(131)
    for _ in range(100):
        u = random_element(rng.randint(0, 6), 2, rng=rng)
        size = 1 << u.depth
        pi = permutation_at_depth(u, u.depth)
        for cycle in u.orbit_decomposition().cycles:
            length = len(cycle.prefixes)
            start = cycle.prefixes[0]
            sums = []
            s, acc = start, 0
            for _ in range(2 * length):
                acc += u.cocycle[s]
                s = pi[s]
                sums.append(acc)
            # sums[k] is the k+1 step partial sum from the cycle start
            for k in range(length):
                assert sums[length + k] == sums[k] + cycle.displacement


# -- periodicity -----------------------------------------------------------------------


def test_periodicity_examples():
    assert IDENTITY.is_periodic() and IDENTITY.period() == 1
    u = E(2, [1, 1, -2, 0])
    assert u.is_periodic() and u.period() == 3
    assert not T.is_periodic() and T.period() is None


def test_period_is_exact_power_order():
    rng = random.Random(137)
    from odofull.verify import random_periodic_element

    for _ in range(50):
        u = random_periodic_element(rng, rng.randint(0, 5))
        period = u.period()
        assert u.is_periodic()
        assert u**period == IDENTITY
        for divisor in range(1, period):
            if period % divisor == 0:
                assert not (u**divisor == IDENTITY) or divisor == period


def test_periodic_implies_index_zero():
    rng = random.Random(139)
    from odofull.verify import random_periodic_element

    for _ in range(200):
        assert random_periodic_element(rng, rng.randint(0, 6)).index() == 0


# -- random elements --------------------------------------------------------------------


def test_random_element_wrap_zero_range():
    rng = random.Random(149)
    for _ in range(100):
        depth = rng.randint(0, 6)
        u = random_element(depth, 0, rng=rng)
        assert all(0 <= n < (1 << depth) for n in refine(u, depth))


def test_random_element_deterministic_for_seed():
    a = random_element(6, 4, seed=99)
    b = random_element(6, 4, seed=99)
    c = random_element(6, 4, seed=100)
    assert a == b
    assert a != c


def test_random_element_refuses_a_bool_wrap_bound():
    with pytest.raises(TypeError):
        random_element(3, True)


def test_random_element_always_valid():
    rng = random.Random(151)
    for _ in range(300):
        u = random_element(rng.randint(0, 8), rng.randint(0, 6), rng=rng)
        pi = sorted(permutation_at_depth(u, u.depth))
        assert pi == list(range(1 << u.depth))


def test_image_of_moves_cylinders_along_permutation():
    u = E(2, [3, 1, -2, 2])
    assert u.image_of(ClopenSet.from_prefixes(2, {0})) == ClopenSet.from_prefixes(2, {3})
    assert u.image_of(ClopenSet.full()) == ClopenSet.full()
