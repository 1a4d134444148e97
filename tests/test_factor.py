"""Decompositions and certified factorizations."""

import random
import sys
from itertools import accumulate

import pytest

from odofull import (
    ClopenSet,
    EmptySetError,
    FullGroupElement,
    NotAlmostPositiveError,
    NotPeriodicError,
    NotPositiveError,
    decompose_pnp,
    factor_periodic_into_involutions,
    factor_positive,
    induce,
    normal_form,
    positivize,
    random_element,
)
from odofull import factor, induced, serialize
from odofull.factor import _peel
from odofull.verify import random_periodic_element

E = FullGroupElement
T = E.odometer()
IDENTITY = E.identity()


def refine(u, depth):
    """Step table of ``u`` at ``depth >= u.depth``: the canonical table, repeated."""
    return u.cocycle * 2 ** (depth - u.depth)


def refine_bits(a, depth):
    """Membership mask of ``a`` at ``depth >= a.depth``: the canonical mask, repeated."""
    return int(format(a.bits, f"0{1 << a.depth}b") * 2 ** (depth - a.depth), 2)


def odofull_bindings(function):
    """``(module, name)`` for every ``odofull`` module attribute bound to ``function``.

    Patching all of them counts the calls a module makes through a name it
    imported, not only those through the defining module.
    """
    return [
        (module, name)
        for key, module in list(sys.modules.items())
        if key == "odofull" or key.startswith("odofull.")
        for name, value in list(vars(module).items())
        if value is function
    ]


# -- cycle-class decomposition ---------------------------------------------------


def test_decompose_periodic_element_is_pure_periodic():
    u = E(2, [1, 1, -2, 0])
    parts = decompose_pnp(u)
    assert parts == (u, IDENTITY, IDENTITY)


def test_decompose_positive_cycle_element():
    u = E(2, [3, 1, -2, 2])
    parts = decompose_pnp(u)
    assert parts == (IDENTITY, u, IDENTITY)
    inverted = decompose_pnp(u.inverse())
    assert inverted == (IDENTITY, IDENTITY, u.inverse())


def test_decompose_recomposes_with_disjoint_supports():
    rng = random.Random(307)
    for _ in range(300):
        u = random_element(rng.randint(0, 7), 2, rng=rng)
        parts = decompose_pnp(u)
        assert parts.periodic * parts.almost_positive * parts.almost_negative == u
        assert parts.periodic.is_periodic()
        supports = [p.support() for p in parts]
        for i in range(3):
            for j in range(i + 1, 3):
                assert (supports[i] & supports[j]).is_empty
        # disjoint supports commute
        assert parts.almost_negative * parts.periodic * parts.almost_positive == u


# -- positivize --------------------------------------------------------------------


def test_positivize_odometer():
    straightened = positivize(T)
    assert straightened.domain == ClopenSet.full()
    assert straightened.induced == T
    assert straightened.left_periodic == IDENTITY
    assert straightened.right_periodic == IDENTITY


def test_positivize_identity_convention():
    straightened = positivize(IDENTITY)
    assert straightened.domain == ClopenSet.empty()
    assert straightened.induced == IDENTITY
    assert straightened.left_periodic == IDENTITY
    assert straightened.right_periodic == IDENTITY


def test_positivize_worked_example():
    # partial sums: from 0 they stay positive (3,5,6,4), from 3 as well
    # (2,3,1,4); from 1 and 2 they dip negative
    u = E(2, [3, 1, -2, 2])
    straightened = positivize(u)
    assert straightened.domain == ClopenSet.from_prefixes(2, {0, 3})
    assert straightened.induced == E(2, [3, 0, 0, 1])
    assert straightened.induced.index() == u.index()
    assert straightened.left_periodic.is_periodic()
    assert straightened.right_periodic.is_periodic()
    assert straightened.left_periodic * straightened.induced == u
    assert straightened.induced * straightened.right_periodic == u


def test_positivize_rejects_negative_or_periodic_cycles():
    with pytest.raises(NotAlmostPositiveError):
        positivize(T.inverse())
    with pytest.raises(NotAlmostPositiveError):
        positivize(E(1, [1, -1]))


def test_positivize_random_almost_positive_elements():
    rng = random.Random(311)
    checked = 0
    while checked < 200:
        u = random_element(rng.randint(0, 6), 1, rng=rng)
        u = decompose_pnp(u).almost_positive
        straightened = positivize(u)
        assert all(n >= 0 for n in straightened.induced.cocycle)
        assert straightened.induced.index() == u.index()
        assert straightened.left_periodic.is_periodic()
        assert straightened.right_periodic.is_periodic()
        assert straightened.left_periodic * straightened.induced == u
        assert straightened.induced * straightened.right_periodic == u
        if not u.is_identity:
            depth = max(u.depth, straightened.domain.depth)
            support_bits = refine_bits(straightened.domain, depth)
            element_bits = refine_bits(u.support(), depth)
            assert support_bits & ~element_bits == 0
            checked += 1


def positive_starts(u):
    """Prefixes whose forward step sums over one cycle lap all stay positive."""
    starts = set()
    for cycle in u.orbit_decomposition().cycles:
        lap = [u.cocycle[s] for s in cycle.prefixes]
        for offset, start in enumerate(cycle.prefixes):
            if cycle.displacement > 0 and min(accumulate(lap[offset:] + lap[:offset])) > 0:
                starts.add(start)
    return starts


def test_positivize_domain_matches_lap_sums():
    rng = random.Random(337)
    for _ in range(500):
        u = decompose_pnp(random_element(rng.randint(0, 6), rng.randint(1, 3), rng=rng)).almost_positive
        domain = positivize(u).domain
        expected = positive_starts(u)
        if expected:
            assert domain == ClopenSet.from_prefixes(u.depth, expected)
        else:
            assert domain.is_empty


def positivize_reference_cases():
    rng = random.Random(2501)
    cases = [IDENTITY, T, E(6, [1] * 63 + [65])]
    for _ in range(300):
        u = random_element(rng.randint(0, 7), rng.randint(0, 3), rng=rng)
        cases.append(decompose_pnp(u).almost_positive)
    return cases


def test_positivize_induced_is_the_return_map_to_its_domain():
    for u in positivize_reference_cases():
        straightened = positivize(u)
        if straightened.domain.is_empty:  # induce refuses the empty set
            assert u == IDENTITY and straightened.induced == IDENTITY
        else:
            assert straightened.induced == induce(u, straightened.domain).element, u


def test_positivize_calls_no_induce(monkeypatch):
    cases = positivize_reference_cases()
    calls = []
    original = induced.induce
    for module, name in odofull_bindings(original):
        monkeypatch.setattr(module, name, lambda *args: calls.append(args) or original(*args))
    assert all(positivize(u).induced.index() == u.index() for u in cases)
    assert not calls


def test_positivize_single_long_positive_cycle():
    # every running sum of an all-positive cycle is below the later ones
    for depth in range(6):
        u = E(depth, [1] * ((1 << depth) - 1) + [1 + (1 << depth)])
        straightened = positivize(u)
        assert straightened.domain == ClopenSet.full()
        assert straightened.induced == u
        assert straightened.left_periodic == IDENTITY


# -- factor_positive -----------------------------------------------------------------


def test_factor_positive_identity_is_empty_word():
    cert = factor_positive(IDENTITY)
    assert cert.word == ()
    assert cert.verified


def test_factor_positive_single_return_map():
    subset = ClopenSet.from_prefixes(2, {0, 3})
    u = induce(T, subset).element
    assert u == E(2, [3, 0, 0, 1])
    cert = factor_positive(u)
    assert cert.verified
    assert len(cert.word) == 1
    assert cert.word[0].domain == subset


def test_factor_positive_rejects_negative_steps():
    with pytest.raises(NotPositiveError):
        factor_positive(T.inverse())


def test_factor_positive_word_length_equals_index():
    rng = random.Random(313)
    for _ in range(150):
        u = random_element(rng.randint(0, 6), 0, rng=rng)
        cert = factor_positive(u)
        assert cert.verified
        assert len(cert.word) == u.index()
        assert cert.compose_word() == u


def test_factor_positive_on_products_of_return_maps():
    rng = random.Random(317)
    for _ in range(100):
        depth = rng.randint(1, 5)
        u = IDENTITY
        for _ in range(rng.randint(1, 3)):
            bits = rng.getrandbits(1 << depth) or 1
            u = u * induce(T, ClopenSet(depth, bits)).element
        cert = factor_positive(u)
        assert cert.verified and len(cert.word) == u.index()


# -- peel runs -------------------------------------------------------------------------


def peel_one_at_a_time(u):
    """Oracle: one support, return map and inverse per peel, index many peels."""
    peels, remainder = [], u
    for _ in range(u.index()):
        support = remainder.support()
        return_map = induce(T, support).element
        remainder = remainder * return_map.inverse()
        peels.append((support, return_map))
    assert remainder.is_identity
    return peels


def random_positive(rng, depth, wraps):
    size = 1 << depth
    table = refine(random_element(depth, 0, rng=rng), depth)
    return E(depth, [n + size * rng.randint(0, wraps) for n in table])


def random_partial_positive(rng, depth, wraps):
    """Positive element moving a random set of prefixes, up to ``wraps >= 1`` laps each."""
    size = 1 << depth
    support = rng.sample(range(size), rng.randint(1, size))
    table = [0] * size
    for s, t in zip(support, rng.sample(support, len(support))):
        table[s] = (t - s) % size + size * rng.randint(t == s, wraps)
    return E(depth, table)


def peel_run_cases():
    rng = random.Random(359)
    for _ in range(300):
        yield random_positive(rng, rng.randint(0, 6), rng.randint(0, 20))
    for depth, k in enumerate((1, 10, 100, 999, 1000, 4096, 10**4)):
        u = T**k * random_periodic_element(rng, depth)
        yield positivize(decompose_pnp(u).almost_positive).induced
    # one peel of T, then a partial run of k - 1 peels of the return map to prefix 1
    for k in (1, 2, 3, 10, 1000, 10**4):
        yield E(1, [2 * k - 1, 1])
    for _ in range(40):
        yield random_partial_positive(rng, rng.randint(1, 4), rng.randint(1, 200))


def test_peel_runs_expand_to_the_one_peel_oracle():
    cases = 0
    for u in peel_run_cases():
        runs = _peel(u)
        expanded = [(s, r) for s, count in runs for r in [induce(T, s).element] * count]
        assert expanded == peel_one_at_a_time(u)
        assert sum(count for _, count in runs) == u.index()
        assert all(count > 0 for _, count in runs)
        for (outer, _), (inner, _) in zip(runs, runs[1:]):
            assert inner != outer and (inner - outer).is_empty
        assert len(runs) <= 1 << u.depth
        cases += 1
    assert cases >= 350


def test_full_support_run_is_one_rotation():
    # k peels of T leave n(s - k) - k; min n = 5 of them have full support
    u = E(2, [5, 9, 13, 5])
    runs = _peel(u)
    assert runs[0] == (ClopenSet.full(), 5)
    assert u * T**-5 == E(2, [0, 0, 4, 8])
    assert runs[1:] == [
        (ClopenSet.from_prefixes(2, {2, 3}), 2),
        (ClopenSet.from_prefixes(2, {3}), 1),
    ]


def test_partial_run_is_one_composition():
    # [2k - 1, 1]: T once, then k - 1 peels of the return map [0, 2] to prefix 1
    k = 10**9
    runs = _peel(E(1, [2 * k - 1, 1]))
    assert runs == [(ClopenSet.full(), 1), (ClopenSet.from_prefixes(1, {1}), k - 1)]
    assert factor.InducedFactor(runs[1][0]).as_element() == E(1, [0, 2])


def test_peel_builds_no_table_and_walks_no_orbit(monkeypatch):
    rng = random.Random(19)
    cases = [E(1, [3, 1]) * T**40]
    cases += [random_positive(rng, depth, rng.randint(0, 3)) for depth in range(11)]
    cases += [random_partial_positive(rng, depth, 5) for depth in range(1, 11)]
    expected = [_peel(u) for u in cases]
    calls = []

    def counting(owner, name):
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args: calls.append(name) or original(*args))

    for name in ("__mul__", "_over", "inverse", "__pow__"):
        counting(E, name)
    for module, name in odofull_bindings(induced.induce):
        counting(module, name)
    assert [_peel(u) for u in cases] == expected
    assert len(expected[0]) > 1 and all(expected[-10:])
    assert not calls


def test_return_power_closed_form_matches_induce():
    rng = random.Random(1901)
    for _ in range(400):
        depth = rng.randint(0, 7)
        domain = ClopenSet(depth, rng.getrandbits(1 << depth) or 1)
        return_map = induce(T, domain).element
        for k in (0, 1, 2, 3, 7, 50, 1001):
            assert factor.InducedFactor(domain).as_element(k) == return_map**k, (domain, k)


def test_compose_word_builds_each_run_of_equal_factors_once(monkeypatch):
    cert = factor_positive(E(1, [3, 1]) * T**40)
    assert cert.verified and len(cert.word) == 42
    calls = []
    after = factor.InducedFactor.after
    monkeypatch.setattr(
        factor.InducedFactor,
        "after",
        lambda f, out, count: calls.append((f.domain, count)) or after(f, out, count),
    )
    assert cert.compose_word() == cert.target
    assert calls == [(ClopenSet.from_prefixes(1, {1}), 1), (ClopenSet.full(), 41)]


def test_after_is_the_product_with_a_return_power():
    rng = random.Random(2401)
    for _ in range(150):
        depth = rng.randint(0, 6)
        domain = ClopenSet(depth, rng.getrandbits(1 << depth) or 1)
        f = factor.InducedFactor(domain)
        return_map = induce(T, domain).element
        c = domain.cylinder_count()
        for out_depth in (max(depth - 2, 0), depth, depth + 2):  # shallower, equal, deeper
            out = random_element(out_depth, 3, rng=rng)
            for k in (0, 1, -1, c - 1, c, 3 * c + 1):
                expected = out * return_map**k
                assert f.after(out, k) == out * f.as_element(k) == expected, (domain, out, k)
        for k in (0, 1, -1, c):
            assert f.as_element(k) == f.after(E.identity(), k) == return_map**k
    for f in (factor.PeriodicFactor(random_periodic_element(rng, 4)), factor.OdometerPowerFactor(3)):
        out = random_element(3, 2, rng=rng)
        for k in (0, 1, -1, 5):
            assert f.after(out, k) == out * f.as_element(k)
            assert f.as_element(k) == f.after(E.identity(), k)
    with pytest.raises(EmptySetError):
        factor.InducedFactor(ClopenSet.empty()).after(random_element(3, 1, seed=7), 1)
    with pytest.raises(EmptySetError):
        factor.InducedFactor(ClopenSet.empty()).as_element()


def test_factor_positive_holds_the_peel_runs():
    rng = random.Random(331)
    for _ in range(100):
        u = random_positive(rng, rng.randint(0, 6), rng.randint(0, 20))
        cert = factor_positive(u)
        runs = tuple((factor.InducedFactor(s), k) for s, k in reversed(_peel(u)))
        assert cert.runs == runs
        word = iter(cert.word)
        for f, k in cert.runs:
            assert all(next(word) is f for _ in range(k))
        assert next(word, None) is None


def test_certificate_checks_its_own_word():
    def power(n):
        return (factor.OdometerPowerFactor(n), 1)

    assert factor.FactorizationCertificate(T, [power(2)]).verified is False
    assert factor.FactorizationCertificate(T, [power(1)]).verified is True
    cert = factor.FactorizationCertificate(T**3, (power(1) for _ in range(3)))
    assert cert.verified and cert.runs == (power(1),) * 3
    with pytest.raises(TypeError):
        factor.FactorizationCertificate(T, [power(1)], True)


def test_certificate_refuses_counts_below_one(monkeypatch):
    # a run of count -1 would expand to an empty word certified as T^-1
    power = factor.OdometerPowerFactor
    calls = []
    after = power.after
    monkeypatch.setattr(
        power, "after", lambda f, out, count: calls.append(count) or after(f, out, count)
    )
    for count in (-1, 0):
        with pytest.raises(ValueError, match="is below 1"):
            factor.FactorizationCertificate(T**count, [(power(1), count)])
        with pytest.raises(ValueError, match="is below 1"):
            factor.FactorizationCertificate(T, [(power(1), 1), (power(2), count)])
    assert not calls  # refused before recomposing
    assert factor.FactorizationCertificate(T**2, [(power(1), 2)]).verified
    assert calls == [2]


@pytest.mark.parametrize("k", [2**4, 2**16])
def test_certificate_json_encodes_each_run_once(monkeypatch, k):
    calls = []
    to_obj = factor.InducedFactor.to_obj
    monkeypatch.setattr(factor.InducedFactor, "to_obj", lambda f: calls.append(f) or to_obj(f))
    obj = serialize.certificate_to_obj(factor_positive(T**k))
    assert calls == [factor.InducedFactor(ClopenSet.full())]
    assert obj["word"] == [{"kind": "induced_on", "set": {"depth": 0, "prefixes": [0]}}] * k


# -- normal form -----------------------------------------------------------------------


def test_normal_form_odometer():
    cert = normal_form(T)
    assert cert.verified
    assert [f.kind for f in cert.word] == ["power_of_T"]
    assert cert.word[-1].power == 1


def test_normal_form_involution():
    cert = normal_form(E(1, [1, -1]))
    assert cert.verified
    assert cert.word[-1].kind == "power_of_T"
    assert cert.word[-1].power == 0
    assert all(f.element.is_periodic() for f in cert.word[:-1])
    assert len(cert.word) == 2


def test_normal_form_of_return_map_to_half():
    # the return map to one half is one periodic swap away from the odometer
    u = induce(T, ClopenSet.from_prefixes(1, {0})).element
    cert = normal_form(u)
    assert cert.verified
    assert cert.word[-1].power == 1
    periodic_factors = [f.element for f in cert.word[:-1]]
    assert periodic_factors == [u * T.inverse()]
    assert all(q.is_periodic() for q in periodic_factors)


def test_normal_form_random_elements():
    rng = random.Random(331)
    for _ in range(120):
        u = random_element(rng.randint(0, 6), 1, rng=rng)
        cert = normal_form(u)
        assert cert.verified
        assert cert.word[-1].kind == "power_of_T"
        assert cert.word[-1].power == u.index()
        assert all(f.element.is_periodic() for f in cert.word[:-1])
        assert len(cert.word) <= 3
        assert all(f.as_element().depth <= u.depth for f in cert.word)


def test_normal_form_of_an_aperiodic_index_zero_part():
    # w = u T^-1 = [1, 3, -3, -1] swaps 0, 1 and 2, 3 with displacements 4
    # and -4; p = [0, 2, 0, -2] is its own inverse, and w p = [1, 1, -3, 1]
    # steps every s to s + 1
    u = E(2, [4, -2, 0, 2])
    cert = normal_form(u)
    assert cert.verified
    assert [f.element for f in cert.word[:-1]] == [E(2, [1, 1, -3, 1]), E(2, [0, 2, 0, -2])]
    assert cert.word[-1].power == 1


def test_normal_form_calls_no_peel_and_a_fixed_number_of_table_passes(monkeypatch):
    calls = {}

    def counting(owner, name):
        original = getattr(owner, name)

        def counted(*args):
            calls[name] = calls.get(name, 0) + 1
            return original(*args)

        monkeypatch.setattr(owner, name, counted)

    for module, name in odofull_bindings(induced.induce):
        counting(module, name)
    for name in ("_peel", "positivize", "decompose_pnp"):
        counting(factor, name)
    for name in ("__mul__", "inverse"):
        counting(E, name)
    rng = random.Random(18)
    seen = set()
    for depth in (2, 8, 12):
        w = E.identity()
        while w.is_periodic() or w.depth < depth:
            w = random_element(depth, 2, rng=rng)
            w = w * T ** -w.index()
        for k in (1, 10**9):
            u = w * T**k
            calls.clear()
            cert = normal_form(u)
            assert cert.verified and len(cert.word) == 3 and cert.word[-1].power == k
            seen.add(tuple(sorted(calls.items())))
    assert len(seen) == 1
    counts = dict(seen.pop())
    assert set(counts) <= {"__mul__", "inverse"} and counts["__mul__"] > 0, counts


# -- involution factorization --------------------------------------------------------------


def test_involutions_identity_empty_word():
    cert = factor_periodic_into_involutions(IDENTITY)
    assert cert.word == () and cert.verified


def test_involutions_of_an_involution():
    swap = E(1, [1, -1])
    cert = factor_periodic_into_involutions(swap)
    assert cert.verified
    assert [f.element for f in cert.word] == [swap]


def test_involutions_of_three_cycle():
    u = E(2, [1, 1, -2, 0])
    cert = factor_periodic_into_involutions(u)
    assert cert.verified
    assert len(cert.word) == 2
    for f in cert.word:
        assert f.element * f.element == IDENTITY


def test_involutions_reject_aperiodic():
    with pytest.raises(NotPeriodicError):
        factor_periodic_into_involutions(T)


def test_involutions_random_periodic():
    rng = random.Random(337)
    for _ in range(150):
        u = random_periodic_element(rng, rng.randint(0, 8))
        cert = factor_periodic_into_involutions(u)
        assert cert.verified
        assert len(cert.word) <= 2
        for f in cert.word:
            assert f.element * f.element == IDENTITY


def test_involutions_of_single_long_cycle():
    # one zero-displacement cycle through every prefix
    for depth in range(1, 11):
        u = E(depth, [1] * ((1 << depth) - 1) + [1 - (1 << depth)])
        cert = factor_periodic_into_involutions(u)
        assert cert.verified
        assert len(cert.word) <= 2
        for f in cert.word:
            assert f.element * f.element == IDENTITY
