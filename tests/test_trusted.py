"""Tables built from valid operands skip validation; the checking
constructors must accept every one of them unchanged.

Each construction below builds its result through the trusted path
(``FullGroupElement._trusted`` / ``ClopenSet._trusted`` /
``TowerElement._trusted``).  Rebuilding the result through the public
constructor reruns the depth cap, length, integer, range and bijectivity
checks and the canonical reduction, so equality shows the trusted result
was valid and already canonical.
"""

import random

import pytest

from odofull import (
    ClopenSet,
    Dyadic,
    FullGroupElement,
    TowerElement,
    TowerSystem,
    commutator,
    counterexample_element,
    decompose_pnp,
    factor_periodic_into_involutions,
    induce,
    normal_form,
    positivize,
    random_element,
    skyscraper,
    transposition,
)
from odofull.factor import InducedFactor, _peel
from odofull.verify import random_clopen, random_periodic_element


def _element(rng, depth):
    return random_element(rng.randint(0, depth), rng.randint(0, 3), rng=rng)


def _set(rng, depth):
    return random_clopen(rng, rng.randint(0, depth), nonempty=rng.random() < 0.8)


def _transposition(rng, depth):
    # prefixes of one parity are disjoint from their odometer translates
    if depth == 0:
        return [transposition(ClopenSet.empty())]
    parity = rng.randrange(2)
    members = [s for s in range(1 << depth) if s % 2 == parity and rng.random() < 0.5]
    return [transposition(ClopenSet.from_prefixes(depth, members))]


def _tower_element(rng, depth):
    # a permutation of random levels in each of three towers of height up to 2**depth
    system = TowerSystem([(1 << depth, Dyadic(1, depth + 2))] * 3)
    moves = []
    for tower in system.towers:
        levels = rng.sample(range(tower.height), rng.randint(0, tower.height))
        moves.append({i: j - i for i, j in zip(levels, rng.sample(levels, len(levels)))})
    return TowerElement.from_moves(system, moves)


def _positivized(rng, depth):
    parts = decompose_pnp(_element(rng, depth))
    return [
        value
        for almost_positive in (parts.almost_positive, parts.almost_negative.inverse())
        for value in positivize(almost_positive)
    ]


CONSTRUCTIONS = {
    "mul": lambda rng, d: [_element(rng, d) * _element(rng, d)],
    "inverse": lambda rng, d: [_element(rng, d).inverse()],
    "over": lambda rng, d: [_element(rng, d)._over(_element(rng, d))],
    "commutator": lambda rng, d: [commutator(_element(rng, d), _element(rng, d))],
    "identity": lambda rng, d: [FullGroupElement.identity()],
    "odometer": lambda rng, d: [FullGroupElement.odometer(rng.randint(-9, 9))],
    "pow": lambda rng, d: [_element(rng, d) ** rng.randint(-5, 5)],
    "support": lambda rng, d: [_element(rng, d).support()],
    "image_of": lambda rng, d: [_element(rng, d).image_of(_set(rng, d))],
    "random_element": lambda rng, d: [random_element(d, rng.randint(0, 3), rng=rng)],
    "induce": lambda rng, d: [induce(_element(rng, d), random_clopen(rng, d)).element],
    "transposition": _transposition,
    "decompose_pnp": lambda rng, d: list(decompose_pnp(_element(rng, d))),
    # w p and p^-1, or w itself when it is periodic
    "normal_form": lambda rng, d: [f.element for f in normal_form(_element(rng, d)).word[:-1]],
    "involutions": lambda rng, d: [
        f.element for f in factor_periodic_into_involutions(random_periodic_element(rng, d)).word
    ],
    "positivize": _positivized,
    "as_element": lambda rng, d: [
        InducedFactor(random_clopen(rng, rng.randint(0, d), nonempty=True)).as_element(
            rng.choice((0, 1, 2, 3, 7, 50, 1001))
        )
    ],
    # nonnegative steps, shifted by a few laps of the odometer
    "peel": lambda rng, d: [
        support
        for support, _ in _peel(
            random_element(d, 0, rng=rng) * FullGroupElement.odometer(rng.randint(0, 3))
        )
    ],
    "random_periodic_element": lambda rng, d: [random_periodic_element(rng, d)],
    "or": lambda rng, d: [_set(rng, d) | _set(rng, d)],
    "and": lambda rng, d: [_set(rng, d) & _set(rng, d)],
    "sub": lambda rng, d: [_set(rng, d) - _set(rng, d)],
    "invert": lambda rng, d: [~_set(rng, d)],
    "translate": lambda rng, d: [_set(rng, d).translate(rng.randint(-20, 20))],
    "from_prefixes": lambda rng, d: [
        ClopenSet.from_prefixes(d, [s for s in range(1 << d) if rng.random() < 0.5])
    ],
    "empty_and_full": lambda rng, d: [ClopenSet.empty(), ClopenSet.full()],
    "tower_mul": lambda rng, d: [_tower_element(rng, d) * _tower_element(rng, d)],
    "tower_inverse": lambda rng, d: [_tower_element(rng, d).inverse()],
    "tower_identity": lambda rng, d: [TowerElement.identity(_tower_element(rng, d).system)],
    "counterexample_element": lambda rng, d: [counterexample_element(d)] if d else [],
}


def _rebuilt(value):
    if isinstance(value, FullGroupElement):
        return FullGroupElement(value.depth, value.cocycle)
    if isinstance(value, TowerElement):
        return TowerElement.from_moves(value.system, [dict(m) for m in value.moves])
    return ClopenSet(value.depth, value.bits)


@pytest.mark.parametrize("name", sorted(CONSTRUCTIONS))
def test_trusted_results_pass_the_public_check(name):
    rng = random.Random(f"trusted:{name}")
    build = CONSTRUCTIONS[name]
    for depth in range(9):
        for _ in range(20):
            for value in build(rng, depth):
                assert _rebuilt(value) == value, (name, depth, value)


def test_derived_tower_elements_run_no_move_check(monkeypatch):
    calls = []
    check = skyscraper._check_moves
    monkeypatch.setattr(skyscraper, "_check_moves", lambda *args: calls.append(args) or check(*args))
    rng = random.Random("trusted:tower checks")
    u, v = _tower_element(rng, 5), _tower_element(rng, 5)
    assert len(calls) == 6  # from_moves checks each of the three towers
    calls.clear()
    counterexample_element(8)
    u * v
    u.inverse()
    assert calls == []
