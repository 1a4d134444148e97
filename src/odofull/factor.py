"""Decompositions and certified factorizations of full-group elements.

Every operation here returns either a tuple of elements whose product is
the input, or a :class:`FactorizationCertificate` whose word recomposes to
the target exactly.  A word ``[F1, F2, ..., Fm]`` denotes the composition
``F1 o F2 o ... o Fm`` with the rightmost factor applied first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Union

from .clopen import ClopenSet, pack
from .element import (
    PERIODIC,
    TRIVIAL,
    FullGroupElement,
)
from .errors import NotAlmostPositiveError, NotPeriodicError, NotPositiveError
from .induced import induce

# -- certificate ------------------------------------------------------------


@dataclass(frozen=True)
class InducedFactor:
    """First-return map of the odometer to ``domain``."""

    domain: ClopenSet
    kind = "induced_on"

    def as_element(self) -> FullGroupElement:
        return induce(FullGroupElement.odometer(), self.domain).element


@dataclass(frozen=True)
class PeriodicFactor:
    element: FullGroupElement
    kind = "periodic"

    def as_element(self) -> FullGroupElement:
        return self.element


@dataclass(frozen=True)
class OdometerPowerFactor:
    power: int
    kind = "power_of_T"

    def as_element(self) -> FullGroupElement:
        return FullGroupElement.odometer(self.power)


WordFactor = Union[InducedFactor, PeriodicFactor, OdometerPowerFactor]


@dataclass(frozen=True)
class FactorizationCertificate:
    target: FullGroupElement
    word: tuple[WordFactor, ...]
    verified: bool

    def compose_word(self) -> FullGroupElement:
        out = FullGroupElement.identity()
        for factor in self.word:
            out = out * factor.as_element()
        return out


def _certified(target: FullGroupElement, word) -> FactorizationCertificate:
    word = tuple(word)
    cert = FactorizationCertificate(target, word, False)
    return FactorizationCertificate(target, word, cert.compose_word() == target)


# -- cycle-class decomposition ------------------------------------------------


class CycleClassParts(NamedTuple):
    periodic: FullGroupElement
    almost_positive: FullGroupElement
    almost_negative: FullGroupElement


def decompose_pnp(u: FullGroupElement) -> CycleClassParts:
    """Split ``u`` by the sign of its cycle displacements.

    The part carried by zero-displacement cycles is periodic, the parts on
    positive and negative cycles have step sums of eventually constant
    sign along forward orbits.  The three supports are disjoint unions of
    prefix cycles, so the parts commute and compose back to ``u``.
    """
    size = 1 << u.depth
    tables = {0: [0] * size, 1: [0] * size, -1: [0] * size}
    for cycle in u.orbit_decomposition().cycles:
        sign = (cycle.displacement > 0) - (cycle.displacement < 0)
        target = tables[sign]
        for s in cycle.prefixes:
            target[s] = u.cocycle[s]
    return CycleClassParts(
        FullGroupElement(u.depth, tables[0]),
        FullGroupElement(u.depth, tables[1]),
        FullGroupElement(u.depth, tables[-1]),
    )


# -- straightening an almost positive element ---------------------------------


class Positivized(NamedTuple):
    domain: ClopenSet
    induced: FullGroupElement
    left_periodic: FullGroupElement
    right_periodic: FullGroupElement


def positivize(u: FullGroupElement) -> Positivized:
    """Extract a positive first-return map from an almost positive element.

    ``domain`` collects the cylinders whose forward step sums stay strictly
    positive; one cycle length's worth of sums suffices because the sums
    repeat shifted by the (positive) displacement.  Every nontrivial cycle
    contains such a cylinder, so inducing on ``domain`` preserves the index
    and the two complementary quotients are periodic.

    The identity is accepted and returns identity parts with an empty
    domain, keeping pipelines total on the almost positive class.
    """
    identity = FullGroupElement.identity()
    if u.is_identity:
        return Positivized(ClopenSet.empty(), identity, identity, identity)

    size = 1 << u.depth
    steps = u.cocycle
    in_domain = bytearray(size)
    for cycle in u.orbit_decomposition().cycles:
        if cycle.kind == TRIVIAL:
            continue
        if cycle.displacement <= 0:
            raise NotAlmostPositiveError(
                f"cycle through prefix {cycle.prefixes[0]} has"
                f" displacement {cycle.displacement}"
            )
        length = len(cycle.prefixes)
        for offset in range(length):
            total = 0
            for k in range(length):
                total += steps[cycle.prefixes[(offset + k) % length]]
                if total <= 0:
                    break
            else:
                in_domain[cycle.prefixes[offset]] = 1
    domain = ClopenSet(u.depth, pack(in_domain))
    straightened = induce(u, domain).element
    return Positivized(
        domain,
        straightened,
        u * straightened.inverse(),
        straightened.inverse() * u,
    )


# -- positive elements as products of return maps ------------------------------


def factor_positive(u: FullGroupElement) -> FactorizationCertificate:
    """Write a positive element as a product of odometer return maps.

    Peeling off the return map to the current support keeps the remainder
    positive and lowers the index by exactly one (every nonempty clopen
    set meets the single odometer cycle), so the word length equals the
    index of ``u``.
    """
    if any(n < 0 for n in u.cocycle):
        raise NotPositiveError("element has a negative step value")
    domains = []
    remainder = u
    for _ in range(u.index()):
        support = remainder.support()
        return_map = induce(FullGroupElement.odometer(), support).element
        remainder = remainder * return_map.inverse()
        domains.append(support)
        if remainder.is_identity:
            break
    assert remainder.is_identity, "index many peels must exhaust a positive element"
    return _certified(u, (InducedFactor(a) for a in reversed(domains)))


# -- normal form ---------------------------------------------------------------


class _WordBuilder:
    """Accumulate a product as (periodic factors) o (odometer power).

    Maintains the invariant that everything consumed so far equals the
    stored factors composed left to right, followed by ``power`` odometer
    steps.  Periodic pieces commute past the pending power by conjugation,
    which preserves periodicity.
    """

    def __init__(self):
        self.factors: list[FullGroupElement] = []
        self.power = 0

    def _conjugated(self, q: FullGroupElement) -> FullGroupElement:
        if self.power == 0:
            return q
        shift = FullGroupElement.odometer(self.power)
        return shift * q * shift.inverse()

    def push_periodic(self, q: FullGroupElement) -> None:
        q = self._conjugated(q)
        if not q.is_identity:
            self.factors.append(q)

    def push_return_map(self, domain: ClopenSet, inverted: bool) -> None:
        return_map = induce(FullGroupElement.odometer(), domain).element
        odo = FullGroupElement.odometer()
        if inverted:
            self.push_periodic(return_map.inverse() * odo)
            self.power -= 1
        else:
            self.push_periodic(return_map * odo.inverse())
            self.power += 1


def normal_form(u: FullGroupElement) -> FactorizationCertificate:
    """Certified word of periodic factors followed by an odometer power.

    Pipeline: split by cycle displacement sign; straighten the positive
    part (and the inverse of the negative part) into return maps times
    periodic corrections; rewrite each return map as a periodic factor
    times one odometer step, collecting the steps on the right.  The
    trailing power equals the index of ``u``.
    """
    parts = decompose_pnp(u)
    builder = _WordBuilder()

    builder.push_periodic(parts.periodic)

    if not parts.almost_positive.is_identity:
        straightened = positivize(parts.almost_positive)
        builder.push_periodic(straightened.left_periodic)
        for factor in factor_positive(straightened.induced).word:
            builder.push_return_map(factor.domain, inverted=False)

    if not parts.almost_negative.is_identity:
        straightened = positivize(parts.almost_negative.inverse())
        for factor in reversed(factor_positive(straightened.induced).word):
            builder.push_return_map(factor.domain, inverted=True)
        builder.push_periodic(straightened.left_periodic.inverse())

    word = [PeriodicFactor(q) for q in builder.factors]
    word.append(OdometerPowerFactor(builder.power))
    return _certified(u, word)


# -- periodic elements as products of involutions -------------------------------


def factor_periodic_into_involutions(u: FullGroupElement) -> FactorizationCertificate:
    """Write a periodic element as a product of involutions.

    Each zero-displacement cycle, enumerated from its least prefix, is a
    cyclic shift of the cylinders it visits; the standard expansion of a
    cycle into adjacent transpositions turns it into swaps of consecutive
    images of the fundamental cylinder.
    """
    if not u.is_periodic():
        raise NotPeriodicError("element has a cycle of nonzero displacement")
    size = 1 << u.depth
    word = []
    for cycle in u.orbit_decomposition().cycles:
        if cycle.kind != PERIODIC:
            continue
        for i in range(len(cycle.prefixes) - 1):
            lower = cycle.prefixes[i]
            upper = cycle.prefixes[i + 1]
            step = u.cocycle[lower]
            table = [0] * size
            table[lower] = step
            table[upper] = -step
            word.append(PeriodicFactor(FullGroupElement(u.depth, table)))
    return _certified(u, word)
