"""Decompositions and certified factorizations of full-group elements.

Every operation here returns either a tuple of elements whose product is
the input, or a :class:`FactorizationCertificate` whose word recomposes to
the target exactly.  A word ``[F1, F2, ..., Fm]`` denotes the composition
``F1 o F2 o ... o Fm`` with the rightmost factor applied first.

Each factor kind is one class with a ``kind`` tag and two methods:
``after(out, count)``, ``out`` times the factor's ``count``-th power, and
``to_obj()``, its JSON object.  :class:`Factor` derives the power itself
from ``after``.  ``positivize`` reads its first-return map off the
running sums it scans for its domain, so it walks each cycle once.

One loop, ``_peel``, splits a positive element into runs of equal return
maps in a few list passes per run, with no table.  ``factor_positive``
passes those runs to its certificate as they are: certificates hold runs;
the JSON word writes each factor, so a ``factor_positive`` word lists the
index many.  It refuses an index above ``2**depth_cap()``, the entries of
one table, before it peels.  A certificate recomposes its word once, when
it is built: a run of a return map fixes every point off its support, so
it rewrites only the support entries of the product so far, in closed
form whatever its count.  ``normal_form`` does not peel: it writes every
element as at most two periodic factors and an odometer power, in a
constant number of table passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, chain, compress, repeat
from operator import not_
from typing import NamedTuple

from .clopen import ClopenSet, depth_cap, pack
from .element import TRIVIAL, FullGroupElement
from .errors import DepthCapError, EmptySetError, InvariantError, NotAlmostPositiveError
from .errors import NotPeriodicError, NotPositiveError
from .serialize import clopen_to_obj, element_to_obj, int_to_obj

# -- certificate ------------------------------------------------------------


class Factor:
    """A factor kind: ``after(out, count)`` is ``out`` times its ``count``-th power."""

    def as_element(self, count: int = 1) -> FullGroupElement:
        """The ``count``-th power of the factor."""
        return self.after(FullGroupElement.identity(), count)


@dataclass(frozen=True)
class InducedFactor(Factor):
    """First-return map of the odometer to ``domain``.

    A return map fixes every point off ``domain``, so a product with one
    of its powers copies the other operand's table and rewrites only the
    support entries.
    """

    domain: ClopenSet
    kind = "induced_on"

    def after(self, out: FullGroupElement, count: int) -> FullGroupElement:
        """``out`` times the ``count``-th power of the return map, in one pass over the support.

        At ``D = max(out.depth, domain.depth)``, ``N = 2**D``, the odometer
        meets the support ``m_0 < ... < m_{c-1}`` in ascending order, ``c``
        per ``N`` steps, so with ``q, r = divmod(count, c)`` the power steps
        ``m_j - m_i + N (q + [i + r >= c])`` from ``m_i`` to ``m_j``, ``j =
        (i + r) mod c``, and ``out`` adds its step at ``m_j``.  Off the
        support the product steps as ``out``.  ``D`` is an operand's
        checked depth, so the members come from ``domain._members(D)``
        with no further check.
        """
        depth = max(out.depth, self.domain.depth)
        size = 1 << depth
        members = self.domain._members(depth)
        if not members:
            raise EmptySetError("a return map needs a nonempty set")
        c = len(members)
        q, r = divmod(count, c)
        steps = out._cocycle_at(depth)
        table = list(steps)
        laps = chain(repeat(size * q, c - r), repeat(size * (q + 1), r))
        for m, t, lap in zip(members, members[r:] + members[:r], laps):
            table[m] = t - m + lap + steps[t]
        return FullGroupElement._trusted(depth, table)

    def to_obj(self) -> dict:
        return {"kind": self.kind, "set": clopen_to_obj(self.domain)}


@dataclass(frozen=True)
class PeriodicFactor(Factor):
    element: FullGroupElement
    kind = "periodic"

    def after(self, out: FullGroupElement, count: int) -> FullGroupElement:
        """``out`` times the power; after the identity, table ``(0,)``, the power itself."""
        power = self.element**count
        return power if out.cocycle == (0,) else out * power

    def to_obj(self) -> dict:
        return {"kind": self.kind, "element": element_to_obj(self.element)}


@dataclass(frozen=True)
class OdometerPowerFactor(Factor):
    power: int
    kind = "power_of_T"

    def after(self, out: FullGroupElement, count: int) -> FullGroupElement:
        return out * FullGroupElement.odometer(self.power * count)

    def to_obj(self) -> dict:
        return {"kind": self.kind, "power": int_to_obj(self.power)}


@dataclass(frozen=True)
class FactorizationCertificate:
    """A target and the word that claims to compose to it.

    ``runs`` holds ``(factor, count)`` pairs, outermost first: the word
    ``[(F1, k1), (F2, k2), ...]`` denotes ``F1**k1 o F2**k2 o ...``.  Any
    iterable of pairs is accepted and kept as a tuple; a count below 1
    raises ``ValueError``, so ``runs`` and ``word`` name the same product.
    ``verified`` is not passed in: the constructor recomposes the word and
    compares it with ``target``, so no certificate exists without that
    check.
    """

    target: FullGroupElement
    runs: tuple[tuple[Factor, int], ...]
    verified: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "runs", tuple(self.runs))
        for _, count in self.runs:
            if count < 1:
                raise ValueError(f"run count {count} is below 1")
        object.__setattr__(self, "verified", self.compose_word() == self.target)

    @property
    def word(self) -> tuple[Factor, ...]:
        """The runs expanded: each factor object repeated ``count`` times."""
        return tuple(chain.from_iterable([factor] * count for factor, count in self.runs))

    def compose_word(self) -> FullGroupElement:
        """The word's product, one ``after`` step per run."""
        out = FullGroupElement.identity()
        for factor, count in self.runs:
            out = factor.after(out, count)
        return out


def _certified(target: FullGroupElement, runs) -> FactorizationCertificate:
    """A producer's certificate; one whose word does not recompose is a defect."""
    cert = FactorizationCertificate(target, runs)
    if not cert.verified:
        raise InvariantError("certificate word does not recompose to its target")
    return cert


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
        FullGroupElement._trusted(u.depth, tables[0]),
        FullGroupElement._trusted(u.depth, tables[1]),
        FullGroupElement._trusted(u.depth, tables[-1]),
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
    repeat shifted by the (positive) displacement, and one backward scan
    over two laps of running sums finds them all.  Every nontrivial cycle
    contains such a cylinder, so inducing on ``domain`` preserves the index
    and the two complementary quotients are periodic.

    The orbit of a cylinder follows its prefix cycle, so the first return
    of ``u`` to ``domain`` steps each start ``c_i`` of a cycle to the next
    start ``c_j`` by ``sums[j] - sums[i]``, the last start to the first a
    lap later: the scan that finds the starts gives the induced table, and
    ``domain`` is its support.  The identity, whose cycles are all
    trivial, gets an empty domain and identity parts, keeping pipelines
    total on the almost positive class.
    """
    if u.is_identity:
        return Positivized(ClopenSet.empty(), u, u, u)
    steps = u.cocycle
    table = [0] * (1 << u.depth)
    for cycle in u.orbit_decomposition().cycles:
        if cycle.kind == TRIVIAL:
            continue
        if cycle.displacement <= 0:
            raise NotAlmostPositiveError(
                f"cycle through prefix {cycle.prefixes[0]} has"
                f" displacement {cycle.displacement}"
            )
        # Start i qualifies when sums[i] is below sums[i + 1 .. i + length].
        # The second lap repeats the first plus the positive displacement,
        # so that is: below every later sum of the two laps.  Scanning
        # backward, the record found just before a start is the next start
        # along the cycle, or the first start a lap later for the last one:
        # the first return steps from the start's sum to the record's.
        length = len(cycle.prefixes)
        sums = list(accumulate((steps[s] for s in cycle.prefixes * 2), initial=0))
        lowest, following = sums[-1], 2 * length
        for i in range(2 * length - 1, -1, -1):
            if sums[i] < lowest:
                lowest = sums[i]
                if i < length:
                    table[cycle.prefixes[i]] = sums[following] - sums[i]
                following = i
    straightened = FullGroupElement._trusted(u.depth, table)
    inverse = straightened.inverse()
    return Positivized(straightened.support(), straightened, u * inverse, inverse * u)


# -- positive elements as products of return maps ------------------------------


def _peel(u: FullGroupElement) -> list[tuple[ClopenSet, int]]:
    """Runs ``(support, count)`` of the peels of a positive element.

    A peel removes the odometer return map ``Q`` to the remainder's
    support: the remainder stays positive and its index drops by one
    (every nonempty clopen set meets the one odometer cycle), so ``u`` is
    the product of the index many return maps in reverse peel order.  A
    run is a maximal stretch of peels with one support.

    Return coordinates: let the remainder ``R`` have support members
    ``m_0 < ... < m_{c-1}`` at the depth ``d`` of ``u``, ``N = 2**d``.  The
    odometer meets them in ascending order, ``c`` per ``N`` steps, so in
    returns to the support ``Q`` steps one and ``R`` steps ``rho[j] >= 1``
    from ``m_j``: ``rho[j] = t // N * c + rank(t % N) - j`` for ``t = m_j +
    n(m_j)``, ``rank(s)`` members below ``s``.  ``k`` peels ``R Q^-k`` step
    ``rho'[j] = rho[(j - k) mod c] - k``, nowhere zero exactly while ``k <
    min rho``: a run is ``min rho`` peels.  The next support keeps the
    positions ``J`` where ``rho'`` is nonzero, and in returns to it ``j``
    steps ``t // c * |J| + rank'(t % c) - rank'(j)`` for ``t = j +
    rho'[j]``, ``rank'`` counting kept positions: a few passes over ``c``
    entries per run, with no table, composition or orbit walk.

    Nesting: ``Q`` and the remainder fix every point off the support, so
    the next remainder does too.  Run supports are thus strictly nested
    unions of depth-``d`` cylinders (no factor is deeper than ``u``), at
    most ``2**d`` of them; their shrinking and the count sum are checked.
    """
    size, table = 1 << u.depth, u.cocycle
    flags = bytearray(map(bool, table))
    members = list(compress(range(size), flags))
    rank = list(accumulate(flags, initial=0))
    c = len(members)
    rho = [
        (s + n) // size * c + rank[(s + n) % size] - j
        for j, (s, n) in enumerate(zip(members, compress(table, flags)))
    ]
    runs = []
    while rho:
        k = min(rho)
        runs.append((ClopenSet._trusted(u.depth, pack(flags)), k))
        rot = rho[c - k % c :] + rho[: c - k % c]
        kept = [x != k for x in rot]
        rank = list(accumulate(kept, initial=0))
        left = rank[-1]
        if left >= c:
            raise InvariantError(f"peel of {k} leaves all {c} support cylinders moved")
        rho = [
            (t := j + x - k) // c * left + rank[t % c] - rank[j]
            for j, x in compress(enumerate(rot), kept)
        ]
        for s in compress(members, map(not_, kept)):
            flags[s] = 0
        members = list(compress(members, kept))
        c = left
    if sum(k for _, k in runs) != u.index():
        raise InvariantError(f"peel counts sum to {sum(k for _, k in runs)}, not {u.index()}")
    return runs


def factor_positive(u: FullGroupElement) -> FactorizationCertificate:
    """Write a positive element as a product of odometer return maps.

    The word lists the peeled return maps outermost first, so its length
    equals the index of ``u``.
    """
    if any(n < 0 for n in u.cocycle):
        raise NotPositiveError("element has a negative step value")
    index = u.index()
    if index > 1 << depth_cap():  # a word holds at most the entries of one table
        raise DepthCapError(f"word of {index} factors exceeds cap 2**{depth_cap()}")
    return _certified(u, ((InducedFactor(s), k) for s, k in reversed(_peel(u))))


# -- normal form ---------------------------------------------------------------


def normal_form(u: FullGroupElement) -> FactorizationCertificate:
    """Certified word ``[w p, p^-1, T^k]``: periodic factors, then ``T^index``.

    ``k`` is the index of ``u`` and ``w = u T^-k`` has index zero, at the
    depth ``d`` of ``u`` at most; let ``N = 2**d``.  Let ``p`` be the
    prefix permutation without wraps with ``pi_w(pi_p(s)) = s + 1 mod N``:
    it steps ``pi_w^-1(s + 1) - s``, so every cycle of ``p`` and of
    ``p^-1`` sums to zero.  ``w p`` permutes the prefixes as one ``N``-cycle
    of displacement ``N (index(w) + index(p)) = 0``.  Both factors are thus
    periodic and no deeper than ``u``, and one scatter pass over ``w``
    builds both: ``w`` carries ``t`` to ``s + 1`` for ``s = pi_p^-1(t)``,
    where ``w p`` steps ``t + n(t) - s`` on ``s`` and ``p^-1`` steps
    ``s - t`` on ``t``.  A periodic ``w`` is written as itself, and the
    identity not at all.
    """
    k = u.index()
    w = u * FullGroupElement.odometer(-k)
    if w.is_identity:
        periodic = []
    elif w.is_periodic():
        periodic = [w]
    else:
        size = 1 << w.depth
        cycled, back = [0] * size, [0] * size
        for t, n in enumerate(w.cocycle):
            s = (t + n - 1) % size
            cycled[s] = t + n - s
            back[t] = s - t
        periodic = [FullGroupElement._trusted(w.depth, table) for table in (cycled, back)]
    word = [*map(PeriodicFactor, periodic), OdometerPowerFactor(k)]
    return _certified(u, [(f, 1) for f in word])


# -- periodic elements as products of involutions -------------------------------


def factor_periodic_into_involutions(u: FullGroupElement) -> FactorizationCertificate:
    """Write a periodic element as a product of at most two involutions.

    A cycle is the product of two reflections.  Let ``c_0 ... c_{L-1}`` be
    a zero-displacement cycle and ``S_j`` the sum of its first ``j`` steps,
    indices mod ``L`` (``S_L = S_0 = 0``).  The reflection ``r1`` sends
    ``c_j`` to ``c_{-j}`` with step ``S_{-j} - S_j``, ``r2`` sends ``c_j`` to
    ``c_{1-j}`` with step ``S_{1-j} - S_j``; each undoes itself, and
    ``r2 r1`` moves ``c_j`` by ``S_{j+1} - S_j``, the step of ``u``.  The
    cycles are disjoint, so one pair of tables serves them all.  The word
    is ``[r2, r1]`` without its identity factors.
    """
    cycles = u.orbit_decomposition().cycles
    if any(cycle.displacement != 0 for cycle in cycles):
        raise NotPeriodicError("element has a cycle of nonzero displacement")
    size = 1 << u.depth
    r1, r2 = [0] * size, [0] * size
    for cycle in cycles:
        length = len(cycle.prefixes)
        sums = list(accumulate((u.cocycle[s] for s in cycle.prefixes), initial=0))
        for j, s in enumerate(cycle.prefixes):
            r1[s] = sums[-j % length] - sums[j]
            r2[s] = sums[(1 - j) % length] - sums[j]
    word = [(PeriodicFactor(FullGroupElement._trusted(u.depth, t)), 1) for t in (r2, r1) if any(t)]
    return _certified(u, word)
