"""Elements of the topological full group of the dyadic odometer.

An element is a transformation that moves every point by a number of
odometer steps depending only on the first ``d`` coordinates: it is stored
as an integer table ``n(s)`` over the ``2**d`` prefixes.  The table defines
a bijection of the space exactly when ``s -> (s + n(s)) mod 2**d`` permutes
the prefixes; points of the cylinder ``s`` then land in the cylinder
``(s + n(s)) mod 2**d`` with their tails transformed bijectively, so the
prefix permutation carries all of the combinatorics.

Because the odometer is aperiodic, the step table of a transformation is
unique, and the canonical minimal-depth table is a complete invariant:
equality of elements is equality of canonical tables.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import repeat
from math import lcm
from operator import add, ne, sub

from .clopen import ClopenSet, check_depth, pack
from .dyadic import Dyadic
from .errors import InvariantError, NotBijectiveError

TRIVIAL = "trivial"
PERIODIC = "periodic"
POSITIVE = "positive"
NEGATIVE = "negative"


class FullGroupElement:
    """A full-group element given by its step table at some depth.

    Tables from a caller enter through the constructor, which checks the
    depth cap and bijectivity.  Tables that operations build from valid
    operands, at a depth no deeper than theirs, enter through
    :meth:`_trusted` and skip both checks.  Either way the table is reduced
    to minimal depth, so any two constructions of the same transformation
    compare equal.  Values are immutable; all operations return new
    elements.
    """

    __slots__ = ("depth", "cocycle")

    def __init__(self, depth: int, cocycle):
        check_depth(depth)
        table = tuple(cocycle)
        size = 1 << depth
        if len(table) != size:
            raise ValueError(f"table length {len(table)} != 2**{depth}")
        _check_bijective(depth, table)
        self._reduce(depth, table)

    @classmethod
    def _trusted(cls, depth: int, table) -> "FullGroupElement":
        """Element of a table that needs no check, reduced to minimal depth.

        The caller guarantees that ``table`` is a bijective depth-``depth``
        table of ``int`` entries and that ``depth`` is within the cap: an
        operand's checked depth or one the caller has checked itself.
        """
        self = object.__new__(cls)
        self._reduce(depth, tuple(table))
        return self

    def _reduce(self, depth: int, table: tuple) -> None:
        while depth > 0:
            half = 1 << (depth - 1)
            if table[0] != table[half] or table[:half] != table[half:]:
                break
            table = table[:half]
            depth -= 1
        self.depth = depth
        self.cocycle = table

    @classmethod
    def identity(cls) -> "FullGroupElement":
        return _IDENTITY  # values are immutable, so one instance serves every call

    @classmethod
    def odometer(cls, power: int = 1) -> "FullGroupElement":
        """The odometer itself (or the given power of it)."""
        _check_bijective(0, (power,))  # any integer power; rejects the rest
        return cls._trusted(0, (power,))

    # -- refinement --------------------------------------------------------

    def _cocycle_at(self, depth: int) -> tuple[int, ...]:
        """Step table refined to an operand's checked ``depth >= self.depth``.

        A depth-``d+1`` prefix restricts to the depth-``d`` prefix
        ``s mod 2**d``, so refining one level concatenates the table with
        itself.
        """
        return self.cocycle * (1 << (depth - self.depth))

    # -- group structure -----------------------------------------------------

    def __mul__(self, other: "FullGroupElement") -> "FullGroupElement":
        """Composition ``self * other``: apply ``other`` first.

        On the cylinder ``s`` the inner factor moves by ``n_other(s)`` into
        the cylinder ``pi_other(s)``, where the outer factor adds its own
        step count.
        """
        if not isinstance(other, FullGroupElement):
            return NotImplemented
        depth = max(self.depth, other.depth)
        size = 1 << depth
        outer = self._cocycle_at(depth)
        inner = other._cocycle_at(depth)
        table = [n + outer[(s + n) % size] for s, n in enumerate(inner)]
        return FullGroupElement._trusted(depth, table)

    def inverse(self) -> "FullGroupElement":
        size = 1 << self.depth
        table = [0] * size
        for s, n in enumerate(self.cocycle):
            table[(s + n) % size] = -n
        return FullGroupElement._trusted(self.depth, table)

    def _over(self, other: "FullGroupElement") -> "FullGroupElement":
        """Right quotient ``self * other.inverse()`` in one pass.

        ``other`` carries the cylinder ``s`` to ``t = s + n_other(s)``, so
        the quotient steps back to ``s`` and on by ``n_self(s)``: its step
        on ``t`` is ``n_self(s) - n_other(s)``.
        """
        depth = max(self.depth, other.depth)
        size = 1 << depth
        numerator = self._cocycle_at(depth)
        table = [0] * size
        for s, n in enumerate(other._cocycle_at(depth)):
            table[(s + n) % size] = numerator[s] - n
        return FullGroupElement._trusted(depth, table)

    def __pow__(self, power: int) -> "FullGroupElement":
        if type(power) is not int:  # bool included
            raise TypeError(f"power must be an integer, got {power!r}")
        if self.depth == 0:  # T^n, whose powers are T^(n * power)
            return FullGroupElement.odometer(self.cocycle[0] * power)
        if power < 0:
            return self.inverse() ** -power
        result = self if power else FullGroupElement.identity()
        for bit in bin(power)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def __eq__(self, other):
        if not isinstance(other, FullGroupElement):
            return NotImplemented
        return self.depth == other.depth and self.cocycle == other.cocycle

    def __hash__(self):
        return hash((self.depth, self.cocycle))

    def __repr__(self):
        return f"FullGroupElement(depth={self.depth}, cocycle={list(self.cocycle)})"

    @property
    def is_identity(self) -> bool:
        return self.depth == 0 and self.cocycle == (0,)

    # -- invariants -----------------------------------------------------------

    def index(self) -> int:
        """Average step count, always an exact integer.

        ``n(s) = pi(s) - s (mod 2**d)`` summed over a permutation makes the
        total divisible by ``2**d``.
        """
        total = sum(self.cocycle)
        quotient, remainder = divmod(total, 1 << self.depth)
        if remainder:
            raise InvariantError(f"cocycle sum {total} is not divisible by 2**{self.depth}")
        return quotient

    def support(self) -> ClopenSet:
        """Union of the cylinders the element moves.

        Aperiodicity of the odometer means a nonzero step moves every point
        of its cylinder.
        """
        return ClopenSet._trusted(self.depth, pack(map(bool, self.cocycle)))

    def image_of(self, subset: ClopenSet) -> ClopenSet:
        """Image of a clopen set under the element."""
        depth = max(self.depth, subset.depth)
        size = 1 << depth
        steps = self._cocycle_at(depth)
        image = bytearray(size)
        for s in subset._members(depth):
            image[(s + steps[s]) % size] = 1
        return ClopenSet._trusted(depth, pack(image))

    def orbit_decomposition(self) -> "OrbitDecomposition":
        """Cycle structure of the prefix permutation, with displacements."""
        size = 1 << self.depth
        table = self.cocycle
        seen = [False] * size
        cycles = []
        for start in range(size):
            if seen[start]:
                continue
            prefixes = []
            displacement = 0
            s = start
            while not seen[s]:
                seen[s] = True
                prefixes.append(s)
                n = table[s]
                displacement += n
                s = (s + n) % size
            # A 1-cycle of zero sum has step 0, and a longer cycle moves
            # every prefix, so the length tells trivial from periodic.
            if displacement > 0:
                kind = POSITIVE
            elif displacement < 0:
                kind = NEGATIVE
            elif len(prefixes) > 1:
                kind = PERIODIC
            else:
                kind = TRIVIAL
            cycles.append(OrbitCycle(tuple(prefixes), displacement, kind))
        return OrbitDecomposition(self.depth, tuple(cycles))

    def is_periodic(self) -> bool:
        """True when every point has a finite orbit.

        A prefix cycle of displacement zero gives its points period equal
        to the cycle length; nonzero displacement makes the step sums drift
        to infinity.
        """
        return all(c.displacement == 0 for c in self.orbit_decomposition().cycles)

    def period(self) -> int | None:
        """Least ``L`` with ``self**L`` trivial, or ``None`` if aperiodic."""
        cycles = self.orbit_decomposition().cycles
        if any(c.displacement != 0 for c in cycles):
            return None
        return lcm(*(len(c.prefixes) for c in cycles))


_IDENTITY = FullGroupElement._trusted(0, (0,))


def _check_bijective(depth: int, table) -> None:
    size = 1 << depth
    targets = map((size - 1).__and__, map(add, range(size), table))
    if set(map(type, table)) <= {int} and len(set(targets)) == size:
        return
    # rescan entry by entry to name the bad entry or the colliding prefixes
    hit_by = [-1] * size
    for s, n in enumerate(table):
        if not isinstance(n, int) or isinstance(n, bool):
            raise TypeError("cocycle entries must be integers")
        target = (s + n) % size
        if hit_by[target] >= 0:
            raise NotBijectiveError(
                f"prefixes {hit_by[target]} and {s} both map to {target}"
            )
        hit_by[target] = s


@dataclass(frozen=True)
class OrbitCycle:
    """One cycle of the prefix permutation.

    ``prefixes`` lists the orbit in order starting from its least prefix,
    ``displacement`` is the step sum along the cycle, and ``kind``
    classifies it: ``trivial`` (all steps zero), ``periodic`` (zero sum,
    some step nonzero), ``positive`` or ``negative`` (sign of the sum).
    """

    prefixes: tuple[int, ...]
    displacement: int
    kind: str


@dataclass(frozen=True)
class OrbitDecomposition:
    depth: int
    cycles: tuple[OrbitCycle, ...]


def commutator(u: FullGroupElement, v: FullGroupElement) -> FullGroupElement:
    """The commutator ``[u, v] = u v u^-1 v^-1``.

    Since ``(vu)^-1 = u^-1 v^-1``, it equals ``(uv)(vu)^-1``: two
    compositions and one quotient, three table passes.
    """
    return (u * v)._over(v * u)


def distance(u: FullGroupElement, v: FullGroupElement, p=1) -> Dyadic:
    """Exact distance between two elements.

    ``p = 1`` integrates ``|n_u - n_v|`` (the walk metric on orbits gives
    displacement ``|k|`` for ``k`` odometer steps); ``p = "uniform"``
    measures the set where the elements disagree; integer ``p >= 2``
    returns the ``p``-th power of the L^p distance, which keeps the value
    dyadic.
    """
    if isinstance(p, bool):
        raise TypeError(f"p must be 1, an integer >= 2, or 'uniform', not {p!r}")
    if p != "uniform" and not (isinstance(p, int) and p >= 1):
        raise ValueError(f"p must be 1, an integer >= 2, or 'uniform': {p!r}")
    depth = max(u.depth, v.depth)
    a = u._cocycle_at(depth)
    b = v._cocycle_at(depth)
    if p == "uniform":
        total = sum(map(ne, a, b))
    elif p == 1:
        total = sum(map(abs, map(sub, a, b)))
    else:
        total = sum(map(pow, map(abs, map(sub, a, b)), repeat(p)))
    return Dyadic(total, depth)


def random_element(
    depth: int,
    wrap_bound: int = 0,
    seed: int | None = None,
    rng: random.Random | None = None,
) -> FullGroupElement:
    """Uniform random element among depth-``depth`` tables with bounded wraps.

    Draws a uniform prefix permutation ``pi`` and independent wrap counts
    ``w(s)`` in ``[-wrap_bound, wrap_bound]``, and sets
    ``n(s) = (pi(s) - s) mod 2**d + 2**d * w(s)``.  This parameterization
    is a bijection onto the valid depth-``d`` tables with those wraps, and
    the output is deterministic for a fixed seed.
    """
    check_depth(depth)
    if isinstance(wrap_bound, bool) or not isinstance(wrap_bound, int):
        raise TypeError(f"wrap_bound must be an integer, got {wrap_bound!r}")
    if wrap_bound < 0:
        raise ValueError("wrap_bound must be nonnegative")
    if rng is None:
        rng = random.Random(seed)
    size = 1 << depth
    pi = list(range(size))
    rng.shuffle(pi)
    table = [(pi[s] - s) % size for s in range(size)]
    if wrap_bound:
        wraps = rng.choices(range(-wrap_bound, wrap_bound + 1), k=size)
        table = [n + size * w for n, w in zip(table, wraps)]
    return FullGroupElement._trusted(depth, table)
