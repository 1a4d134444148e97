"""Finite Kakutani skyscraper systems and within-tower elements.

A system is a list of towers, each a stack of levels of equal measure with
the ambient transformation sending every level to the one above.  Elements
represented here shift points up or down *within* their tower and never
cross the top, so the displacement of a point at level ``i`` is exactly
``|shift|`` ambient steps: all distances below are exact.

The recirculation map joining tower tops back to the bases is deliberately
not represented -- no finite table could be ergodic -- and total mass may
stay below one; reports state the deficit explicitly.

Elements store only their nonzero shifts, one ``(level, shift)`` pair per
moved level, so towers may have millions of levels as long as few of them
move.  Shifts are checked once, where they enter through
:meth:`TowerElement.from_moves`; elements derived from valid ones are built
without the checks.  The crossing-involution table is written in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from .clopen import check_depth
from .dyadic import Dyadic
from .errors import (
    CrossesTopError,
    MassExceedsOneError,
    NotBijectiveError,
    NotInLevelSetError,
    SystemMismatchError,
)


class Tower(NamedTuple):
    height: int
    base_measure: Dyadic


class TowerSystem:
    """An ordered family of towers with total mass at most one."""

    __slots__ = ("towers", "total_mass")

    def __init__(self, towers: Sequence[tuple[int, Dyadic]]):
        validated = []
        mass = Dyadic(0)
        for t, (height, base) in enumerate(towers):
            if type(height) is bool or not (
                isinstance(height, int) and isinstance(base, (Dyadic, int))
            ):
                raise TypeError(f"tower {t}: height must be an int, base a Dyadic or int")
            if height < 1:
                raise ValueError(f"tower height {height} must be at least 1")
            base = base if isinstance(base, Dyadic) else Dyadic(base)
            if not base > 0:
                raise ValueError("base measure must be positive")
            validated.append(Tower(height, base))
            mass = mass + base * height
        if mass > 1:
            raise MassExceedsOneError(f"total mass {mass} exceeds one")
        self.towers = tuple(validated)
        self.total_mass = mass

    def mass_deficit(self) -> Dyadic:
        return Dyadic(1) - self.total_mass

    def __eq__(self, other):
        if not isinstance(other, TowerSystem):
            return NotImplemented
        return self.towers == other.towers

    def __hash__(self):
        return hash(self.towers)

    def __repr__(self):
        return f"TowerSystem({[(t.height, str(t.base_measure)) for t in self.towers]})"


def _check_moves(tower: Tower, t: int, moves: dict[int, int]) -> None:
    """Type, range and bijectivity checks for one tower's nonzero shifts.

    Levels and shifts must be ``int`` (``bool`` is refused).  The shifted levels must stay inside the tower, and their images must be
    exactly the moved levels: an image landing on a fixed level would give
    that level two preimages.
    """
    images = set()
    for i, n in sorted(moves.items()):
        if type(i) is not int or type(n) is not int:  # bool included
            raise TypeError(f"tower {t}: level and shift must be integers, got {i!r}: {n!r}")
        if not 0 <= i < tower.height:
            raise ValueError(f"tower {t}: no level {i}")
        target = i + n
        if not 0 <= target < tower.height:
            raise CrossesTopError(
                f"tower {t}: level {i} shifted to {target}, outside"
                f" [0, {tower.height})"
            )
        if target in images:
            raise NotBijectiveError(f"tower {t}: two levels shifted to {target}")
        images.add(target)
    if images != moves.keys():
        stray = min(images ^ moves.keys())
        raise NotBijectiveError(f"tower {t}: level {stray} has colliding preimages")


class TowerElement:
    """A level-shift element of a skyscraper system.

    Construct with :meth:`from_moves` from one mapping of shifts per tower:
    zero shifts are dropped, and the rest must keep their levels in range
    and permute them.  Products, inverses, the identity and the crossing
    involutions are valid by construction and skip the checks.  :attr:`moves`
    holds per tower the nonzero shifts as ``(level, shift)`` pairs by level.
    """

    __slots__ = ("system", "moves")

    @classmethod
    def from_moves(cls, system: TowerSystem, moves: Sequence[dict[int, int]]) -> "TowerElement":
        if len(moves) != len(system.towers):
            raise ValueError("one move table per tower expected")
        moves = [{i: n for i, n in m.items() if n} for m in moves]
        for t, (tower, m) in enumerate(zip(system.towers, moves)):
            _check_moves(tower, t, m)
        return cls._trusted(system, [sorted(m.items()) for m in moves])

    @classmethod
    def _trusted(cls, system: TowerSystem, moves) -> "TowerElement":
        """Element of sorted nonzero ``(level, shift)`` pairs per tower that need no check."""
        self = object.__new__(cls)
        self.system = system
        self.moves = tuple(map(tuple, moves))
        return self

    @classmethod
    def identity(cls, system: TowerSystem) -> "TowerElement":
        return cls._trusted(system, [()] * len(system.towers))

    @property
    def is_identity(self) -> bool:
        return not any(self.moves)

    def __mul__(self, other: "TowerElement") -> "TowerElement":
        if not isinstance(other, TowerElement):
            return NotImplemented
        if self.system != other.system:
            raise SystemMismatchError("cannot compose across systems")
        moves = []
        for outer, inner in zip(self.moves, other.moves):
            outer_map, inner_map = dict(outer), dict(inner)
            levels = sorted(outer_map.keys() | inner_map.keys())
            # inner takes level i to j, and outer moves j on by its shift
            paths = ((i, i + inner_map.get(i, 0)) for i in levels)
            moves.append([(i, n) for i, j in paths if (n := j + outer_map.get(j, 0) - i)])
        return TowerElement._trusted(self.system, moves)

    def inverse(self) -> "TowerElement":
        moves = [sorted((i + n, -n) for i, n in m) for m in self.moves]
        return TowerElement._trusted(self.system, moves)

    def __eq__(self, other):
        if not isinstance(other, TowerElement):
            return NotImplemented
        return self.system == other.system and self.moves == other.moves

    def __hash__(self):
        return hash((self.system, self.moves))

    def __repr__(self):
        return f"TowerElement(moves={[dict(m) for m in self.moves]})"


def tower_metric(
    u: TowerElement,
    v: TowerElement,
    induced_on: Optional[Sequence[Sequence[int]]] = None,
) -> Dyadic:
    """Exact distance between two elements of one system.

    Without ``induced_on``, a point at level ``i`` contributes
    ``|shift_u - shift_v|`` ambient steps.  With ``induced_on`` (one level
    collection per tower), displacements are counted in steps of the
    first-return map to those levels: positions along the sorted level set
    replace raw level numbers, and every moved level of either element,
    together with its image, must lie in the set.  The cost is one step per
    moved level of either element and per member of a level set.
    """
    if u.system != v.system:
        raise SystemMismatchError("metric needs elements of one system")
    if induced_on is not None and len(induced_on) != len(u.system.towers):
        raise ValueError("one level collection per tower expected")
    total = Dyadic(0)
    for t, (tower, a, b) in enumerate(zip(u.system.towers, u.moves, v.moves)):
        if induced_on is None:
            position = range(tower.height)
        else:
            levels = sorted(set(induced_on[t]))
            if levels and not 0 <= levels[0] <= levels[-1] < tower.height:
                raise ValueError(f"tower {t}: level set out of range")
            position = {level: k for k, level in enumerate(levels)}
            for i, n in (*a, *b):
                if i not in position or i + n not in position:
                    raise NotInLevelSetError(f"tower {t}: move {i} -> {i + n} leaves the level set")
        a_map, b_map = dict(a), dict(b)
        weight = sum(
            abs(position[i + a_map.get(i, 0)] - position[i + b_map.get(i, 0)])
            for i in a_map.keys() | b_map.keys()
        )
        total = total + tower.base_measure * weight
    return total


def counterexample_element(n: int) -> TowerElement:
    """The ``n``-th crossing involution of the tower family.

    On the height ``4**n`` tower of base measure ``8**-n``, every
    ``2**n``-th level is selected; the first half of the selected levels
    jumps up by ``4**n / 2`` and the second half jumps back down: an
    involution supported on measure ``2**-2n``, whose distances from the
    identity :func:`counterexample_report` writes in closed form.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    check_depth(n)  # 2**n moved levels: the entries of a depth-n table
    height = 4**n
    system = TowerSystem([(height, Dyadic(1, 3 * n))])
    jump, half = height // 2, 2 ** (n - 1)
    moves = zip(range(0, height, 2**n), [jump] * half + [-jump] * half)
    return TowerElement._trusted(system, [moves])


@dataclass(frozen=True)
class CounterexampleRow:
    n: int
    ambient_distance: Dyadic
    induced_distance: Dyadic


@dataclass(frozen=True)
class CounterexampleReport:
    """Distance table of the crossing involutions.

    The ambient column is constantly ``1/2`` (not summable) while the
    induced column is ``2**-(n+1)`` (summable): the two metrics are
    genuinely inequivalent.  ``mass_deficit`` is the mass missing from the
    truncated tower family; per-row values do not depend on it.
    """

    rows: tuple[CounterexampleRow, ...]
    mass_deficit: Dyadic


def counterexample_report(n_max: int) -> CounterexampleReport:
    """Rows ``1 .. n_max`` of the table, written from ``n`` alone.

    Row ``n`` measures :func:`counterexample_element` ``(n)`` against the
    identity: ``2**n`` levels of measure ``2**-3n`` each move ``2**(2n-1)``
    levels, or ``2**(n-1)`` steps of the return map to the selected levels,
    which are ``2**n`` apart.  So the ambient distance is ``2**n *
    2**(2n-1) * 2**-3n = 1/2`` and the induced one is ``2**n * 2**(n-1) *
    2**-3n = 2**-(n+1)``.  ``n_max`` is capped like the element's moves.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    check_depth(n_max)
    rows = tuple(CounterexampleRow(n, Dyadic(1, 1), Dyadic(1, n + 1)) for n in range(1, n_max + 1))
    return CounterexampleReport(rows, Dyadic(1, n_max))
