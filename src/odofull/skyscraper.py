"""Finite Kakutani skyscraper systems and within-tower elements.

A system is a list of towers, each a stack of levels of equal measure with
the ambient transformation sending every level to the one above.  Elements
represented here shift points up or down *within* their tower and never
cross the top, so the displacement of a point at level ``i`` is exactly
``|shift|`` ambient steps: all distances below are exact.

The recirculation map joining tower tops back to the bases is deliberately
not represented -- no finite table could be ergodic -- and total mass may
stay below one; reports state the deficit explicitly.

Elements store only their nonzero shifts, so towers may have millions of
levels as long as few of them move.  Shifts are checked once, where they
enter through :meth:`TowerElement.from_moves`; elements derived from valid
ones are built without the checks.
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
            if not isinstance(height, int) or not isinstance(base, (Dyadic, int)):
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
    """Range and bijectivity checks for one tower's nonzero shifts.

    The shifted levels must stay inside the tower, and their images must be
    exactly the moved levels: an image landing on a fixed level would give
    that level two preimages.
    """
    images = set()
    for i, n in sorted(moves.items()):
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
    involutions are valid by construction and skip the checks.
    """

    __slots__ = ("system", "moves")

    @classmethod
    def from_moves(cls, system: TowerSystem, moves: Sequence[dict[int, int]]) -> "TowerElement":
        if len(moves) != len(system.towers):
            raise ValueError("one move table per tower expected")
        moves = [{i: n for i, n in m.items() if n} for m in moves]
        for t, (tower, m) in enumerate(zip(system.towers, moves)):
            _check_moves(tower, t, m)
        return cls._trusted(system, moves)

    @classmethod
    def _trusted(cls, system: TowerSystem, moves: Sequence[dict[int, int]]) -> "TowerElement":
        """Element of one dict per tower of nonzero shifts that need no check."""
        self = object.__new__(cls)
        self.system = system
        self.moves = tuple(tuple(sorted(m.items())) for m in moves)
        return self

    @classmethod
    def identity(cls, system: TowerSystem) -> "TowerElement":
        return cls._trusted(system, [{} for _ in system.towers])

    @property
    def is_identity(self) -> bool:
        return all(not m for m in self.moves)

    def __mul__(self, other: "TowerElement") -> "TowerElement":
        if not isinstance(other, TowerElement):
            return NotImplemented
        if self.system != other.system:
            raise SystemMismatchError("cannot compose across systems")
        moves = []
        for outer, inner in zip(self.moves, other.moves):
            outer_map = dict(outer)
            inner_map = dict(inner)
            combined = {}
            for i in set(outer_map) | set(inner_map):
                first = inner_map.get(i, 0)
                total = first + outer_map.get(i + first, 0)
                if total:
                    combined[i] = total
            moves.append(combined)
        return TowerElement._trusted(self.system, moves)

    def inverse(self) -> "TowerElement":
        return TowerElement._trusted(self.system, [{i + n: -n for i, n in m} for m in self.moves])

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
    together with its image, must lie in the set.
    """
    if u.system != v.system:
        raise SystemMismatchError("metric needs elements of one system")
    if induced_on is not None and len(induced_on) != len(u.system.towers):
        raise ValueError("one level collection per tower expected")
    total = Dyadic(0)
    for t, (tower, a, b) in enumerate(zip(u.system.towers, u.moves, v.moves)):
        a_map, b_map = dict(a), dict(b)
        if induced_on is None:
            position = range(tower.height)
        else:
            ordered = sorted(set(induced_on[t]))
            if any(not 0 <= i < tower.height for i in ordered):
                raise ValueError(f"tower {t}: level set out of range")
            position = {level: k for k, level in enumerate(ordered)}
            for table in (a_map, b_map):
                for i, n in table.items():
                    if i not in position or i + n not in position:
                        raise NotInLevelSetError(
                            f"tower {t}: move {i} -> {i + n} leaves the level set"
                        )
        weight = sum(
            abs(position[i + a_map.get(i, 0)] - position[i + b_map.get(i, 0)])
            for i in set(a_map) | set(b_map)
        )
        total = total + tower.base_measure * weight
    return total


def counterexample_element(n: int) -> TowerElement:
    """The ``n``-th crossing involution of the tower family.

    On the height ``4**n`` tower of base measure ``8**-n``, every
    ``2**n``-th level is selected; the first half of the selected levels
    jumps up by ``4**n / 2`` and the second half jumps back down.  The
    element is an involution supported on measure ``2**-2n``, sits at
    ambient distance exactly ``1/2`` from the identity, yet only
    ``2**-(n+1)`` away in the metric of the return map to the selected
    levels.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    check_depth(n)  # 2**n moves: the entries of a depth-n table
    height = 4**n
    system = TowerSystem([(height, Dyadic(1, 3 * n))])
    jump = height // 2
    spacing = 2**n
    moves = dict(zip(range(0, height, spacing), [jump] * 2 ** (n - 1) + [-jump] * 2 ** (n - 1)))
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
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    check_depth(n_max)
    rows = []
    for n in range(1, n_max + 1):
        element = counterexample_element(n)
        identity = TowerElement.identity(element.system)
        levels = range(0, 4**n, 2**n)
        rows.append(
            CounterexampleRow(
                n,
                tower_metric(element, identity),
                tower_metric(element, identity, induced_on=[levels]),
            )
        )
    deficit = Dyadic(1, n_max)
    return CounterexampleReport(tuple(rows), deficit)
