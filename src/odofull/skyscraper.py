"""Finite Kakutani skyscraper systems and within-tower elements.

A system is a list of towers, each a stack of levels of equal measure with
the ambient transformation sending every level to the one above.  Elements
represented here shift points up or down *within* their tower and never
cross the top, so the displacement of a point at level ``i`` is exactly
``|shift|`` ambient steps: all distances below are exact.

The recirculation map joining tower tops back to the bases is deliberately
not represented -- no finite table could be ergodic -- and total mass may
stay below one; reports state the deficit explicitly.

Elements store only their nonzero shifts, as runs: maximal segments of one
shift over equally spaced levels, each a ``(range, shift)`` pair, so a
crossing involution is two runs however tall its tower.  Shifts are checked
once, where they enter through :meth:`TowerElement.from_moves`; elements
derived from valid ones are built without the checks.
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


def _cut(moves: dict[int, int]) -> tuple:
    """One tower's moves cut greedily into runs; equal moves give equal runs."""
    runs = []
    for i, n in sorted(moves.items()):
        levels, shift = runs[-1] if runs else (None, None)
        if n == shift and (len(levels) == 1 or i - levels[-1] == levels.step):
            runs[-1] = (range(levels[0], i + 1, i - levels[-1]), n)
        else:
            runs.append((range(i, i + 1), n))
    return tuple(runs)


def _expand(runs) -> dict[int, int]:
    return {i: n for levels, n in runs for i in levels}


class TowerElement:
    """A level-shift element of a skyscraper system.

    Construct with :meth:`from_moves` from one mapping of shifts per tower:
    zero shifts are dropped, and the rest must keep their levels in range
    and permute them.  Products, inverses, the identity and the crossing
    involutions are valid by construction and skip the checks.  Moves are
    stored as runs; :attr:`moves` expands them into ``(level, shift)`` pairs.
    """

    __slots__ = ("system", "_runs")

    @classmethod
    def from_moves(cls, system: TowerSystem, moves: Sequence[dict[int, int]]) -> "TowerElement":
        if len(moves) != len(system.towers):
            raise ValueError("one move table per tower expected")
        moves = [{i: n for i, n in m.items() if n} for m in moves]
        for t, (tower, m) in enumerate(zip(system.towers, moves)):
            _check_moves(tower, t, m)
        return cls._trusted(system, [_cut(m) for m in moves])

    @classmethod
    def _trusted(cls, system: TowerSystem, runs: Sequence[tuple]) -> "TowerElement":
        """Element of one tuple of canonical runs per tower that needs no check."""
        self = object.__new__(cls)
        self.system = system
        self._runs = tuple(runs)
        return self

    @classmethod
    def identity(cls, system: TowerSystem) -> "TowerElement":
        return cls._trusted(system, [()] * len(system.towers))

    @property
    def moves(self) -> tuple:
        """Per tower, the nonzero shifts as ``(level, shift)`` pairs sorted by level."""
        return tuple(tuple(_expand(runs).items()) for runs in self._runs)

    @property
    def is_identity(self) -> bool:
        return not any(self._runs)

    def __mul__(self, other: "TowerElement") -> "TowerElement":
        if not isinstance(other, TowerElement):
            return NotImplemented
        if self.system != other.system:
            raise SystemMismatchError("cannot compose across systems")
        runs = []
        for outer, inner in zip(self._runs, other._runs):
            if not (outer and inner):
                runs.append(outer or inner)
                continue
            outer_map, inner_map = _expand(outer), _expand(inner)
            combined = {}
            for i in outer_map.keys() | inner_map.keys():
                first = inner_map.get(i, 0)
                total = first + outer_map.get(i + first, 0)
                if total:
                    combined[i] = total
            runs.append(_cut(combined))
        return TowerElement._trusted(self.system, runs)

    def inverse(self) -> "TowerElement":
        runs = [_cut({i + n: -n for i, n in _expand(r).items()}) for r in self._runs]
        return TowerElement._trusted(self.system, runs)

    def __eq__(self, other):
        if not isinstance(other, TowerElement):
            return NotImplemented
        return self.system == other.system and self._runs == other._runs

    def __hash__(self):
        return hash((self.system, self._runs))

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
    for t, (tower, a, b) in enumerate(zip(u.system.towers, u._runs, v._runs)):
        levels = range(tower.height) if induced_on is None else induced_on[t]
        if not (isinstance(levels, range) and levels.step > 0):
            levels = sorted(set(levels))
        if levels and not 0 <= levels[0] <= levels[-1] < tower.height:
            raise ValueError(f"tower {t}: level set out of range")
        # One operand fixed and a strided level set: when a run's first two and
        # last members and their images lie in the set, each member moves shift / step.
        if isinstance(levels, range) and not (a and b) and all(
            i in levels and i + n in levels for moved, n in a or b for i in (*moved[:2], moved[-1])
        ):
            weight = sum(len(moved) * abs(n) for moved, n in a or b) // levels.step
        else:
            a_map, b_map = _expand(a), _expand(b)
            if induced_on is None:
                position = levels
            else:
                position = {level: k for k, level in enumerate(levels)}
                for i, n in [*a_map.items(), *b_map.items()]:
                    if i not in position or i + n not in position:
                        raise NotInLevelSetError(
                            f"tower {t}: move {i} -> {i + n} leaves the level set"
                        )
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
    jumps up by ``4**n / 2`` and the second half jumps back down.  The
    element is an involution supported on measure ``2**-2n``, sits at
    ambient distance exactly ``1/2`` from the identity, yet only
    ``2**-(n+1)`` away in the metric of the return map to the selected
    levels.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    check_depth(n)  # 2**n moved levels: the entries of a depth-n table
    height = 4**n
    system = TowerSystem([(height, Dyadic(1, 3 * n))])
    jump = height // 2
    spacing = 2**n
    runs = ((range(0, jump, spacing), jump), (range(jump, height, spacing), -jump))
    return TowerElement._trusted(system, [runs])


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
        ambient = tower_metric(element, identity)
        induced = tower_metric(element, identity, induced_on=[range(0, 4**n, 2**n)])
        rows.append(CounterexampleRow(n, ambient, induced))
    deficit = Dyadic(1, n_max)
    return CounterexampleReport(tuple(rows), deficit)
