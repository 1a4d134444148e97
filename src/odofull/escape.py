"""Escape times of clopen sets and the diverging tower family.

The escape time of a point of ``A`` is the least number of odometer steps,
forward or backward, that leaves ``A``.  Return times always integrate to
one, but escape integrals can be made arbitrarily large on sets of
arbitrarily small measure; :func:`escape_tower_family` realizes that
mechanism exactly with dyadic tower heights.  :func:`escape_time` reads a
set as its maximal runs of members; each row of the family is one run,
written in closed form from ``m`` alone.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .clopen import ClopenSet, check_depth
from .dyadic import Dyadic
from .errors import EmptySetError


class _Infinite:
    """Sentinel for an infinite escape time or integral."""

    def __reduce__(self):  # copies and pickles resolve to the one INFINITE
        return "INFINITE"

    def __repr__(self):
        return "INFINITE"


INFINITE = _Infinite()
# A maximal run of member flags.  Spelled with a literal first byte, which
# lets the regex engine jump between runs by a fast search instead of
# stepping through the non-members one at a time.
_RUN = re.compile(rb"\x01\x01*")


@dataclass(frozen=True, eq=False)
class EscapeResult:
    """Escape times per member prefix and their exact integral."""

    depth: int
    times: dict = field(repr=False)
    integral: object

    @property
    def is_infinite(self) -> bool:
        return self.integral is INFINITE


def _runs(subset: ClopenSet) -> list[tuple[int, int]]:
    """Maximal runs ``(a, b)`` of consecutive members ``a .. b`` of a set that is not full.

    A run through position 0 is one cyclic run, tracked past the table end.
    """
    size = 1 << subset.depth
    runs = [(m.start(), m.end() - 1) for m in _RUN.finditer(subset._flags(subset.depth))]
    if len(runs) > 1 and runs[0][0] == 0 and runs[-1][1] == size - 1:
        first = runs.pop(0)
        last = runs.pop()
        runs.append((last[0], first[1] + size))
    return runs


def escape_time(subset: ClopenSet) -> EscapeResult:
    """Escape time table of ``subset`` under the odometer.

    ``times[s]`` is the least ``k >= 1`` with ``s + k`` or ``s - k``
    (mod ``2**d``) outside the set; it is infinite exactly when the set is
    the whole space.  Escape only depends on the maximal run of
    consecutive members around ``s``: within a run it costs ``min`` of the
    distances past either end.
    """
    if subset.is_empty:
        raise EmptySetError("escape times need a nonempty set")
    if subset.is_full:
        return EscapeResult(0, {0: INFINITE}, INFINITE)

    depth = subset.depth
    size = 1 << depth
    times = {}
    total = 0
    for a, b in _runs(subset):
        for s in range(a, b + 1):
            tau = min(s - a + 1, b - s + 1)
            times[s % size] = tau
            total += tau
    return EscapeResult(depth, times, Dyadic(total, depth))


@dataclass(frozen=True)
class EscapeRow:
    m: int
    depth: int
    measure: Dyadic
    integral: Dyadic


def escape_tower_family(m_max: int) -> tuple[EscapeRow, ...]:
    """Escape integrals of an odometer tower family with shrinking bases.

    Row ``m`` takes the first ``4**m`` levels of the height-``8**m``
    odometer tower over the base cylinder, i.e. prefixes ``0 .. 4**m - 1``
    at depth ``3m``.  The measures ``2**-m`` shrink geometrically while the
    escape integrals grow without bound: escape from a run of ``K``
    consecutive levels costs ``min(s + 1, K - s)`` steps, which sum to
    ``h (K + 1 - h)`` with ``h = (K + 1) // 2``, quadratic in ``K``.  Each
    row's set is one run, as ``4**m < 8**m``, so the row is that sum, which
    for the even ``K = 4**m`` is ``(K/2) (K/2 + 1)``, written from ``m``
    with no set or table.
    """
    if isinstance(m_max, bool):
        raise TypeError(f"m_max must be an integer, got {m_max!r}")
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    check_depth(3 * m_max)
    return tuple(
        EscapeRow(m, 3 * m, Dyadic(4**m, 3 * m), Dyadic(4**m // 2 * (4**m // 2 + 1), 3 * m))
        for m in range(1, m_max + 1)
    )
