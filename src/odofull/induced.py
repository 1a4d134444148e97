"""First-return maps, Kac sums, elementary involutions, cycle supports.

The first-return map of an element ``u`` to a clopen set ``A`` moves each
point of ``A`` forward along its ``u``-orbit until the orbit re-enters
``A`` and fixes everything else.  At a common depth this is a walk on the
prefix permutation, so return times and the induced step table are exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress

from .clopen import ClopenSet, check_depth, pack
from .dyadic import Dyadic
from .element import FullGroupElement
from .errors import EmptySetError, OverlapError


@dataclass(frozen=True, eq=False)
class InducedResult:
    """First-return map of an element to a clopen set.

    ``return_times`` maps each member prefix (at ``depth``) to the number
    of applications of the original element before the orbit first
    re-enters the set; the induced step table sums the original steps
    along that orbit segment.  ``meets_every_nontrivial_orbit`` records
    whether the set intersects every prefix cycle carrying a nonzero step,
    the hypothesis under which induction preserves the index.
    """

    element: FullGroupElement
    depth: int
    return_times: dict[int, int] = field(repr=False)
    meets_every_nontrivial_orbit: bool = True

    def return_time_integral(self) -> Dyadic:
        return Dyadic(sum(self.return_times.values()), self.depth)


def induce(u: FullGroupElement, subset: ClopenSet) -> InducedResult:
    """First-return map of ``u`` to ``subset`` (identity off the set)."""
    if subset.is_empty:
        raise EmptySetError("cannot induce on the empty set")
    depth = max(u.depth, subset.depth)
    size = 1 << depth
    steps = u._cocycle_at(depth)
    member = subset._flags(depth)

    table = [0] * size
    return_times: dict[int, int] = {}
    for start in compress(range(size), member):
        total = steps[start]
        s = (start + total) % size
        hops = 1
        while not member[s]:
            n = steps[s]
            total += n
            s = (s + n) % size
            hops += 1
        table[start] = total
        return_times[start] = hops

    # The excursions from the members cover each orbit that meets the set
    # exactly once, so the points they miss make up the orbits it misses.
    # A zero step fixes its prefix, so every zero-step point outside the
    # set is missed, and the missed orbits are all unmoved exactly when
    # there are no other missed points.
    missed = size - sum(return_times.values())
    idle = steps.count(0) - list(compress(steps, member)).count(0)
    meets = missed == idle

    return InducedResult(FullGroupElement._trusted(depth, table), depth, return_times, meets)


def kac_check(subset: ClopenSet) -> Dyadic:
    """Integral of the odometer's return time to ``subset``; always one."""
    result = induce(FullGroupElement.odometer(), subset)
    return result.return_time_integral()


def transposition(subset: ClopenSet) -> FullGroupElement:
    """The involution swapping ``subset`` with its odometer translate.

    Steps are ``+1`` on the set, ``-1`` on its image, zero elsewhere; the
    set must be disjoint from its translate.  The empty set gives the
    identity.
    """
    depth = subset.depth
    ahead = subset.translate(1)
    if not (subset & ahead).is_empty:
        raise OverlapError("set meets its odometer translate")
    table = [a - b for a, b in zip(subset._flags(depth), ahead._flags(depth))]
    return FullGroupElement._trusted(depth, table)


def oddpart(n: int) -> int:
    return n >> ((n & -n).bit_length() - 1)


def ncycle_support_test(subset: ClopenSet, order: int) -> tuple[bool, ClopenSet | None]:
    """A piece tiling ``subset`` under its first-return map, if one exists.

    Looks for a cylinder union ``B`` with ``subset`` equal to the disjoint
    union of ``B`` and its first ``order - 1`` images under the return map
    of the odometer to ``subset`` -- exactly the condition for ``subset``
    to support an ``order``-cycle of the full group.  The return map acts
    on the members at depth ``d + e`` as a single cycle of length
    ``count * 2**e``, so a witness exists at extra depth ``e`` exactly when
    ``order`` divides that length; the witness takes every ``order``-th
    member along the cycle.  The odometer adds one to the prefix, so that
    cycle, read from the least member, is the members in ascending order.

    Hence a witness exists at all exactly when the odd part of ``order``
    divides ``count``, and the least extra depth is the excess of the
    two-adic valuation of ``order`` over that of ``count``.  The depth cap
    is the one bound on that depth: a witness deeper than the cap raises
    ``DepthCapError`` rather than returning a silently wrong negative.
    """
    if subset.is_empty:
        raise EmptySetError("an empty set supports no cycles")
    if type(order) is not int:  # bool included
        raise TypeError(f"order must be an integer, got {order!r}")
    if order < 2:
        raise ValueError("cycle order must be at least 2")

    count = subset.cylinder_count()
    if count % oddpart(order):
        return False, None
    extra = max(0, (order & -order).bit_length() - (count & -count).bit_length())
    depth = subset.depth + extra
    check_depth(depth)
    # Member i of the refined set, ascending, is base[i % count] + 2**d (i // count).
    base, d = subset.prefixes(), subset.depth
    flags = bytearray(1 << depth)
    for i in range(0, count << extra, order):
        flags[base[i % count] + (i // count << d)] = 1
    return True, ClopenSet._trusted(depth, pack(flags))
