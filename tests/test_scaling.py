"""Table and set operations scale linearly in the ``2**depth`` entries.

Each operation is timed at depth 12 and at depth 16 as the minimum over
five alternating repeats of the time per call.  A linear operation costs
about 16 times more at depth 16; a walk that touches the whole bitmask
once per prefix costs about 256 times more.  The bound of 32 leaves a factor of two for
noise and for constant costs that dominate at depth 12.
"""

import random
import timeit

import pytest

from odofull import (
    ClopenSet,
    FullGroupElement,
    counterexample_report,
    escape_time,
    factor_periodic_into_involutions,
    induce,
    normal_form,
    positivize,
    random_element,
    transposition,
)
from odofull.factor import _peel
from odofull.verify import random_periodic_element

LOW, HIGH = 12, 16
REPEATS = 5
CALLS = 4  # per repeat at depth HIGH
BOUND = 32


def random_set(rng, depth):
    return ClopenSet(depth, rng.getrandbits(1 << depth) | 1)


OPERATIONS = {
    "induce": lambda rng, d: (induce, random_element(d, 2, rng=rng), random_set(rng, d)),
    "image_of": lambda rng, d: (random_element(d, 2, rng=rng).image_of, random_set(rng, d)),
    "escape_time": lambda rng, d: (escape_time, random_set(rng, d)),
    # even prefixes only, so the set is disjoint from its translate
    "transposition": lambda rng, d: (
        transposition,
        ClopenSet(d, rng.getrandbits(1 << d) & int("01" * (1 << (d - 1)), 2) | 1),
    ),
    "support": lambda rng, d: (random_element(d, 2, rng=rng).support,),
    "prefixes": lambda rng, d: (random_set(rng, d).prefixes,),
    "from_prefixes": lambda rng, d: (
        ClopenSet.from_prefixes,
        d,
        random_set(rng, d).prefixes(),
    ),
    # one positive cycle through every prefix: the longest cycle there is
    "positivize": lambda rng, d: (
        positivize,
        FullGroupElement(d, [1] * ((1 << d) - 1) + [1 + (1 << d)]),
    ),
    # one zero-displacement cycle through every prefix
    "factor_periodic_into_involutions": lambda rng, d: (
        factor_periodic_into_involutions,
        FullGroupElement(d, [1] * ((1 << d) - 1) + [1 - (1 << d)]),
    ),
}


def seconds_per_call(make) -> dict[int, float]:
    """Minimum over the repeats of the time per call at each depth.

    Every repeat makes ``CALLS`` calls at depth 16 and, at depth 12, that
    many times the number of entries one call at depth 16 has over one at
    depth 12, so both depths time about the same amount of work.  Several
    calls per repeat spread a short stall of the machine over all of them
    rather than doubling one short call.  The repeats alternate between the
    depths, so a slow spell of the machine hits both.
    """
    timers = {}
    for depth in (LOW, HIGH):
        fn, *args = make(random.Random(depth), depth)
        timers[depth] = timeit.Timer(lambda fn=fn, args=args: fn(*args))
    best = dict.fromkeys(timers, float("inf"))
    for _ in range(REPEATS):
        for depth, timer in timers.items():
            number = CALLS << (HIGH - depth)
            best[depth] = min(best[depth], timer.timeit(number) / number)
    return best


@pytest.mark.parametrize("name", sorted(OPERATIONS))
def test_operation_is_linear_in_table_size(name):
    seconds = seconds_per_call(OPERATIONS[name])
    ratio = seconds[HIGH] / seconds[LOW]
    assert ratio < BOUND, f"{name}: depth {LOW} -> {HIGH} costs {ratio:.1f}x"


def test_normal_form_cost_is_flat_in_the_index():
    """``normal_form(T^k q)`` costs the same at k = 10^3 and k = 10^6.

    The index enters the word only as the power of one odometer factor,
    so it adds no work; one table pass per unit of index would make the
    larger call about a thousand times slower.
    """
    q = random_periodic_element(random.Random(6), 6)
    odometer = FullGroupElement.odometer()

    def seconds(k):
        u = odometer**k * q
        return min(timeit.Timer(lambda: normal_form(u)).repeat(repeat=REPEATS, number=1))

    ratio = seconds(10**6) / seconds(10**3)
    assert ratio < 4, f"normal_form: k = 10^3 -> 10^6 costs {ratio:.1f}x"


def test_peel_cost_is_flat_in_a_partial_run():
    """``_peel([2k - 1, 1])`` costs the same at k = 10^3 and k = 10^6.

    After one peel of ``T`` the remainder is ``k - 1`` peels of the return
    map to prefix 1, one run on a partial support; one composition per
    peel would make the larger call about a thousand times slower.
    """

    def seconds(k):
        u = FullGroupElement(1, [2 * k - 1, 1])
        return min(timeit.Timer(lambda: _peel(u)).repeat(repeat=REPEATS, number=20))

    ratio = seconds(10**6) / seconds(10**3)
    assert ratio < 4, f"_peel: k = 10^3 -> 10^6 costs {ratio:.1f}x"


def test_counterexample_report_cost_is_flat_in_n(monkeypatch):
    """The crossing-involution table costs about as much at n_max = 24 as at 12.

    Each row is written from ``n`` alone, so the table is linear in its
    rows; building row ``n``'s involution and measuring it would cost
    ``2**n`` per row and make n_max = 24 about four thousand times slower.
    """

    monkeypatch.delenv("ERGO_DEPTH_CAP", raising=False)

    def seconds(n_max):
        timer = timeit.Timer(lambda: counterexample_report(n_max))
        return min(timer.repeat(repeat=REPEATS, number=20))

    ratio = seconds(24) / seconds(12)
    assert ratio < 4, f"counterexample_report: n_max = 12 -> 24 costs {ratio:.1f}x"
