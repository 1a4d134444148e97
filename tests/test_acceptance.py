"""Acceptance gate: the exact-arithmetic contracts, one test per criterion.

Every check is exact (no tolerances); each criterion prints a single
pass/fail line with its measured runtime (run pytest with ``-s`` to see
them on success).  Stated budgets are asserted as hard ceilings.
"""

import itertools
import random
import time
from fractions import Fraction

from odofull import (
    ClopenSet,
    Dyadic,
    FullGroupElement,
    TowerElement,
    commutator,
    counterexample_element,
    counterexample_report,
    decompose_pnp,
    distance,
    escape_tower_family,
    factor_periodic_into_involutions,
    factor_positive,
    induce,
    kac_check,
    ncycle_support_test,
    normal_form,
    positivize,
    random_element,
    tower_metric,
)
from odofull.induced import oddpart
from odofull.verify import random_clopen, random_periodic_element

T = FullGroupElement.odometer()
IDENTITY = FullGroupElement.identity()


def _gate(number, description, budget, elapsed, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {number:02d}] {status} {description} ({elapsed:.2f}s / {budget:.0f}s)")
    assert not failures, f"criterion {number}: {failures[:5]}"
    assert elapsed < budget, f"criterion {number}: {elapsed:.2f}s over budget {budget}s"


# -- 1. return-time integral is one ------------------------------------------------


def test_criterion_01_kac_formula():
    start = time.perf_counter()
    failures = []
    one = Dyadic(1)
    for bits in range(1, 1 << 16):
        if kac_check(ClopenSet(4, bits)) != one:
            failures.append(("exhaustive", bits))
    rng = random.Random(1001)
    for case in range(10_000):
        subset = random_clopen(rng, rng.randint(5, 8))
        if kac_check(subset) != one:
            failures.append(("random", case))
    _gate(1, "return-time integral is exactly one", 10, time.perf_counter() - start, failures)


# -- 2. index integrality ------------------------------------------------------------


def test_criterion_02_index_integrality():
    start = time.perf_counter()
    failures = []
    rng = random.Random(1002)
    for case in range(10_000):
        u = random_element(rng.randint(0, 12), 8, rng=rng)
        total = sum(u.cocycle)
        if total % (1 << u.depth) != 0 or not isinstance(u.index(), int):
            failures.append(case)
    _gate(2, "index of a random element is an exact integer", 10, time.perf_counter() - start, failures)


# -- 3. index invariance under induction ----------------------------------------------


def test_criterion_03_index_of_induced():
    start = time.perf_counter()
    failures = []
    rng = random.Random(1003)
    meets = 0
    for case in range(1000):
        depth = rng.randint(1, 10)
        u = random_element(depth, 3, rng=rng)
        subset = random_clopen(rng, depth)
        result = induce(u, subset)
        if result.meets_every_nontrivial_orbit:
            meets += 1
            if result.element.index() != u.index():
                failures.append(case)
    if meets < 100:
        failures.append(("too few meeting cases", meets))
    _gate(3, "induction preserves the index when the set meets all moved orbits", 10,
          time.perf_counter() - start, failures)


# -- 4. index homomorphism and commutator kernel -----------------------------------------


def test_criterion_04_index_homomorphism():
    start = time.perf_counter()
    failures = []
    rng = random.Random(1004)
    for case in range(10_000):
        u = random_element(rng.randint(0, 8), 4, rng=rng)
        v = random_element(rng.randint(0, 8), 4, rng=rng)
        if (u * v).index() != u.index() + v.index():
            failures.append(("hom", case))
        if commutator(u, v).index() != 0:
            failures.append(("comm", case))
    _gate(4, "index is a homomorphism vanishing on commutators", 10,
          time.perf_counter() - start, failures)


# -- 5. cycle-class decomposition ----------------------------------------------------------


def test_criterion_05_decomposition():
    start = time.perf_counter()
    failures = []
    rng = random.Random(1005)
    for case in range(1000):
        u = random_element(rng.randint(0, 8), 2, rng=rng)
        parts = decompose_pnp(u)
        ok = parts.periodic * parts.almost_positive * parts.almost_negative == u
        ok = ok and parts.periodic.is_periodic()
        supports = [p.support() for p in parts]
        ok = ok and all(
            (supports[i] & supports[j]).is_empty
            for i in range(3)
            for j in range(i + 1, 3)
        )
        if not ok:
            failures.append(case)
    _gate(5, "periodic/positive/negative parts recompose with disjoint supports", 10,
          time.perf_counter() - start, failures)


# -- 6. positive factorization ----------------------------------------------------------------


def test_criterion_06_factor_positive():
    start = time.perf_counter()
    failures = []
    rng = random.Random(1006)
    for case in range(1000):
        if case % 2 == 0:
            u = random_element(rng.randint(0, 6), 0, rng=rng)
        else:
            u = IDENTITY
            depth = rng.randint(1, 5)
            for _ in range(rng.randint(1, 3)):
                u = u * induce(T, random_clopen(rng, depth)).element
        if any(n < 0 for n in u.cocycle):
            failures.append(("generator produced a negative step", case))
            continue
        cert = factor_positive(u)
        if not (cert.verified and len(cert.word) == u.index()):
            failures.append(case)
    _gate(6, "positive elements factor into index-many return maps", 30,
          time.perf_counter() - start, failures)


# -- 7. normal form ------------------------------------------------------------------------------


def test_criterion_07_normal_form():
    start = time.perf_counter()
    failures = []
    rng = random.Random(1007)
    for case in range(1000):
        u = random_element(rng.randint(0, 6), 1, rng=rng)
        cert = normal_form(u)
        ok = cert.verified
        ok = ok and cert.word[-1].kind == "power_of_T"
        ok = ok and cert.word[-1].power == u.index()
        ok = ok and all(f.element.is_periodic() for f in cert.word[:-1])
        if not ok:
            failures.append(case)
    _gate(7, "normal form: periodic factors then an odometer power equal to the index", 60,
          time.perf_counter() - start, failures)


# -- 8. skyscraper counterexample table -----------------------------------------------------------


def test_criterion_08_counterexample_table():
    start = time.perf_counter()
    failures = []
    report = counterexample_report(10)
    for row in report.rows:
        # the closed-form columns, and the metric of the built involution
        element = counterexample_element(row.n)
        identity = TowerElement.identity(element.system)
        induced = tower_metric(element, identity, [range(0, 4**row.n, 2**row.n)])
        if not row.ambient_distance == tower_metric(element, identity) == Dyadic(1, 1):
            failures.append(("ambient", row.n))
        if not row.induced_distance == induced == Dyadic(1, row.n + 1):
            failures.append(("induced", row.n))
    _gate(8, "crossing involutions: ambient distance 1/2, induced distance 2^-(n+1)", 1,
          time.perf_counter() - start, failures)


# -- 9. escape-time divergence ----------------------------------------------------------------------


def _escape_walk_oracle(subset):
    size = 1 << subset.depth
    member = subset.bits
    total = 0
    for s in subset.prefixes():
        k = 1
        while ((member >> ((s + k) % size)) & 1) and ((member >> ((s - k) % size)) & 1):
            k += 1
        total += k
    return Fraction(total, size)


def test_criterion_09_escape_divergence():
    start = time.perf_counter()
    failures = []
    rows = escape_tower_family(6)
    for row in rows:
        if row.measure != Dyadic(1, row.m):
            failures.append(("measure", row.m))
    for previous, current in zip(rows, rows[1:]):
        if not current.integral * 2 >= previous.integral * 3:
            failures.append(("growth", current.m))
    for row in rows:
        if row.depth <= 9:
            subset = ClopenSet.from_prefixes(row.depth, range(4**row.m))
            if Fraction(*row.integral.as_integer_ratio()) != _escape_walk_oracle(subset):
                failures.append(("oracle", row.m))
    _gate(9, "tower escape integrals grow (ratio >= 3/2) while measures halve", 30,
          time.perf_counter() - start, failures)


# -- 10. cycle-support criterion ------------------------------------------------------------------------


def _tiling_holds(subset, piece, order):
    return_map = induce(T, subset).element
    union = ClopenSet.empty()
    current = piece
    for _ in range(order):
        if not (union & current).is_empty:
            return False
        union = union | current
        current = return_map.image_of(current)
    return union == subset


def _first_return_order(subset, depth):
    size = 1 << depth
    text = format(subset.bits, f"0{1 << subset.depth}b")
    member = int(text * 2 ** (depth - subset.depth), 2)
    start = (member & -member).bit_length() - 1
    order = [start]
    s = (start + 1) % size
    while s != start:
        if (member >> s) & 1:
            order.append(s)
        s = (s + 1) % size
    return order


def _brute_force_search(subset, order, max_extra):
    """Try every phase of every ``order``-th member along the return cycle,
    verifying candidates by explicit set algebra."""
    for extra in range(max_extra + 1):
        depth = subset.depth + extra
        cycle = _first_return_order(subset, depth)
        if len(cycle) % order:
            continue
        for phase in range(order):
            piece = ClopenSet.from_prefixes(depth, cycle[phase::order])
            if _tiling_holds(subset, piece, order):
                return True
    return False


def test_criterion_10_ncycle_support():
    start = time.perf_counter()
    failures = []
    # exhaustive over depth <= 3, then randomized coverage of every
    # cylinder count up to 64 at depth 6
    sets = [ClopenSet(3, bits) for bits in range(1, 256)]
    rng = random.Random(1010)
    for count in range(1, 65):
        for _ in range(2):
            prefixes = rng.sample(range(64), count)
            sets.append(ClopenSet.from_prefixes(6, prefixes))
    for subset in sets:
        count = subset.cylinder_count()
        for order in range(2, 17):
            expected = count % oddpart(order) == 0
            found, piece = ncycle_support_test(subset, order)
            if found != expected:
                failures.append(("criterion", subset.depth, count, order))
                continue
            if found and not _tiling_holds(subset, piece, order):
                failures.append(("witness", subset.depth, count, order))
        for order in (2, 3, 4, 6, 8):
            brute = _brute_force_search(subset, order, 4)
            closed = count % oddpart(order) == 0
            if brute != closed:
                failures.append(("brute", subset.depth, count, order))
    _gate(10, "bounded tiling search agrees with the odd-part divisibility rule", 60,
          time.perf_counter() - start, failures)


# -- 11. metric contracts -----------------------------------------------------------------------------------


def test_criterion_11_metric_contracts():
    start = time.perf_counter()
    failures = []
    rng = random.Random(1011)
    for case in range(10_000):
        depth = rng.randint(0, 6)
        u = random_element(depth, 2, rng=rng)
        v = random_element(rng.randint(0, 6), 2, rng=rng)
        w = random_element(rng.randint(0, 6), 2, rng=rng)
        if distance(u * w, v * w, 1) != distance(u, v, 1):
            failures.append(("right-invariance", case))
        if not distance(u, v, "uniform") <= distance(u, v, 1):
            failures.append(("uniform-vs-l1", case))
        if not distance(u, w, 1) <= distance(u, v, 1) + distance(v, w, 1):
            failures.append(("triangle", case))
        induced = induce(u, random_clopen(rng, max(depth, 1))).element
        if not distance(induced, IDENTITY, 1) <= distance(u, IDENTITY, 1):
            failures.append(("induction-contracts", case))
    _gate(11, "right-invariance, uniform <= L1, triangle, induction contracts", 30,
          time.perf_counter() - start, failures)


# -- 12. involution factorization ------------------------------------------------------------------------------


def test_criterion_12_involution_factorization():
    start = time.perf_counter()
    failures = []
    rng = random.Random(1012)
    for case in range(1000):
        u = random_periodic_element(rng, rng.randint(0, 8))
        cert = factor_periodic_into_involutions(u)
        ok = cert.verified
        ok = ok and all(f.element * f.element == IDENTITY for f in cert.word)
        if not ok:
            failures.append(case)
    _gate(12, "periodic elements factor into verified involutions", 30,
          time.perf_counter() - start, failures)


# -- supporting spot checks used while freezing the tables ------------------------------


def test_frozen_positivize_example():
    u = FullGroupElement(2, [3, 1, -2, 2])
    straightened = positivize(u)
    assert straightened.domain == ClopenSet.from_prefixes(2, {0, 3})
    assert straightened.induced == FullGroupElement(2, [3, 0, 0, 1])


def test_frozen_escape_rows():
    rows = escape_tower_family(3)
    table = [(r.m, r.depth, str(r.measure), str(r.integral)) for r in rows]
    assert table == [
        (1, 3, "1/2^1", "3/2^2"),
        (2, 6, "1/2^2", "9/2^3"),
        (3, 9, "1/2^3", "33/2^4"),
    ]


def test_frozen_counterexample_sum():
    report = counterexample_report(10)
    total = Dyadic(0)
    for row in report.rows:
        total = total + row.induced_distance
    assert total == Dyadic(1023, 11)


def test_tiny_cycle_supports_fully_enumerated():
    """Genuine subset enumeration for tiny cases: every candidate piece is
    tried, with no structural shortcut.  Only witnesses at the set's own
    depth count: one found at the least extra depth ``e > 0`` cannot reduce
    to that depth, since its ``order`` copies would then tile ``count``
    cylinders with ``order`` not dividing ``count``."""
    for depth in (1, 2):
        for bits in range(1, 1 << (1 << depth)):
            subset = ClopenSet(depth, bits)
            members = subset.prefixes()
            for order in (2, 3):
                witnessed = any(
                    _tiling_holds(
                        subset,
                        ClopenSet.from_prefixes(subset.depth, combo),
                        order,
                    )
                    for size in range(1, len(members) + 1)
                    for combo in itertools.combinations(members, size)
                )
                found, witness = ncycle_support_test(subset, order)
                assert witnessed == (found and witness.depth <= subset.depth)
