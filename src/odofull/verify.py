"""Seeded property suites exercising the package's exact contracts.

Each ``_suite_*`` is a generator: it draws its cases from a
``random.Random`` seeded from the run seed and the suite name, and yields
one ``(check, ok, inputs)`` triple per check, ``inputs`` holding the raw
elements, sets and ints the check was made on.  :func:`run_verify` is the
one place that counts checks and records failures: a failing check becomes
``{"check": name, **inputs}`` with elements and sets in their file
formats.  The same suite, seed and scale draw the same cases again, so
they reproduce every record.  The report's exit status is zero exactly
when no check failed.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from .clopen import ClopenSet
from .dyadic import Dyadic
from .element import (
    FullGroupElement,
    commutator,
    distance,
    random_element,
)
from .escape import escape_time, escape_tower_family
from .factor import (
    decompose_pnp,
    factor_periodic_into_involutions,
    factor_positive,
    normal_form,
    positivize,
)
from .induced import induce, kac_check
from .serialize import clopen_to_obj, element_to_obj
from .skyscraper import TowerElement, counterexample_element, counterexample_report, tower_metric

QUICK = "quick"
FULL = "full"


@dataclass
class RunReport:
    suite: str
    cases: int
    failures: list[dict] = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def exit_status(self) -> int:
        return 0 if not self.failures else 1


# -- random generators ---------------------------------------------------------


def random_clopen(rng: random.Random, depth: int, nonempty: bool = True) -> ClopenSet:
    bits = rng.getrandbits(1 << depth)
    if nonempty and bits == 0:
        bits = 1 << rng.randrange(1 << depth)
    return ClopenSet(depth, bits)


def random_periodic_element(rng: random.Random, depth: int) -> FullGroupElement:
    """Random element all of whose cycles have zero displacement.

    Taking ``n(s) = pi(s) - s`` without reduction makes every cycle sum
    telescope to zero; zero-sum wrap pairs within a cycle add variety
    without changing any displacement.
    """
    size = 1 << depth
    pi = list(range(size))
    rng.shuffle(pi)
    table = [pi[s] - s for s in range(size)]
    seen = [False] * size
    for start in range(size):
        if seen[start]:
            continue
        cycle = []
        s = start
        while not seen[s]:
            seen[s] = True
            cycle.append(s)
            s = pi[s]
        if len(cycle) >= 2 and rng.random() < 0.5:
            a, b = rng.sample(cycle, 2)
            table[a] += size
            table[b] -= size
    return FullGroupElement._trusted(depth, table)


# -- individual suites -----------------------------------------------------------


def _suite_group(rng: random.Random, scale: str):
    rounds = 2000 if scale == QUICK else 10_000
    identity = FullGroupElement.identity()
    for case in range(rounds):
        depth = rng.randint(0, 8)
        u = random_element(depth, 2, rng=rng)
        v = random_element(rng.randint(0, depth), 2, rng=rng)
        w = random_element(rng.randint(0, depth), 2, rng=rng)
        inputs = {"case": case, "u": u, "v": v, "w": w}
        yield "associativity", (u * v) * w == u * (v * w), inputs
        yield "inverse", u * u.inverse() == identity, inputs
        yield "index_homomorphism", (u * v).index() == u.index() + v.index(), inputs
        yield "right_invariance", distance(u * w, v * w, 1) == distance(u, v, 1), inputs
        yield "uniform_below_l1", distance(u, v, "uniform") <= distance(u, v, 1), inputs
        yield "triangle", distance(u, w, 1) <= distance(u, v, 1) + distance(v, w, 1), inputs


def _suite_kac(rng: random.Random, scale: str):
    one = Dyadic(1)
    for depth in range(0, 4 if scale == QUICK else 5):
        for bits in range(1, 1 << (1 << depth)):
            subset = ClopenSet(depth, bits)
            yield "kac_exhaustive", kac_check(subset) == one, {"set": subset}
    rounds = 2000 if scale == QUICK else 10_000
    for _ in range(rounds):
        subset = random_clopen(rng, rng.randint(4, 8))
        yield "kac_random", kac_check(subset) == one, {"set": subset}


def _suite_index(rng: random.Random, scale: str):
    rounds = 2000 if scale == QUICK else 10_000
    for case in range(rounds):
        u = random_element(rng.randint(0, 12), 8, rng=rng)
        integral = sum(u.cocycle) % (1 << u.depth) == 0 and isinstance(u.index(), int)
        yield "integrality", integral, {"u": u}
        v = random_element(rng.randint(0, 8), 4, rng=rng)
        inputs = {"case": case, "u": u, "v": v}
        yield "homomorphism", (u * v).index() == u.index() + v.index(), inputs
        yield "commutator_kernel", commutator(u, v).index() == 0, inputs
    identity = FullGroupElement.identity()
    induced_rounds = 300 if scale == QUICK else 1000
    for case in range(induced_rounds):
        depth = rng.randint(1, 10)
        u = random_element(depth, 3, rng=rng)
        subset = random_clopen(rng, depth)
        result = induce(u, subset)
        inputs = {"case": case, "u": u, "set": subset}
        if result.meets_every_nontrivial_orbit:
            yield "index_of_induced", result.element.index() == u.index(), inputs
        contracts = distance(result.element, identity, 1) <= distance(u, identity, 1)
        yield "induced_contracts_l1", contracts, inputs
        periodic = random_periodic_element(rng, rng.randint(0, 6))
        yield "periodic_index_zero", periodic.index() == 0, {"case": case}


def _suite_decompose(rng: random.Random, scale: str):
    rounds = 300 if scale == QUICK else 1000
    for case in range(rounds):
        u = random_element(rng.randint(0, 8), 2, rng=rng)
        parts = decompose_pnp(u)
        inputs = {"case": case, "u": u}
        product = parts.periodic * parts.almost_positive * parts.almost_negative
        yield "recompose", product == u, inputs
        supports = [p.support() for p in parts]
        disjoint = all(
            (supports[i] & supports[j]).is_empty for i in range(3) for j in range(i + 1, 3)
        )
        yield "disjoint_supports", disjoint, inputs
        yield "periodic_part", parts.periodic.is_periodic(), inputs
        straightened = positivize(parts.almost_positive)
        ok = (
            straightened.left_periodic.is_periodic()
            and straightened.right_periodic.is_periodic()
            and straightened.induced.index() == parts.almost_positive.index()
            and all(n >= 0 for n in straightened.induced.cocycle)
        )
        yield "positivize", ok, inputs


def _suite_factor(rng: random.Random, scale: str):
    rounds = 200 if scale == QUICK else 1000
    for case in range(rounds):
        positive = random_element(rng.randint(0, 6), 0, rng=rng)
        cert = factor_positive(positive)
        ok = cert.verified and len(cert.word) == positive.index()
        yield "factor_positive", ok, {"case": case, "u": positive}
        u = random_element(rng.randint(0, 6), 1, rng=rng)
        cert = normal_form(u)
        ok = (
            cert.verified
            and len(cert.word) <= 3
            and cert.word[-1].power == u.index()
            and all(f.element.is_periodic() for f in cert.word[:-1])
            and all(f.as_element().depth <= u.depth for f in cert.word)
        )
        yield "normal_form", ok, {"case": case, "u": u}
        periodic = random_periodic_element(rng, rng.randint(0, 8))
        cert = factor_periodic_into_involutions(periodic)
        ok = (
            cert.verified
            and len(cert.word) <= 2
            and all((f.as_element() * f.as_element()).is_identity for f in cert.word)
        )
        yield "involutions", ok, {"case": case, "u": periodic}


def _escape_oracle_times(subset: ClopenSet) -> dict[int, int]:
    """Per-point bidirectional walk, independent of the production route."""
    size = 1 << subset.depth
    member = subset.bits
    times = {}
    for s in subset.prefixes():
        k = 1
        while ((member >> ((s + k) % size)) & 1) and ((member >> ((s - k) % size)) & 1):
            k += 1
        times[s] = k
    return times


def _suite_escape(rng: random.Random, scale: str):
    rows = escape_tower_family(4 if scale == QUICK else 6)
    for row in rows:
        yield "tower_measure", row.measure == Dyadic(1, row.m), {"m": row.m}
    for previous, current in zip(rows, rows[1:]):
        yield "tower_growth", current.integral * 2 >= previous.integral * 3, {"m": current.m}
    for row in rows:
        if row.depth > 9:
            continue
        subset = ClopenSet.from_prefixes(row.depth, range(4**row.m))
        oracle = Dyadic(sum(_escape_oracle_times(subset).values()), row.depth)
        yield "tower_oracle", oracle == row.integral, {"m": row.m}
    rounds = 300 if scale == QUICK else 1000
    for case in range(rounds):
        subset = random_clopen(rng, rng.randint(1, 8))
        if subset.is_full:
            continue
        result = escape_time(subset)
        yield "escape_oracle", _escape_oracle_times(subset) == result.times, {"set": subset}


def _suite_counterexample(rng: random.Random, scale: str):
    n_max = 10 if scale == QUICK else 12
    # The report is a formula: check its columns against the built elements.
    for row in counterexample_report(n_max).rows:
        element = counterexample_element(row.n)
        identity = TowerElement.identity(element.system)
        ambient = tower_metric(element, identity)
        induced = tower_metric(element, identity, induced_on=[range(0, 4**row.n, 2**row.n)])
        yield "ambient_column", row.ambient_distance == ambient, {"n": row.n}
        yield "induced_column", row.induced_distance == induced, {"n": row.n}
        yield "involution", (element * element).is_identity, {"n": row.n}
        moved = len(element.moves[0])
        yield "support_measure", Dyadic(moved, 3 * row.n) == Dyadic(1, 2 * row.n), {"n": row.n}
    identity = TowerElement.identity(counterexample_element(1).system)
    yield "metric_zero", tower_metric(identity, identity) == Dyadic(0), {}


_SUITES = {
    "group": _suite_group,
    "kac": _suite_kac,
    "index": _suite_index,
    "decompose": _suite_decompose,
    "factor": _suite_factor,
    "escape": _suite_escape,
    "counterexample": _suite_counterexample,
}
SUITES = tuple(_SUITES)


def _to_obj(value):
    """File format of a check input: elements and sets serialized, ints as they are."""
    if isinstance(value, FullGroupElement):
        return element_to_obj(value)
    if isinstance(value, ClopenSet):
        return clopen_to_obj(value)
    return value


def run_verify(suite: str = "all", seed: int = 0, scale: str = QUICK) -> RunReport:
    """Run one named property suite (or all of them) deterministically."""
    if scale not in (QUICK, FULL):
        raise ValueError(f"scale must be 'quick' or 'full': {scale!r}")
    names = SUITES if suite == "all" else (suite,)
    for name in names:
        if name not in _SUITES:
            raise ValueError(f"unknown suite {name!r}")
    report = RunReport(suite, 0)
    start = time.perf_counter()
    for name in names:
        for check, ok, inputs in _SUITES[name](random.Random(f"{seed}:{name}"), scale):
            report.cases += 1
            if not ok:
                record = {key: _to_obj(value) for key, value in inputs.items()}
                report.failures.append({"check": check, **record})
    report.wall_time = time.perf_counter() - start
    return report
