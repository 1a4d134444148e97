"""Seeded property suites exercising the package's exact contracts.

Each suite draws its cases from a generator seeded deterministically from
the run seed, so identical invocations produce identical reports.  A
failure records the serialized inputs that produced it; the report's exit
status is zero exactly when no check failed.
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

SUITES = ("group", "kac", "index", "decompose", "factor", "escape", "counterexample")
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

    def merge(self, other: "RunReport") -> None:
        self.cases += other.cases
        self.failures.extend(other.failures)
        self.wall_time += other.wall_time


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
    return FullGroupElement(depth, table)


# -- individual suites -----------------------------------------------------------


def _suite_group(rng: random.Random, scale: str) -> RunReport:
    report = RunReport("group", 0)
    rounds = 2000 if scale == QUICK else 10_000
    identity = FullGroupElement.identity()
    for case in range(rounds):
        depth = rng.randint(0, 8)
        u = random_element(depth, 2, rng=rng)
        v = random_element(rng.randint(0, depth), 2, rng=rng)
        w = random_element(rng.randint(0, depth), 2, rng=rng)
        inputs = {
            "case": case,
            "u": element_to_obj(u),
            "v": element_to_obj(v),
            "w": element_to_obj(w),
        }
        checks = [
            ("associativity", (u * v) * w == u * (v * w)),
            ("inverse", u * u.inverse() == identity),
            ("index_homomorphism", (u * v).index() == u.index() + v.index()),
            ("right_invariance", distance(u * w, v * w, 1) == distance(u, v, 1)),
            ("uniform_below_l1", distance(u, v, "uniform") <= distance(u, v, 1)),
            (
                "triangle",
                distance(u, w, 1) <= distance(u, v, 1) + distance(v, w, 1),
            ),
        ]
        for name, ok in checks:
            report.cases += 1
            if not ok:
                report.failures.append({"check": name, **inputs})
    return report


def _suite_kac(rng: random.Random, scale: str) -> RunReport:
    report = RunReport("kac", 0)
    one = Dyadic(1)
    for depth in range(0, 4 if scale == QUICK else 5):
        for bits in range(1, 1 << (1 << depth)):
            subset = ClopenSet(depth, bits)
            report.cases += 1
            if kac_check(subset) != one:
                report.failures.append({"check": "kac_exhaustive", "set": clopen_to_obj(subset)})
    rounds = 2000 if scale == QUICK else 10_000
    for _ in range(rounds):
        subset = random_clopen(rng, rng.randint(4, 8))
        report.cases += 1
        if kac_check(subset) != one:
            report.failures.append({"check": "kac_random", "set": clopen_to_obj(subset)})
    return report


def _suite_index(rng: random.Random, scale: str) -> RunReport:
    report = RunReport("index", 0)
    rounds = 2000 if scale == QUICK else 10_000
    for case in range(rounds):
        u = random_element(rng.randint(0, 12), 8, rng=rng)
        report.cases += 1
        if sum(u.cocycle) % (1 << u.depth) or not isinstance(u.index(), int):
            report.failures.append({"check": "integrality", "u": element_to_obj(u)})
        v = random_element(rng.randint(0, 8), 4, rng=rng)
        inputs = {"case": case, "u": element_to_obj(u), "v": element_to_obj(v)}
        report.cases += 1
        if (u * v).index() != u.index() + v.index():
            report.failures.append({"check": "homomorphism", **inputs})
        report.cases += 1
        if commutator(u, v).index() != 0:
            report.failures.append({"check": "commutator_kernel", **inputs})
    induced_rounds = 300 if scale == QUICK else 1000
    for case in range(induced_rounds):
        depth = rng.randint(1, 10)
        u = random_element(depth, 3, rng=rng)
        subset = random_clopen(rng, depth)
        result = induce(u, subset)
        inputs = {"case": case, "u": element_to_obj(u), "set": clopen_to_obj(subset)}
        if result.meets_every_nontrivial_orbit:
            report.cases += 1
            if result.element.index() != u.index():
                report.failures.append({"check": "index_of_induced", **inputs})
        report.cases += 1
        if not distance(result.element, FullGroupElement.identity(), 1) <= distance(
            u, FullGroupElement.identity(), 1
        ):
            report.failures.append({"check": "induced_contracts_l1", **inputs})
        report.cases += 1
        if random_periodic_element(rng, rng.randint(0, 6)).index() != 0:
            report.failures.append({"check": "periodic_index_zero", "case": case})
    return report


def _suite_decompose(rng: random.Random, scale: str) -> RunReport:
    report = RunReport("decompose", 0)
    rounds = 300 if scale == QUICK else 1000
    for case in range(rounds):
        u = random_element(rng.randint(0, 8), 2, rng=rng)
        parts = decompose_pnp(u)
        inputs = {"case": case, "u": element_to_obj(u)}
        report.cases += 1
        if parts.periodic * parts.almost_positive * parts.almost_negative != u:
            report.failures.append({"check": "recompose", **inputs})
        supports = [p.support() for p in parts]
        report.cases += 1
        if any(
            not (supports[i] & supports[j]).is_empty
            for i in range(3)
            for j in range(i + 1, 3)
        ):
            report.failures.append({"check": "disjoint_supports", **inputs})
        report.cases += 1
        if not parts.periodic.is_periodic():
            report.failures.append({"check": "periodic_part", **inputs})
        straightened = positivize(parts.almost_positive)
        report.cases += 1
        ok = (
            straightened.left_periodic.is_periodic()
            and straightened.right_periodic.is_periodic()
            and straightened.induced.index() == parts.almost_positive.index()
            and all(n >= 0 for n in straightened.induced.cocycle)
        )
        if not ok:
            report.failures.append({"check": "positivize", **inputs})
    return report


def _suite_factor(rng: random.Random, scale: str) -> RunReport:
    report = RunReport("factor", 0)
    rounds = 200 if scale == QUICK else 1000
    for case in range(rounds):
        positive = random_element(rng.randint(0, 6), 0, rng=rng)
        cert = factor_positive(positive)
        report.cases += 1
        if not (cert.verified and len(cert.word) == positive.index()):
            report.failures.append(
                {"check": "factor_positive", "case": case, "u": element_to_obj(positive)}
            )
        u = random_element(rng.randint(0, 6), 1, rng=rng)
        cert = normal_form(u)
        report.cases += 1
        ok = (
            cert.verified
            and cert.word[-1].power == u.index()
            and all(f.element.is_periodic() for f in cert.word[:-1])
        )
        if not ok:
            report.failures.append({"check": "normal_form", "case": case, "u": element_to_obj(u)})
        periodic = random_periodic_element(rng, rng.randint(0, 8))
        cert = factor_periodic_into_involutions(periodic)
        report.cases += 1
        ok = (
            cert.verified
            and len(cert.word) <= 2
            and all((f.as_element() * f.as_element()).is_identity for f in cert.word)
        )
        if not ok:
            report.failures.append(
                {"check": "involutions", "case": case, "u": element_to_obj(periodic)}
            )
    return report


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


def _suite_escape(rng: random.Random, scale: str) -> RunReport:
    report = RunReport("escape", 0)
    rows = escape_tower_family(4 if scale == QUICK else 6)
    for row in rows:
        report.cases += 1
        if row.measure != Dyadic(1, row.m):
            report.failures.append({"check": "tower_measure", "m": row.m})
    for previous, current in zip(rows, rows[1:]):
        report.cases += 1
        if not current.integral * 2 >= previous.integral * 3:
            report.failures.append({"check": "tower_growth", "m": current.m})
    for row in rows:
        if row.depth > 9:
            continue
        subset = ClopenSet.from_prefixes(row.depth, range(4**row.m))
        report.cases += 1
        oracle = Dyadic(sum(_escape_oracle_times(subset).values()), row.depth)
        if oracle != row.integral:
            report.failures.append({"check": "tower_oracle", "m": row.m})
    rounds = 300 if scale == QUICK else 1000
    for case in range(rounds):
        subset = random_clopen(rng, rng.randint(1, 8))
        if subset.is_full:
            continue
        result = escape_time(subset)
        report.cases += 1
        oracle = _escape_oracle_times(subset)
        if oracle != result.times:
            report.failures.append({"check": "escape_oracle", "set": clopen_to_obj(subset)})
    return report


def _suite_counterexample(rng: random.Random, scale: str) -> RunReport:
    report = RunReport("counterexample", 0)
    n_max = 10 if scale == QUICK else 12
    table = counterexample_report(n_max)
    half = Dyadic(1, 1)
    for row in table.rows:
        report.cases += 1
        if row.ambient_distance != half:
            report.failures.append({"check": "ambient_column", "n": row.n})
        report.cases += 1
        if row.induced_distance != Dyadic(1, row.n + 1):
            report.failures.append({"check": "induced_column", "n": row.n})
        element = counterexample_element(row.n)
        report.cases += 1
        if not (element * element).is_identity:
            report.failures.append({"check": "involution", "n": row.n})
        report.cases += 1
        moved = len(element.moves[0])
        if Dyadic(moved, 3 * row.n) != Dyadic(1, 2 * row.n):
            report.failures.append({"check": "support_measure", "n": row.n})
    report.cases += 1
    identity = TowerElement.identity(counterexample_element(1).system)
    if tower_metric(identity, identity) != Dyadic(0):
        report.failures.append({"check": "metric_zero"})
    return report


_SUITE_FUNCTIONS = {
    "group": _suite_group,
    "kac": _suite_kac,
    "index": _suite_index,
    "decompose": _suite_decompose,
    "factor": _suite_factor,
    "escape": _suite_escape,
    "counterexample": _suite_counterexample,
}


def run_verify(suite: str = "all", seed: int = 0, scale: str = QUICK) -> RunReport:
    """Run one named property suite (or all of them) deterministically."""
    if scale not in (QUICK, FULL):
        raise ValueError(f"scale must be 'quick' or 'full': {scale!r}")
    names = SUITES if suite == "all" else (suite,)
    for name in names:
        if name not in _SUITE_FUNCTIONS:
            raise ValueError(f"unknown suite {name!r}")
    report = RunReport(suite, 0)
    start = time.perf_counter()
    for name in names:
        rng = random.Random(f"{seed}:{name}")
        report.merge(_SUITE_FUNCTIONS[name](rng, scale))
    report.wall_time = time.perf_counter() - start
    return report
