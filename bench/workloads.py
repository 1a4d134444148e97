"""The three request lists the benchmark drives, and their oracles.

Every workload is a fixed list of requests made from ``--seed`` at set-up.
The seed draws the contents (tables, sets, cycle orders); the list's shape --
which operations, at which depths, how many -- is the same for every seed,
so runs with different seeds measure the same work.

``execute`` is the timed part of a request.  ``check`` runs outside the
timed span: it returns a fingerprint of the output (for the same-seed
digest) and a failure reason, or ``None`` when the output is exactly
right.  The oracles recompute results with plain loops over unpacked
tables where that is linear, and fall back on the package's own group
operations only for the contracts the property suites state that way
(``u * u.inverse()`` is the identity, certificates recompose).

Workloads reach the package only through the module object ``od`` handed
to them, so a traced run sees every call the requests make.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("deep_tables", "small_checks", "cli_certify")
SIZES = ("full", "tiny")


@dataclass(frozen=True)
class Request:
    kind: str
    depth: int
    args: tuple


# -- helpers shared by the oracles ---------------------------------------------


def _table(u, depth: int) -> tuple:
    """Step table of ``u`` refined to ``depth`` (the table repeats)."""
    return u.cocycle * (1 << (depth - u.depth))


def _flags(subset, depth: int) -> str:
    """Membership of every depth-``depth`` prefix, as a '0'/'1' string."""
    text = format(subset.bits, f"0{1 << subset.depth}b")[::-1]
    return text * (1 << (depth - subset.depth))


def _same_set(subset, flags: str, depth: int) -> bool:
    return subset.depth <= depth and _flags(subset, depth) == flags


def _dyadic_is(value, fraction: Fraction) -> bool:
    return Fraction(value.num, 1 << value.exp2) == fraction


def canon(od, value) -> str:
    """Digest of the canonical text of a request input or output."""
    return digest(_text(od, value))


def _text(od, value) -> str:
    if isinstance(value, od.FullGroupElement):
        return f"E{value.depth}:{value.cocycle!r}"
    if isinstance(value, od.ClopenSet):
        return f"S{value.depth}:{value.bits:x}"
    if isinstance(value, od.Dyadic):
        return str(value)
    if isinstance(value, od.TowerElement):
        return f"T{value.system!r}:{value.moves!r}"
    if isinstance(value, od.InducedResult):
        times = sorted(value.return_times.items())
        return f"I{_text(od, value.element)}:{times!r}:{value.meets_every_nontrivial_orbit}"
    if isinstance(value, od.EscapeResult):
        times = sorted(value.times.items())
        return f"X{value.depth}:{times!r}:{value.integral!r}"
    if isinstance(value, od.FactorizationCertificate):
        word = "".join(f"{f.kind}{_text(od, tuple(vars(f).values()))}" for f in value.word)
        return f"C{_text(od, value.target)}:{word}:{value.verified}"
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(_text(od, v) for v in value) + ")"
    return repr(value)


def digest(text: str | bytes) -> str:
    if isinstance(text, str):
        text = text.encode()
    return hashlib.sha256(text).hexdigest()


class Workload:
    """A seeded request list with its executor and oracle."""

    name = ""
    depths = range(0)
    # Highest of p90/p99/p99.9 with at least ten full-size requests per pass
    # beyond it.
    tail = 0.90

    def __init__(self, od, seed: int, size: str, workdir: str):
        self.od = od
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.rng = random.Random(f"{seed}:{self.name}")
        self.requests: list[Request] = []
        self.build()

    def build(self) -> None:
        raise NotImplementedError

    def execute(self, request: Request):
        raise NotImplementedError

    def check(self, request: Request, output, verify: bool = True) -> tuple[str, str | None]:
        """``(fingerprint, failure reason or None)`` for one output.

        With ``verify`` false only the fingerprint is taken: the caller
        compares it with that of an output of the same request that has
        already passed the oracle.
        """
        fingerprint = canon(self.od, output)
        return fingerprint, self.reason(request, output) if verify else None

    def reason(self, request: Request, output) -> str | None:
        raise NotImplementedError

    def describe(self, index: int) -> str:
        request = self.requests[index]
        return f"{index}:{request.kind}:{request.depth}:{canon(self.od, request.args)}"


# -- deep_tables ------------------------------------------------------------------


class DeepTables(Workload):
    """Library calls on tables and sets of depth 14..17.

    Each depth gets the same eleven operations, so the per-call self time
    of a layer compares like with like from one depth to the next; the
    shallower depths get more repetitions to fill the pass.  With these
    counts the p90 of a pass falls among the five depth-15 ``induce``
    calls rather than on a gap between two kinds of request.
    """

    name = "deep_tables"
    KINDS = (
        "compose", "inverse", "power", "support", "image_of", "orbits",
        "induce", "escape", "distance_l1", "distance_uniform", "json_roundtrip",
    )
    REPS = (6, 5, 2, 1)

    def build(self) -> None:
        od, rng = self.od, self.rng
        low = 14 if self.size == "full" else 4
        self.depths = range(low, low + len(self.REPS))
        for depth, reps in zip(self.depths, self.REPS):
            for rep in range(reps):
                u = od.random_element(depth, 2, rng=rng)
                v = od.random_element(depth - 1, 2, rng=rng)
                subset = od.verify.random_clopen(rng, depth)
                power = 2 + rep % 2
                args = {
                    "compose": (u, v),
                    "inverse": (u,),
                    "power": (u, power),
                    "support": (u,),
                    "image_of": (u, subset),
                    "orbits": (u,),
                    "induce": (u, subset),
                    "escape": (subset,),
                    "distance_l1": (u, v),
                    "distance_uniform": (u, v),
                    "json_roundtrip": (u,),
                }
                for kind in self.KINDS:
                    self.requests.append(Request(kind, depth, args[kind]))

    def execute(self, request: Request):
        od, kind, a = self.od, request.kind, request.args
        if kind == "compose":
            return a[0] * a[1]
        if kind == "inverse":
            return a[0].inverse()
        if kind == "power":
            return a[0] ** a[1]
        if kind == "support":
            return a[0].support()
        if kind == "image_of":
            return a[0].image_of(a[1])
        if kind == "orbits":
            return a[0].orbit_decomposition()
        if kind == "induce":
            return od.induce(a[0], a[1])
        if kind == "escape":
            return od.escape_time(a[0])
        if kind == "distance_l1":
            return od.distance(a[0], a[1], 1)
        if kind == "distance_uniform":
            return od.distance(a[0], a[1], "uniform")
        if kind == "json_roundtrip":
            text = od.element_to_json(a[0])
            return text, od.parse_element(text)
        raise ValueError(f"unknown request kind {kind!r}")

    def reason(self, request: Request, out) -> str | None:
        od, kind, a = self.od, request.kind, request.args
        u = a[0]
        if kind == "compose":
            v = a[1]
            depth = max(u.depth, v.depth)
            mask = (1 << depth) - 1
            tu, tv, tw = _table(u, depth), _table(v, depth), _table(out, depth)
            if any(tw[s] != n + tu[(s + n) & mask] for s, n in enumerate(tv)):
                return "composed table differs"
            if out.index() != u.index() + v.index():
                return "index is not a homomorphism"
            return None
        if kind == "inverse":
            if not (u * out).is_identity:
                return "u * u.inverse() is not the identity"
            return None
        if kind == "power":
            mask = (1 << u.depth) - 1
            table = u.cocycle
            expected = []
            for s in range(1 << u.depth):
                total = 0
                for _ in range(a[1]):
                    n = table[s]
                    total += n
                    s = (s + n) & mask
                expected.append(total)
            if _table(out, u.depth) != tuple(expected):
                return "power table differs"
            return None
        if kind == "support":
            flags = "".join("1" if n else "0" for n in u.cocycle)
            return None if _same_set(out, flags, u.depth) else "support differs"
        if kind == "image_of":
            subset = a[1]
            depth = max(u.depth, subset.depth)
            mask = (1 << depth) - 1
            table = _table(u, depth)
            image = bytearray(b"0" * (1 << depth))
            for s, flag in enumerate(_flags(subset, depth)):
                if flag == "1":
                    image[(s + table[s]) & mask] = ord("1")
            return None if _same_set(out, image.decode(), depth) else "image differs"
        if kind == "orbits":
            return self._orbit_reason(u, out)
        if kind == "induce":
            return self._induce_reason(u, a[1], out)
        if kind == "escape":
            return self._escape_reason(a[0], out)
        if kind in ("distance_l1", "distance_uniform"):
            v = a[1]
            depth = max(u.depth, v.depth)
            pairs = zip(_table(u, depth), _table(v, depth))
            if kind == "distance_l1":
                total = sum(abs(x - y) for x, y in pairs)
            else:
                total = sum(x != y for x, y in pairs)
            ok = _dyadic_is(out, Fraction(total, 1 << depth))
            return None if ok else "distance differs"
        if kind == "json_roundtrip":
            text, parsed = out
            obj = json.loads(text)
            expected = {"system": "dyadic_odometer", "depth": u.depth, "cocycle": list(u.cocycle)}
            if obj != expected or parsed != u:
                return "element does not round-trip through JSON"
            return None
        return f"no oracle for {kind!r}"

    @staticmethod
    def _orbit_reason(u, out) -> str | None:
        size = 1 << u.depth
        mask = size - 1
        table = u.cocycle
        seen = bytearray(size)
        for cycle in out.cycles:
            prefixes = cycle.prefixes
            if prefixes[0] != min(prefixes):
                return "cycle does not start at its least prefix"
            displacement = 0
            for k, s in enumerate(prefixes):
                if seen[s]:
                    return f"prefix {s} in two cycles"
                seen[s] = 1
                displacement += table[s]
                if (s + table[s]) & mask != prefixes[(k + 1) % len(prefixes)]:
                    return "cycle does not follow the permutation"
            if displacement != cycle.displacement:
                return "cycle displacement differs"
            moved = any(table[s] for s in prefixes)
            kind = (
                "positive" if displacement > 0 else "negative" if displacement < 0
                else "periodic" if moved else "trivial"
            )
            if kind != cycle.kind:
                return "cycle kind differs"
        return None if all(seen) else "cycles do not cover every prefix"

    @staticmethod
    def _induce_reason(u, subset, out) -> str | None:
        depth = max(u.depth, subset.depth)
        size = 1 << depth
        mask = size - 1
        table = _table(u, depth)
        flags = _flags(subset, depth)
        induced = _table(out.element, depth) if out.element.depth <= depth else None
        if induced is None or out.depth != depth:
            return "induced map at the wrong depth"
        for s in range(size):
            if flags[s] == "0":
                if induced[s] or s in out.return_times:
                    return f"prefix {s} off the set is moved"
                continue
            total = table[s]
            t = (s + total) & mask
            hops = 1
            while flags[t] == "0":
                total += table[t]
                t = (t + table[t]) & mask
                hops += 1
            if induced[s] != total or out.return_times.get(s) != hops:
                return f"first return from prefix {s} differs"
        meets = True
        seen = bytearray(size)
        for start in range(size):
            if seen[start]:
                continue
            s, touched, moved = start, False, False
            while not seen[s]:
                seen[s] = 1
                touched = touched or flags[s] == "1"
                moved = moved or table[s] != 0
                s = (s + table[s]) & mask
            meets = meets and (touched or not moved)
        if meets != out.meets_every_nontrivial_orbit:
            return "meets_every_nontrivial_orbit differs"
        if meets and out.element.index() != u.index():
            return "induction changed the index"
        return None

    def _escape_reason(self, subset, out) -> str | None:
        if subset.is_full:
            return None if out.is_infinite else "full set must never escape"
        depth = subset.depth
        mask = (1 << depth) - 1
        flags = _flags(subset, depth)
        times = {}
        for s, flag in enumerate(flags):
            if flag == "1":
                k = 1
                while flags[(s + k) & mask] == "1" and flags[(s - k) & mask] == "1":
                    k += 1
                times[s] = k
        if out.times != times:
            return "escape times differ from the walk"
        if not _dyadic_is(out.integral, Fraction(sum(times.values()), 1 << depth)):
            return "escape integral differs"
        return None


# -- small_checks ----------------------------------------------------------------


class SmallChecks(Workload):
    """Property cases of the seeded suites at depth 0..10, one per request.

    A request computes what one property check needs; the contract itself
    is checked outside the timed span.
    """

    name = "small_checks"
    tail = 0.99
    GROUP_KINDS = (
        "associativity", "inverse", "index_homomorphism", "commutator_kernel", "triangle",
    )

    def build(self) -> None:
        od, rng = self.od, self.rng
        self.depths = range(0, 11)
        rounds = 24 if self.size == "full" else 1
        for _ in range(rounds):
            for depth in self.depths:
                for kind in self.GROUP_KINDS:
                    u = od.random_element(depth, 2, rng=rng)
                    v = od.random_element(rng.randint(0, depth), 2, rng=rng)
                    w = od.random_element(rng.randint(0, depth), 2, rng=rng)
                    self.requests.append(Request(kind, depth, (u, v, w)))
            for depth in range(1, 9):
                subset = od.verify.random_clopen(rng, depth)
                self.requests.append(Request("kac", depth, (subset,)))
            for depth in range(0, 9):
                u = od.random_element(depth, 2, rng=rng)
                self.requests.append(Request("decompose_positivize", depth, (u,)))
            # A depth-d involution word has up to 2**d factors, so depth 8
            # would make this one kind most of the pass.
            for depth in range(0, 7):
                q = od.verify.random_periodic_element(rng, depth)
                self.requests.append(Request("involutions", depth, (q,)))
            for towers in (1, 2, 3) * 3:
                self.requests.append(Request("tower", 0, self._tower_pair(towers)))

    def _tower_pair(self, towers: int) -> tuple:
        od, rng = self.od, self.rng
        heights = [rng.randint(2, 24) for _ in range(towers)]
        base = od.Dyadic(1, sum(heights).bit_length())
        system = od.TowerSystem([(h, base) for h in heights])

        def draw():
            moves = []
            for height in heights:
                levels = rng.sample(range(height), rng.randint(0, height))
                images = levels[:]
                rng.shuffle(images)
                moves.append({i: j - i for i, j in zip(levels, images)})
            return od.TowerElement.from_moves(system, moves)

        u, v = draw(), draw()
        # The induced metric needs every moved level; images of moved
        # levels are moved levels themselves.
        levels = tuple(
            tuple(sorted({i for m in (mu, mv) for i, _ in m}))
            for mu, mv in zip(u.moves, v.moves)
        )
        return u, v, levels

    def execute(self, request: Request):
        od, kind, a = self.od, request.kind, request.args
        if kind == "associativity":
            u, v, w = a
            return (u * v) * w, u * (v * w)
        if kind == "inverse":
            return a[0] * a[0].inverse()
        if kind == "index_homomorphism":
            u, v, _ = a
            return (u * v).index(), u.index(), v.index()
        if kind == "commutator_kernel":
            return od.commutator(a[0], a[1]).index()
        if kind == "triangle":
            u, v, w = a
            return (
                od.distance(u, w, 1),
                od.distance(u, v, 1),
                od.distance(v, w, 1),
                od.distance(u, v, "uniform"),
            )
        if kind == "kac":
            return od.kac_check(a[0])
        if kind == "decompose_positivize":
            parts = od.decompose_pnp(a[0])
            return parts, od.positivize(parts.almost_positive)
        if kind == "involutions":
            return od.factor_periodic_into_involutions(a[0])
        if kind == "tower":
            u, v, levels = a
            return u * v, od.tower_metric(u, v), od.tower_metric(u, v, induced_on=levels)
        raise ValueError(f"unknown request kind {kind!r}")

    def reason(self, request: Request, out) -> str | None:
        od, kind, a = self.od, request.kind, request.args
        identity = od.FullGroupElement.identity()
        if kind == "associativity":
            return None if out[0] == out[1] else "composition is not associative"
        if kind == "inverse":
            return None if out.is_identity else "u * u.inverse() is not the identity"
        if kind == "index_homomorphism":
            product, iu, iv = out
            u, v, _ = a
            exact = all(
                sum(x.cocycle) == i << x.depth for x, i in ((u, iu), (v, iv))
            )
            return None if exact and product == iu + iv else "index is not a homomorphism"
        if kind == "commutator_kernel":
            return None if out == 0 else "commutator has nonzero index"
        if kind == "triangle":
            uw, uv, vw, uniform = out
            u, v, _ = a
            depth = max(u.depth, v.depth)
            pairs = list(zip(_table(u, depth), _table(v, depth)))
            l1 = Fraction(sum(abs(x - y) for x, y in pairs), 1 << depth)
            sup = Fraction(sum(x != y for x, y in pairs), 1 << depth)
            if not (_dyadic_is(uv, l1) and _dyadic_is(uniform, sup)):
                return "distance differs"
            if not (uw <= uv + vw and uniform <= uv):
                return "metric contract broken"
            return None
        if kind == "kac":
            return None if _dyadic_is(out, Fraction(1)) else "return times do not integrate to one"
        if kind == "decompose_positivize":
            parts, straightened = out
            u = a[0]
            if parts.periodic * parts.almost_positive * parts.almost_negative != u:
                return "parts do not recompose"
            supports = [p.support() for p in parts]
            if any(not (supports[i] & supports[j]).is_empty for i in range(3) for j in range(i + 1, 3)):
                return "part supports overlap"
            if not parts.periodic.is_periodic():
                return "periodic part is not periodic"
            ok = (
                straightened.left_periodic.is_periodic()
                and straightened.right_periodic.is_periodic()
                and straightened.induced.index() == parts.almost_positive.index()
                and all(n >= 0 for n in straightened.induced.cocycle)
            )
            return None if ok else "positivize contract broken"
        if kind == "involutions":
            product = identity
            for factor in out.word:
                element = factor.as_element()
                if not (element * element).is_identity:
                    return "factor is not an involution"
                product = product * element
            return None if out.verified and product == a[0] else "word does not recompose"
        if kind == "tower":
            return self._tower_reason(a[0], a[1], out)
        return f"no oracle for {kind!r}"

    @staticmethod
    def _tower_reason(u, v, out) -> str | None:
        product, ambient, induced = out
        expected_ambient = Fraction(0)
        expected_induced = Fraction(0)
        for t, tower in enumerate(u.system.towers):
            mu, mv = dict(u.moves[t]), dict(v.moves[t])
            composed = {}
            for i in range(tower.height):
                first = mv.get(i, 0)
                total = first + mu.get(i + first, 0)
                if total:
                    composed[i] = total
            if dict(product.moves[t]) != composed:
                return f"tower {t}: composition differs"
            base = Fraction(tower.base_measure.num, 1 << tower.base_measure.exp2)
            moved = set(mu) | set(mv)
            expected_ambient += base * sum(abs(mu.get(i, 0) - mv.get(i, 0)) for i in moved)
            levels = sorted({j for i in moved for j in (i, i + mu.get(i, 0), i + mv.get(i, 0))})
            position = {level: k for k, level in enumerate(levels)}
            expected_induced += base * sum(
                abs(position[i + mu.get(i, 0)] - position[i + mv.get(i, 0)]) for i in moved
            )
        if not _dyadic_is(ambient, expected_ambient):
            return "ambient tower metric differs"
        if not _dyadic_is(induced, expected_induced):
            return "induced tower metric differs"
        return None


# -- cli_certify -------------------------------------------------------------------


# ``escape-family`` rows for m = 1..7: the first 4**m levels of the height
# 8**m tower at depth 3m, measure 2**-m; escape from a run of K = 4**m
# levels sums to (K/2)(K/2 + 1) steps.
ESCAPE_FAMILY = (
    (1, 3, "1/2^1", "3/2^2"),
    (2, 6, "1/2^2", "9/2^3"),
    (3, 9, "1/2^3", "33/2^4"),
    (4, 12, "1/2^4", "129/2^5"),
    (5, 15, "1/2^5", "513/2^6"),
    (6, 18, "1/2^6", "2049/2^7"),
    (7, 21, "1/2^7", "8193/2^8"),
)

# |index| of the normal-form inputs: 10**(3i/7), log-uniform from 1 to 1000.
INDEX_LADDER = (1, 3, 7, 19, 52, 139, 373, 1000)


class CliCertify(Workload):
    """In-process ``odofull.cli.main`` calls on JSON files written at set-up."""

    name = "cli_certify"

    def build(self) -> None:
        od, rng = self.od, self.rng
        full = self.size == "full"
        self.depths = range(2, 9) if full else range(2, 5)
        ladder = INDEX_LADDER if full else INDEX_LADDER[:3]
        reps = 2 if full else 1
        periodic = od.verify.random_periodic_element
        for depth in self.depths:
            for i, k in enumerate(ladder):
                # Negative indices cost more to factor; a fixed sign per
                # slot keeps that share the same for every seed.
                sign = 1 if (i + depth) % 2 == 0 else -1
                u = od.FullGroupElement.odometer(sign * k) * periodic(rng, depth)
                self._add("normal-form", depth, u, "json")
            for _ in range(reps):
                self._add("factor-positive", depth, od.random_element(depth, 0, rng=rng), "json")
                self._add("factor-involutions", depth, periodic(rng, depth), "json")
                self._add("decompose", depth, od.random_element(depth, 2, rng=rng), "json")
                subset = od.verify.random_clopen(rng, depth)
                self._add("ncycle", depth, subset, "json", rng.choice((2, 3, 5, 6)))
        for n in range(6, 14) if full else (6, 7):
            self._add("counterexample", n, None, ("json", "csv")[n % 2])
        for m in range(3, 8) if full else (3,):
            self._add("escape-family", m, None, ("json", "csv")[m % 2])

    def _add(self, command: str, depth: int, value, fmt: str, order: int = 0) -> None:
        index = len(self.requests)
        out = os.path.join(self.workdir, f"out{index}.{fmt}")
        argv = [command]
        if command == "ncycle":
            source = os.path.join(self.workdir, f"in{index}.json")
            with open(source, "w", encoding="utf-8") as handle:
                json.dump(self.od.serialize.clopen_to_obj(value), handle)
            argv += ["--set", source, "--n", str(order)]
        elif command == "counterexample":
            argv += ["--max-n", str(depth)]
        elif command == "escape-family":
            argv += ["--max-m", str(depth)]
        else:
            source = os.path.join(self.workdir, f"in{index}.json")
            with open(source, "w", encoding="utf-8") as handle:
                handle.write(self.od.element_to_json(value))
            argv.append(source)
        argv += ["--format", fmt, "--out", out]
        self.requests.append(Request(command, depth, (tuple(argv), value, order, fmt, out)))

    def describe(self, index: int) -> str:
        argv, value, order, fmt, _ = self.requests[index].args
        command = " ".join(os.path.basename(a) for a in argv)
        return f"{index}:{command}:{canon(self.od, value)}"

    def execute(self, request: Request):
        return self.od.cli.main(list(request.args[0]))

    def check(self, request: Request, status, verify: bool = True):
        path = request.args[4]
        try:
            with open(path, "rb") as handle:
                data = handle.read()
            os.remove(path)
        except OSError:
            return f"exit {status}", f"exit status {status}, no output file"
        if status != 0:
            return digest(data), f"exit status {status}"
        return digest(data), self.reason(request, data.decode()) if verify else None

    def reason(self, request: Request, text: str) -> str | None:
        od = self.od
        command = request.kind
        _, value, order, fmt, _ = request.args
        if command == "counterexample":
            if fmt == "json":
                obj = json.loads(text)
                deficit, rows = obj["mass_deficit"], [(r["n"], r["d_T"], r["d_TA"]) for r in obj["rows"]]
            else:
                head, _, body = text.partition("\n")
                deficit = head.removeprefix("# mass deficit ")
                rows = [(int(r["n"]), r["d_T"], r["d_TA"]) for r in csv.DictReader(io.StringIO(body))]
            n_max = request.depth
            expected = [(n, "1/2^1", f"1/2^{n + 1}") for n in range(1, n_max + 1)]
            ok = rows == expected and deficit == f"1/2^{n_max}"
            return None if ok else "counterexample columns are not 1/2 and 2^-(n+1)"
        if command == "escape-family":
            if fmt == "json":
                rows = [(r["m"], r["depth"], r["measure"], r["integral"]) for r in json.loads(text)]
            else:
                rows = [
                    (int(r["m"]), int(r["depth"]), r["measure"], r["integral"])
                    for r in csv.DictReader(io.StringIO(text))
                ]
            ok = tuple(rows) == ESCAPE_FAMILY[: request.depth]
            return None if ok else "escape-family rows differ from the frozen table"
        obj = json.loads(text)
        if command == "ncycle":
            return self._ncycle_reason(value, order, obj)
        if command == "decompose":
            parts = [od.serialize.element_from_obj(obj[k]) for k in ("periodic", "almost_positive", "almost_negative")]
            return None if parts[0] * parts[1] * parts[2] == value else "parts do not recompose"
        # certificates
        if obj.get("verified") is not True:
            return "certificate is not verified"
        if od.serialize.element_from_obj(obj["target"]) != value:
            return "certificate target is not the input"
        factors = [self._factor(f) for f in obj["word"]]
        product = od.FullGroupElement.identity()
        for element in factors:
            product = product * element
        if product != value:
            return "certificate word does not recompose"
        kinds = [f["kind"] for f in obj["word"]]
        if command == "normal-form":
            ok = (
                kinds[-1] == "power_of_T"
                and int(obj["word"][-1]["power"]) == value.index()
                and all(k == "periodic" and f.is_periodic() for k, f in zip(kinds[:-1], factors))
            )
            return None if ok else "normal form is not periodic factors times T^index"
        if command == "factor-positive":
            ok = set(kinds) <= {"induced_on"} and len(kinds) == value.index()
            return None if ok else "positive word is not index-many return maps"
        if command == "factor-involutions":
            ok = all((f * f).is_identity for f in factors)
            return None if ok else "factor is not an involution"
        return f"no oracle for {command!r}"

    def _factor(self, obj):
        od = self.od
        if obj["kind"] == "induced_on":
            domain = od.serialize.clopen_from_obj(obj["set"])
            return od.induce(od.FullGroupElement.odometer(), domain).element
        if obj["kind"] == "periodic":
            return od.serialize.element_from_obj(obj["element"])
        if obj["kind"] == "power_of_T":
            return od.FullGroupElement.odometer(int(obj["power"]))
        raise ValueError(f"unexpected factor kind {obj['kind']!r}")

    @staticmethod
    def _ncycle_reason(subset, order: int, obj) -> str | None:
        count = subset.bits.bit_count()
        odd = order >> ((order & -order).bit_length() - 1)
        if obj["found"] != (count % odd == 0):
            return "ncycle verdict differs from the odd-part criterion"
        if not obj["found"]:
            return None if obj["witness"] is None else "negative verdict with a witness"
        witness = obj["witness"]
        depth = max(witness["depth"], subset.depth)
        spread = 1 << (depth - witness["depth"])
        step = 1 << witness["depth"]
        chosen = {p + j * step for p in witness["prefixes"] for j in range(spread)}
        members = [s for s, flag in enumerate(_flags(subset, depth)) if flag == "1"]
        # At a common depth the first-return map of the odometer to the set
        # moves each member cylinder to the next member, cyclically.  The
        # witness and its first ``order - 1`` images must tile the members.
        covered = bytearray(len(members))
        for k, s in enumerate(members):
            if s not in chosen:
                continue
            for j in range(order):
                position = (k + j) % len(members)
                if covered[position]:
                    return "witness images overlap"
                covered[position] = 1
        ok = chosen <= set(members) and all(covered)
        return None if ok else "witness does not tile the set"


CLASSES = {cls.name: cls for cls in (DeepTables, SmallChecks, CliCertify)}


def build(od, name: str, seed: int, size: str, workdir: str) -> Workload:
    return CLASSES[name](od, seed, size, workdir)
