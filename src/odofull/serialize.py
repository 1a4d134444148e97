"""JSON, CSV and text encodings for every value the package exchanges.

Each result type has one encoder per format: ``*_to_obj`` gives the JSON
object, ``*_to_csv`` and ``*_to_text`` the CSV and text documents where
the type has them; a factor kind carries its own ``to_obj``.
:func:`load_json` reads JSON given inline or as a file path, for every
parser of command-line input.

Exact rationals travel as ``"p/2^k"`` strings and are never rendered as
floating point in machine formats.  Cocycle entries ride as JSON numbers
while they fit in 53 bits and as decimal strings beyond that.
"""

from __future__ import annotations

import functools
import json
import os

from .clopen import ClopenSet
from .element import FullGroupElement
from .errors import ParseError
from .escape import INFINITE
from .induced import InducedResult
from .skyscraper import CounterexampleReport

ODOMETER_SYSTEM = "dyadic_odometer"
_SAFE_INT = 1 << 53


def int_to_obj(n: int):
    return n if -_SAFE_INT < n < _SAFE_INT else str(n)


def _int_from(obj) -> int:
    if isinstance(obj, bool) or not isinstance(obj, (int, str)):
        raise ParseError(f"expected an integer, got {obj!r}")
    try:
        return int(obj)
    except ValueError:
        raise ParseError(f"bad integer literal {obj!r}") from None


# -- clopen sets --------------------------------------------------------------


def clopen_to_obj(subset: ClopenSet) -> dict:
    return {"depth": subset.depth, "prefixes": list(subset.prefixes())}


def clopen_from_obj(obj) -> ClopenSet:
    if not isinstance(obj, dict) or "depth" not in obj or "prefixes" not in obj:
        raise ParseError("clopen set needs 'depth' and 'prefixes'")
    if not isinstance(obj["prefixes"], list):
        raise ParseError("'prefixes' must be a list")
    try:
        return ClopenSet.from_prefixes(obj["depth"], obj["prefixes"])
    except (TypeError, ValueError) as exc:
        raise ParseError(str(exc)) from None


# -- full group elements -------------------------------------------------------


def element_to_obj(u: FullGroupElement) -> dict:
    table = u.cocycle
    if -_SAFE_INT < min(table) and max(table) < _SAFE_INT:
        cocycle = list(table)
    else:
        cocycle = [int_to_obj(n) for n in table]
    return {"system": ODOMETER_SYSTEM, "depth": u.depth, "cocycle": cocycle}


def element_from_obj(obj) -> FullGroupElement:
    cocycle = obj.get("cocycle")
    if not isinstance(cocycle, list):
        raise ParseError("'cocycle' must be a list")
    # Decimal strings beyond 2**53, or entries to reject, go through _int_from.
    table = cocycle if set(map(type, cocycle)) <= {int} else [_int_from(n) for n in cocycle]
    try:
        return FullGroupElement(obj.get("depth"), table)
    except (TypeError, ValueError) as exc:
        raise ParseError(str(exc)) from None


def element_to_json(u: FullGroupElement) -> str:
    return json.dumps(element_to_obj(u))


# -- parsing (path or inline JSON) -------------------------------------------------


def load_json(source: str):
    """Parse ``source`` as inline JSON if it starts with ``{``, else as a file path.

    A missing file or malformed JSON raises :class:`ParseError`.
    """
    text = source.strip()
    if not text.startswith("{"):
        if not os.path.exists(text):
            raise ParseError(f"no such file: {text}")
        with open(text, "r", encoding="utf-8") as handle:
            text = handle.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON: {exc}") from None


def parse_element(source: str) -> FullGroupElement:
    """Parse a ``dyadic_odometer`` element from inline JSON or from a file path.

    Malformed input raises :class:`ParseError`, as does any other system
    tag: skyscraper elements are built in memory through
    ``TowerElement.from_moves`` and have no JSON form.  A table that fails
    bijectivity raises ``NotBijectiveError`` naming the colliding prefixes.
    """
    obj = load_json(source)
    if not isinstance(obj, dict):
        raise ParseError("element JSON must be an object")
    system = obj.get("system")
    if system == ODOMETER_SYSTEM:
        return element_from_obj(obj)
    if system == "skyscraper":
        raise ParseError("system 'skyscraper' has no JSON form; pass a dyadic_odometer element")
    raise ParseError(f"unknown system tag {system!r}")


# -- factorization certificates ----------------------------------------------------


def certificate_to_obj(cert) -> dict:
    """The JSON word lists every factor: each run's ``to_obj()`` once, repeated ``count`` times.

    :func:`json_text` encodes each such dict once and repeats its text.
    """
    return {
        "target": element_to_obj(cert.target),
        "word": [obj for f, count in cert.runs for obj in [f.to_obj()] * count],
        "verified": cert.verified,
    }


# -- command results ----------------------------------------------------------------


_INDENT = "  "
_encode_scalar = json.JSONEncoder().encode
_encode_key = json.encoder.encode_basestring_ascii


@functools.cache
def _flat_list_encoder(level: int):
    """Encodes a list of scalars at ``level`` one item a line, in one C call."""
    return json.JSONEncoder(separators=(",\n" + _INDENT * (level + 1), ": ")).encode


def _encode(obj, level: int) -> str:
    """``obj`` as ``json.dumps(obj, indent=2)`` writes it at nesting ``level``."""
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        brackets = "{}"
        items = [_encode_key(key) + ": " + _encode(value, level + 1) for key, value in obj.items()]
    elif isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        brackets = "[]"
        if any(issubclass(t, (dict, list, tuple)) for t in set(map(type, obj))):
            # A list may hold one object many times: encode each once.
            texts = {key: _encode(item, level + 1) for key, item in {id(i): i for i in obj}.items()}
            items = [texts[id(item)] for item in obj]
        else:  # one item: all of them, already joined by the encoder
            items = [_flat_list_encoder(level)(obj)[1:-1]]
    elif type(obj) is int:  # skips the encoder's set-up; it writes an int as repr()
        return repr(obj)
    else:
        return _encode_scalar(obj)
    inner = "\n" + _INDENT * (level + 1)
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + _INDENT * level + brackets[1]


def json_text(obj) -> str:
    """The indented JSON document the CLI writes for ``--format json``.

    The bytes are those of ``json.dumps(obj, indent=2) + "\n"`` for every
    object with ``str`` keys.  ``json.dumps`` encodes indented output in
    pure Python; here each list of scalars, such as a cocycle, is one call
    of the C encoder, and only the dicts and lists above it are walked.
    """
    return _encode(obj, 0) + "\n"


def cycle_parts_to_obj(parts) -> dict:
    return {name: element_to_obj(u) for name, u in parts._asdict().items()}


def index_to_obj(index: int) -> dict:
    return {"index": index}


def index_to_csv(index: int) -> str:
    return f"index\n{index}\n"


def index_to_text(index: int) -> str:
    return f"{index}\n"


def induced_to_obj(result: InducedResult) -> dict:
    return {
        "element": element_to_obj(result.element),
        "depth": result.depth,
        "return_times": {str(s): r for s, r in sorted(result.return_times.items())},
        "return_time_integral": str(result.return_time_integral()),
        "meets_every_nontrivial_orbit": result.meets_every_nontrivial_orbit,
    }


def ncycle_to_obj(outcome: tuple[bool, ClopenSet | None]) -> dict:
    found, witness = outcome
    return {"found": found, "witness": clopen_to_obj(witness) if witness else None}


def report_to_obj(report) -> dict:
    """JSON form of a ``verify`` run report."""
    return {
        "suite": report.suite,
        "cases": report.cases,
        "failures": report.failures,
        "wall_time": round(report.wall_time, 3),
        "exit_status": report.exit_status,
    }


def report_to_csv(report) -> str:
    return (
        "suite,cases,failures,wall_time,exit_status\n"
        f"{report.suite},{report.cases},{len(report.failures)},"
        f"{report.wall_time:.3f},{report.exit_status}\n"
    )


def report_to_text(report) -> str:
    """Summary line, then at most 50 failures as sorted-key JSON."""
    failures = report.failures
    lines = [
        f"suite {report.suite}: {report.cases} checks,"
        f" {len(failures)} failures, {report.wall_time:.2f}s"
    ]
    lines += [f"  FAIL {json.dumps(failure, sort_keys=True)}" for failure in failures[:50]]
    if len(failures) > 50:
        lines.append(f"  ... {len(failures) - 50} more")
    return "\n".join(lines) + "\n"


def escape_rows_to_obj(rows) -> list[dict]:
    return [
        {
            "m": row.m,
            "depth": row.depth,
            "measure": str(row.measure),
            "integral": str(row.integral),
        }
        for row in rows
    ]


def escape_rows_to_csv(rows) -> str:
    lines = ["m,depth,measure,integral"]
    lines += [f"{r.m},{r.depth},{r.measure},{r.integral}" for r in rows]
    return "\n".join(lines) + "\n"


def escape_rows_to_text(rows) -> str:
    lines = [
        f"m={r.m} depth={r.depth} measure={approx(r.measure)} integral={approx(r.integral)}"
        for r in rows
    ]
    return "\n".join(lines) + "\n"


def counterexample_to_obj(report: CounterexampleReport) -> dict:
    return {
        "mass_deficit": str(report.mass_deficit),
        "rows": [
            {"n": r.n, "d_T": str(r.ambient_distance), "d_TA": str(r.induced_distance)}
            for r in report.rows
        ],
    }


def counterexample_to_csv(report: CounterexampleReport) -> str:
    lines = [f"# mass deficit {report.mass_deficit}", "n,d_T,d_TA"]
    lines += [
        f"{r.n},{r.ambient_distance},{r.induced_distance}" for r in report.rows
    ]
    return "\n".join(lines) + "\n"


def counterexample_to_text(report: CounterexampleReport) -> str:
    lines = [f"mass deficit {report.mass_deficit}"]
    lines += [
        f"n={r.n}: ambient {approx(r.ambient_distance)}, induced {approx(r.induced_distance)}"
        for r in report.rows
    ]
    return "\n".join(lines) + "\n"


def escape_result_to_obj(result) -> dict:
    if result.is_infinite:
        return {"integral": "infinite", "times": None}
    return {
        "integral": str(result.integral),
        "times": {str(s): tau for s, tau in sorted(result.times.items())},
    }


def escape_result_to_csv(result) -> str:
    if result.is_infinite:
        return "# integral infinite\nprefix,escape_time\n"
    lines = [f"# integral {result.integral}", "prefix,escape_time"]
    lines += [f"{s},{tau}" for s, tau in sorted(result.times.items())]
    return "\n".join(lines) + "\n"


def escape_result_to_text(result) -> str:
    return f"integral {approx(result.integral)}\n"


def approx(value) -> str:
    """Decimal approximation marker for text reports."""
    if value is INFINITE:
        return "infinite"
    return f"{value} (≈ {float(value):.6g})"
