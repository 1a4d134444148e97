"""Command-line front end: a command table over ``odofull.serialize``.

Each subcommand is one row of :func:`build_parser`: a ``run(args)``
callable and its result kind, which names the encoders ``serialize``
holds for it: ``<kind>_to_obj``, and ``_to_csv``/``_to_text`` where the
result has those forms (text mode otherwise prints the JSON).  ``main``
parses, runs, renders with the encoder that ``--format`` picks, and
writes to stdout or ``--out``.  The parser is built once; run targets and
encoders are looked up by name per call, so rebinding them takes effect.

Exit codes: 0 on success, 1 when a verification suite reports failures,
2 on usage or parse errors or when memory runs out, 3 when an internal
invariant check fails.
``ERGO_DEPTH_CAP`` overrides the depth cap.
Elements and sets are passed inline as JSON or as a path to a JSON file;
all randomized commands default to the documented seed 0.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import serialize
from .element import random_element
from .errors import InvariantError, OdofullError
from .escape import escape_time, escape_tower_family
from .factor import (
    decompose_pnp,
    factor_periodic_into_involutions,
    factor_positive,
    normal_form,
)
from .induced import induce, ncycle_support_test
from .skyscraper import counterexample_report
from .verify import QUICK, RunReport, SUITES, run_verify

def _clopen(source: str):
    return serialize.clopen_from_obj(serialize.load_json(source))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="odofull",
        description="Exact computations in full groups of the dyadic odometer.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "text"), default="text")
    common.add_argument("--out", help="write the report to this file")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary, run, kind):
        p = sub.add_parser(name, parents=[common], help=summary)
        p.set_defaults(run=run, kind=kind)
        return p

    p = command(
        "verify", "run property suites",
        lambda a: run_verify(a.suite, a.seed, a.scale), "report",
    )
    p.add_argument("--suite", choices=("all",) + SUITES, default="all")
    p.add_argument("--seed", type=int, default=0, help="suite seed (default 0)")
    p.add_argument("--scale", choices=("quick", "full"), default=QUICK)

    def on_element(name, summary, fn, kind):
        p = command(name, summary, lambda a: fn(serialize.parse_element(a.element)), kind)
        p.add_argument("element")

    on_element("index", "index of an element", lambda u: u.index(), "index")
    p = command(
        "compose", "compose two elements (right one applied first)",
        lambda a: serialize.parse_element(a.left) * serialize.parse_element(a.right), "element",
    )
    p.add_argument("left")
    p.add_argument("right")
    on_element("inverse", "inverse of an element", lambda u: u.inverse(), "element")

    p = command(
        "induce", "first-return map to a clopen set",
        lambda a: induce(serialize.parse_element(a.element), _clopen(a.set)), "induced",
    )
    p.add_argument("element")
    p.add_argument("--set", required=True, help='clopen set JSON, e.g. {"depth":1,"prefixes":[0]}')

    on_element(
        "decompose", "periodic / almost positive / almost negative parts",
        lambda u: decompose_pnp(u), "cycle_parts",
    )
    on_element(
        "factor-positive", "positive element as product of return maps",
        lambda u: factor_positive(u), "certificate",
    )
    on_element(
        "normal-form", "periodic factors times an odometer power",
        lambda u: normal_form(u), "certificate",
    )
    on_element(
        "factor-involutions", "periodic element as product of involutions",
        lambda u: factor_periodic_into_involutions(u), "certificate",
    )

    p = command(
        "ncycle", "a tiling piece for a cycle support, or none",
        lambda a: ncycle_support_test(_clopen(a.set), a.n), "ncycle",
    )
    p.add_argument("--set", required=True)
    p.add_argument("--n", type=int, required=True, help="cycle order (>= 2)")

    p = command(
        "escape", "escape times of a clopen set",
        lambda a: escape_time(_clopen(a.set)), "escape_result",
    )
    p.add_argument("--set", required=True)

    p = command(
        "escape-family", "diverging escape-integral tower family",
        lambda a: escape_tower_family(a.max_m), "escape_rows",
    )
    p.add_argument("--max-m", type=int, required=True)

    p = command(
        "counterexample", "crossing-involution distance table",
        lambda a: counterexample_report(a.max_n), "counterexample",
    )
    p.add_argument("--max-n", type=int, required=True)

    p = command(
        "random", "reproducible random element",
        lambda a: random_element(a.depth, a.max_shift, seed=a.seed), "element",
    )
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--max-shift", type=int, default=0, help="wrap bound (default 0)")
    p.add_argument("--seed", type=int, default=0, help="draw seed (default 0)")

    return parser


def _render(args, result) -> str:
    to_obj, to_csv, to_text = (
        getattr(serialize, f"{args.kind}_to_{form}", None) for form in ("obj", "csv", "text")
    )
    if args.format == "csv":
        if to_csv is None:
            raise ValueError(f"no csv form for {args.command!r}; use json or text")
        return to_csv(result)
    if args.format == "text" and to_text is not None:
        return to_text(result)
    return serialize.json_text(to_obj(result))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        result = args.run(args)
        text = _render(args, result)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except (OdofullError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print(f"error: out of memory running {args.command}", file=sys.stderr)
        return 2
    return result.exit_status if isinstance(result, RunReport) else 0


if __name__ == "__main__":
    sys.exit(main())
