"""An independent reader of certificate JSON, run on the golden CLI rows.

It imports nothing from ``odofull``.  A step table is a plain list of
ints, one per prefix at its depth; a word ``[F1, ..., Fm]`` is composed
with the rightmost factor applied first and compared with the target:
- ``periodic`` factors and the target are their cocycles, whose entries
  may be decimal strings;
- ``induced_on`` is the odometer's first-return map to the set, which
  steps each member to the next one up and the last one around to the
  first;
- ``power_of_T`` is the depth-0 table ``[power]``.
"""

import copy
import json
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"
COMMANDS = ("factor-positive", "normal-form", "factor-involutions")


def refine(table: list[int], size: int) -> list[int]:
    """``table`` at ``size >= len(table)`` prefixes: a prefix steps as its low bits do."""
    return [table[s % len(table)] for s in range(size)]


def element(obj) -> list[int]:
    assert obj["system"] == "dyadic_odometer"
    table = [int(n) for n in obj["cocycle"]]
    assert len(table) == 1 << obj["depth"]
    return table


def return_map(obj) -> list[int]:
    size = 1 << obj["depth"]
    members = obj["prefixes"]
    table = [0] * size
    for m, following in zip(members, members[1:] + [members[0] + size]):
        table[m] = following - m
    return table


def factor(obj) -> list[int]:
    if obj["kind"] == "induced_on":
        return return_map(obj["set"])
    if obj["kind"] == "periodic":
        return element(obj["element"])
    if obj["kind"] == "power_of_T":
        return [int(obj["power"])]
    raise ValueError(f"unknown factor kind {obj['kind']!r}")


def compose(outer: list[int], inner: list[int]) -> list[int]:
    """``outer o inner``: step by ``inner``, then by ``outer`` from where that lands."""
    size = max(len(outer), len(inner))
    outer, inner = refine(outer, size), refine(inner, size)
    return [n + outer[(s + n) % size] for s, n in enumerate(inner)]


def certifies(cert) -> bool:
    """True when the word composes to the target."""
    product = [0]
    for obj in reversed(cert["word"]):
        product = compose(factor(obj), product)
    target = element(cert["target"])
    size = max(len(product), len(target))
    return refine(product, size) == refine(target, size)


def _certificates() -> list[tuple[list[str], dict]]:
    """``(argv, certificate)`` for every golden certificate row that exits 0."""
    rows = json.loads(GOLDEN.read_text(encoding="utf-8"))
    return [
        (row["argv"], json.loads(row["stdout"] if row["out"] is None else row["out"]))
        for row in rows
        if row["argv"][0] in COMMANDS and row["exit"] == 0
    ]


CERTIFICATES = _certificates()


def test_the_golden_rows_hold_every_command_kind_and_output():
    assert {argv[0] for argv, _ in CERTIFICATES} == set(COMMANDS)
    assert {f["kind"] for _, cert in CERTIFICATES for f in cert["word"]} == {
        "induced_on",
        "periodic",
        "power_of_T",
    }
    assert any("--out" in argv for argv, _ in CERTIFICATES)


@pytest.mark.parametrize("index", range(len(CERTIFICATES)))
def test_golden_certificate_recomposes(index):
    argv, cert = CERTIFICATES[index]
    assert cert["verified"] is True
    assert certifies(cert), argv


def test_a_flipped_prefix_fails():
    cert = copy.deepcopy(next(c for argv, c in CERTIFICATES if argv[0] == "factor-positive"))
    domain = next(f["set"] for f in cert["word"] if f["kind"] == "induced_on")
    i = next(i for i, s in enumerate(domain["prefixes"]) if s ^ 1 not in domain["prefixes"])
    domain["prefixes"][i] ^= 1  # the cylinder next to a member, in its place
    domain["prefixes"].sort()
    assert not certifies(cert)


def test_a_flipped_cocycle_entry_fails():
    cert = copy.deepcopy(next(c for argv, c in CERTIFICATES if argv[0] == "normal-form"))
    periodic = next(f["element"] for f in cert["word"] if f["kind"] == "periodic")
    periodic["cocycle"][0] = int(periodic["cocycle"][0]) + 1
    assert not certifies(cert)
