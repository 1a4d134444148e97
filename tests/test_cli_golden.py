"""Golden CLI outputs: exact stdout, ``--out`` contents and exit codes.

Every subcommand runs in json, csv and text form on small fixed inputs
(depth at most 5), plus the usage and parse error rows and two depth-6
certificates with |index| above 20 (``normal-form`` at a negative index,
``factor-positive`` at a positive one).  ``{tmp}`` in an
argument stands for a per-test directory holding the input files below.
``verify`` rows have their wall time masked; nothing else is.

The expected values live in ``tests/data/cli_golden.json``.  To rewrite
them after a deliberate format change, run
``PYTHONPATH=src python tests/test_cli_golden.py`` and review the diff.
"""

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from odofull.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"

E3 = '{"system":"dyadic_odometer","depth":3,"cocycle":[14,18,-9,5,-5,5,7,-11]}'
E4 = '{"system":"dyadic_odometer","depth":4,"cocycle":[10,4,14,14,5,15,0,11,11,6,1,12,0,11,15,15]}'
E5 = (
    '{"system":"dyadic_odometer","depth":5,"cocycle":[41,-9,44,7,-8,-4,63,28,46,44,35,33,'
    '11,35,13,55,55,-20,-10,-26,44,5,12,-25,28,6,25,16,8,52,52,48]}'
)
PERIODIC = '{"system":"dyadic_odometer","depth":4,"cocycle":[10,4,10,6,26,-2,-6,1,5,-7,5,-5,-1,-12,-26,-8]}'
RETURN_HALF = '{"system":"dyadic_odometer","depth":1,"cocycle":[2,0]}'
BAD = '{"system":"dyadic_odometer","depth":2,"cocycle":[2,0,-1,1]}'
SKYSCRAPER = '{"system":"skyscraper","towers":[{"height":2,"base_measure":"1/2^1","moves":[[0,1],[1,-1]]}]}'
SET3 = '{"depth":3,"prefixes":[2,4,5,6,7]}'
SET4 = '{"depth":4,"prefixes":[0,1,2,7,9,10,12,13,14]}'
WHOLE = '{"depth":0,"prefixes":[0]}'
# Depth 6, index -26, with periodic, almost positive and almost negative parts.
NEGATIVE6 = json.dumps({"system": "dyadic_odometer", "depth": 6, "cocycle": [
    -1, 28, -102, -65, 86, 4, -48, -95, -80, 26, -90, 50, 11, -74, -95, -78,
    -47, -47, -69, -93, -98, -87, 20, -68, -80, -98, -46, -66, 30, 46, -79, 72,
    -65, -52, 48, 70, -30, 27, 64, -71, 17, -81, 9, -13, -34, -25, 30, -31,
    84, -32, -54, -94, -64, 6, -1, -70, 35, -50, 52, -45, 47, -88, -90, 70,
]})
# Depth 6, index 24, every step nonnegative.
POSITIVE6 = json.dumps({"system": "dyadic_odometer", "depth": 6, "cocycle": [
    14, 6, 47, 10, 42, 12, 50, 13, 30, 19, 8, 31, 36, 27, 25, 26,
    11, 27, 17, 3, 25, 2, 11, 24, 55, 12, 28, 37, 35, 3, 13, 22,
    2, 57, 27, 58, 58, 48, 17, 13, 34, 28, 18, 25, 14, 50, 30, 15,
    35, 1, 7, 38, 14, 47, 21, 60, 9, 10, 1, 13, 28, 19, 8, 10,
]})

FILES = {"e5.json": E5, "set4.json": SET4, "negative6.json": NEGATIVE6, "positive6.json": POSITIVE6}

MATRIX = [
    ["verify", "--suite", "counterexample", "--seed", "1"],
    ["verify", "--suite", "escape", "--seed", "2"],
    ["index", E3],
    ["index", E5],
    ["compose", E3, E5],
    ["inverse", E5],
    ["induce", E3, "--set", SET3],
    ["induce", E5, "--set", SET4],
    ["decompose", E5],
    ["factor-positive", RETURN_HALF],
    ["factor-positive", E4],
    ["normal-form", E3],
    ["normal-form", E5],
    ["factor-involutions", PERIODIC],
    ["ncycle", "--set", SET3, "--n", "3"],
    ["ncycle", "--set", WHOLE, "--n", "2"],
    ["ncycle", "--set", WHOLE, "--n", "3"],
    ["escape", "--set", SET4],
    ["escape", "--set", WHOLE],
    ["escape-family", "--max-m", "3"],
    ["counterexample", "--max-n", "4"],
    ["random", "--depth", "5", "--max-shift", "3", "--seed", "42"],
    ["random", "--depth", "3"],
]

ROWS = [argv + ["--format", fmt] for argv in MATRIX for fmt in ("json", "csv", "text")]
ROWS += [
    ["index", "{tmp}/e5.json"],
    ["escape", "--set", "{tmp}/set4.json", "--format", "json"],
    ["ncycle", "--set", "{tmp}/set4.json", "--n", "2", "--format", "json"],
    ["counterexample", "--max-n", "3", "--format", "csv", "--out", "{tmp}/out"],
    ["normal-form", E3, "--format", "json", "--out", "{tmp}/out"],
    ["compose", E3, E3, "--format", "csv", "--out", "{tmp}/out"],
    ["index", "{broken"],
    ["index", BAD],
    ["index", SKYSCRAPER],
    ["index", "{tmp}/missing.json"],
    ["escape", "--set", "{tmp}/missing.json"],
    ["escape", "--set", '{"depth":0,"prefixes":[]}'],
    ["ncycle", "--set", SET3, "--n", "1"],
    ["counterexample", "--max-n", "0"],
    ["escape-family", "--max-m", "0"],
    ["index", E3, "--format", "yaml"],
    ["no-such-command"],
    ["normal-form", "{tmp}/negative6.json", "--format", "json"],
    ["normal-form", "{tmp}/negative6.json", "--format", "text"],
    ["factor-positive", "{tmp}/positive6.json", "--format", "json"],
    ["factor-positive", "{tmp}/positive6.json", "--format", "text"],
]

_WALL_TIME = re.compile(r"\d+\.\d+")


def run_row(argv: list[str], tmp: Path) -> dict:
    """Run one CLI row in-process; return its exit code, stdout and ``--out`` file."""
    for name, text in FILES.items():
        (tmp / name).write_text(text, encoding="utf-8")
    out_file = tmp / "out"
    if out_file.exists():
        out_file.unlink()
    args = [a.replace("{tmp}", str(tmp)) for a in argv]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        try:
            status = main(args)
        except SystemExit as exc:
            status = exc.code
    text = stdout.getvalue()
    if argv[0] == "verify":
        text = _WALL_TIME.sub("<t>", text)
    out = out_file.read_text(encoding="utf-8") if out_file.exists() else None
    return {"argv": argv, "exit": status, "stdout": text, "out": out}


def _expected() -> dict:
    rows = json.loads(GOLDEN.read_text(encoding="utf-8"))
    return {json.dumps(row["argv"]): row for row in rows}


@pytest.mark.parametrize("index", range(len(ROWS)))
def test_cli_golden(index, tmp_path):
    argv = ROWS[index]
    expected = _expected().get(json.dumps(argv))
    assert expected is not None, f"no golden row for {argv}"
    assert run_row(argv, tmp_path) == expected


def test_golden_covers_every_row():
    assert sorted(_expected()) == sorted(json.dumps(argv) for argv in ROWS)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        golden = [run_row(argv, Path(tmp)) for argv in ROWS]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
