#!/usr/bin/env python3
"""Check that each given interpreter prints the shipped census, verify,
orbits and closure JSON (closure under both move sets), a symmetric
triple's orbits table and csv, the audit csv and a declared reading's
census JSON byte for byte, and reads command lines as argparse does.

For each interpreter it runs ``moricensus census --format json``,
``moricensus verify --format json``, ``moricensus orbits --format
json -- -6 0 3``, the same spelled ``--form json`` (an abbreviation,
which only argparse reads), ``moricensus orbits -- 1 1 1`` (a triple
with a non-trivial stabilizer) and the same with ``--format csv``
(whose first column names the six group elements), ``moricensus
closure --graph tests/data/cli/seed.graph --moves triple_group --format
json`` (the one subcommand that reaches ``graphs``' parser), the same
closure on ``seed-permuted.graph``, which lists that graph's nodes out
of label order, the closure of ``seed.graph`` under ``--moves none``
(the move set that reads no triple), ``moricensus audit --format csv``,
``moricensus audit --claims tests/data/cli/odd-cites.claims
--format json`` (whose cites hold characters that only ``json``
escapes) and ``moricensus census --config tests/data/cli/reading.cfg
--format json`` (a declared reading whose every count differs from the
shipped one) from this checkout's ``src`` (with ``PYTHONPATH=src``), and
compares each stdout with its expected file: the JSON snapshots in
``perfbench/snapshots/`` and the golden files in ``tests/data/cli/``.  It only reads those
files.  ``moricensus census --x`` must exit 2 with argparse's usage
error, and three runs of ``moricensus audit --claims`` on claims files
it writes to a temporary directory must exit 2 with the exact stderr
kept below: a trailing token, whose column the parser finds only for
the fault, a literal of more than 640 digits past the evaluation guard,
and a 4,301-digit literal, which ``int`` refuses.  Last, one process
reads each command line of ``READER_CASES`` with ``cli._plain_args``,
which reads a plainly spelled line without argparse, and with
``cli.build_parser``: the first must read the lines marked plain, and
only those, into what argparse reads.  Every run has ``COLUMNS=80``, so
argparse wraps its usage line alike on any terminal.  It prints one
line per run and exits 1 if any run exits with another status or
differs from its expected output, else 0.

Usage:
    python tools/check_interpreters.py PYTHON [PYTHON ...]

For example, over the pyenv CPythons that ``requires-python`` admits:
    python tools/check_interpreters.py "$(pyenv root)"/versions/3.1[0-3].*/bin/python
"""

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data" / "cli"
# each run's expected stdout, relative to ROOT, and its arguments
RUNS = [
    ("perfbench/snapshots/census.json", ["census", "--format", "json"]),
    ("perfbench/snapshots/verify.json", ["verify", "--format", "json"]),
    ("perfbench/snapshots/orbits.json",
     ["orbits", "--format", "json", "--", "-6", "0", "3"]),
    ("perfbench/snapshots/orbits.json",
     ["orbits", "--form", "json", "--", "-6", "0", "3"]),
    ("tests/data/cli/orbits-symmetric.table.txt", ["orbits", "--", "1", "1", "1"]),
    ("tests/data/cli/orbits-symmetric.csv.txt",
     ["orbits", "--format", "csv", "--", "1", "1", "1"]),
    *(("perfbench/snapshots/closure.json",
       ["closure", "--graph", str(DATA / name), "--moves", "triple_group",
        "--format", "json"]) for name in ("seed.graph", "seed-permuted.graph")),
    ("tests/data/cli/closure-none.json.txt",
     ["closure", "--graph", str(DATA / "seed.graph"), "--moves", "none",
      "--format", "json"]),
    ("tests/data/cli/audit.csv.txt", ["audit", "--format", "csv"]),
    ("tests/data/cli/audit-odd.json.txt",
     ["audit", "--claims", str(DATA / "odd-cites.claims"), "--format", "json"]),
    ("tests/data/cli/census-reading.json.txt",
     ["census", "--config", str(DATA / "reading.cfg"), "--format", "json"]),
]
USAGE_ERROR = (["census", "--x"],
               b"usage: moricensus [-h] {census,verify,orbits,closure,audit} ...\n"
               b"moricensus: error: unrecognized arguments: --x\n")
# claims files ``audit --claims`` refuses, each with its stderr
FAULTS = [
    ("claim x: 1 2 == 3 expect=holds\n",
     "error: trailing token '2' (line 1, column 12)\n"),
    (f"claim x: 1{'0' * 640} == 1 expect=holds\n",
     f"error: claim value 1{'0' * 640} outside guarded range +/-1000000000000 "
     "(line 1, column 10)\n"),
    (f"claim x: {'9' * 4301} == 1 expect=holds\n",
     "error: integer of 4301 digits is too long (line 1, column 10)\n"),
]

# (argv, whether it is plainly spelled): cli-audit's spellings, the
# golden runs' spellings and edge cases found by a differential fuzz
READER_CASES = [
    (["census", "--config", "reading0.cfg", "--format", "json"], True),
    (["audit", "--claims", "audit0.txt", "--format", "json"], True),
    (["verify", "--claims", "verify0.txt", "--format", "json"], True),
    (["orbits", "--format", "json", "--", "-6", "0", "3"], True),
    (["closure", "--graph", "triple0.graph", "--moves", "triple_group",
      "--format", "json"], True),
    (["census", "--format", "table"], True),
    (["verify", "--format", "csv"], True),
    (["audit", "--format", "csv", "--claims", "unexpected.claims"], True),
    (["orbits", "--", "1", "1", "1"], True),
    (["orbits", "--format", "csv", "--", "1", "1", "1"], True),
    (["closure", "--format", "table", "--graph", "seed.graph", "--moves", "none"],
     True),
    (["orbits", "1", "--", "2", "3"], True),
    (["verify", "--claims", "a b", "--claims", "c", "--config", "x"], True),
    (["orbits", "--", "007", "-0", "1234567890123456789"], True),
    ([], False),
    (["--help"], False),
    (["bogus"], False),
    (["census", "--"], False),
    (["audit", "--format=csv", "--"], False),
    (["orbits", "1", "2", "3", "--"], False),
    (["orbits", "--", "1", "--", "2", "3"], False),
    (["orbits", "-6", "0", "3"], False),
    (["orbits", "-h"], False),
    (["census", "--x"], False),
    (["orbits", "--form", "json", "--", "-6", "0", "3"], False),
    (["census", "--config"], False),
    (["census", "--config="], False),
    (["orbits", "1", "2", "3", "--format=csv"], False),
    (["census", "--config=a=b", "--format", "json", "--format", "table"], False),
    (["census", "--config", ""], False),
    (["census", "--config", "-x"], False),
    (["census", "--format", "x", "--format", "json"], False),
    (["orbits", "1", "2"], False),
    (["orbits", "x", "0", "0"], False),
    (["orbits", "--", "1" * 25, "0", "0"], False),
    (["closure", "--graph", "seed.graph"], False),
]
# run in one process under each interpreter; prints each case it gets wrong
READER_CHECK = """\
import ast, contextlib, io, sys
from moricensus import cli
parser = cli.build_parser()
for argv, plain in ast.literal_eval(sys.stdin.read()):
    got = cli._plain_args(argv)
    try:
        with contextlib.redirect_stdout(io.StringIO()), \\
                contextlib.redirect_stderr(io.StringIO()):
            want = vars(parser.parse_args(argv))
    except SystemExit:
        want = None
    if (got is not None) != plain or got is not None and vars(got) != want:
        print(argv)
"""


def reader_status(python: str, env: dict) -> str:
    """``ok``, or what is wrong with the ``READER_CASES`` under ``python``."""
    try:
        done = subprocess.run([python, "-c", READER_CHECK], input=repr(READER_CASES),
                              capture_output=True, text=True, env=env, timeout=120)
    except OSError as exc:
        return f"cannot run: {exc.strerror}"
    if done.returncode or done.stdout:
        return f"exit {done.returncode}: {(done.stdout or done.stderr).strip()}"
    return "ok"


def status(python: str, argv: list, env: dict, code: int, expected: bytes,
           source: str) -> str:
    """``ok``, or what is wrong with one run under ``python``: it must
    exit ``code`` and print ``expected``, read from ``source``, on stdout
    if ``code`` is 0, else on stderr."""
    try:
        done = subprocess.run([python, "-m", "moricensus.cli", *argv],
                              capture_output=True, env=env, timeout=120)
    except OSError as exc:
        return f"cannot run: {exc.strerror}"
    if done.returncode != code:
        return f"exit {done.returncode}"
    if (done.stderr if code else done.stdout) != expected:
        return f"differs from {source}"
    return "ok"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("pythons", nargs="+", metavar="PYTHON",
                        help="interpreter to run the checkout under")
    args = parser.parse_args(argv)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), COLUMNS="80")
    good = True
    with tempfile.TemporaryDirectory() as tmp:
        runs = [(command, 0, (ROOT / expected).read_bytes(), expected)
                for expected, command in RUNS]
        runs.append((USAGE_ERROR[0], 2, USAGE_ERROR[1], "USAGE_ERROR"))
        for i, (text, stderr) in enumerate(FAULTS):
            path = Path(tmp) / f"fault{i}.claims"
            path.write_text(text, encoding="utf-8")
            runs.append((["audit", "--claims", str(path)], 2, stderr.encode(),
                         "FAULTS"))
        for python in args.pythons:
            for command, code, expected, source in runs:
                result = status(python, command, env, code, expected, source)
                print(f"{python}  {command[0]:<7} {result}")
                good = good and result == "ok"
            result = reader_status(python, env)
            print(f"{python}  {'reader':<7} {result}")
            good = good and result == "ok"
    return 0 if good else 1


if __name__ == "__main__":
    sys.exit(main())
