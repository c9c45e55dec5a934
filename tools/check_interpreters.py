#!/usr/bin/env python3
"""Check that each given interpreter prints the shipped census, verify,
orbits and closure JSON, a symmetric triple's orbits table and csv and
the audit csv byte for byte.

For each interpreter it runs ``moricensus census --format json``,
``moricensus verify --format json``, ``moricensus orbits --format
json -- -6 0 3``, ``moricensus orbits -- 1 1 1`` (a triple with a
non-trivial stabilizer) and the same with ``--format csv`` (whose first
column names the six group elements), ``moricensus closure --graph
tests/data/cli/seed.graph --moves triple_group --format json`` (the one
subcommand that reaches ``graphs``' parser), the same closure on
``seed-permuted.graph``, which lists that graph's nodes out of label
order, and ``moricensus audit --format csv`` from this checkout's
``src`` (with ``PYTHONPATH=src``), and compares each stdout with its
expected file: the JSON snapshots in
``perfbench/snapshots/`` and the golden files in ``tests/data/cli/``.
It only reads those files.  It prints one line per run and exits 1 if
any run exits non-zero or differs from its expected file, else 0.

Usage:
    python tools/check_interpreters.py PYTHON [PYTHON ...]

For example, over the pyenv CPythons that ``requires-python`` admits:
    python tools/check_interpreters.py "$(pyenv root)"/versions/3.1[0-3].*/bin/python
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GRAPHS = ROOT / "tests" / "data" / "cli"
# each run's expected stdout, relative to ROOT, and its arguments
RUNS = [
    ("perfbench/snapshots/census.json", ["census", "--format", "json"]),
    ("perfbench/snapshots/verify.json", ["verify", "--format", "json"]),
    ("perfbench/snapshots/orbits.json",
     ["orbits", "--format", "json", "--", "-6", "0", "3"]),
    ("tests/data/cli/orbits-symmetric.table.txt", ["orbits", "--", "1", "1", "1"]),
    ("tests/data/cli/orbits-symmetric.csv.txt",
     ["orbits", "--format", "csv", "--", "1", "1", "1"]),
    *(("perfbench/snapshots/closure.json",
       ["closure", "--graph", str(GRAPHS / name), "--moves", "triple_group",
        "--format", "json"]) for name in ("seed.graph", "seed-permuted.graph")),
    ("tests/data/cli/audit.csv.txt", ["audit", "--format", "csv"]),
]


def status(python: str, argv: list, expected: str, env: dict) -> str:
    """``ok``, or what is wrong with one run under ``python``."""
    try:
        done = subprocess.run([python, "-m", "moricensus.cli", *argv],
                              capture_output=True, env=env, timeout=120)
    except OSError as exc:
        return f"cannot run: {exc.strerror}"
    if done.returncode != 0:
        return f"exit {done.returncode}"
    if done.stdout != (ROOT / expected).read_bytes():
        return f"differs from {expected}"
    return "ok"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("pythons", nargs="+", metavar="PYTHON",
                        help="interpreter to run the checkout under")
    args = parser.parse_args(argv)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    good = True
    for python in args.pythons:
        for expected, command in RUNS:
            result = status(python, command, expected, env)
            print(f"{python}  {command[0]:<7} {result}")
            good = good and result == "ok"
    return 0 if good else 1


if __name__ == "__main__":
    sys.exit(main())
