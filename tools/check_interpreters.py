#!/usr/bin/env python3
"""Check that each given interpreter prints the shipped census, verify
and orbits JSON byte for byte.

For each interpreter it runs ``moricensus census --format json``,
``moricensus verify --format json`` and ``moricensus orbits --format
json -- -6 0 3`` from this checkout's ``src`` (with ``PYTHONPATH=src``),
and compares each stdout with its snapshot in ``perfbench/snapshots/``.  It only reads the snapshots.  It prints one
line per run and exits 1 if any run exits non-zero or differs from its
snapshot, else 0.

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
SNAPSHOTS = ROOT / "perfbench" / "snapshots"
RUNS = {
    "census.json": ["census", "--format", "json"],
    "verify.json": ["verify", "--format", "json"],
    "orbits.json": ["orbits", "--format", "json", "--", "-6", "0", "3"],
}


def status(python: str, argv: list, snapshot: str, env: dict) -> str:
    """``ok``, or what is wrong with one run under ``python``."""
    try:
        done = subprocess.run([python, "-m", "moricensus.cli", *argv],
                              capture_output=True, env=env, timeout=120)
    except OSError as exc:
        return f"cannot run: {exc.strerror}"
    if done.returncode != 0:
        return f"exit {done.returncode}"
    if done.stdout != (SNAPSHOTS / snapshot).read_bytes():
        return "differs from snapshot"
    return "ok"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("pythons", nargs="+", metavar="PYTHON",
                        help="interpreter to run the checkout under")
    args = parser.parse_args(argv)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    good = True
    for python in args.pythons:
        for snapshot, command in RUNS.items():
            result = status(python, command, snapshot, env)
            print(f"{python}  {command[0]:<7} {result}")
            good = good and result == "ok"
    return 0 if good else 1


if __name__ == "__main__":
    sys.exit(main())
