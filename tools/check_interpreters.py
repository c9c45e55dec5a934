#!/usr/bin/env python3
"""Check that each given interpreter runs every pinned command line as
the tests do, and reads command lines as argparse does.

The pinned runs are the lines of ``tests/data/cli/RUNS``: each gives an
argv, its exit status and the files holding its expected stdout and
stderr.  For each interpreter the tool runs every line as ``PYTHON -X
dev -m moricensus.cli ARGV`` from this checkout's ``src`` (with
``PYTHONPATH=src``), with the repository root as the working directory
and ``COLUMNS=80``, so argparse wraps its usage line alike on any
terminal.  It compares all three of stdout, stderr and exit status, so
under ``-X dev`` a file left unclosed, which warns on stderr, fails the
run.  It only reads the expected files.  Last, one process reads each
command line of ``READER_CASES`` with ``cli._plain_args``, which reads a
plainly spelled line without argparse, and with ``cli.build_parser``:
the first must read the lines marked plain, and only those, into what
argparse reads.  It prints one line per run, naming the run by its
manifest line and argv, and exits 1 if any run fails, else 0.

Usage:
    python tools/check_interpreters.py PYTHON [PYTHON ...]

For example, over the pyenv CPythons that ``requires-python`` admits:
    python tools/check_interpreters.py "$(pyenv root)"/versions/3.1[0-3].*/bin/python
"""

import argparse
import os
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUNS = ROOT / "tests" / "data" / "cli" / "RUNS"


def read_runs() -> list:
    """The runs ``RUNS`` pins: ``(line, status, stdout, stderr, argv)``
    for each line that holds one, where ``stdout`` and ``stderr`` name
    files relative to ``ROOT``, or are ``-``."""
    runs = []
    for line, text in enumerate(RUNS.read_text(encoding="utf-8").splitlines(), 1):
        fields = shlex.split(text, comments=True)
        if fields:
            status, stdout, stderr, *argv = fields
            runs.append((line, int(status), stdout, stderr, argv))
    return runs


def expected(name: str) -> bytes:
    """What a run must print: nothing for ``-``, else the file ``name``."""
    return b"" if name == "-" else (ROOT / name).read_bytes()


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


def status(python: str, env: dict, code: int, stdout: str, stderr: str,
           argv: list) -> str:
    """``ok``, or what is wrong with one run of ``argv`` under ``python``:
    it must exit ``code`` and print the files ``stdout`` and ``stderr``."""
    try:
        done = subprocess.run([python, "-X", "dev", "-m", "moricensus.cli", *argv],
                              capture_output=True, cwd=ROOT, env=env, timeout=120)
    except OSError as exc:
        return f"cannot run: {exc.strerror}"
    if done.returncode != code:
        return f"exit {done.returncode}, not {code}"
    for stream, got, name in (("stdout", done.stdout, stdout),
                              ("stderr", done.stderr, stderr)):
        if got != expected(name):
            return f"{stream} differs from {name}"
    return "ok"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("pythons", nargs="+", metavar="PYTHON",
                        help="interpreter to run the checkout under")
    args = parser.parse_args(argv)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), COLUMNS="80")
    runs = read_runs()
    good = True
    for python in args.pythons:
        for line, code, stdout, stderr, command in runs:
            result = status(python, env, code, stdout, stderr, command)
            print(f"{python}  RUNS:{line} {shlex.join(command)}  {result}")
            good = good and result == "ok"
        result = reader_status(python, env)
        print(f"{python}  reader  {result}")
        good = good and result == "ok"
    return 0 if good else 1


if __name__ == "__main__":
    sys.exit(main())
