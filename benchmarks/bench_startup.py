#!/usr/bin/env python3
"""Where a CLI spawn's time goes: the interpreter, and each subcommand.

Each round runs every command below once as a fresh process, in turn
(the order reversed every other round, so host drift falls on all of
them alike), and once more under ``-X importtime``:

  python -S -c pass  the bare interpreter
  python -c pass     the interpreter and ``site``, which runs before
                     any package code
  python -c freeze   the same, freezing every live object before exit
                     as the CLI's process entry does; the gap to
                     ``python -c pass`` is what the interpreter's
                     shutdown collections cost
  census             on the shipped declared config
  census --config    on a reading of 300 generated filler entries
                     besides the four the census needs, made by
                     ``perfbench/workloads.py``'s ``declared_file``
                     as the cli-audit workload makes its readings
  verify             on the shipped inputs
  audit              on the shipped claims
  audit --claims     on 600 generated claims, made by the same
                     file's ``claims_file`` as the cli-audit
                     workload makes its claims files
  orbits             one triple
  orbits --form      the same triple with ``--form json``, an
                     abbreviation, which the CLI leaves to argparse
  closure            ``--moves triple_group`` on an encoded triple

For each command it prints the median spawn time in ms, the sum of the
self times ``-X importtime`` reports for the ``moricensus`` modules
(the median over rounds), how many of them the spawn imports and
whether it imports ``argparse`` and ``json``, then the modules' names.
A plainly spelled command line is read without argparse, and no run
prints with ``json``, so only ``orbits --form`` should show ``yes``.  ``cli``
itself runs as ``__main__``, so its compile time is in the spawn but
not in that sum.  Spawns run the checkout's ``src`` and inherit the
environment, so whether bytecode is cached (``PYTHONDONTWRITEBYTECODE``)
is the caller's choice; the header shows it.  The end-to-end benchmark
is ``perfbench/run.py``.

Usage:
    python benchmarks/bench_startup.py [--rounds 10]
"""

import argparse
import importlib.util
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def workloads():
    """``perfbench/workloads.py``, loaded by path, whose input generators
    make the files the cli-audit workload feeds the CLI."""
    spec = importlib.util.spec_from_file_location(
        "_perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def commands(workdir: Path):
    """(name, argv) of each timed command."""
    inputs, rng = workloads(), random.Random(1)
    config = workdir / "reading.cfg"
    config.write_text(inputs.declared_file(rng, 129, 11, 103, 300), encoding="utf-8")
    claims_path = workdir / "generated.claims"
    claims_path.write_text(inputs.claims_file(rng, 600, False)[0], encoding="utf-8")
    graph = workdir / "triple.graph"
    graph.write_text("node n0 label=0\nnode n1 label=1\nnode n2 label=2\n"
                     "edge n0 n1 label=-6\nedge n1 n2 label=0\nedge n2 n0 label=3\n",
                     encoding="utf-8")
    cli = [sys.executable, "-m", "moricensus.cli"]
    return [
        ("python -S -c pass", [sys.executable, "-S", "-c", "pass"]),
        ("python -c pass", [sys.executable, "-c", "pass"]),
        ("python -c freeze", [sys.executable, "-c", "import gc; gc.freeze()"]),
        ("census", [*cli, "census"]),
        ("census --config", [*cli, "census", "--config", str(config)]),
        ("verify", [*cli, "verify"]),
        ("audit", [*cli, "audit"]),
        ("audit --claims", [*cli, "audit", "--claims", str(claims_path)]),
        ("orbits", [*cli, "orbits", "--", "-6", "0", "3"]),
        ("orbits --form", [*cli, "orbits", "--form", "json", "--", "-6", "0", "3"]),
        ("closure", [*cli, "closure", "--graph", str(graph), "--moves",
                     "triple_group"]),
    ]


def spawn(argv, env, importtime=False):
    """(seconds, stderr) of one run of ``argv``, which must exit 0."""
    if importtime:
        argv = [argv[0], "-X", "importtime", *argv[1:]]
    start = time.perf_counter()
    done = subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, env=env)
    seconds = time.perf_counter() - start
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {done.returncode}:\n"
                         f"{done.stderr[-2000:]}")
    return seconds, done.stderr


def imports(stderr):
    """{module: self µs} of every module in importtime output."""
    modules = {}
    for line in stderr.splitlines():
        if line.startswith("import time:"):
            self_us, _, name = line[len("import time:"):].split("|")
            if self_us.strip().isdigit():  # not the header line
                modules[name.strip()] = int(self_us)
    return modules


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=10)
    args = parser.parse_args()

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as tmp:
        runs = commands(Path(tmp))
        spawns = {name: [] for name, _ in runs}
        self_ms = {name: [] for name, _ in runs}
        imported = {name: set() for name, _ in runs}
        stdlib = {name: set() for name, _ in runs}  # argparse, json
        for round_ in range(args.rounds):
            for name, argv in runs[::-1] if round_ % 2 else runs:
                spawns[name].append(spawn(argv, env)[0])
                if argv[1] == "-m":
                    modules = imports(spawn(argv, env, importtime=True)[1])
                    package = {m: us for m, us in modules.items()
                               if m == "moricensus" or m.startswith("moricensus.")}
                    self_ms[name].append(sum(package.values()) / 1e3)
                    imported[name] |= package.keys()
                    stdlib[name] |= modules.keys() & {"argparse", "json"}

    cache = env.get("PYTHONDONTWRITEBYTECODE") or "unset"
    print(f"CLI start-up, median of {args.rounds} alternating rounds "
          f"(python {sys.version.split()[0]}, PYTHONDONTWRITEBYTECODE={cache})")
    print(f"  {'command':<18} {'spawn ms':>9} {'package ms':>11} {'modules':>8} "
          f"{'argparse':>9} {'json':>5}")
    for name, _ in runs:
        spawn_ms = 1e3 * statistics.median(spawns[name])
        if self_ms[name]:
            loads = ["yes" if m in stdlib[name] else "no" for m in ("argparse", "json")]
            print(f"  {name:<18} {spawn_ms:>9.1f} "
                  f"{statistics.median(self_ms[name]):>11.1f} "
                  f"{len(imported[name]):>8} {loads[0]:>9} {loads[1]:>5}")
        else:
            print(f"  {name:<18} {spawn_ms:>9.1f} {'-':>11} {'-':>8} {'-':>9} {'-':>5}")
    print("package modules each spawn imports")
    for name, modules in imported.items():
        if modules:
            short = sorted(m.partition(".")[2] or "__init__" for m in modules)
            print(f"  {name:<18} {' '.join(short)}")


if __name__ == "__main__":
    main()
