"""The names and formats the benchmark in ``perfbench/`` relies on.

``perfbench/tracing.py`` wraps program functions looked up by name,
``perfbench/workloads.py`` re-derives claim verdicts with its own
parser, and its canon-search workload feeds the kernel graphs from
``benchmarks/bench_canonical.py``; ``benchmarks/bench_verify.py``
prints verify's stage table and ``benchmarks/bench_startup.py`` the
cost of each CLI spawn.  These tests load those files by path,
unchanged, so a change to the program that would break
``--trace 1`` or the benchmark's answers fails here first.
"""

import importlib
import importlib.util
import inspect
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from moricensus.audit import default_claims_text, run_full_verification
from moricensus.claims import evaluate_claims, parse_claims
from moricensus.closure import MOVE_SETS, closure, encode_triple
from moricensus import _canon_py, audit, graphs
from moricensus.triples import Triple

ROOT = Path(__file__).resolve().parents[1]


def load(name, directory="perfbench"):
    module_name = f"_{directory}_{name}"
    spec = importlib.util.spec_from_file_location(
        module_name, ROOT / directory / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[module_name] = module
    spec.loader.exec_module(module)
    return module


def test_spanned_functions_exist():
    for modname, fname in load("tracing").SPANNED:
        module = importlib.import_module(f"moricensus.{modname}")
        assert callable(getattr(module, fname, None)), f"{modname}.{fname}"


def test_traced_hooks_exist():
    assert callable(Triple.__post_init__)
    assert "workers" in inspect.signature(closure).parameters
    assert callable(getattr(graphs, "canonical_backend", None))


def test_claim_answers_match_evaluator():
    text = default_claims_text()
    rows = [
        (v.name, v.holds, v.lhs_value, v.rhs_value,
         "holds" if v.expect_holds else "fails", v.cite)
        for v in evaluate_claims(parse_claims(text)).verdicts
    ]
    assert load("workloads").claim_answers(text) == rows


def test_claimed_table_follows_verify_snapshot():
    # one expected value per census verdict, in the order the report
    # and the benchmark's snapshot list them
    verdicts = json.loads((ROOT / "perfbench" / "snapshots" / "verify.json")
                          .read_text())["verdicts"]
    census = [(v["name"], v["rhs"]) for v in verdicts
              if v["name"].startswith("census.")]
    assert list(audit.CLAIMED.items()) == census


def test_kernel_signature_serves_bench_graphs():
    bench = load("bench_canonical", "benchmarks")
    cases = [bench.random_multigraph(random.Random(1), 8), bench.circulant(8, (1, 2))]
    for n, labels, edges in cases:
        seq = _canon_py.canonical_sequence(n, labels, edges)
        assert graphs.canonical_graph(graphs.LabeledGraph.build(labels, edges)) == seq


def test_trace_counts_each_canonicalization_once_per_class():
    # the tracer wraps ``canonical_graph``, the kernel's only entry; the
    # triple group keys its classes by state, and ``none`` keeps its seed
    # as its state, so neither calls it
    tracing = load("tracing")
    seed = encode_triple(Triple(-6, 0, 3))
    for moves, classes, kernel_calls in (("triple_group", 6, 0), ("none", 1, 0)):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            result = closure(seed, MOVE_SETS[moves])
        finally:
            tracer.uninstall()
        counts = tracing.exact_counts(tracer.spans, tracer.counts)
        assert result.class_count == classes
        assert counts.get("calls.graphs.canonical_graph", 0) == kernel_calls, moves


def test_trace_counts_the_canonical_forms_iso_compares():
    # iso decides a pair whose (edge label, mult) multisets differ, such
    # as canon-search's mutants, before any canonical form, and a
    # relabelled copy whose node keys are pairwise distinct by its one
    # forced map; C_6, against two triangles or relabelled (equal
    # multisets, tied keys), needs both forms
    tracing = load("tracing")
    bench = load("bench_canonical", "benchmarks")
    n, labels, edges = bench.random_multigraph(random.Random(1), 8)
    g = graphs.LabeledGraph.build(labels, edges)
    u, v, e, m = edges[0]
    mutant = graphs.LabeledGraph.build(labels, [(u, v, e, m + 1)] + edges[1:])
    flip = graphs.LabeledGraph.build(
        labels[::-1], [(n - 1 - a, n - 1 - b, *rest) for a, b, *rest in edges])
    hexagon = graphs.LabeledGraph.build(
        [0] * 6, [(k, (k + 1) % 6, 0) for k in range(6)])
    perm = (0, 2, 4, 1, 3, 5)
    relabelled_hexagon = graphs.LabeledGraph.build(
        [0] * 6, [(perm[k], perm[(k + 1) % 6], 0) for k in range(6)])
    triangles = graphs.LabeledGraph.build(
        [0] * 6, [(0, 1, 0), (1, 2, 0), (2, 0, 0), (3, 4, 0), (4, 5, 0), (5, 3, 0)])
    for pair, answer, kernel_calls in (((g, mutant), False, 0),
                                       ((g, flip), True, 0),
                                       ((hexagon, triangles), False, 2),
                                       ((hexagon, relabelled_hexagon), True, 2)):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            result = graphs.iso(*pair)
        finally:
            tracer.uninstall()
        counts = tracing.exact_counts(tracer.spans, tracer.counts)
        assert result is answer
        assert counts.get("calls.graphs.canonical_graph", 0) == kernel_calls


def test_trace_counts_of_one_verification():
    # the families call ``orbit`` once per model on its plain tuple, the
    # census reads orbits off the families' records and the closure
    # oracle seeds each closure with that tuple: no Triple is built, the
    # orbits are the families' 347, and the oracle keys its classes by
    # state, so the kernel never runs
    tracing = load("tracing")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run_full_verification()
    finally:
        tracer.uninstall()
    counts = tracing.exact_counts(tracer.spans, tracer.counts)
    assert counts["calls.triples.orbit"] == 347
    assert counts.get("triples.triple_constructions", 0) == 0
    assert "calls.graphs.canonical_graph" not in counts
    assert counts["calls.closure.closure"] == 347
    assert counts["closure.expansion_steps"] == 4084


def src_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return env


@pytest.mark.parametrize("trace", ["0", "1"])
def test_verify_benchmark_runs(trace):
    # the benchmark reads modules loaded by ``import moricensus.cli`` and
    # calls the package-level ``closure``; a run must finish correct
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         "verify", "--seconds", "1", "--seed", "0", "--trace", trace],
        capture_output=True, text=True, env=src_env(), timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is True


def in_fresh_interpreter(code):
    """Run ``code`` where only what it imports is loaded, ``perfbench`` on the path.

    ``perfbench/run.py`` spawns such interpreters for ``setup_s`` and imports
    the program once before it measures, so a name that only a test run
    leaves loaded would hide a break.
    """
    done = subprocess.run(
        [sys.executable, "-c",
         f"import sys\nsys.path.insert(0, {str(ROOT / 'perfbench')!r})\n{code}"],
        capture_output=True, text=True, env=src_env(), timeout=60,
    )
    assert done.returncode == 0, done.stderr[-2000:]


def test_cli_import_loads_what_the_workloads_read():
    # VerifyWorkload and CanonSearchWorkload read these two from
    # sys.modules after ``import moricensus.cli``, outside their ``try``
    in_fresh_interpreter(
        "import moricensus.cli\n"
        "assert callable(sys.modules['moricensus.audit'].run_full_verification)\n"
        "assert callable(sys.modules['moricensus.graphs'].iso)\n"
    )


def test_package_closure_is_the_function_workers_ratio_calls():
    in_fresh_interpreter(
        "from moricensus import closure\n"
        "assert closure is sys.modules['moricensus.closure'].closure\n"
        "import run\n"
        "assert run.workers_ratio()[1]\n"
    )


def test_setup_code_runs():
    # ``setup_s`` times this code, which reads census names off the package
    in_fresh_interpreter("import run\nexec(run.SETUP_CODE)\n")


def test_tracer_sees_the_names_subcommands_load():
    # as under ``--trace 1``: the program is imported, then the tracer
    # imports every spanned module and rebinds its names.  Call sites that
    # import a name when they run see the rebound one, and the tracer can
    # take back every wrapper, so two traced passes count alike.
    in_fresh_interpreter(
        "import contextlib, io\n"
        "import moricensus, moricensus.cli as cli, tracing\n"
        "passes = []\n"
        "for _ in range(2):\n"
        "    tracer = tracing.Tracer()\n"
        "    tracer.install()\n"
        "    try:\n"
        "        with contextlib.redirect_stdout(io.StringIO()):\n"
        "            for command in ('census', 'audit', 'verify'):\n"
        "                assert cli.main([command, '--format', 'json']) == 0\n"
        "        moricensus.load_declared('entry x: count=1\\n')\n"
        "    finally:\n"
        "        tracer.uninstall()\n"
        "    passes.append(tracing.exact_counts(tracer.spans, tracer.counts))\n"
        "counts = passes[0]\n"
        "assert passes[1] == counts, passes\n"
        "assert counts['calls.cli.main'] == 3, counts\n"
        "assert counts['calls.declared.load_declared'] == 3, counts\n"
        "assert counts['calls.cones.build_census_report'] == 2, counts\n"
        "assert counts['calls.families.regular_models'] == 1, counts\n"
        "assert counts['calls.claims.parse_claims'] == 2, counts\n"
        "assert counts['calls.claims.evaluate_claims'] == 2, counts\n"
        "assert counts['calls.audit.run_full_verification'] == 1, counts\n"
        "declared = sys.modules['moricensus.declared']\n"
        "assert moricensus.load_declared is declared.load_declared\n"
        "assert declared.load_declared.__module__ == 'moricensus.declared'\n"
    )


def test_kernel_benchmark_runs():
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "bench_canonical.py"),
         "--random-sizes", "6", "--symmetric-sizes", "8", "--graphs", "2",
         "--repeats", "1"],
        capture_output=True, text=True, env=src_env(), timeout=60,
    )
    assert done.returncode == 0, done.stderr
    for header in ("random multigraphs", "uniform circulants", "iso pairs"):
        assert header in done.stdout
    assert "rigid" not in done.stdout


def test_verify_stage_benchmark_runs():
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "bench_verify.py"),
         "--rounds", "1", "--number", "1"],
        capture_output=True, text=True, env=src_env(), timeout=60,
    )
    assert done.returncode == 0, done.stderr
    rows = {line[:20].strip(): line[20:].split()
            for line in done.stdout.splitlines() if line.startswith("  ")}
    for stage in ("declared load", "claims parse", "claims evaluate", "families",
                  "census report", "closure oracle", "closure, no moves",
                  "full run"):
        assert stage in rows, stage
    # per-unit costs, each with the count of its units in one full run
    for unit, count in (("closure call", "347"), ("expansion step", "4084"),
                        ("claim parsed", "22"), ("census model", "347")):
        assert rows[unit][1] == count, unit
    # one record per census model in each of two classes, and one more
    # RegularModel for the declared symmetric model; the census's triples
    # are plain tuples, so no Triple is built
    assert rows["ClosureResult"] == ["347"]
    assert rows["RegularModel"] == ["348"]
    assert "ModelRecord" not in rows and "Triple" not in rows
    assert rows["total"] == ["748"]


def test_startup_benchmark_runs():
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "bench_startup.py"),
         "--rounds", "1"],
        capture_output=True, text=True, env=src_env(), timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    split = lines.index("package modules each spawn imports")
    times = {line[:20].strip(): line[20:].split()
             for line in lines[:split] if line.startswith("  ")}
    modules = {line[:20].strip(): line[20:].split()
               for line in lines[split:] if line.startswith("  ")}
    for name in ("python -S -c pass", "python -c pass", "python -c freeze"):
        assert float(times[name][0]) > 0 and times[name][1:] == ["-"] * 4
    for name in ("census", "census --config", "verify", "audit", "audit --claims",
                 "orbits", "orbits --form", "closure"):
        spawn_ms, package_ms, count, *argparse_json = times[name]
        assert float(spawn_ms) > 0 and float(package_ms) > 0
        assert int(count) == len(modules[name])
        # only the abbreviation is left to argparse, and no run loads json
        assert argparse_json == ["yes" if name == "orbits --form" else "no", "no"]
        # no subcommand here makes a kernel call
        assert {"__init__", "audit", "graphs"} <= set(modules[name])
        assert "_canon_py" not in modules[name]
    assert "declared" in modules["census --config"]
    assert "claims" in modules["audit --claims"]
    assert "claims" not in modules["orbits"]
