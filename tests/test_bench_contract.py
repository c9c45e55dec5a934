"""The names and formats the benchmark in ``perfbench/`` relies on.

``perfbench/tracing.py`` wraps program functions looked up by name,
``perfbench/workloads.py`` re-derives claim verdicts with its own
parser, and its canon-search workload feeds the kernel graphs from
``benchmarks/bench_canonical.py``.  These tests load those files by
path, unchanged, so a change to the program that would break
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
from moricensus import _canon_py, graphs
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


def test_kernel_signature_serves_bench_graphs():
    bench = load("bench_canonical", "benchmarks")
    cases = [bench.random_multigraph(random.Random(1), 8), bench.circulant(8, (1, 2))]
    for n, labels, edges in cases:
        seq = _canon_py.canonical_sequence(n, labels, edges)
        assert graphs.canonical_graph(graphs.LabeledGraph.build(labels, edges)) == seq


def test_trace_counts_each_canonicalization_once_per_class():
    tracing = load("tracing")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = closure(encode_triple(Triple(-6, 0, 3)), MOVE_SETS["triple_group"])
    finally:
        tracer.uninstall()
    counts = tracing.exact_counts(tracer.spans, tracer.counts)
    assert counts["calls.graphs.canonical_graph"] == result.class_count == 6


def test_trace_counts_of_one_verification():
    # the census counts orbits off image tuples, the closure oracle reuses
    # the census's records and its moves build no Triple: the Triples are
    # the families' 347 and their 347 canonical keys
    tracing = load("tracing")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run_full_verification()
    finally:
        tracer.uninstall()
    counts = tracing.exact_counts(tracer.spans, tracer.counts)
    assert "calls.triples.orbit" not in counts
    assert counts["triples.triple_constructions"] == 694
    assert counts["calls.graphs.canonical_graph"] == 2042
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


def test_kernel_benchmark_runs():
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "bench_canonical.py"),
         "--random-sizes", "6", "--symmetric-sizes", "8", "--graphs", "2",
         "--repeats", "1"],
        capture_output=True, text=True, env=src_env(), timeout=60,
    )
    assert done.returncode == 0, done.stderr
    for header in ("rigid triple encodings", "random multigraphs",
                   "uniform circulants"):
        assert header in done.stdout
