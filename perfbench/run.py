#!/usr/bin/env python3
"""moricensus benchmark: closed-loop workloads with checked outputs.

Usage (from the repository root):

    python3 perfbench/run.py [--workload verify|canon-search|cli-audit|all]
        [--seed N] [--seconds S] [--trace 0|1]

One caller runs operations back to back for ``--seconds`` seconds
(a closed loop); every output is checked against an answer the
benchmark derives itself.  With ``--trace 0`` the run reports the
end-to-end metrics listed in BENCHMARK.json; with ``--trace 1`` it wraps
the program's layer entry points from outside (see ``tracing.py``) and
reports the per-layer metrics.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is non-zero when an output disagrees with its known
answer or a traced work counter does not repeat exactly.  A run record
(Python version, kernel backend, nproc, seed, commit, source digest)
is printed and written with the full results to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from tracing import Tracer, exact_counts, layer_metrics
from workloads import WORKLOADS, run_child

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_CODE = (
    "import moricensus\n"
    "from moricensus.audit import default_claims_text\n"
    "from moricensus.declared import default_declared_text\n"
    "moricensus.load_declared(default_declared_text())\n"
    "moricensus.parse_claims(default_claims_text())\n"
)
SETUP_SPAWNS = 16
IMPORT_SPAWNS = 5
TAIL_LEVELS = (99.9, 99, 95, 90, 75, 50)
REF_LOOPS = 40_000  # about 30 ms of reference work
BARE_INTERPRETER = [sys.executable, "-S", "-c", "pass"]
REF_EVERY_S = 0.25


def program_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def spawn_times(code, count):
    """Wall times of ``count`` fresh interpreters running ``code``."""
    times = []
    for _ in range(count):
        start = time.perf_counter()
        returncode, _, err = run_child([sys.executable, "-c", code], program_env(), ROOT)
        times.append(time.perf_counter() - start)
        if returncode != 0:
            raise RuntimeError(f"set-up interpreter exited {returncode}: {err[-500:]!r}")
    return times


def tail(latencies):
    """Highest of TAIL_LEVELS with at least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    for level in TAIL_LEVELS:
        index = max(-(-level * n // 100) - 1, 0)  # nearest rank
        if n - 1 - index >= 10:
            return level, ordered[int(index)]
    return None, ordered[-1]


def run_ops(ops, run):
    """Run each of ``ops``; returns (latencies, outcomes, problems)."""
    latencies = []
    outcomes, problems = Counter(), Counter()
    for op in ops:
        elapsed, status, detail = run(op)
        latencies.append(elapsed)
        outcomes[status] += 1
        if status != "ok":
            problems[f"{status}: {detail}"] += 1
    return latencies, outcomes, problems


def timed_ops(workload, seconds):
    """The workload's operations until ``seconds`` have passed and a cycle ends."""
    deadline = time.perf_counter() + seconds
    for count, op in enumerate(workload.stream()):
        if count % workload.cycle == 0 and time.perf_counter() >= deadline:
            return
        yield op


def reference_work():
    """Fixed pure-Python work: tuples, dict updates and small sorts."""
    counts = {}
    total = 0
    for i in range(REF_LOOPS):
        key = (i % 13, i % 7, -(i % 5))
        counts[key] = counts.get(key, 0) + 1
        total += len(sorted(key))
    return total


def time_reference(workload):
    """Time of the workload's reference work.

    ``cli-audit`` spawns a bare interpreter, whose start-up tracks the
    cost of its CLI subprocesses far better than pure-Python work does;
    the in-process workloads run ``reference_work``.
    """
    start = time.perf_counter()
    if workload.name == "cli-audit":
        run_child(BARE_INTERPRETER, program_env(), ROOT)
    else:
        reference_work()
    return time.perf_counter() - start


def run_scaled(workload, ops):
    """Run each of ``ops``, timing the workload's reference work between them.

    The shared host's speed drifts by up to a fifth within a minute, and
    the drift slows the program and the reference work alike.  The
    reference runs before the first operation and again after every
    REF_EVERY_S of operation time; each operation's time is also given
    in units of the mean of the two reference times around it, which
    cancels the drift.  Returns (latencies, scaled latencies, reference
    times, outcomes, problems).
    """
    latencies, scaled = [], []
    outcomes, problems = Counter(), Counter()
    refs = [time_reference(workload)]
    window, busy = [], 0.0

    def close_window():
        refs.append(time_reference(workload))
        unit = (refs[-2] + refs[-1]) / 2
        scaled.extend(t / unit for t in window)
        window.clear()

    for op in ops:
        elapsed, status, detail = workload.run(op)
        latencies.append(elapsed)
        outcomes[status] += 1
        if status != "ok":
            problems[f"{status}: {detail}"] += 1
        window.append(elapsed)
        busy += elapsed
        if busy >= REF_EVERY_S:
            close_window()
            busy = 0.0
    if window:
        close_window()
    return latencies, scaled, refs, outcomes, problems


def measure_end_to_end(workload, seconds):
    # Half the set-up interpreters run before the timed loop and half
    # after it, so their median spans the run's drift in machine speed.
    setup = spawn_times(SETUP_CODE, SETUP_SPAWNS // 2 + 1)[1:]  # first warms caches
    workload.run(next(workload.stream()))  # warm-up, not counted
    time_reference(workload)
    latencies, scaled, refs, outcomes, problems = run_scaled(
        workload, timed_ops(workload, seconds))
    setup += spawn_times(SETUP_CODE, SETUP_SPAWNS - len(setup))
    who = resource.RUSAGE_CHILDREN if workload.name == "cli-audit" \
        else resource.RUSAGE_SELF
    level, tail_value = tail(latencies)
    ref_ms = 1e3 * statistics.median(refs)
    metrics = {
        "setup_s": statistics.median(setup),
        "op_p50_ref": statistics.median(scaled),
        "ops_per_ref": len(scaled) / sum(scaled),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    shown_tail = f"p{level}" if level else "maximum"
    notes = {
        "op_p50_ref": f"median of {len(scaled)} samples; unscaled median "
                      f"{1e3 * statistics.median(latencies):.4g} ms, {shown_tail} "
                      f"{1e3 * tail_value:.4g} ms; reference work median "
                      f"{ref_ms:.4g} ms over {len(refs)} timings",
        "setup_s": f"median of {SETUP_SPAWNS} fresh interpreters",
        "ops_per_ref": f"{len(latencies)} ops in {sum(latencies):.3f} s in the program, "
                       f"{len(latencies) / sum(latencies):.4g} ops/s unscaled",
    }
    details = {"latencies_s": latencies, "scaled": scaled, "reference_s": refs,
               "setup_s": setup, "tail_level": level}
    return metrics, notes, outcomes, problems, details


def workers_ratio():
    """closure(..., workers=2) over workers=1 on the 347 regular triples."""
    from moricensus import closure as closure_fn, encode_triple, regular_models
    from moricensus.closure import MOVE_SETS

    seeds = [encode_triple(m.triple) for m in regular_models()]
    moves = MOVE_SETS["triple_group"]
    times = {1: [], 2: []}
    counts = {}
    for _ in range(2):
        for workers in (1, 2):
            start = time.perf_counter()
            counts[workers] = [closure_fn(g, moves, workers=workers).class_count
                               for g in seeds]
            times[workers].append(time.perf_counter() - start)
    ratio = statistics.median(times[2]) / statistics.median(times[1])
    return ratio, counts[1] == counts[2]


def measure_layers(workload, seconds):
    ops = list(itertools.islice(workload.stream(), workload.cycle))
    in_process = getattr(workload, "run_in_process", workload.run)
    tracer = Tracer()

    def traced(op):
        tracer.tag = op.tag
        return in_process(op)

    outcomes, problems = Counter(), Counter()
    passes = []
    spans = None
    deadline = time.perf_counter() + seconds / 2
    while len(passes) < 2 or time.perf_counter() < deadline:
        # Alternate which pass runs first, so a drift in machine speed
        # does not bias the overhead ratio.
        if len(passes) % 2:
            plain_times, plain_outcomes, plain_problems = run_ops(ops, in_process)
        tracer.reset()
        tracer.install()
        try:
            traced_times, traced_outcomes, traced_problems = run_ops(ops, traced)
        finally:
            tracer.uninstall()
        if not len(passes) % 2:
            plain_times, plain_outcomes, plain_problems = run_ops(ops, in_process)
        outcomes += plain_outcomes + traced_outcomes
        problems += plain_problems + traced_problems
        passes.append((sum(plain_times), sum(traced_times),
                       layer_metrics(tracer.spans, tracer.counts, len(ops)),
                       exact_counts(tracer.spans, tracer.counts)))
        spans = spans or tracer.spans

    metrics = {
        name: statistics.median(p[2][name] for p in passes) for name in passes[0][2]
    }
    metrics["trace.overhead_ratio"] = statistics.median(p[1] / p[0] for p in passes)
    metrics["cli.import_s"] = statistics.median(
        spawn_times("import moricensus.cli", IMPORT_SPAWNS))
    metrics["cli.spawn_s"] = 0.0
    if workload.name == "cli-audit":
        sub, sub_outcomes, sub_problems = run_ops(ops, workload.run)
        outcomes += sub_outcomes
        problems += sub_problems
        in_process_mean = statistics.median(p[0] for p in passes) / len(ops)
        metrics["cli.spawn_s"] = (sum(sub) / len(ops) - metrics["cli.import_s"]
                                  - in_process_mean)
    metrics["closure.workers2_over_workers1"], same = workers_ratio()
    if not same:
        problems["fault: closure class counts differ between workers=1 and 2"] += 1
    counts = passes[0][3]
    repeat = all(p[3] == counts for p in passes)
    if not repeat:
        problems["fault: traced work counters differ between passes"] += 1
    details = {"passes": len(passes), "ops_per_pass": len(ops), "counts": counts,
               "counts_repeat": repeat, "spans_first_pass": spans}
    return metrics, {}, outcomes, problems, details


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "moricensus").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts and path.suffix != ".so":
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def run_record(args):
    from moricensus.graphs import canonical_backend

    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "backend": canonical_backend(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "commit": commit,
        "source_sha256": source_digest(),
    }


def run_one(args, spec):
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    cls = WORKLOADS[args.workload]
    if args.workload == "cli-audit":
        workload = cls(args.seed, ROOT, program_env(),
                       OUT / "inputs" / f"{args.workload}-seed{args.seed}")
    else:
        workload = cls(args.seed, ROOT)
    import moricensus.cli  # noqa: F401  loads every module before timing

    measure = measure_layers if args.trace else measure_end_to_end
    metrics, notes, outcomes, problems, details = measure(workload, args.seconds)
    record = run_record(args)

    attempted = sum(outcomes.values())
    wrong = outcomes["wrong"]
    failed = outcomes["failed"]
    correct = wrong == 0 and not any(p.startswith("fault") for p in problems)
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")

    print(f"workload {args.workload} (seed {args.seed}, {args.seconds} s, "
          f"trace {args.trace})")
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name} = {metrics[name]:.6g} {unit}{note}")
    print(f"  wrong_results = {wrong} count")
    print(f"  failed_ops_ratio = {failed / attempted:.4f} ratio "
          f"({failed} failed of {attempted} attempted)")
    for problem, count in sorted(problems.items()):
        print(f"  {count} x {problem}")
    print("run record: " + json.dumps(record, sort_keys=True))

    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({
        "record": record, "metrics": metrics, "notes": notes,
        "outcomes": dict(outcomes), "problems": dict(problems), "details": details,
    }))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "moricensus" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no moricensus sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]

    if args.workload == "all":
        status = 0
        for name in names:
            cmd = [sys.executable, __file__, "--workload", name, "--seed",
                   str(args.seed), "--seconds", str(args.seconds), "--trace",
                   str(args.trace)]
            status = max(status, subprocess.run(cmd, cwd=ROOT).returncode)
        return status
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(names)}")

    sys.path.insert(0, str(SRC))
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
