#!/usr/bin/env python3
"""Micro-benchmark of the canonical-form kernel.

Three suites:

  rigid      the 3-node triple encodings of the 347 regular models, the
             graphs ``verify`` feeds the kernel; node labels 0, 1, 2 make
             refinement discrete, so there is no ordering search.
  random     random labelled multigraphs; most are discrete at the first
             colouring (label and incident edge labels and mults), so
             neither refinement nor search runs, and refinement splits
             nearly all the rest into singleton cells.
  symmetric  uniform-label circulant graphs; refinement cannot split a
             vertex-transitive graph and no two nodes are twins, so the
             ordering search dominates.

Each case reports the median over its graphs of the best of --repeats
timed calls.  The end-to-end benchmark is ``perfbench/run.py``.

Usage:
    python benchmarks/bench_canonical.py [--random-sizes 6,8,10]
        [--symmetric-sizes 8,9,10] [--graphs 30] [--repeats 5] [--seed 1]
"""

import argparse
import random
import statistics
import time

from moricensus import _canon_py
from moricensus.closure import encode_triple
from moricensus.families import regular_models


def random_multigraph(rng, n):
    labels = [rng.randint(0, 1) for _ in range(n)]
    merged = {}
    # random spanning tree keeps the graph connected
    for v in range(1, n):
        u = rng.randrange(v)
        merged[(u, v, rng.randint(0, 1))] = rng.randint(1, 2)
    for _ in range(n):
        u, v = rng.sample(range(n), 2)
        key = (min(u, v), max(u, v), rng.randint(0, 1))
        merged[key] = merged.get(key, 0) + 1
    edges = sorted((u, v, e, m) for (u, v, e), m in merged.items())
    return n, labels, edges


def rigid_triples():
    graphs = (encode_triple(m.triple) for m in regular_models())
    return [(g.n, g.node_labels, g.edges) for g in graphs]


def circulant(n, dists):
    edges = {}
    for v in range(n):
        for d in dists:
            u, w = sorted((v, (v + d) % n))
            edges[(u, w, 0)] = 1
    return n, [0] * n, sorted((u, v, e, m) for (u, v, e), m in edges.items())


def best_of(func, graph, repeats):
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        func(*graph)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def run_suite(title, cases, repeats):
    print(title)
    print(f"  {'case':<12} {'time':>12}")
    for name, graphs in cases:
        median = statistics.median(
            best_of(_canon_py.canonical_sequence, g, repeats) for g in graphs
        )
        print(f"  {name:<12} {median * 1e6:>10.1f}us")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--random-sizes", default="6,8,10")
    parser.add_argument("--symmetric-sizes", default="8,9,10")
    parser.add_argument("--graphs", type=int, default=30)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    run_suite("rigid triple encodings", [("n=3", rigid_triples())], args.repeats)
    rng = random.Random(args.seed)
    run_suite(
        "random multigraphs",
        [
            (f"n={n}", [random_multigraph(rng, n) for _ in range(args.graphs)])
            for n in (int(s) for s in args.random_sizes.split(","))
        ],
        args.repeats,
    )
    run_suite(
        "uniform circulants",
        [
            (f"C_{n}(1,2)", [circulant(n, (1, 2))])
            for n in (int(s) for s in args.symmetric_sizes.split(","))
        ],
        max(args.repeats // 2, 1),
    )


if __name__ == "__main__":
    main()
