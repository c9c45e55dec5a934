#!/usr/bin/env python3
"""Micro-benchmark of the canonical-form kernel and of ``iso``.

Two kernel suites, on the graphs the kernel meets today (no CLI
subcommand makes a kernel call; ``iso`` and ``canonical_graph`` callers
do), and one suite of ``iso`` pairs:

  random     random labelled multigraphs; refinement splits nearly all
             of them into singleton cells, so the search takes one
             branch per depth.
  symmetric  uniform-label circulant graphs; refinement cannot split a
             vertex-transitive graph and no two nodes are twins, so the
             ordering search dominates.
  iso pairs  ``graphs.iso`` on pairs of random multigraphs and of
             relabelled C_8(1,2): a mutant with one edge multiplicity
             raised, which the multiset check rejects before any
             canonical form, and a relabelled copy, which passes it and
             then the node-key check.  Relabelled random pairs are
             reported by route: when the node keys (label, degree and
             sums over incident edges) are pairwise distinct, the one
             map they force decides the pair with no canonical form;
             when two keys tie, as on every circulant, both canonical
             forms are computed.  The route is read off ``graphs``
             itself: whether ``iso`` calls ``canonical_graph``.

Each case reports how many graphs (or pairs) it has and the median over
them of the best of --repeats timed calls.  The end-to-end benchmark is
``perfbench/run.py``.

Usage:
    python benchmarks/bench_canonical.py [--random-sizes 6,8,10]
        [--symmetric-sizes 8,9,10] [--graphs 30] [--repeats 5] [--seed 1]
"""

import argparse
import random
import statistics
import time

from moricensus import _canon_py, graphs


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


def circulant(n, dists):
    edges = {}
    for v in range(n):
        for d in dists:
            u, w = sorted((v, (v + d) % n))
            edges[(u, w, 0)] = 1
    return n, [0] * n, sorted((u, v, e, m) for (u, v, e), m in edges.items())


def relabelled(rng, n, labels, edges):
    perm = rng.sample(range(n), n)
    moved = [0] * n
    for v in range(n):
        moved[perm[v]] = labels[v]
    return n, moved, [(perm[u], perm[v], e, m) for u, v, e, m in edges]


def mutant(rng, n, labels, edges):
    k = rng.randrange(len(edges))
    u, v, e, m = edges[k]
    return n, labels, edges[:k] + [(u, v, e, m + 1)] + edges[k + 1:]


def iso_pairs(rng, inputs, make_other):
    """``(g, other)`` LabeledGraph pairs, ``other`` made from each graph."""
    build = graphs.LabeledGraph.build
    return [
        (build(labels, edges), build(*make_other(rng, n, labels, edges)[1:]))
        for n, labels, edges in inputs
    ]


def best_of(func, graph, repeats):
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        func(*graph)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def keys_tie(pair):
    """Whether ``iso`` leaves the pair to canonical forms."""
    form = graphs.canonical_graph
    calls = []
    graphs.canonical_graph = lambda g: calls.append(g) or form(g)
    try:
        graphs.iso(*pair)
    finally:
        graphs.canonical_graph = form
    return bool(calls)


def run_suite(title, func, cases, repeats):
    print(title)
    print(f"  {'case':<24} {'count':>6} {'time':>12}")
    for name, inputs in cases:
        if inputs:
            median = statistics.median(best_of(func, x, repeats) for x in inputs)
            time_text = f"{median * 1e6:>10.1f}us"
        else:
            time_text = f"{'-':>12}"
        print(f"  {name:<24} {len(inputs):>6} {time_text}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--random-sizes", default="6,8,10")
    parser.add_argument("--symmetric-sizes", default="8,9,10")
    parser.add_argument("--graphs", type=int, default=30)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    random_sizes = [int(s) for s in args.random_sizes.split(",")]
    run_suite(
        "random multigraphs",
        _canon_py.canonical_sequence,
        [
            (f"n={n}", [random_multigraph(rng, n) for _ in range(args.graphs)])
            for n in random_sizes
        ],
        args.repeats,
    )
    run_suite(
        "uniform circulants",
        _canon_py.canonical_sequence,
        [
            (f"C_{n}(1,2)", [circulant(n, (1, 2))])
            for n in (int(s) for s in args.symmetric_sizes.split(","))
        ],
        max(args.repeats // 2, 1),
    )
    randoms = [random_multigraph(rng, n)
               for n in random_sizes for _ in range(args.graphs)]
    # a relabelled C_8(1,2) pair runs two ordering searches (about 15ms
    # on 2 cores, CPython 3.11.7), so the suite takes fewer of them
    circulants = [relabelled(rng, *circulant(8, (1, 2)))
                  for _ in range(max(args.graphs // 6, 1))]
    random_copies = iso_pairs(rng, randoms, relabelled)
    run_suite(
        "iso pairs",
        graphs.iso,
        [
            ("random, keys distinct",
             [p for p in random_copies if not keys_tie(p)]),
            ("random, keys tie", [p for p in random_copies if keys_tie(p)]),
            ("random mutant", iso_pairs(rng, randoms, mutant)),
            ("C_8(1,2) relabelled", iso_pairs(rng, circulants, relabelled)),
            ("C_8(1,2) mutant", iso_pairs(rng, circulants, mutant)),
        ],
        max(args.repeats // 2, 1),
    )


if __name__ == "__main__":
    main()
