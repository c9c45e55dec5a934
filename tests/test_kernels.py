"""An independent isomorphism oracle for the canonical-form kernel.

Canonical-form equality must coincide with isomorphism as decided by a
brute-force permutation search that shares no code with the kernel.
"""

import functools
import importlib.util
import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from moricensus import _canon_py, graphs, triples
from moricensus.closure import encode_triple
from moricensus.graphs import LabeledGraph, canonical_graph, iso
from moricensus.triples import Triple


graph_data = st.integers(1, 5).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.integers(0, 1), min_size=n, max_size=n),
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.integers(0, 1),
                st.integers(1, 2),
            ),
            max_size=2 * n,
        ),
    )
)


def normalize(n, labels, raw_edges):
    merged = {}
    for (u, v, e, m) in raw_edges:
        if u == v:
            continue
        key = (min(u, v), max(u, v), e)
        merged[key] = merged.get(key, 0) + m
    edges = sorted((u, v, e, m) for (u, v, e), m in merged.items())
    return n, list(labels), edges


def brute_isomorphic(g1, g2):
    n1, l1, e1 = g1
    n2, l2, e2 = g2
    if n1 != n2 or sorted(l1) != sorted(l2) or len(e1) != len(e2):
        return False
    target = {(u, v, e): m for (u, v, e, m) in e2}
    for perm in itertools.permutations(range(n1)):
        if any(l2[perm[v]] != l1[v] for v in range(n1)):
            continue
        image = {}
        for (u, v, e, m) in e1:
            a, b = sorted((perm[u], perm[v]))
            image[(a, b, e)] = m
        if image == target:
            return True
    return False


@settings(max_examples=150)
@given(graph_data, graph_data)
def test_form_equality_iff_brute_isomorphism(d1, d2):
    g1 = normalize(*d1)
    g2 = normalize(*d2)
    forms_equal = _canon_py.canonical_sequence(*g1) == \
        _canon_py.canonical_sequence(*g2)
    assert forms_equal == brute_isomorphic(g1, g2)


@settings(max_examples=150)
@given(graph_data, st.randoms(use_true_random=False))
def test_form_equal_on_relabelled_copies(data, rng):
    n, labels, edges = normalize(*data)
    perm = list(range(n))
    rng.shuffle(perm)
    labels2 = [0] * n
    for old, new in enumerate(perm):
        labels2[new] = labels[old]
    edges2 = sorted(
        (min(perm[u], perm[v]), max(perm[u], perm[v]), e, m)
        for (u, v, e, m) in edges
    )
    assert _canon_py.canonical_sequence(n, labels, edges) == \
        _canon_py.canonical_sequence(n, labels2, edges2)


def test_uniform_graph_canonicalizes_quickly():
    # all-twin cells collapse the ordering search to one branch per depth
    seq = _canon_py.canonical_sequence(12, [0] * 12, [])
    assert seq == (12,) + (0, 0) * 12
    # star K_1,11: refinement splits the centre off, and the 11 leaves are
    # twins inside their own cell; the centre comes last, with an edge back
    # to each leaf position
    star = [(0, leaf, 0, 1) for leaf in range(1, 12)]
    seq = _canon_py.canonical_sequence(12, [0] * 12, star)
    back_edges = tuple(x for j in range(11) for x in (j, 0, 1))
    assert seq == (12,) + (0, 0) * 11 + (0, 11) + back_edges


# ---------------------------------------------------------------------------
# discrete partitions: refinement puts every node in a cell of its own


@pytest.mark.parametrize("t, seq", [
    ((-6, 0, 3), (3, 0, 0, 1, 1, 0, -6, 1, 2, 2, 0, 3, 1, 1, 0, 1)),
    ((0, 0, 0), (3, 0, 0, 1, 1, 0, 0, 1, 2, 2, 0, 0, 1, 1, 0, 1)),
    ((9, -9, 1), (3, 0, 0, 1, 1, 0, 9, 1, 2, 2, 0, 1, 1, 1, -9, 1)),
])
def test_rigid_triple_sequences(t, seq):
    # sequences the ordering search gave before discrete partitions
    # skipped it
    g = encode_triple(Triple(*t))
    n = len(g.node_labels)
    assert _canon_py.canonical_sequence(n, g.node_labels, g.edges) == seq


def test_discrete_random_multigraph_sequence():
    # benchmarks/bench_canonical.py: random_multigraph(random.Random(1), 7)
    n, labels = 7, [0, 0, 1, 0, 1, 1, 1]
    edges = [
        (0, 1, 0, 1), (0, 3, 0, 1), (0, 5, 0, 1), (0, 6, 1, 1), (1, 2, 1, 1),
        (1, 3, 1, 1), (1, 4, 1, 1), (1, 5, 0, 1), (1, 5, 1, 1), (2, 4, 0, 1),
        (2, 5, 0, 1), (3, 6, 1, 2),
    ]
    adj = [[] for _ in range(n)]
    for (u, v, e, m) in edges:
        adj[u].append((v, e, m))
        adj[v].append((u, e, m))
    base = [(labels[v], tuple(sorted((e, m) for (_, e, m) in adj[v])))
            for v in range(n)]
    assert len(set(_canon_py._refine(n, base, adj))) == n
    assert _canon_py.canonical_sequence(n, labels, edges) == (
        7, 0, 0, 0, 1, 0, 0, 1, 0, 2, 0, 0, 1, 1, 1, 1, 1, 3, 0, 0, 1, 1, 0,
        1, 1, 1, 1, 1, 2, 1, 1, 1, 3, 0, 1, 1, 2, 1, 1, 1, 4, 0, 1, 1, 2, 0,
        1, 1, 2, 1, 2,
    )


distinct_label_data = st.integers(1, 5).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.permutations(range(n)),
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.integers(0, 1),
                st.integers(1, 2),
            ),
            max_size=2 * n,
        ),
    )
)


def label_order_sequence(n, labels, edges):
    """Encoding with nodes placed in increasing label order.

    Refinement ranks nodes by keys led by their label and then only
    splits cells, so with distinct labels this is the forced order.
    """
    order = sorted(range(n), key=labels.__getitem__)
    pos = {v: k for k, v in enumerate(order)}
    seq = [n]
    for k, v in enumerate(order):
        back = sorted(
            (pos[w if u == v else u], e, m)
            for (u, w, e, m) in edges
            if v in (u, w) and pos[w if u == v else u] < k
        )
        seq += [labels[v], len(back)]
        for entry in back:
            seq += entry
    return tuple(seq)


@settings(max_examples=150)
@given(distinct_label_data, distinct_label_data, st.randoms(use_true_random=False))
def test_discrete_forms_match_brute_isomorphism(d1, d2, rng):
    g1 = normalize(*d1)
    n, labels, edges = g1
    # a relabelled copy of g1 is isomorphic; d2 usually is not
    perm = list(range(n))
    rng.shuffle(perm)
    labels2 = [0] * n
    for old, new in enumerate(perm):
        labels2[new] = labels[old]
    copy = normalize(n, labels2, [(perm[u], perm[v], e, m) for (u, v, e, m) in edges])
    form1 = _canon_py.canonical_sequence(*g1)
    assert form1 == label_order_sequence(*g1)
    for g2 in (copy, normalize(*d2)):
        form2 = _canon_py.canonical_sequence(*g2)
        assert (form1 == form2) == brute_isomorphic(g1, g2)


# ---------------------------------------------------------------------------
# distinct labels: the first colouring is discrete, in label order


DISTINCT_LABEL_CASES = [
    # (n, labels, edges, the sequence the refining kernel gave)
    (1, [-4], [], (1, -4, 0)),
    (4, [3, -7, 0, -2],
     [(0, 1, 2, 1), (0, 3, -1, 1), (1, 2, 0, 1), (2, 3, 5, 1)],
     (4, -7, 0, -2, 0, 0, 2, 0, 0, 1, 1, 5, 1, 3, 2, 0, 2, 1, 1, -1, 1)),
    # two edges on the pair (0, 1), one of them with multiplicity 2
    (3, [9, 2, 5],
     [(0, 1, 0, 1), (0, 1, 4, 2), (0, 2, 1, 3), (1, 2, -3, 1)],
     (3, 2, 0, 5, 1, 0, -3, 1, 9, 3, 0, 0, 1, 0, 4, 2, 1, 1, 3)),
    (5, [40, 10, 30, 0, 20],
     [(0, 1, 1, 1), (0, 4, 2, 1), (1, 2, 0, 2), (1, 3, 1, 1), (2, 4, 0, 1),
      (3, 4, 3, 1)],
     (5, 0, 0, 10, 1, 0, 1, 1, 20, 1, 0, 3, 1, 30, 2, 1, 0, 2, 2, 0, 1, 40, 2,
      1, 1, 1, 2, 2, 1)),
    (12, [0, 9, -2, 5, -4, 1, -6, -3, -8, -7, -10, -11],
     [(0, 1, 0, 1), (0, 6, 7, 2), (0, 11, 2, 1), (1, 2, 1, 1), (2, 3, 2, 1),
      (3, 4, 0, 1), (3, 9, -1, 1), (4, 5, 1, 1), (5, 6, 2, 1), (6, 7, 0, 1),
      (7, 8, 1, 1), (8, 9, 2, 1), (9, 10, 0, 1), (10, 11, 1, 1)],
     (12, -11, 0, -10, 1, 0, 1, 1, -8, 0, -7, 2, 1, 0, 1, 2, 2, 1, -6, 0, -4,
      0, -3, 2, 2, 1, 1, 4, 0, 1, -2, 0, 0, 2, 0, 2, 1, 4, 7, 2, 1, 2, 4, 2,
      1, 5, 1, 1, 5, 3, 3, -1, 1, 5, 0, 1, 7, 2, 1, 9, 2, 7, 1, 1, 8, 0, 1)),
]


@pytest.mark.parametrize("n, labels, edges, seq", DISTINCT_LABEL_CASES)
def test_distinct_label_sequences(n, labels, edges, seq):
    assert _canon_py.canonical_sequence(n, labels, edges) == seq
    assert _canon_py.canonical_sequence(n, tuple(labels), tuple(edges)) == seq


# ---------------------------------------------------------------------------
# increasing labels: distinct, so the order is forced, and it is the
# identity


increasing_label_data = st.integers(1, 6).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.integers(-3, 3), min_size=n, max_size=n, unique=True)
        .map(sorted),
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.integers(-1, 1),
                st.integers(1, 2),
            ),
            max_size=2 * n,
        ),
    )
)


@settings(max_examples=150)
@given(increasing_label_data, st.randoms(use_true_random=False))
def test_increasing_labels_give_the_identity_order(data, rng):
    n, labels, edges = normalize(*data)
    # increasing labels: the label order is the identity
    expected = label_order_sequence(n, labels, edges)
    assert _canon_py.canonical_sequence(n, labels, edges) == expected
    # the kernel's contract does not promise sorted edges
    shuffled = list(edges)
    rng.shuffle(shuffled)
    assert _canon_py.canonical_sequence(n, labels, shuffled) == expected


# ---------------------------------------------------------------------------
# one graph for each way the partition ends: discrete at the first
# colouring or after refinement, twin cells, or a search over whole
# orderings; sequences from the kernel before the first colouring was
# tested for discreteness


def _load_bench_canonical():
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_canonical.py"
    spec = importlib.util.spec_from_file_location("_bench_canonical", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_canonical = _load_bench_canonical()

# node labels 0, 1, 2 on a rigid triple encoding: discrete at the first
# colouring, in the identity order
RIGID = (3, [0, 1, 2], [(0, 1, -6, 1), (0, 2, 3, 1), (1, 2, 0, 1)])
# the same encoding relabelled: distinct labels out of order
RELABELLED_RIGID = (3, [2, 0, 1], [(0, 1, 3, 1), (0, 2, 0, 1), (1, 2, -6, 1)])
RIGID_SEQUENCE = (3, 0, 0, 1, 1, 0, -6, 1, 2, 2, 0, 3, 1, 1, 0, 1)
# repeated labels, but no two nodes share their (edge label, mult) pairs
FIRST_COLOURING = (
    5, [1, 0, 1, 0, 0],
    [(0, 1, 0, 1), (0, 2, 1, 2), (1, 3, 0, 1), (2, 4, 1, 1), (3, 4, 0, 2)],
)
# the path 0-1-2-3: nodes 1 and 2 tie until their neighbours' colours
# split them
REFINED = (4, [0, 0, 0, 1], [(0, 1, 0, 1), (1, 2, 0, 1), (2, 3, 0, 1)])
# the star K_1,3: the three leaves are twins in one cell
TWIN_CELLS = (4, [0] * 4, [(0, 1, 0, 1), (0, 2, 0, 1), (0, 3, 0, 1)])
# vertex-transitive with no twins: the search ranks whole orderings
SEARCH = bench_canonical.circulant(8, (1, 2))

EXIT_CASES = [
    (RIGID, RIGID_SEQUENCE),
    (RELABELLED_RIGID, RIGID_SEQUENCE),
    (FIRST_COLOURING,
     (5, 0, 0, 0, 1, 0, 0, 1, 0, 1, 1, 0, 2, 1, 1, 0, 0, 1, 1, 2, 2, 1, 1,
      3, 1, 2)),
    (REFINED, (4, 0, 0, 0, 1, 0, 0, 1, 0, 1, 1, 0, 1, 1, 1, 2, 0, 1)),
    (TWIN_CELLS, (4, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 1, 1, 0, 1, 2, 0, 1)),
    (SEARCH,
     (8, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 1, 1, 0, 1, 0, 3, 0, 0, 1, 1, 0, 1, 2,
      0, 1, 0, 3, 0, 0, 1, 1, 0, 1, 3, 0, 1, 0, 4, 0, 0, 1, 2, 0, 1, 3, 0, 1,
      5, 0, 1, 0, 4, 1, 0, 1, 2, 0, 1, 3, 0, 1, 4, 0, 1)),
]


@pytest.mark.parametrize("graph, seq", EXIT_CASES)
def test_exit_sequences(graph, seq):
    assert _canon_py.canonical_sequence(*graph) == seq


@settings(max_examples=100, deadline=None)
@given(st.integers(6, 10), st.randoms(use_true_random=False))
def test_random_multigraph_forms_survive_relabelling(n, rng):
    graph = bench_canonical.random_multigraph(rng, n)
    copy = normalize(*bench_canonical.relabelled(rng, *graph))
    assert _canon_py.canonical_sequence(*graph) == \
        _canon_py.canonical_sequence(*copy)


# ---------------------------------------------------------------------------
# iso: the multiset check, node keys, then canonical forms


def rewired(n, labels, edges, rng):
    """The node labels and ``(edge label, mult)`` pairs of the graph, each
    edge label's edges moved to random node pairs: equal multisets, and
    often not isomorphic."""
    pairs = list(itertools.combinations(range(n), 2))
    moved = []
    for label in {e for (_, _, e, _) in edges}:
        mults = [m for (_, _, e, m) in edges if e == label]
        moved += [(u, v, label, m)
                  for (u, v), m in zip(rng.sample(pairs, len(mults)), mults)]
    return n, labels, sorted(moved)


def node_key(v, labels, edges):
    """Node v's label, degree and sums of e, m and e * m over its edges."""
    incident = [(e, m) for (a, b, e, m) in edges if v in (a, b)]
    return (labels[v], len(incident), sum(e for e, _ in incident),
            sum(m for _, m in incident), sum(e * m for e, m in incident))


def iso_route(g1, g2):
    """Which of iso's checks decides the pair, by their definitions."""
    (n, l1, e1), (n2, l2, e2) = g1, g2
    if (n != n2 or sorted(l1) != sorted(l2)
            or sorted((e, m) for *_, e, m in e1)
            != sorted((e, m) for *_, e, m in e2)):
        return "multisets differ"
    keys = sorted(node_key(v, l1, e1) for v in range(n))
    if keys != sorted(node_key(v, l2, e2) for v in range(n)):
        return "keys differ"
    return "keys distinct" if len(set(keys)) == n else "keys tie"


# equal multisets, node keys differ: the path P_4 and the star K_1,3
PATH = (4, [0] * 4, [(0, 1, 0, 1), (1, 2, 0, 1), (2, 3, 0, 1)])
STAR = (4, [0] * 4, [(0, 1, 0, 1), (0, 2, 0, 1), (0, 3, 0, 1)])
# node keys tie: C_6 and two triangles
HEXAGON = (6, [0] * 6, [(k, (k + 1) % 6, 0, 1) for k in range(6)])
TRIANGLES = (6, [0] * 6, [(0, 1, 0, 1), (1, 2, 0, 1), (0, 2, 0, 1),
                          (3, 4, 0, 1), (4, 5, 0, 1), (3, 5, 0, 1)])
# distinct node keys force the identity map, which keeps every (u, v, e)
# but not every mult, so the two are not isomorphic
SQUARE = (4, [0, 1, 2, 3], [(0, 1, 0, 1), (1, 2, 0, 2), (2, 3, 0, 1),
                            (0, 3, 0, 2)])
SWAPPED_MULTS = (4, [0, 1, 2, 3], [(0, 1, 0, 2), (1, 2, 0, 1), (2, 3, 0, 2),
                                   (0, 3, 0, 1)])
ISO_EXAMPLES = [(PATH, STAR), (HEXAGON, TRIANGLES), (SQUARE, SWAPPED_MULTS)]


def iso_routes(d1, d2, rng):
    """The routes ``iso`` takes from ``d1`` to its relabelling, a rewiring,
    ``d2`` and, with edges, a mutant, each pair checked against brute
    force, and canonical forms computed only for tied node keys."""
    forms = []
    routes = set()
    g1 = normalize(*d1)
    others = [normalize(*bench_canonical.relabelled(rng, *g1)),
              rewired(*g1, rng), normalize(*d2)]
    if g1[2]:
        others.append(bench_canonical.mutant(rng, *g1))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graphs, "canonical_graph",
                      lambda g: forms.append(g) or canonical_graph(g))
        for g2 in others:
            forms.clear()
            route = iso_route(g1, g2)
            routes.add(route)
            assert iso(LabeledGraph.build(*g1[1:]),
                       LabeledGraph.build(*g2[1:])) \
                == brute_isomorphic(g1, g2)
            assert len(forms) == (2 if route == "keys tie" else 0), route
    return routes


def test_iso_matches_brute_isomorphism():
    # each pair with equal multisets takes one of three routes, and only
    # tied node keys compute canonical forms; every route is taken
    routes = set()
    for d1, d2 in ISO_EXAMPLES:
        routes |= iso_routes(d1, d2, random.Random(0))
    assert routes == {"multisets differ", "keys differ", "keys distinct",
                      "keys tie"}


@settings(max_examples=150)
@given(graph_data, graph_data, st.randoms(use_true_random=False))
def test_generated_pairs_match_brute_isomorphism(d1, d2, rng):
    iso_routes(d1, d2, rng)


# ---------------------------------------------------------------------------
# the group action, derived from graph isomorphism
#
# (a, b, c) sits on the oriented edges 0 -> 1, 1 -> 2 and 2 -> 0 of a
# triangle.  The three corners share one label; the middle node 3 + k of
# edge k is labelled 1 + |x| for the edge's value x, and its two
# half-edges are labelled tail and head along the edge for x > 0, against
# it for x < 0, and flat for x = 0.  An isomorphism then permutes the
# corners and carries each middle node with its edge, so it is D3 acting
# on values on the oriented edges: a rotation shifts the triple and a
# reflection reverses, and so negates, the values it carries.  No group
# table is written out, so the law shares no arithmetic with the census's.

FLAT, TAIL, HEAD = 0, 1, 2
TRIANGLE = ((0, 1), (1, 2), (2, 0))


def triangle_graph(a, b, c):
    labels, edges = [0, 0, 0], []
    for k, ((u, v), x) in enumerate(zip(TRIANGLE, (a, b, c))):
        labels.append(1 + abs(x))
        if x < 0:
            u, v = v, u
        at_u, at_v = (TAIL, HEAD) if x else (FLAT, FLAT)
        edges += [(u, 3 + k, at_u), (3 + k, v, at_v)]
    return LabeledGraph.build(labels, edges)


# each of the six corner permutations as a map of all six nodes, each
# middle node going where its edge goes
CORNER_RELABELLINGS = [
    (*p, *(3 + next(k for k, edge in enumerate(TRIANGLE) if {p[u], p[v]} == set(edge))
           for u, v in TRIANGLE))
    for p in itertools.permutations(range(3))
]


def automorphisms(g):
    """How many corner relabellings map ``g`` onto itself."""
    labels, edges = g.node_labels, set(g.edges)
    return sum(
        all(labels[m[i]] == labels[i] for i in range(6))
        and {(min(m[u], m[v]), max(m[u], m[v]), e, k)
             for u, v, e, k in edges} == edges
        for m in CORNER_RELABELLINGS)


@functools.cache
def triangle_forms():
    """Each triple of [-9, 9]^3 with its graph's form and automorphism
    count."""
    out = []
    for t in itertools.product(range(-9, 10), repeat=3):
        g = triangle_graph(*t)
        out.append((t, canonical_graph(g), automorphisms(g)))
    return out


def triangle_law_breaks():
    """The triples of [-9, 9]^3 whose graph's form class is not their
    orbit under ``triples._images``, or whose orbit length is not 6/|Aut|."""
    classes = {}
    for t, form, _ in triangle_forms():
        classes.setdefault(form, set()).add(t)
    breaks = []
    for t, form, aut in triangle_forms():
        orbit = set(triples._images(*t))
        if classes[form] != orbit or aut * len(orbit) != 6:
            breaks.append(t)
    return breaks


def test_triangle_forms_are_the_group_orbits():
    assert triangle_law_breaks() == []
    assert len({form for _, form, _ in triangle_forms()}) == 1159


def test_triangle_law_fails_an_unsigned_table(monkeypatch):
    # S3 permuting the components without their signs is a consistent
    # action, so orbit-stabilizer cannot catch it; the graphs' reflections
    # negate the values they reverse, so the law does
    monkeypatch.setattr(triples, "_images", lambda a, b, c: (
        (a, b, c), (b, c, a), (c, a, b), (b, a, c), (c, b, a), (a, c, b)))
    assert (1, 2, 3) in triangle_law_breaks()
