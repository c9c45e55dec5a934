"""An independent isomorphism oracle for the canonical-form kernel.

Canonical-form equality must coincide with isomorphism as decided by a
brute-force permutation search that shares no code with the kernel.
"""

import itertools

from hypothesis import given, settings, strategies as st

from moricensus import _canon_py


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
