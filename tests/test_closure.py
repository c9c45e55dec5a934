import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from moricensus.closure import (
    MOVE_SETS,
    _triple_state,
    closure,
    encode_triple,
)
from moricensus.errors import ConfigError
from moricensus.graphs import (
    LabeledGraph,
    canonical_graph,
    iso,
    parse_graph_file,
)
from moricensus.triples import COMPONENT_BOUND, Triple, _images, orbit


# ---------------------------------------------------------------------------
# canonical forms and isomorphism


def test_single_node_form_ignores_identity_of_index():
    g1 = LabeledGraph.build([5])
    g2 = LabeledGraph.build([5])
    assert canonical_graph(g1) == canonical_graph(g2)


def relabel(g, perm):
    labels = [0] * len(g.node_labels)
    for old, new in enumerate(perm):
        labels[new] = g.node_labels[old]
    edges = [
        (perm[u], perm[v], label, mult) for (u, v, label, mult) in g.edges
    ]
    return LabeledGraph.build(labels, edges)


def three_cycle(labels):
    return LabeledGraph.build(labels, [(0, 1, 0), (1, 2, 0), (2, 0, 0)])


def test_three_cycle_invariant_under_relabeling():
    g = three_cycle([1, 2, 3])
    for perm in itertools.permutations(range(3)):
        assert iso(g, relabel(g, list(perm)))


def test_three_cycles_with_different_label_multisets_differ():
    assert not iso(three_cycle([1, 2, 3]), three_cycle([1, 2, 4]))


def test_empty_vs_one_node():
    assert not iso(LabeledGraph.build([]), LabeledGraph.build([0]))


def test_multiplicity_distinguishes_graphs():
    g1 = LabeledGraph.build([0, 0], [(0, 1, 7, 1)])
    g2 = LabeledGraph.build([0, 0], [(0, 1, 7, 2)])
    assert not iso(g1, g2)


def test_parallel_edges_merge_multiplicity():
    g = LabeledGraph.build([0, 0], [(0, 1, 7), (1, 0, 7)])
    assert g.edges == ((0, 1, 7, 2),)


def test_size_limit():
    canonical_graph(LabeledGraph.build([0] * 12))
    with pytest.raises(ConfigError) as exc_info:
        canonical_graph(LabeledGraph.build([0] * 13))
    assert str(exc_info.value) == \
        "graph has 13 nodes, above the canonicalizer bound 12"


def test_iso_size_limit_in_either_position():
    # the pair with two nodes differs from the big graph in node count and
    # both multisets, so the bound must hold before that check decides
    big = LabeledGraph.build([0] * 13)
    for other in (big, LabeledGraph.build([1, 1], [(0, 1, 5)])):
        for pair in ((big, other), (other, big)):
            with pytest.raises(ConfigError, match="graph has 13 nodes"):
                iso(*pair)


graphs = st.integers(1, 6).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(0, 2), min_size=n, max_size=n),
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.integers(0, 2),
                st.integers(1, 2),
            ),
            max_size=2 * n,
        ),
    )
)


def build_graph(data):
    labels, raw_edges = data
    edges = [(u, v, e, m) for (u, v, e, m) in raw_edges if u != v]
    return LabeledGraph.build(labels, edges)


@settings(max_examples=150)
@given(graphs, st.randoms(use_true_random=False))
def test_canonical_form_permutation_invariant(data, rng):
    g = build_graph(data)
    perm = list(range(len(g.node_labels)))
    rng.shuffle(perm)
    assert canonical_graph(g) == canonical_graph(relabel(g, perm))


@settings(max_examples=200)
@given(graphs)
def test_canonical_form_injective_on_reconstruction(data):
    # the form encodes labels and edges positionally, so two graphs with
    # equal forms decode to the same structure
    g = build_graph(data)
    seq = canonical_graph(g)
    assert all(type(x) is int for x in seq)
    assert seq[0] == len(g.node_labels)
    idx = 1
    degree_total = 0
    for _ in range(len(g.node_labels)):
        idx += 1  # label
        entries = seq[idx]
        idx += 1 + 3 * entries
        degree_total += entries
    assert idx == len(seq)
    assert degree_total == len(g.edges)


NOT_INT_GRAPHS = [
    lambda: LabeledGraph((0, 1, 2), ((0, 1, True, 1), (0, 2, 3, 1), (1, 2, 0, 1))),
    lambda: LabeledGraph((0, True, 2), ()),
    lambda: LabeledGraph((0, 2.0), ()),
    lambda: LabeledGraph((0, 1), ((0, 1, 5.0, 1),)),
    lambda: LabeledGraph((0, 1), ((0, 1, 5, True),)),
    lambda: LabeledGraph((0, 1), ((0, 1, 5, 2.0),)),
    lambda: LabeledGraph.build([0, 2.7]),
    lambda: LabeledGraph((0, 1), ((False, True, 5, 1),)),
    lambda: LabeledGraph((0, 1), ((0, 1.0, 5, 1),)),
    lambda: LabeledGraph.build((0, 1), [(False, True, 5)]),
    lambda: LabeledGraph.build((0, 1), [(0, 1, 5), (False, True, 5)]),
    lambda: LabeledGraph.build((0, 1), [(0.0, 1, 5)]),
]


@pytest.mark.parametrize("make", NOT_INT_GRAPHS, ids=[
    "bool_edge_label", "bool_node_label", "float_node_label",
    "float_edge_label", "bool_mult", "float_mult", "build_float_node_label",
    "bool_endpoints", "float_endpoint", "build_bool_endpoints",
    "build_bool_endpoints_after_int_twin", "build_float_endpoint"])
def test_graph_rejects_labels_and_mults_that_are_not_ints(make):
    with pytest.raises(ConfigError, match="must be an int"):
        make()


MALFORMED_EDGES = [
    (lambda: LabeledGraph((0, 1), ((1, 0, 5, 1),)),
     r"bad edge endpoints \(1, 0, 5, 1\) for 2 nodes"),
    (lambda: LabeledGraph((0, 1), ((0, 2, 5, 1),)),
     r"bad edge endpoints \(0, 2, 5, 1\) for 2 nodes"),
    (lambda: LabeledGraph((0, 1), ((0, 1, 5, 0),)),
     r"edge multiplicity must be >= 1: \(0, 1, 5, 0\)"),
    (lambda: LabeledGraph((0, 1, 2), ((0, 2, 5, 1), (0, 1, 5, 1))),
     "edges must be sorted with unique"),
    (lambda: LabeledGraph((0, 1), ((0, 1, 5, 1), (0, 1, 5, 2))),
     "edges must be sorted with unique"),
    (lambda: LabeledGraph.build((0, 1), [(0, 1)]),
     r"edge must have 3 or 4 fields: \(0, 1\)"),
    (lambda: LabeledGraph.build((0, 1), [(0, 1, 5, 1, 9)]),
     "edge must have 3 or 4 fields"),
    (lambda: LabeledGraph.build((0, 1), [(1, 1, 5)]),
     "self-loop on node 1 not supported"),
    (lambda: LabeledGraph.build((0, 1), [(0, 2, 5)]),
     r"edge endpoint out of range: \(0, 2, 5\)"),
    (lambda: LabeledGraph.build((0, 1), [(-1, 1, 5)]),
     "edge endpoint out of range"),
    (lambda: LabeledGraph.build((0, 1), [(0, 1, 5, 0)]),
     r"edge multiplicity must be >= 1: \(0, 1, 5, 0\)"),
]


@pytest.mark.parametrize("make, message", MALFORMED_EDGES, ids=[
    "reversed_endpoints", "endpoint_past_n", "zero_mult", "unsorted",
    "duplicate_key", "build_two_fields", "build_five_fields",
    "build_self_loop", "build_endpoint_past_n", "build_negative_endpoint",
    "build_zero_mult"])
def test_graph_rejects_malformed_edges(make, message):
    with pytest.raises(ConfigError, match=message):
        make()


# ---------------------------------------------------------------------------
# triple encodings


def test_encode_decode_roundtrip():
    # the move set's boundary decodes the encoding to the triple's state
    for t in (Triple(-6, 0, 3), Triple(0, 0, 0), Triple(9, -3, 3)):
        assert _triple_state(encode_triple(t)) == (t.a, t.b, t.c)


def test_encoding_takes_any_triple():
    # the census's plain tuples and checked Triples encode alike
    for t in ((-6, 0, 3), (0, 0, 0), (9, -3, 3)):
        assert encode_triple(t) == encode_triple(Triple(*t))


def relisted(g, order):
    """``g`` with node k listed at position ``order[k]``: the same class."""
    labels = [None] * len(order)
    for k, label in enumerate(g.node_labels):
        labels[order[k]] = label
    return LabeledGraph.build(
        labels, [(order[u], order[v], x, m) for u, v, x, m in g.edges])


@pytest.mark.parametrize("order", itertools.permutations(range(3)))
def test_decode_reads_nodes_by_label_in_any_order(order):
    # node ids in a graph file are arbitrary, so the encoding's nodes may
    # be listed in any order; node k is the node labelled k
    seed = relisted(encode_triple((-6, 0, 3)), order)
    assert _triple_state(seed) == (-6, 0, 3)
    assert closure(seed, MOVE_SETS["triple_group"]).class_count == 6


def test_rigid_encoding_separates_distinct_triples():
    assert not iso(encode_triple(Triple(1, 2, 3)), encode_triple(Triple(3, 2, 1)))


def test_rigid_encoding_is_injective():
    # the closure counts the triple group's states as classes, which is
    # right only if distinct triples encode to non-isomorphic graphs
    corners = itertools.product((-COMPONENT_BOUND, COMPONENT_BOUND), repeat=3)
    box = itertools.product(range(-9, 10), repeat=3)
    states = list(itertools.chain(box, corners))
    forms = {canonical_graph(encode_triple(Triple(*state))) for state in states}
    assert len(forms) == len(states) == 19**3 + 8


def test_decode_rejects_non_encodings():
    with pytest.raises(ConfigError):
        _triple_state(LabeledGraph.build([0, 1], [(0, 1, 3)]))
    with pytest.raises(ConfigError):
        _triple_state(LabeledGraph.build([0, 1, 2], [(0, 1, 3)]))
    with pytest.raises(ConfigError):
        # a second edge on one node pair, beside one edge on each other pair
        _triple_state(LabeledGraph.build(
            [0, 1, 2], [(0, 1, 5), (0, 1, 7), (1, 2, 0), (2, 0, 3)]
        ))


# ---------------------------------------------------------------------------
# closure


OFF_ENCODING_SEEDS = [
    LabeledGraph.build([0, 1, 2], [(0, 1, 1_000_001), (1, 2, 0), (2, 0, 3)]),
    LabeledGraph.build([0, 1, 2], [(0, 1, 5, 2), (1, 2, 0), (2, 0, 3)]),
    LabeledGraph.build([0, 1, 2], [(0, 1, 5), (0, 1, 7), (1, 2, 0), (2, 0, 3)]),
    LabeledGraph.build([0, 1, 3], [(0, 1, 5), (1, 2, 0), (2, 0, 3)]),
    LabeledGraph.build([0, 0, 1], [(0, 1, 5), (1, 2, 0), (2, 0, 3)]),
]


@pytest.mark.parametrize("seed", OFF_ENCODING_SEEDS, ids=[
    "label_out_of_bound", "mult_2", "two_edges_on_a_pair", "node_labels_013",
    "node_labels_001"])
def test_closure_rejects_seeds_off_the_encoding(seed):
    with pytest.raises(ConfigError) as decoded:
        _triple_state(seed)
    with pytest.raises(ConfigError) as closed:
        closure(seed, MOVE_SETS["triple_group"])
    assert str(closed.value) == str(decoded.value)


def test_closure_builds_one_triple_at_the_seed(monkeypatch):
    # the seed's check builds one Triple; the moves act on plain tuples
    # and build none
    seed, expected = encode_triple((-6, 0, 3)), Triple(-6, 0, 3)
    built = []
    check = Triple.__post_init__

    def counting(t):
        built.append(t)
        check(t)

    monkeypatch.setattr(Triple, "__post_init__", counting)
    result = closure(seed, MOVE_SETS["triple_group"])
    assert result.class_count == 6
    assert built == [expected]


def test_closure_builds_no_graph_past_the_seed(monkeypatch):
    # the caller's seed is decoded as given; the states moves reach are
    # plain tuples, with no graph built
    seed = encode_triple(Triple(-6, 0, 3))
    built = []
    check = LabeledGraph.__post_init__

    def counting(g):
        built.append(g)
        check(g)

    monkeypatch.setattr(LabeledGraph, "__post_init__", counting)
    result = closure(seed, MOVE_SETS["triple_group"])
    assert result.class_count == 6
    assert built == []


def test_closure_with_no_moves_is_single_class():
    result = closure(three_cycle([1, 2, 3]), MOVE_SETS["none"])
    assert result.class_count == 1
    assert result.expansion_steps == 0
    # the seed is its own state, so no kernel bounds its size
    ring = LabeledGraph.build([0] * 13, [(k, (k + 1) % 13, 0) for k in range(13)])
    result = closure(ring, MOVE_SETS["none"])
    assert (result.class_count, result.expansion_steps) == (1, 0)
    assert result.classes == {ring}


def test_closure_of_group_seed_matches_orbit():
    t = Triple(-6, 0, 3)
    result = closure(encode_triple(t), MOVE_SETS["triple_group"])
    assert result.class_count == orbit(t)[1] == 6
    # the premise that lets the closure run without a budget: on every
    # triple of the census's range its closure is the orbit, reached in
    # two steps per class
    for t in itertools.product(range(-9, 10), repeat=3):
        result = closure(encode_triple(Triple(*t)), MOVE_SETS["triple_group"])
        assert result.class_count == len(set(_images(*t))), t
        assert result.expansion_steps == 2 * result.class_count, t


def test_closure_of_fixed_point_is_single_class():
    result = closure(encode_triple(Triple(0, 0, 0)), MOVE_SETS["triple_group"])
    assert result.class_count == 1


def test_closure_steps_count_rediscoveries_on_census():
    from moricensus.families import regular_models

    for model in regular_models():
        result = closure(encode_triple(model.triple), MOVE_SETS["triple_group"])
        assert result.expansion_steps == 2 * orbit(model.triple)[1]


def test_closure_oracle_over_sample_of_census():
    rng = random.Random(5)
    from moricensus.families import regular_models

    sample = rng.sample(regular_models(), 40)
    for model in sample:
        result = closure(encode_triple(model.triple), MOVE_SETS["triple_group"])
        assert result.class_count == orbit(model.triple)[1]


def closure_via_graphs(t):
    """Class count and steps of the triple group's closure of ``t`` when
    each triple reached is keyed by its encoding's canonical form."""
    seen = {canonical_graph(encode_triple(t))}
    frontier = [t]
    steps = 0
    while frontier:
        next_frontier = []
        for member in frontier:
            images = _images(*member)
            for image in (images[1], images[3]):  # s and i
                steps += 1
                form = canonical_graph(encode_triple(image))
                if form not in seen:
                    seen.add(form)
                    next_frontier.append(image)
        frontier = next_frontier
    return len(seen), steps


def test_closure_matches_the_graph_path_on_census():
    # keying classes by state gives the counts of keying them by form
    from moricensus.families import regular_models

    for model in regular_models():
        result = closure(encode_triple(model.triple), MOVE_SETS["triple_group"])
        assert (result.class_count, result.expansion_steps) == \
            closure_via_graphs(model.triple), model.triple


def test_audit_seeds_match_the_rigid_encoding_on_census():
    # verify's oracle seeds each closure with the model's triple; the
    # closure it gets is the one the encoded triple gets
    from moricensus.families import regular_models

    models = regular_models()
    assert len(models) == 347
    for model in models:
        seeded = closure(model.triple, tuple)
        encoded = closure(encode_triple(model.triple), MOVE_SETS["triple_group"])
        assert (seeded.classes, seeded.expansion_steps) == \
            (encoded.classes, encoded.expansion_steps), model.triple


# ---------------------------------------------------------------------------
# graph file format


GRAPH_TEXT = """\
# a rigid triple encoding of (-6, 0, 3)
node p0 label=0
node p1 label=1
node p2 label=2
edge p0 p1 label=-6
edge p1 p2 label=0
edge p2 p0 label=3
"""


def test_parse_graph_file():
    g = parse_graph_file(GRAPH_TEXT)
    assert _triple_state(g) == (-6, 0, 3)


def test_parse_graph_file_default_mult():
    g = parse_graph_file("node a label=1\nnode b label=1\nedge a b label=0\n")
    assert g.edges == ((0, 1, 0, 1),)
    g2 = parse_graph_file("node a label=1\nnode b label=1\nedge a b label=0 mult=3\n")
    assert g2.edges == ((0, 1, 0, 3),)


BAD_GRAPH_FILES = [
    "node a\n",  # missing label
    "node a label=1\nnode a label=2\n",  # duplicate id
    "edge a b label=0\n",  # unknown nodes
    "node a label=1\nedge a a label=0\n",  # self loop
    "vertex a label=1\n",  # unknown directive
    "node a label=1 extra=2\n",  # trailing junk
]


@pytest.mark.parametrize("text", BAD_GRAPH_FILES)
def test_parse_graph_file_rejects(text):
    with pytest.raises(ConfigError):
        parse_graph_file(text)


def test_parse_graph_file_reports_malformed_edge_line():
    with pytest.raises(ConfigError) as exc_info:
        parse_graph_file("node a label=1\nnode b label=1\nedge a b label=x\n")
    assert str(exc_info.value) == "malformed edge line (line 3)"
    assert exc_info.value.line == 3


def test_parse_graph_file_rejects_zero_multiplicity():
    # the line regex accepts mult=0; the parser rejects it on its line
    with pytest.raises(ConfigError) as exc_info:
        parse_graph_file("node a label=1\nnode b label=1\nedge a b label=0 mult=0\n")
    assert str(exc_info.value) == \
        "edge multiplicity must be >= 1, got 0 (line 3, field 'mult')"
    assert (exc_info.value.line, exc_info.value.field) == (3, "mult")


@pytest.mark.parametrize("text, line", [
    ("node a label=\u0663\n", 1),
    ("node a label=1\nnode b label=1\nedge a b label=-\u0663\n", 3),
    ("node a label=1\nnode b label=1\nedge a b label=0 mult=\u0663\n", 3),
], ids=["node_label", "edge_label", "mult"])
def test_parse_graph_file_takes_ascii_digits_only(text, line):
    # int() reads the Arabic-Indic digit three as 3; the format takes 0-9
    with pytest.raises(ConfigError) as exc_info:
        parse_graph_file(text)
    kind = "node" if line == 1 else "edge"
    assert str(exc_info.value) == f"malformed {kind} line (line {line})"
    assert exc_info.value.line == line


# one digit past the interpreter's int-conversion limit (4300 digits)
OVER_LIMIT = "9" * 4301

OVER_LIMIT_GRAPH_FILES = [
    (f"node a label={OVER_LIMIT}\n", 1, "label"),
    (f"node a label=1\nnode b label=1\nedge a b label=-{OVER_LIMIT}\n", 3, "label"),
    (f"node a label=1\nnode b label=1\nedge a b label=0 mult={OVER_LIMIT}\n",
     3, "mult"),
]


@pytest.mark.parametrize("text, line, field", OVER_LIMIT_GRAPH_FILES,
                         ids=["node_label", "edge_label", "mult"])
def test_parse_graph_file_names_integers_past_the_conversion_limit(text, line, field):
    # int() would raise a bare ValueError; the parser names where it is
    with pytest.raises(ConfigError) as exc_info:
        parse_graph_file(text)
    err = exc_info.value
    assert str(err) == \
        f"integer of 4301 digits is too long (line {line}, field {field!r})"
    assert (err.line, err.field) == (line, field)


# node lines, then edge lines, of well-formed shape with odd values
# now and then, and at most one free join of the format's pieces
GRAPH_INTS = st.sampled_from(
    ["0", "1", "7", "-3", "12", "0", "-1", "x", OVER_LIMIT, "\u0663"])
NODE_LINES = st.lists(
    st.tuples(GRAPH_INTS, st.sampled_from(["", "", "", "", " # note", " extra=2"])),
    min_size=2, max_size=3,
).map(lambda specs: [f"node {name} label={label}{rest}"
                     for name, (label, rest) in zip("abc", specs)])
EDGE_LINES = st.lists(st.builds(
    "edge {} {} label={}{}".format, st.sampled_from("abcd"),
    st.sampled_from("abc"), GRAPH_INTS, st.sampled_from(
        ["", "", " mult=3", " mult=0", " mult=-1", f" mult={OVER_LIMIT}"])),
    max_size=3)
GRAPH_PIECES = st.lists(st.lists(st.sampled_from([
    "node", "edge", " ", "a", "b", "label=", "mult=", "=", "1", "-", "#",
    "\t", "vertex", OVER_LIMIT,
]), max_size=10).map("".join), max_size=1)
GRAPH_TEXTS = st.builds(lambda *parts: "\n".join(sum(parts, [])),
                        NODE_LINES, EDGE_LINES, GRAPH_PIECES)


@settings(max_examples=150, deadline=None)
@given(GRAPH_TEXTS)
def test_parse_graph_file_raises_only_config_errors_inside_the_text(text):
    try:
        parse_graph_file(text)
    except ConfigError as err:
        if err.line is not None:
            assert 1 <= err.line <= len(text.split("\n"))
