import importlib
import itertools
import random
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from moricensus.closure import (
    MOVE_SETS,
    MoveOperator,
    MoveSet,
    _encode,
    _triple_form,
    closure,
    decode_triple,
    encode_triple,
)
from moricensus.errors import (
    BudgetExceededError,
    ConfigError,
    SizeLimitError,
)
from moricensus.graphs import (
    LabeledGraph,
    canonical_backend,
    canonical_form,
    canonical_graph,
    iso,
    parse_graph_file,
)
from moricensus.triples import COMPONENT_BOUND, Triple, orbit

from linetrace import unrun_lines


# ---------------------------------------------------------------------------
# canonical forms and isomorphism


def test_single_node_form_ignores_identity_of_index():
    g1 = LabeledGraph.build([5])
    g2 = LabeledGraph.build([5])
    assert canonical_graph(g1) == canonical_graph(g2)


def relabel(g, perm):
    labels = [0] * g.n
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
    with pytest.raises(SizeLimitError):
        canonical_graph(LabeledGraph.build([0] * 13))


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
    perm = list(range(g.n))
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
    assert seq[0] == g.n
    idx = 1
    degree_total = 0
    for _ in range(g.n):
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
    with pytest.raises(ValueError, match="must be an int"):
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
    with pytest.raises(ValueError, match=message):
        make()


# ---------------------------------------------------------------------------
# triple encodings


def test_encode_decode_roundtrip():
    for t in (Triple(-6, 0, 3), Triple(0, 0, 0), Triple(9, -3, 3)):
        assert decode_triple(encode_triple(t)) == t


def test_rigid_encoding_separates_distinct_triples():
    assert not iso(encode_triple(Triple(1, 2, 3)), encode_triple(Triple(3, 2, 1)))


def test_triple_form_is_the_form_of_the_encoding():
    # the closure's forms are those of the graphs it no longer builds
    corners = itertools.product((-COMPONENT_BOUND, COMPONENT_BOUND), repeat=3)
    box = itertools.product(range(-9, 10), repeat=3)
    for state in itertools.chain(box, corners):
        assert _triple_form(state) == canonical_graph(_encode(state)), state


def test_decode_rejects_non_encodings():
    with pytest.raises(ValueError):
        decode_triple(LabeledGraph.build([0, 1], [(0, 1, 3)]))
    with pytest.raises(ValueError):
        decode_triple(LabeledGraph.build([0, 1, 2], [(0, 1, 3)]))
    with pytest.raises(ValueError):
        # a second edge on one node pair, beside one edge on each other pair
        decode_triple(LabeledGraph.build(
            [0, 1, 2], [(0, 1, 5), (0, 1, 7), (1, 2, 0), (2, 0, 3)]
        ))


# ---------------------------------------------------------------------------
# closure


OFF_ENCODING_SEEDS = [
    LabeledGraph.build([0, 1, 2], [(0, 1, 1_000_001), (1, 2, 0), (2, 0, 3)]),
    LabeledGraph.build([0, 1, 2], [(0, 1, 5, 2), (1, 2, 0), (2, 0, 3)]),
    LabeledGraph.build([0, 1, 2], [(0, 1, 5), (0, 1, 7), (1, 2, 0), (2, 0, 3)]),
    LabeledGraph.build([0, 1, 3], [(0, 1, 5), (1, 2, 0), (2, 0, 3)]),
]


@pytest.mark.parametrize("seed", OFF_ENCODING_SEEDS, ids=[
    "label_out_of_bound", "mult_2", "two_edges_on_a_pair", "node_labels_013"])
def test_closure_rejects_seeds_off_the_encoding(seed):
    with pytest.raises(ValueError) as decoded:
        decode_triple(seed)
    with pytest.raises(ValueError) as closed:
        closure(seed, MOVE_SETS["triple_group"])
    assert str(closed.value) == str(decoded.value)


def test_closure_builds_no_triple(monkeypatch):
    # moves read components off the graphs they encoded themselves
    seed = encode_triple(Triple(-6, 0, 3))
    built = []
    check = Triple.__post_init__

    def counting(t):
        built.append(t)
        check(t)

    monkeypatch.setattr(Triple, "__post_init__", counting)
    result = closure(seed, MOVE_SETS["triple_group"])
    assert result.class_count == 6
    assert built == []


def test_closure_builds_no_graph_past_the_seed(monkeypatch):
    # the caller's seed is canonicalized as given; the states moves reach
    # go to the kernel as labels and edges, with no graph built
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


def test_closure_of_group_seed_matches_orbit():
    t = Triple(-6, 0, 3)
    result = closure(encode_triple(t), MOVE_SETS["triple_group"])
    assert result.class_count == orbit(t).length == 6


def test_closure_of_fixed_point_is_single_class():
    result = closure(encode_triple(Triple(0, 0, 0)), MOVE_SETS["triple_group"])
    assert result.class_count == 1


@pytest.mark.parametrize("t, calls, steps, workers", [
    (Triple(-6, 0, 3), 6, 12, 1),
    (Triple(0, 0, 0), 1, 2, 1),
    (Triple(-6, 0, 3), 6, 12, 4),
    (Triple(0, 0, 0), 1, 2, 4),
], ids=["t0-6-12", "t1-1-2", "t0-6-12-workers4", "t1-1-2-workers4"])
def test_closure_canonicalizes_each_distinct_graph_once(monkeypatch, t, calls, steps,
                                                        workers):
    # the seed goes through ``canonical_graph`` as the caller's graph, and
    # each other distinct state once through ``canonical_form``, on the
    # pool's threads too; the package exports the function ``closure``
    # under the module's name
    closure_module = importlib.import_module("moricensus.closure")
    graphs_seen, forms_seen = [], []

    def counting_graph(g):
        graphs_seen.append(g)
        return canonical_graph(g)

    def counting_form(labels, edges):
        forms_seen.append((labels, edges))
        return canonical_form(labels, edges)

    monkeypatch.setattr(closure_module, "canonical_graph", counting_graph)
    monkeypatch.setattr(closure_module, "canonical_form", counting_form)
    seed = encode_triple(t)
    result = closure(seed, MOVE_SETS["triple_group"], workers=workers)
    assert graphs_seen == [seed]
    assert len(forms_seen) == len(set(forms_seen)) == calls - 1
    assert (seed.node_labels, seed.edges) not in forms_seen
    assert result.expansion_steps == steps


@pytest.mark.parametrize("workers", [1, 4])
def test_closure_canonicalizes_a_state_reached_twice_in_a_level_once(workers):
    # from the frontier [1, 2], both states reach 3
    formed = []

    def to_form(k):
        formed.append(k)
        return canonical_graph(LabeledGraph.build([k]))

    capped = MoveSet(
        moves=(MoveOperator(name="count",
                            apply_all=lambda k: [min(k + 1, 9), min(k + 2, 9)]),),
        to_state=lambda g: g.node_labels[0],
        to_form=to_form,
    )
    result = closure(LabeledGraph.build([0]), capped, workers=workers)
    assert result.class_count == 10
    assert sorted(formed) == list(range(1, 10))


def test_verification_canonicalizes_each_orbit_member_once(monkeypatch):
    # the closure oracle canonicalizes its 347 seeds as graphs and the
    # 1,695 other orbit members as forms: one kernel call per member
    from moricensus.audit import run_full_verification
    from moricensus.cones import computed_record
    from moricensus.families import regular_models

    closure_module = importlib.import_module("moricensus.closure")
    calls = {"graph": 0, "form": 0}

    def counting_graph(g):
        calls["graph"] += 1
        return canonical_graph(g)

    def counting_form(labels, edges):
        calls["form"] += 1
        return canonical_form(labels, edges)

    monkeypatch.setattr(closure_module, "canonical_graph", counting_graph)
    monkeypatch.setattr(closure_module, "canonical_form", counting_form)
    run_full_verification()
    members = sum(computed_record(m).orbit_length for m in regular_models())
    assert calls == {"graph": 347, "form": 1695}
    assert calls["graph"] + calls["form"] == members == 2042


def test_closure_steps_count_rediscoveries_on_census():
    from moricensus.families import regular_models

    for model in regular_models():
        result = closure(encode_triple(model.triple), MOVE_SETS["triple_group"])
        assert result.expansion_steps == 2 * orbit(model.triple).length


def test_closure_oracle_over_sample_of_census():
    rng = random.Random(5)
    from moricensus.families import regular_models

    sample = rng.sample(regular_models(), 40)
    for model in sample:
        result = closure(encode_triple(model.triple), MOVE_SETS["triple_group"])
        assert result.class_count == orbit(model.triple).length


def test_closure_matches_the_graph_path_on_census():
    # the same classes and steps as when each state's graph is built
    from moricensus.families import regular_models

    moves = MOVE_SETS["triple_group"]
    via_graphs = MoveSet(moves=moves.moves, to_state=moves.to_state,
                         to_form=lambda state: canonical_graph(_encode(state)))
    for model in regular_models():
        seed = encode_triple(model.triple)
        result, reference = closure(seed, moves), closure(seed, via_graphs)
        assert result.classes == reference.classes, model.triple
        assert result.expansion_steps == reference.expansion_steps


def test_closure_order_independent():
    t = Triple(1, 2, -2)
    moves = MOVE_SETS["triple_group"]
    forward = closure(encode_triple(t), moves)
    backward = closure(encode_triple(t), MoveSet(
        moves=tuple(reversed(moves.moves)), to_state=moves.to_state,
        to_form=moves.to_form))
    assert forward.classes == backward.classes


def test_closure_workers_match_reference():
    from moricensus.families import regular_models

    moves = MOVE_SETS["triple_group"]
    for model in regular_models():
        seed = encode_triple(model.triple)
        single = closure(seed, moves, workers=1)
        for workers in (4, 8):
            threaded = closure(seed, moves, workers=workers)
            assert threaded.classes == single.classes, (model.triple, workers)
            assert threaded.expansion_steps == single.expansion_steps


def test_closure_forms_shared_by_threads():
    # worker threads canonicalize while this thread waits to write their
    # forms; switching threads often must not change the result
    from moricensus.families import regular_models

    moves = MOVE_SETS["triple_group"]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for model in random.Random(3).sample(regular_models(), 20):
            seed = encode_triple(model.triple)
            single = closure(seed, moves)
            threaded = closure(seed, moves, workers=8)
            assert threaded.classes == single.classes
            assert threaded.expansion_steps == single.expansion_steps
    finally:
        sys.setswitchinterval(interval)


def test_closure_monotone_in_move_set():
    t = Triple(1, 1, 1)
    moves = MOVE_SETS["triple_group"]
    shift_only = closure(encode_triple(t), MoveSet(
        moves=moves.moves[:1], to_state=moves.to_state, to_form=moves.to_form))
    both = closure(encode_triple(t), moves)
    assert both.class_count >= shift_only.class_count


def test_closure_class_budget():
    with pytest.raises(BudgetExceededError) as exc_info:
        closure(
            encode_triple(Triple(1, 2, -2)),
            MOVE_SETS["triple_group"],
            max_classes=3,
        )
    assert exc_info.value.kind == "class"


def test_closure_step_budget():
    spin = MoveSet(moves=(MoveOperator(name="spin", apply_all=lambda g: [g]),))
    with pytest.raises(BudgetExceededError):
        closure(three_cycle([1, 2, 3]), spin, max_steps=0)


def count_up(k):
    if k >= 20:
        raise RuntimeError("move failed")
    return [k + 1, k + 2]


# states are ints, each the label of a one-node graph
COUNTING = MoveSet(
    moves=(MoveOperator(name="count", apply_all=count_up),),
    to_state=lambda g: g.node_labels[0],
    to_form=lambda k: canonical_graph(LabeledGraph.build([k])),
)


@pytest.mark.parametrize("workers", [1, 4])
def test_closure_checks_each_step_before_the_next(workers):
    # the first new class trips the class budget before the second step
    # can trip the step budget
    with pytest.raises(BudgetExceededError) as exc_info:
        closure(LabeledGraph.build([0]), COUNTING, max_classes=1, max_steps=1,
                workers=workers)
    assert exc_info.value.kind == "class"


@pytest.mark.parametrize("error, budget", [
    (RuntimeError, {}),
    (BudgetExceededError, {"max_classes": 5}),
], ids=["move_raises", "class_budget"])
def test_closure_joins_worker_threads_when_it_raises(error, budget):
    before = threading.active_count()
    with pytest.raises(error):
        closure(LabeledGraph.build([0]), COUNTING, workers=4, **budget)
    assert threading.active_count() == before


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
    assert decode_triple(g) == Triple(-6, 0, 3)


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


# ---------------------------------------------------------------------------
# line guard


def test_every_closure_and_graph_line_runs():
    # the triple group, no moves, the counting moves up to each budget on
    # worker threads, the rejected graphs, seeds and graph files, and a
    # form past the size limit reach every line of both modules; a line
    # none of them runs is a branch no input takes.  Worker threads are
    # not traced, so the triple group also runs on the caller's thread.
    closure_module = importlib.import_module("moricensus.closure")
    graphs_module = importlib.import_module("moricensus.graphs")

    def expect(error, call):
        with pytest.raises(error):
            call()

    def run():
        canonical_backend()
        for t in (Triple(-6, 0, 3), Triple(0, 0, 0)):
            seed = encode_triple(t)
            assert decode_triple(seed) == t and seed.n == 3
            result = closure(seed, MOVE_SETS["triple_group"])
            assert result.class_count == orbit(t).length
        closure(three_cycle([1, 2, 3]), MOVE_SETS["none"])
        # the moves are made at import, which the guard does not trace
        rotate = closure_module._triple_move(lambda a, b, c: (c, a, b))
        assert rotate((1, 2, 3)) == ((3, 1, 2),)
        assert iso(three_cycle([1, 2, 3]), three_cycle([3, 1, 2]))
        for budget in ({"max_classes": 5}, {"max_steps": 5}):
            expect(BudgetExceededError, lambda: closure(
                LabeledGraph.build([0]), COUNTING, workers=4, **budget))
        for seed in OFF_ENCODING_SEEDS:
            expect(ValueError, lambda: decode_triple(seed))
        for make in NOT_INT_GRAPHS + [make for make, _ in MALFORMED_EDGES]:
            expect(ValueError, make)
        parse_graph_file(GRAPH_TEXT)
        for text in BAD_GRAPH_FILES + [
            "node a label=1\nnode b label=1\nedge a b label=x\n",
            "node a label=1\nnode b label=1\nedge a b label=0 mult=0\n",
        ]:
            expect(ConfigError, lambda: parse_graph_file(text))
        expect(SizeLimitError, lambda: canonical_form((0,) * 13, ()))

    assert unrun_lines([closure_module, graphs_module], run) == []
