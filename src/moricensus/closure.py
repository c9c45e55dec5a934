"""Breadth-first closure of a seed graph under pluggable move sets.

A move set (:class:`MoveSet`) acts on *states*: it checks the seed graph
once, at the boundary, and turns it into a state; its moves map states
to states; and it maps a state to its canonical form.  The search keeps
the set of known isomorphism classes (keyed by canonical form),
repeatedly applies every move to every frontier state, and stops when no
move produces a new class; the result is the smallest iso-closed set of
classes containing the seed.

Graph-level move sets use the graph itself as the state.  The geometric
flop rules live elsewhere, so the only shipped moves are the triple
group action, which doubles as a test oracle (the closure of a rigidly
encoded triple has exactly as many classes as the triple's orbit).  Its
states are plain ``(a, b, c)`` tuples, so a move that rediscovers a
known state costs one tuple lookup, and a new one builds no graph.

One loop on the caller's thread applies the moves, counts the steps,
checks the budgets and records new classes, in frontier order.  Worker
threads, if asked for, only canonicalize each level's new states ahead
of that loop, so the result is identical regardless of scheduling.
"""

from __future__ import annotations

from typing import Callable

from ._record import Record
from .errors import BudgetExceededError
from .graphs import LabeledGraph, canonical_form, canonical_graph
from .triples import _ACTIONS, GroupElement, Triple, _plain_components

__all__ = [
    "ClosureResult",
    "MOVE_SETS",
    "MoveOperator",
    "MoveSet",
    "closure",
    "decode_triple",
    "encode_triple",
]


class MoveOperator(Record):
    """A named, deterministic one-step transition on move-set states."""

    __slots__ = ("name", "apply_all")


def _identity(x):
    return x


class MoveSet(Record):
    """Moves over states, with the maps from graphs to states to forms.

    ``to_state`` turns the seed graph into a state once, at the closure
    boundary, and raises ValueError for a seed the moves cannot act on.
    ``to_form`` gives a state's canonical form; it must give the seed's
    state the seed's ``canonical_graph``.  Graph-level move sets keep
    the defaults, so their states are the graphs themselves.
    """

    __slots__ = ("moves", "to_state", "to_form")
    _defaults = {"moves": (), "to_state": _identity, "to_form": canonical_graph}


class ClosureResult(Record):
    """Iso-closed class set reached from the seed.

    ``expansion_steps`` counts candidate states produced by move
    applications, including rediscoveries of known classes.
    """

    __slots__ = ("classes", "expansion_steps")

    @property
    def class_count(self) -> int:
        return len(self.classes)


def closure(
    seed: LabeledGraph,
    move_set: MoveSet,
    *,
    max_classes: int | None = None,
    max_steps: int | None = None,
    workers: int = 1,
) -> ClosureResult:
    """Breadth-first fixed point of ``move_set`` starting from ``seed``.

    Raises the move set's ValueError for a seed it cannot act on, and
    BudgetExceededError when a configured class-count or step budget is
    hit (arbitrary move sets may have infinite closures).  With
    ``workers > 1``, a thread pool canonicalizes each level's distinct
    new states before the level is walked.  The result is the same, but
    a move that raises does so before that level's steps are counted.
    The worker threads are joined before the call returns or raises.
    Each distinct state is canonicalized once per call, the seed from
    the caller's graph; rediscoveries are looked up, and still count as
    expansion steps.
    """
    applies = [move.apply_all for move in move_set.moves]
    to_form = move_set.to_form
    start = move_set.to_state(seed)
    forms = {start: canonical_graph(seed)}
    seen = {forms[start]}
    frontier = [start]
    steps = 0

    pool = None
    if workers > 1:
        # imported here so that no subcommand pays for the thread pool
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(max_workers=workers)
    try:
        while frontier:
            if pool is not None:
                # the pool canonicalizes the level's distinct new states;
                # only this thread writes ``forms``
                fresh = dict.fromkeys(
                    image for state in frontier for apply_all in applies
                    for image in apply_all(state) if image not in forms)
                forms.update(zip(fresh, pool.map(to_form, fresh)))
            next_frontier = []
            for state in frontier:
                for apply_all in applies:
                    for image in apply_all(state):
                        key = forms.get(image)
                        if key is None:
                            key = forms[image] = to_form(image)
                        steps += 1
                        if max_steps is not None and steps > max_steps:
                            raise BudgetExceededError("step", max_steps)
                        if key in seen:
                            continue
                        seen.add(key)
                        if max_classes is not None and len(seen) > max_classes:
                            raise BudgetExceededError("class", max_classes)
                        next_frontier.append(image)
            frontier = next_frontier
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)

    return ClosureResult(classes=frozenset(seen), expansion_steps=steps)


# Triples embed as rigid 3-cycles: node k carries label k, so the only
# self-isomorphism is the identity, and the edge after node k carries the
# k-th component.  Distinct triples therefore encode to distinct classes.


def encode_triple(t: Triple) -> LabeledGraph:
    """Rigid encoding: tuple order is visible to the isomorphism test."""
    return _encode((t.a, t.b, t.c))


def _triple_edges(a: int, b: int, c: int) -> tuple:
    return ((0, 1, a, 1), (0, 2, c, 1), (1, 2, b, 1))


def _encode(components: tuple[int, int, int]) -> LabeledGraph:
    return LabeledGraph(node_labels=(0, 1, 2), edges=_triple_edges(*components))


def _triple_form(state: tuple[int, int, int]) -> tuple[int, ...]:
    """``canonical_graph(_encode(state))`` without the graph: the edges of
    int components are already normalized, and moves keep them ints."""
    return canonical_form((0, 1, 2), _triple_edges(*state))


def _rigid_components(g: LabeledGraph) -> tuple[int, int, int] | None:
    """``(a, b, c)`` if ``g`` is exactly what :func:`_encode` writes for
    int components inside the bound, else None; builds no Triple."""
    edges = g.edges
    if g.node_labels == (0, 1, 2) and len(edges) == 3:
        (_, _, a, _), (_, _, c, _), (_, _, b, _) = edges
        if edges == _triple_edges(a, b, c) and _plain_components(a, b, c):
            return a, b, c
    return None


def decode_triple(g: LabeledGraph) -> Triple:
    """Inverse of :func:`encode_triple`; raises ValueError off the image."""
    components = _rigid_components(g)
    if components is not None:
        return Triple(*components)
    if g.node_labels != (0, 1, 2):
        raise ValueError(f"not a rigid triple encoding: nodes {g.node_labels}")
    by_pair = {(u, v): (label, mult) for (u, v, label, mult) in g.edges}
    if len(g.edges) != 3 or set(by_pair) != {(0, 1), (1, 2), (0, 2)}:
        raise ValueError(f"not a rigid triple encoding: edges {g.edges}")
    if any(mult != 1 for (_, mult) in by_pair.values()):
        raise ValueError("triple encoding edges must have multiplicity 1")
    return Triple(by_pair[(0, 1)][0], by_pair[(1, 2)][0], by_pair[(0, 2)][0])


def _triple_state(g: LabeledGraph) -> tuple[int, int, int]:
    """The seed's components; a graph off the image raises
    :func:`decode_triple`'s ValueError."""
    return _rigid_components(g) or tuple(decode_triple(g))


def _triple_move(act: Callable[[int, int, int], tuple[int, int, int]]):
    """Move by a signed permutation of the components of a state.

    The image of a valid state is valid, because the component bound is
    symmetric, so states are checked only at the boundary.
    """
    return lambda state: (act(*state),)


MOVE_SETS: dict[str, MoveSet] = {
    "none": MoveSet(),
    "triple_group": MoveSet(
        moves=(
            MoveOperator(name="shift",
                         apply_all=_triple_move(_ACTIONS[GroupElement.S])),
            MoveOperator(name="involution",
                         apply_all=_triple_move(_ACTIONS[GroupElement.I])),
        ),
        to_state=_triple_state,
        to_form=_triple_form,
    ),
}
