"""Breadth-first closure of a seed under pluggable move sets.

A move set (:class:`MoveSet`) acts on *states*: it checks the seed once,
at the boundary, and turns it into a state, and each of its moves is a
plain function from a state to its images.  The search keys classes by
state: it walks one queue of states in the order they were first
reached, applies every move to each, and appends each new state to the
queue; the result is the set of states reached from the seed.  That set
is the smallest iso-closed set of classes containing the seed as long
as the move set keeps its contract: its distinct states are distinct
classes.

The shipped move sets have small, finite closures, so the search has
no budget.  ``none`` has no moves and keeps the default state, the
seed itself: its closure is one class in no steps, and no move set
reaches the canonicalizer.  The geometric flop rules live elsewhere,
so the only shipped moves are the triple group action, which doubles
as a test oracle (the closure of a rigidly encoded triple has exactly
as many classes as the triple's orbit).  Its states are plain
``(a, b, c)`` tuples, which the rigid encoding maps one-to-one onto
classes, so a move builds no graph.  Its one move writes out the two
generators itself and reads no group table of the census, so the
oracle's class counts do not share the census's arithmetic.  Verify's
oracle uses the same move with the default ``to_state``, seeding each
closure with a census ``(a, b, c)`` tuple, so it builds no graph.
"""

from __future__ import annotations

from ._record import Record
from .errors import ConfigError
from .graphs import LabeledGraph
from .triples import Triple

__all__ = [
    "ClosureResult",
    "MOVE_SETS",
    "MoveSet",
    "closure",
    "encode_triple",
]


def _seed_state(seed):
    """The default ``to_state``, for ``none`` and verify's oracle: the
    seed is its own state.  A module function, so that a MoveSet pickles."""
    return seed


class MoveSet(Record):
    """Moves over states, with the map from the seed to its state.

    Each move maps a state to an iterable of its images.  ``to_state``
    turns the seed into a state once, at the closure boundary, and
    raises ConfigError for a seed the moves cannot act on.
    The closure counts states as classes, so a move set's distinct
    states must be distinct classes.  By default the seed is its own
    state, which is all ``none``, with no moves, needs.
    """

    __slots__ = ("moves", "to_state")
    _defaults = {"moves": (), "to_state": _seed_state}


class ClosureResult(Record):
    """The states reached from the seed, one per class.

    ``expansion_steps`` counts candidate states produced by move
    applications, including rediscoveries of known classes.
    """

    __slots__ = ("classes", "expansion_steps")

    @property
    def class_count(self) -> int:
        return len(self.classes)


def closure(
    seed: object,
    move_set: MoveSet,
    *,
    workers: int = 1,
) -> ClosureResult:
    """Breadth-first fixed point of ``move_set`` starting from ``seed``.

    States are expanded in the order they were first reached, the seed
    first, each by every move in turn.

    The seed is whatever the move set's ``to_state`` accepts: both
    shipped move sets take a :class:`LabeledGraph`.  Raises the move
    set's ConfigError for a seed it cannot act on.  Rediscovered states
    still count as expansion steps.  ``workers`` has no effect.
    """
    start = move_set.to_state(seed)
    seen = {start}
    queue = [start]  # grows while it is walked, so states leave in BFS order
    steps = 0
    for state in queue:
        for move in move_set.moves:
            for image in move(state):
                steps += 1
                if image in seen:
                    continue
                seen.add(image)
                queue.append(image)
    return ClosureResult(frozenset(seen), steps)


# Triples embed as rigid 3-cycles: node k carries label k, so the only
# self-isomorphism is the identity, and the edge after node k carries the
# k-th component.  Distinct triples therefore encode to distinct classes.


def encode_triple(t) -> LabeledGraph:
    """Rigid encoding of any ``(a, b, c)``; the isomorphism test sees its order."""
    a, b, c = t
    return LabeledGraph(node_labels=(0, 1, 2),
                        edges=((0, 1, a, 1), (0, 2, c, 1), (1, 2, b, 1)))


def _triple_state(g: LabeledGraph) -> tuple[int, int, int]:
    """``(a, b, c)`` if ``g`` is what :func:`encode_triple` writes for a
    valid triple, with its nodes in any order, else ConfigError; builds
    one Triple, whose ConfigError names a component at fault."""
    labels = g.node_labels
    if sorted(labels) != [0, 1, 2]:
        raise ConfigError(f"not a rigid triple encoding: nodes {labels}")
    # node k of the encoding is the node labelled k
    edges = sorted((*sorted((labels[u], labels[v])), x, m) for u, v, x, m in g.edges)
    if [edge[:2] for edge in edges] != [(0, 1), (0, 2), (1, 2)]:
        raise ConfigError(f"not a rigid triple encoding: edges {g.edges}")
    (_, _, a, ab), (_, _, c, ac), (_, _, b, bc) = edges
    if (ab, ac, bc) != (1, 1, 1):
        raise ConfigError("triple encoding edges must have multiplicity 1")
    Triple(a, b, c)
    return a, b, c


def _generator_images(state):
    """The shift ``(b, c, a)`` and the involution ``(-b, -a, -c)`` of a
    state.

    The images of a valid state are valid, because the component bound
    is symmetric, so states are checked only at the boundary.
    """
    a, b, c = state
    return (b, c, a), (-b, -a, -c)


MOVE_SETS: dict[str, MoveSet] = {
    "none": MoveSet(),
    "triple_group": MoveSet(
        moves=(_generator_images,),
        to_state=_triple_state,
    ),
}
