"""Breadth-first closure of a seed under the triple group.

A move set is only how the seed is read as a triple: ``MOVE_SETS`` maps
each name to that reader, or to ``None`` for no moves.  Under ``none``
the seed, whatever it is, is its own one class, reached in no steps.
Otherwise the search reads the seed as an ``(a, b, c)`` tuple and walks
one queue of tuples in the order they were first reached, appending
each new one of a tuple's two generator images, the shift ``(b, c, a)``
and the involution ``(-b, -a, -c)``.  The tuples reached are the seed's
orbit, so the closure is finite and has no budget.  Both images of each
tuple count as steps, rediscoveries included: a triple's closure takes
twice its orbit length in steps.

The generators are written out here and read no group table of the
census, so verify's closure oracle, which calls ``closure(triple,
tuple)`` on each census model, shares no arithmetic with the census.
The images of a valid triple are valid, because the component bound is
symmetric, so only the seed is checked.  ``triple_group`` reads a graph,
as ``closure --moves triple_group`` does: it accepts only the rigid
encoding that :func:`encode_triple` writes, with its nodes in any order.
Distinct triples encode to distinct classes, so the tuples reached
stand one-to-one for the graph classes reached.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ._record import Record
from .errors import ConfigError
from .triples import Triple

if TYPE_CHECKING:
    from .graphs import LabeledGraph

__all__ = [
    "ClosureResult",
    "MOVE_SETS",
    "closure",
    "encode_triple",
]


class ClosureResult(Record):
    """The states reached from the seed, one per class.

    ``expansion_steps`` counts candidate states produced by move
    applications, including rediscoveries of known classes.
    """

    __slots__ = ("classes", "expansion_steps")

    @property
    def class_count(self) -> int:
        return len(self.classes)


def closure(seed, move_set, *, workers: int = 1) -> ClosureResult:
    """The triples the group reaches from ``move_set(seed)``, or ``seed``
    alone in 0 steps when ``move_set`` is None.

    ``move_set`` raises ConfigError for a seed it cannot read as a
    triple.  ``workers`` has no effect.
    """
    if move_set is None:
        return ClosureResult(frozenset({seed}), 0)
    start = move_set(seed)
    seen = {start}
    queue = [start]  # grows while it is walked, so states leave in BFS order
    for a, b, c in queue:
        for image in ((b, c, a), (-b, -a, -c)):
            if image not in seen:
                seen.add(image)
                queue.append(image)
    return ClosureResult(frozenset(seen), 2 * len(queue))


# Triples embed as rigid 3-cycles: node k carries label k, so the only
# self-isomorphism is the identity, and the edge after node k carries the
# k-th component.  Distinct triples therefore encode to distinct classes.


def encode_triple(t) -> LabeledGraph:
    """Rigid encoding of any ``(a, b, c)``; the isomorphism test sees its order."""
    from .graphs import LabeledGraph  # only a graph seed needs the graph layer
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


MOVE_SETS = {"none": None, "triple_group": _triple_state}
