"""Breadth-first closure of a seed graph under pluggable move operators.

The search keeps a list of known isomorphism classes (keyed by canonical
form), repeatedly applies every move to every frontier graph, and stops
when no move produces a new class; the result is the smallest iso-closed
set of classes containing the seed.  Move sets are plugins: the
geometric flop rules live elsewhere, so the only shipped move set is the
triple group action, which doubles as a test oracle (the closure of a
rigidly encoded triple has exactly as many classes as the triple's
orbit).

Frontier expansion can run on worker threads; results are merged on the
caller's thread in frontier order, so the final class set is identical
regardless of scheduling.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

from .errors import BudgetExceededError
from .graphs import LabeledGraph, canonical_graph
from .triples import _ACTIONS, GroupElement, Triple, _plain_components

__all__ = [
    "ClosureResult",
    "MOVE_SETS",
    "MoveOperator",
    "closure",
    "decode_triple",
    "encode_triple",
]


@dataclass(frozen=True, slots=True)
class MoveOperator:
    """A named, deterministic one-step transition on labelled graphs."""

    name: str
    apply_all: Callable[[LabeledGraph], list[LabeledGraph]]


@dataclass(frozen=True, slots=True)
class ClosureResult:
    """Iso-closed class set reached from the seed.

    ``expansion_steps`` counts candidate graphs produced by move
    applications, including rediscoveries of known classes.
    """

    classes: frozenset[tuple[int, ...]]
    class_count: int
    expansion_steps: int

    def __post_init__(self):
        if self.class_count != len(self.classes):
            raise ValueError("class_count must equal len(classes)")


def closure(
    seed: LabeledGraph,
    moves: list[MoveOperator],
    *,
    max_classes: int | None = None,
    max_steps: int | None = None,
    workers: int = 1,
) -> ClosureResult:
    """Breadth-first fixed point of ``moves`` starting from ``seed``.

    Raises BudgetExceededError when a configured class-count or step
    budget is hit (arbitrary move sets may have infinite closures).
    ``workers > 1`` parallelizes frontier expansion without changing
    the result.  Each distinct graph is canonicalized once per call;
    rediscoveries are looked up, and still count as expansion steps.
    """
    # Equal graphs have equal forms.  Two worker threads may both fill
    # one key; they write the same value.
    forms: dict[LabeledGraph, tuple[int, ...]] = {}

    def form(h: LabeledGraph) -> tuple[int, ...]:
        key = forms.get(h)
        if key is None:
            key = forms[h] = canonical_graph(h)
        return key

    seen = {form(seed)}
    frontier = [seed]
    steps = 0

    def expand(g: LabeledGraph) -> list[tuple[tuple[int, ...], LabeledGraph]]:
        out = []
        for move in moves:
            for h in move.apply_all(g):
                out.append((form(h), h))
        return out

    pool = ThreadPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        while frontier:
            if pool is not None:
                batches = list(pool.map(expand, frontier))
            else:
                batches = [expand(g) for g in frontier]
            next_frontier = []
            for batch in batches:
                for key, h in batch:
                    steps += 1
                    if max_steps is not None and steps > max_steps:
                        raise BudgetExceededError("step", max_steps)
                    if key in seen:
                        continue
                    seen.add(key)
                    if max_classes is not None and len(seen) > max_classes:
                        raise BudgetExceededError("class", max_classes)
                    next_frontier.append(h)
            frontier = next_frontier
    finally:
        if pool is not None:
            pool.shutdown(wait=False)

    return ClosureResult(
        classes=frozenset(seen), class_count=len(seen), expansion_steps=steps
    )


# Triples embed as rigid 3-cycles: node k carries label k, so the only
# self-isomorphism is the identity, and the edge after node k carries the
# k-th component.  Distinct triples therefore encode to distinct classes.


def encode_triple(t: Triple) -> LabeledGraph:
    """Rigid encoding: tuple order is visible to the isomorphism test."""
    return _encode(t.a, t.b, t.c)


def _encode(a: int, b: int, c: int) -> LabeledGraph:
    return LabeledGraph(
        node_labels=(0, 1, 2),
        edges=((0, 1, a, 1), (0, 2, c, 1), (1, 2, b, 1)),
    )


def decode_triple(g: LabeledGraph) -> Triple:
    """Inverse of :func:`encode_triple`; raises ValueError off the image."""
    if g.node_labels != (0, 1, 2):
        raise ValueError(f"not a rigid triple encoding: nodes {g.node_labels}")
    by_pair = {(u, v): (label, mult) for (u, v, label, mult) in g.edges}
    if len(g.edges) != 3 or set(by_pair) != {(0, 1), (1, 2), (0, 2)}:
        raise ValueError(f"not a rigid triple encoding: edges {g.edges}")
    if any(mult != 1 for (_, mult) in by_pair.values()):
        raise ValueError("triple encoding edges must have multiplicity 1")
    return Triple(by_pair[(0, 1)][0], by_pair[(1, 2)][0], by_pair[(0, 2)][0])


def _triple_move(act: Callable[[int, int, int], tuple[int, int, int]]):
    """Move by a signed permutation of components.

    The components are read straight off the edge tuple once it has the
    exact shape :func:`_encode` writes, with int components inside the
    bound; any other graph goes through :func:`decode_triple`, which
    raises its ValueError off the image.  The image is encoded from
    plain ints, valid because the component bound is symmetric.
    """
    def apply_all(g: LabeledGraph) -> list[LabeledGraph]:
        edges = g.edges
        if g.node_labels == (0, 1, 2) and len(edges) == 3:
            (_, _, a, _), (_, _, c, _), (_, _, b, _) = edges
            if (edges == ((0, 1, a, 1), (0, 2, c, 1), (1, 2, b, 1))
                    and _plain_components(a, b, c)):
                return [_encode(*act(a, b, c))]
        t = decode_triple(g)
        return [_encode(*act(t.a, t.b, t.c))]

    return apply_all


MOVE_SETS: dict[str, list[MoveOperator]] = {
    "none": [],
    "triple_group": [
        MoveOperator(name="shift",
                     apply_all=_triple_move(_ACTIONS[GroupElement.S])),
        MoveOperator(name="involution",
                     apply_all=_triple_move(_ACTIONS[GroupElement.I])),
    ],
}
