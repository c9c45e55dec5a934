"""Labelled multigraphs, canonical forms, and isomorphism testing.

Canonicalization is brute force (ordering search with colour-partition
pruning and twin pruning inside each refinement cell) and bounded at
MAX_NODES nodes; the models under study have two or three components,
so desk scale needs nothing cleverer.  The order is forced, and no
search runs, in three cases, tried in this order: the node labels
increase with the node index (the rigid triple encodings); the first
colouring, by label and incident (edge label, mult) pairs, is already
discrete; or refinement makes it discrete.  The search itself lives in
``moricensus._canon_py``; its integer tuple is the canonical form.

Graph file format (UTF-8, line-oriented; ``#`` starts a comment):

    node <id> label=<int>
    edge <id> <id> label=<int> [mult=<int>]

Node ids are arbitrary word tokens, unique per file; mult defaults to 1.
"""

from __future__ import annotations

import re
from typing import Iterable

from ._canon_py import canonical_sequence as _canonical_sequence
from ._record import Record
from .errors import ConfigError, SizeLimitError

__all__ = [
    "LabeledGraph",
    "MAX_NODES",
    "canonical_backend",
    "canonical_graph",
    "iso",
    "parse_graph_file",
]

MAX_NODES = 12


def canonical_backend() -> str:
    """Which kernel is active; there is one, the pure-Python search."""
    return "pure"


def _check_int(what: str, value) -> None:
    """Triple's rule for components: an int, and not a bool."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} must be an int, got {value!r}")


def _check_edge_ints(u, v, label, mult) -> None:
    """Endpoints, label and multiplicity of an edge follow the same rule."""
    _check_int("edge endpoint", u)
    _check_int("edge endpoint", v)
    _check_int("edge label", label)
    _check_int("edge multiplicity", mult)


class LabeledGraph(Record):
    """Immutable labelled multigraph on nodes 0..n-1.

    ``node_labels[k]`` is the integer label of node k.  ``edges`` holds
    normalized entries ``(u, v, label, mult)`` with u < v, unique
    (u, v, label), mult >= 1, sorted; parallel same-label edges are
    represented by mult.  Endpoints, labels and multiplicities are ints,
    never bools.  Use :meth:`build` to normalize raw edge data.
    """

    __slots__ = ("node_labels", "edges")

    def __post_init__(self):
        n = len(self.node_labels)
        for label in self.node_labels:
            if type(label) is not int:
                _check_int("node label", label)
        prev = None
        for entry in self.edges:
            u, v, label, mult = entry
            if not (type(u) is int and type(v) is int
                    and type(label) is int and type(mult) is int):
                _check_edge_ints(u, v, label, mult)
            if not 0 <= u < v < n:
                raise ValueError(f"bad edge endpoints {entry} for {n} nodes")
            if mult < 1:
                raise ValueError(f"edge multiplicity must be >= 1: {entry}")
            key = (u, v, label)
            if prev is not None and key <= prev:
                raise ValueError("edges must be sorted with unique (u, v, label)")
            prev = key

    @classmethod
    def build(
        cls,
        node_labels: Iterable[int],
        edges: Iterable[tuple[int, ...]] = (),
    ) -> "LabeledGraph":
        """Normalize raw edges: orient pairs, merge multiplicities, sort.

        Edge tuples are ``(u, v, label)`` or ``(u, v, label, mult)``.
        """
        labels = tuple(node_labels)
        n = len(labels)
        merged: dict[tuple[int, int, int], int] = {}
        for raw in edges:
            if len(raw) == 3:
                u, v, label = raw
                mult = 1
            elif len(raw) == 4:
                u, v, label, mult = raw
            else:
                raise ValueError(f"edge must have 3 or 4 fields: {raw!r}")
            # before merging: False and 0 would share a key
            _check_edge_ints(u, v, label, mult)
            if u == v:
                raise ValueError(f"self-loop on node {u} not supported")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge endpoint out of range: {raw!r}")
            if mult < 1:
                raise ValueError(f"edge multiplicity must be >= 1: {raw!r}")
            key = (min(u, v), max(u, v), label)
            merged[key] = merged.get(key, 0) + mult
        normalized = tuple(
            (u, v, label, mult) for (u, v, label), mult in sorted(merged.items())
        )
        return cls(node_labels=labels, edges=normalized)

    @property
    def n(self) -> int:
        return len(self.node_labels)


def canonical_graph(g: LabeledGraph) -> tuple[int, ...]:
    """Canonical form: equal tuples iff isomorphic labelled multigraphs.

    The tuple is the kernel's flat encoding (see ``_canon_py``); forms
    are meant to be compared and hashed, not read.
    """
    labels = g.node_labels
    n = len(labels)
    if n > MAX_NODES:
        raise SizeLimitError(n, MAX_NODES)
    return _canonical_sequence(n, labels, g.edges)


def iso(g1: LabeledGraph, g2: LabeledGraph) -> bool:
    """Isomorphism test by canonical-form comparison."""
    return canonical_graph(g1) == canonical_graph(g2)


_NODE_RE = re.compile(r"node\s+(\S+)\s+label=(-?\d+)\s*$")
_EDGE_RE = re.compile(
    r"edge\s+(\S+)\s+(\S+)\s+label=(-?\d+)(?:\s+mult=(\d+))?\s*$"
)


def parse_graph_file(text: str) -> LabeledGraph:
    """Parse the line-oriented graph format into a normalized graph.

    Raises ConfigError with a line number on malformed input, unknown
    node references, or duplicate node ids.
    """
    ids: dict[str, int] = {}
    labels: list[int] = []
    raw_edges: list[tuple[int, int, int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("node"):
            m = _NODE_RE.match(line)
            if not m:
                raise ConfigError("malformed node line", line=lineno)
            name, label = m.group(1), int(m.group(2))
            if name in ids:
                raise ConfigError(f"duplicate node id {name!r}", line=lineno,
                                  field="node")
            ids[name] = len(labels)
            labels.append(label)
        elif line.startswith("edge"):
            m = _EDGE_RE.match(line)
            if not m:
                raise ConfigError("malformed edge line", line=lineno)
            a, b = m.group(1), m.group(2)
            for name in (a, b):
                if name not in ids:
                    raise ConfigError(
                        f"edge references unknown node {name!r}",
                        line=lineno,
                        field="edge",
                    )
            if a == b:
                raise ConfigError("self-loops are not supported", line=lineno,
                                  field="edge")
            mult = int(m.group(4)) if m.group(4) else 1
            raw_edges.append((ids[a], ids[b], int(m.group(3)), mult))
        else:
            raise ConfigError(
                f"expected 'node' or 'edge', got {line.split()[0]!r}", line=lineno
            )
    try:
        return LabeledGraph.build(labels, raw_edges)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
