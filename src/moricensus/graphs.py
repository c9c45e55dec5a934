"""Labelled multigraphs, canonical forms, and isomorphism testing.

Canonicalization is brute force (ordering search with colour-partition
pruning and twin pruning inside each refinement cell) and bounded at
MAX_NODES nodes; the models under study have two or three components,
so desk scale needs nothing cleverer.  The search lives in
``moricensus._canon_py``, which :func:`canonical_graph`, its only
entry, imports when it is called; its integer tuple is the canonical
form.

:func:`iso` decides a pair in this order: both graphs are held to
MAX_NODES; graphs whose node counts or sorted ``(edge label, mult)``
pairs differ are not isomorphic; graphs whose sorted node keys (label,
degree and sums over incident edges) differ are not isomorphic; when
those keys are pairwise distinct, the one map they force decides;
otherwise their canonical forms are compared.  The multiset check
decides the non-isomorphic half of ``perfbench``'s canon-search
workload (mutants with one edge multiplicity raised), and the forced
map most of its relabelled random multigraphs, with no canonical form
and without loading the kernel.  No CLI subcommand computes a canonical
form, and the graph-file patterns compile with the first graph file
parsed (only ``closure`` reads one), so a process that does neither
compiles neither.

Graph file format (UTF-8, line-oriented; ``#`` starts a comment):

    node <id> label=<int>
    edge <id> <id> label=<int> [mult=<int>]

Node ids are arbitrary word tokens, unique per file; mult defaults to 1.
An ``<int>`` is ASCII digits, ``0-9``, with an optional leading ``-`` for
labels.
"""

from __future__ import annotations

import re
from operator import itemgetter
from typing import Iterable

from ._record import Record
from .errors import ConfigError, check_int, config_int

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


def _check_edge_ints(u, v, label, mult) -> None:
    """Endpoints, label and multiplicity of an edge follow Triple's int rule."""
    check_int("edge endpoint", u)
    check_int("edge endpoint", v)
    check_int("edge label", label)
    check_int("edge multiplicity", mult)


class LabeledGraph(Record):
    """Immutable labelled multigraph on nodes 0..n-1.

    ``node_labels[k]`` is the integer label of node k.  ``edges`` holds
    normalized entries ``(u, v, label, mult)`` with u < v, unique
    (u, v, label), mult >= 1, sorted; parallel same-label edges are
    represented by mult.  Endpoints, labels and multiplicities are ints,
    never bools; data that breaks a rule is a ConfigError.  Use
    :meth:`build` to normalize raw edge data.
    """

    __slots__ = ("node_labels", "edges")

    def __post_init__(self):
        n = len(self.node_labels)
        for label in self.node_labels:
            check_int("node label", label)
        prev = None
        for entry in self.edges:
            u, v, label, mult = entry
            _check_edge_ints(u, v, label, mult)
            if not 0 <= u < v < n:
                raise ConfigError(f"bad edge endpoints {entry} for {n} nodes")
            if mult < 1:
                raise ConfigError(f"edge multiplicity must be >= 1: {entry}")
            key = (u, v, label)
            if prev is not None and key <= prev:
                raise ConfigError("edges must be sorted with unique (u, v, label)")
            prev = key

    @classmethod
    def build(
        cls,
        node_labels: Iterable[int],
        edges: Iterable[tuple[int, ...]] = (),
    ) -> "LabeledGraph":
        """Normalize raw edges: orient pairs, merge multiplicities, sort.

        Edge tuples are ``(u, v, label)`` or ``(u, v, label, mult)``.
        A malformed edge is a ConfigError.
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
                raise ConfigError(f"edge must have 3 or 4 fields: {raw!r}")
            # before merging: False and 0 would share a key
            _check_edge_ints(u, v, label, mult)
            if u == v:
                raise ConfigError(f"self-loop on node {u} not supported")
            if not (0 <= u < n and 0 <= v < n):
                raise ConfigError(f"edge endpoint out of range: {raw!r}")
            if mult < 1:
                raise ConfigError(f"edge multiplicity must be >= 1: {raw!r}")
            key = (min(u, v), max(u, v), label)
            merged[key] = merged.get(key, 0) + mult
        normalized = tuple(
            (u, v, label, mult) for (u, v, label), mult in sorted(merged.items())
        )
        return cls(node_labels=labels, edges=normalized)


def _bounded(g: LabeledGraph) -> int:
    """Node count of ``g``; ConfigError above MAX_NODES."""
    n = len(g.node_labels)
    if n > MAX_NODES:
        raise ConfigError(
            f"graph has {n} nodes, above the canonicalizer bound {MAX_NODES}")
    return n


def canonical_graph(g: LabeledGraph) -> tuple[int, ...]:
    """Canonical form: equal tuples iff isomorphic labelled multigraphs.

    The tuple is the kernel's flat encoding (see ``_canon_py``); forms
    are meant to be compared and hashed, not read.  Raises ConfigError
    above MAX_NODES nodes.
    """
    from ._canon_py import canonical_sequence

    return canonical_sequence(_bounded(g), g.node_labels, g.edges)


# an edge's (edge label, mult) pair
_edge_key = itemgetter(2, 3)


def iso(g1: LabeledGraph, g2: LabeledGraph) -> bool:
    """Isomorphism test: multiset invariants, node keys, canonical forms.

    Both graphs are held to MAX_NODES (ConfigError above it, in either
    position).  Graphs whose node counts or ``(edge label, mult)``
    multisets differ are not isomorphic.  Next each node gets the key
    ``(label, degree, sum of edge labels, sum of mults, sum of edge
    label * mult)`` over its incident edges, which no isomorphism
    changes, so graphs whose sorted keys differ are not isomorphic.
    When the keys are pairwise distinct, an isomorphism can only send
    each node of ``g1`` to the node of ``g2`` with its key, and one check
    of that map decides the pair.  Only when two keys tie are the
    canonical forms computed and compared.
    """
    n = _bounded(g1)
    if (n != _bounded(g2)
            or sorted(map(_edge_key, g1.edges))
            != sorted(map(_edge_key, g2.edges))):
        return False
    keys1, keys2 = [], []
    for g, keys in ((g1, keys1), (g2, keys2)):
        degree = [0] * n
        sum_e = [0] * n
        sum_m = [0] * n
        sum_em = [0] * n
        for (u, v, e, m) in g.edges:
            em = e * m
            degree[u] += 1
            degree[v] += 1
            sum_e[u] += e
            sum_e[v] += e
            sum_m[u] += m
            sum_m[v] += m
            sum_em[u] += em
            sum_em[v] += em
        keys.extend(zip(g.node_labels, degree, sum_e, sum_m, sum_em))
    if sorted(keys1) != sorted(keys2):
        return False
    node2 = dict(zip(keys2, range(n)))
    if len(node2) < n:
        return canonical_graph(g1) == canonical_graph(g2)
    image = [node2[key] for key in keys1]
    # equal degree sums give equal entry counts, and the map is a
    # bijection, so every mapped entry found in g2's edges means equal sets
    target = set(g2.edges)
    for (u, v, e, m) in g1.edges:
        a = image[u]
        b = image[v]
        if ((a, b, e, m) if a < b else (b, a, e, m)) not in target:
            return False
    return True


# pattern strings, compiled by ``re``'s cache on the first graph file
_NODE_RE = r"node\s+(\S+)\s+label=(-?[0-9]+)\s*$"
_EDGE_RE = r"edge\s+(\S+)\s+(\S+)\s+label=(-?[0-9]+)(?:\s+mult=([0-9]+))?\s*$"


def parse_graph_file(text: str) -> LabeledGraph:
    """Parse the line-oriented graph format into a normalized graph.

    Raises ConfigError with a line number on malformed input, unknown
    node references, duplicate node ids, self-loops, a multiplicity
    below 1 or an integer too long to convert.  What reaches
    ``LabeledGraph.build`` is then valid edges.
    """
    ids: dict[str, int] = {}
    labels: list[int] = []
    raw_edges: list[tuple[int, int, int, int]] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("node"):
            m = re.match(_NODE_RE, line)
            if not m:
                raise ConfigError("malformed node line", line=lineno)
            name = m.group(1)
            label = config_int(m.group(2), line=lineno, field="label")
            if name in ids:
                raise ConfigError(f"duplicate node id {name!r}", line=lineno,
                                  field="node")
            ids[name] = len(labels)
            labels.append(label)
        elif line.startswith("edge"):
            m = re.match(_EDGE_RE, line)
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
            label = config_int(m.group(3), line=lineno, field="label")
            mult = config_int(m.group(4) or "1", line=lineno, field="mult")
            if mult < 1:
                raise ConfigError(f"edge multiplicity must be >= 1, got {mult}",
                                  line=lineno, field="mult")
            raw_edges.append((ids[a], ids[b], label, mult))
        else:
            raise ConfigError(
                f"expected 'node' or 'edge', got {line.split()[0]!r}", line=lineno
            )
    return LabeledGraph.build(labels, raw_edges)
