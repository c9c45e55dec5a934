"""Labelled multigraphs, canonical forms, and isomorphism testing.

Canonicalization is brute force (ordering search with colour-partition
pruning and twin pruning inside each refinement cell) and bounded at
MAX_NODES nodes; the models under study have two or three components,
so desk scale needs nothing cleverer.  The order is forced, and no
search runs, in two cases, tried in this order: the first colouring, by
label and incident (edge label, mult) pairs, is already discrete (as on
the rigid triple encodings, whose labels are distinct); or refinement
makes it discrete.  The search itself lives in
``moricensus._canon_py``; its integer tuple is the canonical form, and
:func:`canonical_graph` is its only entry.

:func:`iso` decides a pair in this order: both graphs are held to
MAX_NODES; graphs whose node counts, sorted node labels or sorted
``(edge label, mult)`` pairs differ are not isomorphic; graphs whose
sorted node keys (label, degree and sums over incident edges) differ
are not isomorphic; when those keys are pairwise distinct, the one map
they force decides; otherwise their canonical forms are compared.  The
multiset check decides the non-isomorphic half of ``perfbench``'s
canon-search workload (mutants with one edge multiplicity raised), and
the forced map most of its relabelled random multigraphs, with no
canonical form.  The kernel module, which holds the node-key check
too, loads with the first ``iso`` past the multiset check or the first
canonical form (no CLI subcommand makes either), and the graph-file
patterns compile with the first graph file parsed (only ``closure``
reads one), so a process that does neither compiles neither.

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
from .errors import ConfigError, config_int

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


def _load_kernel():
    """Import the kernel and put its two entries in the stubs' place."""
    global _canonical_sequence, _iso_by_keys
    from ._canon_py import canonical_sequence as _canonical_sequence
    from ._canon_py import iso_by_keys as _iso_by_keys


def _stub(name):
    """Stand-in for the kernel entry ``name``: loads the kernel, which
    replaces both stand-ins, and calls through."""
    def load(*args):
        _load_kernel()
        return globals()[name](*args)
    return load


# the kernel's entries; the first call to either rebinds both to
# ``_canon_py``'s functions, so later calls go straight there
_canonical_sequence = _stub("_canonical_sequence")
_iso_by_keys = _stub("_iso_by_keys")


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
    return _canonical_sequence(_bounded(g), g.node_labels, g.edges)


# an edge's (edge label, mult) pair
_edge_key = itemgetter(2, 3)


def iso(g1: LabeledGraph, g2: LabeledGraph) -> bool:
    """Isomorphism test: multiset invariants, node keys, canonical forms.

    Both graphs are held to MAX_NODES (ConfigError above it, in either
    position).  Graphs whose node counts, node-label multisets or
    ``(edge label, mult)`` multisets differ are not isomorphic, and no
    canonical form is computed.  Next ``_canon_py.iso_by_keys`` decides
    the pair when the sorted node keys differ or are pairwise distinct;
    otherwise the canonical forms decide.
    """
    n = _bounded(g1)
    if (n != _bounded(g2)
            or sorted(g1.node_labels) != sorted(g2.node_labels)
            or sorted(map(_edge_key, g1.edges))
            != sorted(map(_edge_key, g2.edges))):
        return False
    decided = _iso_by_keys(n, g1.node_labels, g1.edges,
                           g2.node_labels, g2.edges)
    if decided is not None:
        return decided
    return canonical_graph(g1) == canonical_graph(g2)


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
    for lineno, raw in enumerate(text.splitlines(), start=1):
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
