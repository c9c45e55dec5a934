"""Out-of-program tracing: spans and exact work counters around moricensus.

``Tracer.install()`` wraps the layer entry points of each moricensus
module and rebinds every name that refers to them in every loaded
``moricensus`` module, so calls made through ``from .x import f`` are
traced too.  ``Triple.__post_init__`` is wrapped to count Triple
constructions.  The per-triple group-action primitives (``apply``,
``shift``, ``involution``) are not wrapped: they run tens of thousands
of times per verification and are visible through the Triple count.

A span is ``[name, start, end, parent, tag]``: ``parent`` is the index
of the enclosing span (-1 at top level) and ``tag`` is the graph class
the benchmark is feeding the program ("rigid", "random", "circulant"),
set by the caller before each operation.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict

# (module, function) pairs wrapped in a span; the span is named
# "<module>.<function>" without the package prefix.
SPANNED = [
    ("triples", "orbit"),
    ("families", "family_nondegenerate"),
    ("families", "family_one_degenerate"),
    ("families", "family_two_degenerate"),
    ("families", "regular_models"),
    ("cones", "build_census_report"),
    ("cones", "symmetric_p_models"),
    ("cones", "p_cone_count"),
    ("closure", "closure"),
    ("graphs", "canonical_graph"),
    ("graphs", "iso"),
    ("graphs", "parse_graph_file"),
    ("declared", "load_declared"),
    ("claims", "parse_claims"),
    ("claims", "evaluate"),
    ("claims", "evaluate_claims"),
    ("audit", "run_full_verification"),
    ("cli", "main"),
]

FAMILY_SPANS = (
    "families.family_nondegenerate",
    "families.family_one_degenerate",
    "families.family_two_degenerate",
)


def _result_counts(name, result, counts):
    """Exact work counts read off a traced call's return value."""
    if name == "closure.closure":
        counts["closure.expansion_steps"] += result.expansion_steps
        counts["closure.new_classes"] += result.class_count - 1
    elif name == "cones.build_census_report":
        counts["cones.models"] += result.p_models
    elif name == "declared.load_declared":
        counts["declared.entries"] += len(result)
    elif name == "claims.parse_claims":
        counts["claims.parsed"] += len(result)


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.tag = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def reset(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def _wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            spans = tracer.spans
            index = len(spans)
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1,
                    tracer.tag]
            spans.append(span)
            tracer._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                span[1] = start
                tracer._stack.pop()
            _result_counts(name, result, tracer.counts)
            return result

        return traced

    def _rebind(self, original, replacement):
        for modname, module in list(sys.modules.items()):
            if module is None or not (
                modname == "moricensus" or modname.startswith("moricensus.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self):
        for modname, fname in SPANNED:
            module = importlib.import_module(f"moricensus.{modname}")
            original = getattr(module, fname)
            self._rebind(original, self._wrap(f"{modname}.{fname}", original))

        triple_cls = importlib.import_module("moricensus.triples").Triple
        post_init = triple_cls.__post_init__
        tracer = self

        def counting_post_init(triple):
            tracer.counts["triples.triple_constructions"] += 1
            post_init(triple)

        self._patches.append((triple_cls, "__post_init__", post_init))
        triple_cls.__post_init__ = counting_post_init

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []


def layer_metrics(spans, counts, ops):
    """Per-operation layer metrics of one traced pass over ``ops`` operations.

    Times are seconds per operation unless the name says otherwise;
    counts are per operation; ratios carry their own base.
    """
    total = defaultdict(float)
    calls = Counter()
    child = defaultdict(float)
    for name, start, end, parent, _ in spans:
        total[name] += end - start
        calls[name] += 1
        if parent >= 0:
            child[parent] += end - start
    self_time = defaultdict(float)
    for index, (name, start, end, _, _) in enumerate(spans):
        self_time[name] += end - start - child[index]

    def under(index, ancestor):
        parent = spans[index][3]
        while parent >= 0:
            if spans[parent][0] == ancestor:
                return True
            parent = spans[parent][3]
        return False

    census_orbits = sum(
        1 for i, span in enumerate(spans)
        if span[0] == "triples.orbit" and under(i, "cones.build_census_report")
    )
    canon_time = defaultdict(float)
    canon_calls = Counter()
    for name, start, end, _, tag in spans:
        if name == "graphs.canonical_graph":
            canon_time[tag] += end - start
            canon_calls[tag] += 1

    def ratio(num, den):
        return num / den if den else 0.0

    out = {
        "triples.triple_constructions": counts["triples.triple_constructions"] / ops,
        "triples.orbit_calls": calls["triples.orbit"] / ops,
        "triples.orbit.s": total["triples.orbit"] / ops,
        "families.s": sum(total[n] for n in FAMILY_SPANS) / ops,
        "cones.build_census_report.s": total["cones.build_census_report"] / ops,
        "cones.orbit_calls_per_model": ratio(census_orbits, counts["cones.models"]),
        "closure.calls": calls["closure.closure"] / ops,
        "closure.expansion_steps": counts["closure.expansion_steps"] / ops,
        "closure.useful_ratio": ratio(
            counts["closure.new_classes"], counts["closure.expansion_steps"]
        ),
        "closure.self_s": self_time["closure.closure"] / ops,
        "graphs.canonical_graph.calls": calls["graphs.canonical_graph"] / ops,
        "graphs.canonical_graph.s": total["graphs.canonical_graph"] / ops,
        "declared.load_declared.s": total["declared.load_declared"] / ops,
        "declared.entries_per_s": ratio(
            counts["declared.entries"], total["declared.load_declared"]
        ),
        "claims.parse_claims.s": total["claims.parse_claims"] / ops,
        "claims.claims_per_s": ratio(
            counts["claims.parsed"], total["claims.parse_claims"]
        ),
        "claims.evaluate.s": total["claims.evaluate"] / ops,
        "audit.run_full_verification.s": total["audit.run_full_verification"] / ops,
        "audit.self_s": self_time["audit.run_full_verification"] / ops,
        "cli.main.s": total["cli.main"] / ops,
    }
    for tag in ("rigid", "random", "circulant"):
        out[f"graphs.canonical_graph.us_per_call.{tag}"] = 1e6 * ratio(
            canon_time[tag], canon_calls[tag]
        )
    return out


def exact_counts(spans, counts):
    """The machine-independent part of a pass: call and work counts."""
    exact = Counter(counts)
    for span in spans:
        exact[f"calls.{span[0]}"] += 1
    return dict(sorted(exact.items()))
