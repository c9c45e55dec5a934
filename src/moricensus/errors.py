"""Exception types raised by the census and audit machinery.

Every error carries the offending data as attributes so reports can
print actionable diffs instead of bare messages.
"""

from __future__ import annotations


class MoricensusError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(MoricensusError):
    """Malformed declared-census config or graph file.

    ``line`` is the 1-based line number when known; ``field`` names the
    offending key or token.
    """

    def __init__(self, message, *, line=None, field=None):
        self.line = line
        self.field = field
        where = []
        if line is not None:
            where.append(f"line {line}")
        if field is not None:
            where.append(f"field {field!r}")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(message + suffix)


class ParseError(MoricensusError):
    """Malformed claims-DSL input, with 1-based line and column."""

    def __init__(self, message, *, line, column):
        self.line = line
        self.column = column
        super().__init__(f"{message} (line {line}, column {column})")


class DuplicateClassError(MoricensusError):
    """Two generated triples share an equivalence class.

    Signals an enumeration or group-action fault; carries both triples.
    """

    def __init__(self, first, second, key):
        self.first = first
        self.second = second
        self.key = key
        super().__init__(
            f"triples {first} and {second} share canonical key {key}"
        )


class SizeLimitError(MoricensusError):
    """Graph exceeds the brute-force canonicalizer's node bound."""

    def __init__(self, nodes, bound):
        self.nodes = nodes
        self.bound = bound
        super().__init__(
            f"graph has {nodes} nodes, above the canonicalizer bound {bound}"
        )


class BudgetExceededError(MoricensusError):
    """Closure search hit a configured class-count or step budget."""

    def __init__(self, kind, budget):
        self.kind = kind
        self.budget = budget
        super().__init__(f"closure exceeded {kind} budget of {budget}")
