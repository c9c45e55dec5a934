"""Exception types raised by the census and audit machinery.

Every error carries the offending data as attributes so reports can
print actionable diffs instead of bare messages.  :func:`config_int` is
the config parsers' one way to read an integer field.
"""

from __future__ import annotations


class MoricensusError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(MoricensusError):
    """Malformed input: a declared-census config, graph or claims file
    that breaks its rules, or a triple past the component bound.

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


def config_int(text: str, *, line: int, field: str) -> int:
    """``int(text)`` for a config field that matched an integer pattern.

    Raises ConfigError at ``line`` and ``field`` for a literal past the
    interpreter's int-conversion limit, which ``int`` rejects with a
    bare ValueError.
    """
    try:
        return int(text)
    except ValueError:
        raise ConfigError(
            f"integer of {len(text.lstrip('-'))} digits is too long",
            line=line, field=field,
        ) from None


class ParseError(MoricensusError):
    """Malformed claims-DSL input, with 1-based line and column."""

    def __init__(self, message, *, line, column):
        self.line = line
        self.column = column
        super().__init__(f"{message} (line {line}, column {column})")


class InvariantError(MoricensusError):
    """A computed record breaks an invariant such as orbit-stabilizer."""


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

