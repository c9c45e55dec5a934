"""Exception types raised by the census and audit machinery.

:class:`ConfigError` is every malformed input (a config, claims or
graph file, a CLI value, a graph past the canonicalizer bound) and
names where it is by line, column and field; the other subclasses of
:class:`MoricensusError` are verification failures.  Every error
carries the offending data as attributes so reports can print
actionable diffs instead of bare messages.  :func:`config_int` is the
input parsers' one way to read an integer.
"""

from __future__ import annotations


class MoricensusError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(MoricensusError):
    """Malformed input: a declared-census config, graph or claims file
    that breaks its rules, a triple past the component bound, or a graph
    past the canonicalizer's node bound.

    ``line`` and ``column`` are 1-based when known; ``field`` names the
    offending key or token.
    """

    def __init__(self, message, *, line=None, column=None, field=None):
        self.line = line
        self.column = column
        self.field = field
        where = [f"{name} {value!r}" for name, value in
                 (("line", line), ("column", column), ("field", field))
                 if value is not None]
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(message + suffix)


def config_int(text: str, *, line: int, column: int | None = None,
               field: str | None = None) -> int:
    """``int(text)`` for an input token that matched an integer pattern.

    Raises ConfigError at ``line``, ``column`` and ``field`` for a
    literal past the interpreter's int-conversion limit, which ``int``
    rejects with a bare ValueError.
    """
    try:
        return int(text)
    except ValueError:
        raise ConfigError(
            f"integer of {len(text.lstrip('-'))} digits is too long",
            line=line, column=column, field=field,
        ) from None


class InvariantError(MoricensusError):
    """A computed value breaks an invariant: an orbit that breaks
    orbit-stabilizer (raised by ``triples.orbit`` alone), or a cone count
    asked of an impossible split."""


class DuplicateClassError(MoricensusError):
    """Two generated triples share an equivalence class.

    Signals an enumeration or group-action fault; carries both triples,
    plain tuples, and their shared key, the duplicate's witness.
    """

    def __init__(self, first, second, key):
        self.first = first
        self.second = second
        self.key = key
        super().__init__(
            f"triples {first} and {second} share canonical key {key}"
        )
