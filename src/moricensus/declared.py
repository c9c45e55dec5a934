"""Declared counts and the line-oriented config format that carries them.

Counts whose defining enumeration lives in the companion case analysis
(two-component models, very-degenerate three-component models) are
inputs, not computations.  They ship in a config file so alternative
readings of the source text can be audited with the same engine.

Config grammar (UTF-8, one entry per line; ``#`` starts a comment):

    entry <label>: count=<int> breakdown=<int>[+<int>]* cite="<text>"

``label`` is ``[A-Za-z_][A-Za-z0-9_]*``.  ``count`` is required and
non-negative; ``breakdown`` and ``cite`` are optional.  Unknown keys are
rejected.  A breakdown must sum to the count.
"""

from __future__ import annotations

import re
from importlib import resources

from ._record import Record
from .errors import ConfigError

__all__ = ["DeclaredEntry", "default_declared_text", "load_declared"]


class DeclaredEntry(Record):
    """A count taken on trust, with its citation and optional addends."""

    __slots__ = ("label", "count", "provenance", "breakdown")
    _defaults = {"provenance": "", "breakdown": None}


_LABEL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")
_INT_RE = re.compile(r"-?\d+$")
_KEY_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)=")


def _parse_entry_line(line: str, lineno: int) -> DeclaredEntry:
    body = line[len("entry"):].strip()
    if ":" not in body:
        raise ConfigError("missing ':' after entry label", line=lineno)
    label, _, rest = body.partition(":")
    label = label.strip()
    if not _LABEL_RE.match(label):
        raise ConfigError(f"bad entry label {label!r}", line=lineno, field="label")

    fields: dict[str, str] = {}
    pos = 0
    rest = rest.strip()
    while pos < len(rest):
        m = _KEY_RE.match(rest, pos)
        if not m:
            raise ConfigError(
                f"expected key=value, got {rest[pos:pos + 20]!r}", line=lineno
            )
        key = m.group(1)
        pos = m.end()
        if key in fields:
            raise ConfigError(f"duplicate key {key!r}", line=lineno, field=key)
        if pos < len(rest) and rest[pos] == '"':
            end = rest.find('"', pos + 1)
            if end < 0:
                raise ConfigError("unterminated quoted value", line=lineno, field=key)
            fields[key] = rest[pos + 1:end]
            pos = end + 1
        else:
            m2 = re.match(r"\S+", rest[pos:])
            if not m2:
                raise ConfigError(f"missing value for {key!r}", line=lineno, field=key)
            fields[key] = m2.group(0)
            pos += m2.end()
        while pos < len(rest) and rest[pos].isspace():
            pos += 1

    unknown = set(fields) - {"count", "breakdown", "cite"}
    if unknown:
        raise ConfigError(
            f"unknown key(s) {sorted(unknown)}", line=lineno, field=sorted(unknown)[0]
        )
    if "count" not in fields:
        raise ConfigError("missing count", line=lineno, field="count")
    if not _INT_RE.match(fields["count"]):
        raise ConfigError(
            f"count must be an integer, got {fields['count']!r}",
            line=lineno,
            field="count",
        )
    count = int(fields["count"])
    if count < 0:
        raise ConfigError(f"count must be non-negative, got {count}",
                          line=lineno, field="count")

    breakdown = None
    if "breakdown" in fields:
        parts = fields["breakdown"].split("+")
        for part in parts:
            if not _INT_RE.match(part):
                raise ConfigError(
                    f"breakdown addend {part!r} is not an integer",
                    line=lineno,
                    field="breakdown",
                )
        breakdown = tuple(int(p) for p in parts)
        if sum(breakdown) != count:
            raise ConfigError(
                f"breakdown {'+'.join(parts)}={sum(breakdown)} "
                f"does not sum to count={count}",
                line=lineno,
                field="breakdown",
            )

    return DeclaredEntry(
        label=label,
        count=count,
        provenance=fields.get("cite", ""),
        breakdown=breakdown,
    )


def load_declared(config_text: str) -> list[DeclaredEntry]:
    """Parse declared-census entries, validating breakdown sums.

    Raises ConfigError with line/field location on malformed input,
    duplicate labels, negative counts, or breakdown mismatches.
    """
    entries: list[DeclaredEntry] = []
    labels: set[str] = set()
    for lineno, raw in enumerate(config_text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not line.startswith("entry"):
            raise ConfigError(
                f"expected 'entry', got {line.split()[0]!r}", line=lineno
            )
        entry = _parse_entry_line(line, lineno)
        if entry.label in labels:
            raise ConfigError(
                f"duplicate entry label {entry.label!r}", line=lineno, field="label"
            )
        labels.add(entry.label)
        entries.append(entry)
    return entries


def default_declared_text() -> str:
    """Contents of the shipped declared-census config."""
    return (
        resources.files("moricensus").joinpath("data/declared.cfg").read_text("utf-8")
    )
