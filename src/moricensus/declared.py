"""Declared counts and the line-oriented config format that carries them.

Counts whose defining enumeration lives in the companion case analysis
(two-component models, very-degenerate three-component models) are
inputs, not computations.  They ship in a config file so alternative
readings of the source text can be audited with the same engine.

Config grammar (UTF-8, one entry per line; ``#`` starts a comment
unless it is inside a quoted ``cite``):

    entry <label>: count=<int> breakdown=<int>[+<int>]* cite="<text>"

``label`` is ``[A-Za-z_][A-Za-z0-9_]*``.  An ``<int>`` is ASCII digits,
``0-9``, with an optional leading ``-``.  ``count`` is required and
non-negative; ``breakdown`` and ``cite`` are optional.  Unknown keys are
rejected.  A breakdown must sum to the count.  An integer too long for
the interpreter to convert is rejected like any other malformed value.
An entry loads as its count: the breakdown and the cite are checked,
not kept.
"""

from __future__ import annotations

import re
from importlib import resources

from .errors import ConfigError, config_int, strip_comment

__all__ = ["default_declared_text", "load_declared"]

_LABEL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")
_INT_RE = re.compile(r"-?[0-9]+$")
# one ``key=value`` field and the whitespace after it: a quoted value
# (group 2, with its closing quote in group 3 unless it runs to the end
# of the line) or a bare one (group 4, empty when the value is missing)
_FIELD_RE = re.compile(r'([A-Za-z_][A-Za-z0-9_]*)=(?:"([^"]*)(")?|(\S*))\s*')


def _parse_entry_line(line: str, lineno: int) -> tuple[str, int]:
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
        m = _FIELD_RE.match(rest, pos)
        if not m:
            raise ConfigError(
                f"expected key=value, got {rest[pos:pos + 20]!r}", line=lineno
            )
        key, quoted, closed, bare = m.groups()
        if key in fields:
            raise ConfigError(f"duplicate key {key!r}", line=lineno, field=key)
        if quoted is not None:
            if closed is None:
                raise ConfigError("unterminated quoted value", line=lineno, field=key)
            fields[key] = quoted
        elif bare:
            fields[key] = bare
        else:
            raise ConfigError(f"missing value for {key!r}", line=lineno, field=key)
        pos = m.end()

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
    count = config_int(fields["count"], line=lineno, field="count")
    if count < 0:
        raise ConfigError(f"count must be non-negative, got {count}",
                          line=lineno, field="count")

    if "breakdown" in fields:
        parts = fields["breakdown"].split("+")
        for part in parts:
            if not _INT_RE.match(part):
                raise ConfigError(
                    f"breakdown addend {part!r} is not an integer",
                    line=lineno,
                    field="breakdown",
                )
        total = sum([config_int(p, line=lineno, field="breakdown") for p in parts])
        if total != count:
            try:
                shown = f"={total}"
            except ValueError:  # a sum past the int-conversion limit
                shown = ""
            raise ConfigError(
                f"breakdown {'+'.join(parts)}{shown} "
                f"does not sum to count={count}",
                line=lineno,
                field="breakdown",
            )

    return label, count


def load_declared(config_text: str) -> dict[str, int]:
    """Parse declared-census entries into their counts by label, in file
    order, validating breakdown sums.

    Raises ConfigError with line/field location on malformed input,
    duplicate labels, negative counts, or breakdown mismatches.
    """
    counts: dict[str, int] = {}
    for lineno, raw in enumerate(config_text.split("\n"), start=1):
        line = strip_comment(raw).strip()
        if not line:
            continue
        head = line.split(None, 1)[0]
        if head != "entry":
            raise ConfigError(f"expected 'entry', got {head!r}", line=lineno)
        label, count = _parse_entry_line(line, lineno)
        if label in counts:
            raise ConfigError(
                f"duplicate entry label {label!r}", line=lineno, field="label"
            )
        counts[label] = count
    return counts


def default_declared_text() -> str:
    """Contents of the shipped declared-census config."""
    return (
        resources.files("moricensus").joinpath("data/declared.cfg").read_text("utf-8")
    )
