"""Arithmetic claims DSL: parse, evaluate exactly, and audit.

One claim per line (``#`` starts a comment):

    claim <name>: <expr> == <expr> expect=(holds|fails) [cite="<text>"]

Expressions are exact integer arithmetic over literals of ASCII digits
with ``+``, binary and unary ``-``, ``*`` and parentheses; no floats, no
variables.
At most ``MAX_NESTING`` parentheses and unary minus signs may nest.
Whitespace within a line is insignificant.  ``expect=fails`` marks an
identity recorded from a source text that is arithmetically false; the
audit passes when it indeed fails.

The parser evaluates each side as it reads it, so a :class:`Claim`
holds the two sides' integer values.  Each literal and each ``+``,
``-`` or ``*`` result, from left to right, must lie within
``EVAL_GUARD``; a value past it is a ConfigError at the line and column
of the token that made it.
"""

from __future__ import annotations

import re

from ._record import Record
from .errors import ConfigError, config_int

__all__ = [
    "AuditReport",
    "Claim",
    "EVAL_GUARD",
    "MAX_NESTING",
    "Verdict",
    "evaluate",
    "evaluate_claims",
    "parse_claims",
]

# Claim arithmetic concerns double-digit censuses; anything this large is
# a malformed input, not a census.
EVAL_GUARD = 10**12

# Nested '(' and unary '-' each cost stack frames in the recursive-descent
# parser; a census claim needs a handful, and the bound keeps the parser
# well inside Python's recursion limit.
MAX_NESTING = 100


class Claim(Record):
    __slots__ = ("name", "lhs", "rhs", "expect_holds", "cite")
    _defaults = {"cite": ""}


class Verdict(Record):
    __slots__ = ("name", "holds", "lhs_value", "rhs_value", "expect_holds", "cite")
    _defaults = {"cite": ""}

    @property
    def as_expected(self) -> bool:
        return self.holds == self.expect_holds


class AuditReport(Record):
    """Verdicts plus free-form findings; exit_status is 0 only when every
    claim behaved as its ``expect`` marker demands."""

    __slots__ = ("verdicts", "findings")
    _defaults = {"findings": ()}

    @property
    def exit_status(self) -> int:
        return 0 if all(v.as_expected for v in self.verdicts) else 1


_TOKEN_RE = re.compile(r"\s*(?:(?P<int>[0-9]+)|(?P<op>[()+\-*])|(?P<bad>\S))")


class _ExprParser:
    """Recursive-descent parser over one line's expression region; each
    rule returns the guarded value of what it read.

    The region is lexed in one pass into ``(kind, text, column)`` tokens,
    closed by an ``("end", "", len(text))`` token, so the parser reads
    the current token without a bounds check.
    """

    def __init__(self, text: str, lineno: int, offset: int):
        self.text = text
        self.lineno = lineno
        self.offset = offset  # column of text[0] in the original line, 0-based
        self.tokens: list[tuple[str, str, int]] = []
        self._tokenize()
        self.index = 0
        self.depth = 0  # open '(' and unary '-' around the current token

    def _tokenize(self):
        append = self.tokens.append
        for m in _TOKEN_RE.finditer(self.text):
            kind = m.lastgroup
            if kind == "bad":
                self._fail(f"unexpected character {m[kind]!r}", m.start(kind))
            append((kind, m[kind], m.start(kind)))
        append(("end", "", len(self.text)))

    def _fail(self, message: str, col_in_text: int):
        raise ConfigError(message, line=self.lineno, column=self.offset + col_in_text + 1)

    def _next(self):
        tok = self.tokens[self.index]
        if tok[0] == "end":
            self._fail("unexpected end of expression", tok[2])
        self.index += 1
        return tok

    def _checked(self, value: int, col_in_text: int) -> int:
        if abs(value) > EVAL_GUARD:
            self._fail(f"claim value {value} outside guarded range +/-{EVAL_GUARD}",
                       col_in_text)
        return value

    def parse(self) -> int:
        value = self._sum()
        tok = self.tokens[self.index]
        if tok[0] != "end":
            self._fail(f"trailing token {tok[1]!r}", tok[2])
        return value

    def _sum(self) -> int:
        value = self._term()
        tok = self.tokens[self.index]
        while tok[1] == "+" or tok[1] == "-":
            self.index += 1
            right = self._term()
            value = self._checked(value + right if tok[1] == "+" else value - right,
                                  tok[2])
            tok = self.tokens[self.index]
        return value

    def _term(self) -> int:
        value = self._factor()
        tok = self.tokens[self.index]
        while tok[1] == "*":
            self.index += 1
            value = self._checked(value * self._factor(), tok[2])
            tok = self.tokens[self.index]
        return value

    def _factor(self) -> int:
        tok = self._next()
        if tok[0] == "int":
            return self._checked(config_int(tok[1], line=self.lineno,
                                            column=self.offset + tok[2] + 1), tok[2])
        if tok[1] not in "-(":
            self._fail(f"expected integer, '-' or '(', got {tok[1]!r}", tok[2])
        if self.depth == MAX_NESTING:
            self._fail(f"more than {MAX_NESTING} nested '(' or '-'", tok[2])
        self.depth += 1
        if tok[1] == "-":
            # the guarded range is symmetric, so a negated value stays in it
            value = -self._factor()
        else:
            value = self._sum()
            closing = self._next()
            if closing[1] != ")":
                self._fail(f"expected ')', got {closing[1]!r}", closing[2])
        self.depth -= 1
        return value


_CLAIM_RE = re.compile(
    r"claim\s+([A-Za-z_][A-Za-z0-9_]*)\s*:\s*(.*?)\s*"
    r"expect\s*=\s*(holds|fails)\s*(?:cite\s*=\s*\"([^\"]*)\")?\s*$"
)


def parse_claims(text: str) -> list[Claim]:
    """Parse a claims file; every fault is a ConfigError with line and
    column."""
    claims: list[Claim] = []
    names: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        if not stripped.startswith("claim"):
            raise ConfigError(
                f"expected 'claim', got {stripped.split()[0]!r}",
                line=lineno,
                column=line.index(stripped[0]) + 1,
            )
        m = _CLAIM_RE.match(stripped)
        if not m:
            raise ConfigError("malformed claim line", line=lineno, column=1)
        name, body, expect, cite = m.groups()
        if name in names:
            raise ConfigError(f"duplicate claim name {name!r}", line=lineno, column=1)
        names.add(name)
        if "==" not in body:
            raise ConfigError("claim needs '<expr> == <expr>'", line=lineno, column=1)
        lhs_text, _, rhs_text = body.partition("==")
        base = line.index(stripped[0]) + m.start(2)
        lhs = _ExprParser(lhs_text, lineno, base).parse()
        rhs = _ExprParser(rhs_text, lineno, base + len(lhs_text) + 2).parse()
        claims.append(
            Claim(
                name=name,
                lhs=lhs,
                rhs=rhs,
                expect_holds=(expect == "holds"),
                cite=cite or "",
            )
        )
    return claims


def evaluate(claim: Claim) -> Verdict:
    """Compare a claim's two sides, evaluated when it was parsed."""
    return Verdict(
        name=claim.name,
        holds=(claim.lhs == claim.rhs),
        lhs_value=claim.lhs,
        rhs_value=claim.rhs,
        expect_holds=claim.expect_holds,
        cite=claim.cite,
    )


def evaluate_claims(claims: list[Claim]) -> AuditReport:
    """Evaluate every claim; expected failures become findings."""
    verdicts = tuple(evaluate(c) for c in claims)
    findings = tuple(
        f"claim {v.name}: recorded identity fails as expected "
        f"({v.lhs_value} != {v.rhs_value})"
        + (f" [{v.cite}]" if v.cite else "")
        for v in verdicts
        if not v.expect_holds and not v.holds
    )
    return AuditReport(verdicts=verdicts, findings=findings)
