"""Arithmetic claims DSL: parse, evaluate exactly, and audit.

One claim per line, which ends at ``\\n`` alone (``#`` starts a comment
unless it is inside a quoted ``cite``):

    claim <name>: <expr> == <expr> expect=(holds|fails) [cite="<text>"]

Expressions are exact integer arithmetic over literals of ASCII digits
with ``+``, binary and unary ``-``, ``*`` and parentheses; no floats, no
variables.
At most ``MAX_NESTING`` parentheses and unary minus signs may nest.
Whitespace within a line is insignificant.  ``expect=fails`` marks an
identity recorded from a source text that is arithmetically false; the
audit passes when it indeed fails.

The parser evaluates each side as it reads it, so a line parses to
its :class:`Verdict`, which holds the two sides' integer values and
derives ``holds`` from them.  Each literal and each ``+``, ``-`` or
``*`` result, from left to right, must lie within ``EVAL_GUARD``; a
value past it is a ConfigError at the line and column of the token
that made it.  A side is lexed into plain string tokens;
a token's column is found only when a fault names it.
"""

from __future__ import annotations

import re

from ._record import Record
from .errors import ConfigError, config_int, strip_comment

__all__ = [
    "AuditReport",
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


class Verdict(Record):
    __slots__ = ("name", "lhs_value", "rhs_value", "expect_holds", "cite")
    _defaults = {"cite": ""}

    @property
    def holds(self) -> bool:
        return evaluate(self)

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


# one side's tokens; a character of neither class nor whitespace is stray
_TOKEN_RE = re.compile(r"[0-9]+|[()+*-]")
_STRAY_RE = re.compile(r"[^\s0-9()+*-]")

# ``int`` checks the int-conversion limit only past
# sys.int_info.str_digits_check_threshold digits: 640 on every CPython
# with the limit, which cannot be set lower, so shorter literals convert
_UNCHECKED_DIGITS = 640


class _ExprParser:
    """Recursive-descent parser over one line's expression region; each
    rule returns the guarded value of what it read.

    A side with a stray character fails before it is parsed.  Else one
    ``findall`` lexes it into string tokens, closed by an empty end
    token, so the parser reads the current token without a bounds
    check.  No token keeps its column: a fault finds it by lexing the
    side again.
    """

    def __init__(self, text: str, lineno: int, offset: int):
        self.text = text
        self.lineno = lineno
        self.offset = offset  # column of text[0] in the original line, 0-based
        stray = _STRAY_RE.search(text)
        if stray:
            raise ConfigError(f"unexpected character {stray[0]!r}", line=lineno,
                              column=offset + stray.start() + 1)
        self.tokens = _TOKEN_RE.findall(text)
        self.tokens.append("")
        self.index = 0
        self.depth = 0  # open '(' and unary '-' around the current token

    def _column(self, index: int) -> int:
        """The 1-based line column of token ``index``."""
        starts = [m.start() for m in _TOKEN_RE.finditer(self.text)] + [len(self.text)]
        return self.offset + starts[index] + 1

    def _fail(self, message: str, index: int):
        raise ConfigError(message, line=self.lineno, column=self._column(index))

    def _next(self) -> str:
        tok = self.tokens[self.index]
        if not tok:
            self._fail("unexpected end of expression", self.index)
        self.index += 1
        return tok

    def _checked(self, value: int, index: int) -> int:
        if abs(value) > EVAL_GUARD:
            self._fail(f"claim value {value} outside guarded range +/-{EVAL_GUARD}",
                       index)
        return value

    def parse(self) -> int:
        value = self._sum()
        tok = self.tokens[self.index]
        if tok:
            self._fail(f"trailing token {tok!r}", self.index)
        return value

    def _sum(self) -> int:
        value = self._term()
        tok = self.tokens[self.index]
        while tok == "+" or tok == "-":
            at = self.index
            self.index += 1
            right = self._term()
            value = self._checked(value + right if tok == "+" else value - right, at)
            tok = self.tokens[self.index]
        return value

    def _term(self) -> int:
        value = self._factor()
        while self.tokens[self.index] == "*":
            at = self.index
            self.index += 1
            value = self._checked(value * self._factor(), at)
        return value

    def _factor(self) -> int:
        at = self.index
        tok = self.tokens[at]
        if tok.isdigit():
            self.index = at + 1
            return self._checked(
                int(tok) if len(tok) <= _UNCHECKED_DIGITS
                else config_int(tok, line=self.lineno, column=self._column(at)), at)
        self._next()
        if tok != "-" and tok != "(":
            self._fail(f"expected integer, '-' or '(', got {tok!r}", at)
        if self.depth == MAX_NESTING:
            self._fail(f"more than {MAX_NESTING} nested '(' or '-'", at)
        self.depth += 1
        if tok == "-":
            # the guarded range is symmetric, so a negated value stays in it
            value = -self._factor()
        else:
            value = self._sum()
            closing = self._next()
            if closing != ")":
                self._fail(f"expected ')', got {closing!r}", self.index - 1)
        self.depth -= 1
        return value


_CLAIM_RE = re.compile(
    r"claim\s+([A-Za-z_][A-Za-z0-9_]*)\s*:\s*(.*?)\s*"
    r"expect\s*=\s*(holds|fails)\s*(?:cite\s*=\s*\"([^\"]*)\")?\s*$"
)


def parse_claims(text: str) -> list[Verdict]:
    """Parse a claims file into one verdict per claim; every fault is a
    ConfigError with line and column."""
    claims: list[Verdict] = []
    names: set[str] = set()
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = strip_comment(raw).rstrip()
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
        claims.append(Verdict(name, lhs, rhs, expect == "holds", cite or ""))
    return claims


def evaluate(verdict: Verdict) -> bool:
    """Whether a verdict's two sides, evaluated when parsed, are equal."""
    return verdict.lhs_value == verdict.rhs_value


def evaluate_claims(claims: list[Verdict]) -> AuditReport:
    """The report of parsed claims; expected failures become findings."""
    verdicts = tuple(claims)
    findings = tuple(
        f"claim {v.name}: recorded identity fails as expected "
        f"({v.lhs_value} != {v.rhs_value})"
        + (f" [{v.cite}]" if v.cite else "")
        for v in verdicts
        if not v.expect_holds and not v.holds
    )
    return AuditReport(verdicts=verdicts, findings=findings)
