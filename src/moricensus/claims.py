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

A parsed expression is an :class:`IntLit`, a :class:`Neg`, or an n-ary
:class:`Sum` or :class:`Product`; a sum of one term or a product of one
factor is that term or factor itself.  A chain such as ``1 + 2 - 3`` is
one flat node, and only ``(`` and unary ``-`` nest, so the recursion of
equality, hashing, evaluation and formatting is bounded by
``MAX_NESTING``, however long the chains.
"""

from __future__ import annotations

import re
from typing import Union

from ._record import Record
from .errors import ConfigError, config_int

__all__ = [
    "AuditReport",
    "Claim",
    "EVAL_GUARD",
    "IntLit",
    "MAX_NESTING",
    "Neg",
    "Product",
    "Sum",
    "Verdict",
    "evaluate",
    "evaluate_claims",
    "format_claims",
    "parse_claims",
]

# Claim arithmetic concerns double-digit censuses; anything this large is
# a malformed input, not a census.
EVAL_GUARD = 10**12

# Nested '(' and unary '-' each cost stack frames in the recursive-descent
# parser and in every walk of the tree (equality, hashing, evaluation,
# formatting); a census claim needs a handful, and the bound keeps all of
# them well inside Python's recursion limit.
MAX_NESTING = 100


class IntLit(Record):
    __slots__ = ("value",)


class Neg(Record):
    __slots__ = ("operand",)


class Sum(Record):
    """Two or more ``(op, expr)`` terms; op is '+' or '-', the first '+'."""

    __slots__ = ("terms",)


class Product(Record):
    """Two or more factors."""

    __slots__ = ("factors",)


Expr = Union[IntLit, Neg, Sum, Product]


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
    """Recursive-descent parser over one line's expression region.

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

    def parse(self) -> Expr:
        expr = self._sum()
        tok = self.tokens[self.index]
        if tok[0] != "end":
            self._fail(f"trailing token {tok[1]!r}", tok[2])
        return expr

    def _sum(self) -> Expr:
        terms = [("+", self._term())]
        op = self.tokens[self.index][1]
        while op == "+" or op == "-":
            self.index += 1
            terms.append((op, self._term()))
            op = self.tokens[self.index][1]
        return Sum(tuple(terms)) if len(terms) > 1 else terms[0][1]

    def _term(self) -> Expr:
        factors = [self._factor()]
        while self.tokens[self.index][1] == "*":
            self.index += 1
            factors.append(self._factor())
        return Product(tuple(factors)) if len(factors) > 1 else factors[0]

    def _factor(self) -> Expr:
        tok = self._next()
        if tok[0] == "int":
            return IntLit(config_int(tok[1], line=self.lineno,
                                     column=self.offset + tok[2] + 1))
        if tok[1] not in "-(":
            self._fail(f"expected integer, '-' or '(', got {tok[1]!r}", tok[2])
        if self.depth == MAX_NESTING:
            self._fail(f"more than {MAX_NESTING} nested '(' or '-'", tok[2])
        self.depth += 1
        if tok[1] == "-":
            expr = Neg(self._factor())
        else:
            expr = self._sum()
            closing = self._next()
            if closing[1] != ")":
                self._fail(f"expected ')', got {closing[1]!r}", closing[2])
        self.depth -= 1
        return expr


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
        base = line.index(stripped[0]) + stripped.index(body) if body else 0
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


def _format_expr(expr: Expr) -> str:
    if isinstance(expr, IntLit):
        return str(expr.value)
    if isinstance(expr, Neg):
        return "-" + _format_nested(expr.operand)
    if isinstance(expr, Product):
        return " * ".join([_format_nested(f) for f in expr.factors])
    parts = []
    for op, term in expr.terms:
        parts.append(op)
        # a product binds tighter than the sum around it
        parts.append(_format_expr(term) if isinstance(term, Product)
                     else _format_nested(term))
    return " ".join(parts[1:])


def _format_nested(expr: Expr) -> str:
    # The parser builds a nested sum or product only from '(...)'.
    text = _format_expr(expr)
    return f"({text})" if isinstance(expr, (Sum, Product)) else text


def format_claims(claims: list[Claim]) -> str:
    """Render claims back to DSL text; reparsing yields equal claims."""
    lines = []
    for c in claims:
        expect = "holds" if c.expect_holds else "fails"
        line = (
            f"claim {c.name}: {_format_expr(c.lhs)} == {_format_expr(c.rhs)} "
            f"expect={expect}"
        )
        if c.cite:
            line += f' cite="{c.cite}"'
        lines.append(line)
    return "\n".join(lines) + "\n" if lines else ""


def _guarded(value: int) -> int:
    if abs(value) > EVAL_GUARD:
        raise ConfigError(
            f"claim value {value} outside guarded range +/-{EVAL_GUARD}"
        )
    return value


def _eval_expr(expr: Expr) -> int:
    if isinstance(expr, IntLit):
        return _guarded(expr.value)
    if isinstance(expr, Neg):
        return _guarded(-_eval_expr(expr.operand))
    if isinstance(expr, Product):
        value = 1
        for factor in expr.factors:
            value = _guarded(value * _eval_expr(factor))
        return value
    value = 0
    for op, term in expr.terms:
        right = _eval_expr(term)
        value = _guarded(value + right if op == "+" else value - right)
    return value


def evaluate(claim: Claim) -> Verdict:
    """Exact integer evaluation of both sides; ConfigError for a value
    past ``EVAL_GUARD``, a malformed input."""
    lhs = _eval_expr(claim.lhs)
    rhs = _eval_expr(claim.rhs)
    return Verdict(
        name=claim.name,
        holds=(lhs == rhs),
        lhs_value=lhs,
        rhs_value=rhs,
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
