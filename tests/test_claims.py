import ast
import re

import pytest
from hypothesis import Phase, assume, example, given, settings, strategies as st

from moricensus import claims as claims_module
from moricensus.audit import default_claims_text
from moricensus.claims import (
    EVAL_GUARD,
    MAX_NESTING,
    Verdict,
    evaluate,
    evaluate_claims,
    parse_claims,
)
from moricensus.errors import ConfigError

# one digit past the interpreter's int-conversion limit (4300 digits)
OVER_LIMIT = "9" * 4301


def parse_one(line):
    (claim,) = parse_claims(line)
    return claim


def test_parse_basic_claim():
    claim = parse_one("claim t_total: 83+1+45 == 129 expect=holds")
    assert claim.name == "t_total"
    assert (claim.lhs_value, claim.rhs_value) == (129, 129)
    assert claim.expect_holds
    assert claim.cite == ""


def test_parse_with_cite_and_spacing():
    claim = parse_one(
        'claim   x :  1 *  2+3 ==   5   expect=holds   cite="someplace"'
    )
    assert claim.cite == "someplace"
    assert evaluate(claim) is True


def test_parse_rejects_empty_expressions():
    with pytest.raises(ConfigError):
        parse_claims("claim empty: == expect=holds")


def test_parse_rejects_missing_equality():
    with pytest.raises(ConfigError):
        parse_claims("claim x: 1 + 1 expect=holds")


def test_parse_rejects_garbage_token_with_position():
    with pytest.raises(ConfigError) as exc_info:
        parse_claims("claim x: 1 + $ == 2 expect=holds")
    assert exc_info.value.line == 1
    assert exc_info.value.column > 1


def test_parse_rejects_duplicate_names():
    with pytest.raises(ConfigError):
        parse_claims(
            "claim x: 1 == 1 expect=holds\nclaim x: 2 == 2 expect=holds\n"
        )


def test_parse_rejects_variables():
    with pytest.raises(ConfigError):
        parse_claims("claim x: n + 1 == 2 expect=holds")


def test_parse_line_numbers_in_errors():
    with pytest.raises(ConfigError) as exc_info:
        parse_claims("# ok\nclaim a: 1 == 1 expect=holds\nclaim b: ) == 1 expect=holds")
    assert exc_info.value.line == 3


@pytest.mark.parametrize("text, message, line, column", [
    ("claim x: 1 2 == 3 expect=holds\n", "trailing token '2'", 1, 12),
    ("# ok\nclaim x: (1 + 2 3) == 3 expect=holds\n",
     "expected ')', got '3'", 2, 17),
    ("claim a: 1 == 1 expect=holds\n  entry x: count=1\n",
     "expected 'claim', got 'entry'", 2, 3),
    ("claim x 1 == 1 expect=holds\n", "malformed claim line", 1, 1),
    # a quote still open at the '#' leaves the line cut at its first '#'
    ('claim x: 1 == "1 expect=holds # c\n', "unexpected character '\"'", 1, 15),
    # int() reads Arabic-Indic digits as 129; the grammar takes 0-9
    ("claim x: \u0661\u0662\u0669 == 129 expect=holds\n",
     "unexpected character '\u0661'", 1, 10),
    # the end of a side sits just past its last character, space included
    ("claim x: 1 + == 2 expect=holds\n", "unexpected end of expression", 1, 14),
    ("claim x: (1 + 2 == 3 expect=holds\n", "unexpected end of expression", 1, 17),
    ("claim x: == expect=holds\n", "unexpected end of expression", 1, 10),
    ("claim x: ) == 1 expect=holds\n", "expected integer, '-' or '(', got ')'", 1, 10),
    # int() would raise a bare ValueError past the conversion limit
    (f"claim x: {OVER_LIMIT} == 1 expect=holds\n",
     "integer of 4301 digits is too long", 1, 10),
    # a value past the guard is placed at the token that made it: the
    # literal, or the operator whose result it is, first from the left
    ("claim x: 10000000000000 == 1 expect=holds\n",
     "claim value 10000000000000 outside guarded range +/-1000000000000", 1, 10),
    ("claim x: 1 + 1000000000000 == 2 expect=holds\n",
     "claim value 1000000000001 outside guarded range +/-1000000000000", 1, 12),
    ("claim x: 0 == -1000000000000 - 1 expect=holds\n",
     "claim value -1000000000001 outside guarded range +/-1000000000000", 1, 30),
    ("claim x: 1000000000000 * 2 * 0 == 0 expect=holds\n",
     "claim value 2000000000000 outside guarded range +/-1000000000000", 1, 24),
    ("claim x: 1000000000000 * (2 == 0 expect=holds\n",
     "unexpected end of expression", 1, 29),
    # a file's faults are reported in file order
    ("claim a: 1000000000000 * 2 == 0 expect=fails\nclaim b: ) == 1 expect=holds\n",
     "claim value 2000000000000 outside guarded range +/-1000000000000", 1, 24),
], ids=["trailing_token", "missing_paren", "not_a_claim", "malformed_line",
        "quote_open_at_comment", "not_ascii", "operand_missing", "paren_unclosed",
        "side_empty", "side_starts_with_paren", "literal_too_long", "guard_literal",
        "guard_sum", "guard_difference", "guard_product", "operand_fault_first",
        "guard_before_later_fault"])
def test_parse_errors_name_their_line_and_column(text, message, line, column):
    with pytest.raises(ConfigError) as exc_info:
        parse_claims(text)
    err = exc_info.value
    assert str(err) == f"{message} (line {line}, column {column})"
    assert (err.line, err.column) == (line, column)


# the faults that quote a token, which a column found by lexing again
# must point at
TOKEN_FAULT = re.compile(r"(?:unexpected character|trailing token|expected '\)', got"
                         r"|expected integer, '-' or '\(', got) (.+) \(line 1, column \d+\)")
SIDES = st.lists(st.sampled_from([
    "1", "23", OVER_LIMIT, "-", "+", "*", "(", ")", " ", "\t", "$", "\u0663",
]), max_size=8).map("".join)


@settings(max_examples=200, deadline=None)
@given(SIDES, SIDES)
@example("1 + $", "2")
@example("1 2", "3")
@example("2", "(1 + 2 3)")
@example("1 + )", "1")
def test_a_fault_column_points_at_the_token_it_names(lhs, rhs):
    line = f"claim x: {lhs} == {rhs} expect=holds"
    try:
        parse_claims(line)
    except ConfigError as err:
        quoted = TOKEN_FAULT.fullmatch(str(err))
        if quoted:
            assert line[err.column - 1:].startswith(ast.literal_eval(quoted[1]))


def test_expected_failure_claim_parses_and_fails():
    claim = parse_one(
        'claim t_cones_proof: 118*6+11*3 == 747 expect=fails cite="proof display"'
    )
    assert evaluate(claim) is False
    assert claim.lhs_value == 741
    assert claim.rhs_value == 747
    assert not claim.holds
    assert claim.as_expected


@pytest.mark.parametrize(
    "expr,value",
    [
        ("1*1 + 2*2 + 10*3 + 437*6", 2657),
        ("7+10+15+12+57+45+34+24+15", 219),
        ("0", 0),
        ("-1 - (-3) + 1", 3),
        ("2 * (3 + 4)", 14),
        ("-(2 * 3)", -6),
        ("--5", 5),
        ("10 - 2 - 3", 5),
        ("-(1 + 2) * 3 - 4 * (5 - -6)", -53),
    ],
)
def test_exact_evaluation(expr, value):
    claim = parse_one(f"claim x: {expr} == {value} expect=holds")
    assert claim.lhs_value == value
    assert claim.holds


def test_evaluation_overflow_guard():
    big = EVAL_GUARD
    assert parse_one(f"claim x: {big} == -{big} expect=fails").rhs_value == -big
    with pytest.raises(ConfigError) as exc_info:
        parse_claims(f"claim x: {big} * 2 == 0 expect=fails")
    assert str(exc_info.value) == \
        f"claim value {2 * big} outside guarded range +/-{EVAL_GUARD} (line 1, column 24)"


def nested(shape, depth):
    """``1`` inside ``depth`` parentheses or unary minus signs."""
    if shape == "parens":
        return "(" * depth + "1" + ")" * depth
    return "-" * depth + "1"


@pytest.mark.parametrize("shape", ["parens", "unary_minus"])
def test_parse_rejects_deep_nesting_with_position(shape):
    with pytest.raises(ConfigError) as exc_info:
        parse_claims(f"# deep\nclaim x: 1 == {nested(shape, 3000)} expect=holds")
    assert exc_info.value.line == 2
    # the first opener past the bound
    assert exc_info.value.column == len("claim x: 1 == ") + MAX_NESTING + 1


@pytest.mark.parametrize("shape", ["parens", "unary_minus"])
def test_nesting_at_the_bound_parses(shape):
    claim = parse_one(f"claim x: {nested(shape, MAX_NESTING)} == 0 expect=fails")
    assert abs(claim.lhs_value) == 1


def test_parse_rejects_overlong_literal_with_position():
    digits = "9" * 5000
    with pytest.raises(ConfigError) as exc_info:
        parse_claims(f"claim x: 1 + {digits} == 2 expect=holds")
    assert (exc_info.value.line, exc_info.value.column) == (1, len("claim x: 1 + ") + 1)
    assert str(exc_info.value) == "integer of 5000 digits is too long (line 1, column 14)"


def test_long_sums_and_products_evaluate():
    # left-nested chains far longer than the recursion limit
    terms = 3000
    claim = parse_one(
        f"claim x: {' + '.join(['2 * 1 * 1'] * terms)} == {2 * terms} expect=holds"
    )
    assert claim.holds


@pytest.mark.parametrize("op, factor, value", [("+", "2", 6002), ("*", "-1", -1)],
                         ids=["+", "*"])
def test_long_chains_parse_to_their_value(op, factor, value):
    # each step of a chain returns to the loop that reads the next one,
    # so a chain does not deepen the parser's recursion
    text = f"claim x: {f' {op} '.join([factor] * 3001)} == {value} expect=holds"
    assert parse_one(text).lhs_value == value


def test_parenthesized_chains_evaluate():
    claim = parse_one("claim x: (1 + 2) + 3 * (4 * 5) == 63 expect=holds")
    assert (claim.lhs_value, claim.rhs_value) == (63, 63)
    assert parse_one("claim x: 2 * (3 + 4) - (5 - 6) == 15 expect=holds").lhs_value == 15


def test_empty_claims_file():
    report = evaluate_claims(parse_claims(""))
    assert report.verdicts == ()
    assert report.exit_status == 0


def test_exit_status_contract():
    text = (
        "claim good: 1 + 1 == 2 expect=holds\n"
        "claim bad_on_purpose: 2 + 2 == 5 expect=fails\n"
    )
    report = evaluate_claims(parse_claims(text))
    assert report.exit_status == 0
    # flip a single expectation and the report must go red
    mutated = text.replace("expect=fails", "expect=holds")
    assert evaluate_claims(parse_claims(mutated)).exit_status == 1
    mutated = text.replace("claim good: 1 + 1 == 2", "claim good: 1 + 1 == 3")
    assert evaluate_claims(parse_claims(mutated)).exit_status == 1


def test_expected_failures_become_findings():
    report = evaluate_claims(
        parse_claims('claim off: 36 == 45 expect=fails cite="subcount"')
    )
    assert len(report.findings) == 1
    assert "36 != 45" in report.findings[0]


def test_a_verdict_holds_exactly_when_its_values_are_equal():
    verdict = Verdict("c", 1, 2, True)
    assert not verdict.holds and not verdict.as_expected
    assert Verdict("c", 2, 2, True).holds


def test_the_report_holds_the_parsed_verdicts():
    parsed = parse_claims("claim a: 1 == 1 expect=holds\n"
                          "claim b: 36 == 45 expect=fails\n")
    verdicts = evaluate_claims(parsed).verdicts
    assert len(verdicts) == 2
    assert all(v is p for v, p in zip(verdicts, parsed))


def test_a_hash_inside_a_quoted_cite_starts_no_comment():
    # the comment starts at the first '#' after an even number of '"'
    text = 'claim x: 1 == 1 expect=holds cite="Eq. #3"  # note "q\n'
    assert parse_claims(text) == [Verdict("x", 1, 1, True, "Eq. #3")]


def test_shipped_claims_all_as_expected():
    report = evaluate_claims(parse_claims(default_claims_text()))
    assert report.exit_status == 0
    names = {v.name for v in report.verdicts}
    assert "t_cones_proof_display" in names
    assert "t_low_low_subcount" in names
    by_name = {v.name: v for v in report.verdicts}
    assert not by_name["t_cones_proof_display"].holds
    assert by_name["t_cones_proof_display"].lhs_value == 741
    assert not by_name["t_low_low_subcount"].holds
    assert by_name["t_cones"].holds
    every_cited = all(v.cite for v in report.verdicts)
    assert every_cited


# ---------------------------------------------------------------------------
# metamorphic law: claims whose sides come from evaluated expressions
#
# The generator writes each expression's text and computes its value
# with Python ints, so the law reads nothing of the package's evaluator.
# A node is ``(text, value, loose)``; ``loose`` marks a top-level sum,
# which needs parentheses as a factor, an operand of unary minus or the
# right operand of '-'.  Literals up to 12 and at most 8 leaves keep
# every partial value under 12**8, far inside EVAL_GUARD.


def operand(node, loose_ok=False):
    text, _, loose = node
    return f"({text})" if loose and not loose_ok else text


def sum_node(first_and_rest):
    first, rest = first_and_rest
    text, value = first[0], first[1]
    for op, term in rest:
        text += f" {op} {operand(term, loose_ok=op == '+')}"
        value = value + term[1] if op == "+" else value - term[1]
    return text, value, True


def product_node(factors):
    value = 1
    for factor in factors:
        value *= factor[1]
    return " * ".join(operand(f) for f in factors), value, False


GENERATED = st.recursive(
    st.integers(0, 12).map(lambda n: (str(n), n, False)),
    lambda children: st.one_of(
        children.map(lambda c: ("-" + operand(c), -c[1], False)),
        children.map(lambda c: (f"({c[0]})", c[1], False)),
        st.tuples(children, st.lists(st.tuples(st.sampled_from("+-"), children),
                                     min_size=1, max_size=3)).map(sum_node),
        st.lists(children, min_size=2, max_size=3).map(product_node),
    ),
    max_leaves=8,
)
# (text, value, offset of the right-hand side from the value)
GENERATED_CLAIMS = st.lists(
    st.tuples(GENERATED.map(lambda node: node[:2]),
              st.sampled_from([0, 0, 1, -1, 7])),
    min_size=1, max_size=4)


def claims_match_the_generator(generated):
    """Whether every claim ``text == value + k`` holds exactly when k is 0,
    with its left side evaluated to the generator's value."""
    text = "".join(f"claim c{i}: {expr} == {value + k} expect=holds\n"
                   for i, ((expr, value), k) in enumerate(generated))
    verdicts = evaluate_claims(parse_claims(text)).verdicts
    return [(v.holds, v.lhs_value) for v in verdicts] == \
        [(k == 0, value) for (_, value), k in generated]


@settings(max_examples=60, deadline=None)
@given(GENERATED_CLAIMS)
def test_generated_claims_hold_exactly_where_the_generator_says(generated):
    assert claims_match_the_generator(generated)


def sign_error(self):
    """A planted ``_ExprParser._sum`` in which every binary '-' adds."""
    value = self._term()
    while self.tokens[self.index] in ("+", "-"):
        self.index += 1
        value += self._term()
    return value


def test_generated_claims_law_fails_an_evaluator_sign_error(monkeypatch):
    monkeypatch.setattr(claims_module._ExprParser, "_sum", sign_error)
    assert not claims_match_the_generator([(("7 - 2", 5), 0)])


@settings(max_examples=1, database=None, derandomize=True, phases=[Phase.generate])
@given(st.lists(GENERATED_CLAIMS, min_size=2, max_size=100))
def test_generator_finds_an_evaluator_sign_error(batch):
    # the generator itself finds a claim that the planted parser gets
    # wrong; the minimal batch, one claim list repeated, is skipped
    assume(len(set(map(repr, batch))) > 1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(claims_module._ExprParser, "_sum", sign_error)
        assert not all(map(claims_match_the_generator, batch))


# well-formed claims, each a line with the Verdict it must parse to, mixed
# with claim lines of odd tokens and free joins of the grammar's pieces
CLAIMS = st.builds(
    lambda name, lhs, rhs, holds, cite: (
        f"claim {name}: {lhs[0]} == {rhs[0]} expect={'holds' if holds else 'fails'}"
        + (f' cite="{cite}"' if cite else ""),
        Verdict(name, lhs[1], rhs[1], holds, cite)),
    st.sampled_from(["x", "y", "t_cones"]), GENERATED, GENERATED, st.booleans(),
    st.sampled_from(["", "Thm 2.1", "proof display", "Eq. #3"]))
TOKENS = st.sampled_from([
    "1", "07", "-", "+", "*", "(", ")", " ", "==", "$", "n", "\u0663",
    "1000000000000", OVER_LIMIT, "#",
])
ODD_CLAIMS = st.builds(
    "claim {}: {} == {} expect={}{}".format,
    st.sampled_from(["x", "9x", "y"]),
    st.lists(TOKENS, max_size=6).map("".join),
    st.lists(TOKENS, max_size=6).map("".join),
    st.sampled_from(["holds", "fails", "maybe"]),
    st.sampled_from(["", ' cite="c"', ' cite="open', " junk"]),
)
CLAIM_PIECES = st.lists(st.sampled_from([
    "claim", " ", "x", ":", "==", "expect=", "holds", "cite=", '"', "(", ")",
    "-", "1", "#", "\t", "entry",
]), max_size=12).map("".join)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(CLAIMS, ODD_CLAIMS, CLAIM_PIECES), max_size=4))
def test_parse_claims_raises_only_parse_errors_inside_the_text(lines):
    text = "\n".join(line if isinstance(line, str) else line[0] for line in lines)
    try:
        parsed = parse_claims(text)
    except ConfigError as err:
        rows = text.split("\n")
        assert 1 <= err.line <= len(rows)
        assert 1 <= err.column <= len(rows[err.line - 1]) + 1
        return
    # the generator is the oracle: well-formed claims parse to its values
    if not any(isinstance(line, str) for line in lines):
        assert parsed == [line[1] for line in lines]
