import pytest
from hypothesis import given, strategies as st

from moricensus.audit import default_claims_text
from moricensus.claims import (
    EVAL_GUARD,
    MAX_NESTING,
    Claim,
    IntLit,
    Neg,
    Product,
    Sum,
    evaluate,
    evaluate_claims,
    format_claims,
    parse_claims,
)
from moricensus.errors import ParseError


def parse_one(line):
    (claim,) = parse_claims(line)
    return claim


def test_parse_basic_claim():
    claim = parse_one("claim t_total: 83+1+45 == 129 expect=holds")
    assert claim.name == "t_total"
    assert claim.lhs == Sum((("+", IntLit(83)), ("+", IntLit(1)), ("+", IntLit(45))))
    assert claim.rhs == IntLit(129)
    assert claim.expect_holds
    assert claim.cite == ""


def test_parse_with_cite_and_spacing():
    claim = parse_one(
        'claim   x :  1 *  2+3 ==   5   expect=holds   cite="someplace"'
    )
    assert claim.cite == "someplace"
    verdict = evaluate(claim)
    assert verdict.holds


def test_parse_rejects_empty_expressions():
    with pytest.raises(ParseError):
        parse_claims("claim empty: == expect=holds")


def test_parse_rejects_missing_equality():
    with pytest.raises(ParseError):
        parse_claims("claim x: 1 + 1 expect=holds")


def test_parse_rejects_garbage_token_with_position():
    with pytest.raises(ParseError) as exc_info:
        parse_claims("claim x: 1 + $ == 2 expect=holds")
    assert exc_info.value.line == 1
    assert exc_info.value.column > 1


def test_parse_rejects_duplicate_names():
    with pytest.raises(ParseError):
        parse_claims(
            "claim x: 1 == 1 expect=holds\nclaim x: 2 == 2 expect=holds\n"
        )


def test_parse_rejects_variables():
    with pytest.raises(ParseError):
        parse_claims("claim x: n + 1 == 2 expect=holds")


def test_parse_line_numbers_in_errors():
    with pytest.raises(ParseError) as exc_info:
        parse_claims("# ok\nclaim a: 1 == 1 expect=holds\nclaim b: ) == 1 expect=holds")
    assert exc_info.value.line == 3


@pytest.mark.parametrize("text, message, line, column", [
    ("claim x: 1 2 == 3 expect=holds\n", "trailing token '2'", 1, 12),
    ("# ok\nclaim x: (1 + 2 3) == 3 expect=holds\n",
     "expected ')', got '3'", 2, 17),
    ("claim a: 1 == 1 expect=holds\n  entry x: count=1\n",
     "expected 'claim', got 'entry'", 2, 3),
    ("claim x 1 == 1 expect=holds\n", "malformed claim line", 1, 1),
], ids=["trailing_token", "missing_paren", "not_a_claim", "malformed_line"])
def test_parse_errors_name_their_line_and_column(text, message, line, column):
    with pytest.raises(ParseError) as exc_info:
        parse_claims(text)
    err = exc_info.value
    assert str(err) == f"{message} (line {line}, column {column})"
    assert (err.line, err.column) == (line, column)


def test_expected_failure_claim_parses_and_fails():
    claim = parse_one(
        'claim t_cones_proof: 118*6+11*3 == 747 expect=fails cite="proof display"'
    )
    verdict = evaluate(claim)
    assert verdict.lhs_value == 741
    assert verdict.rhs_value == 747
    assert not verdict.holds
    assert verdict.as_expected


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
    ],
)
def test_exact_evaluation(expr, value):
    claim = parse_one(f"claim x: {expr} == {value} expect=holds")
    verdict = evaluate(claim)
    assert verdict.lhs_value == value
    assert verdict.holds


def test_evaluation_overflow_guard():
    big = EVAL_GUARD
    claim = parse_one(f"claim x: {big} * 2 == 0 expect=fails")
    with pytest.raises(OverflowError):
        evaluate(claim)


def nested(shape, depth):
    """``1`` inside ``depth`` parentheses or unary minus signs."""
    if shape == "parens":
        return "(" * depth + "1" + ")" * depth
    return "-" * depth + "1"


@pytest.mark.parametrize("shape", ["parens", "unary_minus"])
def test_parse_rejects_deep_nesting_with_position(shape):
    with pytest.raises(ParseError) as exc_info:
        parse_claims(f"# deep\nclaim x: 1 == {nested(shape, 3000)} expect=holds")
    assert exc_info.value.line == 2
    # the first opener past the bound
    assert exc_info.value.column == len("claim x: 1 == ") + MAX_NESTING + 1


@pytest.mark.parametrize("shape", ["parens", "unary_minus"])
def test_nesting_at_the_bound_parses(shape):
    claim = parse_one(f"claim x: {nested(shape, MAX_NESTING)} == 0 expect=fails")
    assert abs(evaluate(claim).lhs_value) == 1


def test_parse_rejects_overlong_literal_with_position():
    digits = "9" * 5000
    with pytest.raises(ParseError) as exc_info:
        parse_claims(f"claim x: 1 + {digits} == 2 expect=holds")
    assert exc_info.value.line == 1
    assert exc_info.value.column == len("claim x: 1 + ") + 1


def test_long_sums_and_products_evaluate():
    # left-nested chains far longer than the recursion limit
    terms = 3000
    claim = parse_one(
        f"claim x: {' + '.join(['2 * 1 * 1'] * terms)} == {2 * terms} expect=holds"
    )
    assert evaluate(claim).holds


def test_long_sums_and_products_format():
    terms = 3000
    text = (f"claim x: {' + '.join(['2 * 1 * 1'] * terms)} == {2 * terms} "
            "expect=holds\n")
    claims = parse_claims(text)
    assert format_claims(claims) == text
    assert parse_claims(format_claims(claims)) == claims


@pytest.mark.parametrize("op", ["+", "*"])
def test_long_sums_and_products_compare_and_hash(op):
    # a chain is one flat node, so equality and hashing do not recurse
    # along it
    text = f"claim x: {f' {op} '.join(['1'] * 3000)} == 1 expect=holds"
    first, second = parse_claims(text), parse_claims(text)
    assert first == second
    assert hash(first[0]) == hash(second[0])


def test_parenthesized_chains_stay_nested():
    claim = parse_one("claim x: (1 + 2) + 3 * (4 * 5) == 63 expect=holds")
    assert claim.lhs == Sum((
        ("+", Sum((("+", IntLit(1)), ("+", IntLit(2))))),
        ("+", Product((IntLit(3), Product((IntLit(4), IntLit(5)))))),
    ))
    assert format_claims([claim]) == (
        "claim x: (1 + 2) + 3 * (4 * 5) == 63 expect=holds\n")


def test_format_parse_round_trip_on_shipped_file():
    claims = parse_claims(default_claims_text())
    assert parse_claims(format_claims(claims)) == claims


exprs = st.recursive(
    st.builds(IntLit, st.integers(0, 99)),
    lambda children: st.one_of(
        st.builds(Neg, children),
        st.builds(
            lambda first, rest: Sum((("+", first), *rest)),
            children,
            st.lists(st.tuples(st.sampled_from("+-"), children),
                     min_size=1, max_size=3),
        ),
        st.builds(Product, st.lists(children, min_size=2, max_size=4).map(tuple)),
    ),
    max_leaves=12,
)


@given(exprs, exprs)
def test_format_parse_round_trip_property(lhs, rhs):
    claims = [Claim(name="x", lhs=lhs, rhs=rhs, expect_holds=True, cite="q")]
    assert parse_claims(format_claims(claims)) == claims


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
