"""Messages and attributes of the package's error types."""

from moricensus import errors
from moricensus.errors import (
    BudgetExceededError,
    ConfigError,
    DuplicateClassError,
    ParseError,
    SizeLimitError,
)
from moricensus.triples import Triple

from linetrace import unrun_lines


def test_config_error_names_where_it_is_known():
    assert str(ConfigError("bad")) == "bad"
    assert str(ConfigError("bad", line=3)) == "bad (line 3)"
    err = ConfigError("bad", line=3, field="t_models")
    assert (err.line, err.field) == (3, "t_models")
    assert str(err) == "bad (line 3, field 't_models')"


def test_errors_carry_their_data():
    err = ParseError("unexpected token", line=2, column=7)
    assert (err.line, err.column) == (2, 7)
    assert str(err) == "unexpected token (line 2, column 7)"
    err = DuplicateClassError(Triple(0, 1, -1), Triple(1, -1, 0), (-1, 0, 1))
    assert str(err) == (
        "triples (0, 1, -1) and (1, -1, 0) share canonical key (-1, 0, 1)")
    err = SizeLimitError(13, 12)
    assert (err.nodes, err.bound) == (13, 12)
    assert str(err) == "graph has 13 nodes, above the canonicalizer bound 12"
    err = BudgetExceededError("step", 5)
    assert (err.kind, err.budget) == ("step", 5)
    assert str(err) == "closure exceeded step budget of 5"


def test_every_errors_line_runs():
    # the two tests above build every error type, with and without a
    # ConfigError's optional fields; a line none of them runs is a
    # branch no error takes
    def run():
        test_config_error_names_where_it_is_known()
        test_errors_carry_their_data()

    assert unrun_lines([errors], run) == []
