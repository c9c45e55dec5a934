"""Messages and attributes of the package's error types."""

import pytest

from moricensus import errors
from moricensus.errors import (
    ConfigError,
    DuplicateClassError,
    ParseError,
    SizeLimitError,
    config_int,
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


def test_config_int_names_where_a_too_long_integer_is():
    assert config_int("-42", line=1, field="count") == -42
    with pytest.raises(ConfigError) as exc_info:
        config_int("-" + "9" * 4301, line=3, field="mult")
    err = exc_info.value
    assert (err.line, err.field) == (3, "mult")
    assert str(err) == "integer of 4301 digits is too long (line 3, field 'mult')"


def test_every_errors_line_runs():
    # the tests above build every error type, with and without a
    # ConfigError's optional fields, and read an integer that converts
    # and one that does not; a line none of them runs is a branch no
    # error takes
    def run():
        test_config_error_names_where_it_is_known()
        test_errors_carry_their_data()
        test_config_int_names_where_a_too_long_integer_is()

    assert unrun_lines([errors], run) == []
