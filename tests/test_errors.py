"""Messages, attributes and exit codes of the package's error types."""

import pytest

from moricensus import cli, errors
from moricensus.errors import (
    ConfigError,
    DuplicateClassError,
    InvariantError,
    MoricensusError,
    config_int,
)

from linetrace import unrun_lines

# every subclass of MoricensusError, the exit code ``cli.main`` gives it
# and one instance: malformed input exits 2, a failed verification 1
CATALOGUE = {
    ConfigError: (2, lambda: ConfigError("bad", line=2, column=7)),
    InvariantError: (1, lambda: InvariantError("orbit-stabilizer fails")),
    DuplicateClassError: (1, lambda: DuplicateClassError(
        (0, 1, -1), (1, -1, 0), (-1, 0, 1))),
}


def subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from subclasses(sub)


def test_error_catalogue_names_every_error_type():
    # a new error type needs an exit code, and the one-class rule for
    # malformed input means it is a verification failure
    assert set(subclasses(MoricensusError)) == set(CATALOGUE)


@pytest.mark.parametrize("error_type", CATALOGUE, ids=lambda t: t.__name__)
def test_each_error_type_exits_with_its_code(monkeypatch, capsys, error_type):
    code, make = CATALOGUE[error_type]
    err = make()

    def fail(args):
        raise err

    monkeypatch.setattr(cli, "_cmd_orbits", fail)
    assert cli.main(["orbits", "--", "0", "0", "0"]) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {err}\n")


# each combination of a ConfigError's location fields, and its suffix
WHERE = [
    ({}, ""),
    ({"line": 3}, " (line 3)"),
    ({"column": 7}, " (column 7)"),
    ({"field": "count"}, " (field 'count')"),
    ({"line": 3, "column": 7}, " (line 3, column 7)"),
    ({"line": 3, "field": "count"}, " (line 3, field 'count')"),
    ({"column": 7, "field": "count"}, " (column 7, field 'count')"),
    ({"line": 3, "column": 7, "field": "count"}, " (line 3, column 7, field 'count')"),
]


def test_config_error_names_where_it_is_known():
    for where, suffix in WHERE:
        err = ConfigError("bad", **where)
        assert str(err) == "bad" + suffix
        assert (err.line, err.column, err.field) == tuple(
            where.get(name) for name in ("line", "column", "field"))


def test_errors_carry_their_data():
    # the census's triples are plain tuples, and the error carries them
    err = DuplicateClassError((0, 1, -1), (1, -1, 0), (-1, 0, 1))
    assert (err.first, err.second, err.key) == (
        (0, 1, -1), (1, -1, 0), (-1, 0, 1))
    assert str(err) == (
        "triples (0, 1, -1) and (1, -1, 0) share canonical key (-1, 0, 1)")


def test_config_int_names_where_a_too_long_integer_is():
    assert config_int("-42", line=1, field="count") == -42
    with pytest.raises(ConfigError) as exc_info:
        config_int("-" + "9" * 4301, line=3, field="mult")
    err = exc_info.value
    assert (err.line, err.column, err.field) == (3, None, "mult")
    assert str(err) == "integer of 4301 digits is too long (line 3, field 'mult')"
    with pytest.raises(ConfigError) as exc_info:
        config_int("9" * 4301, line=2, column=5)
    assert str(exc_info.value) == "integer of 4301 digits is too long (line 2, column 5)"


def test_every_errors_line_runs():
    # the tests above build every error type, with and without each of
    # a ConfigError's optional fields, and read an integer that converts
    # and one that does not; a line none of them runs is a branch no
    # error takes
    def run():
        for _, make in CATALOGUE.values():
            make()
        test_config_error_names_where_it_is_known()
        test_errors_carry_their_data()
        test_config_int_names_where_a_too_long_integer_is()

    assert unrun_lines([errors], run) == []
