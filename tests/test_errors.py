"""Messages, attributes and exit codes of the package's error types."""

import ast
from pathlib import Path

import pytest

from moricensus import cli, errors
from moricensus.errors import (
    ConfigError,
    DuplicateClassError,
    InvariantError,
    MoricensusError,
    check_int,
    config_int,
)


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


class ValueErrorSites(ast.NodeVisitor):
    """``(module, function, "raise" | "except")`` for each ``raise
    ValueError`` and ``except ValueError`` in a module, by the innermost
    function holding it (None at module level)."""

    def __init__(self, module):
        self.module, self.function, self.found = module, None, []

    def visit_FunctionDef(self, node):
        outer, self.function = self.function, node.name
        self.generic_visit(node)
        self.function = outer

    visit_AsyncFunctionDef = visit_FunctionDef

    def note(self, expr, kind):
        for node in ast.walk(expr) if expr is not None else ():
            if (isinstance(node, ast.Name) and node.id == "ValueError"
                    or isinstance(node, ast.Attribute) and node.attr == "ValueError"):
                self.found.append((self.module, self.function, kind))

    def visit_Raise(self, node):
        self.note(node.exc, "raise")
        self.generic_visit(node)

    def visit_ExceptHandler(self, node):
        self.note(node.type, "except")
        self.generic_visit(node)


def test_value_error_is_raised_only_where_argparse_needs_it():
    # malformed input is a ConfigError where it is checked, so a
    # ValueError out of the package is a program fault; argparse's type
    # contract needs one from ``cli._int``, and each handler turns the
    # interpreter's int/str conversion limit into a ConfigError where it
    # is found
    found = []
    for path in sorted(Path(errors.__file__).parent.glob("*.py")):
        sites = ValueErrorSites(path.stem)
        sites.visit(ast.parse(path.read_text(encoding="utf-8")))
        found += sites.found
    assert sorted(found) == [
        ("cli", "_int", "raise"),
        ("cones", "build_census_report", "except"),
        ("declared", "_parse_entry_line", "except"),
        ("errors", "config_int", "except"),
    ]
    assert not issubclass(ConfigError, ValueError)


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


class Small(int):
    pass


def test_check_int_takes_ints_and_rejects_bools_and_others():
    # the int rule of Triple and LabeledGraph: an int subclass is an
    # int, a bool is not; the message names the value, with no location
    for value in (0, -7, 10**30, Small(3)):
        check_int("edge label", value)
    for value, shown in ((True, "True"), (False, "False"), (1.0, "1.0"),
                         ("3", "'3'"), (None, "None")):
        with pytest.raises(ConfigError) as exc_info:
            check_int("component a", value)
        err = exc_info.value
        assert str(err) == f"component a must be an int, got {shown}"
        assert (err.line, err.column, err.field) == (None, None, None)
