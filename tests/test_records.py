"""Value semantics shared by every record class of the package."""

import ast
import importlib
import inspect
import pickle
import pkgutil
from pathlib import Path

import pytest

import moricensus
from moricensus._record import Record
from moricensus.claims import (
    AuditReport, Claim, IntLit, Neg, Product, Sum, Verdict)
from moricensus.closure import ClosureResult, MoveOperator, MoveSet
from moricensus.cones import CensusReport, ModelRecord, Source
from moricensus.declared import DeclaredEntry
from moricensus.families import FamilyId, RegularModel
from moricensus.graphs import LabeledGraph
from moricensus.triples import OrbitRecord, Triple, orbit

# One builder per record class; each call builds a new, equal instance.
RECORDS = {
    IntLit: lambda: IntLit(5),
    Neg: lambda: Neg(IntLit(5)),
    Sum: lambda: Sum((("+", IntLit(1)), ("-", IntLit(2)))),
    Product: lambda: Product((IntLit(1), IntLit(2))),
    Claim: lambda: Claim("c", IntLit(1), IntLit(1), True),
    Verdict: lambda: Verdict("c", True, 1, 1, True),
    AuditReport: lambda: AuditReport((Verdict("c", True, 1, 1, True),)),
    MoveOperator: lambda: MoveOperator("copy", tuple),
    MoveSet: lambda: MoveSet((MoveOperator("copy", tuple),)),
    ClosureResult: lambda: ClosureResult(frozenset({(1, 2)}), 0),
    ModelRecord: lambda: ModelRecord(Source.DECLARED, "very_degenerate", 6, 1),
    CensusReport: lambda: CensusReport(450, 129, (), 2657, 741, 3398),
    DeclaredEntry: lambda: DeclaredEntry("t_models", 129, "cite", (83, 1, 45)),
    RegularModel: lambda: RegularModel(Triple(0, 1, 2), FamilyId.NONDEG,
                                       Triple(0, 1, 2)),
    LabeledGraph: lambda: LabeledGraph((0, 1), ((0, 1, 5, 1),)),
    Triple: lambda: Triple(1, 2, 3),
    OrbitRecord: lambda: orbit(Triple(1, 2, 3)),
}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_semantics(cls):
    record, twin = RECORDS[cls](), RECORDS[cls]()
    assert type(record) is cls and record is not twin
    for name in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(twin, name))
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record == twin and not record != twin
    assert hash(record) == hash(twin)
    assert pickle.loads(pickle.dumps(record)) == record
    values = tuple(getattr(record, name) for name in cls.__slots__)
    assert record != values
    for other_cls, build in RECORDS.items():
        if other_cls is not cls:
            assert record != build()


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_constructor(cls):
    params = list(inspect.signature(cls).parameters.values())
    # Record.__reduce__ passes the fields positionally, in slot order
    assert tuple(p.name for p in params) == cls.__slots__
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
    record = RECORDS[cls]()
    values = tuple(getattr(record, name) for name in cls.__slots__)
    fields = dict(zip(cls.__slots__, values))
    assert cls(*values) == cls(**fields) == record
    with pytest.raises(TypeError):
        cls(*values, values[-1])
    with pytest.raises(TypeError):
        cls(*values, unknown=1)
    required = [p.name for p in params if p.default is p.empty]
    if required:
        del fields[required[0]]
        with pytest.raises(TypeError):
            cls(**fields)


def test_records_declare_their_fields_once():
    # Fields are listed in __slots__ alone: Record writes every
    # package record's __init__, and only _record stores fields past
    # the read-only __setattr__.
    modules = [importlib.import_module(f"moricensus.{info.name}")
               for info in pkgutil.iter_modules(moricensus.__path__)]
    classes, stack = [], [Record]
    while stack:
        for sub in stack.pop().__subclasses__():
            stack.append(sub)
            if sub.__module__.startswith("moricensus."):
                classes.append(sub)
    assert set(RECORDS) == set(classes)
    for cls in classes:
        assert cls.__dict__["__init__"].__module__ == "moricensus._record", (
            f"{cls.__qualname__} writes its own __init__")
    for module in modules:
        if module.__name__ == "moricensus._record":
            continue
        tree = ast.parse(Path(module.__file__).read_text("utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                assert "_set" not in [alias.name for alias in node.names], (
                    f"{module.__name__} imports _set")


def test_records_of_different_types_differ_on_equal_fields():
    assert Neg(5) != IntLit(5)
    assert len({Neg(5), IntLit(5)}) == 2


def test_record_repr_names_the_fields():
    assert repr(IntLit(5)) == "IntLit(value=5)"
    assert repr(Verdict("c", True, 1, 2, False)) == (
        "Verdict(name='c', holds=True, lhs_value=1, rhs_value=2, "
        "expect_holds=False, cite='')"
    )


def test_record_defaults():
    assert Claim("c", IntLit(1), IntLit(1), True).cite == ""
    assert Verdict("c", True, 1, 1, True).cite == ""
    assert AuditReport(()).findings == ()
    moves = MoveSet()
    assert moves.moves == () and moves.to_state(5) == moves.to_graph(5) == 5
    assert DeclaredEntry("x", 1) == DeclaredEntry("x", 1, "", None)
    assert ModelRecord(Source.DECLARED, "f", 6, 1).triple is None
    report = CensusReport(450, 129, (), 2657, 741, 3398)
    assert report.findings == report.computed == ()


def test_triple_order_and_repr():
    assert repr(Triple(-6, 0, 3)) == "(-6, 0, 3)"
    assert Triple(0, 1, 2) < Triple(0, 2, -5) <= Triple(0, 2, -5)
    assert Triple(1, -9, -9) > Triple(0, 9, 9) >= Triple(0, 9, 9)
    assert Triple(1, 2, 3) != Triple(1, 2, 4)
    assert sorted([Triple(2, 0, 0), Triple(-1, 5, 5), Triple(-1, 4, 9)]) == [
        Triple(-1, 4, 9), Triple(-1, 5, 5), Triple(2, 0, 0)]
    with pytest.raises(TypeError):
        Triple(1, 2, 3) < (1, 2, 4)
