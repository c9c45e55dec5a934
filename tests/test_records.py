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
from moricensus.claims import AuditReport, Verdict
from moricensus.closure import ClosureResult
from moricensus.cones import CensusReport
from moricensus.families import RegularModel
from moricensus.graphs import LabeledGraph
from moricensus.triples import Triple


# One builder per record class; each call builds a new, equal instance.
RECORDS = {
    Verdict: lambda: Verdict("c", 1, 1, True, ""),
    AuditReport: lambda: AuditReport((Verdict("c", 1, 1, True, ""),), ()),
    ClosureResult: lambda: ClosureResult(frozenset({(1, 2)}), 0),
    CensusReport: lambda: CensusReport(450, 129, (), 2657, 741),
    RegularModel: lambda: RegularModel((0, 1, 2), "nondeg", (0, 1, 2), 6, 1),
    LabeledGraph: lambda: LabeledGraph((0, 1), ((0, 1, 5, 1),)),
    Triple: lambda: Triple(1, 2, 3),
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
    assert record != values and record.__eq__(values) is NotImplemented
    for other_cls, build in RECORDS.items():
        if other_cls is not cls:
            assert record != build()


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_constructor(cls):
    params = list(inspect.signature(cls).parameters.values())
    # Record.__reduce__ passes the fields positionally, in slot order,
    # and every builder passes every field
    assert tuple(p.name for p in params) == cls.__slots__
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD and p.default is p.empty
               for p in params)
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
    # the read-only __setattr__, through each slot's descriptor.
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
            if isinstance(node, ast.Attribute):
                assert node.attr not in ("__set__", "__setattr__"), (
                    f"{module.__name__}:{node.lineno} stores past __setattr__")


def test_generated_init_stores_fields_through_slot_descriptors():
    # each generated __init__ binds its slots' setters once, at class
    # creation, and names no attribute at construction time
    for cls in RECORDS:
        init = cls.__dict__["__init__"]
        for name in cls.__slots__:
            setter = init.__globals__[f"_set_{name}"]
            assert setter.__self__ is cls.__dict__[name], (cls, name)
        assert "__setattr__" not in init.__code__.co_names


def test_records_of_different_types_differ_on_equal_fields():
    assert AuditReport((), ()) != ClosureResult((), ())
    assert len({AuditReport((), ()), ClosureResult((), ())}) == 2


def test_record_repr_names_the_fields():
    assert repr(Verdict("c", 741, 747, False, "")) == (
        "Verdict(name='c', lhs_value=741, rhs_value=747, expect_holds=False, "
        "cite='')"
    )


def test_triple_equality_and_repr():
    # the checked input type iterates as its tuple, but neither equals
    # nor prints like it
    assert Triple(1, 2, 3) != Triple(1, 2, 4)
    assert tuple(Triple(1, 2, 3)) == (1, 2, 3) != Triple(1, 2, 3)
    assert repr(Triple(-6, 0, 3)) == "Triple(a=-6, b=0, c=3)"
