"""Value semantics shared by every record class of the package."""

import pickle

import pytest

from moricensus.claims import AuditReport, BinOp, Claim, IntLit, Neg, Verdict
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
    BinOp: lambda: BinOp("+", IntLit(1), IntLit(2)),
    Claim: lambda: Claim("c", IntLit(1), IntLit(1), True),
    Verdict: lambda: Verdict("c", True, 1, 1, True),
    AuditReport: lambda: AuditReport((Verdict("c", True, 1, 1, True),)),
    MoveOperator: lambda: MoveOperator("copy", tuple),
    MoveSet: lambda: MoveSet((MoveOperator("copy", tuple),)),
    ClosureResult: lambda: ClosureResult(frozenset({(1, 2)}), 1, 0),
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
    assert AuditReport(()).findings == ()
    assert MoveSet().moves == ()
    assert DeclaredEntry("x", 1).breakdown is None


def test_triple_order_and_repr():
    assert repr(Triple(-6, 0, 3)) == "(-6, 0, 3)"
    assert Triple(0, 1, 2) < Triple(0, 2, -5) <= Triple(0, 2, -5)
    assert Triple(1, -9, -9) > Triple(0, 9, 9) >= Triple(0, 9, 9)
    assert Triple(1, 2, 3) != Triple(1, 2, 4)
    assert sorted([Triple(2, 0, 0), Triple(-1, 5, 5), Triple(-1, 4, 9)]) == [
        Triple(-1, 4, 9), Triple(-1, 5, 5), Triple(2, 0, 0)]
    with pytest.raises(TypeError):
        Triple(1, 2, 3) < (1, 2, 4)
