"""Acceptance gate: every shipped count and property, exact, in one place.

Each test prints one PASS line after its assertions; run with ``-s`` (or
read captured output) to see the checklist.  All comparisons are exact
integer equality; there are no tolerances anywhere in the pipeline.
"""

import random

from moricensus.audit import run_full_verification
from moricensus.claims import evaluate_claims, parse_claims
from moricensus.cli import main
from moricensus.closure import MOVE_SETS, MoveSet, closure, encode_triple
from moricensus.cones import build_census_report, t_cone_count
from moricensus.declared import default_declared_text, load_declared
from moricensus.families import (
    FamilyId,
    family_nondegenerate,
    family_one_degenerate,
    family_two_degenerate,
    regular_models,
    subfamily_sizes,
)
from moricensus.triples import (
    GroupElement,
    Triple,
    apply,
    canonical,
    involution,
    orbit,
    shift,
)


def ok(number, text):
    print(f"ACCEPTANCE {number} PASS: {text}")


def test_criterion_1_family_cardinalities():
    assert len(family_nondegenerate()) == 25
    assert len(family_one_degenerate()) == 103
    two = family_two_degenerate()
    assert len(two) == 219
    sizes = subfamily_sizes(two)
    assert [
        sizes[f]
        for f in (
            FamilyId.K,
            FamilyId.M0,
            FamilyId.M_NEG1,
            FamilyId.M_NEG2,
            FamilyId.N_NEG2,
            FamilyId.N_NEG1,
            FamilyId.N0,
            FamilyId.N1,
            FamilyId.N2,
        )
    ] == [7, 10, 15, 12, 57, 45, 34, 24, 15]
    ok(1, "family sizes 25/103/219 with subfamilies 7,10,15,12,57,45,34,24,15")


def test_criterion_2_pairwise_inequivalence():
    models = regular_models()
    assert len(models) == 347
    assert len({m.canonical_key for m in models}) == 347
    ok(2, "347 regular triples give 347 distinct canonical forms")


def test_criterion_3_symmetry_census():
    declared = load_declared(default_declared_text())
    report = build_census_report(regular_models(), declared)
    computed = [r for r in report.p_symmetric if r.triple is not None]
    declared_only = [r for r in report.p_symmetric if r.triple is None]
    assert {r.triple for r in computed} == {
        Triple(*t)
        for t in [
            (0, 0, 0),
            (1, 1, 1),
            (2, 2, 2),
            (0, 1, -1),
            (0, -1, 1),
            (0, 2, -2),
            (0, -2, 2),
            (3, 0, -3),
            (-3, 0, 3),
            (-4, 0, 4),
            (-5, 0, 5),
            (-6, 0, 6),
        ]
    }
    assert len(computed) == 12
    assert sorted(r.orbit_length for r in computed) == [1, 2, 2] + [3] * 9
    assert len(declared_only) == 1
    assert declared_only[0].orbit_length == 3
    assert len(report.p_symmetric) == 13
    ok(3, "12 computed symmetric triples, multiset {1,2,2,3x9}; 13 with declared")


def test_criterion_4_quoted_equivalences():
    assert shift(Triple(-6, 0, 3)) == Triple(0, 3, -6)
    assert involution(Triple(0, 3, -6)) == Triple(-3, 0, 6)
    assert involution(Triple(1, 1, 1)) == Triple(-1, -1, -1)
    assert involution(Triple(-1, -1, -1)) == Triple(1, 1, 1)
    assert involution(Triple(2, 2, 2)) == Triple(-2, -2, -2)
    assert involution(Triple(-2, -2, -2)) == Triple(2, 2, 2)
    ok(4, "all quoted shift/involution equivalence instances hold")


def test_criterion_5_cone_counts():
    declared = load_declared(default_declared_text())
    report = build_census_report(regular_models(), declared)
    assert report.p_cones == 2657
    assert t_cone_count(129, 11) == 741
    assert report.t_cones == 741
    assert report.total_cones == 3398
    ok(5, "cone counts 2657 + 741 = 3398")


def test_criterion_6_model_totals():
    declared = {e.label: e for e in load_declared(default_declared_text())}
    report = build_census_report(
        regular_models(), list(declared.values())
    )
    assert report.p_models == 450
    assert declared["t_models"].count == 129
    assert declared["t_models"].breakdown == (83, 1, 45)
    assert sum(declared["t_models"].breakdown) == 129
    ok(6, "450 three-component models; 129 two-component with breakdown 83+1+45")


def test_criterion_7_correction_arithmetic():
    report = evaluate_claims(parse_claims_default())
    by_name = {v.name: v for v in report.verdicts}
    for name, value in [
        ("p_verydeg_cases_corrected", 3),
        ("p_verydeg_cases_original", 4),
        ("p_verydeg_overcount", 1),
        ("t_n1_2_stated_ranges", 17),
        ("t_n1_2_removed_cases", 2),
    ]:
        verdict = by_name[name]
        assert verdict.holds and verdict.expect_holds, name
        assert verdict.lhs_value == verdict.rhs_value == value, name
    ok(7, "interval cases 3 vs 4; removed flop sub-cases differ by 2")


def test_criterion_8_audit_findings(capsys):
    report = evaluate_claims(parse_claims_default())
    by_name = {v.name: v for v in report.verdicts}
    display = by_name["t_cones_proof_display"]
    assert not display.holds and display.lhs_value == 741 and display.rhs_value == 747
    subcount = by_name["t_low_low_subcount"]
    assert not subcount.holds and (subcount.lhs_value, subcount.rhs_value) == (36, 45)
    for verdict in report.verdicts:
        if verdict.expect_holds:
            assert verdict.holds, verdict.name
    assert report.exit_status == 0
    assert main(["verify"]) == 0
    capsys.readouterr()
    ok(8, "shipped claims flag 747 and 36/45; corrected identities hold; verify exits 0")


def parse_claims_default():
    from moricensus.audit import default_claims_text

    return parse_claims(default_claims_text())


def test_criterion_9_property_suite():
    rng = random.Random(34701)
    for _ in range(1000):
        t = Triple(*(rng.randint(-200, 200) for _ in range(3)))
        assert shift(shift(shift(t))) == t
        assert involution(involution(t)) == t
        assert involution(shift(involution(t))) == shift(shift(t))
        record = orbit(t)
        assert record.length * record.stabilizer_order == 6
        key = canonical(t)
        assert canonical(key) == key
        for g in GroupElement:
            assert canonical(apply(g, t)) == key

    moves = MOVE_SETS["triple_group"]
    order = list(moves.moves)
    rng.shuffle(order)
    shuffled = MoveSet(moves=tuple(order), to_state=moves.to_state,
                       to_graph=moves.to_graph)
    for model in regular_models():
        expected = orbit(model.triple).length
        seed = encode_triple(model.triple)
        result = closure(seed, moves)
        assert result.class_count == expected, model.triple
        assert closure(seed, shuffled).classes == result.classes
    ok(9, "group axioms, orbit-stabilizer, canonical idempotence, closure oracle "
          "on all 347 triples, order independence")


def test_full_verification_is_green():
    report = run_full_verification()
    assert report.exit_status == 0
    assert all(v.as_expected for v in report.verdicts)
    findings = "\n".join(report.findings)
    assert "741" in findings and "747" in findings
    assert "36" in findings and "45" in findings
    ok("*", "run_full_verification: every verdict as expected, findings recorded")
