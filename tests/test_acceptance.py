"""Acceptance gate: every shipped count and property, exact, in one place.

Each test prints one PASS line after its assertions; run with ``-s`` (or
read captured output) to see the checklist.  All comparisons are exact
integer equality; there are no tolerances anywhere in the pipeline.
"""

import random
from collections import Counter

from moricensus.audit import run_full_verification
from moricensus.claims import evaluate_claims, parse_claims
from moricensus.cli import main
from moricensus.closure import MOVE_SETS, closure, encode_triple
from moricensus.cones import build_census_report, t_cone_count
from moricensus.declared import default_declared_text, load_declared
from moricensus.families import (
    family_nondegenerate,
    family_one_degenerate,
    family_two_degenerate,
    regular_models,
)
from moricensus.triples import ELEMENTS, Triple, _images, orbit

from group_action import involution, shift


def ok(number, text):
    print(f"ACCEPTANCE {number} PASS: {text}")


def test_criterion_1_family_cardinalities():
    assert len(family_nondegenerate()) == 25
    assert len(family_one_degenerate()) == 103
    two = family_two_degenerate()
    assert len(two) == 219
    sizes = Counter(m.family for m in two)
    assert [
        sizes[f] for f in ("K", "M0", "M-1", "M-2", "N-2", "N-1", "N0", "N1", "N2")
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
    }
    assert len(computed) == 12
    assert sorted(r.orbit_length for r in computed) == [1, 2, 2] + [3] * 9
    assert len(declared_only) == 1
    assert declared_only[0].orbit_length == 3
    assert len(report.p_symmetric) == 13
    ok(3, "12 computed symmetric triples, multiset {1,2,2,3x9}; 13 with declared")


def test_criterion_4_quoted_equivalences():
    # each quoted move, and the census table's image under its element
    for move, name, t, image in (
        (shift, "s", (-6, 0, 3), (0, 3, -6)),
        (involution, "i", (0, 3, -6), (-3, 0, 6)),
        (involution, "i", (1, 1, 1), (-1, -1, -1)),
        (involution, "i", (-1, -1, -1), (1, 1, 1)),
        (involution, "i", (2, 2, 2), (-2, -2, -2)),
        (involution, "i", (-2, -2, -2), (2, 2, 2)),
    ):
        assert move(t) == _images(*t)[ELEMENTS.index(name)] == image
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
    declared = load_declared(default_declared_text())
    report = build_census_report(regular_models(), declared)
    assert report.p_models == 450
    assert declared["t_models"] == 129
    # the config's breakdown is checked at load; the claims state it
    total = {v.name: v for v in parse_claims_default()}["t_total"]
    assert (total.lhs_value, total.rhs_value, total.holds) == (129, 129, True)
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
        u = tuple(t)
        assert shift(shift(shift(u))) == u
        assert involution(involution(u)) == u
        assert involution(shift(involution(u))) == shift(shift(u))
        # the census table is the six words in the generators
        assert _images(*t) == (u, shift(u), shift(shift(u)), involution(u),
                               involution(shift(u)), involution(shift(shift(u))))
        key, length, order = orbit(t)
        assert length * order == 6
        assert orbit(Triple(*key))[0] == key
        for image in _images(*t):
            assert orbit(Triple(*image))[0] == key

    for model in regular_models():
        result = closure(encode_triple(model.triple), MOVE_SETS["triple_group"])
        assert result.class_count == orbit(model.triple)[1], model.triple
    ok(9, "group axioms, orbit-stabilizer, canonical idempotence, closure oracle "
          "on all 347 triples")


def test_full_verification_is_green():
    report = run_full_verification()
    assert report.exit_status == 0
    assert all(v.as_expected for v in report.verdicts)
    findings = "\n".join(report.findings)
    assert "741" in findings and "747" in findings
    assert "36" in findings and "45" in findings
    ok("*", "run_full_verification: every verdict as expected, findings recorded")
