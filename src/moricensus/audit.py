"""Full verification pass: recompute every count and audit every claim.

Synthesized verdicts (cite ``computed``) compare engine output against
the totals recorded from the audited text; DSL verdicts re-check the
text's arithmetic identities.  The combined report exits 0 only when
every computed count matches and every claim behaves as marked.
"""

from __future__ import annotations

from collections import Counter

from .claims import AuditReport, Claim, Verdict, evaluate_claims, parse_claims
from .closure import MOVE_SETS, closure, encode_triple
from .cones import RECORDED_FINDINGS, build_census_report
from .declared import DeclaredEntry, load_declared
from .families import (
    FamilyId,
    family_nondegenerate,
    family_one_degenerate,
    family_two_degenerate,
    subfamily_sizes,
)

__all__ = ["CLAIMED", "default_claims_text", "run_full_verification"]

# Totals as stated by the audited text; computed counts must reproduce
# these exactly.
CLAIMED = {
    "p_nondeg": 25,
    "p_one_deg": 103,
    "p_two_deg": 219,
    "p_regular": 347,
    "p_models": 450,
    "t_models": 129,
    "p_symmetric": 13,
    "t_symmetric": 11,
    "p_cones": 2657,
    "t_cones": 741,
    "total_cones": 3398,
}

CLAIMED_SUBFAMILY_SIZES = {
    FamilyId.K: 7,
    FamilyId.M0: 10,
    FamilyId.M_NEG1: 15,
    FamilyId.M_NEG2: 12,
    FamilyId.N_NEG2: 57,
    FamilyId.N_NEG1: 45,
    FamilyId.N0: 34,
    FamilyId.N1: 24,
    FamilyId.N2: 15,
}

# Orbit lengths over the 13 symmetric models: one fixed class, two of
# length 2, ten of length 3.
CLAIMED_SYMMETRIC_ORBITS = {1: 1, 2: 2, 3: 10}


def default_claims_text() -> str:
    from importlib import resources

    return (
        resources.files("moricensus").joinpath("data/claims.txt").read_text("utf-8")
    )


def _computed(name: str, got: int, want: int) -> Verdict:
    return Verdict(
        name=name,
        holds=(got == want),
        lhs_value=got,
        rhs_value=want,
        expect_holds=True,
        cite="computed",
    )


def _closure_oracle_matches(records) -> int:
    """How many census records' orbit lengths the closure reproduces."""
    moves = MOVE_SETS["triple_group"]
    matches = 0
    for record in records:
        result = closure(encode_triple(record.triple), moves)
        if result.class_count == record.orbit_length:
            matches += 1
    return matches


def run_full_verification(
    declared: list[DeclaredEntry] | None = None,
    claims: list[Claim] | None = None,
) -> AuditReport:
    """Recompute censuses, run the closure oracle, and evaluate claims.

    Defaults to the shipped declared config and claims file.  A computed
    count that differs from its claimed total is a failed ``census.*``
    verdict; that includes overlapping families, which show as a failed
    ``census.p_regular_classes``.
    """
    if declared is None:
        from .declared import default_declared_text

        declared = load_declared(default_declared_text())
    if claims is None:
        claims = parse_claims(default_claims_text())

    verdicts: list[Verdict] = []

    nondeg = family_nondegenerate()
    one_deg = family_one_degenerate()
    two_deg = family_two_degenerate()
    verdicts.append(_computed("census.p_nondeg", len(nondeg), CLAIMED["p_nondeg"]))
    verdicts.append(_computed("census.p_one_deg", len(one_deg), CLAIMED["p_one_deg"]))
    verdicts.append(_computed("census.p_two_deg", len(two_deg), CLAIMED["p_two_deg"]))
    sizes = subfamily_sizes(two_deg)
    for family, want in CLAIMED_SUBFAMILY_SIZES.items():
        verdicts.append(
            _computed(f"census.subfamily.{family.value}", sizes[family], want)
        )

    regular = nondeg + one_deg + two_deg
    distinct = len({m.canonical_key for m in regular})
    verdicts.append(_computed("census.p_regular_classes", distinct, CLAIMED["p_regular"]))

    report = build_census_report(regular, declared)
    verdicts.append(_computed("census.p_models", report.p_models, CLAIMED["p_models"]))
    verdicts.append(_computed("census.t_models", report.t_models, CLAIMED["t_models"]))
    verdicts.append(
        _computed("census.p_symmetric", len(report.p_symmetric), CLAIMED["p_symmetric"])
    )
    orbit_counts = Counter(r.orbit_length for r in report.p_symmetric)
    for length, want in CLAIMED_SYMMETRIC_ORBITS.items():
        verdicts.append(
            _computed(
                f"census.p_symmetric_orbit_length_{length}",
                orbit_counts.get(length, 0),
                want,
            )
        )
    verdicts.append(_computed("census.p_cones", report.p_cones, CLAIMED["p_cones"]))
    verdicts.append(_computed("census.t_cones", report.t_cones, CLAIMED["t_cones"]))
    verdicts.append(
        _computed("census.total_cones", report.total_cones, CLAIMED["total_cones"])
    )

    verdicts.append(
        _computed(
            "census.closure_oracle",
            _closure_oracle_matches(report.computed),
            CLAIMED["p_regular"],
        )
    )

    audited = evaluate_claims(claims)
    return AuditReport(
        verdicts=tuple(verdicts) + audited.verdicts,
        findings=audited.findings + RECORDED_FINDINGS,
    )
