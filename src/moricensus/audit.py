"""Full verification pass: recompute every count and audit every claim.

Synthesized ``census.*`` verdicts (cite ``computed``) compare engine
output against the totals recorded from the audited text, all kept in
the one table ``CLAIMED``; DSL verdicts re-check the text's arithmetic
identities.  The combined report exits 0 only when every computed count
matches and every claim behaves as marked.

The closure oracle closes each census model's own ``(a, b, c)`` tuple
under the triple group, so it builds no graph and no Triple; ``closure
--moves triple_group`` reads a graph and goes through the rigid
encoding's boundary.  A model counts only if its closure has the
model's orbit length and shares no state with an earlier model's, so
two equivalent census triples fail the count even when the census's
key is wrong.  On the shipped census the union of the 347 closures
holds 2,042 states, counted with no key and no orbit length: the
regular part of ``p_cones``, 2,657 - 6*102 - 3*1.

Only ``closure`` loads with this module.  The census modules load in
``run_full_verification``, so a CLI command that imports this module
for ``default_claims_text`` and runs no verification compiles none of
them.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING

from .closure import closure

if TYPE_CHECKING:
    from .claims import AuditReport, Verdict

__all__ = ["CLAIMED", "default_claims_text", "run_full_verification"]

# Totals as stated by the audited text, one per ``census.*`` verdict in
# report order; computed counts must reproduce these exactly.  The
# closure oracle must reproduce the orbit lengths of all 347 models.
CLAIMED = {
    "census.p_nondeg": 25,
    "census.p_one_deg": 103,
    "census.p_two_deg": 219,
    "census.subfamily.K": 7,
    "census.subfamily.M0": 10,
    "census.subfamily.M-1": 15,
    "census.subfamily.M-2": 12,
    "census.subfamily.N-2": 57,
    "census.subfamily.N-1": 45,
    "census.subfamily.N0": 34,
    "census.subfamily.N1": 24,
    "census.subfamily.N2": 15,
    "census.p_regular_classes": 347,
    "census.p_models": 450,
    "census.t_models": 129,
    "census.p_symmetric": 13,
    "census.p_symmetric_orbit_length_1": 1,
    "census.p_symmetric_orbit_length_2": 2,
    "census.p_symmetric_orbit_length_3": 10,
    "census.p_cones": 2657,
    "census.t_cones": 741,
    "census.total_cones": 3398,
    "census.closure_oracle": 347,
}


def default_claims_text() -> str:
    from importlib import resources

    return (
        resources.files("moricensus").joinpath("data/claims.txt").read_text("utf-8")
    )


def _closure_oracle_matches(records) -> int:
    """How many census records the closure confirms: the closure of the
    record's triple has the record's orbit length, and every one of its
    states is new to the union of the earlier records' closures.
    """
    reached = set()
    matches = 0
    for r in records:
        classes = closure(r.triple, tuple).classes
        before = len(reached)
        reached |= classes
        matches += len(classes) == r.orbit_length == len(reached) - before
    return matches


def run_full_verification(
    declared: dict[str, int] | None = None,
    claims: list[Verdict] | None = None,
) -> AuditReport:
    """Recompute censuses, run the closure oracle, and evaluate claims.

    Defaults to the shipped declared config and claims file.  A computed
    count that differs from its claimed total is a failed ``census.*``
    verdict; that includes overlapping families, which show as a failed
    ``census.p_regular_classes``.
    """
    from .claims import AuditReport, Verdict, evaluate_claims, parse_claims
    from .cones import RECORDED_FINDINGS, build_census_report
    from .declared import default_declared_text, load_declared
    from .families import (family_nondegenerate, family_one_degenerate,
                           family_two_degenerate)

    if declared is None:
        declared = load_declared(default_declared_text())
    if claims is None:
        claims = parse_claims(default_claims_text())

    nondeg = family_nondegenerate()
    one_deg = family_one_degenerate()
    two_deg = family_two_degenerate()
    regular = nondeg + one_deg + two_deg
    report = build_census_report(regular, declared)
    # indexed by the claimed subfamily names, so an emptied or relabelled
    # subfamily reads 0
    sizes = Counter(f"census.subfamily.{m.family}" for m in two_deg)
    # a symmetric orbit has length 1, 2 or 3 under the order-6 group
    lengths = Counter(r.orbit_length for r in report.p_symmetric)
    got = {
        "census.p_nondeg": len(nondeg),
        "census.p_one_deg": len(one_deg),
        "census.p_two_deg": len(two_deg),
        **{n: sizes[n] for n in CLAIMED if n.startswith("census.subfamily.")},
        "census.p_regular_classes": len({m.canonical_key for m in regular}),
        "census.p_models": report.p_models,
        "census.t_models": report.t_models,
        "census.p_symmetric": len(report.p_symmetric),
        **{f"census.p_symmetric_orbit_length_{n}": lengths[n] for n in (1, 2, 3)},
        "census.p_cones": report.p_cones,
        "census.t_cones": report.t_cones,
        "census.total_cones": report.total_cones,
        "census.closure_oracle": _closure_oracle_matches(regular),
    }
    verdicts = tuple(
        Verdict(n, got[n], want, True, "computed")
        for n, want in CLAIMED.items()
    )

    audited = evaluate_claims(claims)
    return AuditReport(
        verdicts=verdicts + audited.verdicts,
        findings=audited.findings + RECORDED_FINDINGS,
    )
