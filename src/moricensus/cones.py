"""Maximal-cone counts assembled from model censuses via orbit lengths.

Each equivalence class of models contributes as many maximal cones as
its orbit length under the order-6 group; that single aggregation rule
reproduces the three-component count 2657, the two-component count 741,
and the grand total 3398.
"""

from __future__ import annotations

from enum import Enum

from ._record import Record
from .declared import DeclaredEntry
from .errors import ConfigError
from .families import RegularModel
from .triples import _orbit_counts

__all__ = [
    "CensusReport",
    "ModelRecord",
    "Source",
    "build_census_report",
    "p_cone_count",
    "symmetric_p_models",
    "t_cone_count",
]


class Source(Enum):
    COMPUTED_TRIPLE = "computed"
    DECLARED = "declared"


class ModelRecord(Record):
    """A model census unit carrying its orbit length and symmetry order."""

    __slots__ = ("source", "family", "orbit_length", "symmetry_order", "triple")
    _defaults = {"triple": None}

    def __post_init__(self):
        if self.orbit_length * self.symmetry_order != 6:
            raise ValueError(
                f"orbit-stabilizer violation: {self.orbit_length} x "
                f"{self.symmetry_order} != 6"
            )
        if self.source is Source.COMPUTED_TRIPLE and self.triple is None:
            raise ValueError("computed record needs a triple")


class CensusReport(Record):
    """Reconciliation of computed and declared counts.

    ``computed`` holds one record per regular model, in input order.
    """

    __slots__ = ("p_models", "t_models", "p_symmetric", "p_cones", "t_cones",
                 "total_cones", "findings", "computed")

    _defaults = {"findings": (), "computed": ()}

    def __post_init__(self):
        if self.total_cones != self.p_cones + self.t_cones:
            raise ValueError(
                f"total {self.total_cones} != {self.p_cones} + {self.t_cones}"
            )


def computed_record(model: RegularModel) -> ModelRecord:
    """The census record of a regular model.

    Orbit length and symmetry order are counted from the six images of
    the model's triple, as plain tuples: the census sums lengths, so it
    builds no orbit members.  ``ModelRecord`` checks their product.
    """
    images, fixing = _orbit_counts(model.triple)
    return ModelRecord(
        source=Source.COMPUTED_TRIPLE,
        family=model.family,
        orbit_length=len(images),
        symmetry_order=fixing,
        triple=model.triple,
    )


def symmetric_p_models(
    records: list[ModelRecord],
    declared_symmetric: list[ModelRecord],
) -> list[ModelRecord]:
    """All symmetric three-component models.

    The computed ``records`` with a nontrivial stabilizer, ordered by
    orbit length and triple, followed by ``declared_symmetric``.
    """
    symmetric = sorted(
        (r for r in records if r.symmetry_order > 1),
        key=lambda r: (r.orbit_length, r.triple),
    )
    return symmetric + list(declared_symmetric)


def p_cone_count(models: list[ModelRecord]) -> int:
    """Sum of orbit lengths over the three-component census."""
    return sum(m.orbit_length for m in models)


def t_cone_count(t_models: int, t_symmetric: int) -> int:
    """Cones from two-component models: symmetric ones have orbit length 3."""
    if not 0 <= t_symmetric <= t_models:
        raise ValueError(
            f"need 0 <= symmetric <= models, got ({t_models}, {t_symmetric})"
        )
    return (t_models - t_symmetric) * 6 + t_symmetric * 3


def _require(entries: dict[str, DeclaredEntry], label: str) -> DeclaredEntry:
    try:
        return entries[label]
    except KeyError:
        raise ConfigError(f"missing required entry {label!r}", field=label) from None


RECORDED_FINDINGS = (
    "two-component cone proof display: 118*6 + 11*3 evaluates to 741, "
    "not the displayed 747; the theorem total 741 is correct",
    "two-component sub-count: the n1,n2 <= -2 case is stated as 36 but the "
    "total 83+1+45=129 uses 45",
    "n1=2 flop sub-cases: the stated ranges give 9+8=17 cases while the "
    "corrected case total is 19; two sub-cases are not restated here",
)


def build_census_report(
    regular: list[RegularModel],
    declared: list[DeclaredEntry],
) -> CensusReport:
    """Assemble the full census from computed models and declared entries.

    Requires entries ``t_models``, ``t_symmetric``, ``p_very_degenerate``
    and ``p_very_degenerate_symmetric``.  Declared very-degenerate models
    default to orbit length 6 apart from the declared symmetric ones
    (orbit length 3).
    """
    by_label = {e.label: e for e in declared}
    t_models = _require(by_label, "t_models").count
    t_symmetric = _require(by_label, "t_symmetric").count
    p_vd = _require(by_label, "p_very_degenerate").count
    p_vd_sym = _require(by_label, "p_very_degenerate_symmetric").count
    if p_vd_sym > p_vd:
        raise ConfigError(
            f"p_very_degenerate_symmetric={p_vd_sym} exceeds "
            f"p_very_degenerate={p_vd}",
            field="p_very_degenerate_symmetric",
        )

    declared_records = [
        ModelRecord(
            source=Source.DECLARED,
            family="very_degenerate",
            orbit_length=6,
            symmetry_order=1,
        )
        for _ in range(p_vd - p_vd_sym)
    ] + [
        ModelRecord(
            source=Source.DECLARED,
            family="very_degenerate",
            orbit_length=3,
            symmetry_order=2,
        )
        for _ in range(p_vd_sym)
    ]
    declared_symmetric = [r for r in declared_records if r.symmetry_order > 1]

    computed = [computed_record(m) for m in regular]
    symmetric = symmetric_p_models(computed, declared_symmetric)
    records = computed + declared_records
    p_cones = p_cone_count(records)
    t_cones = t_cone_count(t_models, t_symmetric)
    return CensusReport(
        p_models=len(records),
        t_models=t_models,
        p_symmetric=tuple(symmetric),
        p_cones=p_cones,
        t_cones=t_cones,
        total_cones=p_cones + t_cones,
        findings=RECORDED_FINDINGS,
        computed=tuple(computed),
    )
