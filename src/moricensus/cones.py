"""Maximal-cone counts assembled from model censuses via orbit lengths.

Each equivalence class of models contributes as many maximal cones as
its orbit length under the order-6 group.  The census keeps the
families' :class:`RegularModel` records and sums their orbit lengths; a
declared count gives 3 cones per symmetric model and
6 per other one (:func:`t_cone_count`).  Together they reproduce the
three-component count 2657 and the two-component count 741; the grand
total 3398 is their sum.  Each declared symmetric three-component model
is listed as one more ``RegularModel``, with no triple and the family
label ``"very_degenerate"``.
"""

from __future__ import annotations

from ._record import Record
from .declared import DeclaredEntry
from .errors import ConfigError, InvariantError
from .families import RegularModel

__all__ = [
    "CensusReport",
    "MAX_DECLARED_SYMMETRIC",
    "build_census_report",
    "p_cone_count",
    "symmetric_p_models",
    "t_cone_count",
]


# ``p_very_degenerate_symmetric`` gets one ``p_symmetric`` entry, and one
# printed object, per model; the shipped reading declares 1
MAX_DECLARED_SYMMETRIC = 10_000


class CensusReport(Record):
    """Reconciliation of computed and declared counts.

    ``computed`` holds the regular models themselves, in input order.
    """

    __slots__ = ("p_models", "t_models", "p_symmetric", "p_cones", "t_cones",
                 "computed")

    _defaults = {"computed": ()}

    @property
    def total_cones(self) -> int:
        return self.p_cones + self.t_cones


def symmetric_p_models(records: list[RegularModel]) -> list[RegularModel]:
    """The regular ``records`` with a nontrivial stabilizer, ordered by
    orbit length and triple."""
    return sorted(
        (r for r in records if r.symmetry_order > 1),
        key=lambda r: (r.orbit_length, r.triple),
    )


def p_cone_count(models: list[RegularModel]) -> int:
    """Sum of orbit lengths over the three-component census."""
    return sum(m.orbit_length for m in models)


def t_cone_count(models: int, symmetric: int) -> int:
    """Cones from a declared count of models, ``symmetric`` of them symmetric.

    The rule for every declared count, two-component or very degenerate:
    a symmetric model has orbit length 3, any other orbit length 6.
    Callers check the split first; a split outside ``0 <= symmetric <=
    models`` is a program fault and raises InvariantError.
    """
    if not 0 <= symmetric <= models:
        raise InvariantError(
            f"need 0 <= symmetric <= models, got ({models}, {symmetric})"
        )
    return (models - symmetric) * 6 + symmetric * 3


def _require(entries: dict[str, DeclaredEntry], label: str) -> DeclaredEntry:
    try:
        return entries[label]
    except KeyError:
        raise ConfigError(f"missing required entry {label!r}", field=label) from None


# printed by ``census`` and ``verify``
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
    and ``p_very_degenerate_symmetric``, none negative, each symmetric
    count at most its pair's models and the last at most
    ``MAX_DECLARED_SYMMETRIC``, and totals short enough to print.
    Both declared counts give cones by :func:`t_cone_count`'s rule.
    ``p_symmetric`` ends with one shared record, repeated, for the declared
    symmetric models.
    """
    by_label = {e.label: e for e in declared}
    count = {label: _require(by_label, label).count for label in (
        "t_models", "t_symmetric", "p_very_degenerate",
        "p_very_degenerate_symmetric")}
    for label, value in count.items():
        if value < 0:
            raise ConfigError(f"{label}={value} is negative", field=label)
    for models, symmetric in (("p_very_degenerate", "p_very_degenerate_symmetric"),
                              ("t_models", "t_symmetric")):
        if count[symmetric] > count[models]:
            raise ConfigError(
                f"{symmetric}={count[symmetric]} exceeds {models}={count[models]}",
                field=symmetric,
            )
    t_models, t_symmetric, p_vd, p_vd_sym = count.values()
    if p_vd_sym > MAX_DECLARED_SYMMETRIC:
        raise ConfigError(
            f"p_very_degenerate_symmetric={p_vd_sym} exceeds the bound "
            f"{MAX_DECLARED_SYMMETRIC}",
            field="p_very_degenerate_symmetric",
        )

    declared_record = RegularModel(None, "very_degenerate", None, 3, 2)
    report = CensusReport(
        p_models=len(regular) + p_vd,
        t_models=t_models,
        p_symmetric=tuple(symmetric_p_models(regular)) + (declared_record,) * p_vd_sym,
        p_cones=p_cone_count(regular) + t_cone_count(p_vd, p_vd_sym),
        t_cones=t_cone_count(t_models, t_symmetric),
        computed=tuple(regular),
    )
    # counts that parse can give totals past the interpreter's int-to-text
    # limit; total_cones is the largest number a report prints
    try:
        str(report.total_cones)
    except ValueError:
        label = "t_models" if report.t_cones > report.p_cones else "p_very_degenerate"
        raise ConfigError(f"entry {label!r} gives total_cones too long to print",
                          field="count") from None
    return report
