"""Explicit triple families for the 347 regular three-component models.

Three families: 25 models with all curve structures non-degenerate,
103 with exactly one degenerate, and 219 with two degenerate (the
latter split into nine parameter sets K, M(0), M(-1), M(-2), N(-2),
N(-1), N(0), N(1), N(2)).  Which component is degenerate is carried
only as the family label; no numeric degeneracy predicate exists at
this level.

Families are emitted in census order with triples in lexicographic
order inside each family, so regeneration is deterministic.
"""

from __future__ import annotations

from enum import Enum

from ._record import Record
from .errors import DuplicateClassError
from .triples import Triple, canonical

__all__ = [
    "FamilyId",
    "RegularModel",
    "family_nondegenerate",
    "family_one_degenerate",
    "family_two_degenerate",
    "regular_models",
    "subfamily_sizes",
]


class FamilyId(Enum):
    NONDEG = "nondeg"
    ONE_DEG = "one_deg"
    K = "K"
    M0 = "M0"
    M_NEG1 = "M-1"
    M_NEG2 = "M-2"
    N_NEG2 = "N-2"
    N_NEG1 = "N-1"
    N0 = "N0"
    N1 = "N1"
    N2 = "N2"


class RegularModel(Record):
    """One census unit: a triple, its family, and its dedup key."""

    __slots__ = ("triple", "family", "canonical_key")


def _models(triples, family: FamilyId) -> list[RegularModel]:
    return [
        RegularModel(triple=t, family=family, canonical_key=canonical(t))
        for t in sorted(triples)
    ]


# No closed-form membership rule exists for these 12; they are kept as an
# explicit list.  The dedup check in regular_models() still machine-checks
# consistency with the rest of the census.
_NONDEG_LISTED = [
    (0, 1, -1), (0, 1, 2), (0, 1, -2), (0, 2, 1), (0, 2, -2), (0, -1, 2),
    (0, -1, 1), (0, -2, 2), (1, 2, -1), (1, 2, -2), (1, -1, 2), (1, -2, 2),
]


def family_nondegenerate() -> list[RegularModel]:
    """The 25 models with all three curve structures non-degenerate."""
    triples = [Triple(*t) for t in _NONDEG_LISTED]
    triples += [
        Triple(x, y, y) for x in (1, 2) for y in (-2, -1, 0, 1, 2) if y != x
    ]
    triples += [Triple(0, 1, 1), Triple(0, 2, 2)]
    triples += [Triple(x, x, x) for x in (0, 1, 2)]
    return _models(triples, FamilyId.NONDEG)


def family_one_degenerate() -> list[RegularModel]:
    """The 103 models with exactly one degenerate curve structure.

    Triples (3, y, -3) for 0 <= y <= 2, plus (x, y, z) with x, y in
    [-2, 2] and z in {x-6, ..., -3}; the z-interval depends on x (its
    length is 4 - x), not on y.
    """
    triples = [Triple(3, y, -3) for y in range(0, 3)]
    triples += [
        Triple(x, y, z)
        for x in range(-2, 3)
        for y in range(-2, 3)
        for z in range(x - 6, -2)
    ]
    return _models(triples, FamilyId.ONE_DEG)


def family_two_degenerate() -> list[RegularModel]:
    """The 219 models with two degenerate curve structures.

    Nine parameter sets; sizes 7, 10, 15, 12, 57, 45, 34, 24, 15.  The
    set M(0) carries the extra constraint |z| <= |x|, which removes the
    six triples equivalent to smaller M(0) members under the group.
    """
    out = _models(
        [Triple(x, -3, 3) for x in range(3, 10)], FamilyId.K
    )
    out += _models(
        [
            Triple(x, 0, z)
            for x in range(-6, -2)
            for z in range(3, 7)
            if abs(z) <= abs(x)
        ],
        FamilyId.M0,
    )
    out += _models(
        [Triple(x, -1, z) for x in range(-7, -2) for z in range(3, 6)],
        FamilyId.M_NEG1,
    )
    out += _models(
        [Triple(x, -2, z) for x in range(-8, -2) for z in range(3, 5)],
        FamilyId.M_NEG2,
    )
    for family, last, ylo in (
        (FamilyId.N_NEG2, -2, -8),
        (FamilyId.N_NEG1, -1, -7),
        (FamilyId.N0, 0, -6),
        (FamilyId.N1, 1, -5),
        (FamilyId.N2, 2, -4),
    ):
        out += _models(
            [
                Triple(x, y, last)
                for y in range(ylo, -2)
                for x in range(y - 6, -2)
            ],
            family,
        )
    return out


def regular_models() -> list[RegularModel]:
    """All 347 regular models, verified pairwise inequivalent.

    Raises DuplicateClassError if two generated triples share a
    canonical key: that would mean the families overlap up to the group
    action, i.e. an enumeration or group-action fault.
    """
    models = (
        family_nondegenerate()
        + family_one_degenerate()
        + family_two_degenerate()
    )
    seen: dict[Triple, Triple] = {}
    for model in models:
        other = seen.get(model.canonical_key)
        if other is not None:
            raise DuplicateClassError(other, model.triple, model.canonical_key)
        seen[model.canonical_key] = model.triple
    return models


def subfamily_sizes(models: list[RegularModel]) -> dict[FamilyId, int]:
    sizes = {family: 0 for family in FamilyId}
    for model in models:
        sizes[model.family] += 1
    return sizes
