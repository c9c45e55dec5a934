"""Explicit triple families for the 347 regular three-component models.

Three families: 25 models with all curve structures non-degenerate,
103 with exactly one degenerate, and 219 with two degenerate (the
latter split into nine parameter sets K, M(0), M(-1), M(-2), N(-2),
N(-1), N(0), N(1), N(2)).  Which component is degenerate is carried
only as the family label; no numeric degeneracy predicate exists at
this level.  The label is the string the outputs print: ``"nondeg"``,
``"one_deg"``, or one of the nine set names ``"K"``, ``"M0"``,
``"M-1"``, ``"M-2"``, ``"N-2"``, ``"N-1"``, ``"N0"``, ``"N1"``,
``"N2"``.

Families are emitted in census order with triples in lexicographic
order inside each family, so regeneration is deterministic.  Each
family is written as plain ``(a, b, c)`` tuples; :func:`_models` sorts
them and stores each with its :func:`triples.orbit`; the census keeps
these :class:`RegularModel` records.  Every generated component lies
in [-9, 9], far inside the component bound, so the census builds no
:class:`~moricensus.triples.Triple`.
"""

from __future__ import annotations

from . import triples
from ._record import Record
from .errors import DuplicateClassError

__all__ = [
    "RegularModel",
    "family_nondegenerate",
    "family_one_degenerate",
    "family_two_degenerate",
    "regular_models",
]


class RegularModel(Record):
    """One census unit: a triple ``(a, b, c)``, its family label, and its
    orbit.

    The last three fields are what :func:`triples.orbit` returns: the
    canonical key, which is the dedup key, then the orbit length and the
    stabilizer order, whose product it has checked.  A declared model
    has no triple and no key.
    """

    __slots__ = ("triple", "family", "canonical_key", "orbit_length",
                 "symmetry_order")


def _models(components, family: str) -> list[RegularModel]:
    # looked up at each call, so a rebound ``triples.orbit`` is seen
    return [RegularModel(t, family, *triples.orbit(t)) for t in sorted(components)]


# No closed-form membership rule exists for these 12; they are kept as an
# explicit list.  The dedup check in regular_models() still machine-checks
# consistency with the rest of the census.
_NONDEG_LISTED = [
    (0, 1, -1), (0, 1, 2), (0, 1, -2), (0, 2, 1), (0, 2, -2), (0, -1, 2),
    (0, -1, 1), (0, -2, 2), (1, 2, -1), (1, 2, -2), (1, -1, 2), (1, -2, 2),
]


def family_nondegenerate() -> list[RegularModel]:
    """The 25 models with all three curve structures non-degenerate."""
    components = list(_NONDEG_LISTED)
    components += [(x, y, y) for x in (1, 2) for y in (-2, -1, 0, 1, 2) if y != x]
    components += [(0, 1, 1), (0, 2, 2)]
    components += [(x, x, x) for x in (0, 1, 2)]
    return _models(components, "nondeg")


def family_one_degenerate() -> list[RegularModel]:
    """The 103 models with exactly one degenerate curve structure.

    Triples (3, y, -3) for 0 <= y <= 2, plus (x, y, z) with x, y in
    [-2, 2] and z in {x-6, ..., -3}; the z-interval depends on x (its
    length is 4 - x), not on y.
    """
    components = [(3, y, -3) for y in range(0, 3)]
    components += [
        (x, y, z)
        for x in range(-2, 3)
        for y in range(-2, 3)
        for z in range(x - 6, -2)
    ]
    return _models(components, "one_deg")


def family_two_degenerate() -> list[RegularModel]:
    """The 219 models with two degenerate curve structures.

    Nine parameter sets; sizes 7, 10, 15, 12, 57, 45, 34, 24, 15.  The
    set M(0) carries the extra constraint |z| <= |x|, which removes the
    six triples equivalent to smaller M(0) members under the group.
    """
    out = _models([(x, -3, 3) for x in range(3, 10)], "K")
    out += _models([(x, 0, z) for x in range(-6, -2) for z in range(3, 7)
                    if abs(z) <= abs(x)], "M0")
    out += _models([(x, -1, z) for x in range(-7, -2) for z in range(3, 6)], "M-1")
    out += _models([(x, -2, z) for x in range(-8, -2) for z in range(3, 5)], "M-2")
    for family, last, ylo in (("N-2", -2, -8), ("N-1", -1, -7), ("N0", 0, -6),
                              ("N1", 1, -5), ("N2", 2, -4)):
        out += _models([(x, y, last) for y in range(ylo, -2)
                        for x in range(y - 6, -2)], family)
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
    seen: dict[tuple[int, int, int], tuple[int, int, int]] = {}
    for model in models:
        other = seen.get(model.canonical_key)
        if other is not None:
            raise DuplicateClassError(other, model.triple, model.canonical_key)
        seen[model.canonical_key] = model.triple
    return models
