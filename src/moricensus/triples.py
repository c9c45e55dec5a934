"""Order-6 equivalence group acting on integer triples.

The group is generated by a shift ``(a, b, c) -> (b, c, a)`` and an
involution ``(a, b, c) -> (-b, -a, -c)``; together they generate six
transformations isomorphic to S3.  Orbits under this action are the
equivalence classes of regular three-component models, and orbit
lengths feed directly into the maximal-cone census.

Each element is a signed permutation of the components, so the
group-action functions act on plain ``(a, b, c)`` tuples and build a
``Triple`` only for their results.  The component bound is symmetric,
so every image of a valid triple is valid too.  The census needs only
each orbit's length and stabilizer order; it reads both off the six
image tuples (``_orbit_counts``) and builds no Triple, while
:func:`orbit` turns the same images into an :class:`OrbitRecord`.
"""

from __future__ import annotations

from enum import Enum
from functools import total_ordering
from typing import Iterator

from ._record import Record
from .errors import InvariantError

__all__ = [
    "COMPONENT_BOUND",
    "GroupElement",
    "OrbitRecord",
    "Triple",
    "apply",
    "canonical",
    "involution",
    "orbit",
    "shift",
    "stabilizer",
]

# All values occurring in the censuses lie in [-9, 9]; the guard surfaces
# misuse without silent wraparound.
COMPONENT_BOUND = 10**6


def _plain_components(a, b, c) -> bool:
    """Whether a, b and c are all exactly ``int`` and inside the bound."""
    return (type(a) is int and type(b) is int and type(c) is int
            and -COMPONENT_BOUND <= a <= COMPONENT_BOUND
            and -COMPONENT_BOUND <= b <= COMPONENT_BOUND
            and -COMPONENT_BOUND <= c <= COMPONENT_BOUND)


@total_ordering
class Triple(Record):
    """Ordered integer 3-tuple labelling a three-component model.

    Triples compare and order as the tuple ``(a, b, c)``, and only with
    triples.
    """

    __slots__ = ("a", "b", "c")

    def __post_init__(self):
        if _plain_components(self.a, self.b, self.c):
            return
        # the per-field checks name the offending component; they also
        # accept int subclasses other than bool
        for name in ("a", "b", "c"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"component {name} must be an int, got {value!r}")
            if abs(value) > COMPONENT_BOUND:
                raise ValueError(
                    f"component {name}={value} outside guarded range "
                    f"[-{COMPONENT_BOUND}, {COMPONENT_BOUND}]"
                )

    # Record gives equality and hashing.  The families sort their
    # triples, so __lt__ is written out; total_ordering derives the rest.
    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return (self.a, self.b, self.c) < (other.a, other.b, other.c)
        return NotImplemented

    def __iter__(self) -> Iterator[int]:
        return iter((self.a, self.b, self.c))

    def __repr__(self):
        return f"({self.a}, {self.b}, {self.c})"


class GroupElement(Enum):
    """The six symmetries: words in the shift ``s`` and involution ``i``."""

    E = "e"
    S = "s"
    S2 = "s2"
    I = "i"
    IS = "is"
    IS2 = "is2"


# Each element as a map on plain components: the words in s and i
# written out as signed permutations.
_ACTIONS = {
    GroupElement.E: lambda a, b, c: (a, b, c),
    GroupElement.S: lambda a, b, c: (b, c, a),
    GroupElement.S2: lambda a, b, c: (c, a, b),
    GroupElement.I: lambda a, b, c: (-b, -a, -c),
    GroupElement.IS: lambda a, b, c: (-c, -b, -a),
    GroupElement.IS2: lambda a, b, c: (-a, -c, -b),
}


def apply(g: GroupElement, t: Triple) -> Triple:
    """Image of ``t`` under the group element ``g``."""
    return Triple(*_ACTIONS[g](t.a, t.b, t.c))


def shift(t: Triple) -> Triple:
    """Left cyclic rotation: (a, b, c) -> (b, c, a)."""
    return apply(GroupElement.S, t)


def involution(t: Triple) -> Triple:
    """Swap the first two components and negate all three."""
    return apply(GroupElement.I, t)


class OrbitRecord(Record):
    """Full orbit of a triple with its canonical representative.

    Satisfies orbit-stabilizer: ``len(members) * stabilizer_order == 6``.
    """

    __slots__ = ("representative", "members", "stabilizer_order")

    def __post_init__(self):
        if len(self.members) * self.stabilizer_order != 6:
            raise InvariantError(
                f"orbit-stabilizer violation: |orbit|={len(self.members)} "
                f"stabilizer={self.stabilizer_order}"
            )

    @property
    def length(self) -> int:
        return len(self.members)


def _images(t: Triple) -> list[tuple[int, int, int]]:
    """Images of ``t`` under the six elements, in enum order."""
    return [act(t.a, t.b, t.c) for act in _ACTIONS.values()]


def stabilizer(t: Triple) -> tuple[GroupElement, ...]:
    """Group elements fixing ``t``, in enum order."""
    own = (t.a, t.b, t.c)
    return tuple(g for g, image in zip(_ACTIONS, _images(t)) if image == own)


def _orbit_counts(t: Triple) -> tuple[set[tuple[int, int, int]], int]:
    """Distinct images of ``t`` and the number of elements fixing it.

    The two are counted independently, so their product being 6 checks
    orbit-stabilizer.  Builds no Triple.
    """
    images = _images(t)
    return set(images), images.count((t.a, t.b, t.c))


def orbit(t: Triple) -> OrbitRecord:
    """Orbit of ``t`` under all six group elements."""
    images, fixing = _orbit_counts(t)
    members = frozenset(Triple(*image) for image in images)
    return OrbitRecord(
        representative=min(members),
        members=members,
        stabilizer_order=fixing,
    )


def canonical(t: Triple) -> Triple:
    """Lexicographically smallest member of the orbit of ``t``.

    Idempotent and constant on orbits: the deduplication key for
    equivalence classes.
    """
    return Triple(*min(_images(t)))
