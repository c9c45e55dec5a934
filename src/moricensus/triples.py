"""Order-6 equivalence group acting on integer triples.

The group is generated by a shift ``(a, b, c) -> (b, c, a)`` and an
involution ``(a, b, c) -> (-b, -a, -c)``; together they generate six
transformations isomorphic to S3.  Orbits under this action are the
equivalence classes of regular three-component models, and orbit
lengths feed directly into the maximal-cone census.

Each element is a signed permutation of the components, and
``_images`` is the one table of all six, acting on plain ``(a, b, c)``
tuples.  The component bound is symmetric, so every image of a valid
triple is valid too.  :func:`orbit` reads a triple's canonical key,
orbit length and stabilizer order off one pass over the images, and is
the package's one orbit-stabilizer check; the census and the ``orbits``
command both call it.
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
    "Triple",
    "orbit",
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

    # Record gives equality and hashing.  The symmetry census sorts by
    # triple, so __lt__ is written out; total_ordering derives the rest.
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


def _images(a, b, c):
    """Images of ``(a, b, c)`` under the six elements, in enum order: the
    words in s and i written out as signed permutations."""
    return ((a, b, c), (b, c, a), (c, a, b),
            (-b, -a, -c), (-c, -b, -a), (-a, -c, -b))


def orbit(t: Triple) -> tuple[tuple[int, int, int], int, int]:
    """Canonical key, orbit length and stabilizer order of ``t``, from
    one pass over its six images.

    The key, the least image as a plain tuple, is constant on orbits:
    the deduplication key for equivalence classes.  Length and
    stabilizer order are counted independently, so their product being
    6 checks orbit-stabilizer; InvariantError if it is not.  Looks
    ``_images`` up at each call, and builds no Triple.
    """
    own = (t.a, t.b, t.c)
    images = _images(*own)
    length, order = len(set(images)), images.count(own)
    if length * order != 6:
        raise InvariantError(
            f"orbit-stabilizer violation: |orbit|={length} stabilizer={order}"
        )
    return min(images), length, order
