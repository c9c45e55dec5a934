"""Order-6 equivalence group acting on integer triples.

The group is generated by a shift ``(a, b, c) -> (b, c, a)`` and an
involution ``(a, b, c) -> (-b, -a, -c)``; together they generate six
transformations isomorphic to S3.  Orbits under this action are the
equivalence classes of regular three-component models, and orbit
lengths feed directly into the maximal-cone census.

The census holds triples as plain ``(a, b, c)`` tuples.
:class:`Triple` is the checked input type, built only where a triple
enters from outside.  Each element is a signed permutation of the
components, named by its word in ``s`` and ``i`` as the outputs print
it; ``_images`` is the one table of all six, in ``ELEMENTS`` order.
The component bound is symmetric, so every image of a valid triple is
valid too.
:func:`orbit` takes any ``(a, b, c)`` and reads its canonical key, orbit
length and stabilizer order off one pass over the images; it is the
package's one orbit-stabilizer check, called by the census and the
``orbits`` command.
"""

from __future__ import annotations

from typing import Iterator

from ._record import Record
from .errors import InvariantError

__all__ = [
    "COMPONENT_BOUND",
    "ELEMENTS",
    "Triple",
    "orbit",
]

# All values occurring in the censuses lie in [-9, 9]; the guard surfaces
# misuse without silent wraparound.
COMPONENT_BOUND = 10**6


class Triple(Record):
    """Integer 3-tuple checked against the component bound: the type of
    ``orbits`` arguments, closure graph seeds and library callers'
    triples.  It iterates as ``(a, b, c)`` and equals only Triples.
    """

    __slots__ = ("a", "b", "c")

    def __post_init__(self):
        # the checks name the offending component; they accept int
        # subclasses other than bool
        for name in ("a", "b", "c"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"component {name} must be an int, got {value!r}")
            if abs(value) > COMPONENT_BOUND:
                raise ValueError(
                    f"component {name}={value} outside guarded range "
                    f"[-{COMPONENT_BOUND}, {COMPONENT_BOUND}]"
                )

    def __iter__(self) -> Iterator[int]:
        return iter((self.a, self.b, self.c))


# the six symmetries' words in the shift ``s`` and involution ``i``, in
# the order of ``_images``
ELEMENTS = ("e", "s", "s2", "i", "is", "is2")


def _images(a, b, c):
    """Images of ``(a, b, c)`` under the six elements, in ``ELEMENTS``
    order: the words in s and i written out as signed permutations."""
    return ((a, b, c), (b, c, a), (c, a, b),
            (-b, -a, -c), (-c, -b, -a), (-a, -c, -b))


def orbit(t) -> tuple[tuple[int, int, int], int, int]:
    """Canonical key, orbit length and stabilizer order of any triple
    ``(a, b, c)``, from one pass over its six images.

    The key, the least image as a plain tuple, is constant on orbits:
    the deduplication key for equivalence classes.  Length and
    stabilizer order are counted independently, so their product being
    6 checks orbit-stabilizer; InvariantError if it is not.  Looks
    ``_images`` up at each call, and builds no Triple.
    """
    own = tuple(t)
    images = _images(*own)
    length, order = len(set(images)), images.count(own)
    if length * order != 6:
        raise InvariantError(
            f"orbit-stabilizer violation: |orbit|={length} stabilizer={order}"
        )
    return min(images), length, order
