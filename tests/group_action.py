"""The triple group written out once for the tests, apart from the package.

``shift`` and ``involution`` are the two generators on any ``(a, b, c)``;
each returns a plain tuple.  ``RAW`` names the six elements as
``orbits`` prints them, the words e, s, s2, i, is, is2 in the shift
``s`` and involution ``i``, and writes each out directly as a signed
permutation.  Nothing here reads a table of ``moricensus``, so a test
that compares the package with these shares no code with it.
"""


def shift(t):
    a, b, c = t
    return b, c, a


def involution(t):
    a, b, c = t
    return -b, -a, -c


RAW = {
    "e": lambda a, b, c: (a, b, c),
    "s": lambda a, b, c: (b, c, a),
    "s2": lambda a, b, c: (c, a, b),
    "i": lambda a, b, c: (-b, -a, -c),
    "is": lambda a, b, c: (-c, -b, -a),
    "is2": lambda a, b, c: (-a, -c, -b),
}


def raw_orbit(t):
    """What ``triples.orbit(t)`` returns, from RAW alone: the least
    image, the number of distinct images and the number of elements
    fixing ``t``."""
    images = [image(*t) for image in RAW.values()]
    return min(images), len(set(images)), images.count(tuple(t))
