import itertools
import random

import pytest
from hypothesis import given, strategies as st

from moricensus.triples import (
    COMPONENT_BOUND,
    GroupElement,
    Triple,
    apply,
    canonical,
    involution,
    orbit,
    shift,
    stabilizer,
)

# Independent oracle: the six transformations written out directly as
# signed permutations, bypassing the module's composition machinery.
RAW = {
    "e": lambda a, b, c: (a, b, c),
    "s": lambda a, b, c: (b, c, a),
    "s2": lambda a, b, c: (c, a, b),
    "i": lambda a, b, c: (-b, -a, -c),
    "is": lambda a, b, c: (-c, -b, -a),
    "is2": lambda a, b, c: (-a, -c, -b),
}

triples = st.builds(
    Triple,
    st.integers(-1000, 1000),
    st.integers(-1000, 1000),
    st.integers(-1000, 1000),
)


def as_tuple(t):
    return (t.a, t.b, t.c)


@pytest.mark.parametrize(
    "given_triple,expected",
    [
        ((-6, 0, 3), (0, 3, -6)),
        ((0, 0, 0), (0, 0, 0)),
        ((1, 2, -1), (2, -1, 1)),
    ],
)
def test_shift_examples(given_triple, expected):
    assert shift(Triple(*given_triple)) == Triple(*expected)


@pytest.mark.parametrize(
    "given_triple,expected",
    [
        ((0, 3, -6), (-3, 0, 6)),
        ((1, 1, 1), (-1, -1, -1)),
        ((0, 0, 0), (0, 0, 0)),
    ],
)
def test_involution_examples(given_triple, expected):
    assert involution(Triple(*given_triple)) == Triple(*expected)


def test_apply_examples():
    assert apply(GroupElement.E, Triple(1, 2, 3)) == Triple(1, 2, 3)
    assert apply(GroupElement.S2, Triple(-6, 0, 3)) == Triple(3, -6, 0)
    # the two-step equivalence chain: shift then involution
    assert apply(GroupElement.IS, Triple(-6, 0, 3)) == involution(
        shift(Triple(-6, 0, 3))
    )
    assert apply(GroupElement.IS, Triple(-6, 0, 3)) == Triple(-3, 0, 6)


@given(triples)
def test_apply_matches_raw_oracle(t):
    for g in GroupElement:
        assert as_tuple(apply(g, t)) == RAW[g.value](*as_tuple(t))


def test_group_axioms_on_random_sample():
    rng = random.Random(20260810)
    for _ in range(1000):
        t = Triple(*(rng.randint(-9, 9) for _ in range(3)))
        assert shift(shift(shift(t))) == t
        assert involution(involution(t)) == t
        assert involution(shift(involution(t))) == shift(shift(t))


@given(triples)
def test_group_axioms_property(t):
    assert shift(shift(shift(t))) == t
    assert involution(involution(t)) == t
    assert involution(shift(involution(t))) == shift(shift(t))


PROBE = Triple(1, 2, 4)


def product(g, h):
    # The six elements move the probe to six distinct images, so the
    # product g h is the one element that agrees with it there.
    target = apply(g, apply(h, PROBE))
    matches = [k for k in GroupElement if apply(k, PROBE) == target]
    assert len(matches) == 1
    return matches[0]


def test_composition_table_closed_and_associative():
    assert len({apply(g, PROBE) for g in GroupElement}) == 6
    for g in GroupElement:
        for h in GroupElement:
            assert product(g, h) in GroupElement
            for k in GroupElement:
                assert product(product(g, h), k) == product(g, product(h, k))


@given(triples)
def test_compose_agrees_with_apply(t):
    for g in GroupElement:
        for h in GroupElement:
            assert apply(product(g, h), t) == apply(g, apply(h, t))


@pytest.mark.parametrize(
    "given_triple,length,stab_order",
    [
        ((0, 0, 0), 1, 6),
        ((1, 1, 1), 2, 3),
        ((0, -1, 1), 3, 2),
        ((1, 2, -2), 6, 1),
    ],
)
def test_orbit_examples(given_triple, length, stab_order):
    record = orbit(Triple(*given_triple))
    assert record.length == length
    assert record.stabilizer_order == stab_order


def test_orbit_members_of_cyclic_triple():
    record = orbit(Triple(1, 1, 1))
    assert record.members == {Triple(1, 1, 1), Triple(-1, -1, -1)}
    assert record.representative == Triple(-1, -1, -1)


def test_orbit_of_generic_triple_has_six_distinct_images():
    images = {RAW[g.value](1, 2, -2) for g in GroupElement}
    assert len(images) == 6
    assert orbit(Triple(1, 2, -2)).members == {Triple(*x) for x in images}


@given(triples)
def test_orbit_stabilizer_product(t):
    record = orbit(t)
    assert record.length * record.stabilizer_order == 6
    assert len(stabilizer(t)) == record.stabilizer_order


@given(triples)
def test_abs_multiset_invariant(t):
    for g in GroupElement:
        assert sorted(map(abs, apply(g, t))) == sorted(map(abs, t))


@pytest.mark.parametrize(
    "given_triple,expected",
    [
        ((1, 1, 1), (-1, -1, -1)),
        ((0, 0, 0), (0, 0, 0)),
        # full orbit of (-6,0,3): {(-6,0,3),(0,3,-6),(3,-6,0),(0,6,-3),
        # (-3,0,6),(6,-3,0)}; its lexicographic minimum is (-6,0,3)
        ((-6, 0, 3), (-6, 0, 3)),
    ],
)
def test_canonical_examples(given_triple, expected):
    assert canonical(Triple(*given_triple)) == Triple(*expected)


@given(triples)
def test_canonical_idempotent_and_orbit_constant(t):
    key = canonical(t)
    assert canonical(key) == key
    for g in GroupElement:
        assert canonical(apply(g, t)) == key
    assert key == min(orbit(t).members)


def test_component_range_guard():
    Triple(COMPONENT_BOUND, 0, -COMPONENT_BOUND)
    with pytest.raises(ValueError):
        Triple(COMPONENT_BOUND + 1, 0, 0)
    with pytest.raises(ValueError):
        Triple(0, -COMPONENT_BOUND - 1, 0)


def test_triple_rejects_non_integers():
    with pytest.raises(ValueError):
        Triple(1.5, 0, 0)


class Small(int):
    pass


def per_field_error(a, b, c):
    """The message of the first failing component check, or None."""
    for name, value in zip("abc", (a, b, c)):
        if not isinstance(value, int) or isinstance(value, bool):
            return f"component {name} must be an int, got {value!r}"
        if abs(value) > COMPONENT_BOUND:
            return (f"component {name}={value} outside guarded range "
                    f"[-{COMPONENT_BOUND}, {COMPONENT_BOUND}]")
    return None


def test_triple_checks_agree_with_per_field_checks():
    values = [
        0, -7, True, False, 1.0, Small(3), Small(COMPONENT_BOUND + 1),
        COMPONENT_BOUND, -COMPONENT_BOUND,
        COMPONENT_BOUND + 1, -COMPONENT_BOUND - 1,
    ]
    for a, b, c in itertools.product(values, repeat=3):
        want = per_field_error(a, b, c)
        if want is None:
            t = Triple(a, b, c)
            assert (t.a, t.b, t.c) == (a, b, c)
        else:
            with pytest.raises(ValueError) as exc_info:
                Triple(a, b, c)
            assert str(exc_info.value) == want


def test_triple_ordering_is_lexicographic():
    assert Triple(-6, 0, 3) < Triple(-3, 0, 6)
    assert min(Triple(0, 6, -3), Triple(0, 3, -6)) == Triple(0, 3, -6)
