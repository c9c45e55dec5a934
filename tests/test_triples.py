import contextlib
import csv
import functools
import io
import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from moricensus import triples as triples_module
from moricensus.cli import main
from moricensus.errors import ConfigError, InvariantError
from moricensus.triples import (
    COMPONENT_BOUND,
    ELEMENTS,
    Triple,
    _images,
    orbit,
)

from group_action import RAW, involution, raw_orbit, shift
from linetrace import unrun_lines


def apply(g, t):
    """Image of ``t`` under the element named ``g``: the module's one
    table lists the six images in ``ELEMENTS`` order."""
    return Triple(*_images(t.a, t.b, t.c)[ELEMENTS.index(g)])


def canonical(t):
    return Triple(*orbit(t)[0])


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
    assert apply("s", Triple(*given_triple)) == Triple(*expected)
    assert shift(given_triple) == expected


@pytest.mark.parametrize(
    "given_triple,expected",
    [
        ((0, 3, -6), (-3, 0, 6)),
        ((1, 1, 1), (-1, -1, -1)),
        ((0, 0, 0), (0, 0, 0)),
    ],
)
def test_involution_examples(given_triple, expected):
    assert apply("i", Triple(*given_triple)) == Triple(*expected)
    assert involution(given_triple) == expected


def test_apply_examples():
    assert ELEMENTS == tuple(RAW)
    assert apply("e", Triple(1, 2, 3)) == Triple(1, 2, 3)
    assert apply("s2", Triple(-6, 0, 3)) == Triple(3, -6, 0)
    # the two-step equivalence chain: shift then involution
    assert apply("is", Triple(-6, 0, 3)) == Triple(*involution(shift((-6, 0, 3))))
    assert apply("is", Triple(-6, 0, 3)) == Triple(-3, 0, 6)


@given(triples)
def test_apply_matches_raw_oracle(t):
    for g in ELEMENTS:
        assert as_tuple(apply(g, t)) == RAW[g](*as_tuple(t))


def assert_group_axioms(t):
    # on the module's table, through its generators' names
    s, i = functools.partial(apply, "s"), functools.partial(apply, "i")
    assert s(s(s(t))) == t
    assert i(i(t)) == t
    assert i(s(i(t))) == s(s(t))


def test_group_axioms_on_random_sample():
    rng = random.Random(20260810)
    for _ in range(1000):
        assert_group_axioms(Triple(*(rng.randint(-9, 9) for _ in range(3))))


@given(triples)
def test_group_axioms_property(t):
    assert_group_axioms(t)


PROBE = Triple(1, 2, 4)


def product(g, h):
    # The six elements move the probe to six distinct images, so the
    # product g h is the one element that agrees with it there.
    target = apply(g, apply(h, PROBE))
    matches = [k for k in ELEMENTS if apply(k, PROBE) == target]
    assert len(matches) == 1
    return matches[0]


def test_composition_table_closed_and_associative():
    assert len({apply(g, PROBE) for g in ELEMENTS}) == 6
    for g in ELEMENTS:
        for h in ELEMENTS:
            assert product(g, h) in ELEMENTS
            for k in ELEMENTS:
                assert product(product(g, h), k) == product(g, product(h, k))


@given(triples)
def test_compose_agrees_with_apply(t):
    for g in ELEMENTS:
        for h in ELEMENTS:
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
    _, got_length, got_order = orbit(Triple(*given_triple))
    assert got_length == length
    assert got_order == stab_order


def test_orbit_members_of_cyclic_triple():
    assert set(_images(1, 1, 1)) == {(1, 1, 1), (-1, -1, -1)}
    assert orbit(Triple(1, 1, 1)) == ((-1, -1, -1), 2, 3)


def test_orbit_of_generic_triple_has_six_distinct_images():
    images = {RAW[g](1, 2, -2) for g in ELEMENTS}
    assert len(images) == 6
    assert set(_images(1, 2, -2)) == images
    assert orbit(Triple(1, 2, -2)) == (min(images), 6, 1)


def test_orbit_record_rejects_orbit_stabilizer_violation(monkeypatch):
    # a table whose shift moves (0, 0, 0): two images, five fixing it
    images = _images
    monkeypatch.setattr(triples_module, "_images", lambda a, b, c: (
        images(a, b, c)[:1] + ((a + 1, b, c),) + images(a, b, c)[2:]))
    with pytest.raises(InvariantError) as exc_info:
        orbit(Triple(0, 0, 0))
    assert str(exc_info.value) == "orbit-stabilizer violation: |orbit|=2 stabilizer=5"


@given(triples)
def test_orbit_stabilizer_product(t):
    key, length, order = orbit(t)
    assert length * order == 6
    assert order == sum(apply(g, t) == t for g in ELEMENTS)
    assert (key, length, order) == raw_orbit(t)


@given(triples)
def test_abs_multiset_invariant(t):
    for g in ELEMENTS:
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
    for g in ELEMENTS:
        assert canonical(apply(g, t)) == key
    assert as_tuple(key) == min(image(*as_tuple(t)) for image in RAW.values())


def test_component_range_guard():
    Triple(COMPONENT_BOUND, 0, -COMPONENT_BOUND)
    with pytest.raises(ConfigError):
        Triple(COMPONENT_BOUND + 1, 0, 0)
    with pytest.raises(ConfigError):
        Triple(0, -COMPONENT_BOUND - 1, 0)


def test_triple_rejects_non_integers():
    with pytest.raises(ConfigError):
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
            with pytest.raises(ConfigError) as exc_info:
                Triple(a, b, c)
            assert str(exc_info.value) == want


def test_orbit_takes_any_triple():
    # the census passes plain tuples and the ``orbits`` command a Triple
    for t in ((1, 2, -2), (0, 0, 0), (-6, 0, 3)):
        assert orbit(t) == orbit(Triple(*t)) == raw_orbit(t)


def test_every_triples_line_runs(monkeypatch):
    # the group action and its orbits on a generic and a fixed triple,
    # the rejected components and an action planted to break
    # orbit-stabilizer reach every line of the module; a line none of
    # them runs is a branch no input takes
    def expect(error, call):
        with pytest.raises(error):
            call()

    def run():
        for t in (Triple(1, 2, -2), Triple(0, 0, 0)):
            assert orbit(t) == raw_orbit(t)
            assert Triple(*involution(shift(t))) == apply("is", t)
        for components in ((True, 0, 0), (0, 2.0, 0), (0, 0, COMPONENT_BOUND + 1)):
            expect(ConfigError, lambda: Triple(*components))
        # a shift that moves a fixed triple: two images, five fixing it
        images = triples_module._images
        monkeypatch.setattr(triples_module, "_images", lambda a, b, c: (
            images(a, b, c)[:1] + ((a + 1, b, c),) + images(a, b, c)[2:]))
        expect(InvariantError, lambda: orbit(Triple(0, 0, 0)))

    assert unrun_lines([triples_module], run) == []



def raw_orbits(t):
    """``orbits``' JSON payload and csv rows for ``t``, from RAW alone."""
    images = {name: image(*t) for name, image in RAW.items()}
    distinct = set(images.values())
    payload = {
        "triple": list(t),
        "orbit": sorted(map(list, distinct)),
        "orbit_length": len(distinct),
        "stabilizer_order": list(images.values()).count(t),
        "stabilizer": [name for name, image in images.items() if image == t],
        "canonical": list(min(distinct)),
    }
    rows = [["element", "a", "b", "c"],
            *([name, *image] for name, image in images.items())]
    return payload, rows


def orbits_output(t, fmt):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["orbits", "--format", fmt, "--", *map(str, t)]) == 0
    return out.getvalue()


@settings(max_examples=200, deadline=None)
@given(st.tuples(*[st.integers(-20, 20)] * 3))
def test_orbits_output_matches_the_raw_table(t):
    # byte for byte: JSON as json.dumps writes it, csv as csv.writer does
    payload, rows = raw_orbits(t)
    assert orbits_output(t, "json") == json.dumps(payload, indent=2) + "\n"
    expected = io.StringIO()
    csv.writer(expected).writerows(rows)
    assert orbits_output(t, "csv") == expected.getvalue()
