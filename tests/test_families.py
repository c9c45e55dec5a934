from collections import Counter
from pathlib import Path

import pytest

from moricensus.errors import DuplicateClassError
from moricensus.families import (
    family_nondegenerate,
    family_one_degenerate,
    family_two_degenerate,
    regular_models,
)

from group_action import raw_orbit


def triples_of(models):
    return [m.triple for m in models]


def test_nondegenerate_count_and_membership():
    models = family_nondegenerate()
    assert len(models) == 25
    ts = triples_of(models)
    assert (0, 1, -1) in ts
    assert (1, 1, 1) in ts
    # only one representative of each equivalent (x,x,x) pair is kept
    assert (-1, -1, -1) not in ts
    assert (-2, -2, -2) not in ts


def test_one_degenerate_count_and_membership():
    models = family_one_degenerate()
    assert len(models) == 103
    ts = triples_of(models)
    assert (3, 0, -3) in ts
    assert (3, 2, -3) in ts
    assert (-2, 1, -8) in ts
    # z runs over {x-6,...,-3}: empty below x-6, and never above -3
    assert (-2, 1, -9) not in ts
    assert (2, 0, -2) not in ts


def test_one_degenerate_slice_length_depends_on_x():
    ts = triples_of(family_one_degenerate())
    for x in range(-2, 3):
        slice_for_fixed_y = [t for t in ts if t[:2] == (x, 0)]
        assert len(slice_for_fixed_y) == 4 - x
    assert len([t for t in ts if t[:2] == (-2, 0)]) == 6


EXPECTED_SUBFAMILY_SIZES = {
    "K": 7,
    "M0": 10,
    "M-1": 15,
    "M-2": 12,
    "N-2": 57,
    "N-1": 45,
    "N0": 34,
    "N1": 24,
    "N2": 15,
}


def test_two_degenerate_subfamily_sizes():
    models = family_two_degenerate()
    assert len(models) == 219
    sizes = Counter(m.family for m in models)
    for family, expected in EXPECTED_SUBFAMILY_SIZES.items():
        assert sizes[family] == expected, family


def test_m0_boundary_constraint():
    ts = triples_of(family_two_degenerate())
    assert (-3, 0, 3) in ts
    assert (-6, 0, 3) in ts
    # |z| <= |x| excludes the triples equivalent to kept ones
    assert (-3, 0, 6) not in ts
    assert (-4, 0, 5) not in ts


def test_k_family_pattern():
    models = [m for m in family_two_degenerate() if m.family == "K"]
    assert [m.triple for m in models] == [(x, -3, 3) for x in range(3, 10)]


def test_regular_models_total_and_distinct_classes():
    models = regular_models()
    assert len(models) == 347
    keys = {m.canonical_key for m in models}
    assert len(keys) == 347


def test_every_model_triple_is_a_plain_tuple():
    # the census holds its triples as the families generate them
    assert all(type(m.triple) is tuple for m in regular_models())


def test_canonical_keys_match_triples():
    for model in regular_models():
        key, length, order = raw_orbit(model.triple)
        assert model.canonical_key == key
        assert type(model.canonical_key) is tuple
        assert (model.orbit_length, model.symmetry_order) == (length, order)


FAMILIES_FILE = Path(__file__).parent / "data" / "families.txt"


def test_models_match_the_checked_in_list():
    """Every model's family label and triple, one ``family a b c`` line
    each in generation order, against ``tests/data/families.txt``.

    A change to a family is then a reviewed diff of that file.  Swapping
    a sign in M(-1)'s ``(x, -1, z)`` or M(-2)'s ``(x, -2, z)`` keeps
    every size and orbit-length count, so only this list catches it.
    ROADMAP item 5's census certificate may later take the file's place.
    """
    lines = [f"{m.family} {' '.join(map(str, m.triple))}\n" for m in regular_models()]
    assert "".join(lines) == FAMILIES_FILE.read_text(encoding="utf-8")


def test_generation_is_deterministic():
    first = [(m.triple, m.family) for m in regular_models()]
    second = [(m.triple, m.family) for m in regular_models()]
    assert first == second


def test_families_disjoint_by_absolute_values():
    # the group preserves the multiset of absolute values, so a family-(i)
    # triple (all |.| <= 2) can never be equivalent to one from (ii)/(iii)
    # (each has an entry with |.| >= 3)
    for model in family_nondegenerate():
        assert max(abs(x) for x in model.triple) <= 2
    for model in family_one_degenerate() + family_two_degenerate():
        assert max(abs(x) for x in model.triple) >= 3


EXPECTED_SYMMETRIC = {
    (0, 0, 0),
    (1, 1, 1),
    (2, 2, 2),
    (0, 1, -1),
    (0, -1, 1),
    (0, 2, -2),
    (0, -2, 2),
    (3, 0, -3),
    (-3, 0, 3),
    (-4, 0, 4),
    (-5, 0, 5),
    (-6, 0, 6),
}


def test_exactly_twelve_symmetric_models():
    symmetric = {
        m.triple
        for m in regular_models()
        if raw_orbit(m.triple)[2] > 1
    }
    assert symmetric == EXPECTED_SYMMETRIC


def test_duplicate_class_error_carries_both_triples():
    with pytest.raises(DuplicateClassError) as exc_info:
        raise DuplicateClassError((1, 1, 1), (-1, -1, -1),
                                  (-1, -1, -1))
    err = exc_info.value
    assert err.first == (1, 1, 1)
    assert err.second == (-1, -1, -1)
