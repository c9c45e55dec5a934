import pytest

from moricensus.errors import DuplicateClassError
from moricensus.families import (
    FamilyId,
    family_nondegenerate,
    family_one_degenerate,
    family_two_degenerate,
    regular_models,
    subfamily_sizes,
)
from moricensus.triples import Triple, canonical, orbit


def triples_of(models):
    return [m.triple for m in models]


def test_nondegenerate_count_and_membership():
    models = family_nondegenerate()
    assert len(models) == 25
    ts = triples_of(models)
    assert Triple(0, 1, -1) in ts
    assert Triple(1, 1, 1) in ts
    # only one representative of each equivalent (x,x,x) pair is kept
    assert Triple(-1, -1, -1) not in ts
    assert Triple(-2, -2, -2) not in ts


def test_one_degenerate_count_and_membership():
    models = family_one_degenerate()
    assert len(models) == 103
    ts = triples_of(models)
    assert Triple(3, 0, -3) in ts
    assert Triple(3, 2, -3) in ts
    assert Triple(-2, 1, -8) in ts
    # z runs over {x-6,...,-3}: empty below x-6, and never above -3
    assert Triple(-2, 1, -9) not in ts
    assert Triple(2, 0, -2) not in ts


def test_one_degenerate_slice_length_depends_on_x():
    ts = triples_of(family_one_degenerate())
    for x in range(-2, 3):
        slice_for_fixed_y = [t for t in ts if t.a == x and t.b == 0]
        assert len(slice_for_fixed_y) == 4 - x
    assert len([t for t in ts if t.a == -2 and t.b == 0]) == 6


EXPECTED_SUBFAMILY_SIZES = {
    FamilyId.K: 7,
    FamilyId.M0: 10,
    FamilyId.M_NEG1: 15,
    FamilyId.M_NEG2: 12,
    FamilyId.N_NEG2: 57,
    FamilyId.N_NEG1: 45,
    FamilyId.N0: 34,
    FamilyId.N1: 24,
    FamilyId.N2: 15,
}


def test_two_degenerate_subfamily_sizes():
    models = family_two_degenerate()
    assert len(models) == 219
    sizes = subfamily_sizes(models)
    for family, expected in EXPECTED_SUBFAMILY_SIZES.items():
        assert sizes[family] == expected, family


def test_m0_boundary_constraint():
    ts = triples_of(family_two_degenerate())
    assert Triple(-3, 0, 3) in ts
    assert Triple(-6, 0, 3) in ts
    # |z| <= |x| excludes the triples equivalent to kept ones
    assert Triple(-3, 0, 6) not in ts
    assert Triple(-4, 0, 5) not in ts


def test_k_family_pattern():
    models = [m for m in family_two_degenerate() if m.family is FamilyId.K]
    assert [m.triple for m in models] == [Triple(x, -3, 3) for x in range(3, 10)]


def test_regular_models_total_and_distinct_classes():
    models = regular_models()
    assert len(models) == 347
    keys = {m.canonical_key for m in models}
    assert len(keys) == 347


def test_canonical_keys_match_triples():
    for model in regular_models():
        assert model.canonical_key == canonical(model.triple)


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
        (m.triple.a, m.triple.b, m.triple.c)
        for m in regular_models()
        if orbit(m.triple).stabilizer_order > 1
    }
    assert symmetric == EXPECTED_SYMMETRIC


def test_duplicate_class_error_carries_both_triples():
    with pytest.raises(DuplicateClassError) as exc_info:
        raise DuplicateClassError(Triple(1, 1, 1), Triple(-1, -1, -1),
                                  Triple(-1, -1, -1))
    err = exc_info.value
    assert err.first == Triple(1, 1, 1)
    assert err.second == Triple(-1, -1, -1)
