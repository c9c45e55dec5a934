import pytest

from moricensus.cones import (
    CensusReport,
    ModelRecord,
    Source,
    build_census_report,
    computed_record,
    p_cone_count,
    symmetric_p_models,
    t_cone_count,
)
from moricensus.declared import default_declared_text, load_declared
from moricensus.families import regular_models
from moricensus.triples import Triple, orbit


def declared_symmetric_record():
    return ModelRecord(
        source=Source.DECLARED,
        family="very_degenerate",
        orbit_length=3,
        symmetry_order=2,
    )


def declared_generic_records(count):
    return [
        ModelRecord(
            source=Source.DECLARED,
            family="very_degenerate",
            orbit_length=6,
            symmetry_order=1,
        )
        for _ in range(count)
    ]


def computed_records():
    return [computed_record(m) for m in regular_models()]


def test_model_record_rejects_orbit_stabilizer_violation():
    with pytest.raises(ValueError):
        ModelRecord(
            source=Source.DECLARED, family="x", orbit_length=4, symmetry_order=2
        )


def test_computed_record_needs_triple():
    with pytest.raises(ValueError):
        ModelRecord(
            source=Source.COMPUTED_TRIPLE, family="x", orbit_length=6,
            symmetry_order=1,
        )


def test_computed_record_validates_orbit_length():
    models = regular_models()
    assert len(models) == 347
    for model in models:
        record = computed_record(model)
        expected = orbit(model.triple)
        assert record.triple == model.triple
        assert record.orbit_length == expected.length
        assert record.symmetry_order == expected.stabilizer_order


def test_symmetric_models_total_thirteen():
    records = symmetric_p_models(computed_records(), [declared_symmetric_record()])
    assert len(records) == 13
    lengths = sorted(r.orbit_length for r in records)
    assert lengths == [1, 2, 2] + [3] * 10


def test_symmetric_models_orbit_length_two_are_the_cyclic_pair():
    records = symmetric_p_models(computed_records(), [declared_symmetric_record()])
    length_two = {r.triple for r in records if r.orbit_length == 2}
    assert length_two == {Triple(1, 1, 1), Triple(2, 2, 2)}


def test_p_cone_count_reproduces_claimed_total():
    records = computed_records()
    records += declared_generic_records(102)
    records.append(declared_symmetric_record())
    assert p_cone_count(records) == 2657


def test_p_cone_count_computed_subtotal():
    # independent subtotal: sum of orbit sizes over the generated triples
    subtotal = sum(orbit(m.triple).length for m in regular_models())
    assert subtotal == 2042
    assert subtotal + 102 * 6 + 3 == 2657


def test_single_fully_symmetric_model_contributes_one_cone():
    record = ModelRecord(
        source=Source.COMPUTED_TRIPLE,
        family="x",
        orbit_length=1,
        symmetry_order=6,
        triple=Triple(0, 0, 0),
    )
    assert record.orbit_length == 1


@pytest.mark.parametrize(
    "models,symmetric,expected",
    [(129, 11, 741), (0, 0, 0), (11, 11, 33)],
)
def test_t_cone_count(models, symmetric, expected):
    assert t_cone_count(models, symmetric) == expected


def test_t_cone_count_sensitivity():
    base = t_cone_count(129, 11)
    for k in range(0, 130):
        assert t_cone_count(129, k) - base == 3 * (11 - k)


def test_t_cone_count_rejects_bad_split():
    with pytest.raises(ValueError):
        t_cone_count(10, 11)
    with pytest.raises(ValueError):
        t_cone_count(10, -1)


def test_census_report_total_invariant():
    with pytest.raises(ValueError):
        CensusReport(
            p_models=450,
            t_models=129,
            p_symmetric=(),
            p_cones=2657,
            t_cones=741,
            total_cones=3000,
        )


def test_build_census_report_on_default_config():
    declared = load_declared(default_declared_text())
    report = build_census_report(regular_models(), declared)
    assert report.p_models == 450
    assert report.t_models == 129
    assert report.p_cones == 2657
    assert report.t_cones == 741
    assert report.total_cones == 3398
    assert len(report.p_symmetric) == 13
    assert report.findings


def test_build_census_report_builds_no_triple(monkeypatch):
    # orbit lengths and stabilizer orders are counted off image tuples
    declared = load_declared(default_declared_text())
    models = regular_models()
    built = []
    check = Triple.__post_init__

    def counting(t):
        built.append(t)
        check(t)

    monkeypatch.setattr(Triple, "__post_init__", counting)
    report = build_census_report(models, declared)
    assert report.p_cones == 2657
    assert built == []


def test_build_census_report_with_altered_symmetric_count():
    declared = load_declared(
        "entry t_models: count=129 breakdown=83+1+45\n"
        "entry t_symmetric: count=10\n"
        "entry p_very_degenerate: count=103 breakdown=71+7+25\n"
        "entry p_very_degenerate_symmetric: count=1\n"
    )
    report = build_census_report(regular_models(), declared)
    assert report.t_cones == 744
    assert report.total_cones == 2657 + 744


def test_expected_symmetric_set_matches_orbit_analysis():
    found = {r.triple for r in symmetric_p_models(computed_records(), [])}
    expected = {
        m.triple for m in regular_models() if orbit(m.triple).stabilizer_order > 1
    }
    assert found == expected
