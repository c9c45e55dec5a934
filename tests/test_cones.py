import contextlib
import functools
import io
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from moricensus import audit, cones, families, triples
from moricensus.audit import run_full_verification
from moricensus.cli import main
from moricensus.cones import (
    MAX_DECLARED_SYMMETRIC,
    CensusReport,
    build_census_report,
    p_cone_count,
    symmetric_p_models,
    t_cone_count,
)
from moricensus.declared import DeclaredEntry, default_declared_text, load_declared
from moricensus.errors import ConfigError, DuplicateClassError, InvariantError
from moricensus.families import RegularModel, regular_models
from moricensus.graphs import LabeledGraph
from moricensus.triples import Triple, orbit

from group_action import involution, raw_orbit, shift
from linetrace import unrun_lines


def reading(p_vd, p_vd_sym, t_models=129, t_sym=11):
    return load_declared(
        f"entry t_models: count={t_models}\n"
        f"entry t_symmetric: count={t_sym}\n"
        f"entry p_very_degenerate: count={p_vd}\n"
        f"entry p_very_degenerate_symmetric: count={p_vd_sym}\n"
    )


def declared_symmetric_record():
    return RegularModel(None, "very_degenerate", None, 3, 2)


def declared_generic_records(count):
    return [RegularModel(None, "very_degenerate", None, 6, 1)
            for _ in range(count)]


def counted_inits(monkeypatch, cls):
    """The list that every ``cls`` built from now on is appended to."""
    built = []
    init = cls.__init__

    def counting(record, *args, **kwargs):
        init(record, *args, **kwargs)
        built.append(record)

    monkeypatch.setattr(cls, "__init__", counting)
    return built


def test_model_record_rejects_orbit_stabilizer_violation(monkeypatch):
    # a model's orbit fields come from ``orbit``, which rejects a table in
    # which five elements fix the triple and the sixth shifts it
    monkeypatch.setattr(triples, "_images",
                        lambda a, b, c: ((a, b, c),) * 5 + ((b, c, a),))
    with pytest.raises(InvariantError) as exc_info:
        families._models([(0, 1, 2)], "nondeg")
    assert str(exc_info.value) == "orbit-stabilizer violation: |orbit|=2 stabilizer=5"


def test_regular_model_orbit_numbers_match_orbit():
    models = regular_models()
    assert len(models) == 347
    for model in models:
        fields = (model.canonical_key, model.orbit_length, model.symmetry_order)
        assert fields == raw_orbit(model.triple)


def test_symmetric_models_total_thirteen():
    records = symmetric_p_models(regular_models()) + [declared_symmetric_record()]
    assert len(records) == 13
    lengths = sorted(r.orbit_length for r in records)
    assert lengths == [1, 2, 2] + [3] * 10


def test_symmetric_models_orbit_length_two_are_the_cyclic_pair():
    records = symmetric_p_models(regular_models()) + [declared_symmetric_record()]
    length_two = {r.triple for r in records if r.orbit_length == 2}
    assert length_two == {(1, 1, 1), (2, 2, 2)}


def test_p_cone_count_reproduces_claimed_total():
    records = regular_models()
    records += declared_generic_records(102)
    records.append(declared_symmetric_record())
    assert p_cone_count(records) == 2657


def test_p_cone_count_computed_subtotal():
    # independent subtotal: sum of orbit sizes over the generated triples
    subtotal = sum(orbit(m.triple)[1] for m in regular_models())
    assert subtotal == 2042
    assert subtotal + 102 * 6 + 3 == 2657


def test_single_fully_symmetric_model_contributes_one_cone():
    record = RegularModel((0, 0, 0), "nondeg", (0, 0, 0), 1, 6)
    assert p_cone_count([record]) == 1


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
    # callers check the split first, so a bad one is a program fault
    with pytest.raises(InvariantError):
        t_cone_count(10, 11)
    with pytest.raises(InvariantError):
        t_cone_count(10, -1)


def test_census_report_total_invariant():
    # the total is derived, so no report can state another one
    report = CensusReport(
        p_models=450, t_models=129, p_symmetric=(), p_cones=2657, t_cones=741
    )
    assert report.total_cones == 3398
    with pytest.raises(TypeError):
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
    assert report.p_symmetric[-1] == declared_symmetric_record()


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


@pytest.mark.parametrize("command", ["verify", "census"])
def test_verify_and_census_build_no_triple(monkeypatch, capsys, command):
    # the families generate plain tuples, and every layer after them
    # reads those; a Triple is built only where a triple is input
    built = []
    check = Triple.__post_init__

    def counting(t):
        built.append(t)
        check(t)

    monkeypatch.setattr(Triple, "__post_init__", counting)
    assert main([command]) == 0
    capsys.readouterr()
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
    found = {r.triple for r in symmetric_p_models(regular_models())}
    expected = {m.triple for m in regular_models() if raw_orbit(m.triple)[2] > 1}
    assert found == expected


def test_build_census_report_builds_only_declared_symmetric_records(monkeypatch):
    # the regular models enter as the families' own records, and the 102
    # other very-degenerate models only through their count
    expected = [declared_symmetric_record()]
    models = regular_models()
    built = counted_inits(monkeypatch, RegularModel)
    report = build_census_report(models, load_declared(default_declared_text()))
    assert report.p_cones == 2657
    assert built == expected
    assert all(type(r) is RegularModel for r in report.computed)


def test_verification_builds_one_model_record(monkeypatch):
    # the census keeps the families' 347 RegularModels and builds one
    # more, with no triple: the shipped reading's declared symmetric model
    expected = [declared_symmetric_record()]
    built = counted_inits(monkeypatch, RegularModel)
    assert run_full_verification().exit_status == 0
    assert len(built) == 348
    assert [r for r in built if r.triple is None] == expected


def test_build_census_report_applies_one_rule_to_declared_counts():
    report = build_census_report(regular_models(), reading(98, 4))
    assert report.p_models == 347 + 98
    assert report.p_cones == 2042 + 94 * 6 + 4 * 3 == 2618
    assert len(report.p_symmetric) == 16
    assert report.p_symmetric[12:] == (declared_symmetric_record(),) * 4


def test_build_census_report_without_declared_symmetric_models():
    report = build_census_report(regular_models(), reading(103, 0))
    assert report.p_cones == 2042 + 103 * 6
    assert len(report.p_symmetric) == 12
    assert all(r.triple is not None for r in report.p_symmetric)


def test_build_census_report_names_the_entry_of_a_total_too_long_to_print():
    # each count and each of p_cones and t_cones prints; their sum has
    # 4301 digits, and the entry with the larger share of it is named
    big = 10 ** 4299
    with pytest.raises(ConfigError) as exc_info:
        build_census_report(regular_models(), reading(big, 0, 15 * big // 10, 0))
    assert str(exc_info.value) == (
        "entry 't_models' gives total_cones too long to print (field 'count')")
    assert exc_info.value.field == "count"


def library_reading(**counts):
    """The shipped four counts with ``counts`` in their place, as entries a
    library caller builds, with no config file's checks."""
    shipped = {"t_models": 129, "t_symmetric": 11, "p_very_degenerate": 104,
               "p_very_degenerate_symmetric": 1}
    return [DeclaredEntry(label, count)
            for label, count in {**shipped, **counts}.items()]


@pytest.mark.parametrize("counts, label, value", [
    ({"t_models": 5, "t_symmetric": -1}, "t_symmetric", -1),
    ({"p_very_degenerate": -3, "p_very_degenerate_symmetric": -5},
     "p_very_degenerate", -3),
], ids=["t_symmetric", "p_very_degenerate"])
def test_build_census_report_rejects_a_negative_declared_count(counts, label, value):
    # neither pair has more symmetric models than models, so no split
    # check sees it; the input fault is a ConfigError naming its entry,
    # never t_cone_count's InvariantError
    with pytest.raises(ConfigError) as exc_info:
        build_census_report(regular_models(), library_reading(**counts))
    assert exc_info.value.field == label
    assert str(exc_info.value) == f"{label}={value} is negative (field {label!r})"


def test_declared_symmetric_count_is_bounded(tmp_path, capsys):
    # each declared symmetric model is one record and one printed object,
    # so a count that parses must not decide how much memory a run takes
    bound = MAX_DECLARED_SYMMETRIC
    assert bound == 10_000
    report = build_census_report(regular_models(), reading(bound, bound))
    assert len(report.p_symmetric) == 12 + bound
    with pytest.raises(ConfigError) as exc_info:
        build_census_report(regular_models(), reading(bound + 1, bound + 1))
    assert str(exc_info.value) == (
        "p_very_degenerate_symmetric=10001 exceeds the bound 10000 "
        "(field 'p_very_degenerate_symmetric')")
    path = tmp_path / "reading.cfg"
    path.write_text(reading_text(129, 11, bound + 1, bound + 1), encoding="utf-8")
    assert main(["census", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {exc_info.value}\n")


LABELS = ("t_models", "t_symmetric", "p_very_degenerate", "p_very_degenerate_symmetric")


def reading_text(*counts):
    """A reading of the four entries, in ``LABELS`` order; a count of None
    leaves its entry without a count."""
    return "".join(
        f"entry {label}: " + ('cite="none"' if count is None else f"count={count}")
        + "\n" for label, count in zip(LABELS, counts))


@functools.cache
def shipped_regular_models():
    return regular_models()


# small counts, so that symmetric > models is common; large ones; the
# symmetric bound's edge; and a missing count
COUNTS = st.one_of(st.integers(-3, 40), st.integers(0, 10**9),
                   st.sampled_from([MAX_DECLARED_SYMMETRIC, MAX_DECLARED_SYMMETRIC + 1]),
                   st.none())


@settings(max_examples=200, deadline=None)
@given(st.tuples(COUNTS, COUNTS, COUNTS, COUNTS))
@example((129, 11, 10**6, MAX_DECLARED_SYMMETRIC))
@example((129, 11, 10**6, MAX_DECLARED_SYMMETRIC + 1))
def test_declared_readings_follow_the_cone_rule(tmp_path_factory, counts):
    # the law the benchmark's census checker uses: every accepted reading
    # gives 6 cones per declared model and 3 per symmetric one, on top of
    # the 347 regular models' 2042; any other reading is the user's fault
    t, t_sym, v, v_sym = counts
    accepted = (None not in counts and min(counts) >= 0 and t_sym <= t
                and v_sym <= v and v_sym <= MAX_DECLARED_SYMMETRIC)
    text = reading_text(*counts)
    try:
        report = build_census_report(shipped_regular_models(), load_declared(text))
    except ConfigError as err:
        assert not accepted, err
        path = tmp_path_factory.mktemp("reading") / "reading.cfg"
        path.write_text(text, encoding="utf-8")
        out, errors = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(errors):
            assert main(["census", "--config", str(path)]) == 2
        assert (out.getvalue(), errors.getvalue()) == ("", f"error: {err}\n")
        return
    assert accepted
    assert (report.p_models, report.t_models) == (347 + v, t)
    assert report.p_cones == 2042 + 6 * (v - v_sym) + 3 * v_sym
    assert report.t_cones == 6 * (t - t_sym) + 3 * t_sym


def plant_overlap(monkeypatch):
    """Add to family K the image (1, -1, 0) of the nondegenerate (0, 1, -1)."""
    two_degenerate = families.family_two_degenerate
    planted = families._models([(1, -1, 0)], "K")
    monkeypatch.setattr(families, "family_two_degenerate",
                        lambda: two_degenerate() + planted)


def test_regular_models_rejects_planted_overlap(monkeypatch, capsys):
    plant_overlap(monkeypatch)
    with pytest.raises(DuplicateClassError) as exc_info:
        regular_models()
    err = exc_info.value
    assert (err.first, err.second) == ((0, 1, -1), (1, -1, 0))
    assert err.key == orbit((0, 1, -1))[0] == (-1, 0, 1)
    assert main(["census"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: triples (0, 1, -1) and (1, -1, 0) share canonical key (-1, 0, 1)\n"
    )


def relabel(models, old, new):
    return [families._models([m.triple], new)[0] if m.family == old else m
            for m in models]


@pytest.mark.parametrize("change, failed", [
    (lambda models: [m for m in models if m.family != "M0"], "census.subfamily.M0"),
    (lambda models: relabel(models, "M-1", "M_1"), "census.subfamily.M-1"),
])
def test_verify_counts_the_claimed_subfamilies_by_name(monkeypatch, capsys, change,
                                                      failed):
    # an emptied subfamily, or one under a label no claim names, reads 0;
    # the report keeps one verdict per claimed total, in CLAIMED's order
    two_degenerate = families.family_two_degenerate
    monkeypatch.setattr(families, "family_two_degenerate",
                        lambda: change(two_degenerate()))
    verdicts = [v for v in run_full_verification().verdicts
                if v.name.startswith("census.")]
    assert [v.name for v in verdicts] == list(audit.CLAIMED)
    assert [(v.name, v.lhs_value) for v in verdicts
            if v.name.startswith("census.subfamily.") and not v.holds] == [(failed, 0)]
    assert main(["verify"]) == 1
    capsys.readouterr()


def unsigned_images(a, b, c):
    """S3 permuting the components without their signs: a consistent
    action, so every orbit passes orbit-stabilizer, but not the census's."""
    return (a, b, c), (b, c, a), (c, a, b), (b, a, c), (c, b, a), (a, c, b)


def test_closure_oracle_fails_a_consistent_unsigned_table(monkeypatch):
    # the oracle's moves carry their own signs and read no census table,
    # so it catches the unsigned table
    monkeypatch.setattr(triples, "_images", unsigned_images)
    verdicts = {v.name: v for v in run_full_verification().verdicts}
    oracle = verdicts["census.closure_oracle"]
    assert (oracle.holds, oracle.lhs_value, oracle.rhs_value) == (False, 285, 347)


# ---------------------------------------------------------------------------
# metamorphic laws: the census verdicts when a family's triples change
#
# The group is built from the tests' own two generators, so the laws
# share no table with the census.


def group_image(t, k):
    """``t`` under the shift ``k % 3`` times, then the involution if
    ``k >= 3``: k = 0..5 gives the six elements."""
    t = tuple(t)
    for _ in range(k % 3):
        t = shift(t)
    return involution(t) if k >= 3 else t


FAMILY_FUNCTIONS = ("family_nondegenerate", "family_one_degenerate",
                    "family_two_degenerate")


def census_verdicts(replace):
    """``census.*`` name -> (holds, lhs) of a verification in which each
    family model's triple ``t`` is replaced by ``replace(t)``, in the
    same family."""
    with pytest.MonkeyPatch.context() as patch:
        for name in FAMILY_FUNCTIONS:
            patch.setattr(families, name, lambda family=getattr(families, name): [
                families._models([replace(m.triple)], m.family)[0] for m in family()])
        verdicts = run_full_verification().verdicts
    return {v.name: (v.holds, v.lhs_value) for v in verdicts
            if v.name.startswith("census.")}


def images_keep_the_verdicts(rng):
    """Whether replacing every family triple by a random group image
    leaves every census verdict as the families' own triples give it."""
    return census_verdicts(lambda t: group_image(t, rng.randrange(6))) == \
        census_verdicts(tuple)


@settings(max_examples=20, deadline=None)
@given(st.randoms(use_true_random=False))
def test_group_images_leave_every_census_verdict(rng):
    assert images_keep_the_verdicts(rng)


def test_group_image_law_fails_an_unsigned_table(monkeypatch):
    # the unsigned table passes orbit-stabilizer, and its census changes
    # when the families' triples are swapped for signed images
    monkeypatch.setattr(triples, "_images", unsigned_images)
    assert not images_keep_the_verdicts(random.Random(0))


def another_models_image_is_a_duplicate(i, j, k):
    """Whether replacing model ``i``'s triple by image ``k`` of model
    ``j``'s fails ``census.p_regular_classes``, one class short."""
    models = shipped_regular_models()
    old, new = models[i].triple, group_image(models[j].triple, k)
    verdicts = census_verdicts(lambda t: new if t == old else tuple(t))
    return verdicts["census.p_regular_classes"] == (False, len(models) - 1)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 346), st.integers(1, 346), st.integers(0, 5))
def test_another_models_image_fails_the_class_count(i, offset, k):
    assert another_models_image_is_a_duplicate(i, (i + offset) % 347, k)


def test_duplicate_law_fails_a_dedup_on_raw_triples(monkeypatch):
    # keys that are the triples themselves pass every verdict of the
    # shipped families, which are distinct triples, but miss a duplicate
    monkeypatch.setattr(triples, "orbit",
                        lambda t: (tuple(t), *orbit(t)[1:]))
    assert all(v.holds for v in run_full_verification().verdicts
               if v.name.startswith("census."))
    assert not another_models_image_is_a_duplicate(0, 1, 3)


def test_verification_builds_no_graph(monkeypatch):
    # the closure oracle seeds each closure with the model's triple, so
    # no census triple is encoded as a graph only to be decoded again
    built = []
    check = LabeledGraph.__post_init__

    def counting(g):
        built.append(g)
        check(g)

    monkeypatch.setattr(LabeledGraph, "__post_init__", counting)
    verdicts = {v.name: v for v in run_full_verification().verdicts}
    assert verdicts["census.closure_oracle"].lhs_value == 347
    assert built == []


def test_every_census_line_runs(monkeypatch):
    # shipped verify, the readings above, the rejected readings (a
    # negative count among them), a direct call with more symmetric
    # models than models, a group table that breaks orbit-stabilizer and
    # the planted overlap reach every line of the census layer; a line
    # none of them runs is a branch no input takes
    def expect(error, call):
        with pytest.raises(error):
            call()

    def run():
        run_full_verification()
        for declared in (reading(98, 4), reading(103, 0)):
            build_census_report(regular_models(), declared)
            run_full_verification(declared)
        for declared in (
            load_declared("entry t_models: count=129\n"),
            reading(104, 105),
        ):
            expect(ConfigError, lambda: build_census_report([], declared))
        expect(ConfigError, lambda: build_census_report([], reading(0, 0, 10, 11)))
        expect(ConfigError, lambda: build_census_report(
            [], library_reading(t_models=5, t_symmetric=-1)))
        expect(ConfigError, lambda: build_census_report(
            [], reading(10 ** 6, MAX_DECLARED_SYMMETRIC + 1)))
        expect(ConfigError, lambda: build_census_report(
            [], reading(0, 0, 2 * 10 ** 4299, 0)))
        expect(InvariantError, lambda: t_cone_count(10, 11))
        with monkeypatch.context() as patch:
            patch.setattr(triples, "_images",
                          lambda a, b, c: ((a, b, c),) * 5 + ((b, c, a),))
            expect(InvariantError, regular_models)
        plant_overlap(monkeypatch)
        expect(DuplicateClassError, regular_models)

    assert unrun_lines([families, cones, audit], run) == []
