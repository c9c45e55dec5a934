import pytest

from moricensus.declared import DeclaredEntry, default_declared_text, load_declared
from moricensus.errors import ConfigError


def test_accepts_t_model_entry():
    entries = load_declared(
        'entry t_models: count=129 breakdown=83+1+45 cite="Thm 2.1"\n'
    )
    assert entries == [
        DeclaredEntry(
            label="t_models", count=129, provenance="Thm 2.1", breakdown=(83, 1, 45)
        )
    ]


def test_accepts_very_degenerate_entry():
    (entry,) = load_declared("entry p_vd: count=103 breakdown=71+7+25\n")
    assert entry.count == 103
    assert entry.breakdown == (71, 7, 25)
    assert entry.provenance == ""


def test_breakdown_mismatch_rejected_with_location():
    with pytest.raises(ConfigError) as exc_info:
        load_declared("\n# header\nentry bad: count=10 breakdown=5+4\n")
    assert exc_info.value.line == 3
    assert exc_info.value.field == "breakdown"


def test_negative_count_rejected():
    with pytest.raises(ConfigError) as exc_info:
        load_declared("entry bad: count=-3\n")
    assert exc_info.value.field == "count"


def test_unknown_key_rejected():
    with pytest.raises(ConfigError) as exc_info:
        load_declared('entry x: count=1 flavour="odd"\n')
    assert exc_info.value.field == "flavour"


def test_missing_count_rejected():
    with pytest.raises(ConfigError):
        load_declared('entry x: cite="nothing"\n')


def test_duplicate_label_rejected():
    with pytest.raises(ConfigError):
        load_declared("entry x: count=1\nentry x: count=2\n")


@pytest.mark.parametrize("line, message, field", [
    ("entry x count=1", "missing ':' after entry label", None),
    ("entry 9x: count=1", "bad entry label '9x'", "label"),
    ("entry x: count=1 junk", "expected key=value, got 'junk'", None),
    ("entry x: count=1 count=2", "duplicate key 'count'", "count"),
    ('entry x: count=1 cite="open', "unterminated quoted value", "cite"),
    ("entry x: count=", "missing value for 'count'", "count"),
    ("entry x: count=ten", "count must be an integer, got 'ten'", "count"),
    ("entry x: count=3 breakdown=1+two",
     "breakdown addend 'two' is not an integer", "breakdown"),
], ids=["missing_colon", "bad_label", "not_key_value", "duplicate_key",
        "unterminated_quote", "missing_value", "count_not_int",
        "addend_not_int"])
def test_entry_errors_name_their_line_and_field(line, message, field):
    with pytest.raises(ConfigError) as exc_info:
        load_declared("# header\n" + line + "\n")
    err = exc_info.value
    where = "line 2" if field is None else f"line 2, field {field!r}"
    assert str(err) == f"{message} ({where})"
    assert (err.line, err.field) == (2, field)


def test_non_entry_line_rejected():
    with pytest.raises(ConfigError) as exc_info:
        load_declared("claim x: 1 == 1\n")
    assert exc_info.value.line == 1


def test_comments_and_blank_lines_ignored():
    entries = load_declared("# all comments\n\n   \nentry a: count=0\n")
    assert len(entries) == 1


def test_default_config_loads_and_validates():
    entries = {e.label: e for e in load_declared(default_declared_text())}
    assert entries["t_models"].count == 129
    assert entries["t_models"].breakdown == (83, 1, 45)
    assert entries["t_models_n1_ge_minus1"].breakdown == (30, 19, 34)
    assert entries["t_symmetric"].count == 11
    assert entries["p_very_degenerate"].count == 103
    assert entries["p_very_degenerate"].breakdown == (71, 7, 25)
    assert entries["p_very_degenerate_symmetric"].count == 1

