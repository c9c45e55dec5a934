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

