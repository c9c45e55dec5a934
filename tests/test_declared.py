import itertools

import pytest
from hypothesis import given, settings, strategies as st

from moricensus.declared import default_declared_text, load_declared
from moricensus.errors import ConfigError


# one digit past the interpreter's int-conversion limit (4300 digits),
# and the longest integer it converts
OVER_LIMIT = "9" * 4301
ADDEND = "9" * 4300


def test_accepts_t_model_entry():
    entries = load_declared(
        'entry t_models: count=129 breakdown=83+1+45 cite="Thm 2.1"\n'
    )
    assert entries == {"t_models": 129}


def test_accepts_very_degenerate_entry():
    assert load_declared("entry p_vd: count=103 breakdown=71+7+25\n") == {
        "p_vd": 103}


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


ENTRY_ERRORS = [
    ("entry x count=1", "missing ':' after entry label", None),
    ("entry 9x: count=1", "bad entry label '9x'", "label"),
    ("entry x: count=1 junk", "expected key=value, got 'junk'", None),
    ("entry x: count=1 count=2", "duplicate key 'count'", "count"),
    ('entry x: count=1 cite="open', "unterminated quoted value", "cite"),
    # a quote still open at every '#' leaves the line cut at its first '#'
    ('entry x: count=1 cite="a#b" flavour="open', "unterminated quoted value", "cite"),
    ("entry x: count=", "missing value for 'count'", "count"),
    ("entry x: count= 5", "missing value for 'count'", "count"),
    # a duplicate key is reported before anything about its value
    ('entry x: count=1 count="open', "duplicate key 'count'", "count"),
    ("entry x: count=ten", "count must be an integer, got 'ten'", "count"),
    ("entry x: count=3 breakdown=1+two",
     "breakdown addend 'two' is not an integer", "breakdown"),
    # int() reads Arabic-Indic digits as 129 and 83; the grammar takes 0-9
    ("entry x: count=\u0661\u0662\u0669",
     "count must be an integer, got '\u0661\u0662\u0669'", "count"),
    ("entry x: count=129 breakdown=\u0668\u0663+1+45",
     "breakdown addend '\u0668\u0663' is not an integer", "breakdown"),
    # int() would raise a bare ValueError past the conversion limit
    (f"entry x: count={OVER_LIMIT}", "integer of 4301 digits is too long", "count"),
    (f"entry x: count=-{OVER_LIMIT}", "integer of 4301 digits is too long",
     "count"),
    (f"entry x: count=3 breakdown=1+{OVER_LIMIT}",
     "integer of 4301 digits is too long", "breakdown"),
    # each addend converts, but their sum has too many digits to print
    (f"entry x: count=1 breakdown={ADDEND}+{ADDEND}",
     f"breakdown {ADDEND}+{ADDEND} does not sum to count=1", "breakdown"),
    # the keyword is a whole token, not a prefix of the label
    ("entryt_models: count=129 breakdown=83+1+45",
     "expected 'entry', got 'entryt_models:'", None),
]


@pytest.mark.parametrize("line, message, field", ENTRY_ERRORS, ids=[
        "missing_colon", "bad_label", "not_key_value", "duplicate_key",
        "unterminated_quote", "quote_open_at_comment", "missing_value",
        "missing_value_before_space",
        "duplicate_before_bad_value", "count_not_int",
        "addend_not_int", "count_not_ascii", "addend_not_ascii",
        "count_too_long", "negative_count_too_long",
        "addend_too_long", "sum_too_long", "entry_glued_to_label"])
def test_entry_errors_name_their_line_and_field(line, message, field):
    with pytest.raises(ConfigError) as exc_info:
        load_declared("# header\n" + line + "\n")
    err = exc_info.value
    where = "line 2" if field is None else f"line 2, field {field!r}"
    assert str(err) == f"{message} ({where})"
    assert (err.line, err.field) == (2, field)


def test_quoted_value_may_touch_the_next_key():
    assert load_declared('entry x: cite="a"count=1\n') == {"x": 1}


@pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
def test_field_order_does_not_matter(order):
    fields = ["count=129", "breakdown=83+1+45", 'cite="Thm 2.1"']
    line = "entry t: " + " ".join(fields[k] for k in order)
    assert load_declared(line) == {"t": 129}


def test_non_entry_line_rejected():
    with pytest.raises(ConfigError) as exc_info:
        load_declared("claim x: 1 == 1\n")
    assert exc_info.value.line == 1


def test_any_whitespace_may_follow_entry():
    assert load_declared("entry\tx: count=1\n") == {"x": 1}


def test_comments_and_blank_lines_ignored():
    entries = load_declared("# all comments\n\n   \nentry a: count=0\n")
    assert len(entries) == 1


def test_a_hash_inside_a_quoted_cite_starts_no_comment():
    # the comment starts at the first '#' after an even number of '"'
    assert load_declared('entry t_models: count=129 cite="Thm 2.1 #a" # "q\n') == {
        "t_models": 129}


def test_default_config_loads_and_validates():
    entries = load_declared(default_declared_text())
    assert list(entries.items()) == [
        ("t_models", 129),
        ("t_symmetric", 11),
        ("p_very_degenerate", 103),
        ("p_very_degenerate_symmetric", 1),
    ]


def entry(label, values, cite, order, gap, comment):
    """A well-formed entry line, in the field order ``order``, with the
    label and count it must parse to; ``values`` is the count and its
    breakdown (None for none), ``cite`` None for no cite field."""
    count, breakdown = values
    fields = [f"count={count}",
              None if breakdown is None else "breakdown=" + "+".join(map(str, breakdown)),
              None if cite is None else f'cite="{cite}"']
    line = f"entry {label}: " + gap.join(fields[k] for k in order if fields[k])
    return line + comment, (label, count)


ADDENDS = st.lists(st.integers(-3, 200), min_size=1, max_size=4).filter(
    lambda parts: sum(parts) >= 0)
ENTRIES = st.builds(
    entry,
    st.sampled_from(["x", "t_models", "p_very_degenerate", "_a1"]),
    st.one_of(st.integers(0, 10**6).map(lambda n: (n, None)),
              ADDENDS.map(lambda parts: (sum(parts), parts))),
    st.sampled_from([None, "", "Thm 2.1", "Eq. #3", "a # b #c"]),
    st.permutations(range(3)),
    st.sampled_from([" ", "  ", "\t"]),
    st.sampled_from(["", " # note", '  # "q" #']),
)
# entry lines of well-formed shape with odd keys and values, mixed
# with free joins of the grammar's pieces
INTS = st.sampled_from(["0", "7", "129", "-3", "two", "", OVER_LIMIT, "\u0663"])
VALUES = st.one_of(
    INTS,
    st.lists(INTS, min_size=1, max_size=3).map("+".join),
    st.sampled_from(['"Thm 2.1"', '"open', '""']),
)
ENTRY_LINES = st.builds(
    lambda label, count, rest, comment: (
        f"entry {label}: count={count}{rest}{comment}"),
    st.sampled_from(["x", "t_models", "9x"]),
    INTS,
    st.lists(st.builds(" {}={}".format, st.sampled_from(
        ["breakdown", "cite", "count", "flavour"]), VALUES),
        max_size=2).map("".join),
    st.sampled_from(["", " # note", " junk"]),
)
PIECES = st.lists(st.sampled_from([
    "entry", " ", ":", "x", "count=", "breakdown=", "=", '"', "+", "7",
    "#", "\t", "claim", OVER_LIMIT,
]), max_size=12).map("".join)


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.lists(ENTRIES, max_size=4),
                 st.lists(st.one_of(ENTRIES, ENTRY_LINES, PIECES), max_size=4)))
def test_load_declared_raises_only_config_errors_inside_the_text(lines):
    text = "\n".join(line if isinstance(line, str) else line[0] for line in lines)
    try:
        parsed = load_declared(text)
    except ConfigError as err:
        if err.line is not None:
            assert 1 <= err.line <= len(text.split("\n"))
        parsed = err
    # the generator is the oracle: well-formed entries parse to its
    # counts, in file order, and the first repeated label is the only fault
    if not any(isinstance(line, str) for line in lines):
        entries = [line[1] for line in lines]
        labels = [label for label, _ in entries]
        repeat = next((n for n, label in enumerate(labels) if label in labels[:n]), None)
        if repeat is None:
            assert parsed == dict(entries)
            assert list(parsed) == labels
        else:
            assert str(parsed) == (f"duplicate entry label {labels[repeat]!r} "
                                   f"(line {repeat + 1}, field 'label')")
