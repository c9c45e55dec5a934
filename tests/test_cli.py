import csv
import gc
import importlib
import importlib.util
import io
import itertools
import json
import os
import runpy
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from moricensus import cli, triples
from moricensus.audit import default_claims_text
from moricensus.cli import main
from moricensus.declared import default_declared_text

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "cli"
SNAPSHOTS = ROOT / "perfbench" / "snapshots"
# the rigid encoding of (-6, 0, 3)
SEED_GRAPH = str(GOLDEN / "seed.graph")
GRAPH_TEXT = Path(SEED_GRAPH).read_text(encoding="utf-8")

VD_104_READING = (
    "entry t_models: count=129 breakdown=83+1+45\n"
    "entry t_symmetric: count=11\n"
    "entry p_very_degenerate: count=104 breakdown=72+7+25\n"
    "entry p_very_degenerate_symmetric: count=1\n"
)


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the pinned runs, which ``tools/check_interpreters.py`` also runs under
# each interpreter it is given
TOOL = load_tool("check_interpreters")
RUNS = TOOL.read_runs()


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def check_run(monkeypatch, capsys, line, code, stdout, stderr, argv):
    # in process, from the root as the manifest's paths ask; argparse
    # wraps its usage line at COLUMNS and exits on the lines it refuses
    monkeypatch.chdir(ROOT)
    monkeypatch.setenv("COLUMNS", "80")
    frozen = gc.get_freeze_count()
    try:
        got = main(argv)
    except SystemExit as exc:
        got = exc.code
    assert gc.get_freeze_count() == frozen  # only the process entry freezes
    captured = capsys.readouterr()
    assert (got, captured.out.encode(), captured.err.encode()) == (
        code, TOOL.expected(stdout), TOOL.expected(stderr)), f"RUNS:{line}"


def pinned(command):
    """The ``RUNS`` entry whose argv, quoted as a shell would, is ``command``."""
    [entry] = [entry for entry in RUNS if shlex.join(entry[-1]) == command]
    return entry


@pytest.mark.parametrize("line, code, stdout, stderr, argv", RUNS,
                         ids=[shlex.join(argv) for *_, argv in RUNS])
def test_run_prints_its_pinned_output(monkeypatch, capsys, line, code, stdout,
                                      stderr, argv):
    check_run(monkeypatch, capsys, line, code, stdout, stderr, argv)


def test_manifest_names_every_expected_file():
    # each file a line names exists, and each golden file and snapshot is
    # some line's, so none goes unchecked
    named = {name for _, _, *names, _ in RUNS for name in names} - {"-"}
    assert sorted(name for name in named if not (ROOT / name).is_file()) == []
    files = {path.relative_to(ROOT).as_posix()
             for pattern in ("tests/data/cli/*.txt", "perfbench/snapshots/*.json")
             for path in ROOT.glob(pattern)}
    assert sorted(files - named) == []


# The byte compares below check one line each, as the test above does,
# under the names they had before the manifest held their runs.
@pytest.mark.parametrize("snapshot, argv", [
    ("census.json", ("census", "--format", "json")),
    ("verify.json", ("verify", "--format", "json")),
    ("orbits.json", ("orbits", "--format", "json", "--", "-6", "0", "3")),
    ("orbits.json", ("orbits", "--form", "json", "--", "-6", "0", "3")),
])
def test_shipped_json_is_byte_identical_to_snapshot(monkeypatch, capsys, snapshot,
                                                    argv):
    entry = pinned(shlex.join(argv))
    assert entry[1:3] == (0, f"perfbench/snapshots/{snapshot}")
    check_run(monkeypatch, capsys, *entry)


@pytest.mark.parametrize("command, status", [("census", 0), ("verify", 1)])
def test_config_reading_is_byte_identical_to_golden(monkeypatch, capsys, command,
                                                    status):
    # every declared count differs from the shipped one, so verify fails;
    # a cite with '#', a filler entry and a trailing comment are read too
    entry = pinned(f"{command} --config tests/data/cli/reading.cfg --format json")
    assert entry[1:4] == (status, f"tests/data/cli/{command}-reading.json.txt", "-")
    check_run(monkeypatch, capsys, *entry)


def test_shipped_closure_json_matches_snapshot(monkeypatch, capsys):
    check_run(monkeypatch, capsys, *pinned(
        "closure --format json --graph tests/data/cli/seed.graph --moves triple_group"))


def test_closure_reads_a_seed_listed_out_of_label_order(monkeypatch, capsys):
    # node ids are arbitrary, so the seed graph with the node labelled 2
    # listed first is the same class and prints the same closure
    check_run(monkeypatch, capsys, *pinned(
        "closure --graph tests/data/cli/seed-permuted.graph --moves triple_group"
        " --format json"))


def test_closure_with_no_moves_is_byte_identical_to_golden(monkeypatch, capsys):
    # ``none`` reads no triple: the seed is its one class, in no steps
    check_run(monkeypatch, capsys, *pinned(
        "closure --graph tests/data/cli/seed.graph --moves none --format json"))


# ``{name}.{format}.txt`` in GOLDEN holds each run's stdout
GOLDEN_RUNS = {
    "census": "census --format {}",
    "verify": "verify --format {}",
    "audit": "audit --format {}",
    "audit-unexpected": "audit --format {} --claims tests/data/cli/unexpected.claims",
    "orbits": "orbits --format {} -- -6 0 3",
    "orbits-symmetric": "orbits --format {} -- 1 1 1",
    "closure": "closure --format {} --graph tests/data/cli/seed.graph"
               " --moves triple_group",
}


@pytest.mark.parametrize("fmt", ["table", "csv"])
@pytest.mark.parametrize("name", GOLDEN_RUNS)
def test_table_and_csv_are_byte_identical_to_golden(monkeypatch, capsys, name, fmt):
    entry = pinned(GOLDEN_RUNS[name].format(fmt))
    assert entry[2] == f"tests/data/cli/{name}.{fmt}.txt"
    check_run(monkeypatch, capsys, *entry)


# the lines that main runs in process above and a spawn runs too
SPAWN_RUNS = {
    "census": "census --format json",
    "census-config": "census --config tests/data/cli/reading.cfg --format json",
    "verify": "verify --format json",
    "verify-unexpected": "verify --format json --claims tests/data/cli/unexpected.claims",
    "audit": "audit --format json",
    "orbits": "orbits --format json -- -6 0 3",
    "closure": "closure --format json --graph tests/data/cli/seed.graph"
               " --moves triple_group",
    "input-error": "orbits --format json -- 2000000 0 0",
}


@pytest.mark.parametrize("name", SPAWN_RUNS)
def test_spawn_prints_what_main_prints(name):
    # under ``-X dev`` a file left unclosed warns on stderr, so the spawn
    # must print the line's files, as main does, and nothing more
    _, code, stdout, stderr, argv = pinned(SPAWN_RUNS[name])
    env = dict(src_env(), COLUMNS="80")
    assert TOOL.status(sys.executable, env, code, stdout, stderr, argv) == "ok"


# Each test below checks a corrigendum figure or a verdict that its
# line's byte compare also pins, and fails if a golden file is rewritten
# without it.
def test_census_table(capsys):
    code, out, _ = run(capsys, "census")
    assert code == 0
    assert "3398" in out
    assert "2657" in out
    assert "741" in out


def test_census_json_keys(capsys):
    code, out, _ = run(capsys, "census", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["p_models"] == 450
    assert payload["t_models"] == 129
    assert payload["p_cones"] == 2657
    assert payload["t_cones"] == 741
    assert payload["total_cones"] == 3398
    assert len(payload["p_symmetric"]) == 13
    first = payload["p_symmetric"][0]
    assert set(first) == {"source", "family", "triple", "orbit_length",
                          "symmetry_order"}
    assert payload["findings"]


def test_census_csv(capsys):
    code, out, _ = run(capsys, "census", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "metric,value"
    assert "total_cones,3398" in lines


def test_verify_default_inputs_exit_zero(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert "exit status: 0" in out


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["exit_status"] == 0
    names = {v["name"] for v in payload["verdicts"]}
    assert "census.total_cones" in names
    assert "t_cones_proof_display" in names
    assert all(v["as_expected"] for v in payload["verdicts"])


def test_orbits_out_of_range_is_input_error(capsys):
    code, out, err = run(capsys, "orbits", "2000000", "0", "0")
    assert (code, out) == (2, "")
    assert err == \
        "error: component a=2000000 outside guarded range [-1000000, 1000000]\n"


def test_claim_value_past_the_guard_is_input_error(capsys):
    code, out, err = run(capsys, "audit", "--claims",
                         str(GOLDEN / "product-past-guard.claims"))
    assert (code, out) == (2, "")
    assert err == ("error: claim value 2000000000000 outside guarded range "
                   "+/-1000000000000 (line 2, column 26)\n")


def test_closure_table(capsys):
    code, out, _ = run(capsys, "closure", "--graph", SEED_GRAPH,
                       "--moves", "triple_group")
    assert code == 0
    assert "class count     : 6" in out


def test_closure_json(capsys):
    code, out, _ = run(capsys, "closure", "--graph", SEED_GRAPH,
                       "--moves", "triple_group", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["class_count"] == 6
    assert payload["moves"] == "triple_group"
    assert payload["backend"] == "pure"


def test_closure_unknown_move_set(capsys):
    code, out, err = run(capsys, "closure", "--graph", SEED_GRAPH,
                         "--moves", "flops")
    assert (code, out) == (2, "")
    assert err == "error: unknown move set 'flops' (known: none, triple_group)\n"


def test_closure_missing_graph_file(capsys):
    code, _, err = run(capsys, "closure", "--graph", "/nonexistent.graph",
                       "--moves", "none")
    assert code == 2


def test_audit_default_claims(capsys):
    code, out, _ = run(capsys, "audit")
    assert code == 0
    assert "t_cones_proof_display" in out
    assert "741 != 747" in out


def test_audit_custom_claims_unexpected_failure(tmp_path, capsys):
    claims = tmp_path / "claims.txt"
    claims.write_text("claim wrong: 1 + 1 == 3 expect=holds\n", encoding="utf-8")
    code, out, _ = run(capsys, "audit", "--claims", str(claims))
    assert code == 1
    assert "UNEXPECTED" in out


def test_audit_parse_error_reports_location(tmp_path, capsys):
    claims = tmp_path / "claims.txt"
    claims.write_text("claim broken: 1 + == 2 expect=holds\n", encoding="utf-8")
    code, _, err = run(capsys, "audit", "--claims", str(claims))
    assert code == 2
    assert "line 1" in err


def test_verify_with_wrong_symmetric_count(tmp_path, capsys):
    config = tmp_path / "declared.cfg"
    config.write_text(
        "entry t_models: count=129 breakdown=83+1+45\n"
        "entry t_symmetric: count=10\n"
        "entry p_very_degenerate: count=103 breakdown=71+7+25\n"
        "entry p_very_degenerate_symmetric: count=1\n",
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "verify", "--config", str(config), "--format", "json")
    assert code == 1
    payload = json.loads(out)
    by_name = {v["name"]: v for v in payload["verdicts"]}
    assert by_name["census.t_cones"]["lhs"] == 744
    assert not by_name["census.t_cones"]["as_expected"]

    # A different very-degenerate count is a reading to audit, not a fault.
    config.write_text(VD_104_READING, encoding="utf-8")
    code, out, _ = run(capsys, "verify", "--config", str(config), "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["exit_status"] == 1
    unexpected = {
        v["name"]: v["lhs"] for v in payload["verdicts"] if not v["as_expected"]
    }
    assert unexpected == {
        "census.p_models": 451,
        "census.p_cones": 2663,
        "census.total_cones": 3404,
    }


def test_census_with_alternative_reading(tmp_path, capsys):
    config = tmp_path / "declared.cfg"
    config.write_text(VD_104_READING, encoding="utf-8")
    code, out, _ = run(capsys, "census", "--config", str(config), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["p_models"] == 451
    assert payload["p_cones"] == 2663


def test_verify_bad_config_is_input_error(tmp_path, capsys):
    config = tmp_path / "declared.cfg"
    config.write_text("entry bad: count=10 breakdown=5+4\n", encoding="utf-8")
    code, _, err = run(capsys, "verify", "--config", str(config))
    assert code == 2
    assert "breakdown" in err


@pytest.mark.parametrize("config, message", [
    (VD_104_READING.replace("entry t_symmetric: count=11\n", ""),
     "missing required entry 't_symmetric' (field 't_symmetric')"),
    (VD_104_READING.replace("count=1\n", "count=105\n"),
     "p_very_degenerate_symmetric=105 exceeds p_very_degenerate=104 "
     "(field 'p_very_degenerate_symmetric')"),
], ids=["missing_entry", "more_symmetric_than_models"])
def test_census_rejects_incomplete_reading(tmp_path, capsys, config, message):
    path = tmp_path / "declared.cfg"
    path.write_text(config, encoding="utf-8")
    code, out, err = run(capsys, "census", "--config", str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_census_names_a_count_past_the_conversion_limit(tmp_path, capsys):
    path = tmp_path / "declared.cfg"
    path.write_text(VD_104_READING.replace("count=11", "count=" + "9" * 4301),
                    encoding="utf-8")
    code, out, err = run(capsys, "census", "--config", str(path))
    assert code == 2
    assert out == ""
    assert err == ("error: integer of 4301 digits is too long "
                   "(line 2, field 'count')\n")


NINES = "9" * 4300  # the longest count the interpreter converts


@pytest.mark.parametrize("command", ["census", "verify"])
@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize("entry, label", [
    ("count=129 breakdown=83+1+45", "t_models"),
    ("count=104 breakdown=72+7+25", "p_very_degenerate"),
])
def test_totals_too_long_to_print_are_input_errors(tmp_path, capsys, command, fmt,
                                                   entry, label):
    # the count parses, but the totals it gives have 4301 digits; the
    # error names the entry before any of the table reaches stdout
    path = tmp_path / "declared.cfg"
    path.write_text(VD_104_READING.replace(entry, f"count={NINES}"),
                    encoding="utf-8")
    code, out, err = run(capsys, command, "--config", str(path), "--format", fmt)
    assert (code, out) == (2, "")
    assert err == (f"error: entry {label!r} gives total_cones too long to print "
                   "(field 'count')\n")


@pytest.mark.parametrize("command", ["census", "verify"])
def test_more_t_symmetric_than_t_models_is_input_error(tmp_path, capsys, command):
    # checked beside the very-degenerate pair, so the error names the entry
    path = tmp_path / "declared.cfg"
    path.write_text(VD_104_READING.replace("count=129 breakdown=83+1+45", "count=10"),
                    encoding="utf-8")
    code, out, err = run(capsys, command, "--config", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: t_symmetric=11 exceeds t_models=10 (field 't_symmetric')\n"


@pytest.mark.parametrize("command", ["audit", "verify"])
def test_verdicts_as_csv(capsys, command):
    code, out, _ = run(capsys, command, "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    _, out, _ = run(capsys, command, "--format", "json")
    verdicts = json.loads(out)["verdicts"]
    assert rows[0] == ["name", "holds", "lhs", "rhs", "expected", "as_expected",
                       "cite"]
    assert rows[1:] == [
        [v["name"], str(v["holds"]), str(v["lhs"]), str(v["rhs"]),
         v["expected"], str(v["as_expected"]), v["cite"]]
        for v in verdicts
    ]


# Each of these checks its RUNS line byte for byte, then reads the
# figures off the golden file, so a golden file rewritten to a wrong
# figure still fails.
def pinned_stdout(monkeypatch, capsys, command):
    entry = pinned(command)
    check_run(monkeypatch, capsys, *entry)
    return TOOL.expected(entry[2]).decode()


def test_orbits_table(monkeypatch, capsys):
    out = pinned_stdout(monkeypatch, capsys, "orbits 0 -- -1 1")
    assert "orbit length     : 3" in out
    assert "stabilizer order : 2" in out


def test_orbits_json(monkeypatch, capsys):
    payload = json.loads(pinned_stdout(monkeypatch, capsys,
                                       "orbits --format json 1 1 1"))
    assert payload["orbit_length"] == 2
    assert payload["stabilizer_order"] == 3
    assert payload["canonical"] == [-1, -1, -1]
    assert sorted(payload["orbit"]) == [[-1, -1, -1], [1, 1, 1]]


def test_orbits_csv(monkeypatch, capsys):
    lines = pinned_stdout(monkeypatch, capsys,
                          "orbits --format csv 1 2 3").strip().splitlines()
    assert lines[0] == "element,a,b,c"
    assert len(lines) == 7


@pytest.mark.parametrize("argv, message", [
    (["verify"], "|orbit|=4 stabilizer=1"),
    (["census"], "|orbit|=4 stabilizer=1"),
    (["orbits", "1", "2", "2"], "|orbit|=5 stabilizer=2"),
], ids=["verify", "census", "orbits"])
def test_broken_group_table_is_invariant_failure(monkeypatch, capsys, argv, message):
    # an element that swaps without its signs breaks orbit-stabilizer: a
    # program fault, not malformed input
    images = triples._images
    monkeypatch.setattr(triples, "_images",
                        lambda a, b, c: images(a, b, c)[:5] + ((a, c, b),))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: orbit-stabilizer violation: {message}\n"


def test_orbits_reads_one_group_table(monkeypatch, capsys):
    # S3 without the signs passes orbit-stabilizer; every field of every
    # format comes off it, as ``orbit`` reads it
    monkeypatch.setattr(triples, "_images", lambda a, b, c: (
        (a, b, c), (b, c, a), (c, a, b), (b, a, c), (c, b, a), (a, c, b)))
    payload = json.loads(run(capsys, "orbits", "--format", "json", "1", "2", "3")[1])
    assert payload["orbit"] == [[1, 2, 3], [1, 3, 2], [2, 1, 3], [2, 3, 1],
                                [3, 1, 2], [3, 2, 1]]
    assert payload["canonical"] == [1, 2, 3]
    rows = run(capsys, "orbits", "--format", "csv", "1", "2", "3")[1].splitlines()
    assert rows[4] == "i,2,1,3"


@pytest.mark.parametrize("option, command", [
    ("--config", "census"), ("--config", "verify"), ("--claims", "audit"),
    ("--graph", "closure"),
])
def test_files_that_are_not_utf8_are_input_errors(tmp_path, capsys, option,
                                                  command):
    path = tmp_path / "latin1.txt"
    path.write_bytes("entry caf\u00e9: count=1\n".encode("latin-1"))
    extra = ["--moves", "none"] if command == "closure" else []
    code, out, err = run(capsys, command, option, str(path), *extra)
    assert (code, out) == (2, "")
    assert err == (f"error: {str(path)!r} is not UTF-8: 'utf-8' codec can't decode "
                   "byte 0xe9 in position 9: invalid continuation byte\n")


@pytest.mark.parametrize("option, command, text", [
    ("--config", "census", default_declared_text()),
    ("--claims", "audit", default_claims_text()),
    ("--graph", "closure", GRAPH_TEXT),
])
def test_a_byte_order_mark_is_not_part_of_the_text(tmp_path, capsys, option, command,
                                                   text):
    # some editors save UTF-8 with a byte-order mark; the file reads as
    # the same text without one
    extra = ["--moves", "triple_group"] if command == "closure" else []
    outputs = []
    for name, encoding in (("plain.txt", "utf-8"), ("marked.txt", "utf-8-sig")):
        path = tmp_path / name
        path.write_text(text, encoding=encoding)
        outputs.append(run(capsys, command, option, str(path), *extra))
    assert (tmp_path / "marked.txt").read_bytes().startswith(b"\xef\xbb\xbf")
    assert outputs[0][0] == 0
    assert outputs[1] == outputs[0]


def test_stdout_that_cannot_encode_the_input_is_input_error(tmp_path, monkeypatch,
                                                           capsys):
    # a cite that the csv view prints and an ASCII-only stdout
    claims = tmp_path / "accent.claims"
    claims.write_text('claim cafe: 1 == 1 expect=holds cite="\u00e9t\u00e9"\n',
                      encoding="utf-8")
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(io.BytesIO(), "ascii"))
    assert main(["audit", "--claims", str(claims), "--format", "csv"]) == 2
    assert capsys.readouterr().err == (
        "error: 'ascii' codec can't encode character '\\xe9' in position 25: "
        "ordinal not in range(128)\n")


def test_internal_value_error_is_no_input_error(monkeypatch):
    # only the typed input errors exit 2; a ValueError from the program
    # itself leaves main with its traceback
    from moricensus import cones

    def broken(models):
        raise ValueError("planted")

    monkeypatch.setattr(cones, "p_cone_count", broken)
    with pytest.raises(ValueError, match="planted"):
        main(["census"])


@pytest.mark.parametrize("components, bad", [
    (["\u0661", "\u0662", "\u0663"], "\u0661"),
    ([" 1_0", "0", "0"], " 1_0"),
    (["x", "0", "0"], "x"),
], ids=["not_ascii", "underscore_and_space", "not_digits"])
def test_orbits_rejects_integers_off_the_grammar(capsys, components, bad):
    # int() reads these as (1, 2, 3) and (10, 0, 0); the CLI takes -?[0-9]+
    with pytest.raises(SystemExit) as exc_info:
        main(["orbits", "--", *components])
    assert exc_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: argument a: invalid int value: {bad!r}\n")


def test_closure_no_moves(tmp_path, capsys):
    code, out, _ = run(capsys, "closure", "--graph", SEED_GRAPH,
                       "--moves", "none", "--format", "csv")
    assert code == 0
    assert "class_count,1" in out
    # the seed is its own state: a graph past the kernel's 12 nodes closes
    # to one class in no steps
    ring = tmp_path / "ring.graph"
    ring.write_text("".join(f"node n{k} label=0\n" for k in range(13))
                    + "".join(f"edge n{k} n{(k + 1) % 13} label=0\n" for k in range(13)),
                    encoding="utf-8")
    code, out, err = run(capsys, "closure", "--graph", str(ring),
                         "--moves", "none", "--format", "json")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert (payload["class_count"], payload["expansion_steps"]) == (1, 0)


def test_closure_rejects_graph_that_is_no_triple_encoding(tmp_path, capsys):
    path = tmp_path / "double.graph"
    path.write_text(GRAPH_TEXT.replace(
        "edge p0 p1 label=-6", "edge p0 p1 label=5\nedge p0 p1 label=7"
    ), encoding="utf-8")
    code, out, err = run(capsys, "closure", "--graph", str(path),
                         "--moves", "triple_group", "--format", "json")
    assert code == 2
    assert out == ""
    assert "not a rigid triple encoding" in err


def test_closure_rejects_zero_multiplicity_graph(tmp_path, capsys):
    path = tmp_path / "zero.graph"
    path.write_text(GRAPH_TEXT.replace("label=-6", "label=-6 mult=0"),
                    encoding="utf-8")
    code, out, err = run(capsys, "closure", "--graph", str(path),
                         "--moves", "triple_group")
    assert code == 2
    assert out == ""
    assert err == \
        "error: edge multiplicity must be >= 1, got 0 (line 4, field 'mult')\n"


@pytest.mark.parametrize("label, code", [(1_000_000, 0), (1_000_001, 2)])
def test_closure_component_bound(tmp_path, capsys, label, code):
    path = tmp_path / "bound.graph"
    path.write_text(GRAPH_TEXT.replace("label=-6", f"label={label}"),
                    encoding="utf-8")
    got, out, err = run(capsys, "closure", "--graph", str(path),
                        "--moves", "triple_group", "--format", "json")
    assert got == code
    if code == 0:
        assert json.loads(out)["class_count"] == 6
    else:
        assert out == ""
        assert "guarded range" in err


def test_closure_has_no_workers_option(capsys):
    # the closure runs on one thread, so the option that did nothing is
    # gone; the shipped move sets close in at most 6 classes and 12
    # steps, so the budgets against runaway move sets are gone too
    for option in ("--workers", "--max-classes", "--max-steps"):
        with pytest.raises(SystemExit) as exc_info:
            main(["closure", "--graph", SEED_GRAPH, "--moves", "triple_group",
                  option, "2"])
        assert exc_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: unrecognized arguments: {option} 2\n")


@pytest.mark.parametrize("argv, code", [
    (["audit"], 0),
    (["audit", "--claims", "no-such-claims.txt"], 2),
], ids=["audit", "missing_claims"])
def test_module_entry_point_exits_with_main_status(monkeypatch, tmp_path, capsys,
                                                  argv, code):
    # a fresh import under __main__; with the module still loaded, runpy
    # warns that it may run twice
    monkeypatch.delitem(sys.modules, "moricensus.cli")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", ["moricensus", *argv])
    try:
        with pytest.raises(SystemExit) as exc_info:
            runpy.run_module("moricensus.cli", run_name="__main__")
        # the process entry froze every live object; thawed, later tests
        # run with the collector reaching pytest's objects again
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()
    assert exc_info.value.code == code
    captured = capsys.readouterr()
    assert ("exit status: 0" in captured.out) == (code == 0)
    assert captured.err.startswith("error: ") == (code == 2)


# str.splitlines() also breaks lines at these; a comment holding one
# stays a comment, and the fault after it is on the line grep -n names
@pytest.mark.parametrize("argv, name, text, message", [
    (["audit", "--claims"], "claims.txt",
     "claim a: 1 == 1 expect=holds # a\fb\nclaim b: ) == 1 expect=holds\n",
     "expected integer, '-' or '(', got ')' (line 2, column 10)"),
    (["census", "--config"], "declared.cfg",
     VD_104_READING.replace("83+1+45", "83+1+45 # a\x1cb").replace(
         "count=11", "count=-1"),
     "count must be non-negative, got -1 (line 2, field 'count')"),
    (["closure", "--moves", "none", "--graph"], "seed.graph",
     GRAPH_TEXT.replace("label=0\n", "label=0 # a\u2028b\n", 1).replace(
         "label=-6", "label=-6 mult=0"),
     "edge multiplicity must be >= 1, got 0 (line 4, field 'mult')"),
], ids=["claims", "config", "graph"])
def test_input_lines_end_at_newline_only(tmp_path, capsys, argv, name, text, message):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, *argv, str(path))
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("expr", [
    "(" * 3000 + "1" + ")" * 3000,
    "-" * 3000 + "1",
    "9" * 5000,
], ids=["nested_parens", "nested_unary_minus", "overlong_literal"])
def test_audit_rejects_oversized_claims_as_input_errors(tmp_path, capsys, expr):
    claims = tmp_path / "claims.txt"
    claims.write_text(f"claim deep: {expr} == 1 expect=holds\n", encoding="utf-8")
    code, out, err = run(capsys, "audit", "--claims", str(claims),
                         "--format", "json")
    assert code == 2
    assert out == ""
    assert "line 1, column " in err


# modules that only the subcommands computing a census or reading claims load
CENSUS_MODULES = ["claims", "cones", "declared", "families"]


def src_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return env


def test_interpreter_check_passes_this_interpreter():
    # the tool spawns every pinned run under ``-X dev`` and checks the
    # plain reader against argparse on its own argv list
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "check_interpreters.py"), sys.executable],
        capture_output=True, text=True, timeout=120,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "".join(
        f"{sys.executable}  RUNS:{line} {shlex.join(argv)}  ok\n"
        for line, *_, argv in RUNS) + f"{sys.executable}  reader  ok\n"


def test_console_script_is_the_process_entry():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    with open(ROOT / "pyproject.toml", "rb") as handle:
        target = tomllib.load(handle)["project"]["scripts"]["moricensus"]
    module, _, name = target.partition(":")
    assert getattr(importlib.import_module(module), name) is cli.run


# what only a command line the plain reader declines loads: argparse and
# the modules it pulls in; and ``json``, which only a payload string that
# needs an escape loads
ARGPARSE_MODULES = ["argparse", "gettext", "locale", "json"]


@pytest.mark.parametrize(
    "module",
    # a thread pool (the closure runs on one thread), the record machinery
    # and what it pulls in, and the writer behind ``--format csv``
    ["concurrent.futures", "dataclasses", "inspect", "csv", *ARGPARSE_MODULES],
)
def test_cli_import_leaves_out_unused_modules(module):
    done = subprocess.run(
        [sys.executable, "-c",
         f"import sys, moricensus.cli; print({module!r} in sys.modules)"],
        capture_output=True, text=True, env=src_env(), timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def spawn_imports(argv):
    """A ``python -X importtime -m moricensus.cli`` spawn of ``argv``,
    which must exit 0, and the names of the modules it imports."""
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "moricensus.cli", *argv],
        capture_output=True, text=True, env=src_env(), timeout=60,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return done, {line.rsplit("|", 1)[1].strip() for line in done.stderr.splitlines()
                  if line.startswith("import time:")}


@pytest.mark.parametrize("argv, loaded, unused", [
    (["census"], ["cones", "declared", "families"], ["claims", "graphs", "_canon_py"]),
    (["audit"], ["claims"], ["cones", "declared", "families", "graphs", "_canon_py"]),
    (["verify"], CENSUS_MODULES, ["graphs", "_canon_py"]),
    (["orbits", "--", "1", "2", "3"], ["triples"],
     [*CENSUS_MODULES, "graphs", "_canon_py"]),
    (["closure", "--moves", "triple_group", "--graph"], ["closure", "graphs"],
     [*CENSUS_MODULES, "_canon_py"]),
    (["closure", "--moves", "none", "--graph"], ["closure", "graphs"],
     [*CENSUS_MODULES, "_canon_py"]),
], ids=["census", "audit", "verify", "orbits", "closure", "closure_none"])
def test_subcommand_spawn_leaves_out_unused_modules(argv, loaded, unused):
    # ``-X importtime`` names each module the spawn imports on stderr; no
    # subcommand makes a kernel call, so none loads ``_canon_py``, and only
    # ``closure`` reads a graph, so only it loads ``graphs``
    if argv[-1] == "--graph":
        argv = [*argv, SEED_GRAPH]
    _, imported = spawn_imports(argv)
    assert {f"moricensus.{m}" for m in loaded} <= imported
    assert imported.isdisjoint(f"moricensus.{m}" for m in unused)
    assert imported.isdisjoint(ARGPARSE_MODULES)


def test_abbreviated_spawn_reads_its_line_with_argparse():
    # an abbreviation is no plain spelling, so argparse reads the line
    done, imported = spawn_imports(["orbits", "--form", "json", "--", "-6", "0", "3"])
    assert "argparse" in imported
    assert done.stdout.encode() == (SNAPSHOTS / "orbits.json").read_bytes()


def test_equals_spelled_spawn_reads_its_line_with_argparse():
    # ``--name=value`` is no plain spelling either, so argparse reads it
    done, imported = spawn_imports(["census", "--format=json"])
    assert "argparse" in imported
    assert done.stdout.encode() == (SNAPSHOTS / "census.json").read_bytes()


def test_spawn_hands_strings_that_need_escapes_to_json():
    # the cites hold non-ASCII, astral, backslash, tab and DEL characters,
    # so ``json`` escapes them; the line is plain, so argparse stays out
    done, imported = spawn_imports(["audit", "--claims", str(GOLDEN / "odd-cites.claims"),
                                    "--format", "json"])
    assert "json" in imported
    assert imported.isdisjoint(["argparse", "gettext", "locale"])
    assert done.stdout.encode() == (GOLDEN / "audit-odd.json.txt").read_bytes()


def test_only_a_canonical_form_loads_the_kernel():
    # iso decides a mutant pair by its multisets and a pair with distinct
    # node keys by their forced map, so neither loads ``_canon_py``; the
    # first canonical form does
    code = (
        "import sys\n"
        "from moricensus.graphs import LabeledGraph, canonical_graph, iso\n"
        "g = LabeledGraph.build([0, 1, 2], [(0, 1, 5), (1, 2, 3)])\n"
        "mutant = LabeledGraph.build([0, 1, 2], [(0, 1, 5, 2), (1, 2, 3)])\n"
        "relabelled = LabeledGraph.build([2, 1, 0], [(1, 2, 5), (0, 1, 3)])\n"
        "print(iso(g, mutant), iso(g, relabelled))\n"
        "print('moricensus._canon_py' in sys.modules)\n"
        "form = canonical_graph(g)\n"
        "print('moricensus._canon_py' in sys.modules)\n"
        "print(form == canonical_graph(relabelled))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=src_env(), timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "True", "False", "True", "True"]


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_closed_stdout_exits_141_quietly(unbuffered):
    # unbuffered, the command's own print meets the closed pipe; buffered,
    # the flush after the command does; ``--help`` prints from inside the
    # argument parser, which then exits
    env = src_env()
    env["PYTHONUNBUFFERED"] = unbuffered
    for argv in (["orbits", "--", "1", "2", "3"], ["--help"], ["orbits", "--help"]):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "moricensus.cli", *argv],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (141, ""), argv


@pytest.mark.parametrize("argv", [["orbits", "1", "2", "3"], ["--help"]],
                         ids=["orbits", "help"])
def test_closed_stdout_returns_141_in_process(monkeypatch, argv):
    # the handler points the pipe's write end at devnull, so closing the
    # stream flushes what is left there
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w") as stream, monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", stream)
        assert main(argv) == 141


def argparse_vars(argv):
    try:
        return vars(cli.build_parser().parse_args(argv))
    except SystemExit:
        pytest.fail(f"argparse refuses {argv}")


READER_CASES = TOOL.READER_CASES


@pytest.mark.parametrize("argv, plain", READER_CASES,
                         ids=[shlex.join(argv) for argv, _ in READER_CASES])
def test_plain_reader_reads_what_argparse_reads(argv, plain):
    # the list ``tools/check_interpreters.py`` runs under each interpreter:
    # cli-audit's and the golden runs' spellings, read without argparse,
    # and one line for each way the reader declines a line
    got = cli._plain_args(argv)
    assert (got is not None) == plain
    if plain:
        assert vars(got) == argparse_vars(argv)


# odd tokens, each a chunk of argv
ODD_ARGV = st.one_of(
    st.sampled_from(["--", "-h", "--help", "-", "--x", "--form", "--co", "--format=x",
                     "--config=", "=", "-1", "007", "1" * 25, "\u0663", " 1", "a b", "",
                     *cli._COMMANDS]),
    st.text(max_size=3),
).map(lambda token: [token])


@st.composite
def plain_argv(draw):
    """A command line of a subcommand's own tokens: each of its options
    zero to two times, as ``--name value`` or ``--name=value``, and its
    integers, some of them after ``--``; shuffled, with an odd token at
    times."""
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    _, options, ints, *_ = cli._COMMANDS[command]
    chunks = []
    for name in (*options, "format"):
        for _ in range(draw(st.integers(0, 2))):
            value = draw(st.sampled_from(
                ["json", "csv", "table"] if name == "format" else ["a.cfg", "a=b"]))
            chunks.append(draw(st.sampled_from([[f"--{name}", value],
                                                [f"--{name}={value}"]])))
    numbers = [str(draw(st.integers(-20, 20))) for _ in ints]
    cut = draw(st.integers(0, len(numbers)))  # the numbers after ``--`` start here
    chunks += [[n] for n in numbers[:cut]] + draw(st.lists(ODD_ARGV, max_size=1))
    argv = [command, *itertools.chain.from_iterable(draw(st.permutations(chunks)))]
    return argv + ["--", *numbers[cut:]] if cut < len(numbers) else argv


@settings(max_examples=300, deadline=None)
@given(plain_argv())
def test_plain_reader_agrees_with_argparse(argv):
    got = cli._plain_args(argv)
    if got is not None:
        assert vars(got) == argparse_vars(argv)


# every escape ``json``'s ASCII encoder writes: quote, backslash, the
# short control escapes, other control characters, DEL, non-ASCII,
# astral and lone surrogate characters
ODD_TEXT = '"\\\n\r\t\b\f\x00\x1f\x7f \xe9\u2028\U0001f600\ud800\udfff'
JSON_TEXT = st.text(st.one_of(st.sampled_from(ODD_TEXT), st.characters()), max_size=6)
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), JSON_TEXT),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=3).map(tuple),
                            st.dictionaries(JSON_TEXT, inner, max_size=4)),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
def test_json_writer_prints_what_json_prints(value):
    assert cli._json(value) == json.dumps(value, indent=2)


def test_json_writer_examples():
    # each odd character also alone in otherwise printable ASCII, which
    # the writer tests for before it escapes
    for value in ({}, [], (), {"a": [], "b": {}, "c": ()}, [[], {}],
                  [None, True, False, 0, -7, 10**30], ODD_TEXT, {ODD_TEXT: ODD_TEXT},
                  [f"a{char}b" for char in ODD_TEXT]):
        assert cli._json(value) == json.dumps(value, indent=2)
    for value in (1.5, {1, 2}, [0.0], {"a": {1}}):
        with pytest.raises(TypeError):
            cli._json(value)
