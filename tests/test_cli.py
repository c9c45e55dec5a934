import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from moricensus.cli import main

GRAPH_TEXT = """\
node p0 label=0
node p1 label=1
node p2 label=2
edge p0 p1 label=-6
edge p1 p2 label=0
edge p2 p0 label=3
"""

VD_104_READING = (
    "entry t_models: count=129 breakdown=83+1+45\n"
    "entry t_symmetric: count=11\n"
    "entry p_very_degenerate: count=104 breakdown=72+7+25\n"
    "entry p_very_degenerate_symmetric: count=1\n"
)


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "seed.graph"
    path.write_text(GRAPH_TEXT, encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_orbits_table(capsys):
    code, out, _ = run(capsys, "orbits", "0", "--", "-1", "1")
    assert code == 0
    assert "orbit length     : 3" in out
    assert "stabilizer order : 2" in out


def test_orbits_json(capsys):
    code, out, _ = run(capsys, "orbits", "--format", "json", "1", "1", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["orbit_length"] == 2
    assert payload["stabilizer_order"] == 3
    assert payload["canonical"] == [-1, -1, -1]
    assert sorted(payload["orbit"]) == [[-1, -1, -1], [1, 1, 1]]


def test_orbits_csv(capsys):
    code, out, _ = run(capsys, "orbits", "--format", "csv", "1", "2", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "element,a,b,c"
    assert len(lines) == 7


def test_orbits_out_of_range_is_input_error(capsys):
    code, _, err = run(capsys, "orbits", "2000000", "0", "0")
    assert code == 2
    assert "guarded range" in err


def test_closure_table(graph_file, capsys):
    code, out, _ = run(capsys, "closure", "--graph", graph_file,
                       "--moves", "triple_group")
    assert code == 0
    assert "class count     : 6" in out


def test_closure_json(graph_file, capsys):
    code, out, _ = run(capsys, "closure", "--graph", graph_file,
                       "--moves", "triple_group", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["class_count"] == 6
    assert payload["moves"] == "triple_group"
    assert payload["backend"] == "pure"


def test_closure_no_moves(graph_file, capsys):
    code, out, _ = run(capsys, "closure", "--graph", graph_file,
                       "--moves", "none", "--format", "csv")
    assert code == 0
    assert "class_count,1" in out


def test_closure_unknown_move_set(graph_file, capsys):
    code, _, err = run(capsys, "closure", "--graph", graph_file,
                       "--moves", "flops")
    assert code == 2
    assert "unknown move set" in err


def test_closure_missing_graph_file(capsys):
    code, _, err = run(capsys, "closure", "--graph", "/nonexistent.graph",
                       "--moves", "none")
    assert code == 2


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
    assert err == "error: edge multiplicity must be >= 1: (0, 1, -6, 0)\n"


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


def test_closure_budget_exhaustion_is_verification_failure(graph_file, capsys):
    code, _, err = run(capsys, "closure", "--graph", graph_file,
                       "--moves", "triple_group", "--max-classes", "2")
    assert code == 1
    assert "budget" in err


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


ROOT = Path(__file__).resolve().parents[1]
SNAPSHOTS = ROOT / "perfbench" / "snapshots"


@pytest.mark.parametrize("snapshot, argv", [
    ("census.json", ("census", "--format", "json")),
    ("verify.json", ("verify", "--format", "json")),
    ("orbits.json", ("orbits", "--format", "json", "--", "-6", "0", "3")),
])
def test_shipped_json_is_byte_identical_to_snapshot(capsys, snapshot, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.encode() == (SNAPSHOTS / snapshot).read_bytes()


def test_shipped_closure_json_matches_snapshot(graph_file, capsys):
    code, out, _ = run(capsys, "closure", "--graph", graph_file,
                       "--moves", "triple_group", "--format", "json")
    assert code == 0
    saved = json.loads((SNAPSHOTS / "closure.json").read_text(encoding="utf-8"))
    payload = json.loads(out)
    assert payload.keys() == saved.keys()
    for field, value in saved.items():
        assert payload[field] == value, field


@pytest.mark.parametrize(
    "module",
    # the closure pool (only ``workers > 1``), the record machinery and
    # what it pulls in, and the writer behind ``--format csv``
    ["concurrent.futures", "dataclasses", "inspect", "csv"],
)
def test_cli_import_leaves_out_unused_modules(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c",
         f"import sys, moricensus.cli; print({module!r} in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
