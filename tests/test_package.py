"""The package's top-level names, and the line guard over its code.

``closure``, ``errors``, ``graphs`` and ``triples`` names load with the
package; the census modules' names load on first use.  Either way each
is its submodule's own object, read when accessed.
"""

import importlib
import importlib.util
import sys

import pytest

import moricensus

from conftest import LineTracer

# every name the package exports, by the submodule that defines it
EXPORTS = {
    "claims": ["AuditReport", "Verdict", "evaluate", "evaluate_claims",
               "parse_claims"],
    "closure": ["MOVE_SETS", "ClosureResult", "closure", "encode_triple"],
    "cones": ["CensusReport", "build_census_report", "p_cone_count",
              "symmetric_p_models", "t_cone_count"],
    "declared": ["DeclaredEntry", "load_declared"],
    "errors": ["ConfigError", "DuplicateClassError", "MoricensusError"],
    "families": ["RegularModel", "family_nondegenerate",
                 "family_one_degenerate", "family_two_degenerate", "regular_models"],
    "graphs": ["LabeledGraph", "parse_graph_file"],
    "triples": ["Triple", "orbit"],
}


def test_every_package_name_is_its_submodules_own():
    for module, names in EXPORTS.items():
        submodule = importlib.import_module(f"moricensus.{module}")
        for name in names:
            assert getattr(moricensus, name) is getattr(submodule, name), name
    with pytest.raises(AttributeError, match="'no_such_name'"):
        moricensus.no_such_name


def test_line_guard_names_a_line_no_call_runs(tmp_path):
    path = tmp_path / "planted.py"
    path.write_text("def sign(x):\n"
                    "    if x < 0:\n"
                    "        return -1\n"
                    "    return 1\n", encoding="utf-8")
    spec = importlib.util.spec_from_file_location("planted", path)
    planted = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(planted)
    tracer = LineTracer(tmp_path)
    unrun = []
    for x in (1, -1):
        previous = sys.gettrace()
        sys.settrace(tracer.trace)
        try:
            planted.sign(x)
        finally:
            sys.settrace(previous)
        unrun.append(tracer.unrun([("planted", path)]))
    assert unrun == [["planted:3: return -1"], []]
