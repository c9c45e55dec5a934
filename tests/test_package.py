"""The package's top-level names.

``closure``, ``errors``, ``graphs`` and ``triples`` names load with the
package; the census modules' names load on first use.  Either way each
is its submodule's own object, read when accessed.
"""

import importlib

import pytest

import moricensus

from linetrace import unrun_lines

# every name the package exports, by the submodule that defines it
EXPORTS = {
    "claims": ["AuditReport", "Claim", "Verdict", "evaluate", "evaluate_claims",
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
    # the exported names and one unknown name reach every line of the
    # package's own code
    def run():
        for module, names in EXPORTS.items():
            submodule = importlib.import_module(f"moricensus.{module}")
            for name in names:
                assert getattr(moricensus, name) is getattr(submodule, name), name
        with pytest.raises(AttributeError, match="'no_such_name'"):
            moricensus.no_such_name

    assert unrun_lines([moricensus], run) == []
