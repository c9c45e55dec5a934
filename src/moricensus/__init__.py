"""Exact model and maximal-cone census engine with claims auditing.

Recomputes the model censuses of a genus-2 degeneration family's Mori
fan from first principles (an order-6 group action on integer triples
plus declared inputs), assembles the maximal-cone counts 2657 + 741 =
3398, and audits the arithmetic identities of the text that states
them.  Every orbit, the census's and the ``orbits`` command's, comes
from :func:`triples.orbit`, which checks orbit-stabilizer.  An input
fault, CLI or library, is a ``ConfigError``, a failed verification any
other ``MoricensusError``, and a ``ValueError`` a program fault.

The names of ``closure``, ``errors``, ``graphs`` and ``triples`` load
with the package.  Those of the census modules (``claims``, ``cones``,
``declared``, ``families``) load on first use, through ``__getattr__``,
so ``import moricensus`` compiles none of them.
"""

from .closure import MOVE_SETS, ClosureResult, closure, encode_triple
from .errors import ConfigError, DuplicateClassError, MoricensusError
from .graphs import LabeledGraph, parse_graph_file
from .triples import Triple, orbit

__version__ = "0.1.0"

# the census modules' package-level names, each with its submodule
_LAZY = {
    **dict.fromkeys(("AuditReport", "Verdict", "evaluate", "evaluate_claims",
                     "parse_claims"), "claims"),
    **dict.fromkeys(("CensusReport", "build_census_report", "p_cone_count",
                     "symmetric_p_models", "t_cone_count"), "cones"),
    **dict.fromkeys(("DeclaredEntry", "load_declared"), "declared"),
    **dict.fromkeys(("RegularModel", "family_nondegenerate",
                     "family_one_degenerate", "family_two_degenerate",
                     "regular_models"), "families"),
}


def __getattr__(name):
    # read from the submodule at each access and never stored here, so a
    # caller sees a name its submodule rebinds
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{module}"), name)
