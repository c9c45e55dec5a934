"""Exact model and maximal-cone census engine with claims auditing.

Recomputes the model censuses of a genus-2 degeneration family's Mori
fan from first principles (an order-6 group action on integer triples
plus declared inputs), assembles the maximal-cone counts 2657 + 741 =
3398, and audits the arithmetic identities of the text that states
them.
"""

from .claims import (
    AuditReport,
    Claim,
    Verdict,
    evaluate,
    evaluate_claims,
    format_claims,
    parse_claims,
)
from .closure import (
    MOVE_SETS,
    ClosureResult,
    MoveOperator,
    closure,
    decode_triple,
    encode_triple,
)
from .cones import (
    CensusReport,
    ModelRecord,
    build_census_report,
    p_cone_count,
    symmetric_p_models,
    t_cone_count,
)
from .declared import DeclaredEntry, load_declared
from .errors import (
    BudgetExceededError,
    ConfigError,
    DuplicateClassError,
    MoricensusError,
    ParseError,
    SizeLimitError,
)
from .families import (
    FamilyId,
    RegularModel,
    family_nondegenerate,
    family_one_degenerate,
    family_two_degenerate,
    regular_models,
)
from .graphs import (
    LabeledGraph,
    canonical_backend,
    canonical_graph,
    iso,
    parse_graph_file,
)
from .triples import (
    GroupElement,
    OrbitRecord,
    Triple,
    apply,
    canonical,
    orbit,
)

__version__ = "0.1.0"
