"""Differentially private continual release of graph statistics.

Local statistics (edge count, degree counts, triangles, k-stars, MST
weight) are released through a difference-sequence binary mechanism;
monotone non-local statistics (cuts, matchings, densest subgraph) go
through a sparse-vector mechanism with multiplicative error.  The
package also ships exact evaluators, adversarial sequence generators
with closed-form values, and a brute-force sensitivity oracle.
"""

from .counting import (
    BinaryMechanism,
    PSumRecord,
    StreamBounds,
    max_summands,
    num_levels,
    prefix_intervals,
    theoretical_count_error,
)
from .functions import GraphFunction, evaluate, static_sensitivity
from .generators import (
    AdversarialPair,
    SpreadSpec,
    adjacent_pair,
    expected_values,
    gen_event_level,
    gen_user_level,
    mst_tightness_pair,
    spread_of,
    target_function,
    trans,
    unbounded_pair,
)
from .graphs import (
    AdjacencyKind,
    AdjacencyWitness,
    Graph,
    GraphSequence,
    SequenceKind,
    Update,
    apply_update,
    check_adjacency,
    edge_key,
    reversed_sequence,
)
from .monotone import (
    MonotoneMechanism,
    MonotoneReport,
    SparseVector,
    SvtAnswer,
    additive_error,
    monotone_release,
    monotone_run,
    threshold_budget,
)
from .noise import RandomSource, concentration_bound, sample_laplace
from .oracle import (
    OracleResult,
    OracleScope,
    TableVerdict,
    brute_sensitivity,
    compare_with_table,
    diff_sensitivity,
)
from .release import (
    UNBOUNDED,
    ReleaseReport,
    release,
    sensitivity_bound,
    theoretical_release_error,
)
from .seqio import parse_sequence, serialize_sequence

__version__ = "0.1.0"

__all__ = [
    "AdjacencyKind",
    "AdjacencyWitness",
    "AdversarialPair",
    "BinaryMechanism",
    "Graph",
    "GraphFunction",
    "GraphSequence",
    "MonotoneMechanism",
    "MonotoneReport",
    "OracleResult",
    "OracleScope",
    "PSumRecord",
    "RandomSource",
    "ReleaseReport",
    "SequenceKind",
    "SparseVector",
    "SpreadSpec",
    "StreamBounds",
    "SvtAnswer",
    "TableVerdict",
    "UNBOUNDED",
    "Update",
    "additive_error",
    "adjacent_pair",
    "apply_update",
    "brute_sensitivity",
    "check_adjacency",
    "compare_with_table",
    "concentration_bound",
    "diff_sensitivity",
    "edge_key",
    "evaluate",
    "expected_values",
    "gen_event_level",
    "gen_user_level",
    "max_summands",
    "monotone_release",
    "monotone_run",
    "mst_tightness_pair",
    "num_levels",
    "parse_sequence",
    "prefix_intervals",
    "release",
    "reversed_sequence",
    "sample_laplace",
    "sensitivity_bound",
    "serialize_sequence",
    "spread_of",
    "static_sensitivity",
    "target_function",
    "theoretical_count_error",
    "theoretical_release_error",
    "threshold_budget",
    "trans",
    "unbounded_pair",
]
