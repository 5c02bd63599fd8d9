"""Differentially private continual release of graph statistics.

Local statistics (edge count, degree counts, triangles, k-stars, MST
weight) are released through a difference-sequence binary mechanism;
monotone non-local statistics (cuts, matchings, densest subgraph) go
through a sparse-vector mechanism with multiplicative error.  The
package also ships exact evaluators, adversarial sequence generators
with closed-form values, and a brute-force sensitivity oracle.
"""

from importlib import import_module

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
from .noise import RandomSource, concentration_bound, sample_laplace
from .release import (
    UNBOUNDED,
    ReleaseReport,
    release,
    sensitivity_bound,
    theoretical_release_error,
)
from .seqio import parse_sequence, serialize_sequence

__version__ = "0.1.0"

# loaded on first access (PEP 562): no release, experiment or parse needs them
_LAZY = {
    "generators": (
        "AdversarialPair", "SpreadSpec", "adjacent_pair", "expected_values", "gen_event_level",
        "gen_user_level", "mst_tightness_pair", "spread_of", "target_function", "trans",
        "unbounded_pair",
    ),
    "monotone": (
        "MonotoneMechanism", "MonotoneReport", "SparseVector", "SvtAnswer", "additive_error",
        "monotone_release", "monotone_run", "threshold_budget",
    ),
    "oracle": (
        "OracleResult", "OracleScope", "TableVerdict", "brute_sensitivity",
        "compare_with_table", "diff_sensitivity",
    ),
}
_LAZY_MODULE = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    """Import a lazy module, or one of its public names, and keep the name bound."""
    module = name if name in _LAZY else _LAZY_MODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    mod = import_module(f".{module}", __name__)  # also binds the submodule attribute
    value = globals()[name] = mod if module == name else getattr(mod, name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


__all__ = sorted([
    "AdjacencyKind",
    "AdjacencyWitness",
    "BinaryMechanism",
    "Graph",
    "GraphFunction",
    "GraphSequence",
    "PSumRecord",
    "RandomSource",
    "ReleaseReport",
    "SequenceKind",
    "StreamBounds",
    "UNBOUNDED",
    "Update",
    "apply_update",
    "check_adjacency",
    "concentration_bound",
    "edge_key",
    "evaluate",
    "max_summands",
    "num_levels",
    "parse_sequence",
    "prefix_intervals",
    "release",
    "reversed_sequence",
    "sample_laplace",
    "sensitivity_bound",
    "serialize_sequence",
    "static_sensitivity",
    "theoretical_count_error",
    "theoretical_release_error",
    *_LAZY_MODULE,
])
