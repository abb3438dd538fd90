"""The paper's core contribution: locally densest subgraph discovery (IPPV)."""

from .bounds import CompactBounds, initialize_bounds
from .decomposition import TentativeDecomposition, tentative_decomposition
from .exact import (
    diminishingly_dense_decomposition,
    exact_compact_numbers,
    exact_top_k_lhcds,
    lhcds_from_compact_numbers,
)
from .ippv import (
    DenseSubgraph,
    IPPV,
    IPPVConfig,
    LhCDSResult,
    StageTimings,
    find_lhcds,
    find_lhxpds,
)
from .prune import prune_candidates, prune_invalid_vertices
from .seq_kclist import WeightState, seq_kclist_plus_plus
from .stable_groups import StableGroup, derive_stable_groups
from .verify import (
    VerificationStats,
    compact_closure,
    derive_compact_subgraphs,
    is_densest,
    merge_verification_stats,
    verify_basic,
    verify_fast,
)

__all__ = [
    "CompactBounds",
    "initialize_bounds",
    "TentativeDecomposition",
    "tentative_decomposition",
    "diminishingly_dense_decomposition",
    "exact_compact_numbers",
    "exact_top_k_lhcds",
    "lhcds_from_compact_numbers",
    "DenseSubgraph",
    "IPPV",
    "IPPVConfig",
    "LhCDSResult",
    "StageTimings",
    "find_lhcds",
    "find_lhxpds",
    "prune_candidates",
    "prune_invalid_vertices",
    "WeightState",
    "seq_kclist_plus_plus",
    "StableGroup",
    "derive_stable_groups",
    "VerificationStats",
    "compact_closure",
    "derive_compact_subgraphs",
    "is_densest",
    "merge_verification_stats",
    "verify_basic",
    "verify_fast",
]
