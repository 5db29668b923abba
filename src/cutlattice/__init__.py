"""Enumeration of consistent global states of message-passing computations.

The package builds a uniflow chain partition of a computation's event poset
and walks the lattice of consistent cuts rank by rank in polynomial space,
alongside a traditional level-by-level BFS and a brute-force downset oracle
for cross-validation.

The names below are the ones the README, the demos and the benchmark use,
plus the exception types; everything else is imported from its submodule.
"""

from .model import (
    ResourceLimitError,
    UsageError,
    concurrent,
    format_cut,
    happened_before,
    is_consistent,
    make_computation,
)
from .uniflow import (
    PartitionerState,
    build_uniflow_partition,
    find_uniflow_chain,
    regenerate_vector_clocks,
)
from .traversal import (
    get_min_cut,
    get_successor,
    remap,
    traverse_bfs,
    traverse_rank_range,
)
from .baselines import traditional_bfs
from .traceio import (
    GenSpec,
    TraceError,
    generate_random,
    parse_document,
    serialize_trace,
)

__version__ = "0.1.0"

__all__ = [
    "GenSpec",
    "PartitionerState",
    "ResourceLimitError",
    "TraceError",
    "UsageError",
    "build_uniflow_partition",
    "concurrent",
    "find_uniflow_chain",
    "format_cut",
    "generate_random",
    "get_min_cut",
    "get_successor",
    "happened_before",
    "is_consistent",
    "make_computation",
    "parse_document",
    "regenerate_vector_clocks",
    "remap",
    "serialize_trace",
    "traditional_bfs",
    "traverse_bfs",
    "traverse_rank_range",
]
