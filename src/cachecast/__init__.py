"""Coded-caching rate experiments: placement, delivery, bounds, demands.

A server holds N equal-size files and broadcasts to K caches over a
shared link. During placement each cache stores a fraction m of the
library, arranged so that file pieces are shared by subsets of caches.
During delivery every cache requests one file and the server broadcasts
XOR-coded messages that several caches can use at once. This package
computes the achievable broadcast rates of symmetric placements, adapts
the delivery plan to demand redundancy (several caches asking for the
same file), compares everything against a cutset lower bound, and
simulates correlated request processes to measure the average gains.

The library surface is re-exported here; see the module docstrings for
the underlying conventions (1-based cache and file indices, bitmask
subset encoding, non-increasing redundancy patterns). The command line
lives in ``cachecast.cli`` and is not re-exported.
"""

from .bounds import average_bound, cutset_bound, gap_reduction
from .core import (
    DemandVector,
    RedundancyPattern,
    partitions_into_parts,
    redundancy_pattern,
    redundancy_patterns,
)
from .delivery import (
    DecodeError,
    Message,
    MessageSchedule,
    TransferPlan,
    adaptive_plan,
    build_messages,
    canonical_demand,
    decode,
    rate_nonadaptive,
    rate_of_schedule,
    simplified_plan,
    transfer_cutoff,
)
from .demand import (
    CorrelationModel,
    DemandStats,
    complete_graph,
    conditional_pmf,
    empirical_stats,
    epsr,
    gibbs_sweep,
    load_edge_list,
    mean_request_index,
    sample_chains,
    zipf_pmf,
)
from .lp import LinearProgram, LpNumericalError, LpSolution, solve
from .placement import (
    PartitionMap,
    PlacementProfile,
    apportion,
    centralized_profile,
    decentralized_profile,
    materialize_partition,
    solve_placement_lp,
)

__version__ = "0.1.0"

__all__ = [
    "CorrelationModel",
    "DecodeError",
    "DemandStats",
    "DemandVector",
    "LinearProgram",
    "LpNumericalError",
    "LpSolution",
    "Message",
    "MessageSchedule",
    "PartitionMap",
    "PlacementProfile",
    "RedundancyPattern",
    "TransferPlan",
    "adaptive_plan",
    "apportion",
    "average_bound",
    "build_messages",
    "canonical_demand",
    "centralized_profile",
    "complete_graph",
    "conditional_pmf",
    "cutset_bound",
    "decentralized_profile",
    "decode",
    "empirical_stats",
    "epsr",
    "gap_reduction",
    "gibbs_sweep",
    "load_edge_list",
    "materialize_partition",
    "mean_request_index",
    "partitions_into_parts",
    "rate_nonadaptive",
    "rate_of_schedule",
    "redundancy_pattern",
    "redundancy_patterns",
    "sample_chains",
    "simplified_plan",
    "solve",
    "solve_placement_lp",
    "transfer_cutoff",
    "zipf_pmf",
]
