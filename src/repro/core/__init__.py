"""The paper's primary contribution: the convex feasibility-region model
of an operational 802.11 mesh, its online parameter estimation (capacity
representation, channel-loss estimator, two-hop interference model) and
the utility-maximising rate-control loop built on top of it."""

from repro.core.capacity import CapacityModel, combine_data_ack_losses
from repro.core.loss_estimator import (
    ChannelLossEstimate,
    estimate_channel_loss_rate,
    sliding_min_loss_curve,
)
from repro.core.interference import (
    BinaryLirClassifier,
    DEFAULT_LIR_THRESHOLD,
    PairwiseInterferenceMap,
    link_interference_ratio,
    two_hop_conflict_matrix,
)
from repro.core.cliques import (
    adjacency_from_edges,
    maximal_cliques,
    maximal_independent_sets,
)
from repro.core.conflict_graph import ConflictGraph
from repro.core.extreme_points import (
    FeasibilityRegion,
    primary_extreme_points,
    secondary_extreme_points,
)
from repro.core.feasibility import TwoLinkRegions
from repro.core.lir_error import (
    ExpectedErrors,
    PairSample,
    best_threshold,
    expected_errors,
    pair_error,
    synthetic_pair_from_lir,
    threshold_sweep,
)
from repro.core.utility import (
    AlphaFairUtility,
    MAX_THROUGHPUT,
    PROPORTIONAL_FAIR,
)
from repro.core.optimizer import OptimizationResult, RateOptimizer, SolverError
from repro.core.rate_control import tcp_ack_airtime_factor
from repro.core.controller import ControlDecision, LinkEstimate, OnlineOptimizer, decide

__all__ = [
    "CapacityModel",
    "combine_data_ack_losses",
    "ChannelLossEstimate",
    "estimate_channel_loss_rate",
    "sliding_min_loss_curve",
    "BinaryLirClassifier",
    "DEFAULT_LIR_THRESHOLD",
    "PairwiseInterferenceMap",
    "link_interference_ratio",
    "two_hop_conflict_matrix",
    "adjacency_from_edges",
    "maximal_cliques",
    "maximal_independent_sets",
    "ConflictGraph",
    "FeasibilityRegion",
    "primary_extreme_points",
    "secondary_extreme_points",
    "TwoLinkRegions",
    "ExpectedErrors",
    "PairSample",
    "best_threshold",
    "expected_errors",
    "pair_error",
    "synthetic_pair_from_lir",
    "threshold_sweep",
    "AlphaFairUtility",
    "MAX_THROUGHPUT",
    "PROPORTIONAL_FAIR",
    "OptimizationResult",
    "RateOptimizer",
    "SolverError",
    "tcp_ack_airtime_factor",
    "ControlDecision",
    "LinkEstimate",
    "OnlineOptimizer",
    "decide",
]
