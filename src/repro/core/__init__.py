"""The paper's primary contribution: the convex feasibility-region model
of an operational 802.11 mesh, its online parameter estimation (capacity
representation, channel-loss estimator, two-hop interference model) and
the utility-maximising rate-control loop built on top of it."""

from repro.core.capacity import CapacityModel, combine_data_ack_losses
from repro.core.loss_estimator import estimate_channel_loss_rate
from repro.core.interference import (
    BinaryLirClassifier,
    DEFAULT_LIR_THRESHOLD,
    PairwiseInterferenceMap,
    link_interference_ratio,
)
from repro.core.conflict_graph import ConflictGraph
from repro.core.extreme_points import FeasibilityRegion
from repro.core.feasibility import TwoLinkRegions
from repro.core.lir_error import expected_errors, threshold_sweep
from repro.core.utility import AlphaFairUtility, MAX_THROUGHPUT, PROPORTIONAL_FAIR
from repro.core.optimizer import RateOptimizer
from repro.core.controller import OnlineOptimizer

__all__ = [
    "CapacityModel",
    "combine_data_ack_losses",
    "estimate_channel_loss_rate",
    "BinaryLirClassifier",
    "DEFAULT_LIR_THRESHOLD",
    "PairwiseInterferenceMap",
    "link_interference_ratio",
    "ConflictGraph",
    "FeasibilityRegion",
    "TwoLinkRegions",
    "expected_errors",
    "threshold_sweep",
    "AlphaFairUtility",
    "MAX_THROUGHPUT",
    "PROPORTIONAL_FAIR",
    "RateOptimizer",
    "OnlineOptimizer",
]
