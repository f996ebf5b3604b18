"""Evaluation metrics used throughout the paper's figures.

Jain's fairness index (Figure 14b), root-mean-square error (Figures 10
and 12), CDF fractions (most figures), and the flow-isolation metrics of
Section 6.2: feasibility (achieved over optimized rate) and stability
(relative deviation from the per-scenario mean).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np


def jain_fairness_index(values: Sequence[float]) -> float:
    """Jain's fairness index: ``(sum x)^2 / (n * sum x^2)``.

    Equals 1 for perfectly equal allocations and 1/n when a single flow
    receives everything.  Zero-length input raises; an all-zero
    allocation returns 1.0 (every flow equally starved).
    """
    x = np.asarray(list(values), dtype=float)
    if x.size == 0:
        raise ValueError("at least one value is required")
    if np.any(x < 0):
        raise ValueError("values must be non-negative")
    # Normalize by the max before squaring: for subnormal inputs
    # (sum x)^2 underflows to 0 while sum x^2 may not (and vice versa at
    # the overflow end), which would push the index outside [1/n, 1].
    # After scaling the largest value is exactly 1, so both sums stay in
    # [1, n^2] and the ratio is computed at full precision.
    peak = float(x.max())
    if peak == 0.0:
        return 1.0
    x = x / peak
    return float(np.sum(x)) ** 2 / (x.size * float(np.sum(x**2)))


def rmse(estimates: Sequence[float], truths: Sequence[float]) -> float:
    """Root mean square error between two equally long sequences."""
    est = np.asarray(list(estimates), dtype=float)
    truth = np.asarray(list(truths), dtype=float)
    if est.shape != truth.shape:
        raise ValueError("estimates and truths must have the same length")
    if est.size == 0:
        raise ValueError("at least one value is required")
    return float(np.sqrt(np.mean((est - truth) ** 2)))


def cdf_fraction_below(values: Iterable[float], threshold: float) -> float:
    """Fraction of the samples that are <= ``threshold``."""
    x = np.asarray(list(values), dtype=float)
    if x.size == 0:
        raise ValueError("at least one value is required")
    return float(np.mean(x <= threshold))


def feasibility_ratio(achieved_bps: float, target_bps: float) -> float:
    """Flow-isolation feasibility metric: achieved over optimized rate."""
    if target_bps <= 0:
        return 1.0
    return achieved_bps / target_bps


def stability_deviations(throughputs: Sequence[float]) -> list[float]:
    """Per-run stability metric: ``|x_i - mean| / mean`` for each run."""
    x = np.asarray(list(throughputs), dtype=float)
    if x.size == 0:
        raise ValueError("at least one throughput is required")
    mean = float(x.mean())
    if mean == 0.0:
        return [0.0] * x.size
    return list(np.abs(x - mean) / mean)
