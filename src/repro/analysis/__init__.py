"""Metrics (Jain index, RMSE, CDFs, isolation metrics) and plain-text
reporting helpers used by the benchmark harness."""

from repro.analysis.metrics import (
    cdf_fraction_below,
    jain_fairness_index,
    rmse,
    stability_deviations,
)
from repro.analysis.reporting import ExperimentReport, format_cdf_summary, format_table

__all__ = [
    "cdf_fraction_below",
    "jain_fairness_index",
    "rmse",
    "stability_deviations",
    "ExperimentReport",
    "format_cdf_summary",
    "format_table",
]
