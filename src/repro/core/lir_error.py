"""Analytic FP/FN error of the binary LIR model (Section 4.4, Figure 6).

The binary interference model of Section 4 thresholds the link
interference ratio ``LIR = (c31 + c32) / (c11 + c22)`` (Eq. 5, see
:func:`repro.core.interference.link_interference_ratio`) to decide
which two-link region of Section 3.1 applies.  This module
quantifies what that coarsening costs.  Given the throughputs
(c11, c22, c31, c32) of a link pair, the binary model either

* classifies the pair **interfering** (``LIR < threshold``) and uses the
  time-sharing region, committing a false-negative error equal to the
  fraction of the true (three-point) region it misses, or
* classifies the pair **non-interfering** (``LIR >= threshold``) and uses
  the independent region, committing a false-positive error equal to the
  relative area it over-claims.

Averaging those per-pair errors over an observed LIR distribution (the
Figure 3 experiment) yields the expected FP/FN errors of a threshold —
the paper reports 2 % FP and 13.3 % FN at a threshold of 0.95 — and
sweeping the threshold exposes the FP/FN trade-off used to justify that
choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.core.feasibility import TwoLinkRegions
from repro.core.interference import DEFAULT_LIR_THRESHOLD


@dataclass(frozen=True)
class PairSample:
    """One measured link pair: isolated and simultaneous throughputs."""

    c11: float
    c22: float
    c31: float
    c32: float

    @property
    def lir(self) -> float:
        denom = self.c11 + self.c22
        if denom <= 0:
            return 0.0
        return (self.c31 + self.c32) / denom

    def regions(self) -> TwoLinkRegions:
        return TwoLinkRegions(c11=self.c11, c22=self.c22, c31=self.c31, c32=self.c32)


def pair_error(sample: PairSample, threshold: float = DEFAULT_LIR_THRESHOLD) -> tuple[float, float]:
    """(FP error, FN error) committed by the binary model on one pair.

    Exactly one of the two is non-zero: which one depends on which side
    of the threshold the pair's LIR falls.
    """
    regions = sample.regions()
    if sample.lir < threshold:
        return 0.0, regions.false_negative_error()
    return regions.false_positive_error(), 0.0


@dataclass
class ExpectedErrors:
    """Expected FP/FN errors of a threshold over an LIR distribution."""

    threshold: float
    expected_false_positive: float
    expected_false_negative: float
    num_samples: int
    num_classified_interfering: int


def expected_errors(
    samples: Sequence[PairSample], threshold: float = DEFAULT_LIR_THRESHOLD
) -> ExpectedErrors:
    """Average the per-pair FP/FN errors over a set of measured pairs."""
    if not samples:
        raise ValueError("at least one sample is required")
    fps = []
    fns = []
    interfering = 0
    for sample in samples:
        fp, fn = pair_error(sample, threshold)
        fps.append(fp)
        fns.append(fn)
        if sample.lir < threshold:
            interfering += 1
    return ExpectedErrors(
        threshold=threshold,
        expected_false_positive=float(np.mean(fps)),
        expected_false_negative=float(np.mean(fns)),
        num_samples=len(samples),
        num_classified_interfering=interfering,
    )


def threshold_sweep(
    samples: Sequence[PairSample], thresholds: Iterable[float]
) -> list[ExpectedErrors]:
    """Expected errors for each candidate threshold (Figure 6 methodology)."""
    return [expected_errors(samples, threshold) for threshold in thresholds]
