"""Alpha-fair utility family (Section 6.1).

``U(y) = y^(1-alpha) / (1-alpha)`` for ``alpha != 1`` and ``log(y)`` for
``alpha = 1``.  Special cases: ``alpha = 0`` maximises aggregate
throughput, ``alpha = 1`` is proportional fairness, ``alpha -> inf``
approaches max-min fairness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class AlphaFairUtility:
    """One member of the alpha-fair utility family.

    Attributes:
        alpha: fairness parameter (non-negative).
        rate_floor: small positive floor applied to rates before
            evaluating the utility, keeping ``log``/negative powers finite
            at zero rates.
    """

    alpha: float
    rate_floor: float = 1e-6

    def __post_init__(self) -> None:
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative")
        if self.rate_floor <= 0:
            raise ValueError("rate_floor must be positive")

    # ------------------------------------------------------------- evaluation
    def value(self, rates: np.ndarray | float) -> float:
        """Total utility of a rate vector (or a single rate)."""
        y = np.maximum(np.asarray(rates, dtype=float), self.rate_floor)
        if self.alpha == 1.0:
            return float(np.sum(np.log(y)))
        return float(np.sum(y ** (1.0 - self.alpha) / (1.0 - self.alpha)))

    def gradient(self, rates: np.ndarray) -> np.ndarray:
        """Per-flow marginal utility ``dU/dy = y^(-alpha)``."""
        y = np.maximum(np.asarray(rates, dtype=float), self.rate_floor)
        return y ** (-self.alpha)

    # ------------------------------------------------------------ descriptors
    def describe(self) -> str:
        """Human-readable name of the objective."""
        if self.alpha == 0.0:
            return "maximum aggregate throughput"
        if self.alpha == 1.0:
            return "proportional fairness"
        if self.alpha == 2.0:
            return "minimum potential delay fairness"
        return f"alpha-fair (alpha={self.alpha:g})"


#: Objective used by TCP-Max in the paper's evaluation.
MAX_THROUGHPUT = AlphaFairUtility(alpha=0.0)
#: Objective used by TCP-Prop in the paper's evaluation.
PROPORTIONAL_FAIR = AlphaFairUtility(alpha=1.0)
