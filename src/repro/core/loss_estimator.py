"""Channel loss rate estimator (Section 5.3 of the paper).

During network operation the loss rate measured by broadcast probes mixes
two processes: *channel* losses (independent, caused by marginal links)
and *collision* losses (bursty, caused by interfering traffic).  The
capacity representation of Eq. (6) needs the channel component only.

The estimator scans the probing window of ``S`` probes with sliding
windows of every size ``W`` in ``[Wmin, S]``; for each ``W`` it records
the *minimum* loss rate over all window positions, ``p_ch^(W)``.  Small
windows find collision-free stretches (under-estimating), large windows
inevitably include collision bursts (approaching the overall measured
rate ``p``), so ``p_ch^(W)`` rises with ``W`` and saturates near the true
channel loss rate:

* **Case 1** — if ``p_ch^(W)`` reaches ``0.99 p`` before ``W = S/2``,
  losses are spread uniformly: the channel loss rate is simply ``p``.
* **Case 2** — otherwise the curve is fitted with ``a ln(w) + b`` and the
  knee (point of maximum curvature of the normalized fit) selects the
  window size ``W*``; the estimate is ``p_ch^(W*)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

#: Default minimum sliding-window size (number of probes).
DEFAULT_MIN_WINDOW = 10
#: Fraction of the measured loss rate that must be reached before S/2 for
#: the estimator to declare Case 1 (uniform losses).
CASE1_FRACTION = 0.99


@dataclass
class ChannelLossEstimate:
    """Output of the channel loss estimator for one link direction."""

    measured_loss_rate: float
    channel_loss_rate: float
    case: int
    window_sizes: np.ndarray
    min_loss_curve: np.ndarray
    selected_window: int
    log_fit_coefficients: tuple[float, float] | None = None


def sliding_min_loss_curve(
    loss_series: np.ndarray, min_window: int = DEFAULT_MIN_WINDOW
) -> tuple[np.ndarray, np.ndarray]:
    """Compute ``p_ch^(W)`` for every window size ``W`` in ``[Wmin, S]``.

    Args:
        loss_series: 0/1 array, 1 marking a lost probe, in send order.
        min_window: smallest sliding window (the paper uses 10).

    Returns:
        (window sizes, minimum loss rate per window size).
    """
    series = np.asarray(loss_series, dtype=float)
    if series.ndim != 1:
        raise ValueError("loss series must be one-dimensional")
    total = series.size
    if total == 0:
        raise ValueError("loss series is empty")
    if min_window < 1:
        raise ValueError("min_window must be at least 1")
    min_window = min(min_window, total)
    cumulative = np.concatenate(([0.0], np.cumsum(series)))
    sizes = np.arange(min_window, total + 1)
    starts, ends, offsets = _window_bounds(min_window, total)
    # Every window sum of every size in one gather, then the minimum per
    # size: the same subtractions, minima and divisions as one pass per
    # size, so the curve is the same bits.
    window_sums = cumulative[ends] - cumulative[starts]
    return sizes, np.minimum.reduceat(window_sums, offsets) / sizes


@lru_cache(maxsize=8)
def _window_bounds(min_window: int, total: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(starts, ends, offsets)``: the bounds into the cumulative sum of
    every sliding window of every size in ``[min_window, total]``, sizes
    ascending, and the index at which each size's run of windows begins.

    A function of the two lengths only, never of the series, so a
    controller whose probing window is the same ``S`` every cycle builds
    it once.
    """
    sizes = np.arange(min_window, total + 1)
    counts = total + 1 - sizes
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
    starts = np.arange(counts.sum()) - np.repeat(offsets, counts)
    ends = starts + np.repeat(sizes, counts)
    return starts, ends, offsets


def _knee_of_log_fit(
    sizes: np.ndarray, curve: np.ndarray
) -> tuple[int, tuple[float, float]]:
    """Fit ``a ln(w) + b`` and locate the knee of the normalized fit.

    The knee is the sample of maximum curvature of the fitted curve after
    normalizing both axes to [0, 1] (with the window size normalized
    *linearly*): the fitted ``a ln(w) + b`` rises steeply for small
    windows and flattens for large ones, and the maximum-curvature point
    marks where the rapid rise ends — the paper's selection rule.  The
    normalization makes the rule scale-free, so it behaves identically
    whether loss rates are near 0.01 or near 0.5.
    """
    if sizes.size == 1:
        # A series no longer than the minimum window has one point: no
        # line to fit, and the only window is the knee.
        return int(sizes[0]), (0.0, float(curve[0]))
    log_sizes = np.log(sizes.astype(float))
    a, b = np.polyfit(log_sizes, curve, 1)
    fitted = a * log_sizes + b
    span_x = float(sizes[-1] - sizes[0])
    span_y = float(fitted[-1] - fitted[0])
    if span_x <= 0 or abs(span_y) < 1e-12:
        # Degenerate (flat) fit: any window is as good as another.
        return int(sizes[0]), (float(a), float(b))
    x = (sizes - sizes[0]) / span_x
    y = (fitted - fitted[0]) / span_y
    dy = np.gradient(y, x)
    d2y = np.gradient(dy, x)
    curvature = np.abs(d2y) / (1.0 + dy**2) ** 1.5
    # Ignore the very first and last samples where the discrete gradient
    # is one-sided and noisy.
    if curvature.size > 4:
        interior = slice(1, -1)
        knee_index = 1 + int(np.argmax(curvature[interior]))
    else:
        knee_index = int(np.argmax(curvature))
    return int(sizes[knee_index]), (float(a), float(b))


def estimate_channel_loss_rate(
    loss_series: np.ndarray,
    min_window: int = DEFAULT_MIN_WINDOW,
    case1_fraction: float = CASE1_FRACTION,
) -> ChannelLossEstimate:
    """Estimate the channel (non-collision) loss rate of a probe series.

    Args:
        loss_series: 0/1 loss indicators of ``S`` consecutive probes.
        min_window: smallest sliding window size.
        case1_fraction: fraction of the measured loss rate that must be
            reached before ``S/2`` to trigger Case 1.
    """
    series = np.asarray(loss_series, dtype=float)
    measured = float(series.mean()) if series.size else 0.0
    sizes, curve = sliding_min_loss_curve(series, min_window)
    total = series.size

    if measured == 0.0:
        return ChannelLossEstimate(
            measured_loss_rate=0.0,
            channel_loss_rate=0.0,
            case=1,
            window_sizes=sizes,
            min_loss_curve=curve,
            selected_window=int(sizes[-1]),
        )

    # Case 1: the curve reaches the measured loss rate before S/2.
    threshold = case1_fraction * measured
    half_mask = sizes <= total / 2
    if np.any(curve[half_mask] >= threshold):
        return ChannelLossEstimate(
            measured_loss_rate=measured,
            channel_loss_rate=measured,
            case=1,
            window_sizes=sizes,
            min_loss_curve=curve,
            selected_window=int(sizes[half_mask][np.argmax(curve[half_mask] >= threshold)]),
        )

    # Case 2: log fit and maximum-curvature knee.
    selected_window, coefficients = _knee_of_log_fit(sizes, curve)
    position = int(np.searchsorted(sizes, selected_window))
    position = min(position, curve.size - 1)
    estimate = float(curve[position])
    return ChannelLossEstimate(
        measured_loss_rate=measured,
        channel_loss_rate=min(estimate, measured),
        case=2,
        window_sizes=sizes,
        min_loss_curve=curve,
        selected_window=selected_window,
        log_fit_coefficients=coefficients,
    )
