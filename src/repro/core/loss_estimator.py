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
from typing import Any, Sequence

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
        loss_series: loss indicators (nonzero = lost) in send order, or
            ``k`` such series of one length as the columns of an array.
        min_window: smallest sliding window (the paper uses 10).

    Returns:
        (window sizes, minimum loss rate per window size and column).
    """
    series = np.asarray(loss_series)
    if series.ndim not in (1, 2):
        raise ValueError("loss series must be one-dimensional, or a stack of columns")
    total = series.shape[0]
    if total == 0:
        raise ValueError("loss series is empty")
    if min_window < 1:
        raise ValueError("min_window must be at least 1")
    sizes = np.arange(min(min_window, total), total + 1)
    starts, ends, offsets = _window_bounds(int(sizes[0]), total)
    # Series run along axis 0: a window sum is the difference of two *rows*
    # of the cumulative counts.  Integer counts keep sums and minima exact
    # and a curve value one int / int division, whatever the stack holds.
    cumulative = np.zeros((total + 1, *series.shape[1:]), dtype=np.int32)
    np.cumsum(series.astype(bool, copy=False), axis=0, dtype=np.int32, out=cumulative[1:])
    window_sums = cumulative.take(ends, axis=0)
    window_sums -= cumulative.take(starts, axis=0)
    minima = np.minimum.reduceat(window_sums, offsets, axis=0)
    return sizes, (minima.T / sizes).T


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


@lru_cache(maxsize=8)
def _knee_of_log_fit(min_window: int, total: int) -> tuple[int, np.ndarray]:
    """``(knee, weights)`` of the fit ``a ln(w) + b`` of a curve over the
    sizes ``[min_window, total]``: the curve index of ``W*``, and
    ``weights @ curve``, the rise ``a (ln S - ln Wmin)`` of the curve's
    least-squares fit, for the caller's flat-fit guard.

    The knee is the sample of maximum curvature of the fitted curve after
    normalizing both axes to [0, 1] (the window size *linearly*): the fit
    rises steeply for small windows and flattens for large ones, and the
    maximum-curvature point marks where the rapid rise ends — the paper's
    selection rule.  Normalized, the fit is ``(ln w - ln Wmin) / (ln S -
    ln Wmin)``: ``a`` and ``b`` cancel, so ``W*`` belongs to the two
    lengths alone (24 for ``Wmin = 10, S = 80``); a series decides only
    its case and the value read at ``W*``.
    """
    sizes = np.arange(min_window, total + 1)
    if sizes.size == 1:
        # A series no longer than the minimum window has one point: no
        # line to fit, and the only window is the knee.
        return 0, np.zeros(1)
    log_sizes = np.log(sizes.astype(float))
    span = log_sizes[-1] - log_sizes[0]
    x = (sizes - sizes[0]) / float(sizes[-1] - sizes[0])
    y = (log_sizes - log_sizes[0]) / span
    dy = np.gradient(y, x)
    d2y = np.gradient(dy, x)
    curvature = np.abs(d2y) / (1.0 + dy**2) ** 1.5
    # Ignore the very first and last samples where the discrete gradient
    # is one-sided and noisy.
    if curvature.size > 4:
        knee = 1 + int(np.argmax(curvature[1:-1]))
    else:
        knee = int(np.argmax(curvature))
    centred = log_sizes - log_sizes.mean()
    return knee, centred * (span / (centred @ centred))


def estimate_channel_loss_rates(
    series_list: Sequence[np.ndarray],
    min_window: int = DEFAULT_MIN_WINDOW,
    case1_fraction: float = CASE1_FRACTION,
) -> list[tuple[float, int, int]]:
    """:func:`estimate_channel_loss_rate` of many series at once, equal
    lengths in one stacked pass: the same arguments and numbers, one
    ``(channel loss rate, case, selected window)`` per series."""
    results: list[Any] = [None] * len(series_list)
    for total in {len(series) for series in series_list}:
        members = [index for index, series in enumerate(series_list) if len(series) == total]
        sizes, curves = sliding_min_loss_curve(
            np.array([series_list[index] for index in members]).T, min_window
        )
        measured = curves[-1]
        # Case 1: the curve reaches the measured loss rate before S/2 (or
        # nothing was lost at all, which selects the whole series).
        reached = (curves >= case1_fraction * measured) & (sizes <= total / 2)[:, None]
        clean = measured == 0.0
        uniform = reached.any(axis=0) | clean
        first_reached = np.where(clean, sizes.size - 1, reached.argmax(axis=0))
        # Case 2: the curve at the knee W* of its log fit — at the smallest
        # window when the fit is flat, where any window is as good as another.
        knee, rise_weights = _knee_of_log_fit(int(sizes[0]), total)
        knee = np.where(np.abs(rise_weights @ curves) < 1e-12, 0, knee)
        at_knee = np.minimum(curves[knee, np.arange(len(members))], measured)
        channel = np.where(uniform, measured, at_knee).tolist()
        case = np.where(uniform, 1, 2).tolist()
        window = sizes[np.where(uniform, first_reached, knee)].tolist()
        for index, row in zip(members, zip(channel, case, window)):
            results[index] = row
    return results


def estimate_channel_loss_rate(
    loss_series: np.ndarray,
    min_window: int = DEFAULT_MIN_WINDOW,
    case1_fraction: float = CASE1_FRACTION,
) -> ChannelLossEstimate:
    """Estimate the channel (non-collision) loss rate of a probe series:
    the batch of one, plus the curve and the fit for reports.

    Args:
        loss_series: loss indicators of ``S`` consecutive probes.
        min_window: smallest sliding window size.
        case1_fraction: fraction of the measured loss rate that must be
            reached before ``S/2`` to trigger Case 1.
    """
    sizes, curve = sliding_min_loss_curve(loss_series, min_window)
    rows = estimate_channel_loss_rates([loss_series], min_window, case1_fraction)
    channel, case, window = rows[0]
    coefficients = None
    if case == 2:
        # Read by reports only.  One point has no line through it.
        coefficients = (0.0, float(curve[0]))
        if sizes.size > 1:
            a, b = np.polyfit(np.log(sizes.astype(float)), curve, 1)
            coefficients = (float(a), float(b))
    return ChannelLossEstimate(
        measured_loss_rate=float(curve[-1]),
        channel_loss_rate=channel,
        case=case,
        window_sizes=sizes,
        min_loss_curve=curve,
        selected_window=window,
        log_fit_coefficients=coefficients,
    )
