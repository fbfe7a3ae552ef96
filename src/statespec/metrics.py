"""Spectral divergence scoring.

The Itakura-Saito divergence compares a true power spectrum against an
estimate bin by bin.  It is scale sensitive and asymmetric on purpose:
underestimating power is penalized linearly in the ratio while
overestimating is penalized logarithmically, which matches how whitening
errors propagate through linear prediction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import frozen_field, owned
from .ssm import Spectrogram

__all__ = ["DivergenceReport", "itakura_saito"]


@dataclass(frozen=True)
class DivergenceReport:
    """Per-window and aggregate divergence between two spectrograms."""

    total: float
    per_window: np.ndarray
    bins_used: np.ndarray  # boolean mask over the frequency axis

    def __post_init__(self):
        per_window = frozen_field(self, "per_window", float, 1)
        frozen_field(self, "bins_used", bool, 1)
        if np.any(per_window < 0):
            raise ValueError("per-window divergence must be non-negative")
        object.__setattr__(self, "total", float(self.total))


def itakura_saito(
    estimate: Spectrogram,
    truth: Spectrogram,
    bins_used: np.ndarray | None = None,
) -> DivergenceReport:
    """Mean Itakura-Saito divergence of an estimate from the truth.

    Parameters
    ----------
    estimate, truth : Spectrogram
        Same shape, same frequency and window-time grids, both on the
        linear scale.
    bins_used : ndarray of bool, optional
        Frequency mask; defaults to every bin with nonzero frequency
        (the DC bin is excluded).

    Returns
    -------
    DivergenceReport
        ``per_window[k]`` is the mean over used bins of
        ``p / q - log(p / q) - 1`` with p the true and q the estimated
        power; ``total`` is the mean of the per-window values.

    Raises
    ------
    ValueError
        On shape or grid mismatch, non-linear scale, or nonpositive
        power inside the mask.
    """
    if estimate.scale != "linear" or truth.scale != "linear":
        raise ValueError("both spectrograms must be on the linear scale")
    if estimate.power.shape != truth.power.shape:
        raise ValueError("spectrogram shapes must match")
    if not np.allclose(estimate.frequencies_hz, truth.frequencies_hz):
        raise ValueError("frequency grids must match")
    if not np.allclose(estimate.window_times_s, truth.window_times_s):
        raise ValueError("window times must match")
    if bins_used is None:
        bins_used = truth.frequencies_hz > 0
    else:
        # a copy, which the report then adopts
        bins_used = np.array(bins_used, dtype=bool)
        if bins_used.shape != truth.frequencies_hz.shape:
            raise ValueError("bins_used must mask the frequency axis")
    if not np.any(bins_used):
        raise ValueError("bins_used must keep at least one bin")
    p = truth.power[:, bins_used]
    q = estimate.power[:, bins_used]
    if np.any(p <= 0) or np.any(q <= 0):
        raise ValueError("nonpositive power in used bins")
    ratio = p / q
    div = ratio - np.log(ratio) - 1.0
    per_window = div.mean(axis=1)
    # The integrand is >= 0 exactly; clip the round-off shadow below zero.
    per_window = np.maximum(per_window, 0.0)
    return DivergenceReport(
        total=float(per_window.mean()),
        per_window=owned(per_window),
        bins_used=owned(bins_used),
    )
