"""Adaptive state-variance tracking for nonstationary data.

The fixed-parameter filter in `statespec.ssm` reacts to abrupt spectral
change only as fast as its fitted gain allows.  The estimator here keeps
an exponentially weighted moving average of squared window-to-window
observation differences per chain; whenever that average rises above
what the baseline parameters can explain, the excess is used as the
state variance for that window, opening the gain exactly when the data
demand it.  The average depends on the observations alone, so
`assmt_filter` computes it for all windows at once as one exponential
filter, then runs the fixed-parameter filter's forward pass with the
resulting time-varying state variance.  No refitting.

`NonstationarityTracker`, `ema_update` and `adaptive_state_variance`
are the same rule one window at a time, for stepping a single chain or
checking the vectorized pass; `assmt_filter` returns the tracker after its
last window, so a record can be filtered block by block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import frozen_field
from .segmentation import EigenCoefficients
from .ssm import (FilterTrace, ModelParams, Spectrogram, _filter_trace, _freeze_variances,
                  ssmt_spectrogram)

__all__ = [
    "NonstationarityTracker",
    "AdaptiveParams",
    "ema_update",
    "adaptive_state_variance",
    "assmt_filter",
    "assmt_spectrogram",
]


@dataclass(frozen=True)
class NonstationarityTracker:
    """Moving average of squared observation differences per chain.

    ``ema`` is None after the first observation, which has no difference
    yet: the next update then takes its squared difference as the average.
    """

    ema: np.ndarray | None  # (J, M), >= 0
    alpha: float
    prev_obs: np.ndarray  # (J, M) complex

    def __post_init__(self):
        prev_obs = frozen_field(self, "prev_obs", complex, 2)
        if self.ema is not None:
            ema = frozen_field(self, "ema", float, 2)
            if ema.shape != prev_obs.shape:
                raise ValueError("ema and prev_obs must share a shape")
            if np.any(ema < 0) or not np.all(np.isfinite(ema)):
                raise ValueError("ema must be finite and non-negative")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        object.__setattr__(self, "alpha", float(self.alpha))


@dataclass(frozen=True)
class AdaptiveParams:
    """Baseline model plus the switching threshold it implies.

    The threshold is the expected squared difference of consecutive
    observations under the baseline model: state_var + 2 obs_var.  It is
    recomputed from the stored fields on each access so it can never go
    stale.
    """

    baseline_state_var: np.ndarray  # (B, M)
    obs_var: np.ndarray  # (M,)

    def __post_init__(self):
        _freeze_variances(self, "baseline_state_var")

    @classmethod
    def from_model_params(cls, params: ModelParams) -> "AdaptiveParams":
        return cls(baseline_state_var=params.state_var, obs_var=params.obs_var)

    @property
    def threshold(self) -> np.ndarray:
        return 2.0 * self.obs_var[None, :] + self.baseline_state_var


def ema_update(tracker: NonstationarityTracker, obs_k: np.ndarray) -> NonstationarityTracker:
    """Blend the newest squared difference into the tracker.

    Returns a new tracker with
    ``ema' = (1 - alpha) * ema + alpha * ||obs_k - prev_obs||^2``, or the
    squared difference alone when ``ema`` is None, and ``prev_obs``
    replaced by ``obs_k``.  With alpha = 0 the average never moves; with
    alpha = 1 it equals the latest squared difference.
    """
    obs_k = np.asarray(obs_k, dtype=complex)
    if obs_k.shape != tracker.prev_obs.shape:
        raise ValueError("obs_k shape must match the tracker")
    if not np.all(np.isfinite(obs_k)):
        raise ValueError("obs_k must be finite")
    diff = obs_k - tracker.prev_obs
    diff2 = diff.real**2 + diff.imag**2
    if tracker.ema is None:
        ema = diff2
    else:
        ema = (1.0 - tracker.alpha) * tracker.ema + tracker.alpha * diff2
    return NonstationarityTracker(ema=ema, alpha=tracker.alpha, prev_obs=obs_k)


def adaptive_state_variance(ema_value, baseline_state_var, obs_var):
    """State variance for the current window, floored at the baseline.

    Elementwise ``max(ema_value - 2 * obs_var, baseline_state_var)``: the
    moving average in excess of twice the observation noise is attributed
    to state motion; anything at or below the threshold keeps the
    baseline, so quiet stretches reproduce the fixed-parameter filter.
    """
    ema_value = np.asarray(ema_value, dtype=float)
    if np.any(ema_value < 0):
        raise ValueError("ema_value must be non-negative")
    out = np.maximum(ema_value - 2.0 * np.asarray(obs_var, dtype=float), baseline_state_var)
    return out if out.ndim else float(out)


def _tracked_state_variance(coeffs, params: AdaptiveParams, alpha: float,
                            tracker: NonstationarityTracker | None = None):
    """The (K, B, M) state variances `assmt_filter` runs with, and the tracker
    after the last window.

    `ema_update` applied window after window to every chain at once, in
    place over the squared differences.  Without ``tracker`` the first
    window keeps the baseline and starts the tracker; with it, the first
    window continues it, with the same bits as when the windows before it
    are in ``coeffs``.
    """
    sv = np.empty(coeffs.shape)
    if tracker is None:
        sv[0] = params.baseline_state_var
        # sliced, as np.diff reads it: the forward pass is the one reader of
        # each window
        tracker = NonstationarityTracker(ema=None, alpha=alpha, prev_obs=coeffs[:1][0])
        rest, rest_sv = coeffs[1:], sv[1:]
    else:
        rest, rest_sv = coeffs, sv
    if len(rest):
        # the squared differences np.diff takes, the first from the tracker's
        # observation.  Complex subtraction is componentwise, so the real and
        # imaginary parts are taken apart, the same bits with no complex
        # array; the imaginary parts are squared in the rows of the state
        # variances they end in.  A square past the float range is reported
        # once, below
        ema, part = np.empty(rest.shape), rest_sv
        with np.errstate(over="ignore"):
            for out, obs, prev in ((ema, rest.real, tracker.prev_obs.real),
                                   (part, rest.imag, tracker.prev_obs.imag)):
                np.subtract(obs[0], prev, out=out[0])
                np.subtract(obs[1:], obs[:-1], out=out[1:])
                np.square(out, out=out)
            ema += part
        if not np.isfinite(ema).all():
            raise ValueError("squared differences of the observations overflow")
        if tracker.ema is not None:
            ema[0] = alpha * ema[0] + (1.0 - alpha) * tracker.ema
        # alpha ema[k] + (1 - alpha) ema[k - 1], over row views made once, in
        # place and through one carried row
        rows, carried, keep = list(ema), np.empty(ema.shape[1:]), 1.0 - alpha
        for prev, row in zip(rows, rows[1:]):
            np.multiply(alpha, row, row)
            np.multiply(keep, prev, carried)
            np.add(row, carried, row)
        tracker = NonstationarityTracker(ema=ema[-1], alpha=alpha, prev_obs=rest[-1])
        # a (B, M) row, as in the forward pass, so numpy runs one contiguous
        # loop over the block's cells instead of one per cell triple
        ema -= np.broadcast_to(2.0 * params.obs_var, ema.shape[1:]).copy()
        np.maximum(ema, params.baseline_state_var, out=rest_sv)
    return sv, tracker


def assmt_filter(
    obs: EigenCoefficients,
    params: AdaptiveParams,
    alpha: float = 0.95,
    init_mean: np.ndarray | None = None,
    init_var: np.ndarray | None = None,
    tracker: NonstationarityTracker | None = None,
) -> tuple[FilterTrace, np.ndarray, NonstationarityTracker]:
    """Fixed-parameter filter run with the state variance set by the tracker.

    Parameters
    ----------
    obs : EigenCoefficients
    params : AdaptiveParams
        Baseline variances, typically from `em_fit` on an initial
        stretch of the same recording.
    alpha : float
        Tracker weight on the newest squared difference, in [0, 1].
    init_mean, init_var : ndarray, optional
        Starting state, (B, M) for the B bins of ``obs``; zero mean and the
        baseline variance when omitted, mirroring the fixed-parameter filter.
    tracker : NonstationarityTracker, optional
        The tracker after the window before ``obs``'s first, with weight
        ``alpha``.  Omitted, ``obs`` starts the record.

    Returns
    -------
    (FilterTrace, ndarray, NonstationarityTracker)
        The filter trace, the (K, B, M) state variances actually used,
        read-only, and the tracker after the last window.  A record filtered
        in consecutive blocks, each started from the previous block's last
        posterior mean and variance and its tracker, gives the bits of one
        call over the whole record.

    Notes
    -----
    The tracker depends on the observations alone, so it runs first, over
    every window at once; the fixed-parameter forward pass then runs with
    the resulting (K, B, M) state variance.  The first window of a record
    is filtered under the baseline because no difference exists yet; the
    tracker is seeded with the first available squared difference, so the
    second window already sees it at full weight.
    """
    if params.baseline_state_var.shape != obs.coeffs.shape[1:]:
        raise ValueError("params shape must match (bins, tapers) of obs")
    if tracker is not None:
        if tracker.prev_obs.shape != obs.coeffs.shape[1:]:
            raise ValueError("tracker shape must match (bins, tapers) of obs")
        if tracker.alpha != alpha:
            raise ValueError(f"tracker weight {tracker.alpha} is not alpha {alpha}")

    state_var_trace, tracker = _tracked_state_variance(obs.coeffs, params, alpha, tracker)
    state_var_trace.setflags(write=False)
    trace = _filter_trace(obs, state_var_trace, params.obs_var, init_mean, init_var)
    return trace, state_var_trace, tracker


def assmt_spectrogram(trace: FilterTrace, one_sided: bool = False) -> Spectrogram:
    """Spectrogram of an adaptive trace; identical assembly to the fixed filter."""
    return ssmt_spectrogram(trace, one_sided=one_sided)
