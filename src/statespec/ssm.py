"""State-space smoothing of tapered Fourier coefficients.

Each (frequency bin, taper) pair carries an independent scalar complex
state-space model: the latent coefficient follows a random walk and is
observed in circularly symmetric complex Gaussian noise.  Because the
model is diagonal, filtering reduces to one scalar Kalman recursion per
chain, vectorized here across all chains at once.

Variances follow the complex convention throughout: a variance sigma^2
means E ||v||^2 = sigma^2 for the full complex value (each real and
imaginary part carries sigma^2 / 2).
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from ._util import frozen_array, owned
from .segmentation import EigenCoefficients, _check_bins

__all__ = [
    "DB_FLOOR",
    "ModelParams",
    "FilterState",
    "FilterTrace",
    "Spectrogram",
    "EMConfig",
    "EMFit",
    "kalman_gain",
    "kalman_step",
    "filter_all",
    "steady_state_gain",
    "em_fit",
    "mt_spectrogram",
    "ssmt_spectrogram",
]

# Linear powers below this are clamped before any dB conversion.
DB_FLOOR = 1e-15


@dataclass(frozen=True)
class ModelParams:
    """Time-invariant noise variances of the per-chain state-space models.

    Attributes
    ----------
    state_var : ndarray, shape (B, M)
        Random-walk increment variance per (bin, taper) chain, >= 0, on the
        B bins of the `EigenCoefficients` it models.
    obs_var : ndarray, shape (M,)
        Observation noise variance per taper, shared across bins, > 0.
    """

    state_var: np.ndarray
    obs_var: np.ndarray

    def __post_init__(self):
        state_var = frozen_array(self.state_var, dtype=float, ndim=2, name="state_var")
        obs_var = frozen_array(self.obs_var, dtype=float, ndim=1, name="obs_var")
        if not np.all(np.isfinite(state_var)) or np.any(state_var < 0):
            raise ValueError("state_var must be finite and non-negative")
        if not np.all(np.isfinite(obs_var)) or np.any(obs_var <= 0):
            raise ValueError("obs_var must be finite and strictly positive")
        if state_var.shape[1] != obs_var.size:
            raise ValueError("state_var columns must match obs_var length")
        object.__setattr__(self, "state_var", state_var)
        object.__setattr__(self, "obs_var", obs_var)


@dataclass(frozen=True)
class FilterState:
    """Posterior of a single chain after one update."""

    mean: complex
    variance: float
    gain: float

    def __post_init__(self):
        mean = complex(self.mean)
        if not (np.isfinite(mean.real) and np.isfinite(mean.imag)):
            raise ValueError("mean must be finite")
        if not (np.isfinite(self.variance) and self.variance >= 0):
            raise ValueError("variance must be finite and non-negative")
        if not (0.0 <= self.gain <= 1.0):
            raise ValueError("gain must lie in [0, 1]")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "variance", float(self.variance))
        object.__setattr__(self, "gain", float(self.gain))


@dataclass(frozen=True)
class FilterTrace:
    """Filtered means, variances, and gains for every window and chain."""

    means: np.ndarray  # (K, B, M) complex, B as in EigenCoefficients
    variances: np.ndarray  # (K, B, M)
    gains: np.ndarray  # (K, B, M)
    frequencies_hz: np.ndarray  # (J,)
    window_times_s: np.ndarray  # (K,)

    def __post_init__(self):
        means = frozen_array(self.means, dtype=complex, ndim=3, name="means")
        variances = frozen_array(self.variances, dtype=float, ndim=3, name="variances")
        gains = frozen_array(self.gains, dtype=float, ndim=3, name="gains")
        freqs = frozen_array(self.frequencies_hz, dtype=float, ndim=1, name="frequencies_hz")
        times = frozen_array(self.window_times_s, dtype=float, ndim=1, name="window_times_s")
        if variances.shape != means.shape or gains.shape != means.shape:
            raise ValueError("means, variances, and gains must share a shape")
        k, b, _ = means.shape
        _check_bins(b, freqs)
        if times.shape != (k,):
            raise ValueError("window_times_s must have one entry per window")
        if np.any(variances < 0):
            raise ValueError("variances must be non-negative")
        if np.any(gains < 0) or np.any(gains > 1):
            raise ValueError("gains must lie in [0, 1]")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "variances", variances)
        object.__setattr__(self, "gains", gains)
        object.__setattr__(self, "frequencies_hz", freqs)
        object.__setattr__(self, "window_times_s", times)

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.means.shape


@dataclass(frozen=True)
class Spectrogram:
    """Power as a function of window time and frequency."""

    power: np.ndarray  # (K, J')
    frequencies_hz: np.ndarray  # (J',)
    window_times_s: np.ndarray  # (K,)
    scale: str = "linear"

    def __post_init__(self):
        power = frozen_array(self.power, dtype=float, ndim=2, name="power")
        freqs = frozen_array(self.frequencies_hz, dtype=float, ndim=1, name="frequencies_hz")
        times = frozen_array(self.window_times_s, dtype=float, ndim=1, name="window_times_s")
        if self.scale not in ("linear", "dB"):
            raise ValueError("scale must be 'linear' or 'dB'")
        if power.shape != (times.size, freqs.size):
            raise ValueError("power shape must be (num windows, num bins)")
        if not np.all(np.isfinite(power)):
            raise ValueError("power must be finite")
        if self.scale == "linear" and np.any(power < 0):
            raise ValueError("linear power must be non-negative")
        object.__setattr__(self, "power", power)
        object.__setattr__(self, "frequencies_hz", freqs)
        object.__setattr__(self, "window_times_s", times)

    def to_db(self) -> "Spectrogram":
        """Return the spectrogram in dB, flooring linear power at DB_FLOOR."""
        if self.scale == "dB":
            return self
        power = 10.0 * np.log10(np.maximum(self.power, DB_FLOOR))
        return Spectrogram(owned(power), self.frequencies_hz, self.window_times_s, scale="dB")

    def to_linear(self) -> "Spectrogram":
        if self.scale == "linear":
            return self
        # power past the float range becomes inf, for the check to reject
        with np.errstate(over="ignore"):
            power = 10.0 ** (self.power / 10.0)
        return Spectrogram(owned(power), self.frequencies_hz, self.window_times_s, scale="linear")


def kalman_gain(prior_var, state_var, obs_var):
    """Gain of one scalar update: (prior + state) / (obs + prior + state).

    Accepts scalars or broadcastable arrays.  The result lies in [0, 1)
    because ``obs_var`` must be strictly positive.
    """
    prior_var = np.asarray(prior_var, dtype=float)
    state_var = np.asarray(state_var, dtype=float)
    obs_var = np.asarray(obs_var, dtype=float)
    if np.any(obs_var <= 0):
        raise ValueError("obs_var must be strictly positive")
    if np.any(prior_var < 0) or np.any(state_var < 0):
        raise ValueError("prior_var and state_var must be non-negative")
    spread = prior_var + state_var
    gain = spread / (obs_var + spread)
    return gain if gain.ndim else float(gain)


def kalman_step(prev: FilterState, observation: complex, state_var: float, obs_var: float) -> FilterState:
    """Advance one chain by a single window.

    The predicted mean equals the previous posterior mean (random walk),
    so the update is a convex combination of the previous mean and the
    new observation with weight ``gain`` on the observation.
    """
    observation = complex(observation)
    if not (np.isfinite(observation.real) and np.isfinite(observation.imag)):
        raise ValueError("observation must be finite")
    gain = kalman_gain(prev.variance, state_var, obs_var)
    mean = (1.0 - gain) * prev.mean + gain * observation
    variance = (1.0 - gain) * (prev.variance + state_var)
    return FilterState(mean=mean, variance=variance, gain=gain)


def _forward_pass(coeffs, state_var, obs_var, init_mean=None, init_var=None, out=None):
    """Causal filter over every window for all chains at once.

    ``state_var`` is (B, M), or (K, B, M) when it changes per window.  The
    state prior defaults to zero mean and the first window's state
    variance.  Returns ``(means, variances, gains)``; means and variances
    have K + 1 rows, row 0 holding the prior and row k the posterior after
    window k.  ``out`` is such a triple to write them into instead of new
    arrays.
    """
    shape = coeffs.shape[1:]
    state_var = np.broadcast_to(state_var, coeffs.shape)
    mean = np.zeros(shape, complex) if init_mean is None else np.asarray(init_mean, complex)
    var = state_var[0] if init_var is None else np.asarray(init_var, float)
    if mean.shape != shape or var.shape != shape:
        raise ValueError("init_mean and init_var must have shape (bins, tapers)")
    if np.any(var < 0):
        raise ValueError("init_var must be non-negative")

    # a full (B, M) copy keeps the per-window sum on numpy's contiguous path
    obs_var = np.broadcast_to(obs_var, shape).copy()
    if out is None:
        out = (np.empty((len(coeffs) + 1, *shape), dtype=complex),
               np.empty((len(coeffs) + 1, *shape)), np.empty(coeffs.shape))
    means, variances, gains = out
    means[0] = mean
    variances[0] = var
    for k in range(len(coeffs)):
        prior = variances[k] + state_var[k]
        gain = np.divide(prior, obs_var + prior, out=gains[k])
        np.add(means[k], gain * (coeffs[k] - means[k]), out=means[k + 1])
        np.multiply(1.0 - gain, prior, out=variances[k + 1])
    return out


def _filter_trace(obs, state_var, obs_var, init_mean, init_var) -> FilterTrace:
    """`_forward_pass` over ``obs``, as a FilterTrace of the posterior rows."""
    means, variances, gains = _forward_pass(obs.coeffs, state_var, obs_var, init_mean, init_var)
    return FilterTrace(
        means=owned(means[1:]),
        variances=owned(variances[1:]),
        gains=owned(gains),
        frequencies_hz=obs.frequencies_hz,
        window_times_s=obs.window_times_s,
    )


def filter_all(
    obs: EigenCoefficients,
    params: ModelParams,
    init_mean: np.ndarray | None = None,
    init_var: np.ndarray | None = None,
) -> FilterTrace:
    """Run the causal filter over every window for all chains at once.

    Parameters
    ----------
    obs : EigenCoefficients
    params : ModelParams
        Shapes must match the (B, M) layout of ``obs``.
    init_mean, init_var : ndarray, optional
        State prior before the first window.  Defaults: zero mean and a
        variance equal to each chain's state variance.

    Returns
    -------
    FilterTrace

    Notes
    -----
    The variance and gain sequences depend only on the parameters, never
    on the observed values, so traces over different data with the same
    parameters share them exactly.
    """
    if params.state_var.shape != obs.coeffs.shape[1:]:
        raise ValueError("params.state_var shape must match (bins, tapers) of obs")
    return _filter_trace(obs, params.state_var, params.obs_var, init_mean, init_var)


def steady_state_gain(state_var: float, obs_var: float) -> float:
    """Fixed point the filter gain converges to under constant parameters.

    With r = state_var / obs_var the limit gain solves C^2 + r C - r = 0,
    giving C = 2 / (1 + sqrt(1 + 4 / r)); r = 1 yields the golden-ratio
    conjugate (sqrt(5) - 1) / 2.
    """
    if obs_var <= 0:
        raise ValueError("obs_var must be strictly positive")
    if state_var < 0:
        raise ValueError("state_var must be non-negative")
    if state_var == 0.0:
        return 0.0
    ratio = state_var / obs_var
    return 2.0 / (1.0 + np.sqrt(1.0 + 4.0 / ratio))


@dataclass(frozen=True)
class EMConfig:
    """Convergence settings for `em_fit`.

    ``tol`` is the relative log-likelihood change that counts as
    converged, a real number; ``max_iter`` is an integer, Python's or
    numpy's.  A bool or a string is neither, and a float ``max_iter`` is
    refused rather than truncated.
    """

    tol: float = 1e-6
    max_iter: int = 50

    def __post_init__(self):
        tol, max_iter = self.tol, self.max_iter
        if isinstance(tol, bool) or not isinstance(tol, numbers.Real):
            raise ValueError(f"tol must be a real number, got {tol!r}")
        if isinstance(max_iter, bool) or not isinstance(max_iter, numbers.Integral):
            raise ValueError(f"max_iter must be an integer, got {max_iter!r}")
        try:
            tol = float(tol)
        except OverflowError:
            raise ValueError("tol must fit in a float") from None
        if not tol >= 0:
            raise ValueError("tol must be non-negative")
        if max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        object.__setattr__(self, "tol", tol)
        object.__setattr__(self, "max_iter", int(max_iter))


@dataclass(frozen=True)
class EMFit:
    """Result of `em_fit`: fitted parameters plus the likelihood path."""

    params: ModelParams
    log_likelihoods: np.ndarray
    converged: bool
    n_iter: int

    def __post_init__(self):
        lls = frozen_array(self.log_likelihoods, dtype=float, ndim=1, name="log_likelihoods")
        object.__setattr__(self, "log_likelihoods", lls)
        object.__setattr__(self, "converged", bool(self.converged))
        object.__setattr__(self, "n_iter", int(self.n_iter))


def _moment_init(coeffs: np.ndarray, weight: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Moment-based starting point for EM.

    The mean squared window-to-window difference of a chain equals
    state_var + 2 obs_var, so the median difference across bins (least
    contaminated by narrowband activity) anchors the noise level and the
    per-bin excess above it seeds the state variance.  Stored bin j stands
    for ``weight[j]`` bins of the grid, so the median is over the full grid.
    """
    diff2 = np.abs(np.diff(coeffs, axis=0)) ** 2
    dbar = diff2.mean(axis=0)  # (B, M)
    obs_var = 0.25 * np.median(np.repeat(dbar, weight.astype(int), axis=0), axis=0)  # (M,)
    obs_var = np.maximum(obs_var, np.finfo(float).tiny)
    state_var = np.maximum(dbar - 2.0 * obs_var[None, :], 0.05 * dbar)
    state_var = np.maximum(state_var, np.finfo(float).tiny)
    return state_var, obs_var


# Cells per window block of the M-step's one temporary array.
_EM_BLOCK_CELLS = 1 << 12


def _em_buffers(shape):
    """The record-sized arrays of one EM fit on coefficients of ``shape``
    (K, B, M): the forward pass's means, variances and gains, and a scratch
    array of K rows."""
    k_windows, *chain = shape
    return (np.empty((k_windows + 1, *chain), dtype=complex),
            np.empty((k_windows + 1, *chain)), np.empty(shape), np.empty(shape))


def _e_step(coeffs, state_var, obs_var, init_var, weight, work=None):
    """Filter, smooth, and collect the moments the M-step needs.

    Returns the smoothed means and variances, the smoother gains, whose
    product sgain[k] * ps[k + 1] is the lag-one covariance Cov(Z_{k+1}, Z_k |
    all data) (de Jong and Mackinnon, Biometrika 75:601, 1988), and the
    innovations-form log-likelihood with bin j's terms counted weight[j] times.

    Everything is formed in ``work``, the `_em_buffers` of the fit (new ones
    if None): the forward pass fills its means, variances and gains; the
    gains then hold the per-cell likelihood terms, and at return the
    smoother gains; the scratch array holds the innovations' squared
    imaginary parts, then the innovation variances, and at return the
    predicted variances pp.  The smoothed moments overwrite the forward
    pass's means and variances, row by row from the last.
    """
    k_windows = coeffs.shape[0]
    if work is None:
        work = _em_buffers(coeffs.shape)
    zs, ps, terms, scratch = work
    _forward_pass(coeffs, state_var, obs_var, init_var=init_var, out=work[:3])
    # -ll per cell is log(pi v) + |e|^2 / v for innovation e of variance
    # v = pp + obs_var, pp = ps[:-1] + state_var; complex subtraction is
    # componentwise, so e's real and imaginary parts are taken apart, the same
    # bits with no complex array.  Window totals are then added in window order
    nll = np.subtract(coeffs.real, zs.real[:-1], out=terms)
    np.square(nll, out=nll)
    part = np.subtract(coeffs.imag, zs.imag[:-1], out=scratch)
    nll += np.square(part, out=part)
    innov_var = np.add(ps[:-1], state_var, out=scratch)
    innov_var += obs_var[None, :]
    nll /= innov_var
    innov_var *= np.pi
    nll += np.log(innov_var, out=innov_var)
    nll *= weight[:, None]
    ll = -float(np.cumsum(nll.sum(axis=(1, 2)))[-1])

    # RTS smoother: row K is already smoothed, and each row k below it reads
    # the smoothed row k + 1 and its own filtered values before it is
    # overwritten.  pp is formed again, by the same operation, where the
    # innovation variances were
    pp = np.add(ps[:-1], state_var, out=scratch)
    sgain = np.divide(ps[:-1], pp, out=terms)
    for k in range(k_windows - 1, -1, -1):
        g = sgain[k]
        zs[k] += g * (zs[k + 1] - zs[k])
        ps[k] += g**2 * (ps[k + 1] - pp[k])
    return zs, ps, sgain, ll


def _m_step(coeffs, zs, ps, sgain, weight, j_bins, scratch):
    """New ``(state_var, obs_var)`` from the E-step's smoothed moments.

    Bin j's residuals count weight[j] times in the observation variance,
    which is pooled over the J bins of the grid.  The E-step's arrays are
    spent: the increments are formed in ``scratch``, the residuals
    ``coeffs - zs[1:]`` over the smoothed means once the increments are
    summed, and their magnitudes over the smoother gains.  The one other
    temporary is made a block of windows at a time.
    """
    k_windows = coeffs.shape[0]
    # E|Z_{k+1} - Z_k|^2, the real and imaginary differences taken apart as
    # in the E-step, summed in the order |dz|^2 + ps[k] + (1 - 2 sgain) ps[k+1]
    increments = np.subtract(zs.real[1:], zs.real[:-1], out=scratch)
    np.square(increments, out=increments)
    step = max(1, _EM_BLOCK_CELLS // increments[0].size)
    for first in range(0, k_windows, step):
        stop = min(first + step, k_windows)
        part = np.subtract(zs.imag[first + 1:stop + 1], zs.imag[first:stop])
        increments[first:stop] += np.square(part, out=part)
    increments += ps[:-1]
    part = np.multiply(2.0, sgain, out=sgain)
    np.subtract(1.0, part, out=part)
    part *= ps[1:]
    increments += part
    state_var = np.maximum(increments.mean(axis=0), 0.0)
    resid = np.subtract(coeffs, zs[1:], out=zs[1:])
    resid = np.abs(resid, out=sgain)
    np.square(resid, out=resid)
    resid += ps[1:]
    resid *= weight[:, None]
    obs_var = np.maximum(resid.sum(axis=(0, 1)) / (k_windows * j_bins), np.finfo(float).tiny)
    return state_var, obs_var


def em_fit(obs: EigenCoefficients, config: EMConfig | None = None) -> EMFit:
    """Maximum-likelihood noise variances via expectation-maximization.

    Parameters
    ----------
    obs : EigenCoefficients
        At least two windows.
    config : EMConfig, optional

    Returns
    -------
    EMFit
        ``log_likelihoods[i]`` is the exact likelihood of the parameters
        entering iteration i, so the trace is non-decreasing up to
        round-off.  If ``max_iter`` is exhausted before the relative
        change drops below ``tol``, the latest (highest-likelihood)
        parameters are still returned and ``converged`` is False.

    Notes
    -----
    The state prior for the very first window is held fixed across
    iterations (zero mean, variance from the starting point); treating it
    as a constant of the model keeps every iteration an exact ascent
    step.  Each taper's observation variance is pooled across bins, so
    the M-step couples chains within a taper but never across tapers.
    With Cov(Z_{k+1}, Z_k | all data) = sgain[k] ps[k+1], one smoother pass
    gives E|Z_{k+1} - Z_k|^2 = |zs[k+1] - zs[k]|^2 + ps[k] + (1 - 2 sgain[k]) ps[k+1].

    A fit owns four record-sized arrays, made once after the starting
    point (`_em_buffers`): the K + 1 means and variances of the forward
    pass, which the smoother overwrites with its own, the K rows of filter
    gains, which then hold the likelihood terms and the smoother gains,
    and K rows of scratch.  The M-step spends them in place.  No iteration
    makes another record-sized array, and the returned parameters are new
    (B, M) and (M,) arrays, no views of them.  Every operation and its order
    are those of an EM that allocates each iteration's arrays, and every sum
    over windows is one reduction in window order, so the two agree bit for
    bit.

    EM fits the B bins ``obs`` stores and returns parameters on them.  When
    they are bins 0..J//2 of a real signal, bins 1..J - B also stand for
    their mirrors J - j, so their terms count twice in the likelihood and
    in the observation variance; the fit is then the full-grid fit up to
    round-off.
    """
    cfg = config if config is not None else EMConfig()
    k_windows, b_bins, _ = obs.coeffs.shape
    j_bins = obs.frequencies_hz.size
    if k_windows < 2:
        raise ValueError("em_fit requires at least two windows")

    weight = np.ones(b_bins)  # grid bins per stored bin
    weight[1 : j_bins - b_bins + 1] = 2.0
    coeffs = np.ascontiguousarray(obs.coeffs)
    # smoothed means are convex combinations of zero and the coefficients, so
    # no sum of squared residuals over the cells exceeds 16 * peak**2 * size
    parts = coeffs.view(float)  # real and imaginary parts, no copy
    peak = max(float(parts.max()), -float(parts.min()))
    if not peak < np.sqrt(np.finfo(float).max / (16 * coeffs.size)):
        raise ValueError(f"eigen-coefficients up to {peak:.3g} overflow EM's squared sums")
    state_var, obs_var = _moment_init(coeffs, weight)
    # first-window prior, fixed across iterations: each M-step rebinds
    # state_var to a new array, so this one is never written
    init_var = state_var
    # made after the starting point's temporaries are freed, and reused by
    # every iteration
    work = _em_buffers(coeffs.shape)

    lls: list[float] = []
    converged = False
    for _ in range(cfg.max_iter):
        zs, ps, sgain, ll = _e_step(coeffs, state_var, obs_var, init_var, weight, work)
        lls.append(ll)
        if len(lls) > 1 and abs(lls[-1] - lls[-2]) <= cfg.tol * abs(lls[-2]):
            converged = True
            break
        state_var, obs_var = _m_step(coeffs, zs, ps, sgain, weight, j_bins, work[3])
    if not converged:
        warnings.warn(
            f"em_fit did not converge within {cfg.max_iter} iterations",
            UserWarning,
            stacklevel=2,
        )
    params = ModelParams(state_var=owned(state_var), obs_var=owned(obs_var))
    return EMFit(
        params=params,
        log_likelihoods=owned(np.asarray(lls)),
        converged=converged,
        n_iter=len(lls),
    )


def _unfold(half: np.ndarray, j_bins: int, axis: int = 1) -> np.ndarray:
    """All J bins of a real signal's real per-bin values from bins 0..J//2 on ``axis``."""
    mirror = np.arange(j_bins - half.shape[axis], 0, -1)
    return np.concatenate([half, np.take(half, mirror, axis=axis)], axis=axis)


def _taper_mean_power(values, freqs, times, one_sided):
    """Spectrogram of |values|^2 averaged over tapers, on bins 0..J//2 if
    one-sided, else on all J bins, unfolded from a real signal's half."""
    if one_sided:
        h = freqs.size // 2 + 1
        values, freqs = values[:, :h], freqs[:h]
    # power past the float range stays inf, for Spectrogram to reject
    with np.errstate(over="ignore"):
        power = np.mean(np.abs(values) ** 2, axis=2)
    if power.shape[1] < freqs.size:
        power = _unfold(power, freqs.size)
    return Spectrogram(owned(power), freqs, times, scale="linear")


def mt_spectrogram(obs: EigenCoefficients, one_sided: bool = False) -> Spectrogram:
    """Classical multitaper estimate: eigen-spectra averaged over tapers."""
    return _taper_mean_power(obs.coeffs, obs.frequencies_hz, obs.window_times_s, one_sided)


def ssmt_spectrogram(trace: FilterTrace, one_sided: bool = False) -> Spectrogram:
    """Denoised estimate: squared filtered means averaged over tapers."""
    return _taper_mean_power(trace.means, trace.frequencies_hz, trace.window_times_s, one_sided)
