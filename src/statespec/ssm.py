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

from ._util import frozen_field, owned
from .segmentation import EigenCoefficients, _freeze_grid

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
        _freeze_variances(self, "state_var")


def _freeze_variances(params, state_field: str) -> None:
    """Freeze and check ``params``' (B, M) ``state_field`` and (M,) ``obs_var``."""
    state_var = frozen_field(params, state_field, float, 2)
    obs_var = frozen_field(params, "obs_var", float, 1)
    if not np.all(np.isfinite(state_var)) or np.any(state_var < 0):
        raise ValueError(f"{state_field} must be finite and non-negative")
    if not np.all(np.isfinite(obs_var)) or np.any(obs_var <= 0):
        raise ValueError("obs_var must be finite and strictly positive")
    if state_var.shape[1] != obs_var.size:
        raise ValueError(f"{state_field} columns must match obs_var length")


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
        means = frozen_field(self, "means", complex, 3)
        variances = frozen_field(self, "variances", float, 3)
        gains = frozen_field(self, "gains", float, 3)
        if variances.shape != means.shape or gains.shape != means.shape:
            raise ValueError("means, variances, and gains must share a shape")
        _freeze_grid(self, *means.shape[:2])
        if np.any(variances < 0):
            raise ValueError("variances must be non-negative")
        if np.any(gains < 0) or np.any(gains > 1):
            raise ValueError("gains must lie in [0, 1]")

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
        power = frozen_field(self, "power", float, 2)
        freqs = frozen_field(self, "frequencies_hz", float, 1)
        times = frozen_field(self, "window_times_s", float, 1)
        if self.scale not in ("linear", "dB"):
            raise ValueError("scale must be 'linear' or 'dB'")
        if power.shape != (times.size, freqs.size):
            raise ValueError("power shape must be (num windows, num bins)")
        if not np.all(np.isfinite(power)):
            raise ValueError("power must be finite")
        if self.scale == "linear" and np.any(power < 0):
            raise ValueError("linear power must be non-negative")

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

    ``coeffs`` is (K, B, M), or the list of its K rows.  ``state_var`` is
    (B, M), or (K, B, M) when it changes per window.  The state prior
    defaults to zero mean and the first window's state variance.  Returns
    ``(means, variances, gains)``; means and variances have K + 1 rows, row
    0 holding the prior and row k the posterior after window k.  ``out`` is
    such a triple to write them into instead of new arrays, or the lists of
    their rows: a caller that filters into the same arrays many times makes
    the row views once, and the loop then indexes no array.
    """
    coeff_rows = list(coeffs)
    k_windows, shape = len(coeff_rows), coeff_rows[0].shape
    if np.ndim(state_var) == 3:
        state_rows = list(np.broadcast_to(state_var, (k_windows, *shape)))
    else:
        state_rows = [np.broadcast_to(state_var, shape)] * k_windows
    mean = np.zeros(shape, complex) if init_mean is None else np.asarray(init_mean, complex)
    var = state_rows[0] if init_var is None else np.asarray(init_var, float)
    if mean.shape != shape or var.shape != shape:
        raise ValueError("init_mean and init_var must have shape (bins, tapers)")
    if np.any(var < 0):
        raise ValueError("init_var must be non-negative")

    # a full (B, M) copy keeps the per-window sum on numpy's contiguous path
    obs_var = np.broadcast_to(obs_var, shape).copy()
    if out is None:
        out = (np.empty((k_windows + 1, *shape), dtype=complex),
               np.empty((k_windows + 1, *shape)), np.empty((k_windows, *shape)))
    means, variances, gains = map(list, out)
    means[0][...] = mean
    variances[0][...] = var
    # every step writes into these rows, its output passed positionally, the
    # cheaper call.  The gain is copied into the real part of a complex row
    # whose imaginary part stays zero, so g (y - m) is the complex product
    # that numpy's cast of g to complex gives
    prior, spread, keep, ones = np.empty(shape), np.empty(shape), np.empty(shape), np.ones(shape)
    step, cgain = np.empty(shape, complex), np.zeros(shape, complex)
    gain_re = cgain.real
    for y, s, m, m_next, v, v_next, g in zip(coeff_rows, state_rows, means, means[1:],
                                             variances, variances[1:], gains):
        np.add(v, s, prior)
        np.add(obs_var, prior, spread)
        np.divide(prior, spread, g)
        gain_re[...] = g
        np.subtract(y, m, step)
        np.multiply(cgain, step, step)
        np.add(m, step, m_next)
        np.subtract(ones, g, keep)
        np.multiply(keep, prior, v_next)
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
        frozen_field(self, "log_likelihoods", float, 1)
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


# Cells per window block of an EM iteration's block scratch.
_EM_BLOCK_CELLS = 1 << 12


def _block_windows(shape):
    """Windows per block of (K, B, M) ``shape``: at most `_EM_BLOCK_CELLS`
    cells, or one window."""
    return max(1, _EM_BLOCK_CELLS // (shape[1] * shape[2]))


def _window_blocks(shape):
    """Slices of consecutive windows of (K, B, M) ``shape``, each of
    `_block_windows` windows but the last."""
    step = _block_windows(shape)
    return [slice(first, min(first + step, shape[0])) for first in range(0, shape[0], step)]


def _em_buffers(coeffs, weight):
    """The record-sized arrays of one EM fit on ``coeffs`` (K, B, M), the
    row views its per-window loops use, and its block scratch.

    Returns ``(arrays, rows, scratch)``: the arrays are the forward pass's
    K + 1 means and variances; the rows are the lists of the rows of
    ``coeffs`` and of each array; the scratch is two real blocks and a
    complex one of the longest block's windows, the lists of their rows,
    and a block of each bin's ``weight``.  All are made once per fit.
    The weight block has the shape of the blocks it multiplies, so that
    product needs no broadcast, which numpy would buffer.
    """
    k_windows, *chain = coeffs.shape
    arrays = (np.empty((k_windows + 1, *chain), dtype=complex), np.empty((k_windows + 1, *chain)))
    block = (min(_block_windows(coeffs.shape), k_windows), *chain)
    scratch = (np.empty(block), np.empty(block), np.empty(block, dtype=complex))
    weights = np.broadcast_to(weight[:, None], block).copy()
    return arrays, (list(coeffs), *map(list, arrays)), (*scratch, *map(list, scratch), weights)


def _filter_likelihood(coeffs, state_var, obs_var, init_var, work):
    """Filter ``coeffs`` into ``work``, the fit's `_em_buffers`, and return
    the innovations-form log-likelihood, each bin's terms counted as many
    times as its weight.

    The forward pass fills the means and variances and writes every
    window's gain into one row of the scratch.  -ll per cell is log(pi v) +
    |e|^2 / v for innovation e of variance v = ps[k] + state_var + obs_var,
    with |e|^2 the sum of the squares of e's real and imaginary parts,
    squared in place over the block's float view.  The terms are formed a
    block of windows at a time and their window totals added in window
    order.
    """
    (zs, ps), (coeff_rows, z_rows, p_rows), (terms, innov, cinnov, *_, weights) = work
    _forward_pass(coeff_rows, state_var, obs_var, init_var=init_var,
                  out=(z_rows, p_rows, [terms[0]] * len(coeff_rows)))
    totals = np.empty(len(coeff_rows))
    # a (B, M) row, not the (M,) vector, so each add runs numpy's contiguous
    # loop over the block's cells instead of one loop per cell triple
    obs_row = np.broadcast_to(obs_var, state_var.shape).copy()
    for block in _window_blocks(coeffs.shape):
        n = block.stop - block.start
        nll, innov_var, e = terms[:n], innov[:n], cinnov[:n]
        np.subtract(coeffs[block], zs[block], out=e)
        parts = e.view(float)
        np.square(parts, out=parts)
        np.add(e.real, e.imag, out=nll)
        np.add(ps[block], state_var, out=innov_var)
        innov_var += obs_row
        nll /= innov_var
        innov_var *= np.pi
        nll += np.log(innov_var, out=innov_var)
        nll *= weights[:n]
        nll.sum(axis=(1, 2), out=totals[block])
    return -float(np.cumsum(totals)[-1])


def _smooth_m_step(coeffs, state_var, j_bins, work):
    """Smooth the filtered moments in ``work`` and return the M-step's new
    ``(state_var, obs_var)``.

    The RTS smoother walks the windows from the last a block at a time.  A
    block's smoother gains g = ps[k] / pp[k], pp = ps[k] + state_var, depend
    on its filtered variances alone, so pp, g^2 and g are formed for the
    whole block before its windows are smoothed, each reading the smoothed
    row k + 1; g is formed as the real part of a complex block whose
    imaginary part is zero, so g (z - m) is numpy's product of a complex g.
    With the block smoothed, Cov(Z_{k+1}, Z_k | all data) = g[k] ps[k+1]
    (de Jong and Mackinnon, Biometrika 75:601, 1988) gives the expected
    increment E|Z_{k+1} - Z_k|^2 = |dz|^2 + ps[k] + (1 - 2 g[k]) ps[k+1] of
    each window, and its residual E|Y_k - Z_{k+1}|^2 = |coeffs[k] -
    zs[k+1]|^2 + ps[k+1], times its bin's weight.  They are written over
    rows first + 1..stop of ``zs.real`` and ``ps``, which no earlier block
    reads, so each sum over windows below is one reduction in window order.
    The observation variance is pooled over the J grid bins.
    """
    (zs, ps), (_, z_rows, p_rows), (pp, gain2, cgain, pp_rows, gain2_rows, cgain_rows,
                                    weights) = work
    k_windows = coeffs.shape[0]
    step = np.empty(coeffs.shape[1:], dtype=complex)
    for block in reversed(_window_blocks(coeffs.shape)):
        first, stop = block.start, block.stop
        n, after = stop - first, slice(first + 1, stop + 1)
        bpp, g2, cg = pp[:n], gain2[:n], cgain[:n]
        g = cg.real
        np.add(ps[block], state_var, out=bpp)
        np.divide(ps[block], bpp, out=g)
        np.square(g, out=g2)
        cg.imag = 0.0
        # each window's step writes into rows made once, its output passed
        # positionally, as in the forward pass
        for z, z_next, p, p_next, d, gg, cg_k in zip(
                reversed(z_rows[block]), reversed(z_rows[after]), reversed(p_rows[block]),
                reversed(p_rows[after]), reversed(pp_rows[:n]), reversed(gain2_rows[:n]),
                reversed(cgain_rows[:n])):
            np.subtract(z_next, z, step)
            np.multiply(cg_k, step, step)
            np.add(z, step, z)
            np.subtract(p_next, d, d)
            np.multiply(gg, d, d)
            np.add(p, d, p)

        # the block's M-step terms, from rows first..stop, all read before
        # rows first + 1..stop are overwritten
        p_after = ps[after]
        increments = np.multiply(2.0, g, out=bpp)
        np.subtract(1.0, increments, out=increments)
        increments *= p_after
        dz = np.subtract(zs[after], zs[block], out=cg)
        parts = dz.view(float)
        np.square(parts, out=parts)
        dz2 = np.add(dz.real, dz.imag, out=g2)
        dz2 += ps[block]
        increments += dz2
        resid = np.subtract(coeffs[block], zs[after], out=cg)
        resid2 = np.abs(resid, out=g2)
        np.square(resid2, out=resid2)
        resid2 += p_after
        np.multiply(resid2, weights[:n], out=p_after)
        zs.real[after] = increments
    state_var = np.maximum(zs.real[1:].mean(axis=0), 0.0)
    obs_var = np.maximum(ps[1:].sum(axis=(0, 1)) / (k_windows * j_bins), np.finfo(float).tiny)
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
    With smoother gain g[k] = ps[k] / (ps[k] + state_var) before smoothing,
    Cov(Z_{k+1}, Z_k | all data) = g[k] ps[k+1], so one smoother pass gives
    E|Z_{k+1} - Z_k|^2 = |zs[k+1] - zs[k]|^2 + ps[k] + (1 - 2 g[k]) ps[k+1].

    An iteration is two passes over the windows: the forward pass with the
    likelihood (`_filter_likelihood`), then, unless the fit has converged,
    the smoother walking back a block at a time with the M-step folded in
    (`_smooth_m_step`).  A fit owns two record-sized arrays, made once
    after the starting point with the lists of their row views and of the
    coefficients' rows (`_em_buffers`): the K + 1 means and variances of the
    forward pass, which the smoother overwrites with its own, and the
    M-step then with its per-window terms.  Any other array it makes is one
    (B, M) row or one block of windows of at most `_EM_BLOCK_CELLS` cells,
    the blocks made once per fit, so no iteration makes another
    record-sized array, and the returned parameters are new (B, M) and (M,)
    arrays, no views of them.  Every operation and its order are those of
    an EM that allocates each iteration's arrays, and every sum over
    windows is one reduction in window order, so the two agree bit for
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
    work = _em_buffers(coeffs, weight)

    lls: list[float] = []
    converged = False
    for _ in range(cfg.max_iter):
        lls.append(_filter_likelihood(coeffs, state_var, obs_var, init_var, work))
        if len(lls) > 1 and abs(lls[-1] - lls[-2]) <= cfg.tol * abs(lls[-2]):
            converged = True
            break
        state_var, obs_var = _smooth_m_step(coeffs, state_var, j_bins, work)
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
