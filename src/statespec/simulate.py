"""Synthetic nonstationary signals with known time-varying spectra.

The benchmark dataset superposes an amplitude-modulated autoregressive
band, a frequency-modulated ARMA band whose poles sweep over the record,
and white measurement noise scaled to a target SNR.  Because every
component has a rational transfer function, the true spectrogram is
available in closed form on any window grid, which is what makes honest
divergence scoring possible.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ._util import frozen_array, owned
from .segmentation import TimeSeries
from .ssm import Spectrogram

__all__ = [
    "PoleZeroSchedule",
    "SimulationConfig",
    "GroundTruth",
    "ar_coefficients",
    "gen_ar",
    "gen_arma_tv",
    "gen_regime_switch",
    "gen_benchmark",
    "benchmark_config",
]


def ar_coefficients(pole_freqs_hz, pole_radii, sample_rate_hz: float) -> np.ndarray:
    """Autoregressive coefficients from conjugate pole pairs.

    Returns phi such that ``x_t = sum_i phi_i x_(t-i) + w_t`` has poles at
    ``radius * exp(+-2j pi f / fs)`` for each (f, radius) pair.
    """
    poly = np.array([1.0])
    for f, r in zip(np.atleast_1d(pole_freqs_hz), np.atleast_1d(pole_radii)):
        theta = 2.0 * np.pi * f / sample_rate_hz
        poly = np.convolve(poly, [1.0, -2.0 * r * np.cos(theta), r * r])
    return -poly[1:]


def _pole_radius(coeffs: np.ndarray) -> float:
    coeffs = np.atleast_1d(np.asarray(coeffs, dtype=float))
    if coeffs.size == 0:
        return 0.0
    roots = np.roots(np.r_[1.0, -coeffs])
    return float(np.max(np.abs(roots))) if roots.size else 0.0


def _burn_in(max_radius: float, order: int) -> int:
    """Samples to discard: ten times the slowest time constant."""
    if max_radius <= 0.0:
        return order
    return order + int(math.ceil(-10.0 / math.log(max_radius)))


# Samples per Python-float block of the autoregression in `_run_recursion`:
# large enough to amortize the list conversions, small enough that the
# lists never approach the size of the record.
_RECURSION_BLOCK = 4096


def _run_recursion(a_rows: np.ndarray, b_rows: np.ndarray, innovations: np.ndarray) -> np.ndarray:
    """Direct-form ARMA recursion with per-sample coefficients.

    ``a_rows`` and ``b_rows`` carry the monic denominator/numerator
    coefficients for every output sample, so constant-coefficient and
    scheduled processes share one code path (and bit-identical output
    where their schedules agree).

    Sample t is ``w[t] + sum_i b[t, i] w[t-i] - sum_i a[t, i] x[t-i]``,
    each sum taken in order of increasing lag.  The moving-average terms
    do not depend on earlier outputs, so they are added one lag at a time
    over the whole record; the autoregression then runs on Python floats,
    ``_RECURSION_BLOCK`` samples at a time so the list objects stay small.
    """
    n = innovations.size
    p = a_rows.shape[1] - 1
    q = b_rows.shape[1] - 1
    w = innovations
    x = w.copy()
    for i in range(1, q + 1):
        x[i:] += b_rows[i:, i] * w[:-i]
    lags = deque(maxlen=p)  # most recent output first
    for start in range(0, n, _RECURSION_BLOCK):
        stop = min(start + _RECURSION_BLOCK, n)
        block = x[start:stop].tolist()
        for t, row in enumerate(a_rows[start:stop, 1:].tolist()):
            acc = block[t]
            for c, v in zip(row, lags):
                acc -= c * v
            block[t] = acc
            lags.appendleft(acc)
        x[start:stop] = block
    return x


def gen_ar(
    coeffs,
    duration_s: float,
    sample_rate_hz: float,
    rng: np.random.Generator,
    innovation_std: float = 1.0,
) -> TimeSeries:
    """Stationary autoregressive process with unit-variance innovations scaled by ``innovation_std``.

    A burn-in of ten times the slowest pole time constant is generated
    and discarded so the returned stretch is effectively stationary.
    Raises ValueError if ``coeffs`` describe an unstable recursion.
    """
    coeffs = np.atleast_1d(np.asarray(coeffs, dtype=float))
    radius = _pole_radius(coeffs)
    if radius >= 1.0:
        raise ValueError(f"unstable autoregression: pole radius {radius:.6f} >= 1")
    n = int(round(duration_s * sample_rate_hz))
    if n < 1:
        raise ValueError("duration must cover at least one sample")
    burn = _burn_in(radius, coeffs.size)
    w = innovation_std * rng.standard_normal(n + burn)
    a_row = np.r_[1.0, -coeffs][None, :]
    a_rows = np.broadcast_to(a_row, (n + burn, coeffs.size + 1))
    b_rows = np.ones((n + burn, 1))
    x = _run_recursion(a_rows, b_rows, w)[burn:]
    return TimeSeries(samples=owned(x), sample_rate_hz=sample_rate_hz)


@dataclass(frozen=True)
class PoleZeroSchedule:
    """Piecewise-linear pole/zero trajectory for a scheduled ARMA process.

    Pole and zero locations are given per breakpoint time as conjugate
    pairs (frequency in Hz, radius) and interpolated linearly in between;
    outside the breakpoint range the endpoints hold.  All radii must stay
    below 1 so the interpolated recursion is stable at every sample.
    """

    times_s: np.ndarray  # (B,) strictly increasing
    pole_freqs_hz: np.ndarray  # (B, P) conjugate pole pairs
    pole_radii: np.ndarray  # (B, P)
    zero_freqs_hz: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    zero_radii: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))

    def __post_init__(self):
        times = frozen_array(self.times_s, dtype=float, ndim=1, name="times_s")
        pf = frozen_array(np.atleast_2d(self.pole_freqs_hz), dtype=float, name="pole_freqs_hz")
        pr = frozen_array(np.atleast_2d(self.pole_radii), dtype=float, name="pole_radii")
        zf = frozen_array(np.atleast_2d(self.zero_freqs_hz), dtype=float, name="zero_freqs_hz")
        zr = frozen_array(np.atleast_2d(self.zero_radii), dtype=float, name="zero_radii")
        b = times.size
        if b < 1:
            raise ValueError("schedule needs at least one breakpoint")
        if b > 1 and np.any(np.diff(times) <= 0):
            raise ValueError("breakpoint times must be strictly increasing")
        if pf.shape != pr.shape or pf.shape[0] != b:
            raise ValueError("pole arrays must be (breakpoints, pairs)")
        if zf.size and (zf.shape != zr.shape or zf.shape[0] != b):
            raise ValueError("zero arrays must be (breakpoints, pairs)")
        if np.any(pr < 0) or np.any(pr >= 1.0):
            raise ValueError("pole radii must lie in [0, 1)")
        if zr.size and (np.any(zr < 0) or np.any(zr >= 1.0)):
            raise ValueError("zero radii must lie in [0, 1)")
        for name, arr in (("times_s", times), ("pole_freqs_hz", pf), ("pole_radii", pr),
                          ("zero_freqs_hz", zf), ("zero_radii", zr)):
            object.__setattr__(self, name, arr)

    @property
    def ar_order(self) -> int:
        return 2 * self.pole_freqs_hz.shape[1]

    @property
    def ma_order(self) -> int:
        return 2 * self.zero_freqs_hz.shape[1] if self.zero_freqs_hz.size else 0

    def _interp(self, t: np.ndarray, table: np.ndarray) -> np.ndarray:
        cols = [np.interp(t, self.times_s, table[:, p]) for p in range(table.shape[1])]
        return np.stack(cols, axis=1) if cols else np.zeros((t.size, 0))

    def coefficient_rows(self, t: np.ndarray, sample_rate_hz: float) -> tuple[np.ndarray, np.ndarray]:
        """Monic denominator and numerator coefficient rows at times ``t``."""
        t = np.asarray(t, dtype=float)
        a = _poly_rows(self._interp(t, self.pole_freqs_hz),
                       self._interp(t, self.pole_radii), sample_rate_hz)
        if self.zero_freqs_hz.size:
            b = _poly_rows(self._interp(t, self.zero_freqs_hz),
                           self._interp(t, self.zero_radii), sample_rate_hz)
        else:
            b = np.ones((t.size, 1))
        return a, b

    @property
    def max_pole_radius(self) -> float:
        return float(self.pole_radii.max()) if self.pole_radii.size else 0.0


def _poly_rows(freqs: np.ndarray, radii: np.ndarray, sample_rate_hz: float) -> np.ndarray:
    """Per-row product of conjugate-pair quadratics, monic, shape (T, 2P+1)."""
    n, pairs = freqs.shape
    poly = np.ones((n, 1))
    for p in range(pairs):
        theta = 2.0 * np.pi * freqs[:, p] / sample_rate_hz
        quad = np.stack(
            [np.ones(n), -2.0 * radii[:, p] * np.cos(theta), radii[:, p] ** 2], axis=1
        )
        out = np.zeros((n, poly.shape[1] + 2))
        for i in range(poly.shape[1]):
            out[:, i:i + 3] += poly[:, i:i + 1] * quad
        poly = out
    return poly


def gen_arma_tv(
    schedule: PoleZeroSchedule,
    duration_s: float,
    sample_rate_hz: float,
    rng: np.random.Generator,
    innovation_std: float = 1.0,
) -> TimeSeries:
    """Scheduled ARMA process; coefficients move sample by sample.

    Burn-in is run with the schedule frozen at its starting point and
    discarded.  With a constant schedule and no zeros this reproduces
    `gen_ar` exactly for the same generator state.
    """
    n = int(round(duration_s * sample_rate_hz))
    if n < 1:
        raise ValueError("duration must cover at least one sample")
    burn = _burn_in(schedule.max_pole_radius, schedule.ar_order)
    t = np.arange(n) / sample_rate_hz
    a_rows, b_rows = schedule.coefficient_rows(t, sample_rate_hz)
    a_rows = np.vstack([np.repeat(a_rows[:1], burn, axis=0), a_rows])
    b_rows = np.vstack([np.repeat(b_rows[:1], burn, axis=0), b_rows])
    w = innovation_std * rng.standard_normal(n + burn)
    x = _run_recursion(a_rows, b_rows, w)[burn:]
    return TimeSeries(samples=owned(x), sample_rate_hz=sample_rate_hz)


def gen_regime_switch(
    levels,
    switch_times_s,
    duration_s: float,
    sample_rate_hz: float,
    base_coeffs,
    rng: np.random.Generator,
    innovation_std: float = 1.0,
) -> TimeSeries:
    """Piecewise-stationary process whose power jumps at the switch times.

    A single stationary base process is generated once and each segment
    is scaled by the square root of its level, so a level ratio of 100
    moves the spectrum by exactly 20 dB without touching its shape.
    """
    levels = np.atleast_1d(np.asarray(levels, dtype=float))
    switch_times_s = np.atleast_1d(np.asarray(switch_times_s, dtype=float))
    if np.any(levels <= 0):
        raise ValueError("levels must be strictly positive")
    if levels.size != switch_times_s.size + 1:
        raise ValueError("need exactly one more level than switch times")
    if switch_times_s.size and (
        np.any(np.diff(switch_times_s) <= 0)
        or switch_times_s[0] <= 0
        or switch_times_s[-1] >= duration_s
    ):
        raise ValueError("switch times must be increasing and inside the record")
    base = gen_ar(base_coeffs, duration_s, sample_rate_hz, rng, innovation_std)
    t = np.arange(base.samples.size) / sample_rate_hz
    seg = np.searchsorted(switch_times_s, t, side="right")
    return TimeSeries(
        samples=owned(base.samples * np.sqrt(levels[seg])),
        sample_rate_hz=sample_rate_hz,
    )


@dataclass(frozen=True)
class SimulationConfig:
    """Everything needed to regenerate the benchmark dataset bit for bit."""

    duration_s: float
    sample_rate_hz: float
    ar_coeffs: np.ndarray  # amplitude-modulated narrowband component
    arma_schedule: PoleZeroSchedule  # frequency-modulated component
    carrier_freq_hz: float = 0.02
    snr_db: float = 30.0
    rng_seed: int = 0
    ar_innovation_std: float = 1.0
    arma_innovation_std: float = 1.0

    def __post_init__(self):
        coeffs = frozen_array(self.ar_coeffs, dtype=float, ndim=1, name="ar_coeffs")
        if self.duration_s <= 0 or self.sample_rate_hz <= 0:
            raise ValueError("duration_s and sample_rate_hz must be positive")
        if self.carrier_freq_hz < 0:
            raise ValueError("carrier_freq_hz must be non-negative")
        if _pole_radius(coeffs) >= 1.0:
            raise ValueError("ar_coeffs must describe a stable recursion")
        object.__setattr__(self, "ar_coeffs", coeffs)


def _half_grid_power(
    a: np.ndarray, b: np.ndarray, bases: dict[int, np.ndarray], nfreq: int = 8192
) -> np.ndarray:
    """|B/A|^2 for monic coefficient vectors on the half circle [0, pi).

    ``bases`` holds the DFT basis of each coefficient count already built
    by the caller; a missing one is built and added.
    """
    for size in (a.size, b.size):
        if size not in bases:
            omega = np.pi * np.arange(nfreq) / nfreq
            bases[size] = np.exp(-1j * np.outer(omega, np.arange(size)))
    return np.abs(bases[b.size] @ b) ** 2 / np.abs(bases[a.size] @ a) ** 2


# Margin, in dB, of the swept band's peak density over the white-noise
# density implied by the record SNR.  Large enough that the sweep stays
# visible through the noise, small enough that it never dominates the
# amplitude-modulated band.
_SWEEP_PEAK_OVER_NOISE_DB = 24.0


def benchmark_config(
    duration_s: float = 600.0,
    sample_rate_hz: float = 36.0,
    seed: int = 0,
    snr_db: float = 30.0,
    carrier_freq_hz: float = 0.02,
) -> SimulationConfig:
    """Default benchmark: an 11 Hz band amplitude-modulated at the carrier
    frequency, on top of a three-pole cluster that sweeps from 2 Hz to
    8 Hz over the record, plus white noise at the requested SNR.

    The swept band's innovation scale is not fixed; it is solved so the
    band's peak spectral density lands a set margin above the noise
    density that ``snr_db`` will produce.  Scanning a few points of the
    schedule for the peak keeps that margin, and with it the relative
    difficulty of tracking the sweep, stable when the sample rate or the
    duration changes.
    """
    ar = ar_coefficients([10.6, 11.0, 11.4], [0.98, 0.98, 0.98], sample_rate_hz)
    sweep = PoleZeroSchedule(
        times_s=np.array([0.0, duration_s]),
        pole_freqs_hz=np.array([[1.4, 2.0, 2.6], [7.4, 8.0, 8.6]]),
        pole_radii=np.full((2, 3), 0.92),
        zero_freqs_hz=np.array([[0.5, 14.0], [0.5, 14.0]]),
        zero_radii=np.full((2, 2), 0.4),
    )

    scan = [0.0, 0.25 * duration_s, 0.5 * duration_s, 0.75 * duration_s,
            max(0.0, duration_s - 1.0)]
    # one basis per coefficient count for the whole call, not one per use
    bases: dict[int, np.ndarray] = {}
    peaks, means = [], []
    for t in scan:
        a_rows, b_rows = sweep.coefficient_rows(np.array([t]), sample_rate_hz)
        s = _half_grid_power(a_rows[0], b_rows[0], bases)
        peaks.append(s.max())
        means.append(s.mean())
    peak, var_sweep = float(np.max(peaks)), float(np.mean(means))

    # AM band variance at unit innovation: stationary AR spectrum mean
    # times the squared-carrier average of 1/2.
    s_ar = _half_grid_power(np.r_[1.0, -ar], np.ones(1), bases)
    var_am = float(s_ar.mean()) * 0.5

    # Let g be the target ratio of sweep peak density to total signal
    # variance.  With noise_var = total / 10^(snr/10), requiring
    # peak_density = noise_var * 10^(margin/10) gives
    #   std^2 * peak = g * (var_am + std^2 * var_sweep)
    # which solves in closed form below.
    g = 10.0 ** ((_SWEEP_PEAK_OVER_NOISE_DB - snr_db) / 10.0)
    denom = peak - var_sweep * g
    if denom <= 0:
        raise ValueError("snr_db too low: the sweep cannot clear the noise floor")
    sweep_std = math.sqrt(var_am * g / denom)

    return SimulationConfig(
        duration_s=duration_s,
        sample_rate_hz=sample_rate_hz,
        ar_coeffs=ar,
        arma_schedule=sweep,
        carrier_freq_hz=carrier_freq_hz,
        snr_db=snr_db,
        rng_seed=seed,
        arma_innovation_std=sweep_std,
    )


@dataclass(frozen=True)
class GroundTruth:
    """Closed-form time-varying spectrum of a generated benchmark record.

    Holds the transfer functions and the realized noise variance; call
    `spectrogram` to evaluate the true power on any window grid, in the
    same units as the estimators (unitary-DFT eigen-coefficient power).
    """

    config: SimulationConfig
    noise_var: float
    n_samples: int

    def spectrogram(self, window_length_j: int, hop: int | None = None,
                    one_sided: bool = False) -> Spectrogram:
        cfg = self.config
        fs = cfg.sample_rate_hz
        j = int(window_length_j)
        hop = j if hop is None else int(hop)
        if j < 1 or hop < 1 or hop > j:
            raise ValueError("window_length_j and hop must satisfy 1 <= hop <= J")
        if self.n_samples < j:
            raise ValueError("insufficient data: window longer than the record")
        k = (self.n_samples - j) // hop + 1
        freqs = np.arange(j) / j * fs
        omega = 2.0 * np.pi * np.arange(j) / j

        # Amplitude-modulated band: stationary AR spectrum scaled by the
        # squared carrier envelope averaged over each window.
        a_ar = np.r_[1.0, -cfg.ar_coeffs]
        basis_ar = np.exp(-1j * np.outer(omega, np.arange(a_ar.size)))
        s_ar = cfg.ar_innovation_std**2 / np.abs(basis_ar @ a_ar) ** 2

        starts = np.arange(k) * hop
        t_samples = (starts[:, None] + np.arange(j)[None, :]) / fs
        env2 = np.mean(np.cos(2.0 * np.pi * cfg.carrier_freq_hz * t_samples) ** 2, axis=1)

        # Swept band: transfer function at each window's center time.
        centers = (starts + j / 2.0) / fs
        a_rows, b_rows = cfg.arma_schedule.coefficient_rows(centers, fs)
        basis_a = np.exp(-1j * np.outer(omega, np.arange(a_rows.shape[1])))
        basis_b = np.exp(-1j * np.outer(omega, np.arange(b_rows.shape[1])))
        denom = np.abs(a_rows @ basis_a.T) ** 2
        numer = np.abs(b_rows @ basis_b.T) ** 2
        s_arma = cfg.arma_innovation_std**2 * numer / denom

        # The truth is the spectrum of the signal components alone; the
        # additive measurement noise is what estimators are supposed to
        # reject, so it never enters the reference.
        power = (env2[:, None] * s_ar[None, :] + s_arma) / j
        times = (starts + j / 2.0) / fs
        if one_sided:
            n = j // 2 + 1
            power, freqs = power[:, :n], freqs[:n]
        return Spectrogram(power, freqs, times, scale="linear")


def gen_benchmark(config: SimulationConfig) -> tuple[TimeSeries, GroundTruth]:
    """Generate the benchmark record and its closed-form ground truth.

    The noise scale is set from the realized power of the summed signal
    components so the measured SNR matches ``config.snr_db``; the exact
    variance used is stored on the returned GroundTruth.  Identical
    configs produce bit-identical records.
    """
    cfg = config
    rng = np.random.default_rng(cfg.rng_seed)
    fs = cfg.sample_rate_hz
    band_am = gen_ar(cfg.ar_coeffs, cfg.duration_s, fs, rng, cfg.ar_innovation_std)
    band_fm = gen_arma_tv(cfg.arma_schedule, cfg.duration_s, fs, rng, cfg.arma_innovation_std)
    n = band_am.samples.size
    t = np.arange(n) / fs
    signal = band_am.samples * np.cos(2.0 * np.pi * cfg.carrier_freq_hz * t) + band_fm.samples
    signal_power = float(np.mean(signal**2))
    noise_var = 0.0 if np.isinf(cfg.snr_db) else signal_power / 10.0 ** (cfg.snr_db / 10.0)
    samples = signal + np.sqrt(noise_var) * rng.standard_normal(n)
    series = TimeSeries(samples=owned(samples), sample_rate_hz=fs)
    truth = GroundTruth(config=cfg, noise_var=noise_var, n_samples=n)
    return series, truth
