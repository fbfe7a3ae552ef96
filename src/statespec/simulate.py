"""Synthetic nonstationary signals with known time-varying spectra.

The benchmark dataset superposes an amplitude-modulated autoregressive
band, a frequency-modulated ARMA band whose poles sweep over the record,
and white measurement noise scaled to a target SNR.  Because every
component has a rational transfer function, the true spectrogram is
available in closed form on any window grid, which is what makes honest
divergence scoring possible.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ._util import frozen_field, owned
from .segmentation import TimeSeries, _checked_window_count, _frequencies, _window_times
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

# Source of the order-p autoregression over one block; `_ar_kernel` fills
# in the lag names and how the coefficients are read.  ``lags`` holds the p
# latest outputs, most recent first; the block's outputs are returned as a
# new list, with the new latest outputs.  Constant coefficients come as one
# list of p values, bound to locals once; time-varying ones as one list per
# lag, read in step with the block.
_AR_KERNEL_SOURCE = """
def kernel(block, coeffs, lags):
    {lags}, = lags
    {bind}
    out = []
    append = out.append
    for {sample} in {samples}:
        acc = u{terms}
        append(acc)
        {lags}, = {shifted},
    return out, ({lags},)
"""


@functools.cache
def _ar_kernel(p: int, constant: bool):
    """The unrolled order-``p`` autoregression block, compiled on first use.

    Python evaluates ``u - c1 * v1 - c2 * v2 - ...`` left to right, so each
    sample takes the same operations in the same order as subtracting one
    lag at a time, and the same bits, whichever way the coefficients come.
    """
    lags = range(1, p + 1)
    coeffs = ", ".join(f"c{i}" for i in lags)
    source = _AR_KERNEL_SOURCE.format(
        lags=", ".join(f"v{i}" for i in lags),
        bind=f"{coeffs}, = coeffs" if constant else "",
        sample="u" if constant else f"u, {coeffs}",
        samples="block" if constant else "zip(block, *coeffs)",
        terms="".join(f" - c{i} * v{i}" for i in lags),
        shifted=", ".join(["acc"] + [f"v{i}" for i in range(1, p)]),
    )
    kind = "constant" if constant else "varying"
    namespace: dict = {}
    exec(compile(source, f"<ar kernel p={p} {kind}>", "exec"), namespace)
    return namespace["kernel"]


def _run_recursion(coefficients, innovations: np.ndarray) -> np.ndarray:
    """Direct-form ARMA recursion with per-sample coefficients.

    ``coefficients(start, stop)`` returns the monic denominator and
    numerator coefficients of samples ``start`` to ``stop - 1``, lag-major:
    shapes (p + 1, stop - start) and (q + 1, stop - start), row i holding
    lag i.  The recursion asks for them one block of ``_RECURSION_BLOCK``
    samples at a time, so no whole-record coefficient array is made.
    Denominator rows broadcast along time (stride 0, as `gen_ar` passes
    them) run the constant `_ar_kernel`, which binds the coefficients once;
    other rows run the time-varying one.  Both come from one template and
    give the same bits, so constant-coefficient and scheduled processes
    agree bit for bit where their schedules agree.

    Sample t is ``w[t] + sum_i b[i, t] w[t-i] - sum_i a[i, t] x[t-i]``,
    each sum taken in order of increasing lag and over the lags inside the
    record only.  The moving-average terms do not depend on earlier
    outputs, so each block adds them one lag at a time.  The autoregression
    runs on Python floats: the first ``p`` samples, which see fewer than
    ``p`` lags, one lag at a time, and the rest in `_ar_kernel` blocks so
    the list objects stay small.
    """
    n = innovations.size
    w = innovations
    x = np.empty(n)
    lags = deque()  # most recent output first; p of them once t reaches p
    for start in range(0, n, _RECURSION_BLOCK):
        stop = min(start + _RECURSION_BLOCK, n)
        a, b = coefficients(start, stop)
        block = w[start:stop].copy()
        # lag i reaches inside the record from sample i on
        for i in range(1, min(b.shape[0], stop)):
            first = max(i - start, 0)
            block[first:] += b[i, first:] * w[start + first - i : stop - i]
        p = a.shape[0] - 1
        if p == 0:
            x[start:stop] = block
            continue
        values = block.tolist()
        # samples t < p see fewer than p lags: one lag at a time
        warm = min(max(p - start, 0), stop - start)
        for t in range(warm):
            acc = values[t]
            for c, v in zip(a[1:, t].tolist(), lags):
                acc -= c * v
            x[start + t] = acc
            lags.appendleft(acc)
        if warm < stop - start:
            constant = a.strides[1] == 0
            coeffs = a[1:, warm] if constant else a[1:, warm:]
            values, lags = _ar_kernel(p, constant)(values[warm:], coeffs.tolist(), lags)
            x[start + warm : stop] = values
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
    a_col = np.r_[1.0, -coeffs][:, None]

    def coefficients(start, stop):
        return np.broadcast_to(a_col, (a_col.size, stop - start)), np.ones((1, stop - start))

    x = _run_recursion(coefficients, w)[burn:]
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
        times = frozen_field(self, "times_s", float, 1)
        tables = ("pole_freqs_hz", "pole_radii", "zero_freqs_hz", "zero_radii")
        for name in tables:
            # one breakpoint's pairs may be given as a single row
            object.__setattr__(self, name, np.atleast_2d(getattr(self, name)))
        pf, pr, zf, zr = (frozen_field(self, name, float) for name in tables)
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

    @property
    def ar_order(self) -> int:
        return 2 * self.pole_freqs_hz.shape[1]

    @property
    def ma_order(self) -> int:
        return 2 * self.zero_freqs_hz.shape[1] if self.zero_freqs_hz.size else 0

    def _interp(self, t: np.ndarray, table: np.ndarray) -> np.ndarray:
        """(pairs, T): each column of ``table`` interpolated at times ``t``."""
        rows = [np.interp(t, self.times_s, table[:, p]) for p in range(table.shape[1])]
        return np.stack(rows) if rows else np.zeros((0, t.size))

    def _lag_rows(self, t: np.ndarray, sample_rate_hz: float) -> tuple[np.ndarray, np.ndarray]:
        """Monic denominator and numerator coefficients at times ``t``, one row per lag."""
        t = np.asarray(t, dtype=float)
        # no zeros give no pairs, whose product is the ones row
        return (_poly_rows(self._interp(t, self.pole_freqs_hz),
                           self._interp(t, self.pole_radii), sample_rate_hz),
                _poly_rows(self._interp(t, self.zero_freqs_hz),
                           self._interp(t, self.zero_radii), sample_rate_hz))

    def coefficient_rows(self, t: np.ndarray, sample_rate_hz: float) -> tuple[np.ndarray, np.ndarray]:
        """Monic denominator and numerator coefficient rows at times ``t``,
        shapes (T, 2P + 1) and (T, 2Q + 1)."""
        a, b = self._lag_rows(t, sample_rate_hz)
        return np.ascontiguousarray(a.T), np.ascontiguousarray(b.T)

    @property
    def max_pole_radius(self) -> float:
        return float(self.pole_radii.max()) if self.pole_radii.size else 0.0


def _poly_rows(freqs: np.ndarray, radii: np.ndarray, sample_rate_hz: float) -> np.ndarray:
    """Per-time product of conjugate-pair quadratics, monic, lag-major.

    ``freqs`` and ``radii`` are (P, T); row i of the (2P + 1, T) result
    holds lag i's coefficient at every time.
    """
    pairs, n = freqs.shape
    poly = np.ones((1, n))
    for p in range(pairs):
        theta = 2.0 * np.pi * freqs[p] / sample_rate_hz
        quad = np.stack([np.ones(n), -2.0 * radii[p] * np.cos(theta), radii[p] ** 2])
        out = np.zeros((poly.shape[0] + 2, n))
        for i in range(poly.shape[0]):
            out[i:i + 3] += poly[i] * quad
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
    `gen_ar` exactly for the same generator state.  The schedule is
    evaluated one recursion block at a time.
    """
    n = int(round(duration_s * sample_rate_hz))
    if n < 1:
        raise ValueError("duration must cover at least one sample")
    burn = _burn_in(schedule.max_pole_radius, schedule.ar_order)
    w = innovation_std * rng.standard_normal(n + burn)

    def coefficients(start, stop):
        # burn-in samples sit at t = 0, sample burn + i at i / fs
        t = np.maximum(np.arange(start - burn, stop - burn), 0) / sample_rate_hz
        return schedule._lag_rows(t, sample_rate_hz)

    x = _run_recursion(coefficients, w)[burn:]
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


def _power_ratio(db: float) -> float:
    """``10 ** (db / 10)``, or inf where that overflows."""
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        return math.inf


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
        coeffs = frozen_field(self, "ar_coeffs", float, 1)
        if self.duration_s <= 0 or self.sample_rate_hz <= 0:
            raise ValueError("duration_s and sample_rate_hz must be positive")
        if not math.isfinite(self.carrier_freq_hz):
            raise ValueError(f"carrier_freq_hz must be finite, got {self.carrier_freq_hz}")
        if self.carrier_freq_hz < 0:
            raise ValueError("carrier_freq_hz must be non-negative")
        # the carrier's phase 2 pi f t, up to the end of the record
        if not math.isfinite(2.0 * math.pi * self.carrier_freq_hz * self.duration_s):
            raise ValueError(
                f"carrier_freq_hz of {self.carrier_freq_hz:g} overflows the carrier's phase "
                f"over {self.duration_s:g} s"
            )
        if math.isnan(self.snr_db):
            raise ValueError("snr_db must be finite, or inf for noise-free")
        # the noise variance is the signal power over this ratio; inf is noise-free
        if self.snr_db != math.inf and not 0.0 < _power_ratio(self.snr_db) < math.inf:
            raise ValueError(f"snr_db of {self.snr_db:g} dB puts its power ratio 10^(snr_db / 10) "
                             f"outside the float range (inf means noise-free)")
        if _pole_radius(coeffs) >= 1.0:
            raise ValueError("ar_coeffs must describe a stable recursion")


@functools.cache
def _dft_basis(size: int, nfreq: int) -> np.ndarray:
    """The read-only ``(nfreq, size)`` DFT basis on the half circle [0, pi),
    built once per process for each shape."""
    omega = np.pi * np.arange(nfreq) / nfreq
    basis = np.exp(-1j * np.outer(omega, np.arange(size)))
    basis.setflags(write=False)
    return basis


def _half_grid_power(a: np.ndarray, b: np.ndarray, nfreq: int = 8192) -> np.ndarray:
    """|B/A|^2 for monic coefficient vectors on the half circle [0, pi)."""
    return np.abs(_dft_basis(b.size, nfreq) @ b) ** 2 / np.abs(_dft_basis(a.size, nfreq) @ a) ** 2


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
    spectra = [_half_grid_power(a, b)
               for a, b in zip(*sweep.coefficient_rows(np.array(scan), sample_rate_hz))]
    peak = float(np.max([s.max() for s in spectra]))
    var_sweep = float(np.mean([s.mean() for s in spectra]))

    # AM band variance at unit innovation: stationary AR spectrum mean
    # times the squared-carrier average of 1/2.
    s_ar = _half_grid_power(np.r_[1.0, -ar], np.ones(1))
    var_am = float(s_ar.mean()) * 0.5

    # Let g be the target ratio of sweep peak density to total signal
    # variance.  With noise_var = total / 10^(snr/10), requiring
    # peak_density = noise_var * 10^(margin/10) gives
    #   std^2 * peak = g * (var_am + std^2 * var_sweep)
    # which solves in closed form below.
    g = _power_ratio(_SWEEP_PEAK_OVER_NOISE_DB - snr_db)
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
        k = _checked_window_count(self.n_samples, j, hop)
        freqs = _frequencies(j, fs)
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
        centers = _window_times(0, k, j, hop, fs)
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
        if one_sided:
            n = j // 2 + 1
            power, freqs = power[:, :n], freqs[:n]
        return Spectrogram(power, freqs, centers, scale="linear")


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
    noise_var = 0.0 if np.isinf(cfg.snr_db) else signal_power / _power_ratio(cfg.snr_db)
    samples = signal + np.sqrt(noise_var) * rng.standard_normal(n)
    series = TimeSeries(samples=owned(samples), sample_rate_hz=fs)
    truth = GroundTruth(config=cfg, noise_var=noise_var, n_samples=n)
    return series, truth
