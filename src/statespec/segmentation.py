"""Windowed, tapered Fourier front end.

A raw uniformly sampled signal is cut into (possibly overlapping) windows,
multiplied by each taper of a bank, and transformed with a unitary DFT.
The resulting complex coefficients, indexed by (window, frequency bin,
taper), are the observation sequence that every estimator in this package
consumes.  The unitary scaling means the transform preserves energy, so a
white observation noise variance is the same before and after it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import frozen_field, owned
from .tapers import TaperBank

__all__ = [
    "TimeSeries",
    "SegmentedSeries",
    "EigenCoefficients",
    "segment",
    "eigen_coefficients",
]


@dataclass(frozen=True)
class TimeSeries:
    """Uniformly sampled real-valued signal.

    Attributes
    ----------
    samples : ndarray, shape (T,)
        Finite real samples, at least one.
    sample_rate_hz : float
        Sampling rate, strictly positive.
    """

    samples: np.ndarray
    sample_rate_hz: float

    def __post_init__(self):
        samples = frozen_field(self, "samples", float, 1)
        if samples.size == 0:
            raise ValueError("samples must be nonempty")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")
        if not self.sample_rate_hz > 0:
            raise ValueError("sample_rate_hz must be positive")
        object.__setattr__(self, "sample_rate_hz", float(self.sample_rate_hz))

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate_hz


@dataclass(frozen=True)
class SegmentedSeries:
    """Signal cut into K windows of J samples each.

    ``windows[k]`` equals ``samples[k * hop : k * hop + window_length_j]``
    of the source series (after optional per-window mean removal).
    """

    windows: np.ndarray
    window_length_j: int
    hop: int
    sample_rate_hz: float

    def __post_init__(self):
        windows = frozen_field(self, "windows", float, 2)
        j = int(self.window_length_j)
        hop = int(self.hop)
        if windows.shape[0] < 1:
            raise ValueError("at least one window is required")
        if windows.shape[1] != j:
            raise ValueError("window rows must have window_length_j samples")
        if hop < 1:
            raise ValueError("hop must be at least 1")
        if hop > j:
            raise ValueError("hop must not exceed the window length")
        if not self.sample_rate_hz > 0:
            raise ValueError("sample_rate_hz must be positive")
        object.__setattr__(self, "window_length_j", j)
        object.__setattr__(self, "hop", hop)
        object.__setattr__(self, "sample_rate_hz", float(self.sample_rate_hz))

    @property
    def num_windows(self) -> int:
        return self.windows.shape[0]


def _freeze_grid(result, k: int, stored: int) -> None:
    """Freeze the grid of a result of ``k`` windows and ``stored`` bins: one
    time per window, and all J bins or the J//2 + 1 a real signal stores."""
    j = frozen_field(result, "frequencies_hz", float, 1).size
    times = frozen_field(result, "window_times_s", float, 1)
    if stored not in (j, j // 2 + 1):
        raise ValueError(f"{stored} bins stored for {j} frequencies_hz, not {j} or {j // 2 + 1}")
    if times.shape != (k,):
        raise ValueError("window_times_s must have one entry per window")


@dataclass(frozen=True)
class EigenCoefficients:
    """Tapered Fourier coefficients, shape (K windows, B bins, M tapers).

    Frequencies follow the DFT bin convention ``frequencies_hz[j] =
    j / J * sample_rate_hz`` on the full grid; ``window_times_s[k]`` is the
    center time of window k.  B is J, or J//2 + 1 for a real signal, whose
    bin J - j is the conjugate of bin j and is not stored.
    """

    coeffs: np.ndarray
    frequencies_hz: np.ndarray
    window_times_s: np.ndarray

    def __post_init__(self):
        coeffs = frozen_field(self, "coeffs", complex, 3)
        k, b, m = coeffs.shape
        if k < 1 or b < 1 or m < 1:
            raise ValueError("coeffs must be nonempty along every axis")
        _freeze_grid(self, k, b)
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coeffs must be finite")

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.coeffs.shape


def segment(
    series: TimeSeries,
    window_length_j: int,
    hop: int | None = None,
    demean: bool = False,
) -> SegmentedSeries:
    """Cut a signal into windows of ``window_length_j`` samples.

    Parameters
    ----------
    series : TimeSeries
    window_length_j : int
        Samples per window.
    hop : int, optional
        Stride between window starts.  Defaults to ``window_length_j``
        (non-overlapping); ``window_length_j // 2`` gives 50% overlap.
    demean : bool, optional
        Remove each window's mean after slicing.

    Returns
    -------
    SegmentedSeries
        With ``K = (T - J) // hop + 1`` windows; trailing samples that do
        not fill a window are dropped.  Without ``demean`` the windows are
        a read-only view of the series' samples, overlapping when
        ``hop < J``; with it they are one new array.

    Raises
    ------
    ValueError
        If the signal is shorter than one window ("insufficient data"),
        or hop is out of range.
    """
    j = int(window_length_j)
    hop = j if hop is None else int(hop)
    samples = series.samples
    k = _checked_window_count(samples.size, j, hop)
    # the series' samples are read-only, so a view of them is adopted as is
    windows = np.lib.stride_tricks.sliding_window_view(samples, j)[::hop][:k]
    if demean:
        windows = windows - windows.mean(axis=1, keepdims=True)
    return SegmentedSeries(
        windows=owned(windows),
        window_length_j=j,
        hop=hop,
        sample_rate_hz=series.sample_rate_hz,
    )


def _window_count(n_samples: int, j: int, hop: int) -> int:
    """Windows of ``j`` samples ``hop`` apart in ``n_samples``, or 0."""
    return max(0, (n_samples - j) // hop + 1)


def _checked_window_count(n_samples: int, j: int, hop: int) -> int:
    """`_window_count` of a grid that can cut the record, the rule `segment`,
    the simulated truth and the CLI share: J >= 1, 1 <= hop <= J, n >= J."""
    if j < 1:
        raise ValueError(f"window_length_j must be at least 1, got {j}")
    if not 1 <= hop <= j:
        raise ValueError(f"hop must satisfy 1 <= hop <= window_length_j = {j}, got {hop}")
    if n_samples < j:
        raise ValueError(f"insufficient data: {n_samples} samples cannot fill a window of {j}")
    return _window_count(n_samples, j, hop)


def _frequencies(j: int, fs: float) -> np.ndarray:
    """The DFT grid of ``j`` bins at ``fs``, in Hz."""
    return np.arange(j) / j * fs


def _window_times(first: int, stop: int, j: int, hop: int, fs: float) -> np.ndarray:
    """Centre times, in seconds, of windows ``first``..``stop - 1`` of ``j``
    samples ``hop`` apart at ``fs``: every window grid's one formula, so an
    estimate's times and the truth's agree bit for bit."""
    return (np.arange(first, stop) * hop + j / 2.0) / fs


# Tapered samples per block of windows in eigen_coefficients.
_BLOCK_VALUES = 1 << 15


def eigen_coefficients(segmented: SegmentedSeries, tapers: TaperBank) -> EigenCoefficients:
    """Taper each window and apply the unitary DFT.

    Parameters
    ----------
    segmented : SegmentedSeries
    tapers : TaperBank
        Taper length must match the window length.

    Returns
    -------
    EigenCoefficients
        ``coeffs[k, :, m]`` is bins 0..J//2 of the unitary DFT (scaling
        ``J ** -0.5``) of window k multiplied elementwise by taper m; the
        windows are real, so bin ``J - j`` would be the conjugate of bin
        ``j``.  By Parseval the energy of the tapered window is the stored
        energy with bins 1..J - J//2 - 1 counted twice.
    """
    if tapers.window_length != segmented.window_length_j:
        raise ValueError(
            f"taper length {tapers.window_length} does not match "
            f"window length {segmented.window_length_j}"
        )
    j = segmented.window_length_j
    fs = segmented.sample_rate_hz
    k = segmented.num_windows
    m = tapers.num_tapers
    # bins contiguous per (window, taper), the layout np.fft.rfft returns,
    # which keeps the taper mean of the spectrogram on a strided fast path
    coeffs = np.empty((k, m, j // 2 + 1), dtype=complex).transpose(0, 2, 1)
    # each transform sees one window, so blocks of windows give the bits of
    # one transform of them all, with temporaries bounded by the block
    step = max(1, _BLOCK_VALUES // (j * m))
    for first in range(0, k, step):
        rows = slice(first, first + step)
        tapered = segmented.windows[rows, :, None] * tapers.tapers.T[None, :, :]
        coeffs[rows] = np.fft.rfft(tapered, axis=1, norm="ortho")
    times = _window_times(0, k, j, segmented.hop, fs)
    return EigenCoefficients(
        coeffs=owned(coeffs), frequencies_hz=_frequencies(j, fs), window_times_s=times
    )
