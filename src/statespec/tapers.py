"""Discrete prolate spheroidal (Slepian) taper banks.

The tapers are eigenvectors of the symmetric tridiagonal operator that
commutes with the sinc-kernel concentration operator.  Solving the
tridiagonal problem is fast and numerically clean even for long windows;
the in-band energy concentration of each taper is then evaluated as a
quadratic form with the sinc kernel itself.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from ._util import frozen_field

__all__ = ["TaperBank", "dpss"]

_ORTHO_TOL = 1e-8
_ORDER_TOL = 1e-12


@dataclass(frozen=True)
class TaperBank:
    """Bank of orthonormal tapers and their spectral concentrations.

    Attributes
    ----------
    tapers : ndarray, shape (M, J)
        One taper per row.  Rows have unit Euclidean norm and are mutually
        orthogonal; the first numerically nonzero element of each row is
        positive so the sign is reproducible across platforms.
    concentrations : ndarray, shape (M,)
        In-band energy fraction of each taper, in (0, 1), non-increasing.
    time_half_bandwidth : float
        Dimensionless time-bandwidth product NW shared by the bank.
    """

    tapers: np.ndarray
    concentrations: np.ndarray
    time_half_bandwidth: float

    def __post_init__(self):
        tapers = frozen_field(self, "tapers", float, 2)
        conc = frozen_field(self, "concentrations", float, 1)
        m, j = tapers.shape
        if m < 1:
            raise ValueError("taper bank must contain at least one taper")
        if m >= j:
            raise ValueError(f"cannot hold {m} orthonormal tapers of length {j}")
        if conc.shape != (m,):
            raise ValueError("concentrations must have one entry per taper")
        if not np.all(np.isfinite(tapers)):
            raise ValueError("tapers must be finite")
        if np.any(conc <= 0.0) or np.any(conc >= 1.0):
            raise ValueError("concentrations must lie strictly inside (0, 1)")
        if np.any(np.diff(conc) > _ORDER_TOL):
            raise ValueError("concentrations must be sorted in non-increasing order")
        if not self.time_half_bandwidth > 0:
            raise ValueError("time_half_bandwidth must be positive")
        gram = tapers @ tapers.T
        if not np.allclose(gram, np.eye(m), atol=_ORTHO_TOL):
            raise ValueError("taper rows must be orthonormal")
        object.__setattr__(self, "time_half_bandwidth", float(self.time_half_bandwidth))

    @property
    def num_tapers(self) -> int:
        return self.tapers.shape[0]

    @property
    def window_length(self) -> int:
        return self.tapers.shape[1]


def _fix_sign(vec: np.ndarray) -> np.ndarray:
    """Flip ``vec`` so its first numerically nonzero element is positive."""
    scale = np.abs(vec).max()
    first = np.flatnonzero(np.abs(vec) > 1e-13 * scale)[0]
    return -vec if vec[first] < 0 else vec


def _concentration(taper: np.ndarray, half_bandwidth: float) -> float:
    """In-band energy fraction: quadratic form with the sinc kernel.

    Evaluated through the taper's autocorrelation so no dense J-by-J
    kernel matrix is ever formed.  The autocorrelation is the inverse FFT
    of the power spectrum, zero-padded to 2J so no lag wraps around.
    """
    j = taper.size
    spectrum = np.fft.rfft(taper, n=2 * j)
    acf = np.fft.irfft(spectrum.real**2 + spectrum.imag**2, n=2 * j)[1:j]  # lags 1 .. J-1
    lags = np.arange(1, j)
    kernel = np.sin(2.0 * np.pi * half_bandwidth * lags) / (np.pi * lags)
    return 2.0 * half_bandwidth * float(taper @ taper) + 2.0 * float(kernel @ acf)


def _bank_args(window_length_j, time_half_bandwidth, num_tapers) -> tuple[int, float, int]:
    """``(J, NW, M)`` as `dpss` uses them; ValueError, at no cost, if no bank has them."""
    j = int(window_length_j)
    m = int(num_tapers)
    nw = float(time_half_bandwidth)
    if j < 2:
        raise ValueError("window_length_j must be at least 2")
    if m < 1:
        raise ValueError("num_tapers must be at least 1")
    if m >= j:
        raise ValueError("num_tapers must be smaller than the window length")
    if not 0.0 < nw < j / 2.0:
        raise ValueError("time_half_bandwidth must satisfy 0 < NW < J/2")
    return j, nw, m


def dpss(window_length_j: int, time_half_bandwidth: float, num_tapers: int) -> TaperBank:
    """Compute the ``num_tapers`` most concentrated tapers of a window.

    Parameters
    ----------
    window_length_j : int
        Window length in samples, at least 2.
    time_half_bandwidth : float
        Time-bandwidth product NW, with 0 < NW < window_length_j / 2.
        The half bandwidth in normalized frequency is W = NW / J.
    num_tapers : int
        Number of tapers M, 1 <= M < window_length_j.  Values beyond the
        usable bound floor(2 NW) - 1 are allowed but poorly concentrated,
        so they trigger a warning.

    Returns
    -------
    TaperBank
        Equal arguments return the same bank, whose arrays are read-only:
        the last bank made is kept and handed out again.

    Raises
    ------
    ValueError
        If the window length, bandwidth, or taper count is out of range.
    """
    j, nw, m = _bank_args(window_length_j, time_half_bandwidth, num_tapers)
    usable = math.floor(2.0 * nw) - 1
    if m > usable:
        warnings.warn(
            f"requested {m} tapers but only {max(usable, 0)} are well concentrated "
            f"for NW={nw:g}; trailing tapers will leak out of band",
            UserWarning,
            stacklevel=2,
        )
    return _bank(j, nw, m)


# a bank is frozen and its arrays read-only, so one is safe to share: every
# estimate of a run asks for the same one
@functools.lru_cache(maxsize=1)
def _bank(j: int, nw: float, m: int) -> TaperBank:
    """The bank of `dpss`' checked arguments."""
    w = nw / j
    idx = np.arange(j)
    diagonal = ((j - 1 - 2 * idx) / 2.0) ** 2 * np.cos(2.0 * np.pi * w)
    off_diagonal = idx[1:] * (j - idx[1:]) / 2.0
    _, vectors = eigh_tridiagonal(diagonal, off_diagonal, select="i", select_range=(j - m, j - 1))
    tapers = vectors[:, ::-1].T  # most concentrated first
    tapers = np.array([_fix_sign(row) for row in tapers])
    conc = np.array([_concentration(row, w) for row in tapers])
    # Clamp round-off: the exact eigenvalues lie strictly inside (0, 1).
    tiny = np.finfo(float).tiny
    conc = np.clip(conc, tiny, 1.0 - 1e-16)
    return TaperBank(tapers=tapers, concentrations=conc, time_half_bandwidth=nw)
