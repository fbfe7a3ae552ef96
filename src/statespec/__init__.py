"""Multitaper and state-space multitaper spectrogram estimation.

Pipeline: `segment` a signal, compute tapered `eigen_coefficients`, then
either average eigen-spectra directly (`mt_spectrogram`) or denoise them
with per-bin complex Kalman filters whose noise variances come from
`em_fit` (`ssmt_spectrogram`) or from an adaptive nonstationarity
tracker (`assmt_filter`).  `itakura_saito` scores any estimate against a
reference spectrum on the same grid.
"""

from . import adaptive, metrics, segmentation, simulate, ssm, tapers
from ._version import __version__
from .adaptive import *
from .metrics import *
from .segmentation import *
from .simulate import *
from .ssm import *
from .tapers import *

__all__ = [
    "__version__",
    *adaptive.__all__,
    *metrics.__all__,
    *segmentation.__all__,
    *simulate.__all__,
    *ssm.__all__,
    *tapers.__all__,
]
