"""The package's public surface: the names `statespec` exports and where
each one comes from."""
import pytest

import statespec
from statespec import adaptive, metrics, segmentation, simulate, ssm, tapers

MODULES = [adaptive, metrics, segmentation, simulate, ssm, tapers]

PUBLIC = {
    "__version__",
    "AdaptiveParams", "NonstationarityTracker", "adaptive_state_variance",
    "assmt_filter", "assmt_spectrogram", "ema_update",
    "DivergenceReport", "itakura_saito",
    "EigenCoefficients", "SegmentedSeries", "TimeSeries", "eigen_coefficients",
    "segment",
    "GroundTruth", "PoleZeroSchedule", "SimulationConfig", "ar_coefficients",
    "benchmark_config", "gen_ar", "gen_arma_tv", "gen_benchmark",
    "gen_regime_switch",
    "DB_FLOOR", "EMConfig", "EMFit", "FilterState", "FilterTrace", "ModelParams",
    "Spectrogram", "em_fit", "filter_all", "kalman_gain", "kalman_step",
    "mt_spectrogram", "ssmt_spectrogram", "steady_state_gain",
    "TaperBank", "dpss",
}


def test_all_is_the_public_names_once():
    assert len(PUBLIC) == 39
    assert set(statespec.__all__) == PUBLIC
    assert len(statespec.__all__) == len(PUBLIC)


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_module_names_are_exported_as_themselves(module):
    assert set(module.__all__) <= set(statespec.__all__)
    for name in module.__all__:
        assert getattr(statespec, name) is getattr(module, name), name


def test_star_import_binds_every_name():
    namespace = {}
    exec("from statespec import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == PUBLIC
    assert namespace["__version__"] is statespec._version.__version__
