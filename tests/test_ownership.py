"""Array ownership: user arrays are copied, package arrays adopted, results read-only."""
import tracemalloc

import numpy as np
import pytest
from conftest import make_eig

from statespec import (
    AdaptiveParams,
    EMConfig,
    EigenCoefficients,
    FilterTrace,
    ModelParams,
    Spectrogram,
    TimeSeries,
    assmt_filter,
    dpss,
    eigen_coefficients,
    em_fit,
    filter_all,
    mt_spectrogram,
    segment,
    ssmt_spectrogram,
)
from statespec._util import append_in_place, frozen_array, owned


def assert_read_only(*arrays):
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr.flat[0] = arr.flat[0]


def model_params(j, m):
    return ModelParams(state_var=np.full((j, m), 0.2), obs_var=np.ones(m))


class TestResultsAreReadOnly:
    def test_segment_and_eigen_coefficients(self, rng):
        series = TimeSeries(rng.standard_normal(200), 10.0)
        for demean in (False, True):
            seg = segment(series, 32, 16, demean=demean)
            assert_read_only(seg.windows)
        eig = eigen_coefficients(seg, dpss(32, 2.0, 3))
        assert_read_only(eig.coeffs, eig.frequencies_hz, eig.window_times_s)

    def test_filter_all(self, rng):
        obs = make_eig(rng)
        trace = filter_all(obs, model_params(4, 2))
        assert_read_only(trace.means, trace.variances, trace.gains,
                         trace.frequencies_hz, trace.window_times_s)

    def test_assmt_filter(self, rng):
        obs = make_eig(rng)
        params = AdaptiveParams.from_model_params(model_params(4, 2))
        trace, state_var_trace, _ = assmt_filter(obs, params)
        assert_read_only(trace.means, trace.variances, trace.gains, state_var_trace)

    def test_em_fit(self, rng):
        fit = em_fit(make_eig(rng, k=8), EMConfig(tol=1.0))
        assert_read_only(fit.params.state_var, fit.params.obs_var, fit.log_likelihoods)

    @pytest.mark.parametrize("one_sided", [False, True])
    def test_spectrograms(self, rng, one_sided):
        obs = make_eig(rng)
        trace = filter_all(obs, model_params(4, 2))
        for spect in (mt_spectrogram(obs, one_sided), ssmt_spectrogram(trace, one_sided)):
            db = spect.to_db()
            assert_read_only(spect.power, db.power, db.to_linear().power)


class TestUserArraysAreCopied:
    def check_detached(self, user_arrays, held_arrays):
        snapshot = [held.copy() for held in held_arrays]
        for user, held in zip(user_arrays, held_arrays):
            assert not np.shares_memory(user, held)
        for user in user_arrays:
            user[...] = 7
        for held, before in zip(held_arrays, snapshot):
            np.testing.assert_array_equal(held, before)

    def test_filter_trace(self, rng):
        shape = (3, 4, 2)
        means = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        variances, gains = np.ones(shape), np.full(shape, 0.5)
        freqs, times = np.arange(4.0), np.arange(3.0)
        trace = FilterTrace(means, variances, gains, freqs, times)
        self.check_detached(
            [means, variances, gains, freqs, times],
            [trace.means, trace.variances, trace.gains, trace.frequencies_hz,
             trace.window_times_s],
        )

    def test_eigen_coefficients(self, rng):
        coeffs = rng.standard_normal((3, 4, 2)) + 0j
        freqs, times = np.arange(4.0), np.arange(3.0)
        eig = EigenCoefficients(coeffs, freqs, times)
        self.check_detached([coeffs, freqs, times],
                            [eig.coeffs, eig.frequencies_hz, eig.window_times_s])

    def test_spectrogram(self, rng):
        power, freqs, times = rng.random((3, 4)), np.arange(4.0), np.arange(3.0)
        spect = Spectrogram(power, freqs, times)
        self.check_detached([power, freqs, times],
                            [spect.power, spect.frequencies_hz, spect.window_times_s])


class TestAdoption:
    def test_adopts_without_copy(self):
        arr = np.arange(6.0).reshape(2, 3)
        adopted = frozen_array(owned(arr), dtype=float, ndim=2)
        assert adopted is arr
        assert_read_only(arr)

    def test_rank_still_checked(self):
        with pytest.raises(ValueError, match="dimension"):
            frozen_array(owned(np.zeros(3)), ndim=2, name="power")

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: Spectrogram(owned(np.array([[np.nan]])), [0.0], [0.0]), "finite"),
            (lambda: Spectrogram(owned(-np.ones((1, 1))), [0.0], [0.0]), "non-negative"),
            (lambda: FilterTrace(owned(np.zeros((1, 1, 1), complex)), owned(-np.ones((1, 1, 1))),
                                 owned(np.zeros((1, 1, 1))), [0.0], [0.0]), "non-negative"),
            (lambda: FilterTrace(owned(np.zeros((1, 1, 1), complex)), owned(np.ones((1, 1, 1))),
                                 owned(np.full((1, 1, 1), 1.5)), [0.0], [0.0]), r"\[0, 1\]"),
            (lambda: EigenCoefficients(owned(np.full((1, 1, 1), np.inf + 0j)), [0.0], [0.0]),
             "finite"),
            (lambda: ModelParams(owned(-np.ones((1, 1))), owned(np.ones(1))), "non-negative"),
        ],
        ids=["power-nan", "power-negative", "variances-negative", "gains-above-1",
             "coeffs-inf", "state-var-negative"],
    )
    def test_validation_still_runs(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()


class TestAppendInPlace:
    def test_blocks_in_order_in_the_same_array(self):
        values = np.empty(0)
        blocks = [np.arange(3.0), np.arange(3.0, 8.0), np.array([8.0])]
        for block in blocks:
            append_in_place(values, block)
        # the caller's array grew: its size is the count of values appended
        assert values.size == 9
        np.testing.assert_array_equal(values, np.arange(9.0))
        assert values.flags.owndata

    def test_empty_block_changes_nothing(self):
        values = np.empty(0)
        append_in_place(values, np.empty(0))
        assert values.size == 0
        append_in_place(values, np.array([1.5, 2.5]))
        append_in_place(values, np.empty(0))
        np.testing.assert_array_equal(values, [1.5, 2.5])

    def test_block_is_copied(self):
        values, block = np.empty(0), np.array([1.0, 2.0])
        append_in_place(values, block)
        block[:] = 0.0
        np.testing.assert_array_equal(values, [1.0, 2.0])
        assert not np.shares_memory(values, block)


def test_assmt_filter_peak_memory_stays_near_its_result(rng):
    """At the hour-long record's shape, `assmt_filter` holds little beyond
    what it returns.  The result (filtered means, variances, gains and the
    state-variance trace) is 15.6 MB; its traced peak measured 16.0 MB when
    the trace adopts the forward pass's arrays and 28.4 MB when it copied
    them.  The bound leaves a quarter of the result as margin."""
    obs = make_eig(rng, k=600, j=216, m=3)
    params = AdaptiveParams(baseline_state_var=np.full((216, 3), 0.1), obs_var=np.ones(3))
    tracemalloc.start()
    try:
        trace, state_var_trace, _ = assmt_filter(obs, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    result = sum(a.nbytes for a in (trace.means, trace.variances, trace.gains, state_var_trace))
    assert peak < 1.25 * result, f"peak {peak / 1e6:.1f} MB for a {result / 1e6:.1f} MB result"
