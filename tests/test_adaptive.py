"""Tracker-driven state variance and the adaptive filter pass."""
import warnings

import numpy as np
import pytest
from conftest import make_eig

from statespec import (
    AdaptiveParams,
    ModelParams,
    NonstationarityTracker,
    adaptive_state_variance,
    assmt_filter,
    assmt_spectrogram,
    ema_update,
    filter_all,
    kalman_gain,
    ssmt_spectrogram,
    steady_state_gain,
)
from statespec.segmentation import EigenCoefficients


def make_params(j=4, m=2, baseline=0.5, obs=1.0):
    return AdaptiveParams(
        baseline_state_var=np.full((j, m), baseline), obs_var=np.full(m, obs)
    )


def ramp_eig(k=20, j=3, m=2, step=0.1 + 0.05j):
    coeffs = step * np.arange(k, dtype=float)[:, None, None] * np.ones((k, j, m))
    return EigenCoefficients(
        coeffs=coeffs,
        frequencies_hz=np.arange(j, dtype=float),
        window_times_s=np.arange(k, dtype=float),
    )


class TestEmaUpdate:
    def test_alpha_one_tracks_instantaneous_difference(self, rng):
        prev = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        cur = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        tracker = NonstationarityTracker(
            ema=np.full((3, 2), 9.0), alpha=1.0, prev_obs=prev
        )
        out = ema_update(tracker, cur)
        np.testing.assert_allclose(out.ema, np.abs(cur - prev) ** 2, atol=1e-12)
        np.testing.assert_array_equal(out.prev_obs, cur)

    def test_alpha_zero_never_moves(self, rng):
        tracker = NonstationarityTracker(
            ema=np.full((2, 1), 3.0), alpha=0.0, prev_obs=np.zeros((2, 1), complex)
        )
        for _ in range(5):
            tracker = ema_update(
                tracker, rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1))
            )
        np.testing.assert_array_equal(tracker.ema, np.full((2, 1), 3.0))

    def test_geometric_closed_form(self):
        # constant squared difference 4, alpha 1/2, zero start:
        # after n steps the average is 4 (1 - 2^-n).
        tracker = NonstationarityTracker(
            ema=np.zeros((1, 1)), alpha=0.5, prev_obs=np.zeros((1, 1), complex)
        )
        obs = np.zeros((1, 1), complex)
        for n in range(1, 11):
            obs = obs + 2.0
            tracker = ema_update(tracker, obs)
            assert tracker.ema[0, 0] == pytest.approx(4.0 * (1.0 - 0.5**n), abs=1e-12)

    def test_total_variation_grows_with_alpha(self, rng):
        # smaller alpha smooths harder: the ema path wiggles no more than
        # the path under any larger alpha on the same input.
        for _ in range(50):
            k = int(rng.integers(10, 60))
            obs = rng.standard_normal((k, 2, 2)) + 1j * rng.standard_normal((k, 2, 2))
            a, b = np.sort(rng.uniform(0.05, 1.0, 2))
            tvs = []
            for alpha in (a, b):
                d0 = np.abs(obs[1] - obs[0]) ** 2
                tracker = NonstationarityTracker(ema=d0, alpha=float(alpha), prev_obs=obs[1])
                path = [tracker.ema]
                for kk in range(2, k):
                    tracker = ema_update(tracker, obs[kk])
                    path.append(tracker.ema)
                path = np.array(path)
                tvs.append(np.abs(np.diff(path, axis=0)).sum())
            assert tvs[0] <= tvs[1] + 1e-9 * (1.0 + tvs[1])

    def test_rejects_shape_mismatch_and_non_finite(self):
        tracker = NonstationarityTracker(
            ema=np.zeros((2, 2)), alpha=0.5, prev_obs=np.zeros((2, 2), complex)
        )
        with pytest.raises(ValueError, match="shape"):
            ema_update(tracker, np.zeros((3, 2), complex))
        bad = np.zeros((2, 2), complex)
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            ema_update(tracker, bad)

    def test_tracker_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            NonstationarityTracker(
                ema=np.zeros((1, 1)), alpha=1.5, prev_obs=np.zeros((1, 1), complex)
            )
        with pytest.raises(ValueError, match="non-negative"):
            NonstationarityTracker(
                ema=-np.ones((1, 1)), alpha=0.5, prev_obs=np.zeros((1, 1), complex)
            )
        with pytest.raises(ValueError, match="share a shape"):
            NonstationarityTracker(
                ema=np.zeros((1, 1)), alpha=0.5, prev_obs=np.zeros((2, 1), complex)
            )


class TestAdaptiveStateVariance:
    def test_at_twice_obs_var_keeps_baseline(self):
        assert adaptive_state_variance(2.0, 0.5, 1.0) == 0.5

    def test_above_threshold_excess_becomes_state_var(self):
        # beta = 2 obs + baseline; one unit above it yields baseline + 1
        beta = 2.0 * 1.0 + 0.5
        assert adaptive_state_variance(beta + 1.0, 0.5, 1.0) == pytest.approx(1.5)

    def test_zero_ema_keeps_baseline(self):
        assert adaptive_state_variance(0.0, 0.5, 1.0) == 0.5

    def test_scalar_returns_float(self):
        out = adaptive_state_variance(5.0, 0.5, 1.0)
        assert isinstance(out, float)
        assert out == pytest.approx(3.0)

    def test_elementwise(self):
        out = adaptive_state_variance(
            np.array([[0.0, 10.0]]), np.array([[0.5, 0.5]]), np.array([1.0, 1.0])
        )
        np.testing.assert_allclose(out, [[0.5, 8.0]])

    def test_rejects_negative_ema(self):
        with pytest.raises(ValueError, match="non-negative"):
            adaptive_state_variance(-1.0, 0.5, 1.0)


class TestAdaptiveParams:
    def test_threshold_formula(self, rng):
        base = rng.uniform(0.1, 2.0, (5, 3))
        obs = rng.uniform(0.5, 1.5, 3)
        params = AdaptiveParams(baseline_state_var=base, obs_var=obs)
        np.testing.assert_allclose(params.threshold, 2.0 * obs[None, :] + base)

    def test_from_model_params(self):
        mp = ModelParams(state_var=np.ones((3, 2)), obs_var=np.array([1.0, 2.0]))
        ap = AdaptiveParams.from_model_params(mp)
        np.testing.assert_array_equal(ap.baseline_state_var, mp.state_var)
        np.testing.assert_array_equal(ap.obs_var, mp.obs_var)

    def test_validation(self):
        with pytest.raises(ValueError, match="baseline_state_var"):
            AdaptiveParams(baseline_state_var=-np.ones((2, 1)), obs_var=np.ones(1))
        with pytest.raises(ValueError, match="obs_var"):
            AdaptiveParams(baseline_state_var=np.ones((2, 1)), obs_var=np.zeros(1))
        with pytest.raises(ValueError, match="columns"):
            AdaptiveParams(baseline_state_var=np.ones((2, 2)), obs_var=np.ones(1))


class TestFilterEquivalence:
    def test_constant_observations_reproduce_fixed_filter(self):
        k, j, m = 12, 3, 2
        coeffs = np.full((k, j, m), 0.3 + 0.4j)
        eig = EigenCoefficients(
            coeffs=coeffs,
            frequencies_hz=np.arange(j, dtype=float),
            window_times_s=np.arange(k, dtype=float),
        )
        ap = make_params(j, m)
        mp = ModelParams(state_var=ap.baseline_state_var, obs_var=ap.obs_var)
        trace_as, sv, _ = assmt_filter(eig, ap)
        trace_ss = filter_all(eig, mp)
        np.testing.assert_allclose(trace_as.means, trace_ss.means, atol=1e-12)
        np.testing.assert_allclose(trace_as.gains, trace_ss.gains, atol=1e-12)
        np.testing.assert_array_equal(sv, np.broadcast_to(ap.baseline_state_var, sv.shape))

    def test_slow_ramp_stays_below_threshold(self):
        # increments of squared size 0.0125 against a threshold of 2.5:
        # the tracker never crosses, so the two filters must agree.
        eig = ramp_eig()
        ap = make_params(3, 2)
        mp = ModelParams(state_var=ap.baseline_state_var, obs_var=ap.obs_var)
        trace_as, sv, _ = assmt_filter(eig, ap, alpha=0.95)
        trace_ss = filter_all(eig, mp)
        assert sv.max() == ap.baseline_state_var.max()
        spect_as = assmt_spectrogram(trace_as)
        spect_ss = ssmt_spectrogram(trace_ss)
        np.testing.assert_allclose(spect_as.power, spect_ss.power, atol=1e-12)

    def test_shared_warm_start_matches_too(self, rng):
        eig = ramp_eig(k=8)
        ap = make_params(3, 2)
        mp = ModelParams(state_var=ap.baseline_state_var, obs_var=ap.obs_var)
        im = eig.coeffs[0]
        iv = np.full((3, 2), 0.7)
        trace_as, _, _ = assmt_filter(eig, ap, init_mean=im, init_var=iv)
        trace_ss = filter_all(eig, mp, init_mean=im, init_var=iv)
        np.testing.assert_allclose(trace_as.means, trace_ss.means, atol=1e-12)


class TestAdaptiveResponse:
    def impulse_eig(self, k=30, k0=20, j=2, m=1, amp=10.0):
        coeffs = np.full((k, j, m), 0.05 + 0.0j)
        coeffs[k0:] = amp
        return EigenCoefficients(
            coeffs=coeffs,
            frequencies_hz=np.arange(j, dtype=float),
            window_times_s=np.arange(k, dtype=float),
        )

    def test_impulse_opens_gain_beyond_steady_state(self):
        k0 = 20
        eig = self.impulse_eig(k0=k0)
        ap = make_params(2, 1, baseline=0.01, obs=1.0)
        trace_as, sv, _ = assmt_filter(eig, ap, alpha=1.0)
        c_inf = steady_state_gain(0.01, 1.0)
        mp = ModelParams(state_var=ap.baseline_state_var, obs_var=ap.obs_var)
        trace_ss = filter_all(eig, mp)
        assert np.all(trace_as.gains[k0] > c_inf)
        assert np.all(trace_as.gains[k0] > trace_ss.gains[k0])

    def test_state_variance_returns_to_baseline_after_jump(self):
        # alpha = 1 forgets instantly: one window after the level settles,
        # the trace is back on the floor.
        k0 = 20
        eig = self.impulse_eig(k0=k0)
        ap = make_params(2, 1, baseline=0.01, obs=1.0)
        _, sv, _ = assmt_filter(eig, ap, alpha=1.0)
        assert np.all(sv[k0] > ap.threshold)
        np.testing.assert_array_equal(sv[k0 + 1 :], np.broadcast_to(0.01, sv[k0 + 1 :].shape))

    def test_first_window_uses_baseline(self, rng):
        eig = make_eig(rng, k=5, j=3, m=2, scale=4.0)
        ap = make_params(3, 2)
        _, sv, _ = assmt_filter(eig, ap)
        np.testing.assert_array_equal(sv[0], ap.baseline_state_var)

    def test_gains_dominate_fixed_filter(self, rng):
        # adaptive state variance is floored at the baseline, so every
        # adaptive gain is at least the fixed-parameter gain.
        for _ in range(20):
            eig = make_eig(
                rng,
                k=int(rng.integers(3, 12)),
                j=int(rng.integers(1, 5)),
                m=int(rng.integers(1, 3)),
                scale=float(10.0 ** rng.uniform(-1, 1)),
            )
            j, m = eig.coeffs.shape[1:]
            ap = AdaptiveParams(
                baseline_state_var=rng.uniform(0.01, 1.0, (j, m)),
                obs_var=rng.uniform(0.1, 2.0, m),
            )
            mp = ModelParams(state_var=ap.baseline_state_var, obs_var=ap.obs_var)
            trace_as, sv, _ = assmt_filter(eig, ap, alpha=float(rng.uniform(0.1, 1.0)))
            trace_ss = filter_all(eig, mp)
            assert np.all(sv >= ap.baseline_state_var[None] - 1e-15)
            assert np.all(trace_as.gains >= trace_ss.gains - 1e-12)


def per_window_assmt(coeffs, params, alpha):
    """Reference adaptive pass: the public tracker and the scalar update, one window at a time."""
    baseline, obs_row = params.baseline_state_var, params.obs_var[None, :]
    mean = np.zeros(baseline.shape, dtype=complex)
    var = baseline.copy()
    tracker = None
    means, variances, gains, state_vars = [], [], [], []
    for k, obs_k in enumerate(coeffs):
        if k == 0:
            state_var = baseline
        else:
            if tracker is None:
                d = obs_k - coeffs[0]
                tracker = NonstationarityTracker(
                    ema=d.real**2 + d.imag**2, alpha=alpha, prev_obs=obs_k
                )
            else:
                tracker = ema_update(tracker, obs_k)
            state_var = adaptive_state_variance(tracker.ema, baseline, obs_row)
        gain = kalman_gain(var, state_var, obs_row)
        mean = mean + gain * (obs_k - mean)
        var = (1.0 - gain) * (var + state_var)
        means.append(mean)
        variances.append(var)
        gains.append(gain)
        state_vars.append(state_var)
    return [np.array(a) for a in (means, variances, gains, state_vars)]


class TestTrackerOracle:
    @pytest.mark.parametrize("k", [1, 2, 3, 30])
    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.95, 1.0])
    def test_matches_per_window_loop(self, rng, k, alpha):
        eig = make_eig(rng, k=k, j=4, m=2)
        ap = AdaptiveParams(
            baseline_state_var=rng.uniform(0.01, 0.5, (4, 2)), obs_var=rng.uniform(0.1, 1.0, 2)
        )
        trace, sv, _ = assmt_filter(eig, ap, alpha=alpha)
        means, variances, gains, state_vars = per_window_assmt(eig.coeffs, ap, alpha)
        assert np.array_equal(sv, state_vars)
        assert np.array_equal(trace.means, means)
        assert np.array_equal(trace.variances, variances)
        assert np.array_equal(trace.gains, gains)
        if k == 30 and alpha > 0:
            # both sides of the threshold are exercised
            raised = sv[1:] > ap.baseline_state_var
            assert raised.any() and not raised.all()


def window_block(eig, first, stop):
    return EigenCoefficients(coeffs=eig.coeffs[first:stop], frequencies_hz=eig.frequencies_hz,
                             window_times_s=eig.window_times_s[first:stop])


class TestResumedBlocks:
    """A record filtered block by block, each block resumed from the last
    posterior and tracker of the one before, gives one call's bits."""

    @pytest.mark.parametrize("cuts", [(1,), (2,), (1, 2, 3), (5, 6, 13), tuple(range(1, 20))])
    @pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0])
    def test_blocks_match_one_call(self, rng, cuts, alpha):
        eig = make_eig(rng, k=20, j=4, m=2)
        ap = AdaptiveParams(
            baseline_state_var=rng.uniform(0.01, 0.5, (4, 2)), obs_var=rng.uniform(0.1, 1.0, 2)
        )
        init_var = rng.uniform(0.1, 1.0, (4, 2))
        whole, sv_whole, end = assmt_filter(eig, ap, alpha=alpha, init_mean=eig.coeffs[0],
                                            init_var=init_var)
        mean, var, tracker = eig.coeffs[0], init_var, None
        parts = []
        for first, stop in zip((0, *cuts), (*cuts, 20)):
            trace, sv, tracker = assmt_filter(window_block(eig, first, stop), ap, alpha=alpha,
                                              init_mean=mean, init_var=var, tracker=tracker)
            mean, var = trace.means[-1], trace.variances[-1]
            parts.append((trace.means, trace.variances, trace.gains, sv))
        for got, want in zip(map(np.concatenate, zip(*parts)),
                             (whole.means, whole.variances, whole.gains, sv_whole)):
            assert got.tobytes() == want.tobytes()
        assert tracker.ema.tobytes() == end.ema.tobytes()
        assert tracker.prev_obs.tobytes() == end.prev_obs.tobytes() == eig.coeffs[-1].tobytes()

    def test_tracker_after_one_window_has_no_average(self, rng):
        eig = make_eig(rng, k=1, j=3, m=2)
        _, sv, tracker = assmt_filter(eig, make_params(3, 2))
        assert tracker.ema is None
        np.testing.assert_array_equal(tracker.prev_obs, eig.coeffs[0])
        np.testing.assert_array_equal(sv[0], make_params(3, 2).baseline_state_var)

    def test_ema_update_seeds_an_empty_average(self, rng):
        prev, obs = make_eig(rng, k=2, j=3, m=2).coeffs
        tracker = ema_update(NonstationarityTracker(ema=None, alpha=0.4, prev_obs=prev), obs)
        d = obs - prev
        assert tracker.ema.tobytes() == (d.real**2 + d.imag**2).tobytes()

    def test_tracker_must_match(self, rng):
        eig = make_eig(rng, k=4, j=3, m=2)
        tracker = assmt_filter(eig, make_params(3, 2), alpha=0.5)[2]
        with pytest.raises(ValueError, match="alpha"):
            assmt_filter(eig, make_params(3, 2), alpha=0.6, tracker=tracker)
        other = assmt_filter(make_eig(rng, k=4, j=4, m=2), make_params(4, 2), alpha=0.5)[2]
        with pytest.raises(ValueError, match="tracker shape"):
            assmt_filter(eig, make_params(3, 2), alpha=0.5, tracker=other)

    def test_overflowing_differences_raise_without_warning(self, rng):
        eig = make_eig(rng, k=5, j=3, m=2, scale=1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflow"):
                assmt_filter(eig, make_params(3, 2))


class CountingArray(np.ndarray):
    """ndarray that counts scalar window reads through __getitem__."""

    def __new__(cls, base):
        obj = np.array(base).view(cls)
        obj.reads = np.zeros(base.shape[0], dtype=int)
        return obj

    def __array_finalize__(self, obj):
        self.reads = getattr(obj, "reads", None)

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)) and self.reads is not None:
            self.reads[key] += 1
        return np.asarray(super().__getitem__(key))


class TestSinglePass:
    def test_each_window_read_once(self, rng):
        eig = make_eig(rng, k=15, j=3, m=2)
        counting = CountingArray(eig.coeffs)
        object.__setattr__(eig, "coeffs", counting)
        assmt_filter(eig, make_params(3, 2))
        np.testing.assert_array_equal(counting.reads, np.ones(15, dtype=int))


class TestValidation:
    def test_params_shape_mismatch(self, rng):
        eig = make_eig(rng, k=4, j=3, m=2)
        with pytest.raises(ValueError, match="match"):
            assmt_filter(eig, make_params(4, 2))

    def test_alpha_range(self, rng):
        eig = make_eig(rng, k=4, j=3, m=2)
        with pytest.raises(ValueError, match="alpha"):
            assmt_filter(eig, make_params(3, 2), alpha=-0.1)

    def test_bad_init(self, rng):
        eig = make_eig(rng, k=4, j=3, m=2)
        with pytest.raises(ValueError, match="init_mean and init_var"):
            assmt_filter(eig, make_params(3, 2), init_mean=np.zeros((2, 2)))
        with pytest.raises(ValueError, match="non-negative"):
            assmt_filter(eig, make_params(3, 2), init_var=-np.ones((3, 2)))

    def test_trace_and_state_var_shapes(self, rng):
        eig = make_eig(rng, k=7, j=4, m=3)
        trace, sv, _ = assmt_filter(eig, make_params(4, 3))
        assert trace.means.shape == (7, 4, 3)
        assert sv.shape == (7, 4, 3)
        np.testing.assert_array_equal(trace.frequencies_hz, eig.frequencies_hz)
