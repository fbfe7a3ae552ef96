"""Per-chain Kalman filtering, EM fitting, and spectrogram assembly."""
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize
from conftest import make_eig
from oracles import (
    allocating_em,
    allocating_forward_pass,
    dense_log_likelihood,
    full_grid_coefficients,
    full_grid_em,
    gaussian_conditioning_means,
    lag_one_covariance_recursion,
    random_walk_realization,
)

from statespec import (
    DB_FLOOR,
    AdaptiveParams,
    EMConfig,
    EigenCoefficients,
    FilterState,
    FilterTrace,
    ModelParams,
    Spectrogram,
    TimeSeries,
    assmt_filter,
    dpss,
    eigen_coefficients,
    em_fit,
    filter_all,
    kalman_gain,
    kalman_step,
    mt_spectrogram,
    segment,
    ssm,
    ssmt_spectrogram,
    steady_state_gain,
)


class TestKalmanStep:
    def test_three_step_hand_computed_sequence(self):
        # state_var = 1/2, obs_var = 1, flat-start prior: every posterior
        # is an exact rational.
        state = FilterState(mean=0.0, variance=0.0, gain=0.0)
        state = kalman_step(state, 1.0, 0.5, 1.0)
        assert state.mean == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert state.variance == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert state.gain == pytest.approx(1.0 / 3.0, abs=1e-15)
        state = kalman_step(state, 1.0j, 0.5, 1.0)
        assert state.mean == pytest.approx(2.0 / 11.0 + 5.0j / 11.0, abs=1e-15)
        assert state.variance == pytest.approx(5.0 / 11.0, abs=1e-15)
        assert state.gain == pytest.approx(5.0 / 11.0, abs=1e-15)
        state = kalman_step(state, -1.0, 0.5, 1.0)
        assert state.mean == pytest.approx(-17.0 / 43.0 + 10.0j / 43.0, abs=1e-15)
        assert state.variance == pytest.approx(21.0 / 43.0, abs=1e-15)
        assert state.gain == pytest.approx(21.0 / 43.0, abs=1e-15)

    def test_rejects_non_finite_observation(self):
        state = FilterState(mean=0.0, variance=1.0, gain=0.5)
        with pytest.raises(ValueError, match="finite"):
            kalman_step(state, complex(np.nan, 0.0), 1.0, 1.0)

    def test_gain_formula(self):
        assert kalman_gain(2.0, 1.0, 3.0) == pytest.approx(0.5)
        assert isinstance(kalman_gain(2.0, 1.0, 3.0), float)

    def test_gain_broadcasts(self):
        gains = kalman_gain(np.array([0.0, 1.0]), 1.0, 1.0)
        np.testing.assert_allclose(gains, [0.5, 2.0 / 3.0])

    def test_gain_rejects_nonpositive_obs_var(self):
        with pytest.raises(ValueError, match="obs_var"):
            kalman_gain(1.0, 1.0, 0.0)

    def test_gain_rejects_negative_variances(self):
        with pytest.raises(ValueError, match="non-negative"):
            kalman_gain(-1.0, 1.0, 1.0)


class TestFilterAll:
    def test_matches_stepwise_recursion(self, rng):
        eig = make_eig(rng, k=5, j=3, m=2)
        params = ModelParams(
            state_var=rng.uniform(0.2, 2.0, (3, 2)),
            obs_var=np.array([1.0, 0.5]),
        )
        trace = filter_all(eig, params)
        for j in range(3):
            for m in range(2):
                state = FilterState(mean=0.0, variance=params.state_var[j, m], gain=0.0)
                for k in range(5):
                    state = kalman_step(
                        state, eig.coeffs[k, j, m], params.state_var[j, m], params.obs_var[m]
                    )
                    assert trace.means[k, j, m] == pytest.approx(state.mean, abs=1e-12)
                    assert trace.variances[k, j, m] == pytest.approx(state.variance, abs=1e-12)
                    assert trace.gains[k, j, m] == pytest.approx(state.gain, abs=1e-12)

    def test_matches_gaussian_conditioning_oracle(self, rng):
        # The filtered mean is the conditional expectation of the joint
        # Gaussian, whatever path computes it.
        for _ in range(25):
            k, j, m = rng.integers(2, 7), rng.integers(1, 5), rng.integers(1, 3)
            eig = make_eig(rng, k=int(k), j=int(j), m=int(m))
            params = ModelParams(
                state_var=rng.uniform(0.05, 3.0, (j, m)),
                obs_var=rng.uniform(0.1, 2.0, m),
            )
            trace = filter_all(eig, params)
            for jj in range(j):
                for mm in range(m):
                    expected = gaussian_conditioning_means(
                        eig.coeffs[:, jj, mm],
                        params.state_var[jj, mm],
                        params.obs_var[mm],
                    )
                    np.testing.assert_allclose(
                        trace.means[:, jj, mm], expected, rtol=1e-8, atol=1e-10
                    )

    def test_variance_and_gain_ignore_observed_values(self, rng):
        params = ModelParams(
            state_var=np.full((4, 2), 0.7), obs_var=np.array([1.0, 2.0])
        )
        a = filter_all(make_eig(rng, k=6, j=4, m=2), params)
        b = filter_all(make_eig(rng, k=6, j=4, m=2, scale=7.0), params)
        np.testing.assert_array_equal(a.variances, b.variances)
        np.testing.assert_array_equal(a.gains, b.gains)
        assert not np.allclose(a.means, b.means)

    def test_warm_start_first_window(self, rng):
        # Starting at the first observation with the observation variance
        # leaves the first filtered mean at that observation.
        eig = make_eig(rng, k=4, j=3, m=2)
        params = ModelParams(
            state_var=rng.uniform(0.1, 1.0, (3, 2)), obs_var=np.array([0.8, 1.1])
        )
        init_var = np.broadcast_to(params.obs_var[None, :], (3, 2)).copy()
        trace = filter_all(eig, params, init_mean=eig.coeffs[0], init_var=init_var)
        np.testing.assert_allclose(trace.means[0], eig.coeffs[0], atol=1e-12)

    def test_shape_mismatch_raises(self, rng):
        eig = make_eig(rng, k=3, j=4, m=2)
        params = ModelParams(state_var=np.ones((3, 2)), obs_var=np.ones(2))
        with pytest.raises(ValueError, match="state_var shape"):
            filter_all(eig, params)

    def test_bad_init_raises(self, rng):
        eig = make_eig(rng, k=3, j=2, m=1)
        params = ModelParams(state_var=np.ones((2, 1)), obs_var=np.ones(1))
        with pytest.raises(ValueError, match="init_mean and init_var"):
            filter_all(eig, params, init_mean=np.zeros((3, 1)))
        with pytest.raises(ValueError, match="non-negative"):
            filter_all(eig, params, init_var=np.full((2, 1), -1.0))


class TestSteadyState:
    def test_golden_ratio_at_unit_ratio(self):
        assert steady_state_gain(1.0, 1.0) == pytest.approx(
            (np.sqrt(5.0) - 1.0) / 2.0, abs=1e-12
        )

    def test_iterated_recursion_converges_to_formula(self, rng):
        for _ in range(10):
            obs_var = 10.0 ** rng.uniform(-2, 2)
            ratio = 10.0 ** rng.uniform(-2, 2)
            state_var = ratio * obs_var
            var = state_var
            gain = 0.0
            for _ in range(200):
                gain = kalman_gain(var, state_var, obs_var)
                var = (1.0 - gain) * (var + state_var)
            assert gain == pytest.approx(
                steady_state_gain(state_var, obs_var), abs=1e-10
            )

    def test_zero_state_var(self):
        assert steady_state_gain(0.0, 1.0) == 0.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="obs_var"):
            steady_state_gain(1.0, 0.0)
        with pytest.raises(ValueError, match="state_var"):
            steady_state_gain(-1.0, 1.0)


def simulate_model(rng, k_windows, state_var, obs_var):
    """Eigen-coefficient block drawn exactly from the random-walk model."""
    j, m = state_var.shape
    coeffs = np.empty((k_windows, j, m), dtype=complex)
    for jj in range(j):
        for mm in range(m):
            _, y = random_walk_realization(
                rng, k_windows, state_var[jj, mm], obs_var[mm]
            )
            coeffs[:, jj, mm] = y
    return EigenCoefficients(
        coeffs=coeffs,
        frequencies_hz=np.arange(j, dtype=float),
        window_times_s=np.arange(k_windows, dtype=float),
    )


class TestEMFit:
    def test_recovers_known_variances(self, rng):
        state_var = np.array([[0.8, 2.0], [1.5, 0.6]])
        obs_var = np.array([1.0, 0.7])
        eig = simulate_model(rng, 2000, state_var, obs_var)
        fit = em_fit(eig, EMConfig(max_iter=200))
        np.testing.assert_allclose(fit.params.state_var, state_var, rtol=0.15)
        np.testing.assert_allclose(fit.params.obs_var, obs_var, rtol=0.15)

    def test_log_likelihood_non_decreasing(self, rng):
        eig = simulate_model(rng, 120, np.array([[0.5], [1.2]]), np.array([0.9]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fit = em_fit(eig, EMConfig(max_iter=60))
        lls = fit.log_likelihoods
        assert np.all(np.diff(lls) >= -1e-8 * np.abs(lls[:-1]))

    def test_warns_when_not_converged(self, rng):
        eig = make_eig(rng, k=30, j=2, m=1)
        with pytest.warns(UserWarning, match="did not converge"):
            em_fit(eig, EMConfig(max_iter=1))

    def test_converges_and_stops_early(self, rng):
        eig = simulate_model(rng, 300, np.array([[1.0]]), np.array([1.0]))
        fit = em_fit(eig, EMConfig(tol=1e-5, max_iter=500))
        assert fit.converged
        assert fit.n_iter < 500
        assert fit.log_likelihoods.size == fit.n_iter

    def test_requires_two_windows(self, rng):
        eig = make_eig(rng, k=1, j=2, m=1)
        with pytest.raises(ValueError, match="two windows"):
            em_fit(eig)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="tol"):
            EMConfig(tol=-1.0)
        with pytest.raises(ValueError, match="max_iter"):
            EMConfig(max_iter=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("max_iter", 2.5),
            ("max_iter", 3.0),
            ("max_iter", True),
            ("max_iter", np.True_),
            ("max_iter", "3"),
            ("max_iter", 1e400),
            ("max_iter", None),
            ("tol", True),
            ("tol", "1e-3"),
            ("tol", float("nan")),
            pytest.param("tol", 10**400, id="tol-int-past-float"),
            ("tol", None),
        ],
    )
    def test_config_rejects_wrong_kinds(self, field, value):
        # a float count would be truncated and a bool or a string misread
        with pytest.raises(ValueError, match=field):
            EMConfig(**{field: value})

    @pytest.mark.parametrize("max_iter", [np.int64(7), np.int32(7), np.uint8(7), 7])
    def test_config_accepts_integer_kinds(self, max_iter):
        config = EMConfig(tol=0, max_iter=max_iter)
        assert config.max_iter == 7 and type(config.max_iter) is int
        assert config.tol == 0.0 and type(config.tol) is float


class TestEMOptimizerOracle:
    """`em_fit` lands on the maximum of the exact likelihood that a generic
    optimizer finds over the log variances, with the first-window prior held
    at EM's own starting point.  An M-step that climbed to another point
    would fail here although its likelihood trace still rose."""

    K, J = 60, 8

    def record(self, seed):
        """One taper's coefficients of a real record whose bins 0..J//2 walk
        with unit step variance under unit white noise."""
        rng = np.random.default_rng(seed)
        shape = (self.K, self.J // 2 + 1)
        steps = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        spectra = np.cumsum(np.sqrt(0.5) * steps, axis=0)
        samples = np.fft.irfft(spectra, n=self.J, axis=1, norm="ortho").ravel()
        samples += rng.standard_normal(samples.size)
        series = TimeSeries(samples=samples, sample_rate_hz=1.0)
        return eigen_coefficients(segment(series, self.J), dpss(self.J, 1.5, 1))

    @pytest.mark.parametrize("seed", [101, 102, 103])
    def test_em_lands_on_the_likelihood_maximum(self, seed):
        eig = self.record(seed)
        coeffs = eig.coeffs
        b_bins, m_tapers = coeffs.shape[1:]
        assert b_bins == 5
        # mirrored bins 1..J - B stand for two grid bins each
        weight = np.ones(b_bins)
        weight[1 : self.J - b_bins + 1] = 2.0
        init_var, obs_start = ssm._moment_init(np.ascontiguousarray(coeffs), weight)
        fit = em_fit(eig, EMConfig(tol=1e-13, max_iter=10_000))
        assert fit.converged
        state_var, obs_var = fit.params.state_var, fit.params.obs_var
        # q/r well inside the boundary, where the maximum is a stationary point
        assert np.all(state_var / obs_var >= 0.1)

        def negative_ll(log_vars):
            variances = np.exp(log_vars)
            return -dense_log_likelihood(coeffs, variances[:-m_tapers].reshape(b_bins, m_tapers),
                                         variances[-m_tapers:], init_var, weight)

        start = np.log(np.r_[init_var.ravel(), obs_start])
        best = minimize(negative_ll, start, method="Nelder-Mead",
                        options={"xatol": 1e-5, "fatol": 1e-8, "maxiter": 20_000,
                                 "maxfev": 20_000})
        assert best.success
        em_point = np.r_[state_var.ravel(), obs_var]
        em_ll = -negative_ll(np.log(em_point))
        # EM's last likelihood is that of the parameters it returns
        assert em_ll == pytest.approx(fit.log_likelihoods[-1], rel=1e-12)
        assert abs(em_ll + best.fun) <= 1e-6 * abs(best.fun)
        np.testing.assert_allclose(em_point, np.exp(best.x), rtol=1e-3)


class TestLagOneCovariance:
    @pytest.mark.parametrize("k", [2, 3, 30])
    def test_closed_form_matches_recursion(self, rng, k):
        # the M-step's increments use Cov(Z_{k+1}, Z_k | all data) = g[k] ps[k+1]
        # in closed form; built instead from the lag-one recursion and a
        # textbook smoother, the state variance agrees to round-off
        j, m = 6, 2
        coeffs = rng.standard_normal((k, j, m)) + 1j * rng.standard_normal((k, j, m))
        state_var = 10.0 ** rng.uniform(-2, 2, (j, m))
        obs_var = 10.0 ** rng.uniform(-2, 2, m)
        init_var = 10.0 ** rng.uniform(-2, 2, (j, m))
        work = ssm._em_buffers(coeffs, np.ones(j))
        ssm._filter_likelihood(coeffs, state_var, obs_var, init_var, work)
        fused, _ = ssm._smooth_m_step(coeffs, state_var, j, work)

        zf, pf, gains = allocating_forward_pass(coeffs, state_var, obs_var, init_var=init_var)
        sgain = pf[:-1] / (pf[:-1] + state_var)
        zs, ps = zf.copy(), pf.copy()
        for t in range(k - 1, -1, -1):
            zs[t] = zf[t] + sgain[t] * (zs[t + 1] - zf[t])
            ps[t] = pf[t] + sgain[t] ** 2 * (ps[t + 1] - pf[t] - state_var)
        cross = lag_one_covariance_recursion(pf, sgain, gains[-1])
        increments = np.abs(zs[1:] - zs[:-1]) ** 2 + ps[:-1] + ps[1:] - 2.0 * cross
        np.testing.assert_allclose(fused, np.maximum(increments.mean(axis=0), 0.0), rtol=1e-12)


def real_signal_eig(rng, j, k_windows=40, m=2):
    """Eigen-coefficients of a real record on ``m`` tapers: two tones in white noise."""
    t = np.arange(k_windows * j)
    samples = (
        np.sin(0.9 * t) + 0.5 * np.cos(0.21 * t + 0.3 * np.sin(0.01 * t))
        + 0.3 * rng.standard_normal(t.size)
    )
    series = TimeSeries(samples=samples, sample_rate_hz=16.0)
    return eigen_coefficients(segment(series, j), dpss(j, 2.0, m))


def full_grid_eig(eig):
    """The same coefficients on all J bins: bins 0..J//2 and their conjugates."""
    j = eig.frequencies_hz.size
    return EigenCoefficients(coeffs=full_grid_coefficients(eig.coeffs, j),
                             frequencies_hz=eig.frequencies_hz,
                             window_times_s=eig.window_times_s)


def fit_quietly(eig, config):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return em_fit(eig, config)


class TestHermitianReduction:
    """EM on a real signal's bins 0..J//2 counts mirrored bins twice: it is
    the fit of all J chains."""

    @pytest.mark.parametrize("j", [24, 25])
    def test_real_signal_matches_full_grid_oracle(self, rng, j):
        eig = real_signal_eig(rng, j)
        fit = fit_quietly(eig, EMConfig(tol=1e-5, max_iter=400))
        state_var, obs_var, lls, converged = full_grid_em(
            full_grid_eig(eig).coeffs, tol=1e-5, max_iter=400
        )
        assert fit.converged and converged
        assert fit.n_iter == lls.size
        assert fit.params.state_var.shape == (j // 2 + 1, 2)
        np.testing.assert_allclose(fit.log_likelihoods, lls, rtol=1e-12)
        np.testing.assert_allclose(fit.params.state_var, state_var[: j // 2 + 1], rtol=1e-9)
        np.testing.assert_allclose(fit.params.obs_var, obs_var, rtol=1e-9)

    def test_fitted_state_var_is_mirror_symmetric(self, rng):
        # every chain of the full grid fitted: bin J - j gets exactly the
        # variance of bin j, which the fit on bins 0..J//2 holds to round-off
        eig = real_signal_eig(rng, 25)
        state_var = fit_quietly(full_grid_eig(eig), EMConfig(max_iter=5)).params.state_var
        assert np.array_equal(state_var[-np.arange(25) % 25], state_var)
        half = fit_quietly(eig, EMConfig(max_iter=5)).params.state_var
        np.testing.assert_allclose(half, state_var[:13], rtol=1e-9)

    @pytest.mark.parametrize("shape", [(6, 4, 2), (9, 7, 3), (30, 16, 1)])
    def test_non_hermitian_input_is_bit_identical(self, rng, shape):
        k, j, m = shape
        eig = make_eig(rng, k=k, j=j, m=m)
        fit = fit_quietly(eig, EMConfig(tol=1e-9, max_iter=40))
        state_var, obs_var, lls, converged = full_grid_em(eig.coeffs, tol=1e-9, max_iter=40)
        assert np.array_equal(fit.params.state_var, state_var)
        assert np.array_equal(fit.params.obs_var, obs_var)
        assert np.array_equal(fit.log_likelihoods, lls)
        assert fit.converged == converged

    @pytest.mark.parametrize(
        "make, bins",
        [
            (lambda rng: real_signal_eig(rng, 24), 13),
            (lambda rng: real_signal_eig(rng, 25), 13),
            (lambda rng: make_eig(rng, k=8, j=24, m=2), 24),
        ],
        ids=["real-even", "real-odd", "complex"],
    )
    def test_e_step_sees_only_distinct_bins(self, rng, monkeypatch, make, bins):
        seen = []
        filter_likelihood, smooth_m_step = ssm._filter_likelihood, ssm._smooth_m_step

        def spy_filter(coeffs, *args):
            seen.append(coeffs.shape[1])
            return filter_likelihood(coeffs, *args)

        def spy_smoother(coeffs, *args):
            seen.append(coeffs.shape[1])
            return smooth_m_step(coeffs, *args)

        monkeypatch.setattr(ssm, "_filter_likelihood", spy_filter)
        monkeypatch.setattr(ssm, "_smooth_m_step", spy_smoother)
        eig = make(rng)
        fit = fit_quietly(eig, EMConfig(max_iter=3))
        assert seen == [bins] * 6
        assert fit.params.state_var.shape == eig.shape[1:]


def same_bits(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    return (actual.dtype == expected.dtype and actual.shape == expected.shape
            and actual.tobytes() == expected.tobytes())


class TestEMWorkingSet:
    """EM allocates its record-sized arrays once per fit and forms every
    iteration's moments in them: the fit is the allocating one's, bit for
    bit, in a few copies of the coefficients."""

    @pytest.mark.parametrize("k", [2, 3, 40])
    @pytest.mark.parametrize(
        "make",
        [
            lambda rng, k: real_signal_eig(rng, 24, k_windows=k),
            lambda rng, k: real_signal_eig(rng, 25, k_windows=k),
            lambda rng, k: make_eig(rng, k=k, j=24, m=2),
        ],
        ids=["real-even", "real-odd", "complex"],
    )
    @pytest.mark.parametrize("tol, max_iter", [(0.0, 6), (1e-6, 3000)], ids=["capped", "converged"])
    def test_matches_allocating_em(self, rng, make, k, tol, max_iter):
        eig = make(rng, k)
        fit = fit_quietly(eig, EMConfig(tol=tol, max_iter=max_iter))
        state_var, obs_var, lls, n_iter, converged = allocating_em(
            eig.coeffs, eig.frequencies_hz.size, tol=tol, max_iter=max_iter
        )
        assert converged == (tol > 0)
        assert fit.converged == converged
        assert fit.n_iter == n_iter
        assert same_bits(fit.params.state_var, state_var)
        assert same_bits(fit.params.obs_var, obs_var)
        assert same_bits(fit.log_likelihoods, lls)

    def test_e_step_smooths_over_the_filters_buffers(self, rng, monkeypatch):
        made = []
        forward_pass = ssm._forward_pass

        def spy(*args, **kwargs):
            made.append(forward_pass(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(ssm, "_forward_pass", spy)
        coeffs = make_eig(rng, k=5, j=4, m=2).coeffs
        state_var = np.full((4, 2), 0.5)
        work = ssm._em_buffers(coeffs, np.ones(4))
        ssm._filter_likelihood(coeffs, state_var, np.ones(2), state_var, work)
        ssm._smooth_m_step(coeffs, state_var, 4, work)
        # the forward pass wrote into the row views of the arrays the smoother
        # and the M-step overwrite, and every gain into one row of the scratch
        means, variances, gains = made[0]
        (zs, ps), _, scratch = work
        assert len(means) == len(variances) == 6
        assert all(row.base is zs for row in means) and all(row.base is ps for row in variances)
        assert len(gains) == 5 and all(row is gains[0] for row in gains)
        assert gains[0].base is scratch[0]

    def test_every_e_step_writes_into_the_fits_buffers(self, rng, monkeypatch):
        made, calls = [], []
        em_buffers = ssm._em_buffers
        filter_likelihood, smooth_m_step = ssm._filter_likelihood, ssm._smooth_m_step

        def spy_buffers(*args):
            made.append(em_buffers(*args))
            return made[-1]

        def spy(step):
            def run(*args):
                calls.append(args[-1])
                return step(*args)
            return run

        monkeypatch.setattr(ssm, "_em_buffers", spy_buffers)
        monkeypatch.setattr(ssm, "_filter_likelihood", spy(filter_likelihood))
        monkeypatch.setattr(ssm, "_smooth_m_step", spy(smooth_m_step))
        eig = real_signal_eig(rng, 24, k_windows=12)
        fit = fit_quietly(eig, EMConfig(tol=0.0, max_iter=5))
        # one set of two record-sized arrays per fit, which every iteration
        # writes into, the row views of the coefficients and of each array,
        # and one block scratch
        assert len(made) == 1 and len(calls) == 10
        arrays, rows, scratch = made[0]
        assert len(arrays) == 2 and len(rows) == 3
        assert all(work is made[0] for work in calls)
        coeffs = rows[0][0].base  # the window-major copy of eig.coeffs
        assert np.array_equal(coeffs, eig.coeffs)
        for array, views in zip((coeffs, *arrays), rows):
            assert len(views) == len(array) and all(row.base is array for row in views)
        # the scratch holds the longest block, here the 12 windows of 13 x 2
        # cells, and the weight block holds each bin's weight: 2 for the
        # bins that stand for their mirrors too
        blocks = (*scratch[:3], scratch[6])
        assert all(block.shape == (12, 13, 2) for block in blocks)
        for block, views in zip(blocks, scratch[3:6]):
            assert len(views) == len(block) and all(row.base is block for row in views)
        weight = np.r_[1.0, np.full(11, 2.0), 1.0]
        assert np.array_equal(scratch[6], np.broadcast_to(weight[:, None], (12, 13, 2)))
        for param in (fit.params.state_var, fit.params.obs_var):
            assert not any(np.shares_memory(param, buffer) for buffer in (*arrays, *blocks))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), step=st.integers(1, 4), m=st.sampled_from([1, 2]),
           windows=st.sampled_from(["one block", "one more", "not a multiple"]),
           signal=st.sampled_from(["complex", "real"]),
           fit=st.sampled_from(["capped", "converged"]))
    def test_m_step_blocks_match_allocating_em(self, seed, step, m, windows, signal, fit):
        # the likelihood terms, the smoother gains and the M-step's moments
        # are made a few windows at a time, on complex input and on a real
        # signal's bins 0..J//2, whose mirrored bins count twice
        k = {"one block": step, "one more": step + 1, "not a multiple": 3 * step - 1}[windows]
        k = max(k, 2)
        rng = np.random.default_rng(seed)
        if signal == "complex":
            eig = make_eig(rng, k=k, j=5, m=m)
        else:
            eig = real_signal_eig(rng, 8, k_windows=k, m=m)
        tol, max_iter = {"capped": (0.0, 4), "converged": (1e-6, 300)}[fit]
        with mock.patch.object(ssm, "_EM_BLOCK_CELLS", step * eig.coeffs.shape[1] * m):
            got = fit_quietly(eig, EMConfig(tol=tol, max_iter=max_iter))
        state_var, obs_var, lls, n_iter, converged = allocating_em(
            eig.coeffs, eig.frequencies_hz.size, tol=tol, max_iter=max_iter)
        assert got.n_iter == n_iter and got.converged == converged
        assert same_bits(got.params.state_var, state_var)
        assert same_bits(got.params.obs_var, obs_var)
        assert same_bits(got.log_likelihoods, lls)

    # (J, K, M) of the fit, and its peak over the coefficients, measured
    # under tracemalloc with numpy 2.4, plus 0.1x for allocator and numpy
    # version differences
    PEAK_BOUNDS = {(216, 100, 2): 2.24 + 0.1, (216, 600, 3): 1.66 + 0.1,
                   (1536, 100, 3): 1.62 + 0.1}

    def test_peak_memory_is_a_few_coefficient_copies(self, rng):
        """Full-record fits at the 600 s benchmark's window count, at an
        hour's and at 256 Hz, on a real signal's bins 0..J//2 in the
        window-major layout the command line passes.  With two record-sized
        arrays per fit, their row views and one block scratch, the first
        measured 2.24x the coefficients; with a third, for the smoother
        gains, 2.50x; with a fourth, scratch array, 2.73x; freeing each
        iteration's moments before the next E-step, 3.5x; the allocating
        EM, which held one iteration's moments while the next E-step ran,
        9.1x."""
        for (j, k, m), bound in self.PEAK_BOUNDS.items():
            eig = real_signal_eig(rng, j, k_windows=k, m=m)
            eig = EigenCoefficients(coeffs=np.ascontiguousarray(eig.coeffs),
                                    frequencies_hz=eig.frequencies_hz,
                                    window_times_s=eig.window_times_s)
            tracemalloc.start()
            try:
                entry = tracemalloc.get_traced_memory()[0]
                fit_quietly(eig, EMConfig(tol=0.0, max_iter=4))
                peak = tracemalloc.get_traced_memory()[1] - entry
            finally:
                tracemalloc.stop()
            ratio = peak / eig.coeffs.nbytes
            assert ratio <= bound, f"EM on {eig.shape} peaked at {ratio:.2f}x its coefficients"


class TestOneForwardRecursion:
    """Every filter on the estimate path runs `ssm._forward_pass`, and it is
    the allocating recursion bit for bit."""

    @pytest.mark.parametrize("caller", ["em_fit", "filter_all", "assmt_filter"])
    def test_caller_runs_the_forward_pass(self, rng, monkeypatch, caller):
        calls = []
        forward_pass = ssm._forward_pass

        def spy(*args, **kwargs):
            calls.append(len(args[0]))
            return forward_pass(*args, **kwargs)

        monkeypatch.setattr(ssm, "_forward_pass", spy)
        eig = make_eig(rng, k=7, j=4, m=2)
        params = ModelParams(state_var=np.full((4, 2), 0.3), obs_var=np.ones(2))
        if caller == "em_fit":
            fit_quietly(eig, EMConfig(tol=0.0, max_iter=3))
        elif caller == "filter_all":
            filter_all(eig, params)
        else:
            assmt_filter(eig, AdaptiveParams.from_model_params(params))
        assert calls == [7] * (3 if caller == "em_fit" else 1)

    @pytest.mark.parametrize("layout", ["window-major", "bins-contiguous"])
    @pytest.mark.parametrize("per_window", [False, True])
    @pytest.mark.parametrize("warm", [False, True])
    def test_matches_allocating_recursion(self, rng, layout, per_window, warm):
        k, j, m = 9, 7, 3
        coeffs = 10.0 ** rng.uniform(-3, 3) * (rng.standard_normal((k, m, j))
                                               + 1j * rng.standard_normal((k, m, j)))
        coeffs = coeffs.transpose(0, 2, 1)
        if layout == "window-major":
            coeffs = np.ascontiguousarray(coeffs)
        state_var = 10.0 ** rng.uniform(-3, 3, (k, j, m) if per_window else (j, m))
        state_var[rng.random(state_var.shape) < 0.2] = 0.0  # zero gains too
        obs_var = 10.0 ** rng.uniform(-3, 3, m)
        init = (coeffs[0], 10.0 ** rng.uniform(-3, 3, (j, m))) if warm else (None, None)
        expected = allocating_forward_pass(coeffs, state_var, obs_var, *init)
        for actual in (ssm._forward_pass(coeffs, state_var, obs_var, *init),
                       ssm._forward_pass(list(coeffs), state_var, obs_var, *init)):
            for got, want in zip(actual, expected):
                assert same_bits(got, want)


class TestSpectrograms:
    def test_white_noise_power_is_variance_over_bins(self, rng):
        sigma = 2.5
        j = 50
        series = TimeSeries(
            samples=sigma * rng.standard_normal(400 * j), sample_rate_hz=float(j)
        )
        eig = eigen_coefficients(segment(series, j), dpss(j, 2.0, 3))
        spect = mt_spectrogram(eig)
        assert spect.power.mean() == pytest.approx(sigma**2 / j, rel=0.03)

    def test_unit_gain_filter_reproduces_mt(self, rng):
        eig = make_eig(rng, k=8, j=6, m=3)
        params = ModelParams(
            state_var=np.ones((6, 3)), obs_var=np.full(3, 1e-12)
        )
        trace = filter_all(eig, params)
        assert trace.gains.min() > 1.0 - 1e-10
        mt = mt_spectrogram(eig)
        ss = ssmt_spectrogram(trace)
        np.testing.assert_allclose(ss.power, mt.power, rtol=1e-9)

    def test_one_sided_grid(self, rng):
        eig = make_eig(rng, k=3, j=8, m=2)
        full = mt_spectrogram(eig)
        half = mt_spectrogram(eig, one_sided=True)
        assert half.power.shape == (3, 5)
        np.testing.assert_array_equal(half.power, full.power[:, :5])
        np.testing.assert_array_equal(half.frequencies_hz, full.frequencies_hz[:5])

    @pytest.mark.parametrize("j", [7, 216])
    def test_one_sided_is_the_full_grid_bit_for_bit(self, rng, j):
        # from bins 0..J//2, the one-sided power and the unfolded full grid
        # are the power of every bin of the conjugate-unfolded coefficients
        series = TimeSeries(samples=rng.standard_normal(20 * j), sample_rate_hz=36.0)
        eig = eigen_coefficients(segment(series, j), dpss(j, 2.0, 3))
        full_eig = full_grid_eig(eig)
        n = j // 2 + 1
        trace = filter_all(eig, ModelParams(state_var=np.full((n, 3), 0.1), obs_var=np.ones(3)))
        full_trace = filter_all(
            full_eig, ModelParams(state_var=np.full((j, 3), 0.1), obs_var=np.ones(3))
        )
        for build, source, full_source in ((mt_spectrogram, eig, full_eig),
                                           (ssmt_spectrogram, trace, full_trace)):
            full = build(full_source).power
            np.testing.assert_array_equal(build(source).power, full)
            np.testing.assert_array_equal(build(source, one_sided=True).power, full[:, :n])

    def test_db_roundtrip(self):
        spect = Spectrogram(
            power=np.array([[1.0, 10.0]]),
            frequencies_hz=np.array([0.0, 1.0]),
            window_times_s=np.array([0.0]),
        )
        db = spect.to_db()
        assert db.scale == "dB"
        np.testing.assert_allclose(db.power, [[0.0, 10.0]])
        back = db.to_linear()
        np.testing.assert_allclose(back.power, spect.power)

    def test_db_floor_clamps_zero_power(self):
        spect = Spectrogram(
            power=np.array([[0.0]]),
            frequencies_hz=np.array([1.0]),
            window_times_s=np.array([0.0]),
        )
        assert spect.to_db().power[0, 0] == pytest.approx(10.0 * np.log10(DB_FLOOR))

    def test_db_of_db_is_itself(self):
        spect = Spectrogram(power=np.array([[-3.0]]), frequencies_hz=np.array([1.0]),
                            window_times_s=np.array([0.0]), scale="dB")
        assert spect.to_db() is spect

    def test_db_past_float_range_is_rejected_without_warning(self):
        # 10 ** 400 overflows: the finiteness check rejects it, and numpy stays quiet
        spect = Spectrogram(
            power=np.array([[4000.0]]),
            frequencies_hz=np.array([1.0]),
            window_times_s=np.array([0.0]),
            scale="dB",
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="power must be finite"):
                spect.to_linear()

    def test_validation(self):
        with pytest.raises(ValueError, match="scale"):
            Spectrogram(
                power=np.ones((1, 1)),
                frequencies_hz=np.array([1.0]),
                window_times_s=np.array([0.0]),
                scale="bels",
            )
        with pytest.raises(ValueError, match="non-negative"):
            Spectrogram(
                power=-np.ones((1, 1)),
                frequencies_hz=np.array([1.0]),
                window_times_s=np.array([0.0]),
            )


class TestParamValidation:
    def test_model_params(self):
        with pytest.raises(ValueError, match="state_var"):
            ModelParams(state_var=-np.ones((2, 1)), obs_var=np.ones(1))
        with pytest.raises(ValueError, match="obs_var"):
            ModelParams(state_var=np.ones((2, 1)), obs_var=np.zeros(1))
        with pytest.raises(ValueError, match="columns"):
            ModelParams(state_var=np.ones((2, 2)), obs_var=np.ones(1))

    @pytest.mark.parametrize("bins, ok", [(6, True), (4, True), (5, False), (3, False)])
    def test_filter_trace_bins(self, bins, ok):
        # the bins of EigenCoefficients: all J of the grid, or J//2 + 1
        values = np.full((2, bins, 1), 0.5)

        def build():
            return FilterTrace(means=values + 0j, variances=values, gains=values,
                               frequencies_hz=np.arange(6.0), window_times_s=np.arange(2.0))

        if ok:
            assert build().shape == (2, bins, 1)
        else:
            with pytest.raises(ValueError, match="bins stored"):
                build()

    def test_filter_state(self):
        with pytest.raises(ValueError, match="gain"):
            FilterState(mean=0.0, variance=1.0, gain=1.5)
        with pytest.raises(ValueError, match="variance"):
            FilterState(mean=0.0, variance=-1.0, gain=0.5)
        for mean in (complex(np.nan, 0.0), complex(0.0, np.inf)):
            with pytest.raises(ValueError, match="mean must be finite"):
                FilterState(mean=mean, variance=1.0, gain=0.5)

    @pytest.mark.parametrize("field", ["variances", "gains"])
    def test_filter_trace_shapes(self, field):
        values = {"means": np.zeros((2, 4, 1), dtype=complex),
                  "variances": np.full((2, 4, 1), 0.5), "gains": np.full((2, 4, 1), 0.5)}
        values[field] = values[field][:, :3]
        with pytest.raises(ValueError, match="share a shape"):
            FilterTrace(**values, frequencies_hz=np.arange(6.0), window_times_s=np.arange(2.0))
