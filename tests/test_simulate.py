"""Signal generators and their closed-form spectra."""
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import arma_recursion_loop, poly_rows_loop

from statespec import (
    GroundTruth,
    PoleZeroSchedule,
    SimulationConfig,
    ar_coefficients,
    benchmark_config,
    dpss,
    eigen_coefficients,
    gen_ar,
    gen_arma_tv,
    gen_benchmark,
    gen_regime_switch,
    mt_spectrogram,
    segment,
)
from statespec import simulate


def analytic_ar_spectrum(coeffs, freqs_hz, fs, innovation_std=1.0):
    a = np.r_[1.0, -np.atleast_1d(coeffs)]
    z = np.exp(-2j * np.pi * np.outer(freqs_hz, np.arange(a.size)) / fs)
    return innovation_std**2 / np.abs(z @ a) ** 2


class TestArCoefficients:
    def test_single_pair_closed_form(self):
        fs = 50.0
        f, r = 5.0, 0.9
        phi = ar_coefficients([f], [r], fs)
        theta = 2.0 * np.pi * f / fs
        np.testing.assert_allclose(phi, [2.0 * r * np.cos(theta), -(r**2)], atol=1e-14)

    def test_two_pairs_convolve(self):
        fs = 40.0
        one = np.r_[1.0, -ar_coefficients([3.0], [0.8], fs)]
        two = np.r_[1.0, -ar_coefficients([9.0], [0.7], fs)]
        both = ar_coefficients([3.0, 9.0], [0.8, 0.7], fs)
        np.testing.assert_allclose(np.r_[1.0, -both], np.convolve(one, two), atol=1e-14)


class TestGenAr:
    def test_zero_coefficient_is_white_noise(self, rng):
        series = gen_ar([0.0], 400.0, 50.0, rng)
        x = series.samples
        assert x.size == 20000
        assert np.var(x) == pytest.approx(1.0, rel=0.05)
        lag1 = np.corrcoef(x[:-1], x[1:])[0, 1]
        assert abs(lag1) < 0.03

    def test_ar1_stationary_variance(self, rng):
        series = gen_ar([0.9], 1000.0, 50.0, rng)
        assert np.var(series.samples) == pytest.approx(1.0 / (1.0 - 0.81), rel=0.10)

    def test_pole_cluster_peaks_at_design_frequency(self, rng):
        fs = 100.0
        coeffs = ar_coefficients([10.6, 11.0, 11.4], [0.98] * 3, fs)
        series = gen_ar(coeffs, 120.0, fs, rng)
        spect = mt_spectrogram(
            eigen_coefficients(segment(series, 512), dpss(512, 2.0, 3)), one_sided=True
        )
        mean_power = spect.power.mean(axis=0)
        peak_hz = spect.frequencies_hz[np.argmax(mean_power)]
        assert abs(peak_hz - 11.0) <= 0.5

    def test_innovation_std_scales_linearly(self):
        a = gen_ar([0.7], 10.0, 20.0, np.random.default_rng(3), innovation_std=1.0)
        b = gen_ar([0.7], 10.0, 20.0, np.random.default_rng(3), innovation_std=2.5)
        np.testing.assert_allclose(b.samples, 2.5 * a.samples, rtol=1e-12)

    def test_unstable_rejected(self, rng):
        with pytest.raises(ValueError, match="unstable"):
            gen_ar([1.01], 1.0, 10.0, rng)

    def test_too_short_rejected(self, rng):
        with pytest.raises(ValueError, match="at least one sample"):
            gen_ar([0.5], 0.001, 10.0, rng)

    def test_matches_analytic_spectrum_in_band(self, rng):
        # averaged multitaper estimate against |1/A|^2, within 1 dB where
        # the spectrum carries meaningful power
        fs = 50.0
        coeffs = ar_coefficients([5.0], [0.9], fs)
        series = gen_ar(coeffs, 1200.0, fs, rng)
        spect = mt_spectrogram(
            eigen_coefficients(segment(series, 256), dpss(256, 2.0, 3)), one_sided=True
        )
        est = spect.power.mean(axis=0) * 256.0
        truth = analytic_ar_spectrum(coeffs, spect.frequencies_hz, fs)
        band = truth >= truth.max() / 100.0
        db_err = 10.0 * np.log10(est[band] / truth[band])
        assert np.max(np.abs(db_err)) < 1.0


class TestPoleZeroSchedule:
    def make(self):
        return PoleZeroSchedule(
            times_s=np.array([0.0, 10.0]),
            pole_freqs_hz=np.array([[5.0], [15.0]]),
            pole_radii=np.array([[0.9], [0.9]]),
        )

    def test_linear_interpolation_and_held_endpoints(self):
        sched = self.make()
        a_rows, b_rows = sched.coefficient_rows(np.array([-1.0, 0.0, 5.0, 10.0, 99.0]), 50.0)
        np.testing.assert_array_equal(a_rows[0], a_rows[1])
        np.testing.assert_array_equal(a_rows[3], a_rows[4])
        mid = ar_coefficients([10.0], [0.9], 50.0)
        np.testing.assert_allclose(a_rows[2], np.r_[1.0, -mid], atol=1e-12)
        np.testing.assert_array_equal(b_rows, np.ones((5, 1)))

    def test_orders_and_max_radius(self):
        sched = PoleZeroSchedule(
            times_s=np.array([0.0]),
            pole_freqs_hz=np.array([[2.0, 8.0, 9.0]]),
            pole_radii=np.array([[0.5, 0.6, 0.7]]),
            zero_freqs_hz=np.array([[1.0]]),
            zero_radii=np.array([[0.3]]),
        )
        assert sched.ar_order == 6
        assert sched.ma_order == 2
        assert sched.max_pole_radius == pytest.approx(0.7)

    def test_validation(self):
        with pytest.raises(ValueError, match="increasing"):
            PoleZeroSchedule(
                times_s=np.array([1.0, 1.0]),
                pole_freqs_hz=np.ones((2, 1)),
                pole_radii=np.full((2, 1), 0.5),
            )
        with pytest.raises(ValueError, match="pole radii"):
            PoleZeroSchedule(
                times_s=np.array([0.0]),
                pole_freqs_hz=np.ones((1, 1)),
                pole_radii=np.ones((1, 1)),
            )
        with pytest.raises(ValueError, match="pole arrays"):
            PoleZeroSchedule(
                times_s=np.array([0.0]),
                pole_freqs_hz=np.ones((1, 2)),
                pole_radii=np.full((1, 1), 0.5),
            )
        with pytest.raises(ValueError, match="zero arrays"):
            PoleZeroSchedule(
                times_s=np.array([0.0]),
                pole_freqs_hz=np.ones((1, 1)),
                pole_radii=np.full((1, 1), 0.5),
                zero_freqs_hz=np.ones((2, 1)),
                zero_radii=np.full((2, 1), 0.5),
            )
        with pytest.raises(ValueError, match="at least one breakpoint"):
            PoleZeroSchedule(
                times_s=np.array([]),
                pole_freqs_hz=np.zeros((0, 1)),
                pole_radii=np.zeros((0, 1)),
            )


def assert_same_bits(actual, expected):
    assert actual.dtype == expected.dtype
    assert np.array_equal(actual, expected)
    assert np.array_equal(np.signbit(actual), np.signbit(expected))


def recursion_case(rng, n, p, q):
    """Time-varying monic rows (stable: sum |a_i| < 1) and innovations,
    with zeros of both signs in the innovations and the coefficients."""
    a_rows = np.c_[np.ones(n), rng.uniform(-0.9, 0.9, (n, p)) / max(p, 1)]
    b_rows = np.c_[np.ones(n), rng.uniform(-1.0, 1.0, (n, q))]
    w = rng.standard_normal(n)
    w[::7] = -0.0
    w[3::11] = 0.0
    a_rows[5::13, 1:] = 0.0
    b_rows[2::9, 1:] = -0.0
    return a_rows, b_rows, w


def row_source(a_rows, b_rows):
    """`simulate._run_recursion`'s coefficient callable over whole-record
    (n, order + 1) rows: each block's rows, lag-major."""
    return lambda start, stop: (a_rows[start:stop].T, b_rows[start:stop].T)


class TestRunRecursion:
    """The blocked recursion against the per-sample loop, bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 5, 4095, 4096, 4097, 9000])
    @pytest.mark.parametrize("p", [0, 1, 3, 6])
    @pytest.mark.parametrize("q", [0, 1, 4, 8])
    def test_matches_loop(self, n, p, q):
        rng = np.random.default_rng([n, p, q])
        a_rows, b_rows, w = recursion_case(rng, n, p, q)
        assert_same_bits(simulate._run_recursion(row_source(a_rows, b_rows), w),
                         arma_recursion_loop(a_rows, b_rows, w))
        # constant rows, broadcast as gen_ar passes them
        a_const = np.broadcast_to(a_rows[:1], a_rows.shape)
        b_const = np.broadcast_to(b_rows[:1], b_rows.shape)
        assert_same_bits(simulate._run_recursion(row_source(a_const, b_const), w),
                         arma_recursion_loop(a_const, b_const, w))

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 40),
        p=st.integers(0, 6),
        q=st.integers(0, 6),
        block=st.integers(1, 9),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_short_records_match_loop(self, n, p, q, block, seed):
        a_rows, b_rows, w = recursion_case(np.random.default_rng(seed), n, p, q)
        expected = arma_recursion_loop(a_rows, b_rows, w)
        # a small block size puts block boundaries inside short records
        with mock.patch.object(simulate, "_RECURSION_BLOCK", block):
            assert_same_bits(simulate._run_recursion(row_source(a_rows, b_rows), w), expected)

    @pytest.mark.parametrize("pairs", [0, 1, 2, 3])
    def test_poly_rows_match_loop(self, pairs):
        rng = np.random.default_rng(pairs)
        freqs = rng.uniform(0.0, 20.0, (500, pairs))
        radii = rng.uniform(0.0, 0.99, (500, pairs))
        radii[::17] = 0.0
        # lag-major: one row per lag, one column per time
        assert_same_bits(simulate._poly_rows(freqs.T, radii.T, 40.0),
                         poly_rows_loop(freqs, radii, 40.0).T)


class TestArKernel:
    """The unrolled per-order kernels against the per-sample loop, bit for bit."""

    @pytest.mark.parametrize("q", [0, 3])
    @pytest.mark.parametrize("p", [2, 4, 5, 8, 12])
    def test_matches_loop_around_warm_up(self, p, q):
        # n < p never reaches a kernel; n = p ends with the warm-up;
        # n = p + 1 gives the kernel one sample; 2 blocks + p crosses a block edge
        for n in (p - 1, p, p + 1, 2 * simulate._RECURSION_BLOCK + p):
            a_rows, b_rows, w = recursion_case(np.random.default_rng([n, p, q]), n, p, q)
            assert_same_bits(simulate._run_recursion(row_source(a_rows, b_rows), w),
                             arma_recursion_loop(a_rows, b_rows, w))
            a_const = np.broadcast_to(a_rows[:1], a_rows.shape)
            b_const = np.broadcast_to(b_rows[:1], b_rows.shape)
            assert_same_bits(simulate._run_recursion(row_source(a_const, b_const), w),
                             arma_recursion_loop(a_const, b_const, w))

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 40),
        p=st.integers(0, 12),
        q=st.integers(0, 4),
        block=st.integers(1, 9),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_short_blocks_match_loop(self, n, p, q, block, seed):
        a_rows, b_rows, w = recursion_case(np.random.default_rng(seed), n, p, q)
        expected = arma_recursion_loop(a_rows, b_rows, w)
        # blocks shorter than the order put block edges inside and right after the warm-up
        with mock.patch.object(simulate, "_RECURSION_BLOCK", block):
            assert_same_bits(simulate._run_recursion(row_source(a_rows, b_rows), w), expected)

    @pytest.mark.parametrize("p", [1, 2, 5, 6, 8, 12])
    def test_constant_kernel_matches_loop(self, p):
        # n = p ends with the warm-up; n = p + 1 gives the kernel one sample;
        # 2 blocks + p + 3 crosses two block edges
        for n in (p, p + 1, 2 * simulate._RECURSION_BLOCK + p + 3):
            a_rows, b_rows, w = recursion_case(np.random.default_rng([n, p, 7]), n, p, 2)
            a_const = np.broadcast_to(a_rows[:1], a_rows.shape)
            a_full = np.ascontiguousarray(a_const)
            expected = arma_recursion_loop(a_const, b_rows, w)
            kinds = []
            for a in (a_const, a_full):
                with mock.patch.object(simulate, "_ar_kernel",
                                       wraps=simulate._ar_kernel) as spy:
                    assert_same_bits(simulate._run_recursion(row_source(a, b_rows), w), expected)
                kinds.append({call.args for call in spy.call_args_list})
            # broadcast rows bind their coefficients once; the same values in
            # full rows run the time-varying kernel, to the same bits
            assert kinds == ([set(), set()] if n == p else [{(p, True)}, {(p, False)}])

    def test_odd_order_through_gen_ar(self):
        coeffs = np.r_[ar_coefficients([3.0, 7.0], [0.8, 0.7], 40.0), 0.01]
        # one block, then three: the constant kernel carries its lags across block edges
        for duration_s in (30.0, 250.0):
            series = gen_ar(coeffs, duration_s, 40.0, np.random.default_rng(4))
            rng = np.random.default_rng(4)
            burn = simulate._burn_in(simulate._pole_radius(coeffs), coeffs.size)
            w = rng.standard_normal(series.samples.size + burn)
            a_rows = np.broadcast_to(np.r_[1.0, -coeffs], (w.size, coeffs.size + 1))
            expected = arma_recursion_loop(a_rows, np.ones((w.size, 1)), w)[burn:]
            assert_same_bits(series.samples, expected)
        assert w.size > 2 * simulate._RECURSION_BLOCK

    def test_kernel_compiled_once_per_order(self):
        for constant in (False, True):
            assert simulate._ar_kernel(5, constant) is simulate._ar_kernel(5, constant)
            assert simulate._ar_kernel(5, constant) is not simulate._ar_kernel(6, constant)
        assert simulate._ar_kernel(5, True) is not simulate._ar_kernel(5, False)

    def test_import_compiles_no_kernel(self):
        src = str(Path(simulate.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run(
            [sys.executable, "-c",
             "import statespec.cli, statespec.simulate as s; "
             "print(s._ar_kernel.cache_info().currsize); "
             "s.gen_benchmark(s.benchmark_config(duration_s=10.0)); "
             "print(s._ar_kernel.cache_info().currsize)"],
            capture_output=True, text=True, env=env, check=True, timeout=60,
        )
        # none at import; the benchmark's two bands then compile the
        # constant and the time-varying kernel of order 6
        assert result.stdout.split() == ["0", "2"]


class TestGenArmaTv:
    @pytest.mark.parametrize("block", [3, 50, 4096])
    def test_matches_whole_record_rows(self, block):
        # the schedule evaluated over the whole record, burn-in rows repeated
        # from t = 0, and the per-sample loop: block edges fall inside the
        # burn-in, on its end and in the record
        fs = 40.0
        sched = PoleZeroSchedule(
            times_s=np.array([0.0, 6.0, 20.0]),
            pole_freqs_hz=np.array([[2.0, 9.0], [5.0, 12.0], [3.0, 15.0]]),
            pole_radii=np.array([[0.9, 0.5], [0.8, 0.7], [0.95, 0.6]]),
            zero_freqs_hz=np.array([[1.0], [4.0], [18.0]]),
            zero_radii=np.array([[0.4], [0.9], [0.2]]),
        )
        with mock.patch.object(simulate, "_RECURSION_BLOCK", block):
            series = gen_arma_tv(sched, 20.0, fs, np.random.default_rng(9), 0.5)
        n = series.samples.size
        burn = simulate._burn_in(sched.max_pole_radius, sched.ar_order)
        a_rows, b_rows = sched.coefficient_rows(np.arange(n) / fs, fs)
        a_rows = np.vstack([np.repeat(a_rows[:1], burn, axis=0), a_rows])
        b_rows = np.vstack([np.repeat(b_rows[:1], burn, axis=0), b_rows])
        w = 0.5 * np.random.default_rng(9).standard_normal(n + burn)
        assert_same_bits(series.samples, arma_recursion_loop(a_rows, b_rows, w)[burn:])

    def test_coefficient_rows_are_time_major(self):
        sched = benchmark_config(duration_s=60.0).arma_schedule
        a_rows, b_rows = sched.coefficient_rows(np.array([0.0, 10.0, 59.0]), 36.0)
        assert a_rows.shape == (3, 7) and b_rows.shape == (3, 5)
        assert a_rows.flags.c_contiguous and b_rows.flags.c_contiguous
        assert np.all(a_rows[:, 0] == 1.0) and np.all(b_rows[:, 0] == 1.0)

    def test_constant_schedule_reduces_to_gen_ar(self):
        fs = 50.0
        sched = PoleZeroSchedule(
            times_s=np.array([0.0]),
            pole_freqs_hz=np.array([[3.0]]),
            pole_radii=np.array([[0.8]]),
        )
        a = gen_arma_tv(sched, 20.0, fs, np.random.default_rng(7))
        b = gen_ar(ar_coefficients([3.0], [0.8], fs), 20.0, fs, np.random.default_rng(7))
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_swept_ridge_tracks_schedule(self, rng):
        fs = 50.0
        sched = PoleZeroSchedule(
            times_s=np.array([0.0, 120.0]),
            pole_freqs_hz=np.array([[5.0], [15.0]]),
            pole_radii=np.full((2, 1), 0.92),
        )
        series = gen_arma_tv(sched, 120.0, fs, rng)
        spect = mt_spectrogram(
            eigen_coefficients(segment(series, 128), dpss(128, 2.0, 3)), one_sided=True
        )
        ridge = spect.frequencies_hz[np.argmax(spect.power[:, 1:], axis=1) + 1]
        expected = np.interp(spect.window_times_s, [0.0, 120.0], [5.0, 15.0])
        err = np.abs(ridge - expected)
        assert np.median(err) <= 0.5
        assert np.mean(err <= 1.5) >= 0.9

    def test_zeros_notch_the_spectrum(self, rng):
        # a hard zero on the unit circle kills power at its frequency
        fs = 40.0
        sched = PoleZeroSchedule(
            times_s=np.array([0.0]),
            pole_freqs_hz=np.array([[4.0]]),
            pole_radii=np.array([[0.7]]),
            zero_freqs_hz=np.array([[10.0]]),
            zero_radii=np.array([[0.99]]),
        )
        series = gen_arma_tv(sched, 400.0, fs, rng)
        spect = mt_spectrogram(
            eigen_coefficients(segment(series, 200), dpss(200, 2.0, 3)), one_sided=True
        )
        mean_power = spect.power.mean(axis=0)
        notch = np.argmin(np.abs(spect.frequencies_hz - 10.0))
        ref = np.argmin(np.abs(spect.frequencies_hz - 4.0))
        assert mean_power[notch] < mean_power[ref] / 100.0


class TestGenRegimeSwitch:
    def test_exact_power_scaling(self):
        flat = gen_regime_switch([1.0], [], 30.0, 20.0, [0.6], np.random.default_rng(5))
        jump = gen_regime_switch(
            [1.0, 100.0], [10.0], 30.0, 20.0, [0.6], np.random.default_rng(5)
        )
        n_switch = 200
        np.testing.assert_array_equal(jump.samples[:n_switch], flat.samples[:n_switch])
        np.testing.assert_allclose(
            jump.samples[n_switch:], 10.0 * flat.samples[n_switch:], rtol=1e-12
        )

    def test_band_power_jump_in_db(self, rng):
        fs = 50.0
        series = gen_regime_switch(
            [1.0, 100.0], [150.0], 300.0, fs, ar_coefficients([8.0], [0.9], fs), rng
        )
        spect = mt_spectrogram(
            eigen_coefficients(segment(series, 250), dpss(250, 2.0, 3)), one_sided=True
        )
        power = spect.power.mean(axis=1)
        low = power[spect.window_times_s < 150.0].mean()
        high = power[spect.window_times_s > 150.0].mean()
        assert 10.0 * np.log10(high / low) == pytest.approx(20.0, abs=1.0)

    def test_validation(self, rng):
        with pytest.raises(ValueError, match="strictly positive"):
            gen_regime_switch([0.0, 1.0], [5.0], 10.0, 10.0, [0.5], rng)
        with pytest.raises(ValueError, match="one more level"):
            gen_regime_switch([1.0, 2.0], [], 10.0, 10.0, [0.5], rng)
        with pytest.raises(ValueError, match="inside the record"):
            gen_regime_switch([1.0, 2.0], [20.0], 10.0, 10.0, [0.5], rng)
        with pytest.raises(ValueError, match="inside the record"):
            gen_regime_switch([1.0, 2.0, 3.0], [5.0, 3.0], 10.0, 10.0, [0.5], rng)


class TestBenchmark:
    def test_peak_memory_is_a_few_records(self):
        """With blocks short beside the record, the peak is set by record-long
        arrays: the 300 s record peaked at 6.2x its bytes with the schedule
        evaluated per block, 30x with coefficient rows over the whole record."""
        cfg = benchmark_config(duration_s=300.0, seed=1)
        with mock.patch.object(simulate, "_RECURSION_BLOCK", 256):
            tracemalloc.start()
            try:
                entry = tracemalloc.get_traced_memory()[0]
                series, _ = gen_benchmark(cfg)
                peak = tracemalloc.get_traced_memory()[1] - entry
            finally:
                tracemalloc.stop()
        ratio = peak / series.samples.nbytes
        assert ratio <= 8.0, f"gen_benchmark peaked at {ratio:.1f}x its record"

    def test_dft_bases_are_read_only_and_built_once(self):
        basis = simulate._dft_basis(7, 8192)
        assert not basis.flags.writeable
        assert simulate._dft_basis(7, 8192) is basis
        with pytest.raises(ValueError, match="read-only"):
            basis[0, 0] = 0.0

    @pytest.mark.parametrize("duration_s, sample_rate_hz, snr_db",
                             [(600.0, 36.0, 30.0), (45.0, 256.0, 12.0)])
    def test_config_same_bits_from_cold_and_warm_bases(self, duration_s, sample_rate_hz, snr_db):
        simulate._dft_basis.cache_clear()
        cold = benchmark_config(duration_s=duration_s, sample_rate_hz=sample_rate_hz,
                                snr_db=snr_db)
        assert simulate._dft_basis.cache_info().currsize > 0
        warm = benchmark_config(duration_s=duration_s, sample_rate_hz=sample_rate_hz,
                                snr_db=snr_db)
        assert_same_bits(np.array([warm.arma_innovation_std, warm.ar_innovation_std]),
                         np.array([cold.arma_innovation_std, cold.ar_innovation_std]))
        assert_same_bits(warm.ar_coeffs, cold.ar_coeffs)

    def test_deterministic(self):
        cfg = benchmark_config(duration_s=30.0, seed=11)
        a, _ = gen_benchmark(cfg)
        b, _ = gen_benchmark(cfg)
        np.testing.assert_array_equal(a.samples, b.samples)
        c, _ = gen_benchmark(benchmark_config(duration_s=30.0, seed=12))
        assert not np.array_equal(a.samples, c.samples)

    def test_realized_snr(self):
        cfg = benchmark_config(duration_s=60.0, seed=2)
        clean_cfg = SimulationConfig(
            duration_s=cfg.duration_s,
            sample_rate_hz=cfg.sample_rate_hz,
            ar_coeffs=cfg.ar_coeffs,
            arma_schedule=cfg.arma_schedule,
            carrier_freq_hz=cfg.carrier_freq_hz,
            snr_db=np.inf,
            rng_seed=cfg.rng_seed,
            ar_innovation_std=cfg.ar_innovation_std,
            arma_innovation_std=cfg.arma_innovation_std,
        )
        clean, clean_truth = gen_benchmark(clean_cfg)
        assert clean_truth.noise_var == 0.0
        noisy, truth = gen_benchmark(cfg)
        snr = 10.0 * np.log10(np.mean(clean.samples**2) / truth.noise_var)
        assert snr == pytest.approx(30.0, abs=0.1)

    def test_config_structure(self):
        cfg = benchmark_config()
        assert cfg.carrier_freq_hz == pytest.approx(0.02)
        assert cfg.snr_db == pytest.approx(30.0)
        sched = cfg.arma_schedule
        assert sched.times_s[0] == 0.0
        assert sched.times_s[-1] == pytest.approx(cfg.duration_s)
        assert abs(np.mean(sched.pole_freqs_hz[0]) - 2.0) < 1.0
        assert abs(np.mean(sched.pole_freqs_hz[-1]) - 8.0) < 1.0

    def test_envelope_modulates_truth(self):
        # with the swept band silenced, the true power at the narrowband
        # peak must reproduce the window-averaged squared carrier
        cfg0 = benchmark_config(duration_s=120.0)
        cfg = SimulationConfig(
            duration_s=cfg0.duration_s,
            sample_rate_hz=cfg0.sample_rate_hz,
            ar_coeffs=cfg0.ar_coeffs,
            arma_schedule=cfg0.arma_schedule,
            carrier_freq_hz=cfg0.carrier_freq_hz,
            snr_db=cfg0.snr_db,
            rng_seed=0,
            arma_innovation_std=1e-9,
        )
        _, truth = gen_benchmark(cfg)
        fs = cfg.sample_rate_hz
        j = int(round(6.0 * fs))
        spect = truth.spectrogram(j, one_sided=True)
        peak_bin = np.argmin(np.abs(spect.frequencies_hz - 11.0))
        profile = spect.power[:, peak_bin]
        starts = np.arange(spect.power.shape[0]) * j
        t = (starts[:, None] + np.arange(j)[None, :]) / fs
        env2 = np.mean(np.cos(2.0 * np.pi * 0.02 * t) ** 2, axis=1)
        np.testing.assert_allclose(profile / profile.max(), env2 / env2.max(), rtol=1e-6)

    def test_truth_grid_matches_estimator_grid(self):
        cfg = benchmark_config(duration_s=30.0)
        series, truth = gen_benchmark(cfg)
        j = int(round(6.0 * cfg.sample_rate_hz))
        eig = eigen_coefficients(segment(series, j), dpss(j, 2.0, 3))
        spect = mt_spectrogram(eig, one_sided=True)
        tru = truth.spectrogram(j, one_sided=True)
        assert tru.power.shape == spect.power.shape
        np.testing.assert_allclose(tru.frequencies_hz, spect.frequencies_hz)
        np.testing.assert_allclose(tru.window_times_s, spect.window_times_s)
        assert np.all(tru.power > 0)

    def test_truth_validation(self):
        cfg = benchmark_config(duration_s=10.0)
        _, truth = gen_benchmark(cfg)
        with pytest.raises(ValueError, match="hop"):
            truth.spectrogram(100, hop=0)
        with pytest.raises(ValueError, match="hop"):
            truth.spectrogram(100, hop=200)
        with pytest.raises(ValueError, match="insufficient data"):
            truth.spectrogram(10**7)

    def test_simulation_config_validation(self):
        sched = PoleZeroSchedule(
            times_s=np.array([0.0]),
            pole_freqs_hz=np.array([[1.0]]),
            pole_radii=np.array([[0.5]]),
        )
        with pytest.raises(ValueError, match="positive"):
            SimulationConfig(
                duration_s=0.0, sample_rate_hz=10.0, ar_coeffs=np.array([0.5]),
                arma_schedule=sched,
            )
        with pytest.raises(ValueError, match="stable"):
            SimulationConfig(
                duration_s=1.0, sample_rate_hz=10.0, ar_coeffs=np.array([1.5]),
                arma_schedule=sched,
            )
        with pytest.raises(ValueError, match="carrier"):
            SimulationConfig(
                duration_s=1.0, sample_rate_hz=10.0, ar_coeffs=np.array([0.5]),
                arma_schedule=sched, carrier_freq_hz=-1.0,
            )

    @pytest.mark.parametrize(
        "setting, named",
        [({"carrier_freq_hz": 1e306}, "carrier_freq_hz"), ({"carrier_freq_hz": np.nan}, "carrier"),
         ({"snr_db": 1e308}, "snr_db"), ({"snr_db": 3083.0}, "snr_db"),
         ({"snr_db": -4000.0}, "snr_db"), ({"snr_db": -np.inf}, "snr_db"),
         ({"snr_db": np.nan}, "snr_db")],
    )
    def test_settings_whose_arithmetic_overflows_are_rejected(self, setting, named):
        # 2 pi f t past the float range over 60 s, or an SNR with no power
        # ratio 10^(snr / 10) in it: rejected before anything is generated
        cfg = benchmark_config(duration_s=60.0)
        with pytest.raises(ValueError, match=named):
            SimulationConfig(duration_s=60.0, sample_rate_hz=cfg.sample_rate_hz,
                             ar_coeffs=cfg.ar_coeffs, arma_schedule=cfg.arma_schedule,
                             **setting)

    @pytest.mark.parametrize(
        "setting", [{"carrier_freq_hz": np.nan}, {"carrier_freq_hz": np.inf},
                    {"carrier_freq_hz": -np.inf}, {"snr_db": np.nan}],
    )
    def test_non_finite_carrier_and_nan_snr_say_so(self, setting):
        # not "overflows the carrier's phase" or a power ratio out of range
        cfg = benchmark_config(duration_s=60.0)
        with pytest.raises(ValueError, match="must be finite"):
            SimulationConfig(duration_s=60.0, sample_rate_hz=cfg.sample_rate_hz,
                             ar_coeffs=cfg.ar_coeffs, arma_schedule=cfg.arma_schedule,
                             **setting)

    def test_snr_in_the_float_range_and_noise_free_are_accepted(self):
        for snr_db in (3082.0, -3082.0, np.inf):
            cfg = benchmark_config(duration_s=60.0)
            SimulationConfig(duration_s=60.0, sample_rate_hz=cfg.sample_rate_hz,
                             ar_coeffs=cfg.ar_coeffs, arma_schedule=cfg.arma_schedule,
                             snr_db=snr_db)
