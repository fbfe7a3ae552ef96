"""Windowing and tapered-DFT front end."""
import numpy as np
import pytest
from oracles import full_grid_coefficients, one_shot_eigen_coefficients

from statespec import (
    EigenCoefficients,
    GroundTruth,
    TaperBank,
    TimeSeries,
    benchmark_config,
    cli,
    dpss,
    eigen_coefficients,
    segment,
    segmentation,
)


def brute_force_coeffs(windows, tapers):
    """O(J^2) unitary DFT of each tapered window, summed term by term."""
    k_windows, j = windows.shape
    m = tapers.shape[0]
    out = np.zeros((k_windows, j, m), dtype=complex)
    for k in range(k_windows):
        for freq in range(j):
            for taper in range(m):
                acc = 0.0 + 0.0j
                for t in range(j):
                    acc += (
                        windows[k, t]
                        * tapers[taper, t]
                        * np.exp(-2j * np.pi * freq * t / j)
                    )
                out[k, freq, taper] = acc / np.sqrt(j)
    return out


def full_grid_energy(half, j):
    """Energy of all J bins from bins 0..J//2 of a real signal: bins
    1..J - J//2 - 1 also stand for their mirrors."""
    power = np.abs(half) ** 2
    return power.sum() + power[1 : j - half.size + 1].sum()


def assert_same_layout_and_bytes(actual, expected):
    """Same dtype, shape and memory layout, and every value's bits equal."""
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.strides == expected.strides
    assert actual.tobytes() == expected.tobytes()


def unit_bank(j, m):
    """Taper bank whose rows are the first m unit vectors."""
    tapers = np.eye(m, j)
    conc = np.linspace(0.9, 0.8, m)
    return TaperBank(tapers=tapers, concentrations=conc, time_half_bandwidth=1.0)


class TestSegment:
    def test_windows_are_strided_slices(self, rng):
        series = TimeSeries(samples=rng.standard_normal(101), sample_rate_hz=10.0)
        seg = segment(series, 20, hop=7)
        assert seg.num_windows == (101 - 20) // 7 + 1
        # a read-only view of the samples, not a copy
        assert np.shares_memory(seg.windows, series.samples)
        assert not seg.windows.flags.writeable
        for k in range(seg.num_windows):
            np.testing.assert_array_equal(
                seg.windows[k], series.samples[k * 7 : k * 7 + 20]
            )

    def test_default_hop_is_non_overlapping(self, rng):
        series = TimeSeries(samples=rng.standard_normal(60), sample_rate_hz=10.0)
        seg = segment(series, 15)
        assert seg.hop == 15
        assert seg.num_windows == 4

    def test_trailing_samples_dropped(self, rng):
        series = TimeSeries(samples=rng.standard_normal(64), sample_rate_hz=8.0)
        seg = segment(series, 10)
        assert seg.num_windows == 6

    def test_demean_removes_window_means(self, rng):
        series = TimeSeries(
            samples=rng.standard_normal(50) + 5.0, sample_rate_hz=10.0
        )
        seg = segment(series, 10, demean=True)
        np.testing.assert_allclose(seg.windows.mean(axis=1), 0.0, atol=1e-12)

    def test_demean_does_not_mutate_source(self, rng):
        samples = rng.standard_normal(30) + 2.0
        series = TimeSeries(samples=samples, sample_rate_hz=10.0)
        before = series.samples.copy()
        segment(series, 10, demean=True)
        np.testing.assert_array_equal(series.samples, before)

    def test_too_short_signal_raises(self):
        series = TimeSeries(samples=np.ones(5), sample_rate_hz=1.0)
        with pytest.raises(ValueError, match="insufficient data"):
            segment(series, 6)

    @pytest.mark.parametrize("hop", [0, -1, 11])
    def test_hop_out_of_range_raises(self, hop):
        series = TimeSeries(samples=np.ones(30), sample_rate_hz=1.0)
        with pytest.raises(ValueError, match="hop"):
            segment(series, 10, hop=hop)

    def test_zero_window_raises(self):
        series = TimeSeries(samples=np.ones(30), sample_rate_hz=1.0)
        with pytest.raises(ValueError, match="window_length_j"):
            segment(series, 0)


class TestWindowGridRule:
    """`segment`, the simulated truth and the CLI's settings share one window
    grid rule: they reject the same grids with the same text."""

    @pytest.fixture(scope="class")
    def config(self):
        return benchmark_config(duration_s=10.0)

    @pytest.mark.parametrize(
        "n, j, hop, match",
        [
            (30, 0, 1, "window_length_j"),
            (30, 10, 0, "hop"),
            (30, 10, 11, "hop"),
            (9, 10, 10, "insufficient data"),
        ],
        ids=["J=0", "hop=0", "hop=J+1", "n=J-1"],
    )
    def test_same_rejection_everywhere(self, config, tmp_path, capsys, n, j, hop, match):
        with pytest.raises(ValueError, match=match) as cut:
            segment(TimeSeries(samples=np.ones(n), sample_rate_hz=1.0), j, hop)
        truth = GroundTruth(config=config, noise_var=0.0, n_samples=n)
        with pytest.raises(ValueError, match=match) as simulated:
            truth.spectrogram(j, hop)
        with pytest.raises(cli.ConfigError, match=match) as settings:
            cli._check_window_grid(j, hop, n)
        assert str(cut.value) == str(simulated.value) == str(settings.value)
        if match == "hop":
            with pytest.raises(ValueError, match=match) as segmented:
                segmentation.SegmentedSeries(windows=np.ones((1, j)), window_length_j=j,
                                             hop=hop, sample_rate_hz=1.0)
            assert str(segmented.value) == str(cut.value)
        if match == "insufficient data":
            # an estimate on the record names it before the same text, and exits 3
            signal = tmp_path / "signal.csv"
            signal.write_text("1\n" * n)
            capsys.readouterr()
            code = cli.main(["estimate", "--input", str(signal), "--sample-rate", "1",
                             "--window-seconds", str(j), "--out-dir", str(tmp_path / "out")])
            assert code == cli.EXIT_DATA
            assert capsys.readouterr().err.splitlines() == [f"error: {signal}: {cut.value}"]


class TestTimeSeries:
    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="nonempty"):
            TimeSeries(samples=np.array([]), sample_rate_hz=1.0)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            TimeSeries(samples=np.array([1.0, np.nan]), sample_rate_hz=1.0)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError, match="sample_rate_hz"):
            TimeSeries(samples=np.ones(4), sample_rate_hz=0.0)

    def test_duration(self):
        series = TimeSeries(samples=np.ones(250), sample_rate_hz=50.0)
        assert series.duration_s == pytest.approx(5.0)


class TestEigenCoefficients:
    def test_matches_brute_force_dft(self, rng):
        series = TimeSeries(samples=rng.standard_normal(48), sample_rate_hz=16.0)
        seg = segment(series, 16, hop=8)
        bank = dpss(16, 2.0, 3)
        eig = eigen_coefficients(seg, bank)
        expected = brute_force_coeffs(seg.windows, bank.tapers)
        np.testing.assert_allclose(eig.coeffs, expected[:, : 16 // 2 + 1], atol=1e-9)

    def test_parseval_energy(self, rng):
        series = TimeSeries(samples=rng.standard_normal(96), sample_rate_hz=32.0)
        seg = segment(series, 32)
        bank = dpss(32, 2.0, 3)
        eig = eigen_coefficients(seg, bank)
        for k in range(seg.num_windows):
            for m in range(bank.num_tapers):
                tapered = seg.windows[k] * bank.tapers[m]
                assert full_grid_energy(eig.coeffs[k, :, m], 32) == pytest.approx(
                    np.sum(tapered**2), abs=1e-9
                )

    def test_conjugate_symmetry_for_real_input(self, rng):
        # the stored bins 0..J//2 and their conjugates in bins J - j are the
        # complex transform of the tapered windows
        series = TimeSeries(samples=rng.standard_normal(40), sample_rate_hz=8.0)
        seg = segment(series, 20)
        bank = dpss(20, 2.0, 2)
        eig = eigen_coefficients(seg, bank)
        j = 20
        full = np.fft.fft(seg.windows[:, :, None] * bank.tapers.T[None], axis=1, norm="ortho")
        np.testing.assert_allclose(full_grid_coefficients(eig.coeffs, j), full, atol=1e-12)
        for freq in range(1, j):
            np.testing.assert_allclose(
                full[:, freq, :], np.conj(full[:, j - freq, :]), atol=1e-12
            )

    @pytest.mark.parametrize("j", [20, 21])
    def test_exactly_hermitian_for_real_input(self, rng, j):
        # bins 0..J//2 are stored, and the bins that are their own mirror,
        # 0 and J/2 for even J, are exactly real
        series = TimeSeries(samples=rng.standard_normal(5 * j), sample_rate_hz=8.0)
        coeffs = eigen_coefficients(segment(series, j), dpss(j, 2.0, 3)).coeffs
        assert coeffs.shape == (5, j // 2 + 1, 3)
        self_mirrored = [0, j // 2] if j % 2 == 0 else [0]
        assert np.all(coeffs[:, self_mirrored].imag == 0.0)

    @pytest.mark.parametrize("j", [16, 17], ids=["even-J", "odd-J"])
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 3, 4, 5, 9], ids=lambda k: f"K={k}")
    def test_blocks_match_one_transform_bit_for_bit(self, rng, monkeypatch, j, m, k):
        # four windows per block: K = 1, block - 1, block, block + 1, and
        # two full blocks plus one window
        monkeypatch.setattr(segmentation, "_BLOCK_VALUES", 4 * j * m)
        series = TimeSeries(samples=rng.standard_normal(k * j), sample_rate_hz=8.0)
        seg = segment(series, j)
        bank = dpss(j, 2.0, m)
        expected = one_shot_eigen_coefficients(seg.windows, bank.tapers)
        assert_same_layout_and_bytes(eigen_coefficients(seg, bank).coeffs, expected)

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_default_blocks_match_one_transform_bit_for_bit(self, rng, extra):
        j, m = 16, 2
        k = segmentation._BLOCK_VALUES // (j * m) + extra
        series = TimeSeries(samples=rng.standard_normal(k * j + 5), sample_rate_hz=8.0)
        seg = segment(series, j, hop=j, demean=True)
        bank = dpss(j, 2.0, m)
        expected = one_shot_eigen_coefficients(seg.windows, bank.tapers)
        assert_same_layout_and_bytes(eigen_coefficients(seg, bank).coeffs, expected)

    def test_linearity(self, rng):
        x = rng.standard_normal(36)
        y = rng.standard_normal(36)
        bank = dpss(12, 2.0, 2)

        def coeffs_of(samples):
            series = TimeSeries(samples=samples, sample_rate_hz=12.0)
            return eigen_coefficients(segment(series, 12), bank).coeffs

        combined = coeffs_of(2.0 * x - 3.0 * y)
        np.testing.assert_allclose(
            combined, 2.0 * coeffs_of(x) - 3.0 * coeffs_of(y), atol=1e-10
        )

    def test_unit_taper_bank_hand_case(self):
        # Identity-row tapers pick out single samples, so every bin holds
        # sample/sqrt(J) times a unit phasor.
        series = TimeSeries(samples=np.array([3.0, -1.0, 2.0, 5.0]), sample_rate_hz=4.0)
        eig = eigen_coefficients(segment(series, 4), unit_bank(4, 2))
        j = 4
        assert eig.shape == (1, j // 2 + 1, 2)
        for freq in range(j // 2 + 1):
            assert eig.coeffs[0, freq, 0] == pytest.approx(3.0 / 2.0)
            expected = -1.0 * np.exp(-2j * np.pi * freq / j) / 2.0
            assert eig.coeffs[0, freq, 1] == pytest.approx(expected)

    def test_frequency_grid_convention(self, rng):
        series = TimeSeries(samples=rng.standard_normal(30), sample_rate_hz=10.0)
        eig = eigen_coefficients(segment(series, 10), dpss(10, 2.0, 2))
        np.testing.assert_allclose(eig.frequencies_hz, np.arange(10) / 10.0 * 10.0)

    def test_window_times_are_centers(self, rng):
        series = TimeSeries(samples=rng.standard_normal(40), sample_rate_hz=10.0)
        eig = eigen_coefficients(segment(series, 10, hop=5), dpss(10, 2.0, 2))
        np.testing.assert_allclose(
            eig.window_times_s, (np.arange(7) * 5 + 5.0) / 10.0
        )

    def test_taper_length_mismatch_raises(self, rng):
        series = TimeSeries(samples=rng.standard_normal(40), sample_rate_hz=10.0)
        seg = segment(series, 10)
        with pytest.raises(ValueError, match="does not match"):
            eigen_coefficients(seg, dpss(12, 2.0, 2))

    @pytest.mark.parametrize("j, bins", [(6, 6), (6, 4), (7, 7), (7, 4), (1, 1), (2, 2)])
    def test_stores_every_bin_or_the_distinct_half(self, rng, j, bins):
        coeffs = rng.standard_normal((2, bins, 1)) + 0j
        eig = EigenCoefficients(coeffs=coeffs, frequencies_hz=np.arange(float(j)),
                                window_times_s=np.arange(2.0))
        assert eig.shape == (2, bins, 1)

    @pytest.mark.parametrize("j, bins", [(6, 1), (6, 3), (6, 5), (6, 7), (7, 3), (7, 5), (7, 8)])
    def test_rejects_any_other_bin_count(self, rng, j, bins):
        coeffs = rng.standard_normal((2, bins, 1)) + 0j
        with pytest.raises(ValueError, match="bins stored"):
            EigenCoefficients(coeffs=coeffs, frequencies_hz=np.arange(float(j)),
                              window_times_s=np.arange(2.0))

    def test_validation_rejects_mismatched_axes(self, rng):
        coeffs = rng.standard_normal((2, 3, 1)) + 0j
        with pytest.raises(ValueError, match="frequencies_hz"):
            EigenCoefficients(
                coeffs=coeffs,
                frequencies_hz=np.arange(2.0),
                window_times_s=np.arange(2.0),
            )
