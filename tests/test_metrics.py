"""Divergence scoring between spectrograms."""
import numpy as np
import pytest

from statespec import DivergenceReport, Spectrogram, itakura_saito


def spect(power, freqs=None, scale="linear"):
    power = np.asarray(power, dtype=float)
    if freqs is None:
        freqs = np.arange(power.shape[1], dtype=float)
    return Spectrogram(
        power=power,
        frequencies_hz=np.asarray(freqs, dtype=float),
        window_times_s=np.arange(power.shape[0], dtype=float),
        scale=scale,
    )


class TestItakuraSaito:
    def test_identical_spectra_score_zero(self, rng):
        power = rng.uniform(0.5, 2.0, (4, 6))
        report = itakura_saito(spect(power), spect(power))
        assert report.total == 0.0
        np.testing.assert_array_equal(report.per_window, np.zeros(4))

    def test_constant_ratio_closed_form(self):
        # estimate twice the truth everywhere: each bin contributes
        # 1/2 - ln(1/2) - 1 = ln 2 - 1/2
        truth = np.full((3, 5), 4.0)
        report = itakura_saito(spect(2.0 * truth), spect(truth))
        expected = np.log(2.0) - 0.5
        assert report.total == pytest.approx(expected, abs=1e-12)
        np.testing.assert_allclose(report.per_window, expected, atol=1e-12)

    def test_asymmetric_in_direction(self, rng):
        # underestimating by a factor is worse than overestimating by it
        truth = np.full((2, 4), 1.0)
        over = itakura_saito(spect(10.0 * truth), spect(truth)).total
        under = itakura_saito(spect(truth / 10.0), spect(truth)).total
        assert under > over
        assert under == pytest.approx(10.0 - np.log(10.0) - 1.0, abs=1e-12)
        assert over == pytest.approx(0.1 + np.log(10.0) - 1.0, abs=1e-12)

    def test_total_is_mean_of_per_window(self, rng):
        a = spect(rng.uniform(0.5, 2.0, (5, 7)))
        b = spect(rng.uniform(0.5, 2.0, (5, 7)))
        report = itakura_saito(a, b)
        assert report.total == pytest.approx(report.per_window.mean())
        assert np.all(report.per_window >= 0)

    def test_dc_bin_excluded_by_default(self):
        truth = np.ones((2, 3))
        est = np.ones((2, 3))
        est[:, 0] = 100.0  # wildly wrong at DC only
        freqs = np.array([0.0, 1.0, 2.0])
        report = itakura_saito(spect(est, freqs), spect(truth, freqs))
        assert report.total == 0.0
        np.testing.assert_array_equal(report.bins_used, [False, True, True])

    def test_explicit_mask(self):
        truth = np.ones((2, 3))
        est = np.array([[1.0, 5.0, 1.0], [1.0, 5.0, 1.0]])
        mask = np.array([True, False, True])
        report = itakura_saito(spect(est), spect(truth), bins_used=mask)
        assert report.total == 0.0

    def test_mask_lets_zero_power_pass_outside(self):
        truth = np.ones((1, 2))
        truth_sp = spect(truth)
        est = np.array([[1.0, 0.0]])
        report = itakura_saito(
            spect(est), truth_sp, bins_used=np.array([True, False])
        )
        assert report.total == 0.0

    def test_rejects_db_scale(self):
        a = spect(np.ones((1, 2)))
        b = Spectrogram(
            power=np.ones((1, 2)),
            frequencies_hz=np.array([0.0, 1.0]),
            window_times_s=np.array([0.0]),
            scale="dB",
        )
        with pytest.raises(ValueError, match="linear"):
            itakura_saito(b, a)
        with pytest.raises(ValueError, match="linear"):
            itakura_saito(a, b)

    def test_rejects_shape_and_grid_mismatch(self):
        a = spect(np.ones((2, 3)))
        b = spect(np.ones((2, 4)))
        with pytest.raises(ValueError, match="shapes"):
            itakura_saito(a, b)
        c = spect(np.ones((2, 3)), freqs=[0.0, 1.0, 2.5])
        with pytest.raises(ValueError, match="grids"):
            itakura_saito(a, c)
        # a's windows are at 0 and 1 s
        d = Spectrogram(np.ones((2, 3)), np.arange(3.0), np.array([0.0, 2.0]))
        with pytest.raises(ValueError, match="window times"):
            itakura_saito(a, d)

    def test_rejects_nonpositive_power_in_mask(self):
        truth = spect(np.ones((1, 3)))
        est = np.array([[1.0, 0.0, 1.0]])
        with pytest.raises(ValueError, match="nonpositive"):
            itakura_saito(spect(est), truth)
        bad_truth = np.array([[1.0, -1.0, 1.0]])
        with pytest.raises(ValueError, match="non-negative"):
            itakura_saito(truth, spect(bad_truth))

    def test_rejects_bad_mask(self):
        a = spect(np.ones((1, 3)))
        with pytest.raises(ValueError, match="mask the frequency axis"):
            itakura_saito(a, a, bins_used=np.array([True, False]))
        with pytest.raises(ValueError, match="at least one bin"):
            itakura_saito(a, a, bins_used=np.zeros(3, dtype=bool))


class TestDivergenceReport:
    def test_rejects_negative_per_window(self):
        with pytest.raises(ValueError, match="non-negative"):
            DivergenceReport(
                total=0.0,
                per_window=np.array([-0.1]),
                bins_used=np.array([True]),
            )
