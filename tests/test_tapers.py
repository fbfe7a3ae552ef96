"""Slepian taper banks against the dense concentration operator."""
import warnings

import numpy as np
import pytest
import scipy.signal.windows
from oracles import correlate_concentration, dense_concentration_matrix

from statespec import TaperBank, dpss, tapers


def align_sign(candidate, reference):
    return candidate * np.sign(np.sum(candidate * reference))


class TestAgainstDenseOperator:
    @pytest.mark.parametrize("j", [8, 16, 32])
    def test_tapers_match_dense_eigenvectors(self, j):
        nw = 2.0
        m = 3
        bank = dpss(j, nw, m)
        mat = dense_concentration_matrix(j, nw / j)
        eigvals, eigvecs = np.linalg.eigh(mat)
        for i in range(m):
            expected = eigvecs[:, j - 1 - i]
            got = align_sign(bank.tapers[i], expected)
            np.testing.assert_allclose(got, expected, atol=1e-6)

    @pytest.mark.parametrize("j", [8, 16, 32])
    def test_concentrations_match_dense_eigenvalues(self, j):
        nw = 2.0
        m = 3
        bank = dpss(j, nw, m)
        eigvals = np.linalg.eigvalsh(dense_concentration_matrix(j, nw / j))
        np.testing.assert_allclose(
            bank.concentrations, eigvals[::-1][:m], atol=1e-6
        )


class TestAgainstScipy:
    @pytest.mark.parametrize("j,nw,m", [(64, 2.0, 3), (128, 2.5, 4), (200, 4.0, 5)])
    def test_taper_parity(self, j, nw, m):
        bank = dpss(j, nw, m)
        ref, ratios = scipy.signal.windows.dpss(j, nw, m, return_ratios=True)
        for i in range(m):
            got = align_sign(bank.tapers[i], ref[i])
            np.testing.assert_allclose(got, ref[i], atol=1e-7)
        np.testing.assert_allclose(bank.concentrations, ratios, atol=1e-7)


class TestBankProperties:
    def test_orthonormality_long_window(self):
        bank = dpss(1000, 3.0, 5)
        gram = bank.tapers @ bank.tapers.T
        np.testing.assert_allclose(gram, np.eye(5), atol=1e-8)

    def test_concentrations_sorted_and_near_one(self):
        bank = dpss(600, 2.0, 3)
        assert np.all(np.diff(bank.concentrations) <= 1e-12)
        assert bank.concentrations[0] > 0.999
        assert np.all(bank.concentrations > 0.9)

    def test_sign_convention_reproducible(self):
        with pytest.warns(UserWarning, match="trailing tapers will leak"):
            a = dpss(50, 2.0, 4)
        # two computations, not the one bank handed out twice
        tapers._bank.cache_clear()
        with pytest.warns(UserWarning, match="trailing tapers will leak"):
            b = dpss(50, 2.0, 4)
        assert a is not b
        np.testing.assert_array_equal(a.tapers, b.tapers)
        for row in a.tapers:
            first = np.flatnonzero(np.abs(row) > 1e-13 * np.abs(row).max())[0]
            assert row[first] > 0

    def test_properties(self):
        bank = dpss(40, 2.0, 3)
        assert bank.num_tapers == 3
        assert bank.window_length == 40
        assert bank.time_half_bandwidth == 2.0


class TestBankCache:
    def test_equal_arguments_share_one_read_only_bank(self):
        bank = dpss(64, 2.5, 3)
        assert dpss(64, 2.5, 3) is bank
        assert not bank.tapers.flags.writeable
        assert not bank.concentrations.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            bank.tapers[0, 0] = 1.0

    @pytest.mark.parametrize("other", [(64, 3.0, 3), (65, 2.5, 3), (64, 2.5, 2)])
    def test_other_arguments_give_a_new_bank(self, other):
        bank = dpss(64, 2.5, 3)
        assert dpss(*other) is not bank
        again = dpss(64, 2.5, 3)
        assert again is not bank
        np.testing.assert_array_equal(again.tapers, bank.tapers)
        np.testing.assert_array_equal(again.concentrations, bank.concentrations)


class TestValidation:
    def test_warns_beyond_usable_count(self):
        with pytest.warns(UserWarning, match="well concentrated"):
            dpss(64, 2.0, 4)  # usable bound is floor(2 NW) - 1 = 3

    def test_warns_on_every_call(self):
        for _ in range(3):
            with pytest.warns(UserWarning, match="well concentrated"):
                dpss(64, 2.0, 4)

    def test_no_warning_within_bound(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dpss(64, 2.0, 3)

    @pytest.mark.parametrize(
        "j,nw,m,match",
        [
            (1, 2.0, 1, "window_length_j"),
            (16, 2.0, 0, "num_tapers"),
            (16, 2.0, 16, "num_tapers"),
            (16, 0.0, 1, "time_half_bandwidth"),
            (16, 8.0, 1, "time_half_bandwidth"),
        ],
    )
    def test_rejects_bad_arguments(self, j, nw, m, match):
        with pytest.raises(ValueError, match=match):
            dpss(j, nw, m)

    def test_bank_rejects_non_orthonormal_rows(self):
        tapers = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]) / 1.0
        with pytest.raises(ValueError, match="orthonormal"):
            TaperBank(
                tapers=tapers,
                concentrations=np.array([0.9, 0.8]),
                time_half_bandwidth=1.0,
            )

    def test_bank_rejects_unsorted_concentrations(self):
        tapers = np.eye(2, 4)
        with pytest.raises(ValueError, match="non-increasing"):
            TaperBank(
                tapers=tapers,
                concentrations=np.array([0.5, 0.9]),
                time_half_bandwidth=1.0,
            )


class TestLongWindowConcentrations:
    def test_matches_direct_autocorrelation(self):
        j, nw = 20000, 2.0
        bank = dpss(j, nw, 2)
        expected = [correlate_concentration(row, nw / j) for row in bank.tapers]
        np.testing.assert_allclose(
            1.0 - bank.concentrations, 1.0 - np.array(expected), rtol=1e-4
        )
