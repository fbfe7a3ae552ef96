"""End-to-end runs of the command line, in process."""
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
import weakref
from contextlib import closing, redirect_stderr
from dataclasses import MISSING, asdict, fields
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import full_grid_estimate

import statespec
from statespec import cli, io, ssm
from statespec.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, main

FS = 32.0


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    code = main([
        "simulate", "--out-dir", str(out), "--seed", "3",
        "--duration", "90", "--sample-rate", str(FS),
    ])
    assert code == EXIT_OK
    return out


def not_reached(*args, **kwargs):
    raise AssertionError("work started under an invalid setting")


def estimate(out, sim_dir, method, *extra):
    return main([
        "estimate", "--input", str(sim_dir / "signal.csv"),
        "--sample-rate", str(FS), "--method", method,
        "--out-dir", str(out), "--scale", "linear", *extra,
    ])


class TestSimulate:
    def test_outputs_exist(self, sim_dir):
        for name in ("signal.csv", "truth_spectrogram.csv", "truth_frequencies.csv",
                     "truth_times.csv", "manifest.json"):
            assert (sim_dir / name).exists()
        samples = io.read_signal(sim_dir / "signal.csv")
        assert samples.size == int(90 * FS)

    def test_manifest_replay_is_bit_identical(self, sim_dir, tmp_path):
        replay = tmp_path / "replay"
        code = main([
            "simulate", "--from-manifest", str(sim_dir / "manifest.json"),
            "--out-dir", str(replay),
        ])
        assert code == EXIT_OK
        assert (replay / "signal.csv").read_bytes() == (sim_dir / "signal.csv").read_bytes()

    def test_bad_overlap_is_config_error(self, tmp_path):
        code = main(["simulate", "--out-dir", str(tmp_path / "x"), "--overlap", "1.0"])
        assert code == EXIT_CONFIG
        assert not (tmp_path / "x").exists()

    def test_missing_out_dir_is_config_error(self):
        assert main(["simulate"]) == EXIT_CONFIG

    @pytest.mark.parametrize("edit", ["empty", "unknown-key"])
    def test_replay_config_keys_checked(self, sim_dir, tmp_path, edit):
        stored = io.read_manifest(sim_dir / "manifest.json")
        if edit == "empty":
            stored["config"] = {}
        else:
            stored["config"]["bogus"] = 1
        manifest = tmp_path / "manifest.json"
        io.write_manifest(manifest, stored)
        out = tmp_path / "replay"
        code = main(["simulate", "--from-manifest", str(manifest), "--out-dir", str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value",
        [("duration_s", "x"), ("overlap", "0.5"), ("window_seconds", "6"), ("seed", 1.5),
         ("out_dir", 7), pytest.param("duration_s", 10**400, id="duration_s-1e400-int")],
    )
    def test_replay_config_value_types_checked(self, sim_dir, tmp_path, key, value):
        stored = io.read_manifest(sim_dir / "manifest.json")
        stored["config"][key] = value
        if key != "out_dir":
            stored["config"]["out_dir"] = str(tmp_path / "replay")
        manifest = tmp_path / "manifest.json"
        io.write_manifest(manifest, stored)
        code = main(["simulate", "--from-manifest", str(manifest)])
        assert code == EXIT_CONFIG
        assert not (tmp_path / "replay").exists()

    # values of the wrong type that compare like the right one: each of these
    # once ran to exit 0 (seed 1 for true, a full grid for "no")
    @pytest.mark.parametrize(
        "key, value",
        [("seed", True), ("full_grid", "no"), ("full_grid", 0), ("overlap", False),
         ("window_seconds", True), ("carrier_freq_hz", False)],
    )
    def test_replay_config_value_kinds_checked(self, sim_dir, tmp_path, monkeypatch, capsys,
                                               key, value):
        monkeypatch.setattr(cli, "gen_benchmark", not_reached)
        stored = io.read_manifest(sim_dir / "manifest.json")
        stored["config"][key] = value
        stored["config"]["out_dir"] = str(tmp_path / "replay")
        manifest = tmp_path / "manifest.json"
        io.write_manifest(manifest, stored)
        code = main(["simulate", "--from-manifest", str(manifest)])
        assert code == EXIT_CONFIG
        assert key in capsys.readouterr().err
        assert not (tmp_path / "replay").exists()

    @pytest.mark.parametrize(
        "flag, value, named",
        [("--duration", "inf", "duration"), ("--sample-rate", "inf", "sample rate"),
         ("--window-seconds", "inf", "window seconds"), ("--snr-db", "nan", "snr_db"),
         ("--carrier-freq-hz", "nan", "carrier"), ("--carrier-freq-hz", "inf", "carrier")],
    )
    def test_non_finite_setting_is_config_error(self, tmp_path, monkeypatch, capsys,
                                                 flag, value, named):
        monkeypatch.setattr(cli, "gen_benchmark", not_reached)
        out = tmp_path / "x"
        code = main(["simulate", "--out-dir", str(out), "--duration", "30", flag, value])
        assert code == EXIT_CONFIG
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "setting, named",
        [("--carrier-freq-hz=1e306", "carrier_freq_hz"), ("--snr-db=1e308", "snr_db"),
         ("--snr-db=-1e308", "snr_db"), ("--seed=-1", "seed")],
    )
    def test_out_of_range_setting_is_one_config_error(self, tmp_path, monkeypatch, capsys,
                                                      setting, named):
        # 2 pi f t over 60 s, or the SNR as a power ratio, past the float range;
        # a seed the generator refuses
        monkeypatch.setattr(cli, "gen_benchmark", not_reached)
        out = tmp_path / "x"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["simulate", "--out-dir", str(out), "--duration", "60", setting])
        assert code == EXIT_CONFIG
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and named in lines[0]
        assert not out.exists()
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize(
        "flag, value",
        [("--carrier-freq-hz", "nan"), ("--carrier-freq-hz", "inf"), ("--snr-db", "nan")],
    )
    def test_non_finite_carrier_or_snr_is_named_by_the_simulator(self, tmp_path, monkeypatch,
                                                                 capsys, flag, value):
        # SimulationConfig alone checks them: not as a phase or power ratio
        # that overflows
        monkeypatch.setattr(cli, "gen_benchmark", not_reached)
        out = tmp_path / "x"
        code = main(["simulate", "--out-dir", str(out), "--duration", "30", flag, value])
        assert code == EXIT_CONFIG
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and "must be finite" in lines[0]
        assert "overflow" not in lines[0] and "outside the float range" not in lines[0]
        assert not out.exists()

    def test_record_sample_count_out_of_range_is_named(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "gen_benchmark", not_reached)
        code = main(["simulate", "--out-dir", str(tmp_path / "x"), "--duration", "1e308",
                     "--sample-rate", "1e10"])
        assert code == EXIT_CONFIG
        assert "record sample count out of range" in capsys.readouterr().err

    @pytest.mark.parametrize("window_seconds", ["0", "-1", "5000"])
    def test_window_grid_checked_before_generation(self, tmp_path, monkeypatch, capsys,
                                                   window_seconds):
        monkeypatch.setattr(cli, "gen_benchmark", not_reached)
        out = tmp_path / "x"
        code = main(["simulate", "--out-dir", str(out), "--duration", "3600",
                     "--window-seconds", window_seconds])
        assert code == EXIT_CONFIG
        assert "window" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("hop", [0, 217])
    def test_hop_outside_window_rejected(self, hop):
        # --overlap in [0, 1) keeps the hop in range, so check the rule itself
        with pytest.raises(cli.ConfigError, match="hop"):
            cli._check_window_grid(216, hop, 21600)

    # SHA-256 of the files `simulate` wrote before its recursion was
    # vectorized; a record must not change by one bit across versions
    # (on the same numpy, BLAS and libm, which fix the last bits of the
    # cosines and the truth's matrix products).
    @pytest.mark.parametrize(
        "extra, digests",
        [
            ((), {
                "signal.csv":
                    "7e856311da3eddf45026ea74d27d4de15d3f57e55e4945c2f749cbe3b18734dd",
                "truth_spectrogram.csv":
                    "759d35177dadb71316b23c04b1fa98b6cf47bacbbc33564ef812a25bea88885d",
            }),
            (("--format", "bin", "--full-grid"), {
                "signal.f64":
                    "d122721cc21860aba6d4974108c77608976f2ffa3e397b876a5fa98e4ad2d8db",
                "truth_spectrogram.f32":
                    "4fbb1ff194385a159806739493402d13a9ccfb2f591333fe115d56622330b858",
            }),
        ],
        ids=["csv", "bin-full-grid"],
    )
    def test_output_bytes_pinned(self, tmp_path, extra, digests):
        out = tmp_path / "sim"
        code = main(["simulate", "--out-dir", str(out), "--duration", "30", "--seed", "11",
                     *extra])
        assert code == EXIT_OK
        for name, digest in digests.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


class TestEstimate:
    def test_mt_outputs(self, sim_dir, tmp_path):
        out = tmp_path / "mt"
        assert estimate(out, sim_dir, "mt") == EXIT_OK
        power, meta = io.read_matrix_csv(out / "spectrogram.csv")
        freqs = io.read_vector_csv(out / "frequencies.csv")
        assert meta["scale"] == "linear"
        assert power.shape == (15, int(6 * FS) // 2 + 1)
        assert freqs.size == power.shape[1]
        manifest = io.read_manifest(out / "manifest.json")
        assert manifest["config"]["method"] == "mt"

    def test_ssmt_outputs_parameters(self, sim_dir, tmp_path):
        out = tmp_path / "ssmt"
        with pytest.warns(UserWarning, match="em_fit did not converge"):
            assert estimate(out, sim_dir, "ssmt") == EXIT_OK
        state_var, _ = io.read_matrix_csv(out / "state_var.csv")
        obs_var = io.read_vector_csv(out / "obs_var.csv")
        # parameters live on the full frequency grid, not the one-sided one
        assert state_var.shape == (int(6 * FS), 3)
        assert obs_var.size == 3
        assert np.all(obs_var > 0)
        em = io.read_manifest(out / "manifest.json")["em"]
        lls = np.asarray(em["log_likelihoods"])
        assert np.all(np.diff(lls) >= -1e-8 * np.abs(lls[:-1]))

    def test_assmt_outputs_state_var_trace(self, sim_dir, tmp_path):
        out = tmp_path / "assmt"
        with pytest.warns(UserWarning, match="em_fit did not converge"):
            assert estimate(out, sim_dir, "assmt", "--baseline-seconds", "45") == EXIT_OK
        trace, _ = io.read_matrix_csv(out / "state_var_trace_taper0.csv")
        half = int(6 * FS) // 2 + 1
        assert trace.shape == (15, half)
        base, _ = io.read_matrix_csv(out / "state_var.csv")
        assert np.all(trace >= base[:half, 0][None, :] - 1e-12)

    @pytest.mark.parametrize("grid", [(), ("--full-grid",)], ids=["one-sided", "full-grid"])
    def test_trace_columns_follow_frequencies(self, sim_dir, tmp_path, grid):
        out = tmp_path / "assmt"
        assert estimate(out, sim_dir, "assmt", "--baseline-seconds", "45", "--em-tol", "1e-4",
                        *grid) == EXIT_OK
        freqs = io.read_vector_csv(out / "frequencies.csv")
        traces = sorted(out.glob("*_trace_taper*.csv"))
        assert [path.name for path in traces] == [f"state_var_trace_taper{m}.csv"
                                                  for m in range(3)]
        for path in traces:
            assert io.read_matrix_csv(path)[1]["cols"] == str(freqs.size), path.name

    def test_estimate_manifest_replay(self, sim_dir, tmp_path):
        first = tmp_path / "first"
        with pytest.warns(UserWarning, match="em_fit did not converge"):
            assert estimate(first, sim_dir, "ssmt") == EXIT_OK
        second = tmp_path / "second"
        with pytest.warns(UserWarning, match="em_fit did not converge"):
            code = main([
                "estimate", "--from-manifest", str(first / "manifest.json"),
                "--out-dir", str(second),
            ])
        assert code == EXIT_OK
        assert (second / "spectrogram.csv").read_bytes() == (first / "spectrogram.csv").read_bytes()

    def test_assmt_without_baseline_is_config_error(self, sim_dir, tmp_path):
        code = estimate(tmp_path / "x", sim_dir, "assmt")
        assert code == EXIT_CONFIG
        assert not (tmp_path / "x").exists()

    def test_bad_overlap_is_config_error(self, sim_dir, tmp_path):
        code = estimate(tmp_path / "x", sim_dir, "mt", "--overlap", "1.5")
        assert code == EXIT_CONFIG

    def test_missing_input_is_data_error(self, tmp_path):
        code = main([
            "estimate", "--input", str(tmp_path / "nope.csv"),
            "--sample-rate", "32", "--out-dir", str(tmp_path / "out"),
        ])
        assert code == EXIT_DATA
        assert not (tmp_path / "out").exists()

    def test_empty_input_leaves_no_outputs(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        out = tmp_path / "out"
        code = main([
            "estimate", "--input", str(empty),
            "--sample-rate", "32", "--out-dir", str(out),
        ])
        assert code == EXIT_DATA
        assert not out.exists()

    def test_window_longer_than_record_is_data_error(self, sim_dir, tmp_path):
        code = estimate(tmp_path / "x", sim_dir, "mt", "--window-seconds", "5000")
        assert code == EXIT_DATA

    def test_missing_required_flags_is_config_error(self):
        assert main(["estimate", "--method", "mt"]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "method, flag, named",
        [("mt", "--sample-rate", "sample rate"), ("mt", "--window-seconds", "window length"),
         ("ssmt", "--baseline-seconds", "baseline seconds")],
    )
    def test_non_finite_setting_is_config_error(self, sim_dir, tmp_path, monkeypatch, capsys,
                                                 method, flag, named):
        monkeypatch.setattr(io, "read_signal", not_reached)
        out = tmp_path / "x"
        code = main([
            "estimate", "--input", str(sim_dir / "signal.csv"), "--sample-rate", str(FS),
            "--method", method, "--out-dir", str(out), flag, "inf",
        ])
        assert code == EXIT_CONFIG
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, named", [("--window-seconds", "window"), ("--baseline-seconds", "baseline")]
    )
    def test_sample_count_out_of_range_is_named(self, sim_dir, tmp_path, monkeypatch, capsys,
                                                flag, named):
        monkeypatch.setattr(io, "read_signal", not_reached)
        out = tmp_path / "x"
        code = main([
            "estimate", "--input", str(sim_dir / "signal.csv"), "--sample-rate", "1e300",
            "--method", "ssmt", "--out-dir", str(out), "--window-seconds", "1e-299",
            flag, "1e10",
        ])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"error: {named} sample count out of range")
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value",
        [("input_path", 5), ("output_dir", 7),
         pytest.param("sample_rate_hz", 10**400, id="sample_rate_hz-1e400-int"),
         pytest.param("window_seconds", 10**400, id="window_seconds-1e400-int"),
         pytest.param("baseline_seconds", 10**400, id="baseline_seconds-1e400-int"),
         pytest.param("nw", 10**400, id="nw-1e400-int"),
         pytest.param("em_tol", 10**400, id="em_tol-1e400-int"),
         pytest.param("tapers", 10**400, id="tapers-1e400-int")],
    )
    def test_replay_config_value_types_checked(self, sim_dir, tmp_path, monkeypatch, key, value):
        monkeypatch.setattr(io, "read_signal", not_reached)
        monkeypatch.chdir(tmp_path)
        config = cli.RunConfig(
            method="ssmt", input_path=str(sim_dir / "signal.csv"),
            output_dir=str(tmp_path / "replay"), sample_rate_hz=FS, baseline_seconds=45.0,
        )
        stored = {"command": "estimate", "version": statespec.__version__,
                  "config": {**asdict(config), key: value}}
        io.write_manifest(tmp_path / "manifest.json", stored)
        code = main(["estimate", "--from-manifest", str(tmp_path / "manifest.json")])
        assert code == EXIT_CONFIG
        assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]

    # values of the wrong type that compare like the right one: each of these
    # once ran to exit 0 with a different meaning (2 tapers for 2.5, CSV for
    # an input format of 5 or "txt", true for "no" or [1])
    @pytest.mark.parametrize(
        "key, value",
        [("tapers", 2.5), ("tapers", True), ("em_max_iter", 1.5), ("em_max_iter", True),
         ("input_format", 5), ("input_format", "txt"), ("one_sided", "no"), ("one_sided", 1),
         ("demean", [1]), ("sample_rate_hz", True), ("window_seconds", True),
         ("overlap_fraction", False), ("nw", True), ("alpha", True), ("em_tol", False)],
    )
    def test_replay_config_value_kinds_checked(self, sim_dir, tmp_path, monkeypatch, capsys,
                                               key, value):
        monkeypatch.setattr(io, "read_signal", not_reached)
        monkeypatch.chdir(tmp_path)
        config = cli.RunConfig(
            method="ssmt", input_path=str(sim_dir / "signal.csv"),
            output_dir=str(tmp_path / "replay"), sample_rate_hz=FS, baseline_seconds=45.0,
        )
        stored = {"command": "estimate", "version": statespec.__version__,
                  "config": {**asdict(config), key: value}}
        io.write_manifest(tmp_path / "manifest.json", stored)
        code = main(["estimate", "--from-manifest", str(tmp_path / "manifest.json")])
        assert code == EXIT_CONFIG
        assert key in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]

    def test_window_overflowing_sample_count_is_config_error(self, sim_dir, tmp_path,
                                                             monkeypatch, capsys):
        monkeypatch.setattr(io, "read_signal", not_reached)
        out = tmp_path / "x"
        code = main([
            "estimate", "--input", str(sim_dir / "signal.csv"), "--sample-rate", "1e200",
            "--window-seconds", "1e200", "--out-dir", str(out),
        ])
        assert code == EXIT_CONFIG
        assert "window" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("input_name", ["signal.csv", "missing.csv"])
    def test_impossible_taper_count_fails_before_read(self, sim_dir, tmp_path, monkeypatch,
                                                      capsys, input_name):
        monkeypatch.setattr(io, "read_signal", not_reached)
        out = tmp_path / "x"
        code = main([
            "estimate", "--input", str(sim_dir / input_name), "--sample-rate", str(FS),
            "--tapers", "500", "--out-dir", str(out),
        ])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize("method", ["ssmt", "assmt"])
    def test_baseline_under_two_windows_is_config_error(self, sim_dir, tmp_path, monkeypatch,
                                                        capsys, method):
        monkeypatch.setattr(io, "read_signal", not_reached)
        out = tmp_path / "x"
        code = estimate(out, sim_dir, method, "--baseline-seconds", "6")
        assert code == EXIT_CONFIG
        assert "fewer than two windows" in capsys.readouterr().err
        assert not out.exists()


class TestMemory:
    @pytest.mark.parametrize("method, extra", [("ssmt", ()), ("assmt", ("--baseline-seconds", "45"))])
    def test_coefficients_released_after_filter(self, sim_dir, tmp_path, monkeypatch, method,
                                                extra):
        real_coefficients, real_spectrogram = cli.eigen_coefficients, cli.ssmt_spectrogram
        refs, alive = [], []

        def spy_coefficients(*args, **kwargs):
            eig = real_coefficients(*args, **kwargs)
            refs.append(weakref.ref(eig))
            return eig

        def spy_spectrogram(*args, **kwargs):
            # a block's spectrogram and writes need only its filter trace
            alive.append(any(ref() is not None for ref in refs))
            return real_spectrogram(*args, **kwargs)

        monkeypatch.setattr(cli, "eigen_coefficients", spy_coefficients)
        monkeypatch.setattr(cli, "ssmt_spectrogram", spy_spectrogram)
        with pytest.warns(UserWarning, match="em_fit did not converge"):
            assert estimate(tmp_path / method, sim_dir, method, *extra) == EXIT_OK
        assert refs and alive
        assert not any(alive)

    def test_assmt_peak_within_twice_the_coefficients(self, tmp_path, rng):
        # 300 windows of 192 samples: 2.8 MB of (K, J, M) coefficients
        signal = io.write_signal(tmp_path / "signal", rng.standard_normal(300 * 192))
        # binary output and a loose EM tolerance keep tracemalloc's cost low;
        # the peak is set by the filter, which neither changes
        config = cli.RunConfig(method="assmt", input_path=str(signal),
                               output_dir=str(tmp_path / "out"), sample_rate_hz=FS,
                               baseline_seconds=60.0, em_tol=1.0, output_format="bin")
        coeff_bytes = 300 * 192 * config.tapers * 16
        tracemalloc.start()
        try:
            cli.run_pipeline(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # bins 0..J//2 of the coefficients, their window-major copy and its
        # filter trace measure 1.8x: the full-grid filter, with its trace
        # beside the coefficients, is 3.8x
        assert peak <= 2.2 * coeff_bytes

    @pytest.mark.parametrize("method, extra",
                             [("mt", ()), ("assmt", ("--baseline-seconds", "60"))])
    def test_peak_does_not_grow_with_the_record(self, tmp_path, rng, method, extra):
        # 100 and 400 windows of 192 samples: the longer record has 1.9 MB
        # more coefficients, which a whole-record pass would hold at once,
        # and 0.46 MB more samples, which a whole-record read would
        for fmt in ("bin", "csv"):
            peaks = []
            for windows in (100, 400):
                signal = io.write_signal(tmp_path / f"signal{windows}",
                                         rng.standard_normal(windows * 192), fmt=fmt)
                argv = ["estimate", "--input", str(signal), "--sample-rate", str(FS),
                        "--method", method, "--out-dir", str(tmp_path / f"{fmt}{windows}"),
                        "--format", "bin", "--em-tol", "1", *extra]
                tracemalloc.start()
                try:
                    assert main(argv) == EXIT_OK
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            # the signal is read as its windows need it: nothing grows with the record
            assert peaks[1] <= peaks[0] + 64 * 1024, fmt

    @pytest.mark.parametrize("fmt", ["bin", "csv"])
    def test_full_record_read_holds_the_samples_once(self, tmp_path, fmt):
        # 2 MB of samples, read into one array that grows in place, to the
        # file's length at once for a .f64: never the blocks read beside
        # their concatenation, which would be twice the samples
        samples = np.random.default_rng(3).standard_normal(1 << 18)
        signal = io.write_signal(tmp_path / "signal", samples, fmt=fmt)
        config = cli.RunConfig(method="ssmt", input_path=str(signal),
                               output_dir=str(tmp_path / "out"), sample_rate_hz=FS)
        blocks = io.read_signal(signal, blocks=True)
        with closing(blocks):
            record = cli._Record(blocks, config)
            tracemalloc.start()
            try:
                entry = tracemalloc.get_traced_memory()[0]
                record.count()
                peak = tracemalloc.get_traced_memory()[1] - entry
            finally:
                tracemalloc.stop()
        assert record.held == samples.size
        # beside the samples, one block read: its bytes, or its text as lines
        assert peak <= samples.nbytes + 768 * 1024

    @pytest.mark.parametrize("fmt", ["bin", "csv"])
    def test_full_record_fit_holds_no_samples(self, tmp_path, monkeypatch, fmt):
        # a full-record fit reads every sample before EM, and then holds the
        # coefficients alone: 1.9 MB of them, beside which the 0.61 MB of
        # samples would be kept alive by any view of them
        samples = np.random.default_rng(2).standard_normal(400 * 192)
        signal = io.write_signal(tmp_path / "signal", samples, fmt=fmt)
        real, held = cli.em_fit, []

        def spy(obs, *args, **kwargs):
            held.append(tracemalloc.get_traced_memory()[0] - obs.coeffs.nbytes)
            return real(obs, *args, **kwargs)

        monkeypatch.setattr(cli, "em_fit", spy)
        tracemalloc.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                assert main(["estimate", "--input", str(signal), "--sample-rate", str(FS),
                             "--method", "ssmt", "--out-dir", str(tmp_path / "out"),
                             "--format", "bin", "--em-max-iter", "2"]) == EXIT_OK
        finally:
            tracemalloc.stop()
        assert held and held[0] <= samples.nbytes / 4


class TestHalfGridFilter:
    """The coefficients hold bins 0..J//2 of the real signal only, and the
    command line unfolds the spectrogram and traces under --full-grid
    alone; every file must be the one mt or the filter makes on the full
    grid, each trace on the grid of frequencies.csv."""

    @pytest.mark.parametrize("window", ["6", "5.03125"], ids=["even-J", "odd-J"])
    @pytest.mark.parametrize("fmt, scale", [("csv", "linear"), ("bin", "dB")])
    @pytest.mark.parametrize("grid", [(), ("--full-grid",)], ids=["one-sided", "full-grid"])
    @pytest.mark.parametrize("method", ["ssmt", "assmt"])
    def test_files_match_full_grid_filter(self, sim_dir, tmp_path, monkeypatch, window, fmt,
                                          scale, grid, method):
        self.check_files(sim_dir, tmp_path, monkeypatch, method, fmt,
                         "--window-seconds", window, "--scale", scale, *grid)
        config = cli.RunConfig(**io.read_manifest(tmp_path / "cli" / "manifest.json")["config"])
        assert config.window_samples % 2 == (window != "6")

    # from 8 tapers on, numpy's taper mean gives other bits on a taper-
    # contiguous array, so mt's spectrogram depends on the coefficients' layout
    @pytest.mark.parametrize("method", ["mt", "ssmt", "assmt"])
    def test_nine_tapers_match_full_grid(self, sim_dir, tmp_path, monkeypatch, method):
        self.check_files(sim_dir, tmp_path, monkeypatch, method, "csv", "--tapers", "9",
                         "--full-grid")

    @staticmethod
    def check_files(sim_dir, tmp_path, monkeypatch, method, fmt, *extra, baseline="45"):
        written = {}
        real_matrix, real_vector = io.write_matrix, io.write_vector_csv

        def spy_matrix(path, values, *args, **kwargs):
            # a matrix written in blocks is the blocks' rows in order
            stem = Path(path).stem
            blocks = [written[stem]] if kwargs.get("append") else []
            written[stem] = np.concatenate([*blocks, np.array(values)])
            return real_matrix(path, values, *args, **kwargs)

        def spy_vector(path, values):
            written[Path(path).stem] = np.array(values)
            return real_vector(path, values)

        monkeypatch.setattr(io, "write_matrix", spy_matrix)
        monkeypatch.setattr(io, "write_vector_csv", spy_vector)
        out = tmp_path / "cli"
        if baseline is not None:
            extra = ("--baseline-seconds", baseline, *extra)
        code = estimate(out, sim_dir, method, "--format", fmt, "--em-tol", "1e-4", *extra)
        assert code == EXIT_OK
        config = cli.RunConfig(**io.read_manifest(out / "manifest.json")["config"])
        arrays, spect_scale = full_grid_estimate(config)
        monkeypatch.undo()

        assert sorted(written) == sorted(arrays)
        expected = tmp_path / "library"
        expected.mkdir()
        for name, values in arrays.items():
            # the float64 values, bit for bit, before any format rounds them
            assert written[name].shape == values.shape, name
            assert written[name].tobytes() == np.ascontiguousarray(values).tobytes(), name
            if values.ndim == 1:
                io.write_vector_csv(expected / f"{name}.csv", values)
            else:
                io.write_matrix(expected / name, values, fmt=fmt,
                                scale=spect_scale if name == "spectrogram" else None)
        files = sorted(path.name for path in expected.iterdir())
        assert sorted(path.name for path in out.iterdir()) == sorted(files + ["manifest.json"])
        for name in files:
            assert (out / name).read_bytes() == (expected / name).read_bytes(), name


class TestWindowBlocks:
    """An estimate transforms, filters and writes its record in blocks of
    windows; at every block size each file holds the bytes of mt or the
    filter run once over the whole record."""

    # 3 and 4 windows divide neither the 15 windows nor the baseline's 7 (29
    # and 14 at half overlap); 64 holds every window in one block
    @pytest.mark.parametrize("windows", [1, 3, 4, 64])
    @pytest.mark.parametrize(
        "method, baseline",
        [("mt", None), ("ssmt", None), ("ssmt", "45"), ("assmt", "45")],
        ids=["mt", "ssmt-full-record", "ssmt-baseline", "assmt"],
    )
    @pytest.mark.parametrize(
        "fmt, extra",
        [("csv", ()), ("bin", ("--full-grid", "--overlap", "0.5", "--demean"))],
        ids=["csv", "bin-full-grid-overlap-demean"],
    )
    def test_files_match_one_pass(self, sim_dir, tmp_path, monkeypatch, windows, method,
                                  baseline, fmt, extra):
        # stored bins x tapers of one 192-sample window
        monkeypatch.setattr(cli, "_BLOCK_CELLS", windows * 97 * 3)
        spectrogram = "mt_spectrogram" if method == "mt" else "ssmt_spectrogram"
        real = getattr(cli, spectrogram)
        blocks = []

        def spy(eig_or_trace, *args, **kwargs):
            blocks.append(eig_or_trace.window_times_s)
            return real(eig_or_trace, *args, **kwargs)

        monkeypatch.setattr(cli, spectrogram, spy)
        TestHalfGridFilter.check_files(sim_dir, tmp_path, monkeypatch, method, fmt, *extra,
                                       baseline=baseline)
        config = cli.RunConfig(**io.read_manifest(tmp_path / "cli" / "manifest.json")["config"])
        n_windows = (int(90 * FS) - config.window_samples) // config.hop + 1
        if method == "mt":
            n_fit = 0
        elif baseline is None:
            n_fit = n_windows
        else:
            n_fit = min(config.baseline_windows, n_windows)
        # blocks end where the fit does, and each block's windows keep their times
        assert [len(times) for times in blocks] == [
            min(windows, end - first)
            for start, end in ((0, n_fit), (n_fit, n_windows))
            for first in range(start, end, windows)
        ]
        centres = (np.arange(n_windows) * config.hop + config.window_samples / 2) / FS
        assert np.concatenate(blocks).tobytes() == centres.tobytes()

    # from 8 tapers on the taper mean's bits depend on the layout, which
    # each block must keep as one pass over the record has it
    @pytest.mark.parametrize("method", ["mt", "assmt"])
    def test_nine_tapers_match_one_pass(self, sim_dir, tmp_path, monkeypatch, method):
        monkeypatch.setattr(cli, "_BLOCK_CELLS", 3 * 97 * 9)
        TestHalfGridFilter.check_files(sim_dir, tmp_path, monkeypatch, method, "csv",
                                       "--tapers", "9", "--full-grid")


@st.composite
def signal_files(draw):
    """A signal file's name and bytes: ``.f64``, or CSV with a header line,
    blank or whitespace lines and lines of several fields, drawn."""
    samples = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(
        draw(st.integers(40, 120)))
    if draw(st.booleans()):
        return "signal.f64", samples.astype("<f8").tobytes()
    lines = ["%.17g" % v for v in samples]
    for at in draw(st.lists(st.integers(0, len(lines) - 1), max_size=6)):
        lines[at] += draw(st.sampled_from([",1", ", x", ",,"]))
    for at in sorted(draw(st.lists(st.integers(0, len(lines)), max_size=6)), reverse=True):
        lines.insert(at, draw(st.sampled_from(["", "  ", "\t"])))
    header = draw(st.sampled_from([[], ["value"], ["time,value"]]))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return "signal.csv", end.join(header + lines + [""]).encode()


class TestStreamBoundaries:
    """The signal is read in blocks that end anywhere: inside a line, a
    window, or the overlap of two window blocks.  Every output byte, window
    times included, must be that of a run that reads the file and makes
    its windows in one block."""

    @settings(max_examples=25, deadline=None)
    @given(signal=signal_files(), data=st.data(),
           method=st.sampled_from(["mt", "ssmt", "ssmt-baseline", "assmt"]))
    def test_files_match_one_pass(self, signal, data, method):
        name, content = signal
        # 16-sample windows of 9 stored bins and 3 tapers, and a 3-window baseline
        argv = ["estimate", "--sample-rate", "2", "--window-seconds", "8", "--em-max-iter", "5",
                "--method", method.split("-")[0]]
        if method != "ssmt":
            argv += ["--baseline-seconds", "24"]
        if data.draw(st.booleans(), label="overlap-demean"):
            argv += ["--overlap", "0.5", "--demean"]
        if data.draw(st.booleans(), label="full-grid"):
            argv.append("--full-grid")
        argv += ["--format", data.draw(st.sampled_from(["csv", "bin"]), label="format")]
        sizes = {"one pass": (1 << 30, 1 << 30),
                 "blocks": (data.draw(st.integers(1, 4), label="windows a block") * 9 * 3,
                            data.draw(st.integers(1, 48), label="characters a read"))}
        outputs = {}
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / name
            path.write_bytes(content)
            for run, (cells, chars) in sizes.items():
                out = Path(tmp) / run
                with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)
                    patch.setattr(cli, "_BLOCK_CELLS", cells)
                    patch.setattr(io, "_READ_BLOCK_CHARS", chars)
                    with redirect_stderr(StringIO()):
                        code = main([*argv, "--input", str(path), "--out-dir", str(out)])
                assert code == EXIT_OK
                files = {p.name: p.read_bytes() for p in out.iterdir()}
                manifest = json.loads(files.pop("manifest.json"))
                del manifest["config"]["output_dir"]
                outputs[run] = files, manifest
        assert outputs["blocks"] == outputs["one pass"]


class TestMidStreamFailures:
    """A defect found after some window blocks were written: a non-finite
    sample or an unparseable line in the last block of text, or a non-finite
    sample after the last whole window.  The run exits 3 with one error
    line, leaves the file system as it found it, and closes the signal."""

    @pytest.mark.parametrize(
        "defect, message",
        [("nan-in-last-block", "samples must be finite"),
         ("bad-line-in-last-block", "could not convert"),
         ("nan-after-last-window", "samples must be finite")],
    )
    @pytest.mark.parametrize("method, extra",
                             [("mt", ()), ("assmt", ("--baseline-seconds", "45"))])
    def test_exits_3_and_leaves_nothing(self, tmp_path, monkeypatch, capsys, defect, message,
                                        method, extra):
        # 15 windows of 192 samples, and 100 samples after the last
        lines = ["%.17g" % v for v in np.random.default_rng(5).standard_normal(15 * 192 + 100)]
        at = 15 * 192 + 50 if defect == "nan-after-last-window" else 15 * 192 - 1
        lines[at] = "abc" if defect.startswith("bad-line") else "nan"
        text = "\n".join(lines) + "\n"
        chars = 4096
        assert text.index(f"\n{lines[at]}\n") >= (len(text) - 1) // chars * chars
        signal = tmp_path / "signal.csv"
        signal.write_text(text)
        # two windows a block: several blocks are written before the defect is read
        monkeypatch.setattr(cli, "_BLOCK_CELLS", 2 * 97 * 3)
        monkeypatch.setattr(io, "_READ_BLOCK_CHARS", chars)
        real_read, real_write = io.read_signal, io.write_matrix
        readers, appended = [], []

        def spy_read(*args, **kwargs):
            readers.append(real_read(*args, **kwargs))
            return readers[-1]

        def spy_write(path, values, *args, **kwargs):
            appended.append(kwargs.get("append", False))
            return real_write(path, values, *args, **kwargs)

        monkeypatch.setattr(io, "read_signal", spy_read)
        monkeypatch.setattr(io, "write_matrix", spy_write)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            warnings.simplefilter("error", ResourceWarning)
            warnings.simplefilter("ignore", UserWarning)
            code = main(["estimate", "--input", str(signal), "--sample-rate", str(FS),
                         "--method", method, "--out-dir", str(tmp_path / "out"), *extra])
        assert code == EXIT_DATA
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and message in lines[0]
        assert any(appended)
        # neither the output directory nor a temporary one is left behind
        assert [path.name for path in tmp_path.iterdir()] == ["signal.csv"]
        # the reader's file was closed: its generator has finished
        assert len(readers) == 1 and readers[0].gi_frame is None


class TestFailedRunLeavesNothing:
    """A block can fail after earlier blocks were written; the run then
    exits 3 and leaves the file system as it found it."""

    @staticmethod
    def overflowing_tail(tmp_path):
        # the last two of 15 windows hold samples whose power overflows
        samples = np.random.default_rng(11).standard_normal(int(90 * FS))
        samples[-2 * int(6 * FS):] = 1e200
        return io.write_signal(tmp_path / "signal", samples, fmt="bin")

    def run(self, tmp_path, monkeypatch, capsys, out, method, extra):
        signal = self.overflowing_tail(tmp_path)
        # two windows a block: several blocks are written before the failing one
        monkeypatch.setattr(cli, "_BLOCK_CELLS", 2 * 97 * 3)
        real_write, appended = io.write_matrix, []

        def spy(path, values, *args, **kwargs):
            appended.append(kwargs.get("append", False))
            return real_write(path, values, *args, **kwargs)

        monkeypatch.setattr(io, "write_matrix", spy)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            warnings.simplefilter("ignore", UserWarning)
            code = main(["estimate", "--input", str(signal), "--sample-rate", str(FS),
                         "--method", method, "--out-dir", str(out), *extra])
        assert code == EXIT_DATA
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert any(appended)

    @pytest.mark.parametrize("fmt", ["csv", "bin"])
    @pytest.mark.parametrize(
        "method, extra",
        [("mt", ()), ("ssmt", ("--baseline-seconds", "45")),
         ("assmt", ("--baseline-seconds", "45"))],
    )
    def test_new_directory_is_not_made(self, tmp_path, monkeypatch, capsys, fmt, method,
                                       extra):
        parent = tmp_path / "runs"
        parent.mkdir()
        self.run(tmp_path, monkeypatch, capsys, parent / "deeper" / "out", method,
                 ("--format", fmt, *extra))
        # neither the output directory nor a temporary one is left behind
        assert list(parent.iterdir()) == []

    @pytest.mark.parametrize("method, extra",
                             [("mt", ()), ("assmt", ("--baseline-seconds", "45"))])
    def test_existing_directory_is_untouched(self, tmp_path, monkeypatch, capsys, method,
                                             extra):
        out = tmp_path / "out"
        out.mkdir()
        before = {"spectrogram.csv": b"# rows=1 cols=1 scale=dB\n1\n", "notes.txt": b"kept\n"}
        for name, content in before.items():
            (out / name).write_bytes(content)
        self.run(tmp_path, monkeypatch, capsys, out, method, extra)
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before
        assert sorted(path.name for path in tmp_path.iterdir()) == ["out", "signal.f64"]


class TestWindowTimes:
    @pytest.mark.parametrize("overlap", ["0", "0.5"])
    @pytest.mark.parametrize("window_seconds", ["6", "5.03125"])
    def test_estimate_times_are_the_truths(self, tmp_path, overlap, window_seconds):
        # 5.03125 s at 32 Hz is an odd 161-sample window, whose centre falls
        # between two samples; compare scores only an estimate on the truth's times
        grid = ["--sample-rate", str(FS), "--window-seconds", window_seconds,
                "--overlap", overlap]
        sim, est = tmp_path / "sim", tmp_path / "est"
        assert main(["simulate", "--out-dir", str(sim), "--duration", "60", *grid]) == EXIT_OK
        assert main(["estimate", "--input", str(sim / "signal.csv"), "--method", "mt",
                     "--out-dir", str(est), *grid]) == EXIT_OK
        assert (est / "times.csv").read_bytes() == (sim / "truth_times.csv").read_bytes()


class TestCompare:
    def test_estimate_against_truth(self, sim_dir, tmp_path, capsys):
        out = tmp_path / "mt"
        assert estimate(out, sim_dir, "mt") == EXIT_OK
        code = main(["compare", "--estimate", str(out), "--truth", str(sim_dir)])
        assert code == EXIT_OK
        text = capsys.readouterr().out
        line = [l for l in text.splitlines() if l.startswith("IS_TOTAL=")]
        assert len(line) == 1
        total = float(line[0].split("=")[1])
        assert 0.0 < total < 100.0

    def test_report_file(self, sim_dir, tmp_path):
        out = tmp_path / "mt"
        assert estimate(out, sim_dir, "mt") == EXIT_OK
        report = tmp_path / "report.txt"
        code = main([
            "compare", "--estimate", str(out), "--truth", str(sim_dir),
            "--report", str(report),
        ])
        assert code == EXIT_OK
        assert "IS_TOTAL=" in report.read_text()

    def test_mismatched_grids_is_data_error(self, sim_dir, tmp_path):
        out = tmp_path / "short"
        assert estimate(out, sim_dir, "mt", "--window-seconds", "3") == EXIT_OK
        code = main(["compare", "--estimate", str(out), "--truth", str(sim_dir)])
        assert code == EXIT_DATA

    def test_mismatched_window_times_is_data_error(self, sim_dir, tmp_path, capsys):
        # a 48 s truth at half overlap has the estimate's shape, (15, 97), but
        # windows at 3, 6, ... 45 s against the estimate's 3, 9, ... 87 s
        truth = tmp_path / "truth"
        assert main(["simulate", "--out-dir", str(truth), "--duration", "48",
                     "--sample-rate", str(FS), "--overlap", "0.5"]) == EXIT_OK
        out = tmp_path / "mt"
        assert estimate(out, sim_dir, "mt") == EXIT_OK
        capsys.readouterr()
        code = main(["compare", "--estimate", str(out), "--truth", str(truth)])
        assert code == EXIT_DATA
        assert "window times" in capsys.readouterr().err

    def test_wrapping_binary_header_is_data_error(self, sim_dir, tmp_path, capsys):
        est = tmp_path / "est"
        est.mkdir()
        header = io.MATRIX_MAGIC + np.array([65536, 65537], dtype="<u4").tobytes()
        (est / "spectrogram.f32").write_bytes(header + np.zeros(65536, dtype="<f4").tobytes())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["compare", "--estimate", str(est), "--truth", str(sim_dir)])
        assert code == EXIT_DATA
        assert "header says 65536x65537" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content",
        [b"# rows=2 cols=3 scale=linear\n1,2,3\n4,5\n", b"1,2,3\n4,5,6\n7,8\n"],
        ids=["header-row-count-matches", "no-header"],
    )
    def test_ragged_matrix_is_data_error(self, sim_dir, tmp_path, capsys, content):
        (tmp_path / "spectrogram.csv").write_bytes(content)
        code = main(["compare", "--estimate", str(tmp_path), "--truth", str(sim_dir)])
        assert code == EXIT_DATA
        assert "different numbers of fields" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content",
        [b"[]", b"null", b'{"config": 5}', b'{"command": ["estimate"], "config": {}}',
         b'{"command": "estimate", "config": {"output_format": ["bin"]}}',
         b'{"command": "tapers", "config": {"format": "bin"}}'],
        ids=["list", "null", "config-not-object", "command-list", "format-list",
             "no-spectrogram-command"],
    )
    def test_malformed_manifest_is_data_error(self, sim_dir, tmp_path, capsys, content):
        est = tmp_path / "est"
        assert estimate(est, sim_dir, "mt", "--format", "bin") == EXIT_OK
        (est / "manifest.json").write_bytes(content)
        capsys.readouterr()
        code = main(["compare", "--estimate", str(est), "--truth", str(sim_dir)])
        assert code == EXIT_DATA
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")

    def test_missing_directory_is_data_error(self, sim_dir, tmp_path):
        code = main([
            "compare", "--estimate", str(tmp_path / "nothing"), "--truth", str(sim_dir),
        ])
        assert code == EXIT_DATA

    def test_binary_estimate_without_scale_is_data_error(self, sim_dir, tmp_path, capsys):
        est = tmp_path / "est"
        code = main(["estimate", "--input", str(sim_dir / "signal.csv"), "--sample-rate",
                     str(FS), "--out-dir", str(est), "--format", "bin"])
        assert code == EXIT_OK
        manifest = io.read_manifest(est / "manifest.json")
        assert manifest["config"].pop("scale") == "dB"
        io.write_manifest(est / "manifest.json", manifest)
        capsys.readouterr()
        code = main(["compare", "--estimate", str(est), "--truth", str(sim_dir)])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert "no config.scale" in err and "spectrogram.f32" in err

    def test_leftover_file_of_another_format_is_not_scored(self, sim_dir, tmp_path, capsys):
        # mt writes spectrogram.csv, then assmt writes spectrogram.f32 into the
        # same directory: the manifest says which of the two is the estimate
        out, fresh = tmp_path / "reused", tmp_path / "fresh"
        assert estimate(out, sim_dir, "mt") == EXIT_OK
        for directory in (out, fresh):
            assert estimate(directory, sim_dir, "assmt", "--baseline-seconds", "45",
                            "--format", "bin", "--em-tol", "1e-4") == EXIT_OK
        assert (out / "spectrogram.csv").exists()
        reports = []
        for directory in (out, fresh):
            capsys.readouterr()
            assert main(["compare", "--estimate", str(directory),
                         "--truth", str(sim_dir)]) == EXIT_OK
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]
        # without the file the manifest names, the leftover is not taken instead
        (out / "spectrogram.f32").unlink()
        assert main(["compare", "--estimate", str(out), "--truth", str(sim_dir)]) == EXIT_DATA
        assert "spectrogram.f32" in capsys.readouterr().err

    def test_without_manifest_csv_is_taken_first(self, sim_dir, tmp_path):
        est = tmp_path / "est"
        assert estimate(est, sim_dir, "mt") == EXIT_OK
        (est / "manifest.json").unlink()
        header = io.MATRIX_MAGIC + np.array([1, 1], dtype="<u4").tobytes()
        (est / "spectrogram.f32").write_bytes(header + np.zeros(1, dtype="<f4").tobytes())
        loaded = cli._load_spectrogram(est, ("spectrogram",))
        assert loaded.power.shape == (15, int(6 * FS) // 2 + 1)

    def test_binary_simulate_truth_is_linear(self, sim_dir, tmp_path):
        truth = tmp_path / "truth"
        code = main(["simulate", "--out-dir", str(truth), "--seed", "3", "--duration", "90",
                     "--sample-rate", str(FS), "--format", "bin"])
        assert code == EXIT_OK
        assert not (truth / "truth_spectrogram.csv").exists()
        assert "scale" not in io.read_manifest(truth / "manifest.json")["config"]
        names = ("truth_spectrogram",)
        binary = cli._load_spectrogram(truth, names)
        text = cli._load_spectrogram(sim_dir, names)
        assert binary.scale == text.scale == "linear"
        np.testing.assert_allclose(binary.power, text.power, rtol=1e-6)


class TestMalformedInput:
    @pytest.mark.parametrize(
        "name, content, command, expected",
        [
            ("signal.csv", b"0.5\n1.5\nabc\n2.5\n", "estimate", EXIT_DATA),
            ("signal.f64", bytes(8 * 400 + 3), "estimate", EXIT_DATA),
            ("signal.f64", np.full(400, 1e200).astype("<f8").tobytes(), "estimate", EXIT_DATA),
            ("spectrogram.csv", b"# rows=2 cols=2 scale=linear\n1,2\n3\n", "compare", EXIT_DATA),
            ("manifest.json", b"{not json", "replay", EXIT_DATA),
            (
                "manifest.json",
                json.dumps({
                    "command": "estimate",
                    "config": {"method": "mt", "input_path": "signal.csv",
                               "output_dir": "out", "sample_rate_hz": FS, "bogus": 1},
                }).encode(),
                "replay",
                EXIT_CONFIG,
            ),
        ],
        ids=["csv-non-numeric-line", "f64-partial-sample", "f64-power-overflows",
             "ragged-spectrogram", "manifest-not-json", "manifest-unknown-config-key"],
    )
    def test_exit_code(self, sim_dir, tmp_path, name, content, command, expected):
        path = tmp_path / name
        path.write_bytes(content)
        out = tmp_path / "out"
        argv = {
            "estimate": ["estimate", "--input", str(path), "--sample-rate", str(FS),
                         "--out-dir", str(out)],
            "compare": ["compare", "--estimate", str(tmp_path), "--truth", str(sim_dir)],
            "replay": ["estimate", "--from-manifest", str(path), "--out-dir", str(out)],
        }[command]
        assert main(argv) == expected
        assert not out.exists()

    def test_overflowing_power_is_one_error(self, tmp_path, capsys):
        # the non-finite power is reported once, as a data error, with no
        # numpy warning ahead of it
        path = tmp_path / "signal.f64"
        path.write_bytes(np.full(400, 1e200).astype("<f8").tobytes())
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["estimate", "--input", str(path), "--sample-rate", str(FS),
                         "--method", "mt", "--out-dir", str(out)])
        assert code == EXIT_DATA
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize("method, extra", [("ssmt", ()), ("assmt", ("--baseline-seconds", "12"))])
    def test_overflowing_coefficients_fail_before_em(self, tmp_path, monkeypatch, capsys,
                                                     method, extra):
        # EM is refused before its first E-step, with no numpy warning or
        # non-convergence warning ahead of the one error
        monkeypatch.setattr(ssm, "_filter_likelihood", not_reached)
        path = tmp_path / "signal.f64"
        path.write_bytes(np.full(400, 1e200).astype("<f8").tobytes())
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["estimate", "--input", str(path), "--sample-rate", str(FS),
                         "--method", method, "--out-dir", str(out), *extra])
        assert code == EXIT_DATA
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize("fmt, expected", [("bin", EXIT_DATA), ("csv", EXIT_OK)])
    def test_values_past_float32_fail_before_binary_writes(self, tmp_path, capsys, fmt,
                                                          expected):
        # white noise x 1e20: state-variance traces reach 1e39, which a float32
        # file could hold only as inf, and a CSV file holds as it is
        path = tmp_path / "signal.f64"
        noise = np.random.default_rng(5).standard_normal(120 * 36) * 1e20
        path.write_bytes(noise.astype("<f8").tobytes())
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            warnings.simplefilter("ignore", UserWarning)
            code = main(["estimate", "--input", str(path), "--sample-rate", "36",
                         "--method", "assmt", "--baseline-seconds", "30", "--format", fmt,
                         "--out-dir", str(out)])
        assert code == expected
        if expected == EXIT_DATA:
            lines = capsys.readouterr().err.splitlines()
            assert len(lines) == 1 and "float32 range" in lines[0]
            assert not out.exists()

    @settings(max_examples=60, deadline=None)
    @given(content=st.binary(max_size=400), suffix=st.sampled_from([".csv", ".f64"]))
    def test_arbitrary_bytes_never_raise(self, content, suffix):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / f"signal{suffix}"
            path.write_bytes(content)
            code = main([
                "estimate", "--input", str(path), "--sample-rate", "2",
                "--window-seconds", "4", "--method", "mt", "--out-dir", str(Path(tmp) / "out"),
            ])
        assert code in (EXIT_OK, EXIT_DATA)


@st.composite
def malformed_signals(draw):
    """A signal file that cannot be read as a record: ``(suffix, bytes)``."""
    samples = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(
        draw(st.integers(16, 64)))
    kind = draw(st.sampled_from(["truncated-f64", "non-finite-f64", "non-finite-csv",
                                 "ragged-csv", "empty-csv", "non-numeric-csv"]))
    if kind == "truncated-f64":
        raw = samples.astype("<f8").tobytes()
        return ".f64", raw[:len(raw) - draw(st.integers(1, 7))]
    if kind == "non-finite-f64":
        samples[draw(st.integers(0, samples.size - 1))] = draw(
            st.sampled_from([np.nan, np.inf, -np.inf]))
        return ".f64", samples.astype("<f8").tobytes()
    if kind == "empty-csv":
        return ".csv", draw(st.sampled_from([b"", b"\n\n", b" \n\t\n", b"time\n"]))
    lines = [",".join(["%.17g" % v] * draw(st.integers(1, 3))) for v in samples]
    # from the second line on: a bad first line would be taken for a header
    at = draw(st.integers(1, len(lines) - 1))
    if kind == "non-finite-csv":
        lines[at] = draw(st.sampled_from(["nan", "inf", "-inf", "NaN,1"]))
    elif kind == "ragged-csv":
        lines[at] = "," + lines[at]
    else:
        lines[at] = draw(st.sampled_from(["abc", "1.2.3", "--", "0x10", "1e"]))
    return ".csv", ("\n".join(lines) + "\n").encode()


class TestMalformedSignalFiles:
    @settings(max_examples=40, deadline=None)
    @given(signal=malformed_signals(), method=st.sampled_from(["mt", "ssmt", "assmt"]),
           fmt=st.sampled_from(["csv", "bin"]))
    def test_exit_code_and_nothing_written(self, signal, method, fmt):
        suffix, content = signal
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / f"signal{suffix}"
            path.write_bytes(content)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main([
                    "estimate", "--input", str(path), "--sample-rate", "2",
                    "--window-seconds", "4", "--method", method, "--format", fmt,
                    "--baseline-seconds", "8", "--out-dir", str(Path(tmp) / "out"),
                ])
            assert code in (EXIT_CONFIG, EXIT_DATA)
            assert [p.name for p in Path(tmp).iterdir()] == [path.name]
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def subcommand_dests(command):
    """The dest of every flag of a subcommand."""
    sub = next(a for a in cli._build_parser()._actions if a.dest == "command")
    return {action.dest for action in sub.choices[command]._actions}


class TestSettings:
    def test_flags_cover_every_field_with_its_default(self):
        args = cli._build_parser().parse_args(["estimate"])
        defaults = {f.name: f.default for f in fields(cli.RunConfig) if f.default is not MISSING}
        assert {name: getattr(args, name) for name in defaults} == defaults
        for command, cls in [("estimate", cli.RunConfig), ("simulate", cli.SimulateConfig)]:
            assert {f.name for f in fields(cls)} <= subcommand_dests(command)

    def test_manifest_config_rebuilds_the_same_settings(self, sim_dir, tmp_path):
        out = tmp_path / "mt"
        assert estimate(out, sim_dir, "mt", "--full-grid", "--nw", "2.5",
                        "--overlap", "0.5") == EXIT_OK
        for directory, cls in [(sim_dir, cli.SimulateConfig), (out, cli.RunConfig)]:
            stored = io.read_manifest(directory / "manifest.json")["config"]
            assert asdict(cls(**stored)) == stored

    @pytest.mark.parametrize(
        "key",
        ["duration_s", "sample_rate_hz", "seed", "snr_db", "carrier_freq_hz", "window_seconds",
         "overlap", "full_grid", "format", "out_dir"],
    )
    def test_simulate_replay_missing_key_is_config_error(self, sim_dir, tmp_path, monkeypatch,
                                                         key):
        monkeypatch.setattr(cli, "gen_benchmark", not_reached)
        out = tmp_path / "replay"
        stored = io.read_manifest(sim_dir / "manifest.json")
        stored["config"]["out_dir"] = str(out)
        del stored["config"][key]
        manifest = tmp_path / "manifest.json"
        io.write_manifest(manifest, stored)
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--from-manifest", str(manifest)]) == EXIT_CONFIG
        assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]


# Values a replayed manifest's config may hold: every JSON type, and an
# integer too large for a float.
PALETTE = (None, True, False, 0, 1, -1, 2.5, 10**400, "x", [], {})
DELETE = object()


@pytest.fixture(scope="module")
def tiny_manifests(tmp_path_factory):
    """Manifests of tiny simulate and estimate runs, by command: J = 16 bins."""
    root = tmp_path_factory.mktemp("tiny")
    assert main(["simulate", "--out-dir", str(root / "sim"), "--duration", "20",
                 "--sample-rate", "8", "--window-seconds", "2"]) == EXIT_OK
    signal = io.write_signal(root / "signal", np.random.default_rng(9).standard_normal(320))
    manifests = {"simulate": [root / "sim" / "manifest.json"], "estimate": []}
    for method in ("mt", "ssmt", "assmt"):
        out = root / method
        assert main(["estimate", "--input", str(signal), "--sample-rate", "8",
                     "--window-seconds", "2", "--baseline-seconds", "10", "--em-tol", "1e-3",
                     "--method", method, "--format", "bin", "--out-dir", str(out)]) == EXIT_OK
        manifests["estimate"].append(out / "manifest.json")
    return manifests


class TestReplayExitCodes:
    """A replayed config with any one value replaced from `PALETTE`, any one
    key deleted or one unknown key added exits 0, 2 or 3: no exception
    escapes, exit 2 leaves no output directory, and numpy raises no
    RuntimeWarning."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), command=st.sampled_from(["simulate", "estimate"]))
    def test_edited_config(self, tiny_manifests, data, command):
        base = data.draw(st.sampled_from(tiny_manifests[command]), label="manifest")
        stored = io.read_manifest(base)
        key = data.draw(st.sampled_from(sorted(stored["config"]) + ["unknown"]), label="key")
        value = data.draw(st.sampled_from((DELETE,) + PALETTE), label="value")
        if value is DELETE:
            stored["config"].pop(key, None)
        else:
            stored["config"][key] = value
        with tempfile.TemporaryDirectory() as tmp:
            manifest, out = Path(tmp) / "manifest.json", Path(tmp) / "out"
            # the JSON text of 10**400 is an integer, and it reads back as one
            io.write_manifest(manifest, stored)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main([command, "--from-manifest", str(manifest), "--out-dir", str(out)])
            assert code in (EXIT_OK, EXIT_CONFIG, EXIT_DATA)
            if code == EXIT_CONFIG:
                assert not out.exists()
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


# A JSON value of the wrong type for every manifest key compare reads.
WRONG_TYPES = (None, True, 0, 2.5, [], {}, ["csv"])


def write_estimate(directory, truth, fmt, scale, defect, data):
    """An estimate directory of the truth's grid in ``fmt`` and ``scale``,
    with one ``defect`` drawn from ``data``."""
    power, _ = io.read_matrix_csv(truth / "truth_spectrogram.csv")
    if scale == "dB":
        power = 10.0 * np.log10(power)
    cell = {
        "non-finite": st.sampled_from([np.nan, np.inf, -np.inf]),
        # 10 ** (v / 10) overflows from v = 3083 on; a float32 holds up to 3.4e38
        "dB-past-float-range": st.floats(3100.0, 3e38),
    }.get(defect)
    if cell is not None:
        power[data.draw(st.integers(0, power.shape[0] - 1)),
              data.draw(st.integers(0, power.shape[1] - 1))] = data.draw(cell)
    matrix = io.write_matrix(directory / "spectrogram", power, fmt=fmt, scale=scale)
    for name in ("frequencies", "times"):
        (directory / f"{name}.csv").write_bytes((truth / f"truth_{name}.csv").read_bytes())
    manifest = {"command": "estimate", "config": {"output_format": fmt, "scale": scale}}
    if defect == "manifest":
        # a CSV's scale is in its header; only a binary one takes the manifest's
        keys = ["command", "config", "output_format"] + (["scale"] if fmt == "bin" else [])
        key = data.draw(st.sampled_from(keys))
        where = manifest if key in ("command", "config") else manifest["config"]
        if data.draw(st.booleans()):
            del where[key]
        else:
            where[key] = data.draw(st.sampled_from(WRONG_TYPES))
    io.write_manifest(directory / "manifest.json", manifest)

    raw = matrix.read_bytes()
    if defect == "ragged":
        lines = raw.decode().splitlines(keepends=True)
        at = data.draw(st.integers(1, len(lines) - 1))
        row = lines[at].rstrip("\n")
        lines[at] = data.draw(st.sampled_from([row + ",1", row.rsplit(",", 1)[0]])) + "\n"
        raw = "".join(lines).encode()
    elif defect == "bad-magic":
        raw = data.draw(st.binary(min_size=8, max_size=8).filter(
            lambda magic: magic != io.MATRIX_MAGIC)) + raw[8:]
    elif defect == "wrong-size":
        rows, cols = power.shape
        shape = data.draw(st.tuples(st.integers(0, 2 * rows), st.integers(0, 2 * cols)).filter(
            lambda shape: shape != (rows, cols)))
        if fmt == "csv":
            header, _, body = raw.partition(b"\n")
            raw = header.replace(f"rows={rows} cols={cols}".encode(),
                                 "rows={} cols={}".format(*shape).encode()) + b"\n" + body
        elif data.draw(st.booleans()):
            raw = raw[:8] + np.array(shape, dtype="<u4").tobytes() + raw[16:]
        else:
            # a payload cut short or run long by some bytes
            cut = data.draw(st.integers(-4 * rows * cols, 64).filter(bool))
            raw = raw[:cut] if cut < 0 else raw + bytes(cut)
    matrix.write_bytes(raw)


class TestMalformedEstimates:
    """compare refuses an estimate directory with one defect: a ragged CSV, a
    bad .f32 magic, a header that disagrees with the payload, a non-finite
    cell, a dB cell past the float range, or a manifest key missing or of
    the wrong type.  It exits 2 or 3 with one error line, writes no report
    and raises no RuntimeWarning."""

    DEFECTS = ["ragged", "bad-magic", "wrong-size", "non-finite", "dB-past-float-range",
               "manifest"]

    @pytest.mark.parametrize("fmt", ["csv", "bin"])
    @pytest.mark.parametrize("scale", ["linear", "dB"])
    def test_intact_directory_scores(self, tiny_manifests, tmp_path, fmt, scale):
        truth = tiny_manifests["simulate"][0].parent
        write_estimate(tmp_path, truth, fmt, scale, None, None)
        assert main(["compare", "--estimate", str(tmp_path), "--truth", str(truth)]) == EXIT_OK

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), defect=st.sampled_from(DEFECTS))
    def test_exit_code(self, tiny_manifests, data, defect):
        truth = tiny_manifests["simulate"][0].parent
        fmt = {"ragged": "csv", "bad-magic": "bin"}.get(defect) or data.draw(
            st.sampled_from(["csv", "bin"]), label="fmt")
        scale = "dB" if defect == "dB-past-float-range" else data.draw(
            st.sampled_from(["linear", "dB"]), label="scale")
        with tempfile.TemporaryDirectory() as tmp:
            estimate_dir, report = Path(tmp) / "est", Path(tmp) / "report.txt"
            estimate_dir.mkdir()
            write_estimate(estimate_dir, truth, fmt, scale, defect, data)
            err = StringIO()
            with warnings.catch_warnings(record=True) as caught, redirect_stderr(err):
                warnings.simplefilter("always")
                code = main(["compare", "--estimate", str(estimate_dir), "--truth", str(truth),
                             "--report", str(report)])
            assert code in (EXIT_CONFIG, EXIT_DATA)
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:")
            assert not report.exists()
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("fmt", ["csv", "bin"])
    def test_shape_error_names_the_directory(self, tiny_manifests, tmp_path, fmt):
        truth = tiny_manifests["simulate"][0].parent
        write_estimate(tmp_path, truth, fmt, "linear", None, None)
        times = tmp_path / "times.csv"
        io.write_vector_csv(times, io.read_vector_csv(times)[:-1])
        err = StringIO()
        with redirect_stderr(err):
            code = main(["compare", "--estimate", str(tmp_path), "--truth", str(truth)])
        assert code == EXIT_DATA
        assert err.getvalue() == f"error: {tmp_path}: power shape must be (num windows, num bins)\n"

    def test_bad_header_names_its_file(self, tiny_manifests, tmp_path):
        truth = tiny_manifests["simulate"][0].parent
        write_estimate(tmp_path, truth, "csv", "linear", None, None)
        matrix = tmp_path / "spectrogram.csv"
        header, _, body = matrix.read_bytes().partition(b"\n")
        matrix.write_bytes(header.replace(b"rows=", b"rows=x") + b"\n" + body)
        rows = io.read_matrix_csv(truth / "truth_spectrogram.csv")[0].shape[0]
        err = StringIO()
        with redirect_stderr(err):
            code = main(["compare", "--estimate", str(tmp_path), "--truth", str(truth)])
        assert code == EXIT_DATA
        assert err.getvalue() == f"error: {matrix}: header rows='x{rows}' is not an integer\n"


class TestMatrixReadErrors:
    """compare exits 3 with one error line naming the matrix file it could
    not read: an unparseable CSV field, a byte that is not UTF-8, or a .f32
    payload that is not a whole number of float32 values."""

    @pytest.mark.parametrize("defect", ["unparseable", "non-utf8", "f32-size"])
    def test_error_names_its_file(self, tiny_manifests, tmp_path, defect):
        truth = tiny_manifests["simulate"][0].parent
        fmt = "bin" if defect == "f32-size" else "csv"
        write_estimate(tmp_path, truth, fmt, "linear", None, None)
        matrix = tmp_path / f"spectrogram{io.MATRIX_SUFFIXES[fmt]}"
        raw = matrix.read_bytes()
        if defect == "unparseable":
            matrix.write_bytes(raw[:raw.rindex(b",") + 1] + b"abc\n")
            message = "could not convert string to float: 'abc'"
        elif defect == "non-utf8":
            at = len(raw) // 2
            matrix.write_bytes(raw[:at] + b"\xff" + raw[at + 1:])
            message = f"'utf-8' codec can't decode byte 0xff in position {at}: invalid start byte"
        else:
            rows, cols = io.read_matrix_bin(matrix).shape
            matrix.write_bytes(raw[:-1])
            message = f"header says {rows}x{cols} float32 values, payload has {len(raw) - 17} bytes"
        err = StringIO()
        with redirect_stderr(err):
            code = main(["compare", "--estimate", str(tmp_path), "--truth", str(truth)])
        assert code == EXIT_DATA
        assert err.getvalue() == f"error: {matrix}: {message}\n"


def test_package_writes_only_plain_matrices(tmp_path, monkeypatch):
    # every matrix CSV that simulate and estimate write is read by numpy's
    # reader in compare, never parsed from its whole text
    reads, whole_text = [], []
    read_plain, read_text = io._read_matrix_plain, io._read_matrix_text
    monkeypatch.setattr(io, "_read_matrix_plain",
                        lambda *args: reads.append(read_plain(*args)) or reads[-1])
    monkeypatch.setattr(io, "_read_matrix_text",
                        lambda path: whole_text.append(path) or read_text(path))
    sim = tmp_path / "sim"
    assert main(["simulate", "--duration", "120", "--out-dir", str(sim)]) == EXIT_OK
    for method, extra in [("mt", ()), ("ssmt", ()), ("assmt", ("--baseline-seconds", "30"))]:
        for fmt in ("csv", "bin"):
            out = tmp_path / f"{method}-{fmt}"
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                assert main(["estimate", "--input", str(sim / "signal.csv"), "--sample-rate", "36",
                             "--method", method, "--format", fmt, "--out-dir", str(out),
                             *extra]) == EXIT_OK
            assert main(["compare", "--estimate", str(out), "--truth", str(sim)]) == EXIT_OK
    assert reads and None not in reads
    assert whole_text == []


# Extreme or out-of-range values of a flag, by kind.  None is a valid large
# duration, rate or window length, which would allocate a record or a bank
# that size: "1e308" and a 400-digit number overflow once they are scaled.
NON_FINITE = ("nan", "inf", "-inf")
NON_POSITIVE = ("0", "-0.0", "-1", "-1e308", "-" + "9" * 400)
HUGE = ("1e308", "9" * 400)
TINY = ("5e-324", "1e-300")
EVERY_FLOAT = NON_FINITE + NON_POSITIVE + HUGE + TINY
# an int flag's text must parse as an int, or argparse rejects it first
BAD_INTS = ("0", "-1", "-" + "9" * 400)

# The draws of each command's flags around a tiny valid run: 60 s at 2 Hz,
# 6 s windows of 12 samples.  Huge positive durations, rates, window
# lengths and EM iteration counts are valid and are left out.
FLAG_VALUES = {
    "simulate": {
        "--duration": NON_FINITE + NON_POSITIVE + TINY,
        "--sample-rate": NON_FINITE + NON_POSITIVE + TINY,
        "--window-seconds": EVERY_FLOAT,
        "--overlap": EVERY_FLOAT + ("1", "1.5"),
        "--snr-db": EVERY_FLOAT,
        "--carrier-freq-hz": EVERY_FLOAT,
        "--seed": BAD_INTS + ("9" * 400,),
    },
    "estimate": {
        "--sample-rate": EVERY_FLOAT,
        "--window-seconds": EVERY_FLOAT,
        "--overlap": EVERY_FLOAT + ("1", "1.5"),
        "--tapers": BAD_INTS + ("12", "13", "9" * 400),
        "--nw": EVERY_FLOAT + ("6", "6.5"),
        "--alpha": EVERY_FLOAT + ("1.0000001", "2"),
        "--baseline-seconds": EVERY_FLOAT,
        "--em-tol": EVERY_FLOAT,
        "--em-max-iter": BAD_INTS,
    },
    "tapers": {
        "--window-length": BAD_INTS + ("1",),
        "--window-seconds": NON_FINITE + NON_POSITIVE + HUGE + TINY,
        "--sample-rate": NON_FINITE + NON_POSITIVE + HUGE + TINY,
        "--tapers": BAD_INTS + ("12", "13", "9" * 400),
        "--nw": EVERY_FLOAT + ("6", "6.5"),
    },
}


@pytest.fixture(scope="module")
def tiny_signal(tmp_path_factory):
    """60 s of white noise at 2 Hz: ten 6 s windows."""
    root = tmp_path_factory.mktemp("tiny_signal")
    return io.write_signal(root / "signal", np.random.default_rng(5).standard_normal(120))


class TestOutOfRangeFlags:
    """One flag of a tiny valid run set to an extreme or out-of-range value
    exits 0, 2 or 3 with no traceback and no RuntimeWarning; exits 2 and 3
    write one error line and leave neither the output directory nor a
    staging directory."""

    @settings(max_examples=250, deadline=None)
    @given(data=st.data(), command=st.sampled_from(sorted(FLAG_VALUES)))
    def test_exit_code(self, tiny_signal, data, command):
        flag = data.draw(st.sampled_from(sorted(FLAG_VALUES[command])), label="flag")
        value = data.draw(st.sampled_from(FLAG_VALUES[command][flag]), label="value")
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            argv = {
                "simulate": ["simulate", "--duration", "60", "--sample-rate", "2",
                             "--window-seconds", "6"],
                "estimate": ["estimate", "--input", str(tiny_signal), "--sample-rate", "2",
                             "--window-seconds", "6", "--baseline-seconds", "30",
                             "--em-max-iter", "3", "--method",
                             data.draw(st.sampled_from(["mt", "ssmt", "assmt"]), label="method")],
                "tapers": ["tapers", "--window-seconds", "6", "--sample-rate", "2"],
            }[command]
            # --flag=value: argparse would take "-1e308" after a space for a flag
            argv += [f"{flag}={value}", "--out-dir", str(out)]
            err = StringIO()
            with warnings.catch_warnings(record=True) as caught, redirect_stderr(err):
                warnings.simplefilter("always")
                code = main(argv)
            assert code in (EXIT_OK, EXIT_CONFIG, EXIT_DATA)
            if code != EXIT_OK:
                lines = err.getvalue().splitlines()
                assert len(lines) == 1 and lines[0].startswith("error:"), lines
                assert not list(Path(tmp).iterdir())
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


class TestTapers:
    def test_writes_bank(self, tmp_path):
        out = tmp_path / "bank"
        code = main([
            "tapers", "--window-length", "128", "--tapers", "4",
            "--out-dir", str(out),
        ])
        assert code == EXIT_OK
        bank, _ = io.read_matrix_csv(out / "tapers.csv")
        conc = io.read_vector_csv(out / "concentrations.csv")
        assert bank.shape == (4, 128)
        assert conc.size == 4
        gram = bank @ bank.T
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-6)

    def test_seconds_and_rate_path(self, tmp_path):
        out = tmp_path / "bank2"
        code = main([
            "tapers", "--window-seconds", "2", "--sample-rate", "64",
            "--out-dir", str(out),
        ])
        assert code == EXIT_OK
        bank, _ = io.read_matrix_csv(out / "tapers.csv")
        assert bank.shape == (3, 128)

    def test_missing_window_spec_is_config_error(self, tmp_path):
        code = main(["tapers", "--out-dir", str(tmp_path / "x")])
        assert code == EXIT_CONFIG

    def test_impossible_bank_is_config_error(self, tmp_path):
        code = main([
            "tapers", "--window-length", "8", "--tapers", "20",
            "--out-dir", str(tmp_path / "x"),
        ])
        assert code == EXIT_CONFIG

    # a taper count past the float range has no default NW (tapers + 1) / 2
    @pytest.mark.parametrize("tapers", ["9" * 400, "-" + "9" * 400], ids=["huge", "-huge"])
    def test_taper_count_past_the_float_range_is_config_error(self, tmp_path, capsys, tapers):
        out = tmp_path / "x"
        code = main(["tapers", "--window-length", "8", f"--tapers={tapers}",
                     "--out-dir", str(out)])
        assert code == EXIT_CONFIG
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and "tapers" in lines[0]
        assert not out.exists()

    def test_window_sample_count_out_of_range_names_the_window(self, tmp_path, capsys):
        code = main(["tapers", "--window-seconds", "6", "--sample-rate", "1e308",
                     "--out-dir", str(tmp_path / "x")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: window sample count out of range")
        assert "baseline" not in err and "record" not in err

    @pytest.mark.parametrize("seconds, rate", [("1e200", "1e200"), ("inf", "16"), ("nan", "16")])
    def test_window_sample_count_out_of_range_is_config_error(self, tmp_path, seconds, rate):
        out = tmp_path / "x"
        code = main(["tapers", "--window-seconds", seconds, "--sample-rate", rate,
                     "--out-dir", str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()


class TestWarningLines:
    @pytest.mark.parametrize("argv, line", [
        (["estimate", "--input", "signal.csv", "--sample-rate", str(FS), "--method", "ssmt",
          "--em-max-iter", "3"],
         "warning: em_fit did not converge within 3 iterations"),
        (["tapers", "--window-length", "64", "--tapers", "4", "--nw", "1.5"],
         "warning: requested 4 tapers but only 2 are well concentrated for NW=1.5; "
         "trailing tapers will leak out of band"),
    ], ids=["capped-em", "leaky-tapers"])
    def test_warning_is_one_line_on_stderr(self, sim_dir, tmp_path, argv, line):
        # no source path or line number, which would differ between installs
        src = str(Path(statespec.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run(
            [sys.executable, "-m", "statespec.cli", *argv, "--out-dir", str(tmp_path / "out")],
            capture_output=True, text=True, cwd=sim_dir, env=env, timeout=120,
        )
        assert result.returncode == EXIT_OK
        assert result.stderr == line + "\n"

    def test_main_restores_the_warning_format(self, tmp_path):
        before = warnings.formatwarning
        with pytest.warns(UserWarning, match="leak out of band"):
            assert main(["tapers", "--window-length", "64", "--tapers", "4", "--nw", "1.5",
                         "--out-dir", str(tmp_path / "t")]) == EXIT_OK
        assert warnings.formatwarning is before


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "statespec" in capsys.readouterr().out


class TestImport:
    def test_cli_import_leaves_out_scipy_signal(self):
        # scipy.signal alone costs about a second on every CLI start
        src = str(Path(statespec.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys, statespec.cli; print('scipy.signal' in sys.modules)"],
            capture_output=True, text=True, env=env, check=True, timeout=60,
        )
        assert result.stdout.strip() == "False"
