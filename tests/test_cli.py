"""End-to-end runs of the command line, in process."""
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import warnings
import weakref
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import statespec
from statespec import cli, io
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
        assert estimate(out, sim_dir, "assmt", "--baseline-seconds", "45") == EXIT_OK
        trace, _ = io.read_matrix_csv(out / "state_var_trace_taper0.csv")
        assert trace.shape == (15, int(6 * FS))
        base, _ = io.read_matrix_csv(out / "state_var.csv")
        assert np.all(trace >= base[:, 0][None, :] - 1e-12)

    def test_estimate_manifest_replay(self, sim_dir, tmp_path):
        first = tmp_path / "first"
        assert estimate(first, sim_dir, "ssmt") == EXIT_OK
        second = tmp_path / "second"
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
        "key, value",
        [("input_path", 5), ("output_dir", 7),
         pytest.param("sample_rate_hz", 10**400, id="sample_rate_hz-1e400-int"),
         pytest.param("window_seconds", 10**400, id="window_seconds-1e400-int"),
         pytest.param("baseline_seconds", 10**400, id="baseline_seconds-1e400-int"),
         pytest.param("nw", 10**400, id="nw-1e400-int"),
         pytest.param("em_tol", 10**400, id="em_tol-1e400-int")],
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
            # the spectrogram and the writes need only the filter's trace
            alive.append(refs[0]() is not None)
            return real_spectrogram(*args, **kwargs)

        monkeypatch.setattr(cli, "eigen_coefficients", spy_coefficients)
        monkeypatch.setattr(cli, "ssmt_spectrogram", spy_spectrogram)
        assert estimate(tmp_path / method, sim_dir, method, *extra) == EXIT_OK
        assert len(refs) == 1
        assert alive == [False]


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

    def test_missing_directory_is_data_error(self, sim_dir, tmp_path):
        code = main([
            "compare", "--estimate", str(tmp_path / "nothing"), "--truth", str(sim_dir),
        ])
        assert code == EXIT_DATA


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

    @pytest.mark.parametrize("seconds, rate", [("1e200", "1e200"), ("inf", "16"), ("nan", "16")])
    def test_window_sample_count_out_of_range_is_config_error(self, tmp_path, seconds, rate):
        out = tmp_path / "x"
        code = main(["tapers", "--window-seconds", seconds, "--sample-rate", rate,
                     "--out-dir", str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()


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
