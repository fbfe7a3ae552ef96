"""Round trips for the file formats the command line speaks."""
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from oracles import matrix_csv_text, parse_signal_csv, signal_csv_text

from statespec import io

SPECIAL_VALUES = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e308, 3.0, 1e-5]


class TestMatrixCsv:
    def test_round_trip_with_scale(self, tmp_path, rng):
        values = rng.standard_normal((4, 3))
        path = tmp_path / "m.csv"
        io.write_matrix_csv(path, values, scale="dB")
        back, meta = io.read_matrix_csv(path)
        np.testing.assert_allclose(back, values, rtol=1e-8)
        assert meta["scale"] == "dB"
        assert meta["rows"] == "4" and meta["cols"] == "3"

    def test_header_shape_mismatch_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("# rows=2 cols=2\n1.0,2.0\n")
        with pytest.raises(ValueError, match="header says"):
            io.read_matrix_csv(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("# rows=0 cols=0\n")
        with pytest.raises(ValueError, match="no data rows"):
            io.read_matrix_csv(path)


class TestMatrixBin:
    def test_round_trip(self, tmp_path, rng):
        values = rng.standard_normal((5, 7)).astype(np.float32)
        path = tmp_path / "m.f32"
        io.write_matrix_bin(path, values)
        back = io.read_matrix_bin(path)
        np.testing.assert_array_equal(back, values.astype(float))

    def test_magic_checked(self, tmp_path):
        path = tmp_path / "m.f32"
        path.write_bytes(b"NOTMAGIC" + b"\0" * 16)
        with pytest.raises(ValueError, match="bad magic"):
            io.read_matrix_bin(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "m.f32"
        header = io.MATRIX_MAGIC + np.array([2, 2], dtype="<u4").tobytes()
        path.write_bytes(header + np.zeros(3, dtype="<f4").tobytes())
        with pytest.raises(ValueError, match="payload"):
            io.read_matrix_bin(path)

    def test_header_product_does_not_wrap(self, tmp_path):
        # 65536 * 65537 wraps to 65536 in uint32 arithmetic
        path = tmp_path / "m.f32"
        header = io.MATRIX_MAGIC + np.array([65536, 65537], dtype="<u4").tobytes()
        path.write_bytes(header + np.zeros(65536, dtype="<f4").tobytes())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="header says 65536x65537"):
                io.read_matrix_bin(path)


class TestDispatch:
    def test_write_matrix_picks_extension(self, tmp_path):
        values = np.ones((2, 2))
        p_csv = io.write_matrix(tmp_path / "a", values, fmt="csv")
        p_bin = io.write_matrix(tmp_path / "b", values, fmt="bin")
        assert p_csv.suffix == ".csv"
        assert p_bin.suffix == ".f32"
        np.testing.assert_array_equal(io.read_matrix(p_csv)[0], values)
        np.testing.assert_array_equal(io.read_matrix(p_bin)[0], values)

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown matrix format"):
            io.write_matrix(tmp_path / "a", np.ones((1, 1)), fmt="hdf5")


class TestSignal:
    def test_csv_round_trip_full_precision(self, tmp_path, rng):
        samples = rng.standard_normal(100)
        path = io.write_signal(tmp_path / "s", samples, fmt="csv")
        np.testing.assert_array_equal(io.read_signal(path), samples)

    def test_bin_round_trip(self, tmp_path, rng):
        samples = rng.standard_normal(64)
        path = io.write_signal(tmp_path / "s", samples, fmt="bin")
        assert path.suffix == ".f64"
        np.testing.assert_array_equal(io.read_signal(path), samples)

    def test_csv_header_line_skipped(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("value\n1.5\n2.5\n")
        np.testing.assert_array_equal(io.read_signal(path), [1.5, 2.5])

    def test_empty_csv_reads_empty(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("")
        assert io.read_signal(path).size == 0


class TestVectorAndManifest:
    def test_vector_round_trip(self, tmp_path):
        values = np.array([1.0, 2.5, -3.0])
        io.write_vector_csv(tmp_path / "v.csv", values)
        np.testing.assert_allclose(io.read_vector_csv(tmp_path / "v.csv"), values)

    def test_manifest_round_trip(self, tmp_path):
        payload = {"command": "estimate", "config": {"alpha": 0.95, "tapers": 3}}
        io.write_manifest(tmp_path / "manifest.json", payload)
        assert io.read_manifest(tmp_path / "manifest.json") == payload


class TestGoldenBytes:
    """Replay and the byte-identity checks depend on these exact bytes."""

    @pytest.mark.parametrize("scale", [None, "dB"])
    @pytest.mark.parametrize(
        "values",
        [np.reshape(SPECIAL_VALUES, (2, 4)), np.reshape(SPECIAL_VALUES, (8, 1)), [[-0.0]]],
        ids=["2x4", "8x1", "1x1"],
    )
    def test_matrix_csv(self, tmp_path, values, scale):
        path = tmp_path / "m.csv"
        io.write_matrix_csv(path, values, scale=scale)
        assert path.read_bytes() == matrix_csv_text(values, scale).encode()

    @pytest.mark.parametrize("samples", [SPECIAL_VALUES, []], ids=["special", "empty"])
    def test_signal_csv(self, tmp_path, samples):
        path = io.write_signal(tmp_path / "s", samples, fmt="csv")
        assert path.read_bytes() == signal_csv_text(samples).encode()

    @settings(max_examples=40, deadline=None)
    @given(values=hnp.arrays(np.float64, hnp.array_shapes(max_dims=2, max_side=6)))
    def test_any_float64_array(self, values):
        with tempfile.TemporaryDirectory() as tmp:
            matrix = Path(tmp) / "m.csv"
            io.write_matrix_csv(matrix, values, scale="linear")
            assert matrix.read_bytes() == matrix_csv_text(values, "linear").encode()
            signal = io.write_signal(Path(tmp) / "s", values.ravel(), fmt="csv")
            assert signal.read_bytes() == signal_csv_text(values.ravel()).encode()


def assert_reads_like_reference(path):
    text = path.read_text()
    try:
        expected = parse_signal_csv(text)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            io.read_signal(path)
        assert str(info.value) == str(exc)
    else:
        np.testing.assert_array_equal(io.read_signal(path), expected)


class TestSignalParser:
    @pytest.mark.parametrize(
        "text",
        [
            "value\n1.5\n2.5\n",
            "\n\n1.5\n\n  \n2.5\n\n",
            "  1.5  \n\t2.5\t\n -3e-2 \n",
            "time,value\n0,1.5\n1, 2.5 ,x\n",
            "1.5,2\n2.5\n",
            "1.5\nabc\n2.5\n",
            "1.5\n2.5,\n,3.5\n",
            "value\n",
        ],
        ids=["header", "blank-lines", "whitespace", "multi-column", "mixed-columns",
             "non-numeric-body", "empty-field", "header-only"],
    )
    def test_matches_reference(self, tmp_path, text):
        path = tmp_path / "s.csv"
        path.write_text(text)
        assert_reads_like_reference(path)

    @settings(max_examples=80, deadline=None)
    @given(text=st.text(alphabet="0123456789.-+e, \t\nainf", max_size=40))
    def test_any_text(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "s.csv"
            path.write_text(text)
            assert_reads_like_reference(path)
