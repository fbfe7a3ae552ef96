"""Round trips for the file formats the command line speaks."""
import contextlib
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from oracles import matrix_csv_text, parse_signal_csv, read_matrix_csv_rows, signal_csv_text

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

    @pytest.mark.parametrize("value", [1e39, -3.5e38, np.finfo(float).max])
    def test_finite_values_past_float32_rejected(self, tmp_path, value):
        # a cast would write inf; numpy 1.23 does not even warn about it
        path = tmp_path / "m.f32"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="float32 range"):
                io.write_matrix_bin(path, np.array([[1.0, value], [np.inf, np.nan]]))
        assert not path.exists()

    def test_float32_extremes_and_non_finite_values_written(self, tmp_path):
        top = float(np.finfo(np.float32).max)
        values = np.array([[top, -top, 1e-50], [np.inf, -np.inf, np.nan]])
        path = tmp_path / "m.f32"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            io.write_matrix_bin(path, values)
        np.testing.assert_array_equal(io.read_matrix_bin(path),
                                      values.astype(np.float32).astype(float))


class TestDispatch:
    def test_write_matrix_picks_extension(self, tmp_path):
        values = np.ones((2, 2))
        p_csv = io.write_matrix(tmp_path / "a", values, fmt="csv")
        p_bin = io.write_matrix(tmp_path / "b", values, fmt="bin")
        assert p_csv.suffix == ".csv"
        assert p_bin.suffix == ".f32"
        np.testing.assert_array_equal(io.read_matrix(p_csv)[0], values)
        np.testing.assert_array_equal(io.read_matrix(p_bin)[0], values)

    @pytest.mark.parametrize("fmt", ["csv", "bin"])
    @pytest.mark.parametrize("cuts", [(1,), (3, 4), (1, 2, 3, 4, 5)])
    def test_blocks_of_rows_write_the_whole_matrix(self, tmp_path, rng, fmt, cuts):
        values = rng.standard_normal((6, 4))
        whole = io.write_matrix(tmp_path / "whole", values, fmt=fmt, scale="dB")
        for first, stop in zip((0, *cuts), (*cuts, 6)):
            blocks = io.write_matrix(tmp_path / "blocks", values[first:stop], fmt=fmt,
                                     scale="dB", append=first > 0)
        assert blocks.read_bytes() == whole.read_bytes()
        # no staged copy is left behind
        assert {path.name for path in tmp_path.iterdir()} == {whole.name, blocks.name}

    @pytest.mark.parametrize("fmt", ["csv", "bin"])
    @pytest.mark.parametrize("cuts", [(1,), (3, 4), (1, 2, 3, 4, 5)])
    def test_row_count_restated_by_the_last_block(self, tmp_path, rng, fmt, cuts):
        # a matrix whose length is known only once its last block is made:
        # each block restates the count, so the file reads as the rows so far
        values = rng.standard_normal((6, 4))
        for first, stop in zip((0, *cuts), (*cuts, 6)):
            blocks = io.write_matrix(tmp_path / "blocks", values[first:stop], fmt=fmt,
                                     scale="dB", append=first > 0)
            whole = io.write_matrix(tmp_path / "whole", values[:stop], fmt=fmt, scale="dB")
            read, meta = io.read_matrix(blocks)
            assert read.shape == (stop, 4)
            np.testing.assert_array_equal(read, io.read_matrix(whole)[0])
            assert meta == io.read_matrix(whole)[1]
            # no staged copy is left behind
            assert {path.name for path in tmp_path.iterdir()} == {whole.name, blocks.name}

    @pytest.mark.parametrize("fmt", ["csv", "bin"])
    @settings(max_examples=30, deadline=None)
    @given(sizes=st.lists(st.integers(1, 40), min_size=1, max_size=8),
           cols=st.integers(1, 3))
    # counts whose digits grow by one block and by a block of one row
    @example(sizes=[9, 1, 89, 1], cols=2)
    @example(sizes=[3, 10, 100], cols=1)
    def test_every_append_leaves_the_rows_so_far(self, fmt, sizes, cols):
        values = np.random.default_rng(len(sizes)).standard_normal((sum(sizes), cols))
        with tempfile.TemporaryDirectory() as tmp:
            first = 0
            for size in sizes:
                stop = first + size
                blocks = io.write_matrix(Path(tmp) / "blocks", values[first:stop], fmt=fmt,
                                         scale="dB", append=first > 0)
                whole = io.write_matrix(Path(tmp) / "whole", values[:stop], fmt=fmt,
                                        scale="dB")
                assert blocks.read_bytes() == whole.read_bytes()
                assert io.read_matrix(blocks)[0].shape == (stop, cols)
                assert sorted(path.name for path in Path(tmp).iterdir()) == sorted(
                    [blocks.name, whole.name])
                first = stop

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown matrix format"):
            io.write_matrix(tmp_path / "a", np.ones((1, 1)), fmt="hdf5")


class TestSignal:
    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown signal format 'hdf5'"):
            io.write_signal(tmp_path / "s", np.ones(3), fmt="hdf5")
        assert list(tmp_path.iterdir()) == []

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
        assert list(io.read_signal(path, blocks=True)) == []

    @settings(max_examples=40, deadline=None)
    @given(samples=hnp.arrays(np.float64, st.integers(0, 60),
                              elements=st.floats(allow_nan=False)),
           fmt=st.sampled_from(["csv", "bin"]), chars=st.integers(1, 40))
    def test_blocks_hold_the_whole_array(self, samples, fmt, chars):
        with block_chars(chars), tempfile.TemporaryDirectory() as tmp:
            path = io.write_signal(Path(tmp) / "s", samples, fmt=fmt)
            blocks = list(io.read_signal(path, blocks=True))
            whole = io.read_signal(path)
        assert all(block.size for block in blocks)
        joined = np.concatenate(blocks) if blocks else np.array([])
        assert joined.tobytes() == whole.tobytes() == samples.tobytes()

    def test_truncated_binary_blocks_rejected(self, tmp_path):
        path = tmp_path / "s.f64"
        path.write_bytes(bytes(20))
        with pytest.raises(ValueError, match="20 bytes"):
            next(io.read_signal(path, blocks=True))

    def test_truncated_binary_whole_read_names_the_file(self, tmp_path):
        path = tmp_path / "trunc.f64"
        path.write_bytes(bytes(37))
        message = f"{path}: 37 bytes is not a whole number of float64 samples"
        with pytest.raises(ValueError) as whole:
            io.read_signal(path)
        with pytest.raises(ValueError) as in_blocks:
            next(io.read_signal(path, blocks=True))
        assert str(whole.value) == str(in_blocks.value) == message


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
        [np.reshape(SPECIAL_VALUES, (2, 4)), np.reshape(SPECIAL_VALUES, (8, 1)), [[-0.0]],
         # one taper of a (K, J, M) trace, as the command line writes it: a strided view
         np.stack([np.reshape(SPECIAL_VALUES, (2, 4))] * 3, axis=2)[:, :, 1]],
        ids=["2x4", "8x1", "1x1", "strided"],
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


def write_in_blocks(path, values, cuts=(), **kwargs):
    """Write ``values`` in blocks of rows cut at ``cuts``.  Returns the file's
    bytes."""
    bounds = (0, *cuts, len(values))
    for first, stop in zip(bounds, bounds[1:]):
        io.write_matrix_csv(path, values[first:stop], append=first > 0, **kwargs)
    return path.read_bytes()


# a raised cell: not the baseline's bits, though perhaps its value
RAISED_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 2.5e-310, 1e-300, 3.0, np.inf, np.nan, 1e308]


class TestBaselineCells:
    """A state-variance trace's shape: most cells repeat a baseline row bit
    for bit, and the others are any value, signed zeros and subnormals
    among them.  Written in blocks of rows, the file holds the bytes that
    ``%.9g`` gives every cell."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_any_cells_at_the_baseline(self, data):
        # one-sided and full-grid trace widths
        cols = data.draw(st.sampled_from([1, 3, 109, 216]), label="cols")
        rows = data.draw(st.integers(1, 12), label="rows")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        baseline = rng.choice(SPECIAL_VALUES + [0.0, 2.5e-310], cols)
        share = data.draw(st.sampled_from([0.0, 0.6, 1.0]), label="share at the baseline")
        raised = np.where(rng.random((rows, cols)) < 0.5, rng.choice(RAISED_VALUES, (rows, cols)),
                          rng.standard_normal((rows, cols)))
        values = np.where(rng.random((rows, cols)) < share, baseline, raised)
        cuts = tuple(sorted(set(data.draw(st.lists(st.integers(1, rows), max_size=3),
                                          label="cuts")) - {rows}))
        with tempfile.TemporaryDirectory() as tmp:
            written = write_in_blocks(Path(tmp) / "m.csv", values, cuts)
        assert written == matrix_csv_text(values).encode()

    def test_signed_zeros_and_subnormals(self, tmp_path):
        values = np.array([[0.0, -0.0, 5e-324, 2.5e-310, np.nan],
                           [-0.0, 0.0, -5e-324, 5e-324, -np.nan],
                           [-0.0, -0.0, 5e-324, 1e-310, np.inf]])
        written = write_in_blocks(tmp_path / "m.csv", values, scale="dB")
        assert written == matrix_csv_text(values, "dB").encode()
        assert written.splitlines()[2:] == [b"-0,0,-4.94065646e-324,4.94065646e-324,nan",
                                            b"-0,-0,4.94065646e-324,1e-310,inf"]

    @pytest.mark.parametrize("cuts", [(1,), (3, 4), (1, 2, 3, 4, 5)])
    @pytest.mark.parametrize("cols", [109, 216])
    def test_blocks_with_row_count_restated(self, tmp_path, rng, cuts, cols):
        baseline = rng.standard_normal(cols)
        values = np.where(rng.random((6, cols)) < 0.6, baseline, rng.standard_normal((6, cols)))
        whole = tmp_path / "whole.csv"
        io.write_matrix_csv(whole, values, scale="linear")
        written = write_in_blocks(tmp_path / "m.csv", values, cuts, scale="linear")
        assert written == whole.read_bytes() == matrix_csv_text(values, "linear").encode()

    def test_strided_taper_of_a_trace(self, tmp_path, rng):
        # the command line writes taper m of a (K, J, M) trace: a strided view
        state_var = rng.random((109, 3))
        trace = np.where(rng.random((20, 109, 3)) < 0.6, state_var, rng.random((20, 109, 3)))
        for m in range(3):
            path = io.write_matrix(tmp_path / f"t{m}", trace[:, :, m])
            assert path.read_bytes() == matrix_csv_text(trace[:, :, m]).encode()


# numbers, separators, and every line break and some other whitespace
# that str.splitlines and str.strip know
LINE_TEXT = "0123456789.-e,nai \t\n\r\x0b\x0c\x1c\x85\xa0\u2028"


@contextlib.contextmanager
def block_chars(chars):
    """Let the CSV readers take ``chars`` characters of text per block."""
    saved = io._READ_BLOCK_CHARS
    io._READ_BLOCK_CHARS = chars
    try:
        yield
    finally:
        io._READ_BLOCK_CHARS = saved


def plain_block(size):
    """Let the matrix CSV reader's plainness check read ``size`` bytes at a time."""
    return mock.patch.object(io, "_PLAIN_BLOCK", size)


# Matrix text that is plain more often than not: an optional "#" header
# ending in either line break, then digits, separators and line breaks.
PLAIN_MATRIX_TEXT = st.builds(
    str.__add__,
    st.sampled_from(["", "# rows=2 cols=2\n", "# rows=2 cols=2\r\n", "#\r"]),
    st.text(alphabet="0123456789.-e,\r\n", max_size=40),
)


def read_signal_blocks(path):
    """The samples of ``path`` as the command line reads them: in blocks."""
    blocks = list(io.read_signal(path, blocks=True))
    assert all(block.size for block in blocks)
    return np.concatenate(blocks) if blocks else np.array([])


def assert_reads_like_reference(path):
    # the whole read and the blocks give the reference's values bit for bit,
    # or its error
    text = path.read_text()
    try:
        expected = parse_signal_csv(text)
    except ValueError as exc:
        for read in (io.read_signal, read_signal_blocks):
            with pytest.raises(ValueError) as info:
                read(path)
            assert str(info.value) == str(exc)
    else:
        for read in (io.read_signal, read_signal_blocks):
            samples = read(path)
            assert samples.dtype == expected.dtype
            assert samples.tobytes() == expected.tobytes()


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

    @pytest.mark.parametrize(
        "text, chars",
        [
            # the first block holds only the header, the second a bad line
            ("value\nabc\n1.5\n", 6),
            ("\n\n \n\t\n\n\nvalue\n1.5\n2.5\n", 6),
            ("\n\n \n\t\n\n\n1.5\n2.5\n", 6),
            ("1.5\n2.5\n3.5\n4.5\n5.5,9\n6.5\n", 8),
            ("1.5\n2.5\n3.5\n4.5\n5.5\n\n6.5\n", 8),
            ("1.5\n2.5\n3.5\n4.5\n 5.5 \n6.5\n", 8),
            ("1.5\n2.5\n3.5\n4.5\nvalue\n6.5\n", 8),
        ],
        ids=["header-only-block", "blank-first-block-header", "blank-first-block",
             "late-comma", "late-blank", "late-whitespace", "late-non-numeric"],
    )
    def test_block_edges(self, tmp_path, text, chars):
        # a block that float() does not take line by line goes through the
        # field rules; the header is settled once, on the first non-blank line
        path = tmp_path / "s.csv"
        path.write_text(text)
        with block_chars(chars):
            assert_reads_like_reference(path)

    def test_header_settled_in_an_earlier_block(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("value\nabc\n1.5\n")
        with block_chars(6), pytest.raises(ValueError) as info:
            read_signal_blocks(path)
        assert str(info.value) == "could not convert string to float: 'abc'"

    @settings(max_examples=80, deadline=None)
    @given(text=st.text(alphabet="0123456789.-+e, \t\nainf", max_size=40))
    def test_any_text(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "s.csv"
            path.write_text(text)
            assert_reads_like_reference(path)

    @settings(max_examples=80, deadline=None)
    @given(text=st.text(alphabet=LINE_TEXT, max_size=40), block=st.integers(1, 9))
    def test_any_text_in_small_blocks(self, text, block):
        # blocks end inside lines, inside "\r\n" and between line breaks
        with block_chars(block), tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "s.csv"
            path.write_text(text)
            assert_reads_like_reference(path)


def assert_matrix_reads_like_reference(path):
    try:
        expected, expected_meta = read_matrix_csv_rows(path)
    except ValueError:
        with pytest.raises(ValueError):
            io.read_matrix_csv(path)
    else:
        values, meta = io.read_matrix_csv(path)
        np.testing.assert_array_equal(values, expected)
        assert values.shape == expected.shape
        assert meta == expected_meta


class TestMatrixCsvParser:
    @pytest.mark.parametrize(
        "text",
        [
            "# rows=2 cols=3 scale=dB\n1,2,3\n4,5,6\n",
            "1,2,3\n4,5,6\n",
            "# rows=2 cols=3\n1,2,3\n4,5\n",
            "1,2\n3\n",
            "1\n2,3\n",
            "# rows=2 cols=2\n1,2\n\n\n3,4\n\n",
            "# rows=2 cols=2\n1,2\n   \n3,4\n",
            "# rows=1 cols=1\n  \n",
            "# rows=2 cols=2\n1,,\n3,4\n",
            "# rows=2 cols=2\n1,\n3,4\n",
            "# rows=0 cols=0\n",
            "# rows=3 cols=2\n1,2\n3,4\n",
            "# rows=2 cols=3\n1,2\n3,4\n",
            " 1.5 , -2e3 \n\tnan,inf\n",
            "# rows=x cols=2\n1,2\n",
            "",
        ],
        ids=["header", "no-header", "ragged-last", "ragged-short", "ragged-long",
             "blank-lines", "whitespace-line", "whitespace-only", "empty-fields",
             "empty-field", "header-only", "rows-disagree", "cols-disagree",
             "padded-fields", "bad-header", "empty-file"],
    )
    def test_matches_reference(self, tmp_path, text):
        path = tmp_path / "m.csv"
        path.write_text(text)
        assert_matrix_reads_like_reference(path)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2,3\n4,5,6\n7,8\n")
        with pytest.raises(ValueError, match="different numbers of fields"):
            io.read_matrix_csv(path)

    def test_many_blocks(self, tmp_path, rng, monkeypatch, loadtxt_calls):
        values = rng.standard_normal((23, 4))
        path = tmp_path / "m.csv"
        io.write_matrix_csv(path, values)
        header = len(path.read_text().splitlines()[0])
        for size in (10, header, header + 1, header + 2, 64):
            monkeypatch.setattr(io, "_PLAIN_BLOCK", size)
            loadtxt_calls.clear()
            assert_matrix_same_bits_as_reference(path)
            # a first read that ends before the header's line break finds no
            # header end: the file is parsed from its whole text instead
            assert loadtxt_calls == ([] if size <= header else ["returned"])

    @settings(max_examples=80, deadline=None)
    @given(text=st.text(alphabet="0123456789.-e,# \t\nrowscl=nai", max_size=60))
    def test_any_text(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.csv"
            path.write_text(text)
            assert_matrix_reads_like_reference(path)

    @settings(max_examples=80, deadline=None)
    @given(text=st.one_of(PLAIN_MATRIX_TEXT, st.text(alphabet=LINE_TEXT + "#rowscl=", max_size=60)),
           block=st.integers(1, 9))
    def test_any_text_in_small_blocks(self, text, block):
        # reads end inside the header, on its line break, inside "\r\n" and in the data
        with plain_block(block), tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.csv"
            path.write_text(text)
            assert_matrix_reads_like_reference(path)

    @settings(max_examples=40, deadline=None)
    @given(values=hnp.arrays(np.float64, st.tuples(st.integers(1, 7), st.integers(1, 7))),
           block=st.integers(1, 80))
    def test_round_trip(self, values, block):
        # reads shorter than the header, about 30 bytes, send the file to
        # the whole-text parse; longer ones end inside the data
        printed = np.array([[float(f"{v:.9g}") for v in row] for row in values])
        with plain_block(block), tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.csv"
            io.write_matrix_csv(path, values, scale="linear")
            back, meta = io.read_matrix_csv(path)
        np.testing.assert_array_equal(back, printed)
        assert meta == {"rows": str(values.shape[0]), "cols": str(values.shape[1]),
                        "scale": "linear"}

    @pytest.mark.parametrize(("header", "field"), [("rows=x cols=2", "rows='x'"),
                                                   ("rows=1 cols=2.0", "cols='2.0'")],
                             ids=["rows", "cols"])
    @pytest.mark.parametrize("data", ["1,2\n", "1, 2\n"], ids=["plain", "spaced"])
    def test_bad_header_names_its_file(self, tmp_path, header, field, data):
        path = tmp_path / "m.csv"
        path.write_text(f"# {header}\n{data}")
        with pytest.raises(ValueError) as raised:
            io.read_matrix_csv(path)
        assert str(raised.value) == f"{path}: header {field} is not an integer"


# Files that only the whole-text parse reads: each holds a byte numpy's C
# text reader does not take as that parse does, or no data.
OUTSIDER_CSV = {
    "underscore": "1_0,2\n",
    "form-feed": "1,\x0c2,3\n",
    "nul": "1\x00,2\n",
    "comment-after-header": "# rows=1 cols=2\n1,2\n#c\n",
    "blank-before-header": "\n# rows=1 cols=2\n1,2\n",
    "header-only": "# rows=1 cols=2\n",
    "arabic-digit": "١,2\n",
    "form-feed-in-header": "# rows=1\x0ccols=2\n1,2\n",
    "non-ascii-header": "# rows=1 cols=2 scale=dé\n1,2\n",
}
# Plain files: numpy's reader reads them, and the whole-text parse as well
# where the header's shape disagrees.
PLAIN_CSV = {
    "spelled": "infinity,-NaN\n+1e5,1E-5\n",
    "rows-past-header": "# rows=1 cols=2\n1,2\n3,4\n",
}
# A plain field of each spelling float() takes, or a near miss
PLAIN_FIELDS = st.one_of(
    st.from_regex(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]{1,3})?", fullmatch=True),
    st.sampled_from(["nan", "-NaN", "inf", "+Infinity", "INF", "-iNfInItY", "e", ".", "", "1e"]),
)


def assert_matrix_same_bits_as_reference(path):
    """`assert_matrix_reads_like_reference`, with NaN signs compared too."""
    try:
        expected, expected_meta = read_matrix_csv_rows(path)
    except ValueError:
        with pytest.raises(ValueError):
            io.read_matrix_csv(path)
    else:
        values, meta = io.read_matrix_csv(path)
        assert values.shape == expected.shape and values.dtype == expected.dtype
        assert values.tobytes() == expected.tobytes()
        assert meta == expected_meta


@pytest.fixture
def loadtxt_calls(monkeypatch):
    """How each `np.loadtxt` call so far ended: "returned" or "raised"."""
    calls = []
    loadtxt = np.loadtxt

    def spy(*args, **kwargs):
        calls.append("raised")
        values = loadtxt(*args, **kwargs)
        calls[-1] = "returned"
        return values

    monkeypatch.setattr(np, "loadtxt", spy)
    return calls


class TestMatrixCsvReaders:
    """A plain matrix CSV is read by numpy's C text reader, any other is
    parsed from its whole text, and both give the values and errors of the
    reference."""

    @pytest.mark.parametrize("text", [*OUTSIDER_CSV.values(), *PLAIN_CSV.values()],
                             ids=[*OUTSIDER_CSV, *PLAIN_CSV])
    def test_matches_reference(self, tmp_path, text):
        path = tmp_path / "m.csv"
        path.write_bytes(text.encode())
        assert_matrix_same_bits_as_reference(path)

    @pytest.mark.parametrize("text", OUTSIDER_CSV.values(), ids=OUTSIDER_CSV)
    def test_outsiders_skip_the_c_reader(self, tmp_path, loadtxt_calls, text):
        path = tmp_path / "m.csv"
        path.write_bytes(text.encode())
        with contextlib.suppress(ValueError):
            io.read_matrix_csv(path)
        assert loadtxt_calls == []

    @pytest.mark.parametrize("text", PLAIN_CSV.values(), ids=PLAIN_CSV)
    def test_plain_files_take_the_c_reader(self, tmp_path, loadtxt_calls, text):
        path = tmp_path / "m.csv"
        path.write_bytes(text.encode())
        with contextlib.suppress(ValueError):
            io.read_matrix_csv(path)
        assert loadtxt_calls == ["returned"]

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_written_matrix_takes_the_c_reader(self, tmp_path, rng, loadtxt_calls, newline):
        values = rng.standard_normal((7, 3)) * 10.0 ** rng.integers(-300, 300, (7, 3))
        values[0, :] = [np.nan, -np.inf, -0.0]
        path = tmp_path / "m.csv"
        io.write_matrix_csv(path, values, scale="dB")
        path.write_bytes(path.read_bytes().replace(b"\n", newline.encode()))
        assert_matrix_same_bits_as_reference(path)
        assert loadtxt_calls == ["returned"]
        read, meta = io.read_matrix_csv(path)
        assert read.flags.c_contiguous and read.flags.writeable and read.flags.owndata
        assert meta == {"rows": "7", "cols": "3", "scale": "dB"}

    @pytest.mark.parametrize("shape", [(1, 1), (1, 4), (4, 1)])
    def test_vectors_keep_their_shape(self, tmp_path, loadtxt_calls, shape):
        path = tmp_path / "m.csv"
        io.write_matrix_csv(path, np.arange(float(np.prod(shape))).reshape(shape))
        assert io.read_matrix_csv(path)[0].shape == shape
        assert loadtxt_calls == ["returned"]

    @pytest.mark.parametrize("rows", ["0", "-1", "10" * 12, "9" * 40])
    def test_any_header_row_count(self, tmp_path, rows):
        # numpy's reader is given no row count, so a huge one allocates nothing
        path = tmp_path / "m.csv"
        path.write_text(f"# rows={rows} cols=2\n1,2\n3,4\n")
        with pytest.raises(ValueError, match="header says"):
            io.read_matrix_csv(path)

    def test_warnings_shown_once_stay_shown_once(self, tmp_path):
        # a read between two estimates must not make the first one's
        # warning show again on the second
        path = tmp_path / "m.csv"
        io.write_matrix_csv(path, np.ones((2, 2)))

        def warn():
            warnings.warn("shown once", UserWarning)

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            warn()
            io.read_matrix_csv(path)
            warn()
        assert len(caught) == 1

    @settings(max_examples=150, deadline=None)
    @given(rows=st.lists(st.lists(PLAIN_FIELDS, min_size=1, max_size=3), max_size=4),
           header=st.sampled_from(["none", "shape", "other"]),
           other=st.text(alphabet="#rowscl= 0123456789\x0c", max_size=16),
           newline=st.sampled_from(["\n", "\r\n", "\r"]),
           noise=st.text(alphabet="0123456789.,+-eEnaifty\n\r#rowscl= _\x00\x0c", max_size=2),
           at=st.integers(0, 60))
    def test_mostly_plain_text(self, rows, header, other, newline, noise, at):
        text = newline.join(",".join(row) for row in rows) + newline
        if header == "shape":
            text = f"# rows={len(rows)} cols={len(rows[0]) if rows else 0}{newline}" + text
        elif header == "other":
            text = other + newline + text
        text = text[:at] + noise + text[at:]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.csv"
            path.write_bytes(text.encode())
            assert_matrix_same_bits_as_reference(path)


class TestMatrixReadErrors:
    """Every error of a matrix read names its file."""

    @pytest.mark.parametrize("defect", ["unparseable", "non-utf8", "f32-size"])
    def test_error_names_its_file(self, tmp_path, rng, defect):
        fmt = "bin" if defect == "f32-size" else "csv"
        path = io.write_matrix(tmp_path / "m", rng.standard_normal((100, 20)), fmt=fmt)
        raw = path.read_bytes()
        if defect == "unparseable":
            path.write_bytes(raw[:raw.rindex(b",") + 1] + b"abc\n")
            message = "could not convert string to float: 'abc'"
        elif defect == "non-utf8":
            # past the first 8 Ki characters: the position is the file's own
            at = 12017
            path.write_bytes(raw[:at] + b"\xff" + raw[at + 1:])
            message = f"'utf-8' codec can't decode byte 0xff in position {at}: invalid start byte"
        else:
            path.write_bytes(raw[:-1])
            message = f"header says 100x20 float32 values, payload has {len(raw) - 17} bytes"
        with pytest.raises(ValueError) as raised:
            io.read_matrix(path)
        assert str(raised.value) == f"{path}: {message}"


class TestMatrixMemory:
    def test_csv_matrix_is_held_once(self, tmp_path, rng):
        # 1.7 MB of values, parsed block by block into one array that grows
        # in place: never the parsed blocks and their concatenation
        values = rng.standard_normal((2000, 109))
        path = tmp_path / "m.csv"
        io.write_matrix_csv(path, values)
        tracemalloc.start()
        try:
            read, _ = io.read_matrix_csv(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * read.nbytes + 512 * 1024
        np.testing.assert_array_equal(read, np.array([[float(f"{v:.9g}") for v in row]
                                                      for row in values]))

    def test_csv_matrix_is_never_grown(self, tmp_path, rng):
        # numpy's reader is told the data's line count, so it allocates the
        # result once; grown row by row and cut, 2000 x 109 peaked at 1.23x
        values = rng.standard_normal((2000, 109))
        path = tmp_path / "m.csv"
        io.write_matrix_csv(path, values)
        tracemalloc.start()
        try:
            read, _ = io.read_matrix_csv(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * read.nbytes
        assert read.shape == values.shape

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("blanks", ["none", "leading", "between", "trailing"])
    def test_line_count_with_any_line_breaks(self, tmp_path, newline, blanks):
        # a blank line leaves the count unknown: numpy warns of one under max_rows
        rows = ["1,2", "3,4", "5,6"]
        lines = {"none": rows, "leading": ["", *rows], "between": [rows[0], "", *rows[1:]],
                 "trailing": [*rows, "", ""]}[blanks]
        path = tmp_path / "m.csv"
        path.write_bytes(newline.join(["# rows=3 cols=2", *lines, ""]).encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values, _ = io.read_matrix_csv(path)
        np.testing.assert_array_equal(values, [[1, 2], [3, 4], [5, 6]])

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("block", [1, 2, 3, 5, 1 << 16])
    def test_data_lines_counted_across_reads(self, tmp_path, newline, block):
        # lines cut between reads of the plainness check, whose first read
        # holds the header; "\r\n" line breaks are not counted
        rows = None if newline == "\r\n" else 3
        path = tmp_path / "m.csv"
        path.write_bytes(newline.join(["# rows=3 cols=2", "10,2", "3,45", "6e1,7"]).encode())
        with plain_block(16 + block):
            assert io._plain_header(path) == ("# rows=3 cols=2", rows)
        path.write_bytes(newline.join(["10,2", "3,45", "6e1,7", ""]).encode())
        with plain_block(block):
            assert io._plain_header(path) == ("", rows)
        for text in ["10,2", "3,45", "", "6e1,7", ""], ["", "10,2", "3,45", "6e1,7"]:
            path.write_bytes(newline.join(text).encode())
            with plain_block(block):
                assert io._plain_header(path) == ("", None)

    @pytest.mark.parametrize("newline", ["\n", "\r"])
    @pytest.mark.parametrize("blank", ["none", "before-edge", "across-edge", "after-edge",
                                       "after-header", "end"])
    def test_blank_line_at_any_place(self, tmp_path, newline, blank):
        # a blank line in a whole 64 KiB read, split by its edge or right
        # after the header leaves the count unknown, as does one at the end
        header = "# scale=linear"
        # rows of 4 bytes and one longer, so the blank line's break can sit
        # at byte 65536 + offset: the first byte of the second read, at offset 0
        offset = {"before-edge": -1, "across-edge": 0, "after-edge": 1}.get(blank, 0)
        fill = io._PLAIN_BLOCK + offset - len(header) - 1
        n = fill // 4 - 1
        rows = ["1,2"] * n + ["1," + "2" * (fill - 4 * n - 3), "3,4"]
        if blank in ("before-edge", "across-edge", "after-edge"):
            rows.insert(n + 1, "")
        elif blank == "after-header":
            rows.insert(0, "")
        text = newline.join([header, *rows, ""]) + (newline if blank == "end" else "")
        if blank in ("before-edge", "across-edge", "after-edge"):
            assert text.find(newline * 2) == io._PLAIN_BLOCK + offset - 1
        path = tmp_path / "m.csv"
        path.write_bytes(text.encode())
        assert io._plain_header(path) == (header, len(rows) if blank == "none" else None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values, meta = io.read_matrix_csv(path)
        assert meta == {"scale": "linear"}
        assert values.shape == (n + 2, 2)
        np.testing.assert_array_equal(values[[0, -1]], [[1, 2], [3, 4]])

    def test_hour_spectrogram_peaks_near_its_matrix(self, tmp_path, rng):
        # an hour's one-sided spectrogram, 600 windows of 109 bins: a block's
        # text, as lines and then fields, is the one transient above the
        # matrix; a block of 64 Ki characters would take the read to 1.9
        # times it
        values = rng.standard_normal((600, 109))
        path = tmp_path / "m.csv"
        io.write_matrix_csv(path, values)
        tracemalloc.start()
        try:
            read, _ = io.read_matrix_csv(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.4 * read.nbytes
        assert read.shape == values.shape

    def test_text_parse_peaks_near_its_text(self, tmp_path, rng):
        # the hour's spectrogram with a space after each comma, which numpy's
        # reader turns away: its text and its lines are held while one
        # line's fields at a time are parsed; splitting every field at once
        # would take the read to over 7 times the text
        values = rng.standard_normal((600, 109))
        path = tmp_path / "m.csv"
        path.write_text(matrix_csv_text(values, None).replace(",", ", "))
        tracemalloc.start()
        try:
            read, _ = io.read_matrix_csv(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * path.stat().st_size
        np.testing.assert_array_equal(read, read_matrix_csv_rows(path)[0])


class TestSignalMemory:
    def test_write_signal_streams_blocks(self, tmp_path, rng):
        samples = rng.standard_normal(100_000)
        tracemalloc.start()
        try:
            io.write_signal(tmp_path / "s", samples, fmt="csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the whole record as floats and text would be about 6 MB
        assert peak < 1_000_000
        np.testing.assert_array_equal(io.read_signal(tmp_path / "s.csv"), samples)

    def test_binary_signal_is_held_once(self, tmp_path, rng):
        # an hour at 36 Hz: the array is the file's bytes, with no second copy
        samples = rng.standard_normal(3600 * 36)
        path = io.write_signal(tmp_path / "s", samples, fmt="bin")
        tracemalloc.start()
        try:
            read = io.read_signal(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * read.nbytes + 64 * 1024
        assert not read.flags.writeable
        np.testing.assert_array_equal(read, samples)

    def test_csv_signal_is_held_once(self, tmp_path, rng):
        # an hour at 36 Hz, parsed into one array that grows in place: never
        # the parsed blocks and their concatenation at once
        samples = rng.standard_normal(3600 * 36)
        path = io.write_signal(tmp_path / "s", samples, fmt="csv")
        tracemalloc.start()
        try:
            read = io.read_signal(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * read.nbytes + 512 * 1024
        np.testing.assert_array_equal(read, samples)

    def test_csv_signal_read_peaks_near_its_samples(self, tmp_path, rng):
        # 600 s at 36 Hz: a block's text as lines is the one transient above
        # the samples; a block of 64 Ki characters would take the read to 3.2
        # times them
        samples = rng.standard_normal(600 * 36)
        path = io.write_signal(tmp_path / "s", samples, fmt="csv")
        tracemalloc.start()
        try:
            read = io.read_signal(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * read.nbytes
        np.testing.assert_array_equal(read, samples)

    def test_reader_holds_no_block_between_calls(self, tmp_path, rng):
        # 100 000 lines: many blocks of text, each of which, as lines, takes
        # about four times its characters
        path = io.write_signal(tmp_path / "s", rng.standard_normal(100_000), fmt="csv")
        tracemalloc.start()
        try:
            blocks = io.read_signal(path, blocks=True)
            with contextlib.closing(blocks):
                next(blocks)
                held = tracemalloc.get_traced_memory()[0]
                next(blocks)
                held = max(held, tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        # what the text file keeps of its last read, as text and bytes: a
        # block of 64 Ki characters would add about four times that as lines
        assert held <= 2 * io._READ_BLOCK_CHARS + 16 * 1024

    def test_read_signal_streams_blocks(self, tmp_path, rng):
        path = io.write_signal(tmp_path / "s", rng.standard_normal(100_000), fmt="csv")
        tracemalloc.start()
        try:
            samples = io.read_signal(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the blocks, their concatenation and one block's text: the whole
        # text with its lines and floats would be about 17 times the array
        assert peak <= 3 * samples.nbytes
