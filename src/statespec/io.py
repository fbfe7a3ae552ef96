"""File formats used by the command line: matrices, signals, manifests.

Matrices travel as CSV with a single comment header carrying the shape
and scale, or as a compact binary format with a 16-byte header (8-byte
magic, uint32 rows, uint32 cols, little endian) followed by row-major
float32 data.  Signals are one sample per line (CSV) or headerless
little-endian float64 (a ``.f64``, unless the caller names the format);
a signal read in blocks gives its samples, never its length.  CSV values
are written with ``%.9g`` for matrices and ``%.17g`` for signals, which
round-trips float64 exactly; replay and byte-for-byte output checks
depend on these bytes.  Every run also writes a JSON manifest that is
sufficient to replay it.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import shutil
from pathlib import Path

import numpy as np

from ._util import append_in_place

__all__ = [
    "MATRIX_MAGIC",
    "MATRIX_SUFFIXES",
    "write_matrix_csv",
    "read_matrix_csv",
    "check_float32",
    "write_matrix_bin",
    "read_matrix_bin",
    "write_matrix",
    "read_matrix",
    "write_vector_csv",
    "read_vector_csv",
    "write_signal",
    "read_signal",
    "write_manifest",
    "read_manifest",
]

MATRIX_MAGIC = b"SSPECF32"

# Cells of a matrix CSV formatted at a time against a baseline
_CHUNK_CELLS = 1 << 9


def write_matrix_csv(path, values: np.ndarray, scale: str | None = None,
                     rows: int | None = None, append: bool = False,
                     baseline: np.ndarray | None = None) -> None:
    """Write ``values`` under a header with their shape and ``scale``.

    ``values`` may be the first block of a matrix of ``rows`` rows, which
    the header then announces; ``append`` adds a later block's rows to the
    file, with no header.  ``rows`` on an appending call restates the
    header's row count, for a matrix whose length became known only after
    its first block was written: the rows so far are copied behind the new
    header.

    ``baseline``, a row whose cells recur bit for bit down their columns,
    changes no byte: it is formatted once, and a cell with its bits takes
    its text.  That pays when about 40 % of the cells or more have them.
    """
    values = np.atleast_2d(np.asarray(values, dtype=float))
    cols = values.shape[1]
    # one %-format per row: the same float-to-text conversion as f"{v:.9g}",
    # streamed a few rows at a time so neither the floats nor the text of
    # the whole matrix are ever held at once
    cell = "%.9g"
    row_format = ",".join([cell] * cols) + "\n"
    with open(path, "a" if append else "w") as fh:
        if not append:
            header = f"# rows={values.shape[0] if rows is None else rows} cols={cols}"
            if scale is not None:
                header += f" scale={scale}"
            fh.write(header + "\n")
        if baseline is None:
            fh.writelines(row_format % tuple(row.tolist()) for row in values)
        else:
            _write_rows_off_baseline(fh, values, baseline, cell, row_format)
    if append and rows is not None:
        _restate_csv_rows(Path(path), rows)


def _write_rows_off_baseline(fh, values, baseline, cell: str, row_format: str) -> None:
    """`write_matrix_csv`'s rows, a chunk of cells at a time, each cell with
    ``baseline``'s bits (so -0.0 is not 0.0) spelled as its text."""
    cols = values.shape[1]
    bits = np.ascontiguousarray(baseline, dtype=float).view(np.int64)
    step = max(1, _CHUNK_CELLS // cols)
    texts = (row_format % tuple(bits.view(float).tolist()))[:-1].split(",")
    texts = np.array(texts * step, dtype=object).reshape(step, cols)
    for first in range(0, values.shape[0], step):
        chunk = values[first:first + step]
        raised = chunk.view(np.int64) != bits
        if raised.all():
            fh.writelines(row_format % tuple(row.tolist()) for row in chunk)
            continue
        # float text holds no "%": a template with one field per raised cell
        cells = texts[:len(chunk)].copy()
        cells[raised] = cell
        fh.write("\n".join(map(",".join, cells.tolist())) % tuple(chunk[raised].tolist())
                 + "\n")


def _restate_csv_rows(path: Path, rows: int) -> None:
    """Set the row count in the header of the CSV matrix at ``path``."""
    with open(path, "rb") as old:
        header = old.readline()
        restated = b" ".join(b"rows=%d" % rows if token.startswith(b"rows=") else token
                             for token in header.split(b" "))
        if restated == header:
            return
        part = path.with_name(path.name + ".part")
        with open(part, "wb") as new:
            new.write(restated)
            shutil.copyfileobj(old, new)
    os.replace(part, path)


# Characters of CSV text, or bytes of a ``.f64``, per read and per block: a text
# file keeps its last read until the next, and a block is held again as lines.
_READ_BLOCK_CHARS = 1 << 13


def _line_blocks(path):
    """The lines of a text file as ``str.splitlines`` cuts them, in blocks.

    The file is read ``_READ_BLOCK_CHARS`` characters at a time, so its
    whole text is never held at once.  No block is empty.

    A suspended generator keeps its locals alive, so this one and the
    readers built on it drop the text a block came from and yield the
    block off a one-item list: between two blocks, only the consumer holds
    the last one.
    """
    with open(path) as fh:
        tail = ""
        for chunk in iter(functools.partial(fh.read, _READ_BLOCK_CHARS), ""):
            # the sentinel ends the last line, so what follows the chunk's last
            # line break (often nothing) is split off and carried to the next
            lines = (tail + chunk + "x").splitlines()
            tail = lines.pop()[:-1]
            del chunk
            if lines:
                lines = [lines]
                yield lines.pop()
        if tail:
            yield [tail]


def _floats(fields: list[str]) -> np.ndarray:
    return np.fromiter(map(float, fields), dtype=float, count=len(fields))


def _header_meta(line: str) -> dict:
    """The ``key=value`` fields of a matrix CSV's ``#`` header line."""
    meta = {}
    for token in line.lstrip("#").split():
        if "=" in token:
            key, _, value = token.partition("=")
            meta[key] = value
    return meta


def _header_shape(path, meta: dict) -> tuple[int, int] | None:
    """The (rows, cols) a header states, or None if it states no shape."""
    if "rows" not in meta or "cols" not in meta:
        return None
    shape = []
    for key in ("rows", "cols"):
        try:
            shape.append(int(meta[key]))
        except ValueError:
            raise ValueError(f"{path}: header {key}={meta[key]!r} is not an integer") from None
    return shape[0], shape[1]


def _read_matrix_text(path) -> tuple[np.ndarray, dict]:
    """`read_matrix_csv` of any file, parsed from its whole text."""
    try:
        lines = Path(path).read_text().strip().splitlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    meta = {}
    if lines and lines[0].startswith("#"):
        meta = _header_meta(lines.pop(0))
    lines = list(filter(None, lines))
    if not lines:
        raise ValueError(f"{path}: no data rows")
    commas = {line.count(",") for line in lines}
    if len(commas) > 1:
        raise ValueError(f"{path}: rows hold different numbers of fields")
    rows, cols = len(lines), commas.pop() + 1
    expected = _header_shape(path, meta)
    if expected is not None and (rows, cols) != expected:
        raise ValueError(f"{path}: header says {expected}, data is {(rows, cols)}")
    # one line's fields at a time: never every field of the file at once
    fields = itertools.chain.from_iterable(line.split(",") for line in lines)
    try:
        values = np.fromiter(map(float, fields), dtype=float, count=rows * cols)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return values.reshape(rows, cols), meta


# The bytes of a plain matrix CSV's data besides "\n" and "\r": digits,
# signs, the decimal point, exponents, the letters of nan, inf and infinity
# in either case, and commas.  numpy's C text reader converts a field with
# the same PyOS_string_to_double that float() calls, and of these bytes and
# the two line breaks neither reader sees a line break or a field edge the
# other does not.  Spaces, underscores, non-ASCII digits and the other line
# breaks of str.splitlines are where the two differ.
_PLAIN_BYTES = b"0123456789.,+-eEnaiftyNAIFTY"
# The bytes of a plain header line: printable ASCII and the tab
_HEADER_BYTES = bytes(range(0x20, 0x7F)) + b"\t"
# Bytes per read of the plainness check
_PLAIN_BLOCK = 1 << 16


def _plain_header(path) -> tuple[str, int | None] | None:
    """The header line of a plain matrix CSV, "" when it has none, and how
    many lines of data follow it; or None when the file is not plain.

    A file is plain when its first line is a ``#`` header of
    `_HEADER_BYTES` or is data, every byte after the header is a line
    break or one of `_PLAIN_BYTES`, and at least one is not a break.  Its
    lines are counted when every line break is the same one byte and no
    line is blank, and are None otherwise.
    """
    header = b""
    data = blank = False
    # the line breaks so far, the bytes they are made of, and whether the
    # last byte read ends a line: the start of the file counts as a break
    breaks, newlines, at_break = 0, set(), True
    with open(path, "rb") as fh:
        blocks = iter(functools.partial(fh.read, _PLAIN_BLOCK), b"")
        for index, block in enumerate(blocks):
            if index == 0 and block.startswith(b"#"):
                ends = [at for at in (block.find(b"\n"), block.find(b"\r")) if at >= 0]
                if not ends:
                    return None
                header, block = block[:min(ends)], block[min(ends):]
                if header.translate(None, _HEADER_BYTES):
                    return None
                breaks, at_break = -1, False
            # the line breaks, in a plain file
            left = block.translate(None, _PLAIN_BYTES)
            if left.translate(None, b"\r\n"):
                return None
            data = data or len(left) < len(block)
            newlines.update(byte for byte in b"\n\r" if byte in left)
            is_break = np.frombuffer(block, dtype=np.uint8) == max(newlines, default=0)
            blank = blank or (at_break and is_break[0]) or (is_break[1:] & is_break[:-1]).any()
            breaks, at_break = breaks + len(left), is_break[-1]
    if not data:
        return None
    # every line break after the header's ends a line of data, and so may
    # the end of the file
    rows = None if blank or len(newlines) > 1 else int(breaks + (not at_break))
    return header.decode("ascii"), rows


def _read_matrix_plain(path, header: str, rows: int | None) -> tuple[np.ndarray, dict] | None:
    """`read_matrix_csv` of a plain file with ``rows`` lines of data, if
    known, by numpy's C text reader; or None where the reader or the
    header's shape rejects it."""
    meta = _header_meta(header)
    try:
        shape = _header_shape(path, meta)
        # an open file, not a path: numpy would take a path ending in .gz
        # for a compressed file, and its own opening peaks higher.  numpy
        # allocates max_rows in full before the first row: the data's own
        # line count, never the header's, sizes the result, which is then
        # never grown and cut.  numpy warns of a blank line under max_rows
        with open(path) as fh:
            values = np.loadtxt(fh, delimiter=",", comments=None,
                                skiprows=1 if header else 0, max_rows=rows, ndmin=2)
    except ValueError:
        return None
    # numpy warns, and gives no rows, only for text without data, which a
    # plain file is not; the warning is not caught, since leaving
    # warnings.catch_warnings makes every warning shown once show again
    if not values.size or (shape is not None and values.shape != shape):
        return None
    return values, meta


def read_matrix_csv(path) -> tuple[np.ndarray, dict]:
    """The matrix of a CSV file and the fields of its ``#`` header line.

    A plain file (see `_plain_header`) is read by numpy's C text reader.
    Any other file, and a plain one that reader or the header's shape
    rejects, is parsed from its whole text, which gives the same values
    bit for bit and every error; that parse peaks at about twice the
    text's size.
    """
    plain = _plain_header(path)
    read = None if plain is None else _read_matrix_plain(path, *plain)
    return read if read is not None else _read_matrix_text(path)


def check_float32(values, name: str = "values") -> None:
    """Reject finite values past the float32 range, which a cast writes as inf.

    numpy warns about such a cast only from version 1.24 on.
    """
    magnitude = np.abs(np.asarray(values, dtype=float))
    beyond = magnitude[(magnitude > np.finfo(np.float32).max) & (magnitude < np.inf)]
    if beyond.size:
        raise ValueError(f"{name}: values up to {beyond.max():.3g} exceed the float32 range")


def write_matrix_bin(path, values: np.ndarray, rows: int | None = None,
                     append: bool = False) -> None:
    """Write ``values`` as float32; ``rows`` and ``append`` as in `write_matrix_csv`."""
    check_float32(values, Path(path).name)
    values = np.atleast_2d(np.ascontiguousarray(values, dtype="<f4"))
    with open(path, "ab" if append else "wb") as fh:
        if not append:
            shape = [values.shape[0] if rows is None else rows, values.shape[1]]
            fh.write(MATRIX_MAGIC + np.array(shape, dtype="<u4").tobytes())
        fh.write(values.tobytes())
    if append and rows is not None:
        with open(path, "r+b") as fh:
            fh.seek(len(MATRIX_MAGIC))
            fh.write(np.array([rows], dtype="<u4").tobytes())


def read_matrix_bin(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if len(raw) < 16 or raw[:8] != MATRIX_MAGIC:
        raise ValueError(f"{path}: not a matrix binary (bad magic)")
    # Python ints: the uint32 product would wrap around
    rows, cols = map(int, np.frombuffer(raw[8:16], dtype="<u4"))
    if len(raw) - 16 != 4 * rows * cols:
        raise ValueError(f"{path}: header says {rows}x{cols} float32 values, "
                         f"payload has {len(raw) - 16} bytes")
    return np.frombuffer(raw, dtype="<f4", offset=16).reshape(rows, cols).astype(float)


# The extension of each matrix format's files.
MATRIX_SUFFIXES = {"csv": ".csv", "bin": ".f32"}


def write_matrix(path, values, fmt: str = "csv", scale: str | None = None,
                 rows: int | None = None, append: bool = False,
                 baseline: np.ndarray | None = None) -> Path:
    """Write under the format's natural extension; returns the path used.

    A matrix can be written in blocks of rows: the first with ``rows``, the
    matrix's row count, and each later one with ``append``.  When the count
    is not known at the first block, the block that makes it known passes
    it with ``append``, which restates the header.  Binary ignores ``baseline``.
    """
    if fmt not in MATRIX_SUFFIXES:
        raise ValueError(f"unknown matrix format {fmt!r}")
    path = Path(path).with_suffix(MATRIX_SUFFIXES[fmt])
    if fmt == "csv":
        write_matrix_csv(path, values, scale=scale, rows=rows, append=append,
                         baseline=baseline)
    else:
        write_matrix_bin(path, values, rows=rows, append=append)
    return path


def read_matrix(path) -> tuple[np.ndarray, dict]:
    path = Path(path)
    if path.suffix == MATRIX_SUFFIXES["bin"]:
        return read_matrix_bin(path), {}
    return read_matrix_csv(path)


def write_vector_csv(path, values: np.ndarray) -> None:
    values = np.asarray(values, dtype=float).reshape(-1, 1)
    write_matrix_csv(path, values)


def read_vector_csv(path) -> np.ndarray:
    values, _ = read_matrix_csv(path)
    return values.reshape(-1)


# Samples formatted per block of write_signal.
_SIGNAL_BLOCK = 4096


def write_signal(path, samples: np.ndarray, fmt: str = "csv") -> Path:
    path = Path(path)
    samples = np.asarray(samples, dtype=float)
    if fmt == "csv":
        path = path.with_suffix(".csv")
        # one %-format per block of samples, so the text of the whole record
        # is never held at once
        with open(path, "w") as fh:
            for first in range(0, samples.size, _SIGNAL_BLOCK):
                block = samples[first:first + _SIGNAL_BLOCK].tolist()
                fh.write("%.17g\n" * len(block) % tuple(block))
            if samples.size == 0:
                fh.write("\n")
    elif fmt == "bin":
        path = path.with_suffix(".f64")
        path.write_bytes(np.ascontiguousarray(samples, dtype="<f8").tobytes())
    else:
        raise ValueError(f"unknown signal format {fmt!r}")
    return path


def _csv_samples(path):
    """The samples of a CSV signal, in blocks of `_line_blocks`.

    Blank lines and a non-numeric first line are left out, and a line with
    commas gives its first field.  No block is empty.  After the first
    non-blank line, a block `float` takes line by line is parsed as it is:
    `float` strips what `str.strip` does and rejects a blank line, a comma
    and a header, so only blocks these rules change, and errors, reach them.
    """
    header_checked = False
    for lines in _line_blocks(path):
        try:
            samples = _floats(lines) if header_checked else None
        except ValueError:
            samples = None
        if samples is None:
            lines = list(filter(None, map(str.strip, lines)))
            # a line with a comma gives its first field; the test is one
            # search of the block instead of one per line
            if "," in "".join(lines):
                lines = [line.split(",", 1)[0] for line in lines]
            if lines and not header_checked:
                header_checked = True
                try:
                    float(lines[0])
                except ValueError:
                    del lines[0]
            samples = _floats(lines)
        del lines
        if samples.size:
            samples = [samples]
            yield samples.pop()


def _check_f64_size(path, size: int) -> None:
    if size % 8:
        raise ValueError(f"{path}: {size} bytes is not a whole number of float64 samples")


def _sample_blocks(path, fmt: str):
    """The samples of a signal file in blocks of ``_READ_BLOCK_CHARS``
    characters of CSV text, or bytes of float64."""
    if fmt != "bin":
        yield from _csv_samples(path)
        return
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        _check_f64_size(path, size)
        step = max(1, _READ_BLOCK_CHARS // 8) * 8
        for _ in range(0, size, step):
            yield np.frombuffer(fh.read(step), dtype="<f8")


def read_signal(path, fmt: str | None = None, blocks: bool = False):
    """Read a signal file; CSV may carry one non-numeric header line.

    A ``.f64`` is the file's bytes, read-only.  A CSV is parsed block by
    block into one array, so neither its text nor its samples as Python
    floats are ever held whole, nor its samples twice.  With ``blocks``,
    an iterator over the samples in blocks instead, which reads the file
    as it is consumed and closes it when exhausted or closed.
    """
    path = Path(path)
    if fmt is None:
        fmt = "bin" if path.suffix == ".f64" else "csv"
    if blocks:
        return _sample_blocks(path, fmt)
    if fmt == "bin":
        data = path.read_bytes()
        _check_f64_size(path, len(data))
        return np.frombuffer(data, dtype="<f8")
    # one array grown in place: never the blocks and their concatenation
    samples = np.empty(0)
    for block in _csv_samples(path):
        append_in_place(samples, block)
    return samples


def write_manifest(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_manifest(path) -> dict:
    return json.loads(Path(path).read_text())
