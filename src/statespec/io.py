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


def write_matrix_csv(path, values: np.ndarray, scale: str | None = None,
                     rows: int | None = None, append: bool = False) -> None:
    """Write ``values`` under a header with their shape and ``scale``.

    ``values`` may be the first block of a matrix of ``rows`` rows, which
    the header then announces; ``append`` adds a later block's rows to the
    file, with no header.  ``rows`` on an appending call restates the
    header's row count, for a matrix whose length became known only after
    its first block was written: the rows so far are copied behind the new
    header.
    """
    values = np.atleast_2d(np.asarray(values, dtype=float))
    cols = values.shape[1]
    # one %-format per row: the same float-to-text conversion as f"{v:.9g}",
    # streamed row by row so neither the floats nor the text of the whole
    # matrix are ever held at once
    row_format = ",".join(["%.9g"] * cols) + "\n"
    with open(path, "a" if append else "w") as fh:
        if not append:
            header = f"# rows={values.shape[0] if rows is None else rows} cols={cols}"
            if scale is not None:
                header += f" scale={scale}"
            fh.write(header + "\n")
        fh.writelines(row_format % tuple(row.tolist()) for row in values)
    if append and rows is not None:
        _restate_csv_rows(Path(path), rows)


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


def _strip_chunks(chunks):
    """The chunks of a text with the whitespace at both of its ends left out.

    Whitespace between the first and the last non-blank chunk is kept: it
    is held back until a later chunk shows that text follows it.
    """
    held = None  # whitespace since the last text; None before any text
    for chunk in chunks:
        body = chunk.rstrip()
        if not body:
            if held is not None:
                held += chunk
            continue
        text = [body.lstrip() if held is None else held + body]
        held = chunk[len(body):]
        del chunk, body
        yield text.pop()


def _line_blocks(path, strip: bool = False):
    """The lines of a text file as ``str.splitlines`` cuts them, in blocks.

    With ``strip``, the lines of the text stripped at both ends, as
    ``text.strip().splitlines()`` gives them.  The file is read
    ``_READ_BLOCK_CHARS`` characters at a time, so its whole text is never
    held at once.  No block is empty.

    A suspended generator keeps its locals alive, so this one and the
    readers built on it drop the text a block came from and yield the
    block off a one-item list: between two blocks, only the consumer holds
    the last one.
    """
    with open(path) as fh:
        chunks = iter(functools.partial(fh.read, _READ_BLOCK_CHARS), "")
        if strip:
            chunks = _strip_chunks(chunks)
        tail = ""
        for chunk in chunks:
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


def read_matrix_csv(path) -> tuple[np.ndarray, dict]:
    meta: dict = {}
    commas: set[int] = set()
    # one array grown in place: never the parsed blocks and their concatenation
    values = np.empty(0)
    rows = 0
    error = None
    # the shape checks need every line, so a value that does not parse is
    # kept and raised after them
    for index, lines in enumerate(_line_blocks(path, strip=True)):
        if index == 0 and lines[0].startswith("#"):
            for token in lines[0].lstrip("#").split():
                if "=" in token:
                    key, _, value = token.partition("=")
                    meta[key] = value
            lines = lines[1:]
        lines = list(filter(None, lines))
        if not lines:
            continue
        rows += len(lines)
        commas.update({line.count(",") for line in lines})
        if error is None:
            try:
                append_in_place(values, _floats(",".join(lines).split(",")))
            except ValueError as exc:
                error = exc
        # not held while the next block is read
        del lines
    if not rows:
        raise ValueError(f"{path}: no data rows")
    if len(commas) > 1:
        raise ValueError(f"{path}: rows hold different numbers of fields")
    cols = commas.pop() + 1
    expected = (int(meta["rows"]), int(meta["cols"])) if "rows" in meta and "cols" in meta else None
    if expected is not None and (rows, cols) != expected:
        raise ValueError(f"{path}: header says {expected}, data is {(rows, cols)}")
    if error is not None:
        raise error
    return values.reshape(rows, cols), meta


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
    rows, cols = np.frombuffer(raw[8:16], dtype="<u4")
    data = np.frombuffer(raw[16:], dtype="<f4")
    # Python ints: the uint32 product would wrap around
    if data.size != int(rows) * int(cols):
        raise ValueError(f"{path}: header says {rows}x{cols}, payload has {data.size} values")
    return data.reshape(int(rows), int(cols)).astype(float)


# The extension of each matrix format's files.
MATRIX_SUFFIXES = {"csv": ".csv", "bin": ".f32"}


def write_matrix(path, values, fmt: str = "csv", scale: str | None = None,
                 rows: int | None = None, append: bool = False) -> Path:
    """Write under the format's natural extension; returns the path used.

    A matrix can be written in blocks of rows: the first with ``rows``, the
    matrix's row count, and each later one with ``append``.  When the count
    is not known at the first block, the block that makes it known passes
    it with ``append``, which restates the header.
    """
    if fmt not in MATRIX_SUFFIXES:
        raise ValueError(f"unknown matrix format {fmt!r}")
    path = Path(path).with_suffix(MATRIX_SUFFIXES[fmt])
    if fmt == "csv":
        write_matrix_csv(path, values, scale=scale, rows=rows, append=append)
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


def _sample_fields(path):
    """The sample field of every line of a CSV signal, in blocks.

    Blank lines and a non-numeric first line are left out, and a line with
    commas gives its first field.  No block is empty.
    """
    header_checked = False
    for lines in _line_blocks(path):
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
        if lines:
            lines = [lines]
            yield lines.pop()


def _check_f64_size(path, size: int) -> None:
    if size % 8:
        raise ValueError(f"{path}: {size} bytes is not a whole number of float64 samples")


def _sample_blocks(path, fmt: str):
    """The samples of a signal file in blocks of ``_READ_BLOCK_CHARS``
    characters of CSV text, or bytes of float64."""
    if fmt != "bin":
        yield from map(_floats, _sample_fields(path))
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
    return np.fromiter(map(float, itertools.chain.from_iterable(_sample_fields(path))),
                       dtype=float)


def write_manifest(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_manifest(path) -> dict:
    return json.loads(Path(path).read_text())
