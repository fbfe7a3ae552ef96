"""File formats used by the command line: matrices, signals, manifests.

Matrices travel as CSV with a single comment header carrying the shape
and scale, or as a compact binary format with a 16-byte header (8-byte
magic, uint32 rows, uint32 cols, little endian) followed by row-major
float32 data.  Signals are one sample per line (CSV) or headerless
little-endian float64.  CSV values are written with ``%.9g`` for matrices
and ``%.17g`` for signals, which round-trips float64 exactly; replay and
byte-for-byte output checks depend on these bytes.  Every run also writes
a JSON manifest that is sufficient to replay it.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import numpy as np

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
    file, with no header.
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


# Characters of text the CSV readers take from the file per block.
_READ_BLOCK_CHARS = 1 << 16


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
        yield body.lstrip() if held is None else held + body
        held = chunk[len(body):]


def _line_blocks(path, strip: bool = False):
    """The lines of a text file as ``str.splitlines`` cuts them, in blocks.

    With ``strip``, the lines of the text stripped at both ends, as
    ``text.strip().splitlines()`` gives them.  The file is read
    ``_READ_BLOCK_CHARS`` characters at a time, so its whole text is never
    held at once.  No block is empty.
    """
    with open(path) as fh:
        chunks = iter(functools.partial(fh.read, _READ_BLOCK_CHARS), "")
        if strip:
            chunks = _strip_chunks(chunks)
        tail = ""
        for chunk in chunks:
            # the sentinel ends the last line, so what follows the chunk's last
            # line break (often nothing) is split off and carried to the next
            *lines, tail = (tail + chunk + "x").splitlines()
            tail = tail[:-1]
            if lines:
                yield lines
        if tail:
            yield [tail]


def read_matrix_csv(path) -> tuple[np.ndarray, dict]:
    meta: dict = {}
    commas: set[int] = set()
    blocks: list[np.ndarray] = []
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
            fields = ",".join(lines).split(",")
            try:
                blocks.append(np.fromiter(map(float, fields), dtype=float, count=len(fields)))
            except ValueError as exc:
                error = exc
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
    return np.concatenate(blocks).reshape(rows, cols), meta


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
    matrix's row count, and each later one with ``append``.
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
    if path.suffix == ".f32":
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


def read_signal(path, fmt: str | None = None) -> np.ndarray:
    """Read a signal file; CSV may carry one non-numeric header line.

    A CSV is parsed block by block, so neither its text nor its samples as
    Python floats are ever held whole.
    """
    path = Path(path)
    if fmt is None:
        fmt = "bin" if path.suffix == ".f64" else "csv"
    if fmt == "bin":
        return np.frombuffer(path.read_bytes(), dtype="<f8").astype(float)
    blocks = []
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
        blocks.append(np.fromiter(map(float, lines), dtype=float, count=len(lines)))
    return np.concatenate(blocks) if blocks else np.array([])


def write_manifest(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_manifest(path) -> dict:
    return json.loads(Path(path).read_text())
