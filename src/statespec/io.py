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

import json
from pathlib import Path

import numpy as np

__all__ = [
    "MATRIX_MAGIC",
    "write_matrix_csv",
    "read_matrix_csv",
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


def write_matrix_csv(path, values: np.ndarray, scale: str | None = None) -> None:
    values = np.atleast_2d(np.asarray(values, dtype=float))
    header = f"# rows={values.shape[0]} cols={values.shape[1]}"
    if scale is not None:
        header += f" scale={scale}"
    # one %-format per row: the same float-to-text conversion as f"{v:.9g}",
    # streamed row by row so neither the floats nor the text of the whole
    # matrix are ever held at once
    row_format = ",".join(["%.9g"] * values.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(row_format % tuple(row.tolist()) for row in values)


def read_matrix_csv(path) -> tuple[np.ndarray, dict]:
    text = Path(path).read_text().strip().splitlines()
    meta: dict = {}
    start = 0
    if text and text[0].startswith("#"):
        for token in text[0].lstrip("#").split():
            if "=" in token:
                key, _, value = token.partition("=")
                meta[key] = value
        start = 1
    rows = [np.array([float(v) for v in line.split(",")]) for line in text[start:] if line]
    if not rows:
        raise ValueError(f"{path}: no data rows")
    values = np.vstack(rows)
    expected = (int(meta["rows"]), int(meta["cols"])) if "rows" in meta and "cols" in meta else None
    if expected is not None and values.shape != expected:
        raise ValueError(f"{path}: header says {expected}, data is {values.shape}")
    return values, meta


def write_matrix_bin(path, values: np.ndarray) -> None:
    values = np.atleast_2d(np.ascontiguousarray(values, dtype="<f4"))
    rows, cols = values.shape
    header = MATRIX_MAGIC + np.array([rows, cols], dtype="<u4").tobytes()
    Path(path).write_bytes(header + values.tobytes())


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


def write_matrix(path, values, fmt: str = "csv", scale: str | None = None) -> Path:
    """Write under the format's natural extension; returns the path used."""
    path = Path(path)
    if fmt == "csv":
        path = path.with_suffix(".csv")
        write_matrix_csv(path, values, scale=scale)
    elif fmt == "bin":
        path = path.with_suffix(".f32")
        write_matrix_bin(path, values)
    else:
        raise ValueError(f"unknown matrix format {fmt!r}")
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


def write_signal(path, samples: np.ndarray, fmt: str = "csv") -> Path:
    path = Path(path)
    samples = np.asarray(samples, dtype=float)
    if fmt == "csv":
        path = path.with_suffix(".csv")
        text = "\n".join(["%.17g"] * samples.size) % tuple(samples.tolist())
        path.write_text(text + "\n")
    elif fmt == "bin":
        path = path.with_suffix(".f64")
        path.write_bytes(np.ascontiguousarray(samples, dtype="<f8").tobytes())
    else:
        raise ValueError(f"unknown signal format {fmt!r}")
    return path


def read_signal(path, fmt: str | None = None) -> np.ndarray:
    """Read a signal file; CSV may carry one non-numeric header line."""
    path = Path(path)
    if fmt is None:
        fmt = "bin" if path.suffix == ".f64" else "csv"
    if fmt == "bin":
        return np.frombuffer(path.read_bytes(), dtype="<f8").astype(float)
    text = path.read_text()
    lines = list(filter(None, map(str.strip, text.splitlines())))
    if not lines:
        return np.array([])
    if "," in text:
        lines = [line.split(",", 1)[0] for line in lines]
    try:
        float(lines[0])
    except ValueError:
        lines = lines[1:]
    return np.array(list(map(float, lines)))


def write_manifest(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_manifest(path) -> dict:
    return json.loads(Path(path).read_text())
