"""File emitters: PGM rasters, fixed-precision CSV tables, and a small
binary container for states and operators."""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

MAGIC = b"SCLB"
KIND_STATE = b"S"
KIND_OPERATOR = b"O"


def write_pgm(grid, path) -> None:
    """Binary PGM: header "P5\\n<w> <h>\\n255\\n", max-normalized row-major
    bytes. An all-zero grid stays all zero."""
    grid = np.asarray(grid, float)
    if grid.ndim != 2 or grid.size == 0:
        raise ValueError("grid must be a nonempty 2-D array")
    height, width = grid.shape
    peak = grid.max()
    scaled = np.zeros(grid.shape, np.uint8) if peak <= 0 else \
        np.clip(np.rint(grid / peak * 255), 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        f.write(scaled.tobytes())


def format_value(v) -> str:
    """CSV cell: integers verbatim, floats at 12 significant digits."""
    if isinstance(v, (bool, np.bool_)):
        return str(int(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.12g}"
    return str(v)


def write_csv(path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_value(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def write_state(path, array) -> None:
    """Binary container: magic, kind byte, uint32 N little-endian, then
    row-major little-endian complex doubles. A 1-D array of N entries is a
    state, a square N x N array an operator."""
    array = np.asarray(array, dtype=np.complex128)
    if array.ndim == 1:
        kind = KIND_STATE
    elif array.ndim == 2 and array.shape[0] == array.shape[1]:
        kind = KIND_OPERATOR
    else:
        raise ValueError(f"array of shape {array.shape} is neither a state "
                         "nor a square operator")
    with open(path, "wb") as f:
        f.write(MAGIC + kind + struct.pack("<I", array.shape[0]))
        f.write(array.astype("<c16").tobytes())


def read_state(path):
    """Inverse of write_state; returns (array, kind)."""
    raw = Path(path).read_bytes()
    if raw[:4] != MAGIC:
        raise ValueError("bad magic; not a state container")
    if len(raw) < 9:
        raise ValueError(f"container of {len(raw)} bytes is cut inside its "
                         "9-byte header")
    kind = raw[4:5]
    (N,) = struct.unpack("<I", raw[5:9])
    shape = {KIND_STATE: (N,), KIND_OPERATOR: (N, N)}.get(kind)
    if shape is None:
        raise ValueError(f"unknown container kind {kind!r}")
    count = math.prod(shape)
    if len(raw) - 9 != 16 * count:
        raise ValueError(f"payload of {len(raw) - 9} bytes is not "
                         f"{count} complex doubles")
    data = np.frombuffer(raw[9:], dtype="<c16").astype(np.complex128)
    return data.reshape(shape), kind
