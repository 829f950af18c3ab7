"""File emitters: PGM rasters and fixed-precision CSV tables. The states
and operators of `--dump-state` need none: they are `.npy` files written
by `np.save`."""

from __future__ import annotations

from pathlib import Path

import numpy as np


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
