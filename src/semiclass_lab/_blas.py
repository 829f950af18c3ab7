"""One OpenBLAS thread for a block: numpy's bundled OpenBLAS, and scipy's
once scipy is loaded, so that the eigen-solves inside write the same bits
at every thread count. Each count is restored on exit."""

import ctypes
import sys
from contextlib import contextmanager
from functools import cache
from pathlib import Path

_SUFFIX = {"numpy": "64_", "scipy": ""}  # of each bundled OpenBLAS's symbols


@cache
def _threads(package):
    """(get, set) of the thread count of package's bundled OpenBLAS, or None."""
    root = Path(sys.modules[package].__file__).parents[1]
    libs = sorted(root.glob(f"{package}.libs/libscipy_openblas*.so"))
    try:
        lib = ctypes.CDLL(str(libs[0]))
        return [getattr(lib, f"scipy_openblas_{op}_num_threads{_SUFFIX[package]}")
                for op in ("get", "set")]
    except (IndexError, AttributeError):
        return None


@contextmanager
def one_blas_thread():
    handles = filter(None, (_threads(p) for p in _SUFFIX if p in sys.modules))
    pins = [(set_, get()) for get, set_ in handles]
    for set_, _ in pins:
        set_(1)
    try:
        yield
    finally:
        for set_, count in pins:
            set_(count)
