"""BLAS thread counts. `env_threads` reads the count SEMICLASS_LAB_THREADS
sets; this module imports no numpy, so the package reads it before numpy
is first imported. `one_blas_thread` runs a block at one OpenBLAS thread:
numpy's bundled OpenBLAS, and scipy's once scipy is loaded, so that the
eigen-solves inside write the same bits at every thread count. Each count
is restored on exit."""

import ctypes
import os
import sys
from contextlib import contextmanager
from functools import cache
from pathlib import Path

from .errors import ConfigError


def env_threads():
    """SEMICLASS_LAB_THREADS as an int >= 1, or None when it is unset or
    empty. Any other value raises ConfigError: OpenBLAS would not run at
    the count it names."""
    value = os.environ.get("SEMICLASS_LAB_THREADS", "")
    if not value:
        return None
    try:
        count = int(value)
    except ValueError:
        count = 0
    if count < 1:
        raise ConfigError("SEMICLASS_LAB_THREADS must be a positive integer, "
                          f"got {value!r}")
    return count


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
