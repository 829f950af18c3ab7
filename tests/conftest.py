"""Pin BLAS to one thread for the test run, unless SEMICLASS_LAB_THREADS is
already set. The package applies the pin when it is imported, and only if
numpy is not loaded yet; test modules import numpy first, so the package is
imported here, before any of them."""

import os

os.environ.setdefault("SEMICLASS_LAB_THREADS", "1")

import semiclass_lab  # noqa: E402,F401
