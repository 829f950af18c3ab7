"""Run the tests at one BLAS thread, unless SEMICLASS_LAB_THREADS is already
set: before any test module imports numpy, set SEMICLASS_LAB_THREADS and
remove the BLAS thread variables, so that importing the package sets them
from it and a BLAS variable left in the shell cannot change the count. The
fresh_run fixture holds all seven suites' run in a fresh interpreter at the
other thread count, which the determinism and thread-count tests read."""

import os

import pytest

THREADS = os.environ.get("SEMICLASS_LAB_THREADS") or "1"
os.environ["SEMICLASS_LAB_THREADS"] = THREADS
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.pop(var, None)

from suite_runs import FreshRun  # noqa: E402


@pytest.fixture(scope="session")
def fresh_run(tmp_path_factory):
    """One fresh interpreter, started at the first request and running
    alongside the tests, that runs the seven suites at the other thread
    count: 2 when the tests run at 1, else 1."""
    other = "2" if THREADS == "1" else "1"
    run = FreshRun(tmp_path_factory.mktemp(f"threads{other}"), other)
    yield run
    run.proc.kill()
    run.proc.communicate()
