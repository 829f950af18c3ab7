"""Pin BLAS to one thread for the test run, unless SEMICLASS_LAB_THREADS is
already set, by writing its count over the BLAS thread variables before
any test module imports numpy. The fresh_runs fixture holds the suites' runs
in fresh interpreters, which the determinism and thread-count tests read."""

import os
from types import SimpleNamespace

import pytest

THREADS = os.environ.get("SEMICLASS_LAB_THREADS") or "1"
os.environ.update(dict.fromkeys(("SEMICLASS_LAB_THREADS", "OMP_NUM_THREADS",
                                 "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), THREADS))

from suite_runs import SUITES, FreshRun  # noqa: E402


@pytest.fixture(scope="session")
def fresh_runs(tmp_path_factory):
    """Two fresh interpreters, started at the first request and running
    alongside the tests: the twin runs SUITES at this process's thread
    count, the other at the other count (2 when the tests run at 1) runs all
    but billiard-stadium, whose JSONL scores move in their last bits with
    the thread count until ROADMAP item 2 pins them and adds it here."""
    other = "2" if THREADS == "1" else "1"
    runs = SimpleNamespace(
        twin=FreshRun(tmp_path_factory.mktemp("twin"), SUITES, THREADS),
        other=FreshRun(tmp_path_factory.mktemp(f"threads{other}"),
                       SUITES[:-1], other))
    yield runs
    for run in (runs.twin, runs.other):
        run.proc.kill()
        run.proc.communicate()
