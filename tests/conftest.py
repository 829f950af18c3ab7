"""Run the tests at the BLAS thread count SEMICLASS_LAB_THREADS, set here to 1
unless the shell set it, before any test module imports numpy. The
fresh_run fixture holds every suite's run in a fresh interpreter at the
other thread count, which criterion 10 compares file by file and thread
count by thread count, and whose loaded modules the scipy-import test
reads."""

import os

import pytest

THREADS = os.environ.get("SEMICLASS_LAB_THREADS") or "1"
os.environ["SEMICLASS_LAB_THREADS"] = THREADS

from suite_runs import FreshRun  # noqa: E402


@pytest.fixture(scope="session")
def fresh_run(tmp_path_factory):
    """One fresh interpreter, started at the first request and running
    alongside the tests, that runs every suite at the other thread count:
    2 when the tests run at 1, else 1."""
    other = "2" if THREADS == "1" else "1"
    run = FreshRun(tmp_path_factory.mktemp(f"threads{other}"), other)
    yield run
    run.proc.kill()
    run.proc.communicate()
