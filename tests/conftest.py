"""Pin BLAS to one thread for the test run, unless SEMICLASS_LAB_THREADS is
already set. The package applies the pin when it is imported, and only if
numpy is not loaded yet; test modules import numpy first, so the package is
imported here, before any of them."""

import os

os.environ.setdefault("SEMICLASS_LAB_THREADS", "1")

import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import pytest  # noqa: E402

import semiclass_lab  # noqa: E402


@pytest.fixture
def at_one_and_two_threads():
    """run(code) runs a Python snippet in two fresh interpreters at once,
    at SEMICLASS_LAB_THREADS=1 and =2, and returns their two stdouts. The
    thread count only takes effect before numpy is imported, hence the
    fresh interpreters, each importing the package before the snippet
    runs; neither reads the effective OpenBLAS count."""
    src = str(Path(semiclass_lab.__file__).resolve().parents[1])

    def run(code: str):
        runs = []
        for threads in ("1", "2"):
            env = {k: v for k, v in os.environ.items() if k not in
                   ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
            env["SEMICLASS_LAB_THREADS"] = threads
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            runs.append(subprocess.Popen(
                [sys.executable, "-c", "import semiclass_lab\n" + code],
                env=env, stdout=subprocess.PIPE, text=True))
        outs = [run.communicate(timeout=300)[0] for run in runs]
        assert [run.returncode for run in runs] == [0, 0]
        return outs
    return run
