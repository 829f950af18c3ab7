"""The runner of every suite in a fresh interpreter, where a BLAS thread
count can still take effect: run as a script, `suite_runs.py OUT` runs each
suite of EXPERIMENTS, in its order, at seed 0 and the command line's
defaults, into its own subdirectory of OUT. It prints as JSON the scipy and
numpy.ma modules loaded after the package import and after each suite, and
the BLAS thread counts after the last suite."""

import json
import os
import subprocess
import sys
from pathlib import Path

import semiclass_lab
from semiclass_lab import EXPERIMENTS, ExperimentConfig, run_experiment
from semiclass_lab._blas import _threads


def _lazy_modules():
    """The loaded modules of scipy, and of numpy.ma, which numpy loads only
    on first use."""
    return sorted(m for m in sys.modules
                  if m.split(".")[0] == "scipy" or m.split(".")[:2] == ["numpy", "ma"])


def blas_threads() -> dict:
    """The thread count of numpy's and of scipy's bundled OpenBLAS, of each
    package that is loaded and whose library _blas finds."""
    return {p: _threads(p)[0]() for p in ("numpy", "scipy")
            if p in sys.modules and _threads(p)}


def _main(out):
    loaded = {"import": _lazy_modules()}
    for name in EXPERIMENTS:
        run_experiment(ExperimentConfig(experiment=name, out_dir=f"{out}/{name}"))
        loaded[name] = _lazy_modules()
    print(json.dumps({"loaded": loaded, "threads": blas_threads()}))


def suite_files(out: Path) -> dict:
    """The files of one suite run by name: report.json parsed, without its
    wall time, and every other file as bytes."""
    files = {p.name: p.read_bytes() for p in out.iterdir()}
    files["report.json"] = json.loads(files["report.json"])
    del files["report.json"]["wall_time_s"]
    return files


class FreshRun:
    """Every suite, run in the background by this file as a script, with
    SEMICLASS_LAB_THREADS set to threads."""

    def __init__(self, out: Path, threads: str):
        self.out, self.threads, self._printed = out, threads, None
        env = dict(os.environ, SEMICLASS_LAB_THREADS=threads)
        src = str(Path(semiclass_lab.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        self.proc = subprocess.Popen([sys.executable, __file__, str(out)],
                                     env=env, stdout=subprocess.PIPE, text=True)

    def printed(self) -> dict:
        """Waits for the run; the scipy and numpy.ma modules it "loaded"
        ("import", then each suite in run order) and its BLAS "threads"."""
        if self._printed is None:
            stdout = self.proc.communicate(timeout=600)[0]
            assert self.proc.returncode == 0
            self._printed = json.loads(stdout)
        return self._printed

    def files(self, name) -> dict:
        """Waits for the run; suite_files of suite name."""
        self.printed()
        return suite_files(self.out / name)


if __name__ == "__main__":
    _main(sys.argv[1])
