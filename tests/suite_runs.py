"""The suites at the acceptance criteria's sizes, and their runner in a fresh
interpreter, where a BLAS thread count can still take effect: run as a script,
`suite_runs.py OUT SUITE...` runs the suites at seed 0, each into its own
subdirectory of OUT. It prints as JSON the scipy modules loaded after the
package import and after each suite, and the reprs of two estimates on a
half-atom cloud; at eps 0.3 about 70k distinct rows survive t = 0 and are
stepped as one product, large enough for OpenBLAS to thread."""

import json
import os
import subprocess
import sys
from pathlib import Path

import semiclass_lab
from semiclass_lab import (DEFAULT_MAP, ExperimentConfig, TorusPoint, atom_cloud,
                           ks_entropy_estimate, mixture_cloud, run_experiment,
                           uniform_cloud)

# every suite, the five that solve no sparse eigenproblem first, so that the
# scipy probe reads them before a billiard suite imports scipy
SUITES = ("egorov", "qe-catmap", "scar-construction", "entropy-sweep",
          "ergodic-orbit", "billiard-circle", "billiard-stadium")
SIZE = {"N": 128}


def _scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


def _main(out, *names):
    loaded = {"import": _scipy_modules()}
    for name in names:
        run_experiment(ExperimentConfig(experiment=name, out_dir=f"{out}/{name}",
                                        **SIZE))
        loaded[name] = _scipy_modules()
    mix = mixture_cloud(0.5, atom_cloud([TorusPoint(0.0, 0.0)], 50_000),
                        uniform_cloud(250_000, seed=1))
    half_atom = [repr(ks_entropy_estimate(DEFAULT_MAP, mix, 8, eps, 20, seed=0))
                 for eps in (0.1, 0.3)]
    print(json.dumps({"loaded": loaded, "half_atom": half_atom}))


def suite_files(out: Path) -> dict:
    """The files of one suite run by name: report.json parsed, without its
    wall time, and every other file as bytes."""
    files = {p.name: p.read_bytes() for p in out.iterdir()}
    files["report.json"] = json.loads(files["report.json"])
    del files["report.json"]["wall_time_s"]
    return files


class FreshRun:
    """The named suites, run in the background by this file as a script, with
    SEMICLASS_LAB_THREADS and the BLAS thread variables set to threads."""

    def __init__(self, out: Path, names, threads: str):
        self.out, self._printed = out, None
        env = dict(os.environ, **dict.fromkeys((
            "SEMICLASS_LAB_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
            "MKL_NUM_THREADS"), threads))
        src = str(Path(semiclass_lab.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        self.proc = subprocess.Popen([sys.executable, __file__, str(out), *names],
                                     env=env, stdout=subprocess.PIPE, text=True)

    def printed(self) -> dict:
        """Waits for the run; the scipy modules it "loaded" ("import", then
        each suite in run order) and its "half_atom" estimates."""
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
    _main(*sys.argv[1:])
