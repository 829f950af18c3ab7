"""One benchmark iteration in a fresh interpreter.

Imports the package first, so that `setup_s` runs from the parent's spawn
time to here. Then it reads the BLAS thread counts, runs one workload,
traced or not, and writes `result.json` (and `spans.jsonl` when traced)
into `--dir`; the workload's artifacts go to `--dir`/artifacts.

Run by run.py, with SEMICLASS_LAB_THREADS and PYTHONPATH set.
"""

import time

import semiclass_lab  # noqa: F401  (the import whose time setup_s measures)

IMPORTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from semiclass_lab import (billiard, billiard_quantum, catmap, entropy,  # noqa: E402
                           experiments, measures, serialization, spectral,
                           torus_quantum)
from semiclass_lab.config import ExperimentConfig  # noqa: E402

from layers import LAYERS  # noqa: E402
from spans import Tracer  # noqa: E402

MODULES = {m.__name__.rsplit(".", 1)[1]: m for m in (
    billiard, billiard_quantum, catmap, entropy, experiments, measures,
    serialization, spectral, torus_quantum)}

DIGESTED = (".csv", ".jsonl", ".pgm")

# the OpenBLAS each package bundles, and its thread-count symbol
_BLAS = (("numpy", "scipy_openblas_get_num_threads64_"),
         ("scipy", "scipy_openblas_get_num_threads"))


def blas_threads() -> dict:
    """Effective thread count of numpy's and scipy's bundled OpenBLAS;
    0 where the library or symbol is not found."""
    found = {}
    for package, symbol in _BLAS:
        root = Path(__import__(package).__file__).parent.parent
        libs = sorted((root / f"{package}.libs").glob("libscipy_openblas*.so"))
        try:
            get = getattr(ctypes.CDLL(str(libs[0])), symbol)
        except (IndexError, OSError, AttributeError):
            found[package] = 0
            continue
        get.argtypes = []
        get.restype = ctypes.c_int
        found[package] = get()
    return found


def provenance() -> dict:
    blas = {}
    for module in (np, scipy):
        config = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas[module.__name__] = f"{config['name']} {config['version']}"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas, "nproc": os.cpu_count()}


def digests(root: Path) -> dict:
    """SHA-256 of every CSV, JSONL and PGM file under root, by relative path."""
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.suffix in DIGESTED}


def _suite(region, name, seed, out):
    cfg = ExperimentConfig(experiment=name, seed=seed, out_dir=str(out / name))
    with region(f"experiments.{name}"):
        return experiments.run_experiment(cfg)


def catmap_n512(region, seed, out):
    return [_suite(region, name, seed, out)
            for name in ("egorov", "qe-catmap", "scar-construction")]


def entropy_table(region, seed, out):
    """The entropy-sweep suite's (T, eps) table on its 200k uniform cloud,
    and one 20-center estimate on a 200k half-atom, half-uniform cloud."""
    m = ExperimentConfig().cat_map()
    lam = catmap.cat_lyapunov(m).lambda_plus
    cloud = entropy.uniform_cloud(200_000, seed=seed)
    table = {(T, eps): entropy.ks_entropy_estimate(m, cloud, T, eps, 10, seed=seed)
             for T in (4, 6, 8) for eps in (0.05, 0.1, 0.15)}
    rows = [("uniform-200k", T, eps, est) for (T, eps), est in table.items()]
    origin = [catmap.TorusPoint(0.0, 0.0)]
    mix = entropy.mixture_cloud(0.5, entropy.atom_cloud(origin, 100_000),
                                entropy.uniform_cloud(100_000, seed=seed + 1))
    est = entropy.ks_entropy_estimate(m, mix, 8, 0.1, 20, seed=seed)
    rows.append(("mixture-200k", 8, 0.1, est))
    with open(out / "entropy_table.jsonl", "w") as f:
        for cloud_name, T, eps, est in rows:
            f.write(json.dumps({"cloud": cloud_name, "T": T, "eps": eps,
                                "estimate": est.value,
                                "stderr": est.standard_error,
                                "empty_balls": est.empty_ball_count}) + "\n")
    # the suite's 20% bound on the mixture is not asserted: at 200k points
    # the estimate misses it; the value is compared by digest instead
    uniform = table[8, 0.1].value
    report = experiments.RunReport("entropy-table")
    report.add("estimate_uniform_within_15pct",
               abs(uniform - lam) <= 0.15 * lam, uniform)
    return [report]


def stadium_h01(region, seed, out):
    return [_suite(region, "billiard-stadium", seed, out)]


def orbit_circle(region, seed, out):
    return [_suite(region, name, seed, out)
            for name in ("ergodic-orbit", "billiard-circle")]


WORKLOADS = {"catmap-n512": catmap_n512, "entropy-table": entropy_table,
             "stadium-h01": stadium_h01, "orbit-circle": orbit_circle}


def check_records(reports) -> list:
    """Every check of every report, as dicts tagged with the suite name."""
    return [dict(asdict(c), suite=r.experiment) for r in reports for c in r.checks]


def run(workload: str, seed: int, run_dir: Path, traced: bool) -> dict:
    out = run_dir / "artifacts"
    out.mkdir(parents=True)
    threads = blas_threads()
    tracer = Tracer() if traced else None
    if tracer:
        tracer.install(MODULES, LAYERS)
    region = tracer.region if tracer else (lambda name: contextlib.nullcontext())
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        reports = WORKLOADS[workload](region, seed, out)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
    finally:
        if tracer:
            tracer.uninstall()
    if tracer:
        tracer.write(run_dir / "spans.jsonl")
    checks = check_records(reports)
    checks.append({"name": "blas_threads_pinned_to_1", "suite": "benchmark",
                   "passed": set(threads.values()) == {1},
                   "value": max(threads.values()),
                   "detail": json.dumps(threads)})
    return {"wall_s": wall, "cpu_s": cpu,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "blas_threads": threads, "checks": checks, "digests": digests(out),
            "provenance": provenance()}


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--dir", type=Path, required=True)
    p.add_argument("--t0", type=float, required=True,
                   help="parent's perf_counter() just before the spawn")
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    result = {"setup_s": IMPORTED - args.t0}
    args.dir.mkdir(parents=True, exist_ok=True)
    if args.workload:
        result.update(run(args.workload, args.seed, args.dir, bool(args.trace)))
    (args.dir / "result.json").write_text(json.dumps(result, indent=1) + "\n")


if __name__ == "__main__":
    main()
