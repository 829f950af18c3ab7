"""Lab benchmark: run one workload and print its metrics.

    python3 labbench/run.py --workload catmap-n512 --seed 0 --seconds 10 --trace 0
    python3 labbench/run.py --workload all

Closed loop, one sequential client: each iteration runs the workload in a
fresh interpreter (labbench/child.py) with SEMICLASS_LAB_THREADS=1, and the
next starts when it has ended. A run measures as many whole iterations as
fit in --seconds, at least one, and reports medians. Import-only
interpreters before and after each iteration add samples of set-up time.

--trace 0 prints the end-to-end metrics: wall_s, setup_s, peak_rss_mb.
--trace 1 runs each iteration twice, untraced and traced, and prints the
per-layer metrics of the traced one (see layers.py); its artifacts must
match the untraced run's byte for byte.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; attempted and failed count the output checks.
The exit code is 0 only when every check passed. Results, spans and
artifacts are kept under labbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import per_layer, units
from spans import read_spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("catmap-n512", "entropy-table", "stadium-h01", "orbit-circle")
# inputs come from seed % SEED_VARIANTS: references.json holds the artifact
# digests of each variant, recorded at the commit that added the benchmark
SEED_VARIANTS = 4
THREADS = "1"
CHILD_TIMEOUT_S = 170
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# per-layer metrics of the whole run, beside those layers.py derives from spans
RUN_LAYER_UNITS = {
    "run.cpu_s": ("s", "lower"),
    "run.blas_threads_numpy": ("count", "lower"),
    "run.blas_threads_scipy": ("count", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "serialization.artifacts_changed": ("count", "lower"),
}


def run_child(run_dir: Path, workload=None, seed=0, traced=False) -> dict:
    """Spawn child.py and return its result.json. The BLAS pin is set in
    the environment before the interpreter starts."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env["SEMICLASS_LAB_THREADS"] = THREADS
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(BENCH / "child.py"), "--dir", str(run_dir)]
    if workload:
        cmd += ["--workload", workload, "--seed", str(seed),
                "--trace", str(int(traced))]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], env=env, cwd=ROOT,
                          stdout=sys.stderr, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}")
    return json.loads((run_dir / "result.json").read_text())


def git_state() -> dict:
    """Revision and dirty flag of the checkout, or None outside a git tree."""
    env = dict(os.environ, GIT_OPTIONAL_LOCKS="0",  # no index refresh
               GIT_CEILING_DIRECTORIES=str(ROOT.parent))  # no search above ROOT

    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, env=env)
    try:
        top = git("rev-parse", "--show-toplevel")
    except FileNotFoundError:
        return {"revision": None, "dirty": None}
    if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
        return {"revision": None, "dirty": None}
    return {"revision": git("rev-parse", "HEAD").stdout.strip(),
            "dirty": bool(git("status", "--porcelain").stdout.strip())}


def reference_digests(workload: str, variant: int) -> dict:
    refs = json.loads((BENCH / "references.json").read_text())
    return refs.get(workload, {}).get(str(variant), {})


def changed_artifacts(digests: dict, reference: dict) -> list:
    """Artifacts whose digest differs from the reference, or that only one
    side has."""
    return sorted(name for name in digests.keys() | reference.keys()
                  if digests.get(name) != reference.get(name))


def summarize_checks(results) -> tuple:
    """(attempted, failed, names of failed checks) over all iterations."""
    checks = [c for r in results for c in r["checks"]]
    failed = [f"{c['suite']}/{c['name']}" for c in checks if not c["passed"]]
    return len(checks), len(failed), failed


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    variant = seed % SEED_VARIANTS
    base = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(base, ignore_errors=True)
    plain, traced, setups = [], [], []

    def sample_setup():
        # import-only children before and after each iteration, so that the
        # samples span the run; the traced run reports no set-up time
        if not trace:
            setups.append(run_child(base / f"setup{len(setups)}")["setup_s"])

    start = time.perf_counter()
    # as many whole iterations as fit in `seconds`, at least one
    while not plain or \
            (time.perf_counter() - start) * (len(plain) + 1) / len(plain) <= seconds:
        i = len(plain)
        sample_setup()
        plain.append(run_child(base / f"{i}-plain", workload, variant))
        if trace:
            traced.append(run_child(base / f"{i}-traced", workload, variant, True))
    sample_setup()
    results = plain + traced
    for p, t in zip(plain, traced):
        same = p["digests"] == t["digests"]
        t["checks"].append({"name": "traced_digests_equal_untraced",
                            "suite": "benchmark", "passed": same,
                            "value": float(same), "detail": ""})
    attempted, failed, failed_names = summarize_checks(results)
    reference = reference_digests(workload, variant)
    changed = sorted({name for r in plain
                      for name in changed_artifacts(r["digests"], reference)})
    if trace:
        layer = [per_layer(read_spans(base / f"{i}-traced" / "spans.jsonl"))
                 for i in range(len(traced))]
        values = {name: statistics.median(m[name] for m in layer) for name in layer[0]}
        values.update({
            "run.cpu_s": statistics.median(r["cpu_s"] for r in plain),
            "run.blas_threads_numpy": plain[0]["blas_threads"]["numpy"],
            "run.blas_threads_scipy": plain[0]["blas_threads"]["scipy"],
            "trace.overhead_ratio": statistics.median(t["wall_s"] for t in traced)
            / statistics.median(p["wall_s"] for p in plain),
            "serialization.artifacts_changed": len(changed),
        })
        metric_units = dict(units(), **RUN_LAYER_UNITS)
        metrics = {name: {"value": values[name], "unit": metric_units[name][0]}
                   for name in values}
    else:
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "setup_s": statistics.median(setups + [r["setup_s"] for r in results]),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        metrics = {name: {"value": values[name], "unit": END_TO_END[name]}
                   for name in values}
    result = {
        "workload": workload, "seed": seed, "seed_variant": variant,
        "iterations": len(plain), "setup_samples": len(setups) + len(results),
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "failed_checks": failed_names, "artifacts_changed": changed,
        "metrics": metrics,
        "provenance": dict(git_state(), **plain[0]["provenance"],
                           seed=seed, blas_threads_pinned=int(THREADS)),
    }
    (base / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    return result


def report(result: dict) -> None:
    tag = f"[{result['workload']}]"
    for name, m in result["metrics"].items():
        print(f"{tag} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{tag} checks_failed = {result['failed']} of checks_total = "
          f"{result['attempted']}"
          + (f" ({', '.join(result['failed_checks'])})" if result["failed"] else ""))
    print(f"{tag} artifacts changed from reference: "
          + (", ".join(result["artifacts_changed"]) or "none"))
    print(f"{tag} iterations = {result['iterations']}, "
          f"setup samples = {result['setup_samples']}")
    print(f"{tag} provenance {json.dumps(result['provenance'])}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "semiclass_lab" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [measure(name, args.seed, args.seconds, bool(args.trace))
               for name in names]
    for result in results:
        report(result)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": m
                   for r in results for name, m in r["metrics"].items()}
    correct = all(r["correct"] for r in results)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
