"""Command-line experiment orchestrator.

A list of suites runs one suite after another, each into its own
subdirectory of --out, and each suite's checks are printed as it ends.
Exit codes: 0 if every check passed, 1 if one failed, 2 on a
configuration, package, file-system or out-of-memory error.

Usage:
    semiclass-lab --experiment egorov --out results/egorov
    semiclass-lab --experiment egorov,qe-catmap --out results
    semiclass-lab --config run.cfg --seed 3

The SEMICLASS_LAB_THREADS environment variable sets the BLAS thread count
everywhere but in the four pinned regions (the billiard class solves,
region_masses' dot products, the cat-map parity blocks of diagonalize and
the U* U blocks of unitarity_defect), which run at one OpenBLAS thread so
that every artifact is the same at any count. Importing the package sets
OMP_NUM_THREADS, OPENBLAS_NUM_THREADS and MKL_NUM_THREADS to it, so it
takes effect only if it is set before numpy is first imported in the
process; set later, it is silently ignored. A non-empty value that is not
a positive integer makes the command exit 2 before any suite runs.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .config import EXPERIMENTS, parse_config
from .errors import ConfigError, SemiclassError
from .experiments import run_experiment


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="semiclass-lab",
        description="Numerical experiments on quantum chaos model systems",
    )
    p.add_argument("--experiment",
                   help="suite name, or a comma-separated list; one of "
                        + ", ".join(EXPERIMENTS))
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--out", help="output directory (default: current)")
    p.add_argument("--seed", type=int, help="random seed (default 0)")
    p.add_argument("--dump-state", action="store_true",
                   help="also write the propagator and scarred state as .npy files")
    p.add_argument("--N", type=int, help="Hilbert space dimension")
    p.add_argument("--h", type=float, help="billiard grid spacing")
    return p


def _configs_from_args(args) -> list:
    overrides = {"out_dir": args.out, "seed": args.seed, "N": args.N,
                 "h": args.h}
    if args.dump_state:
        overrides["dump_state"] = True
    base = parse_config(args.config, overrides)
    listed = args.experiment or base.experiment
    names = [name.strip() for name in listed.split(",")] if listed else []
    if not names:
        raise SemiclassError("no experiment given (use --experiment or a config file)")
    configs = []
    for name in names:
        cfg = replace(base, experiment=name)
        if len(names) > 1:
            cfg = replace(cfg, out_dir=str(Path(cfg.out_dir) / cfg.experiment))
        configs.append(cfg.validated())
    if len(set(names)) < len(names):
        raise ConfigError(f"a suite is listed twice in {listed!r}; "
                          "its second run would overwrite the first's files")
    return configs


def _print_report(report) -> None:
    for check in report.checks:
        print(f"[{report.experiment}] {'PASS' if check.passed else 'FAIL'} {check}")
    print(f"[{report.experiment}] "
          + ("all checks passed" if report.passed else "CHECKS FAILED")
          + f" in {report.wall_time:.1f}s", flush=True)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    all_ok = True
    try:
        # each suite's lines are printed as it ends, so a later suite that
        # stops the list leaves the earlier ones' verdicts on record
        for cfg in _configs_from_args(args):
            report = run_experiment(cfg)
            _print_report(report)
            all_ok &= report.passed
    except (SemiclassError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
