"""The package functions the traced run wraps, their counters, and the
per-layer metrics derived from the spans. Importing this module does not
import the package."""

from __future__ import annotations

import os

from spans import layer_totals

# "module.function" -> count hook(arguments, result) -> {counter: value}, or None
LAYERS = {
    "catmap.bowen_distance_cloud":
        lambda a, r: {"point_steps": len(a["pts"]) * (a["T"] + 1)},
    "entropy.ks_entropy_estimate":
        lambda a, r: {"empty_balls": r.empty_ball_count,
                      "centers_used": r.n_centers_used,
                      "centers_requested": a["n_centers"]},
    "torus_quantum.cat_propagator": None,
    "torus_quantum.weyl_quantize": None,
    "torus_quantum.intertwining_defect": None,
    "torus_quantum.unitarity_defect": None,
    "torus_quantum.coherent_state": None,
    "spectral.diagonalize": None,
    "spectral.quantum_period": None,
    "spectral.scarred_state": None,
    "spectral.short_period_dimensions": None,
    "measures.husimi": lambda a, r: {"cells": r.G * r.G},
    "measures.qe_variance": None,
    "measures.matrix_element": None,
    "measures.wigner_coefficients": None,
    "billiard_quantum.discretize_stadium":
        lambda a, r: {"unknowns": r.n_interior},
    "billiard_quantum.build_laplacian": lambda a, r: {"nnz": r.nnz},
    "billiard_quantum.eigenmodes_near":
        lambda a, r: {"modes_requested": a["count"], "modes_returned": len(r)},
    "billiard_quantum.eigenmodes_window": lambda a, r: {"modes_kept": len(r)},
    "billiard.ergodic_average": lambda a, r: {"bounces": a["n_bounces"]},
    "billiard.coverage_grid": lambda a, r: {"bounces": a["n_bounces"]},
    "billiard.billiard_flow": lambda a, r: {"bounces": a["n_bounces"]},
    "serialization.write_csv":
        lambda a, r: {"bytes": os.path.getsize(a["path"])},
}

# suites run through experiments.run_experiment, each inside a span
# "experiments.<suite>" recorded by the workload code
SUITES = ("egorov", "qe-catmap", "scar-construction", "billiard-circle",
          "billiard-stadium", "ergodic-orbit")

# counter metrics, with their unit and which is better
COUNTERS = {
    "catmap.bowen_distance_cloud.point_steps": ("count", "lower"),
    "entropy.ks_entropy_estimate.empty_balls": ("count", "lower"),
    "entropy.ks_entropy_estimate.centers_used_ratio": ("ratio", "higher"),
    "measures.husimi.cells": ("count", "lower"),
    "billiard_quantum.discretize_stadium.unknowns": ("count", "lower"),
    "billiard_quantum.build_laplacian.nnz": ("count", "lower"),
    "billiard_quantum.eigenmodes_near.modes_requested": ("count", "lower"),
    "billiard_quantum.eigenmodes_near.modes_returned": ("count", "lower"),
    "billiard_quantum.eigenmodes_window.kept_ratio": ("ratio", "higher"),
    "billiard.bounces": ("count", "lower"),
    "billiard.bounces_per_s": ("1/s", "higher"),
    "serialization.write_csv.bytes": ("bytes", "lower"),
}

_BILLIARD = ("billiard.ergodic_average", "billiard.coverage_grid",
             "billiard.billiard_flow")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(spans) -> dict:
    """Every per-layer metric of one traced iteration, as name -> value.
    A layer the workload does not reach reads 0."""
    totals = layer_totals(spans)
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}
    out = {}
    for name in LAYERS:
        t = totals.get(name, zero)
        out.update({f"{name}.{key}": t[key] for key in zero})
    for suite in SUITES:
        out[f"experiments.{suite}.self_s"] = \
            totals.get(f"experiments.{suite}", zero)["self_s"]

    def count(layer, key):
        return totals.get(layer, {}).get(key, 0)

    ks = "entropy.ks_entropy_estimate"
    near = "billiard_quantum.eigenmodes_near"
    window = "billiard_quantum.eigenmodes_window"
    # modes the windows kept, over the modes their own solves returned
    window_returned = sum(s.counts["modes_returned"] for s in spans
                          if s.name == near and s.parent >= 0
                          and spans[s.parent].name == window)
    bounces = sum(count(name, "bounces") for name in _BILLIARD)
    out.update({
        "catmap.bowen_distance_cloud.point_steps":
            count("catmap.bowen_distance_cloud", "point_steps"),
        f"{ks}.empty_balls": count(ks, "empty_balls"),
        f"{ks}.centers_used_ratio":
            _ratio(count(ks, "centers_used"), count(ks, "centers_requested")),
        "measures.husimi.cells": count("measures.husimi", "cells"),
        "billiard_quantum.discretize_stadium.unknowns":
            count("billiard_quantum.discretize_stadium", "unknowns"),
        "billiard_quantum.build_laplacian.nnz":
            count("billiard_quantum.build_laplacian", "nnz"),
        f"{near}.modes_requested": count(near, "modes_requested"),
        f"{near}.modes_returned": count(near, "modes_returned"),
        f"{window}.kept_ratio": _ratio(count(window, "modes_kept"), window_returned),
        "billiard.bounces": bounces,
        "billiard.bounces_per_s":
            _ratio(bounces, sum(out[f"{name}.s"] for name in _BILLIARD)),
        "serialization.write_csv.bytes":
            count("serialization.write_csv", "bytes"),
    })
    return out


def units() -> dict:
    """name -> (unit, better) for every metric per_layer returns."""
    out = {}
    for name in LAYERS:
        out[f"{name}.calls"] = ("count", "lower")
        out[f"{name}.s"] = ("s", "lower")
        out[f"{name}.self_s"] = ("s", "lower")
    for suite in SUITES:
        out[f"experiments.{suite}.self_s"] = ("s", "lower")
    out.update(COUNTERS)
    return out
