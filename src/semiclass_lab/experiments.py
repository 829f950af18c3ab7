"""Named experiment suites with reproducible artifacts.

Each suite runs a self-contained study, writes CSV/PGM/JSON artifacts into
its RunReport's output directory, and adds checks to that report which
mirror the package invariants the suite exercises.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import billiard_quantum as bq
from .billiard import (BilliardState, StadiumDomain, billiard_flow,
                       circle_angular_momentum, coverage_grid, ergodic_average)
from .catmap import TorusPoint, cat_lyapunov
from .entropy import (atom_cloud, entropy_bound_check, ks_entropy_estimate,
                      mixture_cloud, uniform_cloud)
from .errors import ConfigError
from .measures import (WEAK_STAR_K, ModelMeasure, ball_mass,
                       eigenbasis_elements, husimi, qe_variance,
                       weak_star_distance, wigner_coefficients)
from .serialization import write_csv, write_pgm
from .spectral import (diagonalize, degeneracy_clusters, quantum_period,
                       scarred_state, short_period_dimensions)
from .torus_quantum import (TrigObservable, cat_propagator, egorov_defect,
                            intertwining_defect, unitarity_defect)

if TYPE_CHECKING:  # config derives its suite list from _SUITES
    from .config import ExperimentConfig

# first zeros of J0 and J1, the repr of scipy.special.jn_zeros(n, 1)[0]; read
# as constants so that importing the package does not load scipy.special
BESSEL_J0_ZERO = 2.4048255576957724
BESSEL_J1_ZERO = 3.8317059702075125


@dataclass
class Check:
    name: str
    passed: bool
    value: float
    detail: str = ""


@dataclass
class RunReport:
    experiment: str
    out: Path | None = None  # the run's directory, which a study that writes needs
    checks: list = field(default_factory=list)
    wall_time: float = 0.0
    artifacts: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name, passed, value, detail=""):
        self.checks.append(Check(name, bool(passed), float(value), detail))

    def path(self, name):
        """Path of artifact name in the run's directory, listed among the artifacts."""
        path = self.out / name
        self.artifacts.append(name)
        return path

    def write(self):
        path = self.out / "report.json"
        payload = {
            "experiment": self.experiment,
            "passed": self.passed,
            "wall_time_s": round(self.wall_time, 3),
            "checks": [asdict(c) for c in self.checks],
            "artifacts": self.artifacts,
        }
        path.write_text(json.dumps(payload, indent=2) + "\n")
        return path


def _observable_modes():
    """Representative cosine observables with frequencies up to 3."""
    freqs = [(1, 0), (0, 1), (1, 1), (2, 1), (3, 3)]
    return [((m1, m2), TrigObservable.cosine((m1, m2))) for m1, m2 in freqs]


def egorov_study(report: RunReport, m, N: int, observables):
    """Exact Egorov at dimension N: adds the unitarity, intertwining and
    worst Egorov-defect checks over observables and t = 1..5. Returns the
    propagator and the (observable, t) defect array."""
    U = cat_propagator(N, m)
    unitarity = unitarity_defect(U)
    report.add("unitarity_defect_lt_1e-10", unitarity < 1e-10, unitarity)
    inter = intertwining_defect(U, m)
    report.add("intertwining_defect_lt_1e-10", inter < 1e-10, inter)
    defects = egorov_defect(U, m, observables, 5)
    worst = float(defects.max())
    report.add("max_egorov_defect_lt_1e-9", worst < 1e-9, worst)
    return U, defects


def run_egorov(cfg: ExperimentConfig, report: RunReport):
    modes = _observable_modes()
    U, defects = egorov_study(report, cfg.cat_map(), cfg.N, [A for _, A in modes])
    rows = [(cfg.N, m1, m2, t, d)
            for ((m1, m2), _), row in zip(modes, defects.tolist())
            for t, d in enumerate(row, 1)]
    write_csv(report.path("egorov_defects.csv"), ("N", "m1", "m2", "t", "defect"), rows)
    if cfg.dump_state:
        np.save(report.path("propagator.npy"), U)


def qe_study(report: RunReport, m, A: TrigObservable, N: int):
    """QE study of A at dimensions 64 and N: adds the basis-average identity
    check per dimension and, if N > 64, the variance-decay check. Returns
    the CSV rows and the eigendecomposition at N."""
    variances = {}
    rows = []
    for n in sorted({64, N}):
        dec = diagonalize(cat_propagator(n, m))
        mus = eigenbasis_elements(dec, A)
        avg_defect = abs(mus.mean() - A.mean)
        report.add(f"basis_average_identity_N{n}", avg_defect < 1e-10, avg_defect)
        variances[n] = qe_variance(mus, A.mean)
        rows.append((n, variances[n], avg_defect))
        if n == N:
            dec_N = dec
    if N > 64:
        report.add("variance_decays_with_N",
                   variances[N] < variances[64], variances[N],
                   f"variance at N=64: {variances[64]:.6g}")
    return rows, dec_N


def run_qe_catmap(cfg: ExperimentConfig, report: RunReport):
    # the mixed mode 2 cos(2 pi (x + xi)): for axis-aligned modes the
    # eigenspace-diagonal part of the quantized observable vanishes
    # identically when N is a power of two, so the variance trend is only
    # visible on generic frequencies
    A = TrigObservable.cosine((1, 1))
    rows, dec = qe_study(report, cfg.cat_map(), A, cfg.N)
    N = cfg.N
    cluster_id = np.empty(N, int)
    for cid, (_, idx) in enumerate(degeneracy_clusters(dec)):
        cluster_id[idx] = cid
    write_csv(report.path("eigenphases.csv"), ("index", "phase", "cluster_id"),
              [(n, dec.eigenphases[n], cluster_id[n]) for n in range(N)])
    write_csv(report.path("qe_variance.csv"),
              ("N", "variance", "basis_average_defect"), rows)


def scar_study(report: RunReport, m, n_max: int):
    """Half-scarred states on the fixed point at the first four short-period
    dimensions in [50, n_max]: adds the check that at least three exist,
    then the ball-mass and closest-measure checks per N. Returns the CSV
    rows and (N, state, Husimi grid) of the last N, or None if none exists."""
    dims = short_period_dimensions(m, 50, n_max)
    report.add("short_period_dims_found_ge_3", len(dims) >= 3, len(dims),
               f"dims: {dims[:6]}")
    origin = ModelMeasure.periodic_orbit([TorusPoint(0.0, 0.0)])
    mixture = ModelMeasure.mixture(0.5, origin.orbit)
    lebesgue = ModelMeasure.lebesgue()
    rows = []
    last = None
    for N, P in dims[:4]:
        U = cat_propagator(N, m)
        qp = quantum_period(m, P + 1, U)
        T_half = max(1, qp.P // 2)
        psi = scarred_state(T_half, U, qp)
        g = husimi(psi)
        mass = ball_mass(g, TorusPoint(0.0, 0.0), 0.1)
        w = wigner_coefficients(psi, WEAK_STAR_K)
        d_mix = weak_star_distance(w, mixture)
        d_atom = weak_star_distance(w, origin)
        d_leb = weak_star_distance(w, lebesgue)
        rows.append((N, qp.P, T_half, mass, d_mix, d_atom, d_leb))
        report.add(f"ball_mass_in_window_N{N}",
                   0.35 <= mass <= 0.60, mass, "target [0.35, 0.60]")
        report.add(f"mixture_closest_N{N}",
                   d_mix < d_atom and d_mix < d_leb, d_mix,
                   f"d_atom {d_atom:.4f}, d_lebesgue {d_leb:.4f}")
        last = (N, psi, g)
    return rows, last


def run_scar_construction(cfg: ExperimentConfig, report: RunReport):
    rows, last = scar_study(report, cfg.cat_map(), max(cfg.N, 250))
    write_csv(report.path("scarred_states.csv"), ("N", "P", "T_half", "ball_mass",
              "d_mixture", "d_atom", "d_lebesgue"), rows)
    if last is not None:
        N, psi, g = last
        write_pgm(g.values, report.path(f"husimi_scar_N{N}.pgm"))
        if cfg.dump_state:
            np.save(report.path(f"scarred_state_N{N}.npy"), psi)


def entropy_bounds(report: RunReport, m):
    """Scar-weight bound at entropy (1 - alpha) lambda for alpha in
    (0, 1/4, 1/2, 3/4): adds the accept and reject checks. Returns the
    table as a list of dicts."""
    lam = cat_lyapunov(m).lambda_plus
    bounds = []
    for alpha in (0.0, 0.25, 0.5, 0.75):
        chk = entropy_bound_check((1 - alpha) * lam, m, alpha)
        bounds.append({"alpha": alpha, "entropy_margin": chk.entropy_margin,
                       "weight_margin": chk.weight_margin, "passed": chk.passed})
    report.add("bound_accepts_alpha_le_half",
               bounds[0]["passed"] and bounds[1]["passed"] and bounds[2]["passed"],
               1.0)
    report.add("bound_rejects_alpha_above_half", not bounds[3]["passed"], 0.75)
    return bounds


def run_entropy_sweep(cfg: ExperimentConfig, report: RunReport):
    m = cfg.cat_map()
    lam = cat_lyapunov(m).lambda_plus
    rows = []

    # sweep on a medium cloud for the table
    sweep_cloud = uniform_cloud(200_000, seed=cfg.seed)
    for T in (4, 6, 8):
        for eps in (0.05, 0.1, 0.15):
            est = ks_entropy_estimate(m, sweep_cloud, T, eps, 10, seed=cfg.seed)
            rows.append(("uniform-200k", T, eps, est.value, est.standard_error,
                         est.empty_ball_count, lam))

    # oracles on 1e6-point Lebesgue and half-atom clouds and a pure atom
    n = 1_000_000
    uni = uniform_cloud(n, seed=cfg.seed)
    atom = atom_cloud([TorusPoint(0.0, 0.0)], 200)
    mix = mixture_cloud(0.5, atom_cloud([TorusPoint(0.0, 0.0)], n // 2),
                        uniform_cloud(n // 2, seed=cfg.seed + 1))
    T, eps = 8, 0.1
    est_u = ks_entropy_estimate(m, uni, T, eps, 10, seed=cfg.seed)
    est_a = ks_entropy_estimate(m, atom, T, eps, 10, seed=cfg.seed)
    est_m = ks_entropy_estimate(m, mix, T, eps, 20, seed=cfg.seed)
    rows += [(label, T, eps, est.value,
              est.standard_error, est.empty_ball_count, model)
             for label, est, model in (("uniform", est_u, lam),
                                       ("atom", est_a, 0.0),
                                       ("mixture", est_m, lam / 2))]
    report.add("estimate_uniform_within_15pct",
               abs(est_u.value - lam) <= 0.15 * lam, est_u.value)
    report.add("estimate_atom_within_0.05",
               abs(est_a.value) <= 0.05, est_a.value)
    report.add("estimate_mixture_within_20pct",
               abs(est_m.value - lam / 2) <= 0.20 * (lam / 2), est_m.value)
    write_csv(report.path("entropy_estimates.csv"), ("cloud", "T", "eps", "estimate",
              "stderr", "empty_ball_count", "model_value"), rows)
    bounds = entropy_bounds(report, m)
    report.path("entropy_bounds.json").write_text(json.dumps(bounds, indent=2) + "\n")


def run_billiard_circle(cfg: ExperimentConfig, report: RunReport):
    # unit-disc eigenvalues at spacings 4h, 2h and h, each mode solved in its
    # own parity class: the J0 mode in the even class (1, 1), the J1 mode
    # ~ sin(theta) in (1, -1)
    circle = StadiumDomain(half_length=0.0, radius=1.0)
    j0, j1 = BESSEL_J0_ZERO, BESSEL_J1_ZERO
    h = cfg.h
    spacings = [4 * h, 2 * h, h]
    rows = []
    k1 = {}
    for s in spacings:
        dd = bq.discretize_stadium(circle, s)
        A = bq.build_laplacian(dd)
        mode1 = bq.eigenmodes_near(dd, A, j0, 1, parity=(1, 1))[0]
        k1[s] = mode1.k
        rows.append((s, mode1.k, j0, abs(mode1.k - j0) / j0))
    err = {s: abs(k1[s] ** 2 - j0**2) for s in spacings}
    order1 = math.log2(err[spacings[0]] / err[spacings[1]])
    order2 = math.log2(err[spacings[1]] / err[spacings[2]])
    relerr = abs(k1[h] - j0) / j0
    report.add("k1_within_1pct", relerr < 0.01, relerr)
    mode2 = bq.eigenmodes_near(dd, A, j1, 1, parity=(1, -1))[0]
    relerr2 = abs(mode2.k - j1) / j1
    report.add("k2_within_1pct", relerr2 < 0.01, relerr2)
    report.add("convergence_order_in_window",
               1.7 <= order1 <= 2.3 and 1.7 <= order2 <= 2.3,
               order2, f"orders {order1:.2f}, {order2:.2f}")
    write_csv(report.path("circle_eigenvalues.csv"), ("h", "k1", "k1_exact", "rel_err"),
              rows)

    # classical regularity: angular momentum conservation over 1e5 bounces
    # from (0.31, -0.12) in a direction drawn from the seed
    rng = np.random.default_rng(cfg.seed)
    angle = 2 * np.pi * rng.random()
    start = BilliardState(0.31, -0.12, math.cos(angle), math.sin(angle))
    L0 = circle_angular_momentum(start)
    states = billiard_flow(circle, start, 100_000)
    x, y, dx, dy = states[1:].T
    drift = float(np.abs(x * dy - y * dx - L0).max())
    report.add("angular_momentum_drift_lt_1e-9", drift < 1e-9, drift)
    write_csv(report.path("circle_orbit.csv"), ("step", "x", "y", "dx", "dy"),
              [(i, *row) for i, row in enumerate(states[:1000])])
    write_pgm(_mode_raster(mode1), report.path("circle_mode1.pgm"))


def _mode_raster(mode):
    grid = np.zeros(mode.dd.mask.shape)
    grid[mode.dd.mask] = mode.wavefunction**2
    return grid.T[::-1]  # image rows top to bottom


def stadium_window(report: RunReport, domain, dd, A, center_k):
    """Stadium modes with k within 1 of center_k: adds the Weyl-count,
    residual and score checks, suffixed with the tag k<center_k> ("k15"),
    and writes the mode table and the top-scoring modes as artifacts.
    Returns the modes."""
    tag = f"k{center_k:.0f}"
    modes = bq.eigenmodes_window(dd, A, domain, center_k)
    pred = bq.weyl_window_count(domain, center_k)
    report.add(f"weyl_count_within_15pct_{tag}",
               abs(len(modes) - pred) <= 0.15 * pred, len(modes),
               f"Weyl prediction {pred:.1f}")
    residual = max(m.residual for m in modes)
    report.add(f"max_residual_lt_1e-8_{tag}", residual < 1e-8, residual)
    bb = bq.bouncing_ball_scores(modes, domain)
    sc = bq.scar_scores(modes, domain)
    rows = [(m.k, b, s) for m, b, s in zip(modes, bb, sc)]
    write_csv(report.path(f"stadium_modes_{tag}.csv"),
              ("k", "bouncing_ball_ratio", "scar_ratio"), rows)
    with open(report.path(f"stadium_modes_{tag}.jsonl"), "w") as f:
        for m, b, s in zip(modes, bb, sc):
            f.write(json.dumps({"k": m.k, "bouncing_ball": b, "scar": s}) + "\n")
    report.add(f"bouncing_ball_max_gt_1.5_{tag}", bb.max() > 1.5, float(bb.max()))
    report.add(f"median_bb_in_0.8_1.2_{tag}",
               0.8 <= np.median(bb) <= 1.2, float(np.median(bb)))
    report.add(f"median_scar_in_0.8_1.2_{tag}",
               0.8 <= np.median(sc) <= 1.2, float(np.median(sc)))
    for arr, name in ((bb, "bouncing_ball"), (sc, "scar")):
        write_pgm(_mode_raster(modes[int(np.argmax(arr))]),
                  report.path(f"stadium_{name}_{tag}.pgm"))
    return modes


def run_billiard_stadium(cfg: ExperimentConfig, report: RunReport):
    domain = StadiumDomain(half_length=1.0, radius=1.0)
    dd = bq.discretize_stadium(domain, cfg.h)
    A = bq.build_laplacian(dd)
    modes15 = stadium_window(report, domain, dd, A, 15.0)
    modes30 = stadium_window(report, domain, dd, A, 30.0)
    strip = lambda x, y: np.abs(x) <= domain.half_length / 2
    s15 = bq.qe_spatial_variance(modes15, strip)
    s30 = bq.qe_spatial_variance(modes30, strip)
    report.add("central_strip_variance_decays", s30 < s15, s30,
               f"variance at k~15: {s15:.3e}")


def run_ergodic_orbit(cfg: ExperimentConfig, report: RunReport):
    # stadium orbit of 1e6 bounces from (0.137, -0.041) in a direction drawn
    # from the seed: the left-half time average over all of it and the cell
    # coverage of its first 1e5 bounces
    rng = np.random.default_rng(cfg.seed)
    angle = 2 * np.pi * rng.random()
    domain = StadiumDomain(half_length=1.0, radius=1.0)
    start = BilliardState(0.137, -0.041, math.cos(angle), math.sin(angle))
    states = billiard_flow(domain, start, 1_000_000)
    frac = ergodic_average(states, 1_000_000)
    report.add("left_half_fraction_within_0.02", abs(frac - 0.5) <= 0.02, frac)
    counts, inside = coverage_grid(domain, states, 100_000)
    covered = bool((counts[inside] > 0).all())
    report.add("all_interior_cells_visited", covered,
               float((counts[inside] > 0).sum()), f"of {int(inside.sum())} cells")
    write_csv(report.path("coverage_counts.csv"), ("ix", "iy", "count", "inside"),
              [(i, j, int(counts[i, j]), bool(inside[i, j]))
               for i in range(counts.shape[0]) for j in range(counts.shape[1])])
    write_csv(report.path("ergodic_orbit.csv"), ("step", "x", "y", "dx", "dy"),
              [(i, *row) for i, row in enumerate(states[:2001])])


_SUITES = {
    "egorov": run_egorov,
    "qe-catmap": run_qe_catmap,
    "scar-construction": run_scar_construction,
    "entropy-sweep": run_entropy_sweep,
    "billiard-circle": run_billiard_circle,
    "billiard-stadium": run_billiard_stadium,
    "ergodic-orbit": run_ergodic_orbit,
}


def run_experiment(cfg: ExperimentConfig) -> RunReport:
    cfg = cfg.validated()
    report = RunReport(cfg.experiment, Path(cfg.out_dir))
    try:
        report.out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output directory {cfg.out_dir}: {exc.strerror}") from exc
    t0 = time.perf_counter()
    _SUITES[cfg.experiment](cfg, report)
    report.wall_time = time.perf_counter() - t0
    report.write()
    return report
