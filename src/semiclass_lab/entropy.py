"""Kolmogorov-Sinai entropy: exact values for model measures, the Brin-Katok
Bowen-ball estimator on sampled clouds, and the inequality checks relating
entropy, the Lyapunov exponent, and scar weights."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catmap import CatMap, cat_lyapunov, step_rows, torus_distance_array
from .errors import UnderResolved
from .measures import ModelMeasure

MIN_BALL_POINTS = 5  # samples a Bowen ball needs to enter the entropy slope
BOUND_TOL = 1e-12  # slack of the entropy and scar-weight bound checks
MAX_CELLS_PER_AXIS = 2**20  # keeps the cell keys of `_cell_index` in int64


@dataclass
class SampleCloud:
    """Weighted point cloud on the torus standing in for a measure."""

    points: np.ndarray  # (n, 2) in [0, 1)
    weights: np.ndarray  # nonnegative, summing to 1

    def __post_init__(self):
        self.points = np.asarray(self.points, float)
        if not np.isfinite(self.points).all():
            raise ValueError("points must be finite")
        self.points = self.points % 1.0
        self.weights = np.asarray(self.weights, float)
        if self.points.ndim != 2 or self.points.shape[1] != 2:
            raise ValueError("points must be an (n, 2) array")
        if len(self.weights) != len(self.points):
            raise ValueError("weights must match points")
        if (self.weights < 0).any():
            raise ValueError("weights must be nonnegative")
        total = self.weights.sum()
        if not math.isclose(total, 1.0, rel_tol=1e-9):
            raise ValueError("weights must sum to 1")

    def __len__(self):
        return len(self.points)


def uniform_cloud(n: int, seed: int = 0) -> SampleCloud:
    rng = np.random.default_rng(seed)
    return SampleCloud(points=rng.random((n, 2)), weights=np.full(n, 1.0 / n))


def atom_cloud(points, n: int) -> SampleCloud:
    """Cloud of n samples spread uniformly over the given orbit points."""
    pts = np.array([[p.x, p.xi] for p in points], float)
    if len(pts) == 0 or n < 1:
        raise ValueError("atom_cloud needs at least one orbit point and n >= 1")
    reps = np.resize(np.arange(len(pts)), n)
    return SampleCloud(points=pts[reps], weights=np.full(n, 1.0 / n))


def mixture_cloud(alpha: float, a: SampleCloud, b: SampleCloud) -> SampleCloud:
    """Concatenated cloud with weights alpha on a and 1 - alpha on b."""
    pts = np.concatenate([a.points, b.points])
    w = np.concatenate([alpha * a.weights, (1.0 - alpha) * b.weights])
    return SampleCloud(points=pts, weights=w)


@dataclass(frozen=True)
class EntropyEstimate:
    value: float  # nats per step, >= 0
    standard_error: float
    n_centers_used: int = 0
    empty_ball_count: int = 0


def model_entropy(measure: ModelMeasure, m: CatMap) -> float:
    """Exact KS entropy: 0 on the periodic-orbit atom, lambda_plus on
    Lebesgue (measure of maximal entropy), so (1 - weight) lambda_plus."""
    return (1.0 - measure.weight) * cat_lyapunov(m).lambda_plus


def _cell_index(points: np.ndarray, eps: float):
    """Bucket points into an n x n grid of torus cells, n = int(1/eps) - 1
    but at least 1, each cell wider than eps. Returns near(center): the
    ascending indices of the points in the 3 x 3 cells around center's,
    wrapped mod n, which hold every point within eps of center; a cell that
    the wrap repeats is read once.

    The width exceeds eps by at least eps^2 (or 2^-40 under the cap), far
    above the few ulps by which a rounded x * n can misplace a point, so a
    point lands at most one cell from the center's whenever its computed
    distance is below eps.
    """
    n = max(1, min(int(1 / eps) - 1, MAX_CELLS_PER_AXIS))

    def cell(p):  # x = 1.0 lands in cell 0
        return np.floor(np.asarray(p, float) * n).astype(np.int64) % n

    ij = cell(points)
    keys = ij[:, 0] * n + ij[:, 1]
    order = np.argsort(keys)
    keys = keys[order]
    shifts = np.array([-1, 0, 1])

    def near(center):
        i, j = cell(center)
        wanted = np.unique(((i + shifts) % n)[:, None] * n + (j + shifts) % n)
        lo = np.searchsorted(keys, wanted, "left")
        hi = np.searchsorted(keys, wanted, "right")
        return np.sort(np.concatenate([order[a:b] for a, b in zip(lo, hi)]))

    return near


def _nested_ball_masses(m: CatMap, cloud: SampleCloud, center, T: int,
                        eps: float, near: np.ndarray) -> dict:
    """Mass of the Bowen ball B_t(center, eps) for every even t in [2, T].

    `near` holds the ascending indices of every point that can lie within
    eps of center (see `_cell_index`); the t = 0 ball is measured among
    them with `torus_distance_array`, whose arithmetic is elementwise, so
    each distance has the bits of a whole-cloud scan. Each even t adds one
    forward and one backward step to the window, so B_{t+2} is B_t minus
    the points whose new step lands eps or more away. Copies of one point
    share every step, so only the distinct survivors are stepped, by the
    `step_rows` that `bowen_distance_cloud` steps with, and each mass sums
    the weights of every copy of a live point in ascending index order.
    Those are the weights and the order of the full scan, so every mass
    equals `cloud.weights[bowen_distance_cloud(...) < eps].sum()` to the bit.
    """
    mat = m.matrix().astype(float)
    inv = m.inverse_matrix().astype(float)
    fc = bc = np.asarray(center, float)
    inside = near[torus_distance_array(cloud.points[near], fc) < eps]
    # rows viewed as complex numbers sort and compare as (x, xi) pairs
    distinct, which = np.unique(cloud.points[inside].view(complex).ravel(),
                                return_inverse=True)
    fwd = bwd = distinct.view(float).reshape(-1, 2)
    rows = np.arange(len(fwd))
    live = np.ones(len(fwd), bool)
    masses = {}
    for t in range(2, T + 1, 2):
        fwd, fc = step_rows(fwd, mat), (mat @ fc) % 1.0
        bwd, bc = step_rows(bwd, inv), (inv @ bc) % 1.0
        keep = ((torus_distance_array(fwd, fc) < eps)
                & (torus_distance_array(bwd, bc) < eps))
        live[rows[~keep]] = False
        rows, fwd, bwd = rows[keep], fwd[keep], bwd[keep]
        masses[t] = float(cloud.weights[inside[live[which]]].sum())
    return masses


def ks_entropy_estimate(m: CatMap, cloud: SampleCloud, T: int, eps: float,
                        n_centers: int, seed: int = 0) -> EntropyEstimate:
    """Average local entropy over centers drawn from the cloud.

    The finite-eps prefactor of the ball mass is removed by differencing:
    each center contributes the slope of -log mu(B_t) between t = 2 and the
    largest even t <= T whose ball mass is still at least
    MIN_BALL_POINTS / len(cloud), the mass of MIN_BALL_POINTS samples of an
    equally weighted cloud. Centers depleted already at t = 2 count as empty
    balls; more than half empty raises UnderResolved. The balls are nested,
    B_{t+2} within B_t, because the window only grows with t, so one pass
    per center gives the masses for every t.

    The cloud is bucketed once per call into an n x n torus grid, n =
    max(1, min(int(1/eps) - 1, MAX_CELLS_PER_AXIS)) at every eps, and each
    center's t = 0 ball is measured only among the points of its 3 x 3
    neighbour cells, each distinct cell read once. Each distinct point of the ball is stepped once, however many
    copies the cloud holds. Both leave every mass bit-identical to a
    full-cloud `bowen_distance_cloud` scan (see `_nested_ball_masses`).
    """
    if n_centers < 10:
        raise ValueError("n_centers must be >= 10")
    if len(cloud) < 100:
        raise ValueError("cloud too small for estimation (need >= 100 points)")
    if T < 4:
        raise ValueError("T must be >= 4 for the two-point slope")
    if not eps > 0:
        raise ValueError("eps must be > 0")
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(cloud), size=n_centers, p=cloud.weights)
    near = _cell_index(cloud.points, eps)
    floor = MIN_BALL_POINTS / len(cloud)
    values = []
    empty = 0
    for ci in idx:
        center = cloud.points[ci]
        masses = _nested_ball_masses(m, cloud, center, T, eps, near(center))
        usable = [t for t, mu in masses.items() if mu >= floor]
        t1 = max(usable, default=0)
        if t1 <= 2:
            empty += 1
            continue
        values.append(-(math.log(masses[t1]) - math.log(masses[2])) / (t1 - 2))
    if empty > n_centers // 2:
        raise UnderResolved(
            f"{empty}/{n_centers} centers had depleted Bowen balls; "
            "enlarge the cloud or reduce T"
        )
    values = np.array(values)
    stderr = float(values.std() / math.sqrt(len(values))) if len(values) > 1 else 0.0
    return EntropyEstimate(value=max(0.0, float(values.mean())),
                           standard_error=stderr, n_centers_used=len(values),
                           empty_ball_count=empty)


@dataclass(frozen=True)
class BoundCheckReport:
    """Entropy lower bound h >= lambda_plus / 2 and the equivalent scar-weight
    cap alpha <= 1/2 for the affine family h = (1 - alpha) lambda_plus."""

    entropy_margin: float
    weight_margin: float
    entropy_ok: bool
    weight_ok: bool

    @property
    def passed(self) -> bool:
        return self.entropy_ok and self.weight_ok


def entropy_bound_check(h: float, m: CatMap,
                        claimed_scar_weight: float) -> BoundCheckReport:
    if not 0.0 <= claimed_scar_weight <= 1.0:
        raise ValueError("scar weight must lie in [0, 1]")
    lam = cat_lyapunov(m).lambda_plus
    entropy_margin = h - lam / 2.0
    weight_margin = 0.5 - claimed_scar_weight
    return BoundCheckReport(
        entropy_margin=entropy_margin,
        weight_margin=weight_margin,
        entropy_ok=entropy_margin >= -BOUND_TOL,
        weight_ok=weight_margin >= -BOUND_TOL,
    )
