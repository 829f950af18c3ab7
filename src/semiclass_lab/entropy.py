"""Kolmogorov-Sinai entropy: the Brin-Katok Bowen-ball estimator on sampled
clouds, and the inequality checks relating entropy, the Lyapunov exponent,
and scar weights."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catmap import (CatMap, cat_lyapunov, reduce_mod1, step_rows,
                     torus_distance_array)
from .errors import UnderResolved

MIN_BALL_POINTS = 5  # samples a Bowen ball needs to enter the entropy slope
BOUND_TOL = 1e-12  # slack of the entropy and scar-weight bound checks
MAX_CELLS_PER_AXIS = 2**20  # keeps the cell keys of `_cell_index` in int64


@dataclass
class SampleCloud:
    """Weighted point cloud on the torus standing in for a measure."""

    points: np.ndarray  # (n, 2) in [0, 1)
    weights: np.ndarray  # nonnegative, summing to 1

    def __post_init__(self):
        self.points = np.array(self.points, float, order="C")
        if not np.isfinite(self.points).all():
            raise ValueError("points must be finite")
        reduce_mod1(self.points)
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


def _cell_index(points: np.ndarray, eps: float):
    """Bucket points into an n x n grid of torus cells, n = int(3/eps) - 1
    but at least 1, each cell wider than eps/3. Returns ball(center): the
    ascending indices of the points whose `torus_distance_array` to center
    is below eps, found among the points of the 7 x 7 cells around
    center's, wrapped mod n, each cell that the wrap repeats read once.

    The width exceeds eps/3 by at least eps^2/9 (or 2^-40 under the cap),
    far above the few ulps by which a rounded x * n can misplace a point,
    so a point lands at most three cells from the center's whenever its
    computed distance is below eps. Distances are elementwise, so each has
    the bits of a whole-cloud scan.
    """
    n = max(1, min(int(3 / eps) - 1, MAX_CELLS_PER_AXIS))

    def cell(p):  # x = 1.0 lands in cell 0
        return np.floor(np.asarray(p, float) * n).astype(np.int64) % n

    ij = cell(points)
    keys = ij[:, 0] * n + ij[:, 1]
    # numpy sorts keys of 16 bits or fewer (n <= 256) stably by radix; the
    # order within a cell is immaterial, as each ball is sorted by index
    order = np.argsort(keys.astype(np.min_scalar_type(n * n - 1)), kind="stable")
    keys = keys[order]
    # np.take and np.compress gather rows many times faster than indexing
    sorted_points = np.take(points, order, axis=0)
    shifts = np.arange(-3, 4)

    def ball(center):
        i, j = cell(center)
        wanted = np.unique(((i + shifts) % n)[:, None] * n + (j + shifts) % n)
        lo = np.searchsorted(keys, wanted, "left")
        hi = np.searchsorted(keys, wanted, "right")
        # adjacent cells are adjacent runs of the sorted keys: read each
        # run of them as one slice
        first = np.flatnonzero(np.r_[True, lo[1:] != hi[:-1]])
        last = np.r_[first[1:], len(lo)] - 1
        spans = [slice(a, b) for a, b in zip(lo[first], hi[last])]
        d = torus_distance_array(np.concatenate([sorted_points[s] for s in spans]),
                                 center)
        return np.sort(np.concatenate([order[s] for s in spans])[d < eps])

    return ball


def _group_starts(v: np.ndarray):
    """Where each run of equal entries of v starts, and each entry's run."""
    starts = np.ones(len(v), bool)
    starts[1:] = v[1:] != v[:-1]
    return starts, np.cumsum(starts) - 1


def _distinct_rows(xy: np.ndarray):
    """Group the rows xy, each (x, xi) viewed as one complex number: returns
    one row per group and each row's group. Runs of equal adjacent rows
    (copies adjacent in the cloud) form one group each; their heads are
    then sorted on x, and a new group starts wherever (x, xi) differs from
    the head before. Each group holds copies of one point only; a copy that
    neither pass places beside its twins only forms a group of its own."""
    starts, run = _group_starts(xy)
    heads = xy[starts]
    by_x = np.argsort(heads.real)
    heads = heads[by_x]
    starts, group = _group_starts(heads)
    which = np.empty(len(heads), np.intp)
    which[by_x] = group
    return heads[starts].view(float).reshape(-1, 2), which[run]


def _nested_ball_masses(m: CatMap, cloud: SampleCloud, center, T: int,
                        eps: float, ball: np.ndarray) -> dict:
    """Mass of the Bowen ball B_t(center, eps) for every even t in [2, T].

    `ball` holds the ascending indices of the points within eps of center,
    the t = 0 ball (see `_cell_index`). Each even t adds one forward and one
    backward step to the window, so B_{t+2} is B_t minus the points whose
    new step lands eps or more away. Copies of one point share every step,
    so one row per group of `_distinct_rows` is stepped, by the `step_rows`
    that `bowen_distance_cloud` steps with; a copy left in a group of its
    own is stepped again, to the same bits. Each mass sums the weights of
    every copy of a live point in ascending index order. Those are the
    weights and the order of the full scan, so every mass equals
    `cloud.weights[bowen_distance_cloud(...) < eps].sum()` to the bit.
    """
    mat = m.matrix().astype(float)
    inv = m.inverse_matrix().astype(float)
    fc = bc = np.asarray(center, float)
    fwd, which = _distinct_rows(cloud.points.view(complex).ravel()[ball])
    bwd = fwd
    rows = np.arange(len(fwd))
    live = np.ones(len(fwd), bool)
    masses = {}
    for t in range(2, T + 1, 2):
        fwd, fc = step_rows(fwd, mat), reduce_mod1(mat @ fc)
        bwd, bc = step_rows(bwd, inv), reduce_mod1(inv @ bc)
        keep = ((torus_distance_array(fwd, fc) < eps)
                & (torus_distance_array(bwd, bc) < eps))
        live[rows[~keep]] = False
        rows = rows[keep]
        fwd, bwd = np.compress(keep, fwd, axis=0), np.compress(keep, bwd, axis=0)
        masses[t] = float(cloud.weights[ball[live[which]]].sum())
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
    max(1, min(int(3/eps) - 1, MAX_CELLS_PER_AXIS)) at every eps, and each
    center's t = 0 ball is measured only among the points of its 7 x 7
    neighbour cells, each distinct cell read once. Each distinct point of
    the ball is stepped once, however many copies the cloud holds. Both
    leave every mass bit-identical to a full-cloud `bowen_distance_cloud`
    scan (see `_cell_index` and `_nested_ball_masses`).
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
    ball = _cell_index(cloud.points, eps)
    floor = MIN_BALL_POINTS / len(cloud)
    values = []
    empty = 0
    for ci in idx:
        center = cloud.points[ci]
        masses = _nested_ball_masses(m, cloud, center, T, eps, ball(center))
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
