"""Kolmogorov-Sinai entropy: the Brin-Katok Bowen-ball estimator on sampled
clouds, and the inequality checks relating entropy, the Lyapunov exponent,
and scar weights."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .catmap import (CatMap, cat_lyapunov, reduce_mod1, step_rows,
                     torus_distance_array)
from .errors import UnderResolved

MIN_BALL_POINTS = 5  # samples a Bowen ball needs to enter the entropy slope
BOUND_TOL = 1e-12  # slack of the entropy and scar-weight bound checks
MAX_CELLS_PER_AXIS = 2**20  # keeps the cell keys of `_cell_index` in int64


@dataclass(frozen=True, eq=False)
class SampleCloud:
    """Weighted point cloud on the torus standing in for a measure.

    Immutable: `points` and `weights` are read-only copies of the arrays
    given, so the memo in which `ks_entropy_estimate` keeps each center's
    nested Bowen-ball masses cannot go stale. The memo maps (map, eps,
    center index) to one short list of masses and dies with the cloud.
    A cloud equals only itself and hashes by identity, as fits a memo that
    is its own."""

    points: np.ndarray  # (n, 2) in [0, 1)
    weights: np.ndarray  # nonnegative, summing to 1
    _balls: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        points = np.array(self.points, float, order="C")
        if not np.isfinite(points).all():
            raise ValueError("points must be finite")
        reduce_mod1(points)
        weights = np.array(self.weights, float)
        if points.ndim != 2 or points.shape[1] != 2:
            raise ValueError("points must be an (n, 2) array")
        if len(weights) != len(points):
            raise ValueError("weights must match points")
        if (weights < 0).any():
            raise ValueError("weights must be nonnegative")
        total = weights.sum()
        if not math.isclose(total, 1.0, rel_tol=1e-9):
            raise ValueError("weights must sum to 1")
        for name, array in (("points", points), ("weights", weights)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    def __len__(self):
        return len(self.points)


def uniform_cloud(n: int, seed: int = 0) -> SampleCloud:
    if n < 1:
        raise ValueError("uniform_cloud needs n >= 1")
    rng = np.random.default_rng(seed)
    return SampleCloud(points=rng.random((n, 2)), weights=np.full(n, 1.0 / n))


def atom_cloud(points, n: int) -> SampleCloud:
    """Cloud of n samples spread uniformly over the given orbit points, the
    first n % len(points) points holding one copy more. Each point's copies
    lie side by side, so a Bowen ball steps them once (see
    `_nested_ball_masses`)."""
    pts = np.array([[p.x, p.xi] for p in points], float)
    if len(pts) == 0 or n < 1:
        raise ValueError("atom_cloud needs at least one orbit point and n >= 1")
    reps = np.sort(np.resize(np.arange(len(pts)), n))
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
    center's, wrapped mod n: one slice of the key-sorted point indices per
    cell, each cell that the wrap repeats read once. The index holds only
    those indices and the sorted keys, in the narrowest dtype that holds
    n * n - 1; ball rows are gathered from points through the indices.

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
    keys = (ij[:, 0] * n + ij[:, 1]).astype(np.min_scalar_type(n * n - 1))
    # numpy sorts keys of 16 bits or fewer (n <= 256) stably by radix; the
    # order within a cell is immaterial, as each ball is sorted by index
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    shifts = np.arange(-3, 4)

    def near(c):
        """The distinct cells (c + shifts) mod n of one axis, ascending."""
        return np.array(sorted({(c + s) % n for s in shifts}))

    def ball(center):
        i, j = cell(center)
        # the distinct keys, without np.unique, which imports numpy.ma; in
        # the keys' dtype, as searchsorted would otherwise copy every key
        wanted = (near(i)[:, None] * n + near(j)).ravel().astype(keys.dtype)
        spans = [slice(a, b) for a, b in zip(np.searchsorted(keys, wanted, "left"),
                                             np.searchsorted(keys, wanted, "right"))]
        near_rows = np.concatenate([order[s] for s in spans])
        # np.take and np.compress gather rows many times faster than indexing
        d = torus_distance_array(np.take(points, near_rows, axis=0), center)
        return np.sort(near_rows[d < eps])

    return ball


def _nested_ball_masses(m: CatMap, cloud: SampleCloud, center, T: int,
                        eps: float, ball: np.ndarray) -> tuple[list, bool]:
    """Masses of the Bowen balls B_t(center, eps) for t = 2, 4, ..., and
    whether the ball has settled.

    `ball` holds the ascending indices of the points within eps of center,
    the t = 0 ball (see `_cell_index`). Each even t adds one forward and one
    backward step to the window, so B_{t+2} is B_t minus the points whose
    new step lands eps or more away. Copies of one point share every step,
    so each run of equal adjacent rows of the ball is stepped as one row;
    copies apart from each other are stepped each on its own, to the same
    bits. The rows and the center are stepped by the `step_rows` that
    `bowen_distance_cloud` steps with, which gives a point the same bits
    whatever is stepped with it. Each mass sums the weights of every copy
    of a live point in ascending index order. Those are the weights and the
    order of the full scan, so every mass equals
    `cloud.weights[bowen_distance_cloud(...) < eps].sum()` to the bit.

    The ball has settled when every live run equals the center bit for
    bit, forward and backward: `step_rows` is elementwise, so each later
    step keeps every live run and each later mass repeats the last one to
    the bit. The pass stops at the first t at which the ball has settled,
    before T if it settles there, or else at t = 2T, unsettled. So the list
    holds the masses up to the horizon t = 2 * len(masses), and a settled
    ball's last mass is its mass at every later t.
    """
    mat, inv = m.matrix(float), m.inverse_matrix(float)
    fc = bc = np.asarray(center, float)
    xy = cloud.points.view(complex).ravel()[ball]  # each row (x, xi) as x + i xi
    heads = np.ones(len(xy), bool)  # sized by the ball, which may be empty
    heads[1:] = xy[1:] != xy[:-1]
    which = np.cumsum(heads) - 1  # the run of each point of the ball
    fwd = bwd = xy[heads].view(float).reshape(-1, 2)
    rows = np.arange(len(fwd))
    live = np.ones(len(fwd), bool)
    masses, settled, t = [], False, 0
    while t < 2 * T and not settled:
        t += 2
        fwd, fc = step_rows(fwd, mat), step_rows(fc, mat)
        bwd, bc = step_rows(bwd, inv), step_rows(bc, inv)
        keep = ((torus_distance_array(fwd, fc) < eps)
                & (torus_distance_array(bwd, bc) < eps))
        live[rows[~keep]] = False
        rows = rows[keep]
        fwd, bwd = np.compress(keep, fwd, axis=0), np.compress(keep, bwd, axis=0)
        masses.append(float(cloud.weights[ball[live[which]]].sum()))
        # reduce_mod1 leaves no -0.0 and no NaN, so == compares bits
        settled = bool((fwd == fc).all() and (bwd == bc).all())
    return masses, settled


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

    Each pass is kept in the cloud's memo under (m, eps, center index), so
    the ball of one center is stepped once per cloud: a later call with the
    same eps and centers reads its masses, whatever its T. A pass runs on
    past T until its ball settles, or up to t = 2T; a later T beyond an
    unsettled pass's horizon steps the ball again from t = 0 (see
    `_nested_ball_masses`).

    A call that misses a center in the memo buckets the cloud once into an
    n x n torus grid, n = max(1, min(int(3/eps) - 1, MAX_CELLS_PER_AXIS))
    at every eps, and each missing center's t = 0 ball is measured only
    among the points of its 7 x 7 neighbour cells, each distinct cell read
    once. Each run of adjacent copies of a point in the ball is stepped
    once, however long; a copy apart from its twins is stepped on its own.
    All of these leave every mass
    bit-identical to a full-cloud `bowen_distance_cloud` scan (see
    `_cell_index` and `_nested_ball_masses`).
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
    ball = None  # the cell index, built at the first center the memo lacks
    floor = MIN_BALL_POINTS / len(cloud)
    values = []
    empty = 0
    for ci in idx:
        key = (m, eps, int(ci))
        stored, settled = cloud._balls.get(key, ([], False))
        if not settled and 2 * len(stored) < T:
            if ball is None:
                ball = _cell_index(cloud.points, eps)
            center = cloud.points[ci]
            stored, settled = cloud._balls[key] = _nested_ball_masses(
                m, cloud, center, T, eps, ball(center))
        # a settled ball keeps its last mass past the horizon
        masses = {t: stored[min(t // 2, len(stored)) - 1] for t in range(2, T + 1, 2)}
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

    @property
    def passed(self) -> bool:
        return (self.entropy_margin >= -BOUND_TOL
                and self.weight_margin >= -BOUND_TOL)


def entropy_bound_check(h: float, m: CatMap,
                        claimed_scar_weight: float) -> BoundCheckReport:
    if not 0.0 <= claimed_scar_weight <= 1.0:
        raise ValueError("scar weight must lie in [0, 1]")
    lam = cat_lyapunov(m).lambda_plus
    return BoundCheckReport(entropy_margin=h - lam / 2.0,
                            weight_margin=0.5 - claimed_scar_weight)
