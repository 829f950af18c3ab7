
import inspect

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semiclass_lab.catmap import (DEFAULT_MAP, CatMap, TorusPoint,
                                  bowen_distance_cloud, cat_lyapunov, step_rows,
                                  torus_distance_array)
from semiclass_lab import entropy
from semiclass_lab.entropy import (SampleCloud, _cell_index, _distinct_rows,
                                   _nested_ball_masses, atom_cloud,
                                   entropy_bound_check, ks_entropy_estimate,
                                   mixture_cloud, uniform_cloud)
from semiclass_lab.errors import UnderResolved

M = DEFAULT_MAP
LAM = cat_lyapunov(M).lambda_plus
ORIGIN = [TorusPoint(0.0, 0.0)]


def test_cloud_validation():
    with pytest.raises(ValueError):
        SampleCloud(points=np.zeros((4, 2)), weights=np.full(4, 0.3))
    with pytest.raises(ValueError):
        SampleCloud(points=np.zeros((4, 3)), weights=np.full(4, 0.25))
    with pytest.raises(ValueError):
        SampleCloud(points=np.zeros((2, 2)), weights=np.array([1.5, -0.5]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_cloud_rejects_non_finite_points(bad):
    with pytest.raises(ValueError, match="finite"):
        SampleCloud(points=[[bad, 0.2], [0.3, 0.1]], weights=[0.5, 0.5])
    with pytest.raises(ValueError, match="finite"):
        SampleCloud(points=[[0.4, 0.2], [0.3, bad]], weights=[0.5, 0.5])


@pytest.mark.parametrize("points, n", [([], 10), (ORIGIN, 0)])
def test_atom_cloud_rejects_empty(points, n):
    with pytest.raises(ValueError, match="atom_cloud"):
        atom_cloud(points, n)


def test_cloud_constructors():
    u = uniform_cloud(500, seed=3)
    assert len(u) == 500 and u.weights.sum() == pytest.approx(1.0)
    a = atom_cloud(ORIGIN, 50)
    assert np.allclose(a.points, 0.0)
    mix = mixture_cloud(0.25, a, u)
    assert len(mix) == 550
    assert mix.weights[:50].sum() == pytest.approx(0.25)


def _test_cloud(kind, n, seed, alpha):
    u = uniform_cloud(n, seed)
    rng = np.random.default_rng(seed)
    orbit = [TorusPoint(*p) for p in rng.random((1 + seed % 3, 2))]
    a = atom_cloud(orbit, n)  # every orbit point repeated
    return {"uniform": u, "atom": a, "mixture": mixture_cloud(alpha, a, u)}[kind]


@given(kind=st.sampled_from(["uniform", "atom", "mixture"]),
       n=st.integers(2, 300), seed=st.integers(0, 2**16),
       alpha=st.floats(0.05, 0.95),
       center=st.one_of(st.integers(0, 10**6),
                        st.tuples(st.floats(0, 1, exclude_max=True),
                                  st.floats(0, 1, exclude_max=True))),
       T=st.integers(0, 9),
       eps=st.one_of(st.floats(1e-9, 1e-3), st.floats(1e-3, 0.75)),
       m=st.sampled_from([DEFAULT_MAP, CatMap(2, 1, 1, 1), CatMap(3, 2, 4, 3)]))
@example(kind="uniform", n=200, seed=1, alpha=0.5, center=(0.3, 0.6), T=5,
         eps=1e-6, m=DEFAULT_MAP)  # empty before t = 2
@example(kind="uniform", n=200, seed=1, alpha=0.5, center=7, T=8,
         eps=1e-6, m=DEFAULT_MAP)  # only the center survives
@example(kind="mixture", n=300, seed=2, alpha=0.5, center=0, T=8,
         eps=0.1, m=DEFAULT_MAP)  # 7 x 7 of 29 x 29 cells, on a point with
                                  # 100 copies, none adjacent to another
@example(kind="mixture", n=300, seed=2, alpha=0.5, center=0, T=8,
         eps=0.3, m=DEFAULT_MAP)  # 7 x 7 of 9 x 9 cells, the same point
@example(kind="mixture", n=300, seed=3, alpha=0.5, center=0, T=8,
         eps=0.3, m=DEFAULT_MAP)  # a point with 300 adjacent copies
@example(kind="mixture", n=300, seed=2, alpha=0.5, center=0, T=8,
         eps=0.45, m=DEFAULT_MAP)  # all 5 x 5 cells, each read once
@settings(max_examples=200, deadline=None)
def test_nested_ball_masses_equal_full_scans(kind, n, seed, alpha, center, T,
                                             eps, m):
    cloud = _test_cloud(kind, n, seed, alpha)
    if isinstance(center, int):
        center = cloud.points[center % len(cloud)]
    center = np.asarray(center, float)
    ball = _cell_index(cloud.points, eps)  # as ks_entropy_estimate builds it
    masses = _nested_ball_masses(m, cloud, center, T, eps, ball(center))
    assert list(masses) == list(range(2, T + 1, 2))
    for t, mass in masses.items():
        d = bowen_distance_cloud(m, center, cloud.points, t)
        assert mass == float(cloud.weights[d < eps].sum())
    values = list(masses.values())
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_nested_ball_masses_ties_at_the_edge():
    # dyadic grid points step exactly, so many distances equal eps exactly
    g = np.arange(16) / 16
    pts = np.stack(np.meshgrid(g, g), -1).reshape(-1, 2)
    cloud = SampleCloud(points=pts, weights=np.full(len(pts), 1 / len(pts)))
    for eps in np.unique(np.hypot(*pts[:40].T))[1:]:
        ball = _cell_index(pts, eps)
        masses = _nested_ball_masses(M, cloud, pts[17], 6, eps, ball(pts[17]))
        for t, mass in masses.items():
            d = bowen_distance_cloud(M, pts[17], pts, t)
            assert mass == float(cloud.weights[d < eps].sum())


def _boundary_points(eps):
    """Coordinates on every multiple of 1/n (the cell boundaries of
    `_cell_index`, n = int(3/eps) - 1 but at least 1) and of eps (points eps
    apart), one ulp to either side of each, and the seam pair 0 and
    1 - 2**-53, which lie 2**-53 apart on the torus; each paired with 0,
    0.5 and 1 - 2**-53 as the other coordinate."""
    n = max(1, int(3 / eps) - 1)
    k = np.concatenate([np.arange(n + 1) / n, np.arange(int(1 / eps) + 2) * eps])
    v = np.unique(np.concatenate([k, np.nextafter(k, -1), np.nextafter(k, 2),
                                  [0.0, 1 - 2.0**-53]]).clip(0, 1 - 2.0**-53))
    w = np.array([0.0, 0.5, 1 - 2.0**-53])
    return np.concatenate([np.stack(np.meshgrid(v, w), -1).reshape(-1, 2),
                           np.stack(np.meshgrid(w, v), -1).reshape(-1, 2)])


# 0.45, 0.6 and 0.75 leave 5, 4 and 3 cells per axis, so the 7 x 7
# neighbourhood wraps onto cells it already holds
@pytest.mark.parametrize("eps", [0.05, 0.1, 0.15, 0.25, 0.3, 0.45, 0.6, 0.75])
def test_cell_index_on_cell_boundaries_and_the_seam(eps):
    pts = _boundary_points(eps)
    ball = _cell_index(pts, eps)
    for c in pts:
        assert np.array_equal(ball(c),
                              np.flatnonzero(torus_distance_array(pts, c) < eps))
    cloud = SampleCloud(points=pts, weights=np.full(len(pts), 1 / len(pts)))
    for c in pts[::7]:
        masses = _nested_ball_masses(M, cloud, c, 4, eps, ball(c))
        for t, mass in masses.items():
            d = bowen_distance_cloud(M, c, pts, t)
            assert mass == float(cloud.weights[d < eps].sum())


def _five_by_five_cell_index():
    """`_cell_index` with its neighbourhood narrowed to 5 x 5 cells, on the
    same cells a third of eps wide."""
    source = inspect.getsource(entropy._cell_index)
    assert source.count("np.arange(-3, 4)") == 1
    namespace = dict(vars(entropy))
    exec(source.replace("np.arange(-3, 4)", "np.arange(-2, 3)"), namespace)
    return namespace["_cell_index"]


@pytest.mark.parametrize("eps", [0.05, 0.15, 0.3])
def test_cell_boundary_points_catch_a_narrow_neighbourhood(eps):
    # a point within eps can lie three cells from the center's; the boundary
    # points hold such pairs, so a 5 x 5 read must miss one of them
    pts = _boundary_points(eps)
    narrow = _five_by_five_cell_index()(pts, eps)
    assert any(len(narrow(c)) < np.count_nonzero(torus_distance_array(pts, c) < eps)
               for c in pts)


def test_distinct_rows_group_copies_only():
    rng = np.random.default_rng(4)
    base = rng.random((6, 2))
    base[1, 0] = base[0, 0]  # two points that share x
    pts = base[rng.integers(0, 6, 500)]
    pts[100:140] = base[2]  # a run of adjacent copies
    rows, which = _distinct_rows(pts.view(complex).ravel())
    assert np.array_equal(rows[which], pts)  # a group holds copies of one point
    for k in range(2, 6):  # a point whose x is its own forms one group
        assert len(np.unique(which[(pts == base[k]).all(axis=1)])) == 1


def test_lone_row_steps_as_in_whole_cloud():
    pts = uniform_cloud(2000, seed=6).points
    for mat in (M.matrix().astype(float), M.inverse_matrix().astype(float)):
        whole = step_rows(pts, mat)
        assert np.array_equal(whole, (pts @ mat.T) % 1.0)
        for i in range(len(pts)):
            assert np.array_equal(step_rows(pts[i:i + 1], mat), whole[i:i + 1])


def test_ks_estimate_permutation_invariant():
    cloud = uniform_cloud(30_000, seed=2)
    perm = np.random.default_rng(9).permutation(len(cloud))
    shuffled = SampleCloud(points=cloud.points[perm], weights=cloud.weights[perm])
    a = ks_entropy_estimate(M, cloud, 4, 0.15, 20, seed=5)
    b = ks_entropy_estimate(M, shuffled, 4, 0.15, 20, seed=5)
    assert b.value == pytest.approx(a.value, rel=0.2)


def test_ks_estimate_uniform_near_lyapunov():
    cloud = uniform_cloud(200_000, seed=0)
    est = ks_entropy_estimate(M, cloud, 8, 0.1, 40, seed=0)
    assert abs(est.value - LAM) / LAM < 0.2
    assert est.n_centers_used >= 20


# estimates on a half-atom cloud at eps 0.1 and 0.3 (7 x 7 of 29 x 29 and of
# 9 x 9 cells; at 0.3 about 70k distinct rows survive t = 0 and are stepped
# as one product)
THREADED_ESTIMATES = """
from semiclass_lab import (DEFAULT_MAP, TorusPoint, atom_cloud,
                           ks_entropy_estimate, mixture_cloud, uniform_cloud)
mix = mixture_cloud(0.5, atom_cloud([TorusPoint(0.0, 0.0)], 50_000),
                    uniform_cloud(250_000, seed=1))
for eps in (0.1, 0.3):
    print(repr(ks_entropy_estimate(DEFAULT_MAP, mix, 8, eps, 20, seed=0)))
"""


def test_ks_estimate_same_at_one_and_two_blas_threads(at_one_and_two_threads):
    one, two = at_one_and_two_threads(THREADED_ESTIMATES)
    assert one.count("EntropyEstimate(") == 2
    assert one == two  # repr round-trips every float field


def test_ks_estimate_atom_is_zero():
    cloud = atom_cloud(ORIGIN, 1_000)
    est = ks_entropy_estimate(M, cloud, 8, 0.1, 20, seed=0)
    assert est.value == pytest.approx(0.0, abs=1e-12)


def test_ks_estimate_under_resolved():
    # a tiny cloud cannot populate Bowen balls at depth 12
    cloud = uniform_cloud(150, seed=4)
    with pytest.raises(UnderResolved):
        ks_entropy_estimate(M, cloud, 12, 0.02, 20, seed=0)


def test_ks_estimate_validation():
    cloud = uniform_cloud(1_000)
    with pytest.raises(ValueError):
        ks_entropy_estimate(M, cloud, 8, 0.1, 5)
    with pytest.raises(ValueError):
        ks_entropy_estimate(M, uniform_cloud(50), 8, 0.1, 20)
    with pytest.raises(ValueError):
        ks_entropy_estimate(M, cloud, 3, 0.1, 20)
    with pytest.raises(ValueError):
        ks_entropy_estimate(M, cloud, 8, 0.0, 20)


@pytest.mark.parametrize("alpha,ok", [(0.0, True), (0.25, True),
                                      (0.5, True), (0.75, False)])
def test_entropy_bound_check(alpha, ok):
    h = (1 - alpha) * LAM
    rep = entropy_bound_check(h, M, alpha)
    assert rep.passed is ok
    assert rep.entropy_margin == pytest.approx(h - LAM / 2, abs=1e-12)
    assert rep.weight_margin == pytest.approx(0.5 - alpha, abs=1e-12)


def test_entropy_bound_check_validation():
    with pytest.raises(ValueError):
        entropy_bound_check(0.5, M, 1.2)
