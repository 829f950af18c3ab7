
import dataclasses
import inspect
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semiclass_lab.catmap import (DEFAULT_MAP, CatMap, TorusPoint,
                                  bowen_distance_cloud, cat_lyapunov, step_rows,
                                  torus_distance_array)
from semiclass_lab import entropy, experiments
from semiclass_lab.config import ExperimentConfig
from semiclass_lab.entropy import (SampleCloud, _cell_index,
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


@pytest.mark.parametrize("n", [0, -2])
def test_uniform_cloud_rejects_empty(n):
    with pytest.raises(ValueError, match="uniform_cloud"):
        uniform_cloud(n)


@pytest.mark.parametrize("points, n", [([], 10), (ORIGIN, 0)])
def test_atom_cloud_rejects_empty(points, n):
    with pytest.raises(ValueError, match="atom_cloud"):
        atom_cloud(points, n)


def test_cloud_is_immutable():
    pts, w = np.full((4, 2), 0.5), np.full(4, 0.25)
    cloud = SampleCloud(points=pts, weights=w)
    for name in ("points", "weights"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cloud, name, getattr(cloud, name).copy())
        with pytest.raises(ValueError, match="read-only"):
            getattr(cloud, name)[0] = 0.1
    pts[0], w[:2] = 0.1, [0.4, 0.1]  # the cloud holds copies of its inputs
    assert (cloud.points == 0.5).all() and (cloud.weights == 0.25).all()


def test_cloud_equals_only_itself():
    """Equality is identity, as fits a cloud that carries its own memo: two
    clouds of equal content compare unequal, and a cloud can key a dict."""
    a, b = uniform_cloud(200, 1), uniform_cloud(200, 1)
    assert (a == b) is False and (a != b) is True
    assert a == a
    assert {a: 1, b: 2}[a] == 1


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
    mix = mixture_cloud(alpha, a, u)
    perm = rng.permutation(len(mix))  # copies scattered over the cloud
    scattered = SampleCloud(points=mix.points[perm], weights=mix.weights[perm])
    return {"uniform": u, "atom": a, "mixture": mix, "scattered": scattered}[kind]


@given(kind=st.sampled_from(["uniform", "atom", "mixture", "scattered"]),
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
@example(kind="uniform", n=200, seed=1, alpha=0.5, center=7, T=8,
         eps=1e-6, m=CatMap(3, 2, 4, 3))  # the same, on a second map
@example(kind="mixture", n=300, seed=2, alpha=0.5, center=0, T=8,
         eps=0.1, m=DEFAULT_MAP)  # 7 x 7 of 29 x 29 cells, on a point with
                                  # 100 adjacent copies
@example(kind="scattered", n=300, seed=2, alpha=0.5, center=0, T=8,
         eps=0.1, m=DEFAULT_MAP)  # one of those points, its 100 copies
                                  # scattered over the cloud
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
    values = _assert_masses_equal_full_scans(m, cloud, center, T, eps, ball)
    assert all(a >= b for a, b in zip(values, values[1:]))


def _assert_masses_equal_full_scans(m, cloud, center, T, eps, ball):
    """One pass of `_nested_ball_masses`: it stops settled at or before
    t = 2T, or unsettled at t = 2T, and each of its masses, and a settled
    pass's last mass read at every later t up to 2T, equals a full scan.
    Returns the masses for t = 2, 4, ..., 2T, as read."""
    masses, settled = _nested_ball_masses(m, cloud, center, T, eps, ball(center))
    assert len(masses) == T or (settled and 0 < len(masses) < T)
    masses += masses[-1:] * (T - len(masses))
    for t, mass in zip(range(2, 2 * T + 1, 2), masses):
        d = bowen_distance_cloud(m, center, cloud.points, t)
        assert mass == float(cloud.weights[d < eps].sum())
    return masses


def test_nested_ball_masses_ties_at_the_edge():
    # dyadic grid points step exactly, so many distances equal eps exactly
    g = np.arange(16) / 16
    pts = np.stack(np.meshgrid(g, g), -1).reshape(-1, 2)
    cloud = SampleCloud(points=pts, weights=np.full(len(pts), 1 / len(pts)))
    for eps in np.unique(np.hypot(*pts[:40].T))[1:]:
        _assert_masses_equal_full_scans(M, cloud, pts[17], 6, eps,
                                        _cell_index(pts, eps))


# p, and the step on which p + one ulp in x rounds onto p's step
@pytest.mark.parametrize("p, meets", [((0.8132702392002724, 0.9127555772777217), 0),
                                      ((0.8105268303172452, 0.13676405154258153), 1)])
def test_ball_meeting_its_center_one_way_is_not_settled(p, meets):
    """q lies one ulp from the center p, and its forward (or backward) step
    rounds onto p's while its steps the other way stay apart; the ball
    settles only when q has left it that way, some 20 steps on."""
    p = np.array(p)
    q = np.array([np.nextafter(p[0], 1), p[1]])
    mats = [M.matrix(float), M.inverse_matrix(float)]
    assert [np.array_equal(step_rows(p, a), step_rows(q, a)) for a in mats] \
        == [meets == 0, meets == 1]
    pts = np.concatenate([[p, q], uniform_cloud(98, seed=5).points])
    cloud = SampleCloud(points=pts, weights=np.full(100, 0.01))
    masses = _assert_masses_equal_full_scans(M, cloud, p, 40, 1e-12,
                                             _cell_index(pts, 1e-12))
    assert masses[0] == 0.02 and masses[-1] == 0.01


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
        _assert_masses_equal_full_scans(M, cloud, c, 4, eps, ball)


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


def test_ball_steps_each_run_of_adjacent_copies_once(monkeypatch):
    """A ball steps the atom's 400 adjacent copies as one row, next to the
    uniform points it holds, and then its center; the T = 2 pass runs on to
    t = 4 with the runs still live. A multi-point atom lays each point's
    copies side by side, the first n % len(points) points holding one
    more."""
    stepped = []

    def counting_step_rows(rows, mat):
        stepped.append(rows.shape)
        return step_rows(rows, mat)

    monkeypatch.setattr(entropy, "step_rows", counting_step_rows)
    cloud = mixture_cloud(0.5, atom_cloud(ORIGIN, 400), uniform_cloud(400, seed=4))
    center = cloud.points[0]
    ball = _cell_index(cloud.points, 0.2)(center)
    uniform_in_ball = np.count_nonzero(ball >= 400)
    assert uniform_in_ball > 0 and np.array_equal(ball[:400], np.arange(400))
    masses, _ = _nested_ball_masses(M, cloud, center, 2, 0.2, ball)
    live_at_2 = np.count_nonzero(
        bowen_distance_cloud(M, center, cloud.points[400:], 2) < 0.2)
    assert live_at_2 > 0 and len(masses) == 2
    # the ball, then the center; forward, then backward; at t = 2, then 4
    assert stepped == ([(1 + uniform_in_ball, 2), (2,)] * 2
                       + [(1 + live_at_2, 2), (2,)] * 2)
    orbit = [TorusPoint(0.1, 0.2), TorusPoint(0.3, 0.4), TorusPoint(0.5, 0.6)]
    pts = np.array([[p.x, p.xi] for p in orbit])
    assert np.array_equal(atom_cloud(orbit, 10).points,
                          np.repeat(pts, [4, 3, 3], axis=0))


def test_lone_row_steps_as_in_whole_cloud():
    pts = uniform_cloud(2000, seed=6).points
    for mat in (M.matrix(float), M.inverse_matrix(float),
                CatMap(3, 2, 4, 3).matrix(float)):
        whole = step_rows(pts, mat)
        for i in range(len(pts)):
            assert np.array_equal(step_rows(pts[i:i + 1], mat), whole[i:i + 1])
            assert np.array_equal(step_rows(pts[i], mat), whole[i])


def test_entropy_sweep_holds_one_large_cloud_at_a_time(tmp_path, monkeypatch):
    """When each of the suite's twelve estimates starts, no cloud of 1e5
    points or more is alive other than the one it estimates."""
    built = []

    def recorded(make):
        def build(*args, **kwargs):
            cloud = make(*args, **kwargs)
            built.append(weakref.ref(cloud))
            return cloud
        return build

    for name in ("uniform_cloud", "atom_cloud", "mixture_cloud"):
        monkeypatch.setattr(experiments, name, recorded(getattr(experiments, name)))
    others = []

    def counting_estimate(m, cloud, *args, **kwargs):
        live = [ref() for ref in built]
        others.append(sum(c is not None and c is not cloud and len(c.points) >= 10**5
                          for c in live))
        del live  # the count keeps no cloud alive through the estimate
        return ks_entropy_estimate(m, cloud, *args, **kwargs)

    monkeypatch.setattr(experiments, "ks_entropy_estimate", counting_estimate)
    experiments.run_experiment(ExperimentConfig(experiment="entropy-sweep",
                                                out_dir=str(tmp_path)))
    assert others == [0] * 12


TABLE = [(T, eps) for T in (4, 6, 8) for eps in (0.05, 0.1, 0.15)]


def test_entropy_table_steps_each_ball_once(monkeypatch):
    """The suite's 3 x 3 (T, eps) table on one cloud, 10 centers, one seed:
    one pass per (eps, center) and one cell index per eps, where a fresh
    start per estimate makes 90 passes and 9 indexes."""
    calls = Counter()

    def counted(name):
        function = getattr(entropy, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return call

    for name in ("_nested_ball_masses", "_cell_index"):
        monkeypatch.setattr(entropy, name, counted(name))
    cloud = uniform_cloud(200_000, seed=0)
    for T, eps in TABLE:
        ks_entropy_estimate(M, cloud, T, eps, 10, seed=0)
    assert calls == {"_nested_ball_masses": 30, "_cell_index": 3}


def _fresh_copy(cloud):
    return SampleCloud(points=cloud.points, weights=cloud.weights)


def test_table_on_one_cloud_equals_fresh_estimates():
    """The table in ascending, then descending T on one cloud: each
    estimate equals the same call on a copy of the cloud with no memo."""
    cloud = uniform_cloud(200_000, seed=1)
    for T, eps in TABLE + TABLE[::-1]:
        assert (ks_entropy_estimate(M, cloud, T, eps, 10, seed=1)
                == ks_entropy_estimate(M, _fresh_copy(cloud), T, eps, 10, seed=1))


def test_unsettled_pass_steps_again_for_a_larger_T():
    """Each point has four twins about 1e-9 away, which stay in its ball
    for some 40 steps, so every T = 4 pass stops unsettled at t = 8; at
    T = 40 each ball is stepped again from t = 0, and settles."""
    rng = np.random.default_rng(3)
    pts = np.repeat(rng.random((2_000, 2)), 5, axis=0)
    pts += rng.normal(scale=1e-9, size=pts.shape)
    cloud = SampleCloud(points=pts, weights=np.full(len(pts), 1 / len(pts)))
    short = ks_entropy_estimate(M, cloud, 4, 0.1, 10, seed=0)
    assert not any(settled for _, settled in cloud._balls.values())
    assert short == ks_entropy_estimate(M, _fresh_copy(cloud), 4, 0.1, 10, seed=0)
    long = ks_entropy_estimate(M, cloud, 40, 0.1, 10, seed=0)
    assert all(settled for _, settled in cloud._balls.values())
    assert long == ks_entropy_estimate(M, _fresh_copy(cloud), 40, 0.1, 10, seed=0)
    assert long.value < short.value


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
