import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiclass_lab.catmap import (CatMap, DEFAULT_MAP, TorusPoint,
                                  bowen_distance_cloud, cat_lyapunov,
                                  reduce_mod1, torus_distance_array)

M = DEFAULT_MAP


def _as_array(p):
    return p.as_array() if isinstance(p, TorusPoint) else np.asarray(p, float)


def torus_distance(p, q) -> float:
    """Flat quotient metric: min over integer translates of Euclidean distance."""
    d = np.abs(_as_array(p) - _as_array(q)) % 1.0
    d = np.minimum(d, 1.0 - d)
    return float(np.hypot(*d))


def bowen_distance(m, p, q, T: int) -> float:
    """Reference Bowen distance, one pair of points at a time: the max torus
    distance of the two orbits over the discrete window
    t in [-floor(T/2), ceil(T/2)]."""
    p, q = _as_array(p), _as_array(q)
    best = torus_distance(p, q)
    mat = m.matrix().astype(float)
    inv = m.inverse_matrix().astype(float)
    pf, qf = p.copy(), q.copy()
    for _ in range((T + 1) // 2):
        pf, qf = (mat @ pf) % 1.0, (mat @ qf) % 1.0
        best = max(best, torus_distance(pf, qf))
    pb, qb = p.copy(), q.copy()
    for _ in range(T // 2):
        pb, qb = (inv @ pb) % 1.0, (inv @ qb) % 1.0
        best = max(best, torus_distance(pb, qb))
    return best


def _step(pts):
    """One step of M on an (n, 2) array of torus points, through the integer
    matrix the Bowen distances and observable pullbacks iterate."""
    return (np.asarray(pts, float) @ M.matrix().T) % 1.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_torus_point_rejects_non_finite(bad):
    """inf % 1.0 is NaN, so a non-finite coordinate is refused, not reduced."""
    with pytest.raises(ValueError, match="finite"):
        TorusPoint(bad, 0.0)
    with pytest.raises(ValueError, match="finite"):
        TorusPoint(0.25, bad)


def test_floor_reduction_has_the_bits_of_mod_one():
    rng = np.random.default_rng(12)
    k = np.arange(-6.0, 7.0)
    x = np.concatenate([
        rng.uniform(-5, 5, 200_000),  # what step_rows reduces, both ways
        -np.logspace(-320, -1, 400), [-1e-30, -2.0**-54, -5e-324],
        k, np.nextafter(k, -np.inf), np.nextafter(k, np.inf),
        [0.0, -0.0, np.inf, -np.inf, np.nan]])
    with np.errstate(invalid="ignore"):
        want = x % 1.0
        got = reduce_mod1(x.copy())
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert got[np.flatnonzero(x == -1e-30)] == 1.0  # rounds up, as % does


def test_torus_distance_array_equals_the_mod_one_formula():
    rng = np.random.default_rng(13)
    pts = rng.uniform(-3, 5, (100_000, 2))  # unreduced on purpose
    for q in rng.uniform(-3, 5, (5, 2)):
        d = np.abs(pts - q) % 1.0
        d = np.minimum(d, 1.0 - d)
        former = np.hypot(d[:, 0], d[:, 1])
        assert np.array_equal(torus_distance_array(pts, q).view(np.int64),
                              former.view(np.int64))


def test_rejects_non_unimodular():
    with pytest.raises(ValueError):
        CatMap(2, 1, 1, 2)


def test_rejects_non_hyperbolic():
    with pytest.raises(ValueError):
        CatMap(1, 1, 0, 1)


def test_fixed_points_of_default_map():
    fixed = [(0.0, 0.0), (0.5, 0.5)]
    assert np.array_equal(_step(fixed), fixed)


def test_direct_arithmetic_example():
    assert np.array_equal(_step([(0.25, 0.0)]), [(0.5, 0.75)])


def test_lyapunov_closed_forms():
    assert math.isclose(cat_lyapunov(CatMap(2, 1, 1, 1)).lambda_plus,
                        math.log((3 + math.sqrt(5)) / 2), rel_tol=1e-12)
    assert math.isclose(cat_lyapunov(M).lambda_plus,
                        math.log(2 + math.sqrt(3)), rel_tol=1e-12)
    # equal traces give equal exponents
    assert cat_lyapunov(CatMap(1, 1, 1, 2)).lambda_plus == \
        cat_lyapunov(CatMap(2, 1, 1, 1)).lambda_plus


@given(st.integers(min_value=1, max_value=64))
@settings(max_examples=30, deadline=None)
def test_bijection_on_rational_lattice(q):
    """The map permutes the (1/q) lattice."""
    pts = np.array([(i / q, j / q) for i in range(q) for j in range(q)])
    out = _step(pts)
    keys = {(round(x * q) % q, round(y * q) % q) for x, y in out}
    assert len(keys) == q * q


def test_measure_preservation_chi_squared():
    import scipy.stats
    rng = np.random.default_rng(1)
    pts = rng.random((1_000_000, 2))
    out = _step(_step(_step(pts)))
    counts, _, _ = np.histogram2d(out[:, 0], out[:, 1], bins=16,
                                  range=[[0, 1], [0, 1]])
    _, p = scipy.stats.chisquare(counts.ravel())
    assert p > 0.001


def test_bowen_distance_basics():
    p = TorusPoint(0.3, 0.7)
    assert bowen_distance(M, p, p, 5) == 0.0
    q = TorusPoint(0.31, 0.69)
    assert bowen_distance(M, p, q, 0) == pytest.approx(torus_distance(p, q))


@given(st.tuples(st.integers(0, 7), st.integers(0, 7)),
       st.tuples(st.integers(0, 7), st.integers(0, 7)),
       st.tuples(st.integers(0, 7), st.integers(0, 7)),
       st.integers(0, 6))
@settings(max_examples=60, deadline=None)
def test_bowen_metric_properties(a, b, c, T):
    pa = TorusPoint(a[0] / 8, a[1] / 8)
    pb = TorusPoint(b[0] / 8, b[1] / 8)
    pc = TorusPoint(c[0] / 8, c[1] / 8)
    dab = bowen_distance(M, pa, pb, T)
    assert dab == pytest.approx(bowen_distance(M, pb, pa, T), abs=1e-12)
    assert dab <= bowen_distance(M, pa, pc, T) + bowen_distance(M, pc, pb, T) + 1e-12
    assert dab <= bowen_distance(M, pa, pb, T + 1) + 1e-12


def test_bowen_stable_manifold_growth():
    """Points separated along the unstable direction diverge like lambda^t."""
    lam = math.exp(cat_lyapunov(M).lambda_plus)
    # unstable eigenvector of [[2,1],[3,2]]
    v = np.array([1.0, math.sqrt(3.0)])
    v /= np.linalg.norm(v)
    d0 = 1e-4
    p = TorusPoint(0.0, 0.0)
    q = TorusPoint(*(d0 * v))
    for T in (2, 4):
        expect = d0 * lam ** ((T + 1) // 2)
        got = bowen_distance(M, p, q, T)
        assert got == pytest.approx(expect, rel=1e-6)


def test_bowen_cloud_matches_scalar():
    rng = np.random.default_rng(0)
    pts = rng.random((50, 2))
    c = TorusPoint(0.2, 0.8)
    dm = bowen_distance_cloud(M, c, pts, 6)
    for i in range(0, 50, 7):
        assert dm[i] == pytest.approx(
            bowen_distance(M, c, TorusPoint(*pts[i]), 6), abs=1e-12)
