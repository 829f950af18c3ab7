"""Hyperbolic torus automorphisms: Lyapunov data and the Bowen (dynamical)
distance used by the entropy estimators.

Phase space is the unit torus T^2 with coordinates (x, xi) in [0,1)^2; a map
acts linearly through an integer matrix of determinant one.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np


@dataclass(frozen=True)
class CatMap:
    """Hyperbolic element [[a, b], [c, d]] of SL(2, Z) acting on the torus."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if not (all(float(v).is_integer() for v in astuple(self))
                and self.a * self.d - self.b * self.c == 1):
            raise ValueError("matrix must be in SL(2, Z): integers, determinant 1")
        if abs(self.trace) <= 2:
            raise ValueError("matrix must be hyperbolic (|trace| > 2)")

    @property
    def trace(self) -> int:
        return self.a + self.d

    def matrix(self, dtype=np.int64) -> np.ndarray:
        return np.array([[self.a, self.b], [self.c, self.d]], dtype=dtype)

    def inverse_matrix(self, dtype=np.int64) -> np.ndarray:
        return np.array([[self.d, -self.b], [-self.c, self.a]], dtype=dtype)


DEFAULT_MAP = CatMap(2, 1, 3, 2)


@dataclass(frozen=True)
class TorusPoint:
    """A point (x, xi) on the torus, coordinates reduced mod 1."""

    x: float
    xi: float

    def __post_init__(self):
        if not (-math.inf < self.x < math.inf and -math.inf < self.xi < math.inf):
            raise ValueError("torus point coordinates must be finite")
        object.__setattr__(self, "x", self.x % 1.0)
        object.__setattr__(self, "xi", self.xi % 1.0)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.xi])


@dataclass(frozen=True)
class LyapunovData:
    lambda_plus: float


def cat_lyapunov(m: CatMap) -> LyapunovData:
    """Lyapunov exponent log of the leading eigenvalue of M (nats per step)."""
    t = abs(m.trace)
    lam = math.log((t + math.sqrt(t * t - 4)) / 2.0)
    return LyapunovData(lambda_plus=lam)


def reduce_mod1(y: np.ndarray) -> np.ndarray:
    """y mod 1 in place, as y - floor(y), which has the bits of numpy's
    `y % 1.0` for every double at a fraction of its cost: for y >= 0 both
    are exact; for negative non-integer y, numpy rounds fmod(y, 1) + 1 once
    and the subtraction rounds the same exact value once; integers and -0.0
    give +0.0 and inf and NaN give NaN both ways."""
    y -= np.floor(y)
    return y


def torus_distance_array(pts: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Vectorized torus distance from each row of pts to the single point q."""
    d = np.subtract(np.asarray(pts, float), np.asarray(q, float))
    reduce_mod1(np.abs(d, out=d))
    np.minimum(d, 1.0 - d, out=d)
    return np.hypot(d[..., 0], d[..., 1])


def step_rows(rows: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """One step of the float matrix mat on every row of rows (or on one
    point, a length-2 array), mod 1. Each coordinate is two products and one
    sum, computed elementwise: no BLAS call, so a point gets the same bits
    alone, inside any cloud and at any thread count."""
    x, y = rows[..., 0], rows[..., 1]
    out = np.empty_like(rows)
    np.add(mat[0, 0] * x, mat[0, 1] * y, out=out[..., 0])
    np.add(mat[1, 0] * x, mat[1, 1] * y, out=out[..., 1])
    return reduce_mod1(out)


def bowen_distance_cloud(m: CatMap, center, pts: np.ndarray, T: int) -> np.ndarray:
    """Bowen distance from every row of pts to center: the max torus
    distance of the two orbits over the discrete window
    t in [-floor(T/2), ceil(T/2)], the cloud and the center both stepped by
    `step_rows`. The point-by-point reference it is tested against is
    `bowen_distance` in tests/test_catmap.py."""
    c = center.as_array() if isinstance(center, TorusPoint) else np.asarray(center, float)
    pts = np.asarray(pts, float)
    dmax = torus_distance_array(pts, c)
    for mat, steps in ((m.matrix(float), (T + 1) // 2),
                       (m.inverse_matrix(float), T // 2)):
        cur, cc = pts, c
        for _ in range(steps):
            cur, cc = step_rows(cur, mat), step_rows(cc, mat)
            np.maximum(dmax, torus_distance_array(cur, cc), out=dmax)
    return dmax
