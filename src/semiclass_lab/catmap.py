"""Hyperbolic torus automorphisms: orbits, Lyapunov data, periodic points,
and the Bowen (dynamical) distance used by the entropy estimators.

Phase space is the unit torus T^2 with coordinates (x, xi) in [0,1)^2; a map
acts linearly through an integer matrix of determinant one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError


@dataclass(frozen=True)
class CatMap:
    """Hyperbolic element [[a, b], [c, d]] of SL(2, Z) acting on the torus."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError("matrix must be unimodular (determinant 1)")
        if abs(self.a + self.d) <= 2:
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
        object.__setattr__(self, "x", self.x % 1.0)
        object.__setattr__(self, "xi", self.xi % 1.0)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.xi])


@dataclass(frozen=True)
class LyapunovData:
    lambda_plus: float


def cat_apply(m: CatMap, p: TorusPoint) -> TorusPoint:
    """One step of the toral automorphism: (x, xi) -> M (x, xi) mod 1."""
    return TorusPoint(m.a * p.x + m.b * p.xi, m.c * p.x + m.d * p.xi)


def cat_apply_array(m: CatMap, pts: np.ndarray, power: int = 1) -> np.ndarray:
    """Apply M^power to an (n, 2) array of torus points, mod 1.

    power may be negative; the map is iterated one step at a time with a
    reduction mod 1 after each step, matching the dynamical orbit.
    """
    mat = (m.matrix() if power >= 0 else m.inverse_matrix()).astype(float)
    out = np.asarray(pts, float) % 1.0
    for _ in range(abs(power)):
        out = (out @ mat.T) % 1.0
    return out


def cat_lyapunov(m: CatMap) -> LyapunovData:
    """Lyapunov exponent log of the leading eigenvalue of M (nats per step)."""
    t = abs(m.trace)
    lam = math.log((t + math.sqrt(t * t - 4)) / 2.0)
    return LyapunovData(lambda_plus=lam)


def torus_distance(p, q) -> float:
    """Flat quotient metric: min over integer translates of Euclidean distance."""
    p = p.as_array() if isinstance(p, TorusPoint) else np.asarray(p, float)
    q = q.as_array() if isinstance(q, TorusPoint) else np.asarray(q, float)
    d = np.abs(p - q) % 1.0
    d = np.minimum(d, 1.0 - d)
    return float(np.hypot(d[..., 0], d[..., 1])) if d.ndim else float(np.hypot(*d))


def torus_distance_array(pts: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Vectorized torus distance from each row of pts to the single point q."""
    d = np.abs(np.asarray(pts, float) - np.asarray(q, float)) % 1.0
    d = np.minimum(d, 1.0 - d)
    return np.hypot(d[..., 0], d[..., 1])


def _diagonalize_integer_2x2(A):
    """Reduce an integer 2x2 matrix to U A V = diag(d1, d2) by euclidean
    row/column operations; returns (d1, d2, V) with d1, d2 > 0.

    Only V is needed: the solutions of A v = 0 mod 1 are V (k1/d1, k2/d2).
    """
    A = [[int(A[0][0]), int(A[0][1])], [int(A[1][0]), int(A[1][1])]]
    V = [[1, 0], [0, 1]]

    def col_op(k):  # col 1 += k * col 0
        for m in (A, V):
            m[0][1] += k * m[0][0]
            m[1][1] += k * m[1][0]

    def swap_cols():
        for m in (A, V):
            m[0][0], m[0][1] = m[0][1], m[0][0]
            m[1][0], m[1][1] = m[1][1], m[1][0]

    while A[1][0] != 0 or A[0][1] != 0:
        if A[1][0] != 0:
            if A[0][0] == 0:
                A[0], A[1] = A[1], A[0]
                continue
            A[1] = [A[1][j] - (A[1][0] // A[0][0]) * A[0][j] for j in range(2)]
            if A[1][0] != 0:
                A[0], A[1] = A[1], A[0]
        else:
            if A[0][0] == 0:
                swap_cols()
                continue
            k = -(A[0][1] // A[0][0])
            col_op(k)
            if A[0][1] != 0:
                swap_cols()
    return abs(A[0][0]), abs(A[1][1]), V


def periodic_points(m: CatMap, period: int, max_count: int = 2_000_000):
    """All rational fixed points of M^period mod 1, grouped into M-orbits.

    The lattice of solutions of (M^p - I) v = 0 mod 1 is enumerated through
    the Smith normal form, so the search is exact. The total count equals
    |det(M^p - I)|.
    """
    if period < 1:
        raise ValueError("period must be >= 1")
    Mp = np.linalg.matrix_power(m.matrix(object), period)
    A = Mp - np.eye(2, dtype=object)
    det = abs(int(A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]))
    if det > max_count:
        raise ResourceLimitError(
            f"period {period} yields {det} periodic points (limit {max_count})"
        )
    d1, d2, V = _diagonalize_integer_2x2(A.tolist())
    q = det  # common denominator
    seen = set()
    orbits = []
    for k1 in range(d1):
        for k2 in range(d2):
            # v = V (k1/d1, k2/d2), expressed over denominator q
            nx = (V[0][0] * k1 * (q // d1) + V[0][1] * k2 * (q // d2)) % q
            ny = (V[1][0] * k1 * (q // d1) + V[1][1] * k2 * (q // d2)) % q
            if (nx, ny) in seen:
                continue
            orbit_frac = []
            cx, cy = nx, ny
            for _ in range(period):
                if (cx, cy) in seen:
                    break
                seen.add((cx, cy))
                orbit_frac.append((cx, cy))
                cx, cy = (m.a * cx + m.b * cy) % q, (m.c * cx + m.d * cy) % q
            if orbit_frac:
                orbits.append([TorusPoint(ox / q, oy / q) for ox, oy in orbit_frac])
    assert len(seen) == det, (len(seen), det)
    return orbits


def bowen_distance(m: CatMap, p, q, T: int) -> float:
    """Dynamical distance: max torus distance of the two orbits over the
    discrete window t in [-floor(T/2), ceil(T/2)]."""
    if T < 0:
        raise ValueError("T must be >= 0")
    p = p.as_array() if isinstance(p, TorusPoint) else np.asarray(p, float)
    q = q.as_array() if isinstance(q, TorusPoint) else np.asarray(q, float)
    back, fwd = T // 2, (T + 1) // 2
    best = torus_distance(p, q)
    mat = m.matrix().astype(float)
    inv = m.inverse_matrix().astype(float)
    pf, qf = p.copy(), q.copy()
    for _ in range(fwd):
        pf, qf = (mat @ pf) % 1.0, (mat @ qf) % 1.0
        best = max(best, torus_distance(pf, qf))
    pb, qb = p.copy(), q.copy()
    for _ in range(back):
        pb, qb = (inv @ pb) % 1.0, (inv @ qb) % 1.0
        best = max(best, torus_distance(pb, qb))
    return best


def bowen_distance_cloud(m: CatMap, center, pts: np.ndarray, T: int) -> np.ndarray:
    """Bowen distance from every row of pts to center, vectorized.

    Equivalent to [bowen_distance(m, center, p, T) for p in pts] but iterates
    the whole cloud with matrix products.
    """
    c = center.as_array() if isinstance(center, TorusPoint) else np.asarray(center, float)
    pts = np.asarray(pts, float)
    back, fwd = T // 2, (T + 1) // 2
    mat = m.matrix().astype(float)
    inv = m.inverse_matrix().astype(float)
    dmax = torus_distance_array(pts, c)
    cur, cc = pts, c
    for _ in range(fwd):
        cur = (cur @ mat.T) % 1.0
        cc = (mat @ cc) % 1.0
        np.maximum(dmax, torus_distance_array(cur, cc), out=dmax)
    cur, cc = pts, c
    for _ in range(back):
        cur = (cur @ inv.T) % 1.0
        cc = (inv @ cc) % 1.0
        np.maximum(dmax, torus_distance_array(cur, cc), out=dmax)
    return dmax
