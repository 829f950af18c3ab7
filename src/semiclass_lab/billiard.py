"""Classical billiard dynamics in the stadium family.

The domain is the rectangle [-a, a] x [-r, r] closed by two semicircular caps
of radius r centered at (+-a, 0); a = 0 degenerates to the circle of radius r.
Trajectories are straight chords with specular reflection at the boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GrazingError

GRAZING_TOL = 1e-10
_T_MIN = 1e-12  # minimal advance, rejects the departure point itself
AVERAGE_SAMPLE_STEP = 0.02  # chord sampling of ergodic_average
COVERAGE_SAMPLE_STEP = 0.04  # chord sampling of coverage_grid
COVERAGE_CELLS = (32, 16)  # coverage_grid cells along x and y


@dataclass(frozen=True)
class StadiumDomain:
    """Stadium with straight-segment half-length a and cap radius r."""

    half_length: float = 1.0
    radius: float = 1.0

    def __post_init__(self):
        if self.half_length < 0:
            raise ValueError("half_length must be >= 0")
        if self.radius <= 0:
            raise ValueError("radius must be > 0")

    @property
    def area(self) -> float:
        return 4.0 * self.half_length * self.radius + math.pi * self.radius**2

    def signed_distance(self, x, y):
        """Negative inside, positive outside; exact for the stadium shape."""
        dx = np.maximum(np.abs(x) - self.half_length, 0.0)
        return np.hypot(dx, y) - self.radius

    def bounding_box(self):
        a, r = self.half_length, self.radius
        return (-(a + r), -r), (a + r, r)


@dataclass(frozen=True)
class BilliardState:
    """Unit-speed particle state: position and direction of flight."""

    x: float
    y: float
    dx: float
    dy: float

    def __post_init__(self):
        n = math.hypot(self.dx, self.dy)
        if abs(n - 1.0) > 1e-12:
            raise ValueError("direction must be a unit vector")


def _step_raw(a, r, x, y, dx, dy):
    """Advance to the next boundary collision; returns (x', y', dx', dy', t).

    Raises GrazingError when the reflection would be tangential.
    """
    t_best = math.inf
    hit = None  # (x, y, nx, ny)

    # straight walls y = +-r over |x| <= a
    if a > 0:
        for ysign in (1.0, -1.0):
            if dy * ysign > 1e-15:
                t = (ysign * r - y) / dy
                if t > _T_MIN and t < t_best:
                    xh = x + t * dx
                    if abs(xh) <= a + 1e-12:
                        t_best = t
                        hit = (xh, ysign * r, 0.0, ysign)

    # caps: circles of radius r centered at (+-a, 0), valid for +-x beyond a
    for xc in ((a,) if a == 0 else (a, -a)):
        px, py = x - xc, y
        bq = px * dx + py * dy
        cq = px * px + py * py - r * r
        disc = bq * bq - cq
        if disc <= 0:
            continue
        sq = math.sqrt(disc)
        for t in (-bq - sq, -bq + sq):
            if _T_MIN < t < t_best:
                xh, yh = x + t * dx, y + t * dy
                if a == 0 or (xh >= a - 1e-12 if xc > 0 else xh <= -a + 1e-12):
                    t_best = t
                    hit = (xh, yh, (xh - xc) / r, yh / r)

    if hit is None:
        raise GrazingError("no forward boundary intersection found")
    xh, yh, nx, ny = hit
    dn = dx * nx + dy * ny
    if abs(dn) < GRAZING_TOL:
        raise GrazingError("tangential collision within grazing tolerance")
    rx, ry = dx - 2.0 * dn * nx, dy - 2.0 * dn * ny
    nrm = math.hypot(rx, ry)
    return xh, yh, rx / nrm, ry / nrm, t_best


def _bounces(domain: StadiumDomain, s: BilliardState, n_bounces: int):
    """Yield (x, y, dx, dy, t) at each of n_bounces successive collisions,
    t being the chord length to it. A GrazingError carries the index of the
    bounce that raised it."""
    a, r = domain.half_length, domain.radius
    x, y, dx, dy = s.x, s.y, s.dx, s.dy
    try:
        for i in range(n_bounces):
            x, y, dx, dy, t = _step_raw(a, r, x, y, dx, dy)
            yield x, y, dx, dy, t
    except GrazingError as exc:
        raise GrazingError(str(exc), bounce_index=i) from exc


def _collisions(domain: StadiumDomain, s: BilliardState, n_bounces: int,
                width: int) -> np.ndarray:
    """Rows (x, y, dx, dy, t)[:width] for the start state (t = 0) and each
    of n_bounces >= 1 collisions, t being the chord length to it."""
    if n_bounces < 1:
        raise ValueError("n_bounces must be >= 1")
    out = np.empty((n_bounces + 1, width))
    out[0] = (s.x, s.y, s.dx, s.dy, 0.0)[:width]
    for i, row in enumerate(_bounces(domain, s, n_bounces), 1):
        out[i] = row[:width]
    return out


def billiard_flow(domain: StadiumDomain, s: BilliardState, n_bounces: int):
    """Orbit of n_bounces successive collisions as (states, times): states
    (n_bounces + 1, 4) with columns x, y, dx, dy from the start state on,
    and times the cumulative arc length at each."""
    orbit = _collisions(domain, s, n_bounces, 5)
    return orbit[:, :4], np.cumsum(orbit[:, 4])


def circle_angular_momentum(s: BilliardState) -> float:
    """Conserved quantity x dy - y dx of the circular billiard."""
    return s.x * s.dy - s.y * s.dx


def flow_vertices(domain: StadiumDomain, s: BilliardState, n_bounces: int) -> np.ndarray:
    """Collision points (n_bounces + 1, 2), the start point first."""
    return _collisions(domain, s, n_bounces, 2)


def _chord_samples(vertices: np.ndarray, sample_step: float):
    """Midpoint samples along each chord with per-sample arc-length weights.

    Yields (points, weights) in chunks to bound memory.
    """
    p0 = vertices[:-1]
    p1 = vertices[1:]
    lengths = np.hypot(*(p1 - p0).T)
    counts = np.maximum(1, np.ceil(lengths / sample_step).astype(int))
    chunk = 20_000
    for lo in range(0, len(p0), chunk):
        hi = min(lo + chunk, len(p0))
        c = counts[lo:hi]
        total = c.sum()
        reps = np.repeat(np.arange(lo, hi), c)
        # fractional midpoint positions within each chord
        offs = np.arange(total) - np.repeat(np.cumsum(c) - c, c)
        frac = (offs + 0.5) / np.repeat(c, c)
        pts = p0[reps] + frac[:, None] * (p1[reps] - p0[reps])
        w = np.repeat(lengths[lo:hi] / c, c)
        yield pts, w


def ergodic_average(domain: StadiumDomain, s: BilliardState, region,
                    n_bounces: int) -> float:
    """Fraction of arc length the orbit spends inside the region.

    region is a vectorized indicator f(x, y) -> bool/0-1 over arrays. Chords
    are sampled at the midpoint rule with spacing <= AVERAGE_SAMPLE_STEP.
    """
    verts = flow_vertices(domain, s, n_bounces)
    inside = 0.0
    total = 0.0
    for pts, w in _chord_samples(verts, AVERAGE_SAMPLE_STEP):
        vals = np.asarray(region(pts[:, 0], pts[:, 1]), float)
        inside += float(vals @ w)
        total += float(w.sum())
    return inside / total


def coverage_grid(domain: StadiumDomain, s: BilliardState, n_bounces: int):
    """Visit counts of the orbit on the COVERAGE_CELLS grid over the bounding
    box, chords sampled at spacing <= COVERAGE_SAMPLE_STEP.

    Returns (counts, cell_inside) where cell_inside marks cells whose center
    lies inside the domain.
    """
    (x0, y0), (x1, y1) = domain.bounding_box()
    nx, ny = COVERAGE_CELLS
    verts = flow_vertices(domain, s, n_bounces)
    counts = np.zeros((nx, ny), dtype=np.int64)
    for pts, _ in _chord_samples(verts, COVERAGE_SAMPLE_STEP):
        ix = np.clip(((pts[:, 0] - x0) / (x1 - x0) * nx).astype(int), 0, nx - 1)
        iy = np.clip(((pts[:, 1] - y0) / (y1 - y0) * ny).astype(int), 0, ny - 1)
        np.add.at(counts, (ix, iy), 1)
    cx = x0 + (np.arange(nx) + 0.5) * (x1 - x0) / nx
    cy = y0 + (np.arange(ny) + 0.5) * (y1 - y0) / ny
    CX, CY = np.meshgrid(cx, cy, indexing="ij")
    cell_inside = domain.signed_distance(CX, CY) < 0
    return counts, cell_inside
