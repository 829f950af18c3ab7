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


def billiard_flow(domain: StadiumDomain, s: BilliardState, n_bounces: int):
    """Orbit of n_bounces >= 1 successive collisions as (states, times):
    states (n_bounces + 1, 4) with columns x, y, dx, dy from the start state
    on, and times the cumulative arc length at each. A GrazingError carries
    the index of the bounce that raised it."""
    if n_bounces < 1:
        raise ValueError("n_bounces must be >= 1")
    a, r = domain.half_length, domain.radius
    x, y, dx, dy = s.x, s.y, s.dx, s.dy
    orbit = np.empty((n_bounces + 1, 5))
    orbit[0] = (x, y, dx, dy, 0.0)
    try:
        for i in range(n_bounces):
            x, y, dx, dy, t = _step_raw(a, r, x, y, dx, dy)
            orbit[i + 1] = (x, y, dx, dy, t)
    except GrazingError as exc:
        raise GrazingError(str(exc), bounce_index=i) from exc
    return orbit[:, :4], np.cumsum(orbit[:, 4])


def circle_angular_momentum(s: BilliardState) -> float:
    """Conserved quantity x dy - y dx of the circular billiard."""
    return s.x * s.dy - s.y * s.dx


def _chord_ends(states: np.ndarray, n_bounces: int):
    """Start and end points (n_bounces, 2) of the orbit's first n_bounces
    chords."""
    if not 1 <= n_bounces < len(states):
        raise ValueError(f"n_bounces must be in [1, {len(states) - 1}]")
    pts = states[:n_bounces + 1, :2]
    return pts[:-1], pts[1:]


def _chord_samples(p0: np.ndarray, p1: np.ndarray, sample_step: float):
    """Midpoint samples along each chord, spacing <= sample_step, yielded in
    chunks to bound memory."""
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
        yield p0[reps] + frac[:, None] * (p1[reps] - p0[reps])


def ergodic_average(states: np.ndarray, n_bounces: int) -> float:
    """Exact fraction of the arc length of the orbit's first n_bounces
    chords that lies in x < 0; a chord crossing x = 0 splits at the chord
    parameter x0 / (x0 - x1)."""
    p0, p1 = _chord_ends(states, n_bounces)
    lengths = np.hypot(*(p1 - p0).T)
    x0, x1 = p0[:, 0], p1[:, 0]
    left = (x0 < 0).astype(float)
    cross = (x0 < 0) != (x1 < 0)
    s = x0[cross] / (x0[cross] - x1[cross])
    left[cross] = np.where(x0[cross] < 0, s, 1.0 - s)
    # numpy's own sum, not a BLAS dot, whose split over threads would make
    # the last bits depend on the thread count
    return float((left * lengths).sum() / lengths.sum())


def coverage_grid(domain: StadiumDomain, states: np.ndarray, n_bounces: int):
    """Visit counts of the orbit's first n_bounces chords on the
    COVERAGE_CELLS grid over the bounding box, chords sampled at spacing
    <= COVERAGE_SAMPLE_STEP.

    Returns (counts, cell_inside) where cell_inside marks cells whose center
    lies inside the domain.
    """
    (x0, y0), (x1, y1) = domain.bounding_box()
    nx, ny = COVERAGE_CELLS
    counts = np.zeros((nx, ny), dtype=np.int64)
    for pts in _chord_samples(*_chord_ends(states, n_bounces),
                              COVERAGE_SAMPLE_STEP):
        ix = np.clip(((pts[:, 0] - x0) / (x1 - x0) * nx).astype(int), 0, nx - 1)
        iy = np.clip(((pts[:, 1] - y0) / (y1 - y0) * ny).astype(int), 0, ny - 1)
        np.add.at(counts, (ix, iy), 1)
    cx = x0 + (np.arange(nx) + 0.5) * (x1 - x0) / nx
    cy = y0 + (np.arange(ny) + 0.5) * (y1 - y0) / ny
    CX, CY = np.meshgrid(cx, cy, indexing="ij")
    cell_inside = domain.signed_distance(CX, CY) < 0
    return counts, cell_inside
