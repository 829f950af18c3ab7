"""Classical billiard dynamics in the stadium family.

The domain is the rectangle [-a, a] x [-r, r] closed by two semicircular caps
of radius r centered at (+-a, 0); a = 0 degenerates to the circle of radius r.
Trajectories are straight chords with specular reflection at the boundary.
"""

from __future__ import annotations

import math
from array import array
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
        if not 0 <= self.half_length < math.inf:  # also rejects NaN
            raise ValueError("half_length must be finite and >= 0")
        if not 0 < self.radius < math.inf:
            raise ValueError("radius must be finite and > 0")

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
        if not abs(n - 1.0) <= 1e-12:  # NaN fails too
            raise ValueError("direction must be a unit vector")


def billiard_flow(domain: StadiumDomain, s: BilliardState, n_bounces: int):
    """Orbit of n_bounces >= 1 successive collisions as one C-contiguous
    (n_bounces + 1, 4) array with columns x, y, dx, dy, from the start state
    on. The start must lie in the domain or on its boundary.

    The stadium is convex, so each chord leaves through exactly one point:
    the wall the chord flies toward if it meets that wall within |x| <= a,
    else the far intersection with the cap circle on the side where it
    meets the wall's line (on the side of dx for chords parallel to the
    walls). Each bounce is written into one flat preallocated buffer. A
    GrazingError carries the index of the bounce that raised it."""
    if n_bounces < 1:
        raise ValueError("n_bounces must be >= 1")
    if not domain.signed_distance(s.x, s.y) <= 1e-12:  # NaN fails too
        raise ValueError("start state must lie in the domain or on its boundary")
    a, r = domain.half_length, domain.radius
    sqrt, hypot = math.sqrt, math.hypot
    x, y, dx, dy = s.x, s.y, s.dx, s.dy
    buf = array("d", [0.0]) * (4 * (n_bounces + 1))
    buf[0], buf[1], buf[2], buf[3] = x, y, dx, dy
    j = 4
    for i in range(n_bounces):
        if a > 0 and abs(dy) > 1e-15:
            ny = 1.0 if dy > 0 else -1.0
            t = (ny * r - y) / dy
            xh = x + t * dx
            on_wall = t > _T_MIN and abs(xh) <= a + 1e-12
            xc = a if xh > 0 else -a
        else:
            on_wall = False
            xc = a if dx > 0 or a == 0 else -a  # the circle's one centre is a
        if on_wall:
            yh, nx = ny * r, 0.0
        else:
            px, py = x - xc, y
            bq = px * dx + py * dy
            disc = bq * bq - (px * px + py * py - r * r)
            if disc <= 0 or (t := -bq + sqrt(disc)) <= _T_MIN:
                raise GrazingError("no forward boundary intersection found",
                                   bounce_index=i)
            xh, yh = x + t * dx, y + t * dy
            nx, ny = (xh - xc) / r, yh / r
        dn = dx * nx + dy * ny
        if abs(dn) < GRAZING_TOL:
            raise GrazingError("tangential collision within grazing tolerance",
                               bounce_index=i)
        rx, ry = dx - 2.0 * dn * nx, dy - 2.0 * dn * ny
        nrm = hypot(rx, ry)
        x, y, dx, dy = xh, yh, rx / nrm, ry / nrm
        buf[j], buf[j + 1], buf[j + 2], buf[j + 3] = x, y, dx, dy
        j += 4
    return np.frombuffer(buf).reshape(n_bounces + 1, 4)


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
    counts = np.zeros(nx * ny, dtype=np.int64)
    p0, p1 = _chord_ends(states, n_bounces)
    x, y = p0.T
    dx, dy = (p1 - p0).T
    c = np.maximum(1, np.ceil(np.hypot(dx, dy) / COVERAGE_SAMPLE_STEP).astype(int))
    # the k-th midpoints of the chords that have one, so each temporary holds
    # at most one sample per chord; chords without one are dropped for good
    for k in range(c.max()):
        on = c > k
        x, y, dx, dy, c = x[on], y[on], dx[on], dy[on], c[on]
        frac = (k + 0.5) / c
        xs, ys = x + frac * dx, y + frac * dy
        ix = np.clip(((xs - x0) / (x1 - x0) * nx).astype(int), 0, nx - 1)
        iy = np.clip(((ys - y0) / (y1 - y0) * ny).astype(int), 0, ny - 1)
        counts += np.bincount(ix * ny + iy, minlength=nx * ny)
    cx = x0 + (np.arange(nx) + 0.5) * (x1 - x0) / nx
    cy = y0 + (np.arange(ny) + 0.5) * (y1 - y0) / ny
    CX, CY = np.meshgrid(cx, cy, indexing="ij")
    cell_inside = domain.signed_distance(CX, CY) < 0
    return counts.reshape(nx, ny), cell_inside
