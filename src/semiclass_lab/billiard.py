"""Classical billiard dynamics in the stadium family.

The domain is the rectangle [-a, a] x [-r, r] closed by two semicircular caps
of radius r centered at (+-a, 0); a = 0 degenerates to the circle of radius r.
Trajectories are straight chords with specular reflection at the boundary.
"""

from __future__ import annotations

import math
from array import array
from struct import Struct
from dataclasses import dataclass

import numpy as np

from .errors import GrazingError

GRAZING_TOL = 1e-10
_T_MIN = 1e-12  # minimal advance, rejects the departure point itself
COVERAGE_SAMPLE_STEP = 0.04  # chord sampling of coverage_grid
COVERAGE_CELLS = (32, 16)  # coverage_grid cells along x and y
_STATE = Struct("4d")  # one state x, y, dx, dy as native doubles, 32 bytes


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
    walls). Each bounce's state is packed into one flat preallocated
    buffer of doubles. A GrazingError carries the index of the bounce that
    raised it."""
    if n_bounces < 1:
        raise ValueError("n_bounces must be >= 1")
    if not domain.signed_distance(s.x, s.y) <= 1e-12:  # NaN fails too
        raise ValueError("start state must lie in the domain or on its boundary")
    a, r = domain.half_length, domain.radius
    sqrt, hypot = math.sqrt, math.hypot
    # loop invariants as locals: the loop runs a million times per orbit
    walls, amax, r2 = a > 0, a + 1e-12, r * r
    tmin, gtol = _T_MIN, GRAZING_TOL
    put = _STATE.pack_into
    x, y, dx, dy = s.x, s.y, s.dx, s.dy
    buf = array("d", [0.0]) * (4 * (n_bounces + 1))
    put(buf, 0, x, y, dx, dy)
    # off: byte offset of the state after bounce off // 32 - 1
    for off in range(32, 32 * (n_bounces + 1), 32):
        if walls and (dy > 1e-15 or dy < -1e-15):
            yw = r if dy > 0 else -r
            t = (yw - y) / dy
            xh = x + t * dx
            if t > tmin and -amax <= xh <= amax:
                # the wall normal is (0, +-1), so the reflection is exact:
                # dn = |dy|, and (dx, dy) becomes (dx, -dy)
                if -gtol < dy < gtol:
                    raise GrazingError("tangential collision within grazing "
                                       "tolerance", bounce_index=off // 32 - 1)
                nrm = hypot(dx, dy)
                x, y = xh, yw
                dx, dy = dx / nrm, -dy / nrm
                put(buf, off, x, y, dx, dy)
                continue
            xc = a if xh > 0 else -a
        else:
            xc = a if dx > 0 or a == 0 else -a  # the circle's one centre is a
        px = x - xc
        bq = px * dx + y * dy
        disc = bq * bq - (px * px + y * y - r2)
        if disc <= 0 or (t := -bq + sqrt(disc)) <= tmin:
            raise GrazingError("no forward boundary intersection found",
                               bounce_index=off // 32 - 1)
        xh, yh = x + t * dx, y + t * dy
        nx, ny = (xh - xc) / r, yh / r
        dn = dx * nx + dy * ny
        if -gtol < dn < gtol:
            raise GrazingError("tangential collision within grazing tolerance",
                               bounce_index=off // 32 - 1)
        rx, ry = dx - 2.0 * dn * nx, dy - 2.0 * dn * ny
        nrm = hypot(rx, ry)
        x, y = xh, yh
        dx, dy = rx / nrm, ry / nrm
        put(buf, off, x, y, dx, dy)
    return np.frombuffer(buf).reshape(n_bounces + 1, 4)


def circle_angular_momentum(s: BilliardState) -> float:
    """Conserved quantity x dy - y dx of the circular billiard."""
    return s.x * s.dy - s.y * s.dx


def orbit_blocks(domain: StadiumDomain, s: BilliardState, lengths):
    """The orbit of billiard_flow(domain, s, sum(lengths)) as consecutive
    billiard_flow blocks, one of each length in lengths. Each block starts
    from the previous block's last state, which it repeats as its first
    row, so its rows equal those of the one call bit for bit. A
    GrazingError carries the bounce's index in the whole orbit."""
    done = 0
    for n in lengths:
        try:
            states = billiard_flow(domain, s, n)
        except GrazingError as exc:
            raise GrazingError(exc.args[0],
                               bounce_index=done + exc.bounce_index) from exc
        yield states
        # Python floats: numpy scalars would slow every step of the next loop
        s = BilliardState(*states[-1].tolist())
        done += n


def _chord_ends(states: np.ndarray, n_bounces: int):
    """Start and end points (n_bounces, 2) of the orbit's first n_bounces
    chords."""
    if not 1 <= n_bounces < len(states):
        raise ValueError(f"n_bounces must be in [1, {len(states) - 1}]")
    pts = states[:n_bounces + 1, :2]
    return pts[:-1], pts[1:]


def ergodic_average(blocks, n_bounces: int) -> float:
    """Exact fraction of the arc length of an orbit of n_bounces chords that
    lies in x < 0, the orbit given as consecutive blocks of states (those of
    orbit_blocks), which must hold n_bounces chords in all. A chord crossing
    x = 0 splits at the chord parameter x0 / (x0 - x1). Blocks are read one
    at a time, each adding its summed lengths, in all and in x < 0, to two
    running totals, so the last bits depend on how the orbit is split."""
    if n_bounces < 1:
        raise ValueError("n_bounces must be >= 1")
    left_length = total_length = 0.0
    done = 0
    for states in blocks:
        n = len(states) - 1
        if done + n > n_bounces:
            raise ValueError(f"the blocks hold more than n_bounces={n_bounces} chords")
        p0, p1 = _chord_ends(states, n)
        lengths = np.hypot(*(p1 - p0).T)
        x0, x1 = p0[:, 0], p1[:, 0]
        left = (x0 < 0).astype(float)
        cross = (x0 < 0) != (x1 < 0)
        s = x0[cross] / (x0[cross] - x1[cross])
        left[cross] = np.where(x0[cross] < 0, s, 1.0 - s)
        # numpy's own pairwise sums, not a BLAS dot, whose split over
        # threads would make the last bits depend on the thread count
        left_length += float(np.sum(left * lengths))
        total_length += float(np.sum(lengths))
        done += n
    if done < n_bounces:
        raise ValueError(f"the blocks hold {done} chords, not n_bounces={n_bounces}")
    return left_length / total_length


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
