"""Discretized Dirichlet eigenproblem on billiard domains.

A five-point Laplacian on a uniform grid over the bounding box, with the
boundary imposed through a ghost-value elimination: the missing neighbor
across the wall at fractional distance alpha contributes 1/(alpha h^2) to
the diagonal only, which keeps the matrix exactly symmetric and restores
second-order eigenvalue convergence on curved boundaries. The matrix is
assembled directly in CSR form, each row's at most five entries written
in ascending column order, with no coordinate-format intermediate. Every
grid is centred on the origin and mirrors exactly about both axes, so the
matrix commutes with x -> -x and y -> -y, and every eigen-solve runs
separately in each of the four x/y parity classes, on about a quarter of
the unknowns.
Each class solve is shift-invert Lanczos (eigsh) applying one sparse LU
factor of the shifted class operator, factored under the multiple
minimum-degree ordering of its symmetric pattern, which fills in less
than the COLAMD ordering eigsh would otherwise pick. Each class is solved
on its own, for a number of modes and an optional reach: while every
returned eigenvalue lies within reach of the shift, the class asks again
for twice as many, on the same factor. A window asks each class for its
two-term Weyl estimate plus a margin, with the reach of its far edge.
A mode is kept as its class vector; its region masses are read in class
space, and only a caller that reads its wavefunction lifts it to the grid.
scipy is imported inside the functions that build or solve a sparse
matrix, so that importing the package, and every suite that solves no
billiard eigenproblem, never pays for loading it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ._blas import one_blas_thread
from .billiard import StadiumDomain
from .errors import GeometryError, NumericalError, UnderResolved

if TYPE_CHECKING:
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

ALPHA_MIN = 1e-3
PARITY_CLASSES = ((1, 1), (1, -1), (-1, 1), (-1, -1))  # (sx, sy), in solve order
WINDOW_HALFWIDTH = 1.0  # eigenmodes_window keeps |k - center_k| <= this
SCAR_TUBE_FRACTION = 0.1  # scar_scores: tube half-width over the cap radius


@dataclass
class DiscreteDomain:
    """Interior grid of a domain described by a signed distance function."""

    spacing: float
    xs: np.ndarray
    ys: np.ndarray
    mask: np.ndarray  # (nx, ny) boolean, True strictly inside
    phi: np.ndarray  # signed distance samples on the full grid

    @property
    def n_interior(self) -> int:
        return int(self.mask.sum())

    def cell_index(self) -> np.ndarray:
        """(nx, ny) grid of each interior cell's equation index, -1 outside."""
        idx = -np.ones(self.mask.shape, int)
        idx[self.mask] = np.arange(self.n_interior)
        return idx

    def interior_points(self):
        """Coordinates (x, y) of the interior cells in equation order."""
        ii, jj = np.nonzero(self.mask)
        return self.xs[ii], self.ys[jj]


def discretize_stadium(domain, h: float) -> DiscreteDomain:
    """Sample domain's signed distance on the grid h*(i - c) about the
    origin, two cells beyond its bounding box; domain is any object with
    signed_distance and bounding_box, symmetric about both axes.

    Negating h*i is exact, so xs == -xs[::-1] and ys == -ys[::-1] bit for
    bit, and phi, mask and the Laplacian mirror exactly under x -> -x and
    y -> -y (which the parity-class solves rely on)."""
    _, (x1, y1) = domain.bounding_box()
    cx, cy = int(np.ceil(x1 / h)) + 2, int(np.ceil(y1 / h)) + 2
    xs, ys = h * np.arange(-cx, cx + 1), h * np.arange(-cy, cy + 1)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    phi = np.asarray(domain.signed_distance(X, Y), float)
    mask = phi < 0
    if not mask.any():
        raise GeometryError("discretization produced an empty interior")
    return DiscreteDomain(spacing=h, xs=xs, ys=ys, mask=mask, phi=phi)


def build_laplacian(dd: DiscreteDomain) -> sp.csr_matrix:
    """Sparse symmetric positive-definite -Laplacian on the interior cells,
    assembled directly as CSR in canonical form: int32 indices, each row's
    columns ascending.

    Every interior cell's four neighbours must lie on the grid, so the
    interior may not touch the grid's first or last row or column
    (discretize_stadium pads by two cells); GeometryError otherwise."""
    import scipy.sparse as sp

    h = dd.spacing
    mask, phi = dd.mask, dd.phi
    if mask[[0, -1]].any() or mask[:, [0, -1]].any():
        raise GeometryError("the interior touches the edge of the grid")
    idx = dd.cell_index()
    ii, jj = np.nonzero(mask)
    n = len(ii)
    # each row's columns in ascending order, (i-1, j), (i, j-1), the
    # diagonal, (i, j+1), (i+1, j); -1 where the neighbour lies outside
    steps = ((-1, 0), (0, -1), (0, 0), (0, 1), (1, 0))
    cols = np.empty((n, 5), np.int32)
    for s, (di, dj) in enumerate(steps):
        cols[:, s] = idx[ii + di, jj + dj]
    inside = cols >= 0

    def diagonal_term(s):
        """1/h^2 from neighbour s, or 1/(alpha h^2) where it lies outside:
        the zero of the linearly interpolated signed distance sits at
        fraction alpha of the grid step."""
        di, dj = steps[s]
        term = np.full(n, 1.0 / h**2)
        bnd = np.flatnonzero(~inside[:, s])
        pb = phi[ii[bnd], jj[bnd]]
        pn = phi[ii[bnd] + di, jj[bnd] + dj]
        alpha = np.clip(pb / (pb - pn), ALPHA_MIN, 1.0)
        term[bnd] = 1.0 / (alpha * h**2)
        return term

    # interior neighbour: standard off-diagonal coupling
    vals = np.full((n, 5), -1.0 / h**2)
    # each mirror pair, (i+-1, j) and (i, j+-1), summed first: a reflection
    # swaps the two terms of a pair, so the diagonal mirrors bit for bit
    # wherever phi does
    vals[:, 2] = ((diagonal_term(4) + diagonal_term(0))
                  + (diagonal_term(3) + diagonal_term(1)))
    indptr = np.zeros(n + 1, np.int32)
    np.cumsum(inside.sum(axis=1), out=indptr[1:])
    # row-major selection reads the rows in turn, each in column order
    return sp.csr_matrix((vals[inside], cols[inside], indptr), shape=(n, n))


@dataclass
class BilliardMode:
    """One Dirichlet eigenmode, held in its x/y parity class: the unit
    vector v in the class basis Q (interior cells x class size) of the grid
    dd. Every mode of a class shares its Q and dd."""

    eigenvalue: float
    k: float
    residual: float  # ||B v - lambda v||, B = Q^T A Q the class operator
    v: np.ndarray
    Q: sp.csc_matrix
    dd: DiscreteDomain

    @property
    def wavefunction(self) -> np.ndarray:
        """The mode lifted to the interior cells, sum psi^2 h^2 = 1."""
        u = self.Q @ self.v
        return u / (np.linalg.norm(u) * self.dd.spacing)


def _parity_bases(dd: DiscreteDomain) -> list:
    """Orthonormal bases Q (interior cells x class size) of the four
    classes (sx, sy) of PARITY_CLASSES, in its order: the functions with
    f(-x, y) = sx f and f(x, -y) = sy f.

    Column r is the signed sum over the mirror orbit of the r-th cell with
    x >= 0 and y >= 0, normalized; on a mirror line the orbit folds onto
    itself, so its terms add for an even sign and cancel for an odd one."""
    import scipy.sparse as sp

    if not (np.array_equal(dd.xs, -dd.xs[::-1])
            and np.array_equal(dd.ys, -dd.ys[::-1])):
        raise GeometryError("parity classes need a grid mirrored about both axes")
    nx, ny = dd.mask.shape
    idx = dd.cell_index()
    qi, qj = np.nonzero(dd.mask[nx // 2:, ny // 2:])
    qi, qj = qi + nx // 2, qj + ny // 2
    orbit = np.concatenate([idx[qi, qj], idx[nx - 1 - qi, qj],
                            idx[qi, ny - 1 - qj], idx[nx - 1 - qi, ny - 1 - qj]])
    reps = np.tile(np.arange(len(qi)), 4)
    bases = []
    for sx, sy in PARITY_CLASSES:
        signs = np.repeat([1.0, sx, sy, sx * sy], len(qi))
        Q = sp.csc_matrix((signs, (orbit, reps)), shape=(dd.n_interior, len(qi)))
        Q.eliminate_zeros()
        Q = Q[:, np.diff(Q.indptr) > 0]
        bases.append(Q @ sp.diags(1.0 / np.sqrt(Q.power(2).sum(axis=0).A1)))
    return bases


def _shift_inverse(B, sigma: float) -> spla.LinearOperator:
    """(B - sigma I)^-1 applied through one sparse LU factor, its columns
    ordered by multiple minimum degree on the symmetric pattern of B."""
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    n = B.shape[0]
    try:
        lu = spla.splu((B - sigma * sp.identity(n)).tocsc(),
                       permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:
        raise NumericalError(f"cannot factor the class operator shifted by {sigma} "
                             f"(the shift may be an eigenvalue): {exc}") from exc
    return spla.LinearOperator((n, n), lu.solve, dtype=B.dtype)


def _class_eigs(B, sigma: float, count: int, reach=None):
    """Eigenpairs (w, V) of B from a shift-invert eigsh for the count
    eigenvalues nearest sigma, started from a fixed vector. B - sigma I is
    factored once, with the MMD ordering, and eigsh applies that factor as
    its OPinv; the factor lives only for this call. ARPACK stops at a
    relative tolerance of 1e-8 on the Ritz values, which leaves residuals
    near 1e-9 at worst (the stadium suite checks them). While every returned
    eigenvalue lies within reach of sigma, B may hold more eigenvalues
    within reach than were asked for: then that attempt is dropped and eigsh
    asks again for twice as many, up to the size of B - 2, after which
    NumericalError is raised. With reach None it never asks again."""
    import scipy.sparse.linalg as spla

    n = B.shape[0]
    v0 = np.full(n, 1.0 / math.sqrt(n))  # fixed start vector for determinism
    OPinv = _shift_inverse(B, sigma)
    while True:
        try:
            w, V = spla.eigsh(B, k=count, sigma=sigma, which="LM", v0=v0,
                              OPinv=OPinv, tol=1e-8)
        except spla.ArpackNoConvergence as exc:
            raise NumericalError(f"shift-invert eigensolver failed: {exc}") from exc
        if reach is None or np.abs(w - sigma).max() > reach:
            return w, V
        if count == n - 2:
            raise NumericalError(
                f"a parity class of {n} cells returned no mode beyond reach "
                f"{reach} of sigma = {sigma}, even at {count} modes")
        del w, V
        count = min(2 * count, n - 2)


def _class_modes(dd: DiscreteDomain, A, Q, target_k: float, count: int,
                 reach=None, halfwidth: float = math.inf) -> list:
    """The eigenmodes of B = Q^T A Q, the class with basis Q (one of
    _parity_bases(dd)), nearest sigma = target_k^2: _class_eigs(B, sigma,
    count, reach), with count at most the class size - 2, and of those the
    ones with |k - target_k| <= halfwidth. Each keeps its class vector v and
    its residual against B, which equals the lifted mode's residual against
    A because A Q = Q B. Only the kept class vectors outlive the solve."""
    if target_k * dd.spacing >= 0.5:
        raise UnderResolved("target_k h >= 0.5: grid cannot resolve the wavelength")
    n = Q.shape[1]
    if n < 3:
        raise UnderResolved(f"a parity class has only {n} cells")
    B = (Q.T @ A @ Q).tocsr()
    with one_blas_thread():
        w, V = _class_eigs(B, target_k**2, min(count, n - 2), reach)
        inside = np.abs(np.sqrt(w) - target_k) <= halfwidth
        w, V = w[inside], V[:, inside]
        modes = []
        for lam, v in zip(w.tolist(), V.T):
            v = v.copy()
            modes.append(BilliardMode(eigenvalue=lam, k=math.sqrt(lam),
                                      residual=float(np.linalg.norm(B @ v - lam * v)),
                                      v=v, Q=Q, dd=dd))
    return modes


def eigenmodes_near(dd: DiscreteDomain, A: sp.csr_matrix, target_k: float,
                    count: int, parity=None) -> list:
    """count eigenmodes with eigenvalues nearest target_k^2, sorted by
    |k - target_k|: the count nearest of each parity class, or of the class
    parity = (sx, sy) alone, then the count nearest of those."""
    if parity not in (None, *PARITY_CLASSES):
        raise ValueError(f"parity must be one of {PARITY_CLASSES}, not {parity}")
    modes = [mode for cls, Q in zip(PARITY_CLASSES, _parity_bases(dd))
             if parity in (None, cls)
             for mode in _class_modes(dd, A, Q, target_k, count)]
    return sorted(modes, key=lambda m: abs(m.k - target_k))[:count]


def weyl_window_count(domain: StadiumDomain, center_k: float) -> float:
    """Weyl-law mode count area/(4 pi) (k_hi^2 - k_lo^2) of the window
    |k - center_k| <= WINDOW_HALFWIDTH."""
    return domain.area / (4 * np.pi) * ((center_k + WINDOW_HALFWIDTH) ** 2
                                        - (center_k - WINDOW_HALFWIDTH) ** 2)


def eigenmodes_window(dd: DiscreteDomain, A: sp.csr_matrix, domain: StadiumDomain,
                      center_k: float) -> list:
    """All modes with |k - center_k| <= WINDOW_HALFWIDTH, sorted by k.

    The window's far edge (center_k + W)^2, W = WINDOW_HALFWIDTH, lies
    R = 2 center_k W + W^2 from sigma = center_k^2. Each parity class
    (sx, sy) is asked for its own two-term Weyl estimate of the modes
    within R of sigma, plus a margin. The class lives on the quarter domain
    (area |Omega| / 4), whose outer wall a + pi r / 2 is Dirichlet and whose
    mirror lines x = 0 (length r) and y = 0 (length a + r) are Neumann for
    an even sign and Dirichlet for an odd one (Ivrii's mixed law). A class
    holds all its window modes only if its farthest returned eigenvalue lies
    beyond R, so each class is solved with reach R: a class that falls
    short asks again for twice as many. Only its window modes are built.
    """
    W = WINDOW_HALFWIDTH
    reach = 2 * center_k * W + W**2
    k_lo = math.sqrt(max(center_k**2 - reach, 0.0))
    k_hi = math.sqrt(center_k**2 + reach)
    a, r = domain.half_length, domain.radius

    def request(sx, sy):
        edge = -(a + math.pi * r / 2) + sx * r + sy * (a + r)  # Neumann - Dirichlet
        estimate = (domain.area / 4 * (k_hi**2 - k_lo**2)
                    + edge * (k_hi - k_lo)) / (4 * math.pi)
        return max(math.ceil(estimate), 0) + 3  # margin of 3 over the estimate
    modes = [mode for cls, Q in zip(PARITY_CLASSES, _parity_bases(dd))
             for mode in _class_modes(dd, A, Q, center_k, request(*cls), reach, W)]
    return sorted(modes, key=lambda m: m.k)


def region_masses(modes, region):
    """Each mode's probability mass sum region(x, y) psi^2 h^2, and the
    region's discrete area fraction (its share of the interior cells), for
    modes on one grid; region is a vectorized indicator or [0, 1] weight.

    Each cell lies in one mirror orbit, so Q has at most one nonzero per
    row and psi_i^2 h^2 = Q_ir^2 v_r^2: the mass is (W^T f) . v^2, with
    W = Q∘Q and f the region on the interior cells. It is exact for any
    region, and W^T f is formed once per class."""
    f = np.asarray(region(*modes[0].dd.interior_points()), float)
    bases = {id(m.Q): m.Q for m in modes}
    weights = {key: Q.power(2).T @ f for key, Q in bases.items()}
    with one_blas_thread():
        return np.array([weights[id(m.Q)] @ m.v**2 for m in modes]), float(f.mean())


def scar_scores(modes, domain: StadiumDomain) -> np.ndarray:
    """Each mode's mass in the tube |y| <= SCAR_TUBE_FRACTION * r around the
    horizontal orbit over the tube's discrete area fraction."""
    w = SCAR_TUBE_FRACTION * domain.radius
    masses, frac = region_masses(modes, lambda x, y: np.abs(y) <= w)
    return masses / frac


def bouncing_ball_scores(modes, domain: StadiumDomain) -> np.ndarray:
    """Each mode's mass in the central rectangle |x| <= a over its discrete
    area fraction."""
    a = domain.half_length
    masses, frac = region_masses(modes, lambda x, y: np.abs(x) <= a)
    return masses / frac


def qe_spatial_variance(modes, region) -> float:
    """Variance over the window of the modes' region masses about the
    region's discrete area fraction."""
    if len(modes) < 10:
        raise ValueError("need at least 10 modes in the window")
    masses, frac = region_masses(modes, region)
    return float(np.mean((masses - frac) ** 2))
