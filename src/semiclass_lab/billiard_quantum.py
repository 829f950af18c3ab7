"""Discretized Dirichlet eigenproblem on billiard domains.

A five-point Laplacian on a uniform grid over the bounding box, with the
boundary imposed through a ghost-value elimination: the missing neighbor
across the wall at fractional distance alpha contributes 1/(alpha h^2) to
the diagonal only, which keeps the matrix exactly symmetric and restores
second-order eigenvalue convergence on curved boundaries. Every grid is
centred on the origin and mirrors exactly about both axes, so the matrix
commutes with x -> -x and y -> -y, and every eigen-solve runs separately
in each of the four x/y parity classes, on about a quarter of the unknowns.
Each class solve is shift-invert Lanczos (eigsh) applying one sparse LU
factor of the shifted class operator, factored under the multiple
minimum-degree ordering of its symmetric pattern, which fills in less
than the COLAMD ordering eigsh would otherwise pick.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .billiard import StadiumDomain
from .errors import GeometryError, NumericalError, UnderResolved

ALPHA_MIN = 1e-3
WINDOW_HALFWIDTH = 1.0  # eigenmodes_window keeps |k - center_k| <= this
SCAR_TUBE_FRACTION = 0.1  # scar_score: tube half-width over the cap radius


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
    """Sparse symmetric positive-definite -Laplacian on the interior cells."""
    h = dd.spacing
    mask, phi = dd.mask, dd.phi
    nx, ny = mask.shape
    idx = dd.cell_index()
    ii, jj = np.nonzero(mask)
    n = len(ii)
    rows, cols, vals, terms = [], [], [], []
    for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        ni, nj = ii + di, jj + dj
        inb = (ni >= 0) & (ni < nx) & (nj >= 0) & (nj < ny)
        nbr = np.zeros(n, bool)
        nbr[inb] = mask[ni[inb], nj[inb]]
        # interior neighbor: standard off-diagonal coupling
        rows.append(np.flatnonzero(nbr))
        cols.append(idx[ni[nbr], nj[nbr]])
        vals.append(np.full(nbr.sum(), -1.0 / h**2))
        term = np.full(n, 1.0 / h**2)
        # boundary crossing: the zero of the linearly interpolated signed
        # distance sits at fraction alpha of the grid step
        bnd = ~nbr
        pb = phi[ii[bnd], jj[bnd]]
        nio, njo = ni[bnd], nj[bnd]
        ok = (nio >= 0) & (nio < nx) & (njo >= 0) & (njo < ny)
        pn = np.full(bnd.sum(), np.inf)
        pn[ok] = phi[nio[ok], njo[ok]]
        alpha = np.clip(pb / (pb - pn), ALPHA_MIN, 1.0)
        term[bnd] = 1.0 / (alpha * h**2)
        terms.append(term)
    rows.append(np.arange(n))
    cols.append(np.arange(n))
    # each mirror pair summed first: a reflection swaps the two terms of a
    # pair, so the diagonal mirrors bit for bit wherever phi does
    vals.append((terms[0] + terms[1]) + (terms[2] + terms[3]))
    A = sp.csr_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(n, n))
    return A


@dataclass
class BilliardMode:
    """One Dirichlet eigenmode on the discrete interior."""

    eigenvalue: float
    k: float
    wavefunction: np.ndarray  # real values on interior cells, sum psi^2 h^2 = 1
    x: np.ndarray
    y: np.ndarray
    spacing: float
    residual: float


def _parity_bases(dd: DiscreteDomain) -> list:
    """Orthonormal bases Q (interior cells x class size) of the four
    classes (sx, sy) of functions with f(-x, y) = sx f and f(x, -y) = sy f.

    Column r is the signed sum over the mirror orbit of the r-th cell with
    x >= 0 and y >= 0, normalized; on a mirror line the orbit folds onto
    itself, so its terms add for an even sign and cancel for an odd one."""
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
    for sx in (1, -1):
        for sy in (1, -1):
            signs = np.repeat([1.0, sx, sy, sx * sy], len(qi))
            Q = sp.csc_matrix((signs, (orbit, reps)), shape=(dd.n_interior, len(qi)))
            Q.eliminate_zeros()
            Q = Q[:, np.diff(Q.indptr) > 0]
            bases.append(Q @ sp.diags(1.0 / np.sqrt(Q.power(2).sum(axis=0).A1)))
    return bases


def _shift_inverse(B, sigma: float) -> spla.LinearOperator:
    """(B - sigma I)^-1 applied through one sparse LU factor, its columns
    ordered by multiple minimum degree on the symmetric pattern of B."""
    n = B.shape[0]
    try:
        lu = spla.splu((B - sigma * sp.identity(n)).tocsc(),
                       permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:
        raise NumericalError(f"cannot factor the class operator shifted by {sigma} "
                             f"(the shift may be an eigenvalue): {exc}") from exc
    return spla.LinearOperator((n, n), lu.solve, dtype=B.dtype)


def _parity_modes(dd: DiscreteDomain, A, target_k: float, count: int, keep) -> list:
    """Shift-invert eigsh of B = Q^T A Q in each parity class, from a fixed
    start vector, for its min(count, class size - 2) eigenvalues nearest
    sigma = target_k^2. Each class's B - sigma I is factored once, with the
    MMD ordering, and eigsh applies that factor as its OPinv; the factor
    lives only for the class's call. keep(w, cls), given every eigenvalue
    and its class, picks the indices to lift to the grid as Q v, normalize
    to sum psi^2 h^2 = 1 and give residuals against A; only the picked
    eigenvectors outlive the solves."""
    if target_k * dd.spacing >= 0.5:
        raise UnderResolved("target_k h >= 0.5: grid cannot resolve the wavelength")
    bases = _parity_bases(dd)
    ws, Vs = [], []
    for Q in bases:
        n = Q.shape[1]
        if n < 3:
            raise UnderResolved(f"a parity class has only {n} cells")
        v0 = np.full(n, 1.0 / math.sqrt(n))  # fixed start vector for determinism
        B = (Q.T @ A @ Q).tocsr()
        try:
            w, V = spla.eigsh(B, k=min(count, n - 2), sigma=target_k**2,
                              which="LM", v0=v0,
                              OPinv=_shift_inverse(B, target_k**2))
        except spla.ArpackNoConvergence as exc:
            raise NumericalError(f"shift-invert eigensolver failed: {exc}") from exc
        ws.append(w)
        Vs.append(V)
    w = np.concatenate(ws)
    cls = np.repeat(np.arange(len(ws)), [len(c) for c in ws])
    col = np.concatenate([np.arange(len(c)) for c in ws])
    picked = [(j, Vs[cls[j]][:, col[j]].copy()) for j in keep(w, cls)]
    del V, Vs
    h = dd.spacing
    x, y = dd.interior_points()
    modes = []
    for j, v in picked:
        u = bases[cls[j]] @ v
        psi = u / (np.linalg.norm(u) * h)
        lam = float(w[j])
        resid = float(np.linalg.norm(A @ psi - lam * psi) / np.linalg.norm(psi))
        modes.append(BilliardMode(eigenvalue=lam, k=math.sqrt(lam),
                                  wavefunction=psi, x=x, y=y, spacing=h,
                                  residual=resid))
    return modes


def eigenmodes_near(dd: DiscreteDomain, A: sp.csr_matrix, target_k: float,
                    count: int) -> list:
    """count eigenmodes with eigenvalues nearest target_k^2, sorted by
    |k - target_k|: the count nearest of each parity class, then the count
    nearest of those."""
    return _parity_modes(dd, A, target_k, count, lambda w, cls: np.argsort(
        np.abs(np.sqrt(w) - target_k), kind="stable")[:count])


def weyl_window_count(domain: StadiumDomain, center_k: float) -> float:
    """Weyl-law mode count area/(4 pi) (k_hi^2 - k_lo^2) of the window
    |k - center_k| <= WINDOW_HALFWIDTH."""
    return domain.area / (4 * np.pi) * ((center_k + WINDOW_HALFWIDTH) ** 2
                                        - (center_k - WINDOW_HALFWIDTH) ** 2)


def eigenmodes_window(dd: DiscreteDomain, A: sp.csr_matrix, domain: StadiumDomain,
                      center_k: float) -> list:
    """All modes with |k - center_k| <= WINDOW_HALFWIDTH, sorted by k.

    The total request, padded over the Weyl-law count of domain, is split
    evenly over the parity classes: ceil(n_req / 4) modes per class. If
    even the farthest mode returned in some class lies inside the window,
    that class may be cut short, and NumericalError is raised.
    """
    pred = weyl_window_count(domain, center_k)
    per_class = math.ceil((int(pred * 1.6) + 10) / 4)

    def inside(w, cls):
        near = np.abs(np.sqrt(w) - center_k) <= WINDOW_HALFWIDTH
        if any(near[cls == c].all() for c in range(4)):
            raise NumericalError(
                f"every mode requested near k = {center_k} in some parity "
                "class lies in the window; it may be incomplete")
        return np.flatnonzero(near)
    return sorted(_parity_modes(dd, A, center_k, per_class, inside),
                  key=lambda m: m.k)


def position_measure(mode: BilliardMode, region) -> float:
    """Probability mass sum region(x, y) psi^2 h^2; region is a vectorized
    indicator or [0, 1] weight."""
    vals = np.asarray(region(mode.x, mode.y), float)
    return float((vals * mode.wavefunction**2).sum() * mode.spacing**2)


def _area_fraction(mode: BilliardMode, region) -> float:
    """Discrete area fraction of region: its share of the mode's cells."""
    return float(np.mean(np.asarray(region(mode.x, mode.y), float)))


def scar_score(mode: BilliardMode, domain: StadiumDomain) -> float:
    """Mass in the tube |y| <= SCAR_TUBE_FRACTION * r around the horizontal
    orbit over the tube's discrete area fraction."""
    w = SCAR_TUBE_FRACTION * domain.radius
    tube = lambda x, y: np.abs(y) <= w
    return position_measure(mode, tube) / _area_fraction(mode, tube)


def bouncing_ball_score(mode: BilliardMode, domain: StadiumDomain) -> float:
    """Mass in the central rectangle |x| <= a over its discrete area
    fraction."""
    a = domain.half_length
    rect = lambda x, y: np.abs(x) <= a
    return position_measure(mode, rect) / _area_fraction(mode, rect)


def qe_spatial_variance(modes, region) -> float:
    """Variance over the window of position_measure about the region's
    discrete area fraction."""
    if len(modes) < 10:
        raise ValueError("need at least 10 modes in the window")
    frac = _area_fraction(modes[0], region)
    masses = np.array([position_measure(m, region) for m in modes])
    return float(np.mean((masses - frac) ** 2))
