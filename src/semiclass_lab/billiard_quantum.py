"""Discretized Dirichlet eigenproblem on billiard domains.

A five-point Laplacian on a uniform grid over the bounding box, with the
boundary imposed through a ghost-value elimination: the missing neighbor
across the wall at fractional distance alpha contributes 1/(alpha h^2) to
the diagonal only, which keeps the matrix exactly symmetric and restores
second-order eigenvalue convergence on curved boundaries.
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

    def interior_points(self):
        """Coordinates (x, y) of the interior cells in equation order."""
        ii, jj = np.nonzero(self.mask)
        return self.xs[ii], self.ys[jj]


def discretize(sdf, lo, hi, h: float) -> DiscreteDomain:
    """Sample the signed distance function on a grid covering [lo, hi]."""
    nx = int(np.ceil((hi[0] - lo[0]) / h)) + 1
    ny = int(np.ceil((hi[1] - lo[1]) / h)) + 1
    xs = lo[0] + np.arange(nx) * h
    ys = lo[1] + np.arange(ny) * h
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    phi = np.asarray(sdf(X, Y), float)
    mask = phi < 0
    if not mask.any():
        raise GeometryError("discretization produced an empty interior")
    return DiscreteDomain(spacing=h, xs=xs, ys=ys, mask=mask, phi=phi)


def discretize_stadium(domain: StadiumDomain, h: float) -> DiscreteDomain:
    (x0, y0), (x1, y1) = domain.bounding_box()
    pad = 2 * h
    return discretize(domain.signed_distance, (x0 - pad, y0 - pad),
                      (x1 + pad, y1 + pad), h)


def build_laplacian(dd: DiscreteDomain) -> sp.csr_matrix:
    """Sparse symmetric positive-definite -Laplacian on the interior cells."""
    h = dd.spacing
    mask, phi = dd.mask, dd.phi
    nx, ny = mask.shape
    idx = -np.ones(mask.shape, int)
    idx[mask] = np.arange(mask.sum())
    ii, jj = np.nonzero(mask)
    n = len(ii)
    diag = np.zeros(n)
    rows, cols, vals = [], [], []
    for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        ni, nj = ii + di, jj + dj
        inb = (ni >= 0) & (ni < nx) & (nj >= 0) & (nj < ny)
        nbr = np.zeros(n, bool)
        nbr[inb] = mask[ni[inb], nj[inb]]
        # interior neighbor: standard off-diagonal coupling
        rows.append(idx[ii, jj][nbr])
        cols.append(idx[ni[nbr], nj[nbr]])
        vals.append(np.full(nbr.sum(), -1.0 / h**2))
        diag[idx[ii, jj][nbr]] += 1.0 / h**2
        # boundary crossing: the zero of the linearly interpolated signed
        # distance sits at fraction alpha of the grid step
        bnd = ~nbr
        pb = phi[ii[bnd], jj[bnd]]
        nio, njo = ni[bnd], nj[bnd]
        ok = (nio >= 0) & (nio < nx) & (njo >= 0) & (njo < ny)
        pn = np.full(bnd.sum(), np.inf)
        pn[ok] = phi[nio[ok], njo[ok]]
        alpha = np.clip(pb / (pb - pn), ALPHA_MIN, 1.0)
        diag[idx[ii, jj][bnd]] += 1.0 / (alpha * h**2)
    rows.append(np.arange(n))
    cols.append(np.arange(n))
    vals.append(diag)
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


def _make_modes(dd: DiscreteDomain, A, w, V, order) -> list:
    h = dd.spacing
    x, y = dd.interior_points()
    modes = []
    for i in order:
        lam = float(w[i])
        psi = V[:, i] / (np.linalg.norm(V[:, i]) * h)
        resid = float(np.linalg.norm(A @ psi - lam * psi) / np.linalg.norm(psi))
        modes.append(BilliardMode(eigenvalue=lam, k=math.sqrt(lam),
                                  wavefunction=psi, x=x, y=y, spacing=h,
                                  residual=resid))
    return modes


def eigenmodes_near(dd: DiscreteDomain, A: sp.csr_matrix, target_k: float,
                    count: int) -> list:
    """count eigenmodes with eigenvalues nearest target_k^2 (shift-invert),
    sorted by |k - target_k|."""
    if target_k * dd.spacing >= 0.5:
        raise UnderResolved("target_k h >= 0.5: grid cannot resolve the wavelength")
    n = A.shape[0]
    v0 = np.full(n, 1.0 / math.sqrt(n))  # fixed start vector for determinism
    try:
        w, V = spla.eigsh(A, k=count, sigma=target_k**2, which="LM", v0=v0)
    except spla.ArpackNoConvergence as exc:
        raise NumericalError(f"shift-invert eigensolver failed: {exc}") from exc
    order = np.argsort(np.abs(np.sqrt(w) - target_k))
    return _make_modes(dd, A, w, V, order)


def weyl_window_count(domain: StadiumDomain, center_k: float) -> float:
    """Weyl-law mode count area/(4 pi) (k_hi^2 - k_lo^2) of the window
    |k - center_k| <= WINDOW_HALFWIDTH."""
    return domain.area / (4 * np.pi) * ((center_k + WINDOW_HALFWIDTH) ** 2
                                        - (center_k - WINDOW_HALFWIDTH) ** 2)


def eigenmodes_window(dd: DiscreteDomain, A: sp.csr_matrix, domain: StadiumDomain,
                      center_k: float) -> list:
    """All modes with |k - center_k| <= WINDOW_HALFWIDTH, sorted by k.

    The request size is padded over the Weyl-law count of domain. If even
    the farthest mode returned lies inside the window, the window may be
    cut short, and NumericalError is raised.
    """
    pred = weyl_window_count(domain, center_k)
    n_req = min(int(pred * 1.6) + 10, dd.n_interior - 2)
    modes = eigenmodes_near(dd, A, center_k, n_req)
    if abs(modes[-1].k - center_k) <= WINDOW_HALFWIDTH:
        raise NumericalError(
            f"all {len(modes)} modes requested near k = {center_k} lie in the "
            "window; it may be incomplete")
    sel = [m for m in modes if abs(m.k - center_k) <= WINDOW_HALFWIDTH]
    sel.sort(key=lambda m: m.k)
    return sel


def position_measure(mode: BilliardMode, region) -> float:
    """Probability mass sum region(x, y) psi^2 h^2; region is a vectorized
    indicator or [0, 1] weight."""
    vals = np.asarray(region(mode.x, mode.y), float)
    return float((vals * mode.wavefunction**2).sum() * mode.spacing**2)


def tube_area_fraction(domain: StadiumDomain, w: float) -> float:
    """Exact area fraction of the horizontal tube |y| <= w (rectangle strip
    plus the two circular-cap slivers)."""
    a, r = domain.half_length, domain.radius
    tube = 4 * a * w + 2 * (r**2 * math.asin(w / r) + w * math.sqrt(r**2 - w**2))
    return tube / domain.area


def scar_score(mode: BilliardMode, domain: StadiumDomain) -> float:
    """Mass in the tube |y| <= SCAR_TUBE_FRACTION * r around the horizontal
    orbit over its area fraction."""
    w = SCAR_TUBE_FRACTION * domain.radius
    mass = position_measure(mode, lambda x, y: np.abs(y) <= w)
    return mass / tube_area_fraction(domain, w)


def bouncing_ball_score(mode: BilliardMode, domain: StadiumDomain) -> float:
    """Mass in the central rectangle |x| <= a over its area fraction."""
    a = domain.half_length
    mass = position_measure(mode, lambda x, y: np.abs(x) <= a)
    return mass / (4 * a * domain.radius / domain.area)


def qe_spatial_variance(modes, region) -> float:
    """Variance over the window of position_measure about the region's
    discrete area fraction."""
    if len(modes) < 10:
        raise ValueError("need at least 10 modes in the window")
    m0 = modes[0]
    frac = float(np.mean(np.asarray(region(m0.x, m0.y), float)))
    masses = np.array([position_measure(m, region) for m in modes])
    return float(np.mean((masses - frac) ** 2))


def square_sdf(x, y):
    """Unit square (0,1)^2 test geometry with an exact discrete spectrum."""
    return np.maximum(np.abs(x - 0.5), np.abs(y - 0.5)) - 0.5


def square_discrete_eigenvalue(h: float, p: int, q: int) -> float:
    """Closed-form eigenvalue of the discrete Dirichlet Laplacian on the
    unit square at spacing h = 1/(n+1)."""
    return (2.0 / h**2) * (2.0 - math.cos(math.pi * p * h) - math.cos(math.pi * q * h))
