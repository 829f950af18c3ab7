"""Phase-space measures of quantum states.

Wigner (Fourier) coefficients, Husimi distributions on a grid, matrix
elements of observables, the quantum-ergodicity variance over an eigenbasis,
and weak-star distances to the model invariant measures
weight * (atom on a periodic orbit) + (1 - weight) * Lebesgue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catmap import TorusPoint
from .errors import AliasingError
from .spectral import EigenDecomposition
from .torus_quantum import (TrigObservable, _freq_to_label, _coherent_rows,
                            op_apply, translation_apply)


def matrix_element(psi: np.ndarray, A: TrigObservable) -> float:
    """mu_psi(A) = <psi, Op_N(A) psi>; real for real observables."""
    val = np.vdot(psi, op_apply(A, psi))
    return float(val.real)


@dataclass
class WignerCoefficients:
    """Fourier coefficients of the Wigner measure up to |m1|, |m2| <= cutoff."""

    coefficients: dict
    cutoff: int

    def __call__(self, m) -> complex:
        return self.coefficients[(int(m[0]), int(m[1]))]


def wigner_coefficients(psi: np.ndarray, cutoff: int) -> WignerCoefficients:
    """Coefficient at frequency m is mu_psi of exp(2 pi i (m1 x + m2 xi))."""
    N = len(psi)
    if cutoff >= N / 2:
        raise AliasingError(f"cutoff {cutoff} reaches the Nyquist limit N/2 = {N / 2}")
    coeffs = {}
    for m1 in range(-cutoff, cutoff + 1):
        for m2 in range(-cutoff, cutoff + 1):
            coeffs[(m1, m2)] = complex(
                np.vdot(psi, translation_apply(_freq_to_label((m1, m2)), psi)))
    return WignerCoefficients(coefficients=coeffs, cutoff=cutoff)


@dataclass
class HusimiGrid:
    """Nonnegative G x G distribution on the uniform torus grid, total mass 1.

    values[i, k] sits at the phase-space point (i/G, k/G).
    """

    values: np.ndarray
    G: int


def default_grid_size(N: int) -> int:
    """Grid matched to the hbar-scale cell size."""
    return max(8, math.ceil(2 * math.sqrt(N)))


def husimi(psi: np.ndarray, G: int | None = None) -> HusimiGrid:
    """Coherent-state overlaps |<cs(i/G, k/G), psi>|^2, normalized to sum 1:
    one block of G states and one matrix-vector product per row i."""
    if G is None:
        G = default_grid_size(len(psi))
    if G < 8:
        raise ValueError("grid size G must be >= 8")
    H = np.empty((G, G))
    xi0 = np.arange(G) / G
    for i in range(G):
        H[i] = np.abs(_coherent_rows(len(psi), i / G, xi0).conj() @ psi) ** 2
    H /= H.sum()
    return HusimiGrid(values=H, G=G)


def ball_mass(g: HusimiGrid, center: TorusPoint, eps: float) -> float:
    """Husimi mass of cells whose center lies within torus distance eps."""
    if not 0 < eps < 0.5:
        raise ValueError("eps must be in (0, 0.5)")
    G = g.G
    dx = (np.arange(G) / G - center.x) % 1.0
    dx = np.minimum(dx, 1.0 - dx)
    dxi = (np.arange(G) / G - center.xi) % 1.0
    dxi = np.minimum(dxi, 1.0 - dxi)
    mask = dx[:, None] ** 2 + dxi[None, :] ** 2 <= eps**2
    return float(g.values[mask].sum())


def eigenbasis_elements(dec: EigenDecomposition, A: TrigObservable) -> np.ndarray:
    """mu_{v_n}(A) for every eigenvector v_n, equal bit for bit to
    matrix_element on each: one op_apply gather on the whole basis, then one
    vdot per column."""
    V = dec.eigenvectors
    W = op_apply(A, V)
    return np.array([np.vdot(V[:, n], W[:, n]).real for n in range(V.shape[1])])


def qe_variance(dec: EigenDecomposition, A: TrigObservable) -> float:
    """(1/N) sum_n |mu_{v_n}(A) - mean(A)|^2 over the full eigenbasis, read
    from eigenbasis_elements."""
    diag = eigenbasis_elements(dec, A)
    return float(np.mean(np.abs(diag - A.mean) ** 2))


@dataclass(frozen=True)
class ModelMeasure:
    """weight * (uniform atom on the orbit) + (1 - weight) * Lebesgue, the
    family the scar-weight bound weight <= 1/2 is stated for. Lebesgue has
    weight 0 and no orbit."""

    orbit: tuple = ()
    weight: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.weight <= 1.0:
            raise ValueError("mixture weight must lie in [0, 1]")
        if self.weight > 0 and not self.orbit:
            raise ValueError("an atom of positive weight needs a nonempty orbit")

    @classmethod
    def lebesgue(cls):
        return cls()

    @classmethod
    def periodic_orbit(cls, points):
        return cls(tuple(points), 1.0)

    @classmethod
    def mixture(cls, weight, points):
        return cls(tuple(points), float(weight))

    def fourier(self, m) -> complex:
        """Fourier coefficient at integer frequency m = (m1, m2)."""
        m1, m2 = int(m[0]), int(m[1])
        lebesgue = 1.0 + 0.0j if (m1, m2) == (0, 0) else 0.0 + 0.0j
        if not self.orbit:
            return lebesgue
        vals = [np.exp(2j * np.pi * (m1 * p.x + m2 * p.xi)) for p in self.orbit]
        return self.weight * complex(np.mean(vals)) + (1.0 - self.weight) * lebesgue


def weak_star_distance(w: WignerCoefficients, model: ModelMeasure, K: int = 8) -> float:
    """Max over 0 < max(|m1|, |m2|) <= K of |w(m) - model coefficient|."""
    if K > w.cutoff:
        raise ValueError(f"K = {K} exceeds the available cutoff {w.cutoff}")
    worst = 0.0
    for m1 in range(-K, K + 1):
        for m2 in range(-K, K + 1):
            if (m1, m2) == (0, 0):
                continue
            worst = max(worst, abs(w((m1, m2)) - model.fourier((m1, m2))))
    return worst
