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
from .torus_quantum import (TrigObservable, _coherent_rows, op_apply,
                            translation_apply)

WEAK_STAR_K = 8  # weak_star_distance: frequencies 0 < max(|m1|, |m2|) <= this


def matrix_element(psi: np.ndarray, A: TrigObservable) -> float:
    """mu_psi(A) = <psi, Op_N(A) psi>; real for real observables."""
    val = np.vdot(psi, op_apply(A, psi))
    return float(val.real)


def wigner_coefficients(psi: np.ndarray, cutoff: int) -> np.ndarray:
    """Fourier coefficients of the Wigner measure on the frequency grid
    |m1|, |m2| <= cutoff: a (2 cutoff + 1) x (2 cutoff + 1) complex array
    whose entry [m1 + cutoff, m2 + cutoff] is mu_psi of
    exp(2 pi i (m1 x + m2 xi))."""
    N = len(psi)
    if cutoff >= N / 2:
        raise AliasingError(f"cutoff {cutoff} reaches the Nyquist limit N/2 = {N / 2}")
    freqs = range(-cutoff, cutoff + 1)
    return np.array([[np.vdot(psi, translation_apply((m1, m2), psi))
                      for m2 in freqs] for m1 in freqs])


@dataclass
class HusimiGrid:
    """Nonnegative G x G distribution on the uniform torus grid, total mass 1.

    values[i, k] sits at the phase-space point (i/G, k/G).
    """

    values: np.ndarray
    G: int


def husimi(psi: np.ndarray) -> HusimiGrid:
    """Coherent-state overlaps |<cs(i/G, k/G), psi>|^2, normalized to sum 1,
    on the grid G = max(8, ceil(2 sqrt(N))) matched to the hbar-scale cell
    size: one block of G states and one matrix-vector product per row i."""
    G = max(8, math.ceil(2 * math.sqrt(len(psi))))
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


def qe_variance(elements: np.ndarray, mean: float) -> float:
    """(1/N) sum_n |mu_{v_n}(A) - mean(A)|^2 over a full eigenbasis, from
    its elements mu_{v_n}(A) as eigenbasis_elements returns them."""
    return float(np.mean(np.abs(elements - mean) ** 2))


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

    def fourier(self, cutoff: int) -> np.ndarray:
        """Fourier coefficients on the frequency grid |m1|, |m2| <= cutoff,
        laid out as wigner_coefficients lays them out."""
        lebesgue = np.zeros((2 * cutoff + 1, 2 * cutoff + 1), complex)
        lebesgue[cutoff, cutoff] = 1.0
        if not self.orbit:
            return lebesgue
        m = np.arange(-cutoff, cutoff + 1)
        x, xi = np.array([(p.x, p.xi) for p in self.orbit]).T
        atom = np.exp(2j * np.pi * (m[:, None, None] * x + m[None, :, None] * xi))
        return self.weight * atom.mean(axis=-1) + (1.0 - self.weight) * lebesgue


def weak_star_distance(w: np.ndarray, model: ModelMeasure) -> float:
    """Max over 0 < max(|m1|, |m2|) <= WEAK_STAR_K of |w(m) - model(m)|, w
    laid out as wigner_coefficients lays it out."""
    cutoff = w.shape[0] // 2
    if WEAK_STAR_K > cutoff:
        raise ValueError(f"WEAK_STAR_K exceeds the available cutoff {cutoff}")
    K = WEAK_STAR_K
    block = slice(cutoff - K, cutoff + K + 1)
    gap = np.abs(w[block, block] - model.fourier(K))
    gap[K, K] = 0.0
    return float(gap.max())
