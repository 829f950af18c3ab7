"""Spectral analysis of the quantum propagator.

Eigenphases and eigenvectors, each parity block diagonalized by a
Hermitian eigensolve of its Cayley transform; degeneracy clusters; the
quantum period (smallest P with U^P proportional to the identity); and
time-averaged scarred quasi-eigenstates built on the fixed point at the
origin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._blas import one_blas_thread
from .catmap import CatMap, TorusPoint, cat_lyapunov
from .errors import DegenerateConstruction, NumericalError
from .torus_quantum import coherent_state, unitarity_defect

DEGENERACY_TOL = 1e-8 * 2 * np.pi
RESIDUAL_TOL = 1e-10  # diagonalize: unitarity, eigen-residual, orthogonality
PERIOD_TOL = 1e-8  # quantum_period: entrywise distance of U^P from a scalar
SHORT_PERIOD_FACTOR = 3.0  # short periods: P <= SHORT_PERIOD_FACTOR log N / lambda


@dataclass
class EigenDecomposition:
    """Eigenphases sorted ascending in [-DEGENERACY_TOL, 2pi - DEGENERACY_TOL),
    so that a cluster at phase 0 is not split across the 0/2pi cut and
    stays at the head; eigenvectors as columns."""

    eigenphases: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True)
class QuantumPeriod:
    P: int
    global_phase: float


def _canonical_phase(phase):
    """A phase in (-pi, pi], as np.angle returns it, moved into
    [-DEGENERACY_TOL, 2pi - DEGENERACY_TOL)."""
    return np.where(phase < -DEGENERACY_TOL, phase + 2 * np.pi, phase)


def _unitary_eigenvectors(B: np.ndarray) -> np.ndarray:
    """Orthonormal eigenvectors of a unitary B, as those of the Hermitian
    part of i X, where X = (I + R)^-1 (I - R) = 2 Y - I, Y = (I + R)^-1, is
    the Cayley transform of R = e^{-i alpha} B. That part is i (Y - Y*).

    An eigenphase theta of B becomes the eigenvalue tan((theta - alpha)/2)
    of i X, so the pole -e^{i alpha} must keep clear of the spectrum. The
    values +-arccos c over the eigenvalues c of (B + B*)/2 hold every
    eigenphase; the pole sits in the middle of their widest gap, which is
    at least pi/n wide, so every eigenphase lies at least pi/(2n) from it
    and cond(I + R) is at most about 4n/pi. X comes from the inverse, not
    from solve(I + R, I - R): the solve adds an error (I + R)^-1 dA that no
    nearby B explains, and at N = 512 it made the eigenvectors up to 7
    times less accurate.
    """
    n = len(B)
    if n == 0:
        return np.zeros((0, 0), dtype=complex)
    c = np.linalg.eigvalsh((B + B.conj().T) / 2)
    t = np.arccos(np.clip(c, -1.0, 1.0))
    points = np.sort(np.concatenate([t, 2 * np.pi - t]))
    gaps = np.diff(points, append=points[0] + 2 * np.pi)
    k = np.argmax(gaps)
    alpha = points[k] + gaps[k] / 2 - np.pi
    Y = np.linalg.inv(np.eye(n) + np.exp(-1j * alpha) * B)
    return np.linalg.eigh(1j * (Y - Y.conj().T))[1]


def diagonalize(U: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition of a unitary matrix that commutes with the parity
    R: psi_j -> psi_{-j mod N}, with orthonormal eigenvectors.

    U is folded by index into its even and odd blocks Q^T U Q, on the fixed
    points j = 0 and N/2 and the pairs (e_j +- e_{N-j})/sqrt(2). Each
    block's eigenvectors come from a Hermitian eigensolve of its Cayley
    transform (_unitary_eigenvectors), and each eigenphase is the angle of
    the vector's Rayleigh quotient v* B v. So every eigenvector has a
    definite parity, and where the spectrum is simple within each class
    (the cat map at power-of-two N) the basis is unique up to phases.

    U must be unitary and commute with R, else it is refused. The residual
    ||B Z - Z e^{i theta}|| and the orthogonality defect ||Z* Z - I|| are
    read on each block: Q is orthogonal, and the parity guard bounds the
    off-diagonal blocks of Q^T U Q, which the fold drops.
    """
    N = U.shape[0]
    if unitarity_defect(U) > RESIDUAL_TOL:
        raise NumericalError(f"input operator is not unitary to {RESIDUAL_TOL}")
    j = np.arange(N)
    rev = -j % N
    commutator = np.abs(U[np.ix_(rev, rev)] - U).max()
    if commutator > RESIDUAL_TOL:
        raise NumericalError(
            f"operator does not commute with parity (defect {commutator:.2e})"
        )
    fixed = j[rev == j]  # 0, and N/2 for even N
    lo = j[1:(N + 1) // 2]  # pairs (lo, N - lo)
    hi = N - lo
    s = np.sqrt(0.5)
    # columns of U Q, then rows of Q^T (U Q), for each class
    even_cols = np.concatenate([U[:, fixed], s * (U[:, lo] + U[:, hi])], axis=1)
    odd_cols = s * (U[:, lo] - U[:, hi])
    even = np.concatenate([even_cols[fixed], s * (even_cols[lo] + even_cols[hi])])
    odd = s * (odd_cols[lo] - odd_cols[hi])
    phases, Zs = [], []
    for B in (even, odd):
        with one_blas_thread():
            Z = _unitary_eigenvectors(B)
            BZ = B @ Z
            theta = np.angle(np.einsum("ij,ij->j", Z.conj(), BZ))
            resid = np.abs(BZ - Z * np.exp(1j * theta)).max(initial=0.0)
            ortho = np.abs(Z.conj().T @ Z - np.eye(len(Z))).max(initial=0.0)
        if resid > RESIDUAL_TOL or ortho > RESIDUAL_TOL:
            raise NumericalError(
                f"eigensolver residual {resid:.2e}, orthogonality defect {ortho:.2e}"
            )
        phases.append(theta)
        Zs.append(Z)
    phases = _canonical_phase(np.concatenate(phases))
    Ze, Zo = Zs
    # lift Q Z into one basis, even vectors first
    ne = len(fixed) + len(lo)
    V = np.zeros((N, N), dtype=complex)
    V[fixed, :ne] = Ze[:len(fixed)]
    V[lo, :ne] = V[hi, :ne] = s * Ze[len(fixed):]
    V[lo, ne:] = s * Zo
    V[hi, ne:] = -V[lo, ne:]
    order = np.argsort(phases, kind="stable")
    return EigenDecomposition(eigenphases=phases[order], eigenvectors=V[:, order])


def degeneracy_clusters(dec: EigenDecomposition,
                        tolerance: float = DEGENERACY_TOL) -> list:
    """Partition eigenphase indices by linking circular gaps below tolerance,
    as a list of (mean phase, member index array) in eigenphase order.

    Halving the tolerance can only split clusters, never merge them.
    """
    ph = dec.eigenphases
    n = len(ph)
    if n == 0:
        return []
    gaps = np.diff(ph)
    breaks = np.nonzero(gaps > tolerance)[0]
    pieces = np.split(np.arange(n), breaks + 1)
    # wraparound: merge the last piece into the first if the circular gap closes
    if len(pieces) > 1 and (ph[0] + 2 * np.pi - ph[-1]) <= tolerance:
        pieces[0] = np.concatenate([pieces[-1], pieces[0]])
        pieces.pop()
    pieces.sort(key=lambda idx: ph[idx[0]])
    return [(float(_canonical_phase(np.angle(np.exp(1j * ph[idx]).mean()))), idx)
            for idx in pieces]


def matrix_order_mod(m: CatMap, modulus: int, p_max: int):
    """Multiplicative order of the map's matrix in SL(2, Z/modulus), or None."""
    q = modulus
    identity = (1 % q, 0, 0, 1 % q)
    a, b, c, d = identity
    for p in range(1, p_max + 1):  # (a, b; c, d) <- (a, b; c, d) M, in Python ints
        a, b, c, d = ((a * m.a + b * m.c) % q, (a * m.b + b * m.d) % q,
                      (c * m.a + d * m.c) % q, (c * m.b + d * m.d) % q)
        if (a, b, c, d) == identity:
            return p
    return None


def quantum_period(m: CatMap, P_max: int, U: np.ndarray):
    """Smallest P <= P_max with U^P proportional to the identity, else None,
    where U is the propagator of m.

    The result is cross-checked against the order of the map's matrix modulo
    2N, which governs when the propagator becomes scalar.
    """
    if P_max < 1:
        raise ValueError("P_max must be >= 1")
    N = len(U)
    for P in range(1, P_max + 1):
        Up = U if P == 1 else Up @ U
        z = Up[0, 0]
        if (abs(abs(z) - 1.0) < PERIOD_TOL
                and np.abs(Up - z * np.eye(N)).max() < PERIOD_TOL):
            order = matrix_order_mod(m, 2 * N, P_max)
            if order is not None and order % P != 0:
                raise NumericalError(
                    f"operator period {P} does not divide the matrix order "
                    f"{order} mod {2 * N}"
                )
            return QuantumPeriod(P=P, global_phase=float(np.angle(z) % (2 * np.pi)))
    return None


def short_period_dimensions(m: CatMap, n_min: int, n_max: int):
    """Dimensions N in [n_min, n_max], as (N, P) pairs, whose order P of the
    map's matrix mod 2N satisfies P <= SHORT_PERIOD_FACTOR * log N /
    lambda_plus. The quantum period divides P and can be half of it (9
    against 18 at N = 53), so an N whose quantum period alone meets the
    bound may be missing."""
    lam = cat_lyapunov(m).lambda_plus
    out = []
    for N in range(max(2, n_min), n_max + 1):
        bound = SHORT_PERIOD_FACTOR * np.log(N) / lam
        P = matrix_order_mod(m, 2 * N, int(bound) + 1)
        if P is not None and P <= bound:
            out.append((N, P))
    return out


def scarred_state(T_half: int, U: np.ndarray, period: QuantumPeriod) -> np.ndarray:
    """Phase-weighted time average of the coherent state at the fixed origin:

        sum_{t=0}^{T_half-1} exp(-i theta t) U^t |cs(0,0)>, normalized,

    where U has quantum period P = period.P and theta is the eigenphase-cluster
    center (global_phase + 2 pi k)/P closest to the Rayleigh-quotient phase
    of the coherent state.
    """
    if T_half < 1:
        raise ValueError("T_half must be >= 1")
    cs = coherent_state(len(U), TorusPoint(0.0, 0.0))
    theta0 = np.angle(np.vdot(cs, U @ cs))
    centers = (period.global_phase + 2 * np.pi * np.arange(period.P)) / period.P
    theta = float(centers[np.argmin(np.abs(np.exp(1j * (centers - theta0)) - 1))])
    psi = np.zeros(len(U), dtype=complex)
    v = cs
    for t in range(T_half):
        psi = psi + np.exp(-1j * theta * t) * v
        if t + 1 < T_half:
            v = U @ v
    nrm = np.linalg.norm(psi)
    if nrm < 1e-8:
        raise DegenerateConstruction(
            f"time average vanished (norm {nrm:.2e}); retry with shifted theta"
        )
    return psi / nrm

