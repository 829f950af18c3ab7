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
from .torus_quantum import UnitaryWord, coherent_state, unitarity_defect

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
    # I + R, then i (Y - Y*), in one n x n buffer; Y is freed before eigh
    H = np.exp(-1j * alpha) * B
    H += np.eye(n)
    Y = np.linalg.inv(H)
    np.conjugate(Y.T, out=H)
    np.subtract(Y, H, out=H)
    del Y
    return np.linalg.eigh(np.multiply(1j, H, out=H))[1]


def _reflection_orbits(N: int):
    """The orbits of the parity j -> -j mod N: its fixed points (0, and N/2
    for even N) as a list, and the pairs (lo, N - lo), lo = 1, 2, ..., as
    two slices."""
    n = (N - 1) // 2
    return [0, N // 2][:2 - N % 2], slice(1, n + 1), slice(N - 1, N - n - 1, -1)


def _fold(U: np.ndarray, combine) -> np.ndarray:
    """The even block Q^T U Q (combine = np.add) or the odd one
    (np.subtract), read from the quadrants of U. The sums run in the order
    that forms the columns of U Q first, s (U[:, lo] +- U[:, hi]), then the
    rows of Q^T (U Q), s (rows lo +- rows hi), with s = sqrt(1/2)."""
    fixed, lo, hi = _reflection_orbits(len(U))
    if combine is np.subtract:
        fixed = []
    f, n = len(fixed), lo.stop - lo.start
    s = np.sqrt(0.5)
    B = np.empty((f + n, f + n), complex)
    if f:
        B[:f, :f] = U[np.ix_(fixed, fixed)]
        np.add(U[fixed, lo], U[fixed, hi], out=B[:f, f:])
        np.add(U[lo][:, fixed], U[hi][:, fixed], out=B[f:, :f])
        np.multiply(s, B[:f, f:], out=B[:f, f:])
        np.multiply(s, B[f:, :f], out=B[f:, :f])
    pairs, hi_rows = B[f:, f:], np.empty((n, n), complex)
    combine(U[lo, lo], U[lo, hi], out=pairs)
    combine(U[hi, lo], U[hi, hi], out=hi_rows)
    np.multiply(s, pairs, out=pairs)
    np.multiply(s, hi_rows, out=hi_rows)
    combine(pairs, hi_rows, out=pairs)
    np.multiply(s, pairs, out=pairs)
    return B


def _eigenpairs(B: np.ndarray):
    """Eigenphases and orthonormal eigenvectors Z of one parity block,
    refused unless the residual ||B Z - Z e^{i theta}|| and the
    orthogonality defect ||Z* Z - I|| are within RESIDUAL_TOL."""
    with one_blas_thread():
        Z = _unitary_eigenvectors(B)
        BZ = B @ Z
        theta = np.angle(np.einsum("ij,ij->j", Z.conj(), BZ))
        resid = np.abs(np.subtract(BZ, Z * np.exp(1j * theta), out=BZ)).max(initial=0.0)
        del BZ
        gram = Z.conj().T @ Z
        gram[np.diag_indices_from(gram)] -= 1
        ortho = np.abs(gram).max(initial=0.0)
    if resid > RESIDUAL_TOL or ortho > RESIDUAL_TOL:
        raise NumericalError(
            f"eigensolver residual {resid:.2e}, orthogonality defect {ortho:.2e}"
        )
    return theta, Z


def diagonalize(U: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition of a unitary matrix that commutes with the parity
    R: psi_j -> psi_{-j mod N}, with orthonormal eigenvectors.

    U is folded by index into its even and odd blocks Q^T U Q (_fold), on
    the fixed points j = 0 and N/2 and the pairs (e_j +- e_{N-j})/sqrt(2).
    Each block's eigenvectors come from a Hermitian eigensolve of its
    Cayley transform (_unitary_eigenvectors), and each eigenphase is the
    angle of the vector's Rayleigh quotient v* B v. So every eigenvector
    has a definite parity, and where the spectrum is simple within each
    class (the cat map at power-of-two N) the basis is unique up to phases.
    The vectors Q Z are lifted straight into phase order, each a contiguous
    column of a Fortran-ordered basis.

    U must be unitary and commute with R, else it is refused; the parity
    guard reads 64 rows at a time. The residual ||B Z - Z e^{i theta}|| and
    the orthogonality defect ||Z* Z - I|| are read on each block: Q is
    orthogonal, and the parity guard bounds the off-diagonal blocks of
    Q^T U Q, which the fold drops.
    """
    N = U.shape[0]
    if unitarity_defect(U) > RESIDUAL_TOL:
        raise NumericalError(f"input operator is not unitary to {RESIDUAL_TOL}")
    rev = -np.arange(N) % N
    commutator = max(np.abs(U[np.ix_(rev[r0:r0 + 64], rev)] - U[r0:r0 + 64]).max()
                     for r0 in range(0, N, 64))
    if commutator > RESIDUAL_TOL:
        raise NumericalError(
            f"operator does not commute with parity (defect {commutator:.2e})"
        )
    # each block is freed once solved
    (theta_e, Ze), (theta_o, Zo) = (_eigenpairs(_fold(U, combine))
                                    for combine in (np.add, np.subtract))
    phases = _canonical_phase(np.concatenate([theta_e, theta_o]))
    order = np.argsort(phases, kind="stable")
    column = np.empty(N, int)
    column[order] = np.arange(N)  # where each vector lands in phase order
    even_at, odd_at = column[:len(Ze)], column[len(Ze):]
    fixed, lo, hi = _reflection_orbits(N)
    s = np.sqrt(0.5)
    V = np.zeros((N, N), dtype=complex, order="F")
    V[np.ix_(fixed, even_at)] = Ze[:len(fixed)]
    pairs = np.multiply(s, Ze[len(fixed):], out=Ze[len(fixed):])
    V[lo, even_at] = pairs
    V[hi, even_at] = pairs
    np.multiply(s, Zo, out=Zo)
    V[lo, odd_at] = Zo
    V[hi, odd_at] = np.negative(Zo, out=Zo)
    return EigenDecomposition(eigenphases=phases[order], eigenvectors=V)


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


def quantum_period(m: CatMap, P_max: int, word: UnitaryWord):
    """Smallest P <= P_max with U^P proportional to the identity, else None,
    where the UnitaryWord word is the propagator U of m (propagator_word).
    U^P is advanced in place by the word's factors, U^P <- U^(P-1) U in
    O(N^2 log N), with no dense product.

    The result is cross-checked against the order of the map's matrix modulo
    2N, which governs when the propagator becomes scalar.
    """
    if P_max < 1:
        raise ValueError("P_max must be >= 1")
    N = word.N
    Up = np.eye(N, dtype=complex)
    for P in range(1, P_max + 1):
        word.apply_right(Up)
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


def scarred_state(T_half: int, word: UnitaryWord, period: QuantumPeriod) -> np.ndarray:
    """Phase-weighted time average of the coherent state at the fixed origin:

        sum_{t=0}^{T_half-1} exp(-i theta t) U^t |cs(0,0)>, normalized,

    where the UnitaryWord word is the propagator U (propagator_word), of
    quantum period P = period.P, and theta is the eigenphase-cluster center
    (global_phase + 2 pi k)/P closest to the Rayleigh-quotient phase of the
    coherent state. U^t cs is kept as a row and advanced in place by the
    word read backwards, which is U^T (see UnitaryWord), O(N log N) a step
    with no matrix formed; U cs serves both that phase and the t = 1 term.
    """
    if T_half < 1:
        raise ValueError("T_half must be >= 1")
    backwards = UnitaryWord(word.N, word.factors[::-1])
    cs = coherent_state(word.N, TorusPoint(0.0, 0.0))
    v = backwards.apply_right(np.array(cs, ndmin=2))[0]  # U cs
    theta0 = np.angle(np.vdot(cs, v))
    centers = (period.global_phase + 2 * np.pi * np.arange(period.P)) / period.P
    theta = float(centers[np.argmin(np.abs(np.exp(1j * (centers - theta0)) - 1))])
    psi = cs.copy()
    for t in range(1, T_half):
        psi += np.exp(-1j * theta * t) * v
        if t + 1 < T_half:
            backwards.apply_right(v[None])
    nrm = np.linalg.norm(psi)
    if nrm < 1e-8:
        raise DegenerateConstruction(
            f"time average vanished (norm {nrm:.2e}); retry with shifted theta"
        )
    return psi / nrm
