"""Quantum mechanics on the torus at inverse Planck constant 2*pi*N.

The Hilbert space is C^N in the position basis j/N: a state is a length-N
array and an operator an N x N one, and functions given either read N from
its first axis. Phase-space translations T_N(n) generate the Weyl algebra

    T(m) T(n) = exp(i*pi*(m1*n2 - m2*n1)/N) T(m + n),

a real trigonometric polynomial quantizes to a Hermitian combination of
translations, and a hyperbolic toral automorphism satisfying the parity
condition (a*b and c*d even) quantizes to a unitary propagator that
intertwines the translations exactly.
"""

from __future__ import annotations

import numpy as np

from .catmap import CatMap, TorusPoint
from .errors import InvalidObservable, QuantizationConditionError

REALITY_TOL = 1e-12  # TrigObservable: |c_{-m} - conj(c_m)| allowed
INTERTWINING_LABELS = ((1, 0), (0, 1), (1, 1))  # checked by intertwining_defect


class TrigObservable:
    """Real trigonometric polynomial sum_m c_m exp(2*pi*i (m1 x + m2 xi)).

    Coefficients are a finite map from integer frequency pairs to complex
    numbers with the reality constraint c_{-m} = conj(c_m).
    """

    def __init__(self, coefficients):
        coeffs = {}
        for m, c in dict(coefficients).items():
            m = (int(m[0]), int(m[1]))
            c = complex(c)
            if c != 0:
                coeffs[m] = coeffs.get(m, 0.0) + c
        for m, c in coeffs.items():
            neg = (-m[0], -m[1])
            if abs(coeffs.get(neg, 0.0) - np.conj(c)) > REALITY_TOL:
                raise InvalidObservable(
                    f"coefficient at {neg} must be the conjugate of the one at {m}"
                )
        self.coefficients = coeffs

    @classmethod
    def cosine(cls, m, amplitude=1.0):
        """amplitude * 2 cos(2 pi m.(x, xi)); at m = 0 the constant 2 amplitude."""
        m = (int(m[0]), int(m[1]))
        if m == (0, 0):
            return cls({m: 2 * amplitude})
        return cls({m: amplitude, (-m[0], -m[1]): amplitude})

    @property
    def mean(self) -> float:
        """Phase-space average, the coefficient of the zero mode."""
        return float(np.real(self.coefficients.get((0, 0), 0.0)))

    def compose_with(self, mat) -> "TrigObservable":
        """Pullback A o M for the linear torus map with integer matrix mat:
        the coefficient at M^T m is the old coefficient at m."""
        mat = np.asarray(mat, np.int64)
        out = {}
        for (m1, m2), c in self.coefficients.items():
            key = (int(mat[0, 0] * m1 + mat[1, 0] * m2),
                   int(mat[0, 1] * m1 + mat[1, 1] * m2))
            out[key] = out.get(key, 0.0) + c
        return TrigObservable(out)


def _translation(N: int, n):
    """Row j of T_N(n) holds phase[j] in column cols[j]:

    (T(n) psi)_j = exp(i pi n1 n2 / N) exp(2 pi i n2 j / N) psi_{(j + n1) mod N}.

    Both exponents are reduced in integers first (n1 n2 mod 2N, n2 j mod N),
    so the phase keeps full precision for labels far larger than N, such as
    those of A o M^t.
    """
    n1, n2 = int(n[0]), int(n[1])
    j = np.arange(N)
    phase = (np.exp(1j * np.pi * (n1 * n2 % (2 * N)) / N)
             * np.exp(2j * np.pi * (n2 % N * j % N) / N))
    return (j + n1) % N, phase


def translation_op(N: int, n) -> np.ndarray:
    """Weyl-Heisenberg translation T_N(n) as a dense unitary matrix."""
    cols, phase = _translation(N, n)
    T = np.zeros((N, N), complex)
    T[np.arange(N), cols] = phase
    return T


def translation_apply(n, psi: np.ndarray) -> np.ndarray:
    """T_N(n) psi without forming the matrix, for a vector or a block of
    columns: a row gather, scaled row by row (hence the transposes)."""
    cols, phase = _translation(len(psi), n)
    return (phase * psi[cols].T).T


# Index map between observable frequencies and translation labels: the
# quantization of exp(2 pi i (m1 x + m2 xi)) is T_N((m2, m1)).
def _freq_to_label(m):
    return (int(m[1]), int(m[0]))


def weyl_quantize(N: int, A: TrigObservable) -> np.ndarray:
    """Hermitian operator Op_N(A) = sum_m c_m T_N of the matching translation
    as a dense matrix: op_apply on the identity. The suites never form it;
    it is the reference the matrix-free path is tested against."""
    return op_apply(A, np.eye(N, dtype=complex))


def op_apply(A: TrigObservable, psi: np.ndarray) -> np.ndarray:
    """Op_N(A) psi, for a vector or a block of columns, using translation
    actions only: each coefficient touches one entry per row."""
    out = np.zeros_like(psi, dtype=complex)
    for m, c in A.coefficients.items():
        out += c * translation_apply(_freq_to_label(m), psi)
    return out


def coherent_state(N: int, center: TorusPoint) -> np.ndarray:
    """Normalized periodized Gaussian wave packet centered at (x0, xi0)."""
    return _coherent_rows(N, center.x, np.array([center.xi]))[0]


def _coherent_rows(N: int, x0: float, xi0: np.ndarray) -> np.ndarray:
    """The coherent states at (x0, xi0[r]) as the rows of a (len(xi0), N)
    block: the rows share x0, so the Gaussian weights are computed once."""
    if N < 1:
        raise ValueError("dimension N must be >= 1")
    j = np.arange(N)
    psi = np.zeros((len(xi0), N), complex)
    base = np.rint(j / N - x0).astype(int)
    # five translates: every omitted one has |dx| >= 2.5, so its weight
    # exp(-pi N dx^2) is below e^-37 (about 1e-16) once pi N 2.5^2 > 37,
    # that is for N >= 2
    for k in (-2, -1, 0, 1, 2):
        m = base + k
        dx = j / N - x0 - m
        psi += np.exp(-np.pi * N * dx**2) * np.exp(2j * np.pi * N * xi0[:, None] * (j / N - m))
    # a vector norm per row, as for a single state: norm(psi, axis=1) sums
    # in another order and moves the last bits
    for row in psi:
        row /= np.linalg.norm(row)
    return psi


def index_action(m: CatMap) -> np.ndarray:
    """Action of the quantized map on translation labels: U T(n) U* = T(An)
    with A = D M D, D = diag(-1, 1)."""
    return np.array([[m.a, -m.b], [-m.c, m.d]], dtype=np.int64)


def is_quantizable(m: CatMap) -> bool:
    """Parity (checkerboard) condition making the zero-angle sector consistent."""
    return (m.a * m.b) % 2 == 0 and (m.c * m.d) % 2 == 0


def _theta_group_word(A):
    """Factor an integer matrix in the theta group (parity classes of I or J
    mod 2) into J = [[0,-1],[1,0]] and even lower shears [[1,0],[c,1]].

    Returns tokens ('J',) and ('G', c) whose left-to-right product equals A.
    """
    A = [[int(A[0][0]), int(A[0][1])], [int(A[1][0]), int(A[1][1])]]
    word = []
    for _ in range(500):
        a, c = A[0][0], A[1][0]
        if c == 0:
            break
        if a != 0:
            e = -2 * round(c / (2 * a))
            if e != 0:
                # left-multiply by G_e, so A = G_{-e} (G_e A)
                A[1] = [A[1][0] + e * A[0][0], A[1][1] + e * A[0][1]]
                word.append(("G", -e))
                continue
        # left-multiply by J^{-1} = [[0,1],[-1,0]], so A = J (J^{-1} A)
        A[0], A[1] = A[1], [-A[0][0], -A[0][1]]
        word.append(("J",))
    else:
        raise QuantizationConditionError("theta-group reduction did not terminate")
    a, b, d = A[0][0], A[0][1], A[1][1]
    assert a * d == 1 and abs(a) == 1
    f = a * b  # A = sign * [[1, f], [0, 1]]
    if f % 2 != 0:
        raise QuantizationConditionError("matrix is not in the theta group")
    if f != 0:
        # upper shear [[1, f], [0, 1]] = J^{-1} G_{-f} J = J J J G_{-f} J
        word += [("J",), ("J",), ("J",), ("G", -f), ("J",)]
    if a == -1:
        word += [("J",), ("J",)]  # -I = J^2
    return word


def cat_propagator(N: int, m: CatMap) -> np.ndarray:
    """Unitary quantization of the cat map in the zero-angle sector.

    A product of metaplectic generators applied in place to the identity:
    each J is a unitary FFT along the rows, each G_c a column scaling by the
    chirp exp(-i pi c j^2 / N) reduced mod 2N in integers, so U T_N(n) U* =
    T_N(A n) holds to roundoff with A = index_action(m). The global phase
    makes the largest entry of the first row real positive, preferring the
    (0, 0) entry when significant.
    """
    if N < 1:
        raise ValueError("dimension N must be >= 1")
    if not is_quantizable(m):
        raise QuantizationConditionError(
            f"map {m} violates the parity condition (a*b, c*d even)"
        )
    word = _theta_group_word(index_action(m))
    jj = np.arange(N) ** 2
    U = np.eye(N, dtype=complex)
    for token in word:
        if token[0] == "J":
            U = np.fft.fft(U, axis=1, norm="ortho")
        else:
            U *= np.exp(-1j * np.pi * (token[1] % (2 * N) * jj % (2 * N)) / N)
    z = U[0, 0]
    if abs(z) < 1e-8:
        z = U[0, int(np.argmax(np.abs(U[0])))]
    U *= np.conj(z) / abs(z)
    return U


def _norm_bound(X: np.ndarray) -> float:
    """Upper bound sqrt(||X||_1 ||X||_inf) on the operator norm ||X||_2
    (Golub & Van Loan, Matrix Computations, 2.3): the largest column
    abs-sum times the largest row abs-sum, in O(N^2) where an SVD costs
    O(N^3). For N x N matrices it is at most sqrt(N) ||X||_2."""
    a = np.abs(X)
    return float(np.sqrt(a.sum(axis=0).max() * a.sum(axis=1).max()))


def intertwining_defect(U: np.ndarray, m: CatMap) -> float:
    """Max defect of U T(n) U* = T(An) over INTERTWINING_LABELS, read as
    ||T(An) U - U T(n)|| (unitary invariance) through _norm_bound, an upper
    bound on the operator norm. Both products are row gathers: T(An) on the
    columns of U, and T(-n) = T(n)* on those of U*."""
    A = index_action(m)
    U_adj = U.conj().T
    worst = 0.0
    for n in INTERTWINING_LABELS:
        lhs = translation_apply(A @ np.asarray(n, np.int64), U)
        rhs = translation_apply((-n[0], -n[1]), U_adj).conj().T
        worst = max(worst, _norm_bound(lhs - rhs))
    return worst


def egorov_defect(U: np.ndarray, m: CatMap, observables, T: int) -> np.ndarray:
    """Defects ||U^-t Op(A) U^t - Op(A o M^t)|| for each observable A and
    t = 1..T, as an array [len(observables), T], where U is the propagator
    of m. Each value is _norm_bound, an upper bound on the operator norm,
    so zero to roundoff for linear maps (exact correspondence). The norm is
    read as ||Op(A) U^t - U^t Op(A o M^t)|| (unitary invariance), and both
    products are op_apply gathers, on the columns of U^t and of its
    adjoint: the one dense product is U^t itself."""
    defects = np.empty((len(observables), T))
    mat = m.matrix(object)
    mat_t = np.eye(2, dtype=object)
    Ut = np.eye(len(U), dtype=complex)
    for t in range(T):
        Ut = Ut @ U
        mat_t = mat_t @ mat
        Ut_adj = Ut.conj().T
        for i, A in enumerate(observables):
            evolved = op_apply(A, Ut)
            classical = op_apply(A.compose_with(mat_t), Ut_adj).conj().T
            defects[i, t] = _norm_bound(evolved - classical)
    return defects


def unitarity_defect(U: np.ndarray) -> float:
    """_norm_bound of U* U - I, an upper bound on its operator norm."""
    return _norm_bound(U.conj().T @ U - np.eye(U.shape[0]))
