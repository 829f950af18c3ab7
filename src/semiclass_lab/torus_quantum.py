"""Quantum mechanics on the torus at inverse Planck constant 2*pi*N.

The Hilbert space is C^N in the position basis j/N: a state is a length-N
array and an operator an N x N one, and functions given either read N from
its first axis. The translation T[m] quantizes exp(2*pi*i (m1 x + m2 xi)),
and the translations generate the Weyl algebra

    T[m] T[n] = exp(-i*pi*(m1*n2 - m2*n1)/N) T[m + n],

a real trigonometric polynomial quantizes to a Hermitian combination of
translations, and a hyperbolic toral automorphism satisfying the parity
condition (a*b and c*d even) quantizes to a unitary propagator that
intertwines the translations exactly.
"""

from __future__ import annotations

import numpy as np

from ._blas import one_blas_thread
from .catmap import CatMap, TorusPoint
from .errors import InvalidObservable, QuantizationConditionError

REALITY_TOL = 1e-12  # TrigObservable: |c_{-m} - conj(c_m)| allowed
INTERTWINING_FREQUENCIES = ((0, 1), (1, 0), (1, 1))  # checked by intertwining_defect


class TrigObservable:
    """Real trigonometric polynomial sum_m c_m exp(2*pi*i (m1 x + m2 xi)).

    Coefficients are a finite map from integer frequency pairs to complex
    numbers with the reality constraint c_{-m} = conj(c_m).
    """

    def __init__(self, coefficients):
        coeffs = {}
        for m, c in dict(coefficients).items():
            if not (float(m[0]).is_integer() and float(m[1]).is_integer()):
                raise InvalidObservable(f"frequency {m} must be a pair of integers")
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
        m1, m2 = m
        if m1 == m2 == 0:
            return cls({(0, 0): 2 * amplitude})
        return cls({(m1, m2): amplitude, (-m1, -m2): amplitude})

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
            key = (mat[0, 0] * m1 + mat[1, 0] * m2, mat[0, 1] * m1 + mat[1, 1] * m2)
            out[key] = out.get(key, 0.0) + c
        return TrigObservable(out)


def _translation(N: int, m):
    """Row j of T[m], the quantization of exp(2 pi i (m1 x + m2 xi)), holds
    phase[j] in column cols[j]:

    (T[m] psi)_j = exp(i pi m1 m2 / N) exp(2 pi i m1 j / N) psi_{(j + m2) mod N}.

    Both exponents are reduced in integers first (m1 m2 mod 2N, m1 j mod N),
    so the phase keeps full precision for frequencies far larger than N,
    such as those of A o M^t.
    """
    m1, m2 = int(m[0]), int(m[1])
    j = np.arange(N)
    phase = (np.exp(1j * np.pi * (m1 * m2 % (2 * N)) / N)
             * np.exp(2j * np.pi * (m1 % N * j % N) / N))
    return (j + m2) % N, phase


def translation_apply(m, psi: np.ndarray) -> np.ndarray:
    """T[m] psi without forming the matrix, for a vector or a block of
    columns: the rows are gathered into one new buffer and scaled in place,
    row by row."""
    cols, phase = _translation(len(psi), m)
    g = psi[cols].astype(complex, copy=False)
    np.multiply(phase.reshape((-1,) + (1,) * (psi.ndim - 1)), g, out=g)
    return g


def weyl_quantize(N: int, A: TrigObservable) -> np.ndarray:
    """Hermitian operator Op_N(A) = sum_m c_m T[m] as a dense matrix:
    op_apply on the identity. The suites never form it; it is the reference
    the matrix-free path is tested against."""
    return op_apply(A, np.eye(N, dtype=complex))


def op_apply(A: TrigObservable, psi: np.ndarray) -> np.ndarray:
    """Op_N(A) psi, for a vector or a block of columns, using translation
    actions only: each coefficient touches one entry per row. Each term is
    a translation_apply, scaled in place by c; scaling by the phase and
    then by c fixes the last bits of the result."""
    out = np.zeros_like(psi, dtype=complex)
    for m, c in A.coefficients.items():
        g = translation_apply(m, psi)
        np.multiply(c, g, out=g)
        out += g
    return out


def gaussian_translates(N: int, x0: float):
    """The periodized Gaussian at x0 as its five nearest translates: the
    shifts m = rint(j/N - x0) + k, k = -2..2, and the weights
    exp(-pi N (j/N - x0 - m)^2), each a (5, N) array. Every omitted
    translate weighs below e^-37 (about 1e-16) once N >= 2."""
    if N < 1:
        raise ValueError("dimension N must be >= 1")
    j = np.arange(N)
    m = np.rint(j / N - x0).astype(int) + np.arange(-2, 3)[:, None]
    return m, np.exp(-np.pi * N * (j / N - x0 - m) ** 2)


def coherent_state(N: int, center: TorusPoint) -> np.ndarray:
    """Normalized periodized Gaussian wave packet centered at (x0, xi0): its
    gaussian_translates at x0, each times e^{2 pi i N xi0 (j/N - m)}."""
    m, w = gaussian_translates(N, center.x)
    psi = sum(w * np.exp(2j * np.pi * N * center.xi * (np.arange(N) / N - m)))
    return psi / np.linalg.norm(psi)


def index_action(m: CatMap) -> np.ndarray:
    """The matrix D M D, D = diag(-1, 1), whose theta-group word
    (_theta_group_word) cat_propagator applies as metaplectic generators."""
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


class UnitaryWord:
    """An N x N unitary as a product of unitary factors, left to right. A
    factor None is the unitary DFT along rows, F_jk = exp(-2 pi i j k/N) /
    sqrt(N); any other factor is a diagonal, given by its entries (a
    length-N array) or by one number (a multiple of the identity).

    Every factor is symmetric, so U^T is the word read backwards: U v is
    apply_right of the reversed word on the row v^T, as v^T U^T = (U v)^T."""

    def __init__(self, N: int, factors=()):
        self.N, self.factors = N, tuple(factors)

    def apply_right(self, X: np.ndarray) -> np.ndarray:
        """X <- X U in place, for a complex block of rows X; returns X. Each
        DFT is one FFT along the rows and each diagonal one column scaling,
        so a row costs O(N log N), and each row gets the bits it gets in
        any other block, the whole matrix included."""
        for f in self.factors:
            if f is None:
                np.fft.fft(X, axis=1, norm="ortho", out=X)
            else:
                X *= f
        return X


def propagator_word(N: int, m: CatMap) -> UnitaryWord:
    """The cat-map propagator of cat_propagator as a UnitaryWord: its
    metaplectic generators in the order of the map's theta-group word,
    each J the unitary DFT and each G_c the chirp exp(-i pi c j^2 / N)
    reduced mod 2N in integers, then the global phase. The phase is read
    from the generators applied to the row e_0, which is row 0 of U: it
    makes the (0, 0) entry real positive when significant, else the first
    entry of that row whose modulus is at least (1 - 1e-9) times the
    row's largest."""
    if N < 1:
        raise ValueError("dimension N must be >= 1")
    if not is_quantizable(m):
        raise QuantizationConditionError(
            f"map {m} violates the parity condition (a*b, c*d even)"
        )
    jj = np.arange(N) ** 2
    generators = UnitaryWord(N, [
        None if token[0] == "J"
        else np.exp(-1j * np.pi * (token[1] % (2 * N) * jj % (2 * N)) / N)
        for token in _theta_group_word(index_action(m))])
    row = np.zeros((1, N), complex)
    row[0, 0] = 1
    row = generators.apply_right(row)[0]
    z = row[0]
    if abs(z) < 1e-8:
        # the first entry within rounding of the row's largest modulus, so
        # rounding cannot choose among entries of equal modulus
        a = np.abs(row)
        z = row[int(np.argmax(a >= a.max() * (1 - 1e-9)))]
    return UnitaryWord(N, (*generators.factors, np.conj(z) / abs(z)))


def cat_propagator(N: int, m: CatMap) -> np.ndarray:
    """Unitary quantization of the cat map in the zero-angle sector: its
    propagator_word applied in place to the identity, each J as a unitary
    FFT along the rows and each chirp and the global phase as a column
    scaling, so U T[f] U* = T[M^-T f] holds to roundoff."""
    return propagator_word(N, m).apply_right(np.eye(N, dtype=complex))


class _RowBlockNormBound:
    """Upper bound sqrt(||X||_1 ||X||_inf) on the operator norm ||X||_2
    (Golub & Van Loan, Matrix Computations, 2.3): the largest column
    abs-sum times the largest row abs-sum, in O(N^2) where an SVD costs
    O(N^3). For N x N matrices it is at most sqrt(N) ||X||_2.

    X is given one block of rows at a time, top to bottom, so that no more
    than a block is held. Each column adds its rows in order, as one sum
    over the whole matrix does: the running column sums ride on the first
    row of the next block. Adding the blocks' partial sums instead would
    change the last bits."""

    def __init__(self):
        self.colsum, self.row_max = None, 0.0

    def add(self, X: np.ndarray):
        a = np.abs(X)
        self.row_max = max(self.row_max, a.sum(axis=1).max())
        if self.colsum is None:
            self.colsum = a.sum(axis=0)
        else:
            a[0] += self.colsum
            a.sum(axis=0, out=self.colsum)

    def value(self) -> float:
        return float(np.sqrt(self.colsum.max() * self.row_max))


def _row_blocks(N: int, B: int) -> list:
    """N rows as the fewest slices of at most B rows, of near-equal sizes, so
    that no block is a lone row: numpy multiplies a single row by gemv,
    whose sums round apart from those of the gemm that multiplies the whole
    matrix."""
    n = -(-N // B)
    return [slice(N * k // n, N * (k + 1) // n) for k in range(n)]


def _commutator_defect(Ut: np.ndarray, left, right) -> float:
    """_RowBlockNormBound of sum_l c_l T[m_l] Ut - Ut (sum_r c_r T[m_r])*,
    for lists of (frequency m, coefficient c) and a complex Ut, read from
    Ut alone one block of rows at a time.

    A left term is a row gather of the block, scaled by the row phase and
    then by c and added onto zeros, as op_apply does. A right term is a
    column roll of the same rows, scaled by conj(phase) and then conj(c):
    conjugation distributes exactly over complex products and sums, so it
    equals op_apply on Ut* conjugate-transposed to the last bit. Each
    block's difference goes to _RowBlockNormBound; no N x N array is
    formed."""
    N = len(Ut)
    B = 32  # rows per block: each B x N buffer is 256 kB at N = 512
    gathered, lhs, rhs = np.empty((3, min(N, B), N), complex)
    left = [(*_translation(N, m), c) for m, c in left]
    right = [(*_translation(N, m), c) for m, c in right]
    right = [(cols[0], phase.conj(), np.conj(c)) for cols, phase, c in right]
    bound = _RowBlockNormBound()
    for rows in _row_blocks(N, B):
        b = rows.stop - rows.start
        g, L, R = gathered[:b], lhs[:b], rhs[:b]
        L.fill(0)
        for cols, phase, c in left:
            # mode="clip" writes into g directly; "raise" would buffer it
            np.take(Ut, cols[rows], axis=0, out=g, mode="clip")
            np.multiply(phase[rows, None], g, out=g)
            np.multiply(c, g, out=g)
            L += g
        block = Ut[rows]
        R.fill(0)
        for s, phase, c in right:
            g[:, :N - s] = block[:, s:]
            g[:, N - s:] = block[:, :s]
            np.multiply(phase, g, out=g)
            np.multiply(c, g, out=g)
            R += g
        bound.add(np.subtract(L, R, out=L))
    return bound.value()


def intertwining_defect(U: np.ndarray, m: CatMap) -> float:
    """Max defect of U T[f] U* = T[M^-T f] over INTERTWINING_FREQUENCIES,
    read as ||T[M^-T f] U - U T[f]|| (unitary invariance) through
    _RowBlockNormBound, an upper bound on the operator norm:
    _commutator_defect with the one left term T[M^-T f] and the one right
    term T[-f]* = T[f]."""
    A = m.inverse_matrix().T
    U = np.asarray(U, complex)
    return max(_commutator_defect(U, [(A @ np.asarray(f, np.int64), 1.0)],
                                  [((-f[0], -f[1]), 1.0)])
               for f in INTERTWINING_FREQUENCIES)


def egorov_defect(word: UnitaryWord, m: CatMap, observables, T: int) -> np.ndarray:
    """Defects ||U^-t Op(A) U^t - Op(A o M^t)|| for each observable A and
    t = 1..T, as an array [len(observables), T], where the UnitaryWord
    word is the propagator of m (propagator_word). Each value is
    _RowBlockNormBound, an upper bound on the operator norm, so zero to
    roundoff for linear maps (exact correspondence). The norm is read as
    ||Op(A) U^t - U^t Op(A o M^t)|| (unitary invariance) by
    _commutator_defect, from U^t alone: U^t is advanced in place by the
    word's factors, U^t <- U^t U in O(N^2 log N), so it is the one N x N
    array formed and no BLAS call is made."""
    defects = np.empty((len(observables), T))
    mat = m.matrix(object)
    mat_t = np.eye(2, dtype=object)
    Ut = np.eye(word.N, dtype=complex)
    for t in range(T):
        word.apply_right(Ut)
        mat_t = mat_t @ mat
        for i, A in enumerate(observables):
            defects[i, t] = _commutator_defect(
                Ut, A.coefficients.items(), A.compose_with(mat_t).coefficients.items())
    return defects


def unitarity_defect(U: np.ndarray) -> float:
    """_RowBlockNormBound of U* U - I, an upper bound on its operator norm,
    formed 32 rows at a time into one buffer: rows r of U* U are the
    columns r of U, conjugated and transposed, times U. The products run
    at one BLAS thread, so the value does not follow the thread count."""
    N = U.shape[0]
    product = np.empty((min(N, 32), N), U.dtype)
    bound = _RowBlockNormBound()
    with one_blas_thread():
        for rows in _row_blocks(N, 32):
            X = np.matmul(U[:, rows].conj().T, U, out=product[:rows.stop - rows.start])
            X[np.arange(len(X)), np.arange(rows.start, rows.stop)] -= 1
            bound.add(X)
    return bound.value()
