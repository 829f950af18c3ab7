import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiclass_lab.catmap import CatMap, DEFAULT_MAP, TorusPoint
from semiclass_lab.errors import InvalidObservable, QuantizationConditionError
from semiclass_lab.torus_quantum import (INTERTWINING_FREQUENCIES, TrigObservable,
                                         _norm_bound, _theta_group_word,
                                         cat_propagator, coherent_state,
                                         egorov_defect, index_action,
                                         intertwining_defect, is_quantizable,
                                         op_apply, translation_apply,
                                         unitarity_defect, weyl_quantize)

M = DEFAULT_MAP
MAPS = (M, CatMap(1, 2, 2, 5), CatMap(3, 2, 4, 3))  # quantizable, hyperbolic


def translation_op(N: int, m) -> np.ndarray:
    """Weyl-Heisenberg translation T[m], the quantization of
    exp(2 pi i (m1 x + m2 xi)), as a dense unitary matrix."""
    return translation_apply(m, np.eye(N, dtype=complex))


def test_translation_identity():
    assert np.allclose(translation_op(7, (0, 0)), np.eye(7))


def translation_apply_by_label(n, psi: np.ndarray) -> np.ndarray:
    """translation_apply in label form: (T(n) psi)_j =
    exp(i pi n1 n2 / N) exp(2 pi i n2 j / N) psi_{(j + n1) mod N}, where
    exp(2 pi i (m1 x + m2 xi)) quantizes to the label n = (m2, m1)."""
    N = len(psi)
    n1, n2 = int(n[0]), int(n[1])
    j = np.arange(N)
    phase = (np.exp(1j * np.pi * (n1 * n2 % (2 * N)) / N)
             * np.exp(2j * np.pi * (n2 % N * j % N) / N))
    g = psi[(j + n1) % N].astype(complex, copy=False)
    np.multiply(phase.reshape((-1,) + (1,) * (psi.ndim - 1)), g, out=g)
    return g


@pytest.mark.parametrize("N", [1, 7, 64, 512])
def test_translation_matches_label_form_bit_for_bit(N):
    """T[m] is the label-form translation at the swapped index (m2, m1),
    to the last bit, also for frequencies many times N."""
    rng = np.random.default_rng(N)
    freqs = [(0, 0), (1, 0), (0, 1), (-1, 1), (3 * N + 5, -2 * N - 1),
             (-7 * N - 3, 11 * N + 2), (10**6 + 3, -(10**5) - 7)]
    for shape in (N, (N, 3)):
        psi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        for m1, m2 in freqs:
            assert np.array_equal(translation_apply((m1, m2), psi),
                                  translation_apply_by_label((m2, m1), psi))


def test_weyl_commutation_example_n4():
    """T[m] T[n] = exp(-i pi sigma/N) T[m+n] with sigma = m1 n2 - m2 n1 = -1
    at N = 4."""
    Tm = translation_op(4, (0, 1))
    Tn = translation_op(4, (1, 0))
    Tmn = translation_op(4, (1, 1))
    scalar = (Tm @ Tn) @ np.linalg.inv(Tmn)
    assert np.allclose(scalar, np.exp(1j * np.pi / 4) * np.eye(4))


@given(st.integers(3, 64), st.integers(-8, 8), st.integers(-8, 8),
       st.integers(-8, 8), st.integers(-8, 8))
@settings(max_examples=60, deadline=None)
def test_weyl_commutation_relation(N, m1, m2, n1, n2):
    sigma = m1 * n2 - m2 * n1
    lhs = translation_op(N, (m1, m2)) @ translation_op(N, (n1, n2))
    rhs = np.exp(-1j * np.pi * sigma / N) * translation_op(N, (m1 + n1, m2 + n2))
    assert np.abs(lhs - rhs).max() < 1e-13


@given(st.integers(3, 64), st.integers(-10, 10), st.integers(-10, 10))
@settings(max_examples=40, deadline=None)
def test_translation_adjoint(N, n1, n2):
    T = translation_op(N, (n1, n2))
    assert np.abs(T.conj().T - translation_op(N, (-n1, -n2))).max() < 1e-13
    assert np.abs(T.conj().T @ T - np.eye(N)).max() < 1e-13


freq = st.tuples(st.integers(-200, 200), st.integers(-200, 200))


@given(st.integers(1, 128), freq, freq, st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_matrix_free_matches_dense(N, n, m, seed):
    rng = np.random.default_rng(seed)
    # 0.3 cos at n plus -1.7 cos at m, merged where n = +-m
    coeffs = {}
    for B in (TrigObservable.cosine(n, 0.3), TrigObservable.cosine(m, -1.7)):
        for k, c in B.coefficients.items():
            coeffs[k] = coeffs.get(k, 0.0) + c
    A = TrigObservable(coeffs)
    # a vector, and an (N, 3) block of columns
    for shape in (N, (N, 3)):
        psi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        assert np.abs(translation_apply(n, psi)
                      - translation_op(N, n) @ psi).max() < 1e-13
        assert np.abs(op_apply(A, psi) - weyl_quantize(N, A) @ psi).max() < 1e-13


def op_apply_reference(A: TrigObservable, psi: np.ndarray) -> np.ndarray:
    """Op_N(A) psi as a sum of whole translated copies, one per coefficient."""
    out = np.zeros_like(psi, dtype=complex)
    for m, c in A.coefficients.items():
        out += c * translation_apply(m, psi)
    return out


@pytest.mark.parametrize("N", [1, 7, 64, 512])
def test_op_apply_matches_reference_bit_for_bit(N):
    """The in-place gather scales in the reference's order, phase first and
    then c, so a vector and a block of columns agree to the last bit."""
    rng = np.random.default_rng(N)
    A = TrigObservable({(1, 0): 0.3, (-1, 0): 0.3, (2, -3): -1j, (-2, 3): 1j,
                        (0, 0): 0.7, (5, 11): 0.2 + 0.1j, (-5, -11): 0.2 - 0.1j})
    for shape in (N, (N, 5)):
        psi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        assert np.array_equal(op_apply(A, psi), op_apply_reference(A, psi))


@pytest.mark.parametrize("N", [7, 64, 509, 512])
def test_quantize_is_sum_of_translations(N):
    """Frequencies (0, 1) and (1, 1) both shift columns by one: their terms
    land on the same entries, and the sum is exact."""
    A = TrigObservable({(0, 1): 1.0, (0, -1): 1.0, (1, 1): 0.4, (-1, -1): 0.4})
    dense = np.zeros((N, N), complex)
    for m, c in A.coefficients.items():
        dense += c * translation_op(N, m)
    assert np.array_equal(weyl_quantize(N, A), dense)


def test_observable_reality_enforced():
    with pytest.raises(InvalidObservable):
        TrigObservable({(1, 0): 1.0})
    # conjugate pair is fine
    TrigObservable({(1, 0): 1.0 + 2.0j, (-1, 0): 1.0 - 2.0j})


def test_quantize_constant_is_identity():
    assert np.allclose(weyl_quantize(16, TrigObservable({(0, 0): 1.0})), np.eye(16))


def test_position_observable_is_diagonal():
    op = weyl_quantize(12, TrigObservable.cosine((1, 0)))
    j = np.arange(12)
    assert np.allclose(op, np.diag(2 * np.cos(2 * np.pi * j / 12)), atol=1e-13)


def test_hermiticity_and_linearity():
    rng = np.random.default_rng(3)
    coeffs = {}
    for _ in range(5):
        m = (int(rng.integers(-4, 5)), int(rng.integers(-4, 5)))
        c = complex(rng.normal(), rng.normal())
        coeffs[m] = coeffs.get(m, 0) + c
        neg = (-m[0], -m[1])
        coeffs[neg] = coeffs.get(neg, 0) + np.conj(c)
    A = TrigObservable(coeffs)
    op = weyl_quantize(20, A)
    assert np.abs(op - op.conj().T).max() < 1e-13
    op2 = weyl_quantize(20, TrigObservable({m: 2.0 * c for m, c in coeffs.items()}))
    assert np.allclose(op2, 2 * op)


def test_normalized_trace_equals_mean():
    A = TrigObservable({(0, 0): 0.7, (2, 1): 0.3, (-2, -1): 0.3})
    assert np.trace(weyl_quantize(32, A)) / 32 == pytest.approx(0.7, abs=1e-13)


@pytest.mark.parametrize("N", [17, 64, 1024])
def test_coherent_state_normalized(N):
    psi = coherent_state(N, TorusPoint(0.31, 0.77))
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)


def test_coherent_state_translation_covariance():
    """Center (1/2, 1/2) equals the translated origin state up to phase."""
    N = 64
    a = coherent_state(N, TorusPoint(0.5, 0.5))
    b = translation_op(N, (N // 2, N // 2)) @ coherent_state(N, TorusPoint(0, 0))
    overlap = abs(np.vdot(a, b))
    assert overlap == pytest.approx(1.0, abs=1e-10)


def test_quantizability_condition():
    assert is_quantizable(M)
    arnold = CatMap(2, 1, 1, 1)
    assert not is_quantizable(arnold)
    with pytest.raises(QuantizationConditionError):
        cat_propagator(8, arnold)


@given(st.integers(1, 48), st.sampled_from(["dense", "rank_one", "row", "column"]),
       st.integers(-12, 3), st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_norm_bound_brackets_operator_norm(N, kind, exponent, seed):
    """||X||_2 <= sqrt(||X||_1 ||X||_inf) <= sqrt(N) ||X||_2 on complex
    Gaussian matrices and on rank-one ones u v*, at scales down to the
    defects'. A single row or column is the rank-one case where one of
    ||X||_1 and ||X||_inf alone falls below ||X||_2."""
    rng = np.random.default_rng(seed)
    u, v = rng.normal(size=(2, N, 2)) @ np.array([1, 1j])
    if kind == "dense":
        X = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
    else:
        k = int(rng.integers(N))
        if kind == "row":
            u = np.eye(N)[k]
        elif kind == "column":
            v = np.eye(N)[k]
        X = np.outer(u, v.conj())
    X *= 10.0 ** exponent
    two = np.linalg.norm(X, 2)
    bound = _norm_bound(X)
    assert bound >= two * (1 - 1e-12)
    assert bound <= np.sqrt(N) * two * (1 + 1e-12)


def _propagator_cases():
    """Each map at each N; the default map's cases are named by N alone."""
    for m in MAPS:
        tag = "" if m == M else f"-map{m.a}{m.b}{m.c}{m.d}"
        for N in (5, 8, 64, 127, 512, 1000, 1500):
            yield pytest.param(N, m, id=f"{N}{tag}")


@pytest.mark.parametrize("N, m", _propagator_cases())
def test_propagator_unitary_and_intertwines(N, m):
    U = cat_propagator(N, m)
    assert unitarity_defect(U) < 1e-12
    assert intertwining_defect(U, m) < 1e-12


def _dense_generator_product(N, m):
    """Reference propagator: the product of the dense metaplectic generator
    matrices of the map's theta-group word, the DFT matrix for J and the
    diagonal chirp for G_c, phased so that the (0, 0) entry is real
    positive."""
    j = np.arange(N)
    U = np.eye(N, dtype=complex)
    for token in _theta_group_word(index_action(m)):
        if token[0] == "J":
            U = U @ (np.exp(-2j * np.pi * np.outer(j, j) / N) / np.sqrt(N))
        else:
            U = U @ np.diag(np.exp(-1j * np.pi * token[1] * j * j / N))
    assert abs(U[0, 0]) > 1e-8  # the phase rule's first branch applies
    return U * (np.conj(U[0, 0]) / abs(U[0, 0]))


@pytest.mark.parametrize("m", MAPS)
@pytest.mark.parametrize("N", [5, 8, 64, 127])
def test_propagator_matches_dense_generator_product(N, m):
    """The in-place FFT and chirps give the dense product's matrix, global
    phase included, up to the rounding of the dense product."""
    assert np.abs(cat_propagator(N, m) - _dense_generator_product(N, m)).max() < 1e-12


@pytest.mark.parametrize("m", MAPS[1:], ids=lambda m: f"map{m.a}{m.b}{m.c}{m.d}")
@pytest.mark.parametrize("N", range(2, 131, 4))
def test_global_phase_tie_break(N, m):
    """At N = 2 mod 4 these maps have U[0, 0] = 0 and first-row entries of
    equal modulus; the phase rule makes the first of them real positive,
    whichever of them rounding makes largest."""
    U = cat_propagator(N, m)
    row = np.abs(U[0])
    assert row[0] < 1e-8
    z = U[0, int(np.argmax(row >= row.max() * (1 - 1e-9)))]
    assert z.real > 0 and abs(z.imag) <= 1e-12 * abs(z)


def test_shear_composite_intertwines():
    """The shear product [[1,0],[2,1]] [[1,2],[0,1]] = [[1,2],[2,5]] is a
    quantizable hyperbolic map; its index action carries the parity signs."""
    prod = np.array([[1, 0], [2, 1]]) @ np.array([[1, 2], [0, 1]])
    mp = CatMap(*(int(v) for v in prod.ravel()))
    U = cat_propagator(32, mp)
    assert intertwining_defect(U, mp) < 1e-10
    assert (index_action(mp) == np.array([[1, -2], [-2, 5]])).all()


@pytest.mark.parametrize("N", [8, 64])
def test_intertwining_defect_fails_without_propagator(N):
    """The identity does not quantize the map: ||T[M^-T f] - T[f]|| is near 2."""
    assert intertwining_defect(np.eye(N), M) > 0.5


def test_propagator_multiplicative_up_to_phase():
    """U(M^2) equals U(M)^2 up to a global phase."""
    U1 = cat_propagator(24, M)
    sq = M.matrix() @ M.matrix()
    U2 = cat_propagator(24, CatMap(*(int(v) for v in sq.ravel())))
    phase = np.trace(U2 @ np.linalg.inv(U1 @ U1)) / 24
    assert abs(abs(phase) - 1.0) < 1e-10
    assert np.abs(U2 - phase * (U1 @ U1)).max() < 1e-10


@pytest.mark.parametrize("T", [0, 1, 5])
def test_egorov_defect_small(T):
    A = TrigObservable.cosine((1, 0))
    defects = egorov_defect(cat_propagator(128, M), M, [A], T)
    assert defects.shape == (1, T)
    assert (defects < 1e-9).all()


def test_egorov_mixed_mode():
    observables = [TrigObservable.cosine((2, 1), amplitude=0.5),
                   TrigObservable.cosine((0, 1))]
    defects = egorov_defect(cat_propagator(64, M), M, observables, 3)
    assert defects.shape == (2, 3)
    assert (defects < 1e-9).all()
    # a unitary that does not quantize the map fails the correspondence
    assert egorov_defect(np.eye(64), M, observables, 1).min() > 0.5


def egorov_defect_reference(U, m, observables, T):
    """egorov_defect as op_apply gathers on the columns of U^t and of its
    adjoint, U^t formed from the identity: (Op(A) U^t) - (Op(A o M^t) U^t*)*."""
    defects = np.empty((len(observables), T))
    mat = m.matrix(object)
    mat_t = np.eye(2, dtype=object)
    Ut = np.eye(len(U), dtype=complex)
    for t in range(T):
        Ut = Ut @ U
        mat_t = mat_t @ mat
        Ut_adj = np.ascontiguousarray(Ut.conj().T)
        for i, A in enumerate(observables):
            evolved = op_apply(A, Ut)
            classical = op_apply(A.compose_with(mat_t), Ut_adj).conj().T
            defects[i, t] = _norm_bound(evolved - classical)
    return defects


def intertwining_defect_reference(U, m):
    """intertwining_defect as translation gathers: T[M^-T f] U - (T[-f] U*)*."""
    A = m.inverse_matrix().T
    U_adj = np.ascontiguousarray(U.conj().T)
    return max(_norm_bound(translation_apply(A @ np.asarray(f, np.int64), U)
                           - translation_apply((-f[0], -f[1]), U_adj).conj().T)
               for f in INTERTWINING_FREQUENCIES)


# 26 cosines of amplitude 0.37 (the zero mode, every mode with |m1|, |m2|
# <= 3 up to sign, and a far frequency) and one sine
EQUALITY_OBSERVABLES = (
    [TrigObservable.cosine(m, 0.37) for m in
     [(0, 0)] + [(m1, m2) for m1 in range(4) for m2 in range(-3, 4)
                 if (m1, m2) > (0, 0)] + [(7, -5)]]
    + [TrigObservable({(2, -3): -1j, (-2, 3): 1j})])


@pytest.mark.parametrize("N", [1, 2, 3, 7, 61, 64, 128, 509, 512])
def test_defects_match_reference_bit_for_bit(N):
    """Both defects read from U^t alone, by blocks of rows, equal the gathers
    on U^t and its adjoint to the last bit, for the propagator and for the
    identity, which quantizes no map. At N >= 509 three observables (zero
    mode, far frequency, sine) and one step keep the test short."""
    observables, T = ((EQUALITY_OBSERVABLES, 3) if N < 509 else
                      (EQUALITY_OBSERVABLES[:1] + EQUALITY_OBSERVABLES[-2:], 1))
    for U in (cat_propagator(N, M), np.eye(N)):
        for t in (0, T):
            assert np.array_equal(egorov_defect(U, M, observables, t),
                                  egorov_defect_reference(U, M, observables, t))
        assert intertwining_defect(U, M) == intertwining_defect_reference(U, M)


def test_egorov_gate_fails_for_kicked_map():
    """Negative control of criterion 1: the kicked propagator U diag(exp(-2
    pi i N V(j/N))), V = (eps / 4 pi^2) cos 2 pi x, does not intertwine the
    linear pullback A o M^t: the defect reads 1.8e-4 here."""
    N, eps = 64, 1e-6
    V = eps / (4 * np.pi**2) * np.cos(2 * np.pi * np.arange(N) / N)
    U = cat_propagator(N, M) * np.exp(-2j * np.pi * N * V)
    observables = [TrigObservable.cosine(m) for m in
                   ((1, 0), (0, 1), (1, 1), (2, 1), (3, 3))]
    defects = egorov_defect(U, M, observables, 3)
    assert defects.max() > 1e-9
    assert np.array_equal(defects, egorov_defect_reference(U, M, observables, 3))


def test_intertwining_gate_fails_for_flipped_column():
    """Negative control of criterion 2: flipping the sign of one column of
    the propagator breaks U T[f] U* = T[M^-T f]."""
    U = cat_propagator(64, M)
    U[:, 5] *= -1
    defect = intertwining_defect(U, M)
    assert defect > 1e-10
    assert defect == intertwining_defect_reference(U, M)


def test_propagator_covariance_moves_coherent_state():
    """One step sends the wave packet at rho near M rho."""
    from semiclass_lab.measures import ball_mass, husimi
    N = 128
    rho = TorusPoint(0.2, 0.4)
    U = cat_propagator(N, M)
    psi = U @ coherent_state(N, rho)
    target = TorusPoint(*(M.matrix() @ rho.as_array()))
    g = husimi(psi)
    lam = 2 + np.sqrt(3)
    mass = ball_mass(g, target, min(0.49, 5 * lam / np.sqrt(N)))
    assert mass >= 0.5


# the egorov suite's three check values and the digest of its CSV at
# N = 128, where an SVD 2-norm of the same defects differs in its last bits
# between one and two BLAS threads
THREADED_EGOROV = """
import hashlib, tempfile
from pathlib import Path
from semiclass_lab.config import ExperimentConfig
from semiclass_lab.experiments import run_experiment
with tempfile.TemporaryDirectory() as out:
    report = run_experiment(ExperimentConfig(experiment="egorov", N=128,
                                             out_dir=out).validated())
    for c in report.checks:
        print(c.name, repr(c.value))
    print(hashlib.sha256((Path(out) / "egorov_defects.csv").read_bytes()).hexdigest())
"""


def test_egorov_same_at_one_and_two_blas_threads(at_one_and_two_threads):
    one, two = at_one_and_two_threads(THREADED_EGOROV)
    assert len(one.splitlines()) == 4  # three checks and one file
    assert one == two


@pytest.mark.parametrize("N", [1, 2, 3])
def test_egorov_exact_at_small_N(N):
    """The frequencies of A o M^t grow like 4^t while N is tiny: the translation
    phases reduce them mod 2N in integers, so no precision is lost."""
    observables = [TrigObservable.cosine(m) for m in
                   ((1, 0), (0, 1), (1, 1), (2, 1), (3, 3))]
    observables.append(TrigObservable({(2, -3): -1j, (-2, 3): 1j}))  # 2 sin
    defects = egorov_defect(cat_propagator(N, M), M, observables, 5)
    assert defects.max() < 1e-13


def test_cosine_zero_mode_is_twice_the_amplitude():
    """2 cos 0 = 2: the zero mode is its own negative, so it carries 2a."""
    assert TrigObservable.cosine((0, 0)).mean == 2.0
    assert TrigObservable.cosine((0, 0), 0.3).coefficients == {(0, 0): 0.6}
    assert TrigObservable.cosine((1, 2), 0.3).mean == 0.0


def test_dimension_must_be_positive():
    with pytest.raises(ValueError):
        cat_propagator(0, M)
    with pytest.raises(ValueError):
        coherent_state(0, TorusPoint(0.0, 0.0))
