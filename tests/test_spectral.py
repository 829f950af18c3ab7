import numpy as np
import pytest
import scipy.linalg

from semiclass_lab import spectral
from semiclass_lab.catmap import DEFAULT_MAP, CatMap, TorusPoint
from semiclass_lab.errors import NumericalError
from semiclass_lab.measures import eigenbasis_elements
from semiclass_lab.spectral import (DEGENERACY_TOL, RESIDUAL_TOL,
                                    EigenDecomposition, degeneracy_clusters,
                                    diagonalize, matrix_order_mod,
                                    quantum_period, scarred_state,
                                    short_period_dimensions)
from semiclass_lab.torus_quantum import (TrigObservable, cat_propagator,
                                         coherent_state, unitarity_defect)

M = DEFAULT_MAP


def test_diagonalize_identity():
    dec = diagonalize(np.eye(5, dtype=complex))
    assert np.allclose(dec.eigenphases, 0.0)
    assert np.abs(dec.eigenvectors.conj().T @ dec.eigenvectors - np.eye(5)).max() < 1e-12


def test_diagonalize_diagonal_case():
    dec = diagonalize(np.diag([1j, -1j]))
    assert np.allclose(sorted(dec.eigenphases), [np.pi / 2, 3 * np.pi / 2])


def test_diagonalize_rejects_non_unitary():
    with pytest.raises(NumericalError):
        diagonalize(np.diag([2.0, 1.0]).astype(complex))


def test_diagonalize_rejects_propagator_just_off_unitary():
    """(1 + 1e-9) U has ||U* U - I|| about 2e-9, twenty times the 1e-10
    gate: the cheap norm bound still rejects it for a real reason."""
    U = (1 + 1e-9) * cat_propagator(64, M)
    assert unitarity_defect(U) > 1e-10
    with pytest.raises(NumericalError):
        diagonalize(U)


def test_spectral_reconstruction():
    U = cat_propagator(64, M)
    dec = diagonalize(U)
    assert len(dec.eigenphases) == 64
    assert np.all(np.diff(dec.eigenphases) >= 0)
    V = dec.eigenvectors
    rebuilt = (V * np.exp(1j * dec.eigenphases)) @ V.conj().T
    assert np.linalg.norm(rebuilt - U, 2) < 1e-9


def _parity_classes(dec):
    """Eigenphase-sorted decompositions of the even and odd eigenvectors,
    each vector's parity read from <v, R v> with R: psi_j -> psi_{-j mod N}."""
    V = dec.eigenvectors
    N = len(V)
    parity = np.einsum("ij,ij->j", V.conj(), V[-np.arange(N) % N]).real
    assert np.abs(np.abs(parity) - 1).max() < 1e-10
    return [EigenDecomposition(dec.eigenphases[cls], V[:, cls])
            for cls in (parity > 0, parity < 0)]


@pytest.mark.parametrize("N", [64, 512])
def test_cat_map_spectrum_simple_per_parity_class(N):
    """At power-of-two N every degenerate pair holds one even and one odd
    vector, so within a class no eigenphase repeats."""
    dec = diagonalize(cat_propagator(N, M))
    even, odd = _parity_classes(dec)
    assert len(even.eigenphases) == N // 2 + 1
    for cls in (even, odd):
        assert max(len(idx) for _, idx in degeneracy_clusters(cls)) == 1


@pytest.mark.parametrize("N", [1, 2, 3])
def test_diagonalize_small_dimensions(N):
    """N <= 2 has no odd class; N = 3 has one vector in it."""
    U = cat_propagator(N, M)
    dec = diagonalize(U)
    V = dec.eigenvectors
    assert np.all(np.diff(dec.eigenphases) >= 0)
    assert np.abs(V.conj().T @ V - np.eye(N)).max() < 1e-12
    assert np.abs(U @ V - V * np.exp(1j * dec.eigenphases)).max() < 1e-12
    sizes = [len(c.eigenphases) for c in _parity_classes(dec)]
    assert sizes == [N // 2 + 1, (N - 1) // 2]


def test_diagonalize_rejects_operator_not_commuting_with_parity():
    """diag(e^{i theta_j}) commutes with R only if theta_j = theta_{N-j}."""
    with pytest.raises(NumericalError, match="parity"):
        diagonalize(np.diag(np.exp(1j * np.array([0.1, 0.2, 0.3, 0.4]))))


def diagonalize_reference(U: np.ndarray) -> EigenDecomposition:
    """The former diagonalize: each parity block's complex Schur form,
    eigenphases in [0, 2pi), and the guards read on the lifted N x N basis."""
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
    Te, Ze = scipy.linalg.schur(even, output="complex")
    To, Zo = scipy.linalg.schur(odd, output="complex")
    phases = np.angle(np.concatenate([np.diag(Te), np.diag(To)])) % (2 * np.pi)
    # lift Q Z into one basis, even vectors first
    ne = len(fixed) + len(lo)
    V = np.zeros((N, N), dtype=complex)
    V[fixed, :ne] = Ze[:len(fixed)]
    V[lo, :ne] = V[hi, :ne] = s * Ze[len(fixed):]
    V[lo, ne:] = s * Zo
    V[hi, ne:] = -V[lo, ne:]
    order = np.argsort(phases, kind="stable")
    phases = phases[order]
    V = V[:, order]
    resid = np.abs(U @ V - V * np.exp(1j * phases)).max()
    ortho = np.abs(V.conj().T @ V - np.eye(N)).max()
    if resid > RESIDUAL_TOL or ortho > RESIDUAL_TOL:
        raise NumericalError(
            f"eigensolver residual {resid:.2e}, orthogonality defect {ortho:.2e}"
        )
    return EigenDecomposition(eigenphases=phases, eigenvectors=V)


def _in_canonical_range(dec):
    """dec with its eigenphases moved from [0, 2pi) into diagonalize's range
    [-DEGENERACY_TOL, 2pi - DEGENERACY_TOL), and re-sorted."""
    ph = np.where(dec.eigenphases >= 2 * np.pi - DEGENERACY_TOL,
                  dec.eigenphases - 2 * np.pi, dec.eigenphases)
    order = np.argsort(ph, kind="stable")
    return EigenDecomposition(ph[order], dec.eigenvectors[:, order])


@pytest.mark.parametrize("m", [DEFAULT_MAP, CatMap(1, 2, 2, 5)])
@pytest.mark.parametrize("N", [1, 2, 3, 7, 56, 64, 128, 509, 512])
def test_diagonalize_matches_schur_reference(N, m):
    """The Cayley eigensolve against the former Schur path. CatMap(1, 2, 2, 5)
    has a != d, so its propagator is not complex-symmetric. Each cluster's
    sum of eigenbasis elements is the trace of A on the eigenspace, whatever
    basis spans it; at power-of-two N each parity class has a simple
    spectrum, so the vectors themselves agree up to phases."""
    U = cat_propagator(N, m)
    dec, ref = diagonalize(U), _in_canonical_range(diagonalize_reference(U))
    assert np.abs(dec.eigenphases - ref.eigenphases).max() < 1e-12
    clusters = degeneracy_clusters(dec)
    assert [idx.tolist() for _, idx in clusters] == \
        [idx.tolist() for _, idx in degeneracy_clusters(ref)]
    A = TrigObservable.cosine((1, 1))
    mus, ref_mus = eigenbasis_elements(dec, A), eigenbasis_elements(ref, A)
    for _, idx in clusters:
        assert abs(mus[idx].sum() - ref_mus[idx].sum()) < 1e-12
    if N & (N - 1) == 0:
        for cls, ref_cls in zip(_parity_classes(dec), _parity_classes(ref)):
            overlap = np.abs(np.einsum("ij,ij->j", ref_cls.eigenvectors.conj(),
                                       cls.eigenvectors))
            assert np.all(overlap >= 1 - 1e-10)
            assert np.all(np.abs(eigenbasis_elements(cls, A)
                                 - eigenbasis_elements(ref_cls, A)) < 1e-12)


def _parity_unitary(N, rng):
    """Q G, with Q's columns the fold's even basis e_0, e_{N/2},
    (e_j + e_{N-j})/sqrt(2), then its odd basis (e_j - e_{N-j})/sqrt(2),
    and G a random unitary on each class."""
    j = np.arange(N)
    lo = j[1:(N + 1) // 2]
    ne = N // 2 + 1
    even, odd = ne - len(lo) + np.arange(len(lo)), ne + np.arange(len(lo))
    Q = np.zeros((N, N))
    Q[j[-j % N == j], np.arange(ne - len(lo))] = 1.0
    Q[lo, even] = Q[N - lo, even] = Q[lo, odd] = np.sqrt(0.5)
    Q[N - lo, odd] = -np.sqrt(0.5)
    G = np.zeros((N, N), dtype=complex)
    for block in (slice(0, ne), slice(ne, N)):
        n = block.stop - block.start
        G[block, block] = np.linalg.qr(rng.normal(size=(n, n))
                                       + 1j * rng.normal(size=(n, n)))[0]
    return Q @ G


@pytest.mark.parametrize("P", [2, 8, 64])
@pytest.mark.parametrize("N", [1, 2, 3, 4, 9, 64])
def test_pole_clears_phases_on_a_lattice(N, P):
    """Each parity class holds the phases 0 and pi of the lattice 2 pi k / P,
    so a pole fixed at either would meet one; the pole placed in the widest
    gap keeps every block well conditioned. N = 1 and 2 have a 1-row or
    2-row even block and no odd one, N = 3 and 4 a 1-row odd block."""
    rng = np.random.default_rng(N * 1000 + P)
    k = rng.integers(P, size=N)
    ne = N // 2 + 1
    k[0], k[ne - 1] = 0, P // 2
    if ne < N:
        k[ne], k[-1] = 0, P // 2
    theta = 2 * np.pi * k / P
    W = _parity_unitary(N, rng)
    U = (W * np.exp(1j * theta)) @ W.conj().T
    dec = diagonalize(U)
    V = dec.eigenvectors
    assert np.abs(U @ V - V * np.exp(1j * dec.eigenphases)).max() < 1e-12
    assert np.abs(V.conj().T @ V - np.eye(N)).max() < 1e-12
    assert np.abs(dec.eigenphases - np.sort(theta)).max() < 1e-12


def test_block_guards_catch_a_vector_rotated_into_its_neighbour(monkeypatch):
    """A Givens rotation by 1e-6 of each block's first two vectors keeps Z
    orthonormal, so only the residual guard can refuse it."""
    solve = spectral._unitary_eigenvectors

    def rotated(B):
        Z = solve(B)
        c, s = np.cos(1e-6), np.sin(1e-6)
        Z[:, :2] = Z[:, :2] @ np.array([[c, -s], [s, c]])
        assert np.abs(Z.conj().T @ Z - np.eye(len(Z))).max() < 1e-12
        return Z

    monkeypatch.setattr(spectral, "_unitary_eigenvectors", rotated)
    with pytest.raises(NumericalError, match="residual"):
        diagonalize(cat_propagator(64, M))


def test_block_guards_catch_a_non_orthonormal_basis(monkeypatch):
    """One vector scaled by 1 + 1e-6 is still an eigenvector, so only the
    orthogonality guard can refuse it."""
    solve = spectral._unitary_eigenvectors

    def stretched(B):
        Z = solve(B)
        Z[:, 0] *= 1 + 1e-6
        return Z

    monkeypatch.setattr(spectral, "_unitary_eigenvectors", stretched)
    with pytest.raises(NumericalError, match="orthogonality"):
        diagonalize(cat_propagator(64, M))


def test_phase_zero_cluster_stays_at_the_head():
    """Phases -1e-15 and 1e-15 sit in [-DEGENERACY_TOL, 2pi - DEGENERACY_TOL)
    as they are: they lead the spectrum and form one cluster, instead of
    splitting across the 0/2pi cut."""
    theta = np.array([-1e-15, 1e-15, 2.0, 2.0, 1e-15])  # theta_j = theta_{5-j}
    dec = diagonalize(np.diag(np.exp(1j * theta)))
    assert dec.eigenphases.tolist() == [-1e-15, 1e-15, 1e-15, 2.0, 2.0]
    clusters = degeneracy_clusters(dec)
    assert [idx.tolist() for _, idx in clusters] == [[0, 1, 2], [3, 4]]
    assert abs(clusters[0][0]) < 1e-15


THREADED_QE = """
import tempfile
from pathlib import Path
from semiclass_lab.config import ExperimentConfig
from semiclass_lab.experiments import run_experiment
with tempfile.TemporaryDirectory() as out:
    report = run_experiment(ExperimentConfig(experiment="qe-catmap", N=128,
                                             out_dir=out).validated())
    for c in report.checks:
        print(c.name, c.passed)
    rows = (Path(out) / "qe_variance.csv").read_text().splitlines()[1:]
    for row in rows:
        N, variance, _ = row.split(",")
        print(N, variance)
"""


def test_qe_variance_same_at_one_and_two_blas_threads(at_one_and_two_threads):
    """Within each parity class the spectrum is simple, so the eigenbasis
    is unique up to phases and the variance reads it the same way at any
    thread count. The basis-average defect and eigenphases.csv are left
    out: they differ at rounding level."""
    one, two = at_one_and_two_threads(THREADED_QE)
    assert len(one.splitlines()) == 5  # three checks and two variances
    assert one == two


def test_quantum_period_n1():
    qp = quantum_period(M, 5, cat_propagator(1, M))
    assert qp is not None and qp.P == 1


def test_quantum_period_matches_matrix_order():
    for N in (15, 56):
        U = cat_propagator(N, M)
        qp = quantum_period(M, 20, U)
        assert qp is not None
        assert qp.P == matrix_order_mod(M, 2 * N, 20)
        UP = np.linalg.matrix_power(U, qp.P)
        assert np.abs(UP - np.exp(1j * qp.global_phase) * np.eye(N)).max() < 1e-8


def test_quantum_period_absent():
    # generic N: order of M mod 2N far exceeds the small search bound
    assert quantum_period(M, 3, cat_propagator(101, M)) is None


def test_spectrum_on_period_roots():
    N = 56
    U = cat_propagator(N, M)
    qp = quantum_period(M, 12, U)
    dec = diagonalize(U)
    centers = (qp.global_phase + 2 * np.pi * np.arange(qp.P)) / qp.P
    for ph in dec.eigenphases:
        assert np.min(np.abs(np.exp(1j * (ph - centers)) - 1)) < 1e-6


def test_degeneracy_clusters_partition_and_refine():
    dec = diagonalize(cat_propagator(56, M))
    coarse = degeneracy_clusters(dec, 1e-6)
    idx = np.concatenate([c[1] for c in coarse])
    assert sorted(idx) == list(range(56))
    # halving the tolerance only splits clusters
    fine = degeneracy_clusters(dec, 5e-7)
    coarse_sets = [set(c[1].tolist()) for c in coarse]
    for _, members in fine:
        s = set(members.tolist())
        assert any(s <= cs for cs in coarse_sets)


def test_scarred_state_single_term_is_coherent():
    U = cat_propagator(56, M)
    psi = scarred_state(1, U, quantum_period(M, 12, U))
    cs = coherent_state(56, TorusPoint(0, 0))
    assert abs(np.vdot(cs, psi)) == pytest.approx(1.0, abs=1e-10)


def test_scarred_state_normalized_and_scarred():
    from semiclass_lab.measures import ball_mass, husimi
    U = cat_propagator(56, M)
    qp = quantum_period(M, 12, U)
    psi = scarred_state(qp.P // 2, U, qp)
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
    mass = ball_mass(husimi(psi), TorusPoint(0, 0), 0.1)
    assert 0.35 <= mass <= 0.60


def test_scarred_state_concentrates_on_one_cluster():
    U = cat_propagator(56, M)
    qp = quantum_period(M, 12, U)
    dec = diagonalize(U)
    clusters = degeneracy_clusters(dec, 1e-6)

    def top_cluster_weight(psi):
        w = np.abs(dec.eigenvectors.conj().T @ psi) ** 2
        return max(w[idx].sum() for _, idx in clusters) / w.sum()

    # a full-period average is an exact eigenprojection
    assert top_cluster_weight(scarred_state(qp.P, U, qp)) >= 0.99
    # the half-period state still puts most of its weight on one cluster
    assert top_cluster_weight(scarred_state(qp.P // 2, U, qp)) >= 0.5


def test_short_period_dimensions_bound():
    from semiclass_lab.catmap import cat_lyapunov
    dims = short_period_dimensions(M, 50, 300)
    lam = cat_lyapunov(M).lambda_plus
    assert (56, 8) in dims and (195, 12) in dims
    for N, P in dims:
        assert P <= 3 * np.log(N) / lam
