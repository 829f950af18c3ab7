import numpy as np
import pytest

from semiclass_lab.catmap import DEFAULT_MAP, TorusPoint
from semiclass_lab.errors import NumericalError
from semiclass_lab.spectral import (EigenDecomposition, degeneracy_clusters,
                                    diagonalize, matrix_order_mod,
                                    quantum_period, scarred_state,
                                    short_period_dimensions)
from semiclass_lab.torus_quantum import (cat_propagator, coherent_state,
                                         unitarity_defect)

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
