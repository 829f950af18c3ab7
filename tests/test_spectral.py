import numpy as np
import pytest

from semiclass_lab.catmap import DEFAULT_MAP, TorusPoint
from semiclass_lab.errors import NumericalError
from semiclass_lab.spectral import (degeneracy_clusters, diagonalize,
                                    matrix_order_mod, quantum_period,
                                    scarred_state, short_period_dimensions)
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
