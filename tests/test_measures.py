import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiclass_lab.catmap import DEFAULT_MAP, TorusPoint
from semiclass_lab.errors import AliasingError
from semiclass_lab.measures import (ModelMeasure, ball_mass,
                                    eigenbasis_elements, husimi,
                                    matrix_element, qe_variance,
                                    weak_star_distance, wigner_coefficients)
from semiclass_lab.spectral import diagonalize
from semiclass_lab.torus_quantum import (TrigObservable, cat_propagator,
                                         coherent_state)

M = DEFAULT_MAP


def _random_state(N, seed=0):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=N) + 1j * rng.normal(size=N)
    return psi / np.linalg.norm(psi)


def test_matrix_element_constant():
    psi = _random_state(32)
    assert matrix_element(psi, TrigObservable({(0, 0): 1.0})) == \
        pytest.approx(1.0, abs=1e-12)


def test_matrix_element_position_basis():
    """Position observables act diagonally on basis vectors."""
    A = TrigObservable.cosine((1, 0))
    for j in (0, 5, 13):
        e = np.zeros(24, complex)
        e[j] = 1.0
        assert matrix_element(e, A) == \
            pytest.approx(2 * np.cos(2 * np.pi * j / 24), abs=1e-12)


def test_matrix_element_coherent_state_near_symbol_value():
    cs = coherent_state(256, TorusPoint(0, 0))
    val = matrix_element(cs, TrigObservable.cosine((1, 0)))
    assert abs(val - 2.0) < 0.05  # 2 - O(1/N)
    assert val < 2.0


@given(st.integers(0, 1000))
@settings(max_examples=20, deadline=None)
def test_matrix_element_real_and_linear(seed):
    rng = np.random.default_rng(seed)
    psi = _random_state(16, seed)
    coeffs = {}
    for _ in range(4):
        m = (int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
        c = complex(rng.normal(), rng.normal())
        coeffs[m] = coeffs.get(m, 0) + c
        coeffs[(-m[0], -m[1])] = coeffs.get((-m[0], -m[1]), 0) + np.conj(c)
    A = TrigObservable(coeffs)
    B = TrigObservable.cosine((1, 1))
    va, vb = matrix_element(psi, A), matrix_element(psi, B)
    for m, c in B.coefficients.items():
        coeffs[m] = coeffs.get(m, 0) + c
    vab = matrix_element(psi, TrigObservable(coeffs))  # A + B
    assert vab == pytest.approx(va + vb, abs=1e-10)


def test_wigner_normalization_and_symmetry():
    psi = _random_state(32, 5)
    w = wigner_coefficients(psi, 6)
    assert w.shape == (13, 13)
    assert w[6, 6] == pytest.approx(1.0, abs=1e-12)
    assert (np.abs(w) <= 1 + 1e-12).all()
    # entry [m1 + 6, m2 + 6] against [-m1 + 6, -m2 + 6]
    assert np.abs(w[::-1, ::-1] - w.conj()).max() <= 1e-12


def test_wigner_aliasing_guard():
    with pytest.raises(AliasingError):
        wigner_coefficients(_random_state(16), 8)


def test_position_basis_vector_delocalized_in_momentum():
    e = np.zeros(16, complex)
    e[3] = 1.0
    w = wigner_coefficients(e, 2)
    # pure position state: the position-frequency coefficient has modulus 1
    assert abs(w[1 + 2, 0 + 2]) == pytest.approx(1.0, abs=1e-12)


def test_eigenbasis_average_wigner_vanishes():
    """Averaging over a full eigenbasis gives (1/N) tr T(m) = 0 off zero."""
    dec = diagonalize(cat_propagator(30, M))
    acc = sum(wigner_coefficients(dec.eigenvectors[:, n], 3) / 30
              for n in range(30))
    acc[3, 3] = 0.0  # frequency (0, 0)
    assert (np.abs(acc) < 1e-12).all()


def test_husimi_peak_and_mass():
    psi = coherent_state(256, TorusPoint(0.5, 0.5))
    g = husimi(psi)
    assert g.G == 32  # 2 sqrt(256), so (1/2, 1/2) is a grid point
    assert g.values.sum() == pytest.approx(1.0, abs=1e-12)
    assert (g.values >= 0).all()
    i, k = np.unravel_index(np.argmax(g.values), g.values.shape)
    assert (i / g.G, k / g.G) == (0.5, 0.5)


def husimi_reference(psi):
    """husimi with every coherent state summed over all five Gaussian
    translates, each weight exponentiated whether or not it underflows."""
    N = len(psi)
    G = max(8, math.ceil(2 * math.sqrt(N)))
    j = np.arange(N)
    xi0 = np.arange(G) / G
    H = np.empty((G, G))
    for i in range(G):
        x0 = i / G
        rows = np.zeros((G, N), complex)
        base = np.rint(j / N - x0).astype(int)
        for k in (-2, -1, 0, 1, 2):
            m = base + k
            dx = j / N - x0 - m
            rows += np.exp(-np.pi * N * dx**2) * np.exp(2j * np.pi * N * xi0[:, None] * (j / N - m))
        for row in rows:
            row /= np.linalg.norm(row)
        H[i] = np.abs(rows.conj() @ psi) ** 2
    return H / H.sum()


@pytest.mark.parametrize("N", [1, 2, 56, 195, 260, 512])
def test_husimi_matches_five_translates_bit_for_bit(N):
    """Skipping the translates whose Gaussian weight is exactly 0.0 moves no
    bit: N = 1 and 2 skip none, the scar dimensions some, N = 512 most."""
    psi = _random_state(N, seed=N)
    assert np.array_equal(husimi(psi).values, husimi_reference(psi))


def test_ball_mass_uniform_and_monotone():
    from semiclass_lab.measures import HusimiGrid
    G = 64
    uniform = HusimiGrid(values=np.full((G, G), 1.0 / G**2), G=G)
    m = ball_mass(uniform, TorusPoint(0.3, 0.6), 0.1)
    assert abs(m - np.pi * 0.01) < 2 * np.pi * 0.1 * (1 / G)  # one cell layer
    big = ball_mass(uniform, TorusPoint(0.3, 0.6), 0.49)
    assert big == pytest.approx(np.pi * 0.49**2, abs=0.02)
    masses = [ball_mass(uniform, TorusPoint(0, 0), e) for e in (0.05, 0.1, 0.2, 0.4)]
    assert all(a <= b for a, b in zip(masses, masses[1:]))


def test_coherent_ball_mass_concentrated():
    N = 128
    psi = coherent_state(N, TorusPoint(0.25, 0.75))
    g = husimi(psi)
    assert ball_mass(g, TorusPoint(0.25, 0.75), 3 / np.sqrt(N)) >= 0.95


def test_qe_variance_trivial_cases():
    dec = diagonalize(cat_propagator(64, M))

    def variance(A):
        return qe_variance(eigenbasis_elements(dec, A), A.mean)

    const = TrigObservable({(0, 0): 3.0})
    assert variance(const) < 1e-20
    A = TrigObservable.cosine((1, 1))
    shifted = TrigObservable({(1, 1): 1.0, (-1, -1): 1.0, (0, 0): 2.5})
    assert variance(shifted) == pytest.approx(variance(A), abs=1e-12)


def test_eigenbasis_elements_equal_matrix_element():
    """The one gather over the basis gives matrix_element's bytes on every
    eigenvector, which keeps qe_variance.csv unchanged."""
    dec = diagonalize(cat_propagator(64, M))
    A = TrigObservable.cosine((1, 1))
    loop = [matrix_element(dec.eigenvectors[:, n], A) for n in range(64)]
    assert np.array_equal(eigenbasis_elements(dec, A), loop)


def test_basis_average_identity():
    dec = diagonalize(cat_propagator(64, M))
    A = TrigObservable.cosine((2, 1), amplitude=0.7)
    mus = [matrix_element(dec.eigenvectors[:, n], A) for n in range(64)]
    assert np.mean(mus) == pytest.approx(A.mean, abs=1e-10)


def test_eigenstate_measures_invariant():
    """mu_v(A o M) = mu_v(A) through exact Egorov."""
    dec = diagonalize(cat_propagator(64, M))
    A = TrigObservable({(1, 0): 1.0, (-1, 0): 1.0, (1, 1): 0.5, (-1, -1): 0.5})
    comp = A.compose_with(M.matrix())
    for n in (0, 17, 40):
        v = dec.eigenvectors[:, n]
        assert matrix_element(v, comp) == \
            pytest.approx(matrix_element(v, A), abs=1e-9)


def test_model_measure_coefficients():
    def at(model, m1, m2, cutoff=5):  # the coefficient at frequency (m1, m2)
        f = model.fourier(cutoff)
        assert f.shape == (2 * cutoff + 1, 2 * cutoff + 1)
        return f[m1 + cutoff, m2 + cutoff]

    leb = ModelMeasure.lebesgue()
    assert at(leb, 0, 0) == 1.0
    assert at(leb, 2, -1) == 0.0
    atom = ModelMeasure.periodic_orbit([TorusPoint(0, 0)])
    assert at(atom, 3, 5) == pytest.approx(1.0)
    half = ModelMeasure.mixture(0.5, [TorusPoint(0, 0)])
    assert at(half, 3, 5) == pytest.approx(0.5)
    assert at(half, 0, 0) == pytest.approx(1.0)
    orbit = ModelMeasure.periodic_orbit([TorusPoint(0, 0.5), TorusPoint(0.5, 0)])
    assert at(orbit, 1, 1) == pytest.approx(-1.0)


def test_weak_star_distance_eigenbasis_average():
    dec = diagonalize(cat_propagator(30, M))
    # mixed-state analog through explicit averaging of coefficients
    acc = sum(wigner_coefficients(dec.eigenvectors[:, n], 8) / 30
              for n in range(30))
    assert weak_star_distance(acc, ModelMeasure.lebesgue()) < 1e-12


def test_weak_star_requires_cutoff():
    w = wigner_coefficients(_random_state(64), 4)
    with pytest.raises(ValueError):
        weak_star_distance(w, ModelMeasure.lebesgue())


def test_model_measure_rejects_bad_parts():
    with pytest.raises(ValueError):
        ModelMeasure.periodic_orbit([])
    for weight in (-0.1, 1.5):
        with pytest.raises(ValueError):
            ModelMeasure.mixture(weight, [TorusPoint(0, 0)])
