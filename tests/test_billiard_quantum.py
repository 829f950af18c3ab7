import numpy as np
import pytest
import scipy.sparse as sp
import scipy.special

from semiclass_lab.billiard import StadiumDomain
from semiclass_lab.billiard_quantum import (bouncing_ball_score, build_laplacian,
                                            discretize, discretize_stadium,
                                            eigenmodes_near, eigenmodes_window,
                                            position_measure, qe_spatial_variance,
                                            scar_score, square_discrete_eigenvalue,
                                            square_sdf, weyl_window_count)
from semiclass_lab.errors import GeometryError, NumericalError, UnderResolved

CIRCLE = StadiumDomain(half_length=0.0, radius=1.0)
STADIUM = StadiumDomain(half_length=1.0, radius=1.0)


def _square(h):
    dd = discretize(square_sdf, (-2 * h, -2 * h), (1 + 2 * h, 1 + 2 * h), h)
    return dd, build_laplacian(dd)


def test_discretize_empty_interior():
    with pytest.raises(GeometryError):
        discretize(lambda x, y: np.ones_like(x), (0, 0), (1, 1), 0.1)


def test_laplacian_exactly_symmetric():
    dd = discretize_stadium(STADIUM, 0.05)
    A = build_laplacian(dd)
    assert abs(A - A.T).max() == 0.0


def _mirror(dd, axis):
    """Interior cell index -> index of its image under x -> -x (axis 0) or
    y -> -y (axis 1)."""
    return np.flip(dd.cell_index(), axis)[dd.mask]


@pytest.mark.parametrize("domain", [STADIUM, CIRCLE])
def test_stadium_grid_mirrors_exactly(domain):
    dd = discretize_stadium(domain, 0.01)
    assert np.array_equal(dd.xs, -dd.xs[::-1])
    assert np.array_equal(dd.ys, -dd.ys[::-1])
    for axis in (0, 1):
        assert np.array_equal(dd.mask, np.flip(dd.mask, axis))
        assert np.array_equal(dd.phi, np.flip(dd.phi, axis))


@pytest.mark.parametrize("h", [0.05, 0.01])
def test_laplacian_commutes_with_reflections(h):
    dd = discretize_stadium(STADIUM, h)
    A = build_laplacian(dd)
    n = dd.n_interior
    for axis in (0, 1):
        P = sp.csr_matrix((np.ones(n), (np.arange(n), _mirror(dd, axis))), shape=(n, n))
        assert abs(P @ A - A @ P).max() == 0.0


def test_square_spectrum_exact():
    """On the unit square the grid is boundary-aligned and the discrete
    eigenvalues match the closed form to solver accuracy."""
    h = 1.0 / 40
    dd, A = _square(h)
    exact = sorted(square_discrete_eigenvalue(h, p, q)
                   for p in range(1, 5) for q in range(1, 5))[:6]
    modes = eigenmodes_near(dd, A, np.sqrt(exact[0]), 6)
    got = sorted(m.eigenvalue for m in modes)
    assert np.allclose(got, exact[:6], rtol=1e-8)
    for m in modes:
        assert m.residual < 1e-8


def test_mode_normalization():
    h = 1.0 / 30
    dd, A = _square(h)
    modes = eigenmodes_near(dd, A, np.pi * np.sqrt(2), 3)
    for m in modes:
        assert (m.wavefunction**2).sum() * h**2 == pytest.approx(1.0, abs=1e-10)


def test_circle_ground_mode_matches_bessel_zero():
    j01 = scipy.special.jn_zeros(0, 1)[0]
    dd = discretize_stadium(CIRCLE, 0.04)
    A = build_laplacian(dd)
    mode = eigenmodes_near(dd, A, j01, 1)[0]
    assert abs(mode.k - j01) / j01 < 5e-3


def test_modes_pairwise_orthogonal():
    h = 1.0 / 30
    dd, A = _square(h)
    modes = eigenmodes_near(dd, A, 7.0, 6)
    V = np.column_stack([m.wavefunction for m in modes]) * h
    gram = V.T @ V
    assert np.abs(gram - np.diag(np.diag(gram))).max() < 1e-8


def test_position_measure_additive_and_total():
    dd = discretize_stadium(STADIUM, 0.05)
    A = build_laplacian(dd)
    mode = eigenmodes_near(dd, A, 5.0, 1)[0]
    whole = position_measure(mode, lambda x, y: np.ones_like(x))
    left = position_measure(mode, lambda x, y: x < 0)
    right = position_measure(mode, lambda x, y: x >= 0)
    assert whole == pytest.approx(1.0, abs=1e-10)
    assert left + right == pytest.approx(whole, abs=1e-12)
    assert 0 <= left <= 1


def test_scores_on_synthetic_uniform_mode():
    h = 0.01
    dd = discretize_stadium(STADIUM, h)
    A = build_laplacian(dd)
    mode = eigenmodes_near(dd, A, 5.0, 1)[0]
    uniform = np.full_like(mode.wavefunction,
                           1.0 / np.sqrt(len(mode.wavefunction) * h**2))
    flat = type(mode)(eigenvalue=mode.eigenvalue, k=mode.k, wavefunction=uniform,
                      x=mode.x, y=mode.y, spacing=mode.spacing, residual=0.0)
    # both diagnostics divide by their region's share of the cells, so a
    # flat state scores 1 up to rounding
    assert scar_score(flat, STADIUM) == pytest.approx(1.0, abs=1e-12)
    assert bouncing_ball_score(flat, STADIUM) == pytest.approx(1.0, abs=1e-12)


def test_window_count_near_weyl():
    dd = discretize_stadium(STADIUM, 0.02)
    A = build_laplacian(dd)
    modes = eigenmodes_window(dd, A, STADIUM, 10.0)
    pred = STADIUM.area / (4 * np.pi) * (11.0**2 - 9.0**2)
    assert abs(len(modes) - pred) <= 0.3 * pred + 3
    ks = [m.k for m in modes]
    assert all(9.0 <= k <= 11.0 for k in ks)
    assert ks == sorted(ks)


@pytest.fixture(scope="module")
def window_k10():
    dd = discretize_stadium(STADIUM, 0.02)
    A = build_laplacian(dd)
    return dd, A, eigenmodes_window(dd, A, STADIUM, 10.0)


def test_window_matches_full_domain_solve(window_k10):
    """The four parity-class solves find the window's modes of one
    full-grid solve with the same total request."""
    dd, A, modes = window_k10
    n_req = int(1.6 * weyl_window_count(STADIUM, 10.0)) + 10
    full = sorted(m.eigenvalue for m in eigenmodes_near(dd, A, 10.0, n_req)
                  if abs(m.k - 10.0) <= 1.0)
    assert len(modes) == len(full)
    assert np.allclose([m.eigenvalue for m in modes], full, rtol=1e-10, atol=0)


def test_window_modes_have_exact_parity(window_k10):
    dd, _, modes = window_k10
    classes = set()
    for m in modes:
        parity = []
        for axis in (0, 1):
            image = m.wavefunction[_mirror(dd, axis)]
            assert (np.array_equal(image, m.wavefunction)
                    or np.array_equal(image, -m.wavefunction))
            parity.append(np.array_equal(image, m.wavefunction))
        classes.add(tuple(parity))
    assert len(classes) == 4


def test_window_needs_mirror_grid():
    """The unit square's grid does not mirror about the origin, so it has no
    parity classes to split a window into."""
    dd, A = _square(1.0 / 30)
    with pytest.raises(GeometryError):
        eigenmodes_window(dd, A, STADIUM, 5.0)


def test_window_completeness_guard():
    """A Weyl count taken from a smaller domain (a disc of radius 0.3)
    requests 11 modes where the stadium has about 23: every mode returned
    lies in the window, so the window cannot be trusted to be complete."""
    dd = discretize_stadium(STADIUM, 0.02)
    A = build_laplacian(dd)
    small = StadiumDomain(half_length=0.0, radius=0.3)
    with pytest.raises(NumericalError):
        eigenmodes_window(dd, A, small, 10.0)


def test_qe_spatial_variance_requires_modes():
    dd = discretize_stadium(STADIUM, 0.1)
    A = build_laplacian(dd)
    modes = eigenmodes_near(dd, A, 4.0, 3)
    with pytest.raises(ValueError):
        qe_spatial_variance(modes, lambda x, y: x < 0)


def test_resolution_guard():
    dd = discretize_stadium(STADIUM, 0.1)
    A = build_laplacian(dd)
    with pytest.raises(UnderResolved):
        eigenmodes_near(dd, A, 6.0, 2)
