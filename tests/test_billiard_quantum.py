import json
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
import scipy.special

from semiclass_lab import experiments
from semiclass_lab.billiard import StadiumDomain
from semiclass_lab.billiard_quantum import (BilliardMode, DiscreteDomain,
                                            _class_modes, _parity_bases,
                                            bouncing_ball_scores,
                                            build_laplacian, discretize_stadium,
                                            eigenmodes_near, eigenmodes_window,
                                            qe_spatial_variance, region_masses,
                                            scar_scores, weyl_window_count)
from semiclass_lab.errors import GeometryError, NumericalError, UnderResolved

CIRCLE = StadiumDomain(half_length=0.0, radius=1.0)
BESSEL_J0, BESSEL_J1 = experiments.BESSEL_J0_ZERO, experiments.BESSEL_J1_ZERO
STADIUM = StadiumDomain(half_length=1.0, radius=1.0)


def square_sdf(x, y):
    """Unit square (-1/2, 1/2)^2 test geometry with an exact discrete
    spectrum."""
    return np.maximum(np.abs(x), np.abs(y)) - 0.5


def square_discrete_eigenvalue(h: float, p: int, q: int) -> float:
    """Closed-form eigenvalue of the discrete Dirichlet Laplacian on the
    unit square at spacing h = 1/n, n even, where the grid lines +-1/2 fall
    on the walls."""
    return (2.0 / h**2) * (2.0 - math.cos(math.pi * p * h) - math.cos(math.pi * q * h))


def _box(sdf):
    """A domain for discretize_stadium: signed distance sdf, bounding box
    the unit square (-1/2, 1/2)^2."""
    return SimpleNamespace(signed_distance=sdf,
                           bounding_box=lambda: ((-0.5, -0.5), (0.5, 0.5)))


def _square(h):
    dd = discretize_stadium(_box(square_sdf), h)
    return dd, build_laplacian(dd)


def test_discretize_empty_interior():
    with pytest.raises(GeometryError):
        discretize_stadium(_box(lambda x, y: np.ones_like(x)), 0.1)


def test_laplacian_exactly_symmetric():
    dd = discretize_stadium(STADIUM, 0.05)
    A = build_laplacian(dd)
    assert abs(A - A.T).max() == 0.0


def test_laplacian_needs_a_margin_around_the_interior():
    """The stadium grid with its outer three rows and columns cut off: the
    interior reaches the grid's edge, where a cell has a neighbour off the
    grid."""
    dd = discretize_stadium(STADIUM, 0.05)
    cut = (slice(3, -3), slice(3, -3))
    edged = DiscreteDomain(spacing=dd.spacing, xs=dd.xs[3:-3], ys=dd.ys[3:-3],
                           mask=dd.mask[cut], phi=dd.phi[cut])
    assert edged.mask[[0, -1]].any() and edged.mask[:, [0, -1]].any()
    with pytest.raises(GeometryError, match="edge of the grid"):
        build_laplacian(edged)


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
    """On the unit square centred on the origin the grid lines +-1/2 fall
    on the walls, and the discrete eigenvalues match the closed form to
    solver accuracy."""
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


def test_bessel_zero_constants_are_scipy_values():
    """The billiard-circle suite's constants hold jn_zeros' values to the bit."""
    assert experiments.BESSEL_J0_ZERO == scipy.special.jn_zeros(0, 1)[0]
    assert experiments.BESSEL_J1_ZERO == scipy.special.jn_zeros(1, 1)[0]


# import the package, run the five suites that solve no sparse eigenproblem
# (at criterion 10's small sizes where a suite takes one), then billiard-circle;
# print the scipy modules loaded after each step
_SCIPY_FREE_SUITES = """
import json, sys, tempfile
import semiclass_lab
from semiclass_lab.config import ExperimentConfig
from semiclass_lab.experiments import run_experiment

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

loaded = [scipy_modules()]
with tempfile.TemporaryDirectory() as out:
    for name, size in (("egorov", {"N": 128}), ("qe-catmap", {"N": 128}),
                       ("scar-construction", {"N": 64}), ("entropy-sweep", {}),
                       ("ergodic-orbit", {})):
        report = run_experiment(ExperimentConfig(experiment=name, out_dir=out, **size))
        assert report.checks, name
    loaded.append(scipy_modules())
    run_experiment(ExperimentConfig(experiment="billiard-circle", out_dir=out, h=0.04))
    loaded.append(scipy_modules())
print(json.dumps(loaded))
"""


def test_torus_and_orbit_suites_leave_scipy_unloaded():
    """Only the billiard eigen-solves import scipy: neither the package
    import nor the egorov, qe-catmap, scar-construction, entropy-sweep and
    ergodic-orbit suites load any scipy module. The billiard-circle run
    that follows loads scipy.sparse.linalg, which shows that the probe
    sees a lazy import."""
    src = str(Path(experiments.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _SCIPY_FREE_SUITES], env=env,
                         check=True, capture_output=True, text=True,
                         timeout=300).stdout
    after_import, after_suites, after_circle = json.loads(out)
    assert after_import == []
    assert after_suites == []
    assert "scipy.sparse.linalg" in after_circle


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


def test_region_masses_additive_and_total():
    dd = discretize_stadium(STADIUM, 0.05)
    A = build_laplacian(dd)
    modes = eigenmodes_near(dd, A, 5.0, 4)
    whole, frac = region_masses(modes, lambda x, y: np.ones_like(x))
    left, _ = region_masses(modes, lambda x, y: x < 0)
    right, _ = region_masses(modes, lambda x, y: x >= 0)
    assert frac == 1.0
    assert np.allclose(whole, 1.0, rtol=0, atol=1e-10)
    assert np.allclose(left + right, whole, rtol=0, atol=1e-12)
    assert np.all((0 <= left) & (left <= 1))


def test_scores_on_synthetic_uniform_mode():
    """The flat state lies in the even-even class, as v = Q^T 1 / |Q^T 1|."""
    dd = discretize_stadium(STADIUM, 0.01)
    Q = _parity_bases(dd)[0]
    v = Q.T @ np.ones(dd.n_interior)
    flat = BilliardMode(eigenvalue=0.0, k=0.0, residual=0.0,
                        v=v / np.linalg.norm(v), Q=Q, dd=dd)
    assert np.allclose(flat.wavefunction, 1.0 / np.sqrt(dd.n_interior * 0.01**2),
                       rtol=1e-12, atol=0)
    # both diagnostics divide by their region's share of the cells, so a
    # flat state scores 1 up to rounding
    assert scar_scores([flat], STADIUM)[0] == pytest.approx(1.0, abs=1e-12)
    assert bouncing_ball_scores([flat], STADIUM)[0] == pytest.approx(1.0, abs=1e-12)


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


def _full_solve(A, target_k, count):
    """Eigenvalues of one shift-invert eigsh on the full A, ascending."""
    return np.sort(spla.eigsh(A, k=count, sigma=target_k**2, which="LM")[0])


@pytest.mark.parametrize("case", ["circle", "square"])
def test_near_matches_full_domain_solve(case):
    """The parity-class solves find the count modes nearest the target
    that one full-grid solve finds."""
    if case == "circle":
        dd, target = discretize_stadium(CIRCLE, 0.04), 5.0
        A = build_laplacian(dd)
    else:
        (dd, A), target = _square(1.0 / 40), 7.0
    modes = eigenmodes_near(dd, A, target, 6)
    dist = [abs(m.k - target) for m in modes]
    assert dist == sorted(dist)
    assert np.allclose(sorted(m.eigenvalue for m in modes),
                       _full_solve(A, target, 6), rtol=1e-10, atol=0)


def test_window_matches_full_domain_solve(window_k10):
    """The four parity-class solves find the window's modes of one
    full-grid solve with the same total request."""
    dd, A, modes = window_k10
    n_req = int(1.6 * weyl_window_count(STADIUM, 10.0)) + 10
    full = [lam for lam in _full_solve(A, 10.0, n_req)
            if abs(np.sqrt(lam) - 10.0) <= 1.0]
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


def test_window_modes_store_class_vectors(window_k10):
    """A window mode keeps only its class vector, whose length is its class
    size, about a quarter of the interior cells; it is lifted on demand."""
    dd, _, modes = window_k10
    for m in modes:
        arrays = [a for a in vars(m).values() if isinstance(a, np.ndarray)]
        assert [a.shape for a in arrays] == [(m.Q.shape[1],)]
        assert m.Q.shape == (dd.n_interior, len(m.v))
        assert len(m.v) < dd.n_interior / 3
        assert m.wavefunction.shape == (dd.n_interior,)


_REGIONS = {
    "tube": lambda x, y: np.abs(y) <= 0.1,
    "rectangle": lambda x, y: np.abs(x) <= 1.0,
    "strip": lambda x, y: np.abs(x) <= 0.5,
    "left": lambda x, y: x < 0,
}


@pytest.mark.parametrize("region", _REGIONS)
def test_class_space_masses_match_lifted_grid(window_k10, region):
    """Region masses read in class space equal sum f psi^2 h^2 on the lifted
    modes, and the region's area fraction is its share of the cells."""
    dd, _, modes = window_k10
    f = np.asarray(_REGIONS[region](*dd.interior_points()), float)
    lifted = np.array([(f * m.wavefunction**2).sum() * dd.spacing**2 for m in modes])
    masses, frac = region_masses(modes, _REGIONS[region])
    assert frac == f.mean()
    assert np.abs(masses - lifted).max() < 1e-12


def test_class_space_scores_match_lifted_grid(window_k10):
    dd, _, modes = window_k10
    for scores, region in ((scar_scores, "tube"), (bouncing_ball_scores, "rectangle")):
        f = np.asarray(_REGIONS[region](*dd.interior_points()), float)
        lifted = np.array([(f * m.wavefunction**2).sum() * dd.spacing**2
                           for m in modes]) / f.mean()
        assert np.abs(scores(modes, STADIUM) - lifted).max() < 1e-12


def test_residual_on_class_operator_matches_lifted(window_k10):
    """||B v - lambda v|| on the class operator equals the lifted mode's
    ||A psi - lambda psi|| / ||psi|| up to rounding, since A Q = Q B."""
    _, A, modes = window_k10
    for m in modes:
        psi = m.wavefunction
        lifted = np.linalg.norm(A @ psi - m.eigenvalue * psi) / np.linalg.norm(psi)
        assert abs(m.residual - lifted) < 1e-10
        assert m.residual < 1e-8


def test_window_needs_mirror_grid():
    """A grid shifted by h/2 does not mirror about the axes, so it has no
    parity classes to split a solve into."""
    h = 0.05
    dd = discretize_stadium(STADIUM, h)
    xs, ys = dd.xs + h / 2, dd.ys + h / 2
    phi = STADIUM.signed_distance(*np.meshgrid(xs, ys, indexing="ij"))
    shifted = DiscreteDomain(spacing=h, xs=xs, ys=ys, mask=phi < 0, phi=phi)
    A = build_laplacian(shifted)
    with pytest.raises(GeometryError):
        eigenmodes_window(shifted, A, STADIUM, 5.0)
    with pytest.raises(GeometryError):
        eigenmodes_near(shifted, A, 5.0, 1)


def _solver_log(monkeypatch):
    """Record every factor (its ordering, and its size as the class size)
    and every eigsh call (class size, request k, whether an OPinv was
    passed) of the solves, holding no reference to either."""
    log = SimpleNamespace(factors=[], solves=[])
    splu, eigsh = spla.splu, spla.eigsh

    def counted_splu(M, **kwargs):
        log.factors.append((kwargs.get("permc_spec"), M.shape[0]))
        return splu(M, **kwargs)

    def counted_eigsh(B, **kwargs):
        log.solves.append((B.shape[0], kwargs["k"], kwargs.get("OPinv") is not None))
        return eigsh(B, **kwargs)
    monkeypatch.setattr(spla, "splu", counted_splu)
    monkeypatch.setattr(spla, "eigsh", counted_eigsh)
    return log


def test_window_completeness_guard(monkeypatch):
    """A class holds all its window modes only if its farthest returned
    eigenvalue lies beyond the window's far edge, more than 2k + 1 from
    sigma = k^2; a class that falls short asks again for twice as many, on
    its one factor. A Weyl estimate taken from a smaller domain requests
    too few: discs of radius 0.3 and 0.9 at k=10, whose requests fall
    short in all four classes and in three, and the unit disc at k=10.5,
    where classes return a mode below the window but their farthest mode
    lies inside 2k + 1 = 22 of sigma, so that a mode just inside the upper
    edge could be missing. Each must still return the stadium's own
    window."""
    dd = discretize_stadium(STADIUM, 0.02)
    A = build_laplacian(dd)
    own = {k: [m.k for m in eigenmodes_window(dd, A, STADIUM, k)] for k in (10.0, 10.5)}
    log = _solver_log(monkeypatch)
    for radius, k in ((0.3, 10.0), (0.9, 10.0), (1.0, 10.5)):
        log.factors.clear()
        log.solves.clear()
        small = StadiumDomain(half_length=0.0, radius=radius)
        ks = [m.k for m in eigenmodes_window(dd, A, small, k)]
        assert len(ks) == len(own[k])
        assert np.abs(np.subtract(ks, own[k])).max() < 1e-10
        requests = {}  # each class's successive requests, keyed by class size
        for n, request, _ in log.solves:
            requests.setdefault(n, []).append(request)
        assert [n for _, n in log.factors] == list(requests)  # one factor per class
        assert any(len(r) > 1 for r in requests.values())
        for r in requests.values():
            assert r == [r[0] * 2**i for i in range(len(r))]


def test_class_short_at_its_largest_request_raises(monkeypatch):
    """A class asks again, doubling its request, until it reaches the class
    size - 2; if every eigenvalue still lies within reach of sigma there,
    NumericalError is raised. No eigenvalue lies farther than an infinite
    reach."""
    dd = discretize_stadium(CIRCLE, 0.2)
    A = build_laplacian(dd)
    Q = _parity_bases(dd)[0]
    n = Q.shape[1]
    log = _solver_log(monkeypatch)
    with pytest.raises(NumericalError, match="no mode beyond reach"):
        _class_modes(dd, A, Q, 2.0, 3, math.inf)
    requests = [k for _, k, _ in log.solves]
    assert requests[:-1] == [3 * 2**i for i in range(len(requests) - 1)]
    assert requests[-1] == n - 2
    assert len(log.factors) == 1


def test_one_factor_alive_at_a_time(monkeypatch):
    """Each class's factor is freed before the next class is factored, also
    when a class asks eigsh again on its factor (the radius 0.9 disc's
    Weyl estimate falls short in three classes at k=10)."""
    alive, at_build = set(), []
    splu = spla.splu

    class Factor:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, b):
            return self.lu.solve(b)

    def tracked_splu(M, **kwargs):
        at_build.append(len(alive))
        factor = Factor(splu(M, **kwargs))
        alive.add(len(at_build))
        weakref.finalize(factor, alive.discard, len(at_build))
        return factor
    log = _solver_log(monkeypatch)
    monkeypatch.setattr(spla, "splu", tracked_splu)
    dd = discretize_stadium(STADIUM, 0.02)
    eigenmodes_window(dd, build_laplacian(dd), StadiumDomain(half_length=0.0, radius=0.9),
                      10.0)
    assert len(log.solves) > 4
    assert at_build == [0, 0, 0, 0]
    assert not alive


def test_window_factors_each_class_once(monkeypatch):
    """Each parity class is factored once, under the MMD ordering, and
    eigsh applies that factor instead of factoring the class itself. At
    these suite-like windows each class's Weyl estimate plus its margin
    reaches past the window at the first request: one eigsh call per
    class."""
    log = _solver_log(monkeypatch)
    dd = discretize_stadium(STADIUM, 0.02)
    A = build_laplacian(dd)
    for center_k, requests in ((10.0, [10, 9, 9, 9]), (8.0, [8, 8, 8, 7]),
                               (15.0, [12, 12, 12, 11]), (19.5, [15, 14, 15, 14])):
        log.factors.clear()
        log.solves.clear()
        eigenmodes_window(dd, A, STADIUM, center_k)
        assert [spec for spec, _ in log.factors] == ["MMD_AT_PLUS_A"] * 4
        assert [k for _, k, _ in log.solves] == requests
        assert all(has_opinv for _, _, has_opinv in log.solves)


@pytest.mark.parametrize("target, parity", [(BESSEL_J0, (1, 1)), (BESSEL_J1, (1, -1))])
def test_near_solves_only_the_named_class(monkeypatch, target, parity):
    """With parity = (sx, sy), one class is factored and solved, and its
    mode is the four-class pick of the circle's J0 or J1 mode."""
    dd = discretize_stadium(CIRCLE, 0.04)
    A = build_laplacian(dd)
    picked = eigenmodes_near(dd, A, target, 1)[0]
    log = _solver_log(monkeypatch)
    mode = eigenmodes_near(dd, A, target, 1, parity=parity)[0]
    assert len(log.factors) == 1 and len(log.solves) == 1
    assert abs(mode.k - picked.k) < 1e-12
    for axis, sign in enumerate(parity):
        assert np.array_equal(mode.wavefunction[_mirror(dd, axis)], sign * mode.wavefunction)
    with pytest.raises(ValueError):
        eigenmodes_near(dd, A, target, 1, parity=(1, 0))


def test_singular_shift_is_numerical_error(monkeypatch):
    def singular(M, **kwargs):
        raise RuntimeError("Factor is exactly singular")
    monkeypatch.setattr(spla, "splu", singular)
    dd = discretize_stadium(STADIUM, 0.1)
    with pytest.raises(NumericalError, match="exactly singular"):
        eigenmodes_near(dd, build_laplacian(dd), 4.0, 3)


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
    # at h = 0.45 the disc's odd-odd class holds a single cell
    dd = discretize_stadium(CIRCLE, 0.45)
    with pytest.raises(UnderResolved):
        eigenmodes_near(dd, build_laplacian(dd), 1.0, 1)
