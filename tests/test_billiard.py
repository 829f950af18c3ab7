import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiclass_lab.billiard import (_T_MIN, COVERAGE_CELLS, COVERAGE_SAMPLE_STEP,
                                    GRAZING_TOL, BilliardState, StadiumDomain,
                                    billiard_flow, circle_angular_momentum,
                                    coverage_grid, ergodic_average)
from semiclass_lab.errors import GrazingError

CIRCLE = StadiumDomain(half_length=0.0, radius=1.0)
STADIUM = StadiumDomain(half_length=1.0, radius=1.0)


def _reference_step(a, r, x, y, dx, dy):
    """Next boundary collision as (x', y', dx', dy', t): the nearest
    forward candidate among both walls and both roots of both cap circles."""
    t_best = math.inf
    hit = None  # (x, y, nx, ny)
    if a > 0:
        for ysign in (1.0, -1.0):
            if dy * ysign > 1e-15:
                t = (ysign * r - y) / dy
                if t > _T_MIN and t < t_best:
                    xh = x + t * dx
                    if abs(xh) <= a + 1e-12:
                        t_best = t
                        hit = (xh, ysign * r, 0.0, ysign)
    for xc in ((a,) if a == 0 else (a, -a)):
        px, py = x - xc, y
        bq = px * dx + py * dy
        cq = px * px + py * py - r * r
        disc = bq * bq - cq
        if disc <= 0:
            continue
        sq = math.sqrt(disc)
        for t in (-bq - sq, -bq + sq):
            if _T_MIN < t < t_best:
                xh, yh = x + t * dx, y + t * dy
                if a == 0 or (xh >= a - 1e-12 if xc > 0 else xh <= -a + 1e-12):
                    t_best = t
                    hit = (xh, yh, (xh - xc) / r, yh / r)
    if hit is None:
        raise GrazingError("no forward boundary intersection found")
    xh, yh, nx, ny = hit
    dn = dx * nx + dy * ny
    if abs(dn) < GRAZING_TOL:
        raise GrazingError("tangential collision within grazing tolerance")
    rx, ry = dx - 2.0 * dn * nx, dy - 2.0 * dn * ny
    nrm = math.hypot(rx, ry)
    return xh, yh, rx / nrm, ry / nrm, t_best


def _reference_flow(domain, s, n_bounces):
    """billiard_flow's states by the candidate-minimum step, and the
    cumulative arc length at each, from the chord parameters t."""
    a, r = domain.half_length, domain.radius
    x, y, dx, dy = s.x, s.y, s.dx, s.dy
    orbit = np.empty((n_bounces + 1, 5))
    orbit[0] = (x, y, dx, dy, 0.0)
    for i in range(n_bounces):
        try:
            x, y, dx, dy, t = _reference_step(a, r, x, y, dx, dy)
        except GrazingError as exc:
            raise GrazingError(str(exc), bounce_index=i) from exc
        orbit[i + 1] = (x, y, dx, dy, t)
    return orbit[:, :4], np.cumsum(orbit[:, 4])


def _chord_lengths(states):
    """Length of each chord: the hypot of successive positions."""
    return np.hypot(*np.diff(states[:, :2], axis=0).T)


def _arc_lengths(states):
    """Cumulative arc length at each state, from the chord lengths."""
    return np.concatenate([[0.0], np.cumsum(_chord_lengths(states))])


def test_domain_validation():
    with pytest.raises(ValueError):
        StadiumDomain(half_length=-0.1)
    with pytest.raises(ValueError):
        StadiumDomain(radius=0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_domain_rejects_non_finite(bad):
    """A NaN or infinite shape is refused here, before a discretization
    fails on it or an orbit runs off to infinity."""
    with pytest.raises(ValueError, match="half_length must be finite"):
        StadiumDomain(half_length=bad)
    with pytest.raises(ValueError, match="radius must be finite"):
        StadiumDomain(radius=bad)


def test_area():
    assert CIRCLE.area == pytest.approx(math.pi)
    assert STADIUM.area == pytest.approx(4 + math.pi)


def test_signed_distance_samples():
    assert STADIUM.signed_distance(0.0, 0.0) == pytest.approx(-1.0)
    assert STADIUM.signed_distance(2.0, 0.0) == pytest.approx(0.0)
    assert STADIUM.signed_distance(0.5, 1.0) == pytest.approx(0.0)
    assert STADIUM.signed_distance(3.0, 0.0) == pytest.approx(1.0)


def _first_bounce(domain, s):
    return billiard_flow(domain, s, 1)[1]


def test_diameter_orbit_on_circle():
    s = BilliardState(-1.0, 0.0, 1.0, 0.0)
    x, y, dx, dy = _first_bounce(CIRCLE, s)
    assert (x, y) == pytest.approx((1.0, 0.0))
    assert (dx, dy) == pytest.approx((-1.0, 0.0))


def test_stadium_axis_orbit_reaches_cap_apex():
    s = BilliardState(-1.0, 0.0, 1.0, 0.0)
    x, y, dx, dy = _first_bounce(STADIUM, s)
    assert (x, y) == pytest.approx((2.0, 0.0))
    assert (dx, dy) == pytest.approx((-1.0, 0.0))


@given(st.floats(0.1, 2 * math.pi - 0.1))
@settings(max_examples=50, deadline=None)
def test_specular_law_on_circle(ang):
    """Angle of incidence equals angle of reflection against the normal."""
    s = BilliardState(0.3, -0.2, math.cos(ang), math.sin(ang))
    nxt = _first_bounce(CIRCLE, s)
    n = nxt[:2]  # outward normal of the unit circle
    d_in = np.array([s.dx, s.dy])
    d_out = nxt[2:]
    assert np.dot(d_in, n) == pytest.approx(-np.dot(d_out, n), abs=1e-12)
    assert math.hypot(*d_out) == pytest.approx(1.0, abs=1e-12)


def test_angular_momentum_conserved():
    s = BilliardState(0.31, -0.12, math.cos(0.7), math.sin(0.7))
    L0 = circle_angular_momentum(s)
    states = billiard_flow(CIRCLE, s, 2000)
    Ls = [circle_angular_momentum(BilliardState(*row)) for row in states]
    assert max(abs(L - L0) for L in Ls) < 1e-9
    assert (_chord_lengths(states) > 0).all()


def test_angular_momentum_examples():
    assert circle_angular_momentum(BilliardState(1.0, 0.0, 0.0, 1.0)) == 1.0
    assert circle_angular_momentum(BilliardState(-1.0, 0.0, 1.0, 0.0)) == 0.0


def test_grazing_raises():
    # tangential launch from the boundary of the circle
    s = BilliardState(1.0, 0.0, 0.0, 1.0)
    with pytest.raises(GrazingError):
        billiard_flow(CIRCLE, s, 5)


def test_grazing_error_carries_bounce_index():
    s = BilliardState(1.0, 0.0, 0.0, 1.0)  # grazes at the first bounce
    with pytest.raises(GrazingError) as exc:
        billiard_flow(CIRCLE, s, 5)
    assert exc.value.bounce_index == 0


@given(st.one_of(st.just(0.0), st.floats(0.05, 3.0)), st.floats(0.3, 2.0),
       st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
       st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
       st.floats(0.0, 2 * math.pi))
@settings(max_examples=40, deadline=None)
def test_convex_exit_matches_candidate_minimum(a, r, u, v, ang):
    """From any start inside, the one-exit step gives the reference's orbit
    bit for bit, and raises where it raises, at the same bounce."""
    domain = StadiumDomain(half_length=a, radius=r)
    y = 0.9 * r * u
    x = (a + 0.9 * math.sqrt(r * r - y * y)) * v
    s = BilliardState(x, y, math.cos(ang), math.sin(ang))
    try:
        want_states, want_times = _reference_flow(domain, s, 2000)
    except GrazingError as exc:
        with pytest.raises(GrazingError) as got:
            billiard_flow(domain, s, 2000)
        assert got.value.bounce_index == exc.bounce_index
        return
    states = billiard_flow(domain, s, 2000)
    assert np.array_equal(states, want_states)
    assert np.allclose(_arc_lengths(states), want_times, rtol=1e-12, atol=0)


def test_ergodic_study_orbit_matches_reference():
    """The first 20,000 bounces of a stadium orbit from the ergodic-orbit
    suite's start (0.137, -0.041), at an angle of its own, 0.83."""
    s = BilliardState(0.137, -0.041, math.cos(0.83), math.sin(0.83))
    states = billiard_flow(STADIUM, s, 20_000)
    want_states, want_times = _reference_flow(STADIUM, s, 20_000)
    assert np.array_equal(states, want_states)
    assert np.allclose(_arc_lengths(states), want_times, rtol=1e-12, atol=0)


@pytest.mark.parametrize("x, dx", [(3.0, 1.0), (3.0, -1.0), (math.nan, 1.0)])
def test_start_outside_domain_rejected(x, dx):
    with pytest.raises(ValueError, match="domain"):
        billiard_flow(STADIUM, BilliardState(x, 0.0, dx, 0.0), 5)


def test_nan_direction_rejected():
    with pytest.raises(ValueError, match="unit vector"):
        BilliardState(0.0, 0.0, math.nan, 1.0)


@pytest.mark.parametrize("domain, s", [
    (CIRCLE, BilliardState(1.0, 0.0, -1.0, 0.0)),
    (CIRCLE, BilliardState(-1.0, 0.0, 1.0, 0.0)),
    (STADIUM, BilliardState(2.0, 0.0, -1.0, 0.0)),
    (STADIUM, BilliardState(0.5, 1.0, 0.0, -1.0)),
])
def test_boundary_start_accepted(domain, s):
    states = billiard_flow(domain, s, 3)
    assert np.abs(domain.signed_distance(states[1:, 0], states[1:, 1])).max() < 1e-12


def test_orbit_is_one_contiguous_states_array():
    s = BilliardState(0.05, 0.11, math.cos(1.3), math.sin(1.3))
    states = billiard_flow(STADIUM, s, 500)
    assert states.dtype == np.float64 and states.flags.c_contiguous
    assert states.shape == (501, 4)
    assert np.array_equal(states[0], [s.x, s.y, s.dx, s.dy])


def test_speed_preserved_along_orbit():
    s = BilliardState(0.05, 0.11, math.cos(1.3), math.sin(1.3))
    states = billiard_flow(STADIUM, s, 500)
    assert states.shape == (501, 4)
    assert np.abs(np.hypot(states[:, 2], states[:, 3]) - 1.0).max() < 1e-12


def test_ergodic_average_whole_domain():
    """A bouncing-ball orbit across the straight section stays on one side
    of x = 0 and spends all or none of its length in the left half."""
    for x, frac in ((-0.5, 1.0), (0.5, 0.0)):
        states = billiard_flow(STADIUM, BilliardState(x, 0.0, 0.0, 1.0), 200)
        assert ergodic_average(states, 200) == frac


def test_axis_orbit_left_half_fraction_exact():
    """From (-1, 0) along the axis the chords run 3 then 4, 4, 4, 4 long,
    with 1 then 2 of each in x < 0."""
    states = billiard_flow(STADIUM, BilliardState(-1.0, 0.0, 1.0, 0.0), 5)
    assert ergodic_average(states, 5) == 9 / 19


def test_left_half_fraction_matches_sampling():
    """The exact chord split against midpoint sampling of each chord."""
    s = BilliardState(0.137, -0.041, math.cos(0.83), math.sin(0.83))
    states = billiard_flow(STADIUM, s, 2000)
    p0, p1 = states[:-1, :2], states[1:, :2]
    frac = (np.arange(4000) + 0.5) / 4000
    xs = p0[:, :1] + frac * (p1[:, :1] - p0[:, :1])  # (chords, samples)
    lengths = np.hypot(*(p1 - p0).T)
    sampled = ((xs < 0).mean(axis=1) @ lengths) / lengths.sum()
    assert abs(ergodic_average(states, 2000) - sampled) < 1e-4


def test_caustic_excludes_inner_disc():
    """|L| = 0.8 keeps every chord of the circle orbit outside radius 0.8."""
    # launch tangentially to the caustic: position r=0.8, direction perpendicular
    s = BilliardState(0.8, 0.0, 0.0, 1.0)
    assert circle_angular_momentum(s) == pytest.approx(0.8)
    states = billiard_flow(CIRCLE, s, 2000)
    p0, d = states[:-1, :2], np.diff(states[:, :2], axis=0)
    # parameter of the point of each chord nearest the origin
    t = np.clip(-(p0 * d).sum(axis=1) / (d * d).sum(axis=1), 0.0, 1.0)
    nearest = np.hypot(*(p0 + t[:, None] * d).T)
    assert nearest.min() >= 0.8 - 1e-9


def test_left_half_fraction_short():
    s = BilliardState(0.137, -0.041, math.cos(0.83), math.sin(0.83))
    states = billiard_flow(STADIUM, s, 50_000)
    assert abs(ergodic_average(states, 50_000) - 0.5) < 0.05


def test_coverage_grid_shape_and_visits():
    s = BilliardState(0.137, -0.041, math.cos(0.83), math.sin(0.83))
    states = billiard_flow(STADIUM, s, 20_000)
    counts, inside = coverage_grid(STADIUM, states, 20_000)
    assert counts.shape == (32, 16) and inside.shape == (32, 16)
    assert (counts[inside] > 0).mean() > 0.95


def test_coverage_counts_match_per_chord_reference():
    """25,000 chords counted chord by chord. coverage_grid holds a few
    samples per chord at a time, so its traced peak stays under 8 MiB."""
    s = BilliardState(0.137, -0.041, math.cos(0.83), math.sin(0.83))
    states = billiard_flow(STADIUM, s, 25_000)
    tracemalloc.start()
    try:
        counts, _ = coverage_grid(STADIUM, states, 25_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    (x0, y0), (x1, y1) = STADIUM.bounding_box()
    nx, ny = COVERAGE_CELLS
    want = np.zeros((nx, ny), dtype=np.int64)
    for q0, q1 in zip(states[:-1, :2], states[1:, :2]):
        n = max(1, math.ceil(np.hypot(*(q1 - q0)) / COVERAGE_SAMPLE_STEP))
        pts = q0 + ((np.arange(n) + 0.5) / n)[:, None] * (q1 - q0)
        ix = np.clip(((pts[:, 0] - x0) / (x1 - x0) * nx).astype(int), 0, nx - 1)
        iy = np.clip(((pts[:, 1] - y0) / (y1 - y0) * ny).astype(int), 0, ny - 1)
        np.add.at(want, (ix, iy), 1)
    assert np.array_equal(counts, want)


@pytest.mark.parametrize("n_bounces", [0, -3])
def test_bounce_count_must_be_positive(n_bounces):
    """Counts below 1, and counts past the end of the orbit, are rejected."""
    s = BilliardState(0.2, 0.3, math.cos(2.1), math.sin(2.1))
    states = billiard_flow(STADIUM, s, 20)
    for run in (lambda n: billiard_flow(STADIUM, s, n),
                lambda n: ergodic_average(states, n),
                lambda n: coverage_grid(STADIUM, states, n)):
        with pytest.raises(ValueError, match="n_bounces"):
            run(n_bounces)
    for run in (lambda n: ergodic_average(states, n),
                lambda n: coverage_grid(STADIUM, states, n)):
        with pytest.raises(ValueError, match="n_bounces"):
            run(len(states))


# ergodic_average on four 1e5-chord synthetic orbits, then the digest of
# every CSV and PGM file billiard-circle writes at h = 0.04
THREADED_BILLIARD = """
import hashlib, tempfile
from pathlib import Path
import numpy as np
from semiclass_lab.billiard import ergodic_average
from semiclass_lab.config import ExperimentConfig
from semiclass_lab.experiments import run_experiment
for seed in range(4):
    states = np.random.default_rng(seed).uniform(-1.0, 1.0, (100_001, 5))
    print(repr(ergodic_average(states, 100_000)))
with tempfile.TemporaryDirectory() as out:
    run_experiment(ExperimentConfig(experiment="billiard-circle", h=0.04,
                                    out_dir=out).validated())
    for p in sorted(Path(out).iterdir()):
        if p.suffix in (".csv", ".pgm"):
            print(p.name, hashlib.sha256(p.read_bytes()).hexdigest())
"""


def test_billiard_same_at_one_and_two_blas_threads(at_one_and_two_threads):
    one, two = at_one_and_two_threads(THREADED_BILLIARD)
    assert len(one.splitlines()) == 7  # four averages and three files
    assert one == two
