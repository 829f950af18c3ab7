import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiclass_lab.billiard import (BilliardState, StadiumDomain, billiard_flow,
                                    circle_angular_momentum, coverage_grid,
                                    ergodic_average)
from semiclass_lab.errors import GrazingError

CIRCLE = StadiumDomain(half_length=0.0, radius=1.0)
STADIUM = StadiumDomain(half_length=1.0, radius=1.0)


def test_domain_validation():
    with pytest.raises(ValueError):
        StadiumDomain(half_length=-0.1)
    with pytest.raises(ValueError):
        StadiumDomain(radius=0.0)


def test_area():
    assert CIRCLE.area == pytest.approx(math.pi)
    assert STADIUM.area == pytest.approx(4 + math.pi)


def test_signed_distance_samples():
    assert STADIUM.signed_distance(0.0, 0.0) == pytest.approx(-1.0)
    assert STADIUM.signed_distance(2.0, 0.0) == pytest.approx(0.0)
    assert STADIUM.signed_distance(0.5, 1.0) == pytest.approx(0.0)
    assert STADIUM.signed_distance(3.0, 0.0) == pytest.approx(1.0)


def _first_bounce(domain, s):
    states, _ = billiard_flow(domain, s, 1)
    return states[1]


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
    states, times = billiard_flow(CIRCLE, s, 2000)
    Ls = [circle_angular_momentum(BilliardState(*row)) for row in states]
    assert max(abs(L - L0) for L in Ls) < 1e-9
    assert times[0] == 0.0 and (np.diff(times) > 0).all()


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


def test_speed_preserved_along_orbit():
    s = BilliardState(0.05, 0.11, math.cos(1.3), math.sin(1.3))
    states, _ = billiard_flow(STADIUM, s, 500)
    assert states.shape == (501, 4)
    assert np.abs(np.hypot(states[:, 2], states[:, 3]) - 1.0).max() < 1e-12


def test_ergodic_average_whole_domain():
    """A bouncing-ball orbit across the straight section stays on one side
    of x = 0 and spends all or none of its length in the left half."""
    for x, frac in ((-0.5, 1.0), (0.5, 0.0)):
        states, _ = billiard_flow(STADIUM, BilliardState(x, 0.0, 0.0, 1.0), 200)
        assert ergodic_average(states, 200) == frac


def test_axis_orbit_left_half_fraction_exact():
    """From (-1, 0) along the axis the chords run 3 then 4, 4, 4, 4 long,
    with 1 then 2 of each in x < 0."""
    states, _ = billiard_flow(STADIUM, BilliardState(-1.0, 0.0, 1.0, 0.0), 5)
    assert ergodic_average(states, 5) == 9 / 19


def test_left_half_fraction_matches_sampling():
    """The exact chord split against midpoint sampling of each chord."""
    s = BilliardState(0.137, -0.041, math.cos(0.83), math.sin(0.83))
    states, _ = billiard_flow(STADIUM, s, 2000)
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
    states, _ = billiard_flow(CIRCLE, s, 2000)
    p0, d = states[:-1, :2], np.diff(states[:, :2], axis=0)
    # parameter of the point of each chord nearest the origin
    t = np.clip(-(p0 * d).sum(axis=1) / (d * d).sum(axis=1), 0.0, 1.0)
    nearest = np.hypot(*(p0 + t[:, None] * d).T)
    assert nearest.min() >= 0.8 - 1e-9


def test_left_half_fraction_short():
    s = BilliardState(0.137, -0.041, math.cos(0.83), math.sin(0.83))
    states, _ = billiard_flow(STADIUM, s, 50_000)
    assert abs(ergodic_average(states, 50_000) - 0.5) < 0.05


def test_coverage_grid_shape_and_visits():
    s = BilliardState(0.137, -0.041, math.cos(0.83), math.sin(0.83))
    states, _ = billiard_flow(STADIUM, s, 20_000)
    counts, inside = coverage_grid(STADIUM, states, 20_000)
    assert counts.shape == (32, 16) and inside.shape == (32, 16)
    assert (counts[inside] > 0).mean() > 0.95


@pytest.mark.parametrize("n_bounces", [0, -3])
def test_bounce_count_must_be_positive(n_bounces):
    """Counts below 1, and counts past the end of the orbit, are rejected."""
    s = BilliardState(0.2, 0.3, math.cos(2.1), math.sin(2.1))
    states, _ = billiard_flow(STADIUM, s, 20)
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
