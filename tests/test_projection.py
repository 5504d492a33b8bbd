import cmath
import math
import re

import numpy as np
import pytest

from qtriad.projection import (
    BallPoint,
    QuaternionSpinor,
    S4Point,
    ball_point,
    coords_from_state,
    inverse_stereo,
    quaternify,
    stereo_project,
    triad_from_coords,
)
from qtriad.quaternion import E2, INFINITY, ONE, Quaternion, is_infinite
from qtriad.states import NORM_TOL, TwoQubitState, concurrence, make_state, triad

RNG = np.random.default_rng(303)

BELL = make_state((1, 0, 0, 1), normalize=True)
WORKED = make_state(
    (math.sqrt(0.5), math.sqrt(0.2), math.sqrt(0.2), math.sqrt(0.1))
)


def random_state():
    v = RNG.normal(size=8)
    return make_state(
        [complex(v[2 * k], v[2 * k + 1]) for k in range(4)], normalize=True
    )


# ----------------------------------------------------------------- quaternify

def test_quaternify_basis_state():
    sp = quaternify(make_state((1, 0, 0, 0)))
    assert sp.q1 == ONE
    assert sp.q2 == Quaternion(0j, 0j)


def test_quaternify_bell_reads_off_amplitudes():
    sp = quaternify(BELL)
    r = 1 / math.sqrt(2)
    assert abs(sp.q1.z1 - r) < 1e-15 and sp.q1.z2 == 0j
    assert sp.q2.z1 == 0j and abs(sp.q2.z2 - r) < 1e-15


def test_quaternify_transfers_normalization():
    for _ in range(200):
        sp = quaternify(random_state())
        assert abs(sp.q1.norm_sq() + sp.q2.norm_sq() - 1.0) < 1e-12


def test_spinor_rejects_unnormalized():
    with pytest.raises(ValueError):
        QuaternionSpinor(ONE, ONE)
    # |q1|^2 + |q2|^2 = 1 + offset, split over both quaternions.
    for offset in (-4.0, -1.5, -0.5, 0.0, 0.5, 1.5, 4.0):
        w = math.sqrt((1.0 + offset * NORM_TOL) / 4.0)
        q1, q2 = Quaternion(complex(w, -w), 0j), Quaternion(0j, complex(w, w))
        n = q1.norm_sq() + q2.norm_sq()
        if abs(offset) < 1.0:
            assert abs(n - 1.0) <= NORM_TOL
            QuaternionSpinor(q1, q2)
            continue
        assert abs(n - 1.0) > NORM_TOL
        message = re.escape(f"spinor must be normalized, got |q1|^2+|q2|^2 = {n!r}") + "$"
        with pytest.raises(ValueError, match=message):
            QuaternionSpinor(q1, q2)


# -------------------------------------------------------------- stereo project

def test_stereo_north_pole_is_infinity():
    assert is_infinite(stereo_project(quaternify(make_state((1, 0, 0, 0)))))


def test_stereo_equal_superposition_is_one():
    q = stereo_project(quaternify(make_state((1, 0, 1, 0), normalize=True)))
    assert q.isclose(ONE, 1e-12)


def test_stereo_bell_is_minus_e2_on_unit_circle():
    q = stereo_project(quaternify(BELL))
    assert q.isclose(-E2, 1e-12)
    assert abs(q.norm() - 1.0) < 1e-12


# -------------------------------------------------------------- inverse stereo

def test_inverse_stereo_poles_and_equator():
    assert inverse_stereo(Quaternion(0j, 0j)) == S4Point(-1.0, 0.0, 0.0, 0.0, 0.0)
    assert inverse_stereo(ONE) == S4Point(0.0, 1.0, 0.0, 0.0, 0.0)
    assert inverse_stereo(INFINITY) == S4Point(1.0, 0.0, 0.0, 0.0, 0.0)


def test_inverse_stereo_minus_e2():
    p = inverse_stereo(-E2)
    assert p == S4Point(0.0, 0.0, 0.0, -1.0, 0.0)


def test_inverse_stereo_where_norm_sq_overflows():
    # |Q|^2 = 1e310 overflows; the lift is the north-pole limit, and
    # x1 = 2*Q0/|Q|^2 is still representable.
    assert inverse_stereo(Quaternion(1e155)) == S4Point(1.0, 2e-155, 0.0, 0.0, 0.0)
    p = inverse_stereo(Quaternion.from_components(1e200, -2e200, 3e199, 0.0))
    assert p.x0 == 1.0
    expected = [2.0 * c / 5.09 * 1e-200 for c in (1.0, -2.0, 0.3, 0.0)]
    assert list(p[1:]) == pytest.approx(expected, rel=1e-14)


def test_inverse_stereo_outputs_unit_points():
    for _ in range(300):
        q = Quaternion.from_components(*RNG.normal(size=4) * 3)
        p = inverse_stereo(q)
        assert abs(sum(x * x for x in p) - 1.0) < 1e-12


# ----------------------------------------------------------- coords from state

def test_coords_basis_state_is_north_pole():
    assert coords_from_state(make_state((1, 0, 0, 0))) == S4Point(1.0, 0.0, 0.0, 0.0, 0.0)


def test_coords_bell():
    p = coords_from_state(BELL)
    assert abs(p.x0) < 1e-15
    assert abs(p.x3 + 1.0) < 1e-15
    assert p.x1 == p.x2 == p.x4 == 0.0


def test_coords_worked_state():
    p = coords_from_state(WORKED)
    assert abs(p.x0 - 0.4) < 1e-14
    assert abs(p.x1 - 0.9152982445082949) < 1e-14
    assert p.x2 == 0.0
    assert abs(p.x3 + 0.047213595499958017) < 1e-14
    assert p.x4 == 0.0
    assert abs(sum(x * x for x in p) - 1.0) < 1e-14


def test_dual_route_agreement():
    compared = 0
    for _ in range(2000):
        s = random_state()
        sp = quaternify(s)
        direct = coords_from_state(s)
        assert abs(sum(x * x for x in direct) - 1.0) <= 1e-10
        if sp.q2.norm() < 1e-7:
            continue
        compared += 1
        lifted = inverse_stereo(stereo_project(sp))
        assert max(abs(a - b) for a, b in zip(direct, lifted)) <= 1e-9
        assert abs(sum(x * x for x in lifted) - 1.0) <= 1e-10
    assert compared > 1900


def test_global_phase_leaves_invariants_alone():
    for _ in range(200):
        s = random_state()
        phase = cmath.exp(1j * RNG.uniform(0, 2 * math.pi))
        t = TwoQubitState(tuple(phase * a for a in s.alpha))
        p, q = coords_from_state(s), coords_from_state(t)
        assert abs(p.x0 - q.x0) < 1e-12
        assert abs(math.hypot(p.x1, p.x2) - math.hypot(q.x1, q.x2)) < 1e-12
        assert abs(math.hypot(p.x3, p.x4) - math.hypot(q.x3, q.x4)) < 1e-12
        assert abs(ball_point(s).radius - ball_point(t).radius) < 1e-12


def test_separable_states_project_into_complex_plane():
    for _ in range(300):
        v = RNG.normal(size=8)
        a, b = complex(v[0], v[1]), complex(v[2], v[3])
        c, d = complex(v[4], v[5]), complex(v[6], v[7])
        s = make_state((a * c, a * d, b * c, b * d), normalize=True)
        q = stereo_project(quaternify(s))
        if is_infinite(q):
            continue
        assert abs(q.z2.real) < 1e-12
        assert abs(q.z2.imag) < 1e-12


def test_unit_modulus_q_iff_no_imbalance():
    for _ in range(300):
        s = random_state()
        # force balanced populations: |Q| must land on 1
        a0, a1, a2, a3 = s.alpha
        p0 = abs(a0) ** 2 + abs(a1) ** 2
        p1 = abs(a2) ** 2 + abs(a3) ** 2
        f0, f1 = math.sqrt(0.5 / p0), math.sqrt(0.5 / p1)
        balanced = TwoQubitState((a0 * f0, a1 * f0, a2 * f1, a3 * f1))
        q = stereo_project(quaternify(balanced))
        assert abs(q.norm() - 1.0) < 1e-10
        # and the generic state obeys the equivalence both ways
        q = stereo_project(quaternify(s))
        d = abs(p0 - p1)
        if d < 1e-10:
            assert abs(q.norm() - 1.0) < 1e-10
        if abs(q.norm() - 1.0) < 1e-10:
            assert d < 1e-10


# ------------------------------------------------------------ triad from coords

def test_triad_from_coords_poles():
    assert triad_from_coords(S4Point(1.0, 0.0, 0.0, 0.0, 0.0)) == (0.0, 1.0, 0.0)
    assert triad_from_coords(S4Point(0.0, 0.0, 0.0, -1.0, 0.0)) == (0.0, 0.0, 1.0)


def test_triad_from_coords_worked_point():
    v, d, c = triad_from_coords(coords_from_state(WORKED))
    assert abs(v - 0.9152982445082949) < 1e-14
    assert abs(d - 0.4) < 1e-14
    assert abs(c - 0.047213595499958017) < 1e-14


def test_triad_from_coords_matches_state_triad():
    for _ in range(500):
        s = random_state()
        direct = triad(s)
        geom = triad_from_coords(coords_from_state(s))
        assert max(abs(a - b) for a, b in zip(direct, geom)) <= 1e-10


def test_triad_from_coords_rejects_off_sphere_points():
    with pytest.raises(ValueError):
        triad_from_coords(S4Point(1.0, 1.0, 0.0, 0.0, 0.0))


@pytest.mark.parametrize("x", [1e155, -1e200])
def test_triad_from_coords_rejects_coordinates_whose_squares_overflow(x):
    with pytest.raises(ValueError, match="not on the unit sphere"):
        triad_from_coords(S4Point(0.0, 0.0, x, 0.0, 0.0))


# ------------------------------------------------------------------ ball point

def test_ball_point_product_states_on_boundary():
    for _ in range(200):
        v = RNG.normal(size=8)
        a, b = complex(v[0], v[1]), complex(v[2], v[3])
        c, d = complex(v[4], v[5]), complex(v[6], v[7])
        s = make_state((a * c, a * d, b * c, b * d), normalize=True)
        assert abs(ball_point(s).radius - 1.0) < 1e-12


def test_ball_point_bell_at_center():
    b = ball_point(BELL)
    assert b == BallPoint(0.0, 0.0, 0.0)
    assert b.radius == 0.0


def test_ball_point_worked_state():
    s = make_state((0.6, 0, 0, 0.8))
    b = ball_point(s)
    assert abs(b.x0 + 0.28) < 1e-14
    assert b.x1 == 0.0 and b.x2 == 0.0
    c = concurrence(s)
    assert abs(b.radius - math.sqrt(1 - c * c)) < 1e-10
    assert abs(b.radius - 0.28) < 1e-14


def test_ball_radius_is_shell_radius():
    for _ in range(500):
        s = random_state()
        c = concurrence(s)
        assert abs(ball_point(s).radius ** 2 - (1.0 - c * c)) <= 1e-10
