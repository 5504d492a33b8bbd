"""Quaternionic stereographic geometry of two-qubit states.

Pipeline: pack the four amplitudes into a quaternion spinor (q1, q2), project
it to the extended quaternions via Q = q1 * q2^{-1}, then lift Q onto the unit
4-sphere by the inverse stereographic map. The equivalent direct route reads
the sphere coordinates straight off the state:

    x0 = p0 - p1                 (path population imbalance, signed)
    x1 + i*x2 = 2 * coherence    (conj(a2)*a0 + conj(a3)*a1)
    x3 + i*x4 = 2 * determinant  (a1*a2 - a0*a3)

so D^2 = x0^2, V^2 = x1^2 + x2^2, C^2 = x3^2 + x4^2 and the coordinates sum
to 1 in squares. The (x0, x1, x2) restriction lives in the unit ball, on the
shell of radius sqrt(1 - C^2).

``quaternify`` builds its two quaternions and the spinor through builders
from ``quaternion._trusted``: the state's norm gate already admits only
amplitudes that pass ``Quaternion``'s and ``QuaternionSpinor``'s checks (the
argument is next to the code). ``stereo_project`` runs the ``Quaternion``
pair rules, whose results pass one finiteness test each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .quaternion import (
    INFINITY,
    ExtendedQuaternion,
    Quaternion,
    _norm_sq,
    _quaternion,
    _trusted,
    is_infinite,
)
from .states import NORM_TOL, _COORDS, DualityTriad, S4Point, TwoQubitState, _new, _recall

# Below this |q2| the projection is treated as the point at infinity.
INFINITY_THRESHOLD = 1e-14


@dataclass(frozen=True, slots=True)
class QuaternionSpinor:
    """Unit two-component quaternionic spinor (q1, q2)."""

    q1: Quaternion
    q2: Quaternion

    def __post_init__(self):
        q1, q2 = self.q1, self.q2
        n = _norm_sq(q1.z1, q1.z2) + _norm_sq(q2.z1, q2.z2)
        if abs(n - 1.0) > NORM_TOL:
            raise ValueError(f"spinor must be normalized, got |q1|^2+|q2|^2 = {n!r}")


# ``QuaternionSpinor(q1, q2)`` of quaternions with |q1|^2 + |q2|^2 within
# ``NORM_TOL`` of 1. Its one caller, ``quaternify``, says why its quaternions are.
_spinor = _trusted(QuaternionSpinor)


class BallPoint(NamedTuple):
    """The (x0, x1, x2) restriction of an S4Point inside the unit ball."""

    x0: float
    x1: float
    x2: float

    @property
    def radius(self) -> float:
        return math.hypot(self.x0, self.x1, self.x2)


def quaternify(s: TwoQubitState) -> QuaternionSpinor:
    """Pack amplitudes into the spinor q1 = a0 + a1*e2, q2 = a2 + a3*e2."""
    a0, a1, a2, a3 = s.alpha
    # What the builders' callers owe (see ``quaternion._trusted``) holds here:
    # - the state's gate admits alpha only when sqrt(S), for
    #   S = _sum_squares(alpha), lies within NORM_TOL / 8 of 1, and the
    #   states ``states._built`` makes without the gate lie within it too
    #   (``_exchanged``'s within a few u more; see there);
    # - so S is finite, and with it every part, each of exact type
    #   ``complex`` as ``TwoQubitState`` stores it: ``Quaternion``'s test holds;
    # - n = _norm_sq(q1) + _norm_sq(q2) regroups the same 8 rounded squares
    #   as S, so |n - S| <= 16u*S (u = 2**-53), and |S - 1| < NORM_TOL / 3;
    # - so |n - 1| <= NORM_TOL, the spinor's own test, always holds.
    return _spinor(_quaternion(a0, a1), _quaternion(a2, a3))


def stereo_project(sp: QuaternionSpinor) -> ExtendedQuaternion:
    """Project the spinor to Q = q1 * q2^{-1} in the extended quaternions.

    Spinors with |q2| below ``INFINITY_THRESHOLD`` map to the point at
    infinity; infinity is a regular value here, not an error.
    """
    if sp.q2.norm() < INFINITY_THRESHOLD:
        return INFINITY
    return sp.q1 * sp.q2.inverse()


def inverse_stereo(q: ExtendedQuaternion) -> S4Point:
    """Lift an extended quaternion onto the unit 4-sphere.

    The conformal chart: infinity is the north pole (1, 0, 0, 0, 0); a finite
    Q with real components (Q0, Q1, Q2, Q3) maps to
    x0 = (|Q|^2 - 1)/(|Q|^2 + 1), (x1..x4) = 2*(Q0..Q3)/(|Q|^2 + 1).
    Where |Q|^2 overflows, x0 rounds to 1 and (x1..x4) to 2*conj(Q^{-1}),
    which ``Quaternion.inverse`` forms without |Q|^2.
    """
    if is_infinite(q):
        return S4Point(1.0, 0.0, 0.0, 0.0, 0.0)
    n2 = _norm_sq(q.z1, q.z2)
    if n2 == math.inf:
        q0, q1, q2, q3 = q.inverse().conjugate().components()
        return S4Point(1.0, 2.0 * q0, 2.0 * q1, 2.0 * q2, 2.0 * q3)
    return _chart(n2, q.z1.real, q.z1.imag, q.z2.real, q.z2.imag)


def _chart(n2: float, q0: float, q1: float, q2: float, q3: float) -> S4Point:
    """``inverse_stereo`` of a finite Q = (q0, q1, q2, q3) with |Q|^2 = n2."""
    scale = 2.0 / (n2 + 1.0)
    return _new(S4Point, ((n2 - 1.0) / (n2 + 1.0), scale * q0, scale * q1, scale * q2, scale * q3))


def coords_from_state(s: TwoQubitState) -> S4Point:
    """Sphere coordinates read directly off the amplitudes (no projection).

    This is the quaternionic Hopf map x = (|q1|^2 - |q2|^2, 2*q1*conj(q2)).
    It has no singularity at q2 = 0 and is the canonical route; the
    stereographic composition is its cross-check.
    """
    return _recall(s, _COORDS)


def triad_from_coords(p: S4Point) -> DualityTriad:
    """Decompose a unit S4Point into (V, D, C).

    V collects the complex-plane block (x1, x2), C the e2/e3 block (x3, x4),
    and D is the axial coordinate magnitude. Raises ValueError unless
    |x|^2 lies within ``NORM_TOL`` of 1.
    """
    norm_sq = p.x0 * p.x0 + p.x1 * p.x1 + p.x2 * p.x2 + p.x3 * p.x3 + p.x4 * p.x4
    if not math.isfinite(norm_sq) or abs(norm_sq - 1.0) > NORM_TOL:
        raise ValueError(f"point is not on the unit sphere: |x|^2 = {norm_sq!r}")
    return DualityTriad(
        math.hypot(p.x1, p.x2), abs(p.x0), math.hypot(p.x3, p.x4)
    )


def ball_point(s: TwoQubitState) -> BallPoint:
    """Project the state's sphere coordinates into the unit ball (x0, x1, x2).

    The radius equals sqrt(1 - C^2): separable states sit on the boundary
    sphere, maximally entangled ones at the center.
    """
    return _new(BallPoint, coords_from_state(s)[:3])
