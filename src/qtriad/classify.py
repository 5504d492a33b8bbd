"""Geometric strata of two-qubit states and the Schmidt decomposition.

``classify`` labels a state by the tolerance-banded strata its triad lies on.
``schmidt_decompose`` diagonalizes the amplitude matrix by one complex Jacobi
rotation in Python float and complex arithmetic. It reads no invariant of
``states``, so C = 2*lambda1*lambda2 compares two independent routes to the
concurrence. Its result is built by ``_schmidt_form``, which runs the checks
of ``SchmidtForm(...)``, through the same ``_check_schmidt``, then a builder
from ``quaternion._trusted``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from itertools import compress

from .quaternion import _trusted
from .states import NORM_TOL, DualityTriad, TwoQubitState, _sum_squares, triad

DEFAULT_CLASSIFY_TOL = 1e-9
_DEGENERATE_TOL = 1e-12
# Below this |gamma|, ``schmidt_decompose`` takes e and zeta from gamma
# scaled by _GAMMA_SCALE, an exact power of two. A gamma with subnormal parts
# keeps too few bits for gamma / |gamma| to be of unit modulus (at
# gamma = 1e-323 + 1e-323j it is 1 + 1j), and J would not be unitary. At or
# above it, gamma is normal and is used as it is.
_SMALL_GAMMA = 2.0**-600
_GAMMA_SCALE = 2.0**600


class StratumLabel(enum.Enum):
    """Overlapping strata a state can belong to (tolerance-banded manifolds)."""

    SEPARABLE = "Separable"
    MAXIMALLY_ENTANGLED = "MaximallyEntangled"
    WAVE_ONLY = "WaveOnly"
    PARTICLE_ONLY = "ParticleOnly"
    WAVE_LESS = "WaveLess"
    PARTICLE_LESS = "ParticleLess"
    ON_X0_AXIS = "OnX0Axis"
    ON_GREAT_DISC = "OnGreatDisc"


def classify(s: TwoQubitState) -> frozenset[StratumLabel]:
    """Label a state by every stratum it lies on, within ``DEFAULT_CLASSIFY_TOL``.

    Strata overlap (a maximally entangled state is both wave-less and
    particle-less), so the result is a set rather than a single category.
    States with the same labels get the same frozenset object, so compare
    results with ``==``.
    """
    labels = _strata(triad(s))
    shared = _SHARED.get(labels)
    if shared is None:
        shared = _SHARED.setdefault(labels, frozenset(labels))
    return shared


_LABELS = tuple(StratumLabel)
# One frozenset per label combination that ``classify`` has returned, keyed
# by ``_strata``'s tuple; there are at most 2**8 of them.
_SHARED: dict[tuple[StratumLabel, ...], frozenset[StratumLabel]] = {}


def _strata(t: DualityTriad) -> tuple[StratumLabel, ...]:
    """``classify`` of any state whose triad is ``t``, as a tuple.

    The labels come in ``StratumLabel`` definition order, which is the order
    of the dataset's ``labels`` column.
    """
    v, d, c = t
    low, high = DEFAULT_CLASSIFY_TOL, 1.0 - DEFAULT_CLASSIFY_TOL
    # One flag per StratumLabel member, in definition order.
    flags = (
        c <= low, c >= high, v >= high, d >= high, v <= low, d <= low, v <= low, d <= low
    )
    return tuple(compress(_LABELS, flags))


@dataclass(frozen=True, slots=True)
class SchmidtForm:
    """Schmidt data lambda1 >= lambda2 with the partner-side basis vectors.

    The state reconstructs as lambda1*|u1>|v1> + lambda2*|u2>|v2> where
    basis2 = (v1, v2) and u_k = M*conj(v_k)/lambda_k for the amplitude
    matrix M (rows indexed by the path qubit).
    """

    lambda1: float
    lambda2: float
    basis2: tuple[tuple[complex, complex], tuple[complex, complex]]

    def __post_init__(self):
        _check_schmidt(self.lambda1, self.lambda2, self.basis2)


def _check_schmidt(lambda1, lambda2, basis2) -> None:
    """``SchmidtForm``'s checks: raises ValueError unless the weights are
    ordered, non-negative and of unit square sum and ``basis2`` is orthonormal.
    Each test is written so that a NaN fails it."""
    if not (lambda1 >= lambda2 >= 0.0):
        raise ValueError("Schmidt coefficients must satisfy lambda1 >= lambda2 >= 0")
    # Squared by multiplication: ``**`` raises OverflowError above 1.3e154.
    if abs(lambda1 * lambda1 + lambda2 * lambda2 - 1.0) > NORM_TOL:
        raise ValueError("Schmidt coefficients must have unit square sum")
    (x0, x1), (y0, y1) = basis2
    err1 = abs(x0.conjugate() * x0 + x1.conjugate() * x1 - 1.0)
    err2 = abs(y0.conjugate() * y0 + y1.conjugate() * y1 - 1.0)
    err12 = abs(x0.conjugate() * y0 + x1.conjugate() * y1)
    if not (err1 <= NORM_TOL and err2 <= NORM_TOL and err12 <= NORM_TOL):
        raise ValueError("basis2 must be orthonormal")


_schmidt_built = _trusted(SchmidtForm)


def _schmidt_form(lambda1: float, lambda2: float, basis2) -> SchmidtForm:
    """``SchmidtForm(lambda1, lambda2, basis2)``: the constructor's checks,
    then its trusted builder."""
    # Not the constructor itself: on CPython 3.11 its two frames cost
    # ``schmidt_decompose`` about 4%.
    _check_schmidt(lambda1, lambda2, basis2)
    return _schmidt_built(lambda1, lambda2, basis2)


def _fix_phase(v0: complex, v1: complex) -> tuple[complex, complex]:
    """Rotate (v0, v1) so the leading nonzero component is real positive."""
    lead = v0 if abs(v0) > 1e-12 else v1
    turn = lead / abs(lead)
    return v0 / turn, v1 / turn


def schmidt_decompose(s: TwoQubitState) -> SchmidtForm:
    """Schmidt coefficients and partner-side basis by one complex Jacobi rotation.

    For the amplitude matrix M = [[a0, a1], [a2, a3]] one rotation of
    Hestenes' one-sided Jacobi method (J. SIAM 6, 51 (1958)) is the whole
    singular-value decomposition: J = [[c, s*e], [-s*conj(e), c]] makes the
    columns of M*J orthogonal, with t = s/c the smaller root of
    t^2 + 2*zeta*t - 1 = 0 (Golub & Van Loan, Matrix Computations, 8.5).
    lambda1 >= lambda2 are the norms of the rotated columns, and the rows of
    ``basis2`` are the conjugated columns of J, in the same order. Jacobi is at
    least as accurate as a QR-based SVD (Demmel & Veselic, SIAM J. Matrix
    Anal. Appl. 13, 1204 (1992)); lambda2 is a column norm, so it is not lost
    to cancellation on product states.

    In the degenerate case (lambda1 - lambda2 <= 1e-12) the partner basis is
    pinned to the canonical one so outputs are reproducible; otherwise each
    basis row is turned so its leading component above 1e-12 is real positive.
    The route reads no invariant of ``states``, so C = 2*lambda1*lambda2
    compares two independent routes to the concurrence.
    """
    a0, a1, a2, a3 = s.alpha
    # Columns c1 = (a0, a2) and c2 = (a1, a3): |c1|^2, |c2|^2 and <c1|c2>.
    alpha, beta = _sum_squares((a0, a2)), _sum_squares((a1, a3))
    gamma = a0.conjugate() * a1 + a2.conjugate() * a3
    if gamma:
        g, scale = abs(gamma), 1.0
        if g < _SMALL_GAMMA:
            # Exact: each part is below 2**-600.
            scale = _GAMMA_SCALE
            gamma = complex(gamma.real * scale, gamma.imag * scale)
            g = abs(gamma)
        zeta = (beta - alpha) * scale / (2.0 * g)
        t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
        c = 1.0 / math.hypot(1.0, t)
        e = gamma / g
        se = c * t * e
        # M*J = [c*c1 - s*conj(e)*c2, s*e*c1 + c*c2]
        sn = se.conjugate()
        b0, b2 = c * a0 - sn * a1, c * a2 - sn * a3
        d0, d2 = se * a0 + c * a1, se * a2 + c * a3
        v1, v2 = (complex(c), -se), (sn, complex(c))
    else:
        b0, b2, d0, d2 = a0, a2, a1, a3
        v1, v2 = (1 + 0j, 0j), (0j, 1 + 0j)
    lam1 = math.hypot(b0.real, b0.imag, b2.real, b2.imag)
    lam2 = math.hypot(d0.real, d0.imag, d2.real, d2.imag)
    if lam2 > lam1:
        lam1, lam2, v1, v2 = lam2, lam1, v2, v1
    if lam1 - lam2 <= _DEGENERATE_TOL:
        basis = ((1 + 0j, 0j), (0j, 1 + 0j))
    else:
        basis = (_fix_phase(*v1), _fix_phase(*v2))
    return _schmidt_form(lam1, lam2, basis)


def shell_radius(c: float) -> float:
    """Ball-shell radius sqrt(1 - C^2) for a given concurrence."""
    if not math.isfinite(c) or c < -1e-12 or c > 1.0 + 1e-12:
        raise ValueError("concurrence must lie in [0, 1]")
    c = min(max(c, 0.0), 1.0)
    return math.sqrt(1.0 - c * c)
