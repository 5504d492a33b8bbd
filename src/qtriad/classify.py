"""Geometric strata of two-qubit states and the Schmidt decomposition."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .states import NORM_TOL, DualityTriad, TwoQubitState, triad

DEFAULT_CLASSIFY_TOL = 1e-9
_DEGENERATE_TOL = 1e-12


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
    """
    return frozenset(_strata(triad(s)))


_LABELS = tuple(StratumLabel)


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
        if not (self.lambda1 >= self.lambda2 >= 0.0):
            raise ValueError("Schmidt coefficients must satisfy lambda1 >= lambda2 >= 0")
        if abs(self.lambda1**2 + self.lambda2**2 - 1.0) > NORM_TOL:
            raise ValueError("Schmidt coefficients must have unit square sum")
        v1, v2 = (np.array(v) for v in self.basis2)
        gram_err = max(
            abs(np.vdot(v1, v1) - 1.0), abs(np.vdot(v2, v2) - 1.0), abs(np.vdot(v1, v2))
        )
        if gram_err > NORM_TOL:
            raise ValueError("basis2 must be orthonormal")


def _fix_phase(vec: np.ndarray) -> np.ndarray:
    """Rotate so the leading nonzero component is real positive."""
    lead = vec[0] if abs(vec[0]) > 1e-12 else vec[1]
    return vec / (lead / abs(lead))


def schmidt_decompose(s: TwoQubitState) -> SchmidtForm:
    """Singular-value decomposition of the 2x2 amplitude matrix.

    Returns the Schmidt coefficients and the partner-side orthonormal pair.
    In the degenerate case (equal coefficients) the partner basis is pinned to
    the canonical one so outputs are reproducible.
    """
    a0, a1, a2, a3 = s.alpha
    m = np.array([[a0, a1], [a2, a3]])
    _, (sv1, sv2), vh = np.linalg.svd(m)
    if sv1 - sv2 <= _DEGENERATE_TOL:
        basis = ((1 + 0j, 0j), (0j, 1 + 0j))
    else:
        basis = tuple(tuple(complex(x) for x in _fix_phase(v)) for v in vh)
    return SchmidtForm(float(sv1), float(sv2), basis)


def shell_radius(c: float) -> float:
    """Ball-shell radius sqrt(1 - C^2) for a given concurrence."""
    if not math.isfinite(c) or c < -1e-12 or c > 1.0 + 1e-12:
        raise ValueError("concurrence must lie in [0, 1]")
    c = min(max(c, 0.0), 1.0)
    return math.sqrt(1.0 - c * c)
