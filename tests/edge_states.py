"""Hypothesis strategies for states on and around the edges the library
treats apart, and fixed inputs of the library's normalizing builders, shared
by the test modules."""

import cmath
import math
from typing import Iterator

import numpy as np
from hypothesis import strategies as st

from qtriad.classify import DEFAULT_CLASSIFY_TOL
from qtriad.sampling import fixed_concurrence_state, haar_state, separable_state
from qtriad.states import NORM_TOL, TwoQubitState, embed_correlated, make_correlated, make_state

# A value in [0, 1], drawn often at exactly 0 or 1, within 2 tol of 0, tol,
# 1 - tol or 1, or else anywhere.
TOL = DEFAULT_CLASSIFY_TOL
_UNIT = st.one_of(
    st.sampled_from([0.0, 1.0]),
    st.builds(
        lambda edge, offset: min(max(edge + offset, 0.0), 1.0),
        st.sampled_from([0.0, TOL, 1.0 - TOL, 1.0]),
        st.floats(-2 * TOL, 2 * TOL),
    ),
    st.floats(0.0, 1.0),
)
_STRATUM_ANGLE = st.one_of(st.sampled_from([0.0, math.pi / 2]), st.floats(0.0, 2 * math.pi))


@st.composite
def edge_states(draw):
    """cos(t)|0>|chi0> + sin(t)|1>|chi1> with D = cos(2t) and |<chi0|chi1>| = r.

    Then V = r sin(2t) and C = sqrt(1 - r^2) sin(2t), so drawing D and r at
    and around 0 and 1 puts V, D and C on and around every stratum edge.
    """
    d, r, beta, phi = draw(_UNIT), draw(_UNIT), draw(_STRATUM_ANGLE), draw(_STRATUM_ANGLE)
    if draw(st.booleans()):
        d = -d
    cos_t, sin_t = math.sqrt((1 + d) / 2), math.sqrt((1 - d) / 2)
    turn = complex(math.cos(phi), math.sin(phi))
    chi0 = (math.cos(beta), turn * math.sin(beta))
    perp = (-turn.conjugate() * math.sin(beta), math.cos(beta))
    w = math.sqrt(1 - r * r)
    chi1 = tuple(r * a + w * b for a, b in zip(chi0, perp))
    return make_state(
        [cos_t * chi0[0], cos_t * chi0[1], sin_t * chi1[0], sin_t * chi1[1]],
        normalize=True,
    )


_ANGLE = st.floats(0.0, 2 * math.pi)


@st.composite
def qubit(draw):
    """A unit vector of C^2 with a drawn global phase."""
    beta = draw(st.one_of(st.sampled_from([0.0, math.pi / 4, math.pi / 2]), _ANGLE))
    phi, gamma = draw(_ANGLE), draw(_ANGLE)
    g = cmath.exp(1j * gamma)
    return g * math.cos(beta), g * cmath.exp(1j * phi) * math.sin(beta)


def unitary(u):
    """The 2x2 unitary whose first column is the unit vector u."""
    return ((u[0], -u[1].conjugate()), (u[1], u[0].conjugate()))


EDGE_KINDS = ("pole", "balanced", "product", "equal_schmidt", "norm_edge", "generic")


@st.composite
def route_edge_states(draw, kinds=EDGE_KINDS):
    """States on and around the edges the routes treat apart: |q2| at 0, just
    under and over the point-at-infinity threshold and at 1e-7; D at and near
    0; C = 0 (products); lambda1 = lambda2 (C = 1, V = 0); |psi| at both edges
    of the ``TwoQubitState`` norm gate, where ``verify._stereo`` needs no norm
    check and |Q| stays finite; or generic. ``kinds`` picks among these."""
    u, w = draw(qubit()), draw(qubit())
    kind = draw(st.sampled_from(kinds))
    if kind == "norm_edge":
        r = draw(st.sampled_from([1.01e-14, 1e-7, math.sqrt(0.5)]))
        k = math.sqrt(1.0 - r * r)
        f = 1.0 + draw(st.sampled_from([0.99, -0.99])) * NORM_TOL / 8
        return TwoQubitState((f * k * u[0], f * k * u[1], f * r * w[0], f * r * w[1]))
    if kind == "pole":
        r = draw(st.sampled_from([0.0, 0.99e-14, 1.01e-14, 1e-7]))
        k = math.sqrt(1.0 - r * r)
        amps = [k * u[0], k * u[1], r * w[0], r * w[1]]
    elif kind == "balanced":
        d = draw(st.sampled_from([0.0, 1e-12, -1e-12, 1e-10, -1e-10, 1e-9]))
        c0, c1 = math.sqrt((1 + d) / 2), math.sqrt((1 - d) / 2)
        amps = [c0 * u[0], c0 * u[1], c1 * w[0], c1 * w[1]]
    elif kind == "product":
        amps = [u[0] * w[0], u[0] * w[1], u[1] * w[0], u[1] * w[1]]
    elif kind == "equal_schmidt":
        # (U x W)(1, 0, 0, 1)/sqrt(2) with U, W unitaries whose first columns
        # are u and w.
        uu, ww = unitary(u), unitary(w)
        amps = [
            (uu[i][0] * ww[j][0] + uu[i][1] * ww[j][1]) / math.sqrt(2)
            for i in (0, 1) for j in (0, 1)
        ]
    else:
        v = draw(st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8).filter(any))
        amps = [complex(v[k], v[k + 1]) for k in range(0, 8, 2)]
    return make_state(amps, normalize=True)


# States whose Schmidt cross term, the inner product of the amplitude
# matrix's columns gamma = conj(a0)*a1 + conj(a2)*a3, is tiny: four with a
# subnormal gamma, which made ``schmidt_decompose`` raise or lose its
# unitary rotation, and one with gamma just below 2**-600, where that
# function scales gamma, and unequal column norms, so that the rotation's
# zeta reads the scale.
_R = math.sqrt(0.5)
SMALL_GAMMA_STATES = (
    *(
        TwoQubitState((complex(_R), a1, 0j, complex(_R)))
        for a1 in (1e-323 + 1e-323j, 5e-324 + 5e-324j, 3e-320 + 1e-322j, 1e-310 + 1e-310j)
    ),
    TwoQubitState((0.6 + 0j, complex(2.0**-601 / 0.6), 0j, 0.8 + 0j)),
)


def gate_admits(u, f: float) -> bool:
    """Whether the norm gate admits the amplitudes f*u."""
    try:
        TwoQubitState(tuple(f * a for a in u))
    except ValueError:
        return False
    return True


def last_admitted(u, start: float, outward: float) -> float:
    """The scale f farthest from 1 in the direction of outward at which the
    gate admits f*u, found by stepping one float at a time from start."""
    f = start
    for _ in range(1000):
        if not gate_admits(u, f):
            f = math.nextafter(f, 1.0)
        elif gate_admits(u, nxt := math.nextafter(f, outward)):
            f = nxt
        else:
            return f
    raise AssertionError("no edge of the gate within 1000 floats of the start")


# Inputs of the library's own normalizing builders: ``make_state(...,
# normalize=True)``, ``embed_correlated`` of a normalized ``make_correlated``
# and the three per-index samplers. Plain lists, without Hypothesis, so that a
# digest of what they build is a pure function of the library.

# 1 and the scales where make_state's norm takes its scale-safe path.
BUILD_SCALES = (1.0, 1e200, 1e-200, 1e300, 1e-300, 5e-324)
# Poles (q2 = 0, and q1 = 0), products, equal Schmidt weights, D = 0 and
# generic amplitudes; each has a part of modulus at least 1, so that none
# rounds to all zeros at 5e-324.
BUILD_PATTERNS = (
    (1, 0, 0, 0), (0, 0, 1, 0), (0, 1j, 0, 0), (1, 1j, 0, 0), (1, 1j, 1e-15, 0),
    (0, 0, 2, -1j), (1, 1j, 1, 1j), (1, 0, 1, 0), (1, 0.5j, 2, 1j), (1, 0, 0, 1),
    (0, 1, -1j, 0), (1, 1j, -1j, 1), (1.5, 0, 0, 2j), (1, 2j, -1, 0.5 - 0.25j),
)
SAMPLER_SEEDS = (0, 42, 2**64 - 1)
SAMPLER_COUNT = 2000
FIXEDC_LEVELS = (0.0, 1e-9, 0.25, 0.5, 1.0)


def normalized_inputs() -> list[tuple[complex, ...]]:
    """``BUILD_PATTERNS`` and 40 random directions, each at every scale of
    ``BUILD_SCALES``."""
    rng = np.random.default_rng(33)
    patterns = [tuple(map(complex, p)) for p in BUILD_PATTERNS]
    for v in rng.normal(size=(40, 8)):
        if np.abs(v).max() >= 1.0:
            patterns.append(tuple(complex(v[k], v[k + 1]) for k in range(0, 8, 2)))
    return [tuple(scale * a for a in p) for scale in BUILD_SCALES for p in patterns]


def correlated_inputs() -> list[tuple]:
    """(mu, nu, chi1, chi2) at d = 1..4, unnormalized: chi2 a generic vector,
    parallel to chi1 (a phase and a factor apart), or orthogonal to it."""
    rng = np.random.default_rng(34)

    def vector(d):
        return rng.normal(size=d) + 1j * rng.normal(size=d)

    inputs = []
    for d in (1, 2, 3, 4):
        for _ in range(5):
            mu, nu = (complex(z) for z in vector(2))
            chi1 = vector(d)
            kinds = [vector(d), 2.5 * complex(0.6, -0.8) * chi1]
            if d > 1:
                other = vector(d)
                kinds.append(other - (np.vdot(chi1, other) / np.vdot(chi1, chi1)) * chi1)
            for chi2 in kinds:
                inputs.append((mu, nu, tuple(map(complex, chi1)), tuple(map(complex, chi2))))
    return inputs


def sampler_calls(seeds=SAMPLER_SEEDS) -> list[tuple]:
    """(function, arguments) of every per-index sampler call: haar, separable
    and fixedc at each of ``FIXEDC_LEVELS``, at ``SAMPLER_COUNT`` indices of
    each of the seeds."""
    calls = []
    for seed in seeds:
        for i in range(SAMPLER_COUNT):
            calls.append((haar_state, (seed, i)))
            calls.append((separable_state, (seed, i)))
            calls.extend((fixed_concurrence_state, (seed, i, c)) for c in FIXEDC_LEVELS)
    return calls


def built_states() -> Iterator[TwoQubitState]:
    """The states the normalizing builders make from all the inputs above."""
    for amps in normalized_inputs():
        yield make_state(amps, normalize=True)
    for args in correlated_inputs():
        yield embed_correlated(make_correlated(*args, normalize=True))
    for f, args in sampler_calls():
        yield f(*args)
