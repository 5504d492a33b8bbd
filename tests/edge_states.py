"""Hypothesis strategies for states on and around the edges the library
treats apart, shared by the test modules."""

import cmath
import math

from hypothesis import strategies as st

from qtriad.classify import DEFAULT_CLASSIFY_TOL
from qtriad.states import NORM_TOL, TwoQubitState, make_state

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
