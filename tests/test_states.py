import cmath
import math
import os
import pickle
import random
import re
import sys
import threading
import time
import types
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edge_states import SMALL_GAMMA_STATES, edge_states, last_admitted
from qtriad import states as states_module
from qtriad.classify import _strata, classify, schmidt_decompose
from qtriad.dataset import state_record
from qtriad.projection import (
    BallPoint,
    ball_point,
    coords_from_state,
    inverse_stereo,
    quaternify,
    stereo_project,
    triad_from_coords,
)
from qtriad.sampling import HAAR, SampleSpec, sample_haar
from qtriad.states import (
    NORM_TOL,
    BlochAngles,
    CorrelatedState,
    DensityMatrix2,
    DualityTriad,
    S4Point,
    TwoQubitState,
    _admitted,
    _Columns,
    _coords,
    _gate,
    _invariants,
    _norm,
    _sum_squares,
    _triad,
    bloch_state,
    concurrence,
    distinguishability,
    embed_correlated,
    fringe_extrema,
    make_correlated,
    make_state,
    purity,
    reduced_density_photon,
    reduced_density_second,
    second_subsystem_triad,
    triad,
    visibility,
)

RNG = np.random.default_rng(202)

BELL = make_state((1, 0, 0, 1), normalize=True)
# Amplitudes exactly representable in binary, so the identity is exact.
ROTATED_BELL = make_state((0.5, 0.5, 0.5, -0.5))
WORKED = make_state(
    (math.sqrt(0.5), math.sqrt(0.2), math.sqrt(0.2), math.sqrt(0.1))
)


def random_state():
    v = RNG.normal(size=8)
    amps = [complex(v[2 * k], v[2 * k + 1]) for k in range(4)]
    return make_state(amps, normalize=True)


def photon_density_oracle(s):
    # Partial trace over the partner, via the explicit outer product.
    psi = np.array(s.alpha).reshape(2, 2)
    return np.einsum("ij,kj->ik", psi, psi.conj())


def second_density_oracle(s):
    psi = np.array(s.alpha).reshape(2, 2)
    return np.einsum("ix,iy->xy", psi, psi.conj())


# ---------------------------------------------------------------- make_state

def test_make_state_accepts_basis_state():
    s = make_state((1, 0, 0, 0))
    assert s.alpha == (1 + 0j, 0j, 0j, 0j)


def test_make_state_normalizes_on_request():
    s = make_state((1, 0, 0, 1), normalize=True)
    assert abs(s.alpha[0] - 1 / math.sqrt(2)) < 1e-15
    assert abs(s.alpha[3] - 1 / math.sqrt(2)) < 1e-15


def test_make_state_rejects_unnormalized_without_flag():
    with pytest.raises(ValueError):
        make_state((1, 0, 0, 1))


def test_make_state_rejects_zero_and_wrong_arity():
    with pytest.raises(ValueError):
        make_state((0, 0, 0, 0), normalize=True)
    with pytest.raises(ValueError):
        make_state((1, 0, 0))


@pytest.mark.parametrize("amps", [(0.6, 0.8, 0.0), (0.6, 0.8, 0.0, 0.0, 0.0), (1, 1, 1)])
@pytest.mark.parametrize("normalize", [False, True])
def test_make_state_leaves_the_arity_rule_to_the_state(amps, normalize):
    with pytest.raises(ValueError, match="a two-qubit state needs exactly 4 amplitudes"):
        make_state(amps, normalize=normalize)


@pytest.mark.parametrize("amps", [(), (0, 0, 0), (0,) * 5, (math.nan, 1, 0), (math.inf,) * 5])
@pytest.mark.parametrize("normalize", [False, True])
def test_arity_is_checked_before_the_finite_and_zero_rules(amps, normalize):
    with pytest.raises(ValueError, match="a two-qubit state needs exactly 4 amplitudes"):
        make_state(amps, normalize=normalize)
    with pytest.raises(ValueError, match="a two-qubit state needs exactly 4 amplitudes"):
        TwoQubitState(amps)


@pytest.mark.parametrize("scale", [1e200, 1e-200, 5e-324, 1.7e308])
def test_make_state_normalizes_any_finite_scale(scale):
    s = make_state((scale, 0, 0, scale), normalize=True)
    assert abs(concurrence(s) - 1.0) <= 1e-15
    for a in (s.alpha[0], s.alpha[3]):
        assert abs(a - 1 / math.sqrt(2)) <= 1e-15


@pytest.mark.parametrize(
    "amps, message",
    [
        ((math.nan, 0, 0, 1), "amplitudes must be finite"),
        ((math.inf, 0, 0, 1), "amplitudes must be finite"),
        ((1e200, complex(0, -math.inf), 0, 1), "amplitudes must be finite"),
        ((0, 0, 0, 0), "all-zero amplitudes do not define a state"),
    ],
)
@pytest.mark.parametrize("normalize", [False, True])
def test_make_state_rejects_nonfinite_and_zero(amps, message, normalize):
    with pytest.raises(ValueError, match=message):
        make_state(amps, normalize=normalize)


_FINITE = "amplitudes must be finite"
_ZERO = "all-zero amplitudes do not define a state"
_ARITY = "a two-qubit state needs exactly 4 amplitudes"
_DIMENSION = "chi1 and chi2 must share a dimension d >= 1"
_CHI_ZERO = "chi vectors must have nonzero norm"
_CHI_FINITE = "chi entries must be finite"
_WEIGHTS = "|mu|^2 + |nu|^2 must equal 1"


def _correlated_duck(mu, nu, chi1, chi2):
    # embed_correlated reads these four fields only; a CorrelatedState would
    # have rejected each of these values itself.
    return types.SimpleNamespace(mu=mu, nu=nu, chi1=chi1, chi2=chi2)


# Every rejection of the three builders, with its exception type and whole
# message, as the normalizing builders' validation left them.
_BUILDER_REJECTIONS = [
    (make_state, ((1, 0, 0),), {}, ValueError, _ARITY),
    (make_state, ((1, 0, 0),), {"normalize": True}, ValueError, _ARITY),
    (make_state, ((1, 0, 0, 0, 0),), {"normalize": True}, ValueError, _ARITY),
    (make_state, ((math.nan, 0, 0, 1),), {}, ValueError, _FINITE),
    (make_state, ((math.nan, 0, 0, 1),), {"normalize": True}, ValueError, _FINITE),
    (make_state, ((math.inf, 0, 0, 1),), {"normalize": True}, ValueError, _FINITE),
    (make_state, ((1e200, complex(0, -math.inf), 0, 1),), {"normalize": True}, ValueError, _FINITE),
    (make_state, ((1e308,) * 4,), {}, ValueError, "amplitudes are not normalized: |amp| = inf"),
    (make_state, ((0, 0, 0, 0),), {}, ValueError, _ZERO),
    (make_state, ((0, 0, 0, 0),), {"normalize": True}, ValueError, _ZERO),
    (make_state, ((1, 0, 0, 1),), {}, ValueError,
     "amplitudes are not normalized: |amp| = 1.4142135623730951"),
    (make_state, ((1e200, 0, 0, 1e200),), {}, ValueError,
     "amplitudes are not normalized: |amp| = 1.414213562373095e+200"),
    (make_state, ((5e-324, 0, 0, 0),), {}, ValueError,
     "amplitudes are not normalized: |amp| = 5e-324"),
    (make_state, ((1.000000000126, 0, 0, 0),), {}, ValueError,
     "amplitudes are not normalized: |amp| = 1.000000000126"),
    (make_state, (("x", 0, 0, 0),), {"normalize": True}, ValueError,
     "complex() arg is a malformed string"),
    (make_state, ((None, 0, 0, 0),), {"normalize": True}, TypeError,
     "complex() first argument must be a string or a number, not 'NoneType'"),
    (make_correlated, (1, 0, (), ()), {"normalize": True}, ValueError, _CHI_ZERO),
    (make_correlated, (1, 0, (0,), (1,)), {"normalize": True}, ValueError, _CHI_ZERO),
    (make_correlated, (1, 0, (1,), (0, 0)), {"normalize": True}, ValueError, _CHI_ZERO),
    (make_correlated, (0, 0, (1,), (1,)), {"normalize": True}, ValueError,
     "mu and nu cannot both vanish"),
    (make_correlated, (1, 0, (1, 0), (1,)), {"normalize": True}, ValueError, _DIMENSION),
    (make_correlated, (1, 0, (1,), (math.nan,)), {"normalize": True}, ValueError, _CHI_FINITE),
    (make_correlated, (1, 0, (math.inf,), (1,)), {"normalize": True}, ValueError, _CHI_FINITE),
    (make_correlated, (math.nan, 0, (1,), (1,)), {"normalize": True}, ValueError, _WEIGHTS),
    (make_correlated, (math.inf, 1, (1,), (1,)), {"normalize": True}, ValueError, _WEIGHTS),
    (make_correlated, (1, 0, (), ()), {}, ValueError, _DIMENSION),
    (make_correlated, (1, 0, (1,), (1, 0)), {}, ValueError, _DIMENSION),
    (make_correlated, (1, 0, (math.nan,), (1,)), {}, ValueError, _CHI_FINITE),
    (make_correlated, (1, 0, (2,), (1,)), {}, ValueError, "chi1 and chi2 must be unit vectors"),
    (make_correlated, (1, 1, (1,), (1,)), {}, ValueError, _WEIGHTS),
    (make_correlated, (math.nan, 0, (1,), (1,)), {}, ValueError, _WEIGHTS),
    (embed_correlated, (_correlated_duck(complex(math.nan), 0j, (1 + 0j,), (1 + 0j,)),), {},
     ValueError, _FINITE),
    (embed_correlated, (_correlated_duck(complex(math.inf), 0j, (1 + 0j,), (1 + 0j,)),), {},
     ValueError, _FINITE),
    (embed_correlated, (_correlated_duck(0j, 0j, (1 + 0j,), (1 + 0j,)),), {}, ValueError, _ZERO),
    (embed_correlated, (_correlated_duck(0j, 1 + 0j, (1 + 0j, 0j), (math.nan, 0j)),), {},
     ValueError, _FINITE),
]


@pytest.mark.parametrize("builder, args, kwargs, error, message", _BUILDER_REJECTIONS)
def test_builder_rejections_keep_their_type_and_message(builder, args, kwargs, error, message):
    with pytest.raises(error) as info:
        builder(*args, **kwargs)
    assert type(info.value) is error
    assert str(info.value) == message


# Unit patterns: the north pole (Q at infinity), a Bell state, a state with
# exact binary amplitudes, and one with complex amplitudes off both axes.
_UNIT_PATTERNS = [
    (1, 0, 0, 0),
    (1 / math.sqrt(2), 0, 0, 1 / math.sqrt(2)),
    (0.5, 0.5, 0.5, -0.5),
    (0.6, 0, 0.48j, 0.64),
]


@pytest.mark.parametrize("pattern", _UNIT_PATTERNS)
@pytest.mark.parametrize("delta", [1e-10, -1e-10, 1.24e-10, -1.24e-10])
def test_every_admitted_state_passes_every_derived_function(pattern, delta):
    # The gate keeps |psi| within NORM_TOL / 8 of 1, so |psi|^2 and |psi|^4,
    # which the derived types check against NORM_TOL, stay inside it.
    _derive_everything(make_state([(1 + delta) * a for a in pattern]))


def _derive_everything(s):
    inverse_stereo(stereo_project(quaternify(s)))
    reduced_density_photon(s)
    reduced_density_second(s)
    schmidt_decompose(s)
    triad_from_coords(coords_from_state(s))
    second_subsystem_triad(s)
    classify(s)
    state_record(s)
    fringe_extrema(s)


@pytest.mark.parametrize("s", SMALL_GAMMA_STATES, ids=range(len(SMALL_GAMMA_STATES)))
def test_every_admitted_state_passes_every_derived_function_at_a_tiny_schmidt_cross_term(s):
    # A subnormal gamma made schmidt_decompose's rotation non-unitary.
    _derive_everything(s)


def test_every_admitted_state_passes_every_derived_function_at_the_exchange_edge():
    # Admitted, but the same squares summed in the exchanged order
    # (a0, a2, a1, a3) put |psi| at 1.000000000125, just past the gate's band:
    # the partner qubit's functions must not run the gate again.
    s = TwoQubitState(
        (
            (0.26101644595479256 - 0.4045673682730534j),
            (-0.4396880390869515 - 0.5283687471502061j),
            (0.07481493288347053 + 0.10127656888446272j),
            (0.36232079810915285 + 0.3854425725172511j),
        )
    )
    _derive_everything(s)
    a0, a1, a2, a3 = s.alpha
    assert reduced_density_second(s) == DensityMatrix2(
        _sum_squares((a0, a2)), a1.conjugate() * a0 + a3.conjugate() * a2, _sum_squares((a1, a3))
    )


@settings(database=None, derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8).filter(any))
def test_every_admitted_state_passes_every_derived_function_at_the_gates_last_floats(v):
    # A random direction at the last scales the gate admits on either side
    # of 1, and the 3 floats inside each: the states whose exchanged sums
    # of squares can round across the band's edge.
    u = make_state([complex(v[k], v[k + 1]) for k in range(0, 8, 2)], normalize=True).alpha
    for start, outward in ((1.0 + NORM_TOL / 8, math.inf), (1.0 - NORM_TOL / 8, 0.0)):
        f = last_admitted(u, start, outward)
        for _ in range(4):
            _derive_everything(TwoQubitState(tuple(f * a for a in u)))
            f = math.nextafter(f, 1.0)


@pytest.mark.parametrize("pattern", _UNIT_PATTERNS)
@pytest.mark.parametrize("delta", [1.26e-10, 6e-10, 1.1e-9])
def test_states_off_the_norm_gate_are_rejected_at_construction(pattern, delta):
    amps = [complex((1 + delta) * a) for a in pattern]
    with pytest.raises(ValueError, match="amplitudes are not normalized"):
        make_state(amps)
    with pytest.raises(ValueError, match="amplitudes are not normalized"):
        TwoQubitState(tuple(amps))


def test_make_state_admits_a_unit_state_without_norm(monkeypatch):
    # The state's own gate admits it; _norm only words a rejection.
    calls = _counting(monkeypatch, "_norm")
    for amps in [(0.6, 0.8j, 0, 0), (0.5, 0.5, 0.5, -0.5), (0.6 + 0j, 0j, 0.48j, 0.64 + 0j)]:
        make_state(amps)
    assert calls == []
    with pytest.raises(ValueError, match="amplitudes are not normalized"):
        make_state((1, 0, 0, 1))
    assert calls


def test_make_state_without_flag_reports_the_real_norm():
    with pytest.raises(ValueError, match=r"\|amp\| = 1\.41421356237309\d*e\+200"):
        make_state((1e200, 0, 0, 1e200))


def test_make_state_in_range_normalization_keeps_its_bits():
    # In range, normalization is exactly a / sqrt(sum of squares), bit for bit.
    rng = np.random.default_rng(11)
    for _ in range(300):
        v = rng.normal(size=8) * 10.0 ** rng.uniform(-100.0, 100.0)
        amps = [complex(v[2 * k], v[2 * k + 1]) for k in range(4)]
        n = math.sqrt(sum(a.real * a.real + a.imag * a.imag for a in amps))
        expected = tuple(a / n for a in amps)
        assert repr(make_state(amps, normalize=True).alpha) == repr(expected)


def _old_gate(alpha):
    """The norm gate as ``TwoQubitState`` applied it through ``_norm``: None
    when it accepts alpha, else its message."""
    n, scale = _norm(alpha)
    if math.isfinite(n) and abs(n * scale - 1.0) <= NORM_TOL / 8:
        return None
    return f"amplitudes are not normalized: |amp| = {n * scale!r}"


def _verdict(gate, alpha):
    try:
        gate(alpha)
    except ValueError as exc:
        return str(exc)
    return None


def _row_gate(alpha):
    _gate(np.array([alpha], dtype=complex))


# The factors 1 +- NORM_TOL / 8, each with its two neighbouring floats.
_BAND_EDGES = [
    g
    for f in (1.0 - NORM_TOL / 8, 1.0 + NORM_TOL / 8)
    for g in (math.nextafter(f, 0.0), f, math.nextafter(f, 2.0))
]


@st.composite
def _gate_rows(draw):
    """Four amplitudes on and around the edges of the norm gate: unit states,
    unit states scaled to |psi| = 1 +- NORM_TOL / 8 (+- 1 ulp), to the ends
    of the float range, or with a NaN or infinite part."""
    alpha = draw(edge_states()).alpha
    kind = draw(st.sampled_from(["unit", "band", "scale", "nonfinite"]))
    if kind == "band":
        f = draw(st.sampled_from(_BAND_EDGES))
        return tuple(a * f for a in alpha)
    if kind == "scale":
        f = draw(st.sampled_from([5e-324, 1e-300, 1e300]))
        return tuple(a * f for a in alpha)
    if kind == "nonfinite":
        k, bad = draw(st.integers(0, 3)), draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        part = complex(bad, alpha[k].imag) if draw(st.booleans()) else complex(alpha[k].real, bad)
        return alpha[:k] + (part,) + alpha[k + 1:]
    return alpha


@settings(database=None, derandomize=True, max_examples=600)
@given(_gate_rows())
def test_scalar_and_row_gates_decide_as_the_norm_rule(alpha):
    expected = _old_gate(alpha)
    assert _verdict(TwoQubitState, alpha) == expected
    assert _verdict(_row_gate, alpha) == expected


@pytest.mark.parametrize(
    "alpha, norm",
    [
        ((1e300, 1e300j, 0, 0), "1.4142135623730952e+300"),
        ((1e200, 0, 0, -1e200), "1.414213562373095e+200"),
        ((1e-300, 0, 0, 0), "1e-300"),
    ],
)
def test_row_gate_gives_its_own_message_where_numpy_would_warn(alpha, norm):
    # The rows' squares overflow or underflow; with warnings as errors, numpy's
    # RuntimeWarning must not replace the gate's ValueError.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"^amplitudes are not normalized: \|amp\| = {re.escape(norm)}$"):
            _gate(np.array([alpha], dtype=complex))


@pytest.mark.parametrize(
    "chi1, chi2, message",
    [
        ((math.nan,), (1.0,), "chi entries must be finite"),
        ((1.0, 0.0), (complex(0.0, math.inf), 0.0), "chi entries must be finite"),
        ((2.0,), (1.0,), "chi1 and chi2 must be unit vectors"),
        ((1.0, 0.0), (0.6, 0.6), "chi1 and chi2 must be unit vectors"),
    ],
)
def test_correlated_state_rejects_nonfinite_and_nonunit_chi(chi1, chi2, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        CorrelatedState(1.0, 0.0, chi1, chi2)


@pytest.mark.parametrize(
    "rho, message",
    [
        ((0.6, 0.0, 0.6), "trace must be 1"),
        ((math.nan, 0.0, 0.5), "trace must be 1"),
        ((0.5, 0.6, 0.5), "matrix must be positive semidefinite"),
        ((1.5, 0.0, -0.5), "matrix must be positive semidefinite"),
        ((0.5, complex(math.nan, 0.0), 0.5), "matrix must be positive semidefinite"),
    ],
)
def test_density_matrix_rejects_a_wrong_trace_and_negative_eigenvalues(rho, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        DensityMatrix2(*rho)


class _Complex(complex):
    pass


def test_exact_complex_amplitudes_are_stored_as_given():
    alpha = (0.6 + 0j, 0j, 0.48j, 0.64 + 0j)
    assert TwoQubitState(alpha).alpha is alpha
    assert make_state(alpha).alpha is alpha


@pytest.mark.parametrize(
    "amps",
    [
        [0.6, 0, 0.48j, 0.64],
        (1, 0, 0, 0),
        tuple(np.array([0.6, 0, 0.48j, 0.64])),
        (_Complex(0.6), 0j, _Complex(0.48j), 0.64 + 0j),
        (0.6, 0j, 0.48j, 0.64 + 0j),
    ],
    ids=["list", "ints", "complex128", "complex-subclass", "float"],
)
def test_other_amplitudes_are_stored_as_exact_complex(amps):
    for s in (TwoQubitState(amps), make_state(amps), make_state(amps, normalize=True)):
        assert type(s.alpha) is tuple
        assert all(type(a) is complex for a in s.alpha)
    assert TwoQubitState(amps).alpha == tuple(complex(a) for a in amps)


def test_correlated_state_stores_exact_parts_as_given_and_converts_others():
    mu, nu, chi1, chi2 = 0.6 + 0j, 0.8j, (1 + 0j, 0j), (0.6 + 0j, 0.8j)
    c = CorrelatedState(mu, nu, chi1, chi2)
    assert c.mu is mu and c.nu is nu and c.chi1 is chi1 and c.chi2 is chi2
    for parts in [
        (0.6, 0.8j, [1, 0], (0.6, 0.8j)),
        (np.complex128(0.6), _Complex(0.8j), (np.complex128(1), 0j), [_Complex(0.6), 0.8j]),
        (_Complex(0.6), 0.8j, (1 + 0j, 0), (0.6 + 0j, np.complex128(0.8j))),
    ]:
        c = CorrelatedState(*parts)
        assert type(c.mu) is complex and type(c.nu) is complex
        assert (c.mu, c.nu) == (complex(parts[0]), complex(parts[1]))
        for chi, given_chi in ((c.chi1, parts[2]), (c.chi2, parts[3])):
            assert type(chi) is tuple and all(type(x) is complex for x in chi)
            assert chi == tuple(complex(x) for x in given_chi)
    normalized = make_correlated(_Complex(3), 4, [2, 0], (np.complex128(0.6), 0.8j), normalize=True)
    assert all(type(x) is complex for x in (normalized.mu, normalized.nu) + normalized.chi1)


@pytest.mark.parametrize(
    "build, cls",
    [
        (triad, DualityTriad),
        (coords_from_state, S4Point),
        (lambda s: inverse_stereo(stereo_project(quaternify(s))), S4Point),
        (ball_point, BallPoint),
    ],
    ids=["triad", "coords_from_state", "inverse_stereo", "ball_point"],
)
def test_named_tuple_results_behave_as_built_by_their_class(build, cls):
    result = build(WORKED)
    built = cls(*result)
    assert type(result) is cls
    assert result._fields == cls._fields
    assert repr(result) == repr(built)
    assert result == built and tuple(result) == tuple(built)
    first = cls._fields[0]
    replaced = result._replace(**{first: 0.25})
    assert type(replaced) is cls and replaced == built._replace(**{first: 0.25})
    restored = pickle.loads(pickle.dumps(result))
    assert type(restored) is cls and restored == result


# Entries of 0 and +-1 (or +-1j) stay exact when scaled to the float limits.
@pytest.mark.parametrize(
    "scale, chi1, chi2",
    [
        (1e200, (0.6, 0.8j, 0.0), (0.3, -0.1, 0.2 + 0.5j)),
        (1e-200, (0.6, 0.8j, 0.0), (0.3, -0.1, 0.2 + 0.5j)),
        (1.7e308, (1.0, 1.0, 1.0), (1.0, 0.0, -1j)),
        (5e-324, (1.0, 1.0, 1.0), (1.0, 0.0, -1j)),
    ],
)
def test_make_correlated_ignores_the_scale_of_chi(scale, chi1, chi2):
    base = make_correlated(0.6, 0.8, chi1, chi2, normalize=True)
    scaled = make_correlated(
        0.6, 0.8, [scale * c for c in chi1], [scale * c for c in chi2], normalize=True
    )
    for a, b in zip(
        (base.mu, base.nu, *base.chi1, *base.chi2),
        (scaled.mu, scaled.nu, *scaled.chi1, *scaled.chi2),
    ):
        assert abs(a - b) <= 1e-15


# Branch weights whose fold or combined norm overflows, or is subnormal.
@pytest.mark.parametrize(
    "mu, nu, chi1, chi2, expected",
    [
        (1.2e308, 1.6e308, (1, 0, 0), (0.6, 0.8j, 0), (0.6, 0.8)),
        (1e-320, 1e-320, (1, 0, 0), (0.6, 0.8j, 0), (2**-0.5, 2**-0.5)),
        (5e-324, 5e-324j, (1, 0, 0), (0.6, 0.8j, 0), (2**-0.5, 2**-0.5 * 1j)),
        (1.5e308, 1.5e308, (1, 1, 1), (1, 0, 0), (3**0.5 / 2, 0.5)),
    ],
)
def test_make_correlated_normalizes_extreme_branch_weights(mu, nu, chi1, chi2, expected):
    c = make_correlated(mu, nu, chi1, chi2, normalize=True)
    assert abs(c.mu - expected[0]) <= 1e-15
    assert abs(c.nu - expected[1]) <= 1e-15


def test_make_correlated_keeps_a_weight_whose_chi_norm_underflows_the_fold():
    # |chi1| overflows and |chi2| = 5e-324, so chi2's fold factor 2**-2098
    # underflows; the weights themselves are 1.4e8 and 4.9e-16.
    c = make_correlated(1e-300, 1e308, (1e308, 1e308), (5e-324, 0), normalize=True)
    expected = 1e308 * 5e-324 / (1e-300 * math.hypot(1e308, 1e308))
    assert c.mu == 1
    assert abs(c.nu - expected) <= 1e-15 * expected


def test_make_correlated_keeps_a_folded_weight_that_falls_below_the_normal_range():
    # mu * |chi1| = 1.2 * 2**-1060 is subnormal while w = |nu| stays normal.
    mu, nu = 2**-1000 * 1.2345 * (1 + 3 * 2**-52), 1.5 * 2**-1021
    c = make_correlated(mu, nu, (2**-60,), (1.0,), normalize=True)
    # mu / w = r / sqrt(1 + r**2) with r = mu * 2**-60 / nu ~ 2**-39, which
    # lies between r * (1 - r**2) and r; both round to the same double.
    r = Fraction(mu) * Fraction(2) ** -60 / Fraction(nu)
    assert float(r * (1 - r * r)) == float(r)
    assert c.mu == float(r)
    assert c.nu == 1


# ---------------------------------------------------------- reduced densities

def test_reduced_photon_basis_state():
    rho = reduced_density_photon(make_state((1, 0, 0, 0)))
    assert (rho.rho00, rho.rho01, rho.rho11) == (1.0, 0j, 0.0)


def test_reduced_photon_bell_is_maximally_mixed():
    rho = reduced_density_photon(BELL)
    assert abs(rho.rho00 - 0.5) < 1e-15
    assert abs(rho.rho11 - 0.5) < 1e-15
    assert rho.rho01 == 0j


def test_reduced_photon_worked_values():
    rho = reduced_density_photon(WORKED)
    assert abs(rho.rho00 - 0.7) < 1e-15
    assert abs(rho.rho01 - 0.45764912225414744) < 1e-15
    oracle = photon_density_oracle(WORKED)
    assert abs(rho.rho01 - oracle[0, 1]) < 1e-15


def test_reduced_photon_matches_partial_trace_oracle():
    for _ in range(200):
        s = random_state()
        rho = reduced_density_photon(s)
        oracle = photon_density_oracle(s)
        assert abs(rho.rho00 - oracle[0, 0].real) < 1e-14
        assert abs(rho.rho01 - oracle[0, 1]) < 1e-14
        assert abs(rho.rho11 - oracle[1, 1].real) < 1e-14


def test_reduced_second_basis_and_bell():
    rho = reduced_density_second(make_state((1, 0, 0, 0)))
    assert (rho.rho00, rho.rho01, rho.rho11) == (1.0, 0j, 0.0)
    rho = reduced_density_second(BELL)
    assert abs(rho.rho00 - 0.5) < 1e-15
    assert rho.rho01 == 0j


def test_reduced_second_worked_value():
    # Off-diagonal frozen from the partial-trace oracle: 1/4 for this state.
    s = make_state((1 / math.sqrt(2), 0, 0.5, 0.5))
    rho = reduced_density_second(s)
    oracle = second_density_oracle(s)
    assert abs(oracle[0, 1] - 0.25) < 1e-15
    assert abs(rho.rho01 - 0.25) < 1e-15
    assert abs(rho.rho00 - 0.75) < 1e-15


def test_reduced_second_matches_partial_trace_oracle():
    for _ in range(200):
        s = random_state()
        rho = reduced_density_second(s)
        oracle = second_density_oracle(s)
        assert abs(rho.rho00 - oracle[0, 0].real) < 1e-14
        assert abs(rho.rho01 - oracle[0, 1]) < 1e-14
        assert abs(rho.rho11 - oracle[1, 1].real) < 1e-14


# ------------------------------------------------------------------ measures

def test_visibility_examples():
    assert abs(visibility(make_state((1, 0, 1, 0), normalize=True)) - 1.0) < 1e-15
    assert visibility(BELL) == 0.0
    assert abs(visibility(WORKED) - 0.9152982445082949) < 1e-15


def test_distinguishability_examples():
    assert distinguishability(make_state((1, 0, 0, 0))) == 1.0
    assert distinguishability(BELL) == 0.0
    assert abs(distinguishability(make_state((0.6, 0, 0, 0.8))) - 0.28) < 1e-15


def test_concurrence_examples():
    assert abs(concurrence(BELL) - 1.0) < 1e-15
    assert abs(concurrence(make_state((0.6, 0, 0, 0.8))) - 0.96) < 1e-15


def test_concurrence_vanishes_on_product_states():
    for _ in range(300):
        v = RNG.normal(size=8)
        a, b = complex(v[0], v[1]), complex(v[2], v[3])
        c, d = complex(v[4], v[5]), complex(v[6], v[7])
        s = make_state((a * c, a * d, b * c, b * d), normalize=True)
        assert concurrence(s) < 1e-15


def test_concurrence_matches_bilinear_form_oracle():
    sy = np.array([[0, -1j], [1j, 0]])
    syy = np.kron(sy, sy)
    for _ in range(500):
        s = random_state()
        a = np.array(s.alpha)
        oracle = abs(a @ syy @ a)
        assert abs(concurrence(s) - oracle) < 1e-12


def test_concurrence_local_unitary_invariance():
    for _ in range(200):
        s = random_state()
        u = _random_unitary()
        for side in (0, 1):
            t = _apply_one_qubit(s, u, side)
            assert abs(concurrence(t) - concurrence(s)) < 1e-10


def test_concurrence_exchange_symmetry():
    for _ in range(200):
        s = random_state()
        a0, a1, a2, a3 = s.alpha
        swapped = TwoQubitState((a0, a2, a1, a3))
        assert abs(concurrence(swapped) - concurrence(s)) < 1e-12


def _random_unitary():
    z = RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _apply_one_qubit(s, u, side):
    psi = np.array(s.alpha).reshape(2, 2)
    psi = u @ psi if side == 0 else psi @ u.T
    return TwoQubitState(tuple(psi.reshape(4)))


# --------------------------------------------------------------------- triad

def test_triad_bell_and_rotated_bell():
    v, d, c = triad(BELL)
    assert v == 0.0 and d == 0.0 and abs(c - 1.0) < 1e-15
    assert triad(ROTATED_BELL) == (0.0, 0.0, 1.0)


def test_triad_worked_values_and_identity():
    v, d, c = triad(WORKED)
    assert abs(v - 0.9152982445082949) < 1e-15
    assert abs(d - 0.4) < 1e-15
    assert abs(c - 0.047213595499958017) < 1e-15
    assert abs(v * v + d * d + c * c - 1.0) < 1e-15


def test_identity_over_random_states():
    for _ in range(2000):
        v, d, c = triad(random_state())
        assert abs(v * v + d * d + c * c - 1.0) <= 1e-10


def test_measures_are_global_phase_invariant():
    for _ in range(100):
        s = random_state()
        phase = cmath.exp(1j * RNG.uniform(0, 2 * math.pi))
        t = TwoQubitState(tuple(phase * a for a in s.alpha))
        assert abs(visibility(t) - visibility(s)) < 1e-12
        assert abs(distinguishability(t) - distinguishability(s)) < 1e-12
        assert abs(concurrence(t) - concurrence(s)) < 1e-12


# ---------------------------------------------------- second-subsystem triad

def test_second_triad_bell():
    assert second_subsystem_triad(BELL) == (0.0, 0.0, concurrence(BELL))


def test_second_triad_plus_state():
    s = make_state((1, 1, 0, 0), normalize=True)  # |0> x (|e>+|f>)/sqrt(2)
    v, d, c = second_subsystem_triad(s)
    assert abs(v - 1.0) < 1e-15
    assert d < 1e-15 and c < 1e-15


def test_second_triad_worked_triple():
    # Verified by the partial-trace and bilinear oracles: (1/2, 1/2, 1/sqrt(2)).
    s = make_state((1 / math.sqrt(2), 0, 0.5, 0.5))
    v, d, c = second_subsystem_triad(s)
    assert abs(v - 0.5) < 1e-14
    assert abs(d - 0.5) < 1e-14
    assert abs(c - 1 / math.sqrt(2)) < 1e-14
    assert abs(v * v + d * d + c * c - 1.0) < 1e-14


# Amplitudes at scales from 1e-150 to 1e150 (and zeros) before normalization,
# so that the normalized parts reach 1e-300 and their squares underflow.
_SCALED_PARTS = st.tuples(
    st.floats(-1.0, 1.0), st.sampled_from([0.0, 1e-150, 1e-75, 1.0, 1e75, 1e150])
).map(lambda p: p[0] * p[1])
_SCALED_STATES = st.lists(_SCALED_PARTS, min_size=8, max_size=8).filter(any).map(
    lambda v: make_state([complex(v[k], v[k + 1]) for k in range(0, 8, 2)], normalize=True)
)


@settings(database=None, derandomize=True, max_examples=400)
@given(_SCALED_STATES)
def test_partner_side_matches_the_explicit_formulas_by_repr(s):
    # The partial trace over the path qubit, written out on the partner side.
    a0, a1, a2, a3 = s.alpha
    pe = a0.real * a0.real + a0.imag * a0.imag + (a2.real * a2.real + a2.imag * a2.imag)
    pf = a1.real * a1.real + a1.imag * a1.imag + (a3.real * a3.real + a3.imag * a3.imag)
    off = a1.conjugate() * a0 + a3.conjugate() * a2
    rho = reduced_density_second(s)
    assert repr((rho.rho00, rho.rho01, rho.rho11)) == repr((pe, off, pf))
    expected = (2.0 * abs(off), abs(pe - pf), 2.0 * abs(a1 * a2 - a0 * a3))
    assert repr(tuple(second_subsystem_triad(s))) == repr(expected)


# Each population is four products and two sums, (x0 + x1) + (x2 + x3), so
# every term passes through three roundings: within gamma_3 = 3u / (1 - 3u)
# of the exact sum, relative (Higham, Accuracy and Stability of Numerical
# Algorithms, 2nd ed., ch. 3). A product that underflows is off by at most
# half of 2**-1074, which the absolute term covers for all four.
_U = Fraction(1, 2**53)
_GAMMA3 = 3 * _U / (1 - 3 * _U)
_UNDERFLOW = Fraction(1, 2**1072)


def _assert_populations_within_gamma3(states):
    for s in states:
        a0, a1, a2, a3 = s.alpha
        p0, p1, _, _ = _invariants(a0, a1, a2, a3)
        for computed, pair in ((p0, (a0, a1)), (p1, (a2, a3))):
            exact = sum(Fraction(z.real) ** 2 + Fraction(z.imag) ** 2 for z in pair)
            error = abs(Fraction(computed) - exact)
            assert error <= _GAMMA3 * exact + _UNDERFLOW, (s, float(error / exact / _U))


@settings(database=None, derandomize=True, max_examples=400)
@given(st.one_of(edge_states(), _SCALED_STATES))
def test_populations_are_within_gamma3_of_the_exact_value_on_edge_states(s):
    _assert_populations_within_gamma3([s])


def test_populations_are_within_gamma3_of_the_exact_value_on_a_haar_sample():
    # Squaring |a| through its modulus, as abs(a) ** 2 does, breaks the bound
    # on 5 of these 40000 values, by up to 3.59u.
    _assert_populations_within_gamma3(sample_haar(SampleSpec(20000, 7, HAAR)))


def test_second_subsystem_identity_holds():
    for _ in range(2000):
        v, d, c = second_subsystem_triad(random_state())
        assert abs(v * v + d * d + c * c - 1.0) <= 1e-10


# ------------------------------------------------------------------- fringes

def test_fringe_full_contrast():
    p_max, p_min = fringe_extrema(make_state((1, 0, 1, 0), normalize=True))
    assert abs(p_max - 1.0) < 1e-15
    assert abs(p_min) < 1e-15


def test_fringe_flat_for_bell():
    p_max, p_min = fringe_extrema(BELL)
    assert abs(p_max - 0.5) < 1e-15
    assert abs(p_min - 0.5) < 1e-15


def test_fringe_worked_extrema():
    p_max, p_min = fringe_extrema(WORKED)
    assert abs(p_max - 0.9576491222541474) < 1e-12
    assert abs(p_min - 0.042350877745852555) < 1e-12


def test_fringe_contrast_equals_visibility():
    for _ in range(300):
        s = random_state()
        p_max, p_min = fringe_extrema(s)
        contrast = (p_max - p_min) / (p_max + p_min)
        assert abs(contrast - visibility(s)) <= 1e-10


# -------------------------------------------------------------------- purity

def test_purity_examples():
    assert purity(reduced_density_photon(make_state((1, 0, 0, 0)))) == 1.0
    rho = reduced_density_photon(BELL)
    assert abs(purity(rho) - 0.5) < 1e-15
    v, d = visibility(BELL), distinguishability(BELL)
    assert v * v + d * d == 0.0


def test_purity_worked_value():
    s = make_state((0.6, 0, 0, 0.8))
    p = purity(reduced_density_photon(s))
    assert abs(p - 0.5392) < 1e-15
    d = distinguishability(s)
    assert abs(2 * p - 1 - d * d) < 1e-14


def test_purity_relation_over_random_states():
    for _ in range(1000):
        s = random_state()
        v, d = visibility(s), distinguishability(s)
        p = purity(reduced_density_photon(s))
        assert abs(v * v + d * d - (2 * p - 1)) <= 1e-10


# -------------------------------------------------------------- bloch states

def test_bloch_poles_and_equator():
    s = bloch_state(BlochAngles(0.0, 0.0))
    assert s.alpha == (1 + 0j, 0j, 0j, 0j)
    assert triad(s) == (0.0, 1.0, 0.0)
    v, d, c = triad(bloch_state(BlochAngles(math.pi / 2, 0.0)))
    assert abs(v - 1.0) < 1e-15
    assert d < 1e-15 and c == 0.0


def test_bloch_third_turn():
    v, d, c = triad(bloch_state(BlochAngles(math.pi / 3, 0.0)))
    assert abs(v - 0.8660254037844386) < 1e-15
    assert abs(d - 0.5) < 1e-15
    assert abs(v * v + d * d - 1.0) < 1e-15
    assert c == 0.0


def test_bloch_angle_ranges():
    with pytest.raises(ValueError):
        BlochAngles(-0.1, 0.0)
    with pytest.raises(ValueError):
        BlochAngles(math.pi + 0.1, 0.0)
    with pytest.raises(ValueError):
        BlochAngles(1.0, 2 * math.pi)


# ---------------------------------------------------------------- embedding

def test_embed_orthogonal_chis_gives_bell():
    c = make_correlated(
        1 / math.sqrt(2), 1 / math.sqrt(2), (1, 0), (0, 1)
    )
    s = embed_correlated(c)
    assert abs(s.alpha[0] - 1 / math.sqrt(2)) < 1e-15
    assert abs(s.alpha[3] - 1 / math.sqrt(2)) < 1e-15
    assert abs(s.alpha[1]) < 1e-15 and abs(s.alpha[2]) < 1e-15


def test_embed_half_overlapping_chis():
    c = make_correlated(
        1 / math.sqrt(2),
        1 / math.sqrt(2),
        (1, 0),
        (1 / math.sqrt(2), 1 / math.sqrt(2)),
    )
    s = embed_correlated(c)
    expected = (1 / math.sqrt(2), 0.0, 0.5, 0.5)
    assert all(abs(a - e) < 1e-14 for a, e in zip(s.alpha, expected))
    v, d, cc = triad(s)
    assert abs(v - 1 / math.sqrt(2)) < 1e-14
    assert d < 1e-14
    assert abs(cc - 1 / math.sqrt(2)) < 1e-14
    assert abs(v * v + d * d + cc * cc - 1.0) < 1e-14


def test_embed_pure_branch_is_product_state():
    c = make_correlated(1, 0, (0.6, 0.8j), (1, 0), normalize=True)
    s = embed_correlated(c)
    assert abs(abs(s.alpha[0]) - 1.0) < 1e-15
    assert all(abs(a) < 1e-15 for a in s.alpha[1:])


def test_embed_parallel_chis_degenerate_case():
    phase = cmath.exp(0.3j)
    chi = (0.6, 0.8j)
    c = make_correlated(0.6, 0.8, chi, tuple(phase * x for x in chi), normalize=True)
    s = embed_correlated(c)
    # No second direction: the residual amplitude must be negligible.
    assert abs(s.alpha[1]) < 1e-12 and abs(s.alpha[3]) < 1e-12
    assert concurrence(s) < 1e-12


def _random_correlated(dim):
    v = RNG.normal(size=2) + 1j * RNG.normal(size=2)
    chi1 = RNG.normal(size=dim) + 1j * RNG.normal(size=dim)
    chi2 = RNG.normal(size=dim) + 1j * RNG.normal(size=dim)
    return make_correlated(v[0], v[1], tuple(chi1), tuple(chi2), normalize=True)


def _correlated_density_oracle(c):
    # rho of the path qubit straight from the full 2d-dimensional vector.
    top = np.array([c.mu * x for x in c.chi1])
    bot = np.array([c.nu * x for x in c.chi2])
    full = np.vstack([top, bot])
    return np.einsum("ij,kj->ik", full, full.conj())


def test_embed_preserves_photon_density_matrix():
    for dim in (2, 3, 5):
        for _ in range(100):
            c = _random_correlated(dim)
            s = embed_correlated(c)
            rho = reduced_density_photon(s)
            oracle = _correlated_density_oracle(c)
            assert abs(rho.rho00 - oracle[0, 0].real) < 1e-12
            assert abs(rho.rho01 - oracle[0, 1]) < 1e-12
            assert abs(rho.rho11 - oracle[1, 1].real) < 1e-12


def test_correlated_state_validation():
    with pytest.raises(ValueError):
        make_correlated(1, 0, (0, 0), (1, 0), normalize=True)
    with pytest.raises(ValueError):
        make_correlated(0, 0, (1, 0), (0, 1), normalize=True)
    with pytest.raises(ValueError):
        make_correlated(1, 0, (1, 0), (1, 0, 0), normalize=True)
    with pytest.raises(ValueError):
        make_correlated(0.9, 0.9, (1, 0), (0, 1))  # not normalized, no flag


# Parts biased to where complex rounding has edges: signed zeros, the
# smallest subnormal, magnitudes near both ends of the float range, and
# ordinary floats.
_EDGE_PARTS = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300]
_PARTS = st.one_of(
    st.sampled_from(_EDGE_PARTS),
    st.floats(-2.0, 2.0),
    st.floats(allow_nan=False, allow_infinity=False),
)
_DIVISORS = st.one_of(
    st.sampled_from([5e-324, 1e-300, 1.0, 1e300]),
    st.floats(min_value=5e-324, allow_infinity=False),
)
# (a, b, f, w): two complex numbers, a real factor and a positive divisor.
_COLUMN_ROW = st.tuples(
    st.builds(complex, _PARTS, _PARTS), st.builds(complex, _PARTS, _PARTS), _PARTS, _DIVISORS
)


def _as_columns(zs):
    return _Columns(np.array([z.real for z in zs]), np.array([z.imag for z in zs]))


def _column_parts(c):
    # repr keeps every bit of a float and tells 0.0 from -0.0.
    return list(zip(map(repr, c.real.tolist()), map(repr, c.imag.tolist())))


def _python_parts(zs):
    return [(repr(z.real), repr(z.imag)) for z in zs]


@settings(database=None, derandomize=True, max_examples=100, deadline=None)
@given(st.one_of(*(st.lists(_COLUMN_ROW, min_size=n, max_size=n) for n in (1, 64))))
def test_columns_round_as_python_complex(rows):
    a, b, f, w = (list(column) for column in zip(*rows))
    ca, cb, fs, ws = _as_columns(a), _as_columns(b), np.array(f), np.array(w)
    g, v = f[0], w[0]
    # Overflow to inf, and inf - inf, are part of what Python returns here.
    with np.errstate(all="ignore"):
        cases = {
            "a + b": (ca + cb, [x + y for x, y in zip(a, b)]),
            "a - b": (ca - cb, [x - y for x, y in zip(a, b)]),
            "-a": (-ca, [-x for x in a]),
            "a * b": (ca * cb, [x * y for x, y in zip(a, b)]),
            "f * a, f an array": (fs * ca, [h * x for h, x in zip(f, a)]),
            "a * f, f an array": (ca * fs, [x * h for h, x in zip(f, a)]),
            "f * a, f a float": (g * ca, [g * x for x in a]),
            "a * f, f a float": (ca * g, [x * g for x in a]),
            "a / w, w an array": (ca / ws, [x / u for x, u in zip(a, w)]),
            "a / w, w a float": (ca / v, [x / v for x in a]),
            "conjugate": (ca.conjugate(), [x.conjugate() for x in a]),
        }
        moduli = abs(ca)
    for name, (columns, expected) in cases.items():
        assert type(columns) is _Columns, name
        assert _column_parts(columns) == _python_parts(expected), name
    for modulus, x in zip(moduli.tolist(), a):
        try:
            expected = abs(x)
        except OverflowError:  # Python raises where |x| overflows
            continue
        assert repr(modulus) == repr(expected)


# The readers of ``states``' one-entry memo, each value as compared: by repr,
# which keeps every bit, and classify's labels sorted.
_READERS = {
    "triad": lambda s: repr(triad(s)),
    "coords_from_state": lambda s: repr(coords_from_state(s)),
    "ball_point": lambda s: repr(ball_point(s)),
    "classify": lambda s: sorted(label.value for label in classify(s)),
    "reduced_density_photon": lambda s: repr(reduced_density_photon(s)),
}


def _fresh(s):
    """The readers' values for s from an ``_invariants`` call of its own."""
    p0, p1, coherence, det = invariants = _invariants(*s.alpha)
    t, x = _triad(*invariants), _coords(*invariants)
    return {
        "triad": repr(t),
        "coords_from_state": repr(x),
        "ball_point": repr(BallPoint(x.x0, x.x1, x.x2)),
        "classify": sorted(label.value for label in _strata(t)),
        "reduced_density_photon": repr(DensityMatrix2(p0, coherence, p1)),
    }


@settings(database=None, derandomize=True, max_examples=300)
@given(
    edge_states(),
    edge_states(),
    st.lists(st.tuples(st.integers(0, 1), st.sampled_from(sorted(_READERS))), max_size=24),
)
def test_memo_readers_equal_a_fresh_evaluation_on_interleaved_edge_states(a, b, reads):
    # Lone reads, repeated reads and reads of two states in any order.
    pair = (a, b)
    expected = [_fresh(a), _fresh(b)]
    for k, name in reads:
        assert _READERS[name](pair[k]) == expected[k][name], (k, name)
    for name in sorted(_READERS):
        assert _READERS[name](a) == expected[0][name], name


def test_memo_readers_equal_a_fresh_evaluation_on_admitted_states():
    # Each state read is released before the next is built, and the state
    # between them is dropped unread, so the next state read can take the
    # address of the last one. The memo holds the state it keeps, so that
    # address is not free while the memo keys on it.
    alpha = np.array([s.alpha for s in sample_haar(SampleSpec(1000, 7, HAAR))])
    states = _admitted(alpha)
    names = sorted(_READERS)
    for k in range(len(alpha) // 2):
        s = next(states)
        next(states)
        expected = _fresh(s)
        for name in names[k % len(names) :] + names[: k % len(names)]:
            assert _READERS[name](s) == expected[name], (k, name)
        del s


def _counting(monkeypatch, name):
    """``states.<name>`` replaced by a wrapper that counts its calls."""
    calls = []
    fn = getattr(states_module, name)

    def counted(*args):
        calls.append(name)
        return fn(*args)

    monkeypatch.setattr(states_module, name, counted)
    return calls


def test_memo_evaluates_a_state_once_for_every_reader(monkeypatch):
    # The first reader of a state fills its whole entry, whichever reader
    # that is: one _invariants, one _triad and one _coords call. The later
    # readers of the state make none.
    calls = [_counting(monkeypatch, name) for name in ("_invariants", "_triad", "_coords")]
    firsts = ((0.5, 0.5j, -0.5, 0.5), triad), ((0.6, 0, 0, 0.8), reduced_density_photon)
    for k, (amplitudes, first) in enumerate(firsts, 1):
        s = make_state(amplitudes)
        first(s)
        assert [len(c) for c in calls] == [k, k, k], first.__name__
        triad(s)
        coords_from_state(s)
        ball_point(s)
        classify(s)
        reduced_density_photon(s)
        assert [len(c) for c in calls] == [k, k, k], first.__name__


def test_memo_gives_each_thread_its_own_states_values():
    # More threads than cores, each reading its own states through every
    # reader, in an order that differs from thread to thread and round to
    # round. A shortened switch interval lets the interpreter switch often,
    # and each thread also gives up the interpreter at a random 30% of its
    # Python calls, which are where a switch can fall inside a reader. A
    # reader that paired one thread's state with another's values would
    # return a foreign value.
    threads = (os.cpu_count() or 1) + 2
    states = sample_haar(SampleSpec(40 * threads, 11, HAAR))
    work = [states[k::threads] for k in range(threads)]
    expected = [[_fresh(s) for s in mine] for mine in work]
    names = sorted(_READERS)
    done = [False] * threads
    wrong = [[] for _ in range(threads)]

    def run(k):
        draw = random.Random(k).random

        def switch(frame, event, arg):
            if event == "call" and draw() < 0.3:
                time.sleep(0)

        sys.setprofile(switch)
        for r in range(5):
            for j, s in enumerate(work[k]):
                turn = (j + k + r) % len(names)
                for name in names[turn:] + names[:turn]:
                    if _READERS[name](s) != expected[k][j][name]:
                        wrong[k].append((r, j, name))
        done[k] = True

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=run, args=(k,)) for k in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert done == [True] * threads
    assert wrong == [[] for _ in range(threads)]
