"""The private builders of ``TwoQubitState``, ``CorrelatedState``,
``Quaternion``, ``QuaternionSpinor`` and ``SchmidtForm`` make the values the
public constructors make, and every check that can fire still fires with the
constructor's exception and message.

One test covers every builder that ``quaternion._trusted`` has made, read
from its registry: a new builder needs one row in ``public_samples``. The
other tests check that each builder's callers pass values that the
constructor would admit."""

import dataclasses
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edge_states import (
    BUILD_SCALES,
    SAMPLER_SEEDS,
    correlated_inputs,
    edge_states,
    gate_admits,
    last_admitted,
    normalized_inputs,
    route_edge_states,
    sampler_calls,
)
from qtriad.classify import SchmidtForm, schmidt_decompose
from qtriad.projection import QuaternionSpinor, quaternify, stereo_project
from qtriad.quaternion import _TRUSTED, Quaternion, is_infinite
from qtriad.states import (
    NORM_TOL,
    CorrelatedState,
    TwoQubitState,
    _exact,
    _sum_squares,
    embed_correlated,
    make_correlated,
    make_state,
)


def assert_same_value(built, public):
    """built and public are one value to every reader: ``==``, ``repr`` (which
    keeps every bit and the sign of zero), ``hash``, a pickle round trip and
    ``dataclasses.replace``, which runs the public checks on built's fields."""
    assert type(built) is type(public)
    assert built == public
    assert repr(built) == repr(public)
    assert hash(built) == hash(public)
    assert pickle.loads(pickle.dumps(built)) == public
    assert dataclasses.replace(built) == public


def assert_builders_match(s: TwoQubitState) -> None:
    a0, a1, a2, a3 = s.alpha
    sp = quaternify(s)
    assert_same_value(sp, QuaternionSpinor(Quaternion(a0, a1), Quaternion(a2, a3)))
    q1, q2 = sp.q1, sp.q2
    for q in (q1, q2):
        assert_same_value(q.conjugate(), Quaternion(q.z1.conjugate(), -q.z2))
        assert_same_value(-q, Quaternion(-q.z1, -q.z2))
    assert_same_value(q1 + q2, Quaternion(q1.z1 + q2.z1, q1.z2 + q2.z2))
    q = stereo_project(sp)
    if not is_infinite(q):
        inverse = q2.inverse()
        assert_same_value(inverse, Quaternion(inverse.z1, inverse.z2))
        assert_same_value(q, Quaternion(q.z1, q.z2))
    form = schmidt_decompose(s)
    assert_same_value(form, SchmidtForm(form.lambda1, form.lambda2, form.basis2))


def public_samples(s: TwoQubitState, correlated: tuple) -> dict[type, list]:
    """Values of each class that ``quaternion._trusted`` serves, each made by
    the public constructor: from s, from its spinor, the spinor's product and
    its Schmidt form, and from the normalized ``correlated_inputs`` row
    correlated."""
    a0, a1, a2, a3 = s.alpha
    q1, q2 = Quaternion(a0, a1), Quaternion(a2, a3)
    product = q1 * q2
    form = schmidt_decompose(s)
    c = make_correlated(*correlated, normalize=True)
    return {
        TwoQubitState: [TwoQubitState(s.alpha)],
        Quaternion: [q1, q2, Quaternion(product.z1, product.z2)],
        QuaternionSpinor: [QuaternionSpinor(q1, q2)],
        SchmidtForm: [SchmidtForm(form.lambda1, form.lambda2, form.basis2)],
        CorrelatedState: [CorrelatedState(c.mu, c.nu, c.chi1, c.chi2)],
    }


@settings(database=None, derandomize=True, max_examples=300, deadline=None)
@given(
    st.one_of(
        route_edge_states(),
        st.sampled_from(normalized_inputs()).map(lambda amps: make_state(amps, normalize=True)),
    ),
    st.sampled_from(correlated_inputs()),
)
def test_every_trusted_builder_rebuilds_the_public_constructors_values(s, correlated):
    samples = public_samples(s, correlated)
    assert _TRUSTED.keys() <= samples.keys(), "a trusted builder has no sample row"
    for cls, build in _TRUSTED.items():
        names = [field.name for field in dataclasses.fields(cls)]
        for value in samples[cls]:
            built = build(*(getattr(value, name) for name in names))
            assert_same_value(built, value)
            for name in names:
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(built, name, getattr(value, name))


def assert_gate_admits(s: TwoQubitState) -> None:
    """``TwoQubitState``'s own gate admits s's amplitudes, a tuple of four exact
    ``complex``, and makes the same value of them."""
    assert _exact(s.alpha)
    assert_same_value(s, TwoQubitState(s.alpha))


@settings(database=None, derandomize=True, max_examples=800, deadline=None)
@given(
    st.one_of(edge_states(), route_edge_states(kinds=("pole", "product"))),
    st.sampled_from(BUILD_SCALES),
)
def test_make_state_normalizes_edge_states_onto_the_gate(s, scale):
    # V, D and C on and around every stratum edge, poles and products, at
    # every scale.
    amps = [scale * a for a in s.alpha]
    if not any(amps):
        # All of the parts rounded to zero at 5e-324.
        with pytest.raises(ValueError, match="^all-zero amplitudes do not define a state$"):
            make_state(amps, normalize=True)
        return
    assert_gate_admits(make_state(amps, normalize=True))


def test_make_state_normalizes_fixed_inputs_onto_the_gate():
    # Poles, products, equal Schmidt weights and random directions at 1,
    # 1e+-200, 1e+-300 and 5e-324.
    for amps in normalized_inputs():
        assert_gate_admits(make_state(amps, normalize=True))


def test_embed_correlated_builds_states_the_gate_admits():
    # d = 1..4, with chi2 generic, parallel and orthogonal to chi1.
    for args in correlated_inputs():
        assert_gate_admits(embed_correlated(make_correlated(*args, normalize=True)))


@pytest.mark.parametrize("scale", BUILD_SCALES)
def test_make_correlated_normalizes_fixed_inputs_onto_the_constructors_checks(scale):
    # d = 1..4, with chi2 generic, parallel and orthogonal to chi1, with the
    # weights and chi1 at every scale. The results skip CorrelatedState's
    # checks, whose band is NORM_TOL; they lie within a few ulps of unit norm.
    for mu, nu, chi1, chi2 in correlated_inputs():
        chi1 = tuple(scale * z for z in chi1)
        if not any(chi1):
            continue
        c = make_correlated(scale * mu, scale * nu, chi1, chi2, normalize=True)
        assert_same_value(c, CorrelatedState(c.mu, c.nu, c.chi1, c.chi2))
        for chi in (c.chi1, c.chi2):
            assert abs(math.sqrt(_sum_squares(chi)) - 1.0) <= 4 * 2.0**-52
        assert abs(math.hypot(abs(c.mu), abs(c.nu)) - 1.0) <= 4 * 2.0**-52


def assert_normalized_correlated(c: CorrelatedState) -> None:
    """c is the constructor's value, and ``embed_correlated`` builds a state
    the gate admits from it."""
    assert_same_value(c, CorrelatedState(c.mu, c.nu, c.chi1, c.chi2))
    assert_gate_admits(embed_correlated(c))


# A finite weight whose modulus is above the float range: |1.5e308 (1 + i)|
# = 2.1e308.
_HUGE = complex(1.5e308, 1.5e308)


@pytest.mark.parametrize("mu, nu", [(1, _HUGE), (_HUGE, 1)])
def test_make_correlated_normalizes_a_weight_whose_modulus_overflows(mu, nu):
    c = make_correlated(mu, nu, (1,), (1,), normalize=True)
    assert_normalized_correlated(c)
    # The huge weight becomes (1 + i) / sqrt(2), the other the subnormal
    # 1 / |_HUGE| = 4.7e-309.
    big, small = (c.nu, c.mu) if nu == _HUGE else (c.mu, c.nu)
    assert abs(big - complex(2**-0.5, 2**-0.5)) <= 1e-15
    assert abs(small - 2**-0.5 / 1.5e308) <= 1e-14 * abs(small)


def test_make_correlated_normalizes_fixed_inputs_with_nu_and_chi2_near_the_float_range():
    # nu and chi2 scaled by 1e308; the inputs where a scaled part overflows
    # to inf are rejected as non-finite and left out here.
    kept = 0
    for mu, nu, chi1, chi2 in correlated_inputs():
        nu, chi2 = 1e308 * nu, tuple(1e308 * z for z in chi2)
        if not all(math.isfinite(p) for z in (nu, *chi2) for p in (z.real, z.imag)):
            continue
        assert_normalized_correlated(make_correlated(mu, nu, chi1, chi2, normalize=True))
        kept += 1
    assert kept == 28


@pytest.mark.parametrize("seed", SAMPLER_SEEDS)
def test_per_index_samplers_build_states_the_gate_admits(seed):
    # haar, separable and fixedc at C = 0, 1e-9, 0.25, 0.5 and 1, at 2000
    # indices each.
    for f, args in sampler_calls([seed]):
        assert_gate_admits(f(*args))


@settings(database=None, derandomize=True, max_examples=600, deadline=None)
@given(route_edge_states())
def test_builders_equal_the_public_constructors_on_edge_states(s):
    # Poles (q2 at and around 0), D at and near 0, products, equal Schmidt
    # weights, both edges of the norm gate and generic states.
    assert_builders_match(s)


@pytest.mark.parametrize("scale", [1e300, 1e-300])
@pytest.mark.parametrize(
    "amps",
    [
        (1, 2j, -1, 0.5 - 0.25j),  # generic
        (1, 1j, 0, 0),  # pole: q2 = 0
        (1, 0, 0, 1),  # equal Schmidt weights
        (1, 1j, 1, 1j),  # product
        (1, 0, 1, 0),  # product with D = 0
    ],
)
def test_builders_equal_the_public_constructors_at_extreme_scales(amps, scale):
    assert_builders_match(make_state([scale * a for a in amps], normalize=True))


@pytest.mark.parametrize(
    ("rule", "error", "message"),
    [
        (lambda: Quaternion(1e200) * Quaternion(1e200), ValueError,
         "quaternion components must be finite, got inf"),
        (lambda: Quaternion(1e200j, -1e200) * Quaternion(1e200j, 1e200), ValueError,
         "quaternion components must be finite, got nan"),
        (lambda: Quaternion(1e308) + Quaternion(1e308), ValueError,
         "quaternion components must be finite, got inf"),
        (lambda: Quaternion(-1e308, 1e308j) + Quaternion(-1e308, 1e308j), ValueError,
         "quaternion components must be finite, got -inf"),
        (lambda: Quaternion(2.0**-1074).inverse(), OverflowError,
         "1/|q| is out of the float range: |q| = 5e-324"),
        (lambda: Quaternion(0j, complex(0.0, -(2.0**-1074))).inverse(), OverflowError,
         "1/|q| is out of the float range: |q| = 5e-324"),
    ],
)
def test_pair_rules_raise_the_constructors_error(rule, error, message):
    with pytest.raises(error) as info:
        rule()
    assert type(info.value) is error
    assert str(info.value) == message


@settings(database=None, derandomize=True, max_examples=100, deadline=None)
@given(route_edge_states())
def test_quaternify_at_the_norm_gates_edges_gives_admitted_spinors(s):
    # The direction of s at unit norm: some drawn states lie at an edge.
    u = make_state(s.alpha, normalize=True).alpha
    for start, outward in ((1.0 + NORM_TOL / 8, math.inf), (1.0 - NORM_TOL / 8, 0.0)):
        # The nominal bound, the last admitted scale and the 3 floats inside it.
        scales = [start, last_admitted(u, start, outward)]
        for _ in range(3):
            scales.append(math.nextafter(scales[-1], 1.0))
        for f in scales:
            if not gate_admits(u, f):
                # Only the nominal bound itself may lie outside the gate.
                assert f == start
                continue
            sp = quaternify(TwoQubitState(tuple(f * a for a in u)))
            assert_same_value(QuaternionSpinor(sp.q1, sp.q2), sp)
            n = sp.q1.norm_sq() + sp.q2.norm_sq()
            assert abs(n - 1.0) <= NORM_TOL / 2
