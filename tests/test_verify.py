import itertools
import json
import math
import weakref
from collections import Counter
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edge_states import EDGE_KINDS, route_edge_states
from qtriad import verify
from qtriad.cli import main
from qtriad.projection import INFINITY_THRESHOLD, coords_from_state, quaternify, stereo_project
from qtriad.quaternion import _norm_sq, is_infinite
from qtriad.sampling import (
    _BLOCK,
    FIXED_CONCURRENCE,
    HAAR,
    SEPARABLE,
    SampleSpec,
    haar_state,
    sample,
    sample_haar,
    sample_separable,
)
from qtriad.states import (
    DensityMatrix2,
    DualityTriad,
    _columns,
    _fringe,
    _invariant_rows,
    _invariants,
    _sum_squares,
    concurrence,
    fringe_extrema,
    make_state,
    purity,
    reduced_density_photon,
    triad,
)
from qtriad.verify import (
    DEFAULT_TOLERANCES,
    VerificationReport,
    check_bilinear_convention,
    check_concurrence_oracle,
    check_dual_route,
    check_fringe,
    check_identity,
    check_purity,
    check_separable_plane,
    check_unit_q_iff_d0,
    concurrence_bilinear,
    verify_suite,
)

# Amplitudes exactly representable in binary: identity error is exactly zero.
EXACT_BELL = make_state((0.5, 0.5, 0.5, -0.5))


def test_suite_passes_on_seeded_sample():
    report = verify_suite(500, 42)
    assert report.passed
    names = [c.name for c in report.checks]
    assert names == [
        "triad_identity",
        "s4_dual_route",
        "s4_unit_norm",
        "concurrence_oracle",
        "bilinear_convention",
        "fringe_visibility",
        "purity_relation",
        "separable_plane",
        "unit_q_iff_d0",
    ]
    assert names == list(DEFAULT_TOLERANCES)
    for c in report.checks:
        assert c.max_error <= c.tolerance
        assert c.samples > 0
    assert report.notes


def test_dual_route_compares_every_state_near_the_pole():
    # |q2| spans the band down to the point at infinity (threshold 1e-14).
    states = [
        make_state((0.8, 0.6j, r * phase * 0.6, r * 0.8j), normalize=True)
        for r in (1e-3, 1e-7, 1e-11, 1e-13, 1.01e-14, 0.99e-14, 0.0)
        for phase in (1, -1j)
    ]
    route, closure = check_dual_route(states)
    assert route.samples == closure.samples == len(states)
    assert route.passed and closure.passed
    assert route.max_error <= 1e-13


def test_uniform_tolerance_override():
    report = verify_suite(100, 1, tolerance=1e-6)
    assert all(c.tolerance == 1e-6 for c in report.checks)
    assert report.passed


@pytest.mark.parametrize("tolerance", [math.nan, math.inf, -math.inf, -1e-6, "1e-3", 1e-3j])
def test_unusable_tolerance_is_rejected(tolerance):
    with pytest.raises(ValueError, match="tolerance"):
        verify_suite(10, 1, tolerance=tolerance)


def test_uniform_tolerance_is_stored_as_a_float():
    assert verify_suite(10, 1, Fraction(1, 1000)).to_json() == verify_suite(10, 1, 0.001).to_json()
    report = json.loads(verify_suite(10, 1, np.float32(1e-3)).to_json())
    assert {c["tolerance"] for c in report["checks"]} == {float(np.float32(1e-3))}
    text = verify_suite(10, 1, 0).to_json()
    assert text.count('"tolerance": 0.0,') == 9 and '"tolerance": 0,' not in text


@pytest.mark.parametrize("tolerance", [0.0, 1e-20])
def test_tiny_tolerance_runs_and_fails(tolerance):
    report = verify_suite(10, 1, tolerance=tolerance)
    assert all(c.tolerance == tolerance for c in report.checks)
    assert not report.passed


def test_planted_bell_has_exactly_zero_identity_error():
    result = check_identity([EXACT_BELL])
    assert result.max_error == 0.0
    assert result.samples == 1
    assert result.passed


def test_corrupted_concurrence_is_caught(monkeypatch):
    # C of ``verify.triad`` is read by the identity check and, against the
    # bilinear route, by the concurrence oracle; no other check reads it.
    def drifted_triad(s):
        v, d, c = triad(s)
        return DualityTriad(v, d, c + 1e-3)

    monkeypatch.setattr(verify, "triad", drifted_triad)
    report = verify_suite(200, 7)
    assert not report.passed
    for name in ("triad_identity", "concurrence_oracle"):
        check = next(c for c in report.checks if c.name == name)
        assert not check.passed
        assert 1e-4 < check.max_error < 1e-2
    # every other check is untouched by the corruption
    assert all(
        c.passed for c in report.checks if c.name not in ("triad_identity", "concurrence_oracle")
    )


def _planted_kernel(change):
    """``verify._invariant_rows`` with ``change(rows, alpha)`` applied to
    the rows it returns."""
    def planted(alpha):
        rows = _invariant_rows(alpha)
        change(rows, alpha)
        return rows

    return planted


def _drifted(field):
    """The kernel and ``verify.triad``, each as (its name in verify, its
    stand-in with ``field`` off by 1e-3)."""
    column = DualityTriad._fields.index(field)

    def drift_rows(rows, alpha):
        rows.triads[:, column] += 1e-3

    def drifted(s):
        t = triad(s)
        return t._replace(**{field: getattr(t, field) + 1e-3})

    return ("_invariant_rows", _planted_kernel(drift_rows)), ("triad", drifted)


def _flip_x2_rows(rows, alpha):
    rows.coords[:, 2] *= -1.0


def _flipped_x2(s):
    x = coords_from_state(s)
    return x._replace(x2=-x.x2)


def _offset_fringe(fringe):
    """``fringe`` with p(delta) off by 1e-3 at every phase, which moves both
    extrema by 1e-3."""
    def planted(*amplitudes):
        p_max, p_min = fringe(*amplitudes)
        return p_max + 1e-3, p_min + 1e-3

    return planted


# fault: ((the array route's site in verify, its planted stand-in), (the
# scalar route's site, its planted stand-in), the checks that must fail).
PLANTED = {
    "V": (*_drifted("V"), {"triad_identity", "fringe_visibility", "purity_relation"}),
    "D": (*_drifted("D"), {"triad_identity", "purity_relation", "unit_q_iff_d0"}),
    "C": (*_drifted("C"), {"triad_identity", "concurrence_oracle"}),
    "x2": (
        ("_invariant_rows", _planted_kernel(_flip_x2_rows)),
        ("coords_from_state", _flipped_x2),
        {"s4_dual_route"},
    ),
    "fringe": (
        ("_fringe", _offset_fringe(_fringe)),
        ("fringe_extrema", _offset_fringe(fringe_extrema)),
        {"fringe_visibility"},
    ),
}


@pytest.mark.parametrize("fault", sorted(PLANTED))
def test_planted_fault_fails_exactly_the_checks_that_read_it(monkeypatch, capsys, fault):
    # The array routes read the kernel and verify._fringe, and the scalar
    # references at the witnesses read verify.triad, verify.coords_from_state
    # and verify.fringe_extrema; each check reports the larger of the two. So
    # a fault planted in either site alone fails every check that reads the
    # faulty value and no other.
    *sites, failing = PLANTED[fault]
    for site, value in sites:
        with monkeypatch.context() as m:
            m.setattr(verify, site, value)
            report = verify_suite(300, 7)
            assert {c.name for c in report.checks if not c.passed} == failing, site
            assert main(["verify", "--count", "300", "--seed", "7", "--format", "json"]) == 1
            checks = json.loads(capsys.readouterr().out)["checks"]
            assert {c["name"] for c in checks if not c["passed"]} == failing, site


def _scaled_coherence(s):
    """``reduced_density_photon`` with its coherence scaled by 1 + 1e-3."""
    rho = reduced_density_photon(s)
    return DensityMatrix2(rho.rho00, rho.rho01 * (1.0 + 1e-3), rho.rho11)


# fault: ((the scalar route's site in verify, its planted stand-in), the checks
# that must fail). The array routes read the kernel's values, so these faults
# have no array site and are caught at the witnesses alone.
SCALAR_PLANTED = {
    "coherence": (("reduced_density_photon", _scaled_coherence), {"purity_relation"}),
}


@pytest.mark.parametrize("fault", sorted(SCALAR_PLANTED))
def test_planted_scalar_fault_fails_exactly_the_checks_that_read_it(monkeypatch, capsys, fault):
    (site, value), failing = SCALAR_PLANTED[fault]
    monkeypatch.setattr(verify, site, value)
    report = verify_suite(3000, 7)
    assert {c.name for c in report.checks if not c.passed} == failing
    assert main(["verify", "--count", "3000", "--seed", "7", "--format", "json"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert {c["name"] for c in checks if not c["passed"]} == failing


def _d_offset(x):
    # A D fault that differs from state to state, from the real part x of a0.
    return 1e-3 * (1.0 + x * x)


def test_unit_q_witness_of_a_kernel_fault_is_the_largest_scalar_error(monkeypatch):
    # The balanced variants' D comes from the kernel, so a D fault planted
    # there picks the witness, and the check reports the largest error that
    # the scalar route gives under the same fault.
    states = sample_haar(SampleSpec(300, 7, HAAR))

    def drift_rows(rows, alpha):
        rows.triads[:, 1] += _d_offset(alpha[:, 0].real)

    def drifted(s):
        t = triad(s)
        return t._replace(D=t.D + _d_offset(s.alpha[0].real))

    with monkeypatch.context() as m:
        m.setattr(verify, "triad", drifted)
        scalar = [verify._unit_q_error(s, UNIT_Q_TOL)[0] for s in states]
    assert scalar.count(max(scalar)) == 1
    monkeypatch.setattr(verify, "_invariant_rows", _planted_kernel(drift_rows))
    result = check_unit_q_iff_d0(states)
    assert not result.passed
    assert repr(result.max_error) == repr(max(scalar))
    # Planted in verify.triad alone, the fault still fails the check.
    monkeypatch.setattr(verify, "_invariant_rows", _invariant_rows)
    monkeypatch.setattr(verify, "triad", drifted)
    assert 1e-3 <= check_unit_q_iff_d0(states).max_error < 3e-3


def test_report_text_format():
    report = verify_suite(50, 3)
    text = report.format_text()
    lines = text.splitlines()
    assert lines[-1] == "overall: pass"
    body = [ln for ln in lines if ln.startswith(("triad", "s4", "conc", "bil", "fri", "pur", "sep", "uni"))]
    assert len(body) == len(report.checks)
    assert any(ln.startswith("note:") for ln in lines)


def test_report_json_round_trip():
    report = verify_suite(50, 3)
    data = json.loads(report.to_json())
    assert data["passed"] is True
    assert len(data["checks"]) == len(report.checks)
    assert data["checks"][0]["name"] == "triad_identity"
    assert data["notes"]


def test_default_tolerances_are_pinned():
    assert list(DEFAULT_TOLERANCES.items()) == [
        ("triad_identity", 1e-10),
        ("s4_dual_route", 1e-9),
        ("s4_unit_norm", 1e-10),
        ("concurrence_oracle", 1e-12),
        ("bilinear_convention", 1e-12),
        ("fringe_visibility", 1e-10),
        ("purity_relation", 1e-10),
        ("separable_plane", 1e-12),
        ("unit_q_iff_d0", 1e-10),
    ]


def test_bilinear_route_is_independent():
    # same values as the determinant route, but through the explicit matrix
    rng = np.random.default_rng(66)
    sy = np.array([[0, -1j], [1j, 0]])
    syy = np.kron(sy, sy)
    for _ in range(200):
        v = rng.normal(size=8)
        s = make_state(
            [complex(v[2 * k], v[2 * k + 1]) for k in range(4)], normalize=True
        )
        a = np.array(s.alpha)
        assert abs(concurrence_bilinear(s) - abs(a @ syy @ a)) < 1e-15
        assert abs(concurrence_bilinear(s) - concurrence(s)) < 1e-12


# ------------------------------------------- array routes vs scalar routes

UNIT_Q_TOL = DEFAULT_TOLERANCES["unit_q_iff_d0"]

# check: (errors of every state from the array routes, the scalar per-state
# error function).
ROUTES = {
    "dual_route": (verify._dual_route_errors, verify._dual_route_error),
    "concurrence_oracle": (verify._concurrence_oracle_errors, verify._concurrence_oracle_error),
    "bilinear_convention": (
        verify._bilinear_convention_errors, verify._bilinear_convention_error,
    ),
    "fringe": (verify._fringe_errors, verify._fringe_error),
    "separable_plane": (verify._separable_plane_errors, verify._separable_plane_error),
    "unit_q_iff_d0": (
        partial(verify._unit_q_errors, tolerance=UNIT_Q_TOL),
        partial(verify._unit_q_error, tolerance=UNIT_Q_TOL),
    ),
}


def _array_rows(errors, states):
    """Each state's outputs of the array routes, from one call over them all."""
    out = errors(states)
    columns = out if isinstance(out, tuple) else (out,)
    return list(zip(*(c.tolist() for c in columns)))


def _scalar_rows(error, states):
    return [out if isinstance(out, tuple) else (out,) for out in map(error, states)]


def _bits(rows):
    # repr tells 0.0 from -0.0 and keeps every bit of a float.
    return [tuple(map(repr, row)) for row in rows]


# Samples of 1 to 65 edge states, with 1 and the lengths at and around 16, 32
# and 64 drawn more often.
_SAMPLES = st.one_of(
    st.sampled_from([1, 15, 16, 17, 31, 32, 33, 63, 64, 65]), st.integers(1, 65)
).flatmap(lambda n: st.lists(route_edge_states(), min_size=n, max_size=n))


@settings(database=None, derandomize=True, max_examples=60, deadline=None)
@given(_SAMPLES)
def test_array_routes_match_scalar_routes_bit_for_bit(states):
    for name, (errors, error) in ROUTES.items():
        assert _bits(_array_rows(errors, states)) == _bits(
            _scalar_rows(error, states)
        ), name


# ------------------------------------------------------------ fringe oracle

# The reference scan: e^{i delta} on a uniform grid of 3600 phases. Some grid
# point lies within pi/3600 of each extremum of p(delta) = A + B cos(delta -
# phi), where p is within B (pi/3600)^2 / 2 of it: under 2e-7, as B <= 1/2.
_GRID = np.exp(1j * (np.arange(3600) * (2.0 * math.pi / 3600)))


def _assert_the_scan_brackets_the_fringe_extrema(states):
    a0, a1, a2, a3 = verify._amplitudes(states).T[:, :, None]
    p = 0.5 * np.abs(a0 + _GRID * a2) ** 2 + 0.5 * np.abs(a1 + _GRID * a3) ** 2
    p_max, p_min = np.array([fringe_extrema(s) for s in states]).T
    assert (p <= p_max[:, None] + 1e-15).all() and (p >= p_min[:, None] - 1e-15).all()
    assert np.abs(p.max(axis=1) - p_max).max() <= 1e-6
    assert np.abs(p.min(axis=1) - p_min).max() <= 1e-6


def _assert_fringe_rows_match_the_scalar_fringe(states):
    rows = _fringe(*_columns(verify._amplitudes(states)))
    expected = (tuple(map(float, _fringe(*s.alpha))) for s in states)
    assert _bits(zip(*(c.tolist() for c in rows))) == _bits(expected)


def test_fringe_extrema_bound_a_dense_scan_of_random_states():
    states = sample_haar(SampleSpec(300, 13, HAAR))
    _assert_the_scan_brackets_the_fringe_extrema(states)
    _assert_fringe_rows_match_the_scalar_fringe(states)


@settings(database=None, derandomize=True, max_examples=30, deadline=None)
@given(_SAMPLES)
def test_fringe_extrema_bound_a_dense_scan_of_edge_states(states):
    _assert_the_scan_brackets_the_fringe_extrema(states)
    _assert_fringe_rows_match_the_scalar_fringe(states)


def _fringe_errors_of_both_routes(states):
    return np.array([verify._fringe_errors(states), [verify._fringe_error(s) for s in states]])


_UNIT_NORM_KINDS = tuple(kind for kind in EDGE_KINDS if kind != "norm_edge")


@settings(database=None, derandomize=True, max_examples=60, deadline=None)
@given(st.lists(route_edge_states(_UNIT_NORM_KINDS), min_size=1, max_size=65))
def test_fringe_error_is_at_most_2e_15_on_edge_states(states):
    assert _fringe_errors_of_both_routes(states).max() <= 2e-15


@settings(database=None, derandomize=True, max_examples=30, deadline=None)
@given(st.lists(route_edge_states(("norm_edge",)), min_size=1, max_size=65))
def test_fringe_error_at_the_norm_gate_is_the_norm_defect(states):
    # |psi|^2 is 1 -+ 2.5e-10 at the gate's edges, and the fringe contrast
    # B/A reads V/|psi|^2; within 2e-15 that is the whole error.
    v = np.array([triad(s).V for s in states])
    norm = np.array([_sum_squares(s.alpha) for s in states])
    defect = v * np.abs(1.0 / norm - 1.0)
    assert np.abs(_fringe_errors_of_both_routes(states) - defect).max() <= 2e-15


@settings(database=None, derandomize=True, max_examples=30, deadline=None)
@given(_SAMPLES)
def test_shared_direct_route_matches_scalar_routes_bit_for_bit(states):
    # The identity and purity errors from the chunk's triads, and the
    # balanced variants built as arrays, against their scalar forms.
    for errors, error in (
        (verify._identity_errors, verify._identity_error),
        (verify._purity_errors, verify._purity_error),
    ):
        assert _bits(_array_rows(errors, states)) == _bits(_scalar_rows(error, states))
    _assert_balanced_variants_match(states)


def _assert_kernel_matches_the_scalar_direct_route(states):
    rows = _invariant_rows(verify._amplitudes(states))
    assert _bits(zip(rows.p0.tolist(), rows.p1.tolist())) == _bits(
        _invariants(*s.alpha)[:2] for s in states
    )
    assert _bits(rows.triads.tolist()) == _bits(map(triad, states))
    assert _bits(rows.coords.tolist()) == _bits(map(coords_from_state, states))
    assert _bits(zip(rows.purity.tolist(), rows.det.tolist())) == _bits(
        (purity(reduced_density_photon(s)), abs(_invariants(*s.alpha)[3])) for s in states
    )


@settings(database=None, derandomize=True, max_examples=30, deadline=None)
@given(_SAMPLES)
def test_kernel_matches_the_scalar_direct_route_on_edge_states(states):
    _assert_kernel_matches_the_scalar_direct_route(states)


def _assert_kernel_matches_the_scalar_direct_route_on(spec):
    # Compared as the floats' 64-bit patterns, which is what their repr pins.
    def scalar(s):
        p0, p1, _, det = _invariants(*s.alpha)
        return (
            p0, p1, *triad(s), *coords_from_state(s),
            purity(reduced_density_photon(s)), abs(det),
        )

    states = iter(sample(spec))
    while chunk := list(itertools.islice(states, 10_000)):
        rows = _invariant_rows(verify._amplitudes(chunk))
        kernel = np.column_stack((rows.p0, rows.p1, rows.triads, rows.coords, rows.purity, rows.det))
        expected = np.array([scalar(s) for s in chunk])
        assert (kernel.view(np.uint64) == expected.view(np.uint64)).all()


def test_kernel_matches_the_scalar_direct_route_on_100000_haar_states():
    _assert_kernel_matches_the_scalar_direct_route_on(SampleSpec(100_000, 42, HAAR))


@pytest.mark.parametrize(
    "ensemble, c",
    [(SEPARABLE, None), (FIXED_CONCURRENCE, 0.0), (FIXED_CONCURRENCE, 0.5), (FIXED_CONCURRENCE, 1.0)],
)
def test_kernel_matches_the_scalar_direct_route_on_20000_sampled_states(ensemble, c):
    # Separable and C = 0 rows carry the signed zeros that products with
    # lambda2 = 0 and with zero amplitudes make.
    _assert_kernel_matches_the_scalar_direct_route_on(SampleSpec(20_000, 42, ensemble, c))


def _python_balanced_variant(s):
    """The balanced variant in Python's complex arithmetic, or None."""
    p0, p1, _, _ = _invariants(*s.alpha)
    if p0 < 1e-12 or p1 < 1e-12:
        return None
    f0, f1 = math.sqrt(0.5 / p0), math.sqrt(0.5 / p1)
    a0, a1, a2, a3 = s.alpha
    return a0 * f0, a1 * f0, a2 * f1, a3 * f1


def _assert_balanced_variants_match(states):
    alpha = verify._amplitudes(states)
    rows = _invariant_rows(alpha)
    has, variants = verify._balanced(alpha, rows.p0, rows.p1)
    expected = [_python_balanced_variant(s) for s in states]
    assert has.tolist() == [v is not None for v in expected]

    def parts(amplitudes):
        return [repr(z.real) + repr(z.imag) for z in amplitudes]

    assert [parts(row) for row in variants.tolist()] == [parts(v) for v in expected if v]


def test_balanced_variants_match_the_scalar_variants_on_a_sample():
    # Each variant reads p0 and p1. Summing |a|^2 through the modulus, as
    # abs(a) ** 2 or np.hypot(re, im) ** 2, in place of re * re + im * im
    # moves the bits of the variant on about 1790 of these 4096 haar states.
    _assert_balanced_variants_match(sample_haar(SampleSpec(4096, 3, HAAR)))


def test_balanced_variants_keep_the_norm_gate():
    # The first row has no variant; the second's is all NaN, and the gate
    # raises TwoQubitState's own error for it.
    alpha = np.array([[0.6, 0.8j, 0.0, 0.0], [math.nan, 0.0, 0.6, 0.8]], dtype=complex)
    rows = _invariant_rows(alpha)
    with pytest.raises(ValueError, match=r"not normalized: \|amp\| = nan$"):
        verify._balanced(alpha, rows.p0, rows.p1)


@settings(database=None, derandomize=True, max_examples=30, deadline=None)
@given(_SAMPLES)
def test_checks_report_the_scalar_maximum(states):
    # The witness reports what the old per-state loop reported: the largest
    # scalar error (0.0 at least) and, for unit_q_iff_d0, the finite Q count.
    def loop_max(errors):
        worst = 0.0
        for e in errors:
            worst = max(worst, e)
        return worst

    route, closure = check_dual_route(states)
    scalar = [verify._dual_route_error(s) for s in states]
    assert repr(route.max_error) == repr(loop_max(r for r, _ in scalar))
    assert repr(closure.max_error) == repr(loop_max(c for _, c in scalar))
    for check, error in (
        (check_concurrence_oracle, verify._concurrence_oracle_error),
        (check_bilinear_convention, verify._bilinear_convention_error),
        (check_fringe, verify._fringe_error),
        (check_separable_plane, verify._separable_plane_error),
    ):
        result = check(states)
        assert result.samples == len(states)
        assert repr(result.max_error) == repr(loop_max(map(error, states))), result.name
    unit_q = check_unit_q_iff_d0(states)
    scalar = [verify._unit_q_error(s, UNIT_Q_TOL) for s in states]
    assert repr(unit_q.max_error) == repr(loop_max(e for e, _ in scalar))
    assert unit_q.samples == sum(n for _, n in scalar)


def test_point_at_infinity_in_the_array_route():
    pole = make_state((0.6, 0.8j, 0.99 * INFINITY_THRESHOLD, 0.0), normalize=True)
    near = make_state((0.6, 0.8j, 1.01 * INFINITY_THRESHOLD, 0.0), normalize=True)
    finite, q = verify._stereo(verify._amplitudes([pole, near]))
    assert finite.tolist() == [False, True]
    assert verify._lift(finite, q)[0].tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]
    assert check_separable_plane([near, pole]).max_error == math.inf
    # Neither state has a balanced variant (p1 < 1e-12); only near has a
    # finite Q.
    assert check_unit_q_iff_d0([pole, near]).samples == 1


# ------------------------------------------ threshold tests in the band

ULP = 2.0**-52


def _unit_rows(rng, count, parts):
    """count random unit 4-vectors with only their first ``parts`` entries nonzero."""
    v = rng.normal(size=(count, 4))
    v[:, parts:] = 0.0
    return v / np.sqrt((v * v).sum(1))[:, None]


def _spinor_rows(q1, q2):
    """Rows of amplitudes (a0, a1, a2, a3) from the real parts of q1 and q2."""
    q = np.concatenate((q1, q2), 1)
    return q[:, 0::2] + 1j * q[:, 1::2]


def _near_pole_rows(parts, seed, count=2000, ulps=16):
    """Unit states whose |q2| lies within ``ulps`` ulps of INFINITY_THRESHOLD,
    spread over the first ``parts`` of q2's four real parts."""
    rng = np.random.default_rng(seed)
    r2 = INFINITY_THRESHOLD * (1.0 + rng.integers(-ulps, ulps + 1, count) * ULP)
    return _spinor_rows(_unit_rows(rng, count, 4), _unit_rows(rng, count, parts) * r2[:, None])


def _scalar_finite(alpha):
    chunk = verify._Chunk(alpha)
    return [not is_infinite(stereo_project(quaternify(chunk[k]))) for k in range(len(chunk))]


@pytest.mark.parametrize("parts, seed", [(2, 5), (4, 6)])
def test_stereo_decides_the_pole_as_the_scalar_route_within_ulps_of_the_threshold(parts, seed):
    alpha = _near_pole_rows(parts, seed)
    finite, _ = verify._stereo(alpha)
    expected = _scalar_finite(alpha)
    assert finite.tolist() == expected
    # Both decisions occur, and |q2|^2 alone decides some rows otherwise:
    # only math.hypot in the band gives the scalar route's decision.
    assert 0 < sum(expected) < len(expected)
    _, _, a2, a3 = _columns(alpha)
    squares = _norm_sq(a2, a3) >= INFINITY_THRESHOLD * INFINITY_THRESHOLD
    assert (squares != np.array(expected)).any()


def test_stereo_keeps_a_state_at_exactly_the_threshold_finite():
    states = [
        make_state((1.0, 0.0, INFINITY_THRESHOLD, 0.0)),
        make_state((0.0, 1j, 0.0, complex(0.0, -INFINITY_THRESHOLD))),
    ]
    assert [s.alpha[2:] for s in states] == [
        (INFINITY_THRESHOLD, 0j), (0j, complex(0.0, -INFINITY_THRESHOLD)),
    ]
    finite, _ = verify._stereo(verify._amplitudes(states))
    assert finite.tolist() == [True, True] == _scalar_finite(verify._amplitudes(states))


def _near_tolerance_rows(parts, seed, tolerance, count=2000, ulps=8):
    """Unit states with |Q| = |q1| / |q2| within ``ulps`` ulps of 1 + tolerance,
    q1 and q2 spread over their first ``parts`` real parts. Their D is about
    2 * tolerance, so unit_q_iff_d0 reads only whether the gap |Q| - 1 is within
    the tolerance."""
    rng = np.random.default_rng(seed)
    ratio = 1.0 + tolerance + rng.integers(-ulps, ulps + 1, count) * ULP
    r2 = 1.0 / np.sqrt(1.0 + ratio * ratio)
    q1 = _unit_rows(rng, count, parts) * (ratio * r2)[:, None]
    return _spinor_rows(q1, _unit_rows(rng, count, parts) * r2[:, None])


@pytest.mark.parametrize("parts, seed", [(2, 1), (4, 2)])
def test_unit_q_rows_decide_the_gap_as_the_scalar_route_near_the_tolerance(parts, seed):
    # Each state's error, its balanced variant's included (D ~ 0, so the
    # error there is the gap itself), equals the scalar error bit for bit.
    chunk = verify._Chunk(_near_tolerance_rows(parts, seed, UNIT_Q_TOL))
    errors, counts = verify._unit_q_errors(chunk, UNIT_Q_TOL)
    scalar = [verify._unit_q_error(chunk[k], UNIT_Q_TOL) for k in range(len(chunk))]
    assert _bits(zip(errors.tolist(), counts.tolist())) == _bits(scalar)
    # Both decisions occur, and sqrt(|Q|^2) alone decides some rows otherwise.
    finite, (z1, z2) = chunk.stereo
    assert finite.all()
    hypot = np.array([abs(stereo_project(quaternify(chunk[k])).norm() - 1.0) <= UNIT_Q_TOL
                      for k in range(len(chunk))])
    assert 0 < hypot.sum() < len(chunk)
    assert ((np.abs(np.sqrt(_norm_sq(z1, z2)) - 1.0) <= UNIT_Q_TOL) != hypot).any()


PUBLIC_CHECKS = (
    check_identity, check_dual_route, check_concurrence_oracle, check_bilinear_convention,
    check_fringe, check_purity, check_separable_plane, check_unit_q_iff_d0,
)


@pytest.mark.parametrize("check", PUBLIC_CHECKS, ids=lambda check: check.__name__)
def test_check_on_no_states_reports_nothing(check):
    out = check([])
    for result in out if isinstance(out, tuple) else (out,):
        assert (result.samples, repr(result.max_error), result.passed) == (0, "0.0", True)


def _rows(out):
    """A check's rows: its one result, or the results it returns together."""
    return out if isinstance(out, tuple) else (out,)


@pytest.mark.parametrize("check", PUBLIC_CHECKS, ids=lambda check: check.__name__)
def test_check_takes_its_defaults_or_one_tolerance_for_all_its_rows(check):
    states = sample_haar(SampleSpec(20, 3, HAAR))
    rows = _rows(check(states))
    assert [r.tolerance for r in rows] == [DEFAULT_TOLERANCES[r.name] for r in rows]
    for out in (check(states, 1e-6), check(states, tolerance=1e-6)):
        assert [r.tolerance for r in _rows(out)] == [1e-6] * len(rows)


@pytest.mark.parametrize("tolerance", [Fraction(1, 1000), 1, np.float64(1e-3)], ids=repr)
@pytest.mark.parametrize("check", PUBLIC_CHECKS, ids=lambda check: check.__name__)
def test_check_stores_a_real_tolerance_as_a_float(check, tolerance):
    states = sample_haar(SampleSpec(20, 3, HAAR))
    rows = _rows(check(states, tolerance))
    assert [type(r.tolerance) for r in rows] == [float] * len(rows)
    as_float = VerificationReport(_rows(check(states, float(tolerance)))).to_json()
    assert VerificationReport(rows).to_json() == as_float


@pytest.mark.parametrize("tolerance", [-1e-6, math.nan, math.inf], ids=repr)
@pytest.mark.parametrize("check", PUBLIC_CHECKS, ids=lambda check: check.__name__)
def test_check_rejects_an_unusable_tolerance(check, tolerance):
    with pytest.raises(ValueError, match="tolerance must be finite and >= 0"):
        check(sample_haar(SampleSpec(20, 3, HAAR)), tolerance)


def _plant_visibility(monkeypatch, planted, sites=("kernel", "triad")):
    """V with the values of ``planted``, keyed by a state's amplitudes, in
    ``sites``: the kernel's rows, which the array routes read, and
    ``verify.triad``, which the scalar routes read."""
    def plant_rows(rows, alpha):
        for r, row in enumerate(alpha.tolist()):
            rows.triads[r, 0] = planted.get(tuple(row), rows.triads[r, 0])

    def planted_triad(s):
        v, d, c = triad(s)
        return DualityTriad(planted.get(s.alpha, v), d, c)

    if "kernel" in sites:
        monkeypatch.setattr(verify, "_invariant_rows", _planted_kernel(plant_rows))
    if "triad" in sites:
        monkeypatch.setattr(verify, "triad", planted_triad)


@pytest.mark.parametrize("site", ["kernel", "triad"])
def test_a_nan_in_either_route_at_the_witness_is_reported(monkeypatch, site):
    # V is NaN for every state in one route only; the other route's error
    # at the witness is finite, and the NaN wins over it.
    states = sample_haar(SampleSpec(20, 8, HAAR))
    _plant_visibility(monkeypatch, {s.alpha: math.nan for s in states}, (site,))
    for check in (check_identity, check_fringe, check_purity):
        result = check(states)
        assert math.isnan(result.max_error) and not result.passed, check.__name__


def test_nan_after_a_larger_error_is_the_fringe_witness(monkeypatch):
    # The NaN sits late in the chunk; a larger finite error (about 1) planted
    # earlier in it must not win over it.
    states = sample_haar(SampleSpec(48, 8, HAAR))
    _plant_visibility(monkeypatch, {states[3].alpha: 2.0, states[40].alpha: math.nan})
    result = check_fringe(states)
    assert math.isnan(result.max_error)
    assert result.samples == len(states) and not result.passed


def test_nan_in_a_later_suite_chunk_fails_the_fringe_check(monkeypatch):
    # The NaN state is a haar state inside the suite's second chunk.
    count = _BLOCK + 48
    target = haar_state(9, _BLOCK + 20)
    _plant_visibility(monkeypatch, {target.alpha: math.nan})
    report = verify_suite(count, 9)
    fringe = next(c for c in report.checks if c.name == "fringe_visibility")
    assert math.isnan(fringe.max_error)
    assert fringe.samples == count and not fringe.passed
    # The identity and purity checks read the same NaN V; every other check
    # passes.
    failed = {c.name for c in report.checks if not c.passed}
    assert failed == {"triad_identity", "fringe_visibility", "purity_relation"}


def test_checks_take_any_sized_iterable_in_blocks():
    states = [make_state((0.6, 0.0, 0.0, 0.8j))] * 17
    assert check_fringe(states) == check_fringe(tuple(states))
    assert check_unit_q_iff_d0(states).samples == 2 * len(states)


def test_checks_take_a_lazy_sample_stream():
    spec = SampleSpec(35, 4, HAAR)
    states = sample_haar(spec)
    for check in PUBLIC_CHECKS:
        assert repr(check(sample(spec))) == repr(check(states)), check.__name__


# ------------------------------------------------------------ streamed suite


def test_suite_draws_at_most_one_chunk_ahead(monkeypatch):
    # Indices drawn so far, and states that each check has seen: identity
    # runs on every haar chunk, separable_plane on every separable one, and
    # both chunks come from one shared draw.
    drawn, checked = 0, Counter()
    count = 2 * _BLOCK + 1
    draws = verify._draws

    def counting_draws(spec):
        nonlocal drawn
        for draw in draws(spec):
            _, ok, _ = draw
            drawn += len(ok)
            yield draw

    def counted(check):
        def run(states, *args):
            assert drawn <= checked[check] + _BLOCK
            checked[check] += len(states)
            return check(states, *args)

        return run

    monkeypatch.setattr(verify, "_draws", counting_draws)
    monkeypatch.setattr(verify, "check_identity", counted(check_identity))
    monkeypatch.setattr(verify, "check_separable_plane", counted(check_separable_plane))
    report = verify_suite(count, 5)
    assert report.passed
    assert drawn == count
    assert checked == {check_identity: count, check_separable_plane: count}


def test_suite_holds_one_chunk_at_a_time(monkeypatch):
    # The haar and the separable chunk of a block come from one draw; the
    # first is released before the second is built.
    alive, built = weakref.WeakSet(), []

    class Tracked(verify._Chunk):
        def __init__(self, alpha):
            assert not alive
            super().__init__(alpha)
            alive.add(self)
            built.append(len(alpha))

    monkeypatch.setattr(verify, "_Chunk", Tracked)
    assert verify_suite(_BLOCK + 1, 5).passed
    assert built == [_BLOCK, _BLOCK, 1, 1]


@pytest.mark.parametrize("tolerance, passed_on", [(None, None), (Fraction(1, 10**6), 1e-6)])
def test_suite_calls_each_check_by_its_module_name(monkeypatch, tolerance, passed_on):
    # A tracer times the checks by replacing each check_* in the module's
    # namespace, so the suite must look them up there when it runs: once per
    # chunk of the check's ensemble, with the sized chunk first and the
    # suite's tolerance, checked and converted once, second.
    count = 2 * _BLOCK + 1
    expected = repr(verify_suite(count, 5, tolerance))
    sizes = {}

    def counted(check):
        def run(states, *args, **kwargs):
            sizes.setdefault(check.__name__, []).append(len(states))
            (given,) = (*args, *kwargs.values())
            assert repr(given) == repr(passed_on)
            return check(states, *args, **kwargs)

        return run

    for check in PUBLIC_CHECKS:
        monkeypatch.setattr(verify, check.__name__, counted(check))
    assert repr(verify_suite(count, 5, tolerance)) == expected
    assert sizes == {check.__name__: [_BLOCK, _BLOCK, 1] for check in PUBLIC_CHECKS}


SCALAR_ERRORS = (
    "_identity_error", "_dual_route_error", "_concurrence_oracle_error",
    "_bilinear_convention_error", "_fringe_error", "_purity_error",
    "_separable_plane_error", "_unit_q_error",
)


def test_suite_evaluates_the_direct_route_once_per_state(monkeypatch):
    # The suite runs the kernel once on each chunk, and once more on each haar
    # chunk's balanced variants. triad and coords_from_state run only inside
    # the witness calls of the scalar error functions, and TwoQubitState only
    # there and once per witness state; each check makes one witness call per
    # chunk.
    count = 2 * _BLOCK + 1
    witness, outside, active, kernel = Counter(), Counter(), [], []

    def at_witness(name, error):
        def run(*args):
            witness[name] += 1
            active.append(name)
            try:
                return error(*args)
            finally:
                active.pop()

        return run

    def counted(name, fn):
        def run(*args):
            outside[name] += not active
            return fn(*args)

        return run

    def counted_kernel(alpha):
        kernel.append(len(alpha))
        return _invariant_rows(alpha)

    for name in SCALAR_ERRORS:
        monkeypatch.setattr(verify, name, at_witness(name, getattr(verify, name)))
    for name in ("triad", "coords_from_state", "TwoQubitState"):
        monkeypatch.setattr(verify, name, counted(name, getattr(verify, name)))
    monkeypatch.setattr(verify, "_invariant_rows", counted_kernel)
    assert verify_suite(count, 5).passed
    chunks = 3
    # _dual_route_error stands witness for two results, route and closure.
    assert witness == {
        name: 2 * chunks if name == "_dual_route_error" else chunks for name in SCALAR_ERRORS
    }
    assert +outside == {"TwoQubitState": sum(witness.values())}
    # Each block: the haar chunk's rows, then its variants (every seed-5 haar
    # state has one), then the separable chunk's rows.
    sizes = [_BLOCK, _BLOCK, 1]
    assert kernel == [n for n in sizes for _ in range(3)]


@pytest.mark.parametrize(
    "count", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1]
)
def test_suite_equals_the_checks_on_whole_samples(count):
    haar = sample_haar(SampleSpec(count, 21, HAAR))
    separable = sample_separable(SampleSpec(count, 21, SEPARABLE))
    whole = (
        check_identity(haar),
        *check_dual_route(haar),
        check_concurrence_oracle(haar),
        check_bilinear_convention(haar),
        check_fringe(haar),
        check_purity(haar),
        check_separable_plane(separable),
        check_unit_q_iff_d0(haar),
    )
    assert repr(verify_suite(count, 21).checks) == repr(whole)


def _part(error, samples=3):
    return verify._result("part", samples, error, 1e-10)


def test_merge_keeps_the_first_peak_and_adds_the_samples():
    merged = verify._merge([_part(1e-12, 1), _part(3e-11, 2), _part(2e-11, 4)])
    assert merged == verify._result("part", 7, 3e-11, 1e-10)
    assert type(merged.max_error) is float
    assert verify._merge([_part(0.0)]) == _part(0.0)


def test_merge_keeps_an_early_nan_over_a_later_larger_error():
    merged = verify._merge([_part(1e-12), _part(math.nan), _part(1.0), _part(math.inf)])
    assert math.isnan(merged.max_error)
    assert merged.samples == 12
    assert not merged.passed


def test_merge_takes_a_later_nan_over_a_finite_peak():
    merged = verify._merge([_part(1e-12), _part(0.5), _part(math.nan)])
    assert math.isnan(merged.max_error)
    assert not merged.passed


@pytest.mark.parametrize("count, message", [(0, "at least 1"), (2.5, "an integer")])
def test_suite_takes_the_count_rule_of_the_spec(count, message):
    with pytest.raises(ValueError, match=f"count must be {message}"):
        verify_suite(count, 1)
