import json

import numpy as np

from qtriad.states import concurrence, make_state
from qtriad.verify import (
    DEFAULT_TOLERANCES,
    check_dual_route,
    check_identity,
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


def test_planted_bell_has_exactly_zero_identity_error():
    result = check_identity([EXACT_BELL])
    assert result.max_error == 0.0
    assert result.samples == 1
    assert result.passed


def test_corrupted_concurrence_is_caught():
    report = verify_suite(
        200, 7, _concurrence_fn=lambda s: concurrence(s) + 1e-3
    )
    assert not report.passed
    identity = next(c for c in report.checks if c.name == "triad_identity")
    assert not identity.passed
    assert 1e-4 < identity.max_error < 1e-2
    # every other check is untouched by the corruption
    assert all(c.passed for c in report.checks if c.name != "triad_identity")


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
    assert DEFAULT_TOLERANCES["triad_identity"] == 1e-10
    assert DEFAULT_TOLERANCES["s4_dual_route"] == 1e-9
    assert DEFAULT_TOLERANCES["concurrence_oracle"] == 1e-12
    assert DEFAULT_TOLERANCES["separable_plane"] == 1e-12


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
