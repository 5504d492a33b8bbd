"""Self-verification suite: every structural identity checked against an
independent route, over seeded random ensembles.

Each check reports its worst-case error so a report stays useful even when
everything passes. Failures are reported, never raised.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .projection import (
    coords_from_state,
    inverse_stereo,
    quaternify,
    stereo_project,
)
from .quaternion import is_infinite
from .sampling import HAAR, SEPARABLE, SampleSpec, sample_haar, sample_separable
from .states import (
    TwoQubitState,
    _invariants,
    concurrence,
    distinguishability,
    fringe_extrema,
    purity,
    reduced_density_photon,
    triad,
    visibility,
)

# Default tolerance of each check, keyed by check name.
DEFAULT_TOLERANCES = {
    "triad_identity": 1e-10,
    "s4_dual_route": 1e-9,
    "s4_unit_norm": 1e-10,
    "concurrence_oracle": 1e-12,
    "bilinear_convention": 1e-12,
    "fringe_visibility": 1e-10,
    "purity_relation": 1e-10,
    "separable_plane": 1e-12,
    "unit_q_iff_d0": 1e-10,
}

_PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SYY = np.kron(_PAULI_Y, _PAULI_Y)

CONVENTION_NOTE = (
    "S4 chart orientation: the bilinear invariant "
    "B = <conj(psi)| sigma_y x sigma_y |psi> equals 2*(a1*a2 - a0*a3); "
    "x3 takes Re(B) and x4 takes Im(B), verified by the bilinear_convention "
    "check. Likewise x2 takes +2*Im(conj(a2)*a0 + conj(a3)*a1), the "
    "orientation under which the stereographic and direct routes coincide."
)


@dataclass(frozen=True, slots=True)
class CheckResult:
    name: str
    samples: int
    max_error: float
    tolerance: float
    passed: bool


@dataclass(frozen=True, slots=True)
class VerificationReport:
    checks: tuple[CheckResult, ...]
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        return {
            "checks": [
                {
                    "name": c.name,
                    "samples": c.samples,
                    "max_error": c.max_error,
                    "tolerance": c.tolerance,
                    "passed": c.passed,
                }
                for c in self.checks
            ],
            "notes": list(self.notes),
            "passed": self.passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=1)

    def format_text(self) -> str:
        lines = [
            f"{'check':<24}{'samples':>9}  {'max_error':>12}  {'tolerance':>10}  status"
        ]
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            lines.append(
                f"{c.name:<24}{c.samples:>9}  {c.max_error:>12.3e}  "
                f"{c.tolerance:>10.1e}  {status}"
            )
        for note in self.notes:
            lines.append(f"note: {note}")
        lines.append(f"overall: {'pass' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def _result(name, samples, max_error, tolerance) -> CheckResult:
    return CheckResult(name, samples, max_error, tolerance, max_error <= tolerance)


def concurrence_bilinear(s: TwoQubitState) -> float:
    """Concurrence via the explicit antilinear route |psi^T (sy x sy) psi|.

    Independent of the determinant shortcut in ``concurrence``: the matrix is
    materialized and applied, nothing is simplified away.
    """
    a = np.array(s.alpha)
    return float(abs(a @ _SYY @ a))


def check_identity(
    states: Sequence[TwoQubitState],
    tolerance: float = DEFAULT_TOLERANCES["triad_identity"],
    concurrence_fn: Callable[[TwoQubitState], float] | None = None,
) -> CheckResult:
    """max |V^2 + D^2 + C^2 - 1| over the sample."""
    worst = 0.0
    for s in states:
        v, d, c = triad(s)
        if concurrence_fn is not None:
            c = concurrence_fn(s)
        err = abs(v * v + d * d + c * c - 1.0)
        if err > worst:
            worst = err
    return _result("triad_identity", len(states), worst, tolerance)


def check_dual_route(
    states: Sequence[TwoQubitState],
    tolerance: float = DEFAULT_TOLERANCES["s4_dual_route"],
    norm_tolerance: float = DEFAULT_TOLERANCES["s4_unit_norm"],
) -> tuple[CheckResult, CheckResult]:
    """Direct coordinates vs the projection composition, plus sphere closure."""
    worst_route = 0.0
    worst_norm = 0.0
    for s in states:
        direct = coords_from_state(s)
        worst_norm = max(worst_norm, abs(sum(x * x for x in direct) - 1.0))
        lifted = inverse_stereo(stereo_project(quaternify(s)))
        worst_norm = max(worst_norm, abs(sum(x * x for x in lifted) - 1.0))
        worst_route = max(
            worst_route, max(abs(a - b) for a, b in zip(direct, lifted))
        )
    return (
        _result("s4_dual_route", len(states), worst_route, tolerance),
        _result("s4_unit_norm", len(states), worst_norm, norm_tolerance),
    )


def check_concurrence_oracle(
    states: Sequence[TwoQubitState],
    tolerance: float = DEFAULT_TOLERANCES["concurrence_oracle"],
) -> CheckResult:
    """Determinant concurrence vs the explicit bilinear route."""
    worst = 0.0
    for s in states:
        worst = max(worst, abs(concurrence(s) - concurrence_bilinear(s)))
    return _result("concurrence_oracle", len(states), worst, tolerance)


def check_bilinear_convention(
    states: Sequence[TwoQubitState],
    tolerance: float = DEFAULT_TOLERANCES["bilinear_convention"],
) -> CheckResult:
    """x3 + i*x4 must equal the full complex bilinear invariant."""
    worst = 0.0
    for s in states:
        a = np.array(s.alpha)
        b = complex(a @ _SYY @ a)
        x = coords_from_state(s)
        worst = max(worst, abs(complex(x.x3, x.x4) - b))
    return _result("bilinear_convention", len(states), worst, tolerance)


def check_fringe(
    states: Sequence[TwoQubitState],
    tolerance: float = DEFAULT_TOLERANCES["fringe_visibility"],
) -> CheckResult:
    """Fringe-contrast visibility vs the algebraic coherence form."""
    worst = 0.0
    for s in states:
        p_max, p_min = fringe_extrema(s)
        worst = max(worst, abs((p_max - p_min) / (p_max + p_min) - visibility(s)))
    return _result("fringe_visibility", len(states), worst, tolerance)


def check_purity(
    states: Sequence[TwoQubitState],
    tolerance: float = DEFAULT_TOLERANCES["purity_relation"],
) -> CheckResult:
    """V^2 + D^2 against 2*Tr(rho^2) - 1 of the reduced path state."""
    worst = 0.0
    for s in states:
        v, d, _ = triad(s)
        worst = max(
            worst, abs(v * v + d * d - (2.0 * purity(reduced_density_photon(s)) - 1.0))
        )
    return _result("purity_relation", len(states), worst, tolerance)


def check_separable_plane(
    states: Sequence[TwoQubitState],
    tolerance: float = DEFAULT_TOLERANCES["separable_plane"],
) -> CheckResult:
    """Product states must project into the complex plane (no e2/e3 part)."""
    worst = 0.0
    for s in states:
        worst = max(worst, abs(_invariants(s)[3]))
        q = stereo_project(quaternify(s))
        if is_infinite(q):
            worst = math.inf
            continue
        worst = max(worst, abs(q.z2.real), abs(q.z2.imag))
    return _result("separable_plane", len(states), worst, tolerance)


def _zero_imbalance_variant(s: TwoQubitState) -> TwoQubitState | None:
    # Rescale both branches to weight 1/2; keeps coherences, forces D ~ 0.
    p0, p1, _, _ = _invariants(s)
    if p0 < 1e-12 or p1 < 1e-12:
        return None
    f0 = math.sqrt(0.5 / p0)
    f1 = math.sqrt(0.5 / p1)
    a0, a1, a2, a3 = s.alpha
    return TwoQubitState((a0 * f0, a1 * f0, a2 * f1, a3 * f1))


def check_unit_q_iff_d0(
    states: Sequence[TwoQubitState],
    tolerance: float = DEFAULT_TOLERANCES["unit_q_iff_d0"],
) -> CheckResult:
    """|Q| = 1 exactly when the path populations balance (finite Q).

    Random states rarely sit near the D = 0 manifold, so each sample also
    contributes a rescaled zero-imbalance variant that must land on |Q| = 1.
    """
    worst = 0.0
    checked = 0
    for s in states:
        variants = [s]
        balanced = _zero_imbalance_variant(s)
        if balanced is not None:
            variants.append(balanced)
        for t in variants:
            q = stereo_project(quaternify(t))
            if is_infinite(q):
                continue
            checked += 1
            d = distinguishability(t)
            unit_gap = abs(q.norm() - 1.0)
            if d <= tolerance:
                worst = max(worst, unit_gap)
            elif unit_gap <= tolerance:
                worst = max(worst, d)
    return _result("unit_q_iff_d0", checked, worst, tolerance)


def verify_suite(
    count: int,
    seed: int,
    tolerance: float | None = None,
    *,
    _concurrence_fn: Callable[[TwoQubitState], float] | None = None,
) -> VerificationReport:
    """Run every check over ``count`` seeded samples.

    With ``tolerance=None`` each check keeps its own default from
    ``DEFAULT_TOLERANCES``; a float applies uniformly to all checks.
    ``_concurrence_fn`` swaps the concurrence used by the identity check and
    exists so tests can prove the harness catches planted corruption.
    """
    if count < 1:
        raise ValueError("count must be at least 1")

    def tol(name: str) -> float:
        return DEFAULT_TOLERANCES[name] if tolerance is None else tolerance

    haar = sample_haar(SampleSpec(count, seed, HAAR))
    separable = sample_separable(SampleSpec(count, seed, SEPARABLE))

    route, closure = check_dual_route(haar, tol("s4_dual_route"), tol("s4_unit_norm"))
    checks = (
        check_identity(haar, tol("triad_identity"), _concurrence_fn),
        route,
        closure,
        check_concurrence_oracle(haar, tol("concurrence_oracle")),
        check_bilinear_convention(haar, tol("bilinear_convention")),
        check_fringe(haar, tol("fringe_visibility")),
        check_purity(haar, tol("purity_relation")),
        check_separable_plane(separable, tol("separable_plane")),
        check_unit_q_iff_d0(haar, tol("unit_q_iff_d0")),
    )
    return VerificationReport(checks, (CONVENTION_NOTE,))
