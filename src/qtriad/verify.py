"""Self-verification suite: every structural identity checked against an
independent route, over seeded random ensembles.

Each check compares the direct route, the public functions under test
(``triad`` and ``coords_from_state``), with an oracle route: the
stereographic composition ``inverse_stereo(stereo_project(quaternify(s)))``,
the sigma_y x sigma_y bilinear form, or the four-step fringe route.
``verify_suite`` draws the sample in blocks of ``sampling._BLOCK`` indices
(``sampling._draws``), each once. The haar and separable streams draw alike,
with no ensemble in the Philox key or counter, so the haar and the separable
state at one index come from the same normals: from each draw the suite
assembles the haar amplitudes (``sampling._assemble``) and runs the haar
checks on them, then assembles the separable amplitudes and runs
``separable_plane`` on them. It holds one chunk at a time and merges each
check's results, so its memory does not grow with the count. No
``TwoQubitState`` is built for a drawn state. A
chunk (``_Chunk``) holds a block's rows and computes what its checks share
once: the direct route by the array kernel ``states._invariant_rows``, which
gives each row's ``triad``, ``coords_from_state``, purity and |det| bit for
bit, the stereographic route and the bilinear form. The rest of each oracle
route is array code over the whole chunk:

* the stereographic route runs the ``Quaternion`` pair rules
  (``quaternion._norm_sq``, ``_inverse``, ``_product``) on
  ``states._Columns``, which round as Python's complex arithmetic does (see
  there), and lifts Q by ``inverse_stereo``'s chart, ``projection._chart``.
* the bilinear form is one stacked ``A[:, None, :] @ _SYY @ A[:, :, None]``,
  which gives the same bits as ``a @ _SYY @ a`` per state.
* the fringe route is ``fringe_extrema``'s formula, ``states._fringe``, on
  ``states._Columns``: p(delta) at four phases, 0, pi/2, pi and 3*pi/2,
  gives the fringe extrema from intensities alone, with no phase and no
  coherence read.
* ``unit_q_iff_d0`` builds the balanced variants with ``_balanced``, which
  ``_unit_q_variants`` runs on one row, and takes their D from the kernel.

|q2|, which decides the point at infinity, and |Q| are ``math.hypot`` on
the scalar route, and no numpy function rounds like it on every input. The
array routes decide |q2| >= ``INFINITY_THRESHOLD`` by |q2|^2 from
``_norm_sq``, and |Q| - 1 against the tolerance by sqrt(|Q|^2). Both are
within 4.5u of the exact value (u = 2**-53) and ``math.hypot`` is within 1
ulp, so they decide alike outside a relative band of 32u around the
threshold; the rows inside it, and the rows whose gap | |Q| - 1 | is itself
the reported error, take ``math.hypot`` one row at a time
(``states._each``), so every decision and every error is the scalar
route's bit for bit.

Each check keeps its per-state error function, the scalar reference route
built on ``triad``, ``coords_from_state``, ``Quaternion``,
``fringe_extrema`` and ``reduced_density_photon``; ``triad`` and
``coords_from_state`` run only there. Its witness is the first state whose
array error is NaN, else the first with the largest error. The check
reports the larger of the array error and the scalar error there, a NaN in
either winning, so a fault in the kernel alone or in the scalar route alone
still fails it; ``tests/test_verify.py`` pins the two to each other bit for
bit, and then they are the same value.

The report's rows, their names, default tolerances and order are those of
``DEFAULT_TOLERANCES``. Every ``check_*`` takes ``(states, tolerance=None)``:
None keeps each of its rows' defaults and a number applies to all of its
rows, the rule of ``verify_suite`` and ``--tolerance``. ``_tolerance`` holds
the rule for the checks and the suite alike: a finite real >= 0, stored as a
float, else a ValueError. ``check_dual_route`` gives two rows from one pass
of its routes. The suite calls the checks by their names in this module when
it runs, not through references taken at import, so a check replaced in the
module's namespace is the one that runs: ``benchmark/tracing.py`` times each
check that way, and the tests count the calls that way.

Each check reports its worst-case error, so a report stays useful even when
everything passes; failures are reported, never raised.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from .projection import (
    INFINITY_THRESHOLD,
    _chart,
    coords_from_state,
    inverse_stereo,
    quaternify,
    stereo_project,
)
from .quaternion import _inverse, _norm_sq, _product, is_infinite
from .sampling import HAAR, SEPARABLE, SampleSpec, _assemble, _draws
from .states import (
    _INVARIANTS,
    TwoQubitState,
    _admitted,
    _Columns,
    _columns,
    _each,
    _fringe,
    _gate,
    _invariant_rows,
    _recall,
    fringe_extrema,
    purity,
    reduced_density_photon,
    triad,
)

# The report's rows in report order, each with its default tolerance.
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
            "checks": [asdict(c) for c in self.checks],
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


# ----------------------------------------------------------- chunks, witness


def _amplitudes(states: Iterable[TwoQubitState]) -> np.ndarray:
    return np.array([s.alpha for s in states], dtype=complex).reshape(-1, 4)


class _Chunk:
    """Rows of amplitudes, with what the checks share computed once, by the
    first check that reads it: the direct route (``_invariant_rows``), the
    stereographic route and the bilinear form. ``chunk[k]`` is the state of
    row k, built for the scalar reference at a witness."""

    def __init__(self, alpha: np.ndarray):
        self.alpha = alpha

    def __len__(self) -> int:
        return len(self.alpha)

    def __getitem__(self, k: int) -> TwoQubitState:
        return TwoQubitState(self.alpha[k].tolist())

    rows = cached_property(lambda self: _invariant_rows(self.alpha))
    stereo = cached_property(lambda self: _stereo(self.alpha))
    bilinear = cached_property(lambda self: _bilinear(self.alpha))


def _chunk(states: Iterable[TwoQubitState]) -> _Chunk:
    """``states`` packed once into a ``_Chunk``; a chunk is returned as it is."""
    return states if isinstance(states, _Chunk) else _Chunk(_amplitudes(states))


def _witness(errors) -> int | None:
    """Index of the first NaN in ``errors``, else of their first maximum;
    None when there are none."""
    return int(np.argmax(errors)) if len(errors) else None


def _max_error(chunk: _Chunk, errors, error: Callable) -> float:
    """The error at the witness of the array ``errors``, one per state: the
    larger of its array value and the scalar reference ``error``, a NaN in
    either winning; 0.0 when there are no states."""
    k = _witness(errors)
    if k is None:
        return 0.0
    array, scalar = float(errors[k]), error(chunk[k])
    return array if math.isnan(array) or array > scalar else scalar


def _tolerance(tolerance: float | None, name: str | None = None) -> float | None:
    """``tolerance`` as a float; raises ValueError unless it is a finite real
    >= 0. None stands for row ``name``'s default, and stays None without a name."""
    if tolerance is None:
        return None if name is None else DEFAULT_TOLERANCES[name]
    if not (isinstance(tolerance, numbers.Real) and 0.0 <= tolerance < math.inf):
        raise ValueError(f"tolerance must be finite and >= 0, got {tolerance!r}")
    return float(tolerance)


def _check(
    name: str, states, errors: Callable, error: Callable, tolerance: float | None
) -> CheckResult:
    """Row ``name``: its error at the witness of the chunk's array
    ``errors``, as ``_max_error`` gives it with the scalar ``error``, against
    ``tolerance`` or, when that is None, the row's default."""
    tolerance = _tolerance(tolerance, name)
    chunk = _chunk(states)
    worst = _max_error(chunk, errors(chunk), error)
    return _result(name, len(chunk), worst, tolerance)


def _merge(parts: Sequence[CheckResult]) -> CheckResult:
    """One check's results on consecutive chunks as one result over them all."""
    # Each part stands for its chunk's witness state, so the witness of the
    # parts' errors is that of the whole sample.
    worst = parts[_witness([p.max_error for p in parts])].max_error
    samples = sum(p.samples for p in parts)
    return _result(parts[0].name, samples, worst, parts[0].tolerance)


# ------------------------------------------------------------- oracle routes

# The two threshold tests of the array routes, |q2| >= INFINITY_THRESHOLD in
# ``_stereo`` and |Q| - 1 against the tolerance in ``_unit_q_rows``, are
# decided on the scalar route by ``math.hypot``. The array routes decide them
# from the sums of squares they compute anyway, and call ``math.hypot`` only
# on the rows within the relative band ``_BAND`` of the threshold, where the
# two could decide differently. With u = 2**-53:
#
# * n2 = ``_norm_sq``, four squares summed left to right, is within
#   gamma_4 = 4u / (1 - 4u) of the exact |q|^2 (Higham, *Accuracy and
#   Stability of Numerical Algorithms*, 2nd ed., SIAM 2002, sec. 3.1), and
#   ``_THRESHOLD_SQ`` within u/2 of T^2: about 4.5u together. No square
#   underflows near T^2 = 1e-28, and one that underflows elsewhere is off by
#   at most 2**-1074, far below the band.
# * ``math.hypot`` is within 1 ulp, at most 2u relative, of |q|, so it
#   compares with T as |q| does unless |q|^2 is within about 4u of T^2.
# * So n2 >= T^2 decides as ``math.hypot(...) >= T`` wherever
#   |n2 - T^2| > 8.5u T^2. For Q, sqrt(n2) is within 2.5u of |Q| and
#   ``math.hypot`` within 2u, so the two gaps |norm - 1| differ by less than
#   8u (|Q| + 1), rounding of the subtraction included.
#
# The band, 32u, holds those bounds with room. It is required: within 8 ulps
# of T, about 1.7% of random q2 decide differently by n2 alone.
_THRESHOLD_SQ = INFINITY_THRESHOLD * INFINITY_THRESHOLD
_BAND = 2.0**-48


def _stereo(alpha: np.ndarray) -> tuple[np.ndarray, tuple[_Columns, _Columns]]:
    """``stereo_project(quaternify(s))`` over rows of amplitudes.

    Returns ``(finite, q)``: ``finite`` marks the rows with |q2| at or above
    ``INFINITY_THRESHOLD`` and ``q`` is Q = q1 * q2^{-1} as its pair (z1, z2)
    of ``states._Columns``, meaningful on those rows only. The ``Quaternion``
    rules form both, so each part is the scalar route's bit for bit.
    ``finite`` is |q2|^2 >= ``INFINITY_THRESHOLD``^2, and ``math.hypot``'s
    decision in the band ``_BAND`` around it, so every row decides as
    ``stereo_project``'s ``q2.norm()`` does.

    The rows have passed ``TwoQubitState``'s norm gate, so |psi| is within
    NORM_TOL / 8 of 1 and the spinor is normalized; on the finite rows
    |Q| = |q1| / |q2| is at most about 1e14. Neither raise of the scalar route can fire here.
    """
    # quaternify: q1 = a0 + a1*e2, q2 = a2 + a3*e2.
    a0, a1, a2, a3 = _columns(alpha)
    n2 = _norm_sq(a2, a3)
    finite = n2 >= _THRESHOLD_SQ
    near = np.abs(n2 - _THRESHOLD_SQ) <= _BAND * _THRESHOLD_SQ
    parts = (a2.real[near], a2.imag[near], a3.real[near], a3.imag[near])
    finite[near] = _each(math.hypot)(*parts) >= INFINITY_THRESHOLD
    # 1 stands in for |q2|^2 on the rows at infinity.
    n2 = np.where(finite, n2, 1.0)
    return finite, _product(a0, a1, *_inverse(a2, a3, n2))


def _lift(finite: np.ndarray, q: tuple[_Columns, _Columns]) -> np.ndarray:
    """``inverse_stereo`` over rows: (n, 5) points, the north pole where Q is infinite."""
    z1, z2 = q
    x = np.stack(_chart(_norm_sq(z1, z2), z1.real, z1.imag, z2.real, z2.imag), 1)
    x[~finite] = (1.0, 0.0, 0.0, 0.0, 0.0)
    return x


def _bilinear(alpha: np.ndarray) -> _Columns:
    """``a @ _SYY @ a`` for every row ``a`` of amplitudes."""
    b = (alpha[:, None, :] @ _SYY @ alpha[:, :, None])[:, 0, 0]
    return _Columns(b.real, b.imag)


def concurrence_bilinear(s: TwoQubitState) -> float:
    """Concurrence via the explicit antilinear route |psi^T (sy x sy) psi|.

    Independent of the determinant shortcut in ``concurrence``: the matrix is
    materialized and applied, nothing is simplified away.
    """
    a = np.array(s.alpha)
    return float(abs(a @ _SYY @ a))


# ------------------------------------------------------ errors, per check
#
# Each check has a scalar error function of one state (the reference) and an
# array function giving every state's error from the array routes. Where the
# same expression gives the same bits and the same NaN on both, a gap
# function of the routes' values serves the two; it takes floats or arrays.


def _sphere_gap(x) -> float:
    """|x0^2 + ... + x4^2 - 1|, summed left to right."""
    x0, x1, x2, x3, x4 = x
    return abs(x0 * x0 + x1 * x1 + x2 * x2 + x3 * x3 + x4 * x4 - 1.0)


def _identity_gap(t) -> float:
    """|V^2 + D^2 + C^2 - 1| of a triad t."""
    v, d, c = t
    return abs(v * v + d * d + c * c - 1.0)


def _purity_gap(t, purity) -> float:
    """|V^2 + D^2 - (2*purity - 1)| of a triad t and a path-state purity."""
    v, d, _ = t
    return abs(v * v + d * d - (2.0 * purity - 1.0))


def _contrast_gap(p_max, p_min, v) -> float:
    """|(p_max - p_min) / (p_max + p_min) - V| of fringe extrema and a V."""
    return abs((p_max - p_min) / (p_max + p_min) - v)


def _identity_error(s: TwoQubitState) -> float:
    return _identity_gap(triad(s))


def _identity_errors(states) -> np.ndarray:
    return _identity_gap(_chunk(states).rows.triads.T)


def _dual_route_error(s: TwoQubitState) -> tuple[float, float]:
    """(route, closure): the largest coordinate gap between the direct and
    the lifted point, and the larger of their distances from the sphere."""
    direct = coords_from_state(s)
    lifted = inverse_stereo(stereo_project(quaternify(s)))
    return (
        max(abs(a - b) for a, b in zip(direct, lifted)),
        max(_sphere_gap(direct), _sphere_gap(lifted)),
    )


def _dual_route_errors(states) -> tuple[np.ndarray, np.ndarray]:
    chunk = _chunk(states)
    direct, lifted = chunk.rows.coords, _lift(*chunk.stereo)
    return (
        np.abs(direct - lifted).max(axis=1),
        np.maximum(_sphere_gap(direct.T), _sphere_gap(lifted.T)),
    )


def _concurrence_oracle_error(s: TwoQubitState) -> float:
    return abs(triad(s).C - concurrence_bilinear(s))


def _concurrence_oracle_errors(states) -> np.ndarray:
    chunk = _chunk(states)
    return abs(chunk.rows.triads[:, 2] - abs(chunk.bilinear))


def _bilinear_convention_error(s: TwoQubitState) -> float:
    a = np.array(s.alpha)
    b = complex(a @ _SYY @ a)
    x = coords_from_state(s)
    return abs(complex(x.x3, x.x4) - b)


def _bilinear_convention_errors(states) -> np.ndarray:
    chunk = _chunk(states)
    x = chunk.rows.coords
    return abs(_Columns(x[:, 3], x[:, 4]) - chunk.bilinear)


def _fringe_error(s: TwoQubitState) -> float:
    return _contrast_gap(*fringe_extrema(s), triad(s).V)


def _fringe_errors(states) -> np.ndarray:
    chunk = _chunk(states)
    return _contrast_gap(*_fringe(*_columns(chunk.alpha)), chunk.rows.triads[:, 0])


def _purity_error(s: TwoQubitState) -> float:
    return _purity_gap(triad(s), purity(reduced_density_photon(s)))


def _purity_errors(states) -> np.ndarray:
    rows = _chunk(states).rows
    return _purity_gap(rows.triads.T, rows.purity)


def _separable_plane_error(s: TwoQubitState) -> float:
    det = abs(_recall(s, _INVARIANTS)[3])
    q = stereo_project(quaternify(s))
    if is_infinite(q):
        return math.inf
    return max(det, abs(q.z2.real), abs(q.z2.imag))


def _separable_plane_errors(states) -> np.ndarray:
    chunk = _chunk(states)
    finite, (_, z2) = chunk.stereo
    plane = np.maximum(chunk.rows.det, np.maximum(np.abs(z2.real), np.abs(z2.imag)))
    return np.where(finite, plane, math.inf)


def _unit_q_variants(s: TwoQubitState) -> list[TwoQubitState]:
    """The state, plus its zero-imbalance variant when both branches carry
    weight: both rescaled to weight 1/2, which keeps the coherences and
    forces D ~ 0."""
    p0, p1, _, _ = _recall(s, _INVARIANTS)
    _, variants = _balanced(np.array([s.alpha]), np.array([p0]), np.array([p1]))
    return [s, *_admitted(variants)]


def _unit_q_error(s: TwoQubitState, tolerance: float) -> tuple[float, int]:
    """(error, variants with a finite Q) of a state and its balanced variant."""
    worst = 0.0
    checked = 0
    for t in _unit_q_variants(s):
        q = stereo_project(quaternify(t))
        if is_infinite(q):
            continue
        checked += 1
        d = triad(t).D
        unit_gap = abs(q.norm() - 1.0)
        if d <= tolerance:
            worst = max(worst, unit_gap)
        elif unit_gap <= tolerance:
            worst = max(worst, d)
    return worst, checked


def _balanced(alpha: np.ndarray, p0: np.ndarray, p1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The balanced variants of rows of amplitudes with path populations p0
    and p1, ``(has, variants)``: the rows with neither p0 nor p1 below 1e-12,
    and their amplitudes, each branch's times sqrt(0.5 / p) on ``_Columns``.
    Raises ``TwoQubitState``'s ValueError for a variant its norm gate rejects."""
    has = ~((p0 < 1e-12) | (p1 < 1e-12))
    f = np.sqrt(0.5 / np.stack((p0, p0, p1, p1), 1)[has])
    v = _Columns(alpha.real[has], alpha.imag[has]) * f
    variants = np.stack((v.real, v.imag), 2).reshape(-1, 8).view(complex)
    _gate(variants)
    return has, variants


def _unit_q_rows(finite, q, d, tolerance: float) -> np.ndarray:
    """Each row's unit_q error, from its Q and its D; 0 where Q is infinite.
    The gap | |Q| - 1 | is ``math.hypot``'s where it is the error (d within
    the tolerance) or lies in the band ``_BAND`` around the tolerance; only
    whether it is within the tolerance is read elsewhere, which sqrt(|Q|^2)
    decides alike."""
    z1, z2 = q
    norm = np.sqrt(_norm_sq(z1, z2))
    gap = np.abs(norm - 1.0)
    exact = d <= tolerance
    redo = finite & (exact | (np.abs(gap - tolerance) <= _BAND * (norm + 1.0)))
    parts = (z1.real[redo], z1.imag[redo], z2.real[redo], z2.imag[redo])
    gap[redo] = np.abs(_each(math.hypot)(*parts) - 1.0)
    error = np.where(exact, gap, np.where(gap <= tolerance, d, 0.0))
    error[~finite] = 0.0
    return error


def _unit_q_errors(states, tolerance: float) -> tuple[np.ndarray, np.ndarray]:
    """Per state: its error and its count of finite Q."""
    chunk = _chunk(states)
    rows = chunk.rows
    errors = _unit_q_rows(*chunk.stereo, rows.triads[:, 1], tolerance)
    counts = chunk.stereo[0].astype(int)
    has, variants = _balanced(chunk.alpha, rows.p0, rows.p1)
    finite, q = _stereo(variants)
    d = _invariant_rows(variants).triads[:, 1]
    errors[has] = np.maximum(errors[has], _unit_q_rows(finite, q, d, tolerance))
    counts[has] += finite
    return errors, counts


# ------------------------------------------------------------------- checks


def check_identity(states, tolerance: float | None = None) -> CheckResult:
    """max |V^2 + D^2 + C^2 - 1| over the sample."""
    return _check("triad_identity", states, _identity_errors, _identity_error, tolerance)


def check_dual_route(states, tolerance: float | None = None) -> tuple[CheckResult, CheckResult]:
    """Direct coordinates vs the projection composition, plus sphere closure:
    two rows from one pass of the routes."""
    chunk = _chunk(states)
    route, closure = _dual_route_errors(chunk)
    return (
        _check(
            "s4_dual_route", chunk, lambda _: route,
            lambda s: _dual_route_error(s)[0], tolerance,
        ),
        _check(
            "s4_unit_norm", chunk, lambda _: closure,
            lambda s: _dual_route_error(s)[1], tolerance,
        ),
    )


def check_concurrence_oracle(states, tolerance: float | None = None) -> CheckResult:
    """Determinant concurrence vs the explicit bilinear route."""
    errors, error = _concurrence_oracle_errors, _concurrence_oracle_error
    return _check("concurrence_oracle", states, errors, error, tolerance)


def check_bilinear_convention(states, tolerance: float | None = None) -> CheckResult:
    """x3 + i*x4 must equal the full complex bilinear invariant."""
    errors, error = _bilinear_convention_errors, _bilinear_convention_error
    return _check("bilinear_convention", states, errors, error, tolerance)


def check_fringe(states, tolerance: float | None = None) -> CheckResult:
    """Fringe-contrast visibility vs the algebraic coherence form."""
    return _check("fringe_visibility", states, _fringe_errors, _fringe_error, tolerance)


def check_purity(states, tolerance: float | None = None) -> CheckResult:
    """V^2 + D^2 against 2*Tr(rho^2) - 1 of the reduced path state."""
    return _check("purity_relation", states, _purity_errors, _purity_error, tolerance)


def check_separable_plane(states, tolerance: float | None = None) -> CheckResult:
    """Product states must project into the complex plane (no e2/e3 part)."""
    errors, error = _separable_plane_errors, _separable_plane_error
    return _check("separable_plane", states, errors, error, tolerance)


def check_unit_q_iff_d0(states, tolerance: float | None = None) -> CheckResult:
    """|Q| = 1 exactly when the path populations balance (finite Q).

    Random states rarely sit near the D = 0 manifold, so each sample also
    contributes a rescaled zero-imbalance variant that must land on |Q| = 1.
    """
    tolerance = _tolerance(tolerance, "unit_q_iff_d0")
    chunk = _chunk(states)
    errors, counts = _unit_q_errors(chunk, tolerance)
    worst = _max_error(chunk, errors, lambda s: _unit_q_error(s, tolerance)[0])
    return _result("unit_q_iff_d0", int(counts.sum()), worst, tolerance)


def verify_suite(
    count: int, seed: int, tolerance: float | None = None
) -> VerificationReport:
    """Run every check over ``count`` seeded samples.

    With ``tolerance=None`` each check keeps its own default from
    ``DEFAULT_TOLERANCES``; a real number applies to all checks as a float.
    The report lists the rows in ``DEFAULT_TOLERANCES`` order.
    """
    tolerance = _tolerance(tolerance)
    haar, separable = SampleSpec(count, seed, HAAR), SampleSpec(count, seed, SEPARABLE)
    # Each ensemble's checks, read from the module's names on every call, so
    # that a check replaced there (by a test, or a tracer timing it) runs.
    ensembles = (
        (haar, (
            check_identity, check_dual_route, check_concurrence_oracle,
            check_bilinear_convention, check_fringe, check_purity, check_unit_q_iff_d0,
        )),
        (separable, (check_separable_plane,)),
    )

    def on_block(draw):
        # Both ensembles from the one draw, one chunk alive at a time: each
        # is released before the next is built.
        rows = {}
        for spec, checks in ensembles:
            chunk = _Chunk(_assemble(spec, draw))
            for check in checks:
                out = check(chunk, tolerance)
                rows.update((r.name, r) for r in (out if isinstance(out, tuple) else (out,)))
            del chunk
        return [rows[name] for name in DEFAULT_TOLERANCES]

    checks = [_merge(parts) for parts in zip(*map(on_block, _draws(haar)))]
    return VerificationReport(tuple(checks), (CONVENTION_NOTE,))
