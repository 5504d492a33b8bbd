"""Output checks of each workload against the independent reference.

Every check returns a list of error messages; an empty list means the output
is correct. Nothing here imports qtriad or compares against stored output.
"""

from __future__ import annotations

import json
import math

import numpy as np

import reference as ref
import workloads as wl

DERIVED_TOL = 1e-12
IDENTITY_TOL = 1e-10
ROUTE_TOL = 1e-9
# Standard errors a Haar sample mean may stray from its exact value.
HAAR_SIGMAS = 5.0
HAAR_MEANS = {"V": 2.0 / 5.0, "D": 1.0 / 5.0, "C": 2.0 / 5.0}

VERIFY_CHECKS = (
    "triad_identity", "s4_dual_route", "s4_unit_norm", "concurrence_oracle",
    "bilinear_convention", "fringe_visibility", "purity_relation",
    "separable_plane", "unit_q_iff_d0",
)
# Program constants the verify sample counts depend on (qtriad.verify,
# qtriad.projection): the dual-route skip band and the point at infinity.
DUAL_ROUTE_CUTOFF = 1e-7
INFINITY_THRESHOLD = 1e-14
_BALANCE_FLOOR = 1e-12
_MAX_ERRORS = 8
_DERIVED = ("V", "D", "C", "x0", "x1", "x2", "x3", "x4", "radius")


class Errors(list):
    def add(self, msg: str) -> None:
        if len(self) < _MAX_ERRORS:
            self.append(msg)


def _first_bad(mask: np.ndarray) -> int:
    return int(np.flatnonzero(mask)[0])


def _parse_csv(text: str, errors: Errors):
    lines = text.splitlines()
    if not lines or lines[0] != ",".join(ref.COLUMNS):
        errors.add("CSV header differs from the dataset schema")
        return None
    values, labels = [], []
    for n, line in enumerate(lines[1:]):
        cells = line.split(",")
        if len(cells) != len(ref.COLUMNS):
            errors.add(f"row {n}: {len(cells)} cells")
            return None
        values.append([float(c) for c in cells[:-1]])
        labels.append(tuple(cells[-1].split(";")) if cells[-1] else ())
    return np.array(values).reshape(-1, len(ref.COLUMNS) - 1), labels


def _parse_json_rows(text: str, errors: Errors):
    try:
        records = json.loads(text)
    except json.JSONDecodeError as exc:
        errors.add(f"output is not JSON: {exc}")
        return None
    if not isinstance(records, list) or any(list(r) != list(ref.COLUMNS) for r in records):
        errors.add("JSON records do not carry the dataset schema's keys in order")
        return None
    values = np.array([[r[c] for c in ref.COLUMNS[:-1]] for r in records], dtype=float)
    return values.reshape(-1, len(ref.COLUMNS) - 1), [tuple(r["labels"]) for r in records]


def _check_rows(values: np.ndarray, labels, expected: np.ndarray, errors: Errors,
                what: str) -> dict[str, np.ndarray] | None:
    """Amplitudes bit for bit, derived columns, the triad identity, labels."""
    if values.shape[0] != expected.shape[0]:
        errors.add(f"{what}: {values.shape[0]} rows, expected {expected.shape[0]}")
        return None
    alpha = values[:, 0:8:2] + 1j * values[:, 1:8:2]
    exact = (alpha.real == expected.real) & (alpha.imag == expected.imag)
    if not exact.all():
        bad = _first_bad(~exact.all(axis=1))
        errors.add(f"{what}: row {bad} amplitudes differ from the reference stream")
    cols = dict(zip(_DERIVED, values[:, 8:].T))
    want = ref.analyse(expected)
    for name in _DERIVED:
        off = np.abs(cols[name] - want[name]) > DERIVED_TOL
        if off.any():
            bad = _first_bad(off)
            errors.add(f"{what}: row {bad} {name}={cols[name][bad]!r}, "
                       f"reference {want[name][bad]!r}")
    ident = np.abs(cols["V"] ** 2 + cols["D"] ** 2 + cols["C"] ** 2 - 1.0) > IDENTITY_TOL
    if ident.any():
        errors.add(f"{what}: row {_first_bad(ident)} breaks V^2 + D^2 + C^2 = 1")
    for n, got in enumerate(labels):
        exp = ref.labels(want["V"][n], want["D"][n], want["C"][n])
        if exp is not None and tuple(got) != exp:
            errors.add(f"{what}: row {n} labels {';'.join(got)!r}, expected {';'.join(exp)!r}")
            break
    return cols


def check_sample_csv(text: str, seed: int, count: int) -> list[str]:
    """``qtriad sample --ensemble haar --format csv`` output."""
    errors = Errors()
    parsed = _parse_csv(text, errors)
    if parsed is None:
        return errors
    values, labels = parsed
    cols = _check_rows(values, labels, ref.haar_amplitudes(seed, range(count)), errors, "haar")
    if cols is not None:
        for name, exact in HAAR_MEANS.items():
            sq = cols[name] ** 2
            se = sq.std(ddof=1) / math.sqrt(len(sq))
            if abs(sq.mean() - exact) > HAAR_SIGMAS * se:
                errors.add(f"mean {name}^2 = {sq.mean():.5f}, Haar value {exact:.5f} "
                           f"(standard error {se:.5f})")
    return errors


def check_shells_json(text: str, seed: int, levels, per_level: int) -> list[str]:
    """``qtriad shells --format json`` output; level k owns indices [kN, (k+1)N)."""
    errors = Errors()
    parsed = _parse_json_rows(text, errors)
    if parsed is None:
        return errors
    values, labels = parsed
    if values.shape[0] != len(levels) * per_level:
        errors.add(f"{values.shape[0]} rows, expected {len(levels) * per_level}")
        return errors
    for k, level in enumerate(levels):
        rows = slice(k * per_level, (k + 1) * per_level)
        expected = ref.fixedc_amplitudes(seed, range(k * per_level, (k + 1) * per_level), level)
        what = f"level {level!r}"
        cols = _check_rows(values[rows], labels[rows], expected, errors, what)
        if cols is None:
            continue
        off = np.abs(cols["C"] - level) > DERIVED_TOL
        if off.any():
            errors.add(f"{what}: row {_first_bad(off)} has C = {cols['C'][_first_bad(off)]!r}")
        # radius = sqrt(1 - C^2), compared in squares: the root amplifies
        # roundoff near C = 1.
        off = np.abs(cols["radius"] ** 2 + cols["C"] ** 2 - 1.0) > DERIVED_TOL
        if off.any():
            errors.add(f"{what}: row {_first_bad(off)} radius is not sqrt(1 - C^2)")
        for must, at in (("Separable", 0.0), ("MaximallyEntangled", 1.0)):
            if level == at and not all(must in row for row in labels[rows]):
                errors.add(f"{what}: a row lacks the {must} label")
    return errors


def expected_verify_samples(seed: int, count: int) -> dict[str, int]:
    """Sample count each verify check must report for ``count`` states."""
    haar = ref.haar_amplitudes(seed, range(count))
    q2 = ref.analyse(haar)["q2"]
    p0 = np.abs(haar[:, 0]) ** 2 + np.abs(haar[:, 1]) ** 2
    out = {name: count for name in VERIFY_CHECKS}
    out["s4_dual_route"] = int((q2 >= DUAL_ROUTE_CUTOFF).sum())
    # Each state, plus its rescaled D = 0 variant when both branches carry
    # weight; the variant's |q2|^2 is 1/2, so it never projects to infinity.
    balanced = (p0 >= _BALANCE_FLOOR) & (1.0 - p0 >= _BALANCE_FLOOR)
    out["unit_q_iff_d0"] = int((q2 >= INFINITY_THRESHOLD).sum() + balanced.sum())
    return out


def check_verify_report(text: str, seed: int, count: int) -> list[str]:
    """``qtriad verify --format json`` output."""
    errors = Errors()
    try:
        report = json.loads(text)
        checks = {c["name"]: c for c in report["checks"]}
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        errors.add(f"report is not a verify report: {exc!r}")
        return errors
    if list(checks) != list(VERIFY_CHECKS):
        errors.add(f"checks {list(checks)}, expected {list(VERIFY_CHECKS)}")
    expected = expected_verify_samples(seed, count)
    for name in VERIFY_CHECKS:
        c = checks.get(name)
        if c is None:
            continue
        if c.get("passed") is not True:
            errors.add(f"{name} is marked failed")
        if not c.get("max_error", math.inf) <= c.get("tolerance", -math.inf):
            errors.add(f"{name}: max_error {c.get('max_error')!r} exceeds its tolerance")
        if c.get("samples") != expected[name]:
            errors.add(f"{name}: {c.get('samples')} samples, expected {expected[name]}")
    if report.get("passed") is not True:
        errors.add("report is not marked passed")
    return errors


def _correlated_reduced(payload) -> tuple[float, float, complex]:
    """(rho00, rho11, rho01) of the path qubit from (mu, nu, <chi1|chi2>)."""
    mu, nu, chi1, chi2 = payload
    c1, c2 = np.array(chi1), np.array(chi2)
    n1, n2 = np.linalg.norm(c1), np.linalg.norm(c2)
    m, n = mu * n1, nu * n2
    w = math.hypot(abs(m), abs(n))
    m, n = m / w, n / w
    overlap = np.vdot(c1 / n1, c2 / n2)  # <chi1|chi2>
    return abs(m) ** 2, abs(n) ** 2, complex(m * np.conj(n) * np.conj(overlap))


def check_scalar(rows: list, inputs: list) -> list[str]:
    """scalar-api results against the inputs they came from."""
    errors = Errors()
    if len(rows) != len(inputs):
        errors.add(f"{len(rows)} results for {len(inputs)} inputs")
        return errors
    ok, states, corr = [], [], []
    for n, ((kind, payload), row) in enumerate(zip(inputs, rows)):
        if row[0] != kind:
            errors.add(f"op {n}: result of kind {row[0]!r} for a {kind!r} input")
            return errors
        if len(row) == 2:
            if kind != "extreme":
                errors.add(f"op {n} ({kind}) failed: {row[1]}")
            continue
        ok.append(n)
        (corr if wl.is_correlated(kind) else states).append(len(ok) - 1)
    if not ok:
        return errors
    res = [rows[n] for n in ok]
    alpha = np.array([r[1] for r in res]).reshape(-1, 4, 2)
    alpha = alpha[..., 0] + 1j * alpha[..., 1]
    expected = alpha.copy()
    if states:
        raw = np.array([inputs[ok[k]][1] for k in states], dtype=complex)
        expected[states] = ref.normalize(raw)
        off = np.abs(alpha[states] - expected[states]).max(axis=1) > DERIVED_TOL
        if off.any():
            errors.add(f"op {ok[states[_first_bad(off)]]}: normalized amplitudes differ")
    for k in corr:
        r00, r11, r01 = _correlated_reduced(inputs[ok[k]][1])
        a0, a1, a2, a3 = alpha[k]
        got = (abs(a0) ** 2 + abs(a1) ** 2, abs(a2) ** 2 + abs(a3) ** 2,
               np.conj(a2) * a0 + np.conj(a3) * a1)
        if max(abs(got[0] - r00), abs(got[1] - r11), abs(got[2] - r01)) > DERIVED_TOL:
            errors.add(f"op {ok[k]}: embed_correlated changed the path qubit's reduced state")
    want = ref.analyse(expected)
    got = {
        "V": np.array([r[2][0] for r in res]), "D": np.array([r[2][1] for r in res]),
        "C": np.array([r[2][2] for r in res]),
        "radius": np.array([r[4] for r in res]),
    }
    x = np.array([r[3] for r in res])
    y = np.array([r[6] for r in res])
    for j in range(5):
        got[f"x{j}"] = x[:, j]
    for name in _DERIVED:
        off = np.abs(got[name] - want[name]) > DERIVED_TOL
        if off.any():
            errors.add(f"op {ok[_first_bad(off)]}: {name} differs from the reference")
    want_x = np.stack([want[f"x{j}"] for j in range(5)], axis=1)
    off = np.abs(y - want_x).max(axis=1) > ROUTE_TOL
    if off.any():
        errors.add(f"op {ok[_first_bad(off)]}: the stereographic route misses the coordinates")
    at_inf = np.array([r[5] for r in res])
    pole = want["q2"] < INFINITY_THRESHOLD
    if (at_inf != pole).any():
        errors.add(f"op {ok[_first_bad(at_inf != pole)]}: point at infinity misplaced")
    north = (y == np.array([1.0, 0.0, 0.0, 0.0, 0.0])).all(axis=1)
    if (pole & ~north).any():
        errors.add(f"op {ok[_first_bad(pole & ~north)]}: q2 = 0 state off the north pole")
    lam = np.array([r[8] for r in res])
    bad = ((lam[:, 0] < lam[:, 1]) | (lam[:, 1] < 0.0)
           | (np.abs(lam[:, 0] ** 2 + lam[:, 1] ** 2 - 1.0) > DERIVED_TOL)
           | (np.abs(2.0 * lam[:, 0] * lam[:, 1] - want["C"]) > DERIVED_TOL))
    if bad.any():
        errors.add(f"op {ok[_first_bad(bad)]}: Schmidt coefficients {lam[_first_bad(bad)]}")
    for k, r in enumerate(res):
        exp = ref.labels(want["V"][k], want["D"][k], want["C"][k])
        if exp is not None and sorted(r[7]) != sorted(exp):
            errors.add(f"op {ok[k]}: labels {r[7]}, expected {list(exp)}")
            break
    return errors
