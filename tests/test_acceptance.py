"""Acceptance gate: every release criterion at its pinned tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Criteria are numbered; each prints its worst-case error, its
tolerance, and PASS/FAIL before asserting.
"""

import io
import math
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from qtriad.classify import schmidt_decompose
from qtriad.dataset import emit_dataset
from qtriad.projection import (
    ball_point,
    coords_from_state,
    inverse_stereo,
    quaternify,
    stereo_project,
)
from qtriad.quaternion import is_infinite
from qtriad.sampling import (
    FIXED_CONCURRENCE,
    HAAR,
    SEPARABLE,
    SampleSpec,
    haar_state,
    sample_fixed_concurrence,
    sample_haar,
    sample_separable,
)
from qtriad.states import (
    BlochAngles,
    bloch_state,
    concurrence,
    distinguishability,
    embed_correlated,
    fringe_extrema,
    make_correlated,
    make_state,
    purity,
    reduced_density_photon,
    triad,
    visibility,
)
from qtriad.verify import concurrence_bilinear

HAAR_SEED = 42
N_BIG = 100_000
N_MID = 10_000


def report(num: int, name: str, err: float, tol: float, extra: str = "") -> None:
    status = "PASS" if err <= tol else "FAIL"
    tail = f" {extra}" if extra else ""
    print(f"criterion {num:02d} {name}: max_err={err:.3e} tol={tol:.0e}{tail} [{status}]")
    assert err <= tol, f"criterion {num} failed: {err:.3e} > {tol:.0e}"


@pytest.fixture(scope="module")
def haar_big():
    t0 = time.perf_counter()
    states = sample_haar(SampleSpec(N_BIG, HAAR_SEED, HAAR))
    return states, time.perf_counter() - t0


def test_criterion_01_triad_identity(haar_big):
    states, sample_seconds = haar_big
    t0 = time.perf_counter()
    worst = 0.0
    for s in states:
        v, d, c = triad(s)
        worst = max(worst, abs(v * v + d * d + c * c - 1.0))
    elapsed = sample_seconds + (time.perf_counter() - t0)
    report(1, "triad identity (1e5 Haar)", worst, 1e-10, f"runtime={elapsed:.1f}s")
    assert elapsed < 10.0, f"runtime target exceeded: {elapsed:.1f}s"


def test_criterion_02_dual_route_geometry(haar_big):
    states, _ = haar_big
    worst_route = 0.0
    worst_norm = 0.0
    compared = 0
    for s in states:
        direct = coords_from_state(s)
        worst_norm = max(worst_norm, abs(sum(x * x for x in direct) - 1.0))
        sp = quaternify(s)
        if sp.q2.norm() < 1e-7:
            continue
        compared += 1
        lifted = inverse_stereo(stereo_project(sp))
        worst_norm = max(worst_norm, abs(sum(x * x for x in lifted) - 1.0))
        worst_route = max(worst_route, max(abs(a - b) for a, b in zip(direct, lifted)))
    report(2, f"dual-route S4 agreement ({compared} states)", worst_route, 1e-9)
    report(2, "unit-sphere closure (both routes)", worst_norm, 1e-10)


def test_criterion_03_concurrence_oracle(haar_big):
    states, _ = haar_big
    worst = 0.0
    for s in states:
        worst = max(worst, abs(concurrence(s) - concurrence_bilinear(s)))
    report(3, "concurrence vs bilinear oracle", worst, 1e-12)


def test_criterion_04_fringe_visibility(haar_big):
    states, _ = haar_big
    worst = 0.0
    for s in states[:N_MID]:
        p_max, p_min = fringe_extrema(s)
        worst = max(worst, abs((p_max - p_min) / (p_max + p_min) - visibility(s)))
    report(4, "fringe contrast vs algebraic V", worst, 1e-10)


def test_criterion_05_purity_relation(haar_big):
    states, _ = haar_big
    worst = 0.0
    for s in states:
        v, d = visibility(s), distinguishability(s)
        p = purity(reduced_density_photon(s))
        worst = max(worst, abs(v * v + d * d - (2.0 * p - 1.0)))
    report(5, "purity relation (1e5 Haar)", worst, 1e-10)

    bell = make_state((1, 0, 0, 1), normalize=True)
    v, d = visibility(bell), distinguishability(bell)
    p = purity(reduced_density_photon(bell))
    bell_err = max(abs(v * v + d * d), abs(v * v + d * d - (2.0 * p - 1.0)))
    report(5, "Bell state V^2+D^2 = 0", bell_err, 1e-12)


def test_criterion_06_pure_state_circle():
    worst_circle = 0.0
    worst_c = 0.0
    # Product states on a theta grid over [0, pi] at phi = 0.
    for i in range(1000):
        s = bloch_state(BlochAngles(min(i * (math.pi / 999), math.pi), 0.0))
        v, d, c = triad(s)
        worst_circle = max(worst_circle, abs(v * v + d * d - 1.0))
        worst_c = max(worst_c, c)
    report(6, "single-qubit circle V^2+D^2 = 1", worst_circle, 1e-12)
    report(6, "single-qubit circle C = 0", worst_c, 1e-14)


def test_criterion_07_separable_plane():
    states = sample_separable(SampleSpec(N_MID, HAAR_SEED, SEPARABLE))
    worst = 0.0
    for s in states:
        a0, a1, a2, a3 = s.alpha
        worst = max(worst, abs(a1 * a2 - a0 * a3))
        q = stereo_project(quaternify(s))
        assert not is_infinite(q)
        worst = max(worst, abs(q.z2.real), abs(q.z2.imag))
    report(7, "separable states stay in complex plane", worst, 1e-12)


def test_criterion_08_shell_geometry():
    worst = 0.0
    worst_origin = 0.0
    for c in (0.0, 0.3, 0.6, 0.9, 1.0):
        expected = math.sqrt(1.0 - c * c)
        states = sample_fixed_concurrence(SampleSpec(1000, 11, FIXED_CONCURRENCE, c))
        for s in states:
            r = ball_point(s).radius
            worst = max(worst, abs(r - expected))
            if c == 1.0:
                worst_origin = max(worst_origin, r)
    report(8, "shell radii sqrt(1-C^2), 5 levels", worst, 1e-10)
    report(8, "C=1 shell collapses to origin", worst_origin, 1e-10)


def test_criterion_09_schmidt_bridge(haar_big):
    states, _ = haar_big
    worst = 0.0
    for s in states[:N_MID]:
        form = schmidt_decompose(s)
        worst = max(worst, abs(concurrence(s) - 2.0 * form.lambda1 * form.lambda2))
    report(9, "C = 2*lambda1*lambda2 (1e4 states)", worst, 1e-12)

    # zero-coherence states: Schmidt weights are the branch weights
    rng = np.random.default_rng(17)
    worst_axis = 0.0
    checked = 0
    for _ in range(1000):
        v = rng.normal(size=8)
        row0 = np.array([complex(v[0], v[1]), complex(v[2], v[3])])
        row1 = np.array([complex(v[4], v[5]), complex(v[6], v[7])])
        row1 -= (np.vdot(row0, row1) / np.vdot(row0, row0)) * row0
        s = make_state(tuple(np.concatenate([row0, row1])), normalize=True)
        if visibility(s) > 1e-12:
            continue
        checked += 1
        a0, a1, a2, a3 = s.alpha
        weights = sorted(
            (
                math.sqrt(abs(a0) ** 2 + abs(a1) ** 2),
                math.sqrt(abs(a2) ** 2 + abs(a3) ** 2),
            ),
            reverse=True,
        )
        form = schmidt_decompose(s)
        worst_axis = max(
            worst_axis,
            abs(form.lambda1 - weights[0]),
            abs(form.lambda2 - weights[1]),
        )
    assert checked >= 990
    report(9, f"axis states: weights match ({checked} states)", worst_axis, 1e-12)


def test_criterion_10_embedding_fidelity():
    rng = np.random.default_rng(23)
    worst_rho = 0.0
    worst_bridge = 0.0
    dims = (2, 3, 5)
    for k in range(1000):
        d = dims[k % 3]
        w = rng.normal(size=2) + 1j * rng.normal(size=2)
        chi1 = rng.normal(size=d) + 1j * rng.normal(size=d)
        chi2 = rng.normal(size=d) + 1j * rng.normal(size=d)
        c = make_correlated(w[0], w[1], tuple(chi1), tuple(chi2), normalize=True)
        s = embed_correlated(c)
        rho = reduced_density_photon(s)
        top = np.array([c.mu * x for x in c.chi1])
        bot = np.array([c.nu * x for x in c.chi2])
        full = np.vstack([top, bot])
        oracle = np.einsum("ij,kj->ik", full, full.conj())
        worst_rho = max(
            worst_rho,
            abs(rho.rho00 - oracle[0, 0].real),
            abs(rho.rho01 - oracle[0, 1]),
            abs(rho.rho11 - oracle[1, 1].real),
        )
        cc = concurrence(s)
        worst_bridge = max(
            worst_bridge, abs(cc * cc - 2.0 * (1.0 - purity(rho)))
        )
    report(10, "embedding preserves photon rho", worst_rho, 1e-12)
    report(10, "embedded C^2 = 2(1 - purity)", worst_bridge, 1e-10)


def test_criterion_11_determinism(tmp_path):
    outputs = []
    for name in ("first.csv", "second.csv"):
        out = tmp_path / name
        proc = subprocess.run(
            [
                sys.executable, "-m", "qtriad.cli", "sample",
                "--ensemble", "haar", "--count", "1000",
                "--seed", "42", "--out", str(out),
            ],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(out.read_bytes())
    identical = outputs[0] == outputs[1]

    # parallel per-index generation, order-preserving assembly
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel_states = list(pool.map(lambda i: haar_state(42, i), range(1000)))
    buf = io.StringIO()
    emit_dataset(parallel_states, "csv", buf)
    parallel_same = buf.getvalue().encode() == outputs[0]

    err = 0.0 if (identical and parallel_same) else 1.0
    report(11, "byte-identical repeat and parallel runs", err, 0.0)
