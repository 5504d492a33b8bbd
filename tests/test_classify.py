import importlib
import math
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edge_states import SMALL_GAMMA_STATES, edge_states, qubit, route_edge_states, unitary
from qtriad import states as states_module
from qtriad.classify import (
    DEFAULT_CLASSIFY_TOL,
    SchmidtForm,
    StratumLabel,
    _strata,
    classify,
    schmidt_decompose,
    shell_radius,
)
from qtriad.projection import ball_point, quaternify, stereo_project
from qtriad.quaternion import is_infinite
from qtriad.sampling import HAAR, SampleSpec, sample_haar
from qtriad.states import (
    TwoQubitState,
    concurrence,
    make_state,
    purity,
    reduced_density_photon,
    triad,
    visibility,
)

RNG = np.random.default_rng(404)

BELL = make_state((1, 0, 0, 1), normalize=True)


def random_state():
    v = RNG.normal(size=8)
    return make_state(
        [complex(v[2 * k], v[2 * k + 1]) for k in range(4)], normalize=True
    )


# ------------------------------------------------------------------- classify

def test_classify_bell():
    assert classify(BELL) == {
        StratumLabel.MAXIMALLY_ENTANGLED,
        StratumLabel.WAVE_LESS,
        StratumLabel.PARTICLE_LESS,
        StratumLabel.ON_X0_AXIS,
        StratumLabel.ON_GREAT_DISC,
    }


def test_classify_equal_superposition():
    s = make_state((1, 0, 1, 0), normalize=True)
    assert classify(s) == {
        StratumLabel.SEPARABLE,
        StratumLabel.WAVE_ONLY,
        StratumLabel.PARTICLE_LESS,
        StratumLabel.ON_GREAT_DISC,
    }


def test_classify_partially_entangled_diagonal():
    s = make_state((0.6, 0, 0, 0.8))
    assert classify(s) == {StratumLabel.WAVE_LESS, StratumLabel.ON_X0_AXIS}


def test_classify_basis_state():
    s = make_state((1, 0, 0, 0))
    assert classify(s) == {
        StratumLabel.SEPARABLE,
        StratumLabel.PARTICLE_ONLY,
        StratumLabel.WAVE_LESS,
        StratumLabel.ON_X0_AXIS,
    }


def _wave_only_state():
    # equatorial path qubit times a random partner state: V = 1 exactly
    v = RNG.normal(size=4)
    a, b = complex(v[0], v[1]), complex(v[2], v[3])
    n = math.hypot(abs(a), abs(b))
    a, b = a / n, b / n
    delta = RNG.uniform(0, 2 * math.pi)
    phase = complex(math.cos(delta), math.sin(delta))
    r = 1 / math.sqrt(2)
    return TwoQubitState((r * a, r * b, r * phase * a, r * phase * b))


def test_stratum_implications_on_constructed_members():
    for _ in range(100):
        labels = classify(_wave_only_state())
        assert StratumLabel.WAVE_ONLY in labels
        assert StratumLabel.SEPARABLE in labels
        assert StratumLabel.PARTICLE_LESS in labels

    for _ in range(100):
        v = RNG.normal(size=4)
        a, b = complex(v[0], v[1]), complex(v[2], v[3])
        n = math.hypot(abs(a), abs(b))
        s = TwoQubitState((a / n, b / n, 0j, 0j))  # particle-only member
        labels = classify(s)
        assert StratumLabel.PARTICLE_ONLY in labels
        assert StratumLabel.SEPARABLE in labels
        assert StratumLabel.WAVE_LESS in labels

    for _ in range(100):
        s = _random_maximally_entangled()
        labels = classify(s)
        assert StratumLabel.MAXIMALLY_ENTANGLED in labels
        assert StratumLabel.WAVE_LESS in labels
        assert StratumLabel.PARTICLE_LESS in labels


def _random_qubit_unitary():
    z = RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_maximally_entangled():
    psi = np.array([1, 0, 0, 1], dtype=complex).reshape(2, 2) / math.sqrt(2)
    psi = _random_qubit_unitary() @ psi @ _random_qubit_unitary().T
    return TwoQubitState(tuple(psi.reshape(4)))


def test_classify_agrees_with_projection_geometry():
    tol = DEFAULT_CLASSIFY_TOL
    for _ in range(300):
        s = random_state()
        labels = classify(s)
        q = stereo_project(quaternify(s))
        if StratumLabel.PARTICLE_LESS in labels:
            assert not is_infinite(q)
            assert abs(q.norm() - 1.0) <= 10 * tol
        if StratumLabel.PARTICLE_ONLY in labels:
            assert is_infinite(q) or q.norm() <= 10 * tol
        if StratumLabel.ON_GREAT_DISC in labels:
            assert abs(ball_point(s).x0) <= tol
    # particle-only members hit Q in {0, inf}
    assert is_infinite(stereo_project(quaternify(make_state((1, 0, 0, 0)))))
    q = stereo_project(quaternify(make_state((0, 0, 1, 0))))
    assert q.norm() == 0.0


@settings(database=None, derandomize=True, max_examples=1000, deadline=None)
@given(edge_states())
def test_classify_is_the_set_of_strata_on_edge_states(s):
    labels = classify(s)
    assert type(labels) is frozenset
    assert labels == frozenset(_strata(triad(s)))
    assert classify(s) is labels


def test_classify_shares_one_set_per_label_combination():
    states = list(sample_haar(SampleSpec(20000, 42, HAAR)))
    states += [BELL, _random_maximally_entangled(), make_state((1, 0, 0, 0))]
    states += [make_state((0, 0, 0.6, 0.8j)), make_state((1, 0, 1, 0), normalize=True)]
    results = [classify(s) for s in states]
    for s, labels in zip(states, results):
        assert type(labels) is frozenset
        assert labels == frozenset(_strata(triad(s)))
    # Equal results are one object: as many objects as distinct values.
    assert len({id(labels) for labels in results}) == len(set(results)) > 1
    assert classify(BELL) is classify(_random_maximally_entangled())


def test_classify_results_hold_no_set_each():
    states = list(sample_haar(SampleSpec(10000, 7, HAAR)))
    classify(states[0])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        results = [classify(s) for s in states]
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(results) == 10000
    # A frozenset of up to five labels takes 224 bytes; the list of results
    # itself takes 8 bytes a result.
    assert held < 10000 * 224 / 10, held


# ------------------------------------------------------------------- schmidt

def test_schmidt_bell_is_degenerate_with_canonical_basis():
    form = schmidt_decompose(BELL)
    r = 1 / math.sqrt(2)
    assert abs(form.lambda1 - r) < 1e-15
    assert abs(form.lambda2 - r) < 1e-15
    assert form.basis2 == ((1 + 0j, 0j), (0j, 1 + 0j))


def test_schmidt_product_state():
    form = schmidt_decompose(make_state((1, 0, 0, 0)))
    assert abs(form.lambda1 - 1.0) < 1e-15
    assert form.lambda2 < 1e-15


def test_schmidt_worked_diagonal():
    form = schmidt_decompose(make_state((0.6, 0, 0, 0.8)))
    assert abs(form.lambda1 - 0.8) < 1e-15
    assert abs(form.lambda2 - 0.6) < 1e-15
    assert abs(2 * form.lambda1 * form.lambda2 - 0.96) < 1e-15


def test_schmidt_concurrence_bridge():
    for _ in range(500):
        s = random_state()
        form = schmidt_decompose(s)
        assert abs(concurrence(s) - 2 * form.lambda1 * form.lambda2) <= 1e-12


def test_schmidt_reconstructs_state():
    for _ in range(300):
        s = random_state()
        form = schmidt_decompose(s)
        m = np.array(s.alpha).reshape(2, 2)
        rebuilt = np.zeros((2, 2), dtype=complex)
        for lam, w in zip((form.lambda1, form.lambda2), form.basis2):
            wv = np.array(w)
            if lam < 1e-14:
                continue
            u = m @ wv.conj() / lam
            rebuilt += lam * np.outer(u, wv)
        assert np.max(np.abs(rebuilt - m)) < 1e-12


def test_schmidt_basis_phase_convention():
    for _ in range(200):
        form = schmidt_decompose(random_state())
        for w in form.basis2:
            lead = w[0] if abs(w[0]) > 1e-12 else w[1]
            assert abs(lead.imag) < 1e-12
            assert lead.real > 0


def test_schmidt_zero_coherence_states_match_branch_weights():
    for _ in range(200):
        # rows of the amplitude matrix made orthogonal: zero coherence
        v = RNG.normal(size=8)
        row0 = np.array([complex(v[0], v[1]), complex(v[2], v[3])])
        row1 = np.array([complex(v[4], v[5]), complex(v[6], v[7])])
        row1 -= (np.vdot(row0, row1) / np.vdot(row0, row0)) * row0
        amps = np.concatenate([row0, row1])
        s = make_state(tuple(amps), normalize=True)
        assert visibility(s) <= 1e-12
        a0, a1, a2, a3 = s.alpha
        weights = sorted(
            (
                math.sqrt(abs(a0) ** 2 + abs(a1) ** 2),
                math.sqrt(abs(a2) ** 2 + abs(a3) ** 2),
            ),
            reverse=True,
        )
        form = schmidt_decompose(s)
        assert abs(form.lambda1 - weights[0]) < 1e-12
        assert abs(form.lambda2 - weights[1]) < 1e-12


@st.composite
def near_degenerate_states(draw):
    """(U x W)(lambda1 |00> + lambda2 |11>) with lambda1 - lambda2 drawn at
    and on either side of the degenerate tolerance 1e-12."""
    gap = draw(st.sampled_from([0.0, 1e-13, 5e-13, 9e-13, 1.1e-12, 2e-12, 1e-11]))
    root = math.sqrt(2.0 - gap * gap)
    lam = ((root + gap) / 2, (root - gap) / 2)
    uu, ww = unitary(draw(qubit())), unitary(draw(qubit()))
    amps = [sum(uu[i][k] * lam[k] * ww[j][k] for k in (0, 1)) for i in (0, 1) for j in (0, 1)]
    return make_state(amps, normalize=True)


_PRODUCT_STATES = st.builds(
    lambda u, w: make_state([u[0] * w[0], u[0] * w[1], u[1] * w[0], u[1] * w[1]]),
    qubit(),
    qubit(),
)


def _assert_schmidt_matches_the_svd(s):
    # np.linalg.svd is the reference: M = U diag(sigma) Vh, rows of Vh
    # matching the rows of basis2.
    form = schmidt_decompose(s)
    m = np.array(s.alpha).reshape(2, 2)
    _, sigma, vh = np.linalg.svd(m)
    lam = (form.lambda1, form.lambda2)
    assert np.abs(np.array(lam) - sigma).max() <= 2e-15
    if form.lambda1 - form.lambda2 <= 1e-12:
        assert form.basis2 == ((1 + 0j, 0j), (0j, 1 + 0j))
    else:
        # Each rotated column M*conj(v_k), made unit, rebuilds M with the
        # lambdas: the basis and the coefficients belong together.
        rebuilt = np.zeros((2, 2), dtype=complex)
        for lam_k, w in zip(lam, form.basis2):
            col = m @ np.conj(w)
            n = np.linalg.norm(col)
            if n:
                rebuilt += lam_k * np.outer(col / n, w)
        assert np.abs(rebuilt - m).max() <= 2e-15
    if sigma[0] - sigma[1] > 1e-6:
        # Up to a phase: a leading component near 1e-9 turns the row by an
        # ill-conditioned phase.
        for w, v in zip(form.basis2, vh):
            assert 1.0 - abs(np.vdot(w, v)) <= 2e-15
    return form


@settings(database=None, derandomize=True, max_examples=1500, deadline=None)
@given(st.one_of(edge_states(), route_edge_states(), near_degenerate_states()))
def test_schmidt_matches_the_svd_on_edge_states(s):
    _assert_schmidt_matches_the_svd(s)


@pytest.mark.parametrize("s", SMALL_GAMMA_STATES, ids=range(len(SMALL_GAMMA_STATES)))
def test_schmidt_keeps_the_bridge_at_a_tiny_cross_term(s):
    # A subnormal gamma made J non-unitary: the weights' square sum left the
    # band, or 2*lambda1*lambda2 missed C by 2.3e-14.
    form = _assert_schmidt_matches_the_svd(s)
    assert abs(2 * form.lambda1 * form.lambda2 - concurrence(s)) <= 4 * 2.0**-52


@settings(database=None, derandomize=True, max_examples=500, deadline=None)
@given(_PRODUCT_STATES)
def test_schmidt_lambda2_of_product_states_is_at_most_1e_15(s):
    assert _assert_schmidt_matches_the_svd(s).lambda2 <= 1e-15


@pytest.mark.parametrize(
    ("amps", "lam", "basis"),
    [
        # orthogonal columns, the second one longer: values and rows swap
        ((0.6, 0, 0, 0.8), (0.8, 0.6), ((0j, 1 + 0j), (1 + 0j, 0j))),
        ((0, 0.8j, -0.6, 0), (0.8, 0.6), ((0j, 1 + 0j), (1 + 0j, 0j))),
        # the first one longer: no swap
        ((0.8, 0, 0, 0.6j), (0.8, 0.6), ((1 + 0j, 0j), (0j, 1 + 0j))),
        # equal lengths: degenerate, canonical basis
        ((1, 0, 0, 1), (1 / math.sqrt(2),) * 2, ((1 + 0j, 0j), (0j, 1 + 0j))),
        ((0, 1, -1j, 0), (1 / math.sqrt(2),) * 2, ((1 + 0j, 0j), (0j, 1 + 0j))),
    ],
)
def test_schmidt_of_orthogonal_columns_needs_no_rotation(amps, lam, basis):
    form = schmidt_decompose(make_state(amps, normalize=True))
    assert (form.lambda1, form.lambda2) == lam
    assert form.basis2 == basis


def test_schmidt_route_reads_no_invariant(monkeypatch):
    # With a wrong determinant planted in the one source of the invariants,
    # the concurrence breaks and the Schmidt coefficients do not move.
    states = sample_haar(SampleSpec(200, 5, HAAR))
    # repr keeps every bit of each field.
    forms = [repr(schmidt_decompose(s)) for s in states]
    invariants = states_module._invariants

    def planted(a0, a1, a2, a3):
        p0, p1, coherence, _ = invariants(a0, a1, a2, a3)
        return p0, p1, coherence, a1 * a2 + a0 * a3

    monkeypatch.setattr(states_module, "_invariants", planted)
    patched = [schmidt_decompose(s) for s in states]
    gap = max(abs(concurrence(s) - 2 * f.lambda1 * f.lambda2) for s, f in zip(states, patched))
    assert gap > 1e-3
    assert list(map(repr, patched)) == forms


def test_classify_imports_no_numpy():
    # The package's name ``classify`` is the function; the module is imported
    # by its full name.
    for v in vars(importlib.import_module("qtriad.classify")).values():
        origin = v.__name__ if isinstance(v, types.ModuleType) else getattr(v, "__module__", "")
        assert not str(origin).startswith("numpy"), v


def test_schmidt_form_validation():
    with pytest.raises(ValueError):
        SchmidtForm(0.6, 0.8, ((1 + 0j, 0j), (0j, 1 + 0j)))
    with pytest.raises(ValueError):
        SchmidtForm(1.0, 0.5, ((1 + 0j, 0j), (0j, 1 + 0j)))
    with pytest.raises(ValueError):
        SchmidtForm(0.8, 0.6, ((1 + 0j, 0j), (1 + 0j, 0j)))


@pytest.mark.parametrize(
    "lambda1, message",
    [
        # 1e154 squares to a finite 1e308; 1e200 overflows, as inf does.
        (1e154, "Schmidt coefficients must have unit square sum"),
        (1e200, "Schmidt coefficients must have unit square sum"),
        (math.inf, "Schmidt coefficients must have unit square sum"),
        (math.nan, "Schmidt coefficients must satisfy lambda1 >= lambda2 >= 0"),
    ],
)
def test_schmidt_form_rejects_huge_and_non_finite_weights_with_value_error(lambda1, message):
    with pytest.raises(ValueError) as info:
        SchmidtForm(lambda1, 0.0, ((1 + 0j, 0j), (0j, 1 + 0j)))
    assert type(info.value) is ValueError
    assert str(info.value) == message


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("row, col", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_schmidt_form_rejects_non_finite_basis_entries(row, col, bad):
    # A NaN Gram term compares false with every bound, and ``max`` keeps or
    # drops it by position: each term must pass ``<= NORM_TOL`` on its own.
    basis = [[1 + 0j, 0j], [0j, 1 + 0j]]
    basis[row][col] = complex(bad)
    with pytest.raises(ValueError, match="^basis2 must be orthonormal$"):
        SchmidtForm(1.0, 0.0, tuple(map(tuple, basis)))


# ------------------------------------------------------------------- bridges

def test_entanglement_purity_bridge():
    for _ in range(500):
        s = random_state()
        c = concurrence(s)
        p = purity(reduced_density_photon(s))
        assert abs(c * c - 2.0 * (1.0 - p)) <= 1e-10


def test_shell_membership_at_fixed_concurrence():
    for c_target in (0.0, 0.3, 0.6, 0.9, 1.0):
        root = math.sqrt(1 - c_target * c_target)
        lam1 = math.sqrt((1 + root) / 2)
        lam2 = math.sqrt((1 - root) / 2)
        base = np.diag([lam1, lam2]).astype(complex)
        for _ in range(50):
            psi = _random_qubit_unitary() @ base @ _random_qubit_unitary().T
            s = TwoQubitState(tuple(psi.reshape(4)))
            assert abs(ball_point(s).radius - root) <= 1e-10


# --------------------------------------------------------------- shell radius

def test_shell_radius_values():
    assert shell_radius(0.0) == 1.0
    assert shell_radius(1.0) == 0.0
    assert abs(shell_radius(0.96) - 0.28) < 1e-15


def test_shell_radius_domain():
    with pytest.raises(ValueError):
        shell_radius(-0.1)
    with pytest.raises(ValueError):
        shell_radius(1.1)
    # slack band is accepted and clamped
    assert shell_radius(1.0 + 1e-13) == 0.0
    assert shell_radius(-1e-13) == 1.0
