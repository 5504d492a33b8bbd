"""A mutation matrix: planted faults that the tests must catch.

Each entry of ``MUTANTS`` names a module of ``src/qtriad``, an exact source
text in it, the text that replaces it, the tests that must fail with the
fault in place, and the reason. A source text that is not found exactly once
is an error, checked for every entry before anything runs, so the table
follows refactors of the code it mutates.

The runner first runs every test of the table against a clean copy of
``src``, where all of them must pass. Then, for each mutant, it copies
``src`` to a temporary directory, applies the mutant there and runs its tests
with ``pytest -x`` against the copy. The mutant is caught when a test fails;
it survives when all of them pass, and any other pytest outcome (a
collection error, a test id that is not found) is an error. The run exits
with 0 only when every mutant is caught.

Run it from anywhere, with numpy, pytest and hypothesis installed::

    python tests/mutants.py

Pytest does not collect this file: its name does not match ``test_*.py``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    module: str
    source: str
    replacement: str
    tests: tuple[str, ...]
    reason: str


# Caught by no other test: the faults show only when threads interleave.
_THREADS = "tests/test_states.py::test_memo_gives_each_thread_its_own_states_values"
# States within a few ulps of verify's two thresholds.
_POLE_BAND = "tests/test_verify.py::test_stereo_decides_the_pole_as_the_scalar_route_within_ulps_of_the_threshold"
_POLE_EXACT = "tests/test_verify.py::test_stereo_keeps_a_state_at_exactly_the_threshold_finite"
_GAP_BAND = "tests/test_verify.py::test_unit_q_rows_decide_the_gap_as_the_scalar_route_near_the_tolerance"
_PAIR_RULE_ERRORS = "tests/test_builders.py::test_pair_rules_raise_the_constructors_error"
_BUILDERS = "tests/test_builders.py::test_builders_equal_the_public_constructors_on_edge_states"
_TRUSTED = "tests/test_builders.py::test_every_trusted_builder_rebuilds_the_public_constructors_values"
_SCHMIDT_SVD = "tests/test_classify.py::test_schmidt_matches_the_svd_on_edge_states"
# The normalizing builders' results, which their own norm gate no longer
# checks, against that gate.
_NORMALIZED = "tests/test_builders.py::test_make_state_normalizes_fixed_inputs_onto_the_gate"
_SAMPLED = "tests/test_builders.py::test_per_index_samplers_build_states_the_gate_admits"
_BUILT_DIGEST = "tests/test_golden.py::test_built_states_match_stored_digest"
# state_record's cells against the public scalar API, by repr.
_RECORD_EDGES = "tests/test_dataset.py::test_writer_edge_records_equal_the_public_scalar_api"
_RECORD_API = "tests/test_dataset.py::test_state_record_equals_the_public_scalar_api"
_CORRELATED = (
    "tests/test_builders.py::test_make_correlated_normalizes_fixed_inputs_onto_the_constructors_checks"
)
_HUGE_WEIGHT = "tests/test_builders.py::test_make_correlated_normalizes_a_weight_whose_modulus_overflows"
_HUGE_INPUTS = (
    "tests/test_builders.py::"
    "test_make_correlated_normalizes_fixed_inputs_with_nu_and_chi2_near_the_float_range"
)
# The writer's fallback cells, converted once per distinct bit pattern.
_REPEATED = "tests/test_dataset.py::test_blocks_with_repeated_fallback_cells_equal_the_references"
_ONCE = "tests/test_dataset.py::test_rows_convert_each_distinct_fallback_pattern_once_per_block"

MUTANTS = (
    Mutant(
        "states.py",
        """\
    if entry[0] is not s:
        invariants = _invariants(*s.alpha)
        entry = _memo = (s, invariants, _triad(*invariants), _coords(*invariants))""",
        """\
    if entry[0] != id(s):
        invariants = _invariants(*s.alpha)
        entry = _memo = (id(s), invariants, _triad(*invariants), _coords(*invariants))""",
        ("tests/test_states.py::test_memo_readers_equal_a_fresh_evaluation_on_admitted_states",),
        "the memo keyed by id(s) without holding the state: a new state at a"
        " freed state's address reads the old state's values",
    ),
    Mutant(
        "states.py",
        """\
        invariants = _invariants(*s.alpha)
        entry = _memo = (s, invariants, _triad(*invariants), _coords(*invariants))""",
        """\
        _memo = (s,)
        invariants = _invariants(*s.alpha)
        _memo += (invariants, _triad(*invariants), _coords(*invariants))
        entry = _memo""",
        (_THREADS,),
        "the entry stored in two assignments, the key first: another thread's"
        " key can end up with this thread's values",
    ),
    Mutant(
        "states.py",
        """\
def _recall(s: TwoQubitState, k: int):
    \"\"\"Item k of the memo's entry for s: ``_INVARIANTS``, ``_TRIAD`` or
    ``_COORDS``. When the memo holds another state, one ``_invariants(*s.alpha)``
    call gives the entry's invariants, and their triad and point fill it whole.\"\"\"
    global _memo
    entry = _memo
    if entry[0] is not s:
        invariants = _invariants(*s.alpha)
        entry = _memo = (s, invariants, _triad(*invariants), _coords(*invariants))
    return entry[k]""",
        """\
def _recall(s: TwoQubitState, k: int, entry=[None, None, None, None]):
    if entry[0] is not s:
        entry[0] = s
        entry[1] = invariants = _invariants(*s.alpha)
        entry[2] = _triad(*invariants)
        entry[3] = _coords(*invariants)
    return entry[k]""",
        (_THREADS,),
        "the entry updated in place as a list: a thread can read a key with"
        " values that another thread is still replacing",
    ),
    Mutant(
        "states.py",
        "    if entry[0] is not s:\n",
        "    if True:\n",
        ("tests/test_states.py::test_memo_evaluates_a_state_once_for_every_reader",),
        "no memo at all: each reader evaluates the state's invariants again",
    ),
    Mutant(
        "states.py",
        "        if not abs(n - 1.0) <= NORM_TOL / 8:\n",
        "        if not abs(n - 1.0) <= NORM_TOL:\n",
        (
            "tests/test_states.py::test_scalar_and_row_gates_decide_as_the_norm_rule",
            "tests/test_states.py::test_states_off_the_norm_gate_are_rejected_at_construction",
        ),
        "the scalar gate at NORM_TOL instead of NORM_TOL / 8: it admits states"
        " that the block gate rejects, and |psi|^4 can leave the band",
    ),
    Mutant(
        "states.py",
        "    return type(a0) is type(a1) is type(a2) is type(a3) is complex\n",
        "    return True\n",
        ("tests/test_states.py::test_other_amplitudes_are_stored_as_exact_complex",),
        "_exact true for any 4-tuple: ints, floats and complex subclasses are"
        " stored unconverted",
    ),
    Mutant(
        "states.py",
        """\
        if type(self.mu) is not complex:
            object.__setattr__(self, "mu", complex(self.mu))
""",
        "",
        ("tests/test_states.py::test_correlated_state_stores_exact_parts_as_given_and_converts_others",),
        "CorrelatedState leaving mu unconverted",
    ),
    Mutant(
        "dataset.py",
        """\
    invariants = _invariants(a0, a1, a2, a3)
    t = _triad(*invariants)
    v, d, c = t
    x0, x1, x2, x3, x4 = _coords(*invariants)
""",
        """\
    from .states import _COORDS, _INVARIANTS, _TRIAD, _recall

    invariants = _recall(s, _INVARIANTS)
    t = _recall(s, _TRIAD)
    v, d, c = t
    x0, x1, x2, x3, x4 = _recall(s, _COORDS)
""",
        ("tests/test_dataset.py::test_dataset_path_never_reads_the_memo",),
        "state_record routed through the scalar memo: still one _invariants"
        " call per record, so only a count of _recall calls sees it",
    ),
    Mutant(
        "verify.py",
        "    finite[near] = _each(math.hypot)(*parts) >= INFINITY_THRESHOLD\n",
        "",
        (_POLE_BAND,),
        "the point at infinity decided by |q2|^2 alone, without math.hypot in"
        " the band: rows within a few ulps of the threshold move",
    ),
    Mutant(
        "verify.py",
        "_each(math.hypot)(*parts) >= INFINITY_THRESHOLD",
        "_each(math.hypot)(*parts) > INFINITY_THRESHOLD",
        (_POLE_EXACT, _POLE_BAND),
        "|q2| = INFINITY_THRESHOLD sent to infinity (> for >=); the same change"
        " to n2's test is equivalent, as its equal rows lie in the band",
    ),
    Mutant(
        "verify.py",
        "    redo = finite & (exact | (np.abs(gap - tolerance) <= _BAND * (norm + 1.0)))\n",
        "    redo = finite & (np.abs(gap - tolerance) <= _BAND * (norm + 1.0))\n",
        (_GAP_BAND,),
        "unit_q's exact rows without d <= tolerance: the gap that is the error"
        " comes from sqrt(|Q|^2), not math.hypot",
    ),
    Mutant(
        "verify.py",
        "    redo = finite & (exact | (np.abs(gap - tolerance) <= _BAND * (norm + 1.0)))\n",
        "    redo = finite & exact\n",
        (_GAP_BAND,),
        "unit_q's gap tested against the tolerance by sqrt(|Q|^2) alone,"
        " without math.hypot in the band",
    ),
    Mutant(
        "quaternion.py",
        "        return _result(*_product(self.z1, self.z2, other.z1, other.z2))\n",
        "        return _quaternion(*_product(self.z1, self.z2, other.z1, other.z2))\n",
        (_PAIR_RULE_ERRORS,),
        "the product built without its finiteness test: an overflowed product"
        " is returned with inf or nan parts instead of raising",
    ),
    Mutant(
        "projection.py",
        "    return _spinor(_quaternion(a0, a1), _quaternion(a2, a3))\n",
        "    return _spinor(_quaternion(a0, a2), _quaternion(a1, a3))\n",
        (_BUILDERS,),
        "quaternify's parts exchanged: q1 = a0 + a2*e2 and q2 = a1 + a3*e2, a"
        " spinor of the same norm that the spinor's own check admits",
    ),
    Mutant(
        "classify.py",
        "        t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))\n",
        "        t = -math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))\n",
        (_SCHMIDT_SVD,),
        "the Jacobi rotation's t with the wrong sign: the rotated columns are"
        " not orthogonal, so lambda1 and lambda2 are not the singular values",
    ),
    Mutant(
        "classify.py",
        "    return _schmidt_form(lam1, lam2, basis)\n",
        """\
    from .states import concurrence

    return _schmidt_form(lam1, concurrence(s) / (2.0 * lam1), basis)
""",
        ("tests/test_classify.py::test_schmidt_route_reads_no_invariant",),
        "lambda2 taken from concurrence: the Schmidt bridge C = 2*lambda1*lambda2"
        " then compares the concurrence with itself",
    ),
    Mutant(
        "states.py",
        "        return _built((a0 / n, a1 / n, a2 / n, a3 / n))\n",
        "        return _built((a0, a1, a2, a3))\n",
        (_NORMALIZED, _BUILT_DIGEST),
        "make_state(..., normalize=True) returning the amplitudes undivided",
    ),
    Mutant(
        "states.py",
        "        return _built((a0 / n, a1 / n, a2 / n, a3 / n))\n",
        "        n *= 1 + 1e-9\n        return _built((a0 / n, a1 / n, a2 / n, a3 / n))\n",
        (_NORMALIZED, _BUILT_DIGEST),
        "make_state(..., normalize=True) dividing by n * (1 + 1e-9): |psi| is"
        " 1 - 1e-9, eight times the gate's band off 1",
    ),
    Mutant(
        "sampling.py",
        "    w = k.hypot(*n)\n",
        "    w = k.hypot(*n) * (1 + 1e-9)\n",
        (_SAMPLED, _BUILT_DIGEST),
        "_haar dividing by w * (1 + 1e-9): every sampled state 1e-9 short of"
        " unit norm",
    ),
    Mutant(
        "sampling.py",
        "    return _built(_rotated_schmidt(_SCALARS, lam1, lam2, u, w, u_phase, w_phase))\n",
        "    return _built(_rotated_schmidt(_SCALARS, lam1, lam1, u, w, u_phase, w_phase))\n",
        (_SAMPLED, _BUILT_DIGEST),
        "fixed_concurrence_state taking lambda1 for lambda2: |psi| is"
        " sqrt(2) * lambda1, 1 only at C = 1",
    ),
    Mutant(
        "dataset.py",
        '''"x0": x0, "x1": x1, "x2": x2, "x3": x3, "x4": x4,''',
        '''"x0": x0, "x1": x1, "x2": x2, "x3": x4, "x4": x3,''',
        (_RECORD_EDGES, _RECORD_API),
        "state_record's x3 and x4 cells exchanged in the dict display",
    ),
    Mutant(
        "dataset.py",
        '''"V": v, "D": d, "C": c,''',
        '''"V": d, "D": v, "C": c,''',
        (_RECORD_EDGES, _RECORD_API),
        "state_record's V and D cells exchanged in the dict display",
    ),
    Mutant(
        "dataset.py",
        "math.hypot(x0, x1, x2),  # BallPoint.radius",
        "math.hypot(x0, x1, x3),  # BallPoint.radius",
        (_RECORD_EDGES, _RECORD_API),
        "state_record's radius taken over (x0, x1, x3) instead of (x0, x1, x2)",
    ),
    Mutant(
        "states.py",
        "        c2 = _unit(c2, n2, scale2)\n",
        "        c2 = _unit(c2, n2 * (1 + 1e-9), scale2)\n",
        (_CORRELATED, _BUILT_DIGEST),
        "make_correlated(..., normalize=True) dividing chi2 by n2 * (1 + 1e-9):"
        " |chi2| is 1 - 1e-9, inside CorrelatedState's own band NORM_TOL",
    ),
    Mutant(
        "classify.py",
        "        zeta = (beta - alpha) * scale / (2.0 * g)\n",
        "        zeta = (beta - alpha) / (2.0 * g)\n",
        ("tests/test_classify.py::test_schmidt_keeps_the_bridge_at_a_tiny_cross_term",),
        "schmidt_decompose's zeta without gamma's scale: below |gamma| = 2**-600"
        " the rotation turns columns that are already nearly orthogonal",
    ),
    Mutant(
        "dataset.py",
        "        keys = values.view(np.int64).tolist()\n",
        "        keys = values.tolist()\n",
        (_REPEATED, _ONCE),
        "the fallback texts keyed by the float value: 0.0 and -0.0 share one"
        " key, and so one text",
    ),
    Mutant(
        "dataset.py",
        "        fallback = [*map(texts.__getitem__, keys)]\n",
        "        fallback = [t for k, t in texts.items() for _ in range(keys.count(k))]\n",
        (_REPEATED,),
        "the fallback texts given out in the order of the distinct patterns,"
        " each repeated as often as it occurs, instead of in cell order",
    ),
    Mutant(
        "states.py",
        """\
        try:
            w = math.hypot(abs(fm), abs(fn))
        except OverflowError:  # |fm| or |fn| of finite parts overflowed
            w = math.inf
""",
        "        w = math.hypot(abs(fm), abs(fn))\n",
        (_HUGE_WEIGHT, _HUGE_INPUTS),
        "make_correlated(..., normalize=True) taking |fm| and |fn| unguarded:"
        " a finite weight whose modulus is above the float range raises"
        " OverflowError",
    ),
    Mutant(
        "quaternion.py",
        """\
        def build(v0, v1):
            obj = new(cls)
            s0(obj, v0)
            s1(obj, v1)
""",
        """\
        def build(v0, v1):
            obj = new(cls)
            s0(obj, v0)
            s1(obj, v0)
""",
        (_TRUSTED, _BUILDERS),
        "_trusted's two-field builder storing its first value in both slots:"
        " every Quaternion and QuaternionSpinor the library builds repeats its"
        " first part",
    ),
    Mutant(
        "quaternion.py",
        "            s2(obj, v2)\n            s3(obj, v3)\n",
        "            s2(obj, v3)\n            s3(obj, v2)\n",
        (_TRUSTED, _BUILT_DIGEST),
        "_trusted's four-field builder storing its last two values swapped:"
        " make_correlated(..., normalize=True) returns chi1 and chi2 exchanged",
    ),
    Mutant(
        "quaternion.py",
        "        if type(z1) is not complex:\n",
        "        if not isinstance(z1, complex):\n",
        ("tests/test_quaternion.py::test_parts_are_stored_as_exact_complex",),
        "Quaternion's exact type test as isinstance: a complex subclass or a"
        " numpy complex128 part is stored unconverted",
    ),
)


def mutate(text: str, mutant: Mutant) -> str:
    """text with the mutant applied; its source must occur exactly once."""
    found = text.count(mutant.source)
    if found != 1:
        raise ValueError(
            f"{mutant.module}: the source text is found {found} times, not once:\n"
            f"{mutant.source}"
        )
    return text.replace(mutant.source, mutant.replacement)


def run(tests: tuple[str, ...], src: Path, mutant: Mutant | None = None) -> subprocess.CompletedProcess:
    """Run tests with ``-x`` against a fresh copy of ``src`` at src, with the
    mutant, if any, applied to the copy."""
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    if mutant is not None:
        path = src / "qtriad" / mutant.module
        path.write_text(mutate(path.read_text(encoding="utf-8"), mutant), encoding="utf-8")
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)


def main() -> int:
    for mutant in MUTANTS:
        mutate((ROOT / "src" / "qtriad" / mutant.module).read_text(encoding="utf-8"), mutant)
    failures = 0
    with tempfile.TemporaryDirectory(prefix="qtriad-mutants-") as tmp:
        src = Path(tmp) / "src"
        # A test that fails without any mutant would catch every mutant.
        tests = tuple(dict.fromkeys(test for mutant in MUTANTS for test in mutant.tests))
        clean = run(tests, src)
        if clean.returncode != 0:
            print(clean.stdout[-2000:], clean.stderr[-2000:], sep="\n")
            print("the matrix's tests do not pass without a mutant")
            return 1
        for mutant in MUTANTS:
            start = time.perf_counter()
            result = run(mutant.tests, src, mutant)
            verdict = {1: "caught", 0: "SURVIVED"}.get(result.returncode, "ERROR")
            seconds = time.perf_counter() - start
            print(f"{verdict:8} {seconds:5.1f} s  {mutant.module}: {mutant.reason}", flush=True)
            if result.returncode != 1:
                failures += 1
                print(result.stdout[-2000:], result.stderr[-2000:], sep="\n")
    print(f"{len(MUTANTS) - failures} of {len(MUTANTS)} mutants caught")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
