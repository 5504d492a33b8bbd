"""Self-test of the benchmark's reference and output checks.

Each checker must accept a real qtriad output and reject a corrupted copy.
Run from the repository root:

    python3 -m pytest -q benchmark/test_checks.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import reference as ref  # noqa: E402
import workloads as wl  # noqa: E402
from qtriad import cli  # noqa: E402

SEED = 7
COUNT = 300
LEVELS = (0.0, 0.5, 1.0)
PER_LEVEL = 60


def _run_cli(*argv) -> str:
    """Run qtriad's CLI in-process and return what it printed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main([str(a) for a in argv]) == 0
    return buf.getvalue()


@pytest.fixture(scope="module")
def csv_text(tmp_path_factory):
    out = tmp_path_factory.mktemp("csv") / "haar.csv"
    _run_cli("sample", "--ensemble", "haar", "--count", COUNT, "--seed", SEED,
             "--format", "csv", "--out", out)
    return out.read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def shells_text(tmp_path_factory):
    out = tmp_path_factory.mktemp("shells") / "shells.json"
    _run_cli("shells", "--levels", ",".join(map(repr, LEVELS)), "--count-per-level",
             PER_LEVEL, "--seed", SEED, "--format", "json", "--out", out)
    return out.read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def verify_text():
    return _run_cli("verify", "--count", COUNT, "--seed", SEED, "--format", "json")


def test_stream_matches_numpy_philox():
    idx = np.array([0, 1, 5, 2**40 + 3])
    ours = ref.Stream(SEED).uniforms(idx, 1, 5)
    for row, i in zip(ours, idx):
        gen = np.random.Generator(np.random.Philox(key=SEED, counter=int(i) << 128))
        assert np.array_equal(row, gen.random(20))


def test_sample_csv_accepted(csv_text):
    assert checks.check_sample_csv(csv_text, SEED, COUNT) == []


def test_changed_digit_in_v_cell_rejected(csv_text):
    lines = csv_text.splitlines()
    cells = lines[5].split(",")
    v = ref.COLUMNS.index("V")
    digit = cells[v][3]
    cells[v] = cells[v][:3] + ("1" if digit != "1" else "2") + cells[v][4:]
    lines[5] = ",".join(cells)
    errors = checks.check_sample_csv("\n".join(lines) + "\n", SEED, COUNT)
    assert any("row 4 V=" in e for e in errors), errors


def test_swapped_rows_rejected(csv_text):
    lines = csv_text.splitlines()
    lines[3], lines[4] = lines[4], lines[3]
    errors = checks.check_sample_csv("\n".join(lines) + "\n", SEED, COUNT)
    assert any("row 2 amplitudes" in e for e in errors), errors


def test_shells_json_accepted(shells_text):
    assert checks.check_shells_json(shells_text, SEED, LEVELS, PER_LEVEL) == []


def test_wrong_label_rejected(shells_text):
    records = json.loads(shells_text)
    records[PER_LEVEL + 3]["labels"] = ["Separable"]  # a C = 0.5 row
    errors = checks.check_shells_json(json.dumps(records), SEED, LEVELS, PER_LEVEL)
    assert any("row 3 labels" in e for e in errors), errors


def test_missing_shell_label_rejected(shells_text):
    records = json.loads(shells_text)
    records[-1]["labels"].remove("MaximallyEntangled")
    errors = checks.check_shells_json(json.dumps(records), SEED, LEVELS, PER_LEVEL)
    assert any("MaximallyEntangled" in e for e in errors), errors


def test_verify_report_accepted(verify_text):
    assert checks.check_verify_report(verify_text, SEED, COUNT) == []


def test_failed_check_rejected(verify_text):
    report = json.loads(verify_text)
    report["checks"][5]["passed"] = False
    errors = checks.check_verify_report(json.dumps(report), SEED, COUNT)
    assert any("fringe_visibility is marked failed" in e for e in errors), errors


def test_short_verify_sample_rejected(verify_text):
    report = json.loads(verify_text)
    report["checks"][1]["samples"] -= 1
    errors = checks.check_verify_report(json.dumps(report), SEED, COUNT)
    assert any("s4_dual_route" in e for e in errors), errors


@pytest.fixture(scope="module")
def scalar():
    import qtriad
    import worker

    inputs = wl.scalar_round(SEED, 0)
    res, results = worker.scalar_pass(qtriad, [inputs])
    return inputs, res, json.loads(json.dumps(worker.scalar_rows(qtriad, results)))


def test_scalar_accepted(scalar):
    inputs, res, rows = scalar
    assert res["failed"] == dict(wl.SCALAR_MIX)["extreme"]
    assert checks.check_scalar(rows, inputs) == []


def test_scalar_wrong_schmidt_rejected(scalar):
    inputs, _, rows = scalar
    rows = json.loads(json.dumps(rows))
    k = next(n for n, r in enumerate(rows) if len(r) > 2)
    rows[k][8][1] *= 1.001
    errors = checks.check_scalar(rows, inputs)
    assert any("Schmidt" in e for e in errors), errors


def test_scalar_unexpected_failure_rejected(scalar):
    inputs, _, rows = scalar
    rows = json.loads(json.dumps(rows))
    rows[0] = [rows[0][0], "planted failure"]
    errors = checks.check_scalar(rows, inputs)
    assert any("op 0 (generic) failed" in e for e in errors), errors


def test_tracer_charges_self_time_and_restores():
    import qtriad
    from tracing import Tracer

    original = qtriad.projection.coords_from_state
    tracer = Tracer()
    tracer.begin_pass(0, wl.SCALAR_API)
    tracer.install()
    try:
        qtriad.ball_point(qtriad.make_state((1, 0, 0, 1), normalize=True))
    finally:
        tracer.uninstall()
    assert qtriad.projection.coords_from_state is original
    spans = {tracer.names[s[1]]: s for s in tracer.spans}
    outer, inner = spans["projection.ball_point"], spans["projection.coords_from_state"]
    assert inner[0] == tracer.spans.index(outer)  # ball_point called coords_from_state
    assert outer[5] == (outer[4] - outer[3]) - (inner[4] - inner[3])
    assert tracer.layer_metrics()["projection.ball_point_us"] == outer[5] / 1000.0
