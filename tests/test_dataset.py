import io
import json
import math

import numpy as np
import pytest

from qtriad import classify as classify_module
from qtriad import dataset as dataset_module
from qtriad import projection as projection_module
from qtriad.dataset import DATASET_COLUMNS, emit_dataset, state_record
from qtriad.sampling import (
    FIXED_CONCURRENCE,
    SampleSpec,
    haar_state,
    sample_fixed_concurrence,
)
from qtriad.states import make_state

BELL = make_state((1, 0, 0, 1), normalize=True)

HEADER = ",".join(DATASET_COLUMNS)


def emit_to_string(states, fmt="csv"):
    buf = io.StringIO()
    emit_dataset(states, fmt, buf)
    return buf.getvalue()


def test_empty_sequence_is_header_only():
    assert emit_to_string([]) == HEADER + "\n"
    assert json.loads(emit_to_string([], "json")) == []


def test_bell_row_values():
    text = emit_to_string([BELL])
    lines = text.splitlines()
    assert lines[0] == HEADER
    fields = dict(zip(DATASET_COLUMNS, lines[1].split(",")))
    assert float(fields["V"]) == 0.0
    assert float(fields["D"]) == 0.0
    assert abs(float(fields["C"]) - 1.0) < 1e-14
    assert abs(float(fields["x3"]) + 1.0) < 1e-14
    assert float(fields["radius"]) == 0.0
    assert fields["labels"] == (
        "MaximallyEntangled;WaveLess;ParticleLess;OnX0Axis;OnGreatDisc"
    )


def test_shell_batches_have_constant_radius_columns():
    levels = {0.0: 1.0, 0.6: 0.8, 1.0: 0.0}
    for c, radius in levels.items():
        states = sample_fixed_concurrence(SampleSpec(50, 3, FIXED_CONCURRENCE, c))
        text = emit_to_string(states)
        for line in text.splitlines()[1:]:
            fields = dict(zip(DATASET_COLUMNS, line.split(",")))
            assert abs(float(fields["radius"]) - radius) < 1e-10


def test_emission_is_byte_deterministic():
    states = sample_fixed_concurrence(SampleSpec(100, 77, FIXED_CONCURRENCE, 0.3))
    assert emit_to_string(states) == emit_to_string(states)
    assert emit_to_string(states, "json") == emit_to_string(states, "json")


def test_floats_round_trip_losslessly():
    rng = np.random.default_rng(55)
    for _ in range(50):
        v = rng.normal(size=8)
        s = make_state([complex(v[2 * k], v[2 * k + 1]) for k in range(4)], normalize=True)
        text = emit_to_string([s])
        fields = dict(zip(DATASET_COLUMNS, text.splitlines()[1].split(",")))
        for k, a in enumerate(s.alpha):
            assert float(fields[f"alpha{k}_re"]) == a.real
            assert float(fields[f"alpha{k}_im"]) == a.imag


def test_json_records_match_columns():
    records = json.loads(emit_to_string([BELL], "json"))
    assert len(records) == 1
    assert list(records[0].keys()) == list(DATASET_COLUMNS)
    assert isinstance(records[0]["labels"], list)
    assert records[0]["labels"][0] == "MaximallyEntangled"


def test_json_stream_matches_json_dump():
    states = [BELL, make_state((1, 0, 0, 0)), *(haar_state(42, i) for i in range(3))]
    assert any(not state_record(s)["labels"] for s in states)
    for n in (0, 1, len(states)):
        records = [state_record(s) for s in states[:n]]
        expected = json.dumps(records, indent=1) + "\n"
        assert emit_to_string(states[:n], "json") == expected


def test_state_record_analyses_the_state_once(monkeypatch):
    calls = []

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapped

    for module in (dataset_module, projection_module, classify_module):
        for name in ("triad", "coords_from_state"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    state_record(haar_state(42, 0))
    assert sorted(calls) == ["coords_from_state", "triad"]


def test_state_record_consistency():
    s = make_state((0.6, 0, 0, 0.8))
    rec = state_record(s)
    assert abs(rec["C"] - 0.96) < 1e-14
    assert abs(rec["radius"] - 0.28) < 1e-14
    assert abs(rec["x0"] + 0.28) < 1e-14
    v, d, c = rec["V"], rec["D"], rec["C"]
    assert abs(v * v + d * d + c * c - 1.0) < 1e-14
    assert math.isclose(rec["radius"] ** 2, 1 - c * c, abs_tol=1e-10)


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        emit_to_string([BELL], "xml")
