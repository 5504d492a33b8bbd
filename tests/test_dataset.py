import importlib
import io
import json
import math
import struct
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edge_states import SMALL_GAMMA_STATES, edge_states
from qtriad import dataset as dataset_module
from qtriad import projection as projection_module
from qtriad import states as states_module
from qtriad.classify import StratumLabel, classify
from qtriad.cli import main
from qtriad.dataset import DATASET_COLUMNS, emit_dataset, state_record
from qtriad.sampling import (
    FIXED_CONCURRENCE,
    HAAR,
    SampleSpec,
    haar_state,
    sample,
    sample_fixed_concurrence,
)
from qtriad.projection import ball_point, coords_from_state
from qtriad.states import BlochAngles, bloch_state, make_state, triad

# The package exports the function ``classify`` under the module's name.
classify_module = importlib.import_module("qtriad.classify")

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

    s = haar_state(42, 0)
    # One _invariants call gives the triad, the coordinates and the radius;
    # the public functions that would each repeat it are not called.
    for module in (dataset_module, projection_module, states_module, classify_module):
        for name in ("_invariants", "triad", "coords_from_state"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    state_record(s)
    assert calls == ["_invariants"]


def test_dataset_path_never_reads_the_memo(monkeypatch, tmp_path):
    # state_record calls _invariants directly. A record routed through the
    # scalar memo would still analyse each state once, so only a count of
    # _recall calls tells the two routes apart.
    calls = []
    recall = states_module._recall

    def counted(s, k):
        calls.append(k)
        return recall(s, k)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("qtriad") and getattr(module, "_recall", None) is recall:
            monkeypatch.setattr(module, "_recall", counted)
    triad(BELL)
    coords_from_state(BELL)
    assert len(calls) == 2, "the counter must see the memo's readers"
    calls.clear()
    # More than one block of 256 records per format.
    for fmt in ("csv", "json"):
        emit_to_string(sample(SampleSpec(300, 5, HAAR)), fmt)
    out = tmp_path / "shells.json"
    args = ["--levels", "0,0.5,1", "--count-per-level", "100", "--seed", "4"]
    assert main(["shells", *args, "--format", "json", "--out", str(out)]) == 0
    assert calls == []


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
    drawn = []

    def states():
        drawn.append(BELL)
        yield BELL

    buf = io.StringIO()
    with pytest.raises(ValueError):
        emit_dataset(states(), "xml", buf)
    assert (buf.getvalue(), drawn) == ("", [])


_GENERIC_STATES = st.builds(
    lambda v: make_state([complex(v[k], v[k + 1]) for k in range(0, 8, 2)], normalize=True),
    st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8).filter(any),
)


@settings(database=None, derandomize=True, max_examples=300)
@given(st.one_of(edge_states(), _GENERIC_STATES))
def test_record_labels_follow_stratum_definition_order(s):
    chosen = classify(s)
    assert state_record(s)["labels"] == [m.value for m in StratumLabel if m in chosen]


# Writer edge cases: signed zeros, subnormal parts beside O(1) ones, and one
# state per label count from 0 to 5 (MaximallyEntangled, WaveLess and
# OnX0Axis alone need C within 1e-9 of 1 with D = 3e-5).
_SCHMIDT_D = 3e-5
_WRITER_EDGES = (
    make_state((1, 5e-324j, 0, 0)),
    make_state((complex(-0.0, -0.0), complex(-0.0, 1.0), complex(0.0, -0.0), -0.0)),
    make_state((1, 1j, 1, -1j), normalize=True),
    haar_state(42, 0),
    make_state((0.6, 0, 0.8, 0)),
    make_state((0.6, 0, 0, 0.8)),
    make_state((math.sqrt((1 + _SCHMIDT_D) / 2), 0, 0, math.sqrt((1 - _SCHMIDT_D) / 2))),
    make_state((1, 0, 0, 0)),
    make_state((0, 0, 0, 1)),
    make_state((1, 1, 1, 1), normalize=True),
    BELL,
)


def test_writer_edges_hold_every_label_count():
    assert {len(state_record(s)["labels"]) for s in _WRITER_EDGES} == set(range(6))


def _assert_record_is_the_scalar_api(s):
    record = state_record(s)
    assert list(record) == list(DATASET_COLUMNS)
    *cells, labels = record.values()
    parts = [p for z in s.alpha for p in (z.real, z.imag)]
    expected = [*parts, *triad(s), *coords_from_state(s), ball_point(s).radius]
    # repr keeps every bit and tells -0.0 from 0.0.
    assert len(cells) == 17
    assert list(map(repr, cells)) == list(map(repr, expected))
    chosen = classify(s)
    assert labels == [m.value for m in StratumLabel if m in chosen]


def test_writer_edge_records_equal_the_public_scalar_api():
    for s in _WRITER_EDGES + SMALL_GAMMA_STATES:
        _assert_record_is_the_scalar_api(s)


@settings(database=None, derandomize=True, max_examples=300)
@given(st.one_of(
    st.sampled_from(_WRITER_EDGES + SMALL_GAMMA_STATES),
    edge_states(),
    _GENERIC_STATES,
    st.builds(haar_state, st.integers(0, 2**64 - 1), st.integers(0, 2**20)),
))
def test_state_record_equals_the_public_scalar_api(s):
    _assert_record_is_the_scalar_api(s)


@settings(database=None, derandomize=True, max_examples=200)
@given(st.lists(
    st.one_of(
        st.sampled_from(_WRITER_EDGES),
        st.builds(haar_state, st.integers(0, 2**64 - 1), st.integers(0, 2**20)),
        edge_states(),
        _GENERIC_STATES,
    ),
    max_size=5,
))
def test_writer_equals_the_encoder(states):
    records = [state_record(s) for s in states]
    for record in records:
        *cells, labels = record.values()
        # The JSON template's %r equals the encoder's float.__repr__ only on
        # exact floats.
        assert all(type(v) is float for v in cells)
    assert emit_to_string(states, "json") == json.dumps(records, indent=1) + "\n"
    rows = [
        ",".join([*map(dataset_module._fmt, cells), ";".join(labels)])
        for *cells, labels in (r.values() for r in records)
    ]
    assert emit_to_string(states) == "".join(line + "\n" for line in [HEADER, *rows])


# The CSV block writer against ``%.17g``, cell by cell and block by block.

# The CSV row that ``_rows`` writes, a block at a time, byte for byte.
_CSV_ROW = ",".join([dataset_module._CELL] * (len(DATASET_COLUMNS) - 1) + ["%s\n"])


def _csv_reference(rows, labels):
    return "".join(_CSV_ROW % (*row, label) for row, label in zip(rows, labels))


def _assert_block_rows(rows):
    labels = [";".join(["Separable"] * (k % 3)) for k in range(len(rows))]
    cells = [v for row in rows for v in row]
    text = dataset_module._rows(cells, [label + "\n" for label in labels], dataset_module._CSV)
    assert text == _csv_reference(rows, labels)


def _from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


_FINITE_BITS = st.integers(0, 2**64 - 1).map(_from_bits).filter(math.isfinite)
# Exponent fields 1009 .. 1026 span 2**-14 .. 2**4, around the array domain
# 1e-4 <= |x| < 10.
_DOMAIN_BITS = st.builds(
    lambda sign, exponent, mantissa: _from_bits(sign << 63 | exponent << 52 | mantissa),
    st.integers(0, 1), st.integers(1009, 1026), st.integers(0, 2**52 - 1),
)


@settings(database=None, derandomize=True, max_examples=500)
@given(st.lists(st.one_of(_FINITE_BITS, _DOMAIN_BITS), min_size=1, max_size=17))
def test_block_cells_equal_percent_g_by_bit_pattern(values):
    # The values fill two rows, the second rotated, so each sits in two columns.
    row = (values * 17)[:17]
    _assert_block_rows([row, row[1:] + row[:1]])


def _ties(digits: int = 17) -> list[float]:
    """Doubles whose rounding to ``digits`` significant digits is an exact tie,
    in every decade of the array domain: x = m / 2**(k + 1) with m odd and
    10**e <= x < 10**(e + 1), so x * 10**k (k = digits - 1 - e) is an odd
    multiple of 1/2."""
    ties = []
    for e in range(-4, 1):
        k = digits - 1 - e
        low = math.ceil(Fraction(10) ** e * 2 ** (k + 1)) | 1
        high = math.ceil(Fraction(10) ** (e + 1) * 2 ** (k + 1)) - 1
        for m in (low, low + 2, (low + high) // 2 | 1, high - 1 + high % 2):
            x = m / 2 ** (k + 1)
            assert 10.0**e <= x < 10.0 ** (e + 1)
            assert (Fraction(x) * 10**k).denominator == 2
            ties.append(x)
    return ties


def _adversarial() -> list[float]:
    values = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072009e-308,
              2.2250738585072014e-308, 1.0, -1.0, 1 - 2**-53, 1 + 2**-52,
              float(np.nextafter(10.0, 0.0)), 10.0, 9.5, 0.5, 0.25, 0.1, 0.001]
    for base in [2.0 ** j for j in range(-20, 8)] + [10.0**j for j in range(-6, 19)]:
        for v in (base, np.nextafter(base, 0.0), np.nextafter(base, np.inf)):
            values += [float(v), -float(v)]
    for edge in (1e-5, 1e-4, 1e16, 1e17):
        v = edge
        for _ in range(3):
            v = np.nextafter(v, 0.0)
        for _ in range(7):
            values += [float(v), -float(v)]
            v = np.nextafter(v, np.inf)
    values += _ties()
    return values


def test_block_cells_equal_percent_g_on_adversarial_values():
    ties = _ties()
    cells = np.array(ties * 17).reshape(17, -1).T
    assert not dataset_module._digits(cells, False)[2].any()
    values = _adversarial()
    values += [0.5] * (-len(values) % 17)
    _assert_block_rows([values[k:k + 17] for k in range(0, len(values), 17)])
    # Each value alone, as every cell of its own row.
    _assert_block_rows([[v] * 17 for v in values])


# The JSON block writer against ``repr``, cell by cell.


def _json_reference(rows):
    """Each row as the writer's JSON record: ``json.dumps`` of a one-record
    list without its brackets, opened by the separating comma."""
    records = [dict(zip(DATASET_COLUMNS, [*row, []])) for row in rows]
    return "".join("," + json.dumps([r], indent=1)[1:-2] for r in records)


def _assert_json_rows(rows):
    cells = [v for row in rows for v in row]
    text = dataset_module._rows(cells, ["[]\n }"] * len(rows), dataset_module._JSON)
    assert text == _json_reference(rows)


@settings(database=None, derandomize=True, max_examples=500)
@given(st.lists(st.one_of(_FINITE_BITS, _DOMAIN_BITS), min_size=1, max_size=17))
def test_json_cells_equal_repr_by_bit_pattern(values):
    row = (values * 17)[:17]
    _assert_json_rows([row, row[1:] + row[:1]])


def _json_adversarial() -> list[float]:
    values = _adversarial() + [0.1, 0.3, 1 / 3, 2 / 3, 9.999999999999998, 1e-323, 2.5e-320]
    values += [float(w) for w in range(1, 10)]
    values += [v for digits in (16, 15, 14) for v in _ties(digits)]
    for e in range(-5, 1):
        # 16-digit m crosses 2**53 at 9.007199254740992 * 10**e, and each
        # string below rounds, at 14 to 17 digits, up into the next decade.
        for text in ("9.007199254740992", "9.007199254740993", "9.5", "9.87654321",
                     "9.999999999999", "9.99999999999995", "9.999999999999995",
                     "9.9999999999999995", "9.99999999999999951"):
            v = float(f"{text}e{e}")
            for w in (v, np.nextafter(v, 0.0), np.nextafter(v, np.inf)):
                values += [float(w), -float(w)]
        v = 10.0 ** (e + 1)
        for _ in range(8):
            v = np.nextafter(v, 0.0)
            values += [float(v), -float(v)]
    return values


def test_json_cells_equal_repr_on_adversarial_values():
    values = _json_adversarial()
    # Every 16- and 15-digit tie falls back.
    ties = [v for digits in (16, 15) for v in _ties(digits)]
    cells = np.array((ties * 17)[: 17 * len(ties)]).reshape(len(ties), 17)
    assert not dataset_module._digits(cells, True)[2].any()
    values += [0.5] * (-len(values) % 17)
    _assert_json_rows([values[k:k + 17] for k in range(0, len(values), 17)])
    _assert_json_rows([[v] * 17 for v in values])


def test_json_whole_numbers_keep_their_point_zero():
    wholes = np.array([float(w) for w in range(-9, 10) if w] * 17).reshape(-1, 17)
    assert dataset_module._digits(wholes, True)[2].all()
    _assert_json_rows(wholes.tolist())


# Fallback cells that repeat across rows and columns: signed zeros, the
# residuals that the shells' C = 0 and C = 1 levels carry (powers of two near
# 1e-17), subnormals and values of 10 and above, with two in-domain cells.
_REPEATED = [0.0, -0.0, 2.0**-54, -2.0**-54, 2.0**-53, -2.0**-53, 2.0**-55, -2.0**-55,
             5e-324, -5e-324, 1e-310, 10.0, -10.0, 12.5, 1e300, 0.5, 0.1234]
# Every cell of _REPEATED but the last two takes the fallback.
_REPEATED_FALLBACK = {struct.pack("<d", v) for v in _REPEATED[:-2]}


def _repeated_rows(count: int = 40) -> list[list[float]]:
    """count rows, each a rotation of _REPEATED, so every value is in every
    row and moves from column to column."""
    return [[_REPEATED[(3 * k + j) % 17] for j in range(17)] for k in range(count)]


def test_blocks_with_repeated_fallback_cells_equal_the_references():
    rows = _repeated_rows()
    _assert_block_rows(rows)
    _assert_json_rows(rows)


@pytest.mark.parametrize("name", ["_CSV", "_JSON"])
def test_rows_convert_each_distinct_fallback_pattern_once_per_block(name):
    style = getattr(dataset_module, name)
    converted = []

    def counting(x):
        converted.append(struct.pack("<d", x))
        return style.fallback(x)

    counted = style._replace(fallback=counting)
    rows = _repeated_rows()
    cells = [v for row in rows for v in row]
    suffixes = ["\n" if name == "_CSV" else "[]\n }"] * len(rows)
    expected = dataset_module._rows(cells, suffixes, style)
    for _ in range(2):
        converted.clear()
        assert dataset_module._rows(cells, suffixes, counted) == expected
        assert sorted(converted) == sorted(_REPEATED_FALLBACK)


@pytest.mark.parametrize("count", [0, 1, 255, 256, 257, 600])
def test_csv_blocks_equal_the_row_template(count):
    # Each writer edge state at block positions 0, 255 and 256, where present,
    # in both formats.
    base = [haar_state(7, i) for i in range(count)]
    for edge in _WRITER_EDGES:
        states = [edge if i in (0, 255, 256) else s for i, s in enumerate(base)]
        records = [state_record(s) for s in states]
        rows = [list(r.values()) for r in records]
        expected = _csv_reference([r[:-1] for r in rows], [";".join(r[-1]) for r in rows])
        assert emit_to_string(states) == HEADER + "\n" + expected
        assert emit_to_string(states, "json") == json.dumps(records, indent=1) + "\n"


@pytest.mark.parametrize("count", [255, 256, 257, 513])
def test_json_blocks_equal_the_encoder(count):
    # haar states with the writer edge states from position 256 on, wrapped
    # into the first block when there is no second.
    mixed = [haar_state(11, i) for i in range(count)]
    for k, edge in enumerate(_WRITER_EDGES):
        mixed[(256 + 17 * k) % count] = edge
    # Product states on the Bloch grid: exact zeros in every row.
    grid = [
        bloch_state(BlochAngles(min(i * (math.pi / (count - 1)), math.pi), 0.0))
        for i in range(count)
    ]
    x = np.array([list(state_record(s).values())[:-1] for s in grid])
    assert not dataset_module._digits(x, True)[2].all(axis=1).any()
    for states in (mixed, grid):
        records = [state_record(s) for s in states]
        assert emit_to_string(states, "json") == json.dumps(records, indent=1) + "\n"


def test_csv_writer_draws_at_most_one_block_ahead():
    # Records written so far: CSV lines after the header, JSON label keys.
    for fmt, marker, written in (("csv", "\n", -1), ("json", '"labels"', 0)):
        drawn = 0

        def states():
            nonlocal drawn
            for i in range(600):
                drawn += 1
                yield haar_state(42, i)

        class Sink:
            rows = written

            def write(self, text):
                assert drawn <= max(self.rows, 0) + 256
                self.rows += text.count(marker)

        sink = Sink()
        emit_dataset(states(), fmt, sink)
        assert (drawn, sink.rows) == (600, 600)
