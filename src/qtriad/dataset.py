"""Flat-file emission of per-state analysis records (CSV or JSON).

Column order is fixed and floats are printed with 17 significant digits, so
equal inputs produce byte-identical files and every value round-trips.
"""

from __future__ import annotations

from typing import IO, Iterable

from .classify import _strata
from .projection import BallPoint, coords_from_state
from .states import TwoQubitState, triad

DATASET_COLUMNS = (
    "alpha0_re", "alpha0_im", "alpha1_re", "alpha1_im",
    "alpha2_re", "alpha2_im", "alpha3_re", "alpha3_im",
    "V", "D", "C",
    "x0", "x1", "x2", "x3", "x4",
    "radius", "labels",
)

CSV_FORMAT = "csv"
JSON_FORMAT = "json"

_CELL = "%.17g"

# One ``%`` per record. The JSON template is ``json.dumps(record, indent=1)``
# written out once and nested one level deep. Its ``%r`` equals the
# encoder's ``float.__repr__`` only for exact, finite Python floats: under
# numpy 2, ``%r`` of an ``np.float64`` prints ``np.float64(...)``, and the
# encoder writes ``NaN``/``Infinity`` where ``%r`` writes ``nan``/``inf``.
# Every cell is finite, because ``TwoQubitState`` gates the norm, and an
# exact ``float``, because the state converts its amplitudes with
# ``complex()``. Labels are fixed enum strings, so they need no escaping.
_CSV_ROW = ",".join([_CELL] * (len(DATASET_COLUMNS) - 1) + ["%s\n"])
_JSON_RECORD = (
    " {\n" + "".join(f'  "{c}": %r,\n' for c in DATASET_COLUMNS[:-1])
    + f'  "{DATASET_COLUMNS[-1]}": %s\n }}'
)


def _fmt(x: float) -> str:
    return _CELL % x


def state_record(s: TwoQubitState) -> dict:
    """One analysis record: amplitudes, triad, sphere coords, radius, labels.

    Keys follow ``DATASET_COLUMNS``. ``labels`` lists the ``StratumLabel``
    values of the state's strata in definition order, as ``_strata`` gives
    them, at ``DEFAULT_CLASSIFY_TOL``.
    """
    t = triad(s)
    x = coords_from_state(s)
    a0, a1, a2, a3 = s.alpha
    return dict(zip(DATASET_COLUMNS, (
        a0.real, a0.imag, a1.real, a1.imag, a2.real, a2.imag, a3.real, a3.imag,
        *t, *x,
        BallPoint(x.x0, x.x1, x.x2).radius,
        [label.value for label in _strata(t)],
    )))


def emit_dataset(
    states: Iterable[TwoQubitState], fmt: str, destination: IO[str]
) -> None:
    """Write one record per state to an open text stream.

    ``states`` is iterated once, and each record is written before the next
    state is drawn, so a lazy stream is never held in memory. CSV gets a
    header line even for no states; JSON is a list of
    objects keyed by the same column names (labels as a list), written one
    record at a time exactly as ``json.dump(records, indent=1)`` would. In
    both, labels keep the ``StratumLabel`` definition order of
    ``state_record``; CSV joins them with semicolons.
    """
    if fmt == CSV_FORMAT:
        destination.write(",".join(DATASET_COLUMNS) + "\n")
    elif fmt != JSON_FORMAT:
        raise ValueError(f"unknown format {fmt!r}")
    count = 0
    for count, s in enumerate(states, 1):
        *cells, labels = state_record(s).values()
        if fmt == CSV_FORMAT:
            destination.write(_CSV_ROW % (*cells, ";".join(labels)))
        else:
            listed = '[\n   "' + '",\n   "'.join(labels) + '"\n  ]' if labels else "[]"
            destination.write(("[\n" if count == 1 else ",\n") + _JSON_RECORD % (*cells, listed))
    if fmt == JSON_FORMAT:
        destination.write("\n]\n" if count else "[]\n")
