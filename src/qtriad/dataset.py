"""Flat-file emission of per-state analysis records (CSV or JSON).

Column order is fixed and floats are printed with 17 significant digits, so
equal inputs produce byte-identical files and every value round-trips.
"""

from __future__ import annotations

import json
from typing import IO, Iterable

from .classify import DEFAULT_CLASSIFY_TOL, StratumLabel, _strata
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


def _fmt(x: float) -> str:
    return "%.17g" % x


def label_names(labels: Iterable[StratumLabel]) -> list[str]:
    """Label strings in definition order (stable across runs)."""
    chosen = set(labels)
    return [member.value for member in StratumLabel if member in chosen]


def state_record(s: TwoQubitState, tol: float = DEFAULT_CLASSIFY_TOL) -> dict:
    """One analysis record: amplitudes, triad, sphere coords, radius, labels."""
    t = triad(s)
    x = coords_from_state(s)
    record: dict = {}
    for k, a in enumerate(s.alpha):
        record[f"alpha{k}_re"] = a.real
        record[f"alpha{k}_im"] = a.imag
    record["V"], record["D"], record["C"] = t
    record["x0"], record["x1"], record["x2"], record["x3"], record["x4"] = x
    record["radius"] = BallPoint(x.x0, x.x1, x.x2).radius
    record["labels"] = label_names(_strata(t, tol))
    return record


def emit_dataset(
    states: Iterable[TwoQubitState],
    fmt: str,
    destination: IO[str],
    tol: float = DEFAULT_CLASSIFY_TOL,
) -> None:
    """Write one record per state to an open text stream.

    ``states`` is iterated once, and each record is written before the next
    state is drawn, so a lazy stream is never held in memory. CSV gets a
    header line even for no states; JSON is a list of
    objects keyed by the same column names (labels as a list), written one
    record at a time exactly as ``json.dump(records, indent=1)`` would.
    """
    if fmt == CSV_FORMAT:
        destination.write(",".join(DATASET_COLUMNS) + "\n")
    elif fmt != JSON_FORMAT:
        raise ValueError(f"unknown format {fmt!r}")
    encoder = json.JSONEncoder(indent=1)
    count = 0
    for count, s in enumerate(states, 1):
        record = state_record(s, tol)
        if fmt == CSV_FORMAT:
            fields = [_fmt(record[col]) for col in DATASET_COLUMNS[:-1]]
            fields.append(";".join(record["labels"]))
            destination.write(",".join(fields) + "\n")
        else:
            # Records sit one level deep; JSON strings hold no raw newlines.
            body = encoder.encode(record).replace("\n", "\n ")
            destination.write(("[\n " if count == 1 else ",\n ") + body)
    if fmt == JSON_FORMAT:
        destination.write("\n]\n" if count else "[]\n")
