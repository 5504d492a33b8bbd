"""Flat-file emission of per-state analysis records (CSV or JSON).

Column order is fixed and floats are printed with 17 significant digits, so
equal inputs produce byte-identical files and every value round-trips.
"""

from __future__ import annotations

from itertools import islice
from typing import IO, Iterable

import numpy as np

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

# One ``%`` per JSON record: ``json.dumps(record, indent=1)`` written out
# once and nested one level deep. Its ``%r`` equals the encoder's
# ``float.__repr__`` only for exact, finite Python floats: under numpy 2,
# ``%r`` of an ``np.float64`` prints ``np.float64(...)``, and the encoder
# writes ``NaN``/``Infinity`` where ``%r`` writes ``nan``/``inf``. Every cell
# is finite, because ``TwoQubitState`` gates the norm, and an exact
# ``float``, because the state converts its amplitudes with ``complex()``.
# Labels are fixed enum strings, so they need no escaping. ``_CSV_ROW`` is
# the CSV row that ``_csv_rows`` writes, a block at a time, byte for byte.
_CSV_ROW = ",".join([_CELL] * (len(DATASET_COLUMNS) - 1) + ["%s\n"])
_JSON_RECORD = (
    " {\n" + "".join(f'  "{c}": %r,\n' for c in DATASET_COLUMNS[:-1])
    + f'  "{DATASET_COLUMNS[-1]}": %s\n }}'
)


def _fmt(x: float) -> str:
    return _CELL % x


# CSV cells are formatted as arrays, ``_BLOCK`` rows at a time. A cell with
# 1e-4 <= |x| < 10 has decimal exponent E in [-4, 0], where ``%.17g`` writes
# fixed notation with the 17 digits D = round(|x| * 10**k), k = 16 - E. Each
# 10**k (1e16 .. 1e20) is an exact double, and Dekker's product over a
# Veltkamp split (by 2**27 + 1, no FMA needed) gives |x| * 10**k exactly as
# p + err. p >= 1e16 > 2**53 is an integer, so D = p + floor(err), plus one
# when err - floor(err) > 0.5. That difference is exact except when err is
# in (-0.5, 0), where the true fraction is above 0.5 and the rounded one is
# at least 0.5. Every other cell is a fallback and gets ``_CELL % x``: zeros,
# |x| < 1e-4 or >= 10, subnormals, a computed fraction of exactly 0.5 (an
# exact tie, which ``%`` rounds half-even, or a fraction just above 0.5 that
# rounded to it) and D outside [10**16, 10**17).
_BLOCK = 256
_FLOATS = len(DATASET_COLUMNS) - 1
# |x| >= 10**E exactly when |x| >= 10.0**E: each of these doubles lies above
# its power of ten, with no double in between. searchsorted gives i = E + 5
# in the domain; the tables' entry 0 is never read.
_DECADES = np.array([1e-4, 1e-3, 1e-2, 1e-1, 1.0])
_VELTKAMP = 134217729.0


def _halves(v):
    t = _VELTKAMP * v
    hi = t - (t - v)
    return hi, v - hi


_SCALE = np.array([float(10 ** (21 - i)) for i in range(6)])
_SCALE_HI, _SCALE_LO = _halves(_SCALE)


# A cell's 24-byte slot: separator, sign, then "0." and up to three zeros
# and the lead digit (E < 0) or the lead digit and "." (E = 0), then 16
# digits as four 4-digit groups. Zero bytes are padding, dropped once per
# block. The first 8 bytes are one little-endian int64, built from ``_HEAD``.
def _head(text: str) -> int:
    return int.from_bytes(text.encode().ljust(8, b"\0"), "little")


_SLOT = 24
_HEAD = np.array(
    [0] + [_head(",\0" + "0." + "0" * (4 - i)) for i in range(1, 5)] + [_head(",\0\0.")]
)
_LEAD_SHIFT = np.array([0, 56, 56, 56, 56, 16])
_FALLBACK_HEAD = _head("," + _CELL)
_ROW_END = np.frombuffer(b",\n", np.uint8)


def _groups() -> np.ndarray:
    """Four ASCII digits per uint32 for g in 0..9999; at 10000 + g the same
    without g's trailing zeros, for the groups that end the digits."""
    g = np.arange(10000, dtype=np.uint16)
    table = np.empty((2, 10000, 4), np.uint8)
    for j, unit in enumerate((1000, 100, 10, 1)):
        table[:, :, j] = g // unit % 10 + ord("0")
        table[1, :, j] *= g % (10 * unit) != 0
    return table.view(np.uint32).reshape(-1)


_GROUPS = _groups()


def _digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """D, the decade index i = E + 5 and the in-domain mask of cells ``x``."""
    ax = np.abs(x)
    ok = (ax >= 1e-4) & (ax < 10.0)
    ax = np.where(ok, ax, 1.0)
    i = np.searchsorted(_DECADES, ax, "right")
    p = ax * _SCALE[i]
    ah, al = _halves(ax)
    sh, sl = _SCALE_HI[i], _SCALE_LO[i]
    err = ((ah * sh - p) + ah * sl + al * sh) + al * sl
    whole = np.floor(err)
    frac = err - whole
    d = p.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    ok &= (frac != 0.5) & (d >= 10**16) & (d < 10**17)
    return d, i, ok


def _csv_template(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``x`` (n, 17) as padded text, and the mask of fallback cells.

    The text is a ``uint8`` array whose zero bytes are padding. A fallback
    cell reads ``%.17g`` and each row ends in a comma and a newline.
    """
    n = len(x)
    d, i, ok = _digits(x)
    lead = d // 10**16
    rest = d - lead * 10**16
    hi = rest // 10**8
    pair = np.stack((hi, rest - hi * 10**8), -1, dtype=np.int32)
    groups = np.empty((n, _FLOATS, 4), np.int32)
    groups[..., ::2] = pair // 10**4
    groups[..., 1::2] = pair - groups[..., ::2] * 10**4
    # Trailing zeros go: those of the last group, and those of an earlier
    # group when every group after it is zero.
    tail = np.ones((n, _FLOATS), bool)
    for j in (3, 2, 1, 0):
        groups[..., j] += 10000 * tail
        tail &= groups[..., j] == 10000
    buf = np.empty((n, _FLOATS * _SLOT + len(_ROW_END)), np.uint8)
    slots = buf[:, : _FLOATS * _SLOT].reshape(n, _FLOATS, _SLOT)
    slots[..., 8:].view(np.uint32)[...] = _GROUPS[groups]
    head = _HEAD[i] + ((lead + ord("0")) << _LEAD_SHIFT[i]) + (x < 0) * (ord("-") << 8)
    # 1 .. 9 print without a point.
    head -= ((i == 5) & tail) * (ord(".") << 24)
    bad = ~ok
    head[bad] = _FALLBACK_HEAD
    slots[bad, 8:] = 0
    head[:, 0] -= ord(",")
    slots[..., :8].view("<i8")[..., 0] = head
    buf[:, -len(_ROW_END):] = _ROW_END
    return buf, bad


def _csv_rows(cells: list[float], labels: list[str]) -> str:
    """``_CSV_ROW`` of each row, given the rows' float cells end to end."""
    x = np.fromiter(cells, np.float64, len(cells)).reshape(len(labels), _FLOATS)
    buf, bad = _csv_template(x)
    rows = buf.tobytes().translate(None, b"\0").decode("ascii").split("\n")
    if bad.any():
        fallback = iter(x[bad].tolist())
        for r, k in enumerate(bad.sum(1).tolist()):
            if k:
                rows[r] %= tuple(islice(fallback, k))
    # ``rows`` ends with the empty text after the last newline. One join,
    # rather than a ``%`` over the block, since ``%`` grows its result by
    # reallocation and fragments the heap.
    return "\n".join(map(str.__add__, rows, [*labels, ""]))


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

    ``states`` is iterated once and never held whole: both formats draw a
    block of at most ``_BLOCK`` (256) states, then build and write its
    records, so no more than one block is drawn ahead of what is written.
    CSV gets a header line even for no states, and its cells are the exact
    ``%.17g`` text, made by array code per block with a per-cell ``%`` for
    the cells outside its domain. JSON is a list of objects keyed by the
    same column names (labels as a list), written a record at a time exactly
    as ``json.dump(records, indent=1)`` would. In both, labels keep the
    ``StratumLabel`` definition order of ``state_record``; CSV joins them
    with semicolons. An unknown ``fmt`` raises before anything is drawn or
    written.
    """
    if fmt not in (CSV_FORMAT, JSON_FORMAT):
        raise ValueError(f"unknown format {fmt!r}")
    csv = fmt == CSV_FORMAT
    destination.write(",".join(DATASET_COLUMNS) + "\n" if csv else "[")
    states = iter(states)
    lead = "\n"
    while block := list(islice(states, _BLOCK)):
        cells: list[float] = []
        labels: list[str] = []
        for s in block:
            *row, names = state_record(s).values()
            if csv:
                cells += row
                labels.append(";".join(names))
            else:
                listed = '[\n   "' + '",\n   "'.join(names) + '"\n  ]' if names else "[]"
                destination.write(lead + _JSON_RECORD % (*row, listed))
                lead = ",\n"
        if csv:
            destination.write(_csv_rows(cells, labels))
    if not csv:
        destination.write("]\n" if lead == "\n" else "\n]\n")
