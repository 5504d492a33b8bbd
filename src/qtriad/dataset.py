"""Flat-file emission of per-state analysis records (CSV or JSON).

Column order is fixed. CSV floats are printed with 17 significant digits and
JSON floats as ``repr`` prints them, so equal inputs produce byte-identical
files and every value round-trips.
"""

from __future__ import annotations

import math
from itertools import islice
from typing import IO, Callable, Iterable, NamedTuple

import numpy as np

from .classify import StratumLabel, _strata
from .states import TwoQubitState, _coords, _invariants, _triad

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


def _fmt(x: float) -> str:
    return _CELL % x


# Records per block of the writer, which draws this many states ahead of
# what it has written. It stays below the sampler's block: on a 2-core x86_64
# machine a 1024-record read-ahead raised peak RSS (ru_maxrss) from 37.5 to
# 39.7 MB on a 20000-state CSV ``sample`` and from 37.5 to 40.3 MB on a
# 5 x 4000-state JSON ``shells``.
_RECORDS = 256

# Cells are formatted as arrays, ``_RECORDS`` rows at a time. A cell with
# 1e-4 <= |x| < 10 has decimal exponent E in [-4, 0], where ``%.17g`` and
# ``repr`` both write fixed notation. ``%.17g`` writes the 17 digits
# D = round(|x| * 10**k), k = 16 - E. Each 10**k (1e16 .. 1e20) is an exact
# double, and Dekker's product over a Veltkamp split (by 2**27 + 1, no FMA
# needed) gives |x| * 10**k exactly as p + err. p >= 1e16 > 2**53 is an
# integer, so D = p + floor(err), plus one when err - floor(err) > 0.5. That
# difference is exact except when err is in (-0.5, 0), where the true
# fraction is above 0.5 and the rounded one is at least 0.5.
#
# JSON cells are ``repr(x)``: the fewest digits that read back as x, and of
# those the string nearest x. D is within 0.5 of p + err, so the nearest
# n-digit m (n = 16, 15) is D's quotient by 10**(17 - n), plus one where
# p + err passes the quotient's half unit; err against that exact small
# integer decides it. For m < 2**53, m / 10.0**(k + n - 17) is the correctly
# rounded value of the digit string (Clinger's fast path: both operands are
# exact doubles), so it equals x exactly when the string reads back as x.
# Scaled by 10**k, the strings that read back lie within H of p + err, with
# H = ulp(x) / 2 * 10**k at most 10.9 here. So the nearest n-digit string
# reads back if any n-digit string does, and as a shorter string is a longer
# one padded with zeros, the first n whose nearest m misses ends the search.
# A 16-digit m >= 2**53 always reads back: such an x lies in a binade where
# H is above 5, half the gap between 16-digit neighbours; and m < 10**16, as
# each decade's largest double is more than 5 below 10**17. Half the gap
# between 15-digit neighbours is 50 > H, so a string of 15 or fewer digits
# that reads back is the nearest 15-digit m, padded; its zeros go with D's
# trailing zeros. The rounding interval of a power of two is narrower below
# it, which breaks the symmetry these steps rely on; the tests check all 17
# powers of two in the domain.
#
# Every other cell falls back to its format's own conversion, ``%.17g`` or
# ``repr``: zeros, |x| < 1e-4 or >= 10, subnormals, D outside
# [10**16, 10**17), a computed fraction of exactly 0.5 (an exact tie, which
# ``%`` rounds half-even, or a fraction just above 0.5 that rounded to it)
# and, for JSON, an exact tie at 16 or 15 digits. The conversion runs once
# per distinct 64-bit pattern among a block's fallback cells, and each cell
# takes its pattern's text, so 0.0 and -0.0 keep their own. The shells'
# C = 0 and C = 1 levels repeat a few zeros and tiny residuals in most rows.
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


# ``_product`` and ``_spell`` are functions of their own so that their
# (n, 17) temporaries are freed on return, before the block's text is built;
# this keeps the writer's peak RSS about 0.4 MB lower.
def _product(ax: np.ndarray, i: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """p as an integer and err, with p + err = ax * 10**k exactly."""
    p = ax * _SCALE[i]
    ah, al = _halves(ax)
    sh, sl = _SCALE_HI[i], _SCALE_LO[i]
    return p.astype(np.int64), ((ah * sh - p) + ah * sl + al * sh) + al * sl


def _digits(x: np.ndarray, shortest: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """D, the decade index i = E + 5 and the in-domain mask of cells ``x``.

    With ``shortest``, D is repr's digits padded with zeros to 17.
    """
    ax = np.abs(x)
    ok = (ax >= 1e-4) & (ax < 10.0)
    ax = np.where(ok, ax, 1.0)
    i = np.searchsorted(_DECADES, ax, "right")
    top, err = _product(ax, i)
    whole = np.floor(err)
    frac = err - whole
    d = top + whole.astype(np.int64) + (frac > 0.5)
    ok &= (frac != 0.5) & (d >= 10**16) & (d < 10**17)
    if shortest:
        nearest, reads, scale = d, True, _SCALE[i]
        for unit in (10, 100):
            q = nearest // unit
            # p + err lies above q * unit + unit / 2 exactly when err > half,
            # and on it when err == half, a tie.
            half = (unit // 2 + q * unit - top).astype(np.float64)
            m = q + (err > half)
            ok &= err != half
            scale /= 10
            reads &= (m / scale == ax) | (m >= 2**53)
            d = np.where(reads, m * unit, d)
    return d, i, ok


class _Style(NamedTuple):
    """One format's text around the float cells of a ``_template`` row."""

    shortest: bool  # repr's digits, else ``%.17g``'s
    start: bytes  # opens each row
    keys: np.ndarray  # (17, P) uint8: the text before each cell, zero-padded
    whole: int  # the change to the head of 1 .. 9
    fallback: Callable[[float], str]  # a fallback cell's text
    mid: bytes  # follows the float cells, before the row's suffix


# A cell's slot: its key text, then 24 bytes: sign, then "0." and up to three
# zeros and the lead digit (E < 0) or the lead digit and "." (E = 0), then 16
# digits as four 4-digit groups. Zero bytes are padding, dropped once per
# block. The 8 bytes after the key are one little-endian int64, built from
# ``_HEAD``. A fallback cell's text fills the 24 bytes, which hold the
# longest: "-1.2345678901234567e-308".
def _head(text: str) -> int:
    return int.from_bytes(text.encode().ljust(8, b"\0"), "little")


_SLOT = 24
_HEAD = np.array(
    [0] + [_head("\0" + "0." + "0" * (4 - i)) for i in range(1, 5)] + [_head("\0\0.")]
)
_LEAD_SHIFT = np.array([0, 56, 56, 56, 56, 8])
_CSV = _Style(
    shortest=False,
    start=b"",
    keys=np.array([[0]] + [[ord(",")]] * (_FLOATS - 1), np.uint8),
    whole=-(ord(".") << 16),
    fallback=_fmt,
    mid=b",",
)
# ``json.dumps(records, indent=1)``. Each row opens with the comma that
# separates it from the record before. Labels are fixed ASCII enum strings,
# so they need no escaping.
_JSON = _Style(
    shortest=True,
    start=b",\n {",
    keys=np.array([list(f'{sep}\n  "{c}": '.encode().ljust(17, b"\0"))
                   for sep, c in zip(["", *"," * (_FLOATS - 1)], DATASET_COLUMNS)], np.uint8),
    whole=ord("0") << 24,
    fallback=repr,
    mid=f',\n  "{DATASET_COLUMNS[-1]}": '.encode(),
)


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


def _spell(d: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """D's lead digit, its 16 other digits as four ASCII words without the
    trailing zeros, and the mask of D with only zeros after the lead."""
    lead = d // 10**16
    rest = d - lead * 10**16
    hi = rest // 10**8
    pair = np.stack((hi, rest - hi * 10**8), -1, dtype=np.int32)
    groups = np.empty((*d.shape, 4), np.int32)
    groups[..., ::2] = pair // 10**4
    groups[..., 1::2] = pair - groups[..., ::2] * 10**4
    # Trailing zeros go: those of the last group, and those of an earlier
    # group when every group after it is zero.
    tail = np.ones(d.shape, bool)
    for j in (3, 2, 1, 0):
        groups[..., j] += 10000 * tail
        tail &= groups[..., j] == 10000
    return lead, _GROUPS[groups], tail


def _template(x: np.ndarray, suffixes: list[str], style: _Style) -> np.ndarray:
    """Rows ``x`` (n, 17), each followed by its suffix, as padded text: a
    ``uint8`` array whose zero bytes are padding."""
    n = len(x)
    d, i, ok = _digits(x, style.shortest)
    lead, words, tail = _spell(d)
    suffix = np.array(suffixes, "S")
    start, width = len(style.start), style.keys.shape[1] + _SLOT
    cells = start + _FLOATS * width
    buf = np.empty((n, cells + len(style.mid) + suffix.itemsize), np.uint8)
    buf[:, :start] = np.frombuffer(style.start, np.uint8)
    slots = buf[:, start:cells].reshape(n, _FLOATS, width)
    slots[..., :-_SLOT] = style.keys
    text = slots[..., -_SLOT:]
    text[..., 8:].view(np.uint32)[...] = words
    head = _HEAD[i] + ((lead + ord("0")) << _LEAD_SHIFT[i]) + (x < 0) * ord("-")
    # Whole numbers: 1 .. 9 for CSV, 1.0 .. 9.0 for JSON.
    head += ((i == 5) & tail) * style.whole
    text[..., :8].view("<i8")[..., 0] = head
    bad = ~ok
    if bad.any():
        values = x[bad]
        keys = values.view(np.int64).tolist()
        texts = {k: style.fallback(v) for k, v in dict(zip(keys, values.tolist())).items()}
        fallback = [*map(texts.__getitem__, keys)]
        text[bad] = np.array(fallback, f"S{_SLOT}").view(np.uint8).reshape(-1, _SLOT)
    buf[:, cells : cells + len(style.mid)] = np.frombuffer(style.mid, np.uint8)
    buf[:, buf.shape[1] - suffix.itemsize :] = suffix.view(np.uint8).reshape(n, -1)
    return buf


def _rows(cells: list[float], suffixes: list[str], style: _Style) -> str:
    """Each row's float cells, given end to end, then its suffix."""
    x = np.fromiter(cells, np.float64, len(cells)).reshape(len(suffixes), _FLOATS)
    return _template(x, suffixes, style).tobytes().translate(None, b"\0").decode("ascii")


# ``label.value`` goes through the Enum property; a dict lookup is cheaper.
_LABEL_VALUES = {label: label.value for label in StratumLabel}


def state_record(s: TwoQubitState) -> dict:
    """One analysis record: amplitudes, triad, sphere coords, radius, labels.

    The keys are written out in ``DATASET_COLUMNS`` order, which a test pins.
    The cells equal ``triad(s)``, ``coords_from_state(s)`` and
    ``ball_point(s).radius`` bit for bit, all derived from one
    ``_invariants`` call on the state's amplitudes. ``labels`` lists the
    ``StratumLabel`` values of the state's strata in definition order, as
    ``_strata`` gives them, at ``DEFAULT_CLASSIFY_TOL``.
    """
    a0, a1, a2, a3 = s.alpha
    invariants = _invariants(a0, a1, a2, a3)
    t = _triad(*invariants)
    v, d, c = t
    x0, x1, x2, x3, x4 = _coords(*invariants)
    return {
        "alpha0_re": a0.real, "alpha0_im": a0.imag,
        "alpha1_re": a1.real, "alpha1_im": a1.imag,
        "alpha2_re": a2.real, "alpha2_im": a2.imag,
        "alpha3_re": a3.real, "alpha3_im": a3.imag,
        "V": v, "D": d, "C": c,
        "x0": x0, "x1": x1, "x2": x2, "x3": x3, "x4": x4,
        "radius": math.hypot(x0, x1, x2),  # BallPoint.radius
        "labels": [_LABEL_VALUES[label] for label in _strata(t)],
    }


def _suffix(csv: bool, names: list[str]) -> str:
    """The text after a record's float cells: its labels, then the end of
    the row (CSV) or of the object (JSON)."""
    if csv:
        return ";".join(names) + "\n"
    listed = '[\n   "' + '",\n   "'.join(names) + '"\n  ]' if names else "[]"
    return listed + "\n }"


# Per format, one ``_suffix`` text per label combination that
# ``emit_dataset`` has written, keyed by the labels' tuple; there are at most
# 2**8 of them.
_SUFFIXES: dict[str, dict[tuple[str, ...], str]] = {CSV_FORMAT: {}, JSON_FORMAT: {}}


def emit_dataset(
    states: Iterable[TwoQubitState], fmt: str, destination: IO[str]
) -> None:
    """Write one record per state to an open text stream.

    ``states`` is iterated once and never held whole: both formats draw a
    block of at most ``_RECORDS`` (256) states, then build and write its
    records, so no more than one block is drawn ahead of what is written.
    Each block's records are made as one text by array code: CSV cells are
    the exact ``%.17g`` text and JSON cells the shortest ``repr`` text. The
    cells outside the array domain get ``%.17g`` or ``repr``, called once
    per distinct bit pattern in the block (the comment above ``_FLOATS``
    gives the domain and the fallback rule).
    CSV gets a header line even for no states. JSON is a list of objects
    keyed by the same column names (labels as a list), byte-identical to
    ``json.dump(records, indent=1)``. In both, labels keep the
    ``StratumLabel`` definition order of ``state_record``; CSV joins them
    with semicolons. An unknown ``fmt`` raises before anything is drawn or
    written.
    """
    if fmt not in (CSV_FORMAT, JSON_FORMAT):
        raise ValueError(f"unknown format {fmt!r}")
    csv = fmt == CSV_FORMAT
    destination.write(",".join(DATASET_COLUMNS) + "\n" if csv else "[")
    shared = _SUFFIXES[fmt]
    states = iter(states)
    # A JSON row opens with a comma, which the first record goes without.
    skip = 0 if csv else 1
    while block := list(islice(states, _RECORDS)):
        cells: list[float] = []
        suffixes: list[str] = []
        for s in block:
            *row, names = state_record(s).values()
            cells += row
            key = tuple(names)
            suffix = shared.get(key)
            if suffix is None:
                suffix = shared.setdefault(key, _suffix(csv, names))
            suffixes.append(suffix)
        destination.write(_rows(cells, suffixes, _CSV if csv else _JSON)[skip:])
        skip = 0
    if not csv:
        destination.write("]\n" if skip else "\n]\n")
