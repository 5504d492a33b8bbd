"""Two-qubit pure states and their wave, particle, and entanglement measures.

Amplitudes are ordered over the product basis |0e>, |0f>, |1e>, |1f>: the
first label is the path qubit (0/1), the second the partner system (e/f).
Three invariants of the amplitudes drive everything downstream:

    imbalance   = p0 - p1 with p0 = |a0|^2 + |a1|^2, p1 = |a2|^2 + |a3|^2
    coherence   = conj(a2)*a0 + conj(a3)*a1      (off-diagonal of the path state)
    determinant = a1*a2 - a0*a3                  (amplitude-matrix determinant)

Visibility is 2|coherence|, concurrence is 2|determinant|, and
distinguishability is |imbalance|. For any normalized state
V^2 + D^2 + C^2 = 1. ``_invariants`` is the single source of the three, for
a state's amplitudes and for ``_Columns`` of rows alike; ``_invariant_rows``
runs it on rows of amplitudes. What follows from the three (``_triad``,
``_coords``, ``_purity``) and the sum of squared moduli (``_sum_squares``)
have one source each too, which runs on Python floats and complex numbers or
on arrays and ``_Columns``. The oracle routes in ``verify`` deliberately do
not use them, so that they stay independent checks of them. The fringe
oracle has one home, ``_fringe``, for ``fringe_extrema`` and for ``verify``'s
rows alike; it reads no invariant, only the intensities of p(delta) at four
phases.

The scalar readers of one state go through a one-entry memo, ``_recall``:
``triad`` (and with it ``visibility``, ``distinguishability``,
``concurrence`` and ``classify``), ``projection.coords_from_state`` (and
with it ``ball_point``), ``reduced_density_photon`` and ``verify``'s scalar
witness helpers. It keeps the last state asked about, keyed by identity (the
type is frozen), with its ``_invariants``, triad and S4Point, all filled by
its first reader. So the README's quickstart, which analyses one state
object several times, evaluates its invariants once. Every value is what one
``_invariants`` call on the state's amplitudes gives, so the memo moves no
bit. ``dataset.state_record``, ``_invariant_rows`` and ``verify``'s array
routes call ``_invariants`` directly: each sees a state only once.

The value types store a part of exact type ``complex`` as given and convert
anything else: ``TwoQubitState`` keeps a tuple of four ``complex`` as its
``alpha``, and ``CorrelatedState`` keeps ``complex`` weights and tuples of
``complex``. One norm rule admits a state, for one state and for rows
(``_gate``) alike: the plain norm ``sqrt(_sum_squares(alpha))`` lies within
``NORM_TOL / 8`` of 1. ``_norm``'s scale-safe path only words the message
of a rejected state. The states the library normalizes itself are built
without the gate by ``_built``, a builder from ``quaternion._trusted`` (see
there for what its callers owe): the rows ``_gate`` admitted
(``_admitted``), ``make_state(..., normalize=True)`` and through it
``embed_correlated``, ``sampling``'s three per-index samplers, and
``_exchanged``. ``make_correlated(..., normalize=True)`` builds its
``CorrelatedState`` the same way, through ``_correlated``, after the one
check of the constructor that its normalization does not settle, the shared
dimension; any input that is not finite goes to the constructor, which
words the rejection. The NamedTuple results are each built in one place
from a tuple of their values.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .quaternion import _trusted

# Validation band for unit-norm inputs accepted without rescaling. A
# ``TwoQubitState`` keeps |psi| within NORM_TOL / 8 of 1, so that |psi|^2 and
# |psi|^4, which the derived types check against NORM_TOL, stay inside it.
NORM_TOL = 1e-9


# A NamedTuple built from a tuple of its values, without the frame of the
# generated ``__new__``: for the results built in one place each, whose values
# always number the fields.
_new = tuple.__new__


class DualityTriad(NamedTuple):
    """Visibility, distinguishability, concurrence; each in [0, 1]."""

    V: float
    D: float
    C: float


class S4Point(NamedTuple):
    """Coordinates (x0..x4) on the unit 4-sphere."""

    x0: float
    x1: float
    x2: float
    x3: float
    x4: float


@dataclass(frozen=True, slots=True)
class TwoQubitState:
    """Normalized four-amplitude record over |0e>, |0f>, |1e>, |1f>."""

    alpha: tuple[complex, complex, complex, complex]

    def __post_init__(self):
        alpha = self.alpha
        if not _exact(alpha):
            alpha = _four(alpha)
            object.__setattr__(self, "alpha", alpha)
        # One plain norm decides as ``_norm``'s n * scale would: ``_norm``
        # returns this norm with scale 1 whenever it lies in [2**-500, inf),
        # and outside that range both rules reject (an overflowed sum, a NaN,
        # or a norm below 2**-500 whose true value is below 2**-499 too).
        n = math.sqrt(_sum_squares(alpha))
        if not abs(n - 1.0) <= NORM_TOL / 8:
            n, scale = _norm(alpha)
            raise ValueError(f"amplitudes are not normalized: |amp| = {n * scale!r}")


def _exact(alpha) -> bool:
    """Whether alpha is a tuple of four parts of exact type ``complex``, the
    form ``TwoQubitState`` stores as given."""
    if type(alpha) is not tuple or len(alpha) != 4:
        return False
    a0, a1, a2, a3 = alpha
    return type(a0) is type(a1) is type(a2) is type(a3) is complex


def _gate(alpha: np.ndarray) -> None:
    """``TwoQubitState``'s norm gate over n rows of amplitudes, ``(n, 4)``:
    raises its ValueError for the first row it rejects. Squares that overflow
    or underflow, as they do for the scalar gate's Python floats, raise no
    warning, so the gate's own message is the one that reaches the caller."""
    with np.errstate(over="ignore", under="ignore"):
        n = np.sqrt(_sum_squares(_columns(alpha)))
    bad = ~(np.abs(n - 1.0) <= NORM_TOL / 8)
    if bad.any():
        TwoQubitState(tuple(alpha[bad.argmax()]))


# ``TwoQubitState(alpha)`` for a tuple of four exact ``complex`` known to be
# of unit norm within the gate's band. Its callers, and why the gate, whose
# band NORM_TOL / 8 = 1.25e-10 is about 10**6 u (u = 2**-53), could not fail
# on what they pass:
# - ``_admitted``: rows that ``_gate`` admitted.
# - ``make_state(..., normalize=True)``, and through it
#   ``embed_correlated``: ``_norm`` has already rejected non-finite and
#   all-zero input, and n is the plain norm of the (power-of-two scaled)
#   parts c, so the sum of squares of c / n lies within about 12u of 1.
# - ``haar_state``, ``separable_state`` and ``fixed_concurrence_state``:
#   unit vectors over ``math.hypot``, products of two of them, and
#   (lambda1, 0, 0, lambda2) under two unitaries built from them, each
#   within some tens of u of unit norm.
# - ``_exchanged``: an admitted state's parts in another order. The same
#   eight squares summed in the new order lie within about 8u of the
#   admitted sum, so |psi| stays within NORM_TOL / 8 + 8u of 1, where
#   every derived check (against NORM_TOL) holds; the gate itself may
#   reject it at the band's last floats.
_built = _trusted(TwoQubitState)


def _admitted(alpha: np.ndarray) -> Iterator[TwoQubitState]:
    """The states of n rows of amplitudes, ``(n, 4)``, that ``_gate`` admitted.

    Each state holds its row's tuple of Python complexes, which is the
    ``alpha`` that ``__post_init__`` would store; ``_built`` makes it without
    running the gate again.
    """
    return map(_built, map(tuple, alpha.tolist()))


def _four(amplitudes: Sequence[complex]) -> tuple[complex, ...]:
    """The amplitudes as complex numbers; raises ValueError unless there are 4.
    A tuple of four exact ``complex`` is returned as given."""
    if _exact(amplitudes):
        return amplitudes
    alpha = tuple(map(complex, amplitudes))
    if len(alpha) != 4:
        raise ValueError("a two-qubit state needs exactly 4 amplitudes")
    return alpha


def _norm(v: Sequence[complex]) -> tuple[float, float]:
    """(n, scale) with |v| = n * scale, safe at any finite size of the entries.

    scale is 1 unless the plain sum of squares overflows or falls below
    2**-500, where underflow may have cost it bits; then it is the power of two
    that brings the largest part into [1, 2). n is non-finite for non-finite
    entries and 0 for all-zero ones.

    """
    n = math.sqrt(_sum_squares(v))
    if 2.0**-500 <= n < math.inf:
        return n, 1.0
    parts = [p for c in v for p in (c.real, c.imag)]
    if not all(map(math.isfinite, parts)) or not any(parts):
        return n, 1.0
    scale = 2.0 ** (math.frexp(max(map(abs, parts)))[1] - 1)
    return math.sqrt(_sum_squares([complex(c.real / scale, c.imag / scale) for c in v])), scale


def _sum_squares(v):
    """The |c|^2 of v summed left to right in plain float arithmetic: the
    builtin ``sum`` of floats is compensated from Python 3.12 on."""
    total = 0.0
    for c in v:
        total += c.real * c.real + c.imag * c.imag
    return total


def _unit(v: tuple[complex, ...], n: float, scale: float) -> tuple[complex, ...]:
    """v / |v|, given ``(n, scale) = _norm(v)``."""
    if scale != 1.0:
        v = tuple(complex(c.real / scale, c.imag / scale) for c in v)
    return tuple(c / n for c in v)


def make_state(amplitudes: Sequence[complex], normalize: bool = False) -> TwoQubitState:
    """Build a TwoQubitState from 4 amplitudes.

    With ``normalize`` the input is rescaled to unit norm, whatever its finite,
    nonzero scale; without it, inputs whose norm deviates from 1 by more than
    ``NORM_TOL / 8`` are rejected so that typos do not get silently absorbed.
    """
    alpha = _four(amplitudes)
    if not normalize:
        # The state's own norm gate first: ``_norm`` only words a rejection.
        try:
            return TwoQubitState(alpha)
        except ValueError:
            pass
    n, scale = _norm(alpha)
    if not math.isfinite(n):
        raise ValueError("amplitudes must be finite")
    if n == 0.0:
        raise ValueError("all-zero amplitudes do not define a state")
    if normalize:
        # ``_unit``'s divisions, written out; ``_built`` says why the gate
        # cannot fail on their result.
        if scale != 1.0:
            alpha = [complex(c.real / scale, c.imag / scale) for c in alpha]
        a0, a1, a2, a3 = alpha
        return _built((a0 / n, a1 / n, a2 / n, a3 / n))
    return TwoQubitState(alpha)


@dataclass(frozen=True, slots=True)
class CorrelatedState:
    """Path qubit correlated with a d-dimensional partner.

    The state is mu*|0>|chi1> + nu*|1>|chi2> where chi1, chi2 are unit vectors
    of the same dimension d >= 1, not necessarily orthogonal. Invariants after
    construction: each chi has unit norm and |mu|^2 + |nu|^2 = 1.
    """

    mu: complex
    nu: complex
    chi1: tuple[complex, ...]
    chi2: tuple[complex, ...]

    def __post_init__(self):
        chi1, chi2 = _complexes(self.chi1), _complexes(self.chi2)
        if chi1 is not self.chi1:
            object.__setattr__(self, "chi1", chi1)
        if chi2 is not self.chi2:
            object.__setattr__(self, "chi2", chi2)
        if len(chi1) == 0 or len(chi1) != len(chi2):
            raise ValueError("chi1 and chi2 must share a dimension d >= 1")
        if type(self.mu) is not complex:
            object.__setattr__(self, "mu", complex(self.mu))
        if type(self.nu) is not complex:
            object.__setattr__(self, "nu", complex(self.nu))
        n1, scale1 = _norm(chi1)
        n2, scale2 = _norm(chi2)
        if not (math.isfinite(n1) and math.isfinite(n2)):
            raise ValueError("chi entries must be finite")
        if abs(n1 * scale1 - 1.0) > NORM_TOL or abs(n2 * scale2 - 1.0) > NORM_TOL:
            raise ValueError("chi1 and chi2 must be unit vectors")
        w = math.hypot(abs(self.mu), abs(self.nu))
        if not math.isfinite(w) or abs(w - 1.0) > NORM_TOL:
            raise ValueError("|mu|^2 + |nu|^2 must equal 1")


# ``CorrelatedState(mu, nu, chi1, chi2)`` for exact ``complex`` weights and
# tuples of exact ``complex`` that ``make_correlated(..., normalize=True)`` has
# normalized. Not the constructor itself: on CPython 3.11 its checks took about
# a quarter of that call's time.
# Its caller passes chis of one dimension d, with finite norms n1, n2 before
# the division and finite weights after it. Why the other checks of
# ``__post_init__`` could not fail then, with NORM_TOL = 1e-9 about
# 9 * 10**6 u (u = 2**-53):
# - chi entries finite, each chi a unit vector: a finite n is nonzero
#   (``make_correlated`` rejected zero norms) and the plain norm of the
#   (power-of-two scaled) parts, as in ``make_state``, so each chi / n is
#   finite, and its norm, summed again by the check, lies within about
#   3d u of 1 at worst: inside NORM_TOL for any d up to 10**6.
# - |mu|^2 + |nu|^2 = 1: w is the hypot of the finite weights it divides,
#   at least 2**-1022 on the first path and at least 1/2 on the second,
#   so mu / w and nu / w have a hypot within a few u of 1.
_correlated = _trusted(CorrelatedState)


def _complexes(v: Sequence[complex]) -> tuple[complex, ...]:
    """v as a tuple of complex numbers: v itself if it is a tuple of parts of
    exact type ``complex``."""
    if type(v) is tuple and all(type(c) is complex for c in v):
        return v
    return tuple(map(complex, v))


def _ldexp(z: complex, e: int) -> complex:
    return complex(math.ldexp(z.real, e), math.ldexp(z.imag, e))


def _split(z: complex) -> tuple[complex, int]:
    """(u, e) with z = u * 2**e and u's larger part in [0.5, 1); e = 0 for z = 0."""
    e = math.frexp(max(abs(z.real), abs(z.imag)))[1]
    return _ldexp(z, -e), e


def _weight(z: complex, n: float, scale: float) -> tuple[complex, int]:
    """``_split(z * n * scale)`` without overflow, given ``(n, scale) = _norm(chi)``.

    z is split first, so its product with n stays finite, and above 2**-501
    for z != 0 because n >= 2**-500.
    """
    u, e = _split(z)
    u, e2 = _split(u * n)
    return u, e + e2 + math.frexp(scale)[1] - 1


def _stays_normal(z: complex, folded: complex) -> bool:
    """Whether each nonzero part of z stays normal once folded."""
    return (not z.real or abs(folded.real) >= 2.0**-1022) and (
        not z.imag or abs(folded.imag) >= 2.0**-1022
    )


def make_correlated(
    mu: complex,
    nu: complex,
    chi1: Sequence[complex],
    chi2: Sequence[complex],
    normalize: bool = False,
) -> CorrelatedState:
    """Build a CorrelatedState; optionally rescale it onto the invariants.

    Rescaling folds each chi's norm into its branch weight and then scales
    (mu, nu) to unit combined weight, which leaves the physical ray untouched.
    Weights and chi entries may have any finite size. Zero-norm chi vectors
    (or a combined zero weight) are rejected.
    """
    c1, c2 = _complexes(chi1), _complexes(chi2)
    m, n = complex(mu), complex(nu)
    if normalize:
        n1, scale1 = _norm(c1)
        n2, scale2 = _norm(c2)
        if n1 == 0.0 or n2 == 0.0:
            raise ValueError("chi vectors must have nonzero norm")
        c1 = _unit(c1, n1, scale1)
        c2 = _unit(c2, n2, scale2)
        # Only the ratio of the two weights survives the division by w, so
        # the larger scale is divided out instead of multiplied back in.
        big = max(scale1, scale2)
        f1, f2 = n1 * (scale1 / big), n2 * (scale2 / big)
        fm, fn = m * f1, n * f2
        try:
            w = math.hypot(abs(fm), abs(fn))
        except OverflowError:  # |fm| or |fn| of finite parts overflowed
            w = math.inf
        if (
            min(f1, f2) >= 2.0**-1022
            and 2.0**-1022 <= w < math.inf
            and _stays_normal(m, fm)
            and _stays_normal(n, fn)
        ):
            m, n = fm, fn
        else:
            # A folded weight or w overflowed, or a fold factor, a folded
            # part or w fell below the normal range and kept only a
            # subnormal's bits: carry each weight as u * 2**e instead and
            # divide out the larger e.
            weights = [_weight(m, n1, scale1), _weight(n, n2, scale2)]
            if not any(u for u, _ in weights):
                raise ValueError("mu and nu cannot both vanish")
            top = max(e for u, e in weights if u)
            m, n = (_ldexp(u, e - top) for u, e in weights)
            w = math.hypot(abs(m), abs(n))
        m /= w
        n /= w
        if len(c1) == len(c2) and all(map(cmath.isfinite, (n1, n2, m, n))):
            return _correlated(m, n, c1, c2)
    # The public constructor words every rejection, in its own order.
    return CorrelatedState(m, n, c1, c2)


def embed_correlated(c: CorrelatedState) -> TwoQubitState:
    """Map a correlated state onto the two-qubit form.

    The partner space is reduced to the plane spanned by chi1 and chi2 via
    Gram-Schmidt with e = chi1, f = orthogonalized chi2. The output amplitudes
    are (mu, 0, nu*<e|chi2>, nu*r) with r the residual norm of chi2 off e.
    When chi2 is (numerically) parallel to chi1 the residual amplitude is ~0,
    so the completion direction never shows up in the output.
    """
    # Left-to-right sums, as in ``_sum_squares``.
    overlap = 0j
    for e, x in zip(c.chi1, c.chi2):
        overlap += e.conjugate() * x
    resid = math.sqrt(_sum_squares([x - overlap * e for e, x in zip(c.chi1, c.chi2)]))
    return make_state((c.mu, 0j, c.nu * overlap, c.nu * resid), normalize=True)


@dataclass(frozen=True, slots=True)
class DensityMatrix2:
    """2x2 Hermitian unit-trace density matrix.

    Stored as the two real diagonals and the upper off-diagonal entry; the
    lower one is its conjugate by construction, so Hermiticity is structural.
    """

    rho00: float
    rho01: complex
    rho11: float

    def __post_init__(self):
        object.__setattr__(self, "rho00", float(self.rho00))
        object.__setattr__(self, "rho01", complex(self.rho01))
        object.__setattr__(self, "rho11", float(self.rho11))
        trace = self.rho00 + self.rho11
        if not math.isfinite(trace) or abs(trace - 1.0) > NORM_TOL:
            raise ValueError("trace must be 1")
        if not abs(self.rho01) <= 1.0 or min(self.eigenvalues()) < -NORM_TOL:
            raise ValueError("matrix must be positive semidefinite")

    def eigenvalues(self) -> tuple[float, float]:
        """Eigenvalues in descending order (closed form for 2x2 Hermitian)."""
        mean = 0.5 * (self.rho00 + self.rho11)
        off = math.hypot(0.5 * (self.rho00 - self.rho11), abs(self.rho01))
        return (mean + off, mean - off)


def _invariants(a0, a1, a2, a3):
    """(p0, p1, coherence, determinant) of four amplitudes: complex numbers, or
    ``_Columns`` of n rows each. The imbalance is always p0 - p1."""
    # p0 and p1 group their squares as ``_sum_squares`` does, written out
    # because two calls of it would make this call a third to a half slower.
    return (
        a0.real * a0.real + a0.imag * a0.imag + (a1.real * a1.real + a1.imag * a1.imag),
        a2.real * a2.real + a2.imag * a2.imag + (a3.real * a3.real + a3.imag * a3.imag),
        a2.conjugate() * a0 + a3.conjugate() * a1,
        a1 * a2 - a0 * a3,
    )


class _Columns:
    """Complex numbers of n rows, held as float64 arrays of their parts. It
    reads like ``complex`` (``.real``, ``.imag``, the operators below), so the
    scalar code's expressions run on it unchanged and give each row's Python
    result bit for bit. The operators round as CPython's complex arithmetic
    does (3.11 and 3.12), where numpy's rounds differently on part of the inputs:

    * a * b is (ar*br - ai*bi, ar*bi + ai*br); a real factor f, a float or an
      array, on either side, multiplies as complex(f, 0.0);
    * z / w, for a positive real w, divides by complex(w, 0.0):
      ((x + y*0.0) / w, (y - x*0.0) / w);
    * abs(z) is the C library's hypot, which ``np.hypot`` calls too.

    The zero terms can set the sign of a zero part, so they stay. ``+``,
    ``-``, unary ``-`` and ``conjugate()`` act on the parts.
    """

    __slots__ = ("real", "imag")
    # An ndarray on the left of ``*`` defers to ``__rmul__``.
    __array_ufunc__ = None

    def __init__(self, real, imag):
        self.real, self.imag = real, imag

    def __add__(self, other: _Columns) -> _Columns:
        return _Columns(self.real + other.real, self.imag + other.imag)

    def __sub__(self, other: _Columns) -> _Columns:
        return _Columns(self.real - other.real, self.imag - other.imag)

    def __neg__(self) -> _Columns:
        return _Columns(-self.real, -self.imag)

    def conjugate(self) -> _Columns:
        return _Columns(self.real, -self.imag)

    def __mul__(self, other) -> _Columns:
        re, im = self.real, self.imag
        if isinstance(other, _Columns):
            return _Columns(re * other.real - im * other.imag, re * other.imag + im * other.real)
        return _Columns(re * other - im * 0.0, re * 0.0 + im * other)

    # complex(f, 0.0) * z rounds as z * complex(f, 0.0): each product and sum
    # only swaps its operands.
    __rmul__ = __mul__

    def __truediv__(self, w) -> _Columns:
        return _Columns((self.real + self.imag * 0.0) / w, (self.imag - self.real * 0.0) / w)

    def __abs__(self) -> np.ndarray:
        return np.hypot(self.real, self.imag)


def _each(f: Callable[..., float]) -> Callable[..., np.ndarray]:
    """f over columns of floats, called one value (or one row) at a time: for
    functions of ``math``, whose numpy counterparts round differently."""
    return lambda *columns: np.fromiter(
        map(f, *(c.tolist() for c in columns)), float, len(columns[0])
    )


def _columns(alpha: np.ndarray) -> list[_Columns]:
    """The four amplitudes of n rows, ``(n, 4)``, as ``_Columns``."""
    real, imag = alpha.real, alpha.imag
    return [_Columns(real[:, j], imag[:, j]) for j in range(4)]


class _Rows(NamedTuple):
    """The direct route over n rows of amplitudes: per row, bit for bit,
    ``_invariants``' p0 and p1, ``triad`` (n, 3), ``coords_from_state``
    (n, 5), ``purity(reduced_density_photon(s))`` and the determinant's
    modulus, ``abs(_invariants(*s.alpha)[3])``."""

    p0: np.ndarray
    p1: np.ndarray
    triads: np.ndarray
    coords: np.ndarray
    purity: np.ndarray
    det: np.ndarray


def _invariant_rows(alpha: np.ndarray) -> _Rows:
    """``_invariants`` and what follows from it over rows of amplitudes,
    ``(n, 4)``: the scalar functions, each called once on the rows' ``_Columns``."""
    p0, p1, coherence, det = _invariants(*_columns(alpha))
    triads = np.stack(_triad(p0, p1, coherence, det), 1)
    coords = np.stack(_coords(p0, p1, coherence, det), 1)
    return _Rows(p0, p1, triads, coords, _purity(p0, p1, coherence), abs(det))


# The memo's entries, (state, its ``_invariants``, its triad, its S4Point),
# are read by these indices.
_INVARIANTS, _TRIAD, _COORDS = 1, 2, 3
# The one entry: that of the last state a reader asked about. The state is
# the key, compared by identity; the entry holds it, so its id is not reused
# while it is there. Each entry is one new tuple of its own state's values,
# stored whole in one assignment, so threads need no lock: a thread may
# replace another's entry, and at worst computes again.
_memo: tuple = (None, None, None, None)


def _recall(s: TwoQubitState, k: int):
    """Item k of the memo's entry for s: ``_INVARIANTS``, ``_TRIAD`` or
    ``_COORDS``. When the memo holds another state, one ``_invariants(*s.alpha)``
    call gives the entry's invariants, and their triad and point fill it whole."""
    global _memo
    entry = _memo
    if entry[0] is not s:
        invariants = _invariants(*s.alpha)
        entry = _memo = (s, invariants, _triad(*invariants), _coords(*invariants))
    return entry[k]


def reduced_density_photon(s: TwoQubitState) -> DensityMatrix2:
    """Reduced state of the path qubit (partner traced out).

    The off-diagonal is stored as the coherence term conj(a2)*a0 + conj(a3)*a1.
    """
    p0, p1, coherence, _ = _recall(s, _INVARIANTS)
    return DensityMatrix2(p0, coherence, p1)


def _exchanged(s: TwoQubitState) -> TwoQubitState:
    """The state with the two qubits' roles exchanged: (a0, a2, a1, a3)."""
    a0, a1, a2, a3 = s.alpha
    return _built((a0, a2, a1, a3))


def reduced_density_second(s: TwoQubitState) -> DensityMatrix2:
    """Reduced state of the partner qubit (path qubit traced out).

    The path qubit's reduced state of the exchanged state: populations
    |a0|^2 + |a2|^2 and |a1|^2 + |a3|^2, off-diagonal conj(a1)*a0 + conj(a3)*a2.
    """
    return reduced_density_photon(_exchanged(s))


def visibility(s: TwoQubitState) -> float:
    """Interference-fringe visibility: twice the path-qubit coherence modulus."""
    return triad(s).V


def distinguishability(s: TwoQubitState) -> float:
    """Which-path knowledge: absolute population imbalance of the path qubit."""
    return triad(s).D


def concurrence(s: TwoQubitState) -> float:
    """Entanglement of the pure state: 2|a1*a2 - a0*a3|.

    Equals twice the modulus of the amplitude-matrix determinant, hence 0 for
    product states and 1 for maximally entangled ones.
    """
    return triad(s).C


def triad(s: TwoQubitState) -> DualityTriad:
    """The (V, D, C) triple; satisfies V^2 + D^2 + C^2 = 1."""
    return _recall(s, _TRIAD)


def _triad(p0: float, p1: float, coherence: complex, det: complex) -> DualityTriad:
    """``triad`` of a state whose ``_invariants`` are the arguments."""
    return _new(DualityTriad, (2.0 * abs(coherence), abs(p0 - p1), 2.0 * abs(det)))


def _coords(p0: float, p1: float, coherence: complex, det: complex) -> S4Point:
    """``coords_from_state`` of a state whose ``_invariants`` are the arguments."""
    return _new(
        S4Point,
        (p0 - p1, 2.0 * coherence.real, 2.0 * coherence.imag, 2.0 * det.real, 2.0 * det.imag),
    )


def second_subsystem_triad(s: TwoQubitState) -> DualityTriad:
    """(V', D', C) with the roles of the two qubits exchanged.

    V' and D' are the partner qubit's visibility and distinguishability; C is
    symmetric under the exchange (a2*a1 equals a1*a2 exactly), and
    V'^2 + D'^2 + C^2 = 1 again.
    """
    return triad(_exchanged(s))


def fringe_extrema(s: TwoQubitState) -> tuple[float, float]:
    """Detection-probability extrema over a relative phase applied to |1>.

    p(delta) = |a0 + e^{i delta} a2|^2/2 + |a1 + e^{i delta} a3|^2/2, the
    probability of the symmetric path superposition, is A + B cos(delta - phi)
    exactly. Its intensities at delta = 0, pi/2, pi and 3*pi/2 give A and B,
    as in four-step phase-shifting interferometry (Bruning et al., Appl. Opt.
    13, 2693 (1974); Creath, Progress in Optics 26, 349 (1988)), and this
    returns (p_max, p_min) = (A + B, A - B). No phase is computed. The fringe
    contrast (p_max - p_min)/(p_max + p_min) reproduces ``visibility``.
    """
    p_max, p_min = _fringe(*s.alpha)
    return float(p_max), float(p_min)


def _fringe(a0, a1, a2, a3):
    """``fringe_extrema`` of four amplitudes: complex numbers, or ``_Columns``
    of n rows each. Only +, -, * and ``np.sqrt``, which rounds correctly, act
    on the parts, so each row gets the bits of its complex numbers."""
    # i*z swaps the parts of z and negates one, which is exact.
    i2, i3 = (type(z)(-z.imag, z.real) for z in (a2, a3))
    # p(delta) at delta = 0, pi/2, pi and 3*pi/2.
    p0 = 0.5 * _sum_squares((a0 + a2, a1 + a3))
    p90 = 0.5 * _sum_squares((a0 + i2, a1 + i3))
    p180 = 0.5 * _sum_squares((a0 - a2, a1 - a3))
    p270 = 0.5 * _sum_squares((a0 - i2, a1 - i3))
    mean = (p0 + p90 + p180 + p270) * 0.25
    c, s = p0 - p180, p90 - p270
    amplitude = np.sqrt(c * c + s * s) * 0.5
    return mean + amplitude, mean - amplitude


def purity(rho: DensityMatrix2) -> float:
    """Tr(rho^2); 1 for pure states, 1/2 for the maximally mixed qubit."""
    return _purity(rho.rho00, rho.rho11, rho.rho01)


def _purity(p0: float, p1: float, coherence: complex) -> float:
    """Tr(rho^2) of the path state with populations p0, p1 and ``coherence``."""
    off = abs(coherence)
    return p0 * p0 + p1 * p1 + 2.0 * off * off


@dataclass(frozen=True, slots=True)
class BlochAngles:
    """Polar/azimuthal angles of a single-qubit pure state."""

    theta: float
    phi: float

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError("theta must lie in [0, pi]")
        if not 0.0 <= self.phi < 2.0 * math.pi:
            raise ValueError("phi must lie in [0, 2*pi)")


def bloch_state(b: BlochAngles) -> TwoQubitState:
    """Product state cos(theta/2)|0e> + e^{i phi} sin(theta/2)|1e>.

    Its triad is (sin(theta), |cos(theta)|, 0), so V^2 + D^2 = 1 on the whole
    sphere of such states.
    """
    half = 0.5 * b.theta
    return TwoQubitState(
        (
            complex(math.cos(half)),
            0j,
            cmath.exp(1j * b.phi) * math.sin(half),
            0j,
        )
    )
