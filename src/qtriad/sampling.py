"""Deterministic, seedable state ensembles.

Reproducibility contract
------------------------
Sample ``i`` of a run is a pure function of ``(seed, i)``:

* Randomness is Philox4x64-10 (Salmon et al., "Parallel random numbers: as
  easy as 1, 2, 3", SC'11) keyed by the 64-bit seed: key words
  ``(seed, 0)``, and sample ``i`` owns the counter block starting at
  ``i * 2**128``, so its t-th draw of four words (t = 1, 2, ...) has counter
  words ``(t, 0, i mod 2**64, i >> 64)``. Streams never overlap and any
  subset of indices can be generated independently, in any order, on any
  number of workers.
* Uniform doubles are the 53-bit variates ``(word >> 11) * 2**-53``.
* Normal variates use the Marsaglia polar method: consecutive uniform pairs
  (u, v) are mapped to (2u-1, 2v-1), rejected unless 0 < s = x^2+y^2 < 1, and
  accepted pairs yield (x, y) * sqrt(-2 ln(s)/s). Uniforms are consumed in
  blocks of 16.
* Neither the key nor the counter carries the ensemble: the haar and the
  separable state at one ``(seed, i)`` are built from the same eight normals,
  and a fixedc state's first 16 uniforms are the haar state's too. Datasets
  of different ensembles that must be independent need different seeds.

The streams are computed in this package, a block of ``_BLOCK`` (1024)
consecutive indices at a time, with the Philox rounds, the uniforms and the
polar acceptance as array code (``_draws``); ``_assemble`` builds one
ensemble's amplitudes from a block's draw, and ``_blocks`` is the two in turn.
``verify`` draws each block once, as haar's draw, assembles its haar and then
its separable states from it, and checks each as it is assembled.
``tests/test_sampling.py`` pins the words and uniforms to
``numpy.random.Philox`` and ``Generator.random``. The per-index functions
(``haar_state`` and the rest) draw from ``numpy.random.Philox`` itself.
``fixed_concurrence_state`` takes its 34 uniforms (16 + 1 + 16 + 1, as in
``_LAYOUT``) in one ``Generator.random`` call: Philox's words are a function
of key and counter alone, so they are the words that drawing the four parts
in turn gives. Where either 16-uniform block holds fewer than two accepted
pairs, it draws the index again in turn from a fresh generator, which goes on
past the 34. The batched stream hands the per-index functions every index
whose first 16-uniform block has too few accepted pairs, and the two agree
bit for bit. Both take the seed by one rule (``_seed``): an integer in
[0, 2**64).

A block's amplitudes come from the per-index builders' own expressions
(``_haar``, ``_separable``, ``_rotated_schmidt``), run on columns of the
drawn values: complex numbers are ``states._Columns``, which round as
Python's complex arithmetic does (see there), and ``math.log``,
``math.hypot``, ``math.cos`` and ``math.sin`` are called one value (or one
row) at a time on both paths, because their numpy counterparts round
differently. ``TwoQubitState``'s norm gate then runs once, per block, as
arrays, and the sampled states (``_stream``) are a view of the admitted
blocks: each row's ``TwoQubitState`` is built without running the gate
again (``states._admitted``). The per-index functions build their states
through ``states._built`` too, without the gate: their amplitudes are unit
vectors over ``math.hypot``, or products of them, well inside its band
(see there). A block still gates the rows they give it. The same
(seed, index) therefore reproduces the same state bit for bit in every run,
and on every platform whose numpy and whose ``math.log``, ``math.hypot``,
``math.cos`` and ``math.sin`` agree.

Ensembles
---------
haar        4 complex amplitudes from 8 normals, normalized (unitarily
            invariant measure on pure states).
separable   product of two independent single-qubit Haar states.
fixedc      Schmidt-form state with concurrence C, randomized by independent
            Haar single-qubit unitaries on both factors.
"""

from __future__ import annotations

import math
import numbers
import operator
import threading
from dataclasses import dataclass
from functools import lru_cache, partial
from types import SimpleNamespace
from typing import Callable, Iterator

import numpy as np

from .classify import shell_radius
from .states import (
    BlochAngles,
    TwoQubitState,
    _admitted,
    _built,
    _Columns,
    _each,
    _gate,
    bloch_state,
)

HAAR = "haar"
SEPARABLE = "separable"
FIXED_CONCURRENCE = "fixedc"

ENSEMBLES = (HAAR, SEPARABLE, FIXED_CONCURRENCE)

_MAX_SEED = 2**64 - 1

# Indices per batched kernel call, and the rows of each chunk ``verify``
# checks. It bounds the working arrays, and with them the memory a stream of
# any length needs. Each block costs fixed work beyond its rows': every
# Philox round and array pass starts afresh, and each verify check evaluates
# its scalar route once more at the block's witness (about 0.3 ms of CPU
# time per block in all). On a 2-core x86_64 machine, haar's
# ``_philox_words`` took 2.5 us/state of CPU time at 256 rows and 1.0 at
# 1024 (best of 30), and verify at 8000 states took about 15% more CPU time
# in 256-row chunks than in one whole-sample chunk, and 3.6% more in
# 1024-row chunks (best of 8).
_BLOCK = 1024

# Philox4x64 round multipliers and key-schedule increments.
_PHILOX_M0 = 0xD2E7470EE14C6C93
_PHILOX_M1 = 0xCA5A826395121157
_PHILOX_W0 = 0x9E3779B97F4A7C15
_PHILOX_W1 = 0xBB67AE8584CAA73B
_PHILOX_ROUNDS = 10
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_SHIFT11 = np.uint64(11)


@dataclass(frozen=True, slots=True)
class SampleSpec:
    """What to sample: ensemble, size, and the stream seed.

    ``c`` is the concurrence of ``fixedc``, a real number in [0, 1] that is
    stored as a ``float``; the other ensembles take none.
    """

    count: int
    seed: int
    ensemble: str
    c: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "count", _count(self.count))
        object.__setattr__(self, "seed", _seed(self.seed))
        if self.ensemble not in ENSEMBLES:
            raise ValueError(f"unknown ensemble {self.ensemble!r}")
        if self.ensemble != FIXED_CONCURRENCE:
            if self.c is not None:
                raise ValueError(f"{self.ensemble} takes no concurrence c")
            return
        object.__setattr__(self, "c", _concurrence(self.c))


def _count(count) -> int:
    # The one rule for a sample count: an integer of at least 1, as an int.
    try:
        count = operator.index(count)
    except TypeError:
        raise ValueError("count must be an integer") from None
    if count < 1:
        raise ValueError("count must be at least 1")
    return count


def _seed(seed) -> int:
    # The one rule for a stream seed, the Philox key word: an integer in
    # [0, 2**64), as an int (the key arithmetic needs ints, not numpy's).
    try:
        seed = operator.index(seed)
    except TypeError:
        raise ValueError("seed must be an integer") from None
    if not 0 <= seed <= _MAX_SEED:
        raise ValueError("seed must fit in 64 unsigned bits")
    return seed


def _concurrence(c) -> float:
    # The one rule for a fixedc concurrence: a real number in [0, 1], as a float.
    # float is tried first: the check against the numbers.Real ABC alone took
    # 0.6 us on a 2-core x86_64 machine, once per state where ``shells`` draws
    # per index.
    if not isinstance(c, (float, numbers.Real)) or not 0.0 <= c <= 1.0:
        raise ValueError("fixedc requires a real concurrence c in [0, 1]")
    return float(c)


class Samples:
    """Sized, re-iterable states that are drawn on every pass, never stored.

    ``len`` is known up front; each iteration draws the states afresh, so a
    dataset of any size streams through ``emit_dataset`` in bounded memory.
    """

    __slots__ = ("_count", "_draw")

    def __init__(self, count: int, draw: Callable[[], Iterator[TwoQubitState]]):
        self._count = count
        self._draw = draw

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[TwoQubitState]:
        return self._draw()


# ------------------------------------------------------------ per-index path


_per_thread = threading.local()


def _substream(seed: int, index: int) -> np.random.Generator:
    """``Generator(Philox(key=seed, counter=index << 128))``, valid until the
    calling thread's next ``_substream`` call.

    Each thread resets one generator instead of building one per index:
    building costs about 20 us, half of it a seed sequence that gathers OS
    entropy only for the key to override it; the reset, from Python int
    lists, costs about 1.2 us (x86_64, numpy 2.4). The thread keeps the
    state dict too and rewrites only its seed and index words, which saves
    about 0.45 us of building it afresh.
    """
    try:
        seed, index = _seed(operator.index(seed)), operator.index(index)
    except TypeError:
        raise ValueError("seed and index must be integers") from None
    if not 0 <= index < 2**128:
        raise ValueError("index must lie in [0, 2**128)")
    reset = getattr(_per_thread, "reset", None)
    if reset is None:
        # Philox's state setter reads each of these lists element by element,
        # into its uint64 words: no arrays need to be made.
        reset = _per_thread.reset = np.random.Generator(np.random.Philox(0)), {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": [0, 0]},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,  # empty: the first draw steps the counter to 1
            "has_uint32": 0,
            "uinteger": 0,
        }
    gen, state = reset
    words = state["state"]
    words["counter"][2:] = index & _MAX_SEED, index >> 64
    words["key"][0] = seed
    gen.bit_generator.state = state
    return gen


def _polar_block(u: list[float], start: int, count: int, out: list[float]) -> list[float]:
    """``out`` with the normals of the accepted polar pairs among the 16
    uniforms ``u[start : start + 16]`` appended, until it holds ``count``."""
    for j in range(start, start + 16, 2):
        x = 2.0 * u[j] - 1.0
        y = 2.0 * u[j + 1] - 1.0
        s = x * x + y * y
        if 0.0 < s < 1.0:
            f = math.sqrt(-2.0 * math.log(s) / s)
            out.append(x * f)
            out.append(y * f)
            if len(out) >= count:
                break
    return out


def _polar_normals(gen: np.random.Generator, count: int) -> list[float]:
    # Marsaglia polar rejection over consecutive 16-uniform blocks; count is
    # even, so the last accepted pair fills it exactly.
    out: list[float] = []
    while len(out) < count:
        _polar_block(gen.random(16).tolist(), 0, count, out)
    return out


# State assembly from drawn normals (and phase uniforms), one source for both
# paths: ``k`` is the namespace of primitives it computes with. The per-index
# functions run it on one index's floats (``_SCALARS``); ``_assemble`` runs it
# on a block's columns of them (``_COLUMNS``).


_SCALARS = SimpleNamespace(complex=complex, hypot=math.hypot, cos=math.cos, sin=math.sin)
_COLUMNS = SimpleNamespace(
    complex=_Columns, hypot=_each(math.hypot), cos=_each(math.cos), sin=_each(math.sin)
)


def _haar(k, n: list) -> tuple:
    """Haar amplitudes in C^d from 2d normals: their complex pairs over their
    norm."""
    w = k.hypot(*n)
    if len(n) == 4:
        # A qubit, unrolled: the per-index fixedc path draws two per state.
        return k.complex(n[0], n[1]) / w, k.complex(n[2], n[3]) / w
    pairs = iter(n)
    return tuple(k.complex(x, y) / w for x, y in zip(pairs, pairs))


def _separable(k, n: list) -> tuple:
    a, b = _haar(k, n[:4])
    c, d = _haar(k, n[4:8])
    return a * c, a * d, b * c, b * d


def _qubit_unitary(k, n: list, u) -> tuple:
    # Haar on U(2): uniform phase times an SU(2) element built from a point
    # on S^3. Returned row-major as (u00, u01, u10, u11).
    a, b = _haar(k, n)
    t = 2.0 * math.pi * u
    phase = k.complex(k.cos(t), k.sin(t))
    return (phase * a, -phase * b.conjugate(), phase * b, phase * a.conjugate())


@lru_cache(maxsize=8)
def _schmidt_weights(c: float) -> tuple[float, float]:
    """(lambda1, lambda2) with 2*lambda1*lambda2 = c, a ``_concurrence`` float;
    kept for the last few c, as ``shells`` draws a whole level at one c."""
    root = shell_radius(c)
    return math.sqrt(0.5 * (1.0 + root)), math.sqrt(0.5 * (1.0 - root))


def _rotated_schmidt(k, lam1: float, lam2: float, u: list, w: list, u_phase, w_phase) -> tuple:
    """(U x W) applied to (lam1, 0, 0, lam2), with U and W built from their
    four normals and their phase uniform each."""
    u00, u01, u10, u11 = _qubit_unitary(k, u, u_phase)
    w00, w01, w10, w11 = _qubit_unitary(k, w, w_phase)
    return (
        lam1 * u00 * w00 + lam2 * u01 * w01,
        lam1 * u00 * w10 + lam2 * u01 * w11,
        lam1 * u10 * w00 + lam2 * u11 * w01,
        lam1 * u10 * w10 + lam2 * u11 * w11,
    )


def haar_state(seed: int, index: int) -> TwoQubitState:
    """Haar-random two-qubit pure state for the given stream index."""
    return _built(_haar(_SCALARS, _polar_normals(_substream(seed, index), 8)))


def separable_state(seed: int, index: int) -> TwoQubitState:
    """Product of two independent Haar single-qubit states."""
    return _built(_separable(_SCALARS, _polar_normals(_substream(seed, index), 8)))


def fixed_concurrence_state(seed: int, index: int, c: float) -> TwoQubitState:
    """Random state of concurrence c.

    C equals c to a few ulps for c near 1. At small c the Schmidt weight
    lambda2 = sqrt((1 - sqrt(1 - c^2)) / 2) cancels: below c ~ 1e-4, C's
    relative error is of order 2**-53 / c**2 (4.4e-5 at c = 1e-6, and C is
    0.0 at c = 1e-9).

    Starts from the Schmidt form lambda1*|0e> + lambda2*|1f> with
    2*lambda1*lambda2 = c and applies independent Haar unitaries to both
    qubits, which moves the state around its shell without changing C.

    U and W each take 16 uniforms for their normals and one for their phase,
    all 34 drawn in one call. If either block of 16 holds fewer than two
    accepted polar pairs, the index is drawn again from a fresh generator,
    one part at a time, so that the short block draws on as ``_polar_normals``
    does; both ways give the same uniforms in the same order.
    """
    lam1, lam2 = _schmidt_weights(_concurrence(c))
    # At _LAYOUT[FIXED_CONCURRENCE]'s offsets: U's block at 0 and its phase
    # at 16, W's block at 17 and its phase at 33.
    r = _substream(seed, index).random(34).tolist()
    u, w = _polar_block(r, 0, 4, []), _polar_block(r, 17, 4, [])
    if len(u) == len(w) == 4:
        u_phase, w_phase = r[16], r[33]
    else:
        gen = _substream(seed, index)
        u, u_phase = _polar_normals(gen, 4), gen.random()
        w, w_phase = _polar_normals(gen, 4), gen.random()
    return _built(_rotated_schmidt(_SCALARS, lam1, lam2, u, w, u_phase, w_phase))


# -------------------------------------------------------------- batched path


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products m * x, from 32-bit halves."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo, x_hi = x & _LOW32, x >> _SHIFT32
    # Neither partial sum can pass 2**64.
    t = m_lo * x_hi + ((m_lo * x_lo) >> _SHIFT32)
    u = m_hi * x_lo + (t & _LOW32)
    return m_hi * x_hi + (t >> _SHIFT32) + (u >> _SHIFT32), x * np.uint64(m)


def _philox_words(seed: int, start: int, n: int, steps: int) -> np.ndarray:
    """``(n, 4*steps)`` uint64: row r holds the first ``steps`` counter
    blocks' outputs of index ``start + r``, in the order they are drawn."""
    lo = np.uint64(start & _MAX_SEED)
    index_lo = np.arange(n, dtype=np.uint64) + lo  # wraps mod 2**64
    index_hi = (index_lo < lo) + np.uint64(start >> 64)
    c0 = np.tile(np.arange(1, steps + 1, dtype=np.uint64), n)
    c1 = np.zeros_like(c0)
    c2 = np.repeat(index_lo, steps)
    c3 = np.repeat(index_hi, steps)
    k0, k1 = seed, 0
    for _ in range(_PHILOX_ROUNDS):
        hi0, lo0 = _mulhilo(_PHILOX_M0, c0)
        hi1, lo1 = _mulhilo(_PHILOX_M1, c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ np.uint64(k0), lo1, hi0 ^ c3 ^ np.uint64(k1), lo0
        k0 = (k0 + _PHILOX_W0) & _MAX_SEED
        k1 = (k1 + _PHILOX_W1) & _MAX_SEED
    return np.stack((c0, c1, c2, c3), axis=1).reshape(n, 4 * steps)


def _uniforms(words: np.ndarray) -> np.ndarray:
    return (words >> _SHIFT11).astype(np.float64) * 2.0**-53


def _accepted_normals(u: np.ndarray, blocks) -> tuple[np.ndarray, np.ndarray]:
    """Rows whose 16-uniform blocks each hold enough accepted polar pairs,
    and those rows' normals: the first ``pairs`` accepted pairs of each
    ``(offset, pairs)`` block, in draw order."""
    ok = np.ones(len(u), dtype=bool)
    parts = []
    for offset, pairs in blocks:
        x = 2.0 * u[:, offset : offset + 16 : 2] - 1.0
        y = 2.0 * u[:, offset + 1 : offset + 16 : 2] - 1.0
        s = x * x + y * y
        accepted = (0.0 < s) & (s < 1.0)
        rank = np.cumsum(accepted, axis=1)
        ok &= rank[:, -1] >= pairs
        parts.append((x, y, s, accepted & (rank <= pairs), pairs))
    normals = []
    for x, y, s, first, pairs in parts:
        first &= ok[:, None]
        s = s[first]
        log_s = _each(math.log)(s)
        f = np.sqrt(-2.0 * log_s / s)
        pair = np.stack((x[first] * f, y[first] * f), axis=1)
        normals.append(pair.reshape(-1, 2 * pairs))
    return ok, np.concatenate(normals, axis=1)


# What one index draws, per ensemble: Philox counter steps (four words
# each), the (offset, accepted pairs) of each 16-uniform polar block, and the
# offsets of the single uniforms that set unitary phases. fixedc draws 16
# uniforms for U's normals, 1 for its phase, then the same for W.
_LAYOUT = {
    HAAR: (4, ((0, 4),), []),
    SEPARABLE: (4, ((0, 4),), []),
    FIXED_CONCURRENCE: (9, ((0, 2), (17, 2)), [16, 33]),
}


def _pack(*amplitudes: _Columns) -> np.ndarray:
    """(n, 4) complex rows from four columns of amplitudes."""
    return np.stack([part for a in amplitudes for part in (a.real, a.imag)], 1).view(complex)


def _draws(spec: SampleSpec, start: int = 0) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """What ``spec``'s ensemble draws at indices ``start .. start + spec.count
    - 1``, a block of ``_BLOCK`` indices (the last may be shorter) at a time:
    ``(first, ok, normals)``, the block's first index, its rows whose 16-uniform
    blocks hold enough accepted pairs, and those rows' normals (then phase
    uniforms)."""
    steps, blocks, phases = _LAYOUT[spec.ensemble]
    stop = start + spec.count
    for first in range(start, stop, _BLOCK):
        n = min(_BLOCK, stop - first)
        u = _uniforms(_philox_words(spec.seed, first, n, steps))
        ok, normals = _accepted_normals(u, blocks)
        if phases:
            normals = np.concatenate((normals, u[ok][:, phases]), axis=1)
        yield first, ok, normals


def _assemble(spec: SampleSpec, draw: tuple[int, np.ndarray, np.ndarray]) -> np.ndarray:
    """The ``(n, 4)`` complex amplitudes of ``spec``'s ensemble from one block's
    draw, admitted by the norm gate. haar and separable draw alike, so a haar
    draw assembles as either."""
    seed = spec.seed
    if spec.ensemble == HAAR:
        build, fallback = partial(_haar, _COLUMNS), partial(haar_state, seed)
    elif spec.ensemble == SEPARABLE:
        build, fallback = partial(_separable, _COLUMNS), partial(separable_state, seed)
    else:
        c = spec.c
        lam1, lam2 = _schmidt_weights(c)
        build = lambda r: _rotated_schmidt(_COLUMNS, lam1, lam2, r[0:4], r[4:8], r[8], r[9])
        fallback = lambda i: fixed_concurrence_state(seed, i, c)
    first, ok, normals = draw
    alpha = np.empty((len(ok), 4), complex)
    alpha[ok] = _pack(*build(list(normals.T)))
    # A row with a 16-uniform block short of accepted pairs comes from the
    # per-index function, which draws on from its own generator.
    for r in np.flatnonzero(~ok).tolist():
        alpha[r] = fallback(first + r).alpha
    _gate(alpha)
    return alpha


def _blocks(spec: SampleSpec, start: int = 0) -> Iterator[np.ndarray]:
    """Amplitudes of ``spec`` at indices ``start .. start + spec.count - 1``,
    as ``(n, 4)`` complex blocks of ``_BLOCK`` rows (the last may be shorter)."""
    return map(partial(_assemble, spec), _draws(spec, start))


def _stream(spec: SampleSpec, start: int = 0) -> Iterator[TwoQubitState]:
    """States of ``spec`` at indices ``start .. start + spec.count - 1``."""
    for alpha in _blocks(spec, start):
        yield from _admitted(alpha)


def bloch_grid_states(count: int) -> list[TwoQubitState]:
    """Deterministic theta grid over [0, pi] at phi = 0 (product states)."""
    count = _count(count)
    if count == 1:
        return [bloch_state(BlochAngles(0.0, 0.0))]
    step = math.pi / (count - 1)
    return [bloch_state(BlochAngles(min(i * step, math.pi), 0.0)) for i in range(count)]


def sample_haar(spec: SampleSpec) -> list[TwoQubitState]:
    if spec.ensemble != HAAR:
        raise ValueError("spec.ensemble must be 'haar'")
    return list(_stream(spec))


def sample_separable(spec: SampleSpec) -> list[TwoQubitState]:
    if spec.ensemble != SEPARABLE:
        raise ValueError("spec.ensemble must be 'separable'")
    return list(_stream(spec))


def sample_fixed_concurrence(spec: SampleSpec) -> list[TwoQubitState]:
    if spec.ensemble != FIXED_CONCURRENCE:
        raise ValueError("spec.ensemble must be 'fixedc'")
    return list(_stream(spec))


def sample(spec: SampleSpec) -> Samples:
    """The spec's states as a lazy ``Samples`` stream."""
    return Samples(spec.count, lambda: _stream(spec))
