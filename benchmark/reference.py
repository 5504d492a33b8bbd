"""Independent reference for the benchmark's output checks.

Nothing here imports qtriad. Two parts:

* The sample stream, rebuilt from the contract documented in
  ``qtriad/sampling.py``: Philox4x64-10 keyed by the seed, sample ``i``
  owning the counter block ``i << 128``, 53-bit uniforms consumed in blocks
  of 16, Marsaglia polar normals and ``math.hypot`` normalization. The
  Philox rounds are written out here in vectorized numpy (Salmon et al.,
  "Parallel random numbers: as easy as 1, 2, 3", SC'11) rather than taken
  from ``numpy.random.Philox``. Only the libm steps (``math.log``,
  ``math.hypot``, ``math.cos``, ``math.sin``) stay scalar, because their
  numpy counterparts round differently and the contract is bit-exact.
* The analysis of an amplitude array ``(N, 4)``: triad, S^4 coordinates,
  ball radius and the tolerance-banded stratum labels, computed with plain
  numpy through the reduced density matrix and the sigma_y x sigma_y
  bilinear form rather than the closed forms the program uses.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_M32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)
_PHILOX_M0 = np.uint64(0xD2E7470EE14C6C93)
_PHILOX_M1 = np.uint64(0xCA5A826395121157)
_PHILOX_W0 = 0x9E3779B97F4A7C15
_PHILOX_W1 = 0xBB67AE8584CAA73B
_PHILOX_ROUNDS = 10
_BLOCK = 16

# The fixed dataset schema and label order (README, "CLI").
COLUMNS = (
    "alpha0_re", "alpha0_im", "alpha1_re", "alpha1_im",
    "alpha2_re", "alpha2_im", "alpha3_re", "alpha3_im",
    "V", "D", "C", "x0", "x1", "x2", "x3", "x4", "radius", "labels",
)
LABEL_ORDER = (
    "Separable", "MaximallyEntangled", "WaveOnly", "ParticleOnly",
    "WaveLess", "ParticleLess", "OnX0Axis", "OnGreatDisc",
)
CLASSIFY_TOL = 1e-9
# A label decision closer than this to its band edge is not compared: the
# program and the reference may round to opposite sides of it.
LABEL_MARGIN = 1e-12

_PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SYY = np.kron(_PAULI_Y, _PAULI_Y)


def _mulhilo(m: np.uint64, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # 64x64 -> 128-bit product from 32-bit halves; uint64 arithmetic wraps.
    m_lo, m_hi = m & _M32, m >> _S32
    x_lo, x_hi = x & _M32, x >> _S32
    ll = m_lo * x_lo
    lh = m_lo * x_hi
    hl = m_hi * x_lo
    hh = m_hi * x_hi
    mid = (ll >> _S32) + (lh & _M32) + (hl & _M32)
    hi = hh + (lh >> _S32) + (hl >> _S32) + (mid >> _S32)
    return hi, m * x


def philox4x64(counter: list[np.ndarray], key: tuple[int, int]) -> list[np.ndarray]:
    """Philox4x64-10 of counter words ``(c0, c1, c2, c3)`` (uint64 arrays)."""
    c0, c1, c2, c3 = counter
    k0, k1 = key
    with np.errstate(over="ignore"):
        for r in range(_PHILOX_ROUNDS):
            if r:
                k0 = (k0 + _PHILOX_W0) & _MASK64
                k1 = (k1 + _PHILOX_W1) & _MASK64
            hi0, lo0 = _mulhilo(_PHILOX_M0, c0)
            hi1, lo1 = _mulhilo(_PHILOX_M1, c2)
            c0, c1, c2, c3 = hi1 ^ c1 ^ np.uint64(k0), lo1, hi0 ^ c3 ^ np.uint64(k1), lo0
    return [c0, c1, c2, c3]


class Stream:
    """Uniform doubles of the seed's stream, per sample index."""

    def __init__(self, seed: int):
        if not 0 <= seed <= _MASK64:
            raise ValueError("seed must fit in 64 unsigned bits")
        self.key = (seed, 0)

    def raw(self, indices: np.ndarray, first_step: int, steps: int) -> np.ndarray:
        """uint64 outputs of counter steps ``first_step .. first_step+steps-1``.

        Row ``n`` is the stream of ``indices[n]``; step ``t`` (counted from 1,
        the generator increments before it generates) has counter words
        ``(t, 0, i mod 2**64, i >> 64)`` and yields four consecutive outputs.
        """
        idx = np.asarray(indices, dtype=np.uint64)
        n = idx.shape[0]
        out = np.empty((n, 4 * steps), dtype=np.uint64)
        zero = np.zeros(n, dtype=np.uint64)
        for s in range(steps):
            ctr = [np.full(n, first_step + s, dtype=np.uint64), zero, idx, zero]
            words = philox4x64(ctr, self.key)
            for j in range(4):
                out[:, 4 * s + j] = words[j]
        return out

    def uniforms(self, indices, first_step: int, steps: int) -> np.ndarray:
        raw = self.raw(indices, first_step, steps)
        return (raw >> np.uint64(11)).astype(np.float64) * (1.0 / 9007199254740992.0)


class _Cursor:
    """Sequential reader over one index's uniforms, fetching more on demand."""

    def __init__(self, stream: Stream, index: int, head: list[float]):
        self.stream = stream
        self.index = index
        self.values = head
        self.pos = 0

    def take(self, k: int) -> list[float]:
        while self.pos + k > len(self.values):
            step = len(self.values) // 4 + 1
            more = self.stream.uniforms(np.array([self.index]), step, 4)
            self.values = self.values + more[0].tolist()
        out = self.values[self.pos:self.pos + k]
        self.pos += k
        return out


def _normals(cur: _Cursor, count: int) -> list[float]:
    # Marsaglia polar over consecutive pairs, read in blocks of 16 uniforms.
    out: list[float] = []
    while len(out) < count:
        block = cur.take(_BLOCK)
        for j in range(0, _BLOCK, 2):
            x = 2.0 * block[j] - 1.0
            y = 2.0 * block[j + 1] - 1.0
            s = x * x + y * y
            if 0.0 < s < 1.0:
                f = math.sqrt(-2.0 * math.log(s) / s)
                out += (x * f, y * f)
                if len(out) >= count:
                    break
    return out[:count]


def _cursors(stream: Stream, indices, head_steps: int):
    head = stream.uniforms(np.asarray(indices), 1, head_steps)
    return [_Cursor(stream, int(i), row) for i, row in zip(indices, head.tolist())]


def _pair(n0, n1, n2, n3) -> tuple[complex, complex]:
    w = math.hypot(n0, n1, n2, n3)
    return complex(n0 / w, n1 / w), complex(n2 / w, n3 / w)


def haar_amplitudes(seed: int, indices) -> np.ndarray:
    """``(N, 4)`` complex amplitudes of the haar ensemble at ``indices``."""
    rows = []
    for cur in _cursors(Stream(seed), indices, 4):
        n = _normals(cur, 8)
        w = math.hypot(*n)
        rows.append([complex(n[2 * k] / w, n[2 * k + 1] / w) for k in range(4)])
    return np.array(rows, dtype=complex).reshape(-1, 4)


def separable_amplitudes(seed: int, indices) -> np.ndarray:
    """``(N, 4)`` amplitudes of the separable ensemble: (a, b) x (c, d)."""
    rows = []
    for cur in _cursors(Stream(seed), indices, 4):
        n = _normals(cur, 8)
        a, b = _pair(*n[:4])
        c, d = _pair(*n[4:])
        rows.append([a * c, a * d, b * c, b * d])
    return np.array(rows, dtype=complex).reshape(-1, 4)


def _unitary(cur: _Cursor) -> tuple[complex, complex, complex, complex]:
    # U(2) Haar element: a uniform phase times the SU(2) matrix of a point on
    # S^3; four normals (one block), then one more uniform for the phase.
    a, b = _pair(*_normals(cur, 4))
    t = 2.0 * math.pi * cur.take(1)[0]
    ph = complex(math.cos(t), math.sin(t))
    return ph * a, -ph * b.conjugate(), ph * b, ph * a.conjugate()


def fixedc_amplitudes(seed: int, indices, c: float) -> np.ndarray:
    """``(N, 4)`` amplitudes of the fixed-concurrence ensemble at level c.

    Schmidt form (l1, 0, 0, l2) with 2*l1*l2 = c, then U x W with two Haar
    unitaries drawn in order from the index's stream (16 + 1 + 16 + 1).
    """
    root = math.sqrt(max(1.0 - c * c, 0.0))
    l1 = math.sqrt(0.5 * (1.0 + root))
    l2 = math.sqrt(max(0.5 * (1.0 - root), 0.0))
    rows = []
    for cur in _cursors(Stream(seed), indices, 12):
        u00, u01, u10, u11 = _unitary(cur)
        w00, w01, w10, w11 = _unitary(cur)
        rows.append([
            l1 * u00 * w00 + l2 * u01 * w01,
            l1 * u00 * w10 + l2 * u01 * w11,
            l1 * u10 * w00 + l2 * u11 * w01,
            l1 * u10 * w10 + l2 * u11 * w11,
        ])
    return np.array(rows, dtype=complex).reshape(-1, 4)


def normalize(raw: np.ndarray) -> np.ndarray:
    """Scale-safe normalization of ``(N, 4)`` amplitudes (rows must be nonzero)."""
    raw = np.asarray(raw, dtype=complex)
    peak = np.abs(raw).max(axis=1, keepdims=True)
    scaled = raw / peak
    return scaled / np.linalg.norm(scaled, axis=1, keepdims=True)


def analyse(alpha: np.ndarray) -> dict[str, np.ndarray]:
    """V, D, C, x0..x4, radius and q2 norm of normalized ``(N, 4)`` amplitudes.

    The path qubit's reduced state is M M^dagger for the amplitude matrix M
    (rows indexed by the path qubit); the e2/e3 block is the bilinear
    invariant psi^T (sigma_y x sigma_y) psi.
    """
    alpha = np.asarray(alpha, dtype=complex).reshape(-1, 4)
    m = alpha.reshape(-1, 2, 2)
    rho = m @ np.conj(np.swapaxes(m, 1, 2))
    bil = np.einsum("ni,ij,nj->n", alpha, _SYY, alpha)
    x0 = (rho[:, 0, 0] - rho[:, 1, 1]).real
    x12 = 2.0 * rho[:, 0, 1]
    out = {
        "V": np.abs(x12),
        "D": np.abs(x0),
        "C": np.abs(bil),
        "x0": x0,
        "x1": x12.real,
        "x2": x12.imag,
        "x3": bil.real,
        "x4": bil.imag,
        "q2": np.sqrt(np.abs(alpha[:, 2]) ** 2 + np.abs(alpha[:, 3]) ** 2),
    }
    out["radius"] = np.sqrt(x0 * x0 + x12.real ** 2 + x12.imag ** 2)
    return out


def labels(v: float, d: float, c: float, tol: float = CLASSIFY_TOL) -> tuple[str, ...] | None:
    """Stratum labels in definition order, or None when a decision sits
    within ``LABEL_MARGIN`` of its band edge."""
    edges = ((c, tol), (c, 1.0 - tol), (v, 1.0 - tol), (d, 1.0 - tol), (v, tol), (d, tol))
    if any(abs(x - e) < LABEL_MARGIN for x, e in edges):
        return None
    on = {
        "Separable": c <= tol,
        "MaximallyEntangled": c >= 1.0 - tol,
        "WaveOnly": v >= 1.0 - tol,
        "ParticleOnly": d >= 1.0 - tol,
        "WaveLess": v <= tol,
        "ParticleLess": d <= tol,
        "OnX0Axis": v <= tol,
        "OnGreatDisc": d <= tol,
    }
    return tuple(name for name in LABEL_ORDER if on[name])
