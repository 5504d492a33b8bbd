"""Quaternion arithmetic over complex pairs, plus a point at infinity.

A quaternion q = x0 + x1*e1 + x2*e2 + x3*e3 (with e1^2 = e2^2 = e3^2 =
e1*e2*e3 = -1) is stored as the complex pair (z1, z2) with z1 = x0 + x1*i,
z2 = x2 + x3*i and q = z1 + z2*e2. The pair form is canonical; the real
4-tuple is a derived view with an exact round-trip.

The public constructor converts and validates its parts. The pair rules'
results (``*``, ``+`` and ``inverse``), whose parts are already of exact type
``complex``, pass one finiteness test and are built by ``_quaternion``, which
sets the slots directly; a result that fails the test goes to
``Quaternion(z1, z2)``, so it raises the constructor's own message. The
conjugate and the negation of a finite quaternion are finite, and are built
without a test.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

DEFAULT_TOL = 1e-12


@dataclass(frozen=True, slots=True)
class Quaternion:
    """Immutable quaternion z1 + z2*e2.

    Multiplication follows the pair rule
        (a1 + a2*e2)(b1 + b2*e2) = (a1*b1 - a2*conj(b2)) + (a1*b2 + a2*conj(b1))*e2
    which encodes e1*e2 = e3 and the anticommutation of the imaginary units.
    Both factors are quaternions; a scalar c multiplies as ``Quaternion(c)``.

    Parts of exact type ``complex`` are stored as given; any other number is
    stored as ``complex(part)``. Every part must be finite.
    """

    z1: complex = 0j
    z2: complex = 0j

    def __post_init__(self):
        z1, z2 = self.z1, self.z2
        if type(z1) is not complex:
            object.__setattr__(self, "z1", z1 := complex(z1))
        if type(z2) is not complex:
            object.__setattr__(self, "z2", z2 := complex(z2))
        if not (cmath.isfinite(z1) and cmath.isfinite(z2)):
            for part in (z1.real, z1.imag, z2.real, z2.imag):
                if not math.isfinite(part):
                    raise ValueError(f"quaternion components must be finite, got {part!r}")

    @classmethod
    def from_components(cls, x0: float, x1: float, x2: float, x3: float) -> "Quaternion":
        """Build from the real 4-tuple (x0, x1, x2, x3)."""
        return cls(complex(x0, x1), complex(x2, x3))

    def components(self) -> tuple[float, float, float, float]:
        """Real 4-tuple view (exact; no rounding)."""
        return (self.z1.real, self.z1.imag, self.z2.real, self.z2.imag)

    def conjugate(self) -> "Quaternion":
        """Negate the e1, e2, e3 parts: conj(z1 + z2*e2) = conj(z1) - z2*e2."""
        return _quaternion(self.z1.conjugate(), -self.z2)

    def norm_sq(self) -> float:
        return _norm_sq(self.z1, self.z2)

    def norm(self) -> float:
        return math.hypot(self.z1.real, self.z1.imag, self.z2.real, self.z2.imag)

    def inverse(self) -> "Quaternion":
        """Multiplicative inverse conj(q)/|q|^2.

        Where |q|^2 overflows or falls below 2**-1000, and so may have lost
        bits to underflow, q is first scaled by the power of two that brings
        its largest component into [1/2, 1), and the inverse is scaled back.

        Raises ZeroDivisionError on the zero quaternion; mapping that case to
        the point at infinity is the projection layer's job, not the algebra's.
        Raises OverflowError where 1/|q| exceeds the float range.
        """
        n2 = _norm_sq(self.z1, self.z2)
        if 2.0**-1000 <= n2 < math.inf:
            return _result(*_inverse(self.z1, self.z2, n2))
        parts = self.components()
        if not any(parts):
            raise ZeroDivisionError("zero quaternion has no inverse")
        e = math.frexp(max(map(abs, parts)))[1]
        p0, p1, p2, p3 = (math.ldexp(x, -e) for x in parts)
        m2 = p0 * p0 + p1 * p1 + p2 * p2 + p3 * p3
        try:
            return Quaternion.from_components(
                *(math.ldexp(x / m2, -e) for x in (p0, -p1, -p2, -p3))
            )
        except OverflowError:
            raise OverflowError(
                f"1/|q| is out of the float range: |q| = {self.norm()!r}"
            ) from None

    def isclose(self, other: "Quaternion", tol: float = DEFAULT_TOL) -> bool:
        """Componentwise closeness within an absolute tolerance.

        Exact equality is the dataclass ``==``; this is the float-friendly one.
        """
        return (
            abs(self.z1 - other.z1) <= tol and abs(self.z2 - other.z2) <= tol
        )

    def __mul__(self, other):
        if not isinstance(other, Quaternion):
            return NotImplemented
        return _result(*_product(self.z1, self.z2, other.z1, other.z2))

    def __add__(self, other):
        if isinstance(other, Quaternion):
            return _result(self.z1 + other.z1, self.z2 + other.z2)
        return NotImplemented

    def __neg__(self):
        return _quaternion(-self.z1, -self.z2)


# The slots' own setters: the frozen class's __setattr__ refuses.
_new_object, _store_z1, _store_z2 = object.__new__, Quaternion.z1.__set__, Quaternion.z2.__set__


def _quaternion(z1: complex, z2: complex) -> Quaternion:
    """The Quaternion of two finite parts of exact type ``complex``, which is
    what ``Quaternion(z1, z2)`` would store; ``__post_init__`` does not run."""
    q = _new_object(Quaternion)
    _store_z1(q, z1)
    _store_z2(q, z2)
    return q


def _result(z1: complex, z2: complex) -> Quaternion:
    """A pair rule's result from parts of exact type ``complex``: built
    directly when both are finite, else by ``Quaternion(z1, z2)``, which
    raises its ValueError for the first non-finite part."""
    if cmath.isfinite(z1) and cmath.isfinite(z2):
        return _quaternion(z1, z2)
    return Quaternion(z1, z2)


# The pair rules, on complex numbers or on ``states._Columns`` of n rows,
# which round as Python's complex arithmetic does.


def _norm_sq(z1, z2):
    """|z1 + z2*e2|^2, summed left to right."""
    return z1.real * z1.real + z1.imag * z1.imag + z2.real * z2.real + z2.imag * z2.imag


def _inverse(z1, z2, n2) -> tuple:
    """The pair of conj(q)/|q|^2 for q = z1 + z2*e2 with |q|^2 = n2."""
    return z1.conjugate() / n2, -z2 / n2


def _product(a1, a2, b1, b2) -> tuple:
    """The pair of (a1 + a2*e2)(b1 + b2*e2)."""
    return a1 * b1 - a2 * b2.conjugate(), a1 * b2 + a2 * b1.conjugate()


ONE = Quaternion(1 + 0j, 0j)
E1 = Quaternion(1j, 0j)
E2 = Quaternion(0j, 1 + 0j)
E3 = Quaternion(0j, 1j)


class _Infinity:
    """The point at infinity of the extended quaternions.

    A singleton carrying no payload; it never compares equal to a finite
    Quaternion.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return "inf"


INFINITY = _Infinity()

ExtendedQuaternion = Quaternion | _Infinity


def is_infinite(q: ExtendedQuaternion) -> bool:
    return q is INFINITY
