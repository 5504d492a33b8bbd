import math

import numpy as np
import pytest

from qtriad.quaternion import E1, E2, E3, INFINITY, ONE, Quaternion, is_infinite

RNG = np.random.default_rng(101)


def random_quaternion(scale=1.0):
    return Quaternion.from_components(*(scale * RNG.normal(size=4)))


def left_matrix(q):
    # 4x4 real left-multiplication representation: left_matrix(q) @ vec(r) = vec(q*r)
    w, x, y, z = q.components()
    return np.array(
        [
            [w, -x, -y, -z],
            [x, w, -z, y],
            [y, z, w, -x],
            [z, -y, x, w],
        ]
    )


def as_vec(q):
    return np.array(q.components())


def test_basis_multiplication_table():
    assert (ONE + E1) * (ONE + E2) == ONE + E1 + E2 + E3
    assert E1 * E2 == E3
    assert E2 * E1 == -E3
    assert E2 * E3 == E1
    assert E3 * E1 == E2
    for e in (E1, E2, E3):
        assert e * e == -ONE


def test_inverse_of_half_unit_quaternion_against_matrix_oracle():
    q = Quaternion.from_components(0.5, 0.5, 0.5, 0.5)
    inv = q.inverse()
    assert (q * inv).isclose(ONE, 1e-14)
    oracle = left_matrix(q) @ as_vec(inv)
    assert np.max(np.abs(oracle - as_vec(ONE))) < 1e-14


def test_product_matches_matrix_oracle():
    for _ in range(300):
        a = random_quaternion()
        b = random_quaternion()
        oracle = left_matrix(a) @ as_vec(b)
        assert np.max(np.abs(oracle - as_vec(a * b))) < 1e-12


def test_conjugation_fixed_points_and_flips():
    assert ONE.conjugate() == ONE
    assert E2.conjugate() == -E2
    assert Quaternion(2 + 0j).conjugate() == Quaternion(2 + 0j)


def test_q_times_conjugate_is_norm_squared():
    for _ in range(1000):
        q = random_quaternion()
        prod = q * q.conjugate()
        assert abs(prod.z1 - q.norm_sq()) < 1e-12 * max(1.0, q.norm_sq())
        assert abs(prod.z2) < 1e-12 * max(1.0, q.norm_sq())


def test_inverse_examples():
    assert E2.inverse().isclose(-E2, 1e-15)
    assert Quaternion(2 + 0j).inverse().isclose(Quaternion(0.5 + 0j), 1e-15)
    q = ONE + E3
    assert (q * q.inverse()).isclose(ONE, 1e-15)
    expected = Quaternion.from_components(0.5, 0.0, 0.0, -0.5)  # (1 - e3)/2
    assert q.inverse().isclose(expected, 1e-15)


def test_zero_quaternion_inverse_is_domain_error():
    with pytest.raises(ZeroDivisionError):
        Quaternion(0j, 0j).inverse()


@pytest.mark.parametrize("x", [1e200, 1e-200, 3e-162, 1e-170])
def test_inverse_where_norm_sq_overflows_or_underflows(x):
    assert Quaternion(x).inverse().z1.real == pytest.approx(1.0 / x, rel=1e-15)
    q = Quaternion(complex(x, -0.5 * x), complex(0.25 * x, 2.0 * x))
    assert (q * q.inverse()).isclose(ONE, 1e-15)


def test_inverse_beyond_float_range_is_overflow():
    with pytest.raises(OverflowError, match="out of the float range"):
        Quaternion(5e-324).inverse()


def test_norm_examples():
    assert Quaternion(0j, 0j).norm() == 0.0
    assert Quaternion.from_components(1, 1, 1, 1).norm() == 2.0


def test_norm_multiplicativity():
    for _ in range(1000):
        a = random_quaternion()
        b = random_quaternion()
        lhs = (a * b).norm()
        rhs = a.norm() * b.norm()
        assert abs(lhs - rhs) <= 1e-13 * max(1.0, rhs)


def test_associativity():
    for _ in range(300):
        a, b, c = (random_quaternion() for _ in range(3))
        lhs = (a * b) * c
        rhs = a * (b * c)
        scale = max(1.0, lhs.norm())
        assert lhs.isclose(rhs, 1e-13 * scale)


def test_anticommutation_witness_exact():
    assert E1 * E2 == -(E2 * E1)


def test_complex_embedding_is_exact():
    for _ in range(300):
        z = complex(*RNG.normal(size=2))
        w = complex(*RNG.normal(size=2))
        prod = Quaternion(z) * Quaternion(w)
        assert prod.z1 == z * w
        assert prod.z2 == 0j


def test_conjugation_antiautomorphism():
    for _ in range(300):
        a = random_quaternion()
        b = random_quaternion()
        lhs = (a * b).conjugate()
        rhs = b.conjugate() * a.conjugate()
        assert lhs.isclose(rhs, 1e-13 * max(1.0, lhs.norm()))


def test_component_roundtrip_is_exact():
    for _ in range(100):
        x = tuple(RNG.normal(size=4))
        assert Quaternion.from_components(*x).components() == x


def test_only_quaternions_multiply():
    q = random_quaternion()
    for product in (lambda: q * 2.0, lambda: 2.0 * q, lambda: q * 1j, lambda: 2 * q):
        with pytest.raises(TypeError):
            product()


def test_only_quaternions_add():
    q = random_quaternion()
    for total in (lambda: q + 1.0, lambda: 1.0 + q, lambda: q + 1j, lambda: q + (1, 0)):
        with pytest.raises(TypeError):
            total()


def test_equality_exact_vs_tolerance():
    q = Quaternion(1 + 0j, 0j)
    nudged = Quaternion(1 + 1e-13 + 0j, 0j)
    assert q != nudged
    assert q.isclose(nudged)
    assert not q.isclose(nudged, 1e-14)


def test_nonfinite_components_rejected():
    # Each component in turn, given as a complex part and, where it is a real
    # part, as a float; the error names the value.
    for position in range(4):
        for bad in (math.nan, math.inf, -math.inf):
            parts = [0.5, -1.0, 2.0, 0.0]
            parts[position] = bad
            z1, z2 = complex(parts[0], parts[1]), complex(parts[2], parts[3])
            calls = [lambda: Quaternion(z1, z2), lambda: Quaternion.from_components(*parts)]
            if position % 2 == 0:
                floats = [1.0, 1.0]
                floats[position // 2] = bad
                calls.append(lambda: Quaternion(*floats))
            for call in calls:
                with pytest.raises(ValueError, match=f"must be finite, got {bad!r}$"):
                    call()
    # Components are checked in the order x0, x1, x2, x3.
    with pytest.raises(ValueError, match=r"got -inf$"):
        Quaternion.from_components(1.0, -math.inf, math.nan, math.inf)
    with pytest.raises(ValueError, match=r"got nan$"):
        Quaternion.from_components(0.0, 0.0, math.nan, math.inf)


class _ComplexSubclass(complex):
    pass


@pytest.mark.parametrize(
    "value",
    [
        3,
        -0.0,
        2.5,
        True,
        np.float64(-1.25),
        np.complex128(0.5 - 2j),
        _ComplexSubclass(-0.0, 4.0),
    ],
    ids=lambda v: type(v).__name__,
)
def test_parts_are_stored_as_exact_complex(value):
    for q, part in ((Quaternion(value), "z1"), (Quaternion(0j, value), "z2")):
        stored = getattr(q, part)
        assert type(stored) is complex
        # repr keeps the sign of a zero.
        assert repr(stored) == repr(complex(value))


def test_exact_complex_parts_are_stored_as_given():
    z1, z2 = complex(0.25, -3.0), complex(-0.0, 1e-300)
    q = Quaternion(z1, z2)
    assert q.z1 is z1 and q.z2 is z2


def test_default_quaternion_is_zero():
    q = Quaternion()
    assert (q.z1, q.z2) == (0j, 0j)
    assert type(q.z1) is complex and type(q.z2) is complex
    assert repr(q) == "Quaternion(z1=0j, z2=0j)"


def test_infinity_is_distinct_singleton():
    assert is_infinite(INFINITY)
    assert not is_infinite(ONE)
    assert INFINITY != ONE
    assert repr(INFINITY) == "inf"
