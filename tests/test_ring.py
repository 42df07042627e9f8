"""Unit tests for exact arithmetic in Z[x][a]/(a^2 - a*x - 1)."""
import json
import math
import random
from decimal import Decimal, localcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rjpascal.ring import (
    A,
    ONE,
    X,
    ZERO,
    ExactDivisionError,
    IntPoly,
    RingElem,
    _powers,
    a_pow,
    power,
)

GOLDEN = (1 + math.sqrt(5)) / 2


def random_poly(rng, max_degree=2, bound=9):
    return IntPoly(rng.randint(-bound, bound) for _ in range(rng.randint(0, max_degree) + 1))


def random_elem(rng, max_degree=2, bound=9):
    return RingElem(random_poly(rng, max_degree, bound), random_poly(rng, max_degree, bound))


class TestIntPoly:
    def test_canonical_trailing_zeros(self):
        assert IntPoly((1, 2, 0, 0)).coeffs == (1, 2)
        assert IntPoly((0, 0)).coeffs == ()
        assert IntPoly().is_zero
        assert IntPoly((0,)) == IntPoly()

    def test_int_coercion(self):
        assert IntPoly((3,)) == 3
        assert IntPoly() == 0
        assert IntPoly((0, 1)) + 1 == IntPoly((1, 1))
        assert 2 * X == IntPoly((0, 2))

    def test_evaluate(self):
        p = IntPoly((1, -2, 3))  # 3x^2 - 2x + 1
        assert p(0) == 1
        assert p(2) == 9
        assert p(-1) == 6

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(-2 ** 70, 2 ** 70), max_size=13),
           st.one_of(st.integers(-9, 9), st.integers(0, 200).map(lambda k: 1 << k),
                     st.integers(-2 ** 80, 2 ** 80)))
    def test_evaluate_is_the_sum(self, coeffs, value):
        # powers of two, 1 among them, take the shift; other values the product
        assert IntPoly(coeffs)(value) == sum(c * value ** d for d, c in enumerate(coeffs))

    def test_str(self):
        assert str(IntPoly()) == "0"
        assert str(IntPoly((4, -1, 3))) == "3x^2 - x + 4"
        assert str(X) == "x"
        assert str(IntPoly((0, -1))) == "-x"
        assert str(IntPoly((-7,))) == "-7"


class TestRingElemBasics:
    def test_add_doubling(self):
        assert A + A == RingElem(0, 2)

    def test_add_identity(self):
        rng = random.Random(1)
        for _ in range(50):
            u = random_elem(rng)
            assert u + ZERO == u

    def test_add_cancellation(self):
        # (1 - a) + a = 1
        assert RingElem(1, -1) + A == ONE

    def test_mul_defining_relation(self):
        # a * a = 1 + x*a
        assert A * A == RingElem(1, X)

    def test_mul_identity(self):
        rng = random.Random(2)
        for _ in range(50):
            u = random_elem(rng)
            assert u * ONE == u

    def test_mul_unit_inverse(self):
        # a * (a - x) = 1
        assert A * (A + -X) == ONE

    def test_pow_vs_repeated(self):
        u = RingElem(IntPoly((1, 1)), IntPoly((2,)))
        assert u ** 3 == u * u * u
        assert u ** 0 == ONE
        with pytest.raises(ValueError):
            u ** -1

    def test_mixed_ring_rejected(self):
        with pytest.raises(ValueError):
            A + A.specialize(1)
        with pytest.raises(ValueError):
            A * A.specialize(2)

    def test_eq(self):
        assert a_pow(2) == A * A
        assert A != A.specialize(1)


class TestRingLaws:
    def test_associative_commutative_distributive(self):
        rng = random.Random(31337)
        for _ in range(300):
            u, v, w = (random_elem(rng) for _ in range(3))
            assert u * (v * w) == (u * v) * w
            assert u * v == v * u
            assert u * (v + w) == u * v + u * w

    def test_laws_hold_after_specialization(self):
        rng = random.Random(97)
        for x0 in (0, 1, 5, -2):
            for _ in range(60):
                u, v, w = (random_elem(rng).specialize(x0) for _ in range(3))
                assert u * (v * w) == (u * v) * w
                assert u * (v + w) == u * v + u * w


@pytest.mark.parametrize("e", [0, 1, 2, 3, 5, 8, 13, 255, 256, 1000])
def test_power_starts_from_the_top_bit(e):
    # bitlen(e) - 1 squarings and popcount(e) - 1 products by base, none by one
    calls = []

    def counted(p, q):
        calls.append("square" if p == q else "product" if q == 3 else "other")
        return p * q

    one = object()
    got = power(3, e, one, counted)
    assert got is one if e == 0 else got == 3 ** e
    assert calls.count("square") == max(e.bit_length() - 1, 0)
    assert calls.count("product") == max(bin(e).count("1") - 1, 0)
    assert "other" not in calls


class TestAPow:
    def test_zero_exponent(self):
        assert a_pow(0) == ONE

    def test_negative_one(self):
        # a^-1 = a - x
        assert a_pow(-1) == RingElem(IntPoly((0, -1)), 1)

    def test_negative_two(self):
        # (a - x)^2 reduced: (1 + x^2) - x*a
        assert a_pow(-2) == RingElem(IntPoly((1, 0, 1)), IntPoly((0, -1)))

    @pytest.mark.parametrize("e", range(-10, 11))
    def test_inverse_pairs(self, e):
        assert a_pow(e) * a_pow(-e) == ONE

    def test_exponent_law(self):
        for e in range(-10, 11):
            for f in range(-10, 11):
                assert a_pow(e) * a_pow(f) == a_pow(e + f)


@pytest.mark.parametrize("x", [X, 1, 0, -2, 2 ** 10], ids=str)
def test_powers_are_the_a_pow_run(x):
    """_powers(first, ratio, count, x) is first ratio^k for k < count, on
    IntPoly parts over Z[x] and int parts at an integer x, for several
    first terms and ratios, signs among them (the eigenvalue step, the tie's
    -a, u_1's x - a = -a^-1)."""
    x_image = x if isinstance(x, IntPoly) else IntPoly.const(x)
    part = (lambda p: p) if x is X else IntPoly.constant_value

    def pair(e):
        return part(e.c0), part(e.c1)

    for s, r, sign in [(0, 1, 1), (0, 1, -1), (0, -1, -1), (5, -2, -1), (-3, 2, 1)]:
        first, ratio = pair(a_pow(s, x_image)), pair(a_pow(r, x_image) * sign)
        for count in range(1, 41):
            want = [pair(a_pow(s + r * k, x_image) * sign ** k) for k in range(count)]
            assert _powers(first, ratio, count, x) == want, (s, r, count)


class TestSpecialize:
    def test_substitution(self):
        got = a_pow(-1).specialize(1)
        assert got == RingElem(-1, 1, IntPoly.const(1))
        assert got.c0.degree() <= 0 and got.c1.degree() <= 0

    def test_golden_ratio_relation(self):
        # a^2 at x = 1 is 1 + a
        assert (A * A).specialize(1) == RingElem(1, 1, IntPoly.const(1))

    def test_x_zero_ring(self):
        # at x = 0 the relation is a^2 = 1
        a0 = A.specialize(0)
        assert a0 * a0 == RingElem(1, 0, IntPoly())

    def test_commutes_with_operations(self):
        rng = random.Random(555)
        for x0 in (0, 1, 2, -3):
            for _ in range(80):
                u, v = random_elem(rng), random_elem(rng)
                assert (u + v).specialize(x0) == u.specialize(x0) + v.specialize(x0)
                assert (u * v).specialize(x0) == u.specialize(x0) * v.specialize(x0)
                assert (-u).specialize(x0) == -(u.specialize(x0))

    def test_respecialization_rejected(self):
        u = A.specialize(1)
        assert u.specialize(1) == u
        with pytest.raises(ValueError):
            u.specialize(2)


class TestEvalNumeric:
    """float(RingElem): the value at the positive root, rounded once."""

    def test_golden_ratio(self):
        assert float(A.specialize(1)) == pytest.approx(GOLDEN, abs=1e-15)

    def test_one(self):
        for x in (1, 0, 7, -3):
            assert float(ONE.specialize(x)) == 1.0

    def test_inverse_golden_ratio(self):
        assert float(a_pow(-1, IntPoly.const(1))) == pytest.approx(1 / GOLDEN, abs=1e-15)

    def test_positive_root_choice(self):
        for x in (0, 1, 3, -2, -7):
            a = float(A.specialize(x))
            assert a > 0
            assert a * a == pytest.approx(a * x + 1, abs=1e-12)

    def test_homomorphism_within_tolerance(self):
        rng = random.Random(777)
        for _ in range(300):
            u = random_elem(rng, bound=100).specialize(1)
            v = random_elem(rng, bound=100).specialize(1)
            left = float(u * v)
            right = float(u) * float(v)
            assert abs(left - right) <= 1e-9 * (1 + abs(right))

    def test_generic_element_rejected(self):
        with pytest.raises(ValueError):
            float(A)


#: float(RingElem) must land within one rounding, u|v|, of the value v,
#: up to the 2^-64 relative slack of its guard bits: the per-entry error
#: that spectral.DEFAULT_TOL is derived from.
ONE_ROUNDING = Decimal(2) ** -53 * (1 + Decimal(2) ** -10)
#: Digits for the reference values: cancellation in c0 + c1 a can cost
#: twice the coefficients' length (up to about 170 digits here).
REFERENCE_DIGITS = 600


def assert_one_rounding(f, exact):
    with localcontext() as ctx:
        ctx.prec = REFERENCE_DIGITS
        assert abs(Decimal(f) - exact) <= ONE_ROUNDING * abs(exact), (f, exact)


def decimal_root(x):
    """The positive root of a^2 = a x + 1 to REFERENCE_DIGITS digits."""
    with localcontext() as ctx:
        ctx.prec = REFERENCE_DIGITS
        return (x + Decimal(x * x + 4).sqrt()) / 2


class TestFloatAgainstDecimal:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(-2**200, 2**200), st.integers(-2**200, 2**200),
           st.integers(-7, 7))
    def test_one_rounding(self, c0, c1, x):
        f = float(RingElem(c0, c1, IntPoly.const(x)))
        with localcontext() as ctx:
            ctx.prec = REFERENCE_DIGITS
            exact = c0 + c1 * decimal_root(x)
        if exact == 0:
            assert f == 0.0
        else:
            assert_one_rounding(f, exact)

    @pytest.mark.parametrize("x", range(-7, 8))
    def test_powers_of_a_cancel(self, x):
        # a^e for e < 0 (x > 0) and e > 0 (x < 0) is small, with large
        # coefficients that cancel in c0 + c1 a
        a = decimal_root(x)
        for k in range(201):
            for e in (k, -k):
                with localcontext() as ctx:
                    ctx.prec = REFERENCE_DIGITS
                    exact = a ** e
                assert_one_rounding(float(a_pow(e, IntPoly.const(x))), exact)


class TestDivisionAndExtraction:
    def test_divide_exact_roundtrip(self):
        # Z[x] elements times a nonzero int, divided back by it
        rng = random.Random(4242)
        for _ in range(200):
            u = random_elem(rng)
            d = rng.choice((-1, 1)) * rng.randint(1, 10 ** rng.randint(1, 30))
            assert (u * d).divide_exact(d) == u

    def test_divide_exact_specialized(self):
        rng = random.Random(4343)
        for _ in range(100):
            u = random_elem(rng).specialize(1)
            d = rng.choice((-1, 1)) * rng.randint(1, 5 ** rng.randint(0, 40))
            assert (u * d).divide_exact(d) == u

    def test_divide_inexact_raises(self):
        with pytest.raises(ExactDivisionError, match=r"^a is not divisible by 2$"):
            A.divide_exact(2)
        with pytest.raises(ZeroDivisionError, match="a by 0"):
            A.divide_exact(0)
        with pytest.raises(ZeroDivisionError):
            ZERO.divide_exact(0)

    def test_divide_by_coefficient(self):
        # both parts are divided, here by 5 = N(2 + a) at x = 1
        one = IntPoly.const(1)
        u = RingElem(10, -15, one)
        assert u.divide_exact(5) == RingElem(2, -3, one)
        assert u.divide_exact(-5) == RingElem(-2, 3, one)
        assert ZERO.divide_exact(7) == ZERO
        # over Z[x], every coefficient of c0 and of c1
        v = RingElem(IntPoly((6, 0, -12)), IntPoly((0, 9, 3)))
        assert v.divide_exact(3) == RingElem(IntPoly((2, 0, -4)), IntPoly((0, 3, 1)))
        assert v.divide_exact(-3) == RingElem(IntPoly((-2, 0, 4)), IntPoly((0, -3, -1)))

    def test_divide_by_coefficient_inexact_raises(self):
        one = IntPoly.const(1)
        cases = [
            ((10,), (7,), one),     # only c1 leaves a remainder
            ((7,), (10,), one),     # only c0
            ((5, 0, 5), (5, 3), X), # only c1's x coefficient
            ((5, 5, 2), (5,), X),   # only c0's x^2 coefficient
        ]
        for c0, c1, x_image in cases:
            u = RingElem(IntPoly(c0), IntPoly(c1), x_image)
            with pytest.raises(ExactDivisionError, match="not divisible by 5$") as err:
                u.divide_exact(5)
            assert str(u) in str(err.value)

    def test_divide_exact_takes_an_int(self):
        with pytest.raises(TypeError):
            RingElem(10, 5).divide_exact(IntPoly.const(5))

    def test_norm(self):
        # N(a) = -1, N(1 + a^2) = x^2 + 4
        assert A.norm() == IntPoly((-1,))
        assert (ONE + A * A).norm() == IntPoly((4, 0, 1))

    def test_as_int(self):
        assert RingElem(5).as_int() == 5
        assert ZERO.as_int() == 0
        with pytest.raises(ValueError):
            A.as_int()
        with pytest.raises(ValueError):
            RingElem(X).as_int()


@st.composite
def ring_elems(draw, x_image):
    """Small elements of the ring where x maps to x_image."""
    size = 3 if x_image == X else 1
    parts = [IntPoly(draw(st.lists(st.integers(-9, 9), max_size=size))) for _ in range(2)]
    return RingElem(*parts, x_image)


@st.composite
def same_ring(draw, count):
    """count elements of one ring: Z[x], or x specialized to -2..3."""
    x_image = draw(st.one_of(st.just(X), st.integers(-2, 3).map(IntPoly.const)))
    return tuple(draw(ring_elems(x_image)) for _ in range(count))


class TestRingProperties:
    @settings(max_examples=200, deadline=None)
    @given(same_ring(3))
    def test_ring_axioms(self, elems):
        u, v, w = elems
        assert (u + v) + w == u + (v + w)
        assert (u * v) * w == u * (v * w)
        assert u + v == v + u
        assert u * v == v * u
        assert u * (v + w) == u * v + u * w

    @settings(max_examples=200, deadline=None)
    @given(ring_elems(X), ring_elems(X), st.integers(-2, 3))
    def test_specialize_is_homomorphism(self, u, v, c):
        assert (u + v).specialize(c) == u.specialize(c) + v.specialize(c)
        assert (u * v).specialize(c) == u.specialize(c) * v.specialize(c)

    @settings(max_examples=200, deadline=None)
    @given(same_ring(2))
    def test_conjugate_and_norm(self, elems):
        u, v = elems
        prod = u * u.conjugate()
        assert prod.c1.is_zero
        assert prod == RingElem(u.norm(), 0, u.x_image)
        assert (u * v).norm() == u.norm() * v.norm()


class TestSerialization:
    def test_json_uses_decimal_strings(self):
        u = RingElem(IntPoly((1, -2)), IntPoly((0, 0, 3)))
        obj = u.to_json()
        assert obj == {"c0": ["1", "-2"], "c1": ["0", "0", "3"]}

    def test_json_roundtrip(self):
        # decimal strings keep coefficients far beyond 64 bits exact
        rng = random.Random(88)
        for _ in range(50):
            u = random_elem(rng, bound=10 ** 25)
            packed = json.loads(json.dumps(u.to_json()))
            again = RingElem(IntPoly(map(int, packed["c0"])), IntPoly(map(int, packed["c1"])))
            assert again == u

    def test_str_forms(self):
        assert str(ZERO) == "0"
        assert str(ONE) == "1"
        assert str(A) == "a"
        assert str(-A) == "-a"
        assert str(RingElem(1, -1)) == "1 - a"
        assert str(A * A) == "1 + x·a"
        assert str(a_pow(-2)) == "(x^2 + 1) - x·a"
