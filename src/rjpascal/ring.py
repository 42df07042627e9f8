"""Exact arithmetic in the quadratic extension ring Z[x][a] / (a^2 - a*x - 1).

Elements are written c0 + c1*a with c0, c1 univariate integer polynomials
in x.  The defining relation a^2 = a*x + 1 is applied eagerly, so the
degree in a never exceeds 1 and equality is plain structural equality.
a is a unit: a^-1 = a - x, because a*(a - x) = a^2 - a*x = 1.

Every element remembers the image of x in its coefficient ring: the
indeterminate itself for the generic ring, or an integer, such as 1 for
Z[a]/(a^2 - a - 1), exact arithmetic of the golden ratio.  Products
reduce with that ring's relation, so ``specialize`` (x to an integer)
commutes with all ring operations exactly.

All values are immutable after construction and all operations are pure,
so elements can be shared freely across threads.
"""
from __future__ import annotations

import math
import operator
from functools import lru_cache
from typing import Iterable


class ExactDivisionError(ArithmeticError):
    """Raised when a division that must be exact leaves a remainder."""


def power(base, e: int, one, mul):
    """base^e, e >= 0, from the top bit: bitlen(e) - 1 squarings and popcount(e) - 1
    products by base; ``one`` (e = 0) is the identity and ``mul`` base's product."""
    if not e:
        return one
    out = base
    for bit in bin(e)[3:]:
        out = mul(out, out)
        if bit == "1":
            out = mul(out, base)
    return out


def _times(p, q, x):
    """(p0 + p1 a)(q0 + q1 a) on the pairs p and q, as a^2 = x a + 1: the one
    ring product, on IntPoly parts (RingElem) or packed ints (pascal)."""
    (p0, p1), (q0, q1) = p, q
    t = p1 * q1
    return p0 * q0 + t, p0 * q1 + p1 * q0 + x * t


def _powers(first, ratio, count: int, x) -> list:
    """first ratio^k for k < count, on pairs as _times takes them: each term
    one product by ratio, so a run of powers costs count - 1 products."""
    out = []
    for _ in range(count):
        out.append(_times(out[-1], ratio, x) if out else first)
    return out


def _float(pair, x: int) -> float:
    """The value of c0 + c1 a, the int pair (c0, c1), at the positive root a
    for the int x, within 2^-64 relative of correctly rounded: c0 + c1 a =
    (2 c0 + c1 x + c1 r)/2 with r = sqrt(x^2 + 4) = isqrt((x^2 + 4) 4^p) 2^-p,
    exact at x = 0, else off by under 2^-p.  For x != 0 the norm is a nonzero
    integer, so |c0 + c1 a| >= 1 / (|c0| + |c1| (|x| + 1)); p spans both bit
    lengths and 64 guard bits before the one correctly rounded int/int division.
    """
    c0, c1 = pair
    p = c1.bit_length() + (abs(c0) + abs(c1) * (abs(x) + 1)).bit_length() + 64
    root = math.isqrt((x * x + 4) << 2 * p)
    return (((2 * c0 + c1 * x) << p) + c1 * root) / (1 << p + 1)


def check_same_ring(x_image: IntPoly, other: IntPoly) -> None:
    """ValueError unless two operands map x to the same image."""
    if other != x_image:
        raise ValueError(
            "cannot combine ring elements with different x images: "
            f"{x_image} vs {other}"
        )


class IntPoly:
    """Dense univariate integer polynomial; coeffs[d] multiplies x^d.

    Canonical form: the zero polynomial is the empty tuple and the last
    stored coefficient is nonzero.  Coefficients are Python ints, so all
    arithmetic is exact at any magnitude.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, c: int) -> IntPoly:
        return cls((c,))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree of the polynomial, -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def constant_value(self) -> int:
        """The value of a degree <= 0 polynomial as a plain int."""
        if len(self.coeffs) > 1:
            raise ValueError(f"polynomial {self} is not constant")
        return self.coeffs[0] if self.coeffs else 0

    def __call__(self, value: int) -> int:
        """Evaluate at an integer ``value`` by Horner's rule.  At value = 2^k,
        as in every Kronecker packing, each product is a shift."""
        k, out = value.bit_length() - 1, 0
        if value > 0 and value == 1 << k:
            for c in reversed(self.coeffs):
                out = (out << k) + c
        else:
            for c in reversed(self.coeffs):
                out = out * value + c
        return out

    @staticmethod
    def _coerce(other):
        if isinstance(other, IntPoly):
            return other
        if isinstance(other, int):
            return IntPoly((other,))
        return NotImplemented

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self) -> bool:  # no command tests truth, but zero must be falsy
        return bool(self.coeffs)

    def __neg__(self) -> IntPoly:
        return IntPoly(-c for c in self.coeffs)

    def __add__(self, other) -> IntPoly:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        p, q = self.coeffs, other.coeffs
        if len(p) < len(q):
            p, q = q, p
        out = list(p)
        for i, c in enumerate(q):
            out[i] += c
        return IntPoly(out)

    __radd__ = __add__

    def __mul__(self, other) -> IntPoly:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        p, q = self.coeffs, other.coeffs
        if not p or not q:
            return IntPoly()
        out = [0] * (len(p) + len(q) - 1)
        for i, c in enumerate(p):
            if c:
                for j, d in enumerate(q):
                    out[i + j] += c * d
        return IntPoly(out)

    __rmul__ = __mul__

    def coeff_strings(self) -> list[str]:
        """Coefficients as decimal strings, ascending degree (JSON form)."""
        return [str(c) for c in self.coeffs]

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for d in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[d]
            if c == 0:
                continue
            if d == 0:
                body = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else str(abs(c))
                body = f"{mag}x" if d == 1 else f"{mag}x^{d}"
            if not parts:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append(("- " if c < 0 else "+ ") + body)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"IntPoly({list(self.coeffs)!r})"


#: The indeterminate x.
X = IntPoly((0, 1))


class RingElem:
    """An element c0 + c1*a of Z[x][a] / (a^2 - a*x - 1).

    ``x_image`` is the image of x in the coefficient ring: the
    indeterminate X for generic elements, a constant polynomial after
    specialization.  Mixing elements with different images is an error.
    """

    __slots__ = ("c0", "c1", "x_image")

    def __init__(self, c0=0, c1=0, x_image: IntPoly = X):
        self.c0 = c0 if isinstance(c0, IntPoly) else IntPoly.const(c0)
        self.c1 = c1 if isinstance(c1, IntPoly) else IntPoly.const(c1)
        self.x_image = x_image

    @property
    def is_zero(self) -> bool:
        return self.c0.is_zero and self.c1.is_zero

    def _coerce(self, other):
        if isinstance(other, RingElem):
            check_same_ring(self.x_image, other.x_image)
            return other
        if isinstance(other, (int, IntPoly)):
            return RingElem(other, 0, self.x_image)
        return NotImplemented

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, IntPoly)):
            other = RingElem(other, 0, self.x_image)
        if not isinstance(other, RingElem):
            return NotImplemented
        return (
            self.x_image == other.x_image
            and self.c0 == other.c0
            and self.c1 == other.c1
        )

    def __bool__(self) -> bool:  # no command tests truth, but zero must be falsy
        return not self.is_zero

    def __neg__(self) -> RingElem:
        return RingElem(-self.c0, -self.c1, self.x_image)

    def __add__(self, other) -> RingElem:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RingElem(self.c0 + other.c0, self.c1 + other.c1, self.x_image)

    __radd__ = __add__

    def __mul__(self, other) -> RingElem:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        c0, c1 = _times((self.c0, self.c1), (other.c0, other.c1), self.x_image)
        return RingElem(c0, c1, self.x_image)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> RingElem:
        if e < 0:
            raise ValueError("negative powers: use a_pow for powers of a")
        return power(self, e, RingElem(1, 0, self.x_image), operator.mul)

    def conjugate(self) -> RingElem:
        """Image under a -> x - a, the other root of a^2 = a*x + 1."""
        return RingElem(self.c0 + self.x_image * self.c1, -self.c1, self.x_image)

    def norm(self) -> IntPoly:
        """self * conjugate(self), an element of the coefficient ring."""
        n = self * self.conjugate()
        assert n.c1.is_zero
        return n.c0

    def divide_exact(self, d: int) -> RingElem:
        """Exact quotient self / d for a nonzero int d, taken coefficient by
        coefficient in c0 and c1; ExactDivisionError if any coefficient is
        not a multiple of d."""
        if d == 0:
            raise ZeroDivisionError(f"cannot divide {self} by 0")

        def part(p: IntPoly) -> IntPoly:
            qr = [divmod(c, d) for c in p.coeffs]
            if any(r for _, r in qr):
                raise ExactDivisionError(f"{self} is not divisible by {d}")
            return IntPoly(q for q, _ in qr)

        return RingElem(part(self.c0), part(self.c1), self.x_image)

    def specialize(self, x_value: int) -> RingElem:
        """Evaluate every coefficient at ``x_value`` (an exact integer).

        The result lives in Z[a]/(a^2 - x_value*a - 1) and its parts are
        constant polynomials.
        """
        target = IntPoly.const(x_value)
        if self.x_image == target:
            return self
        if self.x_image != X:
            raise ValueError(f"element is already specialized at {self.x_image}")
        return RingElem(
            IntPoly.const(self.c0(x_value)),
            IntPoly.const(self.c1(x_value)),
            target,
        )

    def __float__(self) -> float:
        """The value of a specialized element at the positive root a (_float)."""
        x = self.x_image.constant_value()
        return _float((self.c0.constant_value(), self.c1.constant_value()), x)

    def as_int(self) -> int:
        """The element as a plain integer; ValueError if it is not one."""
        if not self.c1.is_zero:
            raise ValueError(f"{self} has a nonzero a-component")
        return self.c0.constant_value()

    def to_json(self) -> dict:
        """JSON form {"c0": [...], "c1": [...]}, decimal strings ascending."""
        return {"c0": self.c0.coeff_strings(), "c1": self.c1.coeff_strings()}

    def _a_part_str(self) -> str:
        """Render c1*a, e.g. 'a', '-3·a', '(x + 1)·a'."""
        cs = self.c1.coeffs
        if len(cs) == 1 or (len(cs) == 2 and cs[0] == 0):
            body = str(self.c1)
            if body == "1":
                return "a"
            if body == "-1":
                return "-a"
            return f"{body}·a"
        return f"({self.c1})·a"

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        if self.c1.is_zero:
            return str(self.c0)
        apart = self._a_part_str()
        if self.c0.is_zero:
            return apart
        head = str(self.c0) if self.c0.degree() == 0 else f"({self.c0})"
        if apart.startswith("-"):
            return f"{head} - {apart[1:]}"
        return f"{head} + {apart}"

    def __repr__(self) -> str:
        if self.x_image == X:
            return f"RingElem({self.c0!r}, {self.c1!r})"
        return f"RingElem({self.c0!r}, {self.c1!r}, x_image={self.x_image!r})"


#: Generic-ring constants.
ZERO = RingElem(0, 0)
ONE = RingElem(1, 0)
A = RingElem(0, 1)


#: Entries kept by the a_pow cache.  Every exponent is a distinct key, so
#: an unbounded cache would grow with each new power that is asked for.
A_POW_CACHE_SIZE = 1024


@lru_cache(maxsize=A_POW_CACHE_SIZE)
def a_pow(e: int, x_image: IntPoly = X) -> RingElem:
    """a^e for any integer e; negative powers via a^-1 = a - x, since
    a*(a - x) = 1."""
    base = RingElem(0, 1, x_image) if e >= 0 else RingElem(-x_image, 1, x_image)
    return base ** abs(e)
