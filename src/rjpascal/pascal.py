"""Right-justified Pascal matrices and exact dense matrix algebra.

``build_r(n)`` right-justifies the first n rows of Pascal's triangle:
entry (i, j) is C(i-1, n-j) with 1-based indices, so row i carries
Pascal row i-1 pushed against the right edge.  ``build_rx`` is the
one-parameter generalization whose (i, j) entry is C(i-1, n-j) x^(i+j-n-1);
``build_u`` stacks its eigenvectors as columns and ``build_w`` scales
column j of U by (-1)^j a^(n-j), which makes its square a scalar matrix.

Matrices are immutable after construction and all public index
contracts are 1-based to match the entry formulas.  Products of ring
matrices share one dot-product kernel: each entry is three sums of
plain int products, p0 q0, p1 q1 and (p0 + p1)(q0 + q1) (Karatsuba),
reduced with a^2 = x a + 1 once per entry rather than once per term.
Column scaling, M diag(f), is the same arithmetic on dot products of
length 1, and ``_upper_square`` forms only the entries of M @ M on and
above the diagonal, packing M once for both operands.  Over Z[x] the
ints are the values at x = 2^k, with k = bitlen(3 n Lp Lq) + 1 for dot
products of length n and operand parts of l1 norm at most Lp and Lq
(Kronecker substitution, von zur Gathen & Gerhard, Modern Computer
Algebra, 3rd ed., 2013, section 8.4).
One fraction-free Gauss-Jordan elimination, O(n^3), serves both the
integer determinant and the unimodular inverse.
"""
from __future__ import annotations

from functools import lru_cache
from operator import add, matmul, mul
from typing import Iterable, Sequence

from .binomial import binom
from .ring import IntPoly, RingElem, X, a_pow, check_same_ring, power

#: Dimensions kept by each builder's cache.
BUILD_CACHE_SIZE = 64


def _check_dimension(n: int) -> None:
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"matrix dimension must be a positive integer, got {n!r}")


class _SquareMatrix:
    """Shape, equality and display shared by both matrix types.

    Equality is type-strict: an IntMatrix never equals a RingMatrix.
    """

    __slots__ = ("n", "rows")

    def __init__(self, rows: Iterable[Iterable]):
        rs = tuple(tuple(row) for row in rows)
        _check_dimension(len(rs))
        for row in rs:
            if len(row) != len(rs):
                raise ValueError("matrix must be square")
        self.n = len(rs)
        self.rows = rs

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.rows == other.rows

    def __str__(self) -> str:
        cells = [[str(e) for e in row] for row in self.rows]
        widths = [max(len(cells[i][j]) for i in range(self.n)) for j in range(self.n)]
        return "\n".join(
            "[ " + "  ".join(cells[i][j].rjust(widths[j]) for j in range(self.n)) + " ]"
            for i in range(self.n)
        )


class IntMatrix(_SquareMatrix):
    """Square matrix of arbitrary-precision integers, row-major."""

    __slots__ = ()

    @classmethod
    def identity(cls, n: int) -> IntMatrix:
        _check_dimension(n)
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __matmul__(self, other: IntMatrix) -> IntMatrix:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")
        cols = tuple(zip(*other.rows))
        return IntMatrix([[sum(map(mul, row, col)) for col in cols] for row in self.rows])

    def __pow__(self, e: int) -> IntMatrix:
        if e < 0:
            raise ValueError("negative powers: invert first (inverse_unimodular)")
        return power(self, e, IntMatrix.identity(self.n), matmul)

    def det(self) -> int:
        """Exact determinant by fraction-free elimination (_gauss_jordan)."""
        return _gauss_jordan([list(row) for row in self.rows], self.n)

    def inverse_unimodular(self) -> IntMatrix:
        """Exact integer inverse; requires det = +/-1.

        Eliminates [self | I] with _gauss_jordan: the left half ends as
        p I and the right half as p times the inverse, with p = +/-1.
        """
        d = self.det()  # a second elimination, kept while perfbench counts pascal.det
        if d not in (1, -1):
            raise ValueError(f"matrix is not unimodular (det = {d})")
        n = self.n
        m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(self.rows)]
        _gauss_jordan(m, n)
        p = m[0][0]
        return IntMatrix([row[n:] if p == 1 else [-e for e in row[n:]] for row in m])

    def to_json(self) -> dict:
        """JSON form {"n": n, "entries": [[...]]} with decimal-string entries."""
        return {
            "n": self.n,
            "entries": [[str(e) for e in row] for row in self.rows],
        }

    def to_csv(self) -> str:
        """Plain decimal CSV, one row per line, trailing newline."""
        return "".join(",".join(str(e) for e in row) + "\n" for row in self.rows)

    def __repr__(self) -> str:
        return f"IntMatrix({[list(r) for r in self.rows]!r})"


def _gauss_jordan(m: list[list[int]], n: int) -> int:
    """Fraction-free Gauss-Jordan (Bareiss) on the first n columns of the
    rows m, in place; returns that block's determinant, 0 if singular.

    Step k replaces every row i != k by (p_k row_i - m_ik row_k) / p_(k-1),
    an exact division, where p_k is the k-th pivot.  The block ends as p_n I.
    """
    sign = 1
    prev = 1
    for k in range(n):
        if m[k][k] == 0:
            i = next((i for i in range(k + 1, n) if m[i][k]), None)
            if i is None:
                return 0
            m[k], m[i] = m[i], m[k]
            sign = -sign
        top = m[k]
        pivot = top[k]
        for i in range(n):
            if i != k:
                f = m[i][k]
                m[i] = [(pivot * a - f * b) // prev for a, b in zip(m[i], top)]
        prev = pivot
    return sign * prev


class RingMatrix(_SquareMatrix):
    """Square matrix of RingElem entries sharing one coefficient ring."""

    __slots__ = ("x_image",)

    def __init__(self, rows: Iterable[Iterable[RingElem]]):
        super().__init__(rows)
        x_image = None
        for row in self.rows:
            for e in row:
                if not isinstance(e, RingElem):
                    raise TypeError(f"entries must be RingElem, got {type(e).__name__}")
                if x_image is None:
                    x_image = e.x_image
                elif e.x_image != x_image:
                    raise ValueError("entries mix different x images")
        self.x_image = x_image

    @classmethod
    def scalar(cls, n: int, c: RingElem) -> RingMatrix:
        """c times the identity, built directly: c on the diagonal, 0 elsewhere."""
        _check_dimension(n)
        zero = RingElem(0, 0, c.x_image)
        return cls([[c if i == j else zero for j in range(n)] for i in range(n)])

    def column(self, j: int) -> tuple[RingElem, ...]:
        """Column j (1-based) as a vector."""
        if not (1 <= j <= self.n):
            raise IndexError(f"column {j} outside 1..{self.n}")
        return tuple(row[j - 1] for row in self.rows)

    def __matmul__(self, other: RingMatrix) -> RingMatrix:
        if not isinstance(other, RingMatrix):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")
        check_same_ring(self.x_image, other.x_image)
        return RingMatrix(_dot_products(self.rows, tuple(zip(*other.rows)), self.x_image))

    # No command calls this; perfbench/tracer.py wraps it (ROADMAP item 1).
    def mul_vector(self, vec: Sequence[RingElem]) -> tuple[RingElem, ...]:
        if len(vec) != self.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {len(vec)}")
        for e in vec:
            check_same_ring(self.x_image, e.x_image)
        return tuple(row[0] for row in _dot_products(self.rows, (vec,), self.x_image))

    def scale_columns(self, factors: Sequence[RingElem]) -> RingMatrix:
        """Multiply column j by factors[j-1]: self @ diag(factors).

        Entry (i, j) times f_j is a dot product of length 1, so it runs on
        the product kernel's bare coefficients with the kernel's bound at
        n = 1: k = bitlen(3 Lp Lf) + 1, Lf the largest l1 norm of a factor's
        parts (see _dot_products).
        """
        if len(factors) != self.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {len(factors)}")
        for f in factors:
            check_same_ring(self.x_image, f.x_image)
        x, unwrap, wrap = _packing(
            self.x_image, lambda: 3 * _l1(self.rows) * _l1((factors,))
        )
        fs = _coefficients((factors,), unwrap)[0]
        return RingMatrix([
            [_entry(p0 * q0, p1 * q1, ps * qs, x, wrap, self.x_image)
             for p0, p1, ps, q0, q1, qs in zip(*row, *fs)]
            for row in _coefficients(self.rows, unwrap)
        ])

    def specialize(self, x_value: int) -> RingMatrix:
        return RingMatrix([[e.specialize(x_value) for e in row] for row in self.rows])

    def to_int_matrix(self) -> IntMatrix:
        """Convert when every entry is a plain integer; ValueError otherwise."""
        return IntMatrix([[e.as_int() for e in row] for row in self.rows])

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "entries": [[e.to_json() for e in row] for row in self.rows],
        }

    def __repr__(self) -> str:
        return f"RingMatrix(n={self.n})"


def _coefficients(vectors, unwrap) -> list[tuple[list, list, list]]:
    """The c0 and c1 parts of each vector's entries, passed through unwrap,
    and the sums c0 + c1 that the Karatsuba product needs."""
    parts = [([unwrap(e.c0) for e in v], [unwrap(e.c1) for e in v]) for v in vectors]
    return [(p0, p1, list(map(add, p0, p1))) for p0, p1 in parts]


def _l1(vectors) -> int:
    """The largest l1 norm (sum of absolute coefficients) of any c0 or c1."""
    return max(sum(map(abs, c.coeffs)) for v in vectors for e in v for c in (e.c0, e.c1))


def _digits(v: int, k: int) -> IntPoly:
    """The polynomial whose value at x = 2^k is v and whose coefficients,
    the balanced base-2^k digits of v, all lie in [-2^(k-1), 2^(k-1))."""
    mask, half = (1 << k) - 1, 1 << (k - 1)
    out = []
    while v:
        d = ((v + half) & mask) - half
        out.append(d)
        v = (v - d) >> k
    return IntPoly(out)


def _packing(x_image: IntPoly, bound):
    """(x, unwrap, wrap) for ring products on bare int coefficients in the
    ring where x maps to ``x_image``.

    unwrap turns a coefficient polynomial into an int, x is the int that x
    becomes, and wrap turns a result int back into a polynomial.  At an
    integer x the ints are the constants themselves.  Over Z[x] they are
    the values at x = 2^k with k = bitlen(bound()) + 1; bound() must bound
    every coefficient of every result in absolute value, because a
    polynomial whose coefficients all lie below 2^(k-1) in absolute value
    is the balanced base-2^k digit expansion of its value at 2^k.
    """
    if x_image.degree() < 1:
        return x_image.constant_value(), IntPoly.constant_value, IntPoly.const
    if x_image != X:
        raise ValueError(f"products need x to map to X or to an integer, not {x_image}")
    k = bound().bit_length() + 1
    x = 1 << k
    return x, (lambda c: c(x)), (lambda v: _digits(v, k))


def _entry(d0: int, d2: int, s: int, x: int, wrap, x_image: IntPoly) -> RingElem:
    """sum p q from the sums d0 of p0 q0, d2 of p1 q1 and s of
    (p0 + p1)(q0 + q1): s - d0 - d2 is the sum of p0 q1 + p1 q0, and
    a^2 = x a + 1 turns d2 a^2 into d2 x a + d2."""
    return RingElem(wrap(d0 + d2), wrap(s - d0 - d2 + x * d2), x_image)


def _dot_products(rows, cols, x_image: IntPoly) -> list[list[RingElem]]:
    """sum_k row[k] * col[k] for every row and column, all in one ring.

    With p = p0 + p1 a and q = q0 + q1 a, each entry sums p0 q0, p1 q1 and
    (p0 + p1)(q0 + q1) over k on bare integers (_packing), then combines
    them once (_entry): three products per term instead of four.
    """
    # Every coefficient of a product p q is at most ||p||_1 ||q||_1 in
    # absolute value, so each sum over k of n part products (p0 q0, p1 q1,
    # p0 q1 or p1 q0) has coefficients of at most n Lp Lq, where Lp and Lq
    # are the largest l1 norms of the two operands' parts.  c0 adds two
    # such sums and c1 three, one of them multiplied by x, which only
    # shifts it.  So every result coefficient is at most B = 3 n Lp Lq.
    # The Karatsuba sum of (p0 + p1)(q0 + q1) is an exact int that the
    # bound need not cover: only c0 and c1 are read back from digits, and
    # they are the values at 2^k of the same polynomials as above.
    x, unwrap, wrap = _packing(
        x_image, lambda: 3 * len(cols[0]) * _l1(rows) * _l1(cols)
    )
    cols = _coefficients(cols, unwrap)
    return [[_dot(p, q, x, wrap, x_image) for q in cols]
            for p in _coefficients(rows, unwrap)]


def _upper_square(rows, x_image: IntPoly) -> list[list[RingElem]]:
    """The entries of M @ M on and above the diagonal, for the square
    matrix M with these rows: list i (0-based) holds columns i..n-1 of
    row i, n(n+1)/2 dot products in all.

    Both operands are M, so its parts are packed once, under
    _dot_products' bound with Lp = Lq, and its columns are the transposes
    of the packed rows.
    """
    x, unwrap, wrap = _packing(x_image, lambda: 3 * len(rows) * _l1(rows) ** 2)
    packed = _coefficients(rows, unwrap)
    p0s, p1s, pss = zip(*packed)
    cols = list(zip(zip(*p0s), zip(*p1s), zip(*pss)))
    return [[_dot(p, q, x, wrap, x_image) for q in cols[i:]]
            for i, p in enumerate(packed)]


def _dot(p, q, x: int, wrap, x_image: IntPoly) -> RingElem:
    """One entry of a product from the packed parts (p0, p1, p0 + p1) of
    a row p and a column q: three sums of int products, combined once."""
    (p0, p1, ps), (q0, q1, qs) = p, q
    return _entry(sum(map(mul, p0, q0)), sum(map(mul, p1, q1)), sum(map(mul, ps, qs)),
                  x, wrap, x_image)


@lru_cache(maxsize=BUILD_CACHE_SIZE)
def build_r(n: int) -> IntMatrix:
    """The right-justified Pascal matrix: entry (i, j) = C(i-1, n-j)."""
    _check_dimension(n)
    return IntMatrix(
        [[binom(i - 1, n - j) for j in range(1, n + 1)] for i in range(1, n + 1)]
    )


@lru_cache(maxsize=BUILD_CACHE_SIZE)
def build_rx(n: int) -> RingMatrix:
    """One-parameter family: entry (i, j) = C(i-1, n-j) x^(i+j-n-1).

    Whenever the exponent i+j-n-1 is negative the binomial factor is zero
    (n-j > i-1 forces it), so every entry is a genuine polynomial.
    """
    _check_dimension(n)
    rows = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            c = binom(i - 1, n - j)
            if c == 0:
                row.append(RingElem(0, 0))
                continue
            e = i + j - n - 1
            assert e >= 0, f"negative exponent materialized at ({i}, {j})"
            row.append(RingElem(IntPoly([0] * e + [c]), 0))
        rows.append(row)
    return RingMatrix(rows)


@lru_cache(maxsize=BUILD_CACHE_SIZE)
def build_u(n: int) -> RingMatrix:
    """Eigenvector columns: u(i,j) = sum_{k=1..j} (-1)^(i-k) C(i-1,k-1) C(n-i,j-k) a^(2k-i-1)."""
    _check_dimension(n)
    rows = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            c0, c1 = [], []
            for k in range(1, j + 1):
                c = binom(i - 1, k - 1) * binom(n - i, j - k)
                if c == 0:
                    continue
                if (i - k) % 2:
                    c = -c
                term = a_pow(2 * k - i - 1)
                _add_multiple(c0, term.c0, c)
                _add_multiple(c1, term.c1, c)
            row.append(RingElem(IntPoly(c0), IntPoly(c1)))
        rows.append(row)
    return RingMatrix(rows)


def _add_multiple(acc: list[int], p: IntPoly, c: int) -> None:
    """acc += c p on coefficient lists, in place."""
    acc.extend([0] * (len(p.coeffs) - len(acc)))
    for d, v in enumerate(p.coeffs):
        acc[d] += c * v


@lru_cache(maxsize=BUILD_CACHE_SIZE)
def build_w(n: int) -> RingMatrix:
    """Scaled eigenvector matrix: column j of build_u(n) times (-1)^j a^(n-j).

    Its square is (1 + a^2)^(n-1) times the identity.
    """
    return build_u(n).scale_columns(
        [-a_pow(n - j) if j % 2 else a_pow(n - j) for j in range(1, n + 1)]
    )
