"""Right-justified Pascal matrices and exact dense matrix algebra.

``build_r(n)`` right-justifies the first n rows of Pascal's triangle:
entry (i, j) is C(i-1, n-j) with 1-based indices.  ``build_rx`` is the
one-parameter generalization C(i-1, n-j) x^(i+j-n-1), ``build_u`` stacks
its eigenvectors as columns, and ``build_w`` scales column j of U by
(-1)^j a^(n-j), which makes its square a scalar matrix.  All four are
symmetric powers of 2x2 matrices, built by one recurrence (_symmetric_power)
directly in the target ring: over Z[x], or at an integer x.

Matrices are immutable after construction and all public index
contracts are 1-based to match the entry formulas.  The ring kernels
here run on bare ints: each element is packed as the ints of its parts
c0 and c1, and the one ring product (_times, from ring) reduces with
a^2 = x a + 1.
Products of ring matrices share one dot-product kernel (_dot): each entry
is three sums of plain int products, p0 q0, p1 q1 and (p0 + p1)(q0 + q1)
(Karatsuba), reduced once per entry rather than once per term.  Column
scaling, M diag(f), is written once (_scaled).  ``_upper_square`` takes
packed rows and factor pairs and returns the pairs (c0, c1) of the entries
of M diag(f) M on and above the diagonal (closed-form powers at x = 1).
``_lower_pascal`` applies the lower Pascal matrix L(t), R(x) = L(x) J, by
its recurrence, n(n-1)/2 products by t and sums, to ints that may pack
whole rows, or at t = x - a to pairs (_w_times: W = -S(L) S(D) S(U')).
Over Z[x] the ints are the values at x = 2^k (Kronecker substitution,
von zur Gathen & Gerhard, Modern Computer Algebra, 3rd ed., 2013,
section 8.4), with k bounded by one norm N, the same for every kernel
(_packing).
One fraction-free Gauss-Jordan elimination, O(n^3), serves both the
integer determinant and the unimodular inverse.
"""
from __future__ import annotations

from functools import lru_cache
from operator import add, matmul, mul
from typing import Iterable, Sequence

from .comb import binom, unpack
from .ring import A, ONE, ZERO, IntPoly, RingElem, X, _times, check_same_ring, power

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

    # No command calls this; perfbench/tracer.py wraps it (ROADMAP item 1).
    def __matmul__(self, other: RingMatrix) -> RingMatrix:
        if not isinstance(other, RingMatrix):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")
        check_same_ring(self.x_image, other.x_image)
        return RingMatrix(_dot_products(self.rows, tuple(zip(*other.rows)), self.x_image))

    def mul_vector(self, vec: Sequence[RingElem]) -> tuple[RingElem, ...]:
        if len(vec) != self.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {len(vec)}")
        for e in vec:
            check_same_ring(self.x_image, e.x_image)
        return tuple(row[0] for row in _dot_products(self.rows, (vec,), self.x_image))

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


def _norm(vectors) -> int:
    """The largest N(e) = ||c0||_1 + 2 ||c1||_1 of any entry e (see _packing)."""
    return max(sum(map(abs, e.c0.coeffs)) + 2 * sum(map(abs, e.c1.coeffs))
               for v in vectors for e in v)


def _packing(x_image: IntPoly, bound):
    """(x, unwrap, wrap) for ring products on bare int coefficients in the
    ring where x maps to ``x_image``.

    unwrap turns a coefficient polynomial into an int, x is the int that x
    becomes, and wrap turns a result int back into a polynomial.  At an
    integer x the ints are the constants themselves.  Over Z[x] they are
    the values at x = 2^k with k = max(2, bitlen(bound()) + 1); bound() must
    bound every coefficient of every result in absolute value, because a
    polynomial whose coefficients all lie below 2^(k-1) in absolute value
    is the balanced base-2^k digit expansion of its value at 2^k.  The
    floor of 2 keeps a digit step of comb.unpack shrinking v when bound() is 0.
    """
    # Every kernel's bound is a product of _norm, by one lemma.  With |c| the
    # l1 norm, N(c0 + c1 a) = |c0| + 2|c1| bounds every coefficient of c0 and
    # c1, and is subadditive.  It is submultiplicative: p q = (p0 q0 + p1 q1)
    # + (p0 q1 + p1 q0 + x p1 q1) a, |x c| = |c| at x = X and | | is
    # submultiplicative, so N(p q) <= |p0||q0| + 2|p0||q1| + 2|p1||q0| +
    # 3|p1||q1| <= N(p) N(q), as 2^2 >= 2 + 1.  So a dot product of length n
    # has N <= n N(p) N(q), M diag(f) has entries of N <= N(M) N(f) (the eigen
    # check's bound), and M diag(f) M has entries of N <= n N(M)^2 N(f)
    # (spectral.verify_involution reads W W at half the width from that bound).
    # Only results are read back, and x -> 2^k is a ring homomorphism, so
    # the ints in between (Karatsuba sums, scaled operands) need no bound.
    if x_image.degree() < 1:
        return x_image.constant_value(), IntPoly.constant_value, IntPoly.const
    if x_image != X:
        raise ValueError(f"products need x to map to X or to an integer, not {x_image}")
    k = max(2, bound().bit_length() + 1)
    x = 1 << k
    return x, (lambda c: c(x)), (lambda v: IntPoly(unpack(v, k)))


def _scaled(packed, factors, x: int) -> list[tuple]:
    """The packed rows (c0, c1, c0 + c1) of M diag(f), from the packed
    rows of M (_coefficients) and the packed factor pairs (f0, f1)."""
    out = []
    for p0, p1, _ in packed:
        c0, c1 = zip(*[_times(p, f, x) for p, f in zip(zip(p0, p1), factors)])
        out.append((c0, c1, list(map(add, c0, c1))))
    return out


def _dot_products(rows, cols, x_image: IntPoly) -> list[list[RingElem]]:
    """sum_k row[k] * col[k] for every row and column, all in one ring,
    with the bound n N(rows) N(cols) (_packing)."""
    x, unwrap, wrap = _packing(x_image, lambda: len(cols[0]) * _norm(rows) * _norm(cols))
    cols = _coefficients(cols, unwrap)
    return [[RingElem(wrap(c0), wrap(c1), x_image) for c0, c1 in (_dot(p, q, x) for q in cols)]
            for p in _coefficients(rows, unwrap)]


def _upper_square(packed, factors, x: int) -> list[list[tuple[int, int]]]:
    """The entries (c0, c1) of M diag(f) M on and above the diagonal, from
    the packed rows of the square matrix M (_coefficients) and the packed
    factor pairs (f0, f1), all at the int x: list i (0-based) holds columns
    i..n-1 of row i, n(n+1)/2 dot products in all.  The caller packs, and
    reads the pairs back.

    The columns are the transposes of the packed rows, and the left operand
    is the packed rows scaled by f, so M is packed once for both operands.
    """
    p0s, p1s, pss = zip(*packed)
    cols = list(zip(zip(*p0s), zip(*p1s), zip(*pss)))
    return [[_dot(p, q, x) for q in cols[i:]] for i, p in enumerate(_scaled(packed, factors, x))]


def _lower_pascal(v: Sequence, t) -> list:
    """L(t) v for the lower Pascal matrix L(t)_ik = C(i-1, k-1) t^(i-k):
    entry i is entry 1 of (t + E)^(i-1) v, E the shift (E v)_l = v_(l+1).
    Each of the n(n-1)/2 steps T_l <- t T_l + T_(l+1) is one product by t
    and one sum, on ints of any kind: single entries, or rows packed whole.
    t is an int, or the step (T, T') -> t T + T' itself (_l_step)."""
    step = t if callable(t) else lambda p, q: t * p + q
    v = list(v)
    out = v[:1]
    for s in range(len(v) - 1, 0, -1):
        for l in range(s):
            v[l] = step(v[l], v[l + 1])
        out.append(v[0])
    return out


def _l_step(x: int):
    """The step T <- l T + T' of _lower_pascal on pairs (c0, c1) at the int
    x, l = x - a: (c0 + c1 a)(x - a) = (x c0 - c1) - c0 a as a^2 = x a + 1."""
    return lambda p, q: (x * p[0] - p[1] + q[0], q[1] - p[0])


def _dot(p, q, x: int) -> tuple[int, int]:
    """One entry (c0, c1) of a product from the packed parts (p0, p1, p0 + p1)
    of a row p and a column q.  With d0, d2 and s the sums of p0 q0, p1 q1 and
    (p0 + p1)(q0 + q1), s - d0 - d2 is the sum of p0 q1 + p1 q0, and
    a^2 = x a + 1 turns d2 a^2 into d2 x a + d2: three products per term."""
    (p0, p1, ps), (q0, q1, qs) = p, q
    d0, d2 = sum(map(mul, p0, q0)), sum(map(mul, p1, q1))
    return d0 + d2, sum(map(mul, ps, qs)) - d0 - d2 + x * d2


#: S(M)_ij = [t^(j-1)] (M11 + M12 t)^(n-i) (M21 + M22 t)^(i-1) is Sym^(n-1) M
#: (Carlitz, Fibonacci Quart. 3, 1965): R(x) = S(Q), U = S(E) as -a^-1 = x - a,
#: and W = -S(F), F = E diag(a, -1).  Row i of S(M) S(M') is generated by
#: (M11 X + M12 Y)^(n-i) (M21 X + M22 Y)^(i-1) at X = M'11 + M'12 t and
#: Y = M'21 + M'22 t, so S(F) = S(E) S(diag(a, -1)) = U diag((-1)^(j-1) a^(n-j)).
_Q = ((ZERO, ONE), (ONE, RingElem(X)))
_E = ((ONE, ONE), (RingElem(X, -1), A))
_F = ((A, -ONE), (-ONE, -A))
#: D's diagonal in F = L D U', L = ((1, 0), (l, 1)), U' = ((1, l), (0, 1)), l = x - a:
#: a l = -1, -l + x - 2a = -a.  So W = -S(L) S(D) S(U'), S(L)_ij = C(i-1, j-1) l^(i-j),
#: S(U') = J S(L) J (J the reversal), S(D) = diag(a^(n-i) (x - 2a)^(i-1)) (_w_times).
_D = (A, RingElem(X, -2))


def _symmetric_power(n: int, m, x: int | None = None, sign: int = 1) -> RingMatrix:
    """sign S(M), sign = 1 or -1, for m = ((M11, M12), (M21, M22)) with M12 =
    +/-1, at the int x, or over Z[x] when x is None (_packing, _power_rows)."""
    # _packing's bound: N (see _packing), summed over the coefficients in t,
    # is subadditive and submultiplicative too, so max(N(A), N(B))^(n-1)
    # bounds row i, the coefficients of A^(n-i) B^(i-1).
    _check_dimension(n)
    if x is not None:
        if type(x) is not int:
            raise ValueError(f"x must be an int, or None for Z[x], got {x!r}")
        m = [[e.specialize(x) for e in row] for row in m]
    x_image = m[0][0].x_image
    x, unwrap, wrap = _packing(
        x_image, lambda: max(sum(_norm([[e]]) for e in row) for row in m) ** (n - 1))
    rows = _power_rows(n, [[(unwrap(e.c0), unwrap(e.c1)) for e in r] for r in m], x, sign)
    return RingMatrix([[RingElem(wrap(c0), wrap(c1), x_image) for c0, c1 in r] for r in rows])


def _power_rows(n: int, m, x: int, sign: int = 1) -> list[list[tuple[int, int]]]:
    """The rows of sign S(M) as pairs (c0, c1) at the int x, m as pairs at x.
    With A = M11 + M12 t and B = M21 + M22 t, row 1 is A^(n-1) by the
    binomial theorem, and row i + 1 is row i times B divided by A: an exact
    division that, from the top, only multiplies by 1/M12 = M12.  The
    recurrence is linear, so the sign goes on row 1's binomials."""
    # Each entry of S(M) is a polynomial in M's entries (the recurrence only
    # adds, multiplies and multiplies by M12 = +/-1), and x -> c is a ring
    # homomorphism, so S(M at c), run in Z[a]/(a^2 - c a - 1), is S(M) at c.
    _check_dimension(n)
    (a, (s, s1)), (b0, b1) = m
    if s1 or s not in (1, -1):
        raise ValueError("the row recurrence needs M12 = 1 or -1")

    powers = [(1, 0)]  # [t^j] A^(n-1) = C(n-1, j) M11^(n-1-j) M12^j
    for _ in range(n - 1):
        powers.append(_times(powers[-1], a, x))
    cs = [sign * binom(n - 1, j) * s ** j for j in range(n)]
    rows = [[(c * p0, c * p1) for c, (p0, p1) in zip(cs, reversed(powers))]]
    for _ in range(n - 1):
        # [t^d] of r B = A q: M21 r_d + M22 r_(d-1) = M11 q_d + M12 q_(d-1)
        r, q, new = rows[-1] + [(0, 0)], (0, 0), []
        for d in range(n, 0, -1):
            (u0, u1), (v0, v1), (w0, w1) = (
                _times(b0, r[d], x), _times(b1, r[d - 1], x), _times(a, q, x))
            q = (s * (u0 + v0 - w0), s * (u1 + v1 - w1))
            new.append(q)
        rows.append(new[::-1])
    return rows


def _w_at(n: int, x: int) -> list[list[tuple[int, int]]]:
    """W = -S(F) as rows of pairs at the int x, F's entries evaluated directly."""
    return _power_rows(n, [[(e.c0(x), e.c1(x)) for e in row] for row in _F], x, -1)


def _w_times(v: Sequence[tuple[int, int]], x: int) -> list[tuple[int, int]]:
    """W v = S(L) (-S(D)) J S(L) J v at the int x (_D) for v a vector of pairs,
    entries or rows packed whole: two passes of _lower_pascal at l (_l_step), S(D) by _dot."""
    a, b = [(e.c0(x), e.c1(x)) for e in _D]
    pa, pb = [(-1, 0)], [(1, 0)]  # -a^k and (x - 2a)^k
    for _ in range(len(v) - 1):
        pa.append(_times(pa[-1], a, x))
        pb.append(_times(pb[-1], b, x))
    d = [([c0], [c1], [c0 + c1]) for c0, c1 in (_times(p, q, x) for p, q in zip(reversed(pa), pb))]
    step = _l_step(x)
    u = _lower_pascal(v[::-1], step)[::-1]
    return _lower_pascal([_dot(([p0], [p1], [p0 + p1]), f, x) for (p0, p1), f in zip(u, d)], step)


@lru_cache(maxsize=BUILD_CACHE_SIZE)
def build_r(n: int) -> IntMatrix:
    """The right-justified Pascal matrix C(i-1, n-j): build_rx at x = 1."""
    return build_rx(n, 1).to_int_matrix()


# typed=True: 1, 1.0 and True hash alike, and only the int may key a matrix.
@lru_cache(maxsize=BUILD_CACHE_SIZE, typed=True)
def build_rx(n: int, x: int | None = None) -> RingMatrix:
    """Entry (i, j) = C(i-1, n-j) x^(i+j-n-1): S(Q), row i is t^(n-i) (1 + x t)^(i-1).
    Like build_u and build_w, it is over Z[x] when x is None, else at the int x."""
    return _symmetric_power(n, _Q, x)


@lru_cache(maxsize=BUILD_CACHE_SIZE, typed=True)
def build_u(n: int, x: int | None = None) -> RingMatrix:
    """Eigenvector columns: u(i,j) = sum_{k=1..j} (-1)^(i-k) C(i-1,k-1) C(n-i,j-k) a^(2k-i-1),
    the binomial theorem on row i of S(E), a^(1-i) (1+t)^(n-i) (a^2 t - 1)^(i-1)."""
    return _symmetric_power(n, _E, x)


@lru_cache(maxsize=BUILD_CACHE_SIZE, typed=True)
def build_w(n: int, x: int | None = None) -> RingMatrix:
    """Column j of build_u(n, x) times (-1)^j a^(n-j), so W^2 = (1 + a^2)^(n-1) I: -S(F)."""
    return _symmetric_power(n, _F, x, -1)
