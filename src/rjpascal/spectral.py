"""Eigenvalue verification, the involution identity, and exact matrix powers.

The eigenvalue attached to column j of an n-dimensional family member is
(-1)^(n+j) a^(2j-n-1), an exact unit of the coefficient ring.  U = S(E)
and W = -S(F), F = E diag(a, -1), and S is multiplicative (pascal), so
W = U diag(f), f_j = (-1)^j a^(n-j).  All four checks read U, W, the
eigenvalues and the involution scale as pairs of ints (c0, c1) at one int
t, on one path for every x (_read, _rows): t = x on build_u and build_w,
over Z[x] t = 2^h on their row recurrences, also run at -t to test the
parities by which x -> -x, a -> -a grades the ring.  W^2 = (1+a^2)^(n-1) I,
two Pascal passes with the step x - a (pascal._w_times), proves W
invertible, and the tie W = U diag(f) proves U so.  R(x) = L(x) J, L(x)
the lower Pascal matrix and J the reversal, so R(x) W = W Lambda, column j
f_j times that of R(x) U = U Lambda, is the Pascal recurrence on the
packed rows of J W, a shift and a sum per step at 2^h.  build_rx's R(x)
is checked against L(x) J on U's first column, whose entries are units:
faults in two or more entries of one row can cancel there.

Integer powers of the Pascal matrix are W diag(lambda^m) W divided by
(1+a^2)^(n-1), on the W and scale of that reading at x = 1, every exponent
in one packed product, a self-test of the formula chain
(matrix_powers_closed_form).  Matrices and scalars are computed directly
in the target ring, Z[x] or an integer x, and each run of powers (u_1, the
f_j, the eigenvalues) by one chain of products (ring._powers).  The numeric
check rounds the same pairs, and R(x), once each from their exact values
(ring._float) and sums each product entry with ``math.fsum``, judged
relative to the product of absolute values (DEFAULT_TOL).  Exact checks
carry zero tolerance.
"""
from __future__ import annotations

import math
from functools import lru_cache
from operator import add, mul, sub
from typing import NamedTuple, Sequence

from . import pascal
from .comb import pack, unpack
from .pascal import (BUILD_CACHE_SIZE, IntMatrix, _coefficients, _lower_pascal, _norm, _packing,
                     _rows_at, _upper_square, _w_times, build_r, build_rx, build_u, build_w)
from .ring import X, ZERO, ExactDivisionError, IntPoly, RingElem, _float, _powers, _times, a_pow

#: Default tolerance on a relative residual: 64 u, u = 2^-53.  An entry of
#: V is within 3.5u of exact, of R or lambda within u, and an fsum dot
#: product of rounded terms within 2u of their |a||b| sum, so at any n the
#: residuals stay below 9u |V||V| and 13u |V||R||V| up to O(u^2) (Higham,
#: Accuracy and Stability of Numerical Algorithms, 2nd ed., section 3.5).
DEFAULT_TOL = 64 * 2.0 ** -53


def _check_index(n: int, j: int) -> None:
    if not 1 <= j <= n:
        raise IndexError(f"index {j} outside 1..{n}")


def eigenvalue(n: int, j: int, x_image: IntPoly = X, m: int = 1) -> RingElem:
    """lambda_j^m = (-1)^((n+j) m) a^((2j-n-1) m), 1 <= j <= n, for any
    integer m, in the ring where x maps to ``x_image``."""
    _check_index(n, j)
    lam = a_pow((2 * j - n - 1) * m, x_image)
    return -lam if (n + j) * m % 2 else lam


def eigenvalues(n: int, x_image: IntPoly = X, m: int = 1) -> list[RingElem]:
    """lambda_1^m..lambda_n^m in the ring where x maps to ``x_image``."""
    return [RingElem(c0, c1, x_image) for c0, c1 in _eigen_parts(n, x_image, m)]


def _eigen_parts(n: int, x_image: IntPoly, m: int) -> list[tuple]:
    """lambda_1^m..lambda_n^m as pairs (c0, c1): ints at an integer x, IntPoly
    over Z[x].  lambda_(j+1) = -a^2 lambda_j, so they are one run of powers of
    the step (-a^2)^m (ring._powers).  At n = 1 no step is formed: a^(2m) is
    not needed there, and for a huge |m| it could not be computed."""
    x, part = ((x_image.constant_value(), IntPoly.constant_value) if x_image.degree() < 1
               else (x_image, lambda p: p))
    lam = eigenvalue(n, 1, x_image, m)
    step = a_pow(2 * m, x_image) if n > 1 else ZERO
    step = -step if m % 2 else step
    return _powers((part(lam.c0), part(lam.c1)), (part(step.c0), part(step.c1)), n, x)


def _integer_x(x: int | float | None) -> int | None:
    """The integer x names: an integral float such as 1.0 names the same
    ring as 1, a fractional or non-finite x is a ValueError, and None
    (Z[x]) stays."""
    if x is None:
        return None
    if (isinstance(x, float) and not x.is_integer()) or x != int(x):
        raise ValueError(f"the coefficient ring needs an integer x, got {x!r}")
    return int(x)


def verify_eigenpair(n: int, p: int, x: int | None = 1) -> bool:
    """Exact check that the matrix maps column p of U to lambda_p times it,
    in the ring of ``x``: an integer (default 1, the golden-ratio case), or
    None for Z[x].  Column p of R(x) U = U Lambda (_eigen_failures); the
    matrix build_rx returns is checked on u_1 only, where wrong entries of
    one row can cancel."""
    _check_index(n, p)
    return p not in _eigen_failures(n, _integer_x(x))


@lru_cache(maxsize=BUILD_CACHE_SIZE)
def _eigen_failures(n: int, x: int | None) -> frozenset[int]:
    """The columns p (1-based) where R(x) U and U Lambda differ, once per (n, x): all
    unless build_rx's R(x) maps u_1 as L(x) J (_rx_maps_u1), else where U, W or lambda_j
    has the wrong parity, U is not tied to W, or L(t) J W and W Lambda differ at t."""
    # R(x) = L(x) J, J the reversal: (L J)_ij = L_i,n+1-j = C(i-1, n-j) x^(i+j-n-1).
    if not _rx_maps_u1(n, x):
        return frozenset(range(1, n + 1))
    r, (u, odd_u), (w, odd_w) = _read(n, x), _rows(n, x, "u"), _rows(n, x, "w")
    failures, t = set(r.odd | odd_u | odd_w), r.t
    # Over Z[x], with the parities checked, W - U diag(f) and L(x) J W - W Lambda
    # are homogeneous (U_ij f_j and W_ij of parity i + n - j - 1, C(i-1, k-1)
    # x^(i-k) W_(n+1-k)j and W_ij lambda_j i + j) under _bound: both run at +t only.
    # f_j = (-1)^j a^(n-j): f_n = (-1)^n and f_j = -a f_(j+1).
    f = _powers(((-1) ** n, 0), (0, -1), n, t)[::-1]
    failures.update(j + 1 for ur, wr in zip(u, w) for j, (e, g, v) in enumerate(zip(ur, f, wr))
                    if _times(e, g, t) != v)
    rhs = [[_times(e, lam, t) for e, lam in zip(row, r.lams)] for row in w]
    # Slot width: entry i of L(t) v is at most (|t| + 1)^(i-1) max|v|, so each slot
    # of a difference of packed rows (a row's c0s or c1s, as digits at 2^width) lies
    # below 2^(width-1): its balanced digits (comb.unpack) are the slots, k in column k + 1.
    width = ((abs(t) + 1) ** (n - 1) * max(abs(c) for row in w for e in row for c in e)
             + max(abs(c) for row in rhs for e in row for c in e)).bit_length() + 1
    for part in (0, 1):
        lhs = _lower_pascal([pack([e[part] for e in row], width) for row in reversed(w)], t)
        for left, row in zip(lhs, rhs):
            if left != (right := pack([e[part] for e in row], width)):
                failures.update(k + 1 for k, d in enumerate(unpack(left - right, width)) if d)
    return frozenset(failures)


def _rx_maps_u1(n: int, x: int | None) -> bool:
    """Whether build_rx(n, x) u_1 = L(x) J u_1, so that the eigen check tests the
    matrix show-r prints.  u_1 is the paper's, u_i1 = (-1)^(i-1) a^(1-i): its units
    make a fault in any one entry of a row change that row's product, and as
    -a^-1 = x - a, u_(i+1)1 = (x - a) u_i1.  Both sides are compared at the
    Kronecker point of their difference (pascal._packing)."""
    rx = build_rx(n, x)
    u1 = [RingElem(c0, c1, rx.x_image)
          for c0, c1 in _powers((1, 0), (rx.x_image, -1), n, rx.x_image)]
    y = rx.mul_vector(u1)
    t, unwrap, _ = _packing(rx.x_image, lambda: _norm((y,)) + (1 << n - 1) * _norm((u1,)))
    (y0, y1, _), (v0, v1, _) = _coefficients((y, u1[::-1]), unwrap)
    return y0 == _lower_pascal(v0, t) and y1 == _lower_pascal(v1, t)


def involution_scale(n: int, x_image: IntPoly = X) -> RingElem:
    """(1 + a^2)^(n-1), the scalar square of the W matrix, in the ring
    where x maps to ``x_image``."""
    return (a_pow(2, x_image) + 1) ** (n - 1)


def _pair(e: RingElem, t: int) -> tuple[int, int]:
    """The parts (c0, c1) of e at the int t."""
    return e.c0(t), e.c1(t)


class _Reading(NamedTuple):
    """_read's t, the lambdas and scale as pairs at t, and their wrong parities."""

    t: int
    lams: list[tuple[int, int]]
    scale: tuple[int, int]
    odd: frozenset[int]  # the columns (1-based) where lambda has the wrong parity
    odd_scale: bool


@lru_cache(maxsize=1)
def _read(n: int, x: int | None) -> _Reading:
    """The scalars of the exact checks at their int t: t = x at an integer x,
    over Z[x] t = 2^h, h = _half_width(_bound), fixed before U or W is built."""
    x_image = X if x is None else IntPoly.const(x)
    scale, lams = involution_scale(n, x_image), eigenvalues(n, x_image)
    if x is not None:
        return _Reading(x, [_pair(lam, x) for lam in lams], _pair(scale, x), frozenset(), False)
    t = 1 << _half_width(_bound(n, lams, scale))
    (ls, s), (ls_, s_) = (([_pair(lam, v) for lam in lams], _pair(scale, v)) for v in (t, -t))
    return _Reading(t, ls, s, frozenset(_odd_columns([ls], [ls_], lambda *_: n + 1)),
                    s_ != (s[0], -s[1]))


def _bound(n: int, lams: list[RingElem], scale: RingElem) -> int:
    """B over Z[x]: above every coefficient the checks read at +/-2^h or compare (_read)."""
    # sigma: x -> -x, a -> -a fixes a^2 - x a - 1; e has parity p if sigma(e) = (-1)^p e,
    # and parities add in products.  Rows i of -S(F) and S(E) are -(a - t)^(n-i)
    # (-1 - a t)^(i-1) and (1 + t)^(n-i) (x - a + a t)^(i-1): with t odd, W_ij has parity
    # n - i + j - 1 and U_ij i - 1; lambda_j = +/-a^(2j-n-1) has n + 1, the scale
    # (2 + x a)^(n-1) 0.  A homogeneous e with coefficients under B < 2^(2h - 1) is zero
    # iff it is at 2^h (_half_width), and of parity p iff c0(-t) = (-1)^p c0(t) and
    # c1(-t) = -(-1)^p c1(t).  By pascal._packing's N lemma, N(U) <= u and N(W) <= w
    # (pascal._power_norm), the terms bound W W - scale I, L J W - W Lambda and
    # W - U diag(f), each above the N of what it reads.  E's rows have N = 2 and 5, F's 3,
    # N(lambda_j) <= 3^(n-1) as N(a^-1) = 3, and N(f) = Fib(n+1) as N(a^k) = Fib(k+2)
    # (a^k = F_k a + F_(k-1), Fibonacci polynomials): so the first term is the largest
    # and h the involution's own (tested for n = 1..200), as all are 2 at n = 1 and
    # - (2^(n-1) + 3^(n-1)) 3^(n-1) <= 2 9^(n-1) for n >= 2;
    # - 5^(n-1) Fib(n+1) + 3^(n-1) <= (phi + 1/3) 9^(n-1): Fib(n+1) <= phi^n, 5 phi < 9.
    u, w = (pascal._power_norm(n, m) for m in (pascal._E, pascal._F))
    f = _norm([[RingElem(c0, c1) for c0, c1 in _powers((1, 0), (0, 1), n, X)]])  # a^k, k < n
    return max(n * w * w + _norm([[scale]]), ((1 << n - 1) + _norm([lams])) * w, u * f + w)


@lru_cache(maxsize=2)  # U and W at n = 64 over Z[x] hold megabytes
def _rows(n: int, x: int | None, name: str) -> tuple[list[list[tuple[int, int]]], frozenset[int]]:
    """U (``name`` "u") or W ("w") as rows of pairs at _read's t, and the
    columns (1-based) with an entry of the wrong parity: build_u or build_w at
    an integer x, over Z[x] S(E) or -S(F) by pascal._rows_at at t and -t."""
    if x is not None:
        m = (build_u if name == "u" else build_w)(n, x)
        return [[_pair(e, x) for e in row] for row in m.rows], frozenset()
    m, sign, parity = ((pascal._E, 1, lambda i, j: i) if name == "u"
                       else (pascal._F, -1, lambda i, j: n - i + j - 1))
    pos, neg = (_rows_at(n, m, v, sign) for v in (_read(n, x).t, -_read(n, x).t))
    return pos, frozenset(_odd_columns(pos, neg, parity))


def _odd_columns(pos, neg, parity) -> set[int]:
    """The columns j (1-based) where rows ``pos`` at t and ``neg`` at -t have an
    entry (i, j), 0-based, not of parity(i, j) (_bound)."""
    return {j + 1 for i, (row, row_) in enumerate(zip(pos, neg))
            for j, (e, f) in enumerate(zip(row, row_))
            if f != ((-1) ** parity(i, j) * e[0], -(-1) ** parity(i, j) * e[1])}


def verify_involution(n: int, x: int | None = 1) -> bool:
    """Exact check that W @ W = (1 + a^2)^(n-1) I on the W that _rows gives: over
    Z[x] at x = 2^h, where W W - scale I, of parity i + l, is zero iff it is."""
    x = _integer_x(x)
    r, (w, odd_w) = _read(n, x), _rows(n, x, "w")
    return not (odd_w or r.odd_scale) and _squares_to(w, r.scale, r.t)


def _squares_to(w: list[list[tuple[int, int]]], s: tuple[int, int], x: int) -> bool:
    """Whether W W = s I at the int x, for W's rows and s as pairs (c0, c1):
    G W by pascal._w_times on W's packed rows, once G = W is checked on the
    column v_T = (1, T, ..., T^(n-1)), whose entry i packs row i at T."""
    # |p| = max(|p0|, |p1|).  G is -S(F) at x, as S is multiplicative: its
    # entries are values of polynomials of degree below n and N <= 3^(n-1)
    # (_bound), below g = (3 max(|x|, 1))^(n-1).  T = 2^k is above
    # twice g + |W|, so the balanced base-T digits of (G v_T - W v_T)_i are row
    # i of G - W.  Once G = W, |p q| <= (|x| + 2) |p| |q| puts each entry of
    # W W - s I below n (|x| + 2) |W|^2 + |s|, half the product's slot 2^k.
    n, top = len(w), max(abs(c) for row in w for e in row for c in e)
    k = ((3 * max(abs(x), 1)) ** (n - 1) + top).bit_length() + 1
    rows = lambda k: [tuple(pack(part, k) for part in zip(*row)) for row in w]
    if _w_times([(1 << k * j, 0) for j in range(n)], x) != rows(k):
        return False
    k = (n * (abs(x) + 2) * top ** 2 + max(map(abs, s))).bit_length() + 1
    return _w_times(rows(k), x) == [(s[0] << k * i, s[1] << k * i) for i in range(n)]


def _half_width(bound: int) -> int:
    """The least h with bound < 2^(2h - 1): h = ceil(k / 2) for Kronecker's
    k = bitlen(bound) + 1.  If g's coefficients lie below 2^(2h - 1) in
    absolute value, they are the balanced base-4^h digits of g(4^h), so
    x^p g(x^2) is zero iff its value at x = 2^h is."""
    return bound.bit_length() // 2 + 1


def _binomially_symmetric(w: list[list[tuple[int, int]]]) -> list[int] | None:
    """b, b_i = C(n-1, i-1), if b_i W_ij = b_j W_ji for i < j on W's rows of
    pairs at x = 1 (_rows), else None.  B W = diag(b) W is symmetric for every n:
      sum_ij b_i W_ij s^(i-1) t^(j-1) = -(F11 + F12 t + F21 s + F22 s t)^(n-1)
    over the rows of S(F) = -W, symmetric in s and t as F12 = F21."""
    n = len(w)
    b = [math.comb(n - 1, i) for i in range(n)]
    return b if all(b[i] * row[j][part] == b[j] * w[j][i][part]
                    for i, row in enumerate(w) for j in range(i + 1, n)
                    for part in (0, 1)) else None


def matrix_power_closed_form(n: int, m: int) -> IntMatrix:
    """m-th power of the n x n Pascal matrix via the spectral identity: the
    batch of one exponent (matrix_powers_closed_form)."""
    return matrix_powers_closed_form(n, [m])[0]


def matrix_powers_closed_form(n: int, exponents: Sequence[int]) -> list[IntMatrix]:
    """R^m of the n x n Pascal matrix for each m in ``exponents``, in order,
    via the spectral identity, all in one product.

    For each m, R^m is W diag(lambda_j^m) W at x = 1 divided by
    (1 + a^2)^(n-1), W and the scale as the exact checks read them (_rows,
    _read): it multiplies by the conjugate of that scale and
    divides by its norm, the integer (x^2 + 4)^(n-1) = 5^(n-1).  The
    conjugate is a scalar, so it folds into the diagonal factors f.  Each
    f_j is packed across the exponents at slot 2^K, and the packed factors
    scale the packed left operand of one W diag(f) W.  Only the n(n+1)/2
    entries on and above the diagonal are formed, and each is divided once
    and unpacked; those below follow from W's binomial symmetry.  Every
    quotient must be a plain integer; a failed division, a leftover
    a-component or a W that is not binomially symmetric raises
    (ExactDivisionError or ValueError) for the whole batch and would signal
    a formula bug, never an expected state.
    """
    # B W = W^T B (_binomially_symmetric), so P = W D W with D diagonal has
    # P^T B = W^T D (B W) = (B W) D W = B P, as diagonal matrices commute:
    # b_l P_li = b_i P_il.  R^m = P / norm for D = diag(lambda^m) conj, so
    # below the diagonal R^m_il = b_l R^m_li / b_i, an exact division.
    w, x_image = _rows(n, 1, "w")[0], IntPoly.const(1)
    b = _binomially_symmetric(w)
    if b is None:
        raise ValueError(f"W at n = {n} fails b_i W_ij = b_j W_ji, "
                         "so its lower triangle cannot be mirrored")
    scale = RingElem(*_read(n, 1).scale, x_image)
    conj, norm = scale.conjugate(), scale.norm().constant_value()
    conj = (conj.c0.constant_value(), conj.c1.constant_value())
    fs = [[_times(lam, conj, 1) for lam in _eigen_parts(n, x_image, m)] for m in exponents]
    if not fs:
        return []
    # The ring product is bilinear, so with F_j = sum_s f_j^(s) 2^(K s) each
    # part of W diag(F) W at (i, l) is sum_s e_s 2^(K s), e_s that part of
    # W diag(f^(s)) W.  With |p| = max(|p0|, |p1|), |p q| <= 3 |p| |q| at x = 1,
    # so |e_s| <= 9 n |W|^2 max|f| < 2^(K-1): the e_s are the part's balanced
    # base-2^K digits (comb.unpack), and balanced digits are unique.  So
    # c1 = 0 iff every slot's c1 is (as_int).  c0 = norm Q (divide_exact); if
    # Q is sum_s q_s 2^(K s) over the S = len(exponents) slots alone, in
    # balanced digits with |q_s| norm < 2^(K-1), then the norm q_s are balanced
    # digits of c0 too, so e_s = norm q_s: slot s is divisible, with quotient
    # q_s.  Without the digit bound a packed c0 can be divisible while a slot
    # is not, and without the count a slot above the last would be dropped.
    top = max(abs(c) for row in w for e in row for c in e)
    k = (9 * n * top ** 2 * max(abs(c) for f in fs for pair in f for c in pair)).bit_length() + 1
    factors = [tuple(pack(part, k) for part in zip(*col)) for col in zip(*fs)]
    limit = ((1 << k - 1) - 1) // norm
    powers = [[[0] * n for _ in range(n)] for _ in fs]
    packed = [(p0, p1, list(map(add, p0, p1))) for p0, p1 in (zip(*row) for row in w)]
    for i, upper in enumerate(_upper_square(packed, factors, 1)):
        for l, (c0, c1) in enumerate(upper, i):
            digits = unpack(RingElem(c0, c1, x_image).divide_exact(norm).as_int(), k)
            for m, rows, q in zip(exponents, powers, digits):  # slots past the digits stay 0
                rows[i][l] = q
                if abs(q) > limit:
                    raise ExactDivisionError(
                        f"entry ({i + 1}, {l + 1}) of W diag(f) W is not divisible by {norm} "
                        f"in every slot: quotient digit {q} at m = {m}")
            if len(digits) > len(exponents):
                raise ExactDivisionError(f"entry ({i + 1}, {l + 1}) of W diag(f) W has "
                                         f"a slot above the {len(fs)} exponents")
    for rows in powers:
        for i in range(1, n):
            for l in range(i):
                q, r = divmod(b[l] * rows[l][i], b[i])
                if r:
                    raise ExactDivisionError(
                        f"b_{l + 1} R_{l + 1},{i + 1} = {b[l] * rows[l][i]} is not divisible "
                        f"by b_{i + 1} = {b[i]}")
                rows[i][l] = q
    return [IntMatrix(rows) for rows in powers]


def matrix_power_oracle(n: int, m: int) -> IntMatrix:
    """Independent m-th power: repeated integer multiplication, and for
    negative m the fraction-free Gauss-Jordan inverse (the determinant
    is +/-1)."""
    if m >= 0:
        return build_r(n) ** m
    return _inverse_r(n) ** (-m)


@lru_cache(maxsize=BUILD_CACHE_SIZE)
def _inverse_r(n: int) -> IntMatrix:
    """build_r(n)^-1, computed once per n for every negative exponent."""
    return build_r(n).inverse_unimodular()


def eigen_distinctness(lams: list[RingElem]) -> float:
    """Minimum pairwise gap of the exact eigenvalues ``lams`` at an integer x,
    each rounded once; +inf for one eigenvalue.  The closest pair is adjacent
    once sorted, and rounding is monotone (fl(c - a) >= fl(b - a) for
    a <= b <= c), so the gaps between neighbours give the same float."""
    lams = sorted(map(float, lams))
    return min(map(sub, lams[1:], lams), default=math.inf)


class DiagonalizationReport(NamedTuple):
    """Max-norm residuals of the numeric V@V - I and V@R@V - diag(lambda),
    each beside its magnitude, the max-norm of |V||V| or of |V||R||V|.
    A check passes when its relative residual is at most ``tol``."""

    n: int
    x: int
    tol: float
    residual_involution: float
    residual_diagonalization: float
    magnitude_involution: float
    magnitude_diagonalization: float

    @property
    def relative_involution(self) -> float:
        return self.residual_involution / self.magnitude_involution

    @property
    def relative_diagonalization(self) -> float:
        return self.residual_diagonalization / self.magnitude_diagonalization


def _product(a: list[list[float]], b: list[list[float]]) -> list[list[float]]:
    """a @ b in double precision, each entry one correctly rounded fsum."""
    cols = tuple(zip(*b))
    return [[math.fsum(map(mul, row, col)) for col in cols] for row in a]


def verify_diagonalization_numeric(
    n: int, x: int = 1, tol: float = DEFAULT_TOL
) -> DiagonalizationReport:
    """Round V = W / (1+a^2)^((n-1)/2) and R(x) at the integer ``x`` and
    report the residuals of V@V - I and V@R@V - diag(lambda), judged on
    one relative scale (see DiagonalizationReport and DEFAULT_TOL).  W, the
    scale and the lambdas are the exact checks' pairs (_rows, _read), each
    rounded once (ring._float)."""
    x = _integer_x(x)
    reading, (w, _) = _read(n, x), _rows(n, x, "w")
    root = math.sqrt(_float(reading.scale, x))
    v = [[_float(e, x) / root for e in row] for row in w]
    r = [[float(e) for e in row] for row in build_rx(n, x).rows]
    vv, vrv = _product(v, v), _product(_product(v, r), v)
    for i, lam in enumerate(reading.lams):
        vv[i][i] -= 1.0
        vrv[i][i] -= _float(lam, x)
    av, ar = ([[abs(e) for e in row] for row in m] for m in (v, r))
    return DiagonalizationReport(n, x, tol, *(
        max(abs(e) for row in m for e in row)
        for m in (vv, vrv, _product(av, av), _product(_product(av, ar), av))
    ))
