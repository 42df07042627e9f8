"""Eigenvalue verification, the involution identity, and exact matrix powers.

The eigenvalue attached to column j of an n-dimensional family member is
(-1)^(n+j) a^(2j-n-1), an exact unit of the coefficient ring.  The eigen
check is one matrix identity per (n, x), R(x) U = U Lambda with
Lambda = diag(lambda_1..lambda_n).  R(x) = L(x) J, L(x) the lower Pascal
matrix and J the reversal, so R(x) U comes from the Pascal recurrence on
the rows of J U, whose c0 parts and c1 parts are each packed into one
int per row: n(n-1)/2 steps of one product by x (x = 2^h over Z[x], as
for the involution) and one sum.  Row i is compared with row i of U Lambda
as ints, and only a part that differs is unpacked, to name its failing
columns.  build_rx's R(x) is
checked against L(x) J on U's first column only, whose entries are
units: a wrong entry fails the check, but faults in two or more entries
of one row can cancel there.

W = -S(F) and U = S(E) with F = E diag(a, -1), and S is multiplicative
(pascal), so W is U with columns scaled by units.  The exact involution
check W^2 = (1+a^2)^(n-1) I proves the W it reads invertible at every x.
At an integer x the eigen check ties U to that W, W = U diag((-1)^j a^(n-j)),
and fails a column that differs, so U is proved invertible too; over Z[x]
nothing ties them yet.  The involution check reads
build_w's W at an integer x, and over Z[x] runs its recurrence at x = +/-2^h,
h fixed beforehand at half the Kronecker width as x -> -x, a -> -a grades
the ring.  F = L D U' with l = x - a, so W W is two Pascal passes with the
step l on W's packed rows (pascal._w_times), checked first to apply W.  With
b_i = C(n-1, i-1), b_i W_ij = b_j W_ji (_binomially_symmetric), so B W is
symmetric, B = diag(b), and so is B W D W for every diagonal D.

Because of the involution, integer powers of the Pascal matrix are
W diag(lambda^m) W divided by (1+a^2)^(n-1).  W is checked and packed
once per n (_checked_w).  The diagonal factors of every exponent asked
for, with the conjugate of the divisor folded in, are packed across the
exponents (Kronecker substitution) and scale the packed left operand of
one pascal._upper_square.  Only the entries on and above the diagonal
are formed, and each is divided once by the divisor's norm, an integer,
and unpacked into one entry per exponent; any remainder, out-of-range
digit or leftover a-component is a hard error, which makes the power
routine a self-test of the whole formula chain.  The symmetry gives the
entries below the diagonal by an exact integer division each (the proofs
are in matrix_powers_closed_form).

Matrices, eigenvalues and the involution scale are computed directly in
the target ring: the builders take x itself, the scalars the image of x
(X for Z[x], a constant for an integer x).

Numeric checks round each entry once from its exact value and sum each
product entry with ``math.fsum``; both residuals are judged relative to
the product of absolute values (DEFAULT_TOL).  Exact checks carry zero
tolerance.
"""
from __future__ import annotations

import math
from functools import lru_cache
from operator import mul, sub
from typing import NamedTuple, Sequence

from .comb import pack, unpack
from .pascal import (BUILD_CACHE_SIZE, IntMatrix, _coefficients, _lower_pascal, _norm,
                     _packing, _scaled, _upper_square, _w_at, _w_times, build_r, build_rx,
                     build_u, build_w)
from .ring import X, ExactDivisionError, IntPoly, RingElem, _times, a_pow

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
    over Z[x].  lambda_(j+1) = -a^2 lambda_j, so each is (-a^2)^m times the one
    before, one ring._times per eigenvalue.  At n = 1 no step is formed: a^(2m)
    is not needed there, and for a huge |m| it could not be computed."""
    x, part = ((x_image.constant_value(), IntPoly.constant_value) if x_image.degree() < 1
               else (x_image, lambda p: p))
    lam = eigenvalue(n, 1, x_image, m)
    out = [(part(lam.c0), part(lam.c1))]
    if n > 1:
        step = a_pow(2 * m, x_image)
        step = -step if m % 2 else step
        step = (part(step.c0), part(step.c1))
        for _ in range(n - 1):
            out.append(_times(out[-1], step, x))
    return out


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
    """Exact check that the matrix maps column p of U to lambda_p times it.

    ``x`` selects the coefficient ring: an integer x (default 1, the
    golden-ratio case), or None for Z[x] coefficients.
    Column p of R(x) U is compared with column p of U Lambda (_eigen_failures),
    with R(x) U formed as L(x) J U.  The matrix build_rx returns is checked on
    U's first column only: one wrong entry in a row fails every eigenpair,
    but wrong entries that cancel on that column pass.
    """
    _check_index(n, p)
    return p not in _eigen_failures(n, _integer_x(x))


@lru_cache(maxsize=BUILD_CACHE_SIZE)
def _eigen_failures(n: int, x: int | None) -> frozenset[int]:
    """The columns p (1-based) where R(x) U and U Lambda differ,
    Lambda = diag(lambda_1..lambda_n), found once per (n, x) for all n
    eigenpairs.  R(x) U is L(x) J U, formed by the Pascal recurrence on
    the rows of J U (pascal._lower_pascal) at the int t: x, or 2^h over
    Z[x].  A row's c0 values at t are packed into one int, and its c1
    values into another, so a step is one product by t and one sum on a
    whole part, and row i is compared with the packed row i of U Lambda.
    Every eigenpair fails unless build_rx's R(x) maps u_1 as L(x) J does
    (_rx_maps_u1), and at an integer x column j unless it is tied to W's."""
    # R(x) = L(x) J, J the reversal: (L J)_ij = L_i,n+1-j = C(i-1, n-j) x^(i+j-n-1).
    u = build_u(n, x)
    if not _rx_maps_u1(n, x, [row[0] for row in u.rows]):
        return frozenset(range(1, n + 1))
    lams = eigenvalues(n, u.x_image)
    failures, t = set(), x
    if x is None:
        # Under sigma (verify_involution) U_ij has parity i - 1 and lambda_j
        # parity n + 1, checked per column, not assumed.  Then entry (i, j) of
        # L(x) J U is sum_k C(i-1, k-1) x^(i-k) U_(n+1-k)j, each term of parity
        # i - k + n - k = i + n (mod 2), as is U_ij lambda_j: the difference is
        # homogeneous.  N(x) = 1 and sum_k C(i-1, k-1) = 2^(i-1), so its
        # coefficients are at most 2^(n-1) N(U) + N(U) N(Lambda) (pascal._packing),
        # and it is zero iff its value at 2^h is (_half_width).
        failures = {j + 1 for j, lam in enumerate(lams)
                    if not _homogeneous(lam, (n + 1) % 2)
                    or not all(_homogeneous(row[j], i % 2) for i, row in enumerate(u.rows))}
        t = 1 << _half_width(((1 << n - 1) + _norm((lams,))) * _norm(u.rows))
    packed = _coefficients(u.rows, lambda c: c(t))
    if x is not None:  # the tie W = U diag((-1)^j a^(n-j)) (pascal.build_w)
        f = [a_pow(n - j, u.x_image) * (-1) ** j for j in range(1, n + 1)]
        tied = _scaled(packed, [(e.c0(x), e.c1(x)) for e in f], x)
        w = _coefficients(build_w(n, x).rows, IntPoly.constant_value)
        failures.update(j + 1 for r, s in zip(tied, w) for j in range(n)
                        if (r[0][j], r[1][j]) != (s[0][j], s[1][j]))
    rhs = _scaled(packed, [(f.c0(t), f.c1(t)) for f in lams], t)
    # Slot width: entry i of L(t) v is at most (|t| + 1)^(i-1) max|v|, so each
    # slot of a difference of packed rows lies below 2^(width-1), and the rows
    # are equal iff the ints are.  The c0s of a row pack as the value at
    # 2^width of the polynomial with them as coefficients, and so do its c1s;
    # the balanced digits of a difference (comb.unpack) are its slots,
    # slot k in column k + 1.
    width = ((abs(t) + 1) ** (n - 1) * max(abs(c) for p0, p1, _ in packed for c in p0 + p1)
             + max(abs(c) for r0, r1, _ in rhs for c in r0 + r1)).bit_length() + 1
    for part in (0, 1):
        lhs = _lower_pascal([pack(p[part], width) for p in reversed(packed)], t)
        for left, r in zip(lhs, rhs):
            if left != (right := pack(r[part], width)):
                failures.update(k + 1 for k, d in enumerate(unpack(left - right, width)) if d)
    return frozenset(failures)


def _rx_maps_u1(n: int, x: int | None, u1: list[RingElem]) -> bool:
    """Whether build_rx(n, x) u_1 = L(x) J u_1, so that the eigen check
    tests the matrix that show-r prints.  Entry i of U's column u_1 is
    (-1)^(i-1) a^(1-i), a unit, so a fault in any one entry of a row of the
    built R(x) changes that row's product; faults in two or more entries
    of a row can cancel.  Both sides are compared at the Kronecker point
    of their difference (pascal._packing), so no parity is needed: a fault
    in U's column 1 fails that column alone."""
    y = build_rx(n, x).mul_vector(u1)
    t, unwrap, _ = _packing(u1[0].x_image, lambda: _norm((y,)) + (1 << n - 1) * _norm((u1,)))
    (y0, y1, _), (v0, v1, _) = _coefficients((y, u1[::-1]), unwrap)
    return y0 == _lower_pascal(v0, t) and y1 == _lower_pascal(v1, t)


def involution_scale(n: int, x_image: IntPoly = X) -> RingElem:
    """(1 + a^2)^(n-1), the scalar square of the W matrix, in the ring
    where x maps to ``x_image``."""
    return (a_pow(2, x_image) + 1) ** (n - 1)


def verify_involution(n: int, x: int | None = 1) -> bool:
    """Exact check that W @ W = (1 + a^2)^(n-1) I: at the integer x on build_w(n, x),
    or for x=None over Z[x] on build_w's recurrence run at x = +/-2^h (pascal._w_at),
    h from the builder lemma; that build_w(n, None) is the same there is a test."""
    x = _integer_x(x)
    scale = involution_scale(n, X if x is None else IntPoly.const(x))
    if x is not None:
        w = [[(e.c0(x), e.c1(x)) for e in row] for row in build_w(n, x).rows]
        return _squares_to(w, (scale.c0(x), scale.c1(x)), x)
    # sigma: x -> -x, a -> -a fixes a^2 - x a - 1, a ring automorphism.  Call
    # e homogeneous of parity p when sigma(e) = (-1)^p e; parities add in
    # products.  W_ij (1-based) has parity n - i + j - 1: row i of -S(F) is
    # -(a - t)^(n-i) (-1 - a t)^(i-1), of parity n - i when t counts as odd.
    # So (W W)_il has parity i + l, the scale (2 + x a)^(n-1) parity 0, and
    # each entry of D = W W - scale I is homogeneous.  N(W) <= 3^(n-1), as each
    # row of F has N = 3 (pascal._symmetric_power), so by pascal._packing's
    # lemma D's coefficients are at most n 9^(n-1) + N(scale) < 2^(2h - 1).
    # A homogeneous c0 or c1 is x^p g(x^2), and g's coefficients are then the
    # balanced base-4^h digits of g(4^h), so D = 0 iff D at 2^h is (_half_width).
    # So are the even and the odd part of each c0 and c1 of W and the scale,
    # so e has parity p iff c0(-t) = (-1)^p c0(t) and c1(-t) = -(-1)^p c1(t).
    t = 1 << _half_width(n * 9 ** (n - 1) + _norm([[scale]]))
    (w, s), (w_neg, s_neg) = ((_w_at(n, v), (scale.c0(v), scale.c1(v))) for v in (t, -t))
    return all(f == ((-1) ** p * e[0], -(-1) ** p * e[1]) for e, f, p in [(s, s_neg, 0), *(
        (e, f, n - i + j - 1) for i, (row, row_neg) in enumerate(zip(w, w_neg))
        for j, (e, f) in enumerate(zip(row, row_neg)))]) and _squares_to(w, s, t)


def _squares_to(w: list[list[tuple[int, int]]], s: tuple[int, int], x: int) -> bool:
    """Whether W W = s I at the int x, for W's rows and s as pairs (c0, c1):
    G W by pascal._w_times on W's packed rows, once G = W is checked on the
    column v_T = (1, T, ..., T^(n-1)), whose entry i packs row i at T."""
    # |p| = max(|p0|, |p1|).  G is -S(F) at x, as S is multiplicative: its
    # entries are values of polynomials of degree below n and N <= 3^(n-1)
    # (verify_involution), below g = (3 max(|x|, 1))^(n-1).  T = 2^k is above
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


@lru_cache(maxsize=BUILD_CACHE_SIZE)
def _checked_w(n: int) -> tuple[list, list[int], RingElem] | None:
    """(packed, b, scale) at x = 1 for every exponent of the closed form: W packed,
    b_i = C(n-1, i-1) and (1 + a^2)^(n-1); None if W is not binomially symmetric."""
    w = build_w(n, 1)
    packed = _coefficients(w.rows, IntPoly.constant_value)
    b = _binomially_symmetric(packed)
    if b is None:
        return None
    return packed, b, involution_scale(n, w.x_image)


def _homogeneous(e: RingElem, parity: int) -> bool:
    """Whether c0 has only powers x^d with d = parity and c1 only powers
    with d = parity + 1 (mod 2): sigma(e) = (-1)^parity e (verify_involution)."""
    return not any(e.c0.coeffs[1 - parity::2]) and not any(e.c1.coeffs[parity::2])


def _half_width(bound: int) -> int:
    """The least h with bound < 2^(2h - 1): h = ceil(k / 2) for Kronecker's
    k = bitlen(bound) + 1.  If g's coefficients lie below 2^(2h - 1) in
    absolute value, they are the balanced base-4^h digits of g(4^h), so
    x^p g(x^2) is zero iff its value at x = 2^h is."""
    return bound.bit_length() // 2 + 1


def _binomially_symmetric(packed) -> list[int] | None:
    """b, b_i = C(n-1, i-1), if b_i W_ij = b_j W_ji for i < j on W's ints at x = 1
    (pascal._coefficients), else None.  B W = diag(b) W is symmetric for every n:
      sum_ij b_i W_ij s^(i-1) t^(j-1) = -(F11 + F12 t + F21 s + F22 s t)^(n-1)
    over the rows of S(F) = -W, symmetric in s and t as F12 = F21."""
    n = len(packed)
    b = [math.comb(n - 1, i) for i in range(n)]
    return b if all(b[i] * p[part][j] == b[j] * packed[j][part][i]
                    for i, p in enumerate(packed) for j in range(i + 1, n)
                    for part in (0, 1)) else None


def matrix_power_closed_form(n: int, m: int) -> IntMatrix:
    """m-th power of the n x n Pascal matrix via the spectral identity: the
    batch of one exponent (matrix_powers_closed_form)."""
    return matrix_powers_closed_form(n, [m])[0]


def matrix_powers_closed_form(n: int, exponents: Sequence[int]) -> list[IntMatrix]:
    """R^m of the n x n Pascal matrix for each m in ``exponents``, in order,
    via the spectral identity, all in one product.

    For each m, R^m is W diag(lambda_j^m) W at x = 1 divided by
    (1 + a^2)^(n-1): it multiplies by the conjugate of that scale and
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
    checked = _checked_w(n)
    if checked is None:
        raise ValueError(f"W at n = {n} fails b_i W_ij = b_j W_ji, "
                         "so its lower triangle cannot be mirrored")
    packed, b, scale = checked
    conj, norm, x_image = scale.conjugate(), scale.norm().constant_value(), scale.x_image
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
    top = max(abs(c) for p0, p1, _ in packed for c in p0 + p1)
    k = (9 * n * top ** 2 * max(abs(c) for f in fs for pair in f for c in pair)).bit_length() + 1
    factors = [tuple(pack(part, k) for part in zip(*col)) for col in zip(*fs)]
    limit = ((1 << k - 1) - 1) // norm
    powers = [[[0] * n for _ in range(n)] for _ in fs]
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


def eigenvalues_numeric(n: int, x: int = 1) -> list[float]:
    """All eigenvalues at the integer ``x``, each rounded once from its
    exact value."""
    return [float(lam) for lam in eigenvalues(n, IntPoly.const(x))]


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
    one relative scale (see DiagonalizationReport and DEFAULT_TOL)."""
    x = _integer_x(x)
    w = build_w(n, x)
    root = math.sqrt(float(involution_scale(n, w.x_image)))
    v = [[float(e) / root for e in row] for row in w.rows]
    r = [[float(e) for e in row] for row in build_rx(n, x).rows]
    vv, vrv = _product(v, v), _product(_product(v, r), v)
    for i, lam in enumerate(eigenvalues_numeric(n, x)):
        vv[i][i] -= 1.0
        vrv[i][i] -= lam
    av, ar = ([[abs(e) for e in row] for row in m] for m in (v, r))
    return DiagonalizationReport(n, x, tol, *(
        max(abs(e) for row in m for e in row)
        for m in (vv, vrv, _product(av, av), _product(_product(av, ar), av))
    ))
