"""Eigenvalue verification, the involution identity, and exact matrix powers.

The eigenvalue attached to column j of an n-dimensional family member is
(-1)^(n+j) a^(2j-n-1), an exact unit of the coefficient ring.  The eigen
check is one matrix identity per (n, x), R(x) U = U Lambda with
Lambda = diag(lambda_1..lambda_n): both sides are computed once, and
eigenpair p compares their columns p.

Because the scaled eigenvector matrix W satisfies
W^2 = (1+a^2)^(n-1) I, integer powers of the Pascal matrix are
W diag(lambda^m) W divided by (1+a^2)^(n-1).  The diagonal factor, with
the conjugate of the divisor folded in, is applied by scaling column j
of W, so one matrix product remains.  The entries are then divided by
the divisor's norm, an integer; any remainder or leftover a-component is
a hard error, which makes the power routine a self-test of the whole
formula chain.
W is U with columns scaled by units, so the exact involution check also
proves U invertible at every x.  The check forms only the n(n+1)/2
entries of W^2 on and above the diagonal: with b_i = C(n-1, i-1),
b_i W_ij = b_j W_ji for every n, which the check verifies coefficient by
coefficient, and this symmetry carries the upper triangle of W^2 to the
lower one (the proof is in verify_involution).

Eigenvalues and the involution scale take the image of x in the target
ring (X for Z[x], a constant for an integer x) and are computed there
directly; specializing the Z[x] value gives the same element.

Numeric checks round each entry once from its exact value and sum each
product entry with ``math.fsum``; both residuals are judged relative to
the product of absolute values (DEFAULT_TOL).  Exact checks carry zero
tolerance.
"""
from __future__ import annotations

import math
from functools import lru_cache
from operator import mul, sub
from typing import NamedTuple

from .pascal import (BUILD_CACHE_SIZE, IntMatrix, RingMatrix, _upper_square, build_r,
                     build_rx, build_u, build_w)
from .ring import X, IntPoly, RingElem, a_pow

#: Default tolerance on a relative residual: 64 u, u = 2^-53.  An entry of
#: V is within 3.5u of exact, of R or lambda within u, and an fsum dot
#: product of rounded terms within 2u of their |a||b| sum, so at any n the
#: residuals stay below 9u |V||V| and 13u |V||R||V| up to O(u^2) (Higham,
#: Accuracy and Stability of Numerical Algorithms, 2nd ed., section 3.5).
DEFAULT_TOL = 64 * 2.0 ** -53


def _check_index(n: int, j: int) -> None:
    if not 1 <= j <= n:
        raise IndexError(f"index {j} outside 1..{n}")


def eigenvalue(n: int, j: int, x_image: IntPoly = X) -> RingElem:
    """The j-th eigenvalue (-1)^(n+j) a^(2j-n-1), 1 <= j <= n, in the ring
    where x maps to ``x_image``."""
    return eigenvalue_power(n, j, 1, x_image)


def eigenvalues(n: int, x_image: IntPoly = X) -> list[RingElem]:
    """lambda_1..lambda_n in the ring where x maps to ``x_image``; each is
    -a^2 times the one before, one ring product per eigenvalue."""
    step = -a_pow(2, x_image)
    lams = [eigenvalue(n, 1, x_image)]
    for _ in range(n - 1):
        lams.append(lams[-1] * step)
    return lams


def eigenvalue_power(n: int, j: int, m: int, x_image: IntPoly = X) -> RingElem:
    """lambda_j^m for any integer m; negative m negates the a-exponent."""
    _check_index(n, j)
    lam = a_pow(m * (2 * j - n - 1), x_image)
    return -lam if ((n + j) % 2 and m % 2) else lam


def _integer_x(x: int | float | None) -> int | None:
    """The integer x names: an integral float such as 1.0 names the same
    ring as 1, a fractional or non-finite x is a ValueError, and None
    (Z[x]) stays."""
    if x is None:
        return None
    if (isinstance(x, float) and not x.is_integer()) or x != int(x):
        raise ValueError(f"the coefficient ring needs an integer x, got {x!r}")
    return int(x)


@lru_cache(maxsize=BUILD_CACHE_SIZE)
def _specialized(build, n: int, x: int | None) -> RingMatrix:
    """build(n) with x specialized to the integer ``x``; over Z[x] when None.
    Callers pass x through _integer_x first, so 1.0 never keys a float entry."""
    m = build(n)
    return m if x is None else m.specialize(x)


def verify_eigenpair(n: int, p: int, x: int | None = 1) -> bool:
    """Exact check that the matrix maps column p of U to lambda_p times it.

    ``x`` selects the coefficient ring: an integer specializes there
    (default 1, the golden-ratio case), None keeps Z[x] coefficients.
    Column p of R(x) U is compared with column p of U Lambda (_eigen_sides).
    """
    _check_index(n, p)
    lhs, rhs = _eigen_sides(n, _integer_x(x))
    return lhs.column(p) == rhs.column(p)


@lru_cache(maxsize=BUILD_CACHE_SIZE)
def _eigen_sides(n: int, x: int | None) -> tuple[RingMatrix, RingMatrix]:
    """R(x) U and U Lambda, Lambda = diag(lambda_1..lambda_n), computed once
    per (n, x) for all n eigenpairs."""
    r = _specialized(build_rx, n, x)
    u = _specialized(build_u, n, x)
    return r @ u, u.scale_columns(eigenvalues(n, u.x_image))


def involution_scale(n: int, x_image: IntPoly = X) -> RingElem:
    """(1 + a^2)^(n-1), the scalar square of the W matrix, in the ring
    where x maps to ``x_image``."""
    return (a_pow(2, x_image) + 1) ** (n - 1)


def verify_involution(n: int, x: int | None = 1) -> bool:
    """Exact check that W @ W = (1 + a^2)^(n-1) I.

    With ``x=None`` the comparison is over Z[x] coefficients, the
    stronger polynomial-entry form of the statement.  Only the entries of
    W @ W on and above the diagonal are formed; a symmetry of W, checked
    first, settles the rest.
    """
    w = _specialized(build_w, n, _integer_x(x))
    # With b_i = C(n-1, i-1), b_i W_ij = b_j W_ji for every n.  Summing the
    # binomial theorem over u_ij's definition gives
    #   sum_j u_ij t^(j-1) = a^(1-i) (1+t)^(n-i) (a^2 t - 1)^(i-1),
    # and with W_ij = (-1)^j a^(n-j) u_ij, once more over i,
    #   sum_ij b_i W_ij s^(i-1) t^(j-1) = -(a - s - t - a s t)^(n-1),
    # which is symmetric in s and t.  So B W is symmetric, B = diag(b), and
    # P = W W satisfies B P = W^T B W = P^T B: b_l P_li = b_i P_il.  Once
    # P_il = scale * delta_il for i <= l, b_l P_li = 0 below the diagonal,
    # so P_li = 0 there (b_l != 0, and the ring has no additive torsion).
    # The symmetry is checked on this W, coefficient by coefficient, not
    # assumed: a wrong entry fails either here or in the upper triangle.
    b = [math.comb(n - 1, i) for i in range(n)]
    rows = w.rows
    if any(_times(b[i], rows[i][j]) != _times(b[j], rows[j][i])
           for i in range(n) for j in range(i + 1, n)):
        return False
    want = RingMatrix.scalar(n, involution_scale(n, w.x_image)).rows
    return all(got == list(row[i:])
               for i, (got, row) in enumerate(zip(_upper_square(rows, w.x_image), want)))


def _times(b: int, e: RingElem) -> tuple[list[int], list[int]]:
    """The coefficients of b e: those of c0, then of c1, each times b."""
    return [b * c for c in e.c0.coeffs], [b * c for c in e.c1.coeffs]


def matrix_power_closed_form(n: int, m: int) -> IntMatrix:
    """m-th power of the n x n Pascal matrix via the spectral identity.

    Computes W diag(lambda_j^m) W at x = 1 and divides each entry by
    (1 + a^2)^(n-1): it multiplies by the conjugate of that scale and
    divides by its norm, the integer (x^2 + 4)^(n-1) = 5^(n-1).  The
    conjugate is a scalar, so it folds into the diagonal: column j of W is
    scaled by lambda_j^m times the conjugate, n ring products, and one
    matrix product remains.  Every quotient must be a plain integer; a failed
    division or a leftover a-component raises (ExactDivisionError or
    ValueError) and would signal a formula bug, never an expected state.
    """
    w = _specialized(build_w, n, 1)
    scale = involution_scale(n, w.x_image)
    conj, norm = scale.conjugate(), scale.norm().constant_value()
    factors = [eigenvalue_power(n, j, m, w.x_image) * conj for j in range(1, n + 1)]
    raw = w.scale_columns(factors) @ w
    return IntMatrix([[e.divide_exact(norm).as_int() for e in row] for row in raw.rows])


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


def eigen_distinctness(n: int, x: int = 1) -> float:
    """Minimum pairwise eigenvalue gap; +inf when n = 1.  The closest pair is
    adjacent once sorted, and rounding is monotone (fl(c - a) >= fl(b - a) for
    a <= b <= c), so the gaps between neighbours give the same float."""
    lams = sorted(eigenvalues_numeric(n, x))
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
    w = _specialized(build_w, n, x)
    root = math.sqrt(float(involution_scale(n, w.x_image)))
    v = [[float(e) / root for e in row] for row in w.rows]
    r = [[float(e) for e in row] for row in _specialized(build_rx, n, x).rows]
    vv, vrv = _product(v, v), _product(_product(v, r), v)
    for i, lam in enumerate(eigenvalues_numeric(n, x)):
        vv[i][i] -= 1.0
        vrv[i][i] -= lam
    av, ar = ([[abs(e) for e in row] for row in m] for m in (v, r))
    return DiagonalizationReport(n, x, tol, *(
        max(abs(e) for row in m for e in row)
        for m in (vv, vrv, _product(av, av), _product(_product(av, ar), av))
    ))
