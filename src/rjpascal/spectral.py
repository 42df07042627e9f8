"""Eigenvalue verification, the involution identity, and exact matrix powers.

The eigenvalue attached to column j of an n-dimensional family member is
(-1)^(n+j) a^(2j-n-1), an exact unit of the coefficient ring.  Because
the scaled eigenvector matrix W satisfies W^2 = (1+a^2)^(n-1) I, integer
powers of the Pascal matrix are W diag(lambda^m) W divided by
(1+a^2)^(n-1).  The diagonal factor is applied by scaling column j of W
by lambda_j^m, so one matrix product remains.  The division is performed
exactly in the ring and any remainder or leftover a-component is a hard
error, which makes the power routine a self-test of the whole formula
chain.  W is U with columns scaled by units, so the exact involution
check also proves U invertible at every x.

Eigenvalues and the involution scale take the image of x in the target
ring (X for Z[x], a constant for an integer x) and are computed there
directly; specializing the Z[x] value gives the same element.

Numeric checks evaluate everything in double precision at the positive
root and report max-norm residuals; the diagonalization residual is judged
relative to the largest eigenvalue.  Exact checks carry zero tolerance.
numpy is imported inside the numeric checks only, so the exact paths
never load it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .pascal import (BUILD_CACHE_SIZE, IntMatrix, RingMatrix, build_r, build_rx,
                     build_u, build_w)
from .ring import X, IntPoly, RingElem, a_pow, metallic_ratio


def default_tolerance(n: int) -> float:
    """Numeric tolerance: 1e-9 through n = 8, 1e-8 beyond (rounding growth)."""
    return 1e-9 if n <= 8 else 1e-8


def _check_index(n: int, j: int) -> None:
    if not 1 <= j <= n:
        raise IndexError(f"index {j} outside 1..{n}")


def eigenvalue(n: int, j: int, x_image: IntPoly = X) -> RingElem:
    """The j-th eigenvalue (-1)^(n+j) a^(2j-n-1), 1 <= j <= n, in the ring
    where x maps to ``x_image``."""
    return eigenvalue_power(n, j, 1, x_image)


def eigenvalue_power(n: int, j: int, m: int, x_image: IntPoly = X) -> RingElem:
    """lambda_j^m for any integer m; negative m negates the a-exponent."""
    _check_index(n, j)
    lam = a_pow(m * (2 * j - n - 1), x_image)
    return -lam if ((n + j) % 2 and m % 2) else lam


@lru_cache(maxsize=BUILD_CACHE_SIZE)
def _specialized(build, n: int, x: int | None) -> RingMatrix:
    """build(n) with x specialized to the integer ``x``; over Z[x] when None."""
    m = build(n)
    return m if x is None else m.specialize(x)


def verify_eigenpair(n: int, p: int, x: int | None = 1) -> bool:
    """Exact check that the matrix maps column p of U to lambda_p times it.

    ``x`` selects the coefficient ring: an integer specializes there
    (default 1, the golden-ratio case), None keeps Z[x] coefficients.
    """
    _check_index(n, p)
    r = _specialized(build_rx, n, x)
    u = _specialized(build_u, n, x)
    lam = eigenvalue(n, p, u.x_image)
    col = u.column(p)
    lhs = r.mul_vector(col)
    rhs = tuple(lam * e for e in col)
    return lhs == rhs


def involution_scale(n: int, x_image: IntPoly = X) -> RingElem:
    """(1 + a^2)^(n-1), the scalar square of the W matrix, in the ring
    where x maps to ``x_image``."""
    return (a_pow(2, x_image) + 1) ** (n - 1)


def verify_involution(n: int, x: int | None = 1) -> bool:
    """Exact check that W @ W = (1 + a^2)^(n-1) I.

    With ``x=None`` the comparison is over Z[x] coefficients, the
    stronger polynomial-entry form of the statement.
    """
    w = _specialized(build_w, n, x)
    scale = involution_scale(n, w.x_image)
    lhs = w @ w
    rhs = RingMatrix.identity(n, w.x_image).scalar_mul(scale)
    return lhs == rhs


def matrix_power_closed_form(n: int, m: int) -> IntMatrix:
    """m-th power of the n x n Pascal matrix via the spectral identity.

    Computes W diag(lambda_j^m) W at x = 1, with the diagonal factor
    applied as a column scaling of W, and divides each entry by
    (1 + a^2)^(n-1): it multiplies by the conjugate of that scale and
    divides by its norm, (x^2 + 4)^(n-1) = 5^(n-1), both computed once.
    Every quotient must be a plain integer; a failed division or a
    leftover a-component raises (ExactDivisionError or ValueError) and
    would signal a formula bug, never an expected state.
    """
    w = _specialized(build_w, n, 1)
    lams = [eigenvalue_power(n, j, m, w.x_image) for j in range(1, n + 1)]
    raw = w.scale_columns(lams) @ w
    scale = involution_scale(n, w.x_image)
    conj, norm = scale.conjugate(), scale.norm()
    entries = [
        [(e * conj).divide_exact(norm).as_int() for e in row] for row in raw.rows
    ]
    return IntMatrix(entries)


def matrix_power_oracle(n: int, m: int) -> IntMatrix:
    """Independent m-th power: repeated integer multiplication, and for
    negative m the fraction-free Gauss-Jordan inverse (the determinant
    is +/-1)."""
    r = build_r(n)
    if m >= 0:
        return r ** m
    return r.inverse_unimodular() ** (-m)


def eigenvalues_numeric(n: int, x_value: float = 1.0) -> list[float]:
    """All eigenvalues in double precision at the positive root."""
    a = metallic_ratio(x_value)
    return [
        (-1.0 if (n + j) % 2 else 1.0) * a ** (2 * j - n - 1)
        for j in range(1, n + 1)
    ]


def eigen_distinctness(n: int, x_value: float = 1.0) -> float:
    """Minimum pairwise eigenvalue gap; +inf when n = 1."""
    if n == 1:
        return math.inf
    lams = eigenvalues_numeric(n, x_value)
    return min(
        abs(lams[i] - lams[j]) for i in range(n) for j in range(i + 1, n)
    )


@dataclass
class DiagonalizationReport:
    """Max-norm residuals of the numeric involution and diagonalization.

    V@V - I is judged against ``tol`` as it stands.  V@R@V - diag(lambda)
    carries the rounding error of entries as large as the eigenvalues, so
    it is divided by ``eigen_scale`` = max(1, max_j |lambda_j|) before the
    comparison; the reported residual stays absolute.
    """

    n: int
    x_value: float
    tol: float
    residual_involution: float
    residual_diagonalization: float
    eigen_scale: float

    @property
    def involution_passed(self) -> bool:
        return self.residual_involution <= self.tol

    @property
    def diagonalization_passed(self) -> bool:
        return self.residual_diagonalization / self.eigen_scale <= self.tol

    @property
    def passed(self) -> bool:
        return self.involution_passed and self.diagonalization_passed


def verify_diagonalization_numeric(
    n: int, x_value: float = 1.0, tol: float | None = None
) -> DiagonalizationReport:
    """Build V = W / (1+a^2)^((n-1)/2) numerically and report
    max-norm residuals of V@V - I and V@R@V - diag(lambda), the latter
    judged relative to the largest |lambda| (see DiagonalizationReport)."""
    import numpy as np

    if tol is None:
        tol = default_tolerance(n)
    a = metallic_ratio(x_value)
    w = np.array(build_w(n).eval_float(x_value))
    v = w / (1.0 + a * a) ** ((n - 1) / 2.0)
    r = np.array(build_rx(n).eval_float(x_value))
    lam = eigenvalues_numeric(n, x_value)
    res_inv = float(np.max(np.abs(v @ v - np.eye(n))))
    res_diag = float(np.max(np.abs(v @ r @ v - np.diag(lam))))
    scale = max(1.0, *map(abs, lam))
    return DiagonalizationReport(n, float(x_value), tol, res_inv, res_diag, scale)
