"""Exact spectral toolkit for right-justified Pascal matrices.

Arithmetic lives in Z[x][a]/(a^2 - a*x - 1) (the golden ratio at x = 1);
everything exact carries zero tolerance, numeric cross-checks round each
entry once from its exact value and report relative residuals.
"""

from .binomial import (
    DEFAULT_BOXES,
    Identity,
    IdentityCase,
    IdentityReport,
    InfiniteSupportError,
    SkippedCase,
    binom,
    check_alternating_delta,
    check_double_delta,
    check_star,
    check_trinomial,
    check_trinomial_companion,
    check_vandermonde,
    sweep_identity,
)
from .pascal import IntMatrix, RingMatrix, build_r, build_rx, build_u, build_w
from .ring import (
    A,
    ONE,
    X,
    ZERO,
    ExactDivisionError,
    IntPoly,
    RingElem,
    a_pow,
)
from .spectral import (
    DEFAULT_TOL,
    DiagonalizationReport,
    eigen_distinctness,
    eigenvalue,
    eigenvalue_power,
    eigenvalues_numeric,
    involution_scale,
    matrix_power_closed_form,
    matrix_power_oracle,
    verify_diagonalization_numeric,
    verify_eigenpair,
    verify_involution,
)

__version__ = "0.1.0"

__all__ = [
    "A",
    "DEFAULT_BOXES",
    "DEFAULT_TOL",
    "DiagonalizationReport",
    "ExactDivisionError",
    "Identity",
    "IdentityCase",
    "IdentityReport",
    "InfiniteSupportError",
    "IntMatrix",
    "IntPoly",
    "ONE",
    "RingElem",
    "RingMatrix",
    "SkippedCase",
    "X",
    "ZERO",
    "a_pow",
    "binom",
    "build_r",
    "build_rx",
    "build_u",
    "build_w",
    "check_alternating_delta",
    "check_double_delta",
    "check_star",
    "check_trinomial",
    "check_trinomial_companion",
    "check_vandermonde",
    "eigen_distinctness",
    "eigenvalue",
    "eigenvalue_power",
    "eigenvalues_numeric",
    "involution_scale",
    "matrix_power_closed_form",
    "matrix_power_oracle",
    "sweep_identity",
    "verify_diagonalization_numeric",
    "verify_eigenpair",
    "verify_involution",
]
