"""Exact spectral toolkit for right-justified Pascal matrices.

Arithmetic lives in Z[x][a]/(a^2 - a*x - 1) (the golden ratio at x = 1);
everything exact carries zero tolerance, numeric cross-checks round each
entry once from its exact value and report relative residuals.

The package exports the names of the README library tour; the rest of the
API is imported from its submodule (ring, pascal, spectral, binomial).
"""

from .binomial import Identity, binom, sweep_identity
from .pascal import build_r, build_rx, build_u, build_w
from .ring import A, ONE, X, IntPoly, a_pow
from .spectral import (eigenvalue, matrix_power_closed_form, matrix_power_oracle,
                       verify_eigenpair, verify_involution)

__version__ = "0.1.0"

__all__ = [
    "A", "ONE", "X", "IntPoly", "a_pow", "binom", "build_r", "build_rx", "build_u",
    "build_w", "eigenvalue", "verify_eigenpair", "verify_involution",
    "matrix_power_closed_form", "matrix_power_oracle", "Identity", "sweep_identity",
]
