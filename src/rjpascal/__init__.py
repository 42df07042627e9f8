"""Exact spectral toolkit for right-justified Pascal matrices.

Arithmetic lives in Z[x][a]/(a^2 - a*x - 1) (the golden ratio at x = 1);
everything exact carries zero tolerance, numeric cross-checks round each
entry once from its exact value and report relative residuals.

The package exports the names of the README library tour; the rest of the
API is imported from its submodule (ring, pascal, spectral, comb, binomial).
Each exported name resolves on first use (PEP 562), so importing the
package loads no submodule and each CLI command loads only the modules it
calls: comb always, ring and pascal for the matrix commands (and spectral
for eigen, verify and power), and the sweep engine binomial for identities.
"""

__version__ = "0.1.0"

#: The submodule that defines each exported name.
_HOME = {name: module for module, names in (
    ("binomial", ("sweep_identity",)),
    ("comb", ("Identity", "binom")),
    ("pascal", ("build_r", "build_rx", "build_u", "build_w")),
    ("ring", ("A", "ONE", "X", "IntPoly", "a_pow")),
    ("spectral", ("eigenvalue", "verify_eigenpair", "verify_involution",
                  "matrix_power_closed_form", "matrix_power_oracle")),
) for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name not in _HOME:  # `from rjpascal import pascal` then imports the submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    return getattr(import_module(f"{__package__}.{_HOME[name]}"), name)
