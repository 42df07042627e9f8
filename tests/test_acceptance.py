"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line (run with -s to watch them live).
Exact checks carry zero tolerance; the numeric criterion uses 1e-8; the
sweep criteria demand zero failures over their full parameter boxes.
"""
import math
import time

from rjpascal.binomial import Identity, binom, sweep_identity
from rjpascal.pascal import build_r
from rjpascal.spectral import (
    eigenvalue,
    matrix_power_closed_form,
    matrix_power_oracle,
    verify_diagonalization_numeric,
    verify_eigenpair,
    verify_involution,
)


def _finish(number, description, ok, elapsed, budget=None):
    status = "PASS" if ok else "FAIL"
    note = f" ({elapsed:.2f}s" + (f", budget {budget:.0f}s)" if budget else ")")
    print(f"[{status}] criterion {number}: {description}{note}")
    assert ok, f"criterion {number} failed: {description}"
    if budget is not None:
        assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.2f}s)"


def test_criterion_1_eigen_equation():
    t0 = time.perf_counter()
    ok = all(
        verify_eigenpair(n, p, x=1)
        for n in range(1, 13)
        for p in range(1, n + 1)
    ) and all(
        verify_eigenpair(n, p, x=None)
        for n in range(1, 9)
        for p in range(1, n + 1)
    )
    _finish(
        1,
        "eigen-equation exact for n<=12 at x=1 and n<=8 symbolically",
        ok,
        time.perf_counter() - t0,
        budget=10.0,
    )


def test_criterion_2_involution():
    t0 = time.perf_counter()
    ok = all(verify_involution(n, x=1) for n in range(1, 13)) and all(
        verify_involution(n, x=None) for n in range(1, 9)
    )
    _finish(
        2,
        "W@W = (1+a^2)^(n-1) I exact for n<=12 at x=1 and n<=8 symbolically",
        ok,
        time.perf_counter() - t0,
        budget=10.0,
    )


def test_criterion_3_power_oracle_equivalence():
    # the closed form re-raises on any divisibility/integrality violation,
    # so every comparison below also exercises that assertion
    t0 = time.perf_counter()
    ok = all(
        matrix_power_closed_form(n, m) == matrix_power_oracle(n, m)
        for n in range(1, 9)
        for m in range(-3, 7)
    )
    _finish(
        3,
        "closed-form powers match the integer oracle for n<=8, m in [-3,6]",
        ok,
        time.perf_counter() - t0,
        budget=30.0,
    )


def test_criterion_4_identity_sweeps():
    t0 = time.perf_counter()
    boxes = {
        Identity.STAR: {"N": (-6, 12), "J": (-6, 12), "K": (-6, 12)},
        Identity.TRINOMIAL: {"I": (-6, 12), "J": (-6, 12), "K": (-6, 12)},
        Identity.TRINOMIAL_COMPANION: {"I": (-6, 12), "J": (-6, 12), "K": (-6, 12)},
        Identity.VANDERMONDE: {"M": (-6, 12), "N": (-6, 12), "L": (-6, 12)},
        Identity.ALTERNATING_DELTA: {"N": (0, 40)},
        Identity.DOUBLE_DELTA: {"N": (-8, 12), "L": (0, 12)},
    }
    reports = {ident: sweep_identity(ident, box) for ident, box in boxes.items()}
    ok = all(rep.ok for rep in reports.values())
    for ident, rep in reports.items():
        assert rep.cases_checked == math.prod(
            hi - lo + 1 for lo, hi in boxes[ident].values()
        )
    _finish(
        4,
        "zero failures across all six identity sweeps",
        ok,
        time.perf_counter() - t0,
        budget=20.0,
    )


def test_criterion_5_numeric_diagonalization():
    t0 = time.perf_counter()
    ok = True
    for n in range(1, 11):
        rep = verify_diagonalization_numeric(n, 1.0, tol=1e-8)
        ok = ok and rep.residual_involution <= 1e-8
        ok = ok and rep.residual_diagonalization <= 1e-8
    _finish(
        5,
        "numeric |V@V - I| and |V@R@V - diag| within 1e-8 for n<=10",
        ok,
        time.perf_counter() - t0,
    )


def test_criterion_6_determinant_and_trace():
    t0 = time.perf_counter()
    ok = True
    for n in range(1, 11):
        ok = ok and abs(build_r(n).det()) == 1
        total = eigenvalue(n, 1)
        for j in range(2, n + 1):
            total = total + eigenvalue(n, j)
        ok = ok and total.specialize(1).as_int() == build_r(n).trace()
    _finish(
        6,
        "|det R| = 1 and trace R = sum of eigenvalues for n<=10",
        ok,
        time.perf_counter() - t0,
    )


def test_criterion_7_binomial_edge_suite():
    t0 = time.perf_counter()
    ok = binom(3, -1) == 0
    ok = ok and binom(-1, 2) == 1 and binom(-1, -3) == 0
    ok = ok and binom(-1, 2) != binom(-1, -3)
    for n in range(-15, 16):
        for k in range(0, 21):
            ok = ok and binom(n, k) == (-1) ** k * binom(k - n - 1, k)
    _finish(
        7,
        "generalized-binomial edges: zero lower, symmetry trap, upper negation",
        ok,
        time.perf_counter() - t0,
    )
