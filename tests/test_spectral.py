"""Unit tests for eigen verification, involution, and exact powers."""
import math

import pytest

from rjpascal import spectral
from rjpascal.pascal import IntMatrix, RingMatrix, build_r, build_rx, build_u, build_w
from rjpascal.ring import A, ONE, IntPoly, RingElem, X
from rjpascal.spectral import (
    DEFAULT_TOL,
    _inverse_r,
    _specialized,
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

ONE_AT_1 = IntPoly.const(1)


def trace(m):
    """Sum of the diagonal entries of a matrix."""
    return sum(m.rows[i][i] for i in range(m.n))


def passed(rep):
    """The CLI's verdict on a diag report: both relative residuals within tol."""
    return max(rep.relative_involution, rep.relative_diagonalization) <= rep.tol


class TestEigenvalue:
    def test_n1(self):
        assert eigenvalue(1, 1) == ONE

    def test_n2_values_at_one(self):
        assert eigenvalue(2, 1).specialize(1) == RingElem(1, -1, ONE_AT_1)  # 1 - a
        assert eigenvalue(2, 2).specialize(1) == RingElem(0, 1, ONE_AT_1)  # a

    def test_n2_satisfy_characteristic_polynomial(self):
        # char poly of [[0,1],[1,x]] is t^2 - x*t - 1
        for j in (1, 2):
            lam = eigenvalue(2, j)
            assert lam * lam == lam * X + ONE

    def test_n3_trace(self):
        total = eigenvalue(3, 1) + eigenvalue(3, 2) + eigenvalue(3, 3)
        assert total.specialize(1).as_int() == 2
        assert trace(build_r(3)) == 2

    def test_index_validation(self):
        with pytest.raises(IndexError):
            eigenvalue(3, 0)
        with pytest.raises(IndexError):
            eigenvalue(3, 4)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_trace_consistency(self, n):
        total = eigenvalue(n, 1)
        for j in range(2, n + 1):
            total = total + eigenvalue(n, j)
        assert total.specialize(1).as_int() == trace(build_r(n))


@pytest.mark.parametrize("x_image", [X, IntPoly.const(1), IntPoly.const(0), IntPoly.const(-3)])
def test_eigenvalues_are_each_eigenvalue(x_image):
    for n in range(1, 13):
        assert spectral.eigenvalues(n, x_image) == [
            eigenvalue(n, j, x_image) for j in range(1, n + 1)]


class TestEigenvaluePower:
    def test_matches_repeated_multiplication(self):
        for n in range(1, 6):
            for j in range(1, n + 1):
                for m in range(0, 5):
                    assert eigenvalue_power(n, j, m) == eigenvalue(n, j) ** m

    def test_negative_powers_invert(self):
        for n in range(1, 6):
            for j in range(1, n + 1):
                for m in (1, 2, 3):
                    prod = eigenvalue_power(n, j, -m) * eigenvalue(n, j) ** m
                    assert prod == ONE


class TestSpecializeCommutes:
    """Computing in the target ring equals specializing the Z[x] value."""

    @pytest.mark.parametrize("c", range(-3, 4))
    def test_eigenvalue(self, c):
        for n in range(1, 9):
            for j in range(1, n + 1):
                assert eigenvalue(n, j, IntPoly.const(c)) == eigenvalue(n, j).specialize(c)

    @pytest.mark.parametrize("c", range(-3, 4))
    def test_eigenvalue_power(self, c):
        for n in range(1, 9):
            for j in range(1, n + 1):
                for m in range(-3, 7):
                    got = eigenvalue_power(n, j, m, IntPoly.const(c))
                    assert got == eigenvalue_power(n, j, m).specialize(c)

    @pytest.mark.parametrize("c", range(-3, 4))
    def test_involution_scale(self, c):
        for n in range(1, 9):
            assert involution_scale(n, IntPoly.const(c)) == involution_scale(n).specialize(c)


@pytest.mark.parametrize("x", [None, 1, 0, -2, 3])
def test_specialized_builders(x):
    # the cache keys on x: each entry is the builder's matrix in x's own ring
    for build in (build_rx, build_u, build_w):
        want = build(4) if x is None else build(4).specialize(x)
        assert _specialized(build, 4, x) == want


class TestEigenPair:
    def test_components(self):
        # hand computation: R(x) (2, x, -2) = (-2, -x, 2) at n = 3
        assert eigenvalue(3, 2) == -ONE
        assert build_u(3).column(2) == (RingElem(2), RingElem(X), RingElem(-2))

    def test_pair_satisfies_eigen_equation(self):
        for n in range(1, 6):
            for j in range(1, n + 1):
                lam, vec = eigenvalue(n, j), build_u(n).column(j)
                lhs = build_rx(n).mul_vector(vec)
                assert lhs == tuple(lam * e for e in vec)


class TestVerifyEigenpair:
    def test_n1(self):
        assert verify_eigenpair(1, 1)
        assert verify_eigenpair(1, 1, x=None)

    def test_n2_hand_computation(self):
        # R (1, 1-a) = (1-a, 2-a) = (1-a) * (1, 1-a) at x = 1
        r = build_rx(2).specialize(1)
        col = build_u(2).specialize(1).column(1)
        lhs = r.mul_vector(col)
        assert lhs == (RingElem(1, -1, ONE_AT_1), RingElem(2, -1, ONE_AT_1))
        assert verify_eigenpair(2, 1)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_all_pairs_at_one(self, n):
        assert all(verify_eigenpair(n, p, x=1) for p in range(1, n + 1))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_all_pairs_symbolic(self, n):
        assert all(verify_eigenpair(n, p, x=None) for p in range(1, n + 1))

    def test_other_specializations(self):
        assert verify_eigenpair(4, 2, x=3)
        assert verify_eigenpair(4, 2, x=0)
        assert verify_eigenpair(4, 2, x=-2)

    def test_index_validation(self):
        with pytest.raises(IndexError):
            verify_eigenpair(3, 4)


class TestVerifyInvolution:
    def test_n1(self):
        # [-1]^2 = I = (1 + a^2)^0 I
        assert involution_scale(1) == ONE
        assert verify_involution(1)
        assert verify_involution(1, x=None)

    def test_n2_symbolic_hand_check(self):
        w = build_w(2)
        assert w @ w == RingMatrix.scalar(2, ONE + A * A)
        assert verify_involution(2, x=None)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_exact_at_one(self, n):
        assert verify_involution(n, x=1)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_exact_symbolic(self, n):
        assert verify_involution(n, x=None)

    def test_other_specializations(self):
        assert verify_involution(4, x=2)
        assert verify_involution(4, x=0)


class TestMatrixPower:
    def test_square(self):
        result = matrix_power_closed_form(2, 2)
        assert result == IntMatrix([[1, 1], [1, 2]])
        assert result == build_r(2) @ build_r(2)

    def test_zeroth_power(self):
        assert matrix_power_closed_form(2, 0) == IntMatrix.identity(2)
        assert matrix_power_closed_form(5, 0) == IntMatrix.identity(5)

    def test_inverse(self):
        result = matrix_power_closed_form(2, -1)
        assert result == IntMatrix([[-1, 1], [1, 0]])
        assert result @ build_r(2) == IntMatrix.identity(2)

    def test_n3_squared(self):
        # frozen from the integer oracle (direct multiplication)
        expected = IntMatrix([[1, 2, 1], [1, 3, 2], [1, 4, 4]])
        assert build_r(3) @ build_r(3) == expected
        assert matrix_power_closed_form(3, 2) == expected

    def test_oracle_first_power(self):
        assert matrix_power_oracle(3, 1) == build_r(3)
        assert matrix_power_oracle(1, 7) == IntMatrix([[1]])

    @pytest.mark.parametrize("n", range(1, 7))
    def test_oracle_equivalence(self, n):
        for m in range(-2, 5):
            assert matrix_power_closed_form(n, m) == matrix_power_oracle(n, m)

    @pytest.mark.parametrize("n, m", [(4, 2000), (4, -2000), (8, 500), (8, -500)])
    def test_oracle_equivalence_large_exponent(self, n, m):
        assert matrix_power_closed_form(n, m) == matrix_power_oracle(n, m)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_inverse_consistency(self, n):
        inv = matrix_power_closed_form(n, -1)
        assert inv @ build_r(n) == IntMatrix.identity(n)

    def test_oracle_inverts_once_per_n(self, monkeypatch):
        calls = []
        original = IntMatrix.inverse_unimodular

        def counted(self):
            calls.append(self.n)
            return original(self)

        _inverse_r.cache_clear()
        monkeypatch.setattr(IntMatrix, "inverse_unimodular", counted)
        for m in (-1, -3, -2):
            assert matrix_power_oracle(5, m) @ build_r(5) ** -m == IntMatrix.identity(5)
        assert calls == [5]


def test_float_x_does_not_poison_the_cache():
    # an integral float names the integer's ring, so it must not leave
    # float-coefficient matrices cached under the integer's key
    _specialized.cache_clear()
    assert verify_involution(3, x=1.0)
    assert verify_eigenpair(3, 2, x=2.0)
    got = matrix_power_closed_form(3, 2)
    assert got == matrix_power_oracle(3, 2)
    assert all(type(e) is int for row in got.rows for e in row)
    assert all(type(c) is int for build in (build_rx, build_u, build_w)
               for row in _specialized(build, 3, 2).rows for e in row
               for c in e.c0.coeffs + e.c1.coeffs)


@pytest.mark.parametrize("check, args", [
    (verify_involution, (3, 1.5)),
    (verify_eigenpair, (3, 1, -0.5)),
    (verify_involution, (3, math.inf)),
    (verify_involution, (3, -math.inf)),
    (verify_involution, (3, math.nan)),
], ids=["involution", "eigenpair", "inf", "-inf", "nan"])
def test_fractional_x_rejected(check, args):
    with pytest.raises(ValueError, match="integer x"):
        check(*args)


GOLDEN = (1 + math.sqrt(5)) / 2


def float_det(rows):
    """Determinant by Gaussian elimination with partial pivoting."""
    m = [list(row) for row in rows]
    det = 1.0
    for k in range(len(m)):
        p = max(range(k, len(m)), key=lambda i: abs(m[i][k]))
        if p != k:
            m[k], m[p] = m[p], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, len(m)):
            f = m[i][k] / m[k][k]
            m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    return det


class TestNumericChecks:
    def test_default_tolerance(self):
        # 64 unit roundoffs, the same at every n (no step at n = 8)
        assert DEFAULT_TOL == 64 * 2.0 ** -53 == 2.0 ** -47
        assert verify_diagonalization_numeric(8).tol == DEFAULT_TOL
        assert verify_diagonalization_numeric(9).tol == DEFAULT_TOL

    def test_diag_n2(self):
        rep = verify_diagonalization_numeric(2, 1, 1e-9)
        assert passed(rep)
        assert rep.residual_involution < 1e-9
        assert rep.residual_diagonalization < 1e-9

    def test_diag_n1_exact(self):
        rep = verify_diagonalization_numeric(1, 1)
        assert rep.residual_involution <= 1e-15
        assert rep.residual_diagonalization <= 1e-15

    def test_diag_n10(self):
        assert passed(verify_diagonalization_numeric(10, 1, 1e-8))
        assert passed(verify_diagonalization_numeric(10, 1))

    def test_diag_other_x(self):
        assert passed(verify_diagonalization_numeric(6, 2))
        assert passed(verify_diagonalization_numeric(6, -1))

    def test_diag_rejects_fractional_x(self):
        assert verify_diagonalization_numeric(3, 1.0) == verify_diagonalization_numeric(3, 1)
        with pytest.raises(ValueError, match="integer x"):
            verify_diagonalization_numeric(3, 1.5)

    # correct matrices whose absolute diag residual exceeds the tol because
    # the entries reach 1e4..1e9; each is judged on its own magnitude
    @pytest.mark.parametrize("n, x", [(12, -2), (30, 1), (12, 5), (16, 3), (10, -7)])
    def test_diag_scale_aware(self, n, x):
        rep = verify_diagonalization_numeric(n, x)
        assert rep.tol == DEFAULT_TOL
        assert rep.residual_diagonalization > rep.tol
        assert rep.relative_diagonalization == (
            rep.residual_diagonalization / rep.magnitude_diagonalization)
        # |lambda_j| = |(V R V)_jj| <= (|V||R||V|)_jj
        assert rep.magnitude_diagonalization >= max(map(abs, eigenvalues_numeric(n, x)))
        assert rep.relative_diagonalization <= rep.tol
        assert rep.relative_involution <= rep.tol
        assert passed(rep)

    # the worst false FAILs of the old absolute rule with Horner-evaluated
    # entries, and the far corner of the n <= 30, |x| <= 7 sweep
    @pytest.mark.parametrize("n, x", [(20, -2), (15, -4), (11, -7), (28, -1), (30, -7)])
    def test_diag_negative_x_passes(self, n, x):
        rep = verify_diagonalization_numeric(n, x)
        assert passed(rep)
        assert max(rep.relative_involution, rep.relative_diagonalization) < rep.tol / 8

    @pytest.mark.parametrize("n, x", [(12, -2), (10, -7), (6, 1), (16, 3)])
    def test_diag_wrong_eigenvalue_order_fails(self, monkeypatch, n, x):
        true_lam = eigenvalues_numeric(n, x)

        def swapped(n_, x_=1):
            lam = list(true_lam)
            lam[0], lam[-1] = lam[-1], lam[0]
            return lam

        monkeypatch.setattr(spectral, "eigenvalues_numeric", swapped)
        rep = verify_diagonalization_numeric(n, x)
        assert rep.relative_involution <= rep.tol
        assert rep.relative_diagonalization > rep.tol
        assert not passed(rep)

    @pytest.mark.parametrize("n, x", [(16, 1), (20, -2), (30, -7), (8, 3)])
    def test_diag_perturbed_w_entry_fails(self, monkeypatch, n, x):
        assert passed(verify_diagonalization_numeric(n, x))
        w = _specialized(build_w, n, x)
        target = max((e for row in w.rows for e in row), key=lambda e: abs(float(e)))
        exact_float = RingElem.__float__

        def perturbed(e):
            f = exact_float(e)
            return f * (1 + 1e-10) if e is target else f

        monkeypatch.setattr(RingElem, "__float__", perturbed)
        rep = verify_diagonalization_numeric(n, x)
        assert rep.relative_involution > rep.tol
        assert rep.relative_diagonalization > rep.tol
        assert not passed(rep)

    def test_diag_scale_floor_is_one(self):
        # (|V||V|)_ii >= |(V V)_ii| = 1 and (|V||R||V|)_jj >= |lambda_j|,
        # which is 1 for every j at x = 0
        rep = verify_diagonalization_numeric(5, 0)
        assert eigenvalues_numeric(5, 0) == [1.0, -1.0, 1.0, -1.0, 1.0]
        assert rep.magnitude_involution >= 1.0
        assert rep.magnitude_diagonalization >= 1.0
        assert passed(rep)

    def test_distinctness_n2(self):
        # |a - (1 - a)| = sqrt(5)
        assert eigen_distinctness(2, 1) == pytest.approx(math.sqrt(5), abs=1e-15)

    def test_distinctness_n1(self):
        assert eigen_distinctness(1, 1) == math.inf

    def test_distinctness_n8(self):
        assert eigen_distinctness(8, 1) > 0

    @pytest.mark.parametrize("x", range(-3, 4))
    def test_distinctness_is_the_all_pairs_minimum(self, x):
        for n in range(1, 41):
            lams = eigenvalues_numeric(n, x)
            want = min((abs(lams[i] - lams[j]) for i in range(n) for j in range(i + 1, n)),
                       default=math.inf)
            assert eigen_distinctness(n, x) == want

    def test_eigenvalues_numeric_match_exact(self):
        for n in range(1, 9):
            nums = eigenvalues_numeric(n, 1)
            for j in range(1, n + 1):
                want = (-1) ** (n + j) * GOLDEN ** (2 * j - n - 1)
                assert nums[j - 1] == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_eigenbasis_independent(self, n):
        u = _specialized(build_u, n, 1)
        assert abs(float_det([[float(e) for e in row] for row in u.rows])) > 1e-6


def binomial_weights(n):
    """b_i = C(n-1, i-1), i = 1..n, the weights that make B W symmetric."""
    return [math.comb(n - 1, i) for i in range(n)]


def assert_binomial_symmetry(w):
    """b_i W_ij = b_j W_ji for every i < j, in the ring of W's entries."""
    b, rows = binomial_weights(w.n), w.rows
    for i in range(w.n):
        for j in range(i + 1, w.n):
            assert rows[i][j] * b[i] == rows[j][i] * b[j], (w.n, i + 1, j + 1)


def test_w_binomial_symmetry_symbolic():
    # W itself is symmetric only for n <= 2; B W is symmetric for every n,
    # the fact that lets verify_involution form only half of W @ W
    for n in range(1, 25):
        assert_binomial_symmetry(build_w(n))


@pytest.mark.parametrize("x", range(-3, 4))
def test_w_binomial_symmetry_at_integer_x(x):
    for n in range(1, 31):
        assert_binomial_symmetry(build_w(n).specialize(x))


@pytest.mark.parametrize("n", range(1, 9))
def test_w_generating_function(n):
    """sum_ij b_i W_ij s^(i-1) t^(j-1) = -(a - s - t - a s t)^(n-1) over Z[x].

    Both sides have degree at most n-1 in s and in t, so agreement on the
    grid s, t in 0..n-1 proves the identity for this n."""
    w, b = build_w(n), binomial_weights(n)
    for s in range(n):
        for t in range(n):
            lhs = RingElem(0, 0)
            for i in range(n):
                for j in range(n):
                    lhs = lhs + w.rows[i][j] * (b[i] * s ** i * t ** j)
            assert lhs == -(RingElem(-s - t, 1 - s * t) ** (n - 1)), (s, t)


def _faulty_w(monkeypatch, edit):
    """Make verify_involution read W with ``edit(rows, n)`` applied to a
    copy of its rows (0-based, entries in W's ring)."""
    real = spectral._specialized

    def specialized(build, n, x):
        m = real(build, n, x)
        if build is not build_w:
            return m
        rows = [list(row) for row in m.rows]
        edit(rows, n)
        return RingMatrix(rows)

    monkeypatch.setattr(spectral, "_specialized", specialized)


def _add(i, j, c):
    """An edit that adds the integer c to entry (i, j), 1-based."""
    def edit(rows, n):
        rows[i - 1][j - 1] = rows[i - 1][j - 1] + c
    return edit


def _symmetric_pair(rows, n):
    """Change W_24 by b_4 and W_42 by b_2: b_i W_ij = b_j W_ji still holds."""
    b = binomial_weights(n)
    _add(2, 4, b[3])(rows, n)
    _add(4, 2, b[1])(rows, n)


def _doubled(rows, n):
    """2W: (2W)^2 = 4 (1 + a^2)^(n-1) I is zero off the diagonal."""
    rows[:] = [[e * 2 for e in row] for row in rows]


class TestInvolutionFaults:
    """verify_involution returns False for a W with a wrong entry, wherever
    the entry is, at x = 1 and over Z[x]."""

    @pytest.mark.parametrize("x", [1, None], ids=["x=1", "symbolic"])
    @pytest.mark.parametrize("edit", [
        _add(2, 4, 1), _add(1, 5, -1), _add(3, 3, 1), _add(5, 5, -1),
        _add(4, 2, 1), _add(5, 1, -1), _symmetric_pair, _doubled,
    ], ids=["above", "above-corner", "diagonal", "diagonal-corner", "below",
            "below-corner", "symmetric-pair", "doubled"])
    def test_fault_fails(self, monkeypatch, edit, x):
        assert verify_involution(5, x=x)
        _faulty_w(monkeypatch, edit)
        assert not verify_involution(5, x=x)

    @pytest.mark.parametrize("x", [1, None], ids=["x=1", "symbolic"])
    def test_n1_fault_fails(self, monkeypatch, x):
        # W = [-1] becomes [0]; n = 1 has no product above the diagonal
        _faulty_w(monkeypatch, _add(1, 1, 1))
        assert not verify_involution(1, x=x)

    def test_lower_triangle_is_checked(self, monkeypatch):
        """M = (1+a^2) I + E_31 at n = 3: on and above the diagonal M^2 equals
        (1+a^2)^2 I, but (M^2)_31 = 2 (1+a^2).  Only the symmetry check of
        B M, which fails at (1, 3), sees it."""
        s = ONE + A * A
        m = [[s if i == j else RingElem(0, 0) for j in range(3)] for i in range(3)]
        m[2][0] = ONE
        square, want = RingMatrix(m) @ RingMatrix(m), RingMatrix.scalar(3, s * s)
        assert all(square.rows[i][i:] == want.rows[i][i:] for i in range(3))
        assert square != want

        def edit(rows, n):
            rows[:] = m
        _faulty_w(monkeypatch, edit)
        assert not verify_involution(3, x=None)
