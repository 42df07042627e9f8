"""Unit tests for eigen verification, involution, and exact powers."""
import json
import math
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rjpascal import cli, pascal, spectral
from rjpascal.comb import pack
from rjpascal.pascal import (BUILD_CACHE_SIZE, IntMatrix, RingMatrix, _norm, _upper_square,
                             build_r, build_rx, build_u, build_w)
from rjpascal.ring import A, ONE, ExactDivisionError, IntPoly, RingElem, X, _times, a_pow
from rjpascal.spectral import (
    DEFAULT_TOL,
    _half_width,
    _homogeneous,
    _inverse_r,
    eigen_distinctness,
    eigenvalue,
    eigenvalues,
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


def column(m, j):
    """Column j (1-based) of the matrix m as a tuple."""
    return tuple(row[j - 1] for row in m.rows)


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


@pytest.mark.parametrize("x_image", [X, IntPoly.const(1), IntPoly.const(0), IntPoly.const(-3)])
def test_eigenvalues_to_the_m(x_image):
    # (-1)^((n+j) m) a^(m (2j-n-1)), one a_pow each
    for n in range(1, 13):
        for m in range(-4, 6):
            want = [a_pow(m * (2 * j - n - 1), x_image) * (-1) ** ((n + j) * m % 2)
                    for j in range(1, n + 1)]
            assert spectral.eigenvalues(n, x_image, m) == want, (n, m)


def test_eigenvalues_form_no_step_at_n1(monkeypatch):
    # a^(2m) for m = 10^23 would not finish; at n = 1 nothing needs it
    def bounded(e, x_image=X):
        assert abs(e) < 10 ** 6, e
        return a_pow(e, x_image)

    monkeypatch.setattr(spectral, "a_pow", bounded)
    assert spectral.eigenvalues(1, ONE_AT_1, 10 ** 23) == [RingElem(1, 0, ONE_AT_1)]


class TestEigenvaluePower:
    def test_matches_repeated_multiplication(self):
        for n in range(1, 6):
            for j in range(1, n + 1):
                for m in range(0, 5):
                    assert eigenvalue(n, j, m=m) == eigenvalue(n, j) ** m

    def test_negative_powers_invert(self):
        for n in range(1, 6):
            for j in range(1, n + 1):
                for m in (1, 2, 3):
                    prod = eigenvalue(n, j, m=-m) * eigenvalue(n, j) ** m
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
                    got = eigenvalue(n, j, IntPoly.const(c), m)
                    assert got == eigenvalue(n, j, m=m).specialize(c)

    @pytest.mark.parametrize("c", range(-3, 4))
    def test_involution_scale(self, c):
        for n in range(1, 9):
            assert involution_scale(n, IntPoly.const(c)) == involution_scale(n).specialize(c)


@pytest.mark.parametrize("x", [None, 1, 0, -2, 3])
def test_specialized_builders(x):
    # the cache keys on x: each entry is the Z[x] matrix evaluated at x
    for build in (build_rx, build_u, build_w):
        want = build(4) if x is None else RingMatrix(
            [[e.specialize(x) for e in row] for row in build(4).rows])
        assert build(4, x) == want


class TestEigenPair:
    def test_components(self):
        # hand computation: R(x) (2, x, -2) = (-2, -x, 2) at n = 3
        assert eigenvalue(3, 2) == -ONE
        assert column(build_u(3), 2) == (RingElem(2), RingElem(X), RingElem(-2))

    def test_pair_satisfies_eigen_equation(self):
        for n in range(1, 6):
            for j in range(1, n + 1):
                lam, vec = eigenvalue(n, j), column(build_u(n), j)
                lhs = build_rx(n).mul_vector(vec)
                assert lhs == tuple(lam * e for e in vec)


class TestVerifyEigenpair:
    def test_n1(self):
        assert verify_eigenpair(1, 1)
        assert verify_eigenpair(1, 1, x=None)

    def test_n2_hand_computation(self):
        # R (1, 1-a) = (1-a, 2-a) = (1-a) * (1, 1-a) at x = 1
        r = build_rx(2, 1)
        col = column(build_u(2, 1), 1)
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


def _patched(monkeypatch, name, n, x, edit):
    """Make the eigen check read build_u or build_rx (``name``) at (n, x)
    with ``edit(rows)`` applied to a copy of its rows (0-based)."""
    rows = [list(row) for row in getattr(spectral, name)(n, x).rows]
    edit(rows)
    monkeypatch.setattr(spectral, name, lambda n_, x_: RingMatrix(rows))


def _eigen_bound(n, rows, lams):
    """2^(n-1) N(U) + N(U) N(Lambda), the bound whose half width the eigen
    check packs at over Z[x]."""
    return ((1 << n - 1) + _norm((lams,))) * _norm(rows)


class TestEigenFaults:
    """_eigen_failures reports exactly the columns where R(x) U and U Lambda
    differ (its cache is bypassed through __wrapped__), and every column
    when the built R(x) is not L(x) J."""

    @pytest.mark.parametrize("x", [1, None, -2], ids=["x=1", "symbolic", "x=-2"])
    def test_one_entry_of_u_off_fails_its_column(self, monkeypatch, x):
        # column j of R(x) U - U Lambda changes by (R(x) - lambda_j) e_i,
        # which is not zero: no e_i is an eigenvector of R(x) for x != 0
        n, failures = 4, spectral._eigen_failures.__wrapped__
        assert failures(n, x) == frozenset()
        for i in range(n):
            for j in range(n):
                rows = [list(row) for row in build_u(n, x).rows]
                rows[i][j] = rows[i][j] + 1
                monkeypatch.setattr(spectral, "build_u", lambda n_, x_: RingMatrix(rows))
                assert failures(n, x) == {j + 1}, (i + 1, j + 1)

    @staticmethod
    def _each_entry_of_rx_off(monkeypatch, x, part):
        n, failures = 4, spectral._eigen_failures.__wrapped__
        for i in range(n):
            for j in range(n):
                with monkeypatch.context() as m:
                    def edit(rows):
                        e = rows[i][j]
                        rows[i][j] = RingElem(e.c0 + (part == 0), e.c1 + (part == 1),
                                              e.x_image)
                    _patched(m, "build_rx", n, x, edit)
                    assert failures(n, x) == set(range(1, n + 1)), (i + 1, j + 1)

    @pytest.mark.parametrize("x", [1, None, -2], ids=["x=1", "symbolic", "x=-2"])
    def test_rx_entry_off_in_c0_fails_every_column(self, monkeypatch, x):
        # R(x) U is formed from L(x) J, so only the check of the built R(x)
        # on u_1, whose entries are units, sees this
        self._each_entry_of_rx_off(monkeypatch, x, 0)

    @pytest.mark.parametrize("x", [1, None, -2], ids=["x=1", "symbolic", "x=-2"])
    def test_rx_entry_off_in_c1_fails_every_column(self, monkeypatch, x):
        self._each_entry_of_rx_off(monkeypatch, x, 1)

    @pytest.mark.parametrize("x", [1, None, -2], ids=["x=1", "symbolic", "x=-2"])
    def test_fault_in_c1_alone_fails(self, monkeypatch, x):
        # at n = 1, R(x) = U = (1): lambda_1 = 1 + c1 a, with c1 = x over Z[x]
        # (parity 0, as lambda_1 needs), makes R(x) U - U Lambda = -c1 a, c0 = 0
        c1 = X if x is None else IntPoly.const(1)
        monkeypatch.setattr(spectral, "eigenvalues",
                            lambda n_, x_image: [RingElem(IntPoly.const(1), c1, x_image)])
        assert spectral._eigen_failures.__wrapped__(1, x) == {1}

    @pytest.mark.parametrize("i", range(4))
    def test_monomial_of_the_wrong_parity_fails_its_column(self, monkeypatch, i):
        # U_ij has parity i - 1 (1-based), so x^i in c0 (0-based i) has the wrong one
        def edit(rows):
            rows[i][2] = rows[i][2] + IntPoly([0] * i + [1])

        _patched(monkeypatch, "build_u", 4, None, edit)
        assert spectral._eigen_failures.__wrapped__(4, None) == {3}

    @pytest.mark.parametrize("i", range(4))
    def test_homogeneous_fault_that_vanishes_at_one_fails_its_column(self, monkeypatch, i):
        # x^i (x^2 - 1) has U_i3's parity (0-based i) and is zero at x = 1:
        # over Z[x] the check must not compare values at a small x
        def edit(rows):
            rows[i][2] = rows[i][2] + IntPoly([0] * i + [-1, 0, 1])

        _patched(monkeypatch, "build_u", 4, None, edit)
        assert spectral._eigen_failures.__wrapped__(4, None) == {3}

    @pytest.mark.parametrize("i", range(4))
    def test_mixed_parity_fault_that_vanishes_at_the_width_fails(self, monkeypatch, i):
        """U_i3 + 2^h - x is zero at x = 2^h, with h the half width it gives
        itself; only the parity check of U can see it."""
        n, lams, u = 4, eigenvalues(4), build_u(4)
        for h in range(2, 64):
            rows = [list(row) for row in u.rows]
            rows[i][2] = rows[i][2] + IntPoly([2 ** h, -1])
            if _half_width(_eigen_bound(n, rows, lams)) == h:
                break
        else:
            pytest.fail("no h is its own half width")
        monkeypatch.setattr(spectral, "build_u", lambda n_, x_: RingMatrix(rows))
        assert spectral._eigen_failures.__wrapped__(n, None) == {3}

    def test_eigenvalue_of_mixed_parity_fails(self, monkeypatch):
        # at n = 1, lambda_1 = 5 - x gives h = 2, where it is 1 = R(x) = U
        lam = RingElem(IntPoly([5, -1]))
        assert _half_width(_eigen_bound(1, build_u(1).rows, [lam])) == 2
        monkeypatch.setattr(spectral, "eigenvalues", lambda n_, x_image: [lam])
        assert spectral._eigen_failures.__wrapped__(1, None) == {1}

    def test_fault_invisible_at_the_narrow_width_fails(self, monkeypatch):
        """At n = 1, U = R(x) = (1) and N(U) = 1, so the bound is tight: with
        lambda_1 = 1 + 4^(h-1) - x^2, homogeneous of parity 0, the half width
        is h, and the fault vanishes at x = 2^(h-1) but not at 2^h."""
        for h in (2, 3, 10):
            lam = RingElem(IntPoly([1 + 4 ** (h - 1), 0, -1]))
            assert _half_width(_eigen_bound(1, build_u(1).rows, [lam])) == h
            assert lam.c0(2 ** (h - 1)) == 1 != lam.c0(2 ** h)
            monkeypatch.setattr(spectral, "eigenvalues", lambda n_, x_image: [lam])
            assert spectral._eigen_failures.__wrapped__(1, None) == {1}, h

    def test_rx_fault_invisible_without_the_product_norm_fails(self, monkeypatch):
        """At n = 1, u_1 = (1), and R(x) = (x - 3) equals the true (1) only
        at x = 4: the u_1 cross-check's width must count N(y) = 4 of the
        product, or it compares at x = 2^2 and sees no fault."""
        monkeypatch.setattr(spectral, "build_rx",
                            lambda n_, x_: RingMatrix([[RingElem(IntPoly([-3, 1]))]]))
        assert spectral._eigen_failures.__wrapped__(1, None) == {1}


class TestTieToW:
    """At an integer x the eigen check ties U to W = U diag((-1)^j a^(n-j)).
    With pascal._E times diag(c, 1), build_u returns U diag(c^(n-j)): still
    eigenvectors, refused only by the tie, in the columns where c^(n-j) is
    not 1.  At x = 0, a^2 = 1."""

    @pytest.fixture
    def fresh(self):
        caches = (build_u, build_w, spectral._eigen_failures)
        for cache in caches:
            cache.cache_clear()
        yield
        for cache in caches:
            cache.cache_clear()

    @pytest.mark.parametrize("n", [6, 7])
    @pytest.mark.parametrize("c,x,failing", [
        (A * A, 1, lambda n, p: p < n),
        (A * A, -2, lambda n, p: p < n),
        (A * A, 0, lambda n, p: False),
        (A, 1, lambda n, p: p < n),
        (A, -2, lambda n, p: p < n),
        (A, 0, lambda n, p: (n - p) % 2 == 1),
    ], ids=["a^2-x=1", "a^2-x=-2", "a^2-x=0", "a-x=1", "a-x=-2", "a-x=0"])
    def test_scaled_eigenvectors(self, capsys, monkeypatch, fresh, n, c, x, failing):
        (e11, e12), (e21, e22) = pascal._E
        monkeypatch.setattr(pascal, "_E", ((e11 * c, e12), (e21 * c, e22)))
        code = cli.main(["verify", "--n", str(n), "--check", "all", "--x", str(x)])
        reports = json.loads(capsys.readouterr().out)
        failed = [rep["params"].get("p") for rep in reports if not rep["pass"]]
        assert failed == [p for p in range(1, n + 1) if failing(n, p)]
        assert code == (1 if failed else 0)


class TestVerifyInvolution:
    def test_n1(self):
        # [-1]^2 = I = (1 + a^2)^0 I
        assert involution_scale(1) == ONE
        assert verify_involution(1)
        assert verify_involution(1, x=None)

    def test_n2_symbolic_hand_check(self):
        w = build_w(2)
        s, zero = ONE + A * A, RingElem(0, 0)
        assert w @ w == RingMatrix([[s, zero], [zero, s]])
        assert verify_involution(2, x=None)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_exact_at_one(self, n):
        assert verify_involution(n, x=1)

    @pytest.mark.parametrize("n", range(1, 17))
    def test_exact_symbolic(self, n):
        assert verify_involution(n, x=None)

    def test_other_specializations(self):
        assert verify_involution(4, x=2)
        assert verify_involution(4, x=0)

    def test_fault_invisible_at_the_narrow_width_fails(self, monkeypatch):
        """At n = 1, W = (-1) and W^2 = 1.  With the scale s = 1 + 4^(h-1) - x^2,
        homogeneous of parity 0, the bound n 9^(n-1) + N(s) = 4^(h-1) + 3 has
        half width h, and the defect W^2 - s = x^2 - 4^(h-1) vanishes at
        x = 2^(h-1) but not at 2^h."""
        for h in (2, 3, 10):
            scale = RingElem(IntPoly([1 + 4 ** (h - 1), 0, -1]))
            assert _half_width(1 * 9 ** 0 + _norm([[scale]])) == h
            assert scale.c0(2 ** (h - 1)) == 1 != scale.c0(2 ** h)
            monkeypatch.setattr(spectral, "involution_scale", lambda n, x_image=X: scale)
            assert not verify_involution(1, x=None), h

    def test_alias_at_the_bound_without_n_fails(self, monkeypatch):
        """At n = 4, W_ij = 27 x^(3-i+j) H_ij (0-based), H the symmetric
        Hadamard matrix, has N(W) = 3^3, the builder lemma's bound, W's
        parities, and W W = 2916 x^6 I.  With s = x^8 - 1180 x^6 the defect
        W W - s I = x^6 (4096 - x^2) vanishes at x = 2^6.  The bound
        n 9^(n-1) + N(s) = 4097 has half width 7; without its factor n, or
        with 9^(n-2), it would have 6.  W is its own left factor here, so
        the check forms W W."""
        had = [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]
        w = [[RingElem(IntPoly([0] * (3 - i + j) + [27 * had[i][j]])) for j in range(4)]
             for i in range(4)]
        scale = RingElem(IntPoly([0] * 6 + [-1180, 0, 1]))
        assert _norm(w) == 3 ** 3
        assert _half_width(4 * 9 ** 3 + _norm([[scale]])) == 7
        assert _half_width(9 ** 3 + _norm([[scale]])) == 6 == _half_width(4 * 9 ** 2 + 1181)
        square = RingMatrix(w) @ RingMatrix(w)
        assert square == scalar(4, RingElem(IntPoly([0] * 6 + [2916])))
        assert [scale.c0(2 ** h) == 2916 * 2 ** (6 * h) for h in (6, 7)] == [True, False]
        _faulty_w(monkeypatch, lambda rows, n: rows.__setitem__(slice(None), w))
        _left_factor(monkeypatch, w)
        monkeypatch.setattr(spectral, "involution_scale", lambda n, x_image=X: scale)
        assert not verify_involution(4, x=None)

    def test_scale_of_mixed_parity_that_vanishes_at_the_width_fails(self, monkeypatch):
        """At n = 1 the scale x - 3 has N = 4, so the bound 1 + 4 has half
        width 2, and it equals W^2 = 1 at x = 2^2: only its value at
        x = -2^2 shows that it mixes parities."""
        scale = RingElem(IntPoly([-3, 1]))
        assert _half_width(1 + _norm([[scale]])) == 2 and scale.c0(4) == 1
        monkeypatch.setattr(spectral, "involution_scale", lambda n, x_image=X: scale)
        assert not verify_involution(1, x=None)

    def test_left_factor_alias_below_its_own_bound_fails(self, monkeypatch):
        """At x = 7 and n = 2 the left factor's entries may reach
        (3 |x|)^(n-1) = 21, far above W's.  With W = ((0, 0), (1, 1)), the
        left factor G = ((0, 0), (5, 0)) and the scale 0, G W = 0 I, and
        G v_T = W v_T at T = 4, the width W's entries alone would give."""
        w = [[RingElem(0), RingElem(0)], [RingElem(1), RingElem(1)]]
        left = [[RingElem(0), RingElem(0)], [RingElem(5), RingElem(0)]]
        assert RingMatrix(left) @ RingMatrix(w) == scalar(2, RingElem(0))
        _faulty_w(monkeypatch, lambda rows, n: rows.__setitem__(slice(None), w))
        _left_factor(monkeypatch, left)
        monkeypatch.setattr(spectral, "involution_scale", lambda n, x_image=X: RingElem(0))
        assert not verify_involution(2, x=7)

    @pytest.mark.parametrize("x", [1, None], ids=["x=1", "symbolic"])
    def test_swapped_columns_with_a_matching_left_factor_fail(self, monkeypatch, x):
        """W P, P the swap of columns 2 and 4, squares to W P W P, not the
        scale.  With P W as the left factor the product P W W P is the scale
        matrix, so only the comparison of the left factor with the built W
        refuses it."""
        n, swap = 5, [0, 3, 2, 1, 4]
        w = build_w(n).rows
        swapped = [[row[j] for j in swap] for row in w]
        left = [w[i] for i in swap]
        scale = scalar(n, involution_scale(n))
        assert RingMatrix(left) @ RingMatrix(swapped) == scale
        assert RingMatrix(swapped) @ RingMatrix(swapped) != scale
        _faulty_w(monkeypatch, lambda rows, n_: rows.__setitem__(slice(None), swapped))
        _left_factor(monkeypatch, left)
        assert not verify_involution(n, x=x)


def scalar(n, c):
    """c times the n x n identity, in c's ring."""
    zero = c * 0
    return RingMatrix([[c if i == j else zero for j in range(n)] for i in range(n)])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(*[st.integers(-2 ** 70, 2 ** 70)] * 2), min_size=1, max_size=9),
       st.integers(2, 80))
def test_pack_is_the_value_at_two_to_the_k(row, k):
    for part in zip(*row):
        assert pack(part, k) == IntPoly(part)(2 ** k)


@pytest.mark.parametrize("n", [1, 2, 5, 12, 40, 64])
def test_symbolic_involution_reads_build_w_at_its_points(monkeypatch, n):
    """Over Z[x] the involution builds W at x = +/-2^h by the recurrence
    (pascal._w_at), not from build_w(n, None): the two agree there."""
    xs, w_at = [], spectral._w_at

    def recorded(n, x):
        xs.append(x)
        return w_at(n, x)

    monkeypatch.setattr(spectral, "_w_at", recorded)
    monkeypatch.setattr(spectral, "_squares_to", lambda w, s, x: True)
    assert verify_involution(n, x=None)
    assert len(xs) == 2 and xs[0] == -xs[1] > 0
    rows = build_w(n).rows
    for x in xs:
        assert w_at(n, x) == [[_pair(e, x) for e in row] for row in rows]


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

    @pytest.mark.parametrize("n", range(1, 13))
    def test_oracle_equivalence(self, n):
        for m in range(-6, 9):
            assert matrix_power_closed_form(n, m) == matrix_power_oracle(n, m)

    @pytest.mark.parametrize("n, m", [(4, 2000), (4, -2000), (8, 500), (8, -500)])
    def test_oracle_equivalence_large_exponent(self, n, m):
        assert matrix_power_closed_form(n, m) == matrix_power_oracle(n, m)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_inverse_consistency(self, n):
        inv = matrix_power_closed_form(n, -1)
        assert inv @ build_r(n) == IntMatrix.identity(n)

    @pytest.mark.parametrize("n", [1, 2, 5, 12])
    def test_forms_only_the_upper_triangle(self, monkeypatch, n):
        # n(n+1)/2 divisions per call, and no ring matrix product
        calls = []
        original = RingElem.divide_exact

        def counted(self, d):
            calls.append(d)
            return original(self, d)

        def refuse(self, other):
            raise AssertionError("RingMatrix product inside the closed form")

        monkeypatch.setattr(RingElem, "divide_exact", counted)
        monkeypatch.setattr(RingMatrix, "__matmul__", refuse)
        for m in (-3, 0, 4):
            calls.clear()
            assert matrix_power_closed_form(n, m) == matrix_power_oracle(n, m)
            assert calls == [5 ** (n - 1)] * (n * (n + 1) // 2)

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


class TestPowerBatch:
    """matrix_powers_closed_form: every exponent in one packed product, and
    one exact division per entry."""

    @pytest.mark.parametrize("n", range(1, 13))
    @pytest.mark.parametrize("exponents", [[], [2, -1, 2, 2], [300, -3, 0, -300, 6, 1]],
                             ids=["empty", "duplicates", "mixed"])
    def test_batch_is_each_exponent_alone(self, n, exponents):
        got = spectral.matrix_powers_closed_form(n, exponents)
        assert got == [matrix_power_closed_form(n, m) for m in exponents]

    @staticmethod
    def _edit_first_entry(monkeypatch, edit, n=4):
        """The batch for exponents [2, 0] with entry (1, 1) of _upper_square's
        pairs replaced by edit(c0, c1, slot, norm).  R^0 = I, so that entry's
        c0 is norm (R^2_11 + slot), slot = 2^K the packing's slot."""
        norm, r2, original = 5 ** (n - 1), matrix_power_oracle(n, 2).rows[0][0], _upper_square

        def patched(packed, factors, x):
            upper = original(packed, factors, x)
            c0, c1 = upper[0][0]
            slot = c0 // norm - r2
            assert slot & slot - 1 == 0 and slot > norm
            upper[0][0] = edit(c0, c1, slot, norm)
            return upper

        monkeypatch.setattr(spectral, "_upper_square", patched)
        return spectral.matrix_powers_closed_form(n, [2, 0])

    def test_unedited_entry_reads_back(self, monkeypatch):
        got = self._edit_first_entry(monkeypatch, lambda c0, c1, slot, norm: (c0, c1))
        assert got == [matrix_power_oracle(4, 2), IntMatrix.identity(4)]

    def test_packed_int_divisible_while_a_slot_is_not(self, monkeypatch):
        # slot 0 gains 1 and slot 1 gains c, with 1 + c 2^K a multiple of the norm
        def edit(c0, c1, slot, norm):
            return c0 + 1 + (-pow(slot, -1, norm) % norm) * slot, c1

        with pytest.raises(ExactDivisionError, match="not divisible by 125 in every slot"):
            self._edit_first_entry(monkeypatch, edit)

    def test_slot_above_the_exponents(self, monkeypatch):
        def edit(c0, c1, slot, norm):
            return c0 + norm * slot ** 2, c1

        with pytest.raises(ExactDivisionError, match="slot above the 2 exponents"):
            self._edit_first_entry(monkeypatch, edit)

    def test_divisible_a_component(self, monkeypatch):
        def edit(c0, c1, slot, norm):
            return c0, c1 + norm * slot

        with pytest.raises(ValueError, match="nonzero a-component"):
            self._edit_first_entry(monkeypatch, edit)

    def test_slot_holds_a_sum_of_n_terms(self, monkeypatch):
        # The slot bound 9 n |W|^2 max|f| needs its factor n.  With W_ij = b_j,
        # b_i W_ij = b_j W_ji holds, and with f_j = F and the scale 1 entry
        # (i, l) is b_l F 2^(n-1): at n = 64 that is 12 % above 9 |W|^2 F, and
        # F puts 9 |W|^2 F just below a power of two.
        n = 64
        b = [math.comb(n - 1, j) for j in range(n)]
        top = 9 * max(b) ** 2
        f = ((1 << top.bit_length() + 20) - 1) // top
        monkeypatch.setattr(spectral, "_checked_w",
                            lambda n: ([(b, [0] * n, b)] * n, b, RingElem(1, 0, ONE_AT_1)))
        monkeypatch.setattr(spectral, "_eigen_parts", lambda n, x_image, m: [(f, 0)] * n)
        want = IntMatrix([[f * c << n - 1 for c in b]] * n)
        assert max(want.rows[0]) > 1 << (top * f).bit_length()
        assert spectral.matrix_powers_closed_form(n, [0, 1]) == [want, want]


def test_float_x_does_not_poison_the_cache():
    # an integral float names the integer's ring, so it must not leave
    # float-coefficient matrices cached under the integer's key
    for build in (build_rx, build_u, build_w):
        build.cache_clear()
    assert verify_involution(3, x=1.0)
    assert verify_eigenpair(3, 2, x=2.0)
    got = matrix_power_closed_form(3, 2)
    assert got == matrix_power_oracle(3, 2)
    assert all(type(e) is int for row in got.rows for e in row)
    assert all(type(c) is int for build in (build_rx, build_u, build_w)
               for row in build(3, 2).rows for e in row
               for c in e.c0.coeffs + e.c1.coeffs)


@pytest.mark.parametrize("x", [1.0, 2.5, True, "1"], ids=repr)
def test_builders_reject_non_integer_x(x):
    # 1, 1.0 and True hash alike, so only an int may key a cached matrix;
    # the check runs before any entry is stored
    for build in (build_rx, build_u, build_w):
        build(3, 1)
        size = build.cache_info().currsize
        with pytest.raises(ValueError, match="x must be an int"):
            build(3, x)
        assert build.cache_info().currsize == size


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
        w = build_w(n, x)
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
        gap = eigen_distinctness(eigenvalues(2, ONE_AT_1))
        assert gap == pytest.approx(math.sqrt(5), abs=1e-15)

    def test_distinctness_n1(self):
        assert eigen_distinctness(eigenvalues(1, ONE_AT_1)) == math.inf

    def test_distinctness_n8(self):
        assert eigen_distinctness(eigenvalues(8, ONE_AT_1)) > 0

    @pytest.mark.parametrize("x", range(-3, 4))
    def test_distinctness_is_the_all_pairs_minimum(self, x):
        for n in range(1, 41):
            lams = eigenvalues_numeric(n, x)
            want = min((abs(lams[i] - lams[j]) for i in range(n) for j in range(i + 1, n)),
                       default=math.inf)
            assert eigen_distinctness(eigenvalues(n, IntPoly.const(x))) == want

    def test_eigenvalues_numeric_match_exact(self):
        for n in range(1, 9):
            nums = eigenvalues_numeric(n, 1)
            for j in range(1, n + 1):
                want = (-1) ** (n + j) * GOLDEN ** (2 * j - n - 1)
                assert nums[j - 1] == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_eigenbasis_independent(self, n):
        u = build_u(n, 1)
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
        assert_binomial_symmetry(build_w(n, x))


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


def sigma(e):
    """e under the automorphism x -> -x, a -> -a: c0(-x) - c1(-x) a."""
    def flip(p):
        return IntPoly(-c if d % 2 else c for d, c in enumerate(p.coeffs))
    return RingElem(flip(e.c0), -flip(e.c1), e.x_image)


def assert_parity(e, parity, where):
    """sigma(e) = (-1)^parity e: e is homogeneous of that parity."""
    assert sigma(e) == (-e if parity % 2 else e), where


@pytest.mark.parametrize("n", range(1, 17))
def test_builders_are_homogeneous(n):
    """Over Z[x] every entry of R(x), U and W, every eigenvalue and the
    involution scale is homogeneous, with the parities below (1-based).
    verify_involution relies on W's and the scale's and checks them itself."""
    r, u, w = build_rx(n), build_u(n), build_w(n)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            assert_parity(r.rows[i - 1][j - 1], i + j - n - 1, ("R(x)", n, i, j))
            assert_parity(u.rows[i - 1][j - 1], i - 1, ("U", n, i, j))
            assert_parity(w.rows[i - 1][j - 1], n - i + j - 1, ("W", n, i, j))
    for j, lam in enumerate(eigenvalues(n), 1):
        assert_parity(lam, n + 1, ("lambda", n, j))
    assert_parity(involution_scale(n), 0, ("scale", n))


@st.composite
def graded_elems(draw):
    """(e, parity): an element over Z[x] of degree <= 5 with small
    coefficients, and half the time with those of the wrong parity zeroed."""
    parity = draw(st.integers(0, 1))
    c0, c1 = (draw(st.lists(st.integers(-2, 2), max_size=6)) for _ in range(2))
    if draw(st.booleans()):
        c0 = [c if d % 2 == parity else 0 for d, c in enumerate(c0)]
        c1 = [c if d % 2 != parity else 0 for d, c in enumerate(c1)]
    return RingElem(IntPoly(c0), IntPoly(c1)), parity


@settings(max_examples=200, deadline=None)
@given(graded_elems())
def test_homogeneous_is_sigma_parity(case):
    e, parity = case
    assert _homogeneous(e, parity) == (sigma(e) == (-e if parity else e))


@st.composite
def under_a_bound(draw):
    """(bound, p): p has only powers x^d with d of one parity, and
    coefficients at most bound in absolute value, often exactly +/-bound."""
    bound = draw(st.integers(0, 2 ** 80))
    coeff = st.one_of(st.integers(-bound, bound), st.sampled_from([-bound, 0, bound]))
    parity = draw(st.integers(0, 1))
    cs = draw(st.lists(coeff, max_size=6))
    return bound, IntPoly([0] * parity + [c for g in cs for c in (g, 0)])


@settings(max_examples=300, deadline=None)
@given(under_a_bound())
def test_half_width_lemma(case):
    """A polynomial of one parity under the bound is zero iff its value at
    2^h is, h = _half_width(bound), the least h with bound < 2^(2h - 1)."""
    bound, p = case
    h = _half_width(bound)
    assert bound < 2 ** (2 * h - 1)
    assert h == 1 or bound >= 2 ** (2 * h - 3)
    assert (p(2 ** h) == 0) == p.is_zero


@pytest.mark.parametrize("h", [2, 3, 10, 64])
def test_half_width_witnesses(h):
    # 4^(h-1) - x^2 is homogeneous and under the bound 4^(h-1), but vanishes
    # one bit narrower, at 2^(h-1); 2^h - x is under it too and vanishes at
    # 2^h itself, because it mixes parities, which is why W's are checked
    bound = 4 ** (h - 1)
    assert _half_width(bound) == h
    narrower = IntPoly([bound, 0, -1])
    assert narrower(2 ** (h - 1)) == 0 and narrower(2 ** h) != 0
    mixed = IntPoly([2 ** h, -1])
    assert mixed(2 ** h) == 0
    assert not _homogeneous(RingElem(mixed), 0) and not _homogeneous(RingElem(mixed), 1)


def _pair(e, x):
    """The parts (c0, c1) of e over Z[x] at the int x."""
    return e.c0(x), e.c1(x)


def _faulty_w(monkeypatch, edit):
    """Make the checks read W with ``edit(rows, n)`` applied to a copy of
    its rows over Z[x] (0-based), evaluated at the checks' x.

    Over Z[x] the involution builds W as pairs at its own points
    (spectral._w_at), so there it reads the edited W at them.  The power check
    keeps W per n (spectral._checked_w), so it gets a fresh cache for the
    test: no W from before the patch answers for it, and none from during
    it outlives it."""
    def faulty(n, x):
        rows = [list(row) for row in build_w(n, None).rows]
        edit(rows, n)
        return RingMatrix([[e if x is None else e.specialize(x) for e in row] for row in rows])

    monkeypatch.setattr(spectral, "build_w", faulty)
    monkeypatch.setattr(spectral, "_w_at", lambda n, x: [[_pair(e, x) for e in row]
                                                          for row in faulty(n, None).rows])
    monkeypatch.setattr(spectral, "_checked_w", lru_cache(maxsize=BUILD_CACHE_SIZE)(
        spectral._checked_w.__wrapped__))


def _left_factor(monkeypatch, rows):
    """Make the involution apply the matrix ``rows`` (entries over Z[x]) at
    its point as the left factor, in place of pascal's Pascal passes."""
    def times(v, x):
        return [tuple(map(sum, zip(*(_times(_pair(e, x), p, x) for e, p in zip(row, v)))))
                for row in rows]

    monkeypatch.setattr(spectral, "_w_times", times)


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


def _zeroed(rows, n):
    """The zero matrix: homogeneous and symmetric, and its square is 0."""
    rows[:] = [[e * 0 for e in row] for row in rows]


def _even_pair(rows, n):
    """c0 += x^2 b_4 on W_24 and x^2 b_2 on W_42: over Z[x] both stay
    homogeneous of parity 0 (at n = 5), and b_i W_ij = b_j W_ji still holds."""
    b, x2 = binomial_weights(n), IntPoly([0, 0, 1])
    _add(2, 4, x2 * b[3])(rows, n)
    _add(4, 2, x2 * b[1])(rows, n)


def _recorded_checks(monkeypatch):
    """Let spectral._squares_to run, and return the list of the x of each call."""
    xs, check = [], spectral._squares_to

    def recorded(w, s, x):
        xs.append(x)
        return check(w, s, x)

    monkeypatch.setattr(spectral, "_squares_to", recorded)
    return xs


FAULTS = [_add(2, 4, 1), _add(1, 5, -1), _add(3, 3, 1), _add(5, 5, -1),
          _add(4, 2, 1), _add(5, 1, -1), _symmetric_pair, _doubled]
FAULT_IDS = ["above", "above-corner", "diagonal", "diagonal-corner", "below",
             "below-corner", "symmetric-pair", "doubled"]


class TestInvolutionFaults:
    """verify_involution returns False for a W with a wrong entry, wherever
    the entry is, at x = 1 and over Z[x]."""

    @pytest.mark.parametrize("x", [1, None], ids=["x=1", "symbolic"])
    @pytest.mark.parametrize("edit", FAULTS, ids=FAULT_IDS)
    def test_fault_fails(self, monkeypatch, edit, x):
        assert verify_involution(5, x=x)
        _faulty_w(monkeypatch, edit)
        assert not verify_involution(5, x=x)

    @pytest.mark.parametrize("x", [1, None], ids=["x=1", "symbolic"])
    def test_n1_fault_fails(self, monkeypatch, x):
        # W = [-1] becomes [0]; n = 1 has no product above the diagonal
        _faulty_w(monkeypatch, _add(1, 1, 1))
        assert not verify_involution(1, x=x)

    @pytest.mark.parametrize("x", [1, -2, 3])
    def test_reads_the_built_w_at_an_integer_x(self, monkeypatch, x):
        # the W that build_w returns and show-w prints, not a build of its own
        monkeypatch.setattr(spectral, "build_w", lambda n, x: build_w(n, x) if n != 5 else
                            RingMatrix([[e * 2 for e in row] for row in build_w(n, x).rows]))
        assert not verify_involution(5, x=x)

    def test_wrong_parity_is_refused_before_the_product(self, monkeypatch):
        # W_33 at n = 5 has parity 0, so c0 + x is not homogeneous; a diagonal
        # edit keeps the symmetry, so only the parity check can refuse it
        def refuse(*args):
            raise AssertionError("the product ran on a W of the wrong parity")

        _faulty_w(monkeypatch, _add(3, 3, X))
        monkeypatch.setattr(spectral, "_squares_to", refuse)
        assert not verify_involution(5, x=None)

    def test_mixed_parity_fault_that_vanishes_at_the_width_fails(self, monkeypatch):
        """W_11 + 2^h - x at n = 5 equals W_11 at x = 2^h, where the product
        runs, so only the build at x = -2^h, where it is off by 2^(h+1),
        shows the fault."""
        n = 5
        h = _half_width(n * 9 ** (n - 1) + _norm([[involution_scale(n)]]))
        xs = _recorded_checks(monkeypatch)
        _faulty_w(monkeypatch, _add(1, 1, IntPoly([2 ** h, -1])))
        assert not verify_involution(n, x=None)
        assert xs == []

    def test_homogeneous_symmetric_fault_fails_in_the_product(self, monkeypatch):
        xs = _recorded_checks(monkeypatch)
        _faulty_w(monkeypatch, _even_pair)
        assert not verify_involution(5, x=None)
        assert len(xs) == 1

    @pytest.mark.parametrize("edit", [None, _zeroed, _doubled, _even_pair],
                             ids=["W", "zeroed", "doubled", "even-pair"])
    def test_width_covers_both_sides(self, monkeypatch, edit):
        """The product runs at x = 2^h with every coefficient of W W - scale I
        below 2^(2h - 1), the scale's too: for the zero matrix the
        difference is the scale alone."""
        n = 5
        xs = _recorded_checks(monkeypatch)
        if edit is not None:
            _faulty_w(monkeypatch, edit)
        rows = spectral.build_w(n, None).rows
        verify_involution(n, x=None)
        h = xs[0].bit_length() - 1
        assert xs == [2 ** h]
        scale = involution_scale(n)
        for i in range(n):
            for l in range(n):
                d = sum((rows[i][j] * rows[j][l] for j in range(n)), RingElem(0, 0))
                if i == l:
                    d = d + -scale
                assert all(abs(c) < 2 ** (2 * h - 1) for c in d.c0.coeffs + d.c1.coeffs)

    def test_lower_triangle_is_checked(self, monkeypatch):
        """M = (1+a^2) I + E_31 at n = 3: on and above the diagonal M^2 equals
        (1+a^2)^2 I, but (M^2)_31 = 2 (1+a^2).  With M as its own left
        factor it passes the comparison with the built W, and only the
        entries below the diagonal of the product refuse it."""
        s = ONE + A * A
        m = [[s if i == j else RingElem(0, 0) for j in range(3)] for i in range(3)]
        m[2][0] = ONE
        square = RingMatrix(m) @ RingMatrix(m)
        want = RingMatrix([[s * s if i == j else RingElem(0, 0) for j in range(3)]
                           for i in range(3)])
        assert all(square.rows[i][i:] == want.rows[i][i:] for i in range(3))
        assert square != want

        def edit(rows, n):
            rows[:] = m
        _faulty_w(monkeypatch, edit)
        _left_factor(monkeypatch, m)
        assert not verify_involution(3, x=None)


class TestPowerFaults:
    """matrix_power_closed_form raises, or differs from the oracle, for a W
    with a wrong entry, wherever the entry is."""

    @pytest.mark.parametrize("m", [-3, 0, 1, 6])
    @pytest.mark.parametrize("edit", FAULTS, ids=FAULT_IDS)
    def test_fault_fails(self, monkeypatch, edit, m):
        want = matrix_power_oracle(5, m)
        assert matrix_power_closed_form(5, m) == want
        _faulty_w(monkeypatch, edit)
        try:
            got = matrix_power_closed_form(5, m)
        except (ExactDivisionError, ValueError):
            return
        assert got != want

    @pytest.mark.parametrize("edit", [_add(4, 2, 1), _add(5, 1, -1), _add(2, 4, 1)],
                             ids=["below", "below-corner", "above"])
    def test_asymmetric_w_is_refused_not_mirrored(self, monkeypatch, edit):
        # the lower triangle is mirrored only from a W that passed the
        # symmetry check, so a one-sided edit is refused before any product
        _faulty_w(monkeypatch, edit)
        with pytest.raises(ValueError, match="b_i W_ij = b_j W_ji"):
            matrix_power_closed_form(5, 2)

    def test_w_is_checked_once_for_involution_and_powers(self, monkeypatch):
        # verify --check all at x = 1 builds W once, and reads one checked, packed W
        calls, check = [], spectral._binomially_symmetric
        builds = lru_cache(maxsize=BUILD_CACHE_SIZE)(build_w.__wrapped__)
        monkeypatch.setattr(spectral, "build_w", builds)

        def counted(packed):
            calls.append(len(packed))
            return check(packed)

        monkeypatch.setattr(spectral, "_checked_w", lru_cache(maxsize=BUILD_CACHE_SIZE)(
            spectral._checked_w.__wrapped__))
        monkeypatch.setattr(spectral, "_binomially_symmetric", counted)
        assert verify_involution(5, x=1)
        for m in (-3, 0, 6):
            assert matrix_power_closed_form(5, m) == matrix_power_oracle(5, m)
        assert calls == [5] and builds.cache_info().misses == 1

    def test_patch_leaves_no_faulty_w_behind(self, monkeypatch):
        _faulty_w(monkeypatch, _doubled)
        assert matrix_power_closed_form(4, 2) != matrix_power_oracle(4, 2)
        monkeypatch.undo()
        assert matrix_power_closed_form(4, 2) == matrix_power_oracle(4, 2)
