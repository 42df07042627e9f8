"""Unit tests for matrix construction and exact dense matrix algebra."""
import itertools
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rjpascal import pascal
from rjpascal.binomial import _row_table
from rjpascal.comb import unpack
from rjpascal.pascal import (_D, _E, _F, _Q, IntMatrix, RingMatrix, _coefficients, _l_step,
                             _lower_pascal, _norm, _packing, _rows_at, _scaled,
                             _symmetric_power, _upper_square, _w_times, build_r, build_rx,
                             build_u, build_w)
from rjpascal.ring import A, ONE, ZERO, IntPoly, RingElem, X, a_pow
from rjpascal.spectral import _eigen_failures, _inverse_r, _read, _rows, involution_scale

ONE_AT_1 = IntPoly.const(1)


def u_entry_numeric(n, i, j, x_value):
    """Independent float oracle for the eigenvector entries: plain
    triple-loop summation with stdlib binomials, no ring arithmetic."""
    a = (x_value + math.sqrt(x_value * x_value + 4.0)) / 2
    total = 0.0
    for k in range(1, j + 1):
        c = math.comb(i - 1, k - 1) * math.comb(n - i, j - k)
        total += (-1.0) ** (i - k) * c * a ** (2 * k - i - 1)
    return total


def rx_entry_by_formula(n, i, j):
    """The paper's C(i-1, n-j) x^(i+j-n-1); the exponent is negative only
    where the binomial is zero."""
    c = math.comb(i - 1, n - j)
    return RingElem(IntPoly([0] * (i + j - n - 1) + [c])) if c else RingElem(0)


def u_entry_by_sum(n, i, j):
    """The paper's u(i,j) = sum_k (-1)^(i-k) C(i-1,k-1) C(n-i,j-k) a^(2k-i-1)
    over Z[x], term by term with RingElem arithmetic."""
    total = RingElem(0)
    for k in range(1, j + 1):
        c = math.comb(i - 1, k - 1) * math.comb(n - i, j - k)
        total = total + a_pow(2 * k - i - 1) * ((-1) ** abs(i - k) * c)
    return total


def w_entry_by_formula(n, i, j):
    """The paper's w(i,j) = (-1)^j a^(n-j) u(i,j)."""
    return a_pow(n - j) * u_entry_by_sum(n, i, j) * (-1) ** j


def by_formula(entry, n):
    return RingMatrix([[entry(n, i, j) for j in range(1, n + 1)] for i in range(1, n + 1)])


def column(m, j):
    """Column j (1-based) of the matrix m as a tuple."""
    return tuple(row[j - 1] for row in m.rows)


def evaluated(m, x_value):
    """The Z[x] matrix m with every entry evaluated at the integer x_value."""
    return RingMatrix([[e.specialize(x_value) for e in row] for row in m.rows])


class TestBuildR:
    def test_small_matrices(self):
        assert build_r(1) == IntMatrix([[1]])
        assert build_r(2) == IntMatrix([[0, 1], [1, 1]])
        assert build_r(3) == IntMatrix([[0, 0, 1], [0, 1, 1], [1, 2, 1]])

    def test_rejects_zero_dimension(self):
        with pytest.raises(ValueError):
            build_r(0)
        with pytest.raises(ValueError):
            build_rx(0)
        with pytest.raises(ValueError):
            build_u(0)
        with pytest.raises(ValueError):
            build_w(0)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_right_justified_shape(self, n):
        r = build_r(n)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i + j <= n:
                    assert r.rows[i - 1][j - 1] == 0
            assert r.rows[i - 1][n - i] == 1

    @pytest.mark.parametrize("n", range(1, 13))
    def test_row_sums_are_powers_of_two(self, n):
        r = build_r(n)
        for i in range(1, n + 1):
            assert sum(r.rows[i - 1]) == 2 ** (i - 1)


class TestBuildRx:
    def test_n1(self):
        assert build_rx(1) == RingMatrix([[RingElem(1)]])

    def test_n2(self):
        assert build_rx(2) == RingMatrix(
            [
                [RingElem(0), RingElem(1)],
                [RingElem(1), RingElem(X)],
            ]
        )

    @pytest.mark.parametrize("n", range(1, 21))
    def test_no_negative_exponent_materialized(self, n):
        # left of the anti-diagonal every entry is zero, and none has an a-part
        m = build_rx(n)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                entry = m.rows[i - 1][j - 1]
                assert entry.c1.is_zero
                if i + j <= n:
                    assert entry.is_zero

    @pytest.mark.parametrize("n", range(1, 13))
    def test_specialize_at_one_gives_r(self, n):
        assert evaluated(build_rx(n), 1).to_int_matrix() == build_r(n)

    @pytest.mark.parametrize("n", range(1, 25))
    def test_entries_match_paper_formula(self, n):
        assert build_rx(n) == by_formula(rx_entry_by_formula, n)
        assert build_r(n) == IntMatrix(
            [[math.comb(i - 1, n - j) for j in range(1, n + 1)] for i in range(1, n + 1)])


class TestBuildU:
    def test_n1(self):
        assert build_u(1) == RingMatrix([[RingElem(1)]])

    def test_n2_first_column(self):
        col = column(build_u(2, 1), 1)
        assert col == (
            RingElem(1, 0, ONE_AT_1),
            RingElem(1, -1, ONE_AT_1),  # 1 - a
        )

    def test_n2_second_column(self):
        # oracle-verified: the second eigenvector is (1, a)
        col = column(build_u(2, 1), 2)
        assert col == (
            RingElem(1, 0, ONE_AT_1),
            RingElem(0, 1, ONE_AT_1),
        )

    @pytest.mark.parametrize("x_value", [1.0, 2.0])
    @pytest.mark.parametrize("n", range(1, 8))
    def test_entries_match_numeric_oracle(self, n, x_value):
        u = build_u(n, int(x_value))
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                want = u_entry_numeric(n, i, j, x_value)
                got = float(u.rows[i - 1][j - 1])
                assert got == pytest.approx(want, abs=1e-9 * (1 + abs(want)))

    @pytest.mark.parametrize("n", [*range(1, 13), 24])
    def test_entries_match_exact_sum(self, n):
        assert build_u(n) == by_formula(u_entry_by_sum, n)


class TestBuildW:
    def test_n1(self):
        assert build_w(1) == RingMatrix([[RingElem(-1)]])

    def test_n2_at_one(self):
        w = build_w(2, 1)
        assert w == RingMatrix(
            [
                [RingElem(0, -1, ONE_AT_1), RingElem(1, 0, ONE_AT_1)],
                [RingElem(1, 0, ONE_AT_1), RingElem(0, 1, ONE_AT_1)],
            ]
        )

    @pytest.mark.parametrize("n", [*range(1, 13), 24])
    def test_column_scaling_relation(self, n):
        assert build_w(n) == by_formula(w_entry_by_formula, n)


def perturbations(m):
    """Every 2x2 matrix that differs from m in one entry, by + 1 or by
    negation, keeping M12 = +/-1 as _symmetric_power requires."""
    for i, j in itertools.product(range(2), repeat=2):
        e = m[i][j]
        for changed in ([-e] if (i, j) == (0, 1) else [e + 1, -e]):
            if changed != e:
                rows = [list(row) for row in m]
                rows[i][j] = changed
                yield (i, j), rows


def l1(p):
    return sum(map(abs, p.coeffs))


class TestSymmetricPower:
    # S(Q) = R(x), S(E) = U and S(F) = -W, each against the paper's formula
    CASES = {"Q": (_Q, rx_entry_by_formula, 1), "E": (_E, u_entry_by_sum, 1),
             "F": (_F, w_entry_by_formula, -1)}

    @pytest.mark.parametrize("name", CASES)
    def test_any_changed_entry_is_caught(self, name):
        m, entry, sign = self.CASES[name]
        n = 4
        want = by_formula(lambda n, i, j: entry(n, i, j) * sign, n)
        assert _symmetric_power(n, m) == want
        changed = list(perturbations(m))
        assert {where for where, _ in changed} == set(itertools.product(range(2), repeat=2))
        for where, rows in changed:
            assert _symmetric_power(n, rows) != want, (name, where)

    @pytest.mark.parametrize("n", range(1, 25))
    def test_coefficients_within_the_proved_bound(self, n):
        # max(N(M11) + N(M12), N(M21) + N(M22))^(n-1), N(c0 + c1 a) =
        # ||c0||_1 + 2 ||c1||_1, bounds every coefficient, so every one lies
        # below 2^(k-1) for the packing's k = max(2, bitlen(bound) + 1)
        for m, built in ((_Q, build_rx(n)), (_E, build_u(n)), (_F, build_w(n))):
            bound = max(sum(l1(e.c0) + 2 * l1(e.c1) for e in row) for row in m) ** (n - 1)
            k = bound.bit_length() + 1
            top = max(abs(c) for row in built.rows for e in row for c in e.c0.coeffs + e.c1.coeffs)
            assert top <= bound < 2 ** (k - 1)

    @pytest.mark.parametrize("x_value", range(-3, 4))
    def test_integer_x_matches_specialization(self, x_value):
        # built at x, against the Z[x] build evaluated entry by entry
        for build in (build_rx, build_u, build_w):
            for n in range(1, 13):
                assert build(n, x_value) == evaluated(build(n), x_value), (build, n)

    @pytest.mark.parametrize("x_value", [-2, 0, 1, 3])
    def test_integer_x_builds_in_the_target_ring(self, monkeypatch, x_value):
        # only the 2x2 matrix is specialized: no base-2^k unpacking, and no
        # polynomial evaluation beyond the two parts of M's four entries
        evaluations = []
        horner = IntPoly.__call__

        def counted(self, value):
            evaluations.append(self)
            return horner(self, value)

        def refuse(v, k):
            raise AssertionError("base-2^k digits unpacked at an integer x")

        monkeypatch.setattr(pascal, "unpack", refuse)
        monkeypatch.setattr(IntPoly, "__call__", counted)
        build_rx.cache_clear()
        for build in (build_rx, build_u, build_w):
            evaluations.clear()
            m = build(24, x_value)
            assert m.x_image == IntPoly.const(x_value)
            assert len(evaluations) <= 8, (build, len(evaluations))

    @pytest.mark.parametrize("c", [7, 100, 2 ** 20])
    @pytest.mark.parametrize("n", range(2, 6))
    def test_constant_entries_at_the_bound(self, n, c):
        # M = ((c, 1), (1, 1)) over Z[x], whose bound is (c + 1)^(n-1): row 1
        # is (c + t)^(n-1), and its entry c^(n-1) is above (c + 1)^(n-2), so
        # a packing one power short would carry digits into powers of x.
        # Every entry is a constant, and the build equals the one at x = 0.
        m = ((RingElem(c), ONE), (ONE, ONE))
        built = _symmetric_power(n, m)
        assert all(part.degree() < 1 for row in built.rows for e in row for part in (e.c0, e.c1))
        assert evaluated(built, 0) == _symmetric_power(n, m, 0)

    def test_rejects_a_divisor_that_is_not_a_unit(self):
        with pytest.raises(ValueError, match="M12"):
            _symmetric_power(3, ((ONE, ONE + ONE), (ONE, A)))


def times2(p, q):
    """The product of two 2x2 matrices of ring elements."""
    return tuple(tuple(p[i][0] * q[0][j] + p[i][1] * q[1][j] for j in range(2))
                 for i in range(2))


class TestFactorization:
    """F = L D U' with l = x - a, L = ((1, 0), (l, 1)), D = diag(pascal._D)
    and U' = ((1, l), (0, 1)), so W = -S(F) = -S(L) S(D) S(U')."""

    @pytest.mark.parametrize("x", [None, 1, 0, -2, 3])
    def test_f_is_l_d_u(self, x):
        def at(e):
            return e if x is None else e.specialize(x)
        l, zero, one = at(RingElem(X, -1)), at(ZERO), at(ONE)
        assert l * at(A) == -one
        d1, d2 = map(at, _D)
        lower, diag, upper = ((one, zero), (l, one)), ((d1, zero), (zero, d2)), ((one, l), (zero, one))
        assert times2(times2(lower, diag), upper) == tuple(tuple(map(at, row)) for row in _F)

    @pytest.mark.parametrize("x", [1, 0, -2, 3, 2 ** 10, -2 ** 10])
    def test_w_times_is_w(self, x):
        # W built at x as pairs, and applied by the passes to each unit column
        for n in range(1, 9):
            w = _rows_at(n, _F, x, -1)
            assert w == [[(e.c0(x), e.c1(x)) for e in row] for row in build_w(n).rows]
            for j in range(n):
                assert _w_times([(int(k == j), 0) for k in range(n)], x) == [row[j] for row in w]


def scalar_matrix(n, c):
    """c times the n x n identity, in c's ring."""
    zero = RingElem(0, 0, c.x_image)
    return RingMatrix([[c if i == j else zero for j in range(n)] for i in range(n)])


class TestMatrixAlgebra:
    def test_identity_neutral(self):
        w = build_w(3)
        assert w @ scalar_matrix(3, ONE) == w
        assert scalar_matrix(3, ONE) @ w == w
        r = build_r(3)
        assert r @ IntMatrix.identity(3) == r

    def test_r2_squared(self):
        assert build_r(2) @ build_r(2) == IntMatrix([[1, 1], [1, 2]])

    def test_w2_squared_is_scalar(self):
        w = build_w(2, 1)
        scale = (ONE + A * A).specialize(1)  # 2 + a
        assert w @ w == scalar_matrix(2, scale)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            build_r(2) @ build_r(3)
        with pytest.raises(ValueError):
            build_w(2) @ build_w(3)
        with pytest.raises(ValueError):
            build_w(3).mul_vector((ONE, ONE))

    def test_int_matrix_pow(self):
        r = build_r(3)
        assert r ** 0 == IntMatrix.identity(3)
        assert r ** 3 == r @ r @ r
        with pytest.raises(ValueError):
            r ** -1

    def test_mixed_x_images_rejected(self):
        with pytest.raises(ValueError):
            RingMatrix([[A, A.specialize(1)], [A, A]])

    def test_mixed_x_images_in_product_rejected(self):
        w, w1 = build_w(2), build_w(2, 1)
        with pytest.raises(ValueError):
            w @ w1
        with pytest.raises(ValueError):
            w1 @ build_w(2, 2)
        with pytest.raises(ValueError):
            w.mul_vector(column(w1, 1))
        with pytest.raises(ValueError):
            w1.mul_vector((RingElem(1, 0, ONE_AT_1), A))

    def test_equality_is_type_strict(self):
        ring_r = build_rx(2, 1)
        assert ring_r.to_int_matrix() == build_r(2)
        assert ring_r != build_r(2)
        assert build_r(2) != ring_r


#: Images of x the product kernel is checked at: Z[x], then integers.
X_IMAGES = [X] + [IntPoly.const(c) for c in (1, 0, -2, 3)]


@st.composite
def ring_elems(draw, x_image):
    """Elements of the ring where x maps to x_image.  Over Z[x] each part
    has degree <= 6 and coefficients up to 2^200 in absolute value, and
    an empty list makes it zero; at an integer x the parts are small
    constants."""
    if x_image == X:
        coeff, size = st.integers(-2 ** 200, 2 ** 200), 7
    else:
        coeff, size = st.integers(-9, 9), 1
    parts = [IntPoly(draw(st.lists(coeff, max_size=size))) for _ in range(2)]
    return RingElem(*parts, x_image)


@st.composite
def operands(draw):
    """A square matrix, a second one and a vector, all in one random ring."""
    x_image = draw(st.sampled_from(X_IMAGES))
    n = draw(st.integers(1, 4))
    elems = st.lists(ring_elems(x_image), min_size=n, max_size=n)
    a, b = (RingMatrix(draw(st.lists(elems, min_size=n, max_size=n))) for _ in range(2))
    return a, b, tuple(draw(elems))


def dot_by_definition(row, col):
    """sum_k row[k] * col[k] with RingElem arithmetic, term by term."""
    acc = row[0] * col[0]
    for p, q in zip(row[1:], col[1:]):
        acc = acc + p * q
    return acc


def product_by_definition(a, b):
    """a @ b entry by entry with dot_by_definition."""
    cols = [column(b, j) for j in range(1, b.n + 1)]
    return RingMatrix([[dot_by_definition(row, col) for col in cols] for row in a.rows])


def scaled_at_bound(m, factors):
    """pascal._scaled on m and the factors, packed by _packing with the bound
    N(M) N(f) of M diag(f), its rows read back as a RingMatrix."""
    x, unwrap, wrap = _packing(m.x_image, lambda: _norm(m.rows) * _norm((factors,)))
    fs = [(unwrap(f.c0), unwrap(f.c1)) for f in factors]
    return RingMatrix([[RingElem(wrap(c0), wrap(c1), m.x_image) for c0, c1 in zip(c0s, c1s)]
                       for c0s, c1s, _ in _scaled(_coefficients(m.rows, unwrap), fs, x)])


def upper_square_at_bound(m, factors):
    """pascal._upper_square on m and the factors, packed by _packing with the
    bound n N(M)^2 N(f) of M diag(f) M, its pairs read back as ring elements."""
    x, unwrap, wrap = _packing(m.x_image, lambda: m.n * _norm(m.rows) ** 2 * _norm((factors,)))
    fs = [(unwrap(f.c0), unwrap(f.c1)) for f in factors]
    return [[RingElem(wrap(c0), wrap(c1), m.x_image) for c0, c1 in row]
            for row in _upper_square(_coefficients(m.rows, unwrap), fs, x)]


class TestProductKernel:
    @settings(max_examples=150, deadline=None)
    @given(operands())
    def test_matmul_matches_definition(self, ops):
        a, b, _ = ops
        assert a @ b == product_by_definition(a, b)

    @settings(max_examples=150, deadline=None)
    @given(operands())
    def test_mul_vector_matches_definition(self, ops):
        a, _, v = ops
        assert a.mul_vector(v) == tuple(dot_by_definition(row, v) for row in a.rows)

    # Over Z[x] the kernel reads each result coefficient from one base-2^k
    # digit, with k = bitlen(n N(p) N(q)) + 1 and N(c0 + c1 a) = ||c0||_1 +
    # 2 ||c1||_1 (pascal._packing).  Entries 2^100 with c1 = 0 at n = 4
    # bring the largest result coefficient to 2^202, the bound itself, so a
    # k one bit short, or the factor n dropped, garbles that digit.  The
    # all-ones polynomials bring it to 26 against a largest operand
    # coefficient of 1, so a k taken from max|coeff| in place of the l1
    # norm garbles it too.
    @pytest.mark.parametrize("n, entry", [
        (4, RingElem(2 ** 100, 2 ** 100)),
        (4, RingElem(-2 ** 100, 2 ** 100)),
        (1, RingElem(IntPoly([1] * 9), IntPoly([1] * 9))),
        (4, RingElem(2 ** 100)),
        (4, RingElem(IntPoly([0, 0, -2 ** 100]))),
    ], ids=["constants", "mixed-signs", "all-ones", "c0-constants", "c0-monomials"])
    def test_near_bound_operands(self, n, entry):
        m = RingMatrix([[entry] * n] * n)
        assert m @ m == product_by_definition(m, m)
        v = column(m, 1)
        assert m.mul_vector(v) == tuple(dot_by_definition(row, v) for row in m.rows)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_builders_match_definition(self, n):
        w, r, u = build_w(n), build_rx(n), build_u(n)
        assert w @ w == product_by_definition(w, w)
        for p in range(1, n + 1):
            v = column(u, p)
            assert r.mul_vector(v) == tuple(dot_by_definition(row, v) for row in r.rows)

    @settings(max_examples=150, deadline=None)
    @given(operands())
    def test_scale_columns_matches_definition(self, ops):
        a, _, f = ops
        want = RingMatrix([[e * c for e, c in zip(row, f)] for row in a.rows])
        assert scaled_at_bound(a, f) == want

    @settings(max_examples=150, deadline=None)
    @given(operands())
    def test_upper_square_matches_definition(self, ops):
        a, _, f = ops
        scaled = RingMatrix([[e * c for e, c in zip(row, f)] for row in a.rows])
        ones = [RingElem(1, 0, a.x_image)] * a.n
        for factors, left in ((ones, a), (f, scaled)):
            want = product_by_definition(left, a).rows
            got = upper_square_at_bound(a, factors)
            assert got == [list(row[i:]) for i, row in enumerate(want)]

    # The bound of M diag(f) M is n N(M)^2 N(f); the kernel's callers pack
    # (upper_square_at_bound packs at it).  Entries and factors with
    # c1 = 0 meet it: at n = 4, M all 2^100 and f all g, every entry is
    # 4 2^200 g, so a k one bit short, or the factor n dropped, garbles its
    # top digit; g = 1 is the form W W of the involution check.  For p = c (1 + a),
    # c = 2^100 or 2^100 x^2, and f = 1 + a, p f p = c^2 (1 + a)^3 =
    # c^2 ((4 + x) + (4 + 3x + x^2) a): the coefficient 4 c^2, summed over
    # two terms at n = 2, carries across a digit unless k covers it.
    @pytest.mark.parametrize("n, entry, factor", [
        (2, RingElem(2 ** 100, 2 ** 100), RingElem(1, 1)),
        (2, RingElem(IntPoly([0, 0, 2 ** 100]), IntPoly([0, 0, 2 ** 100])), RingElem(1, 1)),
        (4, RingElem(2 ** 100), RingElem(1)),
        (4, RingElem(2 ** 100), RingElem(2 ** 50)),
    ], ids=["constant", "monomial", "c0-ones", "c0-constants"])
    def test_near_bound_upper_square_with_factors(self, n, entry, factor):
        m = RingMatrix([[entry] * n] * n)
        f = [factor] * n
        scaled = RingMatrix([[e * factor for e in row] for row in m.rows])
        want = product_by_definition(scaled, m).rows
        assert upper_square_at_bound(m, f) == [list(row[i:]) for i, row in enumerate(want)]

    # Column scaling has the bound N(M) N(f).  An entry 2^100 with c1 = 0
    # squares to 2^200, the bound itself, so a k one bit short reads it as
    # a digit of the wrong sign.  The entries with c1 = c0 put p0 q0 and
    # p1 q1 on one coefficient, 2 2^200.
    @pytest.mark.parametrize("entry", [
        RingElem(2 ** 100, 2 ** 100),
        RingElem(-2 ** 100, 2 ** 100),
        RingElem(IntPoly([0, 0, 2 ** 100]), IntPoly([0, 0, 2 ** 100])),
        RingElem(2 ** 100),
        RingElem(IntPoly([0, -2 ** 100])),
    ], ids=["constants", "mixed-signs", "monomials", "c0-constants", "c0-monomials"])
    def test_near_bound_scaling(self, entry):
        m = RingMatrix([[entry] * 2] * 2)
        want = entry * entry
        assert scaled_at_bound(m, [entry, entry]) == RingMatrix([[want] * 2] * 2)

    def test_symbolic_scaling_multiplies_no_polynomials(self, monkeypatch):
        factors = [-a_pow(8 - j) if j % 2 else a_pow(8 - j) for j in range(1, 9)]
        u, want = build_u(8), build_w(8)

        def refuse(self, other):
            raise AssertionError("IntPoly product inside a Z[x] column scaling")

        monkeypatch.setattr(IntPoly, "__mul__", refuse)
        monkeypatch.setattr(IntPoly, "__rmul__", refuse)
        assert scaled_at_bound(u, factors) == want

    def test_symbolic_product_multiplies_no_polynomials(self, monkeypatch):
        w = build_w(8)
        want = scalar_matrix(8, involution_scale(8))

        def refuse(self, other):
            raise AssertionError("IntPoly product inside a Z[x] matrix product")

        monkeypatch.setattr(IntPoly, "__mul__", refuse)
        monkeypatch.setattr(IntPoly, "__rmul__", refuse)
        assert w @ w == want

    def test_packing_of_a_zero_bound(self):
        # k = bitlen(0) + 1 = 1 would leave comb.unpack unable to shrink v > 0
        x, unwrap, wrap = _packing(X, lambda: 0)
        assert x == 4
        for v in (1, 2, 3, 12345, 2 ** 100):
            assert wrap(v)(x) == v

    def test_other_polynomial_images_rejected(self):
        # the bound on k holds only when x maps to X itself
        m = RingMatrix([[RingElem(X, 1, IntPoly((1, 1)))]])
        with pytest.raises(ValueError, match="x to map to X"):
            m @ m
        with pytest.raises(ValueError, match="x to map to X"):
            m.mul_vector(column(m, 1))

    @pytest.mark.parametrize("x_image", X_IMAGES, ids=str)
    def test_result_stays_in_the_ring(self, x_image):
        w = build_w(3, None if x_image == X else x_image.constant_value())
        for e in (w @ w).rows[0] + w.mul_vector(column(w, 1)):
            assert e.x_image == x_image
            assert isinstance(e.c0, IntPoly) and isinstance(e.c1, IntPoly)


class TestPascalRecurrence:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-2 ** 70, 2 ** 70), min_size=1, max_size=9),
           st.one_of(st.integers(-9, 9), st.sampled_from([2 ** 30, 2 ** 67, 3 * 2 ** 40])))
    def test_lower_pascal_is_l_of_t(self, v, t):
        assert _lower_pascal(v, t) == [
            sum(math.comb(i, k) * t ** (i - k) * v[k] for k in range(i + 1))
            for i in range(len(v))]

    @pytest.mark.parametrize("n", range(1, 13))
    def test_rx_is_lower_pascal_times_reversal(self, n):
        # (L(x) J)_ij = L(x)_i,n+1-j, with L(x)_ik = C(i-1, k-1) x^(i-k)
        for x in (-2, 0, 1, 3):
            rows = build_rx(n, x).to_int_matrix().rows
            for j in range(n):
                e_j = [int(k == n - 1 - j) for k in range(n)]
                assert _lower_pascal(e_j, x) == [row[j] for row in rows], (x, j + 1)

    @pytest.mark.parametrize("x", [1, 0, -2, 3, 2, 2 ** 10, -2 ** 10])
    def test_pair_step_pass_is_lower_pascal_at_l(self, x):
        # S(L)_ij = C(i-1, j-1) l^(i-j), l = x - a, column by column on pairs
        l = RingElem(X, -1).specialize(x)
        for n in range(1, 9):
            for j in range(n):
                want = [l ** (i - j) * math.comb(i, j) if i >= j else l * 0 for i in range(n)]
                got = _lower_pascal([(int(k == j), 0) for k in range(n)], _l_step(x))
                assert got == [(e.c0.constant_value(), e.c1.constant_value()) for e in want], (n, j)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 80).flatmap(lambda k: st.tuples(
        st.just(k), st.lists(st.integers(-2 ** (k - 1), 2 ** (k - 1) - 1), min_size=1,
                             max_size=11))))
    def test_value_at_two_to_the_k_inverts_digits(self, case):
        # how the eigen check packs a row and reads a differing one back
        k, values = case
        assert IntPoly(unpack(IntPoly(values)(1 << k), k)) == IntPoly(values)


def det_by_cofactor_expansion(rows):
    """Independent determinant oracle: recursive first-row expansion."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j]:
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            term = rows[0][j] * det_by_cofactor_expansion(minor)
            total += term if j % 2 == 0 else -term
    return total


def det_by_leibniz(rows):
    """Independent determinant oracle: the Leibniz sum over permutations."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = math.prod(rows[i][perm[i]] for i in range(n))
        total += -term if inversions % 2 else term
    return total


#: Square matrices up to 5 x 5 with entries in -3..3: many are singular
#: and many need row swaps.
small_squares = st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                       min_size=n, max_size=n)
)


@st.composite
def unimodular_rows(draw):
    """The identity after random row swaps, negations and row additions."""
    n = draw(st.integers(1, 5))
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 12))):
        op = draw(st.sampled_from(("swap", "negate", "add")))
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if op == "swap":
            rows[i], rows[j] = rows[j], rows[i]
        elif op == "negate":
            rows[i] = [-a for a in rows[i]]
        elif i != j:
            c = draw(st.integers(-3, 3))
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return rows


class TestDetAndInverse:
    def test_det_small(self):
        assert IntMatrix([[5]]).det() == 5
        assert IntMatrix([[1, 2], [3, 4]]).det() == -2
        assert IntMatrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]]).det() == -1
        assert IntMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]]).det() == 0

    def test_det_matches_cofactor_expansion(self):
        rng = random.Random(2718281)
        for _ in range(80):
            n = rng.randint(1, 5)
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            assert IntMatrix(rows).det() == det_by_cofactor_expansion(rows)

    @settings(max_examples=300, deadline=None)
    @given(small_squares)
    def test_det_matches_leibniz(self, rows):
        assert IntMatrix(rows).det() == det_by_leibniz(rows)

    @settings(max_examples=200, deadline=None)
    @given(unimodular_rows())
    def test_inverse_of_random_unimodular(self, rows):
        m = IntMatrix(rows)
        inv = m.inverse_unimodular()
        assert inv @ m == IntMatrix.identity(m.n) == m @ inv

    @pytest.mark.parametrize("n", range(1, 9))
    def test_pascal_matrices_unimodular(self, n):
        assert abs(build_r(n).det()) == 1

    def test_inverse_of_r2(self):
        inv = build_r(2).inverse_unimodular()
        assert inv == IntMatrix([[-1, 1], [1, 0]])
        assert build_r(2) @ inv == IntMatrix.identity(2)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_inverse_roundtrip(self, n):
        r = build_r(n)
        inv = r.inverse_unimodular()
        assert r @ inv == IntMatrix.identity(n)
        assert inv @ r == IntMatrix.identity(n)

    @pytest.mark.parametrize("n", range(1, 17))
    def test_gauss_jordan_inverse_of_r(self, n):
        r = build_r(n)
        inv = r.inverse_unimodular()
        assert inv @ r == IntMatrix.identity(n)
        assert r @ inv == IntMatrix.identity(n)

    def test_inverse_with_row_swaps(self):
        # zero leading pivots force swaps; det = -1 and +1
        for rows in ([[0, 1, 0], [1, 0, 0], [0, 0, 1]], [[0, 1], [-1, 3]],
                     [[0, 0, 1], [0, 1, 4], [1, 5, 2]]):
            m = IntMatrix(rows)
            inv = m.inverse_unimodular()
            assert m @ inv == IntMatrix.identity(m.n) == inv @ m

    def test_non_unimodular_rejected(self):
        with pytest.raises(ValueError):
            IntMatrix([[2, 0], [0, 2]]).inverse_unimodular()
        with pytest.raises(ValueError, match="det = 2"):
            IntMatrix([[1, 1, 0], [0, 1, 1], [1, 0, 1]]).inverse_unimodular()


class TestAccessAndValidation:
    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            IntMatrix([[1, 2], [3]])
        with pytest.raises(ValueError):
            IntMatrix([])


class TestSerialization:
    def test_csv(self):
        assert build_r(3).to_csv() == "0,0,1\n0,1,1\n1,2,1\n"
        assert build_r(1).to_csv() == "1\n"

    def test_int_matrix_json_roundtrip(self):
        r = build_r(4) @ build_r(4)
        obj = json.loads(json.dumps(r.to_json()))
        assert all(isinstance(e, str) for row in obj["entries"] for e in row)
        assert obj["n"] == 4
        assert IntMatrix([[int(e) for e in row] for row in obj["entries"]]) == r


@pytest.mark.parametrize(
    "cached", [build_r, build_rx, a_pow, _inverse_r, _eigen_failures, _read, _rows, _row_table],
    ids=lambda f: f.__name__,
)
def test_caches_are_bounded(cached):
    assert cached.cache_info().maxsize is not None
