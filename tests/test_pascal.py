"""Unit tests for matrix construction and exact dense matrix algebra."""
import itertools
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rjpascal.binomial import _row_table
from rjpascal.pascal import IntMatrix, RingMatrix, build_r, build_rx, build_u, build_w
from rjpascal.ring import A, ONE, IntPoly, RingElem, X, _a_pow_cached, a_pow
from rjpascal.spectral import _eigen_sides, _inverse_r, _specialized, involution_scale

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
        # construction asserts e >= 0 whenever the coefficient is nonzero
        m = build_rx(n)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                entry = m.rows[i - 1][j - 1]
                assert entry.c1.is_zero
                if i + j <= n:
                    assert entry.is_zero

    @pytest.mark.parametrize("n", range(1, 13))
    def test_specialize_at_one_gives_r(self, n):
        assert build_rx(n).specialize(1).to_int_matrix() == build_r(n)


class TestBuildU:
    def test_n1(self):
        assert build_u(1) == RingMatrix([[RingElem(1)]])

    def test_n2_first_column(self):
        col = build_u(2).specialize(1).column(1)
        assert col == (
            RingElem(1, 0, ONE_AT_1),
            RingElem(1, -1, ONE_AT_1),  # 1 - a
        )

    def test_n2_second_column(self):
        # oracle-verified: the second eigenvector is (1, a)
        col = build_u(2).specialize(1).column(2)
        assert col == (
            RingElem(1, 0, ONE_AT_1),
            RingElem(0, 1, ONE_AT_1),
        )

    @pytest.mark.parametrize("x_value", [1.0, 2.0])
    @pytest.mark.parametrize("n", range(1, 8))
    def test_entries_match_numeric_oracle(self, n, x_value):
        u = build_u(n)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                want = u_entry_numeric(n, i, j, x_value)
                got = float(u.rows[i - 1][j - 1].specialize(int(x_value)))
                assert got == pytest.approx(want, abs=1e-9 * (1 + abs(want)))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_entries_match_exact_sum(self, n):
        # the paper's entry over Z[x], term by term with RingElem arithmetic:
        # u(i,j) = sum_k (-1)^(i-k) C(i-1,k-1) C(n-i,j-k) a^(2k-i-1)
        u = build_u(n)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                total = RingElem(0)
                for k in range(1, j + 1):
                    c = math.comb(i - 1, k - 1) * math.comb(n - i, j - k)
                    total = total + a_pow(2 * k - i - 1) * ((-1) ** abs(i - k) * c)
                assert u.rows[i - 1][j - 1] == total


class TestBuildW:
    def test_n1(self):
        assert build_w(1) == RingMatrix([[RingElem(-1)]])

    def test_n2_at_one(self):
        w = build_w(2).specialize(1)
        assert w == RingMatrix(
            [
                [RingElem(0, -1, ONE_AT_1), RingElem(1, 0, ONE_AT_1)],
                [RingElem(1, 0, ONE_AT_1), RingElem(0, 1, ONE_AT_1)],
            ]
        )

    @pytest.mark.parametrize("n", range(1, 9))
    def test_column_scaling_relation(self, n):
        # the paper's explicit entry, symbolically:
        # w(i,j) = (-1)^j a^(n-j) sum_r (-1)^(i-r) C(i-1,r-1) C(n-i,j-r) a^(2r-i-1)
        w = build_w(n)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                total = RingElem(0)
                for r in range(1, j + 1):
                    c = math.comb(i - 1, r - 1) * math.comb(n - i, j - r)
                    total = total + a_pow(2 * r - i - 1) * ((-1) ** abs(i - r) * c)
                assert w.rows[i - 1][j - 1] == a_pow(n - j) * total * (-1) ** j


class TestMatrixAlgebra:
    def test_identity_neutral(self):
        w = build_w(3)
        assert w @ RingMatrix.scalar(3, ONE) == w
        assert RingMatrix.scalar(3, ONE) @ w == w
        r = build_r(3)
        assert r @ IntMatrix.identity(3) == r

    def test_r2_squared(self):
        assert build_r(2) @ build_r(2) == IntMatrix([[1, 1], [1, 2]])

    def test_w2_squared_is_scalar(self):
        w = build_w(2).specialize(1)
        scale = (ONE + A * A).specialize(1)  # 2 + a
        assert w @ w == RingMatrix.scalar(2, scale)

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
        w = build_w(2)
        with pytest.raises(ValueError):
            w @ w.specialize(1)
        with pytest.raises(ValueError):
            w.specialize(1) @ w.specialize(2)
        with pytest.raises(ValueError):
            w.mul_vector(w.specialize(1).column(1))
        with pytest.raises(ValueError):
            w.specialize(1).mul_vector((RingElem(1, 0, ONE_AT_1), A))

    def test_equality_is_type_strict(self):
        ring_r = build_rx(2).specialize(1)
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
    cols = [b.column(j) for j in range(1, b.n + 1)]
    return RingMatrix([[dot_by_definition(row, col) for col in cols] for row in a.rows])


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
    # digit, with k = bitlen(3 n Lp Lq) + 1.  Equal constants 2^100 at
    # n = 4 bring the largest result coefficient to 2^203, within a factor
    # 3/2 of 3 n Lp Lq; all-ones polynomials bring it to 26, against a largest
    # operand coefficient of 1.  So a k below the bound, or one taken from
    # max|coeff| in place of the l1 norm, garbles a digit.
    @pytest.mark.parametrize("n, entry", [
        (4, RingElem(2 ** 100, 2 ** 100)),
        (4, RingElem(-2 ** 100, 2 ** 100)),
        (1, RingElem(IntPoly([1] * 9), IntPoly([1] * 9))),
    ], ids=["constants", "mixed-signs", "all-ones"])
    def test_near_bound_operands(self, n, entry):
        m = RingMatrix([[entry] * n] * n)
        assert m @ m == product_by_definition(m, m)
        v = m.column(1)
        assert m.mul_vector(v) == tuple(dot_by_definition(row, v) for row in m.rows)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_builders_match_definition(self, n):
        w, r, u = build_w(n), build_rx(n), build_u(n)
        assert w @ w == product_by_definition(w, w)
        for p in range(1, n + 1):
            v = u.column(p)
            assert r.mul_vector(v) == tuple(dot_by_definition(row, v) for row in r.rows)

    @settings(max_examples=150, deadline=None)
    @given(operands())
    def test_scale_columns_matches_definition(self, ops):
        a, _, f = ops
        want = RingMatrix([[e * c for e, c in zip(row, f)] for row in a.rows])
        assert a.scale_columns(f) == want

    # Column scaling is the kernel at dot length 1, k = bitlen(3 Lp Lf) + 1.
    # Each entry squared has a coefficient of 2 2^200 = 2^201 (p0 q0 and
    # p1 q1 land on one degree), within a factor 3/2 of 3 Lp Lf = 3 2^200,
    # so a k one bit short (or the factor 3 dropped) reads 2^201 as a digit
    # of the wrong sign.
    @pytest.mark.parametrize("entry", [
        RingElem(2 ** 100, 2 ** 100),
        RingElem(-2 ** 100, 2 ** 100),
        RingElem(IntPoly([0, 0, 2 ** 100]), IntPoly([0, 0, 2 ** 100])),
    ], ids=["constants", "mixed-signs", "monomials"])
    def test_near_bound_scaling(self, entry):
        m = RingMatrix([[entry] * 2] * 2)
        want = entry * entry
        assert m.scale_columns([entry, entry]) == RingMatrix([[want] * 2] * 2)

    def test_symbolic_scaling_multiplies_no_polynomials(self, monkeypatch):
        factors = [-a_pow(8 - j) if j % 2 else a_pow(8 - j) for j in range(1, 9)]
        u, want = build_u(8), build_w(8)

        def refuse(self, other):
            raise AssertionError("IntPoly product inside a Z[x] column scaling")

        monkeypatch.setattr(IntPoly, "__mul__", refuse)
        monkeypatch.setattr(IntPoly, "__rmul__", refuse)
        assert u.scale_columns(factors) == want

    def test_scaling_checks_ring_and_length(self):
        w = build_w(2)
        with pytest.raises(ValueError):
            w.scale_columns([ONE])
        with pytest.raises(ValueError):
            w.scale_columns([ONE, A.specialize(1)])

    def test_symbolic_product_multiplies_no_polynomials(self, monkeypatch):
        w = build_w(8)
        want = RingMatrix.scalar(8, involution_scale(8))

        def refuse(self, other):
            raise AssertionError("IntPoly product inside a Z[x] matrix product")

        monkeypatch.setattr(IntPoly, "__mul__", refuse)
        monkeypatch.setattr(IntPoly, "__rmul__", refuse)
        assert w @ w == want

    def test_other_polynomial_images_rejected(self):
        # the bound on k holds only when x maps to X itself
        m = RingMatrix([[RingElem(X, 1, IntPoly((1, 1)))]])
        with pytest.raises(ValueError, match="x to map to X"):
            m @ m
        with pytest.raises(ValueError, match="x to map to X"):
            m.mul_vector(m.column(1))

    @pytest.mark.parametrize("x_image", X_IMAGES, ids=str)
    def test_result_stays_in_the_ring(self, x_image):
        w = build_w(3) if x_image == X else build_w(3).specialize(x_image.constant_value())
        scaled = w.scale_columns(w.rows[0]).rows[0]
        for e in (w @ w).rows[0] + w.mul_vector(w.column(1)) + scaled:
            assert e.x_image == x_image
            assert isinstance(e.c0, IntPoly) and isinstance(e.c1, IntPoly)


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
    def test_one_based_column(self):
        assert build_rx(2).column(2) == (RingElem(1), RingElem(X))
        with pytest.raises(IndexError):
            build_rx(2).column(3)

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
    "cached", [build_r, build_rx, build_u, build_w, _a_pow_cached, _specialized, _inverse_r,
               _eigen_sides, _row_table],
    ids=lambda f: f.__name__,
)
def test_caches_are_bounded(cached):
    assert cached.cache_info().maxsize is not None
