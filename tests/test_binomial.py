"""Unit tests for generalized binomials and the identity sweep engine."""
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rjpascal import binomial
from rjpascal.binomial import (
    COMPANION_DOMAIN_REASON,
    DEFAULT_BOXES,
    Identity,
    IdentityCase,
    InfiniteSupportError,
    binom,
    sweep_identity,
)


def point_of(line):
    """The one-point line of ``line``: (lhs, rhs) at a single point."""
    def check(*params):
        *outer, last = params
        lhs, rhs = line(*outer, range(last, last + 1))
        return lhs[0], rhs[0]
    return check


def line_of(point):
    """A line that evaluates ``point`` at each value of the last parameter."""
    def line(*params):
        *outer, inner = params
        pairs = [point(*outer, x) for x in inner]
        return [lhs for lhs, _ in pairs], [rhs for _, rhs in pairs]
    return line


check_star = point_of(binomial.star_line)
check_trinomial = point_of(binomial.trinomial_line)
check_trinomial_companion = point_of(binomial.trinomial_companion_line)
check_vandermonde = point_of(binomial.vandermonde_line)
check_alternating_delta = point_of(binomial.alternating_delta_line)
check_double_delta = point_of(binomial.double_delta_line)


class TestBinom:
    def test_matches_stdlib_for_nonnegative(self):
        for n in range(0, 26):
            for k in range(0, 31):
                assert binom(n, k) == math.comb(n, k)

    def test_negative_lower_is_zero(self):
        assert binom(3, -1) == 0
        assert binom(-4, -2) == 0
        assert binom(0, -1) == 0

    def test_negative_upper_falling_factorial(self):
        assert binom(-1, 2) == 1       # (-1)(-2)/2!
        assert binom(-2, 3) == -4      # (-2)(-3)(-4)/3!
        assert binom(-1, 0) == 1
        assert binom(-5, 1) == -5

    def test_simple_values(self):
        assert binom(4, 2) == 6
        assert binom(10, 0) == 1
        assert binom(5, 7) == 0

    def test_pascal_recurrence_everywhere(self):
        for n in range(-20, 21):
            for k in range(-5, 26):
                assert binom(n, k) == binom(n - 1, k - 1) + binom(n - 1, k)

    def test_symmetry_for_nonnegative_upper(self):
        for n in range(0, 31):
            for k in range(-3, n + 4):
                assert binom(n, k) == binom(n, n - k)

    def test_symmetry_trap_regression(self):
        # symmetry must NOT be assumed for negative upper parameters
        assert binom(-1, 2) == 1
        assert binom(-1, -3) == 0
        assert binom(-1, 2) != binom(-1, -3)

    def test_upper_negation(self):
        for n in range(-15, 16):
            for k in range(0, 21):
                assert binom(n, k) == (-1) ** k * binom(k - n - 1, k)


def falling_factorial_binom(n: int, k: int) -> int:
    """n(n-1)...(n-k+1)/k!, zero for k < 0: a reference independent of
    ``binom`` and of ``math.comb``."""
    if k < 0:
        return 0
    return math.prod(n - i for i in range(k)) // math.factorial(k)


class TestBinomReference:
    def test_matches_falling_factorial(self):
        for n in range(-40, 41):
            for k in range(-5, 41):
                assert binom(n, k) == falling_factorial_binom(n, k), (n, k)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(-200, 200), st.integers(-5, 60))
    def test_property_reference_and_recurrence(self, n, k):
        assert binom(n, k) == falling_factorial_binom(n, k)
        assert binom(n, k) == binom(n - 1, k - 1) + binom(n - 1, k)


class TestStar:
    def test_basic(self):
        assert check_star(3, 1, 1) == (2, 2)

    def test_negative_k_empty_sum(self):
        assert check_star(5, 2, -3) == (0, 0)
        assert check_star(-4, 1, -1) == (0, 0)

    def test_all_zero(self):
        assert check_star(0, 0, 0) == (1, 1)


class TestTrinomial:
    def test_basic(self):
        assert check_trinomial(5, 3, 2) == (30, 30)

    def test_vanishing_lower(self):
        assert check_trinomial(7, 2, 5) == (0, 0)

    def test_negative_upper(self):
        assert check_trinomial(-1, 2, 1) == (2, 2)


class TestTrinomialCompanion:
    def test_basic(self):
        assert check_trinomial_companion(5, 3, 2) == (30, 30)

    def test_boundary(self):
        assert check_trinomial_companion(4, 4, 0) == (1, 1)

    def test_vanishing_cases(self):
        assert check_trinomial_companion(4, -1, 0) == (0, 0)
        assert check_trinomial_companion(6, 3, -2) == (0, 0)

    def test_invalid_outside_domain(self):
        # the companion form fails for negative I: symmetry does not apply
        lhs, rhs = check_trinomial_companion(-1, 2, 1)
        assert (lhs, rhs) == (2, 0)
        assert lhs != rhs


class TestVandermonde:
    def test_basic(self):
        assert check_vandermonde(2, 2, 2) == (6, 6)

    def test_negative_l(self):
        assert check_vandermonde(3, 4, -2) == (0, 0)

    def test_degenerate(self):
        assert check_vandermonde(0, 5, 3) == (10, 10)

    def test_both_negative_rejected(self):
        with pytest.raises(InfiniteSupportError):
            check_vandermonde(-1, -1, 2)


class TestAlternatingDelta:
    def test_delta_case(self):
        assert check_alternating_delta(0) == (1, 1)

    def test_one(self):
        assert check_alternating_delta(1) == (0, 0)

    def test_six(self):
        assert check_alternating_delta(6) == (0, 0)

    def test_negative_rejected(self):
        with pytest.raises(InfiniteSupportError):
            check_alternating_delta(-1)


class TestDoubleDelta:
    def test_basic(self):
        # u=0: 3, u=1: -6, u=2: 3
        assert check_double_delta(3, 2) == (0, 0)

    @pytest.mark.parametrize("n", [-5, -1, 0, 3, 12])
    def test_l_zero(self, n):
        assert check_double_delta(n, 0) == (1, 1)

    def test_negative_n(self):
        assert check_double_delta(-2, 3) == (0, 0)


class TestSweep:
    def test_star_small_box(self):
        box = {"N": (-3, 5), "J": (-3, 5), "K": (-3, 5)}
        rep = sweep_identity(Identity.STAR, box)
        assert rep.cases_checked == 9 ** 3
        assert rep.ok
        assert rep.failures == []
        assert rep.skipped == []

    def test_vandermonde_skips_double_negative(self):
        box = {"M": (-2, 2), "N": (-2, 2), "L": (0, 3)}
        rep = sweep_identity(Identity.VANDERMONDE, box)
        assert rep.cases_checked == 5 * 5 * 4
        assert rep.ok
        # both M and N negative: 2 * 2 sign choices times 4 L values
        assert len(rep.skipped) == 16
        assert all("negative" in s.reason for s in rep.skipped)

    def test_companion_skips_negative_i(self):
        box = {"I": (-2, 3), "J": (0, 2), "K": (0, 2)}
        rep = sweep_identity(Identity.TRINOMIAL_COMPANION, box)
        assert rep.cases_checked == 6 * 3 * 3
        assert rep.ok
        assert len(rep.skipped) == 2 * 3 * 3
        assert all(s.params["I"] < 0 for s in rep.skipped)

    def test_alternating_negative_range_rejected(self):
        with pytest.raises(ValueError):
            sweep_identity(Identity.ALTERNATING_DELTA, {"N": (-1, 5)})

    def test_wrong_parameters_rejected(self):
        with pytest.raises(ValueError):
            sweep_identity(Identity.STAR, {"N": (0, 1), "J": (0, 1)})
        with pytest.raises(ValueError):
            sweep_identity(Identity.DOUBLE_DELTA, {"N": (0, 1), "L": (3, 2)})

    def test_default_boxes_match_identities(self):
        for ident, box in DEFAULT_BOXES.items():
            assert set(box) == set(ident.param_names)

    def test_report_records_failures(self):
        # a sweep that bypasses the domain filter must expose disagreements,
        # so force one through the raw check to document the shape
        lhs, rhs = check_trinomial_companion(-1, 2, 1)
        assert lhs != rhs

    def test_failure_recorded_exactly(self, monkeypatch):
        # an off-by-one at a single lattice point must come back as exactly
        # one failure carrying that point's parameters and both sides
        def broken_star(n, j, k):
            lhs, rhs = check_star(n, j, k)
            return (lhs, rhs + 1) if (n, j, k) == (4, -2, 3) else (lhs, rhs)

        monkeypatch.setitem(binomial._LINES, Identity.STAR, line_of(broken_star))
        box = {"N": (-3, 5), "J": (-3, 5), "K": (-3, 5)}
        rep = sweep_identity(Identity.STAR, box)
        lhs, rhs = check_star(4, -2, 3)
        assert rep.cases_checked == 9 ** 3
        assert rep.failures == [
            IdentityCase(Identity.STAR, {"N": 4, "J": -2, "K": 3}, lhs, rhs + 1)
        ]
        assert list(rep.failures[0].params) == ["N", "J", "K"]
        assert rep.skipped == []
        assert not rep.ok

    def test_failures_in_product_order(self, monkeypatch):
        # two mismatches on one line, at its first and last point, and one
        # at the last point of a later line: three failures, in the order of
        # itertools.product, each with that point's own sides
        offsets = {(0, 1, -3): 5, (0, 1, 4): -1, (2, -1, 4): 7}

        def broken_star(n, j, k):
            lhs, rhs = check_star(n, j, k)
            return lhs, rhs + offsets.get((n, j, k), 0)

        monkeypatch.setitem(binomial._LINES, Identity.STAR, line_of(broken_star))
        box = {"N": (-3, 4), "J": (-3, 4), "K": (-3, 4)}
        rep = sweep_identity(Identity.STAR, box)
        expected = []
        for (n, j, k), offset in offsets.items():
            lhs, rhs = check_star(n, j, k)
            params = {"N": n, "J": j, "K": k}
            expected.append(IdentityCase(Identity.STAR, params, lhs, rhs + offset))
        assert rep.failures == expected
        assert rep.cases_checked == 8 ** 3
        assert rep.skipped == []

    @pytest.mark.parametrize("identity", list(Identity), ids=lambda i: i.value)
    def test_one_line_call_per_outer_combination(self, identity, monkeypatch):
        box = {name: (-2, 3) for name in identity.param_names}
        if identity is Identity.ALTERNATING_DELTA:
            box = {"N": (0, 7)}
        line = binomial._LINES[identity]
        calls = []

        def counted(*args):
            calls.append(args)
            return line(*args)

        monkeypatch.setitem(binomial._LINES, identity, counted)
        rep = sweep_identity(identity, box)
        *outer, inner = [range(lo, hi + 1) for lo, hi in box.values()]
        # the companion's I < 0 lines are skipped without a call
        companion = identity is Identity.TRINOMIAL_COMPANION
        assert calls == [(*combo, inner) for combo in itertools.product(*outer)
                         if not (companion and combo[0] < 0)]
        assert rep.ok
        assert rep.cases_checked == math.prod(map(len, (*outer, inner)))

    def test_skipped_records_order_and_params(self):
        rep = sweep_identity(
            Identity.TRINOMIAL_COMPANION, {"I": (-2, 1), "J": (0, 1), "K": (5, 6)}
        )
        assert [s.to_json() for s in rep.skipped] == [
            {"params": {"I": i, "J": j, "K": k}, "reason": COMPANION_DOMAIN_REASON}
            for i in (-2, -1) for j in (0, 1) for k in (5, 6)
        ]
        rep = sweep_identity(Identity.VANDERMONDE, {"M": (-2, 0), "N": (-1, 0), "L": (0, 1)})
        assert [s.to_json() for s in rep.skipped] == [
            {
                "params": {"M": m, "N": -1, "L": l},
                "reason": "convolution with both upper parameters negative "
                f"(M={m}, N=-1) is rejected",
            }
            for m in (-2, -1) for l in (0, 1)
        ]


def reference_star(n, j, k):
    terms = [binom(n - r, k - r) * binom(j, r) for r in range(0, k + 1)]
    return binom(n - j, k), sum(terms[0::2]) - sum(terms[1::2])


def reference_vandermonde(m, n, l):
    if m < 0 and n < 0:
        raise InfiniteSupportError(
            f"convolution with both upper parameters negative (M={m}, N={n}) is rejected"
        )
    return sum(binom(m, k) * binom(n, l - k) for k in range(0, l + 1)), binom(m + n, l)


def reference_double_delta(n, l):
    terms = [binom(n, l - u) * binom(n - l + u, u) for u in range(0, l + 1)]
    return sum(terms[0::2]) - sum(terms[1::2]), 1 if l == 0 else 0


def reference_alternating_delta(n):
    terms = [binom(n, r) for r in range(0, n + 1)]
    return sum(terms[0::2]) - sum(terms[1::2]), 1 if n == 0 else 0


def reference_trinomial(i, j, k):
    return binom(i, j) * binom(j, k), binom(i, k) * binom(i - k, j - k)


def reference_trinomial_companion(i, j, k):
    return binom(i, j) * binom(j, k), binom(i, k) * binom(i - k, i - j)


LINE_REFERENCES = {
    Identity.STAR: reference_star,
    Identity.TRINOMIAL: reference_trinomial,
    Identity.TRINOMIAL_COMPANION: reference_trinomial_companion,
    Identity.VANDERMONDE: reference_vandermonde,
    Identity.ALTERNATING_DELTA: reference_alternating_delta,
    Identity.DOUBLE_DELTA: reference_double_delta,
}


REFERENCES = [
    (check_star, reference_star, 3),
    (check_vandermonde, reference_vandermonde, 3),
    (check_double_delta, reference_double_delta, 2),
]


def evaluate(check, point):
    try:
        return check(*point)
    except InfiniteSupportError:
        return "skipped"


class TestRowTables:
    """The checks read cached rows; each must equal the sum
    written out term by term with one ``binom`` per factor."""

    @pytest.mark.parametrize("check,reference,arity", REFERENCES,
                             ids=["star", "vandermonde", "double-delta"])
    def test_every_point_of_a_negative_box(self, check, reference, arity):
        binomial._row_table.cache_clear()
        points = itertools.product(range(-15, 28), repeat=arity)
        bad = [p for p in points if evaluate(check, p) != evaluate(reference, p)]
        assert bad == []

    @pytest.mark.parametrize("identity", list(Identity), ids=lambda i: i.value)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_property_lines_match_point_references(self, identity, data):
        # random outer parameters, negative ones included (the companion's
        # I < 0 and Vandermonde's double-negative skips), and a last range
        # that straddles 0 (a fresh N >= 0 range for the alternating sum)
        outer = data.draw(st.tuples(*[st.integers(-15, 15)] * (len(identity.param_names) - 1)))
        lo = data.draw(st.integers(0 if identity is Identity.ALTERNATING_DELTA else -10, 2))
        inner = range(lo, data.draw(st.integers(lo, 20)) + 1)
        if data.draw(st.booleans()):
            binomial._row_table.cache_clear()
        line = binomial._LINES[identity]
        reference = line_of(LINE_REFERENCES[identity])
        assert evaluate(line, (*outer, inner)) == evaluate(reference, (*outer, inner))

    def test_alternating_rows(self):
        for n in range(0, 45):
            assert check_alternating_delta(n) == reference_alternating_delta(n)

    def test_tables_grow_on_demand(self):
        binomial._row_table.cache_clear()
        assert binomial._row(-3, 2) == [1, -3]
        assert binomial._row(-3, 4) == [binom(-3, i) for i in range(4)]
        assert binomial._row(-3, 1) == [binom(-3, i) for i in range(4)]

    def test_rows_match_binom(self):
        # the ratio recurrence against one binom per entry
        binomial._row_table.cache_clear()
        for n in range(-40, 41):
            assert [binomial._row(n, i + 1)[i] for i in range(60)] == [binom(n, i) for i in range(60)]
        for n in (10 ** 6, -10 ** 6):
            assert [binomial._row(n, i + 1)[i] for i in range(40)] == [binom(n, i) for i in range(40)]

    def test_star_point_computes_one_binom(self, monkeypatch):
        # K = 8,000 terms of about 16,000 bits: only the left side is a binom
        binomial._row_table.cache_clear()
        calls = []

        def counted(n, k):
            calls.append((n, k))
            return binom(n, k)

        monkeypatch.setattr(binomial, "binom", counted)
        lhs, rhs = check_star(8000, -4000, 4000)
        assert lhs == rhs == math.comb(12000, 4000)
        assert calls == [(12000, 4000)]

    def test_no_eviction_below_the_bound(self):
        # rows N and L-N-1 cover -1021..1020: 2,042 distinct rows, just under
        # ROW_CACHE_SIZE, from a box of 2,042 points
        box = {"N": (0, 1020), "L": (0, 1)}
        rows = {r for n in range(0, 1021) for l in (0, 1) for r in (n, l - n - 1)}
        assert binomial.ROW_CACHE_SIZE - 8 < len(rows) < binomial.ROW_CACHE_SIZE
        binomial._row_table.cache_clear()
        assert sweep_identity(Identity.DOUBLE_DELTA, box).ok
        info = binomial._row_table.cache_info()
        assert info.misses == info.currsize == len(rows)

    @pytest.mark.parametrize("identity,box", [
        # 2,201 rows, one per J
        (Identity.STAR, {"N": (-1, 1), "J": (-1100, 1100), "K": (-1, 3)}),
        # 2,204 rows, one per K - N - 1 for K >= 0 (the diagonals of N - K)
        (Identity.STAR, {"N": (-1100, 1100), "J": (-1, 1), "K": (-1, 3)}),
        # 2,201 rows, one per M, beside the rows of N
        (Identity.VANDERMONDE, {"M": (-1100, 1100), "N": (-1, 1), "L": (-1, 3)}),
    ], ids=["star-rows", "star-diagonals", "vandermonde-rows"])
    def test_sweep_past_the_cache_bound(self, identity, box, monkeypatch):
        # one long range makes the distinct upper parameters outnumber the
        # cache while the box stays small
        binomial._row_table.cache_clear()
        rep = sweep_identity(identity, box)
        info = binomial._row_table.cache_info()
        assert info.misses > binomial.ROW_CACHE_SIZE
        assert info.currsize <= binomial.ROW_CACHE_SIZE
        reference = {Identity.STAR: reference_star, Identity.VANDERMONDE: reference_vandermonde}
        monkeypatch.setitem(binomial._LINES, identity, line_of(reference[identity]))
        assert rep.to_json() == sweep_identity(identity, box).to_json()
        monkeypatch.undo()
        # every point once more, now in a different order, against the reference
        check = point_of(binomial._LINES[identity])
        points = itertools.product(*(range(box[p][1], box[p][0] - 1, -1)
                                     for p in identity.param_names))
        assert [p for p in points if evaluate(check, p) != evaluate(reference[identity], p)] == []


class TestSweepBudget:
    """Boxes whose sweep_terms exceed SWEEP_TERM_BUDGET are refused."""

    @staticmethod
    def counted_terms(identity, box):
        """sweep_terms by enumeration: the summands at each point plus one."""
        param = {Identity.STAR: "K", Identity.VANDERMONDE: "L",
                 Identity.ALTERNATING_DELTA: "N", Identity.DOUBLE_DELTA: "L"}.get(identity)
        total = 0
        for combo in itertools.product(*(range(lo, hi + 1) for lo, hi in box.values())):
            point = dict(zip(box, combo))
            total += 2 if param is None else max(point[param] + 1, 0) + 1
        return total

    @pytest.mark.parametrize("identity", list(Identity), ids=lambda i: i.value)
    @pytest.mark.parametrize("span", [(-5, -1), (-3, 4), (2, 6), (0, 0), (-1, -1)])
    def test_closed_form_matches_a_count(self, identity, span):
        box = {name: (-2, 1) for name in identity.param_names}
        box[identity.param_names[-1]] = span
        if identity is Identity.ALTERNATING_DELTA:
            box = {"N": (max(span[0], 0), max(span[1], 0))}
        assert binomial.sweep_terms(identity, box) == self.counted_terms(identity, box)

    def test_default_and_benchmark_boxes_far_inside(self):
        wide = {Identity.STAR: "NJK", Identity.VANDERMONDE: "MNL"}
        boxes = [(ident, box) for ident, box in DEFAULT_BOXES.items()]
        boxes += [(ident, {p: (-12, 24) for p in names}) for ident, names in wide.items()]
        for ident, box in boxes:
            assert 100 * binomial.sweep_terms(ident, box) <= binomial.SWEEP_TERM_BUDGET

    def test_the_limit_passes_and_one_more_is_refused(self, monkeypatch):
        box = {"N": (-3, 4), "J": (-2, 2), "K": (-1, 5)}
        terms = binomial.sweep_terms(Identity.STAR, box)
        monkeypatch.setattr(binomial, "SWEEP_TERM_BUDGET", terms)
        assert sweep_identity(Identity.STAR, box).ok
        monkeypatch.setattr(binomial, "SWEEP_TERM_BUDGET", terms - 1)
        with pytest.raises(ValueError, match="SWEEP_TERM_BUDGET"):
            sweep_identity(Identity.STAR, box)
