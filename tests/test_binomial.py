"""Unit tests for generalized binomials and the identity sweep engine."""
import itertools
import math
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rjpascal import binomial
from rjpascal.binomial import (
    COMPANION_DOMAIN_REASON,
    DEFAULT_BOXES,
    Identity,
    IdentityCase,
    InfiniteSupportError,
    SkippedCase,
    binom,
    sweep_identity,
)
from rjpascal.comb import unpack


def point_of(line):
    """The one-point line of ``line``: (lhs, rhs) at a single point."""
    def check(*params):
        *outer, last = params
        lhs, rhs = line(*outer, range(last, last + 1))
        return lhs[0], rhs[0]
    return check


def plane_point(identity):
    """(lhs, rhs) of star or Vandermonde at one point, from its packed plane:
    with one value per parameter each packed int is the value itself.  A
    point outside the checked domain raises InfiniteSupportError, as the
    references do."""
    def check(*point):
        ranges = [range(v, v + 1) for v in point]
        skipped = skipped_points(identity, ranges)
        if skipped:
            raise InfiniteSupportError(skipped[0].reason)
        planes = binomial._Planes(identity, ranges)
        [(lhs, rhs)] = planes(point[0], planes.blocks[0])
        return lhs, rhs
    return check


def skipped_points(identity, ranges):
    """The points of the box ``ranges`` that a sweep skips."""
    return binomial.SkippedPoints(identity, binomial._skipped_box(identity, ranges))


check_star = plane_point(Identity.STAR)
check_trinomial = point_of(binomial.trinomial_line)
check_trinomial_companion = point_of(binomial.trinomial_companion_line)
check_vandermonde = plane_point(Identity.VANDERMONDE)
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

    def test_both_negative_rejected(self, monkeypatch):
        # outside the checked domain: skipped with its reason, and no plane
        # computes it
        monkeypatch.setattr(binomial._Planes, "__call__", None)
        rep = sweep_identity(Identity.VANDERMONDE, {"M": (-1, -1), "N": (-1, -1), "L": (2, 2)})
        assert (rep.cases_checked, rep.failures) == (1, [])
        assert list(rep.skipped) == [SkippedCase({"M": -1, "N": -1, "L": 2}, vandermonde_reason(-1, -1))]


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

    @pytest.mark.parametrize("identity,box", [
        (Identity.VANDERMONDE, {"M": (30, 32), "N": (-32, -30), "L": (0, 8)}),
        (Identity.STAR, {"N": (-32, -30), "J": (-32, -30), "K": (0, 8)}),
    ], ids=["vandermonde", "star"])
    def test_wide_factors_cancel_to_small_sums(self, identity, box):
        # factors of up to 26 bits cancel to closed sides of a few bits,
        # C(M+N, L) and C(N-J, K) with M + N and N - J in -2..2: the packing
        # width comes from the factors, not from the closed side
        rep = sweep_identity(identity, box)
        assert rep.ok and rep.cases_checked == 81
        assert sweep_values(identity, box) == reference_values(identity, box)

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

    def test_companion_walks_no_skipped_line(self, monkeypatch):
        # the box spans J, so an I < 0 skips its lines whole: only the lines
        # outside it are run
        lines = []
        line = binomial._LINES[Identity.TRINOMIAL_COMPANION]

        def run(i, j, ks):
            lines.append((i, j))
            return line(i, j, ks)

        monkeypatch.setitem(binomial._LINES, Identity.TRINOMIAL_COMPANION, run)
        rep = sweep_identity(Identity.TRINOMIAL_COMPANION,
                             {"I": (-50, 3), "J": (-100, -1), "K": (0, 2)})
        assert rep.ok and len(rep.skipped) == 50 * 100 * 3
        assert lines == [(i, j) for i in range(4) for j in range(-100, 0)]

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
        move_closed(monkeypatch, Identity.STAR, {(4, -2, 3): 1})
        box = {"N": (-3, 5), "J": (-3, 5), "K": (-3, 5)}
        rep = sweep_identity(Identity.STAR, box)
        lhs, rhs = reference_star(4, -2, 3)
        assert rep.cases_checked == 9 ** 3
        assert rep.failures == [
            IdentityCase(Identity.STAR, {"N": 4, "J": -2, "K": 3}, lhs + 1, rhs)
        ]
        assert list(rep.failures[0].params) == ["N", "J", "K"]
        assert rep.skipped == []
        assert not rep.ok

    @pytest.mark.parametrize("identity,point", [
        (Identity.STAR, (2, -3, 3)),  # the first middle value, J = -3
        (Identity.STAR, (2, 4, 3)),  # the last middle value, J = 4
        (Identity.STAR, (1, 0, -2)),  # an empty sum, K < 0
        (Identity.STAR, (-3, 1, 4)),  # the first plane, before any slide
        (Identity.VANDERMONDE, (2, -3, 3)),  # the first middle value, N = -3
        (Identity.VANDERMONDE, (2, 4, 3)),  # the last middle value, N = 4
        (Identity.VANDERMONDE, (1, 0, -1)),  # an empty sum, L < 0
        (Identity.VANDERMONDE, (-2, 0, 2)),  # the first N >= 0 digit of an M < 0 plane
        (Identity.VANDERMONDE, (0, -1, 2)),  # the first plane of the N < 0 block
    ], ids=["star-first-J", "star-last-J", "star-K<0", "star-first-plane",
            "vandermonde-first-N", "vandermonde-last-N", "vandermonde-L<0",
            "vandermonde-M<0-N=0", "vandermonde-first-N<0-plane"])
    def test_one_moved_closed_value(self, identity, point, monkeypatch):
        # one closed value off by one, wherever it sits in its packed int,
        # comes back as exactly one failure with that point's own sides
        move_closed(monkeypatch, identity, {point: 1})
        box = dict(zip(identity.param_names, [(-3, 4)] * 3))
        rep = sweep_identity(identity, box)
        lhs, rhs = LINE_REFERENCES[identity](*point)
        lhs, rhs = (lhs + 1, rhs) if identity is Identity.STAR else (lhs, rhs + 1)
        params = dict(zip(identity.param_names, point))
        assert rep.failures == [IdentityCase(identity, params, lhs, rhs)]
        assert rep.skipped == per_point_skipped(identity, box)

    @pytest.mark.parametrize("identity", [Identity.STAR, Identity.VANDERMONDE],
                             ids=lambda i: i.value)
    @pytest.mark.parametrize("middle", [-2, 0, 3])
    def test_one_middle_value(self, identity, middle, monkeypatch):
        # a middle range of one value is a block of one digit at the lemma's
        # width: its ints are the per-point sides, over a last range that
        # dips below 0, and a moved closed value comes back at its point
        box = dict(zip(identity.param_names, [(-3, 4), (middle, middle), (-2, 5)]))
        rep = sweep_identity(identity, box)
        assert (rep.cases_checked, rep.failures, rep.skipped) == reference_report(identity, box)
        assert sweep_values(identity, box) == reference_values(identity, box)
        point = (2, middle, 3)
        move_closed(monkeypatch, identity, {point: 1})
        lhs, rhs = LINE_REFERENCES[identity](*point)
        lhs, rhs = (lhs + 1, rhs) if identity is Identity.STAR else (lhs, rhs + 1)
        assert sweep_identity(identity, box).failures == [
            IdentityCase(identity, dict(zip(identity.param_names, point)), lhs, rhs)]

    def test_failures_in_product_order(self, monkeypatch):
        # mismatches at both ends of a packed int, at two middle values of
        # one plane (star packs J from the top down; Vandermonde's plane at
        # M = 1 holds an N < 0 and an N >= 0 block) and in a later plane:
        # each comes back once, in the order of itertools.product, with that
        # point's own sides; also with blocks of 3 middle values, which put
        # the mismatches of one plane in different blocks
        offsets = {(0, 1, -3): 5, (0, 1, 4): -1, (1, -1, 4): 3, (1, 2, -3): -2, (2, -1, 4): 7}
        for identity, block in itertools.product((Identity.STAR, Identity.VANDERMONDE), (None, 3)):
            box = dict(zip(identity.param_names, [(-3, 4)] * 3))
            with monkeypatch.context() as patch:
                if block:
                    patch.setattr(binomial, "ROW_CACHE_SIZE", block)
                move_closed(patch, identity, dict(reversed(offsets.items())))
                rep = sweep_identity(identity, box)
            expected = []
            for point, offset in offsets.items():
                lhs, rhs = LINE_REFERENCES[identity](*point)
                lhs, rhs = (lhs + offset, rhs) if identity is Identity.STAR else (lhs, rhs + offset)
                expected.append(IdentityCase(identity, dict(zip(identity.param_names, point)), lhs, rhs))
            assert rep.failures == expected
            assert rep.cases_checked == 8 ** 3

    @pytest.mark.parametrize("identity", list(Identity), ids=lambda i: i.value)
    def test_one_line_call_per_outer_combination(self, identity, monkeypatch):
        # star and Vandermonde: one plane call per block of middle values
        # and value of the first parameter; the others: one line call per
        # combination of the outer parameters
        box = {name: (-2, 3) for name in identity.param_names}
        if identity is Identity.ALTERNATING_DELTA:
            box = {"N": (0, 7)}
        *outer, inner = [range(lo, hi + 1) for lo, hi in box.values()]
        calls = []
        if identity in binomial._LINES:
            line = binomial._LINES[identity]

            def counted(*args):
                calls.append(args)
                return line(*args)

            monkeypatch.setitem(binomial._LINES, identity, counted)
            # the companion's I < 0 lines are skipped without a call
            companion = identity is Identity.TRINOMIAL_COMPANION
            expected = [(*combo, inner) for combo in itertools.product(*outer)
                        if not (companion and combo[0] < 0)]
        else:
            plane = binomial._Planes.__call__

            def counted(self, x, block):
                calls.append((x, block))
                return plane(self, x, block)

            monkeypatch.setattr(binomial._Planes, "__call__", counted)
            if identity is Identity.STAR:  # one block, J from the top down
                expected = [(n, range(3, -3, -1)) for n in range(-2, 4)]
            else:  # split at N = 0; the N < 0 block is skipped for M < 0
                expected = [(m, block) for block in (range(-2, 0), range(0, 4))
                            for m in range(-2, 4) if m >= 0 or block.start >= 0]
        rep = sweep_identity(identity, box)
        assert calls == expected
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


def vandermonde_reason(m, n):
    return f"convolution with both upper parameters negative (M={m}, N={n}) is rejected"


def move_closed(monkeypatch, identity, offsets):
    """Move the closed side at each point of ``offsets`` (first, middle,
    last) by its offset, inside the packed int that a plane returns: star's
    lhs, Vandermonde's rhs."""
    side = 0 if identity is Identity.STAR else 1
    plane = binomial._Planes.__call__

    def moved(self, x, block):
        sides = plane(self, x, block)
        for (first, middle, last), offset in offsets.items():
            if first == x and middle in block:
                i = self.lasts.index(last)
                pair = list(sides[i])
                pair[side] += offset << self.width * block.index(middle)
                sides[i] = tuple(pair)
        return sides

    monkeypatch.setattr(binomial._Planes, "__call__", moved)


def per_point_skipped(identity, box):
    """The skipped points of a sweep, one SkippedCase per point, as sweeps
    recorded them before they kept a box."""
    names = identity.param_names
    points = itertools.product(*(range(lo, hi + 1) for lo, hi in box.values()))
    cases = []
    for point in points:
        params = dict(zip(names, point))
        if identity is Identity.TRINOMIAL_COMPANION and params["I"] < 0:
            cases.append(SkippedCase(params, COMPANION_DOMAIN_REASON))
        elif identity is Identity.VANDERMONDE and params["M"] < 0 and params["N"] < 0:
            cases.append(SkippedCase(params, vandermonde_reason(params["M"], params["N"])))
    return cases


class TestSkippedPoints:
    """A report's skipped points are kept as a box and read as the list of
    per-point SkippedCase values."""

    BOXES = [
        (Identity.VANDERMONDE, {"M": (-3, 1), "N": (-2, 2), "L": (-1, 3)}),
        (Identity.VANDERMONDE, {"M": (-3, -1), "N": (-2, -1), "L": (0, 0)}),
        (Identity.TRINOMIAL_COMPANION, {"I": (-2, 2), "J": (-1, 1), "K": (0, 3)}),
        (Identity.STAR, {"N": (-2, 2), "J": (-2, 2), "K": (-2, 2)}),
    ]
    IDS = ["vandermonde-some", "vandermonde-all", "companion", "star-none"]

    @pytest.mark.parametrize("identity,box", BOXES, ids=IDS)
    def test_reads_as_the_per_point_list(self, identity, box):
        skipped = sweep_identity(identity, box).skipped
        want = per_point_skipped(identity, box)
        assert len(skipped) == len(want)
        assert bool(skipped) == bool(want)
        assert list(skipped) == want
        assert [skipped[i] for i in range(len(want))] == want
        assert [skipped[i] for i in range(-len(want), 0)] == want
        assert skipped[1::3] == want[1::3]
        assert skipped[::-1] == want[::-1]
        assert skipped == want
        assert want == skipped
        for i in (len(want), -len(want) - 1):
            with pytest.raises(IndexError):
                skipped[i]

    def test_unequal_lists(self):
        box = {"M": (-2, -1), "N": (-1, 0), "L": (0, 1)}
        skipped = sweep_identity(Identity.VANDERMONDE, box).skipped
        want = per_point_skipped(Identity.VANDERMONDE, box)
        assert skipped != want[:-1]
        assert skipped != [*want, want[0]]
        assert skipped != [*want[:-1], SkippedCase(want[-1].params, "other")]
        assert skipped != tuple(want)  # a list, like the list it stands for
        assert skipped != [case.to_json() for case in want]  # SkippedCase values, not dicts

    def test_memory_is_per_line(self):
        # 111,600 skipped points on 3,600 lines: per point they peaked at
        # 29 MB, per line they take under 1 MB
        box = {"M": (-60, -1), "N": (-60, -1), "L": (0, 30)}
        sweep_identity(Identity.VANDERMONDE, {"M": (0, 0), "N": (0, 0), "L": (0, 0)})
        tracemalloc.start()
        try:
            rep = sweep_identity(Identity.VANDERMONDE, box)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rep.skipped) == 60 * 60 * 31
        assert peak < 2 * 10 ** 6

    def test_memory_does_not_grow_with_skipped_points(self):
        # 990,000 skipped points on 90,000 lines: at one record per line they
        # peaked at 22.1 MB; the box they form takes a few KB
        box = {"M": (-300, -1), "N": (-300, -1), "L": (0, 10)}
        sweep_identity(Identity.VANDERMONDE, {"M": (0, 0), "N": (0, 0), "L": (0, 0)})
        tracemalloc.start()
        try:
            rep = sweep_identity(Identity.VANDERMONDE, box)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rep.skipped) == 300 * 300 * 11
        assert peak < 10 ** 6
        # 10^6 skipped lines, inside SWEEP_TERM_BUDGET
        rep = sweep_identity(Identity.VANDERMONDE, {"M": (-1000, -1), "N": (-1000, -1), "L": (0, 10)})
        assert len(rep.skipped) == 11_000_000
        assert rep.skipped[-1] == SkippedCase({"M": -1, "N": -1, "L": 10}, vandermonde_reason(-1, -1))


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


def evaluate(check, point):
    try:
        return check(*point)
    except InfiniteSupportError:
        return "skipped"


def sweep_values(identity, box):
    """(lhs, rhs) at the points of ``box``, keyed by the point: star and
    Vandermonde from their packed planes, each int unpacked digit by digit,
    at every point outside the domain skip; the others from their lines,
    which evaluate every point."""
    ranges = [range(lo, hi + 1) for lo, hi in box.values()]
    values = {}
    if identity in binomial._LINES:
        *outer_ranges, inner = ranges
        for outer in itertools.product(*outer_ranges):
            lhs, rhs = binomial._LINES[identity](*outer, inner)
            values.update({(*outer, x): pair for x, pair in zip(inner, zip(lhs, rhs))})
        return values
    planes = binomial._Planes(identity, ranges)
    skipped = skipped_points(identity, ranges)
    for block in planes.blocks:
        for x in ranges[0]:
            if not skipped.covers((x, block[0])):
                for s, (lhs, rhs) in zip(ranges[2], planes(x, block)):
                    sides = [unpack(v, planes.width) for v in (lhs, rhs)]
                    digits = itertools.zip_longest(block, *sides, fillvalue=0)
                    values.update({(x, m, s): (l, r) for m, l, r in digits})
    return values


def reference_values(identity, box):
    """(lhs, rhs) from the term-by-term reference at every point of ``box``
    inside the identity's domain."""
    points = itertools.product(*(range(lo, hi + 1) for lo, hi in box.values()))
    values = {p: evaluate(LINE_REFERENCES[identity], p) for p in points}
    return {p: v for p, v in values.items() if v != "skipped"}


def reference_report(identity, box):
    """The report a point-by-point sweep of the references gives."""
    names = identity.param_names
    failures, skipped = [], []
    for point in itertools.product(*(range(lo, hi + 1) for lo, hi in box.values())):
        params = dict(zip(names, point))
        try:
            lhs, rhs = LINE_REFERENCES[identity](*point)
        except InfiniteSupportError as exc:
            skipped.append(SkippedCase(params, str(exc)))
            continue
        if lhs != rhs:
            failures.append(IdentityCase(identity, params, lhs, rhs))
    volume = math.prod(hi - lo + 1 for lo, hi in box.values())
    return volume, failures, skipped


def packed_factors(identity, box):
    """Every column entry, row entry and closed value that a packed sweep
    of ``box`` multiplies or packs, written out with ``binom``:
    star's C(J, r), C(K-N-1, i) and C(N-J, K); Vandermonde's C(N, i),
    C(M, i) and C(M+N, L), for 0 <= r <= max K and 0 <= i <= K (or L)."""
    (x0, x1), (m0, m1), (s0, s1) = box.values()
    xs, ms, ss = range(x0, x1 + 1), range(m0, m1 + 1), range(s0, s1 + 1)
    star = identity is Identity.STAR
    skipped = skipped_points(identity, [xs, ms, ss])
    cols = [binom(m, i) for m in ms for i in range(s1 + 1)]
    rows = [binom(s - x - 1 if star else x, i) for x in xs for s in ss for i in range(s + 1)]
    closed = [binom(x - m if star else x + m, s) for x in xs for m in ms for s in ss
              if not skipped.covers((x, m))]
    return cols, rows, closed


def bits(values):
    return max([abs(v).bit_length() for v in values], default=0)


class TestRowTables:
    """The checks read cached rows; each must equal the sum
    written out term by term with one ``binom`` per factor."""

    @pytest.mark.parametrize("identity", [Identity.STAR, Identity.VANDERMONDE, Identity.DOUBLE_DELTA],
                             ids=["star", "vandermonde", "double-delta"])
    def test_every_point_of_a_negative_box(self, identity):
        binomial._row_table.cache_clear()
        box = {name: (-15, 27) for name in identity.param_names}
        assert sweep_values(identity, box) == reference_values(identity, box)

    @pytest.mark.parametrize("identity", list(Identity), ids=lambda i: i.value)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_property_lines_match_point_references(self, identity, data):
        # random outer parameters, negative ones included (the companion's
        # I < 0 and Vandermonde's double-negative skips), and a last range
        # that straddles 0 (a fresh N >= 0 range for the alternating sum)
        outer = data.draw(st.tuples(*[st.integers(-15, 15)] * (len(identity.param_names) - 1)))
        lo = data.draw(st.integers(0 if identity is Identity.ALTERNATING_DELTA else -10, 2))
        box = {**{name: (v, v) for name, v in zip(identity.param_names, outer)},
               identity.param_names[-1]: (lo, data.draw(st.integers(lo, 20)))}
        if data.draw(st.booleans()):
            binomial._row_table.cache_clear()
        assert sweep_values(identity, box) == reference_values(identity, box)

    @pytest.mark.parametrize("identity", [Identity.STAR, Identity.VANDERMONDE],
                             ids=lambda i: i.value)
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    @example(data=None)
    def test_property_packed_sweeps_match_references(self, identity, data):
        # random boxes: negative uppers, last ranges that start above 0,
        # middle ranges of one value and ranges that straddle 0
        if data is None:  # one of each, in one box
            box = dict(zip(identity.param_names, [(-4, -1), (0, 0), (3, 9)]))
        else:
            def span():
                lo = data.draw(st.integers(-12, 12))
                return lo, lo + data.draw(st.sampled_from([0, 1, 3, 8, 14]))
            box = {name: span() for name in identity.param_names}
        volume, failures, skipped = reference_report(identity, box)
        # blocks of ROW_CACHE_SIZE middle values, or of fewer to split boxes
        # this small into several
        block = data.draw(st.sampled_from([binomial.ROW_CACHE_SIZE, 1, 2, 5])) if data else 2
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(binomial, "ROW_CACHE_SIZE", block)
            rep = sweep_identity(identity, box)
            assert (rep.cases_checked, rep.failures, rep.skipped) == (volume, failures, skipped)
            assert sweep_values(identity, box) == reference_values(identity, box)
        # the width lemma, on the factors written out with binom
        planes = binomial._Planes(identity, [range(lo, hi + 1) for lo, hi in box.values()])
        cols, rows, closed = packed_factors(identity, box)
        assert bits(cols) <= planes.bits_col
        assert bits(rows) <= planes.bits_row
        assert bits(closed) <= planes.bits_closed
        terms = max(box[identity.param_names[-1]][1] + 1, 0)
        assert terms << planes.bits_col + planes.bits_row < 1 << planes.width - 2
        assert 1 << planes.bits_closed <= 1 << planes.width - 2

    def test_an_oversize_row_entry_raises(self, monkeypatch):
        # Row K-N-1 = -3 with its entries moved by whole packed columns,
        # C(-3, 0) - col_0 and C(-3, 1) + col_1, leaves the packed sum
        # unchanged while the sum at each J is wrong: only the check of each
        # row read against its bit bound can see it.
        box = {"N": (3, 3), "J": (0, 1), "K": (1, 1)}
        planes = binomial._Planes(Identity.STAR, [range(lo, hi + 1) for lo, hi in box.values()])
        [block] = planes.blocks
        col0, col1 = (sum(binom(j, i) << planes.width * q for q, j in enumerate(block))
                      for i in (0, 1))
        true = [binom(-3, 0), binom(-3, 1)]
        wrong = [true[0] - col0, true[1] + col1]
        assert col0 * wrong[1] + col1 * wrong[0] == col0 * true[1] + col1 * true[0]
        row = binomial._row
        monkeypatch.setattr(binomial, "_row", lambda n, length: wrong if n == -3 else row(n, length))
        with pytest.raises(OverflowError):
            sweep_identity(Identity.STAR, box)

    def test_an_oversize_column_or_closed_value_raises(self, monkeypatch):
        box = {"N": (3, 3), "J": (0, 1), "K": (1, 1)}
        row = binomial._row
        monkeypatch.setattr(binomial, "_row", lambda n, length: [v << 64 for v in row(n, length)]
                            if n == 1 else row(n, length))
        with pytest.raises(OverflowError):
            sweep_identity(Identity.STAR, box)
        monkeypatch.undo()
        monkeypatch.setattr(binomial, "binom", lambda n, k: math.comb(n, k) << 64 if n >= 0 else 0)
        with pytest.raises(OverflowError):
            sweep_identity(Identity.STAR, box)

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
    def test_sweep_past_the_cache_bound(self, identity, box):
        # one long range makes the distinct upper parameters outnumber the
        # cache while the box stays small
        binomial._row_table.cache_clear()
        rep = sweep_identity(identity, box)
        info = binomial._row_table.cache_info()
        assert info.misses > binomial.ROW_CACHE_SIZE
        assert info.currsize <= binomial.ROW_CACHE_SIZE
        assert (rep.cases_checked, rep.failures, rep.skipped) == reference_report(identity, box)
        assert sweep_values(identity, box) == reference_values(identity, box)
        # every point once more, now in a different order, against the reference
        check = plane_point(identity)
        reference = LINE_REFERENCES[identity]
        points = itertools.product(*(range(box[p][1], box[p][0] - 1, -1)
                                     for p in identity.param_names))
        assert [p for p in points if evaluate(check, p) != evaluate(reference, p)] == []

    def test_wide_middle_range_keeps_one_block(self):
        # J = -10239..0 is five blocks of ROW_CACHE_SIZE values; only the
        # block being swept keeps its columns, so the peak stays near that
        # of one block (all five would add about 2 MB)
        peaks = []
        for j in ((-2047, 0), (-10239, 0)):
            binomial._row_table.cache_clear()
            tracemalloc.start()
            try:
                assert sweep_identity(Identity.STAR, {"N": (0, 0), "J": j, "K": (12, 12)}).ok
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0]

    def test_a_block_is_bounded_in_bytes(self):
        # Row K-N-1 = -1001 needs 1,995 bits and the columns 110, so B is
        # 19 times a column entry: one block of all 16 middle values would
        # pack 4 MB of columns.  Blocks of at most BLOCK_BYTES of columns
        # keep the peak below 2·BLOCK_BYTES, the table's rows aside (built
        # by the first sweep).
        box = {"N": (2000, 2000), "J": (-16, -1), "K": (1000, 1000)}
        planes = binomial._Planes(Identity.STAR, [range(lo, hi + 1) for lo, hi in box.values()])
        assert planes.width > 10 * planes.bits_col
        assert sweep_identity(Identity.STAR, box).ok
        tracemalloc.start()
        try:
            assert sweep_identity(Identity.STAR, box).ok
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * binomial.BLOCK_BYTES


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
