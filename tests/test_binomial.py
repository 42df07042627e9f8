"""Unit tests for generalized binomials and the identity sweep engine."""
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
    check_alternating_delta,
    check_double_delta,
    check_star,
    check_trinomial,
    check_trinomial_companion,
    check_vandermonde,
    sweep_identity,
)


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

        monkeypatch.setitem(binomial._CHECKS, Identity.STAR, broken_star)
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
