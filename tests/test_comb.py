"""Unit tests for the balanced-digit format shared by every packed check."""
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rjpascal.comb import pack, unpack
from rjpascal.ring import IntPoly


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 80).flatmap(lambda k: st.tuples(
    st.just(k),
    st.lists(st.integers(-2 ** 70, 2 ** 70), min_size=1, max_size=9),
    st.lists(st.integers(-2 ** (k - 1), 2 ** (k - 1) - 1), min_size=1, max_size=11))))
@example(case=(2, [5, -9], [-2, 1, -2, 1]))  # the two digit bounds at k = 2
@example(case=(2, [0], [1, -2]))
@example(case=(3, [0, 0], [0, 0, 0]))  # v = 0 is no digits at all
def test_unpack_inverts_pack_at_two_to_the_k(case):
    # pack is the value at 2^k of any ints; on balanced digits, in
    # [-2^(k-1), 2^(k-1)), unpack reads them back up to trailing zeros
    k, values, digits = case
    assert pack(values, k) == IntPoly(values)(1 << k)
    assert unpack(pack(digits, k), k) == list(IntPoly(digits).coeffs)
    assert unpack(0, k) == []
