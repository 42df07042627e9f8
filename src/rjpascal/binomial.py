"""Brute-force sweeps of the six binomial identities.

``binom``, ``Identity`` and ``DEFAULT_BOXES`` live in ``comb``, which the
matrix commands load without this engine, and are re-exported here, the
same objects.  ``binom`` never applies the symmetry law
C(n, k) = C(n, n - k): it fails for negative n, and several checks below
exist precisely to police that trap.

Each identity is evaluated over a finite summation range derived from
where its terms vanish.  The alternating row sum has no finite support
for N < 0 and raises InfiniteSupportError there.  Vandermonde is not
checked where both upper parameters are negative, although its support
is [0, L] for every M and N; that rule stays because the benchmark
checks the number of skipped points.

Both domain rules read only the signs of the first two parameters, so
the skipped points form a box (``_skipped_box``) that a report keeps as
it is (``SkippedPoints``), with no memory per point or line.  A sweep
skips a line, or a plane's block, by membership in that box.

The sums read their factors from one table, a row C(n, 0), C(n, 1), ...
per upper parameter n: a bounded cache keyed by n whose lists grow on
demand by the ratio C(n, i) = C(n, i-1)(n-i+1)/i, exact for every integer
n.  Star, Vandermonde and double-delta are each one convolution of two
rows: upper negation, C(d+i, i) = (-1)^i C(-d-1, i), turns the diagonal
factors of star and double-delta into row entries.  The closed sides stay
direct ``binom`` calls, independent of the table.

Trinomials, alternating and double-delta are evaluated a line at a time
(``*_line``): for fixed outer parameters, one call returns both sides over
a whole range of the last parameter, and a sweep compares the two lists at
once.  Star and Vandermonde are evaluated a plane at a time, packed across
their middle parameter (``_Planes``): the rows of every middle value are
packed column by column into ints, one digit of B bits per middle value,
so that for each (first, last) value one C-level sum of the columns times
one reversed row gives the sum at every middle value at once.  The closed
side is packed over the same digits and slid one digit per step of the
first parameter.  B comes from ``math.comb`` at the ends of each row range
before any work, and every factor is checked against it as it is read, so
equal ints mean equal digits; only a packed int whose sides differ is
unpacked.  Vandermonde's middle range is split at 0, and the N < 0 block is
never evaluated for M < 0.  A sweep runs one block at a time, and a
block's columns never take more than BLOCK_BYTES, or one row of the table
where a single middle value's columns of B-bit digits would take more.
The one case that packs without reuse is a wide middle range read by a
single (first, last) value, such as star at N = -1, K = 100 over
J = -2047..-1: packing costs one more pass over rows that the table
already builds.
"""
from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from functools import lru_cache
from operator import eq, mul
from typing import Callable, Mapping, NamedTuple

from .comb import DEFAULT_BOXES, Identity, binom, pack, unpack


class InfiniteSupportError(ValueError):
    """The requested sum has no finite support under the given parameters."""


#: Most bytes of packed columns in one block of a plane (_Planes): a block
#: of d middle values holds s + 1 columns of d digits of B bits, so d is
#: 8·BLOCK_BYTES / ((s + 1)·B), at least 1 and at most ROW_CACHE_SIZE.  A
#: block of one digit packs nothing: its columns are one row of the table.
BLOCK_BYTES = 1 << 20

#: Rows kept by the coefficient table.  A sweep whose box spans at most 512
#: values per parameter never evicts a row that it reads: star reads rows J
#: and K-N-1, double-delta rows N and L-N-1, at most 1,535 in all, and
#: Vandermonde at most |M| + |N|.  Past that, evicted rows are recomputed.
#: It also caps the middle values of a packed block (_Planes).
ROW_CACHE_SIZE = 2048


@lru_cache(maxsize=ROW_CACHE_SIZE)
def _row_table(n: int) -> list[int]:
    return [1]


def _row(n: int, length: int) -> list[int]:
    """C(n, i) for i in [0, length) and possibly beyond."""
    row = _row_table(n)
    c = row[-1]
    for i in range(len(row), length):
        c = c * (n - i + 1) // i  # exact: the product is i·C(n, i)
        row.append(c)
    return row


def _empty_sums(s: range) -> tuple[list[int], range]:
    """A 0 for each value s < 0 in ``s`` (its sum over [0, s] is empty),
    and the rest of ``s``."""
    rest = range(max(s.start, 0), s.stop)
    return [0] * (len(s) - len(rest)), rest


def _trinomial_lhs(i: int, j: int, ks: range) -> list[int]:
    """C(I,J)·C(J,K) for K in ``ks``."""
    c = binom(i, j)
    return [c * binom(j, k) for k in ks]


def trinomial_line(i: int, j: int, ks: range) -> tuple[list[int], list[int]]:
    """C(I,J)·C(J,K) vs C(I,K)·C(I-K, J-K); valid for all integers."""
    return _trinomial_lhs(i, j, ks), [binom(i, k) * binom(i - k, j - k) for k in ks]


def trinomial_companion_line(i: int, j: int, ks: range) -> tuple[list[int], list[int]]:
    """C(I,J)·C(J,K) vs C(I,K)·C(I-K, I-J).

    Both sides are computed for any integers, but the identity itself only
    holds for I >= 0: the companion form swaps the lower parameter J-K for
    I-J by binomial symmetry, which is invalid for a negative upper
    argument.  E.g. I=-1, J=2, K=1 gives 2 on the left and 0 on the right.
    Sweeps therefore skip I < 0 (see COMPANION_DOMAIN_REASON).
    """
    return _trinomial_lhs(i, j, ks), [binom(i, k) * binom(i - k, i - j) for k in ks]


def alternating_delta_line(ns: range) -> tuple[list[int], list[int]]:
    """sum_r (-1)^r C(N, r) over [0, N] vs delta(N, 0), for N in ``ns``;
    needs N >= 0."""
    if ns.start < 0:
        raise InfiniteSupportError(
            f"alternating row sum needs N >= 0 (got N={ns.start}): C(N, r) never vanishes"
        )
    lhs = [sum(row[0::2]) - sum(row[1::2]) for row in (_row(n, n + 1)[:n + 1] for n in ns)]
    return lhs, [1 if n == 0 else 0 for n in ns]


def double_delta_line(n: int, ls: range) -> tuple[list[int], list[int]]:
    """sum_u (-1)^u C(N, L-u)·C(N-L+u, u) vs delta(L, 0), for L in ``ls``;
    all integer N.

    The summand vanishes for u < 0 and u > L, so u runs over [0, L].  By
    upper negation (-1)^u C(N-L+u, u) = C(L-N-1, u), so the sum is the
    convolution of rows L-N-1 and N.  Row N is read once per line, row
    L-N-1 once per point.
    """
    row_n = _row(n, ls.stop)
    lhs, rest = _empty_sums(ls)
    lhs += [sum(map(mul, _row(l - n - 1, l + 1), row_n[l::-1])) for l in rest]
    return lhs, [1 if l == 0 else 0 for l in ls]


#: The line function of each identity evaluated a line at a time: both
#: sides at every value of the last parameter in a range of step 1, for
#: fixed values of the others.  Star and Vandermonde go a plane at a time.
_LINES: dict[Identity, Callable[..., tuple[list[int], list[int]]]] = {
    Identity.TRINOMIAL: trinomial_line,
    Identity.TRINOMIAL_COMPANION: trinomial_companion_line,
    Identity.ALTERNATING_DELTA: alternating_delta_line,
    Identity.DOUBLE_DELTA: double_delta_line,
}

COMPANION_DOMAIN_REASON = (
    "companion trinomial form requires I >= 0 "
    "(binomial symmetry is invalid for a negative upper argument)"
)


def _skipped_box(identity: Identity, ranges: list[range]) -> list[range]:
    """The points of the box ``ranges`` outside the identity's checked
    domain, as a box: the companion's I < 0, Vandermonde's M < 0 and N < 0,
    and for the other identities an empty box.  Both rules read only the
    signs of the first two parameters.  So the one rule of a line sweep,
    the companion's, spans the rest of the sweep past I: a line sweep
    drops the first values in the box and walks every other line."""
    negative = [range(r.start, min(r.stop, 0)) for r in ranges[:2]]
    if identity is Identity.TRINOMIAL_COMPANION:
        return [negative[0], *ranges[1:]]
    if identity is Identity.VANDERMONDE:
        return [*negative, *ranges[2:]]
    return [range(0)] * len(ranges)


def _skip_reason(identity: Identity, point: Sequence[int]) -> str:
    """Why ``point``, a point of _skipped_box, is not checked."""
    if identity is Identity.TRINOMIAL_COMPANION:
        return COMPANION_DOMAIN_REASON
    return (f"convolution with both upper parameters negative "
            f"(M={point[0]}, N={point[1]}) is rejected")


class IdentityCase(NamedTuple):
    """One evaluated lattice point, recorded when the two sides disagree."""

    identity: Identity
    params: dict[str, int]
    lhs: int
    rhs: int

    def to_json(self) -> dict:
        return {"params": dict(self.params), "lhs": self.lhs, "rhs": self.rhs}


class SkippedCase(NamedTuple):
    """A lattice point excluded from a sweep, with the reason."""

    params: dict[str, int]
    reason: str

    def to_json(self) -> dict:
        return {"params": dict(self.params), "reason": self.reason}


class SkippedPoints(Sequence):
    """The points a sweep skipped, kept as the box they form (_skipped_box).

    As a read-only sequence it is the list of SkippedCase it stands for:
    ``len`` counts points, and indexing, iteration and ``==`` against a
    list give the same values in the order of itertools.product.
    """

    def __init__(self, identity: Identity, box: list[range]):
        self.identity = identity
        self.box = box  # one range per parameter

    def covers(self, outer: tuple[int, ...]) -> bool:
        """Whether the plane block that starts with ``outer``, a first and a
        middle value, is skipped: past the two parameters its rule reads,
        the box spans the whole sweep."""
        return all(v in r for v, r in zip(outer, self.box))

    def __len__(self) -> int:
        return math.prod(map(len, self.box))

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        i = range(len(self))[i]  # IndexError past the end; i < 0 reads from the end
        point = []
        for r in reversed(self.box):  # one digit per parameter, the last one lowest
            i, k = divmod(i, len(r))
            point.append(r[k])
        point.reverse()
        return SkippedCase(dict(zip(self.identity.param_names, point)),
                           _skip_reason(self.identity, point))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (list, SkippedPoints)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self)!r})"


class IdentityReport(NamedTuple):
    """Result of sweeping one identity over a parameter box.

    ``skipped`` holds the box of skipped points and reads as their list;
    ``to_json`` passes it on as it is, and ``cli._emit_json`` writes it as
    the list of their SkippedCase.to_json() dicts without expanding it."""

    identity: Identity
    box: dict[str, tuple[int, int]]
    cases_checked: int
    failures: list[IdentityCase]
    skipped: SkippedPoints

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "identity": self.identity.value,
            "box": {name: list(rng) for name, rng in self.box.items()},
            "cases_checked": self.cases_checked,
            "failures": [f.to_json() for f in self.failures],
            "skipped": self.skipped,
        }


#: Most binomial terms, by sweep_terms, that one sweep may evaluate; larger
#: boxes are refused before any work.  The -40..60 star box needs 20.3
#: million and takes under a second; the default boxes need under 50,000.
#: It counts terms, not their bit lengths.
SWEEP_TERM_BUDGET = 10 ** 8

#: The parameter that bounds each sum's range [0, s]; the other identities
#: have no sum.
_SUMMATION_PARAM = {
    Identity.STAR: "K",
    Identity.VANDERMONDE: "L",
    Identity.ALTERNATING_DELTA: "N",
    Identity.DOUBLE_DELTA: "L",
}


def sweep_terms(identity: Identity, box: Mapping[str, tuple[int, int]]) -> int:
    """Binomial terms a sweep of a valid ``box`` evaluates: at each point
    the s + 1 summands of the sum over [0, s] (none for s < 0) and one
    more for the other side; two products at each point of a trinomial.
    Skipped points are counted too.  Box volume times summation length,
    summed in closed form along the summation parameter."""
    volume = math.prod(hi - lo + 1 for lo, hi in box.values())
    param = _SUMMATION_PARAM.get(identity)
    if param is None:
        return 2 * volume
    lo, hi = box[param]
    first, last = max(lo + 1, 0), hi + 1  # fewest and most summands
    summands = (first + last) * (last - first + 1) // 2 if last >= first else 0
    width = hi - lo + 1
    return volume // width * (summands + width)


def validate_box(identity: Identity, box: Mapping[str, tuple[int, int]]) -> None:
    """ValueError unless ``box`` names the identity's parameters, each with
    a nonempty range, inside its domain and within SWEEP_TERM_BUDGET."""
    names = identity.param_names
    if set(box) != set(names):
        raise ValueError(
            f"{identity.value} needs parameters {names}, got {tuple(box)}"
        )
    for name, (lo, hi) in box.items():
        if lo > hi:
            raise ValueError(f"empty range for {name}: {lo}..{hi}")
    if identity is Identity.ALTERNATING_DELTA and box["N"][0] < 0:
        raise ValueError(
            f"alternating sweep needs N >= 0, got range {box['N'][0]}..{box['N'][1]}"
        )
    terms = sweep_terms(identity, box)
    if terms > SWEEP_TERM_BUDGET:
        raise ValueError(
            f"{identity.value} sweep would evaluate {terms:,} binomial terms, more "
            f"than the budget of {SWEEP_TERM_BUDGET:,} (SWEEP_TERM_BUDGET; "
            f"estimate box volume x summation length)"
        )


def _peak_bits(lo: int, hi: int, s: int) -> int:
    """Bit length of the largest |C(n, i)| with lo <= n <= hi, 0 <= i <= s.

    For n >= 0, C(n, i) over 0 <= i <= s peaks at i = min(s, n // 2); for
    n < 0, |C(n, i)| = C(i - n - 1, i) grows with i and peaks at i = s.
    Either peak grows with |n| on its side of 0, so the largest is at lo or
    at hi: two ``math.comb`` calls, before any row is built.
    """
    if s < 0:
        return 0

    def peak(n: int) -> int:
        return math.comb(n, min(s, n // 2)) if n >= 0 else math.comb(s - n - 1, s)

    return max(peak(lo), peak(hi)).bit_length()


def _fit(lists: list[list[int]], bits: int) -> None:
    """OverflowError unless every value in ``lists`` (each nonempty) is
    below 2^bits in absolute value."""
    if lists and max(max(map(max, lists)), -min(map(min, lists))).bit_length() > bits:
        raise OverflowError(f"a packed factor exceeds its bound of {bits} bits")


class _Planes:
    """Both sides of star or Vandermonde, packed across the middle parameter
    m (J, N) for each value x of the first (N, M) and s of the last (K, L).

    A block is a run of middle values in digit order, each one digit, in
    balanced base 2^width, of an int that packs the block.  Column i packs
    C(m, i) over the block and is built once; at each (x, s) one C-level sum
    of the columns times a reversed row gives the sum side at every m:
      star         (-1)^s sum_i C(m, i)·C(s-x-1, s-i)  vs  C(x - m, s),
      Vandermonde         sum_i C(m, i)·C(x, s-i)      vs  C(x + m, s).
    Star's digits run down J, so that the closed side's upper parameter
    rises by one a digit in both: from x - 1 to x its packed int slides one
    digit (subtract the outgoing digit, shift down, add the incoming
    ``binom`` on top).  Vandermonde's middle range is split at 0, so that
    its skipped N < 0 block is never evaluated.  A block spans as many
    values as fit in BLOCK_BYTES of columns, at least one and at most
    ROW_CACHE_SIZE, and only the block being called keeps its columns.
    """

    def __init__(self, identity: Identity, ranges: list[range]):
        self.star = identity is Identity.STAR
        self.sign = -1 if self.star else 1  # the closed side is C(x + sign·m, s)
        firsts, middles, self.lasts = ranges
        self._block: range | None = None  # the block whose columns are kept
        self._cols: list[int] = []
        self._closed: tuple[int, list[int]] | None = None  # its last x and closed side
        s = self.lasts[-1]  # the longest sum runs over [0, s]
        xs, ms = (firsts[0], firsts[-1]), (middles[0], middles[-1])
        rows = [self._row_of(x, t) for x in xs for t in (max(self.lasts[0], 0), s)]
        diagonals = [x + self.sign * m for x in xs for m in ms]
        self.bits_col = _peak_bits(*ms, s)
        self.bits_row = _peak_bits(min(rows), max(rows), s)  # _row_of is affine
        self.bits_closed = _peak_bits(min(diagonals), max(diagonals), s)
        # Width lemma.  Every column entry is below 2^bits_col, every row
        # entry below 2^bits_row and every closed value below 2^bits_closed
        # in absolute value (_fit checks each as it is read).  A sum digit
        # adds at most s + 1 products, so it is below
        # (s+1)·2^(bits_col+bits_row) < 2^(bits_col+bits_row+len(s+1)) <=
        # 2^(B-2), and a closed digit is below 2^bits_closed <= 2^(B-2).
        # Both sides' digits thus lie, with a bit to spare, in
        # [-2^(B-1), 2^(B-1)), where a base-2^B expansion is unique
        # (comb.pack): two packed ints are equal exactly when their digits are.
        self.width = max(self.bits_col + self.bits_row + max(s + 1, 0).bit_length(),
                         self.bits_closed) + 2
        # a digit of the block takes s + 1 columns of B bits
        size = min(ROW_CACHE_SIZE, max(1, 8 * BLOCK_BYTES // (max(s + 1, 1) * self.width)))
        halves = [range(middles.start, min(middles.stop, 0)), range(max(middles.start, 0), middles.stop)]
        self.blocks = [h[i:i + size][::self.sign] for h in ([middles] if self.star else halves)
                       for i in range(0, len(h), size)]

    def _row_of(self, x: int, s: int) -> int:
        """The upper parameter of the row that the sum at (x, s) reads."""
        return s - x - 1 if self.star else x

    def __call__(self, x: int, block: range) -> list[tuple[int, int]]:
        """(lhs, rhs) at x over ``block``, packed, for each last value."""
        if block != self._block:
            n = max(self.lasts[-1] + 1, 0)
            rows = [_row(m, n)[:n] for m in block]
            if n:
                _fit(rows, self.bits_col)
            self._block, self._closed = block, None
            self._cols = [pack(col, self.width) for col in zip(*rows)]
        sums, rest = _empty_sums(self.lasts)
        sums += [sum(map(mul, self._cols, self._weights(x, s))) for s in rest]
        closed = self._slide(x, block)
        if self.star:
            return [(c, -t if s & 1 else t) for s, c, t in zip(self.lasts, closed, sums)]
        return list(zip(sums, closed))

    def _weights(self, x: int, s: int) -> list[int]:
        """The row read at (x, s) over [0, s], reversed, each entry checked."""
        row = _row(self._row_of(x, s), s + 1)[s::-1]
        _fit([row], self.bits_row)
        return row

    def _slide(self, x: int, block: range) -> list[int]:
        """The closed side at x over ``block``, packed, for each last value:
        slid from x - 1 if the block's last call was at x - 1."""
        d = x + self.sign * block[0]  # digit q holds C(d + q, s)
        top, width = len(block) - 1, self.width
        last, packed = self._closed or (None, None)
        if last == x - 1:
            outs = [binom(d - 1, s) for s in self.lasts]
            ins = [binom(d + top, s) for s in self.lasts]
            _fit([ins], self.bits_closed)
            packed = [(c - out >> width) + (new << width * top)
                      for c, out, new in zip(packed, outs, ins)]
        else:
            packed = []
            for s in self.lasts:  # one value's digits at a time
                digits = [binom(d + q, s) for q in range(top + 1)]
                _fit([digits], self.bits_closed)
                packed.append(pack(digits, width))
        self._closed = x, packed
        return packed


def _sweep_planes(identity: Identity, ranges: list[range],
                  skipped: SkippedPoints) -> list[IdentityCase]:
    """The failures of star or Vandermonde over ``ranges``, a block of
    middle values at a time and a plane per value of the first parameter
    outside ``skipped``: one packed comparison per last value, whose
    digits are unpacked only where the two sides differ."""
    names = identity.param_names
    planes = _Planes(identity, ranges)
    failures = []
    for block in planes.blocks:
        for x in ranges[0]:
            if skipped.covers((x, block[0])):  # a block lies on one side of 0
                continue
            for s, (lhs, rhs) in zip(ranges[-1], planes(x, block)):
                if lhs != rhs:
                    sides = [unpack(v, planes.width) for v in (lhs, rhs)]
                    digits = itertools.zip_longest(block, *sides, fillvalue=0)
                    failures += [IdentityCase(identity, dict(zip(names, (x, m, s))), l, r)
                                 for m, l, r in digits if l != r]
    # blocks come one after another, and a star block runs down J
    return sorted(failures, key=lambda case: tuple(case.params.values()))


def sweep_identity(
    identity: Identity, box: Mapping[str, tuple[int, int]]
) -> IdentityReport:
    """Evaluate ``identity`` at every lattice point of ``box``.

    Star and Vandermonde are evaluated a plane at a time (_Planes), the
    others one line call per combination of the outer parameters.  Points
    that violate a domain condition form a box (_skipped_box), recorded as
    skipped with a reason that is formatted when a point is read
    (SkippedPoints); every disagreement between the two sides is recorded
    as a failure (none are expected), in the order of itertools.product.
    """
    validate_box(identity, box)
    names = identity.param_names
    line = _LINES.get(identity)
    ranges = [range(box[name][0], box[name][1] + 1) for name in names]
    skipped = SkippedPoints(identity, _skipped_box(identity, ranges))
    *outer_ranges, inner = ranges
    if line is None:
        failures = _sweep_planes(identity, ranges, skipped)
    else:
        failures = []
        if outer_ranges:  # the box spans the rest of the sweep (_skipped_box)
            outer_ranges[0] = [v for v in outer_ranges[0] if v not in skipped.box[0]]
        for outer in itertools.product(*outer_ranges):
            lhs, rhs = line(*outer, inner)
            if lhs != rhs:  # params dicts are built only for the points that fail
                fixed = dict(zip(names, outer))
                failures += [IdentityCase(identity, {**fixed, names[-1]: x}, l, r)
                             for x, l, r in zip(inner, lhs, rhs) if l != r]
    return IdentityReport(identity, dict(box), math.prod(map(len, ranges)), failures, skipped)
