"""Generalized binomial coefficients and brute-force identity sweeps.

``binom`` accepts any integer upper parameter, positive or negative, and
returns zero whenever the lower parameter is negative.  It is computed
with ``math.comb``: directly for n >= 0, and through upper negation
C(n, k) = (-1)^k C(k - n - 1, k) for n < 0.  The symmetry law
C(n, k) = C(n, n - k) is deliberately never applied: it fails for
negative n, and several checks below exist precisely to police that trap.

Each identity is evaluated over a finite summation range derived from
where its terms vanish; parameter combinations whose sums genuinely do
not terminate are rejected with InfiniteSupportError rather than being
silently truncated.

The sums read their factors from one table, a row C(n, 0), C(n, 1), ...
per upper parameter n: a bounded cache keyed by n whose lists grow on
demand by the ratio C(n, i) = C(n, i-1)(n-i+1)/i, exact for every integer
n.  Star, Vandermonde and double-delta are each one convolution of two
rows (_convolution): upper negation, C(d+i, i) = (-1)^i C(-d-1, i), turns
the diagonal factors of star and double-delta into row entries.
"""
from __future__ import annotations

import enum
import itertools
import math
from functools import lru_cache
from operator import mul
from typing import Callable, Mapping, NamedTuple


class InfiniteSupportError(ValueError):
    """The requested sum has no finite support under the given parameters."""


def binom(n: int, k: int) -> int:
    """C(n, k) for any integers n, k: zero if k < 0, else n(n-1)...(n-k+1)/k!.

    Computed by ``math.comb`` for n >= 0 (zero when k > n) and by upper
    negation, (-1)^k C(k - n - 1, k), for n < 0; symmetry is never used.
    """
    if k < 0:
        return 0
    if n >= 0:
        return math.comb(n, k)
    c = math.comb(k - n - 1, k)
    return -c if k & 1 else c


#: Rows kept by the coefficient table.  A sweep whose box spans at most 512
#: values per parameter never evicts a row that it reads: star reads rows J
#: and K-N-1, double-delta rows N and L-N-1, at most 1,535 in all, and
#: Vandermonde at most |M| + |N|.  Past that, evicted rows are recomputed.
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


def _convolution(p: int, q: int, s: int) -> int:
    """sum_k C(p, k)·C(q, s-k) over [0, s]; 0 when s < 0."""
    if s < 0:
        return 0
    return sum(map(mul, _row(p, s + 1), _row(q, s + 1)[s::-1]))


def check_star(n: int, j: int, k: int) -> tuple[int, int]:
    """C(N-J, K) vs sum_r (-1)^r C(N-r, K-r) C(J, r).

    The summand vanishes for r < 0 (second factor) and for r > K (first
    factor has a negative lower parameter), so r runs over [0, K].  By
    upper negation C(N-r, K-r) = (-1)^(K-r) C(K-N-1, K-r), so the sum is
    (-1)^K times the convolution of rows J and K-N-1.
    """
    rhs = _convolution(j, k - n - 1, k)
    return binom(n - j, k), -rhs if k & 1 else rhs


def check_trinomial(i: int, j: int, k: int) -> tuple[int, int]:
    """C(I,J)·C(J,K) vs C(I,K)·C(I-K, J-K); valid for all integers."""
    lhs = binom(i, j) * binom(j, k)
    rhs = binom(i, k) * binom(i - k, j - k)
    return lhs, rhs


def check_trinomial_companion(i: int, j: int, k: int) -> tuple[int, int]:
    """C(I,J)·C(J,K) vs C(I,K)·C(I-K, I-J).

    Both sides are computed for any integers, but the identity itself only
    holds for I >= 0: the companion form swaps the lower parameter J-K for
    I-J by binomial symmetry, which is invalid for a negative upper
    argument.  E.g. I=-1, J=2, K=1 gives 2 on the left and 0 on the right.
    Sweeps therefore skip I < 0 (see COMPANION_DOMAIN_REASON).
    """
    lhs = binom(i, j) * binom(j, k)
    rhs = binom(i, k) * binom(i - k, i - j)
    return lhs, rhs


def check_vandermonde(m: int, n: int, l: int) -> tuple[int, int]:
    """sum_k C(M,k)·C(N,L-k) vs C(M+N, L), for M >= 0 or N >= 0.

    The summand vanishes for k < 0 and k > L, so k runs over [0, L].
    Pairs with both M < 0 and N < 0 are outside this check's supported
    domain and raise InfiniteSupportError; sweeps record them as skipped.
    """
    if m < 0 and n < 0:
        raise InfiniteSupportError(
            f"convolution with both upper parameters negative (M={m}, N={n}) is rejected"
        )
    return _convolution(m, n, l), binom(m + n, l)


def check_alternating_delta(n: int) -> tuple[int, int]:
    """sum_r (-1)^r C(N, r) over [0, N] vs delta(N, 0); needs N >= 0."""
    if n < 0:
        raise InfiniteSupportError(
            f"alternating row sum needs N >= 0 (got N={n}): C(N, r) never vanishes"
        )
    terms = _row(n, n + 1)[:n + 1]
    return sum(terms[0::2]) - sum(terms[1::2]), 1 if n == 0 else 0


def check_double_delta(n: int, l: int) -> tuple[int, int]:
    """sum_u (-1)^u C(N, L-u)·C(N-L+u, u) vs delta(L, 0); all integer N.

    The summand vanishes for u < 0 and u > L, so u runs over [0, L].  By
    upper negation (-1)^u C(N-L+u, u) = C(L-N-1, u), so the sum is the
    convolution of rows L-N-1 and N.
    """
    return _convolution(l - n - 1, n, l), 1 if l == 0 else 0


class Identity(enum.Enum):
    """The six verified identities, keyed by their CLI names."""

    STAR = "star"
    TRINOMIAL = "trinomial"
    TRINOMIAL_COMPANION = "trinomial-companion"
    VANDERMONDE = "vandermonde"
    ALTERNATING_DELTA = "alternating"
    DOUBLE_DELTA = "double-delta"

    @property
    def param_names(self) -> tuple[str, ...]:
        return tuple(DEFAULT_BOXES[self])


_CHECKS: dict[Identity, Callable[..., tuple[int, int]]] = {
    Identity.STAR: check_star,
    Identity.TRINOMIAL: check_trinomial,
    Identity.TRINOMIAL_COMPANION: check_trinomial_companion,
    Identity.VANDERMONDE: check_vandermonde,
    Identity.ALTERNATING_DELTA: check_alternating_delta,
    Identity.DOUBLE_DELTA: check_double_delta,
}

COMPANION_DOMAIN_REASON = (
    "companion trinomial form requires I >= 0 "
    "(binomial symmetry is invalid for a negative upper argument)"
)

#: Sweep boxes used by default; chosen to include the negative-upper
#: region where the symmetry trap bites while finishing in seconds.  Each
#: box lists its parameters in the order the check function takes them.
DEFAULT_BOXES: dict[Identity, dict[str, tuple[int, int]]] = {
    Identity.STAR: {"N": (-6, 12), "J": (-6, 12), "K": (-6, 12)},
    Identity.TRINOMIAL: {"I": (-6, 12), "J": (-6, 12), "K": (-6, 12)},
    Identity.TRINOMIAL_COMPANION: {"I": (-6, 12), "J": (-6, 12), "K": (-6, 12)},
    Identity.VANDERMONDE: {"M": (-6, 12), "N": (-6, 12), "L": (-6, 12)},
    Identity.ALTERNATING_DELTA: {"N": (0, 40)},
    Identity.DOUBLE_DELTA: {"N": (-8, 12), "L": (0, 12)},
}


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


class IdentityReport(NamedTuple):
    """Result of sweeping one identity over a parameter box."""

    identity: Identity
    box: dict[str, tuple[int, int]]
    cases_checked: int
    failures: list[IdentityCase]
    skipped: list[SkippedCase]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "identity": self.identity.value,
            "box": {name: list(rng) for name, rng in self.box.items()},
            "cases_checked": self.cases_checked,
            "failures": [f.to_json() for f in self.failures],
            "skipped": [s.to_json() for s in self.skipped],
        }


#: Most binomial terms, by sweep_terms, that one sweep may evaluate; larger
#: boxes are refused before any work.  The -40..60 star box needs 20.3
#: million and takes a few seconds; the default boxes need under 50,000.
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


def sweep_identity(
    identity: Identity, box: Mapping[str, tuple[int, int]]
) -> IdentityReport:
    """Evaluate ``identity`` at every lattice point of ``box``.

    Points that violate a per-case domain condition are recorded as
    skipped with a reason; every disagreement between the two sides is
    recorded as a failure (none are expected).
    """
    validate_box(identity, box)
    names = identity.param_names
    check = _CHECKS[identity]
    companion = identity is Identity.TRINOMIAL_COMPANION

    total = math.prod(box[name][1] - box[name][0] + 1 for name in names)
    failures: list[IdentityCase] = []
    skipped: list[SkippedCase] = []
    ranges = [range(box[name][0], box[name][1] + 1) for name in names]
    for combo in itertools.product(*ranges):
        # params dicts are built only for the points that get recorded
        if companion and combo[0] < 0:
            skipped.append(SkippedCase(dict(zip(names, combo)), COMPANION_DOMAIN_REASON))
            continue
        try:
            lhs, rhs = check(*combo)
        except InfiniteSupportError as exc:
            skipped.append(SkippedCase(dict(zip(names, combo)), str(exc)))
            continue
        if lhs != rhs:
            failures.append(IdentityCase(identity, dict(zip(names, combo)), lhs, rhs))
    return IdentityReport(identity, dict(box), total, failures, skipped)
