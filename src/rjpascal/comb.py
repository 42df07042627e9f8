"""The generalized binomial coefficient, the table of identities, and the
balanced-digit format of every Kronecker-packed int.

``binom`` accepts any integer upper parameter, positive or negative, and
returns zero whenever the lower parameter is negative.  The matrix
builders need only ``binom`` and the CLI's parser only ``Identity`` and
``DEFAULT_BOXES``, so these live here, apart from the sweep engine
(``binomial``), which re-exports them.  ``pack`` and ``unpack`` are the
one place that writes values as the digits of an int at 2^k and reads
them back, for the matrix kernels and the plane sweeps alike.
"""
from __future__ import annotations

import enum
import math


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


#: Sweep boxes used by default; chosen to include the negative-upper
#: region where the symmetry trap bites while finishing in seconds.  Each
#: box lists its parameters in the order of itertools.product: the first,
#: middle and last parameter of a plane, or the arguments of a line
#: function, whose last one is the range of a line.
DEFAULT_BOXES: dict[Identity, dict[str, tuple[int, int]]] = {
    Identity.STAR: {"N": (-6, 12), "J": (-6, 12), "K": (-6, 12)},
    Identity.TRINOMIAL: {"I": (-6, 12), "J": (-6, 12), "K": (-6, 12)},
    Identity.TRINOMIAL_COMPANION: {"I": (-6, 12), "J": (-6, 12), "K": (-6, 12)},
    Identity.VANDERMONDE: {"M": (-6, 12), "N": (-6, 12), "L": (-6, 12)},
    Identity.ALTERNATING_DELTA: {"N": (0, 40)},
    Identity.DOUBLE_DELTA: {"N": (-8, 12), "L": (0, 12)},
}


def pack(values, k: int) -> int:
    """sum_j values[j] 2^(k j), neighbours joined a level at a time (a trailing 0
    pairs with an odd last value), so each bit is shifted about log2(n) times.
    Values in [-2^(k-1), 2^(k-1)) are the balanced base-2^k digits of the
    result, and those are unique: values[0] is the one residue of the int mod
    2^k in that range, and so on up.  So equal ints mean equal values (padded
    with zeros), and unpack reads them back."""
    while len(values) > 1:
        pairs = iter([*values, 0])
        values, k = [p + (q << k) for p, q in zip(pairs, pairs)], 2 * k
    return values[0]


def unpack(v: int, k: int) -> list[int]:
    """The balanced base-2^k digits of v (pack), digit 0 first and the last
    nonzero, [] for 0.  k >= 2: the digits {-1, 0} of k = 1 make no v > 0."""
    mask, half = (1 << k) - 1, 1 << k - 1
    out = []
    while v:
        d = ((v + half) & mask) - half
        out.append(d)
        v = (v - d) >> k
    return out
