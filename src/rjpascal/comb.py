"""The generalized binomial coefficient and the table of identities.

``binom`` accepts any integer upper parameter, positive or negative, and
returns zero whenever the lower parameter is negative.  The matrix
builders need only ``binom`` and the CLI's parser only ``Identity`` and
``DEFAULT_BOXES``, so these live here, apart from the sweep engine
(``binomial``), which re-exports them.
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
