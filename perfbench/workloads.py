"""Workload definitions and the independent checks of their outputs.

Every answer here is computed from ``math.comb`` and plain integer
arithmetic, never from rjpascal, so a wrong result in the program cannot
also be wrong in the check.  Nothing in this module is timed.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Callable

#: A check takes (exit code, stdout text) and returns an error or None.
Check = Callable[[int, str], "str | None"]


@dataclass(frozen=True)
class Command:
    """One CLI invocation: ``python <program> <argv>``."""

    argv: tuple[str, ...]
    check: Check
    program: tuple[str, ...] = ("-m", "rjpascal")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make: Callable[[random.Random, bool], list[Command]]
    #: Traced boundaries that must run at least once; all others must not.
    exercised: frozenset[str]


# ---------------------------------------------------------------- setup

SETUP_ARGV = ("show-r", "--n", "1")


def _exact_output(want: str) -> Check:
    def check(code: int, out: str) -> str | None:
        if code != 0:
            return f"exit code {code}"
        if out != want:
            return f"unexpected output {out[:80]!r}"
        return None

    return check


check_setup = _exact_output("[ 1 ]\n")
#: What calibrate.py prints when it runs to the end.
check_calibration = _exact_output("981 593537169 596\n")


# ---------------------------------------------------------------- verify

POWER_EXPONENTS = range(-3, 7)


def _verify_check(n: int, x: int | None) -> Check:
    """Exit code 0, exactly the expected set of reports, all passing."""
    label = "symbolic" if x is None else x
    expected = [("eigen", {"p": p, "x": label}) for p in range(1, n + 1)]
    expected.append(("involution", {"x": label}))
    if x == 1:
        expected += [("power", {"m": m}) for m in POWER_EXPONENTS]
        expected += [("diag-involution", {"x": 1}), ("diag-eigen", {"x": 1})]
    want = sorted(json.dumps(e, sort_keys=True) for e in expected)

    def check(code: int, out: str) -> str | None:
        if code != 0:
            return f"exit code {code}"
        reports = json.loads(out)
        got = sorted(
            json.dumps(
                (r["check"], {k: v for k, v in r["params"].items() if k != "tol"}),
                sort_keys=True,
            )
            for r in reports
        )
        if got != want:
            return f"report set differs: got {len(got)} reports, want {len(want)}"
        bad = [r for r in reports if r["pass"] is not True or r["n"] != n]
        if bad:
            return f"{len(bad)} reports not passing, first {bad[0]}"
        return None

    return check


def _verify_commands(sizes: list[int], x: int | None) -> Callable:
    x_arg = "symbolic" if x is None else str(x)

    def make(rng: random.Random, quick: bool) -> list[Command]:
        ns = [2, 3] if quick else list(sizes)
        rng.shuffle(ns)
        return [
            Command(
                ("verify", "--n", str(n), "--check", "all", "--x", x_arg,
                 "--format", "json"),
                _verify_check(n, x),
            )
            for n in ns
        ]

    return make


# ----------------------------------------------------------------- power

POWER_N = 4
#: |m| range of the seeded power command.  The cost of ``power`` is a step
#: function of the bit length of 3|m| (the largest a-exponent at n = 4): it
#: jumps about 3.5x at |m| = 342, where 3|m| passes 1024.  Staying below the
#: step gives every seed the same cost class.
POWER_M = (300, 341)
QUICK_POWER_M = (3, 9)


def pascal_r(n: int) -> list[list[int]]:
    """Right-justified Pascal matrix, entry (i, j) = C(i, n-1-j), 0-based."""
    return [[math.comb(i, n - 1 - j) for j in range(n)] for i in range(n)]


def int_matmul(p: list[list[int]], q: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*q))
    return [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in p]


def int_matpow(base: list[list[int]], e: int) -> list[list[int]]:
    n = len(base)
    out = [[int(i == j) for j in range(n)] for i in range(n)]
    while e:
        if e & 1:
            out = int_matmul(out, base)
        e >>= 1
        if e:
            base = int_matmul(base, base)
    return out


def _power_check(n: int, m: int) -> Check:
    """R^m equals the reference power; for m < 0, R^m R^|m| is I."""

    def check(code: int, out: str) -> str | None:
        if code != 0:
            return f"exit code {code}"
        obj = json.loads(out)
        if obj.get("n") != n or obj.get("m") != m:
            return f"header n={obj.get('n')} m={obj.get('m')}, want n={n} m={m}"
        got = [[int(e) for e in row] for row in obj["entries"]]
        ref = int_matpow(pascal_r(n), abs(m))
        if m < 0:
            ref, got = [[int(i == j) for j in range(n)] for i in range(n)], int_matmul(got, ref)
        if got != ref:
            return f"R^{m} differs from the reference"
        return None

    return check


def _power_command(rng: random.Random, quick: bool) -> Command:
    m = rng.randint(*(QUICK_POWER_M if quick else POWER_M)) * rng.choice((1, -1))
    return Command(("power", "--n", str(POWER_N), f"--m={m}", "--format", "json"),
                   _power_check(POWER_N, m))


def _golden_commands(rng: random.Random, quick: bool) -> list[Command]:
    cmds = _verify_commands([8, 12, 16], 1)(rng, quick) + [_power_command(rng, quick)]
    rng.shuffle(cmds)
    return cmds


# ------------------------------------------------------------ identities

#: The CLI's documented default boxes, restated here so that a change of
#: default shows up as a failed check rather than as a different workload.
DEFAULT_BOXES = {
    "star": {"N": (-6, 12), "J": (-6, 12), "K": (-6, 12)},
    "trinomial": {"I": (-6, 12), "J": (-6, 12), "K": (-6, 12)},
    "trinomial-companion": {"I": (-6, 12), "J": (-6, 12), "K": (-6, 12)},
    "vandermonde": {"M": (-6, 12), "N": (-6, 12), "L": (-6, 12)},
    "alternating": {"N": (0, 40)},
    "double-delta": {"N": (-8, 12), "L": (0, 12)},
}
WIDE_BOX = (-12, 24)
QUICK_WIDE_BOX = (-2, 3)


def _span(rng: tuple[int, int]) -> range:
    return range(rng[0], rng[1] + 1)


def expected_skipped(identity: str, box: dict[str, tuple[int, int]]) -> int:
    """Points outside the identity's domain: I < 0 for the companion
    trinomial, M < 0 and N < 0 together for Vandermonde."""
    if identity == "trinomial-companion":
        return sum(1 for i in _span(box["I"]) if i < 0) * len(_span(box["J"])) * len(_span(box["K"]))
    if identity == "vandermonde":
        return (sum(1 for m in _span(box["M"]) if m < 0)
                * sum(1 for n in _span(box["N"]) if n < 0) * len(_span(box["L"])))
    return 0


def _identities_check(boxes: dict[str, dict[str, tuple[int, int]]]) -> Check:
    """No failures; volume and skipped counts match the boxes asked for."""

    def check(code: int, out: str) -> str | None:
        if code != 0:
            return f"exit code {code}"
        reports = json.loads(out)
        if [r["identity"] for r in reports] != list(boxes):
            return f"identities {[r['identity'] for r in reports]}, want {list(boxes)}"
        for rep in reports:
            box = boxes[rep["identity"]]
            if {k: tuple(v) for k, v in rep["box"].items()} != box:
                return f"{rep['identity']}: box {rep['box']}, want {box}"
            volume = math.prod(len(_span(r)) for r in box.values())
            if rep["cases_checked"] != volume:
                return f"{rep['identity']}: {rep['cases_checked']} cases, want {volume}"
            if rep["failures"]:
                return f"{rep['identity']}: {len(rep['failures'])} failures"
            want = expected_skipped(rep["identity"], box)
            if len(rep["skipped"]) != want:
                return f"{rep['identity']}: {len(rep['skipped'])} skipped, want {want}"
        return None

    return check


def _identities_commands(rng: random.Random, quick: bool) -> list[Command]:
    lo, hi = QUICK_WIDE_BOX if quick else WIDE_BOX
    cmds = [Command(("identities",), _identities_check(DEFAULT_BOXES))]
    for ident, names in (("star", "NJK"), ("vandermonde", "MNL")):
        box = {name: (lo, hi) for name in names}
        cmds.append(Command(
            ("identities", "--only", ident, *(f"--{name}={lo}..{hi}" for name in names)),
            _identities_check({ident: box}),
        ))
    rng.shuffle(cmds)
    return cmds


# ------------------------------------------------------------- workloads

_ARITH = {"ring.elem_mul", "ring.poly_mul", "ring.poly_add", "ring.a_pow",
          "pascal.build", "pascal.ring_matmul", "binomial.binom"}
_CLI = {"cli.command", "cli.emit"}

WORKLOADS = [
    Workload(
        "verify-golden",
        "verify --check all at x = 1, n = 8/12/16, and power --n 4 at a seeded "
        "|m| in 300..341: specialized ring matmul, closed forms, a_pow, the oracle",
        _golden_commands,
        frozenset(_ARITH | _CLI | {
            "ring.specialize", "ring.divide_exact", "pascal.int_matmul",
            "pascal.det", "pascal.inverse", "spectral.eigen",
            "spectral.involution", "spectral.closed_form", "spectral.oracle",
            "spectral.diag_numeric"}),
    ),
    Workload(
        "verify-symbolic",
        "verify --check all over Z[x], n = 12/20/24: the generic ring path "
        "with growing polynomial degree, no powers or numeric checks",
        _verify_commands([12, 20, 24], None),
        frozenset(_ARITH | _CLI | {"spectral.eigen", "spectral.involution"}),
    ),
    Workload(
        "identities",
        "the six default identity sweeps plus star and vandermonde on "
        "-12..24: binomial and JSON output only, bypassing every ring layer",
        _identities_commands,
        frozenset(_CLI | {"binomial.binom", "binomial.sweep"}),
    ),
]
