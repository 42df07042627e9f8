"""Command-line interface: construction, verification, sweeps, powers.

Commands:
    show-r      print the right-justified Pascal matrix
    show-u      print the eigenvector matrix U
    show-w      print the scaled eigenvector matrix W
    eigen       print the eigenvalues (and their numeric gap)
    verify      run exact/numeric verifications, emit machine-readable reports
    power       compute an integer power of the Pascal matrix (x = 1)
    identities  sweep the six binomial identities over parameter boxes

Common flags: --n <int>, --m <int>, --x {1|<int>|symbolic},
--format {pretty|json|csv}, --tol <float>, --check {...}, --only <identity>,
and per-parameter ranges such as --N -6..12.

The eigen check of verify tests R(x) U = U Lambda with R(x) formed as
L(x) J (README, "How the eigen check works"); the matrix that show-r
prints is checked on U's first column only, which catches any one wrong
entry in a row but not wrong entries that cancel on that column.

Exit status: 0 when everything requested succeeded and every verification
passed, 1 when some verification failed, 2 on usage errors, 141 (as if
killed by SIGPIPE) when the reader closed stdout before the output ended.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

from .comb import DEFAULT_BOXES, Identity


_RANGE_RE = re.compile(r"^(-?\d+)\.\.(-?\d+)$")

#: One range flag per identity parameter, in first-appearance order.
_RANGE_FLAGS = tuple(dict.fromkeys(f"--{p}" for ident in Identity for p in ident.param_names))

#: Exit status when stdout is closed early: 128 + SIGPIPE, as a shell reports
#: a process that the signal ended.
EXIT_BROKEN_PIPE = 141

VERIFY_CHECKS = ("eigen", "involution", "power", "diag", "all")
DEFAULT_POWER_RANGE = range(-3, 7)

#: Most decimal digits, by power_digits, that ``power`` or the power check
#: may compute; larger requests exit 2 before any work.  Ten million digits
#: is about 10 MB of output; `power --n 32 --m 1000` needs 6.6 million.
POWER_DIGIT_BUDGET = 10 ** 7

#: log10(phi) = 0.2089876402499787... in units of 10^-12, rounded up.
_LOG10_PHI_E12 = 208_987_640_250


def power_digits(n: int, m: int) -> int:
    """Estimated decimal digits of R^m, n^2 ((n-1)|m| log10(phi) + 1): n^2
    entries of about that many digits each, because the largest eigenvalue
    has modulus phi^(n-1) at x = 1.  Integer arithmetic, rounded up, so an
    |m| of any length compares exactly."""
    return n * n * (-(-(n - 1) * abs(m) * _LOG10_PHI_E12 // 10 ** 12) + 1)


def _power_budget_error(n: int, exponents) -> str | None:
    """The usage error for exponents whose R^m is over the budget, if any."""
    if max(power_digits(n, m) for m in exponents) <= POWER_DIGIT_BUDGET:
        return None
    return (f"R^m at n = {n} would need more than the budget of "
            f"{POWER_DIGIT_BUDGET:,} decimal digits (POWER_DIGIT_BUDGET; "
            f"estimate n^2 ((n-1)|m| log10(phi) + 1))")


def _parse_x(text: str):
    """--x value: 'symbolic' -> None, otherwise an integer."""
    if text == "symbolic":
        return None
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or 'symbolic', got {text!r}"
        )


def _parse_range(text: str) -> tuple[int, int]:
    m = _RANGE_RE.match(text)
    if not m:
        raise argparse.ArgumentTypeError(f"expected a range like -6..12, got {text!r}")
    lo, hi = int(m.group(1)), int(m.group(2))
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return lo, hi


def _parse_tol(text: str) -> float:
    try:
        tol = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    if not (math.isfinite(tol) and tol > 0):
        raise argparse.ArgumentTypeError(f"tolerance must be finite and > 0, got {text!r}")
    return tol


def _parse_dim(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if n < 1:
        raise argparse.ArgumentTypeError(f"dimension must be >= 1, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rjpascal",
        description="Exact spectral toolkit for right-justified Pascal matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    x_flag = dict(type=_parse_x, default=1, metavar="{1|<int>|symbolic}",
                  help="coefficient specialization (default 1)")

    def add_matrix_cmd(name, help_text, formats):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--n", type=_parse_dim, required=True, help="matrix dimension")
        p.add_argument("--x", **x_flag)
        p.add_argument("--format", choices=formats, default="pretty")
        return p

    add_matrix_cmd("show-r", "print the Pascal matrix", ("pretty", "json", "csv"))
    add_matrix_cmd("show-u", "print the eigenvector matrix", ("pretty", "json"))
    add_matrix_cmd("show-w", "print the scaled eigenvector matrix", ("pretty", "json"))
    add_matrix_cmd("eigen", "print the eigenvalues", ("pretty", "json"))

    pv = sub.add_parser("verify", help="run verifications, report pass/fail")
    pv.add_argument("--n", type=_parse_dim, required=True)
    pv.add_argument("--check", choices=VERIFY_CHECKS, default="all")
    pv.add_argument("--x", **x_flag)
    pv.add_argument("--m", type=int, default=None,
                    help="single exponent for the power check (default -3..6)")
    pv.add_argument("--tol", type=_parse_tol, default=None,
                    help="tolerance on relative numeric residuals (default 64u = 2^-47)")
    pv.add_argument("--format", choices=("pretty", "json"), default="json")

    pp = sub.add_parser("power", help="integer power of the Pascal matrix at x = 1")
    pp.add_argument("--n", type=_parse_dim, required=True)
    pp.add_argument("--m", type=int, required=True, help="any integer exponent")
    pp.add_argument("--format", choices=("pretty", "json", "csv"), default="pretty")

    pi = sub.add_parser("identities", help="brute-force identity sweeps")
    pi.add_argument(
        "--only", choices=[ident.value for ident in Identity], default=None,
        help="sweep a single identity (default: all six)",
    )
    for flag in _RANGE_FLAGS:
        pi.add_argument(
            flag, type=_parse_range, default=None, metavar="a..b",
            help=f"range for parameter {flag[2:]} where the identity uses it",
        )
    pi.add_argument("--format", choices=("pretty", "json"), default="json")

    return parser


def _usage_error(message: str) -> int:
    print(f"rjpascal: error: {message}", file=sys.stderr)
    return 2


#: Pieces of output that _emit_json gathers before a write, checked as each
#: list or dict closes and after each skipped line: writes of about 34 KB on
#: the identity reports.
_EMIT_BATCH = 1024

_encode_str = json.encoder.encode_basestring_ascii
_int_repr = int.__repr__


def _emit_json(obj) -> None:
    """Print ``json.dumps(obj, indent=2)`` in one pass over obj, written in
    batches of _EMIT_BATCH pieces so the document is never held whole.
    Raises TypeError where json.dumps would, and for a dict key that is not
    a str.  A ``binomial.SkippedPoints`` inside obj is written as the list
    of its points' SkippedCase.to_json() dicts.  Only a sweep makes one, so
    the class is read from sys.modules: a matrix command never loads the
    sweep engine.

    json's own indented encoder is pure Python (its C encoder runs only
    without indent) and yields through one generator per nesting level;
    this walker appends each piece, indentation included, to one list.
    It encodes str and int values, nearly all of the identity reports,
    itself, walks dicts, lists and tuples (subclasses too, as json.dumps
    does), and writes every other value with json.dumps.

    A SkippedPoints is written a line at a time.  The points of a skipped
    line differ only in the last parameter's value, the last thing before
    their params dict closes.  So the walker renders the line's first
    point once, and each point of the line is that text with the value
    changed.  A line counts in the batch as the pieces the walker would
    have gathered for its points."""
    write = sys.stdout.write
    parts = []
    SkippedPoints = getattr(sys.modules.get(f"{__package__}.binomial"), "SkippedPoints", ())

    def walk(o, nl, head, append):
        """Append container o, indented at nl and preceded by head."""
        inner = nl + "  "
        rest = "," + inner
        if isinstance(o, dict):
            if not o:
                append(head + "{}")
                return
            sep = head + "{" + inner
            for k, v in o.items():
                key = sep + _encode_str(k) + ": "  # TypeError unless k is a str
                t = type(v)
                if t is str:
                    append(key + _encode_str(v))
                elif t is int:
                    append(key + _int_repr(v))
                elif isinstance(v, (dict, list, tuple)):
                    walk(v, inner, key, append)
                elif isinstance(v, SkippedPoints):
                    skipped(v, inner, key, append)
                else:
                    append(key + json.dumps(v))
                sep = rest
            append(nl + "}")
        else:
            if not o:
                append(head + "[]")
                return
            sep = head + "[" + inner
            for v in o:
                t = type(v)
                if t is str:
                    append(sep + _encode_str(v))
                elif t is int:
                    append(sep + _int_repr(v))
                elif isinstance(v, (dict, list, tuple)):
                    walk(v, inner, sep, append)
                elif isinstance(v, SkippedPoints):
                    skipped(v, inner, sep, append)
                else:
                    append(sep + json.dumps(v))
                sep = rest
            append(nl + "]")
        if len(parts) >= _EMIT_BATCH:
            write("".join(parts))
            parts.clear()

    def skipped(seq, nl, head, append):
        """Append SkippedPoints seq, indented at nl and preceded by head."""
        if not seq:
            append(head + "[]")
            return
        inner = nl + "  "
        rest = "," + inner
        close = inner + "  }"  # where a point's params dict closes
        values = [_int_repr(x) for x in seq.box[-1]]
        sep = head + "[" + inner
        weight = 0
        for i in range(0, len(seq), len(values)):
            point = []
            walk(seq[i].to_json(), inner, "", point.append)
            text = "".join(point)
            cut = text.index(close)
            pre, post = text[:cut - len(values[0])], text[cut:]
            append(sep + pre + (post + rest + pre).join(values) + post)
            sep = rest
            weight += len(point) * len(values)
            if weight >= _EMIT_BATCH:
                write("".join(parts))
                parts.clear()
                weight = 0
        append(nl + "]")

    if isinstance(obj, (dict, list, tuple)):
        walk(obj, "\n", "", parts.append)
    else:
        parts.append(json.dumps(obj))
    parts.append("\n")
    write("".join(parts))


def _x_label(x):
    return "symbolic" if x is None else x


def _double_range_error(what: str, n: int, x: int) -> str:
    return (f"{what} at n = {n}, x = {x} needs values beyond the range of a "
            f"double (magnitude at most {sys.float_info.max:.4g})")


def _cmd_show(args) -> int:
    if args.x is None and args.format == "csv":  # only show-r offers csv
        return _usage_error("csv is only valid for integer-valued output")
    from .pascal import build_rx, build_u, build_w
    build = {"show-r": build_rx, "show-u": build_u, "show-w": build_w}[args.command]
    matrix = build(args.n, args.x)
    if args.x is not None and args.command == "show-r":
        matrix = matrix.to_int_matrix()
    if args.format == "csv":
        print(matrix.to_csv(), end="")
    elif args.format == "json":
        _emit_json(matrix.to_json())
    else:
        print(matrix)
    return 0


def _cmd_eigen(args) -> int:
    from . import spectral
    from .ring import X, IntPoly
    x_image = X if args.x is None else IntPoly.const(args.x)
    lams = spectral.eigenvalues(args.n, x_image)
    try:
        gap = None if args.x is None else spectral.eigen_distinctness(lams)
    except OverflowError:
        return _usage_error(_double_range_error("the numeric eigenvalue gap", args.n, args.x))
    if args.format == "json":
        obj = {
            "n": args.n,
            "x": _x_label(args.x),
            "eigenvalues": [
                {"j": j, "value": lam.to_json()}
                for j, lam in enumerate(lams, start=1)
            ],
        }
        if gap is not None and math.isfinite(gap):
            obj["min_gap"] = gap
        _emit_json(obj)
    else:
        for j, lam in enumerate(lams, start=1):
            print(f"lambda_{j} = {lam}")
        if gap is not None:
            print(f"min pairwise gap = {gap:.12g}")
    return 0


def _report(check: str, n: int, params: dict, passed: bool, residual=None,
            error=None) -> dict:
    obj = {"check": check, "n": n, "params": params, "pass": passed}
    if residual is not None:
        obj["residual"] = residual
    if error is not None:
        obj["error"] = error
    return obj


def _cmd_verify(args) -> int:
    from . import spectral
    from .ring import ExactDivisionError
    n, x = args.n, args.x
    checks = VERIFY_CHECKS[:-1] if args.check == "all" else (args.check,)
    if args.check == "power" and x != 1:
        return _usage_error("the power check is defined at x = 1 only")
    if args.check == "diag" and x is None:
        return _usage_error("the diag check is numeric; pass an integer --x")
    # under --check all, power runs only at x = 1 and diag only at an integer x
    checks = [c for c in checks if (c != "power" or x == 1) and (c != "diag" or x is not None)]
    if args.m is not None and "power" not in checks:
        at = f" at x = {_x_label(x)}" if args.check == "all" else ""
        return _usage_error(f"--m sets the power check's exponent; --check "
                            f"{args.check} runs no power check{at}")
    exponents = [args.m] if args.m is not None else list(DEFAULT_POWER_RANGE)
    if "power" in checks and (err := _power_budget_error(n, exponents)):
        return _usage_error(err)

    reports = []
    for check in checks:
        if check == "eigen":
            for p in range(1, n + 1):
                ok = spectral.verify_eigenpair(n, p, x=x)
                reports.append(_report("eigen", n, {"p": p, "x": _x_label(x)}, ok))
        elif check == "involution":
            ok = spectral.verify_involution(n, x=x)
            reports.append(_report("involution", n, {"x": _x_label(x)}, ok))
        elif check == "power":
            try:
                closed = spectral.matrix_powers_closed_form(n, exponents)
            except (ExactDivisionError, ValueError) as exc:
                reports += [_report("power", n, {"m": m}, False, error=str(exc)) for m in exponents]
                continue
            for m, power in zip(exponents, closed):
                ok = power == spectral.matrix_power_oracle(n, m)
                reports.append(_report("power", n, {"m": m}, ok))
        elif check == "diag":
            try:
                rep = spectral.verify_diagonalization_numeric(
                    n, x, args.tol or spectral.DEFAULT_TOL)
            except OverflowError:
                return _usage_error(_double_range_error("the numeric diag check", n, x))
            base = {"x": x, "tol": rep.tol}
            for name, rel in (("diag-involution", rep.relative_involution),
                              ("diag-eigen", rep.relative_diagonalization)):
                reports.append(_report(name, n, base, rel <= rep.tol, rel))

    if args.format == "json":
        _emit_json(reports)
    else:
        for rep in reports:
            tag = "PASS" if rep["pass"] else "FAIL"
            extra = "".join(f" {k}={v}" for k, v in rep["params"].items())
            res = f" residual={rep['residual']:.3g}" if "residual" in rep else ""
            err = f" error: {rep['error']}" if "error" in rep else ""
            print(f"[{tag}] {rep['check']} n={rep['n']}{extra}{res}{err}")
    return 0 if all(rep["pass"] for rep in reports) else 1


def _cmd_power(args) -> int:
    from . import spectral
    from .ring import ExactDivisionError
    if err := _power_budget_error(args.n, [args.m]):
        return _usage_error(err)
    try:
        result = spectral.matrix_power_closed_form(args.n, args.m)
    except (ExactDivisionError, ValueError) as exc:
        print(f"rjpascal: error: the closed form failed: {exc}", file=sys.stderr)
        return 1
    if args.format == "csv":
        print(result.to_csv(), end="")
    elif args.format == "json":
        obj = result.to_json()
        obj["m"] = args.m
        _emit_json(obj)
    else:
        print(result)
    return 0


def _cmd_identities(args) -> int:
    from .binomial import sweep_identity, validate_box
    idents = [Identity(args.only)] if args.only else list(Identity)
    boxes = {}
    for ident in idents:
        box = boxes[ident] = dict(DEFAULT_BOXES[ident])
        for name in ident.param_names:
            override = getattr(args, name, None)
            if override is not None:
                box[name] = override
        try:
            validate_box(ident, box)  # every box, before any sweep runs
        except ValueError as exc:
            return _usage_error(str(exc))
    reports = [sweep_identity(ident, box) for ident, box in boxes.items()]

    if args.format == "json":
        _emit_json([rep.to_json() for rep in reports])
    else:
        for rep in reports:
            box = " ".join(f"{k}={lo}..{hi}" for k, (lo, hi) in rep.box.items())
            print(
                f"{rep.identity.value}: {box} -> {rep.cases_checked} cases, "
                f"{len(rep.failures)} failures, {len(rep.skipped)} skipped"
            )
            for failure in rep.failures:
                print(f"  FAIL {failure.params}: lhs={failure.lhs} rhs={failure.rhs}")
    return 0 if all(rep.ok for rep in reports) else 1


_HANDLERS = {
    "show-r": _cmd_show,
    "show-u": _cmd_show,
    "show-w": _cmd_show,
    "eigen": _cmd_eigen,
    "verify": _cmd_verify,
    "power": _cmd_power,
    "identities": _cmd_identities,
}


def _merge_range_flags(argv: list[str]) -> list[str]:
    """Join '--N -6..12' into '--N=-6..12' so argparse does not read the
    leading minus of the range as a new flag."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _RANGE_FLAGS and i + 1 < len(argv) and _RANGE_RE.match(argv[i + 1]):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
            continue
        out.append(tok)
        i += 1
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(_merge_range_flags(list(argv)))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    # Arguments are parsed under CPython's int-to-str digit limit
    # (3.10.7+), so over-long ones exit 2; results print without it.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        code = _HANDLERS[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early (`rjpascal identities | head -1`).
        # Python would report the error again when it flushes stdout at
        # exit, so stdout is pointed at devnull first (the SIGPIPE note in
        # the docs of the signal module).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
