"""Every function and method in the package is reached by some CLI command.

A fixed list of commands runs in-process under ``sys.setprofile``: every
command and format at x in {1, symbolic, 0, -2, 3}, powers of both signs,
the numeric checks, and the usage errors (bad flags and ranges, budgets,
values past the range of a double).  Each ``def`` under src/rjpascal must
be called by at least one of them, unless ALLOWLIST names it with the
reason it stays.  API that no command reaches fails this test, so dead
code cannot grow back unnoticed.
"""
import ast
import importlib
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import rjpascal
from rjpascal import cli

PACKAGE = Path(rjpascal.__file__).resolve().parent

#: Definitions no command reaches, each with the reason it stays.
ALLOWLIST = {
    "pascal.RingMatrix.__matmul__": "perfbench/tracer.py wraps it as pascal.ring_matmul",
    "pascal.IntMatrix.__repr__": "debugging display",
    "pascal.RingMatrix.__repr__": "debugging display",
    "ring.IntPoly.__repr__": "debugging display",
    "ring.RingElem.__repr__": "debugging display",
    "ring.IntPoly.__bool__": "without it every zero polynomial would be truthy",
    "ring.RingElem.__bool__": "without it every zero element would be truthy",
    "ring.RingElem.__eq__": "value equality; tests and library callers compare elements",
    "binomial.IdentityCase.to_json": "runs only when an identity fails",
    "binomial.SkippedPoints.__eq__": "value equality; tests and library callers compare "
                                     "a report's skipped points with a list",
    "binomial.SkippedPoints.__repr__": "debugging display",
    "__init__.__getattr__": "the README tour's `from rjpascal import …` resolves through it; "
                            "tests/test_readme.py runs it",
}

HUGE_X = "1" + "0" * 320  # 10^320: its doubles overflow


def _commands() -> list[tuple[str, ...]]:
    cmds = []
    for x in ("1", "symbolic", "0", "-2", "3"):
        for fmt in ("pretty", "json", "csv"):
            cmds.append(("show-r", "--n", "3", "--x", x, "--format", fmt))
        for name in ("show-u", "show-w", "eigen"):
            for fmt in ("pretty", "json"):
                cmds.append((name, "--n", "3", "--x", x, "--format", fmt))
        for check in cli.VERIFY_CHECKS:
            for fmt in ("pretty", "json"):
                cmds.append(("verify", "--n", "3", "--check", check, "--x", x,
                             "--format", fmt))
    for m in ("-2", "0", "3"):
        for fmt in ("pretty", "json", "csv"):
            cmds.append(("power", "--n", "3", "--m", m, "--format", fmt))
    small = {"N": "-2..3", "J": "-2..3", "K": "-2..3", "I": "0..3", "M": "-2..3",
             "L": "-2..3"}
    for ident in cli.Identity:
        ranges = [f"--{p}={small[p]}" for p in ident.param_names]
        if ident is cli.Identity.ALTERNATING_DELTA:
            ranges = ["--N", "0..4"]
        for fmt in ("pretty", "json"):
            cmds.append(("identities", "--only", ident.value, *ranges, "--format", fmt))
    cmds += [
        ("eigen", "--n", "1", "--format", "json"),
        ("eigen", "--n", "3", "--x", HUGE_X),
        ("verify", "--n", "3", "--check", "diag", "--x", HUGE_X),
        ("verify", "--n", "4", "--check", "power", "--m", "-5"),
        ("verify", "--n", "3", "--check", "diag", "--tol", "1e-3"),
        ("verify", "--n", "3", "--check", "diag", "--tol", "0"),
        ("verify", "--n", "3", "--check", "diag", "--tol", "nan"),
        ("verify", "--n", "3", "--check", "diag", "--tol", "abc"),
        ("verify", "--n", "2", "--check", "power", "--m", "9" * 23),
        ("power", "--n", "2", "--m", "9" * 23),
        ("show-r", "--n", "0"),
        ("show-r", "--n", "abc"),
        ("show-r", "--n", "2", "--x", "golden"),
        ("identities", "--only", "star", "--N", "5..1"),
        ("identities", "--only", "star", "--N", "a..b"),
        ("identities", "--only", "alternating", "--N", "-1..5"),
        ("identities", "--only", "star", "--N=-4000..4000", "--J=-4000..4000"),
        ("identities", "--only", "vandermonde", "--M=-3..-1", "--N=-3..-1",
         "--L=0..2", "--format", "pretty"),
        ("identities", "--only", "trinomial-companion", "--I=-2..1", "--J=0..2",
         "--K=0..2"),
        ("bogus",),
    ]
    return cmds


COMMANDS = _commands()


def run_cli(argv) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _definitions() -> dict[tuple[str, int, str], str]:
    """(file, first line, name) of every def in the package, mapped to
    its dotted name; a decorated def's code starts at its first decorator."""
    found = {}

    def walk(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.", path)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(path, line, child.name)] = f"{prefix}{child.name}"
                walk(child, f"{prefix}{child.name}.", path)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text()), f"{path.stem}.", str(path))
    return found


def _called(commands) -> set[tuple[str, int, str]]:
    # A warm cache answers without calling the function it wraps.
    for path in PACKAGE.glob("*.py"):
        for value in vars(importlib.import_module(f"rjpascal.{path.stem}")).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(profile)
    try:
        for argv in commands:
            run_cli(argv)
    finally:
        sys.setprofile(None)
    return {(str(Path(c.co_filename).resolve()), c.co_firstlineno, c.co_name)
            for c in seen}


def test_allowlist_names_existing_definitions():
    assert set(ALLOWLIST) <= set(_definitions().values())


def test_every_definition_is_reached():
    defs = _definitions()
    called = _called(COMMANDS)
    unreached = sorted(name for key, name in defs.items()
                       if key not in called and name not in ALLOWLIST)
    assert unreached == []
