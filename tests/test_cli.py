"""CLI tests: flag surface, output formats, exit codes."""
import contextlib
import decimal
import io
import itertools
import json
import math
import os
import subprocess
import sys
from collections import OrderedDict
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rjpascal import binomial, cli, pascal, ring, spectral
from rjpascal.binomial import Identity, sweep_identity
from rjpascal.pascal import RingMatrix, build_r, build_u, build_w
from rjpascal.ring import ExactDivisionError
from rjpascal.spectral import matrix_power_oracle


#: CPython 3.10.7+ limits int <-> str conversion to 4,300 digits by default.
needs_digit_limit = pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="no int-to-str digit limit in this interpreter",
)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestShow:
    def test_show_r_csv(self, capsys):
        code, out, _ = run(capsys, "show-r", "--n", "3", "--format", "csv")
        assert code == 0
        assert out == "0,0,1\n0,1,1\n1,2,1\n"

    def test_show_r_pretty(self, capsys):
        code, out, _ = run(capsys, "show-r", "--n", "2")
        assert code == 0
        assert out == "[ 0  1 ]\n[ 1  1 ]\n"

    def test_show_r_json_roundtrip(self, capsys):
        code, out, _ = run(capsys, "show-r", "--n", "4", "--format", "json")
        assert code == 0
        assert json.loads(out) == build_r(4).to_json()

    def test_show_r_other_x(self, capsys):
        code, out, _ = run(capsys, "show-r", "--n", "2", "--x", "3", "--format", "csv")
        assert code == 0
        assert out == "0,1\n1,3\n"

    def test_show_r_symbolic_csv_rejected(self, capsys):
        code, _, err = run(capsys, "show-r", "--n", "3", "--x", "symbolic",
                           "--format", "csv")
        assert code == 2
        assert "integer-valued" in err

    def test_show_r_symbolic_csv_rejected_before_building(self, capsys, monkeypatch):
        def refuse(n, x):
            raise AssertionError("R(x) was built for a rejected format")

        monkeypatch.setattr(pascal, "build_rx", refuse)
        code, out, err = run(capsys, "show-r", "--n", "3000", "--x", "symbolic",
                             "--format", "csv")
        assert (code, out) == (2, "")
        assert "integer-valued" in err

    def test_show_w_pretty(self, capsys):
        code, out, _ = run(capsys, "show-w", "--n", "2")
        assert code == 0
        assert out == "[ -a  1 ]\n[  1  a ]\n"

    def test_show_w_json_roundtrip_symbolic(self, capsys):
        code, out, _ = run(capsys, "show-w", "--n", "3", "--x", "symbolic",
                           "--format", "json")
        assert code == 0
        assert json.loads(out) == build_w(3).to_json()

    def test_show_u_json_roundtrip_at_one(self, capsys):
        code, out, _ = run(capsys, "show-u", "--n", "3", "--format", "json")
        assert code == 0
        assert json.loads(out) == build_u(3, 1).to_json()

    def test_show_w_csv_rejected_by_parser(self, capsys):
        code, _, err = run(capsys, "show-w", "--n", "2", "--format", "csv")
        assert code == 2
        assert "invalid choice" in err


class TestEigen:
    def test_json_at_one(self, capsys):
        code, out, _ = run(capsys, "eigen", "--n", "3", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["n"] == 3
        assert obj["x"] == 1
        assert len(obj["eigenvalues"]) == 3
        assert obj["min_gap"] > 0
        # lambda_2 at n=3 is -1
        assert obj["eigenvalues"][1]["value"] == {"c0": ["-1"], "c1": []}

    def test_json_symbolic_has_no_gap(self, capsys):
        code, out, _ = run(capsys, "eigen", "--n", "3", "--x", "symbolic",
                           "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["x"] == "symbolic"
        assert "min_gap" not in obj

    def test_json_n1_stays_strict_json(self, capsys):
        # n = 1 has no eigenvalue pairs; the infinite gap must not leak
        # a bare Infinity token into the output
        code, out, _ = run(capsys, "eigen", "--n", "1", "--format", "json")
        assert code == 0
        assert "Infinity" not in out
        assert "min_gap" not in json.loads(out)

    def test_pretty(self, capsys):
        code, out, _ = run(capsys, "eigen", "--n", "2")
        assert code == 0
        assert "lambda_1 = 1 - a" in out
        assert "lambda_2 = a" in out

    def test_gap_rounds_the_printed_eigenvalues(self, capsys, monkeypatch):
        # the numeric gap comes from the exact eigenvalues already computed
        calls = []
        exact = spectral.eigenvalues

        def counted(*args):
            calls.append(args)
            return exact(*args)

        monkeypatch.setattr(spectral, "eigenvalues", counted)
        code, out, _ = run(capsys, "eigen", "--n", "6", "--x", "2", "--format", "json")
        assert code == 0
        assert "min_gap" in json.loads(out)
        assert len(calls) == 1


class TestVerify:
    def test_eigen_symbolic_six_pairs(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "6", "--check", "eigen",
                           "--x", "symbolic")
        assert code == 0
        reports = json.loads(out)
        assert len(reports) == 6
        assert all(rep["pass"] for rep in reports)
        assert {rep["params"]["p"] for rep in reports} == set(range(1, 7))
        for rep in reports:
            assert set(rep) == {"check", "n", "params", "pass"}

    @pytest.mark.parametrize("x", ["1", "symbolic", "-2"])
    def test_wrong_eigenvalue_fails_only_its_pair(self, capsys, monkeypatch, x):
        true_eigenvalues = spectral.eigenvalues

        def wrong_at_3(n, x_image):
            lams = true_eigenvalues(n, x_image)
            lams[2] = -lams[2]
            return lams

        caches = (spectral._eigen_failures, spectral._read, spectral._rows)
        for cache in caches:
            cache.cache_clear()
        monkeypatch.setattr(spectral, "eigenvalues", wrong_at_3)
        try:
            code, out, _ = run(capsys, "verify", "--n", "5", "--check", "eigen", "--x", x)
        finally:
            for cache in caches:
                cache.cache_clear()
        assert code == 1
        assert [(rep["params"]["p"], rep["pass"]) for rep in json.loads(out)] == [
            (p, p != 3) for p in range(1, 6)
        ]

    def test_involution(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "8", "--check", "involution")
        assert code == 0
        reports = json.loads(out)
        assert reports == [
            {"check": "involution", "n": 8, "params": {"x": 1}, "pass": True}
        ]

    def test_power_default_range(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "4", "--check", "power")
        assert code == 0
        reports = json.loads(out)
        assert [rep["params"]["m"] for rep in reports] == list(range(-3, 7))
        assert all(rep["pass"] for rep in reports)

    def test_power_single_exponent(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "3", "--check", "power",
                           "--m", "-2")
        assert code == 0
        reports = json.loads(out)
        assert reports[0]["params"] == {"m": -2}

    def test_diag_reports_residuals(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "10", "--check", "diag",
                           "--tol", "1e-8")
        assert code == 0
        reports = json.loads(out)
        assert [rep["check"] for rep in reports] == ["diag-involution", "diag-eigen"]
        for rep in reports:
            assert rep["pass"]
            assert rep["residual"] <= 1e-8

    def test_diag_large_eigenvalues_pass(self, capsys):
        # eigenvalues near 1.6e4: the absolute residual exceeds tol, the
        # reported residual is the judged one, relative to |V||R||V|
        code, out, _ = run(capsys, "verify", "--n", "12", "--check", "diag",
                           "--x", "-2")
        assert code == 0
        eigen = json.loads(out)[1]
        assert eigen["check"] == "diag-eigen" and eigen["pass"]
        assert eigen["params"] == {"x": -2, "tol": spectral.DEFAULT_TOL}
        rep = spectral.verify_diagonalization_numeric(12, -2)
        assert rep.residual_diagonalization > rep.tol
        assert eigen["residual"] == rep.relative_diagonalization <= rep.tol

    def test_diag_swapped_eigenvalues_fail(self, capsys, monkeypatch):
        read = spectral._read.__wrapped__

        def swapped(n, x):  # the reading the diag check rounds, lambda_1 and lambda_n swapped
            reading = read(n, x)
            lams = list(reading.lams)
            lams[0], lams[-1] = lams[-1], lams[0]
            return reading._replace(lams=lams)

        monkeypatch.setattr(spectral, "_read", swapped)
        code, out, _ = run(capsys, "verify", "--n", "8", "--check", "diag",
                           "--x", "3", "--format", "pretty")
        assert code == 1
        assert out.startswith("[PASS] diag-involution n=8 x=3 tol=")
        assert "\n[FAIL] diag-eigen n=8 x=3 tol=" in out

    def test_all_checks(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "3", "--check", "all")
        assert code == 0
        reports = json.loads(out)
        kinds = {rep["check"] for rep in reports}
        assert kinds == {"eigen", "involution", "power", "diag-involution", "diag-eigen"}

    def test_all_symbolic_skips_numeric(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "3", "--x", "symbolic")
        assert code == 0
        kinds = {rep["check"] for rep in json.loads(out)}
        assert kinds == {"eigen", "involution"}

    def test_power_requires_x_one(self, capsys):
        code, _, err = run(capsys, "verify", "--n", "3", "--check", "power",
                           "--x", "symbolic")
        assert code == 2
        assert "x = 1" in err

    def test_diag_requires_numeric_x(self, capsys):
        code, _, err = run(capsys, "verify", "--n", "3", "--check", "diag",
                           "--x", "symbolic")
        assert code == 2

    @pytest.mark.parametrize("check", ["eigen", "involution", "diag"])
    def test_m_without_power_check_rejected(self, capsys, check):
        code, out, err = run(capsys, "verify", "--n", "2", "--check", check, "--m", "3")
        assert (code, out) == (2, "")
        assert "--m sets the power check's exponent" in err
        assert f"--check {check} runs no power check" in err

    def test_pretty_format(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "2", "--check", "involution",
                           "--format", "pretty")
        assert code == 0
        assert out == "[PASS] involution n=2 x=1\n"

    def test_failure_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(spectral, "verify_involution", lambda n, x=1: False)
        code, out, _ = run(capsys, "verify", "--n", "2", "--check", "involution")
        assert code == 1
        assert json.loads(out)[0]["pass"] is False


@pytest.mark.parametrize("x, sizes", [("symbolic", (8, 32)), ("1", (16, 32))])
def test_a_pow_calls_do_not_grow_with_n(monkeypatch, x, sizes):
    """verify --check all forms lambda_1, the lambda step and the scale's
    a^2 by ring.a_pow, and every run of powers (u_1, the tie's f_j, the
    eigenvalues, N(a^k)) by successive products, so the number of a_pow calls
    is the same at every n: 3 over Z[x], and 2 more per exponent at x = 1."""
    real, calls = ring.a_pow, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    for module in (ring, spectral):
        monkeypatch.setattr(module, "a_pow", counted)
    counts = []
    for n in sizes:
        _fresh_caches(monkeypatch, "_eigen_failures", "_read", "_rows")  # so every check runs
        calls.clear()
        assert cli.main(["verify", "--n", str(n), "--check", "all", "--x", x]) == 0
        counts.append(len(calls))
    assert counts == [3 if x == "symbolic" else 3 + 2 * len(cli.DEFAULT_POWER_RANGE)] * 2


def _fresh_caches(monkeypatch, *names):
    """Give the spectral functions ``names`` fresh caches of their size for the test."""
    for name in names:
        cached = getattr(spectral, name)
        monkeypatch.setattr(spectral, name, lru_cache(maxsize=cached.cache_info().maxsize)(
            cached.__wrapped__))


def _w_with_one_entry_off(monkeypatch, i, j):
    """spectral.build_w with entry (i, j), 1-based, off by one, and fresh
    caches for the reading of W and the scale (spectral._rows, _read)."""
    def faulty(n, x):
        rows = [list(row) for row in build_w(n, x).rows]
        rows[i - 1][j - 1] = rows[i - 1][j - 1] + 1
        return RingMatrix(rows)

    monkeypatch.setattr(spectral, "build_w", faulty)
    _fresh_caches(monkeypatch, "_read", "_rows")


class TestFailedClosedForm:
    """A closed form that raises is a FAIL report under verify and an error
    under power, never a traceback."""

    # (2, 4) breaks W's binomial symmetry (ValueError); (3, 3) keeps it and
    # leaves a remainder in the division by 5^(n-1) (ExactDivisionError)
    @pytest.mark.parametrize("entry, error", [((2, 4), "b_i W_ij"), ((3, 3), "not divisible")])
    def test_verify_reports_fail(self, capsys, monkeypatch, entry, error):
        _w_with_one_entry_off(monkeypatch, *entry)
        code, out, err = run(capsys, "verify", "--n", "5", "--check", "power")
        assert (code, err) == (1, "")
        reports = json.loads(out)
        assert [rep["params"] for rep in reports] == [{"m": m} for m in range(-3, 7)]
        assert all(rep["pass"] is False and error in rep["error"] for rep in reports)
        code, out, err = run(capsys, "verify", "--n", "5", "--check", "power", "--m", "2",
                             "--format", "pretty")
        assert (code, err) == (1, "")
        assert out.startswith("[FAIL] power n=5 m=2 error: ") and error in out

    @pytest.mark.parametrize("error", [ExactDivisionError, ValueError])
    def test_batch_error_fails_every_exponent(self, capsys, monkeypatch, error):
        # one batch computes every exponent, so its error is every exponent's
        def broken(n, exponents):
            raise error("digit out of range")

        monkeypatch.setattr(spectral, "matrix_powers_closed_form", broken)
        code, out, err = run(capsys, "verify", "--n", "5", "--check", "power")
        assert (code, err) == (1, "")
        assert json.loads(out) == [{"check": "power", "n": 5, "params": {"m": m}, "pass": False,
                                    "error": "digit out of range"} for m in range(-3, 7)]
        code, out, err = run(capsys, "verify", "--n", "5", "--check", "power", "--format",
                             "pretty")
        assert (code, err) == (1, "")
        assert out == "".join(f"[FAIL] power n=5 m={m} error: digit out of range\n"
                              for m in range(-3, 7))

    @pytest.mark.parametrize("entry", [(2, 4), (3, 3)])
    def test_power_exits_1(self, capsys, monkeypatch, entry):
        _w_with_one_entry_off(monkeypatch, *entry)
        code, out, err = run(capsys, "power", "--n", "5", "--m", "2")
        assert (code, out) == (1, "")
        assert err.startswith("rjpascal: error: ") and err.count("\n") == 1

    def test_passing_reports_have_no_error_key(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "5", "--check", "all")
        assert code == 0
        assert all("error" not in rep for rep in json.loads(out))


class TestPower:
    def test_csv(self, capsys):
        code, out, _ = run(capsys, "power", "--n", "2", "--m", "2",
                           "--format", "csv")
        assert code == 0
        assert out == "1,1\n1,2\n"

    def test_negative_exponent_json(self, capsys):
        code, out, _ = run(capsys, "power", "--n", "2", "--m", "-1",
                           "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["m"] == -1
        assert obj["entries"] == [["-1", "1"], ["1", "0"]]

    def test_pretty(self, capsys):
        code, out, _ = run(capsys, "power", "--n", "1", "--m", "9")
        assert code == 0
        assert out == "[ 1 ]\n"

    @needs_digit_limit
    def test_output_past_int_str_digit_limit(self, capsys):
        # entries of R^-3000 at n = 8 reach 4,389 digits, past CPython's
        # default limit of 4,300 digits on int-to-str conversion
        limit = sys.get_int_max_str_digits()
        code, out, err = run(capsys, "power", "--n", "8", "--m", "-3000",
                             "--format", "csv")
        assert code == 0, err
        assert sys.get_int_max_str_digits() == limit  # lifted for printing only
        assert max(map(len, out.replace("\n", ",").split(","))) > 4300
        sys.set_int_max_str_digits(0)
        try:
            assert out == matrix_power_oracle(8, -3000).to_csv()
        finally:
            sys.set_int_max_str_digits(limit)

    @needs_digit_limit
    @pytest.mark.parametrize("flag", ["--n", "--m"])
    def test_overlong_argument_exits_2(self, capsys, flag):
        argv = {"--n": "2", "--m": "1"}
        argv[flag] = "9" * (sys.get_int_max_str_digits() + 1)
        code, out, err = run(capsys, "power", *(t for kv in argv.items() for t in kv))
        assert code == 2
        assert out == ""
        assert flag in err


class TestPowerBudget:
    """R^m over POWER_DIGIT_BUDGET exits 2 before any work."""

    def largest_m(self, n, budget):
        """The largest m whose R^m estimate fits the budget, by bisection
        below 10 budget (the estimate grows at least 0.8 per unit of m)."""
        lo, hi = 0, 10 * budget
        while lo < hi:
            mid = (lo + hi + 1) // 2
            lo, hi = (mid, hi) if cli.power_digits(n, mid) <= budget else (lo, mid - 1)
        return lo

    def test_estimate_at_the_budget(self):
        budget = cli.POWER_DIGIT_BUDGET
        m = self.largest_m(2, budget)
        assert cli.power_digits(2, m) <= budget < cli.power_digits(2, m + 1)
        assert cli._power_budget_error(2, [m]) is None
        assert cli._power_budget_error(2, [-m]) is None

    def test_one_above_the_budget_exits_2(self, capsys):
        m = self.largest_m(2, cli.POWER_DIGIT_BUDGET) + 1
        for argv in (("power", "--n", "2", "--m", str(m)),
                     ("power", "--n", "2", "--m", str(-m)),
                     ("verify", "--n", "2", "--check", "power", "--m", str(m)),
                     ("verify", "--n", "2", "--check", "all", "--m", str(-m))):
            code, out, err = run(capsys, *argv)
            assert code == 2, argv
            assert out == ""
            assert f"{cli.POWER_DIGIT_BUDGET:,}" in err and "POWER_DIGIT_BUDGET" in err

    def test_boundary_through_the_cli(self, capsys, monkeypatch):
        # a budget that R^7 at n = 4 just fits keeps the run small
        monkeypatch.setattr(cli, "POWER_DIGIT_BUDGET", cli.power_digits(4, 7))
        assert run(capsys, "power", "--n", "4", "--m", "-7")[0] == 0
        assert run(capsys, "verify", "--n", "4", "--check", "power", "--m", "7")[0] == 0
        assert run(capsys, "power", "--n", "4", "--m", "8")[0] == 2
        assert run(capsys, "verify", "--n", "4", "--check", "power", "--m", "-8")[0] == 2

    def test_runaway_exponent_refused(self, capsys):
        code, out, _ = run(capsys, "power", "--n", "2", "--m", "9" * 23)
        assert (code, out) == (2, "")

    def test_one_by_one_needs_one_digit(self, capsys):
        assert cli.power_digits(1, 10 ** 4000) == 1
        assert run(capsys, "power", "--n", "1", "--m", "9" * 23) == (0, "[ 1 ]\n", "")

    def test_m_refused_where_power_is_skipped(self, capsys):
        # --check all runs the power check at x = 1 only; elsewhere --m is a
        # usage error, as under --check eigen, before any budget estimate
        for x in ("symbolic", "0", "2", "-2"):
            code, out, err = run(capsys, "verify", "--n", "2", "--check", "all",
                                 "--x", x, "--m", "9" * 23)
            assert (code, out) == (2, ""), x
            assert "--m sets the power check's exponent" in err
            assert f"--check all runs no power check at x = {x}" in err


class TestIdentities:
    def test_default_run_covers_all_six(self, capsys):
        code, out, _ = run(capsys, "identities")
        assert code == 0
        reports = json.loads(out)
        assert len(reports) == 6
        assert all(rep["failures"] == [] for rep in reports)
        assert {rep["identity"] for rep in reports} == {
            "star", "trinomial", "trinomial-companion",
            "vandermonde", "alternating", "double-delta",
        }

    def test_single_identity_small_box(self, capsys):
        code, out, _ = run(capsys, "identities", "--only", "star",
                           "--N", "-2..3", "--J", "-2..3", "--K", "-2..3")
        assert code == 0
        reports = json.loads(out)
        assert len(reports) == 1
        rep = reports[0]
        assert rep["identity"] == "star"
        assert rep["cases_checked"] == 6 ** 3
        assert rep["failures"] == []

    def test_double_delta_spec_box(self, capsys):
        code, out, _ = run(capsys, "identities", "--only", "double-delta",
                           "--N", "-8..12", "--L", "0..12")
        assert code == 0
        rep = json.loads(out)[0]
        assert rep["cases_checked"] == 21 * 13
        assert rep["failures"] == []

    def test_alternating_negative_range_rejected(self, capsys):
        code, _, err = run(capsys, "identities", "--only", "alternating",
                           "--N", "-1..5")
        assert code == 2
        assert "N >= 0" in err

    def test_report_roundtrip(self, capsys):
        box = {"M": (-2, 2), "N": (-2, 2), "L": (0, 2)}
        code, out, _ = run(capsys, "identities", "--only", "vandermonde",
                           "--M", "-2..2", "--N", "-2..2", "--L", "0..2")
        assert code == 0
        obj = [sweep_identity(Identity.VANDERMONDE, box).to_json()]
        assert json.loads(out) == json.loads(json.dumps(obj, default=skipped_dicts))

    def test_pretty(self, capsys):
        code, out, _ = run(capsys, "identities", "--only", "trinomial",
                           "--I", "0..3", "--J", "0..3", "--K", "0..3",
                           "--format", "pretty")
        assert code == 0
        assert "trinomial: I=0..3 J=0..3 K=0..3 -> 64 cases, 0 failures" in out

    def test_failure_exit_code(self, capsys, monkeypatch):
        from rjpascal.binomial import Identity, IdentityCase, IdentityReport, SkippedPoints

        def fake_sweep(ident, box):
            case = IdentityCase(ident, {"N": 0}, 1, 0)
            return IdentityReport(ident, dict(box), 1, [case], SkippedPoints(ident, [range(0)]))

        monkeypatch.setattr(binomial, "sweep_identity", fake_sweep)
        code, out, _ = run(capsys, "identities", "--only", "alternating")
        assert code == 1
        assert json.loads(out)[0]["failures"]


def skipped_dicts(skipped) -> list[dict]:
    """json.dumps's default for a report's SkippedPoints: one dict per point."""
    return [case.to_json() for case in skipped]


def per_point_report(identity, box) -> dict:
    """The JSON report of a passing sweep, with one dict per skipped point."""
    skipped = []
    for point in itertools.product(*(range(lo, hi + 1) for lo, hi in box.values())):
        p = dict(zip(identity.param_names, point))
        if identity is Identity.TRINOMIAL_COMPANION and p["I"] < 0:
            skipped.append({"params": p, "reason": binomial.COMPANION_DOMAIN_REASON})
        elif identity is Identity.VANDERMONDE and p["M"] < 0 and p["N"] < 0:
            reason = (f"convolution with both upper parameters negative "
                      f"(M={p['M']}, N={p['N']}) is rejected")
            skipped.append({"params": p, "reason": reason})
    return {"identity": identity.value, "box": {k: list(v) for k, v in box.items()},
            "cases_checked": math.prod(hi - lo + 1 for lo, hi in box.values()),
            "failures": [], "skipped": skipped}


class TestSkippedLines:
    """Skipped points are written a line at a time, byte for byte as
    json.dumps writes them with one dict per point."""

    BOXES = {
        "companion": {Identity.TRINOMIAL_COMPANION: {"I": (-3, 2), "J": (-1, 2), "K": (0, 3)}},
        "vandermonde-some": {Identity.VANDERMONDE: {"M": (-3, 2), "N": (-3, 2), "L": (-2, 3)}},
        "vandermonde-all": {Identity.VANDERMONDE: {"M": (-3, -1), "N": (-4, -1), "L": (-12, 24)}},
        "vandermonde-one-value": {Identity.VANDERMONDE: {"M": (-2, 1), "N": (-2, -1), "L": (7, 7)}},
        "vandermonde-none": {Identity.VANDERMONDE: {"M": (0, 2), "N": (-3, 2), "L": (0, 2)}},
        "defaults": binomial.DEFAULT_BOXES,
    }

    @staticmethod
    def argv(boxes):
        if boxes is binomial.DEFAULT_BOXES:
            return ["identities"]
        (ident, box), = boxes.items()
        return ["identities", "--only", ident.value,
                *(f"--{name}={lo}..{hi}" for name, (lo, hi) in box.items())]

    @pytest.mark.parametrize("boxes", BOXES.values(), ids=BOXES.keys())
    def test_json_bytes(self, capsys, boxes):
        code, out, _ = run(capsys, *self.argv(boxes))
        want = [per_point_report(ident, box) for ident, box in boxes.items()]
        assert code == 0
        assert out == json.dumps(want, indent=2) + "\n"

    @pytest.mark.parametrize("boxes", BOXES.values(), ids=BOXES.keys())
    def test_pretty_counts(self, capsys, boxes):
        code, out, _ = run(capsys, *self.argv(boxes), "--format", "pretty")
        want = []
        for ident, box in boxes.items():
            rep = per_point_report(ident, box)
            ranges = " ".join(f"{k}={lo}..{hi}" for k, (lo, hi) in box.items())
            want.append(f"{ident.value}: {ranges} -> {rep['cases_checked']} cases, "
                        f"0 failures, {len(rep['skipped'])} skipped\n")
        assert code == 0
        assert out == "".join(want)


class TestSweepBudget:
    """identities refuses boxes over binomial.SWEEP_TERM_BUDGET before any sweep."""

    BOX = ("--only", "star", "--N=-3..4", "--J=-2..2", "--K=-1..5")

    def test_boundary_through_the_cli(self, capsys, monkeypatch):
        terms = binomial.sweep_terms(Identity.STAR, {"N": (-3, 4), "J": (-2, 2), "K": (-1, 5)})
        monkeypatch.setattr(binomial, "SWEEP_TERM_BUDGET", terms)
        assert run(capsys, "identities", *self.BOX)[0] == 0
        monkeypatch.setattr(binomial, "SWEEP_TERM_BUDGET", terms - 1)
        code, out, err = run(capsys, "identities", *self.BOX)
        assert (code, out) == (2, "")
        assert f"{terms - 1:,}" in err and "SWEEP_TERM_BUDGET" in err

    def test_refused_before_any_sweep(self, capsys, monkeypatch):
        # vandermonde and double-delta read --L; the four sweeps before
        # vandermonde must not run either
        def no_sweep(ident, box):
            raise AssertionError(f"{ident.value} swept")

        monkeypatch.setattr(binomial, "sweep_identity", no_sweep)
        code, out, err = run(capsys, "identities", "--L", "0..100000")
        assert (code, out) == (2, "")
        assert err.startswith("rjpascal: error: vandermonde sweep would evaluate ")
        assert f"{binomial.SWEEP_TERM_BUDGET:,}" in err

    def test_runaway_box_refused(self, capsys):
        code, out, err = run(capsys, "identities", "--only", "trinomial",
                             "--I", "0..999999999", "--J", "0..9", "--K", "0..9")
        assert (code, out) == (2, "")
        assert "SWEEP_TERM_BUDGET" in err


class TestDoubleRange:
    """Numeric checks whose values leave the double range exit 2."""

    @pytest.mark.parametrize("argv,what", [
        (("verify", "--n", "3", "--check", "diag", "--x", str(10 ** 160)), "diag check"),
        (("verify", "--n", "3", "--check", "all", "--x", str(-10 ** 160)), "diag check"),
        (("eigen", "--n", "3", "--x", str(10 ** 320)), "eigenvalue gap"),
        (("eigen", "--n", "3", "--x", str(10 ** 320), "--format", "json"), "eigenvalue gap"),
    ], ids=["verify-diag", "verify-all", "eigen-pretty", "eigen-json"])
    def test_exit_2_naming_n_x_and_the_range(self, capsys, argv, what):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        x = argv[argv.index("--x") + 1]
        assert err == (f"rjpascal: error: the numeric {what} at n = 3, x = {x} needs values "
                       f"beyond the range of a double (magnitude at most 1.798e+308)\n")

    def test_edge_of_the_range(self, capsys):
        # the largest value the n = 3 check rounds is (1 + a^2)^2, about
        # x^4, which passes the largest double near x = 1.16e77
        code, out, _ = run(capsys, "verify", "--n", "3", "--check", "diag", "--x", str(10 ** 77))
        assert code == 0
        assert [rep["check"] for rep in json.loads(out)] == ["diag-involution", "diag-eigen"]
        code, out, _ = run(capsys, "verify", "--n", "3", "--check", "diag", "--x", str(2 * 10 ** 77))
        assert (code, out) == (2, "")


#: JSON keys and strings: quotes, backslashes, control characters, lone
#: surrogates and text outside ASCII, which json.dumps writes escaped.
json_text = st.text(st.sampled_from('"\\/\x00\x1f\x7f\n\t aZ\u00e9\u2028\ud800\U0001f600'),
                    max_size=8) | st.text(st.characters(exclude_categories=()), max_size=8)
json_scalars = (st.none() | st.booleans() | st.integers(-2 ** 300, 2 ** 300) | st.floats()
                | st.sampled_from([-0.0, 1e308, math.nan, math.inf, -math.inf]) | json_text)


def json_values(depth: int = 4):
    """Scalars, lists, tuples and str-keyed dicts nested at most depth deep."""
    values = json_scalars
    for _ in range(depth):
        values = (json_scalars | st.lists(values, max_size=4)
                  | st.lists(values, max_size=3).map(tuple)
                  | st.dictionaries(json_text, values, max_size=4))
    return values


class Pair(NamedTuple):
    left: object
    right: object


class Row(list):
    pass


#: The scalars that _emit_json leaves to json.dumps.
RARE = [True, False, None, 1.5, -0.0, math.nan, math.inf, -math.inf]


class TestEmitJson:
    """_emit_json prints json.dumps(obj, indent=2), written in batches."""

    OBJECTS = {
        "several-batches": [{"params": {"N": i, "K": -i}, "reason": "r" * (i % 7)}
                            for i in range(3 * cli._EMIT_BATCH // 10)],
        "empty-list": [],
        "scalar": 42,
        "string": "a \"quoted\" \u00e9",
        # json.dumps indents every list, tuple and dict subclass; a dispatch
        # on the exact type would write these on one line
        "namedtuple": Pair(RARE, {"z": Pair(-math.inf, None)}),
        "ordereddict": OrderedDict([("b", RARE), ("a", OrderedDict(c=Row(RARE)))]),
        "list-subclass": Row([Pair(True, 1.5), OrderedDict(n=math.nan), Row([False])]),
        "nested": {"t": Pair(Row(RARE), OrderedDict(x=-0.0)), "l": [Row([]), Pair((), {})]},
        **{f"top-level-{v!r}": v for v in RARE},
    }

    @pytest.mark.parametrize("obj", OBJECTS.values(), ids=OBJECTS.keys())
    def test_same_bytes_as_dumps(self, capsys, obj):
        cli._emit_json(obj)
        assert capsys.readouterr().out == json.dumps(obj, indent=2) + "\n"

    @settings(max_examples=300, deadline=None)
    @given(json_values())
    def test_same_bytes_as_dumps_for_any_document(self, obj):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli._emit_json(obj)
        assert out.getvalue() == json.dumps(obj, indent=2) + "\n"

    @pytest.mark.parametrize("obj", [{1, 2}, [0, {"a": {3}}], {"a": {(1, 2): 3}},
                                     [object()], [1j], [b"x"], {"a": decimal.Decimal(1)}],
                             ids=["set", "nested-set", "tuple-key", "object",
                                  "complex", "bytes", "decimal"])
    def test_rejects_what_dumps_rejects_and_non_str_keys(self, obj):
        with pytest.raises(TypeError):
            cli._emit_json(obj)

    def test_writes_an_int_key_as_dumps_does(self, capsys):
        cli._emit_json({1: 2})
        assert capsys.readouterr().out == json.dumps({1: 2}, indent=2) + "\n" == '{\n  "1": 2\n}\n'

    #: a sweep's skipped points for each rule (companion I < 0, Vandermonde
    #: M, N < 0), and how many there are
    SKIPPED = {
        "companion": (Identity.TRINOMIAL_COMPANION, {"I": (-3, 2), "J": (-1, 2), "K": (0, 3)}, 48),
        "companion-one-last-value": (Identity.TRINOMIAL_COMPANION,
                                     {"I": (-2, 1), "J": (0, 2), "K": (4, 4)}, 6),
        "vandermonde": (Identity.VANDERMONDE, {"M": (-3, 1), "N": (-2, 1), "L": (0, 3)}, 24),
        "vandermonde-one-last-value": (Identity.VANDERMONDE,
                                       {"M": (-2, 0), "N": (-1, 1), "L": (5, 5)}, 2),
        "empty": (Identity.VANDERMONDE, {"M": (0, 2), "N": (-2, 1), "L": (0, 3)}, 0),
    }
    DEPTHS = {
        "document": lambda seq: seq,
        "list-item": lambda seq: [0, seq],
        "dict-value": lambda seq: [{"report": {"skipped": seq, "n": 1}}],
    }

    @pytest.mark.parametrize("depth", DEPTHS.values(), ids=DEPTHS.keys())
    @pytest.mark.parametrize("identity,box,points", SKIPPED.values(), ids=SKIPPED.keys())
    def test_skipped_points_as_dumps_writes_their_dicts(self, capsys, identity, box, points,
                                                        depth):
        # the emitter writes these from cli._skipped_lines, not by json's encoder
        skipped = sweep_identity(identity, box).skipped
        assert isinstance(skipped, binomial.SkippedPoints) and len(skipped) == points
        obj = depth(skipped)
        cli._emit_json(obj)
        assert capsys.readouterr().out == json.dumps(obj, indent=2, default=skipped_dicts) + "\n"

    def test_writes_per_batch_not_per_chunk(self, monkeypatch):
        class CountingStdout:
            def __init__(self):
                self.parts = []

            def write(self, text):
                self.parts.append(text)

        # The 1.05 MB Vandermonde report on -12..24 arrives in many writes
        # of at most 1/16 of it each, so the document is never held whole;
        # json.dumps expands its skipped points with default=skipped_dicts
        box = {name: (-12, 24) for name in "MNL"}
        obj = [sweep_identity(Identity.VANDERMONDE, box).to_json()]
        want = json.dumps(obj, indent=2, default=skipped_dicts) + "\n"
        stub = CountingStdout()
        monkeypatch.setattr(sys, "stdout", stub)
        cli._emit_json(obj)
        assert "".join(stub.parts) == want
        assert len(stub.parts) >= 16
        assert max(map(len, stub.parts)) <= len(want) // 16


class TestUsageErrors:
    def test_missing_n(self, capsys):
        code, _, err = run(capsys, "show-r")
        assert code == 2
        assert "required" in err

    def test_unknown_command(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2

    def test_bad_x(self, capsys):
        code, _, _ = run(capsys, "show-r", "--n", "2", "--x", "golden")
        assert code == 2

    def test_bad_dimension(self, capsys):
        code, _, _ = run(capsys, "show-r", "--n", "0")
        assert code == 2

    def test_bad_range(self, capsys):
        code, _, _ = run(capsys, "identities", "--only", "star", "--N", "5..1")
        assert code == 2

    def test_power_missing_m(self, capsys):
        code, _, _ = run(capsys, "power", "--n", "2")
        assert code == 2

    @pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1"])
    def test_bad_tol(self, capsys, tol):
        # inf passed any residual and printed invalid JSON; the rest failed correct matrices
        code, out, err = run(capsys, "verify", "--check", "diag", "--n", "4", f"--tol={tol}")
        assert code == 2
        assert out == ""
        assert "tolerance must be finite and > 0" in err

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "identities" in out


@pytest.mark.parametrize("argv", [["verify", "--n", "8", "--check", "all"],
                                  ["eigen", "--n", "4"]], ids=["verify", "eigen"])
def test_cli_runs_on_stdlib_alone(argv):
    # -S leaves site-packages off sys.path, so no third-party package,
    # numeric or otherwise, can be imported
    src = Path(__file__).resolve().parent.parent / "src"
    code = f"import sys; from rjpascal.cli import main; sys.exit(main({argv!r}))"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_cli_import_skips_dataclasses():
    # dataclasses pulls in inspect (and ast, dis, tokenize): about 10 ms of
    # import time that every command would pay
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import sys, rjpascal.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_commands_import_only_the_modules_they_call():
    # each command runs in a fresh process, where compiling a module it never
    # calls costs a few ms; a sweep loads the engine, no matrix command does
    src = Path(__file__).resolve().parent.parent / "src"
    prelude = """if True:
        import contextlib, io, sys
        from rjpascal.cli import main
        def loaded(*argv):
            if argv:
                with contextlib.redirect_stdout(io.StringIO()):
                    assert main(list(argv)) == 0
            return sorted(m for m in ("rjpascal.binomial", "rjpascal.ring", "rjpascal.pascal",
                                      "rjpascal.spectral") if m in sys.modules)
    """
    sweep = """
        print(loaded("identities", "--only", "alternating"))
    """
    matrix = """
        print(loaded())
        from rjpascal import binom
        print(loaded())
        print(loaded("show-r", "--n", "1"))
        for cmd in ("show-r", "show-u", "show-w"):
            print(loaded(cmd, "--n", "3", "--x", "symbolic"))
        print(loaded("eigen", "--n", "3"))
        print(loaded("power", "--n", "3", "--m", "-2"))
        print(loaded("verify", "--n", "3", "--check", "all"))
        print(loaded("verify", "--n", "3", "--check", "all", "--x", "symbolic"))
        import rjpascal
        from rjpascal import *
        homes = {"binomial": "sweep_identity", "comb": "Identity binom",
                 "pascal": "build_r build_rx build_u build_w",
                 "ring": "A ONE X IntPoly a_pow",
                 "spectral": "eigenvalue verify_eigenpair verify_involution "
                             "matrix_power_closed_form matrix_power_oracle"}
        bound = {name: vars(sys.modules["rjpascal." + home])[name]
                 for home, names in homes.items() for name in names.split()}
        print(sorted(bound) == sorted(rjpascal.__all__),
              all(globals()[name] is obj for name, obj in bound.items()))
        from rjpascal import binomial, comb, spectral
        print(spectral is sys.modules["rjpascal.spectral"],
              all(vars(binomial)[name] is vars(comb)[name]
                  for name in ("binom", "Identity", "DEFAULT_BOXES")))
    """
    env = dict(os.environ, PYTHONPATH=str(src))
    out = []
    for code in (prelude + sweep, prelude + matrix):
        proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        out += proc.stdout.splitlines()
    builders = "['rjpascal.pascal', 'rjpascal.ring']"
    checks = "['rjpascal.pascal', 'rjpascal.ring', 'rjpascal.spectral']"
    assert out == ["['rjpascal.binomial']", "[]", "[]", *[builders] * 4, *[checks] * 4,
                   "True True", "True True"]


def test_closed_pipe_exits_quietly():
    # `rjpascal identities | head -c 64`: the 600 KB report outgrows the
    # pipe's buffer, so a write meets the closed pipe
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.Popen([sys.executable, "-m", "rjpascal", "identities"], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        head = proc.stdout.read(64)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.stderr.close()
    assert head.startswith(b"[")
    assert err == b""
    assert proc.returncode == cli.EXIT_BROKEN_PIPE
