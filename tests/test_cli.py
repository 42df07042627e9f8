"""CLI tests: flag surface, output formats, exit codes."""
import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rjpascal import binomial, cli, spectral
from rjpascal.binomial import Identity, sweep_identity
from rjpascal.pascal import build_r, build_u, build_w
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
        def refuse(n):
            raise AssertionError("R(x) was built for a rejected format")

        monkeypatch.setattr(cli, "build_rx", refuse)
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
        assert json.loads(out) == build_u(3).specialize(1).to_json()

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

        spectral._eigen_sides.cache_clear()
        monkeypatch.setattr(spectral, "eigenvalues", wrong_at_3)
        try:
            code, out, _ = run(capsys, "verify", "--n", "5", "--check", "eigen", "--x", x)
        finally:
            spectral._eigen_sides.cache_clear()
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
        true_lam = spectral.eigenvalues_numeric

        def swapped(n, x=1):
            lam = true_lam(n, x)
            lam[0], lam[-1] = lam[-1], lam[0]
            return lam

        monkeypatch.setattr(spectral, "eigenvalues_numeric", swapped)
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
        monkeypatch.setattr(cli.spectral, "verify_involution", lambda n, x=1: False)
        code, out, _ = run(capsys, "verify", "--n", "2", "--check", "involution")
        assert code == 1
        assert json.loads(out)[0]["pass"] is False


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

    def test_budget_ignored_where_power_is_skipped(self, capsys):
        code, _, _ = run(capsys, "verify", "--n", "2", "--check", "all",
                         "--x", "symbolic", "--m", "9" * 23)
        assert code == 0


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
        assert json.loads(out) == [sweep_identity(Identity.VANDERMONDE, box).to_json()]

    def test_pretty(self, capsys):
        code, out, _ = run(capsys, "identities", "--only", "trinomial",
                           "--I", "0..3", "--J", "0..3", "--K", "0..3",
                           "--format", "pretty")
        assert code == 0
        assert "trinomial: I=0..3 J=0..3 K=0..3 -> 64 cases, 0 failures" in out

    def test_failure_exit_code(self, capsys, monkeypatch):
        from rjpascal.binomial import Identity, IdentityCase, IdentityReport

        def fake_sweep(ident, box):
            case = IdentityCase(ident, {"N": 0}, 1, 0)
            return IdentityReport(ident, dict(box), 1, [case], [])

        monkeypatch.setattr(cli, "sweep_identity", fake_sweep)
        code, out, _ = run(capsys, "identities", "--only", "alternating")
        assert code == 1
        assert json.loads(out)[0]["failures"]


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

        monkeypatch.setattr(cli, "sweep_identity", no_sweep)
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


class TestEmitJson:
    """_emit_json prints json.dumps(obj, indent=2), written in batches."""

    OBJECTS = {
        "several-batches": [{"params": {"N": i, "K": -i}, "reason": "r" * (i % 7)}
                            for i in range(3 * cli._EMIT_BATCH // 10)],
        "empty-list": [],
        "scalar": 42,
        "string": "a \"quoted\" \u00e9",
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

    @pytest.mark.parametrize("obj", [{1, 2}, [0, {"a": {3}}], {1: 2}, {"a": {(1, 2): 3}},
                                     [object()]],
                             ids=["set", "nested-set", "int-key", "tuple-key", "object"])
    def test_rejects_what_dumps_rejects_and_non_str_keys(self, obj):
        with pytest.raises(TypeError):
            cli._emit_json(obj)

    def test_writes_per_batch_not_per_chunk(self, monkeypatch):
        class CountingStdout:
            def __init__(self):
                self.parts = []

            def write(self, text):
                self.parts.append(text)

        # The 1.05 MB Vandermonde report on -12..24 arrives in many writes
        # of at most 1/16 of it each, so the document is never held whole
        box = {name: (-12, 24) for name in "MNL"}
        obj = [sweep_identity(Identity.VANDERMONDE, box).to_json()]
        want = json.dumps(obj, indent=2) + "\n"
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
