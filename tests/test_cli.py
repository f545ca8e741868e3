import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import cfinite
from cfinite import cli, corpus, guess

from cfinite.cli import main
from cfinite.core import CFiniteSeq, format_seq, parse_seq
from cfinite.dimers import dimer_seq
from cfinite.guess import mul


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out.strip(), out.err.strip()


class TestGuess:
    def test_fibonacci(self, capsys):
        code, out, _ = run(capsys, "guess", "0,1,1,2,3,5,8,13,21,34")
        assert code == 0
        assert out == "[[0, 1], [1, 1]]"

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "--json", "guess", "0,1,1,2,3,5,8,13,21,34")
        assert code == 0
        assert json.loads(out) == {"init": ["0", "1"], "rec": ["1", "1"]}

    def test_no_recurrence_exit_1(self, capsys):
        code, _, err = run(
            capsys, "guess", "1,1,2,6,24,120,720,5040", "--max-order", "2"
        )
        assert code == 1
        assert "no linear recurrence" in err

    def test_bad_terms_exit_2(self, capsys):
        code, _, err = run(capsys, "guess", "1,two,3,4")
        assert code == 2


class TestTermsAndOps:
    def test_terms(self, capsys):
        code, out, _ = run(capsys, "terms", "[[0,1],[1,1]]", "8")
        assert code == 0
        assert out == "0, 1, 1, 2, 3, 5, 8, 13"

    def test_add(self, capsys):
        code, out, _ = run(capsys, "add", "[[0,1],[1,1]]", "[[2,1],[1,1]]")
        assert code == 0
        assert out == "[[2, 2], [1, 1]]"

    def test_mul(self, capsys):
        code, out, _ = run(capsys, "mul", "[[0,1],[1,1]]", "[[0,1],[1,1]]")
        assert code == 0
        assert out == "[[0, 1, 1], [2, 2, -1]]"

    def test_bt_psum_subseq(self, capsys):
        assert run(capsys, "bt", "[[0,1],[1,1]]")[1] == "[[0, 1], [3, -1]]"
        assert run(capsys, "psum", "[[0,1],[1,1]]")[1] == "[[0, 1, 2], [2, 0, -1]]"
        assert run(capsys, "subseq", "[[0,1],[1,1]]", "2")[1] == "[[0, 1], [3, -1]]"

    def test_seq_file_input(self, capsys, tmp_path):
        p = tmp_path / "fib.txt"
        p.write_text("# the Fibonacci numbers\n[[0,1],[1,1]]\n")
        code, out, _ = run(capsys, "terms", f"@{p}", "5")
        assert code == 0
        assert out == "0, 1, 1, 2, 3"

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, _ = run(capsys, "terms", f"@{tmp_path}/nope.txt", "5")
        assert code == 2

    def test_empty_file_exit_2(self, capsys, tmp_path):
        p = tmp_path / "empty.txt"
        p.write_text("")
        code, out, err = run(capsys, "terms", f"@{p}", "3")
        assert (code, out) == (2, "")
        assert err.splitlines()[0] == f"error: no sequence literal found in {p}"

    def test_malformed_seq_exit_2(self, capsys):
        code, _, _ = run(capsys, "terms", "[[0,1]]", "5")
        assert code == 2

    @pytest.mark.parametrize(
        "module, kernel, argv",
        [
            (cli, "eval_terms", ["terms", "[[1],[2]]", "200000"]),
            (guess, "subsequence", ["subseq", "[[1,1],[1,1]]", "100000"]),
        ],
    )
    def test_out_of_memory_exit_2(self, capsys, monkeypatch, module, kernel, argv):
        # the kernel raises at once, so nothing large is allocated
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(module, kernel, exhausted)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: out of memory") and "\n" not in err


class TestGF:
    def test_seq_to_gf(self, capsys):
        code, out, _ = run(capsys, "gf", "[[0,1],[1,1]]")
        assert code == 0
        assert out == "(z)/(1 - z - z^2)"

    def test_gf_to_seq(self, capsys):
        code, out, _ = run(capsys, "gf", "(z)/(1 - z - z^2)")
        assert code == 0
        assert out == "[[0, 1], [1, 1]]"

    def test_round_trip_via_json(self, capsys):
        code, out, _ = run(capsys, "--json", "gf", "[[0,1],[1,1]]")
        data = json.loads(out)
        assert data["denominator"] == ["1", "-1", "-1"]

    def test_sparse_denominator_is_fast(self, capsys):
        # the series division must skip the 2,999 zero coefficients of 1 - z^3000
        start = time.perf_counter()
        code, out, _ = run(capsys, "gf", "(1)/(1-z^3000)")
        assert code == 0
        assert time.perf_counter() - start < 1.0
        assert parse_seq(out).rec == (0,) * 2999 + (1,)


    @pytest.mark.parametrize("literal", ["z^100001", "1-z^1000000", "(1)/(1-z^100001)"])
    def test_exponent_above_the_limit_exit_2(self, capsys, monkeypatch, literal):
        # refused while parsing: no coefficient list longer than the "1" of a
        # numerator is built
        real = cli.gf.Polynomial

        def short(coeffs=()):
            coeffs = list(coeffs)
            assert len(coeffs) <= 1, "a coefficient list was built"
            return real(coeffs)

        monkeypatch.setattr(cli.gf, "Polynomial", short)
        code, out, err = run(capsys, "gf", literal)
        assert (code, out) == (2, "")
        assert "above the limit 100000" in err and "usage:" in err


class TestProve:
    def test_verified_exit_0(self, capsys):
        code, out, _ = run(capsys, "prove", "[[0,1],[1,1]]", "[[0,1,1,2],[1,1,0,0]]")
        assert code == 0
        assert "VERIFIED" in out

    def test_not_equal_exit_1(self, capsys):
        code, out, _ = run(capsys, "prove", "[[0,1],[1,1]]", "[[2,1],[1,1]]")
        assert code == 1
        assert "NOT VERIFIED" in out

    def test_json_certificate(self, capsys):
        code, out, _ = run(
            capsys, "--json", "prove", "[[0,1],[1,1]]", "[[0,1],[1,1]]"
        )
        assert code == 0
        data = json.loads(out)
        assert data["verified"] is True
        assert data["order_bound"] == 4


class TestAnalysis:
    def test_indicator(self, capsys):
        code, out, _ = run(capsys, "indicator", "2", "2")
        assert code == 0
        assert out == "[1, 1, 1, 1, 2, 2, 2, 2, 4]"

    def test_indicator_too_large_exit_2_promptly(self, capsys):
        # 1000 x 1000 would classify 10^12 ratios; refused before any work
        start = time.perf_counter()
        code, _, err = run(capsys, "indicator", "1000", "1000")
        assert code == 2
        assert "exceeds 1024" in err
        assert time.perf_counter() - start < 1.0

    def test_isprod_yes(self, capsys):
        code, out, _ = run(
            capsys, "isprod", "[[0, 1, 2, 10], [2, 7, 2, -1]]", "--orders", "2,2"
        )
        assert code == 0
        assert out.startswith("YES")

    def test_isprod_no_exit_1(self, capsys):
        # 2^n + 3^n + 5^n + 7^n
        code, out, _ = run(
            capsys,
            "isprod",
            "[[4, 17, 87, 503], [17, -101, 247, -210]]",
            "--orders",
            "2,2",
        )
        assert code == 1
        assert out.startswith("NO")

    def test_isprod_order_mismatch_exit_2(self, capsys):
        code, _, err = run(capsys, "isprod", "[[0,1],[1,1]]", "--orders", "2,2")
        assert code == 2

    @pytest.mark.parametrize("orders", ["0,2", "2,-1"])
    def test_isprod_bad_orders_exit_2(self, capsys, orders):
        code, _, err = run(capsys, "isprod", "[[0,1],[1,1]]", "--orders", orders)
        assert code == 2
        assert "orders must be a nonempty list of counts >= 1" in err

    @pytest.mark.parametrize(
        "orders, message", [("2,x", "bad order list: '2,x'"), (",", "empty order list")]
    )
    def test_isprod_unreadable_orders_exit_2(self, capsys, orders, message):
        code, out, err = run(capsys, "isprod", "[[0,1],[1,1]]", "--orders", orders)
        assert (code, out) == (2, "")
        assert err.splitlines()[0] == f"error: {message}"

    def test_isprod_order_limit_exit_2(self, capsys):
        code, _, err = run(capsys, "isprod", "[[0,1],[1,1]]", "--orders", "33,32")
        assert code == 2
        assert "exceeds 1024" in err

    def test_factor(self, capsys):
        code, out, _ = run(
            capsys, "--json", "factor", "[[0, 1, 2, 10], [2, 7, 2, -1]]",
            "--orders", "2,2",
        )
        assert code == 0
        data = json.loads(out)
        assert data["verified"] is True
        assert data["left"] == {"init": ["0", "1"], "rec": ["1", "1"]}
        assert data["right"] == {"init": ["0", "1"], "rec": ["2", "1"]}

    def test_factor_integer_mode(self, capsys):
        code, out, _ = run(
            capsys, "--json", "factor", "[[0, 1, 2, 10], [2, 7, 2, -1]]",
            "--orders", "2,2", "--mode", "integer", "--bound", "2",
        )
        assert code == 0
        assert json.loads(out)["verified"] is True

    def test_factor_integer_mode_left_factor_with_zero_terms(self, capsys):
        # [[0, 1], [0, 2]] x [[1, 0], [3, 1]]: the left factor vanishes at
        # every other index
        code, out, _ = run(
            capsys, "--json", "factor", "[[0, 0, 0, 6], [0, 22, 0, -4]]",
            "--orders", "2,2", "--mode", "integer", "--bound", "2",
        )
        assert code == 0
        data = json.loads(out)
        assert data["left"] == {"init": ["0", "1"], "rec": ["0", "2"]}
        assert data["right"] == {"init": ["-1", "0"], "rec": ["-3", "1"]}

    def test_nlr(self, capsys):
        terms = [0, 1]
        while len(terms) < 80:
            terms.append(terms[-1] + terms[-2])
        code, out, _ = run(
            capsys, "nlr", ",".join(map(str, terms)), "--order", "2", "--degree", "4"
        )
        assert code == 0
        assert out.endswith("= 0")

    def test_nlr_none_found_exit_1(self, capsys):
        # no c0 + c1 a(n) = 0 holds for a(n) = n + 1
        terms = ",".join(map(str, range(1, 21)))
        code, out, err = run(capsys, "nlr", terms, "--order", "0", "--degree", "1")
        assert (code, out, err) == (1, "", "no polynomial relation found")

    def test_nlr_skips_zero_coefficients(self, capsys):
        terms = [0, 1]
        while len(terms) < 30:
            terms.append(terms[-1] + terms[-2])
        argv = ("nlr", ",".join(map(str, terms)), "--order", "2", "--degree", "2")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == "a(n) - a(n-1) - a(n-2) = 0"
        code, out, _ = run(capsys, "--json", *argv)
        assert code == 0
        assert json.loads(out)["text"] == "a(n) - a(n-1) - a(n-2) = 0"

    # a factor coefficient near 10^24, times Fibonacci
    BIG_PRODUCT = format_seq(
        mul(CFiniteSeq([1, 2], [999999000001 * 1000000000039, 1]), CFiniteSeq([0, 1], [1, 1]))
    )

    def test_isprod_huge_coefficients_yes(self, capsys):
        code, out, _ = run(
            capsys, "isprod", self.BIG_PRODUCT, "--orders", "2,2", "--digits", "50"
        )
        assert code == 0
        assert out.startswith("YES")

    def test_factor_huge_coefficients(self, capsys):
        code, out, _ = run(
            capsys, "factor", self.BIG_PRODUCT, "--orders", "2,2", "--digits", "50"
        )
        assert code == 0
        assert out.splitlines()[:2] == [
            "left  = [[0, 1], [1, 1]]",
            "right = [[1, 2], [999999000039999961000039, 1]]",
        ]
        assert "VERIFIED" in out

    def test_factor_roots_plus_minus(self, capsys):
        # the order-2 factor has roots +a and -a
        code, out, _ = run(
            capsys, "factor", "[[2,-1,0,-6,18,-27],[0,7,0,-3,0,9]]", "--orders", "2,3"
        )
        assert code == 0
        assert "VERIFIED" in out

    def test_factor_two_large_primes_in_one_coefficient(self, capsys):
        literal = format_seq(
            mul(
                CFiniteSeq([1, 1], [2 * 1000003 * 1000033, 7]),
                CFiniteSeq([1, 2, 1], [1, 2, -3]),
            )
        )
        code, out, _ = run(
            capsys, "factor", literal, "--orders", "2,3", "--digits", "50"
        )
        assert code == 0
        assert out.splitlines()[:2] == [
            "left  = [[1, 1], [2000072000198, 7]]",
            "right = [[1, 2, 1], [1, 2, -3]]",
        ]

    def test_factor_precision_error_exit_2(self, capsys):
        # the width-6 strip splits as 2 x 4 only over a number field: its
        # root grids exist mod p, but no lift reconstructs rational factors
        code, out, err = run(
            capsys, "factor", format_seq(dimer_seq(6)), "--orders", "2,4", "--digits", "50"
        )
        assert code == 2
        assert out == ""
        assert err.startswith(
            "error: a consistent root grid exists but rational reconstruction "
            "failed even at 200 digits"
        )
        # the exact order-2 route factors 2 x 2
        code, out, _ = run(
            capsys, "factor", self.BIG_PRODUCT, "--orders", "2,2", "--digits", "50"
        )
        assert code == 0
        assert "VERIFIED" in out

    @pytest.mark.parametrize("verb", ["isprod", "factor"])
    def test_intrinsic_zero_root_exit_2(self, capsys, verb):
        # 1, 2, 3, 1, 0, 0, ...: already minimal, z = 0 stays a root
        code, _, err = run(capsys, verb, "[[1,2,3,1],[0,0,0,0]]", "--orders", "2,2")
        assert code == 2
        assert "z = 0 is a characteristic root" in err
        assert "transient start" in err
        assert "minimize the sequence first" not in err


class TestDimerCLI:
    def test_terms(self, capsys):
        code, out, _ = run(capsys, "dimer", "--width", "2", "--terms", "5")
        assert code == 0
        assert out == "1, 2, 3, 5, 8"

    def test_report(self, capsys):
        code, out, _ = run(capsys, "dimer", "--width", "4", "--report-product")
        assert code == 0
        assert "YES" in out

    def test_report_width_eight(self, capsys):
        code, out, _ = run(capsys, "dimer", "--width", "8", "--report-product")
        assert code == 0
        assert "YES" in out

    def test_report_json(self, capsys):
        code, out, _ = run(
            capsys, "--json", "dimer", "--width", "4", "--report-product"
        )
        assert code == 0
        data = json.loads(out)
        assert data["is_product"] is True
        assert data["minimal_order"] == 4

    def test_weighted(self, capsys):
        code, out, _ = run(
            capsys, "dimer", "--width", "2", "--terms", "4",
            "--hweight", "1/2", "--vweight", "1/3",
        )
        assert code == 0
        assert out == "1/2, 13/36, 17/72, 205/1296"


class TestSeqRegistry:
    def test_named(self, capsys):
        code, out, _ = run(capsys, "seq", "pell")
        assert code == 0
        assert out == "[[0, 1], [2, 1]]"

    def test_parametric(self, capsys):
        code, out, _ = run(capsys, "seq", "chebyshev_u", "1/2")
        assert code == 0
        assert out == "[[1, 1], [1, -1]]"

    def test_arity_error_exit_2(self, capsys):
        code, _, _ = run(capsys, "seq", "pell", "3")
        assert code == 2


class TestVerifyIdentity:
    def test_shapiro(self, capsys):
        code, out, _ = run(capsys, "verify-identity", "shapiro", "--terms", "12")
        assert code == 0
        assert "VERIFIED" in out

    @pytest.mark.parametrize("terms", [None, "0", "-2", "12", "33", "100"])
    @pytest.mark.parametrize("name, golden", [("shapiro", "8"), ("ekhad", "6")])
    def test_terms_ignored(self, capsys, name, golden, terms):
        # every --terms prints the certificate of exactly M coefficients, the
        # bytes of the golden --terms row, text and --json
        extra = [] if terms is None else ["--terms", terms]
        for flag in ([], ["--json"]):
            want = run(capsys, *flag, "verify-identity", name, "--terms", golden)
            assert run(capsys, *flag, "verify-identity", name, *extra) == want
            assert want[0] == 0


class TestBadInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ("terms", "[[1/0],[1]]", "5"),
            ("gf", "(1/0)/(1-z)"),
            ("gf", "(1)/(1/0-z)"),
            ("guess", "1,2,1/0,4,5"),
            ("seq", "geometric", "1/0"),
            ("dimer", "--width", "2", "--hweight", "1/0"),
        ],
        ids=["terms", "gf-num", "gf-den", "guess", "seq", "dimer"],
    )
    def test_zero_denominator_exit_2(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("isprod", "[[0, 1, 2, 10], [2, 7, 2, -1]]", "--orders", "2,2"),
             "--digits must be >= 1"),
            (("factor", "[[0, 1, 2, 10], [2, 7, 2, -1]]", "--orders", "2,2"),
             "--digits must be >= 1"),
            # dimer takes no --digits: the strip counts are exact
            (("dimer", "--width", "4", "--report-product"),
             "unrecognized arguments: --digits"),
        ],
        ids=["isprod", "factor", "dimer"],
    )
    @pytest.mark.parametrize("digits", ["0", "-5"])
    def test_digits_below_one_exit_2(self, capsys, argv, message, digits):
        code, _, err = run(capsys, *argv, "--digits", digits)
        assert code == 2
        assert message in err

    @pytest.mark.parametrize(
        "argv, want",
        [
            (("guess", "-1,1,-1,1,-1,1"), "[[-1], [-1]]"),
            (("seq", "geometric", "-1/2"), "[[1], [-1/2]]"),
            (("dimer", "--width", "2", "--hweight", "-1/2", "--terms", "3"),
             "-1/2, 5/4, -9/8"),
        ],
        ids=["guess", "seq", "dimer"],
    )
    def test_negative_first_literal_is_a_value(self, capsys, argv, want):
        assert run(capsys, *argv)[:2] == (0, want)

    def test_negative_digits_still_rejected(self, capsys):
        code, _, err = run(capsys, "isprod", "[[0,1],[1,1]]", "--orders", "2", "--digits", "-3")
        assert code == 2
        assert "--digits must be >= 1" in err

    def test_factor_bound_below_one_exit_2(self, capsys):
        code, _, err = run(
            capsys, "factor", "[[0, 1, 2, 10], [2, 7, 2, -1]]",
            "--orders", "2,2", "--mode", "integer", "--bound", "-1",
        )
        assert code == 2
        assert "bound" in err

    @pytest.mark.parametrize("budget", ["0", "-1", "nan"])
    def test_factor_budget_not_positive_exit_2(self, capsys, budget):
        # factor has no --budget: the gauge search is finite, so any value,
        # these once refused too, is an unrecognized argument
        code, out, err = run(
            capsys, "factor", "[[0, 1, 2, 10], [2, 7, 2, -1]]",
            "--orders", "2,2", "--mode", "integer", "--budget", budget,
        )
        assert code == 2
        assert out == ""
        assert f"unrecognized arguments: --budget {budget}" in err


class TestEnvironment:
    def test_digits_default_ignores_environment(self, capsys, monkeypatch):
        # --digits is factor's one precision setting; it defaults to 100,
        # whatever the environment says
        argv = ("factor", "[[0, 1, 2, 10], [2, 7, 2, -1]]", "--orders", "2,2")
        plain = run(capsys, *argv)
        monkeypatch.setenv("CFINITE_DIGITS", "lots")
        assert run(capsys, *argv) == plain
        assert plain[0] == 0
        assert "--digits DIGITS  default 100" in run(capsys, "factor", "--help")[1]

    def test_unknown_verb_exit_2(self, capsys):
        code = main(["frobnicate"])
        capsys.readouterr()
        assert code == 2


def test_console_script_installed():
    import shutil
    import subprocess

    exe = shutil.which("cfinite")
    if exe is None:
        pytest.skip("console script not on PATH")
    got = subprocess.run(
        [exe, "guess", "0,1,1,2,3,5,8,13,21,34"], capture_output=True, text=True
    )
    assert got.returncode == 0
    assert got.stdout.strip() == "[[0, 1], [1, 1]]"


def run_python(*args, timeout=120):
    """`python *args` in a fresh interpreter that imports this package."""
    src = str(Path(cfinite.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=timeout,
    )


def run_module(*argv, timeout=120):
    """`python -m cfinite.cli` in a fresh interpreter that imports this package."""
    return run_python("-m", "cfinite.cli", *argv, timeout=timeout)


def test_module_exit_codes():
    got = run_module("guess", "0,1,1,2,3,5,8,13,21,34")
    assert (got.returncode, got.stdout.strip()) == (0, "[[0, 1], [1, 1]]")
    # 2^n + 3^n + 5^n + 7^n: 2 * 7 != 3 * 5, so no 2 x 2 root grid
    literal = "[[4, 17, 87, 503], [17, -101, 247, -210]]"
    got = run_module("factor", literal, "--orders", "2,2")
    assert got.returncode == 1
    assert "no factorization found" in got.stderr


def test_package_runs_as_a_module():
    # `python -m cfinite` runs the same main as the console script
    got = run_python("-m", "cfinite", "guess", "0,1,1,2,3,5,8,13,21,34")
    assert (got.returncode, got.stdout.strip()) == (0, "[[0, 1], [1, 1]]")
    got = run_python("-m", "cfinite", "guess")
    assert got.returncode == 2
    assert "usage:" in got.stderr and "Traceback" not in got.stderr


# --- the argv reader ------------------------------------------------------------
# `main` reads argv straight off the verb table; nothing is built per call
# and no call leaves state for the next.

PRODUCT = "[[0, 1, 2, 10], [2, 7, 2, -1]]"  # Fibonacci * Pell
FIB_TERMS = "0,1,1,2,3,5,8,13,21,34"

# each entry sets options the next must not inherit, or prints usage text
SHARED_PARSER_SEQUENCE = [
    ("isprod", PRODUCT),  # --orders missing: the reader's usage error
    ("--help",),
    ("--json", "guess", FIB_TERMS, "--max-order", "3"),
    ("guess", FIB_TERMS),
    ("seq", "fibonacci"),
    ("seq", "geometric", "-1/2"),
    ("factor", PRODUCT, "--orders", "2,2", "--bound", "1", "--digits", "30"),
    ("factor", PRODUCT, "--orders", "2,2", "--mode", "integer"),
    ("factor", PRODUCT, "--orders", "2"),  # usage text printed by main
    ("frobnicate",),
]


def _main_redirected(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out, err


class TestSharedParser:
    def test_calls_leak_no_state(self, monkeypatch):
        # one $COLUMNS here and in the fresh interpreters
        monkeypatch.setenv("COLUMNS", "80")
        runs = [_main_redirected(argv) for argv in SHARED_PARSER_SEQUENCE]
        for argv, (code, out, err) in zip(SHARED_PARSER_SEQUENCE, runs):
            alone = run_module(*argv)
            # read after the whole sequence: a later call printing to an
            # earlier call's stream shows here
            assert (code, out.getvalue(), err.getvalue()) == (
                alone.returncode, alone.stdout, alone.stderr
            ), argv
        codes = [code for code, _, _ in runs]
        assert codes == [2, 0, 0, 0, 0, 0, 0, 0, 2, 2]
        assert runs[3][1].getvalue() == "[[0, 1], [1, 1]]\n"
        # three usage errors, each printed once to its own call's stream
        for _, _, err in (runs[0], runs[-2], runs[-1]):
            assert err.getvalue().count("usage: cfinite") == 1

    def test_import_leaves_argparse_out(self):
        got = run_python("-c", (
            "import sys, cfinite, cfinite.cli\n"
            "print('argparse' in sys.modules)\n"
        ))
        assert (got.returncode, got.stdout, got.stderr) == (0, "False\n", "")


def test_nlr_counts_monomials_before_building_them():
    # order 9, degree 9 has C(19, 9) = 92378 monomials; five terms are
    # refused from that count, without building the basis
    got = run_module("nlr", "1,2,3,4,5", "--order", "9", "--degree", "9", timeout=60)
    assert got.returncode == 2
    assert "need at least 184769 terms" in got.stderr


def test_nlr_refuses_a_huge_basis_quickly():
    # C(2000001, 1000000) monomials: counted only up to the cap, so the
    # refusal is fast and short
    start = time.perf_counter()
    got = run_module("nlr", "1,2", "--order", "1000000", "--degree", "1000000", timeout=60)
    assert time.perf_counter() - start < 5
    assert got.returncode == 2
    assert len(got.stderr) < 300


def test_exponent_notation_is_refused_quickly():
    # 21 characters for a million-digit initial term: refused before
    # Fraction parses it (14.5 s) or the CLI prints it
    start = time.perf_counter()
    got = run_module("terms", "[[1e1000000],[1]]", "2", timeout=60)
    assert time.perf_counter() - start < 1
    assert got.returncode == 2
    assert "exponent notation" in got.stderr
    assert len(got.stderr) < 300


# --- fuzzing ------------------------------------------------------------------
# Random literals, verbs and flags; every draw is small enough that no case
# can run long: orders <= 6, or 9 for 3 x 3 products and random order-9
# recurrences factored at 3 x 3 (the root grid's split-prime search and
# lift), widths <= 12 (product reports up to width 6 and above the width limit),
# --digits <= 200, and integer factoring with --bound <= 10^6 (the gauges it
# tries are read off the factors, not counted up to the bound).

_number = st.fractions(min_value=-20, max_value=20, max_denominator=5).map(str)
_junk = st.text(alphabet="[],/-+*0123456789 zt", max_size=10)
_term = st.one_of(_number, _number, _number, _junk)
_small = st.integers(-2, 6).map(str)


def _spoil(draw, items):
    """Mostly the items as drawn; sometimes one of them replaced by junk."""
    if items and draw(st.integers(0, 7)) == 0:
        items[draw(st.integers(0, len(items) - 1))] = draw(_junk)
    return items


@st.composite
def _seq_literal(draw):
    """(literal, order): junk, a random sequence, or a product of two."""
    kind = draw(st.integers(0, 9))
    if kind == 0:
        return draw(_junk), 0
    if kind <= 2:
        a = draw(st.lists(st.integers(-3, 3), min_size=4, max_size=4))
        r = draw(st.integers(1, 3))
        b = draw(st.lists(st.integers(-3, 3), min_size=2 * r, max_size=2 * r))
        product = mul(CFiniteSeq(a[:2], a[2:]), CFiniteSeq(b[:r], b[r:]))
        return format_seq(product), product.order
    order = draw(st.integers(0, 6))
    extra = draw(st.integers(0, 7)) == 0  # a recurrence one too long
    init = draw(st.lists(_number, min_size=order, max_size=order))
    rec = draw(st.lists(_number, min_size=order + extra, max_size=order + extra))
    text = f"[[{', '.join(init)}], [{', '.join(_spoil(draw, rec))}]]"
    return text, order


@st.composite
def _term_list(draw, max_size=16):
    return ",".join(_spoil(draw, draw(st.lists(_number, max_size=max_size))))


@st.composite
def _gf_literal(draw):
    def poly():
        coeffs = _spoil(draw, draw(st.lists(_number, max_size=4)))
        return " + ".join(f"{c}*z^{k}" for k, c in enumerate(coeffs))

    return f"({poly()})/({poly()})"


def _orders(draw, order):
    """Most often a split of the sequence's order into two factors."""
    splits = [(a, order // a) for a in range(2, order) if order % a == 0]
    if splits and draw(st.booleans()):
        return "%d,%d" % draw(st.sampled_from(splits))
    return ",".join(draw(st.lists(_small, min_size=1, max_size=3)))


@st.composite
def _argv(draw):
    verb = draw(
        st.sampled_from(
            ["guess", "terms", "add", "mul", "bt", "psum", "subseq", "gf", "prove",
             "nlr", "indicator", "isprod", "factor", "dimer", "seq",
             "verify-identity"]
        )
    )
    seq = _seq_literal().map(lambda pair: pair[0])
    pos, opts = [], []  # positional arguments; options
    if verb == "guess":
        pos += [draw(_term_list())]
        opts += ["--max-order", draw(_small)]
    elif verb == "terms":
        pos += [draw(seq), str(draw(st.integers(-2, 40)))]
    elif verb in ("add", "mul", "prove"):
        pos += [draw(seq), draw(seq)]
    elif verb in ("bt", "psum"):
        pos += [draw(seq)]
    elif verb == "subseq":
        pos += [draw(seq), draw(_small), str(draw(st.integers(-2, 10)))]
    elif verb == "gf":
        pos += [draw(st.one_of(seq, _gf_literal(), _junk))]
    elif verb == "nlr":
        pos += [draw(_term_list(40))]
        opts += ["--order", str(draw(st.integers(-1, 3)))]
        opts += ["--degree", str(draw(st.integers(-1, 3)))]
    elif verb == "indicator":
        pos += draw(st.lists(_small, min_size=0, max_size=3))
    elif verb in ("isprod", "factor"):
        text, order = draw(_seq_literal())
        pos += [text]
        opts += ["--orders", _orders(draw, order)]
        if verb == "factor" and draw(st.booleans()):
            opts += ["--mode", "integer", "--bound", str(draw(st.integers(-1, 10**6)))]
    elif verb == "dimer":
        width = draw(st.integers(-1, 12))
        opts += ["--width", str(width), "--terms", str(draw(st.integers(-2, 30)))]
        opts += ["--hweight", draw(_term), "--vweight", draw(_term)]
        # the product test of weighted widths 7-10 takes seconds; not drawn
        if (width <= 6 or width > 10) and draw(st.booleans()):
            opts += ["--report-product"]
    elif verb == "seq":
        pos += [draw(st.sampled_from(corpus.names()))]
        pos += draw(st.lists(_term, max_size=2))
    else:
        pos += [draw(st.sampled_from(["shapiro", "ekhad"]))]
        opts += ["--terms", str(draw(st.integers(-2, 8)))]
    if verb in ("isprod", "factor") and draw(st.booleans()):
        opts += ["--digits", str(draw(st.integers(-1, 200)))]
    # positionals such as -3,4 are values with or without "--"
    dashes = ["--"] if pos and draw(st.integers(0, 3)) else []
    flag = ["--json"[: draw(st.integers(3, 6))]] if draw(st.booleans()) else []
    return flag + [verb] + _option_forms(draw, opts) + dashes + pos


def _option_forms(draw, opts):
    """The options, some written as --name=value or under a prefix of the
    name (unique or not), and now and then with -h among them."""
    out, i = [], 0
    while i < len(opts):
        name, value = opts[i], opts[i + 1 : i + 2]
        if name == "--report-product":  # the one flag drawn
            value = []
        i += 1 + len(value)
        if draw(st.integers(0, 3)) == 0:
            name = name[: draw(st.integers(3, len(name)))]
        if value and draw(st.integers(0, 3)) == 0:
            out.append(f"{name}={value[0]}")
        else:
            out += [name, *value]
    if draw(st.integers(0, 15)) == 0:
        out.insert(draw(st.integers(0, len(out))), "-h")
    return out


@st.composite
def _grid_argv(draw):
    """factor at --orders 3,3 on a random order-9 recurrence or a 3 x 3
    product: the root grid's split-prime search and its lift."""
    a = draw(st.lists(st.integers(-3, 3), min_size=18, max_size=18))
    seq = CFiniteSeq(a[:9], a[9:])
    if draw(st.booleans()):
        seq = mul(CFiniteSeq(a[:3], a[3:6]), CFiniteSeq(a[6:9], a[9:12]))
    digits = ["--digits", str(draw(st.integers(-1, 200)))] if draw(st.booleans()) else []
    return ["factor", format_seq(seq), "--orders", "3,3", *digits]


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(_argv(), _grid_argv()))
def test_fuzz_exit_codes(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), (argv, code)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(_argv(), _grid_argv()))
def test_json_changes_only_stdout(argv):
    """--json in front of argv changes stdout alone: the exit code and stderr
    are those of the text form."""
    runs = []
    for flag in ([], ["--json"]):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            runs.append((main(flag + argv), err.getvalue()))
    assert runs[0] == runs[1], argv


class TestBigIntegers:
    BIG = "7" * 5000  # past the interpreter's default int-to-string limit

    @pytest.mark.parametrize("flag", [[], ["--json"]], ids=["text", "json"])
    def test_literal_beyond_the_string_conversion_limit(self, capsys, flag):
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        code, out, err = run(capsys, *flag, "terms", f"[[{self.BIG}],[1]]", "2")
        assert (code, err) == (0, "")
        want = f'["{self.BIG}", "{self.BIG}"]' if flag else f"{self.BIG}, {self.BIG}"
        assert out == want
        # the limit is lifted for the run of main only
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit

    def test_long_fibonacci_terms_are_exact(self, capsys):
        code, out, err = run(capsys, "terms", "[[0,1],[1,1]]", "21000")
        assert (code, err) == (0, "")
        last = out.rsplit(", ", 1)[1]
        a, b = 0, 1  # F(20999) modulo 10^12, by the recurrence itself
        for _ in range(20999):
            a, b = b, (a + b) % 10**12
        assert len(last) == 4389  # floor(20999 log10(phi) - log10(sqrt 5)) + 1
        assert last[-12:] == f"{a:012d}"
