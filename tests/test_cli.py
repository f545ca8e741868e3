import json

import pytest

from cfinite.cli import main


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

    def test_malformed_seq_exit_2(self, capsys):
        code, _, _ = run(capsys, "terms", "[[0,1]]", "5")
        assert code == 2


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

    def test_nlr(self, capsys):
        terms = [0, 1]
        while len(terms) < 80:
            terms.append(terms[-1] + terms[-2])
        code, out, _ = run(
            capsys, "nlr", ",".join(map(str, terms)), "--order", "2", "--degree", "4"
        )
        assert code == 0
        assert out.endswith("= 0")

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
        "argv",
        [
            ("isprod", "[[0, 1, 2, 10], [2, 7, 2, -1]]", "--orders", "2,2"),
            ("factor", "[[0, 1, 2, 10], [2, 7, 2, -1]]", "--orders", "2,2"),
            ("dimer", "--width", "4", "--report-product"),
        ],
        ids=["isprod", "factor", "dimer"],
    )
    @pytest.mark.parametrize("digits", ["0", "-5"])
    def test_digits_below_one_exit_2(self, capsys, argv, digits):
        code, _, err = run(capsys, *argv, "--digits", digits)
        assert code == 2
        assert "--digits" in err

    def test_factor_bound_below_one_exit_2(self, capsys):
        code, _, err = run(
            capsys, "factor", "[[0, 1, 2, 10], [2, 7, 2, -1]]",
            "--orders", "2,2", "--mode", "integer", "--bound", "-1",
        )
        assert code == 2
        assert "bound" in err


class TestEnvironment:
    def test_digits_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("CFINITE_DIGITS", "60")
        code, out, _ = run(
            capsys, "isprod", "[[0, 1, 2, 10], [2, 7, 2, -1]]", "--orders", "2,2"
        )
        assert code == 0
        assert "60 digits" in out

    def test_bad_digits_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("CFINITE_DIGITS", "lots")
        code, _, _ = run(
            capsys, "isprod", "[[0, 1, 2, 10], [2, 7, 2, -1]]", "--orders", "2,2"
        )
        assert code == 2

    @pytest.mark.parametrize("raw", ["0", "-3"])
    def test_env_digits_below_one_exit_2(self, capsys, monkeypatch, raw):
        monkeypatch.setenv("CFINITE_DIGITS", raw)
        code, _, err = run(
            capsys, "isprod", "[[0, 1, 2, 10], [2, 7, 2, -1]]", "--orders", "2,2"
        )
        assert code == 2
        assert "CFINITE_DIGITS" in err

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
