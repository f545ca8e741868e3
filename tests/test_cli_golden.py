"""Golden CLI outputs: the exact stdout, in text and --json form, the exit code
and the first stderr line (the first two, usage line and error, of a usage
error in argv) of one argv for each verb and branch."""

import contextlib
import io

import pytest

from cfinite.cli import main

FIB30 = [0, 1]
while len(FIB30) < 30:
    FIB30.append(FIB30[-1] + FIB30[-2])

PRODUCT = "[[0, 1, 2, 10], [2, 7, 2, -1]]"  # Fibonacci * Pell
NOT_PRODUCT = "[[4, 17, 87, 503], [17, -101, 247, -210]]"  # 2^n + 3^n + 5^n + 7^n
EQUAL = (
    "first {0} terms agree; the difference satisfies a recurrence of order <= {0}, "
    "hence the sequences are equal"
)
PROVED = EQUAL.format(6)
FACTORED = f"VERIFIED: {EQUAL.format(8)} (order bound 8, 18 terms checked)"
PROFILE = "[1, 1, 1, 1, 2, 2, 2, 2, 4]"
IDENTITY = (
    "D*LHS - N = 0 mod t^{0} in Z[{1}]; the left side has order <= K1 = {2} over "
    "Q({1}), deg D = K2 = {2} and deg N = {3}, so the first M = K1 + max(K2, "
    "deg N + 1) = {4} coefficients force LHS = N/D identically"
)
SHAPIRO = IDENTITY.format(8, "a, b", 4, 2, 8)
EKHAD = IDENTITY.format(16, "a, b, c", 8, 6, 16)
FIB_JSON = '{"init": ["0", "1"], "rec": ["1", "1"]}'

VERBS = (
    "guess", "terms", "add", "mul", "bt", "psum", "subseq", "gf", "prove", "nlr",
    "indicator", "isprod", "factor", "dimer", "seq", "verify-identity",
)
USAGE = "usage: cfinite [-h] [--json] {%s} ..." % ",".join(VERBS)
BAD_VERB = "cfinite: error: argument verb: invalid choice: 'frobnicate' (choose from %s)" % (
    ", ".join(map(repr, VERBS))
)
ISPROD_USAGE = "usage: cfinite isprod [-h] --orders ORDERS [--digits DIGITS] seq"
FACTOR_USAGE = (
    "usage: cfinite factor [-h] [--mode {roots,integer}] --orders ORDERS [--bound BOUND] "
    "[--digits DIGITS] seq"
)
HELP = f"""{USAGE}

exact calculator and conjecture engine for linear recurrences with constant coefficients

  guess            guess a recurrence from terms
  terms            print the first N terms of a sequence
  add              termwise sum
  mul              termwise (Hadamard) product
  bt               binomial transform
  psum             partial sums
  subseq           arithmetic-progression subsequence
  gf               convert sequence -> generating function or back (direction inferred from the literal)
  prove            finite-check equality proof
  nlr              guess a polynomial (nonlinear) recurrence
  indicator        generic product repetition profile
  isprod           empirical product test
  factor           factor into a termwise product
  dimer            domino tilings of width-M strips
  seq              named sequence from the registry
  verify-identity  prove a built-in parametric identity
  --json           machine-readable output
  -h, --help       show this help and exit"""
FACTOR_HELP = f"""{FACTOR_USAGE}

factor into a termwise product

  seq
  --mode MODE      one of roots, integer; default roots
  --orders ORDERS  e.g. 2,2
  --bound BOUND    default 3
  --digits DIGITS  default 100
  -h, --help       show this help and exit"""
DIMER_USAGE = (
    "usage: cfinite dimer [-h] --width WIDTH [--terms TERMS] [--hweight HWEIGHT] "
    "[--vweight VWEIGHT] [--report-product]"
)
DIMER_HELP = f"""{DIMER_USAGE}

domino tilings of width-M strips

  --width WIDTH
  --terms TERMS      default 10
  --hweight HWEIGHT  default 1
  --vweight VWEIGHT  default 1
  --report-product
  -h, --help         show this help and exit"""
PROVE_USAGE = "usage: cfinite prove [-h] s1 s2"
PROVE_HELP = f"""{PROVE_USAGE}

finite-check equality proof

  s1
  s2
  -h, --help  show this help and exit"""
IDENTITY_USAGE = "usage: cfinite verify-identity [-h] [--terms TERMS] {shapiro,ekhad}"
IDENTITY_HELP = f"""{IDENTITY_USAGE}

prove a built-in parametric identity

  name           one of shapiro, ekhad
  --terms TERMS  accepted and ignored
  -h, --help     show this help and exit"""
SEQ_CHOICES = (
    "chebyshev_t", "chebyshev_u", "fibonacci", "geometric", "lucas", "natural", "one",
    "pell", "zero",
)
GUESS_HELP = """usage: cfinite guess [-h] [--max-order MAX_ORDER] terms

guess a recurrence from terms

  terms                  comma-separated rational terms
  --max-order MAX_ORDER  default 12
  -h, --help             show this help and exit"""
YES_2X2 = (
    f"YES: product of orders 2x2 (expected {PROFILE}, observed {PROFILE})",
    f'{{"is_product": true, "orders": [2, 2], "expected": {PROFILE}, '
    f'"observed": {PROFILE}}}',
)

# (argv, exit code, text stdout, --json stdout, first stderr line)
GOLDEN = [
    (("guess", "0,1,1,2,3,5,8,13,21,34"), 0, "[[0, 1], [1, 1]]", FIB_JSON, ""),
    (("guess", "1,1,2,6,24,120,720,5040", "--max-order", "2"), 1, "", "",
     "no linear recurrence found"),
    (("terms", "[[0,1],[1,1]]", "8"), 0, "0, 1, 1, 2, 3, 5, 8, 13",
     '["0", "1", "1", "2", "3", "5", "8", "13"]', ""),
    (("add", "[[0,1],[1,1]]", "[[2,1],[1,1]]"), 0, "[[2, 2], [1, 1]]",
     '{"init": ["2", "2"], "rec": ["1", "1"]}', ""),
    (("mul", "[[0,1],[1,1]]", "[[0,1],[2,1]]"), 0, "[[0, 1, 2, 10], [2, 7, 2, -1]]",
     '{"init": ["0", "1", "2", "10"], "rec": ["2", "7", "2", "-1"]}', ""),
    (("bt", "[[0,1],[1,1]]"), 0, "[[0, 1], [3, -1]]",
     '{"init": ["0", "1"], "rec": ["3", "-1"]}', ""),
    (("psum", "[[0,1],[1,1]]"), 0, "[[0, 1, 2], [2, 0, -1]]",
     '{"init": ["0", "1", "2"], "rec": ["2", "0", "-1"]}', ""),
    (("subseq", "[[0,1],[1,1]]", "3", "1"), 0, "[[1, 3], [4, 1]]",
     '{"init": ["1", "3"], "rec": ["4", "1"]}', ""),
    (("gf", "[[0,1],[1,1]]"), 0, "(z)/(1 - z - z^2)",
     '{"numerator": ["0", "1"], "denominator": ["1", "-1", "-1"]}', ""),
    (("gf", "(z)/(1 - z - z^2)"), 0, "[[0, 1], [1, 1]]", FIB_JSON, ""),
    (("prove", "[[0,1],[1,1]]", "[[0,1,1,2],[1,1,0,0]]"), 0,
     f"VERIFIED: {PROVED} (order bound 6, 16 terms checked)",
     '{"verified": true, "order_bound": 6, "terms_checked": 16, '
     f'"statement": "{PROVED}"}}', ""),
    (("prove", "[[0,1],[1,1]]", "[[2,1],[1,1]]"), 1,
     "NOT VERIFIED: sequences differ first at n=0: 0 != 2 (order bound 4, 14 terms "
     "checked)",
     '{"verified": false, "order_bound": 4, "terms_checked": 14, '
     '"statement": "sequences differ first at n=0: 0 != 2"}', ""),
    (("nlr", ",".join(map(str, FIB30)), "--order", "2", "--degree", "2"), 0,
     "a(n) - a(n-1) - a(n-2) = 0",
     '{"order": 2, "degree": 2, "support": [[0, 0, 2], [0, 1, 1], [0, 2, 0], '
     "[1, 0, 1], [1, 1, 0], [2, 0, 0], [0, 0, 1], [0, 1, 0], [1, 0, 0], "
     '[0, 0, 0]], "coefficients": [0, 0, 0, 0, 0, 0, 1, -1, -1, 0], '
     '"text": "a(n) - a(n-1) - a(n-2) = 0"}', ""),
    (("indicator", "2", "2"), 0, PROFILE, PROFILE, ""),
    (("isprod", PRODUCT, "--orders", "2,2"), 0, *YES_2X2, ""),
    (("isprod", NOT_PRODUCT, "--orders", "2,2"), 1,
     f"NO: product of orders 2x2 (expected {PROFILE}, observed "
     "[1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 4])",
     f'{{"is_product": false, "orders": [2, 2], "expected": {PROFILE}, '
     '"observed": [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 4]}', ""),
    # --digits is accepted and ignored by isprod
    (("isprod", "[[0,1,2,10],[2,7,2,-1]]", "--orders", "2,2", "--digits", "40"), 0,
     *YES_2X2, ""),
    (("factor", PRODUCT, "--orders", "2,2"), 0,
     f"left  = [[0, 1], [1, 1]]\nright = [[0, 1], [2, 1]]\n{FACTORED}",
     f'{{"left": {FIB_JSON}, "right": {{"init": ["0", "1"], "rec": ["2", "1"]}}, '
     '"verified": true, "order_bound": 8}', ""),
    # the compact literal keeps the id (argv cut at 48 characters) unique
    (("factor", "[[0,1,2,10],[2,7,2,-1]]", "--orders", "2,2", "--mode", "integer",
      "--bound", "2"), 0,
     f"left  = [[0, 1], [1, 1]]\nright = [[0, 1], [2, 1]]\n{FACTORED}",
     f'{{"left": {FIB_JSON}, "right": {{"init": ["0", "1"], "rec": ["2", "1"]}}, '
     '"verified": true, "order_bound": 8}', ""),
    (("factor", NOT_PRODUCT, "--orders", "2,2"), 1, "", "", "no factorization found"),
    (("factor", PRODUCT, "--orders=-2,-2"), 2, "", "",
     "error: orders must be a nonempty list of counts >= 1"),
    (("dimer", "--width", "3", "--terms", "6"), 0, "0, 3, 0, 11, 0, 41",
     '["0", "3", "0", "11", "0", "41"]', ""),
    (("dimer", "--width", "4", "--report-product"), 0,
     "width 4, weights (1, 1): minimal order 4; YES: product of orders 2x2 "
     f"(expected {PROFILE}, observed {PROFILE})",
     '{"width": 4, "minimal_order": 4, "sequence": {"init": ["1", "5", "11", '
     '"36"], "rec": ["1", "5", "1", "-1"]}, "applicable": true, "is_product": '
     f'true, "factor_orders": [2, 2], "expected": {PROFILE}, "observed": '
     f'{PROFILE}, "note": ""}}', ""),
    (("dimer", "--width", "1", "--report-product"), 2,
     "width 1, weights (1, 1): minimal order 1; product test inapplicable: "
     "order 1; nothing to factor",
     '{"width": 1, "minimal_order": 1, "sequence": {"init": ["1"], "rec": '
     '["1"]}, "applicable": false, "is_product": null, "factor_orders": [], '
     '"expected": null, "observed": null, "note": "order 1; nothing to factor"}',
     ""),
    (("seq", "chebyshev_u", "1/2"), 0, "[[1, 1], [1, -1]]",
     '{"init": ["1", "1"], "rec": ["1", "-1"]}', ""),
    (("verify-identity", "shapiro", "--terms", "8"), 0,
     f"VERIFIED: {SHAPIRO} (order bound 8, 8 terms checked)",
     '{"verified": true, "order_bound": 8, "terms_checked": 8, "statement": '
     f'"{SHAPIRO}"}}', ""),
    # --terms is accepted and ignored: exactly M coefficients are checked
    (("verify-identity", "shapiro", "--terms", "12"), 0,
     f"VERIFIED: {SHAPIRO} (order bound 8, 8 terms checked)",
     '{"verified": true, "order_bound": 8, "terms_checked": 8, "statement": '
     f'"{SHAPIRO}"}}', ""),
    (("verify-identity", "ekhad", "--terms", "6"), 0,
     f"VERIFIED: {EKHAD} (order bound 16, 16 terms checked)",
     '{"verified": true, "order_bound": 16, "terms_checked": 16, "statement": '
     f'"{EKHAD}"}}', ""),
    (("isprod", "[[0,1],[1,1]]", "--orders", "2", "--digits", "0"), 2, "", "",
     "error: --digits must be >= 1, got 0"),
    # the width-4 strip: a good prime refutes every rational 2 x 2 split
    (("factor", "[[1,5,11,36],[1,5,1,-1]]", "--orders", "2,2"), 1, "", "",
     "no factorization found"),
    # the argv reader: usage errors, option forms, "--" and help
    ((), 2, "", "", f"{USAGE}\ncfinite: error: the following arguments are required: verb"),
    (("frobnicate",), 2, "", "", f"{USAGE}\n{BAD_VERB}"),
    (("isprod", PRODUCT), 2, "", "",
     f"{ISPROD_USAGE}\ncfinite isprod: error: the following arguments are required: --orders"),
    (("isprod", "[[0,1],[1,1]]", "--orders", "2", "--digits", "x"), 2, "", "",
     f"{ISPROD_USAGE}\ncfinite isprod: error: argument --digits: invalid int value: 'x'"),
    (("isprod", "[[0,1],[1,1]]", "--orders", "2", "--bogus"), 2, "", "",
     f"{USAGE}\ncfinite: error: unrecognized arguments: --bogus"),
    (("dimer", "--width", "2", "--h", "1"), 2, "", "",
     f"{DIMER_USAGE}\ncfinite dimer: error: ambiguous option: --h could match --help, "
     "--hweight"),
    # --b is a unique prefix of --bound: the order check, not the reader, refuses
    (("factor", "[[0,1],[1,1]]", "--orders", "2,2", "--b", "2"), 2, "", "",
     "error: minimal order 2 != product of orders 4"),
    # options that changed no answer are gone
    (("factor", "[[0,1,2,10],[2,7,2,-1]]", "--orders", "2,2", "--budget", "5"), 2, "", "",
     f"{USAGE}\ncfinite: error: unrecognized arguments: --budget 5"),
    (("dimer", "--width", "4", "--report-product", "--digits", "30"), 2, "", "",
     f"{USAGE}\ncfinite: error: unrecognized arguments: --digits 30"),
    (("prove", "[[0,1],[1,1]]", "[[2,1],[1,1]]", "--verbose"), 2, "", "",
     f"{USAGE}\ncfinite: error: unrecognized arguments: --verbose"),
    (("verify-identity", "shapiro", "--terms", "8", "--verbose"), 2, "", "",
     f"{USAGE}\ncfinite: error: unrecognized arguments: --verbose"),
    (("isprod", PRODUCT, "--orders=2,2"), 0, *YES_2X2, ""),
    # tribonacci: order 3, so --max-order 2 finds nothing
    (("guess", "0,0,1,1,2,4,7,13,24,44", "--max", "2"), 1, "", "",
     "no linear recurrence found"),
    (("guess", "--", "-1,1,-1,1,-1,1"), 0, "[[-1], [-1]]",
     '{"init": ["-1"], "rec": ["-1"]}', ""),
    (("--help",), 0, HELP, HELP, ""),
    (("guess", "-h"), 0, GUESS_HELP, GUESS_HELP, ""),
    (("factor", "--help"), 0, FACTOR_HELP, FACTOR_HELP, ""),
    (("dimer", "--help"), 0, DIMER_HELP, DIMER_HELP, ""),
    (("prove", "--help"), 0, PROVE_HELP, PROVE_HELP, ""),
    (("verify-identity", "--help"), 0, IDENTITY_HELP, IDENTITY_HELP, ""),
    (("--", "guess", "0,1,1,2,3,5,8,13"), 0, "[[0, 1], [1, 1]]", FIB_JSON, ""),
    (("--bogus", "guess", "0,1,1,2,3,5,8,13"), 2, "", "",
     f"{USAGE}\ncfinite: error: unrecognized arguments: --bogus"),
    (("--json=1", "guess", "0,1,1,2,3,5,8,13"), 2, "", "",
     f"{USAGE}\ncfinite: error: argument --json: ignored explicit argument '1'"),
    (("bt", "[[0,1],[1,1]]", "extra"), 2, "", "",
     f"{USAGE}\ncfinite: error: unrecognized arguments: extra"),
    (("dimer", "--width", "4", "--report-product=1"), 2, "", "",
     f"{DIMER_USAGE}\ncfinite dimer: error: argument --report-product: ignored explicit "
     "argument '1'"),
    (("factor", "[[0,1,2,10],[2,7,2,-1]]", "--mode", "x", "--orders", "2,2"), 2, "", "",
     f"{FACTOR_USAGE}\ncfinite factor: error: argument --mode: invalid choice: 'x' "
     "(choose from 'roots', 'integer')"),
    (("seq", "frob"), 2, "", "",
     "usage: cfinite seq [-h] {%s} [params ...]\ncfinite seq: error: argument name: "
     "invalid choice: 'frob' (choose from %s)"
     % (",".join(SEQ_CHOICES), ", ".join(map(repr, SEQ_CHOICES)))),
]


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


# a row's id is its argv cut at 48 characters, a function of the argv alone;
# ids must be unique, or pytest would number the rows that share one and a
# new row could rename an old row's tests
IDS = [" ".join(g[0])[:48] for g in GOLDEN]


def test_golden_ids_unique():
    assert len(set(IDS)) == len(IDS)


@pytest.mark.parametrize("argv, code, text, js, err", GOLDEN, ids=IDS)
@pytest.mark.parametrize("form", ["text", "json"])
def test_golden_output(argv, code, text, js, err, form):
    want = text if form == "text" else js
    flag = ["--json"] if form == "json" else []
    got_code, got_out, got_err = run_main(flag + list(argv))
    assert got_code == code
    assert got_out == (want + "\n" if want else "")
    assert got_err.split("\n")[: err.count("\n") + 1] == err.split("\n")

