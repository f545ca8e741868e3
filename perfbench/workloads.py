"""The four workloads: seeded, stratified job lists and the check of each answer.

Every round of a workload holds the same number of jobs of each class and
shape, whatever the seed; the seed only draws the coefficients.  Jobs call
cfinite through module attributes at call time, so the tracer's wrappers
see them.  `Job.check` compares the output with an independent computation
from `oracle` and returns None or a (kind, message) pair, kind being
"answer" or "exit_code".
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from fractions import Fraction as F
from math import comb, log2

import mpmath

import oracle as O
from cfinite import cli, core, dimers, factor, gf, guess, roots

S = core.CFiniteSeq
# nominal seconds one round takes on the reference machine; a run does
# max(1, round(seconds / ROUND_S)) rounds, a fixed amount of work per --seconds
ROUND_S = {"closure": 0.5, "products": 2.3, "dimers": 7.0, "interactive": 0.4}
# per-job deadline, enforced in the worker
DEADLINE_S = {"closure": 10.0, "products": 20.0, "dimers": 60.0, "interactive": 5.0}
# a factor coefficient near 10^24: the product of two 12-digit primes
BIG = 999999000001 * 1000000000039


class Job:
    __slots__ = ("cls", "call", "check")

    def __init__(self, cls, call, check):
        self.cls, self.call, self.check = cls, call, check


def bad(msg):
    return ("answer", msg)


def terms_of(s, n):
    return O.unroll(s.init, s.rec, n)


# --- seeded inputs ---------------------------------------------------------------

def _coef(rng, rational, lo=-3, hi=3):
    if rational:
        return F(rng.randint(-5, 5), rng.randint(1, 4))
    return F(rng.randint(lo, hi))


def rand_seq(rng, L, rational=False, lo=-3, hi=3):
    """A sequence whose minimal order is exactly L."""
    while True:
        rec = [_coef(rng, rational, lo, hi) for _ in range(L)]
        init = [_coef(rng, rational, lo, hi) for _ in range(L)]
        if rec[-1] != 0 and len(O.berlekamp_massey(O.unroll(init, rec, 2 * L + 2))) == L:
            return S(init, rec)


def _well_separated(rec):
    """Distinct, nonzero characteristic roots (checked with mpmath.polyroots)."""
    try:
        with mpmath.workdps(20):
            rts = mpmath.polyroots([1] + [-c for c in rec], maxsteps=100, extraprec=20)
    except mpmath.libmp.NoConvergence:
        return False
    if any(abs(r) < 1e-3 for r in rts):
        return False
    return all(
        abs(a - b) > 1e-3 * max(1, abs(a)) for a, b in itertools.combinations(rts, 2)
    )


def product_of(factors, separated=True):
    """The termwise product of the factors as a minimal encoding, or None."""
    L = 1
    for f in factors:
        L *= f.order
    n = 2 * L + 4
    terms = [F(1)] * n
    for f in factors:
        terms = [a * b for a, b in zip(terms, terms_of(f, n))]
    rec = O.berlekamp_massey(terms)
    if len(rec) != L or (separated and not _well_separated(rec)):
        return None
    return S(terms[:L], rec)


def rand_factor(rng, L, bound=3):
    """Integer factor with entries in [-bound, bound], first nonzero term positive."""
    while True:
        s = rand_seq(rng, L, lo=-bound, hi=bound)
        if next(d for d in s.init if d) > 0:
            return s


def rand_product(rng, shape):
    while True:
        p = product_of([rand_factor(rng, L) for L in shape])
        if p is not None:
            return p


def geometric_sum(rng):
    """Sum of four geometric sequences with distinct prime bases: not 2x2."""
    primes = rng.sample([2, 3, 5, 7, 11, 13], 4)
    cs = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in primes]
    terms = [F(sum(c * p**n for c, p in zip(cs, primes))) for n in range(12)]
    rec = O.berlekamp_massey(terms)
    return S(terms[:4], rec)


# --- checks ------------------------------------------------------------------------

def check_seq(out, truth, bound):
    """`out` must be the minimal encoding of the sequence whose first 2*bound
    terms are `truth` (its order is at most bound)."""
    if not isinstance(out, S):
        return bad(f"expected a sequence, got {out!r}")
    # the zero sequence is encoded with order 1, as [[0], [0]]
    want = max(1, len(O.berlekamp_massey(truth[: 2 * bound])))
    if out.order != want:
        return bad(f"order {out.order}, minimal order is {want}")
    n = out.order + bound  # the difference has order <= this: agreement proves equality
    if terms_of(out, n) != truth[:n]:
        return bad(f"{lit(out)} differs from the expected terms")
    return None


def check_pair(pair, seq, orders):
    """A factor pair of the given orders whose termwise product is `seq`."""
    if pair is None:
        return bad("no factorization found for a product")
    if sorted((pair.left.order, pair.right.order)) != sorted(orders):
        return bad(f"factor orders {pair.left.order}, {pair.right.order}")
    n = 2 * seq.order + 2
    prod = [a * b for a, b in zip(terms_of(pair.left, n), terms_of(pair.right, n))]
    if prod != terms_of(seq, n):
        return bad("factors do not recombine to the input")
    return None


def _closure_job(cls, op, args, truth, bound):
    return Job(cls, lambda: getattr(guess, op)(*args), lambda out: check_seq(out, truth, bound))


# --- closure -------------------------------------------------------------------------

def _closure_round(rng, index):
    rat = index % 2 == 1  # integer and rational rounds alternate

    def add(l1, l2):
        a, b = rand_seq(rng, l1, rat), rand_seq(rng, l2, rat)
        n = 2 * (l1 + l2)
        truth = [x + y for x, y in zip(terms_of(a, n), terms_of(b, n))]
        return _closure_job(f"add_{l1}x{l2}", "add", (a, b), truth, l1 + l2)

    def mul(l1, l2):
        a, b = rand_seq(rng, l1, rat), rand_seq(rng, l2, rat)
        n = 2 * l1 * l2
        truth = [x * y for x, y in zip(terms_of(a, n), terms_of(b, n))]
        return _closure_job(f"mul_{l1}x{l2}", "mul", (a, b), truth, l1 * l2)

    def binomial_transform(L):
        s = rand_seq(rng, L, rat)
        base = terms_of(s, 2 * L)
        truth = [sum(comb(m, k) * base[k] for k in range(m + 1)) for m in range(2 * L)]
        return _closure_job(f"binomial_transform_{L}", "binomial_transform", (s,), truth, L)

    def partial_sums(L):
        s = rand_seq(rng, L, rat)
        truth = list(itertools.accumulate(terms_of(s, 2 * L + 2)))
        return _closure_job(f"partial_sums_{L}", "partial_sums", (s,), truth, L + 1)

    def subsequence(L):
        s = rand_seq(rng, L, rat)
        step, off = rng.randint(2, 4), rng.randint(0, 3)
        base = terms_of(s, step * 2 * L + off)
        truth = [base[step * k + off] for k in range(2 * L)]
        return _closure_job(f"subsequence_{L}", "subsequence", (s, step, off), truth, L)

    jobs = [add(*p) for p in [(1, 2), (2, 2), (2, 3), (3, 4), (4, 4), (1, 3)]]
    jobs += [mul(*p) for p in [(1, 2), (2, 2), (2, 2), (2, 3), (3, 3), (4, 4)]]
    for L in (1, 2, 3, 4):
        jobs += [
            binomial_transform(L), partial_sums(L), subsequence(L),
            _prove_equal_job(rng, L, rat), _prove_unequal_job(rng, L, rat),
            _gf_round_trip_job(rng, L, rat), _eval_at_job(rng, L, rat),
            _guess_rec_job(rng, L, rat),
        ]
    jobs += [_guess_rec_none_job(rng), _guess_nlr_job(rng), _poly_job(rng, rat)]
    # the classes that take 1.8-2.6 ms come twice: half the other jobs take
    # under 1.3 ms, so without them the median latency falls in the gap
    # between the two and swings with every seed
    jobs += [
        add(1, 2), partial_sums(2), binomial_transform(3), subsequence(3),
        _eval_at_job(rng, 3, rat), _guess_rec_job(rng, 3, rat),
    ]
    return jobs


def _poly_job(rng, rat):
    """Polynomial product and division with remainder, degrees 8 and 5."""
    a = [_coef(rng, rat) for _ in range(8)] + [F(1)]
    b = [_coef(rng, rat) for _ in range(5)] + [F(rng.choice([1, 2, 3]))]
    r = [_coef(rng, rat) for _ in range(5)]
    want = [
        sum(a[i] * b[k - i] for i in range(len(a)) if 0 <= k - i < len(b))
        for k in range(len(a) + len(b) - 1)
    ]
    rem_want = list(r)
    while rem_want and rem_want[-1] == 0:
        rem_want.pop()

    def call():
        pa, pb = core.Polynomial(a), core.Polynomial(b)
        prod = pa * pb
        return prod, divmod(prod + core.Polynomial(r), pb)

    def check(out):
        prod, (q, rem) = out
        if list(prod.coeffs) != want:
            return bad("product differs from the convolution")
        if list(q.coeffs) != a or list(rem.coeffs) != rem_want:
            return bad("quotient or remainder wrong")
        return None

    return Job("poly_mul_divmod", call, check)


def _prove_equal_job(rng, L, rat):
    """s against a non-minimal encoding of itself: char poly times (z - t)."""
    s = rand_seq(rng, L, rat)
    t = F(rng.choice([-2, -1, 1, 2, 3]))
    p = [F(1)] + [-c for c in s.rec]  # descending char poly
    q = [p[i] - t * (p[i - 1] if i else 0) for i in range(L + 1)] + [-t * p[L]]
    big = S(terms_of(s, L + 1), [-c for c in q[1:]])

    def check(cert):
        if not cert.verified or cert.order_bound != 2 * L + 1:
            return bad(f"equal sequences not certified: {cert}")
        return None

    return Job(f"prove_equal_{L}", lambda: guess.prove_equal(s, big), check)


def _prove_unequal_job(rng, L, rat):
    s = rand_seq(rng, L, rat)
    k = rng.randrange(L)
    init = list(s.init)
    init[k] += rng.choice([-1, 1])
    other = S(init, s.rec)
    a, b = terms_of(s, 2 * L), terms_of(other, 2 * L)
    first = next(n for n in range(2 * L) if a[n] != b[n])

    def check(cert):
        if cert.verified or f"n={first}:" not in cert.statement:
            return bad(f"expected a first difference at n={first}: {cert}")
        return None

    return Job(f"prove_unequal_{L}", lambda: guess.prove_equal(s, other), check)


def _gf_round_trip_job(rng, L, rat):
    s = rand_seq(rng, L, rat)
    truth = terms_of(s, 4 * L + 2)

    def call():
        g = gf.c_to_r(s)
        return g, gf.r_to_c(g)

    def check(out):
        g, back = out
        num, den = list(g.num.coeffs), list(g.den.coeffs)
        if not den or den[0] != 1:
            return bad(f"denominator {den} does not start with 1")
        if max(len(den) - 1, len(num)) != L:
            return bad(f"generating function {g} is not reduced")
        if O.series(num, den, 2 * L + 2) != truth[: 2 * L + 2]:
            return bad(f"generating function {g} has other coefficients")
        return check_seq(back, truth, L)

    return Job(f"gf_round_trip_{L}", call, check)


def _eval_at_job(rng, L, rat):
    s = rand_seq(rng, L, rat)
    n = rng.randint(300, 900)
    want = terms_of(s, n + 1)[n]
    return Job(
        f"eval_at_{L}",
        lambda: core.eval_at(s, n),
        lambda out: None if out == want else bad(f"a({n}) wrong"),
    )


def _guess_check(terms, max_order):
    """Check of guess_rec(terms, max_order): the minimal fit, or None exactly
    when no recurrence of order <= the searched maximum exists."""
    rec = O.berlekamp_massey(terms)
    limit = min(max_order, (len(terms) - 4) // 2)

    def check(out):
        if len(rec) > limit:
            return None if out is None else bad("fit found where none exists")
        if out is None:
            return bad(f"missed the order-{len(rec)} recurrence")
        if out.order != len(rec) or terms_of(out, len(terms)) != terms:
            return bad(f"{lit(out)} is not the minimal fit")
        return None

    return check


def _guess_rec_job(rng, L, rat):
    s = rand_seq(rng, L, rat)
    terms = terms_of(s, 2 * L + 4 + rng.randint(2, 8))
    cfg = guess.GuessConfig(max_order=6)
    return Job(f"guess_rec_{L}", lambda: guess.guess_rec(terms, cfg), _guess_check(terms, 6))


def _guess_rec_none_job(rng):
    terms = [F(rng.randint(-9, 9)) for _ in range(16)]
    cfg = guess.GuessConfig(max_order=4)
    return Job("guess_rec_none", lambda: guess.guess_rec(terms, cfg), _guess_check(terms, 4))


def _nlr_terms(rng):
    """a(n) = k a(n-1) - a(n-2): a(n)^2 - k a(n) a(n-1) + a(n-1)^2 is constant."""
    k = F(rng.randint(2, 5), rng.choice([1, 1, 2]))
    return terms_of(S([rng.randint(0, 3), rng.randint(1, 4)], [k, -1]), 22)


def _check_relation(support, coefficients, terms, order):
    if not any(coefficients):
        return bad("zero relation")
    for n in range(order, len(terms)):
        if O.evaluate_relation(support, coefficients, terms[n - order : n + 1]):
            return bad(f"relation fails at n={n}")
    return None


def _guess_nlr_job(rng):
    terms = _nlr_terms(rng)

    def check(rel):
        if rel is None:
            return bad("missed the degree-2 invariant")
        return _check_relation(rel.support, rel.coefficients, terms, 1)

    return Job("guess_nlr", lambda: guess.guess_nlr(terms, 1, 2), check)


# --- products ------------------------------------------------------------------------

def _is_prod_job(cls, seq, orders, digits, expect):
    """expect: True / False verdict, or the name of the exception raised."""

    def call():
        try:
            return roots.is_prod_g(seq, orders, digits).is_product
        except roots.DegenerateRootsError as exc:
            return type(exc).__name__

    return Job(cls, call, lambda out: None if out == expect else bad(f"verdict {out}, expected {expect}"))


def _factorize_roots_job(cls, seq, l1, l2, digits=50):
    return Job(
        cls,
        lambda: factor.factorize_roots(seq, l1, l2, digits),
        lambda pair: check_pair(pair, seq, (l1, l2)),
    )


# (z - 2)^2 times a Fibonacci-like factor: repeated roots.  Fixed for every
# seed: the Aberth iteration's time on such inputs swings from 0.1 s to
# 1.8 s with the draw, which would swamp every other class.
_REPEATED = product_of([S([1, 1], [4, -4]), S([1, 1], [1, 1])], separated=False)


def _products_round(rng, index):
    jobs = []
    # the cheap 2x2 tests at 50 digits and the unit-root draws come four
    # times each, so that the median latency falls inside a dense cluster
    for shape, digits, copies in [
        ((2, 2), 50, 4), ((2, 2), 100, 1), ((2, 3), 50, 1), ((2, 3), 100, 1),
        ((3, 3), 50, 1), ((3, 3), 100, 1), ((2, 2, 2), 50, 1), ((2, 2, 2), 100, 1),
    ]:
        name = "x".join(map(str, shape))
        for _ in range(copies):
            jobs.append(_is_prod_job(f"is_prod_{name}_{digits}", rand_product(rng, shape), shape, digits, True))
    for digits in (50, 100):
        jobs.append(_is_prod_job(f"is_prod_geometric4_{digits}", geometric_sum(rng), (2, 2), digits, False))
    for _ in range(4):
        while True:  # a(n) = a(n-2) has the roots +1 and -1
            x, y = rng.choice([1, 2, 3]), rng.choice([-3, -2, 2, 3])
            p = product_of([S([x, y], [0, 1]), rand_factor(rng, 2)])
            if p is not None:
                break
        jobs.append(_is_prod_job("is_prod_unit_roots", p, (2, 2), 50, True))
    jobs.append(_is_prod_job("is_prod_repeated_roots", _REPEATED, (2, 2), 50, "DegenerateRootsError"))
    for shape in [(2, 2), (2, 2), (2, 3)]:
        while True:  # 2x3: roots not closed under negation, see probe_factorize_roots_pm
            p = rand_product(rng, shape)
            if shape == (2, 2) or any(p.rec[0::2]):
                break
        jobs.append(_factorize_roots_job(f"factorize_roots_{shape[0]}x{shape[1]}", p, *shape))
    for bound in (2, 3):
        while True:  # a zero-free left factor: see probe_factorize_integer_zeros
            left = rand_factor(rng, 2, bound)
            p = product_of([left, rand_factor(rng, 2)]) if all(terms_of(left, 12)[1:]) else None
            if p is not None:
                break
        jobs.append(_factorize_integer_job(p, bound))
    return jobs


def _factorize_integer_job(seq, bound, cls=None):
    def call():
        stats = {}
        pair = factor.factorize_integer(seq, 2, 2, bound, budget=1e6, stats=stats)
        return pair, stats

    def check(out):
        pair, stats = out
        if not stats.get("candidates"):
            return bad("no candidate counted")
        return check_pair(pair, seq, (2, 2))

    return Job(cls or f"factorize_integer_b{bound}", call, check)


# --- dimers --------------------------------------------------------------------------

_TRUTH = {}


def _counts(m, n, weights=(1, 1)):
    key = (m, weights)
    if len(_TRUTH.get(key, ())) < n:
        _TRUTH[key] = O.tilings(m, n, *weights)
    return _TRUTH[key][:n]


def _strip_truth(m, weights, n):
    """The terms dimer_seq encodes: count(m, k+1), or count(m, 2k+2) for odd m."""
    if m % 2 == 0:
        return _counts(m, n, weights)
    return _counts(m, 2 * n, weights)[1::2]


def _check_strip_seq(out, m, weights):
    bound = 1 << m
    return check_seq(out, _strip_truth(m, weights, 2 * bound), bound)


def _rand_weights(rng):
    return (F(rng.randint(1, 9), rng.randint(1, 9)), F(rng.randint(1, 9), rng.randint(1, 9)))


def _dimer_terms_job(m, n, weights):
    def check(out):
        want = _counts(m, n, weights)
        return None if list(out) == want else bad(f"width-{m} counts differ")

    cls = f"dimer_terms_{m}" + ("_weighted" if weights != (1, 1) else "")
    return Job(cls, lambda: dimers.dimer_terms(m, n, weights), check)


def _kasteleyn_job(m, n):
    return Job(
        f"kasteleyn_{m}",
        lambda: dimers.kasteleyn_count(m, n),
        lambda out: None if out == _counts(m, n)[-1] else bad(f"{m}x{n} closed form differs"),
    )


def _report_job(m, weights):
    def check(rep):
        err = _check_strip_seq(rep.seq, m, weights)
        if err:
            return err
        order = rep.seq.order
        if rep.minimal_order != order:
            return bad(f"minimal order {rep.minimal_order} != {order}")
        k = log2(order)
        if order == 1 or k != int(k):
            return None if not rep.applicable else bad("test applied to a non-power-of-2 order")
        if not rep.applicable or not rep.verdict.is_product or rep.factor_orders != (2,) * int(k):
            return bad(f"strip sequence not reported as a product of order-2 parts: {rep}")
        return None

    cls = f"dimer_product_report_{m}" + ("_weighted" if weights != (1, 1) else "")
    return Job(cls, lambda: dimers.dimer_product_report(m, weights=weights), check)


def _dimers_round(rng, index):
    jobs = []
    for m, n in [(2, 40), (3, 40), (4, 36), (5, 30), (6, 28), (7, 24), (8, 24)]:
        jobs.append(_dimer_terms_job(m, n, (1, 1)))
        # the closed form on every even-area grid of the strip, up to height 32
        jobs += [_kasteleyn_job(m, k) for k in range(1, min(n, 32) + 1) if m * k % 2 == 0]
    for m in (3, 4, 5, 6):
        jobs.append(_dimer_terms_job(m, 16, _rand_weights(rng)))
    for m in (2, 3, 4, 5, 6):
        jobs.append(Job(f"dimer_seq_{m}", lambda m=m: dimers.dimer_seq(m), lambda out, m=m: _check_strip_seq(out, m, (1, 1))))
    for m, weights in [(4, (1, 1)), (6, (1, 1)), (4, _rand_weights(rng))]:
        jobs.append(_report_job(m, weights))
    return jobs


# --- interactive ---------------------------------------------------------------------

def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _num(x):
    x = F(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def lit(s):
    """The sequence literal [[d1, ..., dL], [c1, ..., cL]]."""
    return f"[[{', '.join(map(_num, s.init))}], [{', '.join(map(_num, s.rec))}]]"


def _cli_job(cls, argv, code, check=None):
    """A cli.main request that must exit `code`; `check(stdout)` on success."""

    def verify(out):
        got, stdout = out
        if got != code:
            return ("exit_code", f"exit {got}, expected {code}: {argv}")
        return check(stdout) if check else None

    return Job(cls, lambda: run_cli(argv), verify)


def _poly_text(cs):
    """Ascending coefficients as text, e.g. 1 - 2*z + z^2."""
    out = ""
    for k, c in enumerate(cs):
        if c:
            mono = "" if k == 0 else "z" if k == 1 else f"z^{k}"
            body = _num(abs(c)) if not mono else mono if abs(c) == 1 else f"{_num(abs(c))}*{mono}"
            out += (body if c > 0 else f"-{body}") if not out else (f" + {body}" if c > 0 else f" - {body}")
    return out or "0"


def _seq_from_stdout(stdout, use_json):
    if use_json:
        d = json.loads(stdout)
        return S([F(x) for x in d["init"]], [F(x) for x in d["rec"]])
    init, rec = O.parse_literal(stdout)
    return S(init, rec)


def _interactive_round(rng, index):
    jobs = []
    for i in range(6):  # guess on 10-30 terms
        s = rand_seq(rng, 1 + i % 3)
        terms = terms_of(s, 10 + 4 * i)
        if terms[0] < 0:  # a leading "-" would read as an option
            terms = [-t for t in terms]
        use_json = i % 2 == 0
        argv = (["--json"] if use_json else []) + ["guess", ",".join(map(str, terms))]
        jobs.append(_cli_job("cli_guess", argv, 0, lambda o, t=terms, j=use_json: _guess_check(t, 12)(_seq_from_stdout(o, j))))
    terms = [F(rng.randint(0 if i == 0 else -9, 9)) for i in range(10)]
    expect = 1 if len(O.berlekamp_massey(terms)) > 3 else 0
    jobs.append(_cli_job("cli_guess_none", ["guess", ",".join(map(str, terms))], expect))
    for i in range(4):
        s = rand_seq(rng, 1 + i % 3, True)
        n = 8 + 4 * i
        want = terms_of(s, n)
        jobs.append(_cli_job("cli_terms", ["terms", lit(s), str(n)], 0,
                             lambda o, w=want: None if O.parse_csv(o) == w else bad("terms differ")))
    for i in range(3):
        s = rand_seq(rng, 1 + i, True)
        truth = terms_of(s, 8)

        def gf_check(o, truth=truth):
            d = json.loads(o)
            num, den = [F(x) for x in d["numerator"]], [F(x) for x in d["denominator"]]
            return None if O.series(num, den, 8) == truth else bad("generating function differs")

        jobs.append(_cli_job("cli_gf_to_r", ["--json", "gf", lit(s)], 0, gf_check))
        num = [F(rng.randint(-3, 3)) for _ in range(2)]
        den = [F(1)] + [F(rng.randint(-3, 3)) for _ in range(2)]
        if not any(num):
            num[0] = F(1)
        text = f"({_poly_text(num)})/({_poly_text(den)})"
        truth = O.series(num, den, 12)
        bound = max(len(den) - 1, len(num))
        jobs.append(_cli_job("cli_gf_to_c", ["gf", text], 0,
                             lambda o, t=truth, b=bound: check_seq(_seq_from_stdout(o, False), t, b)))
    for equal in (True, True, False, False):
        s = rand_seq(rng, 2)
        other = S(s.init, s.rec) if equal else S([s.init[0] + 1, s.init[1]], s.rec)

        def prove_check(o, equal=equal):
            return None if json.loads(o)["verified"] == equal else bad("wrong certificate")

        jobs.append(_cli_job("cli_prove", ["--json", "prove", lit(s), lit(other)], 0 if equal else 1, prove_check))
    for k in (2, 3):
        orders = [rng.randint(1, 3) for _ in range(k)]
        want = O.indicator(orders)
        jobs.append(_cli_job("cli_indicator", ["indicator", *map(str, orders)], 0,
                             lambda o, w=want: None if O.parse_literal(o) == w else bad("indicator differs")))
    for verb, op in (("add", lambda x, y: x + y), ("mul", lambda x, y: x * y)):
        for l1, l2 in ((1, 2), (2, 1), (2, 2)):
            a, b = rand_seq(rng, l1), rand_seq(rng, l2)
            bound = a.order + b.order if verb == "add" else a.order * b.order
            truth = [op(x, y) for x, y in zip(terms_of(a, 2 * bound), terms_of(b, 2 * bound))]
            jobs.append(_cli_job(f"cli_{verb}", [verb, lit(a), lit(b)], 0,
                                 lambda o, t=truth, bd=bound: check_seq(_seq_from_stdout(o, False), t, bd)))
    for expect in (0, 0, 1):
        seq = rand_product(rng, (2, 2)) if expect == 0 else geometric_sum(rng)
        jobs.append(_cli_job("cli_isprod", ["isprod", lit(seq), "--orders", "2,2", "--digits", "40"], expect))
    for _ in range(3):
        name, params, want = _named(rng)
        jobs.append(_cli_job("cli_seq", ["seq", name, *params], 0,
                             lambda o, w=want: None if terms_of(_seq_from_stdout(o, False), 10) == w else bad("named sequence differs")))
    for m, n in ((2, 12), (3, 10), (4, 8)):
        want = _counts(m, n)
        jobs.append(_cli_job("cli_dimer", ["dimer", "--width", str(m), "--terms", str(n)], 0,
                             lambda o, w=want: None if O.parse_csv(o) == w else bad("dimer counts differ")))
    jobs.append(_cli_job("cli_verify_identity", ["verify-identity", "shapiro", "--terms", "12"], 0,
                         lambda o: None if o.startswith("VERIFIED") else bad("identity not verified")))
    for _ in range(2):
        terms = _nlr_terms(rng)

        def nlr_check(o, terms=terms):
            d = json.loads(o)
            return _check_relation(d["support"], d["coefficients"], terms, 1)

        jobs.append(_cli_job("cli_nlr", ["--json", "nlr", ",".join(map(str, terms)), "--order", "1", "--degree", "2"], 0, nlr_check))
    for argv in rng.sample(_MALFORMED, 5):  # about 1 request in 10
        jobs.append(_cli_job("cli_malformed", argv, 2))
    return jobs


def _named(rng):
    fib = O.unroll([0, 1], [1, 1], 10)
    choices = [
        ("fibonacci", [], fib),
        ("lucas", [], O.unroll([2, 1], [1, 1], 10)),
        ("pell", [], O.unroll([0, 1], [2, 1], 10)),
        ("natural", [], [F(n) for n in range(10)]),
    ]
    x = F(rng.randint(1, 5), rng.randint(1, 3))
    choices += [
        ("geometric", [str(x)], [x**n for n in range(10)]),
        ("chebyshev_u", [str(x)], O.unroll([1, 2 * x], [2 * x, -1], 10)),
        ("chebyshev_t", [str(x)], O.unroll([1, x], [2 * x, -1], 10)),
    ]
    return rng.choice(choices)


# each must exit 2 (usage or input error)
_MALFORMED = [
    ["terms", "[[1,2],[3]]", "5"],
    ["terms", "[[a],[1]]", "5"],
    ["add", "[[1],[1]", "[[1],[2]]"],
    ["frobnicate", "1"],
    ["isprod", "[[0,1],[1,1]]"],
    ["isprod", "[[0,1,2,10],[2,7,2,-1]]", "--orders", "2,x"],
    ["guess", "1,2,3"],
    ["dimer", "--width", "0"],
    ["gf", "(1)/(0)"],
    ["indicator", "two"],
    ["subseq", "[[0,1],[1,1]]", "0"],
    ["seq", "chebyshev_u"],
    ["isprod", "[[0,1],[1,1]]", "--orders", "2,2"],
]


# --- assembly ------------------------------------------------------------------------

_ROUND = {
    "closure": _closure_round,
    "products": _products_round,
    "dimers": _dimers_round,
    "interactive": _interactive_round,
}


def rounds_for(workload, seconds):
    return max(1, round(seconds / ROUND_S[workload]))


def build(workload, seed, rounds):
    """The job list: `rounds` stratified rounds, each in a seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = []
    for index in range(rounds):
        batch = _ROUND[workload](rng, index)
        rng.shuffle(batch)
        jobs += batch
    return jobs


def probes(workload):
    """Known-defect inputs, run after the timed loop and counted apart.

    Each fails at the parent commit of this benchmark; a fix shows as a
    probe that passes.
    """
    big = product_of([S([1, 2], [BIG, 1]), S([0, 1], [1, 1])], separated=False)
    if workload == "products":
        # left factor 0, 1, 0, 2, ... is in the bound-2 search space, but
        # vanishes at every other index, so no zero-free stretch is long enough
        zeros = product_of([S([0, 1], [0, 2]), S([1, 0], [3, 1])], separated=False)
        # an order-2 factor with roots +a and -a: every root of the product
        # has its negative as a root too, and the grid search fails
        pm = S([2, -1, 0, -6, 18, -27], [0, 7, 0, -3, 0, 9])
        return [
            _is_prod_job("probe_is_prod_1e24", big, (2, 2), 50, True),
            _factorize_roots_job("probe_factorize_roots_1e24", big, 2, 2),
            _factorize_integer_job(zeros, 2, "probe_factorize_integer_zeros"),
            _factorize_roots_job("probe_factorize_roots_pm", pm, 2, 3),
        ]
    if workload == "interactive":
        return [
            _cli_job("probe_cli_terms_div0", ["terms", "[[1/0],[1]]", "5"], 2),
            _cli_job("probe_cli_isprod_1e24", ["isprod", lit(big), "--orders", "2,2", "--digits", "50"], 0),
            _cli_job("probe_cli_factor_1e24", ["factor", lit(big), "--orders", "2,2", "--digits", "50"], 0),
        ]
    return []
