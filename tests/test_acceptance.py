"""Acceptance suite: twelve end-to-end criteria, one pass/fail line each.

Each criterion prints its verdict directly to the real stdout so the
lines are visible in normal pytest runs, then asserts, so a regression
is both visible and red.
"""

import itertools
import random
import time
from fractions import Fraction

from cfinite.core import CFiniteSeq, eval_terms, minimize
from cfinite.gf import c_to_r, r_to_c, taylor
from cfinite.guess import (
    GuessConfig,
    add,
    binomial_transform,
    guess_nlr,
    guess_rec,
    mul,
    partial_sums,
    prove_equal,
    subsequence,
    verify_parametric_identity,
)
from cfinite.factor import factorize_integer, factorize_roots
from cfinite.roots import is_prod, is_prod_g, prod_indicator
from cfinite.dimers import dimer_product_report, dimer_terms, kasteleyn_count
from cfinite import corpus

import conftest
import oracles

FIB = CFiniteSeq([0, 1], [1, 1])
PELL = CFiniteSeq([0, 1], [2, 1])


def report(num, desc, ok, elapsed):
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {num:2d}: {desc} ({elapsed:.2f}s)"
    print(line)
    conftest.acceptance_lines.append(line)
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_01_fibonacci_encoding():
    t0 = time.monotonic()
    found = guess_rec([0, 1, 1, 2, 3, 5, 8, 13, 21, 34], GuessConfig(max_order=5))
    elapsed = time.monotonic() - t0
    ok = found == CFiniteSeq([0, 1], [1, 1]) and elapsed < 0.1
    report(1, "guess on 10 Fibonacci terms returns [[0,1],[1,1]]", ok, elapsed)


def test_criterion_02_product_indicator():
    t0 = time.monotonic()
    p22 = prod_indicator((2, 2))
    ok = p22.multiplicities == (1, 1, 1, 1, 2, 2, 2, 2, 4)
    ok = ok and p22.total == 16
    for m in range(1, 5):
        for n in range(1, 5):
            ok = ok and prod_indicator((m, n)) == prod_indicator((n, m))
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 0.1
    report(2, "prod_indicator(2,2) = [1,1,1,1,2,2,2,2,4], symmetric", ok, elapsed)


def test_criterion_03_shapiro_identity():
    t0 = time.monotonic()
    cert = verify_parametric_identity(corpus.shapiro_product_lhs, corpus.shapiro_product_gf)
    elapsed = time.monotonic() - t0
    ok = cert.verified and cert.order_bound == 8 and elapsed < 5.0
    report(3, "Chebyshev product identity (2 parameters, exact in Z[a, b])", ok, elapsed)


def test_criterion_04_triple_product_identity():
    t0 = time.monotonic()
    cert = verify_parametric_identity(corpus.ekhad_product_lhs, corpus.ekhad_product_gf)
    elapsed = time.monotonic() - t0
    ok = cert.verified and cert.order_bound == 16 and elapsed < 60.0
    report(4, "Chebyshev triple-product identity (exact in Z[a, b, c])", ok, elapsed)


def test_criterion_05_fibonacci_hadamard_square():
    t0 = time.monotonic()
    sq = mul(FIB, FIB)
    ok = sq.order == 3 and sq.rec == (2, 2, -1)
    # independent oracle: brute-force guess on directly squared terms
    fib_terms = oracles.recurrence_terms([0, 1], [1, 1], 14)
    oracle = oracles.brute_force_guess([t * t for t in fib_terms], 4)
    ok = ok and oracle is not None and oracle[1] == [2, 2, -1]
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 0.1
    report(5, "Fibonacci^2 has minimal order 3, rec (2, 2, -1)", ok, elapsed)


def test_criterion_06_round_trip_suites():
    t0 = time.monotonic()
    ok = True
    rng = random.Random(20110716)
    for _ in range(200):
        init, rec = oracles.random_sequence(rng, max_order=6, rational=True)
        s = CFiniteSeq(init, rec)
        back = r_to_c(c_to_r(s))
        ok = ok and eval_terms(back, 40) == oracles.recurrence_terms(init, rec, 40)
    for _ in range(100):
        i1, r1 = oracles.random_sequence(rng, max_order=3)
        i2, r2 = oracles.random_sequence(rng, max_order=3)
        s1, s2 = CFiniteSeq(i1, r1), CFiniteSeq(i2, r2)
        t1 = oracles.recurrence_terms(i1, r1, 30)
        t2 = oracles.recurrence_terms(i2, r2, 30)
        ok = ok and eval_terms(add(s1, s2), 30) == [a + b for a, b in zip(t1, t2)]
        ok = ok and eval_terms(mul(s1, s2), 30) == [a * b for a, b in zip(t1, t2)]
        ok = ok and eval_terms(binomial_transform(s1), 30) == (
            oracles.binomial_transform_terms(t1)
        )
        ok = ok and eval_terms(partial_sums(s1), 30) == list(
            itertools.accumulate(t1)
        )
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 30.0
    report(6, "GF round trips (200) and closure ops vs oracles (100)", ok, elapsed)


def test_criterion_07_is_prod_battery():
    t0 = time.monotonic()
    ok = True
    rng = random.Random(31415)
    shapes = [(2, 2), (2, 3), (3, 3)]
    positives = []
    done = 0
    while done < 50:
        L1, L2 = shapes[done % 3]
        s1 = CFiniteSeq(
            [rng.randint(1, 5) for _ in range(L1)],
            [rng.randint(-4, 4) for _ in range(L1 - 1)] + [rng.choice([1, -1, 2, -3])],
        )
        s2 = CFiniteSeq(
            [rng.randint(1, 5) for _ in range(L2)],
            [rng.randint(-4, 4) for _ in range(L2 - 1)] + [rng.choice([1, -1, 3, -2])],
        )
        prod = mul(s1, s2)
        if prod.order != L1 * L2:
            continue
        try:
            verdict = is_prod(prod, L1, L2)
        except Exception:
            continue  # degenerate draw (multiple roots); redraw
        ok = ok and verdict.is_product
        positives.append((prod, L1, L2))
        done += 1
    neg = guess_rec(
        [2**n + 3**n + 5**n + 7**n for n in range(12)], GuessConfig(max_order=4)
    )
    for digits in (50, 100, 200):
        ok = ok and not is_prod_g(neg, (2, 2), digits).is_product
        for prod, L1, L2 in positives[:5]:
            ok = ok and is_prod_g(prod, (L1, L2), digits).is_product
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    report(7, "is_prod: 50 products yes, 4-geometric sum no, digits-stable", ok, elapsed)


def test_criterion_08_factorization_recovers_fib_pell():
    t0 = time.monotonic()
    prod = mul(FIB, PELL)
    a = factorize_roots(prod, 2, 2)
    b = factorize_integer(prod, 2, 2, bound=3)
    ok = a is not None and b is not None
    if ok:
        for pair in (a, b):
            ok = ok and {pair.left, pair.right} == {FIB, PELL}
            ok = ok and pair.certificate.verified
            recomb = mul(pair.left, pair.right)
            ok = ok and prove_equal(recomb, prod).verified
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    report(8, "both factorizers split Fib*Pell back into {Fib, Pell}", ok, elapsed)


def test_criterion_09_dimer_cross_checks():
    t0 = time.monotonic()
    ok = True
    for m in range(1, 9):
        top = 16 // m
        if top < 1:
            continue
        counts = dimer_terms(m, top)
        for n in range(1, top + 1):
            ok = ok and counts[n - 1] == oracles.count_tilings(m, n)
    ok = ok and oracles.count_tilings(4, 4) == 36 and dimer_terms(4, 4)[3] == 36
    # the transfer matrix of the oracles is independent of the norms that
    # both dimer_terms and kasteleyn_count compute
    for m in range(1, 7):
        counts = oracles.transfer_matrix_counts(m, 10)
        ok = ok and dimer_terms(m, 10) == counts
        for n in range(1, 11):
            if (m * n) % 2 == 0:
                ok = ok and kasteleyn_count(m, n) == counts[n - 1]
    ok = ok and dimer_terms(2, 5) == [1, 2, 3, 5, 8]
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    report(9, "dimer counts vs backtracking and closed product formula", ok, elapsed)


def test_criterion_10_dimer_products_desk_scale():
    t0 = time.monotonic()
    ok = True
    for m in (4, 6):
        rep = dimer_product_report(m)
        ok = ok and rep.applicable and rep.verdict.is_product
        ok = ok and set(rep.factor_orders) == {2}
    rng = random.Random(8128)
    for _ in range(5):
        h = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        v = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        rep = dimer_product_report(4, weights=(h, v))
        ok = ok and rep.applicable and rep.verdict.is_product
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 600.0
    report(10, "strip sequences are products of order-2 factors (w = 4, 6)", ok, elapsed)


def test_criterion_11_prove_equal_soundness():
    t0 = time.monotonic()
    bt = binomial_transform(FIB)
    sub = subsequence(FIB, 2, 0)
    cert = prove_equal(bt, sub)
    ok = cert.verified and cert.order_bound == 4
    # positive certificates must survive 50 extra terms
    n = cert.order_bound + 50
    ok = ok and eval_terms(bt, n) == eval_terms(sub, n)
    elapsed = time.monotonic() - t0
    report(11, "BT(Fib) = Fib(2n) certificate, re-verified on 50 terms", ok, elapsed)


def test_criterion_12_nonlinear_relation():
    t0 = time.monotonic()
    terms = eval_terms(FIB, 90)
    rel = guess_nlr(terms, order=2, degree=4)
    ok = rel is not None
    if ok:
        ok = ok and rel.order == 2 and rel.degree == 4
        const_idx = rel.support.index((0, 0, 0))
        ok = ok and rel.coefficients[const_idx] != 0
        long = eval_terms(FIB, 101)
        for n in range(2, 101):
            ok = ok and rel.evaluate(long[n - 2 : n + 1]) == 0
    elapsed = time.monotonic() - t0
    report(12, "squared-Cassini relation recovered and holds to n = 100", ok, elapsed)
