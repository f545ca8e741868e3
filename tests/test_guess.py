import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfinite.core import CFiniteSeq, eval_terms, minimize, scale, shift
from cfinite.gf import c_to_r, taylor
from cfinite.guess import (
    GuessConfig,
    InvariantViolation,
    add,
    binomial_transform,
    guess_nlr,
    guess_rec,
    mul,
    partial_sums,
    prove_equal,
    subsequence,
)
from cfinite import corpus

import oracles

FIB = CFiniteSeq([0, 1], [1, 1])
LUCAS = CFiniteSeq([2, 1], [1, 1])
PELL = CFiniteSeq([0, 1], [2, 1])


def recheck_certificate(cert, s1, s2, extra=50):
    """Positive certificates must survive 50 extra terms beyond the bound."""
    assert cert.verified
    n = cert.order_bound + extra
    assert eval_terms(s1, n) == eval_terms(s2, n)


class TestGuessRec:
    def test_fibonacci_from_ten_terms(self):
        found = guess_rec(
            [0, 1, 1, 2, 3, 5, 8, 13, 21, 34], GuessConfig(max_order=3)
        )
        assert found == FIB

    def test_geometric(self):
        found = guess_rec([3, 6, 12, 24, 48, 96], GuessConfig(max_order=3))
        assert found == CFiniteSeq([3], [2])

    def test_constant_zero(self):
        found = guess_rec([0] * 8, GuessConfig(max_order=2))
        assert found == CFiniteSeq([0], [0])

    def test_returns_minimal_order(self):
        # terms of an order-2 sequence must never come back at order 3
        terms = eval_terms(LUCAS, 14)
        found = guess_rec(terms, GuessConfig(max_order=5))
        assert found.order == 2

    def test_no_recurrence_in_budget(self):
        # factorials are not C-finite; a low cap must return None
        facts = [1, 1, 2, 6, 24, 120, 720, 5040, 40320, 362880]
        assert guess_rec(facts, GuessConfig(max_order=3)) is None

    def test_too_few_terms_rejected(self):
        with pytest.raises(ValueError):
            guess_rec([1, 2, 3], GuessConfig(max_order=1))

    def test_safety_margin_caps_order(self):
        # 10 terms, 4 safety -> orders above (10-4)//2 = 3 are not tried
        terms = eval_terms(CFiniteSeq([1, 0, 0, 1], [0, 0, 0, 2]), 10)
        assert guess_rec(terms, GuessConfig(max_order=8)) is None

    def test_rational_terms(self):
        s = CFiniteSeq([Fraction(1, 2), Fraction(1, 3)], [1, Fraction(1, 6)])
        found = guess_rec(eval_terms(s, 12), GuessConfig(max_order=4))
        assert found is not None
        assert eval_terms(found, 12) == eval_terms(s, 12)

    def test_agrees_with_brute_force_oracle(self):
        rng = random.Random(11)
        for _ in range(40):
            init, rec = oracles.random_sequence(rng, max_order=4)
            terms = oracles.recurrence_terms(init, rec, 16)
            found = guess_rec(terms, GuessConfig(max_order=5))
            oracle = oracles.brute_force_guess(terms, 5)
            assert oracle is not None
            assert found == CFiniteSeq(*oracle)

    def test_order_25_product_against_oracle(self):
        # mul of two order-5 sequences: generic order 25 from 54 terms
        s1 = CFiniteSeq([1, 2, 0, -1, 1], [1, -2, 3, 1, 1])
        s2 = CFiniteSeq([0, 1, 1, 3, 2], [2, 1, -1, 1, -1])
        found = mul(s1, s2)
        t1 = oracles.recurrence_terms(s1.init, s1.rec, 54)
        t2 = oracles.recurrence_terms(s2.init, s2.rec, 54)
        oracle = oracles.brute_force_guess([a * b for a, b in zip(t1, t2)], 25)
        assert found.order == 25
        assert found == CFiniteSeq(*oracle)


@st.composite
def rational_recurrences(draw, max_order=6):
    """(init, rec) with rational entries; often c_L = 0 or sparse init."""
    fracs = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    L = draw(st.integers(min_value=1, max_value=max_order))
    rec = draw(st.lists(fracs, min_size=L, max_size=L))
    if draw(st.booleans()):
        rec[-1] = Fraction(0)
    sparse = st.one_of(st.just(Fraction(0)), fracs)
    init = draw(st.lists(sparse, min_size=L, max_size=L))
    return init, rec


@st.composite
def guess_inputs(draw):
    """(terms, cfg): recurrence terms, one perturbed term, or all zeros."""
    init, rec = draw(rational_recurrences())
    n = draw(st.integers(min_value=4, max_value=2 * len(rec) + 8))
    terms = oracles.recurrence_terms(init, rec, n)
    kind = draw(st.sampled_from(["exact", "perturbed", "zero"]))
    if kind == "perturbed":
        k = draw(st.integers(min_value=0, max_value=n - 1))
        terms[k] += draw(st.sampled_from([Fraction(1), Fraction(-2, 3)]))
    elif kind == "zero":
        terms = [Fraction(0)] * n
    cfg = GuessConfig(
        max_order=draw(st.integers(min_value=1, max_value=9)),
        safety_terms=draw(st.integers(min_value=0, max_value=6)),
    )
    return terms, cfg


class TestGuessRecIsMinimal:
    @given(guess_inputs())
    @settings(max_examples=300, deadline=None)
    def test_equals_brute_force_oracle(self, case):
        terms, cfg = case
        # the order cap leaves safety_terms equations beyond 2L terms
        max_l = min(cfg.max_order, (len(terms) - cfg.safety_terms) // 2)
        oracle = oracles.brute_force_guess(terms, max_l)
        found = guess_rec(terms, cfg)
        if oracle is None:
            assert found is None
        else:
            assert found == CFiniteSeq(*oracle)

    def test_trailing_zero_coefficient_kept(self):
        # 1, 2, 3, 0, 0, ...: linear complexity 3 with c_3 = 0
        found = guess_rec([1, 2, 3] + [0] * 7, GuessConfig(max_order=4))
        assert found == CFiniteSeq([1, 2, 3], [0, 0, 0])

    @given(rational_recurrences(), st.integers(min_value=0, max_value=6))
    @settings(max_examples=200, deadline=None)
    def test_minimize_is_identity_on_guesses(self, seq, extra):
        init, rec = seq
        terms = oracles.recurrence_terms(init, rec, 2 * len(rec) + 4 + extra)
        found = guess_rec(terms, GuessConfig(max_order=8))
        assert found is not None and found.order <= len(rec)
        assert minimize(found) == found
        oracle_init, oracle_rec = oracles.brute_force_guess(terms, 8)
        assert found == CFiniteSeq(oracle_init, oracle_rec)


class TestClosureOps:
    def test_fib_plus_lucas(self):
        assert add(FIB, LUCAS) == CFiniteSeq([2, 2], [1, 1])

    def test_fib_squared(self):
        assert mul(FIB, FIB) == CFiniteSeq([0, 1, 1], [2, 2, -1])

    def test_binomial_transform_fib(self):
        assert binomial_transform(FIB) == CFiniteSeq([0, 1], [3, -1])

    def test_partial_sums_fib(self):
        # sum F(k) = F(n+2) - 1
        assert partial_sums(FIB) == CFiniteSeq([0, 1, 2], [2, 0, -1])

    def test_subsequence_even_fib(self):
        assert subsequence(FIB, 2, 0) == CFiniteSeq([0, 1], [3, -1])

    def test_subsequence_args_validated(self):
        with pytest.raises(ValueError):
            subsequence(FIB, 0)
        with pytest.raises(ValueError):
            subsequence(FIB, 2, -1)

    def test_order_bounds_hold(self):
        assert add(FIB, PELL).order <= 4
        assert mul(FIB, PELL).order <= 4
        assert partial_sums(PELL).order <= 3
        assert binomial_transform(PELL).order <= 2
        assert subsequence(PELL, 3).order <= 2

    def test_battery_100_random_pairs_against_oracles(self):
        """add/mul/BT/psums on random pairs, checked termwise on 30 terms."""
        rng = random.Random(97)
        for k in range(100):
            i1, r1 = oracles.random_sequence(rng, max_order=3)
            i2, r2 = oracles.random_sequence(rng, max_order=3)
            s1, s2 = CFiniteSeq(i1, r1), CFiniteSeq(i2, r2)
            t1 = oracles.recurrence_terms(i1, r1, 30)
            t2 = oracles.recurrence_terms(i2, r2, 30)
            assert eval_terms(add(s1, s2), 30) == [a + b for a, b in zip(t1, t2)]
            assert eval_terms(mul(s1, s2), 30) == [a * b for a, b in zip(t1, t2)]
            if k < 50:  # transforms are unary, half the battery is plenty
                assert (
                    eval_terms(binomial_transform(s1), 30)
                    == oracles.binomial_transform_terms(t1)
                )
                assert eval_terms(partial_sums(s1), 30) == list(
                    itertools.accumulate(t1)
                )
                step = rng.randint(1, 3)
                off = rng.randint(0, 2)
                long = oracles.recurrence_terms(i1, r1, step * 29 + off + 1)
                assert eval_terms(subsequence(s1, step, off), 30) == [
                    long[step * n + off] for n in range(30)
                ]

    @given(
        st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4),
        st.integers(-4, 4),
    )
    @settings(max_examples=30, deadline=None)
    def test_add_commutes(self, a, b, c, d):
        s1 = CFiniteSeq([a, b], [1, 1])
        s2 = CFiniteSeq([c, d], [2, 1])
        lhs, rhs = add(s1, s2), add(s2, s1)
        assert eval_terms(lhs, 20) == eval_terms(rhs, 20)

    def test_ring_distributivity(self):
        # s1 * (s2 + s3) = s1*s2 + s1*s3, proved by finite check
        rng = random.Random(123)
        for _ in range(10):
            seqs = []
            for _ in range(3):
                i, r = oracles.random_sequence(rng, max_order=2)
                seqs.append(CFiniteSeq(i, r))
            s1, s2, s3 = seqs
            lhs = mul(s1, add(s2, s3))
            rhs = add(mul(s1, s2), mul(s1, s3))
            cert = prove_equal(lhs, rhs)
            recheck_certificate(cert, lhs, rhs)


class TestProveEqual:
    def test_bt_equals_even_subsequence(self):
        bt = binomial_transform(FIB)
        sub = subsequence(FIB, 2, 0)
        cert = prove_equal(bt, sub)
        assert cert.verified
        assert cert.order_bound == 4
        recheck_certificate(cert, bt, sub)

    def test_detects_difference(self):
        cert = prove_equal(FIB, LUCAS)
        assert not cert.verified
        assert "n=0" in cert.statement

    def test_late_difference(self):
        # agree on the first 3 terms, differ afterwards
        a = CFiniteSeq([1, 1, 1], [1, 0, 0])
        b = CFiniteSeq([1, 1, 1], [0, 0, 2])
        cert = prove_equal(minimize(a), b)
        assert not cert.verified

    def test_different_representations_same_sequence(self):
        padded = CFiniteSeq([0, 1, 1, 2], [1, 1, 0, 0])
        cert = prove_equal(FIB, padded)
        recheck_certificate(cert, FIB, padded)

    def test_shift_identity(self):
        # F(n+2) = F(n+1) + F(n)
        lhs = shift(FIB, 2)
        rhs = add(shift(FIB, 1), FIB)
        recheck_certificate(prove_equal(lhs, rhs), lhs, rhs)

    def test_scale_distributes(self):
        lhs = scale(add(FIB, LUCAS), Fraction(3, 2))
        rhs = add(scale(FIB, Fraction(3, 2)), scale(LUCAS, Fraction(3, 2)))
        recheck_certificate(prove_equal(lhs, rhs), lhs, rhs)


class TestGuessNLR:
    def test_squared_cassini(self):
        # (F(n)F(n-2) - F(n-1)^2)^2 = 1, an order-2 degree-4 relation
        terms = eval_terms(FIB, 80)
        rel = guess_nlr(terms, order=2, degree=4)
        assert rel is not None
        # the constant monomial participates
        const_idx = rel.support.index((0,) * 3)
        assert rel.coefficients[const_idx] != 0
        long = eval_terms(FIB, 101)
        for n in range(2, 101):
            assert rel.evaluate(long[n - 2 : n + 1]) == 0

    def test_relation_is_normalized(self):
        rel = guess_nlr(eval_terms(FIB, 80), order=2, degree=4)
        from math import gcd

        g = 0
        for c in rel.coefficients:
            g = gcd(g, c)
        assert g == 1
        assert next(c for c in rel.coefficients if c) > 0

    def test_geometric_relation(self):
        # a(n) = 2 a(n-1) gives the degree-1 relation a(n) - 2 a(n-1) = 0
        terms = [Fraction(2) ** n for n in range(20)]
        rel = guess_nlr(terms, order=1, degree=1)
        assert rel is not None
        for n in range(1, 20):
            assert rel.evaluate(terms[n - 1 : n + 1]) == 0

    def test_no_relation_for_factorials_small_degree(self):
        facts = [Fraction(1)]
        for n in range(1, 45):
            facts.append(facts[-1] * n)
        assert guess_nlr(facts, order=1, degree=2) is None

    def test_needs_enough_terms(self):
        with pytest.raises(ValueError):
            guess_nlr([1, 2, 3, 4, 5], order=2, degree=4)

    def test_str_rendering(self):
        rel = guess_nlr(eval_terms(FIB, 80), order=2, degree=4)
        # (F(n)^2 - F(n)F(n-1) - F(n-1)^2)^2 = 1: a(n-2) has only zero
        # coefficients, so it is not printed
        assert str(rel) == (
            "a(n)^4 - 2*a(n)^3*a(n-1) - a(n)^2*a(n-1)^2 + 2*a(n)*a(n-1)^3 "
            "+ a(n-1)^4 - 1 = 0"
        )

    def test_str_skips_zero_coefficients(self):
        rel = guess_nlr(eval_terms(FIB, 30), order=2, degree=2)
        assert str(rel) == "a(n) - a(n-1) - a(n-2) = 0"


class TestParametricIdentities:
    def test_shapiro_identity_on_grid(self):
        from cfinite.guess import verify_parametric_identity

        grid = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)]
        cert = verify_parametric_identity(
            corpus.shapiro_product_lhs,
            corpus.shapiro_product_gf,
            [2, 2],
            20,
            grids=[grid, grid],
        )
        assert cert.verified
        assert "25 grid points" in cert.statement

    def test_grid_size_validated(self):
        from cfinite.guess import verify_parametric_identity

        with pytest.raises(ValueError):
            verify_parametric_identity(
                corpus.shapiro_product_lhs,
                corpus.shapiro_product_gf,
                [2, 2],
                5,
                grids=[[Fraction(0)], [Fraction(0), Fraction(1), Fraction(2)]],
            )

    def test_mismatch_reported(self):
        from cfinite.guess import verify_parametric_identity

        cert = verify_parametric_identity(
            lambda a: scale(corpus.chebyshev_u(a), 2),  # wrong by a factor 2
            lambda a: c_to_r(corpus.chebyshev_u(a)),
            [1],
            8,
        )
        assert not cert.verified
        assert "mismatch" in cert.statement


def test_spot_check_identity_terms():
    # U_n(1) = n + 1, so the Shapiro LHS at a=b=1 is (n+1)^2
    s = corpus.shapiro_product_lhs(1, 1)
    assert eval_terms(s, 6) == [(n + 1) ** 2 for n in range(6)]
    g = corpus.shapiro_product_gf(1, 1)
    assert taylor(g, 6) == [(n + 1) ** 2 for n in range(6)]
