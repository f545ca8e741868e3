import itertools
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cfinite.core import CFiniteSeq, Polynomial, _clear_denominators, _image, eval_terms, minimize
from cfinite.core import mpoly_dot, mpoly_eval, scale, shift
from cfinite.gf import RationalGF, taylor
from cfinite import guess, linalg
from cfinite.guess import (
    SAFETY_TERMS,
    GuessConfig,
    MAX_MONOMIALS,
    InvariantViolation,
    _berlekamp_massey,
    _monomial_count,
    _monomials,
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
    cfg = GuessConfig(max_order=draw(st.integers(min_value=1, max_value=9)))
    return terms, cfg


rational_terms = st.fractions(min_value=-20, max_value=20, max_denominator=12)


class TestBerlekampMassey:
    """The fraction-free kernel returns exactly the textbook pass over Q."""

    @staticmethod
    def check(terms, max_l):
        # the kernel runs on ints: C / C_0 is the connection polynomial of
        # the pass over Q on the same ints, and the linear complexity is that
        # of the terms before clearing (their scale does not change it)
        terms = [Fraction(t) for t in terms]
        ints = _clear_denominators(terms)[1]
        got = _berlekamp_massey(ints, max_l)
        oracle = oracles.berlekamp_massey_q(ints, max_l)
        rational = oracles.berlekamp_massey_q(terms, max_l)
        assert (got is None) == (oracle is None) == (rational is None)
        if got is None:
            return None
        L, C = got
        assert all(type(c) is int for c in C)
        got = (L, [Fraction(c, C[0]) for c in C])
        assert got == oracle
        assert L == rational[0]
        return got

    @given(st.lists(st.integers(-9, 9), max_size=30), st.integers(0, 16))
    @settings(max_examples=60, deadline=None)
    def test_integer_terms(self, terms, max_l):
        self.check(terms, max_l)

    @given(st.lists(rational_terms, max_size=30), st.integers(0, 16))
    @settings(max_examples=60, deadline=None)
    def test_rational_terms(self, terms, max_l):
        self.check(terms, max_l)

    @given(
        st.lists(rational_terms, min_size=1, max_size=6),
        st.lists(rational_terms, min_size=1, max_size=6),
        st.integers(0, 8),
    )
    @settings(max_examples=40, deadline=None)
    def test_recurrence_terms(self, init, rec, max_l):
        L = min(len(init), len(rec))
        terms = oracles.recurrence_terms(init[:L], rec[:L], 2 * L + 4)
        self.check(terms, max_l)

    def test_all_zero_terms(self):
        assert self.check([0] * 12, 0) == (0, [1])

    def test_cut_off_at_max_l(self):
        # Pell with a rational scale: complexity 2, so max_l = 1 refuses it
        terms = eval_terms(CFiniteSeq([Fraction(1, 3), Fraction(2, 7)], [2, 1]), 12)
        assert self.check(terms, 1) is None
        assert self.check(terms, 2)[0] == 2
        # no fit: the complexity of generic terms is about half their number
        noise = [Fraction((7**k) % 11, 1 + k % 4) for k in range(20)]
        assert self.check(noise, 9) is None
        assert self.check(noise, 10)[0] == 10


class TestGuessRecIsMinimal:
    @given(guess_inputs())
    @settings(max_examples=300, deadline=None)
    def test_equals_brute_force_oracle(self, case):
        terms, cfg = case
        # the order cap leaves SAFETY_TERMS equations beyond 2L terms
        max_l = min(cfg.max_order, (len(terms) - SAFETY_TERMS) // 2)
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

    def test_close_asks_for_guess_recs_margin(self, monkeypatch):
        # the driver requests 2 bound + SAFETY_TERMS terms, the count at which
        # guess_rec's cap reaches the bound, whatever the margin
        monkeypatch.setattr(guess, "SAFETY_TERMS", 6)
        asked = []

        def make(n):
            asked.append(n)
            return _image(FIB, n)

        assert guess._close("fibonacci", 4, make) == FIB
        assert asked == [2 * 4 + 6]

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


def bm_minimal(terms, max_l):
    """The minimal encoding of the terms by Berlekamp-Massey over Q."""
    L, C = oracles.berlekamp_massey_q(terms, max_l)
    L = max(1, L)
    rec = [-c for c in C[1 : L + 1]]
    return CFiniteSeq(terms[:L], rec + [0] * (L - len(rec)))


def assert_closure(found, terms, bound):
    """found is the BM-over-Q minimal encoding of the op's first
    2 bound + SAFETY_TERMS terms, and matches every oracle term."""
    assert found == bm_minimal(terms[: 2 * bound + SAFETY_TERMS], bound)
    assert eval_terms(found, len(terms)) == terms


def geometric_twist(init, rec, q):
    """The sequence a(n) / q^n: init a(i) / q^i, rec c_k / q^k."""
    q = Fraction(q)
    return (
        [a / q**i for i, a in enumerate(init)],
        [c / q**k for k, c in enumerate(rec, start=1)],
    )


def non_minimal(init, rec, r):
    """The same sequence at order L + 1: the characteristic polynomial times
    (z - r), with the first L + 1 terms as initial terms."""
    L = len(rec)
    wide = [rec[0] + r] + [rec[k] - r * rec[k - 1] for k in range(1, L)] + [-r * rec[-1]]
    return CFiniteSeq(oracles.recurrence_terms(init, rec, L + 1), wide)


fracs = st.fractions(min_value=-5, max_value=5, max_denominator=6)


class TestImageClosuresAgainstOracles:
    """Closures on integer images against the terms and BM over Q."""

    N = 40

    @given(rational_recurrences(3), rational_recurrences(3))
    @settings(max_examples=60, deadline=None)
    def test_add_with_different_scales(self, p1, p2):
        i1, r1 = geometric_twist(*p1, 2)
        i2, r2 = geometric_twist(*p2, 3)
        s1, s2 = CFiniteSeq(i1, r1), CFiniteSeq(i2, r2)
        assume(_image(s1, 1)[1] != _image(s2, 1)[1])
        t1 = oracles.recurrence_terms(i1, r1, self.N)
        t2 = oracles.recurrence_terms(i2, r2, self.N)
        terms = [a + b for a, b in zip(t1, t2)]
        assert_closure(add(s1, s2), terms, s1.order + s2.order)

    @given(rational_recurrences(3), rational_recurrences(3))
    @settings(max_examples=40, deadline=None)
    def test_mul(self, p1, p2):
        s1, s2 = CFiniteSeq(*p1), CFiniteSeq(*p2)
        t1 = oracles.recurrence_terms(*p1, self.N)
        t2 = oracles.recurrence_terms(*p2, self.N)
        terms = [a * b for a, b in zip(t1, t2)]
        assert_closure(mul(s1, s2), terms, s1.order * s2.order)

    @given(rational_recurrences(), st.integers(1, 4), st.integers(1, 5))
    @settings(max_examples=80, deadline=None)
    def test_subsequence_with_offset(self, pair, step, offset):
        long = oracles.recurrence_terms(*pair, step * (self.N - 1) + offset + 1)
        terms = long[offset::step]
        seq = CFiniteSeq(*pair)
        assert_closure(subsequence(seq, step, offset), terms, seq.order)

    @given(rational_recurrences())
    @settings(max_examples=60, deadline=None)
    def test_partial_sums(self, pair):
        terms = list(itertools.accumulate(oracles.recurrence_terms(*pair, self.N)))
        seq = CFiniteSeq(*pair)
        assert_closure(partial_sums(seq), terms, seq.order + 1)

    @given(rational_recurrences())
    @settings(max_examples=60, deadline=None)
    def test_binomial_transform(self, pair):
        terms = oracles.binomial_transform_terms(oracles.recurrence_terms(*pair, self.N))
        seq = CFiniteSeq(*pair)
        assert_closure(binomial_transform(seq), terms, seq.order)

    @given(rational_recurrences(5), fracs)
    @settings(max_examples=80, deadline=None)
    def test_minimize_non_minimal_encoding(self, pair, r):
        wide = non_minimal(*pair, r)
        terms = oracles.recurrence_terms(*pair, self.N)
        assert eval_terms(wide, self.N) == terms
        found = minimize(wide)
        assert found.order <= len(pair[1])
        assert_closure(found, terms, wide.order)

    ZERO = CFiniteSeq([0], [0])

    @pytest.mark.parametrize(
        "op",
        [
            lambda: minimize(CFiniteSeq([0, 0], [Fraction(1, 3), 2])),
            lambda: add(FIB, scale(FIB, -1)),
            lambda: mul(CFiniteSeq([Fraction(1, 2), 0], [0, 0]), CFiniteSeq([0, 5], [0, 0])),
            lambda: partial_sums(CFiniteSeq([0], [Fraction(2, 7)])),
            lambda: binomial_transform(CFiniteSeq([0, 0, 0], [1, Fraction(-1, 2), 3])),
            lambda: subsequence(CFiniteSeq([0, 1], [0, 0]), 2, 2),
        ],
    )
    def test_zero_sequences(self, op):
        assert op() == self.ZERO

    @pytest.mark.parametrize(
        "seq",
        [
            CFiniteSeq([1, 2, 3], [0, 0, 0]),
            CFiniteSeq([Fraction(1, 2), Fraction(2, 3)], [Fraction(3, 5), 0]),
            CFiniteSeq([Fraction(-1, 4), 1, Fraction(7, 9)], [2, Fraction(1, 3), 0]),
        ],
    )
    def test_fits_with_zero_last_coefficient(self, seq):
        L = seq.order
        terms = eval_terms(seq, self.N)
        assert minimize(seq) == seq == bm_minimal(terms, L)
        # the closures keep c_L = 0 in their own fits too
        for found, want, bound in [
            (mul(seq, FIB), [a * b for a, b in zip(terms, eval_terms(FIB, self.N))], 2 * L),
            (subsequence(seq, 1, 1), terms[1:] + eval_terms(seq, self.N + 1)[-1:], L),
        ]:
            assert_closure(found, want, bound)

    def test_fit_rejects_a_corrupted_image_term(self, monkeypatch):
        # a connection polynomial that misses one term of the image fails the
        # integer check, as a wrong Berlekamp-Massey pass would
        E, D, x = _image(CFiniteSeq([1, Fraction(1, 2)], [Fraction(1, 3), Fraction(2, 9)]), 12)
        clean = guess._berlekamp_massey(x, 4)
        x[9] += 1
        monkeypatch.setattr(guess, "_berlekamp_massey", lambda s, max_l: clean)
        with pytest.raises(InvariantViolation, match="failed verification"):
            guess._fit(E, D, x, 4)

    def test_close_rejects_a_corrupted_image_term(self):
        def make(n):
            E, D, x = _image(PELL, n)
            x[-1] += 1
            return E, D, x

        with pytest.raises(InvariantViolation, match="contradicts the closure bound"):
            guess._close("corrupted", PELL.order, make)


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

    def test_relation_failing_a_row_is_an_invariant_violation(self, monkeypatch):
        # the last term is off by one, so a(n) - a(n-1) - a(n-2), handed back
        # as the kernel, fails the last row only
        terms = eval_terms(FIB, 20)
        terms[-1] += 1
        fib_relation = [Fraction(1), Fraction(-1), Fraction(-1), Fraction(0)]
        monkeypatch.setattr(linalg, "nullspace", lambda rows: [fib_relation])
        with pytest.raises(InvariantViolation, match="re-verification"):
            guess_nlr(terms, order=2, degree=1)

    def test_int_terms_reach_the_kernels_as_ints(self, monkeypatch):
        # int terms are not re-wrapped as Fractions on the way in
        seen = []

        def spy(values):
            seen.append(list(values))
            return _clear_denominators(values)

        monkeypatch.setattr(guess, "_clear_denominators", spy)
        terms = [int(t) for t in eval_terms(FIB, 20)]
        assert guess_nlr(terms, order=2, degree=1) is not None
        assert guess_rec(terms, GuessConfig(max_order=3)) == FIB
        # 18 windows of guess_nlr, then guess_rec's one pass
        assert len(seen) == 19 and all(type(x) is int for window in seen for x in window)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("degree", [2, 3])
    def test_rational_terms_give_the_relation_over_q(self, seed, degree):
        # integer rows scaled by D^degree have the kernel of the Fraction
        # rows: half-integer k (a(n)^2 - k a(n) a(n-1) + a(n-1)^2 is
        # constant) and p / (q n + r) (p a(n-1) - p a(n) = q a(n) a(n-1))
        rng = random.Random(f"nlr-rational-{seed}")
        k = Fraction(rng.choice([1, 3, 5, 7]), 2)
        init = [Fraction(rng.randint(-4, 4), rng.randint(1, 5)), Fraction(rng.randint(1, 4), 3)]
        p, q, r = rng.randint(1, 5), rng.randint(1, 4), rng.randint(1, 6)
        n_terms = 1 + 2 * len(_monomials(2, degree)) + 4
        for terms in (
            eval_terms(CFiniteSeq(init, [k, -1]), n_terms),
            [Fraction(p, q * n + r) for n in range(n_terms)],
        ):
            rel = guess_nlr(terms, order=1, degree=degree)
            assert rel is not None
            expected = oracles.nlr_relation(terms, 1, degree)
            assert (list(rel.support), list(rel.coefficients)) == expected

    def test_monomial_count_is_exact_up_to_the_cap(self):
        for nvars, degree in itertools.product(range(1, 8), range(1, 8)):
            assert _monomial_count(nvars, degree) == comb(nvars + degree, degree)
        assert _monomial_count(MAX_MONOMIALS - 1, 1) == MAX_MONOMIALS
        assert _monomial_count(MAX_MONOMIALS, 1) is None
        assert _monomial_count(10**6 + 1, 10**6) is None

    @pytest.mark.parametrize("nvars", range(1, 5))
    @pytest.mark.parametrize("degree", range(5))
    def test_monomials_match_the_filtered_cube(self, nvars, degree):
        assert _monomials(nvars, degree) == oracles.monomials_cube(nvars, degree)

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


SHAPIRO = (corpus.shapiro_product_lhs, corpus.shapiro_product_gf)
EKHAD = (corpus.ekhad_product_lhs, corpus.ekhad_product_gf)
# the five points per parameter the identities were once checked on
OLD_GRID = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)]


def _linear_product(roots):
    """prod (q a - p) over the roots p/q, in Z[a, b]."""
    out = {(0, 0): 1}
    for r in roots:
        out = mpoly_dot([out], [{(1, 0): r.denominator, (0, 0): -r.numerator}])
    return out


class TestParametricIdentities:
    @pytest.mark.parametrize(
        "builders, bound", [(SHAPIRO, 8), (EKHAD, 16)], ids=["shapiro", "ekhad"]
    )
    @pytest.mark.parametrize("terms", [-3, 0, 1, 8, 20, 100])
    def test_named_identity(self, builders, bound, terms):
        # series_terms is accepted and ignored: exactly M coefficients are read
        lhs, rhs = (b.symbolic for b in builders)
        cert = verify_parametric_identity(lhs, rhs, series_terms=terms)
        assert cert.verified
        assert (cert.order_bound, cert.terms_checked) == (bound, bound)
        assert f"M = K1 + max(K2, deg N + 1) = {bound}" in cert.statement

    def test_point_builders_carry_their_form(self):
        # the positional call form of the benchmark's trace primer
        cert = verify_parametric_identity(*SHAPIRO, [2, 2], 4)
        assert cert.verified
        assert (cert.order_bound, cert.terms_checked) == (8, 8)

    def test_planted_grid_counterexample_refused(self):
        # 4v = a(2a - 1)(a - 1)(2a - 3)(a - 2) vanishes on the old grid, so
        # N/D + 4v t^6 agrees with the left side at each of its 25 points
        four_v = _linear_product(OLD_GRID)
        num, den = corpus.shapiro_product_gf.symbolic
        # the planted numerator N + 4v t^6 D, coefficient by coefficient
        shifted = [{}] * 6 + [mpoly_dot([four_v], [d]) for d in den]
        planted = [mpoly_dot([n, {(0, 0): 1}], [{(0, 0): 1}, s])
                   for n, s in itertools.zip_longest(num, shifted, fillvalue={})]
        for a, b in itertools.product(OLD_GRID, repeat=2):
            point = RationalGF(*(Polynomial(mpoly_eval(c, (a, b)) for c in f)
                                 for f in (planted, den)))
            assert taylor(point, 20) == eval_terms(corpus.shapiro_product_lhs(a, b), 20)
        cert = verify_parametric_identity(corpus.shapiro_product_lhs.symbolic, (planted, den))
        assert not cert.verified
        assert cert.statement == (
            "D*LHS - N has the coefficient -4*a^5 + 20*a^4 - 35*a^3 + 25*a^2 - 6*a "
            "at t^6, so the series differ first at coefficient 6"
        )
        # deg N = 10 now: M = 4 + 11
        assert (cert.order_bound, cert.terms_checked) == (15, 7)

    def test_perturbed_ekhad_denominator_refused(self):
        num, den = corpus.ekhad_product_gf.symbolic
        d3 = dict(den[3])
        d3[(1, 1, 1)] += 1  # the abc coefficient of t^3: 40 -> 41
        cert = verify_parametric_identity(
            corpus.ekhad_product_lhs, (num, [*den[:3], d3, *den[4:]])
        )
        assert not cert.verified
        # D*LHS - N gains abc t^3 times LHS(0) = 1
        assert "the coefficient a*b*c at t^3" in cert.statement

    @pytest.mark.parametrize("d0", [{}, None], ids=["zero_d0", "zero_d"])
    def test_bad_input_rejected(self, d0):
        # D(0) = 0 (None: D = 0) has no series
        num, den = corpus.shapiro_product_gf.symbolic
        den = [] if d0 is None else [d0, *den[1:]]
        with pytest.raises(ValueError, match="D\\(0\\)"):
            verify_parametric_identity(corpus.shapiro_product_lhs, (num, den))

    def test_mismatch_reported(self):
        # 2 U_n(a), wrong by a factor 2, against the GF 1 / (1 - 2at + t^2) of U_n(a)
        two_u = ([{(0,): 2}, {(1,): 4}], [{(1,): 2}, {(0,): -1}])
        gf_u = ([{(0,): 1}], [{(0,): 1}, {(1,): -2}, {(0,): 1}])
        cert = verify_parametric_identity([two_u], gf_u)
        assert not cert.verified
        assert cert.statement == (
            "D*LHS - N has the coefficient 1 at t^0, so the series differ first "
            "at coefficient 0"
        )
        assert (cert.order_bound, cert.terms_checked) == (4, 1)

    @pytest.mark.parametrize(
        "builders, points",
        [
            (SHAPIRO, [(Fraction(1, 2), Fraction(3, 5)), (2, Fraction(-7, 3)),
                       (Fraction(5, 4), Fraction(1, 7))]),
            (EKHAD, [(Fraction(1, 2), Fraction(3, 5), 2), (2, Fraction(-7, 3), Fraction(1, 3)),
                     (Fraction(5, 4), Fraction(1, 7), Fraction(-3, 2))]),
        ],
        ids=["shapiro", "ekhad"],
    )
    def test_order_bound_finds_every_perturbation(self, builders, points):
        # add 1 to one coefficient of N or of D, up to one index past its
        # degree: the check must refuse, at the first coefficient where the
        # two sides' series differ at one of the points, looked for out to 3M
        lhs, (num, den) = (b.symbolic for b in builders)
        const = (0,) * len(points[0])
        for side in (0, 1):
            for i in range(len((num, den)[side]) + 1):
                sides = [list(num), list(den)]
                coeffs = sides[side]
                coeffs += [{}] * (i + 1 - len(coeffs))
                c = {**coeffs[i], const: coeffs[i].get(const, 0) + 1}
                coeffs[i] = {e: v for e, v in c.items() if v}
                cert = verify_parametric_identity(lhs, tuple(sides))
                assert not cert.verified, (side, i)
                first = min(
                    self._first_difference(lhs, sides, pt, 3 * cert.order_bound) for pt in points
                )
                assert cert.terms_checked - 1 == first < cert.order_bound, (side, i)

    @staticmethod
    def _first_difference(factors, sides, point, T):
        """The first index below T where N/D and the product of the factors'
        terms differ at the point, by the oracles; T when none does."""
        def at(coeffs):
            return [mpoly_eval(c, point) for c in coeffs]

        left = [1] * T
        for init, rec in factors:
            terms = oracles.recurrence_terms(at(init), at(rec), T)
            left = [x * y for x, y in zip(left, terms)]
        right = oracles.series_of_rational(*map(at, sides), T)
        return next((n for n, (x, y) in enumerate(zip(left, right)) if x != y), T)

    @pytest.mark.parametrize("builders, T", [(SHAPIRO, 20), (EKHAD, 16)], ids=["shapiro", "ekhad"])
    def test_symbolic_sides_match_the_point_builders(self, builders, T):
        # the oracle: guess.mul closes the left side at each point, gf.taylor
        # expands the right side; the symbolic check runs neither
        lhs, rhs = builders
        terms = guess._product_terms(lhs.symbolic, T)
        rng = random.Random(f"identity-{T}")
        nparams = len(next(iter(terms[0])))
        for _ in range(20):
            point = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(nparams)]
            want = [mpoly_eval(t, point) for t in terms]
            assert eval_terms(lhs(*point), T) == want
            assert taylor(rhs(*point), T) == want


def test_spot_check_identity_terms():
    # U_n(1) = n + 1, so the Shapiro LHS at a=b=1 is (n+1)^2
    s = corpus.shapiro_product_lhs(1, 1)
    assert eval_terms(s, 6) == [(n + 1) ** 2 for n in range(6)]
    g = corpus.shapiro_product_gf(1, 1)
    assert taylor(g, 6) == [(n + 1) ** 2 for n in range(6)]
