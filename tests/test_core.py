import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfinite.core import (
    _clear_denominators,
    _is_prime,
    _prime,
    _primitive,
    _rec_scale,
    CFiniteSeq,
    Polynomial,
    content,
    eval_at,
    eval_terms,
    format_poly,
    format_rational,
    format_seq,
    format_mpoly,
    minimize,
    int_poly_gcd,
    mpoly_dot,
    mpoly_eval,
    parse_seq,
    scale,
    shift,
)

import oracles

FIB = CFiniteSeq([0, 1], [1, 1])

small_fracs = st.fractions(
    min_value=-10, max_value=10, max_denominator=6
)


tiny_fracs = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def poly_gcd(a, b):
    """Monic gcd over Q of two Polynomials, by the package's integer engine
    on their primitive integer parts."""
    g = int_poly_gcd(*(_primitive(_clear_denominators(f.coeffs)[1]) for f in (a, b)))
    return Polynomial(Fraction(c, g[-1]) for c in g)


class TestPolynomial:
    def test_trailing_zeros_stripped(self):
        assert Polynomial([1, 2, 0, 0]).coeffs == (1, 2)
        assert Polynomial([0, 0]).is_zero()
        assert Polynomial().degree == -1

    def test_arithmetic(self):
        p = Polynomial([1, 1])  # 1 + z
        q = Polynomial([-1, 1])  # -1 + z
        assert (p * q).coeffs == (-1, 0, 1)
        assert (p + q).coeffs == (0, 2)

    def test_divmod(self):
        # z^2 - 1 = (z + 1)(z - 1) + 0
        num = Polynomial([-1, 0, 1])
        quo, rem = divmod(num, Polynomial([1, 1]))
        assert quo.coeffs == (-1, 1)
        assert rem.is_zero()
        quo, rem = divmod(Polynomial([1, 0, 1]), Polynomial([1, 1]))
        assert quo * Polynomial([1, 1]) + rem == Polynomial([1, 0, 1])

    def test_clear_denominators(self):
        ints = [0, -6, 9]
        got = _clear_denominators(ints)
        assert got == (1, [0, -6, 9]) and got[1] is not ints and ints == [0, -6, 9]
        assert _clear_denominators([Fraction(1, 2), Fraction(-3, 4)]) == (4, [2, -3])
        assert _clear_denominators([3, Fraction(-5, 6), Fraction(1, 4)]) == (12, [36, -10, 3])
        assert _clear_denominators([Fraction(-7), -2]) == (1, [-7, -2])
        assert _clear_denominators([]) == (1, [])

    def test_content(self):
        assert content([Fraction(1, 2), Fraction(3, 4)]) == Fraction(1, 4)
        assert content([0, -6, 9]) == 3
        assert content([0, 0]) == 1
        assert content([]) == 1

    @given(st.lists(small_fracs, min_size=1, max_size=6))
    def test_content_leaves_coprime_integers(self, values):
        c = content(values)
        assert c > 0
        scaled = [v / c for v in values]
        assert all(s.denominator == 1 for s in scaled)
        if any(values):
            assert gcd(*(int(s) for s in scaled)) == 1

    def test_gcd_common_factor(self):
        a = Polynomial([-1, 0, 1])  # (z-1)(z+1)
        b = Polynomial([-1, 1]) * Polynomial([2, 1])
        assert poly_gcd(a, b) == Polynomial([-1, 1])

    def test_gcd_coprime(self):
        assert poly_gcd(Polynomial([1, 1]), Polynomial([2, 1])).degree == 0

    @given(
        st.lists(small_fracs, min_size=1, max_size=5),
        st.lists(small_fracs, min_size=1, max_size=5),
    )
    def test_product_degree_and_commutativity(self, a, b):
        p, q = Polynomial(a), Polynomial(b)
        assert p * q == q * p
        if not p.is_zero() and not q.is_zero():
            assert (p * q).degree == p.degree + q.degree

    @given(
        st.lists(small_fracs, min_size=1, max_size=6),
        st.lists(small_fracs, min_size=1, max_size=4),
    )
    def test_divmod_reconstructs(self, a, b):
        p, q = Polynomial(a), Polynomial(b)
        if q.is_zero():
            return
        quo, rem = divmod(p, q)
        assert quo * q + rem == p
        assert rem.degree < q.degree


# the first two primes of the modular gcd engine
P0, P1 = _prime(0), _prime(1)
factor_lists = st.lists(small_fracs, min_size=0, max_size=4)


def _check_gcd(a, b):
    want = oracles.poly_gcd_euclid(a.coeffs, b.coeffs)
    assert list(poly_gcd(a, b).coeffs) == want, (a, b)
    assert list(poly_gcd(b, a).coeffs) == want, (a, b)


class TestPolyGcd:
    """The modular int_poly_gcd against the Fraction Euclid of the oracles."""

    def test_primes(self):
        primes = [_prime(i) for i in range(6)]
        assert primes[0] == 2**61 - 1
        assert primes == sorted(primes, reverse=True)
        assert all(p.bit_length() == 61 and _is_prime(p) for p in primes)
        # no prime skipped between consecutive ones
        assert not any(_is_prime(n) for n in range(P1 + 2, P0, 2))

    def test_is_prime_against_trial_division(self):
        naive = [n for n in range(3000) if n > 1 and all(n % d for d in range(2, n))]
        assert [n for n in range(3000) if _is_prime(n)] == naive
        # strong pseudoprimes to the bases 2, 3, 5, 7 and to 2 .. 37
        assert not _is_prime(3215031751)
        assert not _is_prime(318665857834031151167461)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(small_fracs, min_size=1, max_size=4), factor_lists, factor_lists)
    def test_planted_common_factor(self, g, u, v):
        G = Polynomial(g)
        _check_gcd(G * Polynomial(u), G * Polynomial(v))

    @settings(max_examples=80, deadline=None)
    @given(st.lists(small_fracs, max_size=1), st.lists(small_fracs, max_size=5))
    def test_zero_and_constant_operands(self, c, f):
        _check_gcd(Polynomial(c), Polynomial(f))
        _check_gcd(Polynomial(), Polynomial(f))

    def test_zero_operands(self):
        assert poly_gcd(Polynomial(), Polynomial()) == Polynomial()
        half = Fraction(1, 2)
        assert poly_gcd(Polynomial([0, 2, 4]), Polynomial()) == Polynomial([0, half, 1])
        assert poly_gcd(Polynomial([Fraction(-3, 4)]), Polynomial()) == Polynomial([1])

    @settings(max_examples=80, deadline=None)
    @given(
        factor_lists,
        factor_lists,
        factor_lists,
        st.integers(0, 2),
        st.integers(0, 2),
        st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool),
    )
    def test_leading_coefficients_divisible_by_first_primes(self, g, u, v, e0, e1, c):
        G = Polynomial(g + [c * P0**e0])
        A = G * Polynomial(u + [c * P0**e1 * P1])
        B = G * Polynomial(v + [P1**e0 * P0])
        _check_gcd(A, B)

    def test_unlucky_first_prime(self):
        # z - 1 and z - 1 - P0 agree mod P0, so that image has degree 1
        a, b = Polynomial([-1, 1]), Polynomial([-1 - P0, 1])
        assert poly_gcd(a, b) == Polynomial([1])

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(small_fracs, min_size=1, max_size=4),
        st.integers(-10, 10),
        st.sampled_from([P0, P1, _prime(2), P0 * P1, 3 * P0**2]),
        st.booleans(),
    )
    def test_unlucky_primes(self, g, r, shift, big):
        # mod each prime dividing shift the cofactors z - r and z - r - shift
        # coincide, so those images have a larger degree than the gcd over Q;
        # a 206-bit coefficient in the gcd makes the lift need four primes,
        # so an unlucky second or third prime comes after a lucky one
        G = Polynomial(g) * (Polynomial([3**130, 1]) if big else Polynomial([1]))
        _check_gcd(G * Polynomial([-r, 1]), G * Polynomial([-r - shift, 1]))

    def test_many_prime_lift(self):
        # a 1,649-bit gcd coefficient: the lift takes 29 primes, and the
        # trial division runs after the first and once the lift stops changing
        G = Polynomial([3**1040, 1])
        assert poly_gcd(G * Polynomial([-1, 1]), G * Polynomial([-2, 1])) == G


class TestCFiniteSeq:
    def test_wire_encoding_fibonacci(self):
        assert format_seq(FIB) == "[[0, 1], [1, 1]]"
        assert parse_seq("[[0, 1], [1, 1]]") == FIB
        assert parse_seq(" [ [0,1] , [ 1 , 1 ] ] ") == FIB

    def test_parse_rejects_garbage(self):
        for bad in ("", "[0,1]", "[[0,1]]", "[[0,1],[1,1],[2]]", "fib", "[[1/0],[1]]"):
            with pytest.raises(ValueError):
                parse_seq(bad)
        # no exponent notation: a few characters would stand for millions of digits
        for bad in ("[[1e1000000],[1]]", "[[1],[2E3]]", "[[0.5e-2],[1]]", "[[1/1e3],[1]]"):
            with pytest.raises(ValueError, match="exponent"):
                parse_seq(bad)
        assert parse_seq("[[0.5],[-1.25]]") == CFiniteSeq([Fraction(1, 2)], [Fraction(-5, 4)])

    def test_rational_encoding_round_trip(self):
        s = CFiniteSeq([Fraction(1, 3), 2], [Fraction(-5, 7), 1])
        assert parse_seq(format_seq(s)) == s
        assert format_rational(Fraction(-5, 7)) == "-5/7"
        assert format_rational(Fraction(4, 2)) == "2"

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CFiniteSeq([1, 2], [1])
        with pytest.raises(ValueError):
            CFiniteSeq([], [])

    def test_immutability(self):
        with pytest.raises(AttributeError):
            FIB.init = (1, 1)

    def test_fibonacci_terms(self):
        assert eval_terms(FIB, 10) == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34]

    def test_eval_terms_shorter_than_order(self):
        s = CFiniteSeq([7, 8, 9], [1, 0, 0])
        assert eval_terms(s, 2) == [7, 8]
        assert eval_terms(s, 0) == []

    def test_eval_at_matches_iteration(self):
        terms = eval_terms(FIB, 60)
        for n in (0, 1, 5, 30, 59):
            assert eval_at(FIB, n) == terms[n]

    @given(
        st.lists(tiny_fracs, min_size=1, max_size=8),
        st.lists(tiny_fracs, min_size=1, max_size=8),
        st.integers(min_value=300, max_value=900),
        st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_eval_at_far_index_matches_oracle(self, init, rec, n, zero_tail):
        L = min(len(init), len(rec))
        init, rec = init[:L], rec[:L]
        if zero_tail:
            rec[-1] = Fraction(0)
        s = CFiniteSeq(init, rec)
        truth = oracles.recurrence_terms(init, rec, n + 1)
        assert eval_at(s, n) == truth[n] == eval_terms(s, n + 1)[n]

    def test_eval_at_large_index(self):
        # F(200), a 42-digit number computed via binary powering
        assert eval_at(FIB, 200) == 280571172992510140037611932413038677189525

    def test_shift_and_scale(self):
        shifted = shift(FIB, 3)
        assert eval_terms(shifted, 5) == [2, 3, 5, 8, 13]
        assert shift(FIB, 0) is FIB
        assert eval_terms(scale(FIB, Fraction(1, 2)), 5) == [
            0,
            Fraction(1, 2),
            Fraction(1, 2),
            1,
            Fraction(3, 2),
        ]

    def test_minimize_strips_padding(self):
        # Fibonacci dressed up as an order-4 recurrence
        padded = CFiniteSeq([0, 1, 1, 2], [1, 1, 0, 0])
        assert minimize(padded) == FIB

    def test_minimize_zero_sequence(self):
        z = minimize(CFiniteSeq([0, 0], [3, -2]))
        assert z.order == 1
        assert eval_terms(z, 5) == [0, 0, 0, 0, 0]

    def test_minimize_random_padded(self):
        rng = random.Random(7)
        for _ in range(25):
            init, rec = oracles.random_sequence(rng, max_order=4)
            s = CFiniteSeq(init, rec)
            # pad with a (z - 2) factor on the characteristic side:
            # b(n) = 2 b(n-1) + (a-part), realized by summing with 0 * 2^n
            padded = CFiniteSeq(
                eval_terms(s, s.order + 1),
                [2 + rec[0]]
                + [rec[i] - 2 * rec[i - 1] for i in range(1, len(rec))]
                + [-2 * rec[-1]],
            )
            m = minimize(padded)
            assert m.order <= s.order
            n = 2 * (s.order + 1)
            assert eval_terms(m, n) == eval_terms(padded, n)

    @given(
        st.lists(small_fracs, min_size=1, max_size=4),
        st.lists(small_fracs, min_size=1, max_size=4),
        st.integers(min_value=0, max_value=40),
    )
    @settings(max_examples=60)
    def test_eval_matches_naive_recursion(self, init, rec, n):
        if len(init) != len(rec):
            L = min(len(init), len(rec))
            init, rec = init[:L], rec[:L]
        s = CFiniteSeq(init, rec)
        assert eval_terms(s, n) == oracles.recurrence_terms(init, rec, n)
        if n:
            assert eval_at(s, n - 1) == eval_terms(s, n)[-1]


# denominators 2^i 3^j, so the scale D (den c_k | D^k) is often below their
# lcm: den c_1 = 2 with den c_2 = 4 needs D = 2, den c_2 = 9 D = 3
scaled_fracs = st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 4, 8, 9, 27]))

TEN_24 = CFiniteSeq([1, 2], [999999000001 * 1000000000039, 1])


class TestTermKernels:
    """eval_terms and eval_at step the integer image of a sequence; the
    oracle is the naive Fraction recursion."""

    @staticmethod
    def check(s, n):
        truth = oracles.recurrence_terms(s.init, s.rec, n + 1)
        terms = eval_terms(s, n + 1)
        assert terms == truth
        assert all(isinstance(x, Fraction) for x in terms)
        at = eval_at(s, n)
        assert at == truth[n] and isinstance(at, Fraction)

    @given(
        st.lists(scaled_fracs, min_size=1, max_size=6),
        st.lists(scaled_fracs, min_size=1, max_size=6),
        st.integers(min_value=0, max_value=60),
        st.booleans(),
        st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_against_oracle(self, init, rec, n, zero_tail, zero_init):
        L = min(len(init), len(rec))
        init, rec = init[:L], rec[:L]
        if zero_tail:
            rec[-1] = Fraction(0)
        if zero_init:
            init = [Fraction(0)] * L
        self.check(CFiniteSeq(init, rec), n)

    @given(
        st.lists(scaled_fracs, min_size=1, max_size=4),
        st.lists(scaled_fracs, min_size=1, max_size=4),
        st.integers(min_value=500, max_value=1000),
    )
    @settings(max_examples=10, deadline=None)
    def test_far_indices(self, init, rec, n):
        L = min(len(init), len(rec))
        self.check(CFiniteSeq(init[:L], rec[:L]), n)

    def test_scale_below_lcm(self):
        rec = [Fraction(1, 2), Fraction(3, 4)]
        assert _rec_scale(rec) == 2
        assert _rec_scale([Fraction(1, 6), Fraction(5, 36), Fraction(1, 8)]) == 6  # lcm 72
        self.check(CFiniteSeq([Fraction(1, 3), 1], rec), 1000)

    def test_zero_padding_and_zero_start(self):
        self.check(CFiniteSeq([1, 2, 3], [Fraction(1, 2), Fraction(-3, 4), 0]), 40)
        self.check(CFiniteSeq([0, 0], [Fraction(5, 8), Fraction(1, 4)]), 40)
        assert eval_terms(CFiniteSeq([0, 0], [3, 1]), 5) == [0] * 5

    def test_large_coefficients(self):
        self.check(TEN_24, 80)
        # 60-digit denominators in the initial terms
        init = [Fraction(1, 10**59 + 1), Fraction(-3, 7 * 10**59 + 3), Fraction(2, 3)]
        self.check(CFiniteSeq(init, [Fraction(1, 2), -1, Fraction(3, 8)]), 200)
        self.check(CFiniteSeq(init[:2], TEN_24.rec), 50)

    def test_fibonacci_far(self):
        assert eval_at(FIB, 10_000) == eval_terms(FIB, 10_001)[-1]


# integer polynomials in two parameters, as dicts from exponent tuples
mpolys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.integers(-5, 5).filter(bool),
    max_size=4,
)


class TestMultivariate:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.tuples(mpolys, mpolys), max_size=3),
        st.tuples(tiny_fracs, tiny_fracs),
    )
    def test_dot_evaluates_like_its_values(self, pairs, point):
        # evaluation is a ring map, so sum p_i q_i at a point is the sum
        # of the products of the values; no zero coefficient is kept
        ps, qs = [p for p, _ in pairs], [q for _, q in pairs]
        got = mpoly_dot(ps, qs)
        assert 0 not in got.values()
        want = sum(mpoly_eval(p, point) * mpoly_eval(q, point) for p, q in pairs)
        assert mpoly_eval(got, point) == want

    def test_dot_cancels_to_zero(self):
        a_plus_b, a_minus_b = {(1, 0): 1, (0, 1): 1}, {(1, 0): 1, (0, 1): -1}
        minus_a2, b2 = {(2, 0): -1}, {(0, 2): 1}
        one = {(0, 0): 1}
        assert mpoly_dot([a_plus_b, minus_a2, b2], [a_minus_b, one, one]) == {}

    def test_format(self):
        p = {(0, 0): -1, (2, 1): 4, (0, 3): 1, (1, 0): -2}
        assert format_mpoly(p, "ab") == "4*a^2*b - 2*a + b^3 - 1"
        assert format_mpoly({}, "ab") == "0"


def test_format_poly_rendering():
    assert format_poly(Polynomial([1, -1, -1])) == "1 - z - z^2"
    assert format_poly(Polynomial([0, Fraction(1, 2)])) == "1/2*z"
    assert format_poly(Polynomial()) == "0"
