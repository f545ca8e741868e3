import random
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfinite import core, guess
from cfinite.core import (
    _clear_denominators,
    _image,
    _is_prime,
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
    _square_free,
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


int_lists = st.lists(st.integers(-20, 20), max_size=5).map(
    lambda f: f[: max((i + 1 for i, x in enumerate(f) if x), default=0)]
)


# ASCII, Arabic-Indic and fullwidth decimal digits: int and Fraction read all
_DIGIT_RUNS = st.text(alphabet="0123456789٠١٢٣٤٥٦٧٨٩０１２", min_size=1, max_size=12)


@st.composite
def integer_literals(draw):
    """An integer literal: a sign, digit groups (leading zeros included)
    joined by single underscores, and spaces around it."""
    groups = draw(st.lists(_DIGIT_RUNS, min_size=1, max_size=3))
    body = draw(st.sampled_from(["", "+", "-"])) + "_".join(groups)
    return " " * draw(st.integers(0, 2)) + body + " " * draw(st.integers(0, 2))


def _int_mul(f, g):
    """f g for integer coefficient lists (ascending; [] is 0)."""
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] += x * y
    return out


def poly_gcd(a, b):
    """Monic gcd over Q of two Polynomials, by the package's integer engine
    on their primitive integer parts."""
    g = int_poly_gcd(*(_primitive(_clear_denominators(f.coeffs)[1]) for f in (a, b)))[0]
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


# the first three primes counting down from 2^61 (P0 = 2^61 - 1): large
# shifts and leading coefficients for the gcd
P0, P1, P2 = 2305843009213693951, 2305843009213693921, 2305843009213693907
factor_lists = st.lists(small_fracs, min_size=0, max_size=4)


def _no_fit(*args):
    raise AssertionError("a certified minimal input ran the fit")


def _check_gcd(a, b):
    want = oracles.poly_gcd_euclid(a.coeffs, b.coeffs)
    assert list(poly_gcd(a, b).coeffs) == want, (a, b)
    assert list(poly_gcd(b, a).coeffs) == want, (a, b)


class TestPolyGcd:
    """The heuristic int_poly_gcd against the Fraction Euclid of the oracles."""

    def test_is_prime_against_trial_division(self):
        # factor._split_prime picks its primes with _is_prime
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

    def test_coprime_operands_that_agree_mod_a_61_bit_prime(self):
        # z - 1 and z - 1 - P0 agree mod P0 but are coprime over Q
        a, b = Polynomial([-1, 1]), Polynomial([-1 - P0, 1])
        assert poly_gcd(a, b) == Polynomial([1])

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(small_fracs, min_size=1, max_size=4),
        st.integers(-10, 10),
        st.sampled_from([P0, P1, P2, P0 * P1, 3 * P0**2]),
        st.booleans(),
    )
    def test_cofactors_that_agree_mod_61_bit_primes(self, g, r, shift, big):
        # mod each prime dividing shift the cofactors z - r and z - r - shift
        # coincide, so the operands share a factor of larger degree than the
        # gcd over Q there; with big, the gcd has a 206-bit coefficient
        G = Polynomial(g) * (Polynomial([3**130, 1]) if big else Polynomial([1]))
        _check_gcd(G * Polynomial([-r, 1]), G * Polynomial([-r - shift, 1]))

    def test_gcd_with_a_1649_bit_coefficient(self):
        # a 1,649-bit gcd coefficient: the operands are packed at 2^1650
        G = Polynomial([3**1040, 1])
        assert poly_gcd(G * Polynomial([-1, 1]), G * Polynomial([-2, 1])) == G

    @settings(max_examples=120, deadline=None)
    @given(int_lists, int_lists, int_lists)
    def test_cofactor_identities(self, g, u, v):
        # g * (a / g) = a and g * (b / g) = b on planted common factors,
        # zero operands (u or v empty) and, for g = [1], mostly coprime pairs
        a, b = _int_mul(g, u), _int_mul(g, v)
        gcd_, qa, qb = int_poly_gcd(a, b)
        assert _int_mul(gcd_, qa) == a and _int_mul(gcd_, qb) == b
        assert gcd_ == int_poly_gcd(b, a)[0]

    def test_cofactors_of_special_operands(self):
        assert int_poly_gcd([], []) == ([], [], [])
        assert int_poly_gcd([0, -4, 6], []) == ([0, -2, 3], [2], [])
        assert int_poly_gcd([], [3]) == ([1], [], [3])
        # coprime: the gcd is 1 and the cofactors are the operands
        assert int_poly_gcd([1, 1], [2, 1]) == ([1], [1, 1], [2, 1])
        assert int_poly_gcd([-2, 0, 2], [-3, 3]) == ([-1, 1], [2, 2], [3])
        # at 2^6 the integer gcd 48 * 64 has digits [0, -16, -15, 1]: a
        # candidate of higher degree than both operands, refused
        assert int_poly_gcd([0, 48], [0, 0, 24]) == ([0, 1], [48], [0, 24])

    def test_failed_candidate_retries_at_a_larger_point(self, monkeypatch):
        # at 2^3 the operands read 7 and 0: the candidate z - 1 does not
        # divide z - 8, and the gcd 1 comes from the next point, 2^6
        points, pack = [], core._pack

        def counted_pack(f, k):
            points.append(k)
            return pack(f, k)

        monkeypatch.setattr(core, "_pack", counted_pack)
        for a, b in (([-1, 1], [-8, 1]), ([-8, 1], [-1, 1])):
            points.clear()
            assert int_poly_gcd(a, b) == ([1], a, b)
            assert points == [3, 3, 6, 6]

    def test_gcd_norm_above_both_operand_norms(self):
        # Phi_105 has a coefficient -2, above ||z^105 - 1|| = 1
        phi = [1]
        for d, sign in ((105, 1), (3, 1), (5, 1), (7, 1), (1, -1), (15, -1), (21, -1), (35, -1)):
            z_d = [-1] + [0] * (d - 1) + [1]
            phi = _int_mul(phi, z_d) if sign > 0 else core.int_poly_quo(phi, z_d)
        assert min(phi) == -2
        a, b = [-1] + [0] * 104 + [1], _int_mul(phi, [2, 1])
        g, qa, qb = int_poly_gcd(a, b)
        assert g == phi == oracles.poly_gcd_euclid(a, b)
        assert _int_mul(g, qa) == a and qb == [2, 1]

    def test_square_free_divides_only_inside_the_gcd(self, monkeypatch):
        # Yun's quotients are the gcd's cofactors: no int_poly_quo of its own
        depth = [0]
        gcd_, quo = core.int_poly_gcd, core.int_poly_quo

        def counted_gcd(a, b):
            depth[0] += 1
            try:
                return gcd_(a, b)
            finally:
                depth[0] -= 1

        def guarded_quo(*args):
            assert depth[0], "int_poly_quo called outside int_poly_gcd"
            return quo(*args)

        monkeypatch.setattr(core, "int_poly_gcd", counted_gcd)
        monkeypatch.setattr(core, "int_poly_quo", guarded_quo)
        # (z - 1)^3 (z + 2)^2 (z^2 + 1)
        f = _int_mul(_int_mul([-1, 1], [-1, 1]), _int_mul(_int_mul([-1, 1], [2, 1]), [2, 1]))
        f = _int_mul(f, [1, 0, 1])
        assert _square_free(f) == [(1, [1, 0, 1]), (2, [2, 1]), (3, [-1, 1])]

    @pytest.mark.parametrize("n", [0, 5, core._LEAF, core._LEAF + 1, 257, 1000])
    def test_pack_and_unpack_by_halves_match_one_shift_a_coefficient(self, n):
        # above core._LEAF coefficients both work by halves, and the low
        # half's digits can carry 1 into the high half
        def pack(f, k):
            v = 0
            for c in reversed(f):
                v = (v << k) + c
            return v

        rng = random.Random(n)
        for k in (2, 3, 24, 70):
            h = 1 << (k - 1)
            digits = [rng.choice([h, -h + 1, 0, rng.randint(-h + 1, h)]) for _ in range(n)]
            while digits and not digits[-1]:
                digits.pop()
            v = pack(digits, k)
            assert core._pack(digits, k) == v
            assert core._unpack(v, k) == digits
            wide = [rng.randint(-(4 << k), 4 << k) for _ in range(n)]
            assert core._pack(wide, k) == pack(wide, k)
            assert pack(core._unpack(pack(wide, k), k), k) == pack(wide, k)


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

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(integer_literals(), st.text(alphabet="0123456789+-/._x٣", max_size=8)))
    def test_parse_rational_reads_like_fraction(self, text):
        # Fraction(text) is the oracle: the same value, and the same
        # ValueError for a malformed token; x/0 is a ValueError too
        try:
            want = Fraction(text)
        except ZeroDivisionError:
            with pytest.raises(ValueError, match="zero denominator"):
                core.parse_rational(text)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                core.parse_rational(text)
            assert str(got.value) == str(exc).replace(repr(text), repr(text.strip()))
        else:
            got = core.parse_rational(text)
            assert (type(got), got) == (Fraction, want)

    def test_parse_rational_keeps_the_int_string_limit(self):
        # outside cli.main the interpreter's int-to-string limit holds
        if not hasattr(sys, "get_int_max_str_digits"):
            pytest.skip("this interpreter has no int-to-string limit")
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            with pytest.raises(ValueError, match="limit"):
                core.parse_rational("7" * 5000)
        finally:
            sys.set_int_max_str_digits(limit)

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

    def test_minimize_returns_a_certified_minimal_input(self, monkeypatch):
        # lowest terms of the generating function certify the order: no fit
        monkeypatch.setattr(guess, "_berlekamp_massey", _no_fit)
        assert minimize(FIB) is FIB
        s = CFiniteSeq([Fraction(1, 3), 2, -1], [Fraction(1, 2), 0, Fraction(-7, 4)])
        assert minimize(s) is s

    def test_minimize_keeps_an_input_whose_term_is_a_61_bit_prime(self, monkeypatch):
        # 2^61 - 1, the largest prime below 2^61, as the only term: the
        # input is minimal and comes back itself, with no fit
        monkeypatch.setattr(guess, "_berlekamp_massey", _no_fit)
        s = CFiniteSeq([2**61 - 1], [3])
        assert minimize(s) is s

    @pytest.mark.parametrize(
        "padded, minimal",
        [
            # Fibonacci's characteristic polynomial times (z - 2)
            (CFiniteSeq([0, 1, 1], [3, -1, -2]), FIB),
            # 2^n times (z - 1)(z + 1)
            (CFiniteSeq([1, 2, 4], [2, 1, -2]), CFiniteSeq([1], [2])),
            (CFiniteSeq([5, 5, 5, 5], [1, 0, 0, 0]), CFiniteSeq([5], [1])),
            # c_L = 0: the generating function is already in lowest terms,
            # and deg N + 1 or deg Q falls below L
            (CFiniteSeq([1, 0], [0, 0]), CFiniteSeq([1], [0])),
            (
                CFiniteSeq([Fraction(4, 3), Fraction(16, 3)], [4, 0]),
                CFiniteSeq([Fraction(4, 3)], [4]),
            ),
            (CFiniteSeq([3, 0, 0], [0, 0, 0]), CFiniteSeq([3], [0])),
        ],
    )
    def test_minimize_padded_inputs(self, padded, minimal):
        assert minimize(padded) == minimal

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(tiny_fracs, tiny_fracs), min_size=1, max_size=6))
    def test_minimize_equals_the_fit(self, pairs):
        s = CFiniteSeq(*zip(*pairs))
        assert minimize(s) == guess._close("minimize", s.order, lambda n: _image(s, n))

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
