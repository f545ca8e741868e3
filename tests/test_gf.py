import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfinite.core import CFiniteSeq, Polynomial, eval_terms
from cfinite.gf import (
    RationalGF,
    c_to_r,
    format_gf,
    parse_gf,
    parse_poly,
    r_to_c,
    taylor,
)

import oracles

FIB = CFiniteSeq([0, 1], [1, 1])


def test_fibonacci_gf():
    g = c_to_r(FIB)
    assert g.num == Polynomial([0, 1])
    assert g.den == Polynomial([1, -1, -1])


def test_r_to_c_fibonacci():
    g = RationalGF(Polynomial([0, 1]), Polynomial([1, -1, -1]))
    assert r_to_c(g) == FIB


def test_normalization_constant_term_one():
    # 2z / (2 - 2z) must normalize to den(0) = 1
    g = RationalGF(Polynomial([0, 2]), Polynomial([2, -2]))
    assert g.den[0] == 1
    assert taylor(g, 4) == [0, 1, 1, 1]


def test_normalization_cancels_common_factor():
    # (1 - z)(1 + z) / (1 - z)(1 - 2z) reduces before conversion
    num = Polynomial([1, 1]) * Polynomial([-1, 1])
    den = Polynomial([-1, 2]) * Polynomial([-1, 1])
    g = RationalGF(num, den)
    assert g.num.degree <= 1
    assert r_to_c(g).order == 2  # (1 + z)/(1 - 2z): order bumps for the offset


small_fracs = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(small_fracs, max_size=4),
    st.lists(small_fracs, max_size=3),
    small_fracs.filter(bool),
    st.lists(small_fracs, max_size=3),
    small_fracs.filter(bool),
)
@example([], [1], 2, [-1], 1)  # zero numerator
@example([1, Fraction(1, 2)], [], Fraction(-3, 2), [Fraction(2, 3), 1], 3)  # constant den
def test_planted_common_factor_cancels(num, den_tail, den0, h_tail, h0):
    num, den = Polynomial(num), Polynomial([den0, *den_tail])
    h = Polynomial([h0, *h_tail])
    g = RationalGF(num * h, den * h)
    assert g == RationalGF(num, den)
    assert g.den[0] == 1
    if not g.num.is_zero():
        assert oracles.poly_gcd_euclid(g.num.coeffs, g.den.coeffs) == [1]


def test_zero_gf():
    g = RationalGF(Polynomial(), Polynomial([1, 5]))
    assert g.num.is_zero()
    s = r_to_c(g)
    assert eval_terms(s, 5) == [0, 0, 0, 0, 0]
    assert s.order == 1


def test_zero_denominator_rejected():
    with pytest.raises(ValueError):
        RationalGF(Polynomial([1]), Polynomial())
    with pytest.raises(ValueError):
        # den(0) = 0 means no power series expansion at the origin
        RationalGF(Polynomial([1]), Polynomial([0, 1]))


def test_taylor_equals_sequence_terms():
    assert taylor(c_to_r(FIB), 10) == eval_terms(FIB, 10)


def test_taylor_against_naive_division():
    g = RationalGF(Polynomial([3, 0, -1]), Polynomial([1, -1, Fraction(1, 2)]))
    assert taylor(g, 25) == oracles.series_of_rational(
        g.num.coeffs, g.den.coeffs, 25
    )


def test_geometric_with_polynomial_part():
    # (1 + z^3)/(1 - 2z): numerator degree >= denominator degree
    g = RationalGF(Polynomial([1, 0, 0, 1]), Polynomial([1, -2]))
    s = r_to_c(g)
    assert eval_terms(s, 6) == taylor(g, 6) == [1, 2, 4, 9, 18, 36]


def test_round_trip_battery_200_random():
    """Random order <= 6 sequences survive c_to_r . r_to_c on 40 terms."""
    rng = random.Random(20110716)
    for _ in range(200):
        init, rec = oracles.random_sequence(rng, max_order=6, rational=True)
        s = CFiniteSeq(init, rec)
        back = r_to_c(c_to_r(s))
        assert back.order <= s.order
        assert eval_terms(back, 40) == oracles.recurrence_terms(init, rec, 40)


def test_round_trip_other_direction():
    rng = random.Random(4)
    for _ in range(60):
        num = Polynomial([rng.randint(-4, 4) for _ in range(rng.randint(1, 4))])
        den_tail = [rng.randint(-3, 3) for _ in range(rng.randint(1, 4))]
        den = Polynomial([1] + den_tail)
        g = RationalGF(num, den)
        g2 = c_to_r(r_to_c(g))
        assert g2.num == g.num and g2.den == g.den


class TestTextFormats:
    def test_format_gf(self):
        assert format_gf(c_to_r(FIB)) == "(z)/(1 - z - z^2)"

    def test_parse_poly(self):
        assert parse_poly("1 - z - z^2") == Polynomial([1, -1, -1])
        assert parse_poly("-3/2*z^2 + 1") == Polynomial([1, 0, Fraction(-3, 2)])
        assert parse_poly("t^3") == Polynomial([0, 0, 0, 1])
        assert parse_poly("0") == Polynomial()

    def test_parse_poly_rejects(self):
        for bad in ("", "z**2", "1 +", "q^2", "1 - 1/0*z"):
            with pytest.raises(ValueError):
                parse_poly(bad)

    def test_parse_gf_round_trip(self):
        g = c_to_r(FIB)
        g2 = parse_gf(format_gf(g))
        assert g2.num == g.num and g2.den == g.den

    def test_parse_gf_whole_polynomial(self):
        g = parse_gf("1 + 2*z")
        assert g.den == Polynomial([1])
        assert taylor(g, 3) == [1, 2, 0]
