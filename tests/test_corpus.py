from fractions import Fraction

import pytest

from cfinite.core import CFiniteSeq, eval_terms
from cfinite.corpus import (
    ArityMismatchError,
    UnknownSequenceError,
    chebyshev_t,
    chebyshev_u,
    describe,
    lookup,
    names,
)
from cfinite.gf import taylor
from cfinite import corpus


def test_known_names_present():
    got = names()
    for name in ("fibonacci", "lucas", "pell", "chebyshev_u", "geometric"):
        assert name in got


def test_fibonacci_lucas_pell():
    assert eval_terms(lookup("fibonacci"), 8) == [0, 1, 1, 2, 3, 5, 8, 13]
    assert eval_terms(lookup("lucas"), 8) == [2, 1, 3, 4, 7, 11, 18, 29]
    assert eval_terms(lookup("pell"), 8) == [0, 1, 2, 5, 12, 29, 70, 169]


def test_utility_sequences():
    assert eval_terms(lookup("natural"), 6) == [0, 1, 2, 3, 4, 5]
    assert eval_terms(lookup("zero"), 4) == [0, 0, 0, 0]
    assert eval_terms(lookup("one"), 4) == [1, 1, 1, 1]
    assert eval_terms(lookup("geometric", [Fraction(1, 2)]), 4) == [
        1,
        Fraction(1, 2),
        Fraction(1, 4),
        Fraction(1, 8),
    ]


def test_chebyshev_values():
    # U_n(1) = n + 1 and T_n(1) = 1
    assert eval_terms(chebyshev_u(1), 6) == [1, 2, 3, 4, 5, 6]
    assert eval_terms(chebyshev_t(1), 6) == [1] * 6
    # T_n(cos t) = cos(nt); at x = 0: 1, 0, -1, 0, 1, ...
    assert eval_terms(chebyshev_t(0), 5) == [1, 0, -1, 0, 1]
    # classical polynomial values at x = 2
    assert eval_terms(chebyshev_u(2), 5) == [1, 4, 15, 56, 209]


def test_lookup_arity_enforced():
    with pytest.raises(ArityMismatchError):
        lookup("fibonacci", [1])
    with pytest.raises(ArityMismatchError):
        lookup("chebyshev_u")
    with pytest.raises(UnknownSequenceError):
        lookup("tribonacci")


def test_register_refuses_a_taken_name():
    before = describe("fibonacci")
    with pytest.raises(ValueError, match="duplicate sequence name 'fibonacci'"):
        corpus._register("fibonacci", 0, lambda: CFiniteSeq([1], [1]), "not Fibonacci")
    assert describe("fibonacci") is before


def test_describe():
    entry = describe("pell")
    assert entry.arity == 0
    assert entry.description


def test_shapiro_gf_structure():
    g = corpus.shapiro_product_gf(Fraction(1, 2), Fraction(3, 2))
    # numerator 1 - t^2, denominator of degree 4, palindromic
    assert g.num.coeffs == (1, 0, -1)
    assert g.den.degree == 4
    assert g.den[0] == g.den[4] and g.den[1] == g.den[3]


def test_shapiro_lhs_matches_gf_spot_checks():
    for a, b in [(0, 0), (1, 2), (Fraction(1, 2), Fraction(5, 3))]:
        lhs = corpus.shapiro_product_lhs(a, b)
        assert eval_terms(lhs, 15) == taylor(corpus.shapiro_product_gf(a, b), 15)


def test_ekhad_lhs_matches_gf_spot_checks():
    pts = [(0, 0, 0), (1, 1, 1), (Fraction(1, 2), 2, Fraction(-1, 3))]
    for a, b, c in pts:
        lhs = corpus.ekhad_product_lhs(a, b, c)
        assert eval_terms(lhs, 15) == taylor(corpus.ekhad_product_gf(a, b, c), 15)


def test_ekhad_gf_degrees():
    g = corpus.ekhad_product_gf(1, 2, 3)
    assert g.num.degree <= 6
    assert g.den.degree <= 8


def test_triple_product_direct_oracle():
    # U_n(a) U_n(b) U_n(c) computed termwise from the three factors
    a, b, c = Fraction(1, 2), Fraction(1), Fraction(3, 2)
    u = lambda x: eval_terms(chebyshev_u(x), 12)
    want = [p * q * r for p, q, r in zip(u(a), u(b), u(c))]
    assert eval_terms(corpus.ekhad_product_lhs(a, b, c), 12) == want
