import math
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from cfinite.core import (
    CFiniteSeq,
    Polynomial,
    _coprime_base,
    _horner,
    _integral_rec,
    eval_terms,
    minimize,
)
from cfinite.guess import GuessConfig, guess_rec, mul
from cfinite.factor import _lift, _roots_mod, _split_prime
from cfinite.roots import (
    DegenerateRootsError,
    OrderMismatchError,
    PROFILE_ORDER_LIMIT,
    RepetitionProfile,
    _is_coarsening,
    _ratio_multiplicities,
    _ratio_poly,
    _ratio_quotient,
    _root_multiplicities,
    is_prod,
    is_prod_g,
    prod_indicator,
)
from cfinite import corpus, guess, roots
from cfinite.dimers import dimer_seq

import oracles

FIB = corpus.lookup("fibonacci")
PELL = corpus.lookup("pell")
# factor coefficient 999999000001 * 1000000000039, times Fibonacci
BIG_PRODUCT = mul(
    CFiniteSeq([1, 2], [999999000001 * 1000000000039, 1]), CFiniteSeq([0, 1], [1, 1])
)


def _lifted_roots(seq, p, N):
    """The characteristic roots of an integer sequence mod p, lifted to p^N."""
    P = [-int(c) for c in reversed(seq.rec)] + [1]
    return [_lift(P, r, p, p**N) for r in _roots_mod([c % p for c in P], p)]


class TestCharRoots:
    """factor._roots_mod and factor._lift, the root finder behind the root
    grid of factorize_roots: the roots mod p and their lifts to p^N."""

    def test_fibonacci_golden_ratio(self):
        # 5 is a square mod p = 1048609 (p = 4 mod 5), so phi and -1/phi
        # are p-adic numbers: the roots are (1 +- sqrt 5) / 2 mod p^N
        p, N = 1048609, 8
        q = p**N
        got = _lifted_roots(FIB, p, N)
        assert len(got) == 2
        for r in got:
            assert (2 * r - 1) ** 2 % q == 5
        assert sum(got) % q == 1 and got[0] * got[1] % q == q - 1

    def test_residuals_tiny(self):
        # at the first prime where P splits, every root lifted to p^N leaves
        # a residual divisible by p^N
        s = CFiniteSeq([1, 2, 3], [1, -4, 2])
        P = [-int(c) for c in reversed(s.rec)] + [1]
        p, roots = _split_prime(s.rec, 3, 1)
        assert len(roots) == 3
        for r in roots:
            x = _lift(P, r, p, p**12)
            assert x % p == r
            assert sum(c * x**k for k, c in enumerate(P)) % p**12 == 0

    def test_complex_roots(self):
        # a(n) = -a(n-2): roots +/- i, which exist mod p = 1 mod 4
        p, N = 1048601, 6
        q = p**N
        got = _lifted_roots(CFiniteSeq([1, 0], [0, -1]), p, N)
        assert len(got) == 2
        assert all(r * r % q == q - 1 for r in got)
        assert sum(got) % q == 0

    def test_deterministic_across_runs(self):
        rec = CFiniteSeq([1, 1, 1, 1], [1, 3, -2, 1]).rec
        a = _split_prime(rec, 4, 1)
        b = _split_prime(rec, 4, 1)
        assert a == b
        assert a[1] == sorted(a[1]) and len(set(a[1])) == 4

    def test_random_split_polys_against_brute_force(self):
        # the roots of a product of distinct linear factors mod small primes,
        # against the residues at which it vanishes
        rng = random.Random(5)
        for p in (3, 5, 7, 101, 10007):
            for _ in range(10):
                want = rng.sample(range(p), rng.randint(1, min(p, 8)))
                P = [1]
                for r in want:
                    P = [(a - r * b) % p for a, b in zip([0] + P, P + [0])]
                got = _roots_mod(P, p)
                assert sorted(got) == sorted(want)
                assert sorted(got) == [
                    x for x in range(p) if sum(c * x**k for k, c in enumerate(P)) % p == 0
                ]


class TestProdIndicator:
    def test_two_by_two_profile(self):
        assert prod_indicator((2, 2)).multiplicities == (1, 1, 1, 1, 2, 2, 2, 2, 4)

    def test_total_is_square_of_order(self):
        for orders in [(2,), (2, 2), (2, 3), (3, 3), (2, 2, 2), (4,)]:
            total = 1
            for o in orders:
                total *= o
            assert prod_indicator(orders).total == total**2

    def test_any_iterable_of_orders(self):
        assert prod_indicator(iter([2, 3])) == prod_indicator((2, 3))

    def test_symmetry(self):
        for m in range(1, 5):
            for n in range(1, 5):
                assert prod_indicator((m, n)) == prod_indicator((n, m))

    def test_order_limit(self):
        # the profile classifies L^2 ratios; L is capped so that stays <= 2^20
        assert PROFILE_ORDER_LIMIT == 1024
        assert prod_indicator((2,) * 10).total == 2**20
        for orders in [(2,) * 11, (1025,), (1000, 1000)]:
            with pytest.raises(ValueError, match="exceeds 1024"):
                prod_indicator(orders)

    def test_single_factor_is_generic(self):
        # one generic factor: L^2 - L off-diagonal singletons plus the
        # diagonal class of size L
        assert prod_indicator((3,)).multiplicities == (1, 1, 1, 1, 1, 1, 3)


class TestRatioProfile:
    """The numeric clustering oracle on its own."""

    def test_fibonacci_profile(self):
        assert oracles.ratio_profile(FIB.rec, 100) == (1, 1, 2)

    def test_geometric_profile(self):
        assert oracles.ratio_profile(corpus.lookup("geometric", [3]).rec, 50) == (1,)

    def test_degenerate_rejected(self):
        s = CFiniteSeq([0, 1], [2, -1])  # double root at 1
        with pytest.raises(ArithmeticError):
            oracles.ratio_profile(s.rec, 50)

    def test_zero_root_rejected(self):
        s = CFiniteSeq([1, 0], [0, 0])
        with pytest.raises((ValueError, ArithmeticError)):
            oracles.ratio_profile(s.rec, 50)


def _no_work(seq):
    raise AssertionError("minimize called before the orders were checked")


def _observed(seq):
    """The exact profile of a minimal sequence, through the public test."""
    return is_prod_g(seq, (seq.order,)).observed.multiplicities


def _random_factor(rng, L):
    return CFiniteSeq(
        [rng.randint(1, 5) for _ in range(L)],
        [rng.randint(-4, 4) for _ in range(L - 1)] + [rng.choice([1, -1, 2, -3, 3])],
    )


def _rational_factor(rng, L):
    return CFiniteSeq(
        [rng.randint(1, 5) for _ in range(L)],
        [Fraction(rng.randint(-7, 7), rng.randint(2, 5)) for _ in range(L - 1)]
        + [Fraction(rng.choice([1, -1, 3, -5]), rng.randint(2, 5))],
    )


def _unit_root_factor(rng, L=2):
    # a(n) = a(n-2) has the roots +1 and -1
    return CFiniteSeq([rng.randint(1, 3), rng.choice([-2, 2, 3])], [0, 1])


def _random_product(rng, shape, first=_random_factor):
    """A full-order product of random factors with simple roots.

    `first(rng, L)` draws the first factor, `_random_factor` the others.
    """
    while True:
        prod = first(rng, shape[0])
        for L in shape[1:]:
            prod = mul(prod, _random_factor(rng, L))
        if prod.order != math.prod(shape):
            continue
        try:
            _observed(prod)
        except DegenerateRootsError:
            continue
        return prod


def _four_geometric_sum(rng):
    bases = rng.sample([2, 3, 5, 7, 11, 13], 4)
    weights = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in bases]
    terms = [sum(w * b**n for w, b in zip(weights, bases)) for n in range(12)]
    return guess_rec(terms, GuessConfig(max_order=4))


class TestExactProfile:
    """The exact profile of is_prod_g against the numeric oracle."""

    def test_fibonacci_ratio_poly(self):
        # the ratios -phi^2 and -1/phi^2 are the roots of z^2 + 3z + 1
        # = z (w + 3) with w = z + 1/z, so the folded polynomial is w + 3
        assert _ratio_poly(_integral_rec(FIB.rec)) == [3, 1]

    def test_plus_minus_roots_fold_to_minus_two_c(self):
        # roots +-2: both ratios are -1, scaled by c = 4 to -4, so the one
        # w-root is -4 - 4 = -2c and the z-profile is the doubled class
        pm2 = CFiniteSeq([1, 0], [0, 4])
        assert _ratio_poly(_integral_rec(pm2.rec)) == [8, 1]
        assert _observed(pm2) == oracles.ratio_profile(pm2.rec, 50) == (2, 2)

    def test_plus_minus_factor_times_order_three(self):
        # an order-2 factor with roots +a and -a times an order-3 one: each
        # root's negative is a root too, so S has w = -2c of multiplicity 3
        prod = CFiniteSeq([2, -1, 0, -6, 18, -27], [0, 7, 0, -3, 0, 9])
        S, c = Polynomial(_ratio_poly(_integral_rec(prod.rec))), _integral_rec(prod.rec)[-1]
        w2c = Polynomial([2 * c, 1])
        assert divmod(S, w2c * w2c * w2c)[1].is_zero()
        assert not divmod(S, w2c * w2c * w2c * w2c)[1].is_zero()
        verdict = is_prod_g(prod, (2, 3))
        want = oracles.ratio_profile(prod.rec, 50)
        assert verdict.observed.multiplicities == want == (2,) * 12 + (6, 6)
        assert verdict.is_product

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(
        st.sampled_from([(2, 2), (2, 3), (3, 3), (2, 2, 2)]),
        st.sampled_from(["generic", "plus_minus", "unit"]),
        st.randoms(use_true_random=False),
    )
    def test_folded_profile_against_oracle(self, shape, left, rng):
        """The unfolded profile equals the numeric one, also when the left
        factor's roots are +-a (rec [0, c]) or +-1 (a(n) = a(n - 2))."""
        L = shape[0]
        b = rng.choice([-3, -2, -1, 1, 2, 3])
        if left == "generic":
            prod = _random_factor(rng, L)
        elif left == "plus_minus":
            c = rng.choice([-5, -3, -2, 2, 3, 4, 5, Fraction(9, 4)])
            rec = [0, c] if L == 2 else [b, c, -b * c]  # (z^2 - c)(z - b)
            prod = CFiniteSeq([rng.randint(1, 5) for _ in range(L)], rec)
        else:
            rec = [0, 1] if L == 2 else [b, 1, -b]  # (z^2 - 1)(z - b)
            prod = CFiniteSeq([rng.randint(1, 5) for _ in range(L)], rec)
        for k in shape[1:]:
            prod = mul(prod, _random_factor(rng, k))
        assume(prod.order == math.prod(shape))
        try:
            verdict = is_prod_g(prod, shape)
            want = oracles.ratio_profile(prod.rec, 60)
        except (DegenerateRootsError, ArithmeticError):
            assume(False)
        assert verdict.observed.multiplicities == want, prod
        assert verdict.is_product, (prod, verdict)

    def test_coprime_base(self):
        assert sorted(_coprime_base([12, 18, 35, 1, 49])) == [2, 3, 5, 7]
        assert sorted(_coprime_base([6, 35, 6])) == [6, 35]  # no factoring
        assert _coprime_base([1, 1]) == []

    def test_integral_rec_scale(self):
        # den(c_k) | D^k needs only D = 2 here, where the lcm is 8
        assert _integral_rec([Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)]) == [1, 1, 1]
        assert _integral_rec([Fraction(1, 6), Fraction(1, 36)]) == [1, 1]
        assert _integral_rec([Fraction(1, 4), Fraction(1, 2)]) == [1, 8]
        assert _integral_rec([3, -5]) == [3, -5]

    def test_root_multiplicities(self):
        # (z - 1)^2 (z + 2)^3 (z - 3)
        a, b, c = Polynomial([-1, 1]), Polynomial([2, 1]), Polynomial([-3, 1])
        f = [int(x) for x in (a * a * b * b * b * c).coeffs]
        assert sorted(_root_multiplicities(f)) == [1, 2, 3]
        assert _root_multiplicities([1]) == []

    def test_root_multiplicities_planted_product(self):
        # (z - 1)^3 (z + 2)^2 (z^2 + 1): the roots i and -i are simple
        a, b, c = Polynomial([-1, 1]), Polynomial([2, 1]), Polynomial([1, 0, 1])
        f = [int(x) for x in (a * a * a * b * b * c).coeffs]
        assert sorted(_root_multiplicities(f)) == [1, 1, 2, 3]

    def test_root_multiplicities_random_planted(self):
        rng = random.Random(31)
        for _ in range(40):
            roots = set()
            while len(roots) < rng.randint(1, 4):
                roots.add(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
            mults = [rng.randint(1, 4) for _ in roots]
            f = Polynomial([rng.choice([-6, -1, 1, 3])])
            for r, k in zip(roots, mults):
                for _ in range(k):
                    f = f * Polynomial([-r.numerator, r.denominator])
            ints = [int(x) for x in f.coeffs]
            assert sorted(_root_multiplicities(ints)) == sorted(mults), f

    def test_rational_coefficient_profiles(self):
        # every product has a non-integer coefficient, so z is scaled by D > 1
        rng = random.Random(1123)
        for shape in [(2, 2), (2, 3), (3, 2), (2, 2)]:
            prod = _random_product(rng, shape, first=_rational_factor)
            assert any(c.denominator > 1 for c in prod.rec), prod
            ratio = _ratio_poly(_integral_rec(prod.rec))
            assert all(type(x) is int for x in ratio) and ratio[-1] == 1
            want = oracles.ratio_profile(prod.rec, 50)
            assert _observed(prod) == want, prod
            assert want != (1,) * (len(want) - 1) + (len(prod.rec),)

    def test_huge_coefficient_profile(self):
        # two roots near +-10^-24 need 300 digits to pass the oracle's gap check
        m = minimize(BIG_PRODUCT)
        want = oracles.ratio_profile(m.rec, 300)
        assert _observed(m) == want == (1, 1, 1, 1, 2, 2, 2, 2, 4)

    def test_random_simple_root_sequences(self):
        rng = random.Random(2718)
        checked = 0
        for _ in range(120):
            init, rec = oracles.random_sequence(rng, max_order=6, rational=True)
            m = minimize(CFiniteSeq(init, rec))
            if m.rec[-1] == 0:
                continue
            try:
                exact = _observed(m)
            except DegenerateRootsError:
                continue
            assert exact == oracles.ratio_profile(m.rec, 50), m
            checked += 1
        assert checked >= 100

    @pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 3), (2, 2, 2)])
    def test_products_of_each_shape(self, shape):
        rng = random.Random(str(shape))
        for _ in range(3):
            prod = _random_product(rng, shape)
            verdict = is_prod_g(prod, shape)
            assert verdict.is_product, (prod, verdict)
            want = oracles.ratio_profile(prod.rec, 50)
            assert verdict.observed.multiplicities == want, prod

    def test_unit_root_products_coarsen(self):
        rng = random.Random(1729)
        for _ in range(3):
            prod = _random_product(rng, (2, 2), first=_unit_root_factor)
            verdict = is_prod_g(prod, (2, 2))
            assert verdict.is_product and verdict.note, (prod, verdict)
            assert verdict.observed != verdict.expected
            want = oracles.ratio_profile(prod.rec, 50)
            assert verdict.observed.multiplicities == want, prod

    def test_four_geometric_sums(self):
        rng = random.Random(1618)
        for _ in range(4):
            s = _four_geometric_sum(rng)
            verdict = is_prod_g(s, (2, 2))
            assert not verdict.is_product
            want = oracles.ratio_profile(s.rec, 50)
            assert verdict.observed.multiplicities == want, s


def test_ratio_quotient_height_on_the_weighted_width_8_strip():
    # S's coefficient of w^k carries c^(N-k): 30,272 bits at its largest;
    # the quotient is read in u = w/|c| and stays under 2,000
    seq = dimer_seq(8, (Fraction(2, 3), Fraction(5, 7)))
    sign, _, T = _ratio_quotient(seq.rec)
    assert sign == -1 and _integral_rec(seq.rec)[-1] < 0
    assert max(abs(x).bit_length() for x in T) < 2000
    observed = (seq.order, *_ratio_multiplicities(seq.rec))
    assert tuple(sorted(observed)) == oracles.ratio_profile(seq.rec, 60)
    assert RepetitionProfile(observed) == prod_indicator((2, 2, 2, 2))


class TestCoarsening:
    def test_exact_match_is_coarsening(self):
        assert _is_coarsening((1, 1, 2), (1, 1, 2))

    def test_merge_two_singletons(self):
        assert _is_coarsening((1, 1, 1, 1, 1, 1, 2), (1,) * 8)

    def test_refinement_rejected(self):
        assert not _is_coarsening((1,) * 8, (1, 1, 1, 1, 1, 1, 2))

    def test_total_mismatch_rejected(self):
        assert not _is_coarsening((1, 2), (1, 1))

    def test_observed_width6_case(self):
        generic = (1,) * 8 + (2,) * 12 + (4,) * 6 + (8,)
        observed = (1,) * 6 + (2,) * 13 + (4,) * 6 + (8,)
        assert _is_coarsening(observed, generic)

    def test_impossible_grouping_rejected(self):
        # same total, but 5 cannot be assembled from {2, 2, 4}
        assert not _is_coarsening((5, 3), (2, 2, 4))

    def test_more_observed_classes_rejected(self):
        # merging never adds a class
        assert not _is_coarsening((1, 1, 2), (2, 2))


DEGENERATE = r"^multiple characteristic roots: the ratio profile is undefined$"


def _monic_from_roots(roots_, extra=()):
    """The recurrence of prod (z - r) times z^k + extra[0] z^(k-1) + ... + extra[-1]."""
    P = [1]
    for f in [[-r, 1] for r in roots_] + [list(reversed(extra)) + [1]]:
        P = [sum(P[i] * f[k - i] for i in range(len(P)) if 0 <= k - i < len(f))
             for k in range(len(P) + len(f) - 1)]
    return [-c for c in reversed(P[:-1])]


def _no_second_pass(*args):
    raise AssertionError("the product test ran a second pass")


class TestRepeatedRoots:
    """The product test reads a repeated root off T (u = 2 sign c, w = 2c),
    the factorisers off gcd(P, P') (_require_simple_roots); both raise the
    same DegenerateRootsError."""

    @pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 3)])
    def test_planted_double_root_raises(self, shape):
        rng = random.Random(f"double root {shape}")
        done = 0
        while done < 3:
            r, s = rng.sample([-3, -2, -1, 1, 2, 3, Fraction(1, 2), Fraction(-4, 3)], 2)
            left_roots = [r, r] + [s] * (shape[0] - 2)  # (z - r)^2, times (z - s)
            init = [rng.randint(1, 5) for _ in left_roots]
            left = CFiniteSeq(init, _monic_from_roots(left_roots))
            prod = mul(left, _random_factor(rng, shape[1]))
            if prod.order != math.prod(shape) or prod.rec[-1] == 0:
                continue
            with pytest.raises(DegenerateRootsError, match=DEGENERATE):
                is_prod_g(prod, shape)
            with pytest.raises(DegenerateRootsError, match=DEGENERATE):
                roots._require_simple_roots(prod)
            done += 1

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.sampled_from([-3, -2, -1, 1, 2, 3, Fraction(1, 2), Fraction(-2, 3)]),
                 max_size=5),
        st.lists(st.integers(-4, 4), max_size=3).filter(lambda e: not e or e[-1]),
    )
    def test_root_of_t_at_2c_iff_the_gcd_finds_one(self, roots_, extra):
        rec = _monic_from_roots(roots_, extra)
        assume(rec)
        try:
            roots._require_simple_roots(CFiniteSeq([1] * len(rec), rec))
            repeated = False
        except DegenerateRootsError:
            repeated = True
        sign, _, T = _ratio_quotient(rec)
        assert (_horner(T, 2 * sign) == 0) == repeated, rec


class TestIsProd:
    def test_small_product_test_runs_no_second_pass(self, monkeypatch):
        # no gcd(P, P') (repeated roots are read off T) and no fit in
        # minimize (its Hankel determinant certifies the order)
        prod = mul(FIB, PELL)
        monkeypatch.setattr(roots, "_require_simple_roots", _no_second_pass)
        monkeypatch.setattr(guess, "_berlekamp_massey", _no_second_pass)
        verdict = is_prod_g(prod, (2, 2))
        assert verdict.is_product and verdict.observed == verdict.expected

    def test_fib_times_pell_yes(self):
        verdict = is_prod(mul(FIB, PELL), 2, 2)
        assert verdict.is_product
        assert verdict.observed == verdict.expected
        assert verdict.note == ""

    def test_sum_of_four_geometrics_no(self):
        terms = [2**n + 3**n + 5**n + 7**n for n in range(12)]
        from cfinite.guess import GuessConfig, guess_rec

        s = guess_rec(terms, GuessConfig(max_order=4))
        assert s is not None and s.order == 4
        verdict = is_prod(s, 2, 2)
        assert not verdict.is_product

    @pytest.mark.parametrize("orders", [(0, 2), (), (2, -1)])
    def test_bad_orders_refused_before_any_work(self, orders, monkeypatch):
        monkeypatch.setattr(roots, "minimize", _no_work)
        with pytest.raises(ValueError, match="orders must be a nonempty list of counts >= 1"):
            is_prod_g(FIB, orders)

    def test_order_limit_refused_before_any_work(self, monkeypatch):
        monkeypatch.setattr(roots, "minimize", _no_work)
        with pytest.raises(ValueError, match="exceeds 1024"):
            is_prod_g(FIB, (33, 32))

    def test_order_mismatch_raises(self):
        with pytest.raises(OrderMismatchError):
            is_prod(FIB, 2, 2)

    def test_minimization_happens_first(self):
        prod = mul(FIB, PELL)
        c = list(prod.rec)
        # multiply the characteristic polynomial by (z - 2): same sequence,
        # order 5 representation
        padded_rec = [c[0] + 2] + [c[k] - 2 * c[k - 1] for k in range(1, 4)] + [-2 * c[3]]
        padded = CFiniteSeq(eval_terms(prod, 5), padded_rec)
        verdict = is_prod(padded, 2, 2)
        assert verdict.is_product

    def test_three_factor_generic_yes(self):
        s = mul(mul(FIB, PELL), CFiniteSeq([1, 5], [1, 2]))
        verdict = is_prod_g(s, (2, 2, 2))
        assert verdict.is_product

    def test_verdicts_stable_across_digits(self):
        prod = mul(FIB, PELL)
        for d in (50, 100, 200):
            assert is_prod_g(prod, (2, 2), d).is_product

    def test_huge_coefficient_product_yes(self):
        # a factor coefficient near 10^24: roots near 10^24 and 10^-24; the
        # exact profile needs no root finder at any precision
        verdict = is_prod_g(BIG_PRODUCT, (2, 2), 50)
        assert verdict.is_product
        assert verdict.observed == verdict.expected

    @pytest.mark.parametrize("digits", [50, 100])
    def test_close_distinct_roots_yes(self, digits):
        # roots 2 and 2 + 10^-30: distinct, closer than numeric precision sees
        eps = Fraction(1, 10**30)
        s = CFiniteSeq([1, 1], [4 + eps, -2 * (2 + eps)])
        verdict = is_prod_g(s, (2,), digits)
        assert verdict.is_product
        assert verdict.observed.multiplicities == (1, 1, 2)

    @pytest.mark.parametrize("digits", [1, 10, 50, 100, 200])
    def test_repeated_roots_degenerate_at_every_digits(self, digits):
        # (z - 2)^2 times a Fibonacci-like factor: exactly repeated roots
        prod = mul(CFiniteSeq([1, 1], [4, -4]), CFiniteSeq([1, 1], [1, 1]))
        assert prod.order == 4
        with pytest.raises(DegenerateRootsError):
            is_prod_g(prod, (2, 2), digits)

    def test_battery_50_constructed_products(self):
        """Products of random order 2/3 factors must all test positive."""
        rng = random.Random(31415)
        shapes = [(2, 2), (2, 3), (3, 3)]
        done = 0
        while done < 50:
            L1, L2 = shapes[done % 3]
            i1, r1 = oracles.random_sequence(rng, max_order=1)
            i2, r2 = oracles.random_sequence(rng, max_order=1)
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
                continue  # degenerate draw; the battery wants full order
            try:
                verdict = is_prod(prod, L1, L2)
            except DegenerateRootsError:
                continue
            assert verdict.is_product, (s1, s2, verdict)
            done += 1


def test_repetition_profile_is_sorted():
    assert RepetitionProfile((3, 1, 2)).multiplicities == (1, 2, 3)
