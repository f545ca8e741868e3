import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cfinite.cli import main
from cfinite.core import CFiniteSeq, _integral_rec, content, eval_terms, format_seq, minimize
from cfinite.core import parse_seq, shift
from cfinite.dimers import dimer_seq
from cfinite import core, factor, guess, linalg
from cfinite.factor import (
    PrecisionError,
    _rational,
    _split,
    factorize_integer,
    factorize_roots,
)
from cfinite.guess import add, mul, prove_equal
from cfinite import roots
from cfinite.roots import DegenerateRootsError, OrderMismatchError, is_prod_g
from cfinite import corpus

import oracles

FIB = corpus.lookup("fibonacci")
PELL = corpus.lookup("pell")
LUCAS = corpus.lookup("lucas")


def assert_valid_factorization(pair, target, n=60):
    """The returned pair must multiply back to the target, exactly."""
    assert pair.certificate.verified
    t1 = eval_terms(pair.left, n)
    t2 = eval_terms(pair.right, n)
    assert [a * b for a, b in zip(t1, t2)] == eval_terms(target, n)


def assert_primitive_integer(seq):
    """Integer recurrence, coprime integer initial terms, first nonzero positive."""
    assert all(c.denominator == 1 for c in seq.rec + seq.init)
    assert math.gcd(*(int(d) for d in seq.init)) == 1
    assert next(d for d in seq.init if d) > 0


@st.composite
def small_factors(draw, order, values=st.integers(-3, 3)):
    """A sequence of the given order with small data and c_L != 0."""
    init = draw(st.lists(values, min_size=order, max_size=order).filter(any))
    rec = draw(st.lists(values, min_size=order - 1, max_size=order - 1))
    return CFiniteSeq(init, rec + [draw(values.filter(bool))])


def _sqrt_mod(a, q):
    """A square root of a mod q = p^N, for a nonzero square a mod p, from
    the roots of z^2 - a mod p."""
    p = next(p for p in range(3, q + 1) if q % p == 0)
    r = factor._roots_mod([-a % p, 0, 1], p)[0]
    return factor._lift([-a, 0, 1], r, p, q)


class TestReconstruct:
    """factor._rational, Wang's rational reconstruction mod q = p^N."""

    P = 1048601  # the first prime above 2^20 that is 1 mod 8
    Q = P**10

    def test_reconstruct_integers_and_zero(self):
        assert _rational(pow(4, -1, self.Q), self.Q) == Fraction(1, 4)
        assert _rational(-3 % self.Q, self.Q) == -3
        assert _rational(0, self.Q) == 0

    def test_reconstruct_simple_rationals(self):
        assert _rational(pow(3, -1, self.Q), self.Q) == Fraction(1, 3)
        assert _rational(-22 * pow(7, -1, self.Q), self.Q) == Fraction(-22, 7)

    def test_reconstruct_rejects_irrational(self):
        # a / b = sqrt 2 would need a^2 - 2 b^2 = 0 mod q with |a|, |b| <=
        # sqrt(q / 2), so 0 < 2 b^2 - a^2 <= q, equal to q only for even q
        s = _sqrt_mod(2, self.Q)
        assert s * s % self.Q == 2
        assert _rational(s, self.Q) is None

    def test_reconstruct_rejects_complex(self):
        # a / b = i would need 0 < a^2 + b^2 <= q, equal to q only for even q
        i = _sqrt_mod(-1, self.Q)
        assert i * i % self.Q == self.Q - 1
        assert _rational(i, self.Q) is None

    def test_reconstruct_rejects_a_fraction_beyond_the_bound(self):
        # p = a / b mod p^2 forces p | a, so no |a| <= sqrt(p^2 / 2) but 0
        # fits, and b p = 0 mod p^2 is impossible for b < p
        assert _rational(self.P, self.P**2) is None
        # a fraction just outside the bound comes back as another one, never
        # as itself
        x = 10**35 * pow(3, -1, self.Q) % self.Q
        assert _rational(x, self.Q) != Fraction(10**35, 3)

    @pytest.mark.parametrize("q", [3**7, 5**5, 7**4, 101, 103**2])
    def test_reconstruct_matches_every_denominator_tried(self, q):
        for x in range(q):
            assert _rational(x, q) == oracles.rational_mod(x, q), x


class TestFactorizeRoots:
    def test_fib_times_pell(self):
        prod = mul(FIB, PELL)
        pair = factorize_roots(prod, 2, 2)
        assert pair is not None
        assert {pair.left, pair.right} == {FIB, PELL}
        assert_valid_factorization(pair, prod)

    def test_geometric_split(self):
        # 4^n = 2^n * 2^n
        four = corpus.lookup("geometric", [4])
        pair = factorize_roots(four, 1, 1)
        assert pair is not None
        assert_valid_factorization(pair, four)

    def test_order_mismatch(self):
        with pytest.raises(OrderMismatchError):
            factorize_roots(FIB, 2, 2)

    def test_non_product_returns_none(self):
        from cfinite.guess import GuessConfig, guess_rec

        terms = [2**n + 3**n + 5**n + 7**n for n in range(12)]
        s = guess_rec(terms, GuessConfig(max_order=4))
        assert factorize_roots(s, 2, 2) is None

    def test_rational_factor_recovered(self):
        # a product with non-integer data on one side
        left = CFiniteSeq([Fraction(1, 2), 1], [1, Fraction(1, 4)])
        right = CFiniteSeq([3, 1], [-1, 2])
        prod = mul(left, right)
        pair = factorize_roots(prod, 2, 2)
        assert pair is not None
        assert_valid_factorization(pair, prod)

    def test_reconstruction_bound_grows_with_precision(self, monkeypatch):
        # a 2x2 product of large coefficients, taken by the exact order-2 route
        left = CFiniteSeq([1, 2], [1009, 1])
        right = CFiniteSeq([1, 1], [1013, 3])
        prod = mul(left, right)
        pair = factorize_roots(prod, 2, 2, digits=50)
        assert pair is not None
        assert {pair.left, pair.right} == {left, right}
        assert_valid_factorization(pair, prod)
        # a 3x3 product takes the root grid.  In its gauge e_1 = 1 of the
        # first column the factor recurrences hold 7/1000 or 3/8000: beyond
        # sqrt(p/2) < 750 at 6 digits (p^1 > 10^6), within sqrt(p^2/2) at 12,
        # so every grid is unresolved at the first rung and splits at the second
        moduli = []

        def spy(grid, gammas, p, q):
            recs = extract(grid, gammas, p, q)
            moduli.append((q, recs is None))
            return recs

        extract = factor._extract_factors
        monkeypatch.setattr(factor, "_extract_factors", spy)
        left = CFiniteSeq([1, 0, 0], [10, 3, 7])
        right = CFiniteSeq([1, 1, 1], [20, 1, 3])
        prod = mul(left, right)
        pair = factorize_roots(prod, 3, 3, digits=6)
        assert {pair.left, pair.right} == {left, right}
        assert_valid_factorization(pair, prod)
        first = min(q for q, _ in moduli)
        assert first < 10**7 and all(failed for q, failed in moduli if q == first)
        assert moduli[-1] == (first**2, False)

    @pytest.mark.parametrize(
        "p, digits", [(999999000001, 100), (999999000001, 200), (999999937, 100)]
    )
    def test_large_prime_gauge_ends_promptly(self, p, digits):
        # with [p, 1] on the left the gauge needs the primes of p^2, beyond
        # bounded trial division; the cofactor p^2 is a proven prime squared
        prod = mul(CFiniteSeq([1, 2], [p, 1]), FIB)
        t0 = time.monotonic()
        pair = factorize_roots(prod, 2, 2, digits=digits)
        assert time.monotonic() - t0 < 30
        assert_valid_factorization(pair, prod)

    def test_gauge_prime_above_trial_limit(self):
        # the gauged left recurrence holds 1000003^2, a prime above the
        # trial-division limit, squared
        left = CFiniteSeq([1, 1], [2000006, 7])
        right = CFiniteSeq([1, 2, 1], [1, 2, -3])
        prod = mul(left, right)
        pair = factorize_roots(prod, 2, 3, digits=50)
        assert (pair.left, pair.right) == (left, right)
        assert_valid_factorization(pair, prod)

    def test_two_large_primes_in_one_coefficient(self):
        # the gauged left recurrence holds (2 * 1000003 * 1000033)^2: the
        # gauge base takes 1000003 * 1000033 as one element
        left = CFiniteSeq([1, 1], [2 * 1000003 * 1000033, 7])
        right = CFiniteSeq([1, 2, 1], [1, 2, -3])
        prod = mul(left, right)
        pair = factorize_roots(prod, 2, 3, digits=50)
        assert (pair.left, pair.right) == (left, right)
        assert_valid_factorization(pair, prod)

    def test_tiny_roots_are_not_split_away(self):
        # roots 6, -3 and 3e-100, an order-3 factor with the roots 2, -1 and
        # 10^-100 times 3^n: an order is 1, so the pair (1, m) is proposed
        # and certified; the tiny root stays in the order-3 factor
        eps = Fraction(1, 10**100)
        tiny = CFiniteSeq([1, 1, 1], [1 + eps, 2 - eps, -2 * eps])
        prod = mul(tiny, CFiniteSeq([1], [3]))
        pair = factorize_roots(prod, 3, 1, digits=50)
        assert (pair.left.order, pair.right.order) == (1, 3)
        assert_valid_factorization(pair, prod)

    def test_tiny_roots_factor_exactly_at_order_2(self):
        # roots 3e-100 and 5e-100 next to 6 and 10: the exact order-2 route
        # needs no precision at all
        eps = Fraction(1, 10**100)
        tiny = CFiniteSeq([1, 1], [2 + eps, -2 * eps])
        prod = mul(tiny, CFiniteSeq([1, 1], [8, -15]))
        assert_valid_factorization(factorize_roots(prod, 2, 2, digits=50), prod)

    @pytest.mark.parametrize(
        "seq, L1, L2",
        [
            # roots +2 and -2: e_1 of the left roots is 0
            (CFiniteSeq([1, 0], [0, 4]), 2, 1),
            # [[1, 1], [0, 2]] times 3^n
            (CFiniteSeq([1, 3], [0, 18]), 2, 1),
            # an order-2 factor with roots +a and -a times an order-3 one
            (CFiniteSeq([2, -1, 0, -6, 18, -27], [0, 7, 0, -3, 0, 9]), 2, 3),
            # the cube roots of 2 times an order-2 factor: e_1 = e_2 = 0
            (mul(CFiniteSeq([1, 1, 1], [0, 0, 2]), CFiniteSeq([1, 2], [1, 3])), 3, 2),
        ],
        ids=["pm2", "pm_times_3n", "probe_pm", "cube_roots"],
    )
    def test_left_roots_summing_to_zero(self, seq, L1, L2):
        pair = factorize_roots(seq, L1, L2)
        assert_valid_factorization(pair, seq)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 2),
        st.integers(-6, 6).filter(bool),
        st.lists(st.integers(-4, 4), min_size=2, max_size=6),
    )
    def test_zero_trace_left_factor_round_trips(self, zeros, c, data):
        # left factor rec [0, c] or [0, 0, c]: every e_k of its roots but
        # the last is 0
        left = CFiniteSeq([1] + [0] * zeros, [0] * zeros + [c])
        half = len(data) // 2
        right = CFiniteSeq(data[:half], data[half:2 * half])
        if not any(right.init) or right.rec[-1] == 0:
            return
        prod = mul(left, right)
        if prod.order != left.order * right.order:
            return
        try:
            pair = factorize_roots(prod, left.order, right.order)
        except DegenerateRootsError:
            return
        assert_valid_factorization(pair, prod)

    def test_canonical_output_is_stable(self):
        prod = mul(FIB, PELL)
        a = factorize_roots(prod, 2, 2)
        b = factorize_roots(prod, 2, 2)
        assert (a.left, a.right) == (b.left, b.right)

    def test_asymmetric_orders(self):
        left = CFiniteSeq([1, 2], [1, 1])
        right = CFiniteSeq([2, 0, 1], [0, 1, 1])
        prod = mul(left, right)
        if prod.order != 6:
            pytest.skip("degenerate example; orders collapsed")
        pair = factorize_roots(prod, 2, 3)
        assert pair is not None
        assert_valid_factorization(pair, prod)

    def test_random_products_round_trip(self):
        rng = random.Random(271828)
        done = 0
        while done < 10:
            s1 = CFiniteSeq(
                [rng.randint(1, 4), rng.randint(-3, 3)],
                [rng.randint(-3, 3), rng.choice([1, -1, 2])],
            )
            s2 = CFiniteSeq(
                [rng.randint(1, 4), rng.randint(-3, 3)],
                [rng.randint(-3, 3), rng.choice([-2, 3, 1])],
            )
            prod = mul(s1, s2)
            if prod.order != 4:
                continue
            try:
                pair = factorize_roots(prod, 2, 2)
            except Exception:
                continue  # degenerate draws (multiple roots) are not the point
            assert pair is not None, (s1, s2)
            assert_valid_factorization(pair, prod)
            done += 1


def _random_factor(rng, order):
    def draw():
        return Fraction(rng.randint(-5, 5), rng.randint(1, 3))

    init = [draw() for _ in range(order)]
    last = Fraction(rng.choice([1, -2, 3]), rng.randint(1, 2))
    rec = [draw() for _ in range(order - 1)] + [last]
    return CFiniteSeq(init if any(init) else [1] + init[1:], rec)


class TestSplit:
    def test_zero_sequence_has_no_split(self):
        # the zero sequence solves to the zero vector, which leaves no
        # initial terms to split
        zero = CFiniteSeq([0, 0], [1, 1])
        assert _split(zero, [Fraction(1)], [Fraction(2), Fraction(-1)]) is False

    def test_split_prime_skips_a_prime_dividing_c_L(self):
        # 1048583 is the first prime past 2^20, the first one _split_prime
        # tries; it divides c_L, so P(0) = 0 there and the next prime serves
        assert [p for p in range(1 << 20, 1048584) if core._is_prime(p)] == [1048583]
        p, found = factor._split_prime([Fraction(0), Fraction(1048583)], 1, 2)
        assert p > 1048583 and len(found) == 2
        assert all((r * r - 1048583) % p == 0 for r in found)

    def test_split_prime_gives_up_past_its_budget(self, monkeypatch):
        # the budget is 20 L1! L2! good primes; none at all here
        monkeypatch.setattr(factor, "factorial", lambda n: 0)
        with pytest.raises(PrecisionError, match="none of the first 0 good primes"):
            factor._split_prime([Fraction(1), Fraction(1)], 1, 2)

    def test_random_products_split_exactly(self):
        rng = random.Random(161803)
        done = 0
        while done < 30:
            a = _random_factor(rng, rng.randint(1, 3))
            b = _random_factor(rng, rng.randint(1, 3))
            prod = mul(a, b)
            if prod.order != a.order * b.order:
                continue
            x, y = _split(prod, a.rec, b.rec)
            # x is proportional to a.init, with first nonzero entry 1
            assert next(v for v in x if v) == 1
            assert all(p * q == r * t for p, t in zip(x, a.init) for r, q in zip(x, a.init))
            left = eval_terms(CFiniteSeq(x, a.rec), 60)
            right = eval_terms(CFiniteSeq(y, b.rec), 60)
            assert [u * v for u, v in zip(left, right)] == eval_terms(prod, 60)
            done += 1

    def test_integer_rows_solve_like_the_fraction_system(self, monkeypatch):
        # _split solves on integer images; the system on the Fraction terms
        # of the unit-initial-term sequences has the same solution
        solved = []

        def int_solve(A, b):
            assert all(type(x) is int for row in A for x in (*row, *b))
            solved.append(linalg.solve(A, b))
            return solved[-1]

        monkeypatch.setattr(factor, "solve", int_solve)
        rng = random.Random(271828)
        done = 0
        while done < 15:
            a = _random_factor(rng, rng.randint(1, 3))
            b = _random_factor(rng, rng.randint(1, 3))
            prod = mul(a, b)
            if prod.order != a.order * b.order:
                continue
            n = 2 * prod.order + 4
            us, vs = (
                [eval_terms(CFiniteSeq([int(i == j) for i in range(s.order)], s.rec), n)
                 for j in range(s.order)]
                for s in (a, b)
            )
            rows = [[u[k] * v[k] for u in us for v in vs] for k in range(n)]
            assert _split(prod, a.rec, b.rec)
            assert solved[-1] == linalg.solve(rows, eval_terms(prod, n))
            done += 1

    def test_one_integer_image_per_recurrence(self, monkeypatch):
        # the unit vectors of a recurrence are stepped on one integer image:
        # solve gets the rows of one core._image per unit vector, and
        # _rec_scale runs once each for the left, right and product recurrence
        # (_unit_images calls it from factor.py, core._image from core.py)
        systems, scaled = [], []
        rec_scale = core._rec_scale

        def recording_solve(A, b):
            systems.append((A, b))
            return linalg.solve(A, b)

        def counting_rec_scale(rec):
            scaled.append(tuple(rec))
            return rec_scale(rec)

        monkeypatch.setattr(factor, "solve", recording_solve)
        monkeypatch.setattr(core, "_rec_scale", counting_rec_scale)
        monkeypatch.setattr(factor, "_rec_scale", counting_rec_scale)
        rng = random.Random(141421)
        done = 0
        while done < 10:
            a = _random_factor(rng, rng.randint(1, 3))
            b = _random_factor(rng, rng.randint(1, 3))
            prod = mul(a, b)
            if prod.order != a.order * b.order:
                continue
            scaled.clear()
            assert _split(prod, a.rec, b.rec)
            assert scaled == [a.rec, b.rec, prod.rec]
            n = 2 * prod.order + 4
            (D1, us), (D2, vs) = (
                (images[0][1], [x for _, _, x in images])
                for images in (
                    [core._image(CFiniteSeq([int(i == j) for i in range(s.order)], s.rec), n)
                     for j in range(s.order)]
                    for s in (a, b)
                )
            )
            E, D, z = core._image(prod, n)
            rows = [[E * D**k * u[k] * v[k] for u in us for v in vs] for k in range(n)]
            assert systems[-1] == (rows, [(D1 * D2) ** k * z[k] for k in range(n)])
            done += 1

    def test_rows_are_2_l1_l2_plus_safety_terms(self, monkeypatch):
        # the margin past 2 L1 L2 rows is guess.SAFETY_TERMS, not a literal
        heights = []

        def recording_solve(A, b):
            heights.append((len(A), len(b)))
            return linalg.solve(A, b)

        monkeypatch.setattr(factor, "solve", recording_solve)
        monkeypatch.setattr(guess, "SAFETY_TERMS", 6)
        right = CFiniteSeq([2, 0, 1], [0, 1, 1])
        for a, b in [(FIB, PELL), (FIB, right), (CFiniteSeq([3], [2]), right)]:
            assert _split(mul(a, b), a.rec, b.rec)
            n = 2 * a.order * b.order + 6
            assert heights[-1] == (n, n)

    def test_rank_two_grid_is_no_product(self):
        # the roots form a 2x2 grid, but the coefficient matrix has rank 2
        s = add(mul(FIB, PELL), mul(LUCAS, shift(PELL, 1)))
        assert s.order == 4
        assert _split(s, FIB.rec, PELL.rec) is False
        assert factorize_roots(s, 2, 2) is None

    def test_close_distinct_roots_not_degenerate(self):
        # roots 2 and 2 + 10^-30 are distinct: the repeated-root check is an
        # exact gcd(P, P'), so no closeness of roots raises
        # DegenerateRootsError, and the exact order-2 route factors it
        eps = Fraction(1, 10**30)
        s = mul(CFiniteSeq([1, 1], [4 + eps, -2 * (2 + eps)]), FIB)
        pair = factorize_roots(s, 2, 2, digits=50)
        assert pair is not None
        assert_valid_factorization(pair, s)


class TestFactorizeInteger:
    def test_fib_times_pell(self):
        prod = mul(FIB, PELL)
        pair = factorize_integer(prod, 2, 2, bound=2)
        assert pair is not None
        assert {pair.left, pair.right} == {FIB, PELL}
        assert_valid_factorization(pair, prod)

    def test_stats_reported(self):
        prod = mul(FIB, PELL)
        stats = {}
        factorize_integer(prod, 2, 2, bound=2, stats=stats)
        assert stats["candidates"] > 0
        assert 0 < stats["screened"] <= stats["candidates"]

    def test_requires_integer_sequence(self):
        s = CFiniteSeq([Fraction(1, 2), 1], [1, 1])
        prod = mul(s, s)
        with pytest.raises(ValueError):
            factorize_integer(prod, 2, 2, bound=2)

    @pytest.mark.parametrize("bound", [0, -1])
    def test_bound_below_one_rejected(self, bound):
        with pytest.raises(ValueError, match="bound"):
            factorize_integer(mul(FIB, PELL), 2, 2, bound=bound)

    def test_not_found_within_bound(self):
        # neither factor (nor any integer regauging of one) fits in [-1, 1]
        left = CFiniteSeq([1, 1], [1, 2])
        right = CFiniteSeq([2, 1], [1, 1])
        prod = mul(left, right)
        assert factorize_integer(prod, 2, 2, bound=1) is None

    def test_bound_one_still_finds_fibonacci(self):
        # the bound constrains only the order-L1 factor; the cofactor need
        # only be integral, so Fib * Pell splits even at bound 1
        prod = mul(FIB, PELL)
        pair = factorize_integer(prod, 2, 2, bound=1)
        assert pair is not None
        assert_valid_factorization(pair, prod)

    def test_agrees_with_roots_route(self):
        left = CFiniteSeq([1, 1], [1, 2])
        right = CFiniteSeq([2, 1], [1, 1])
        prod = mul(left, right)
        a = factorize_roots(prod, 2, 2)
        b = factorize_integer(prod, 2, 2, bound=2)
        assert a is not None and b is not None
        # the two routes normalize differently (the weighted-primitive
        # rational gauge vs the bounded integer gauge), but both must split
        # the target
        assert_valid_factorization(a, prod)
        assert_valid_factorization(b, prod)
        assert {a.left.order, a.right.order} == {b.left.order, b.right.order}

    def test_left_factor_with_zero_terms(self):
        # 0, 1, 0, 2, 0, 4, ... lies in the brute force's search space, but
        # it vanishes at every other index, so the brute force never guesses
        # its cofactor; the exact routes' split needs no zero-free stretch
        prod = mul(CFiniteSeq([0, 1], [0, 2]), CFiniteSeq([1, 0], [3, 1]))
        assert oracles.integer_factor_pair(prod, 2, 2, 2) is None
        pair = factorize_integer(prod, 2, 2, bound=2)
        assert (pair.left, pair.right) == (
            CFiniteSeq([0, 1], [0, 2]),
            CFiniteSeq([-1, 0], [-3, 1]),
        )
        assert_valid_factorization(pair, prod)

    def test_cofactor_must_be_integral(self):
        # [[1, 2], [2, 2]] x [[1, 1/2], [0, 1]]: either factor, scaled to
        # primitive initial terms, has integer data within the bound, but
        # the other one is then not integral (1/2 at odd n, or at n = 0)
        prod = CFiniteSeq([1, 1, 6, 8], [0, 8, 0, -4])
        assert prod == mul(CFiniteSeq([1, 2], [2, 2]), CFiniteSeq([1, Fraction(1, 2)], [0, 1]))
        assert factorize_integer(prod, 2, 2, bound=2) is None
        assert oracles.integer_factor_pair(prod, 2, 2, 2) is None

    def test_first_recurrence_in_the_bound_wins(self):
        # (roots +-sqrt 2) times 3^n: within bound 18 the order-2 factor can
        # have the recurrence [0, 2] or [0, 18], and the lexicographic order
        # of the brute force puts [0, 2] first
        prod = mul(CFiniteSeq([1, 1], [0, 2]), CFiniteSeq([1], [3]))
        pair = factorize_integer(prod, 2, 1, bound=18)
        want = (CFiniteSeq([1], [3]), CFiniteSeq([1, 1], [0, 2]))
        assert (pair.left, pair.right) == want == oracles.integer_factor_pair(prod, 2, 1, 18)

    @pytest.mark.parametrize(
        "prod, L1, L2, tried",
        [
            # +-1 for each factor, searched once for both argument orders of
            # the normal form
            (mul(FIB, PELL), 2, 2, 4),
            (mul(CFiniteSeq([0, 1], [0, 2]), CFiniteSeq([1, 0], [3, 1])), 2, 2, 4),
            # lambda^j divides the cofactor's j-th coefficient [6, 9]: +-1, +-3
            (mul(CFiniteSeq([1], [3]), PELL), 1, 2, 4),
        ],
        ids=["fib_pell", "zeros", "3n_pell"],
    )
    def test_cost_does_not_grow_with_the_bound(self, prod, L1, L2, tried):
        stats = {}
        t0 = time.monotonic()
        pair = factorize_integer(prod, L1, L2, bound=10**6, stats=stats)
        assert time.monotonic() - t0 < 1
        assert stats["candidates"] == tried
        assert_valid_factorization(pair, prod)


def _integer_draw(rng, order, bound):
    """A seeded integer sequence of minimal order `order` with data in
    [-bound, bound], zero terms allowed, and c_L != 0."""
    while True:
        data = [rng.randint(-bound, bound) for _ in range(2 * order)]
        seq = CFiniteSeq(data[:order], data[order:])
        if data[-1] and any(data[:order]) and minimize(seq).order == order:
            return seq


def _bounded(seq, bound):
    """Integer recurrence and primitive initial terms in [-bound, bound]."""
    c = content(seq.init)
    data = (*seq.rec, *(d / c for d in seq.init))
    return all(x.denominator == 1 and abs(x) <= bound for x in data)


def test_integer_factors_match_the_brute_force_oracle():
    rng = random.Random("integer-oracle")
    answered = 0
    # 1 x 1 products have bounded gauges on both sides
    for L1, L2 in [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 2)]:
        for bound in (1, 2, 3):
            done = 0
            while done < 3:
                prod = mul(_integer_draw(rng, L1, bound), _integer_draw(rng, L2, 3))
                if prod.order != L1 * L2:
                    continue
                try:
                    roots._require_simple_roots(prod)
                except DegenerateRootsError:
                    continue
                done += 1
                # the planted left factor is within the bound, so a pair exists
                pair = factorize_integer(prod, L1, L2, bound)
                assert_valid_factorization(pair, prod)
                assert any(
                    _bounded(f, bound) and all(x.denominator == 1 for x in (*g.init, *g.rec))
                    for f, g in [(pair.left, pair.right), (pair.right, pair.left)]
                    if f.order == L1
                ), (L1, L2, bound, pair)
                want = oracles.integer_factor_pair(prod, L1, L2, bound)
                if want is not None:
                    answered += 1
                    assert (pair.left, pair.right) == want, (L1, L2, bound, prod)
    # the oracle answers 48 of the 54; its misses are left factors with
    # periodic zero terms
    assert answered >= 40


def _integer(seq, L1, L2):
    return factorize_integer(seq, L1, L2, bound=2)


def _integer_bound_5(seq, L1, L2):
    return factorize_integer(seq, L1, L2, bound=5)


def _no_work(seq):
    raise AssertionError("minimize called before the orders were checked")


@pytest.mark.parametrize("factorize", [factorize_roots, _integer], ids=["roots", "integer"])
class TestFront:
    @pytest.mark.parametrize(
        "seq",
        [
            mul(CFiniteSeq([1, 1], [4, -4]), FIB),
            # (2n + 1) F(n): the roots of z^2 - z - 1, each twice
            CFiniteSeq([0, 3, 5, 14], [2, 1, -2, -1]),
        ],
        ids=["double_root_2", "fib_roots_twice"],
    )
    def test_repeated_roots_refused_before_root_finding(self, factorize, seq, monkeypatch):
        def no_roots(*args):
            raise AssertionError("_split_prime must not run on repeated roots")

        monkeypatch.setattr(factor, "_split_prime", no_roots)
        with pytest.raises(DegenerateRootsError):
            factorize(seq, 2, 2)

    @pytest.mark.parametrize("orders", [(0, 2), (-2, -2)])
    def test_bad_orders_refused_before_any_work(self, factorize, orders, monkeypatch):
        monkeypatch.setattr(roots, "minimize", _no_work)
        with pytest.raises(ValueError, match="orders must be a nonempty list of counts >= 1"):
            factorize(mul(FIB, PELL), *orders)

    def test_order_mismatch_names_both_orders(self, factorize):
        with pytest.raises(OrderMismatchError, match="minimal order 2 != product of orders 4"):
            factorize(FIB, 2, 2)


ZERO_ROOT = (
    "trailing recurrence coefficient is 0, so z = 0 is a characteristic root, "
    "which root-based methods cannot handle; minimizing removes it unless the "
    "sequence has a transient start (e.g. it is eventually 0)"
)


def _past_the_front(*args):
    raise AssertionError("a step past the front ran on a refused input")


@pytest.mark.parametrize(
    "entry",
    [lambda seq, L1, L2: is_prod_g(seq, (L1, L2)), factorize_roots, _integer],
    ids=["is_prod_g", "roots", "integer"],
)
@pytest.mark.parametrize(
    "seq, orders, error, message",
    [
        (mul(FIB, PELL), (0, 2), ValueError, "orders must be a nonempty list of counts >= 1"),
        (mul(FIB, PELL), (2, -1), ValueError, "orders must be a nonempty list of counts >= 1"),
        (FIB, (2, 2), OrderMismatchError, "minimal order 2 != product of orders 4"),
        (mul(FIB, PELL), (1, 2), OrderMismatchError, "minimal order 4 != product of orders 2"),
        (CFiniteSeq([1], [0]), (1, 1), ValueError, ZERO_ROOT),
        # 1, 2, 3, 1, 0, 0, ...: already minimal, z = 0 stays a root
        (CFiniteSeq([1, 2, 3, 1], [0, 0, 0, 0]), (2, 2), ValueError, ZERO_ROOT),
        # not integral: the front refuses z = 0 before factorize_integer's check
        (CFiniteSeq([Fraction(1, 2)], [0]), (1, 1), ValueError, ZERO_ROOT),
    ],
    ids=["zero_order", "negative_order", "mismatch_below", "mismatch_above",
         "zero_root", "zero_root_transient", "zero_root_not_integral"],
)
def test_one_front_refuses_for_every_entry_point(entry, seq, orders, error, message, monkeypatch):
    for module, name in [(roots, "_ratio_quotient"), (factor, "_ratio_quotient"),
                         (factor, "_require_simple_roots"), (factor, "_split_prime"),
                         (factor, "_pair")]:
        monkeypatch.setattr(module, name, _past_the_front)
    with pytest.raises(error) as info:
        entry(seq, *orders)
    assert type(info.value) is error and str(info.value) == message


def _swap_products():
    """`factor` literals of 2 x 3 products: the pair [[1, 1], [2, -2]] x
    [[2, -4, 4], [-1, 1, 3]], then 20 seeded products of small integer
    factors with simple roots."""
    rng = random.Random("swapped-orders")
    out = ["[[2,-4,0,4,24,-64],[-2,-2,-8,-4,-24,-72]]"]
    while len(out) < 21:
        prod = mul(_integer_draw(rng, 2, 3), _integer_draw(rng, 3, 3))
        try:
            roots._require_simple_roots(prod)
        except (ValueError, DegenerateRootsError):
            continue
        if prod.order == 6:
            out.append(format_seq(prod))
    return out


def _rec_gauge(gauge):
    """A gauge of the left recurrence alone, as _normal_form calls it."""
    return lambda a, b: gauge(a.rec)


class TestNormalForm:
    @settings(max_examples=15, deadline=None)
    @given(st.sampled_from([(1, 2), (1, 3), (2, 3)]), st.data())
    def test_swapped_orders_print_the_same_pair(self, orders, data):
        a, b = data.draw(small_factors(orders[0])), data.draw(small_factors(orders[1]))
        prod = mul(a, b)
        assume(prod.order == a.order * b.order)
        try:
            one = factorize_roots(prod, *orders)
        except DegenerateRootsError:
            assume(False)
        two = factorize_roots(prod, *orders[::-1])
        assert (one.left, one.right) == (two.left, two.right)
        assert_primitive_integer(one.left)
        assert_valid_factorization(one, prod)

    @pytest.mark.parametrize(
        "mode", [["--mode", "roots"], ["--mode", "integer", "--bound", "5"]], ids=["roots", "integer"]
    )
    def test_swapped_orders_print_the_same_bytes(self, mode, capsys):
        for prod in _swap_products():
            for flag in ([], ["--json"]):
                runs = []
                for orders in ("2,3", "3,2"):
                    code = main([*flag, "factor", prod, "--orders", orders, *mode])
                    runs.append((code, *capsys.readouterr()))
                assert runs[0] == runs[1], (prod, flag)
                assert runs[0][0] == 0, (prod, flag, runs[0])

    @pytest.mark.parametrize("factorize", [factorize_roots, _integer_bound_5], ids=["roots", "integer"])
    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([(1, 2), (2, 1), (2, 2), (2, 3)]), st.data())
    def test_left_factor_leads_with_a_positive_odd_coefficient(self, factorize, orders, data):
        # the sign rule of the normal form: lambda -> -lambda flips every
        # c_i at odd i, so its first nonzero one is positive if there is one
        a, b = data.draw(small_factors(orders[0])), data.draw(small_factors(orders[1]))
        prod = mul(a, b)
        assume(prod.order == a.order * b.order)
        try:
            pair = factorize(prod, *orders)
        except DegenerateRootsError:
            assume(False)
        assume(pair is not None)
        odd = [c for c in pair.left.rec[0::2] if c]
        assert not odd or odd[0] > 0
        assert_valid_factorization(pair, prod)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["_gauge_scale", "unit", "_integer_gauge"]), st.data())
    def test_argument_order_does_not_matter(self, gauge, data):
        values = st.fractions(-4, 4, max_denominator=3)
        left, right = (
            data.draw(small_factors(data.draw(st.integers(1, 2)), values))
            for _ in range(2)
        )
        if gauge == "_integer_gauge":
            stats = {"candidates": 0, "screened": 0}
            gauge = factor._integer_gauge(left.order, 3, stats)
        elif gauge == "unit":
            gauge = lambda a, b: Fraction(1)
        else:
            gauge = _rec_gauge(getattr(factor, gauge))
        assert factor._normal_form(left, right, gauge) == factor._normal_form(
            right, left, gauge
        )

    # square shapes in which both transposed root grids split the product
    SQUARE_PRODUCTS = [
        ([[5, 5, -4], [0, 0, -5]], [[5, -5, -3], [-4, 0, 3]], 50),
        ([[4, 4], [0, -4]], [[3, 2], [1, 1]], 50),
        ([[-1, -1, -1], [0, -5, -2]], [[4, 2, -2], [3, -4, -4]], 100),
        ([[-2, "3/2", "2/3"], [0, "-3/2", 2]], [["5/2", 0, "5/2"], [5, "4/3", -1]], 50),
        (
            [[-241495, 560698, 834377], [0, 0, 393040]],
            [[949329, 475456, 674053], [236714, -172305, 896167]],
            50,
        ),
        ([["3/2", "-3/2", 1], [0, "-2/3", -4]], [["4/3", -1, 2], ["1/3", -1, -1]], 100),
        ([[112609, 638405], [0, -375719]], [[94629, 630597], [-754593, 481616]], 100),
        ([[4, -2], [0, "-4/3"]], [["-4/3", -3], ["-1/2", "1/2"]], 50),
    ]

    @pytest.mark.parametrize("a, b, digits", SQUARE_PRODUCTS)
    def test_square_shapes_print_the_normal_form(self, a, b, digits):
        a, b = CFiniteSeq(*a), CFiniteSeq(*b)
        pair = factorize_roots(mul(a, b), a.order, a.order, digits)
        want = factor._normal_form(a, b, _rec_gauge(factor._gauge_scale))
        assert (pair.left, pair.right) == want
        assert_primitive_integer(pair.left)

    def test_left_factor_carries_the_gauge(self):
        # rec [0, -1] is the same under lambda = -1, so the smaller initial
        # terms pick the sign: [2, -1] rather than [2, 1]
        prod = mul(CFiniteSeq([4, 4], [0, -4]), CFiniteSeq([3, 2], [1, 1]))
        pair = factorize_roots(prod, 2, 2)
        assert (pair.left, pair.right) == (
            CFiniteSeq([2, -1], [0, -1]),
            CFiniteSeq([6, -8], [-2, 4]),
        )


def test_factor_pair_ordering():
    prod = mul(FIB, PELL)
    pair = factorize_roots(prod, 2, 2)
    assert (pair.left.order, pair.left.rec, pair.left.init) <= (
        pair.right.order,
        pair.right.rec,
        pair.right.init,
    )


def test_gauge_base():
    assert factor._gauge_base(-(1009**2) * 1013) == {1009, 1013}
    # the cofactor left after trial division is below the limit squared
    assert factor._gauge_base(999983 * 999979) == {999979, 999983}
    assert factor._gauge_base(999999000001) == {999999000001}
    # a cofactor above the limit squared joins as its highest root
    assert factor._gauge_base(999999000001**2) == {999999000001}
    assert factor._gauge_base(12 * 1000003**5) == {2, 3, 1000003}
    # whether or not that root is prime
    assert factor._gauge_base(999999000001 * 1000000000039) == {
        999999000001 * 1000000000039
    }
    assert factor._gauge_base(1000003 * 999999000001**2) == {
        1000003 * 999999000001**2
    }
    assert factor._gauge_base(2**89 - 1) == {2**89 - 1}
    assert factor._gauge_base((1000003 * 1000033) ** 3 * 10) == {
        2, 5, 1000003 * 1000033
    }


def test_gauge_divides_a_large_prime_shared_by_the_numerators():
    # p divides both numerators, p^i divides c_i, and p is above the
    # trial-division limit: lambda = 1/p
    p, q1, q2 = 10**9 + 7, 10**9 + 9, 998244353
    assert factor._gauge_scale([Fraction(p * q1), Fraction(p * p * q2)]) == Fraction(1, p)


def test_gauge_splits_a_large_prime_shared_by_two_denominators():
    # P, Q and R are above the trial-division limit, so the gauge base gets
    # P Q and P R (or its square root) whole; their coprime base is P, Q, R,
    # and lambda is P Q R, not P Q * P R
    P, Q, R = 1000003, 1000033, 1000037
    for rec in (
        [Fraction(1, P * Q), Fraction(1, P * R)],
        [Fraction(3, P * Q), Fraction(5, (P * R) ** 2)],
    ):
        assert factor._gauge_scale(rec) == P * Q * R == oracles.gauge_scale(rec)


def test_splits_in_two_gauge_classes():
    # [0, b] and [0, b'] are gauge-equivalent only when b'/b is a rational
    # square, and -11 is not, so m has two splits that no normal form
    # merges; factorize_roots prints the first one _pair certifies
    m = CFiniteSeq([0, -4, 0, -2], [0, 5, 0, -9])
    pairs = [
        (CFiniteSeq([0, 1], [0, -1]), CFiniteSeq([-2, -4], [-1, -3])),
        (CFiniteSeq([0, 1], [0, 11]), CFiniteSeq([10, -4], [-1, Fraction(-3, 11)])),
    ]
    for left, right in pairs:
        assert prove_equal(mul(left, right), m).verified
    pair = factorize_roots(m, 2, 2)
    assert (pair.left, pair.right) in pairs
    assert_valid_factorization(pair, m)


def test_gauge_does_not_trial_divide_a_coprime_numerator(monkeypatch):
    # gcd(c_1, c_2) = 1, so the 10^24 coefficient is never trial-divided
    seen = []
    base = factor._gauge_base
    monkeypatch.setattr(factor, "_gauge_base", lambda n: seen.append(n) or base(n))
    big = 999999000001 * 1000000000039
    assert factor._gauge_scale([Fraction(big), Fraction(1)]) == 1
    assert big not in seen


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.builds(Fraction, st.integers(-(10**4), 10**4), st.integers(1, 10**4)),
        min_size=1,
        max_size=4,
    ).filter(any)
)
def test_gauge_scale_matches_full_factorisation(rec):
    assert factor._gauge_scale(rec) == abs(oracles.gauge_scale(rec))


def test_factorize_integer_checks_integrality_exactly():
    with pytest.raises(ValueError, match="integer sequence"):
        factorize_integer(mul(FIB, CFiniteSeq([1, 1], [Fraction(1, 2), 1])), 2, 2, 1)
    # the orders are checked first
    with pytest.raises(OrderMismatchError):
        factorize_integer(CFiniteSeq([1, 1], [Fraction(1, 2), 1]), 2, 2, 1)


def test_precision_error_is_shared_with_roots():
    assert PrecisionError is roots.PrecisionError
    assert issubclass(PrecisionError, ArithmeticError)


def test_uncertified_roots_raise_precision_error():
    # the width-6 strip splits as 2 x 4 only over a number field: its root
    # grids exist mod p, but no lift reconstructs rational recurrences
    with pytest.raises(PrecisionError, match="failed even at 200 digits"):
        factorize_roots(dimer_seq(6), 2, 4, digits=50)
    # the exact order-2 route never reaches the grid
    prod = mul(FIB, PELL)
    assert_valid_factorization(factorize_roots(prod, 2, 2, digits=50), prod)


def test_failed_proof_is_an_invariant_violation(monkeypatch, capsys):
    # _split's consistent rank-1 solve already proves the split, so a proof
    # that fails afterwards is a bug, not an unresolved grid
    def unverified(s1, s2):
        return guess.ProofCertificate(s1.order + s2.order, 0, "forced failure", False)

    monkeypatch.setattr(guess, "prove_equal", unverified)
    prod = mul(FIB, PELL)
    with pytest.raises(guess.InvariantViolation, match="forced failure"):
        factorize_roots(prod, 2, 2)
    assert main(["factor", format_seq(prod), "--orders", "2,2"]) == 3
    assert "forced failure" in capsys.readouterr().err


@pytest.mark.parametrize(
    "c", [999999000001 * 1000000000039, 10**90 + 7], ids=["1e24", "1e90"]
)
def test_huge_coefficient_product_factors(c):
    # a factor coefficient near 10^24 or 10^90: at 10^90 the roots need the
    # Cauchy bits on top of the doubled working precision
    right = CFiniteSeq([1, 2], [c, 1])
    big = mul(right, FIB)
    pair = factorize_roots(big, 2, 2, digits=50)
    assert (pair.left, pair.right) == (FIB, right)
    assert_valid_factorization(pair, big)


def _grid(seq, L1, L2, digits=50):
    """The root-grid ladder alone, without the exact order-2 route."""
    return factor._grid_ladder(seq, minimize(seq), L1, L2, digits, _rec_gauge(factor._gauge_scale))


def _order_2_products():
    """Seeded 2 x 1, 2 x 2 and 2 x 3 products over several kinds of order-2
    factor, plus the 10^24 product and the probe with roots +-a."""
    rng = random.Random(314159)
    kinds = {
        "integer": lambda: CFiniteSeq(
            [1, rng.randint(-3, 3)], [rng.randint(-3, 3), rng.choice([-2, -1, 1, 3])]
        ),
        "rational": lambda: _random_factor(rng, 2),
        "pm": lambda: CFiniteSeq([1, rng.choice([-1, 1])], [0, rng.choice([-3, 1, 2])]),
        # root ratios that are 3rd, 4th and 6th roots of unity: t = -1, 0, 1
        "t=-1": lambda: CFiniteSeq([1, 2], [1, -1]),
        "t=0": lambda: CFiniteSeq([1, 3], [2, -2]),
        "t=1": lambda: CFiniteSeq([2, 1], [3, -3]),
    }
    cases = []
    for name, draw in kinds.items():
        for order in (1, 2, 3):
            for _ in range(2):
                while True:
                    a, b = draw(), _random_factor(rng, order)
                    prod = mul(a, b)
                    if prod.order != 2 * order:
                        continue
                    try:
                        roots._require_simple_roots(prod)
                    except (ValueError, DegenerateRootsError):
                        continue
                    break
                cases.append(pytest.param(prod, 2, order, id=f"{name}-2x{order}-{len(cases)}"))
    big = mul(CFiniteSeq([1, 2], [999999000001 * 1000000000039, 1]), FIB)
    pm = CFiniteSeq([2, -1, 0, -6, 18, -27], [0, 7, 0, -3, 0, 9])
    return cases + [pytest.param(big, 2, 2, id="1e24"), pytest.param(pm, 2, 3, id="probe_pm")]


@pytest.mark.parametrize("seq, L1, L2", _order_2_products())
def test_exact_order_2_route_matches_the_grid(seq, L1, L2):
    pair, grid = factorize_roots(seq, L1, L2, digits=50), _grid(seq, L1, L2)
    assert str(pair) == str(grid)
    assert_valid_factorization(pair, seq)
    # the orders in either argument order
    assert str(factorize_roots(seq, L2, L1, digits=50)) == str(grid)


def test_exact_order_2_route_needs_no_roots(monkeypatch):
    def no_roots(*args):
        raise AssertionError("the exact order-2 route must not find roots")

    monkeypatch.setattr(factor, "_split_prime", no_roots)
    left, right = CFiniteSeq([1, 2], [1, 1]), CFiniteSeq([2, 0, 1], [0, 1, 1])
    for prod, L1, L2 in [(mul(FIB, PELL), 2, 2), (mul(left, right), 2, 3)]:
        pair = factorize_roots(prod, L1, L2)
        assert_valid_factorization(pair, prod)


@pytest.mark.parametrize("L1", range(1, 5))
@pytest.mark.parametrize("L2", range(1, 5))
def test_fixed_point_counts_match_every_permutation_pair(L1, L2):
    assert factor._fixed_point_counts(L1, L2) == oracles.grid_fixed_point_counts(L1, L2)


@pytest.mark.parametrize("digits", [0, -5])
def test_digits_below_one_rejected(digits):
    with pytest.raises(ValueError, match="digits must be >= 1"):
        factorize_roots(mul(FIB, PELL), 2, 2, digits)


def test_width_4_strip_has_no_rational_split():
    # 1, 5, 11, 36, ...: Frobenius fixes a number of its roots at the
    # first good prime that no pair of permutations of a 2 x 2 grid fixes
    assert factorize_roots(CFiniteSeq([1, 5, 11, 36], [1, 5, 1, -1]), 2, 2) is None


def _random_minimal(rng, order):
    """A seeded random integer sequence of minimal order `order`, simple roots."""
    while True:
        seq = CFiniteSeq(
            [rng.randint(-5, 5) for _ in range(order)],
            [rng.randint(-5, 5) for _ in range(order - 1)] + [rng.choice([-2, -1, 1, 3])],
        )
        if minimize(seq).order == order:
            try:
                roots._require_simple_roots(seq)
            except DegenerateRootsError:
                continue
            return seq


@pytest.mark.parametrize("L", [3, 4])
def test_random_non_products_are_refuted_promptly(L):
    rng = random.Random(f"non-product-{L}x{L}")
    for _ in range(5):
        seq = _random_minimal(rng, L * L)
        t0 = time.monotonic()
        assert factorize_roots(seq, L, L) is None
        assert time.monotonic() - t0 < 1


def test_4x4_product_factors():
    rng = random.Random("product-4x4")
    a, b = _random_minimal(rng, 4), _random_minimal(rng, 4)
    prod = mul(a, b)
    assert prod.order == 16
    t0 = time.monotonic()
    pair = factorize_roots(prod, 4, 4)
    assert time.monotonic() - t0 < 60
    assert_valid_factorization(pair, prod)


def test_width_8_strip_has_a_fibonacci_factor():
    # count(8, n + 1) = F(n + 2) b(n), b of order 8
    t0 = time.monotonic()
    pair = factorize_roots(dimer_seq(8), 2, 8)
    assert time.monotonic() - t0 < 30
    assert pair.left == CFiniteSeq([1, 2], [1, 1])
    assert_valid_factorization(pair, dimer_seq(8))


# Seeded 2x2, 2x3 and 3x3 products of integer factors (data in [-5, 5],
# c_L in {-2, -1, 1, 3}), with the pair both factorisers print for each;
# the 2x2 and 2x3 ones go through the exact order-2 route, whose candidates
# come in the order of the folded ratio polynomial's roots, so a reordering
# of those roots shows here.
NORMAL_FORM_SWEEP = [
    (2, 2, "[[0, -8, 200, -2912], [-15, -35, 90, -36]]",
     "[[1, -1], [3, -2]]", "[[0, 8], [-5, 3]]"),
    (2, 2, "[[-6, 3, -24, -33], [0, -7, 0, -1]]",
     "[[2, -1], [0, -1]]", "[[-3, -3], [-3, -1]]"),
    (2, 2, "[[20, 10, -240, 5313], [-20, 43, -20, -1]]",
     "[[4, -5], [4, 1]]", "[[5, -2], [-5, 1]]"),
    (2, 2, "[[16, -10, 36, -660], [6, 57, 54, -81]]",
     "[[4, -5], [2, 3]]", "[[4, 2], [3, 3]]"),
    (2, 3, "[[-20, 15, 38, 1364, 18655, 289756], [12, 49, 0, -53, 9, 1]]",
     "[[4, 5], [3, 1]]", "[[-5, 3, 2], [4, 3, -1]]"),
    (2, 3, "[[0, -9, -44, -30, 323, 1539], [3, -12, -3, 38, 24, -72]]",
     "[[4, -3], [1, -2]]", "[[0, 3, 4], [3, -2, 3]]"),
    (2, 3, "[[6, 12, 90, -2162, 50264, -1076950], [-20, 43, 260, -217, -10, 4]]",
     "[[1, -2], [5, 1]]", "[[6, -6, -10], [-4, 1, 2]]"),
    (2, 3, "[[10, -9, 10, -196, 0, 492], [0, 0, -4, -36, -24, -8]]",
     "[[2, -3], [2, -2]]", "[[5, 3, -1], [0, 3, 1]]"),
    (3, 3, "[[12, -10, 5, -126, -1044, -11662, -147112, -1777620, -21531180], "
     "[10, 18, 102, -136, 448, 432, 96, 128, 64]]",
     "[[3, 5, -1], [2, 2, 2]]", "[[4, -2, -5], [5, -4, 2]]"),
    (3, 3, "[[0, -6, 4, -95, -92, -91, -960, 2688, -867], [2, 3, -4, -35, 65, -93, 56, -36, 8]]",
     "[[0, 2, 1], [1, -3, 2]]", "[[2, -3, 4], [2, -3, 1]]"),
    (3, 3, "[[9, -4, 0, -203, 4082, -13440, -237456, 2876809, -6676390], "
     "[-10, -95, -234, -715, 3290, -4673, 3570, -900, -216]]",
     "[[3, 1, 2], [2, -5, -2]]", "[[3, -4, 0], [-5, -5, 3]]"),
    (3, 3, "[[-2, -2, 4, 4, -126, 190, 2640, -16224, -19190], "
     "[-2, -22, 65, 32, 48, -415, 186, 54, 27]]",
     "[[1, 1, 2], [1, -3, -1]]", "[[-2, -2, 2], [-2, 2, -3]]"),
]


def test_normal_form_sweep_has_both_signs_of_c():
    signs = {_integral_rec(parse_seq(prod).rec)[-1] < 0 for _, _, prod, *_ in NORMAL_FORM_SWEEP}
    assert signs == {True, False}


@pytest.mark.parametrize("L1, L2, prod, left, right", NORMAL_FORM_SWEEP)
@pytest.mark.parametrize("factorize", [factorize_roots, _integer_bound_5], ids=["roots", "integer"])
def test_normal_form_sweep_prints_the_pinned_pairs(factorize, L1, L2, prod, left, right):
    pair = factorize(parse_seq(prod), L1, L2)
    assert (str(pair.left), str(pair.right)) == (left, right)
    assert pair.certificate.verified
