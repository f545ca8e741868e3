import math
import random
from fractions import Fraction
from itertools import count, islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfinite import dimers, guess, roots
from cfinite.core import CFiniteSeq, Polynomial, _clear_denominators, _shiftmod, eval_terms
from cfinite.guess import GuessConfig, InvariantViolation, guess_rec
from cfinite.dimers import (
    dimer_product_report,
    dimer_seq,
    dimer_terms,
    _chebyshev_q,
    _norm,
    kasteleyn_count,
)

import oracles


class TestDimerTerms:
    def test_width_two_is_shifted_fibonacci(self):
        assert dimer_terms(2, 8) == [1, 2, 3, 5, 8, 13, 21, 34]

    def test_width_one(self):
        # a 1 x n strip tiles iff n is even; terms run over n = 1..N
        assert dimer_terms(1, 6) == [0, 1, 0, 1, 0, 1]

    def test_against_exhaustive_backtracking(self):
        """The strip counts equal raw enumeration for all m*n <= 16."""
        for m in range(1, 5):
            counts = dimer_terms(m, 16 // m)
            for n in range(1, 16 // m + 1):
                assert counts[n - 1] == oracles.count_tilings(m, n), (m, n)

    def test_four_by_four_is_36(self):
        assert dimer_terms(4, 4)[3] == 36
        assert oracles.count_tilings(4, 4) == 36

    def test_weighted_against_exhaustive(self):
        # package convention: h weights dominoes lying across the width,
        # v weights dominoes lying along the strip; the oracle grid has m
        # rows, so its horizontal/vertical labels are swapped
        h, v = Fraction(2, 3), Fraction(5, 7)
        for m in (2, 3):
            counts = dimer_terms(m, 5, weights=(h, v))
            for n in range(1, 6):
                assert counts[n - 1] == oracles.weighted_tilings(m, n, v, h), (m, n)

    def test_integer_weights_against_exhaustive(self):
        # integral weights clear to d = 1; the oracle swaps h and v
        for h, v in [(2, 3), (3, 1), (-2, 5)]:
            for m in (2, 3, 4):
                counts = dimer_terms(m, 12 // m, weights=(h, v))
                for n in range(1, 12 // m + 1):
                    expected = oracles.weighted_tilings(m, n, v, h)
                    assert counts[n - 1] == expected, (h, v, m, n)
                    assert type(counts[n - 1]) is Fraction

    def test_vertical_only_weights(self):
        # v = 0 kills dominoes lying along the strip; width 2 then has
        # exactly one tiling per length (a stack of across-width dominoes)
        assert dimer_terms(2, 5, weights=(1, 0)) == [1, 1, 1, 1, 1]
        # h = 0 similarly forces even lengths
        assert dimer_terms(2, 5, weights=(0, 1)) == [0, 1, 0, 1, 0]

    def test_needs_a_positive_length(self):
        for N in (0, -3):
            with pytest.raises(ValueError, match="N must be >= 1"):
                dimer_terms(2, N)

    def test_symmetry_m_n(self):
        # counting is symmetric in the two grid dimensions
        for m, n in [(2, 7), (3, 4), (4, 3)]:
            assert dimer_terms(m, n)[n - 1] == dimer_terms(n, m)[m - 1]

    @pytest.mark.parametrize("weights", [(0, Fraction(5, 7)), (Fraction(2, 3), 0), (0, 0)])
    @pytest.mark.parametrize("m", range(1, 9))
    def test_zero_weights_against_exhaustive(self, m, weights):
        # zero weights zero H or V in the stepped norms; the oracle swaps h and v
        h, v = weights
        N = max(1, 16 // m)
        counts = dimer_terms(m, N, weights)
        for n in range(1, N + 1):
            assert counts[n - 1] == oracles.weighted_tilings(m, n, v, h), (m, n)

    def test_width_validated(self):
        with pytest.raises(ValueError):
            dimer_terms(0, 3)
        with pytest.raises(ValueError):
            dimer_terms(11, 3)  # above the practical limit


def dense_transfer_matrix(m, weights=(1, 1)):
    """The 2^m x 2^m transfer matrix, built from the oracles' transition list."""
    h, v = (Fraction(w) for w in weights)
    rows = [[Fraction(0)] * (1 << m) for _ in range(1 << m)]
    for s, row in enumerate(oracles.transfer_transitions(m)):
        for t, nh, nv in row:
            rows[s][t] += h**nh * v**nv
    return rows


class TestTransferMatrix:
    def test_width_two_matrix_size(self):
        rows = dense_transfer_matrix(2)
        assert len(rows) == 4
        assert all(len(row) == 4 for row in rows)

    def test_entries_nonnegative_integers(self):
        rows = dense_transfer_matrix(3)
        assert all(v >= 0 and v.denominator == 1 for row in rows for v in row)

    def test_transitions_only_between_disjoint_states(self):
        # a cell covered by a protruding domino cannot start a new one
        for m in range(1, 9):
            rows = dense_transfer_matrix(m)
            for s, row in enumerate(rows):
                for t, x in enumerate(row):
                    assert x == 0 or s & t == 0, (m, s, t)

    def test_each_transition_once(self):
        for m in range(1, 9):
            groups = oracles.transfer_transitions(m)
            assert len(groups) == 1 << m
            pairs = [(s, t) for s, row in enumerate(groups) for t, _, _ in row]
            assert len(pairs) == len(set(pairs)), m
        assert sum(map(len, oracles.transfer_transitions(8))) == 985

    def test_dense_powers_match_terms(self):
        # e_0^T M^n [0] with the dense matrix equals the grouped iteration
        # of the oracles and the norms of the package
        for m, weights in [(3, (Fraction(2, 3), Fraction(5, 7))), (4, (3, 2))]:
            rows = dense_transfer_matrix(m, weights)
            vec = rows[0]
            direct = [vec[0]]
            for _ in range(7):
                vec = [
                    sum(vec[s] * rows[s][t] for s in range(len(rows)))
                    for t in range(len(rows))
                ]
                direct.append(vec[0])
            assert oracles.transfer_matrix_counts(m, 8, *weights) == direct, (m, weights)
            assert dimer_terms(m, 8, weights) == direct, (m, weights)


def strip_terms(m, N, weights=(1, 1)):
    """The first N terms of the sequence dimer_seq(m, weights) recurs, from
    the transfer matrix of the oracles."""
    if m % 2 == 0:
        return oracles.transfer_matrix_counts(m, N, *weights)
    return oracles.transfer_matrix_counts(m, 2 * N, *weights)[1::2]


def guessed_at_matrix_size(m, weights):
    """The strip recurrence fitted by guess_rec at the transfer-matrix size
    2^m, from the oracles' exact terms."""
    bound = 1 << m
    return guess_rec(strip_terms(m, 2 * bound + guess.SAFETY_TERMS, weights), GuessConfig(bound))


small_fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))


def norm_window(m):
    """The lengths up to which dimer_terms takes one norm per term: as many
    as dimer_seq takes norms, 2 * 2^(m // 2) + SAFETY_TERMS, at even
    lengths only for odd m."""
    return ((2 << m // 2) + guess.SAFETY_TERMS) << m % 2


class TestTermsAgainstTransferMatrix:
    """dimer_terms takes one norm per term up to the norm window and steps
    dimer_seq's constructed recurrence past it; both sides against the
    oracles' matrix."""

    @settings(max_examples=80, deadline=None)
    @given(st.data(), st.integers(1, 8), small_fractions, small_fractions)
    def test_random_weights_and_lengths(self, data, m, h, v):
        # odd widths also exercise the factor V^(n/2) of the norms
        N = data.draw(st.integers(1, 3 * norm_window(m)))
        assert dimer_terms(m, N, (h, v)) == oracles.transfer_matrix_counts(m, N, h, v)

    @pytest.mark.parametrize(
        "weights", [(-1, 1), (1, -1), (-2, -3), (Fraction(-1, 2), Fraction(-4, 3)), (0, -1), (-1, 0), (0, 0)]
    )
    def test_signed_and_zero_weights(self, weights):
        # signed weights give signed norms, and zero weights zero H or V;
        # past the window dimer_terms steps the constructed recurrence
        for m in range(1, 9):
            step, N = 1 + m % 2, norm_window(m) + 3
            want = oracles.transfer_matrix_counts(m, N, *weights)
            assert dimer_terms(m, N, weights) == want, m
            assert eval_terms(dimer_seq(m, weights), N // step) == want[step - 1 :: step], m

    @pytest.mark.parametrize("m", range(1, 11))
    def test_both_sides_of_the_window(self, m):
        h, v = Fraction(2, 3), Fraction(-5, 7)
        N = norm_window(m) + 2
        want = oracles.transfer_matrix_counts(m, N, h, v)
        for n in (N - 3, N - 2, N - 1, N):
            assert dimer_terms(m, n, (h, v)) == want[:n], (m, n)

    @pytest.mark.parametrize("m", [1, 3, 5, 7, 9])
    def test_odd_width_odd_length_ends_in_zero(self, m):
        # the interleave puts a Fraction 0 at every odd length of an odd
        # width, below the norm window and past it
        for N in (norm_window(m) - 1, norm_window(m) + 3):
            *_, last, end = dimer_terms(m, N, (Fraction(2, 3), -1))
            assert N % 2 and last != 0 and end == 0 and type(end) is Fraction, (m, N)


class TestDimerSeq:
    def test_width_two_recurrence(self):
        assert dimer_seq(2) == CFiniteSeq([1, 2], [1, 1])

    def test_width_three_even_lengths(self):
        # odd widths need even length; the sequence is over n -> count(m, 2n+2)
        s = dimer_seq(3)
        assert s == CFiniteSeq([3, 11], [4, -1])
        assert eval_terms(s, 4) == [3, 11, 41, 153]

    def test_width_four_order(self):
        s = dimer_seq(4)
        assert s.order == 4
        assert eval_terms(s, 5) == [1, 5, 11, 36, 95]

    def test_seq_matches_terms_even_widths(self):
        for m in (2, 4):
            s = dimer_seq(m)
            assert eval_terms(s, 10) == dimer_terms(m, 10)

    def test_seq_matches_terms_odd_width(self):
        # odd widths track even strip lengths: a(n) = count(m, 2n+2)
        s = dimer_seq(5)
        direct = dimer_terms(5, 12)
        assert eval_terms(s, 6) == [direct[2 * k + 1] for k in range(6)]

    @pytest.mark.parametrize("m", [-1, 0, 11])
    def test_width_validated(self, m):
        with pytest.raises(ValueError, match="width must be between 1 and 10"):
            dimer_seq(m)

    def test_width_six_minimal_order_8(self):
        assert dimer_seq(6).order == 8

    def test_width_seven_minimal_order_8(self):
        s = dimer_seq(7)
        assert s.order == 8
        direct = dimer_terms(7, 40)
        assert eval_terms(s, 20) == [direct[2 * k + 1] for k in range(20)]

    def test_width_eight_minimal_order_16(self):
        s = dimer_seq(8)
        assert s.order == 16
        assert eval_terms(s, 40) == dimer_terms(8, 40)

    @pytest.mark.parametrize("m, order", [(9, 16), (10, 32)])
    def test_widths_nine_and_ten(self, m, order):
        s = dimer_seq(m)
        assert s.order == order
        assert eval_terms(s, 40) == strip_terms(m, 40)

    @pytest.mark.parametrize(
        "m, weights",
        [(m, (1, 1)) for m in range(1, 11)]
        + [(m, (Fraction(2, 3), Fraction(5, 7))) for m in range(1, 9)],
    )
    def test_certified_without_kasteleyn(self, m, weights):
        # the strip terms have order <= 2^m (transfer matrix) and the guess
        # order <= 2^(m // 2), so agreeing on the sum of the two bounds
        # proves the recurrence from the transfer matrix alone
        N = (1 << m) + (1 << (m // 2))
        s = dimer_seq(m, weights)
        assert s.order <= 1 << (m // 2)
        assert eval_terms(s, N) == strip_terms(m, N, weights)

    @pytest.mark.parametrize("m", range(1, 9))
    @pytest.mark.parametrize(
        "weights",
        [(1, 1), (Fraction(2, 3), Fraction(5, 7)), (3, 1), (0, 1), (1, 0), (0, 0), (-2, 5)],
    )
    def test_same_as_transfer_matrix_bound(self, m, weights):
        assert dimer_seq(m, weights) == guessed_at_matrix_size(m, weights)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 6), small_fractions, small_fractions)
    def test_same_as_transfer_matrix_bound_random_weights(self, m, h, v):
        assert dimer_seq(m, (h, v)) == guessed_at_matrix_size(m, (h, v))

    @pytest.mark.parametrize("m", [9, 10])
    @pytest.mark.parametrize("weights", [(1, 1), (Fraction(2, 3), Fraction(5, 7))])
    def test_same_as_the_fit_of_the_norms(self, m, weights):
        # up to the norm window dimer_terms builds no recurrence, so guess_rec
        # at the bound 2^(m // 2) fits its terms independently
        bound = 1 << m // 2
        norms = dimer_terms(m, norm_window(m), weights)[m % 2 :: 1 + m % 2]
        assert len(norms) == 2 * bound + guess.SAFETY_TERMS
        assert dimer_seq(m, weights) == guess_rec(norms, GuessConfig(bound))

    @pytest.mark.parametrize("m", [3, 4, 7, 8])
    @pytest.mark.parametrize("start", [2, 1], ids=["first_power_sum", "first_count_past_order"])
    def test_rejects_an_off_by_one_norm(self, monkeypatch, m, start):
        # the recurrence built from the power sums is checked on the counts
        # past its order, so one norm off by one, of either, fails it, in
        # dimer_seq and in dimer_terms past its window, which steps it; at
        # unit weights every scale is 1, so the count or power sum is off by
        # one too
        at = 0 if start == 2 else 1 << m // 2  # its step
        norms, _ = tallied_norms(monkeypatch, at, "L" if start == 2 else "G")
        with pytest.raises(InvariantViolation, match=f"width-{m} strip counts"):
            dimer_seq(m)
        assert norms["bumped"] == 1
        with pytest.raises(InvariantViolation, match=f"width-{m} strip counts"):
            dimer_terms(m, norm_window(m) + 1)
        assert norms["bumped"] == 2

    @pytest.mark.parametrize("m", [1, 2, 5, 8])
    @pytest.mark.parametrize("safety", [guess.SAFETY_TERMS, 6])
    def test_takes_bound_power_sums_and_bound_plus_safety_counts(self, monkeypatch, m, safety):
        # B power sums and B + SAFETY_TERMS counts, whatever the margin, off
        # one pass of B + SAFETY_TERMS steps; odd widths are read at even
        # lengths only, and the steps skip the odd ones
        want = dimer_seq(m)
        monkeypatch.setattr(guess, "SAFETY_TERMS", safety)
        norms, steps = tallied_norms(monkeypatch)
        assert dimer_seq(m) == want
        bound = 1 << m // 2
        assert steps == [bound + safety]
        assert norms == {"G": bound + safety, "L": bound, "bumped": 0}

    @pytest.mark.parametrize("m", range(1, 11))
    @pytest.mark.parametrize(
        "weights",
        [(1, 1), (-1, 1), (2, -3), (0, 1), (1, 0), (0, 0), (Fraction(2, 3), Fraction(-5, 7))],
    )
    def test_one_pass_gives_the_two_pass_norms(self, m, weights):
        # the Lucas norms of the one pass, L_n = G_n + V^2 G_(n-2), are the
        # norms of the same steps started at G_0 = 2, and its count norms
        # those started at 1, at each length the strip sequence reads
        step, N = 1 + m % 2, (1 << m // 2) + 8
        e, q, steps = dimers._strip_steps(m, weights)
        d, counts = two_pass_norms(m, weights, 1)
        _, sums = two_pass_norms(m, weights, 2)
        assert e == d ** (m * step // 2)
        got = [(s * _norm(q, G), s * _norm(q, L)) for s, G, L in islice(steps, N)]
        want = zip(islice(counts, step - 1, None, step), islice(sums, step - 1, None, step))
        assert got == list(islice(want, N))


def two_pass_norms(m, weights, g0):
    """(d, norms): the reference stepping of the strip counts, one pass per
    start.  norms yields d^(m n/2) count(m, n) for n = 1, 2, ... at G_0 = 1,
    0 at the odd-area lengths of odd widths, and the power sums at G_0 = 2:
    G_1 = H, G_n = H Y G_(n-1) + V^2 G_(n-2) at even n and
    H G_(n-1) + V^2 G_(n-2) at odd n, normed in Z[Y]/Q'_m, times V^(n/2) for
    odd m."""
    d, (H, V) = _clear_denominators([Fraction(x) for x in weights])
    w, _, _ = dimers._algebra(m)
    k = len(w)

    def norms():
        prev, g = [g0] + [0] * (k - 1), [H] + [0] * (k - 1)
        for n in count(1):
            if m % 2 == 0:
                yield _norm(w, g)
            else:
                yield V ** (n // 2) * _norm(w, g) if n % 2 == 0 else 0
            y = _shiftmod(g, w) if n % 2 and k else g
            prev, g = g, [H * a + V * V * b for a, b in zip(y, prev)]

    return d, norms()


class Element(list):
    """A step element of Z[Y]/Q'_m tagged with its kind, count ("G") or
    Lucas ("L"), and whether tallied_norms takes its norm off by one."""

    def __init__(self, r, kind, bump):
        super().__init__(r)
        self.kind, self.bump = kind, bump


def tallied_norms(monkeypatch, at=None, kind=None):
    """Wrap dimers._strip_steps and dimers._norm, so that the norm of the
    element of the given kind at step `at` comes out one too large.
    Returns ({"G", "L", "bumped"}: norms taken, [steps drawn per pass])."""
    real_steps, real_norm = dimers._strip_steps, dimers._norm
    norms, drawn = {"G": 0, "L": 0, "bumped": 0}, []

    def steps(m, weights):
        e, q, inner = real_steps(m, weights)

        def tallied():
            drawn.append(0)
            for i, (s, G, L) in enumerate(inner):
                drawn[-1] += 1
                yield s, Element(G, "G", (i, "G") == (at, kind)), Element(L, "L", (i, "L") == (at, kind))

        return e, q, tallied()

    def norm(w, r):
        norms[r.kind] += 1
        norms["bumped"] += r.bump
        return real_norm(w, r) + r.bump

    monkeypatch.setattr(dimers, "_strip_steps", steps)
    monkeypatch.setattr(dimers, "_norm", norm)
    return norms, drawn


class TestKasteleyn:
    def test_four_by_four(self):
        assert kasteleyn_count(4, 4) == 36

    def test_matches_transfer_matrix(self):
        # widths 8-10 are test_strips_up_to_height_32
        for m in range(1, 8):
            counts = oracles.transfer_matrix_counts(m, 32)
            for n in range(1, 33):
                if (m * n) % 2:
                    continue
                assert kasteleyn_count(m, n) == counts[n - 1], (m, n)

    @pytest.mark.parametrize("m, n", [(2, 2.0), (2.0, 2), (Fraction(2), 2), (2, Fraction(2))])
    def test_non_int_sides_raise_type_error_cold_and_warm(self, m, n):
        # the per-width cache must not answer a float or Fraction side from
        # the entry of the int equal to it
        dimers._algebra.cache_clear()
        with pytest.raises(TypeError):
            kasteleyn_count(m, n)
        assert kasteleyn_count(2, 2) == 2
        with pytest.raises(TypeError):
            kasteleyn_count(m, n)

    def test_cached_records_are_tuples_of_ints(self):
        # every caller shares one record per integer, so none may mutate it
        def immutable(x):
            return isinstance(x, int) or isinstance(x, tuple) and all(map(immutable, x))

        for k in range(1, 33):
            assert isinstance(dimers._algebra(k), tuple) and immutable(dimers._algebra(k)), k

    def test_against_the_horner_resultant_in_two_call_orders(self):
        # |Res(Q_m(y), Q_n(-y))| with Q_m itself as the modulus (the root 0
        # kept for odd m) and Horner's reduction, on every even-area grid up
        # to 32 x 32; the second, reversed order starts from a cold cache
        pairs = [(m, n) for m in range(1, 33) for n in range(1, 33) if m * n % 2 == 0]
        assert len(pairs) == 768
        want = {
            (m, n): abs(resultant(
                oracles.chebyshev_q(m),
                [c * (-1) ** i for i, c in enumerate(oracles.chebyshev_q(n))],
            ))
            for m, n in pairs
        }
        for order in (pairs, pairs[::-1]):
            dimers._algebra.cache_clear()
            assert {(m, n): kasteleyn_count(m, n) for m, n in order} == want

    def test_odd_area_rejected(self):
        with pytest.raises(ValueError, match="m \\* n must be even"):
            kasteleyn_count(3, 3)

    @pytest.mark.parametrize("m, n", [(-1, 2), (0, 5), (2, 0), (0, 0), (4, -2), (-1, 3)])
    def test_sides_below_one_rejected(self, m, n):
        with pytest.raises(ValueError, match="grid sides must be >= 1"):
            kasteleyn_count(m, n)

    @pytest.mark.parametrize("m, n", [(33, 2), (2, 34)])
    def test_sides_above_32_rejected(self, m, n):
        with pytest.raises(ValueError, match="grid sides limited to 32"):
            kasteleyn_count(m, n)

    def test_large_known_value(self):
        # the 8 x 8 chessboard has 12988816 domino tilings
        assert kasteleyn_count(8, 8) == 12988816

    def test_square_diagonal_oeis_a004003(self):
        assert [kasteleyn_count(k, k) for k in range(2, 15, 2)] == [
            2,
            36,
            6728,
            12988816,
            258584046368,
            53060477521960000,
            112202208776036178000000,
        ]

    @pytest.mark.parametrize("m, n", [(16, 16), (31, 32), (32, 32)])
    def test_against_floating_point_product(self, m, n):
        assert kasteleyn_count(m, n) == oracles.kasteleyn_product(m, n)

    def test_closed_form_chebyshev_factors(self):
        for k in range(33):
            assert _chebyshev_q(k) == oracles.chebyshev_q(k), k

    def test_symmetric_in_the_two_sides(self):
        # the two orders take Q_m and Q_n as the modulus in turn
        for m in range(1, 33):
            for n in range(1, 33):
                if m * n % 2 == 0:
                    assert kasteleyn_count(m, n) == kasteleyn_count(n, m), (m, n)

    def test_strips_up_to_height_32(self):
        # the closed form of Kasteleyn (1961) and Temperley-Fisher (1961)
        # against the transfer matrix, up to the width limit of 10
        for m in (8, 9, 10):
            counts = oracles.transfer_matrix_counts(m, 32)
            for n in range(1, 33):
                if m * n % 2 == 0:
                    assert kasteleyn_count(m, n) == counts[n - 1], (m, n)


def int_polys(low, high):
    """Integer coefficient lists, ascending, of degree low..high."""
    lists = st.lists(st.integers(-9, 9), min_size=low + 1, max_size=high + 1)
    return lists.filter(lambda c: c[-1] != 0)


def monic_polys(low, high):
    """Monic integer coefficient lists, ascending, of degree low..high."""
    return st.lists(st.integers(-9, 9), min_size=low, max_size=high).map(lambda c: c + [1])


def resultant(f, g):
    """Res(f, g), f monic of degree >= 1: the norm of g reduced mod f by
    Horner.  Fed Q_m and Q_n(-y) it is an oracle for kasteleyn_count, which
    reduces +-Q_n(-y) mod Q'_m instead (Q_m with its root 0 divided out for
    odd m, where n is even and Q_n(0) = +-1 changes no absolute value), by
    dot products with the cached per-width record dimers._algebra, which
    holds no counts."""
    w = [-c for c in reversed(f[:-1])]
    r = [0] * len(w)
    for c in reversed(g):
        r = _shiftmod(r, w)
        r[0] += c
    return _norm(w, r)


class TestResultant:
    """The norm after a Horner reduction against the Sylvester determinant
    of the oracles."""

    @settings(max_examples=150, deadline=None)
    @given(monic_polys(1, 6), int_polys(1, 6))
    def test_against_sylvester(self, f, g):
        assert resultant(f, g) == oracles.sylvester_resultant(f, g)

    @settings(max_examples=100, deadline=None)
    @given(monic_polys(1, 3), monic_polys(0, 3), int_polys(0, 3))
    def test_shared_root_gives_zero(self, h, u, v):
        # a planted monic common factor of degree 1..3, both products of degree <= 6
        f, g = Polynomial(h) * Polynomial(u), Polynomial(h) * Polynomial(v)
        assert oracles.sylvester_resultant(f.coeffs, g.coeffs) == 0
        assert resultant([int(c) for c in f.coeffs], [int(c) for c in g.coeffs]) == 0

    def test_against_sylvester_up_to_degree_16(self):
        # moduli of degree 1..16, those of kasteleyn_count's widths <= 32; a
        # multiple of y below the modulus's degree is its own reduction, with
        # leading coordinate 0, so the first column's pivot needs a row swap;
        # dense reductions at the two largest degrees
        rng = random.Random(32)
        for k in range(1, 17):
            f = [rng.randint(-9, 9) for _ in range(k)] + [1]
            cases = [[0] + [rng.randint(-9, 9) for _ in range(min(2, max(k - 2, 0)))] + [1]]
            if k in (12, 16):
                cases.append([rng.randint(-9, 9) for _ in range(k - 1)] + [rng.choice([-1, 1])])
            for g in cases:
                assert resultant(f, g) == oracles.sylvester_resultant(f, g), (f, g)

    def test_planted_common_roots_up_to_degree_16_give_zero(self):
        rng = random.Random(17)
        for k in range(2, 17):
            h = [rng.randint(-9, 9) for _ in range(rng.randint(1, min(k, 4)))] + [1]
            u = [rng.randint(-9, 9) for _ in range(k - len(h) + 1)] + [1]
            v = [rng.randint(-9, 9) for _ in range(rng.randint(0, 4))] + [1]
            f, g = Polynomial(h) * Polynomial(u), Polynomial(h) * Polynomial(v)
            assert len(f.coeffs) == k + 1
            assert resultant([int(c) for c in f.coeffs], [int(c) for c in g.coeffs]) == 0, (h, u, v)


def kasteleyn_factor_product(m, weights, N):
    """The first N terms of the geometric factor times the product of the
    floor(m/2) order-2 factors h_j of recurrence [h 2cos(j pi/(m+1)), v^2],
    h_0 = 1, as floats: n -> prod_j h_j(n+1) for even m and
    n -> v^(n+1) prod_j h_j(2n+2) for odd m."""
    h, v = map(float, weights)
    step = 1 + m % 2
    terms = [v ** (n + 1) if m % 2 else 1.0 for n in range(N)]
    for j in range(1, m // 2 + 1):
        a = h * 2 * math.cos(j * math.pi / (m + 1))
        seq = [1.0, a]
        while len(seq) <= step * N:
            seq.append(a * seq[-1] + v * v * seq[-2])
        terms = [t * seq[step * (n + 1)] for n, t in enumerate(terms)]
    return terms


def sign_weights(rng):
    """Fixed weight pairs with negative values, h = 0 and v = 0, and two
    seeded signed rational pairs."""
    drawn = [
        tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in "hv")
        for _ in range(2)
    ]
    return [(1, 1), (-1, 1), (1, -1), (0, 1), (1, 0), (Fraction(-2, 3), Fraction(5, 7))] + drawn


class TestProductReport:
    def test_width_four_yes(self):
        report = dimer_product_report(4)
        assert report.applicable
        assert report.factor_orders == (2, 2)
        assert report.verdict.is_product
        assert report.verdict == ((2, 2), "Q(2cos(pi/5))")
        assert report.note == "Kasteleyn's product"

    def test_width_six_yes_via_coarsening(self):
        report = dimer_product_report(6)
        assert report.applicable
        assert report.factor_orders == (2, 2, 2)
        assert report.verdict.is_product
        # width 6 has +1 and -1 among its characteristic roots, so the
        # product test's observed profile is a strict coarsening of the
        # generic one
        verdict = roots.is_prod_g(report.seq, (2, 2, 2))
        assert verdict.is_product
        assert verdict.note != ""

    def test_width_eight_yes(self):
        report = dimer_product_report(8)
        assert report.applicable
        assert report.factor_orders == (2, 2, 2, 2)
        assert report.verdict.is_product

    def test_width_two_trivial_yes(self):
        report = dimer_product_report(2)
        assert report.applicable
        assert report.verdict.is_product

    def test_weighted_width_four(self):
        rng = random.Random(99)
        for _ in range(2):
            h = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            v = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            report = dimer_product_report(4, weights=(h, v))
            assert report.applicable and report.verdict.is_product, (h, v)

    @pytest.mark.parametrize(
        "m, weights",
        [
            (6, (Fraction(2, 3), Fraction(5, 7))),
            (8, (Fraction(1, 2), 1)),
            (10, (1, 1)),
            (8, (Fraction(2, 3), Fraction(5, 7))),
        ],
    )
    def test_large_and_weighted_reports(self, m, weights):
        # rational weights once made the ratio polynomial's scale D blow up;
        # width 8 at (2/3, 5/7) needs gcds whose lift takes many primes
        report = dimer_product_report(m, weights=weights)
        assert report.applicable
        assert report.factor_orders == (2,) * (m // 2)
        assert report.verdict.is_product
        verdict = roots.is_prod_g(dimer_seq(m, weights), (2,) * (m // 2))
        assert verdict.is_product
        assert verdict.observed == verdict.expected

    @pytest.mark.parametrize("m", range(1, 9))
    def test_agrees_with_the_product_test(self, m):
        # the report reads its split off the minimal order; the product test
        # measures the ratio profile of the same sequence
        for weights in sign_weights(random.Random(47 + m)):
            report = dimer_product_report(m, weights=weights)
            order = report.minimal_order
            if order == 1 or order & (order - 1):
                assert not report.applicable, (m, weights)
                continue
            orders = (2,) * (order.bit_length() - 1)
            verdict = roots.is_prod_g(report.seq, orders)
            assert report.applicable, (m, weights)
            assert report.factor_orders == orders, (m, weights)
            assert report.verdict.is_product == verdict.is_product, (m, weights)

    @pytest.mark.parametrize("m", range(2, 11))
    def test_factors_multiply_back_to_the_strip_sequence(self, m):
        for weights in [(1, 1), (Fraction(2, 3), Fraction(5, 7)), (-1, 1)]:
            report = dimer_product_report(m, weights=weights)
            assert report.factor_orders == (2,) * (m // 2)
            want = [float(x) for x in eval_terms(report.seq, 12)]
            got = kasteleyn_factor_product(m, weights, 12)
            assert got == pytest.approx(want, rel=1e-9), (m, weights)

    def test_fields_of_the_split(self):
        fields = [dimer_product_report(m).verdict.field for m in range(2, 11)]
        assert fields == [
            "Q", "Q", "Q(2cos(pi/5))", "Q", "Q(2cos(pi/7))", "Q(2cos(pi/4))",
            "Q(2cos(pi/9))", "Q(2cos(pi/5))", "Q(2cos(pi/11))",
        ]
        # h = 0: the sequence is its own order-2 factor
        report = dimer_product_report(6, weights=(0, 1))
        assert (report.minimal_order, report.factor_orders) == (2, (2,))
        assert report.verdict.field == "Q"

    @pytest.mark.parametrize("order", [3, 6, 12])
    def test_order_not_a_power_of_two_inapplicable(self, monkeypatch, order):
        seq = CFiniteSeq([0] * (order - 1) + [1], [0] * (order - 1) + [1])
        monkeypatch.setattr(dimers, "dimer_seq", lambda m, weights: seq)
        report = dimer_product_report(4)
        assert (report.minimal_order, report.applicable) == (order, False)
        assert report.note == f"minimal order {order} is not a power of 2"

    @pytest.mark.parametrize("m, order", [(6, 4), (8, 4), (8, 8), (10, 16)])
    def test_coinciding_root_products_inapplicable(self, monkeypatch, m, order):
        seq = CFiniteSeq([0] * (order - 1) + [1], [0] * (order - 1) + [1])
        monkeypatch.setattr(dimers, "dimer_seq", lambda m, weights: seq)
        report = dimer_product_report(m)
        assert (report.minimal_order, report.applicable) == (order, False)
        assert (report.factor_orders, report.verdict) == ((), None)
        assert report.note == f"minimal order {order} < {1 << m // 2}: root products coincide"

    def test_report_rendering(self):
        text = str(dimer_product_report(4))
        assert "width 4" in text
        assert "YES" in text
        assert text.endswith("2x2 over Q(2cos(pi/5)), by Kasteleyn's product")
