"""Domino tilings of m x n grid strips, counted by Kasteleyn's product.

Kasteleyn (1961) and Temperley-Fisher (1961) write the tiling count of the
m x n grid as a product over the roots of the Chebyshev factor Q_m, whose
roots are y_j = 4cos^2(j pi/(m+1)).  Every count here is therefore a norm:
the product of the values of one element of Z[Y]/Q_m at those roots, read
off its traces by Newton's identities on integer coefficient lists (_norm).

kasteleyn_count takes the norm of Q_n(-Y) mod Q_m.  The weighted strip
counts of dimer_terms and dimer_seq take the norms of one element G_n of
Z[Y]/Q'_m, stepped in n (_strip_counts), where Q'_m is Q_m with its root 0
divided out for odd m, of degree floor(m/2).  Each root contributes an
order-2 sequence in n, so the strip counts have order at most
2^floor(m/2); dimer_seq fits its recurrence at that bound, and dimer_terms
evaluates the recurrence past the fitted terms.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import count, islice
from math import comb
from operator import mul

from . import guess, roots
from .core import CFiniteSeq, _clear_denominators, _from_power_sums, _mulmod, _power_sums
from .core import _shiftmod, eval_terms

PRACTICAL_WIDTH_LIMIT = 10


def _check_width(m: int):
    if not 1 <= m <= PRACTICAL_WIDTH_LIMIT:
        raise ValueError(f"width must be between 1 and {PRACTICAL_WIDTH_LIMIT}")


def _chebyshev_q(k: int) -> list:
    """Q_k ascending: U_k(x/2) = sum_j (-1)^j C(k-j, j) x^(k-2j), so the
    coefficient of y^(ceil(k/2) - j) is (-1)^j C(k-j, j), and y^0 has a 0
    for odd k."""
    return [0] * (k % 2) + [(-1) ** j * comb(k - j, j) for j in range(k // 2, -1, -1)]


def _norm(w: list, r: list, p: list) -> int:
    """The norm of r in Z[y]/f, f = y^k - w_1 y^(k-1) - ... - w_k: the
    product of the values of r at the roots of f, which is Res(f, r).
    Newton's identities turn the traces of r^i, i <= k, into it, with exact
    divisions, the values being algebraic integers; p = _power_sums(w, k - 1)
    reads off each trace, and k = 0 gives 1."""
    k = len(w)
    if not k:
        return 1
    h = r
    traces = [k, sum(map(mul, r, p))]
    for _ in range(k - 1):
        h = _mulmod(h, r, w)
        traces.append(sum(map(mul, h, p)))
    return (-1) ** (k + 1) * _from_power_sums(traces, k)[-1]


def _strip_counts(m: int, weights):
    """(d, counts): counts yields the ints d^(m n/2) count(m, n) for
    n = 1, 2, ..., count(m, n) the weighted tiling count of the m x n grid.

    With the weights h = H/d and v = V/d, G_0 = 1, G_1 = H and, in
    Z[Y]/Q'_m, G_n = H Y G_(n-1) + V^2 G_(n-2) at even n and
    G_n = H G_(n-1) + V^2 G_(n-2) at odd n.  The scaled count is the norm
    N(G_n) for even m, V^(n/2) N(G_n) for odd m and even n, and 0 for
    odd m n.
    """
    d, (H, V) = _clear_denominators([Fraction(x) for x in weights])
    q = _chebyshev_q(m)[m % 2 :]
    w = [-c for c in reversed(q[:-1])]  # Q'_m = y^k - w_1 y^(k-1) - ... - w_k
    k, V2, p = len(w), V * V, _power_sums(w, len(w) - 1)

    def counts():
        prev, g = [1] + [0] * (k - 1), [H] + [0] * (k - 1)
        for n in count(1):
            if m % 2 == 0:
                yield _norm(w, g, p)
            else:
                yield V ** (n // 2) * _norm(w, g, p) if n % 2 == 0 else 0
            # G_(n+1); with k = 0 (m = 1) every norm is 1 and G is not read
            y = _shiftmod(g, w) if n % 2 and k else g
            prev, g = g, [H * a + V2 * b for a, b in zip(y, prev)]

    return d, counts()


def dimer_terms(m: int, N: int, weights=(1, 1)) -> list:
    """Weighted tiling counts of the m x n grid for n = 1..N, exactly.

    Up to the lengths dimer_seq fits on, one norm per term; past them, the
    terms of dimer_seq's recurrence (0 at odd lengths for odd m)."""
    _check_width(m)
    if N < 1:
        raise ValueError("N must be >= 1")
    # dimer_seq fits 2 * 2^floor(m/2) + SAFETY_TERMS terms, at even lengths for odd m
    if N > ((2 << m // 2) + guess.SAFETY_TERMS) * (1 + m % 2):
        terms = eval_terms(dimer_seq(m, weights), N // (1 + m % 2))
        if m % 2 == 0:
            return terms
        out = [Fraction(0)] * N
        out[1::2] = terms
        return out
    d, counts = _strip_counts(m, weights)
    return [Fraction(c, d ** (m * n // 2)) for n, c in enumerate(islice(counts, N), start=1)]


def dimer_seq(m: int, weights=(1, 1)) -> CFiniteSeq:
    """Minimal recurrence for the width-m strip counts.

    Even widths index straight: a(n) = count(m, n+1).  Odd widths have
    every odd-area count equal to 0, so the even-index subsequence
    a(n) = count(m, 2n+2) is returned instead, keeping the minimality
    analysis meaningful.  Either sequence has order at most B = 2^floor(m/2)
    by Kasteleyn's product (Kasteleyn 1961; Temperley-Fisher 1961).  The
    recurrence is guessed at order <= B from 2B + 4 counts and checked on
    all of them; two sequences of order <= B that agree on 2B terms are
    equal.  The counts go to the guesser as integers x(n): a(n) = x(n) /
    s^(n+1), s = d^(m/2) for even m and d^m for odd m (_strip_counts).
    """
    _check_width(m)

    def make(n):
        d, counts = _strip_counts(m, weights)
        if m % 2 == 0:
            return d ** (m // 2), d ** (m // 2), list(islice(counts, n))
        return d**m, d**m, list(islice(counts, 2 * n))[1::2]

    return guess._close(f"width-{m} strip counts", 1 << (m // 2), make)


def kasteleyn_count(m: int, n: int) -> int:
    """Closed-form tiling count of the m x n grid, exactly.

    Q_k(x^2) = x^(k mod 2) U_k(x/2) is monic over Z with roots 4cos^2(j pi/(k+1)),
    j <= ceil(k/2).  Kasteleyn's halved double product of their pairwise sums is
    |Res_y(Q_m(y), Q_n(-y))|, never 0: roots >= 0 and <= 0 meet only at 0 (odd m, n).
    The resultant is the norm of Q_n(-y) mod Q_m, reduced by Horner.
    """
    if m < 1 or n < 1:
        raise ValueError("grid sides must be >= 1")
    if m * n % 2:
        raise ValueError("m * n must be even (odd-area grids have no tilings)")
    if m > 32 or n > 32:
        raise ValueError("grid sides limited to 32")
    q_m = _chebyshev_q(m)
    w = [-c for c in reversed(q_m[:-1])]  # Q_m = y^k - w_1 y^(k-1) - ... - w_k
    r = [0] * len(w)
    for c in reversed([c * (-1) ** i for i, c in enumerate(_chebyshev_q(n))]):
        r = _shiftmod(r, w)
        r[0] += c
    return abs(_norm(w, r, _power_sums(w, len(w) - 1)))


class DimerProductReport(
    namedtuple(
        "DimerProductReport",
        "width weights seq minimal_order factor_orders verdict applicable note",
    )
):
    __slots__ = ()

    def __str__(self):
        head = (
            f"width {self.width}, weights "
            f"({self.weights[0]}, {self.weights[1]}): minimal order "
            f"{self.minimal_order}"
        )
        if not self.applicable:
            return f"{head}; product test inapplicable: {self.note}"
        return f"{head}; {self.verdict}"


def dimer_product_report(m: int, digits=None, weights=(1, 1)) -> DimerProductReport:
    """Test whether the width-m strip sequence is a product of order-2 parts.

    The minimal order must be a power of 2 for the all-order-2 hypothesis
    to make sense; as many order-2 factors as its base-2 logarithm are then
    tested, so the product of the hypothesized orders equals the minimal
    order, which is at most 2^floor(m/2) (see dimer_seq).  `digits` is
    accepted and ignored: it is kept for a benchmark caller (perfbench's
    primer passes digits=30) and goes with the next benchmark change.
    """
    seq = dimer_seq(m, weights)
    order = seq.order

    def report(*rest):
        return DimerProductReport(m, tuple(weights), seq, order, *rest)

    if order == 1:
        return report((), None, False, "order 1; nothing to factor")
    if order & (order - 1):
        return report((), None, False, f"minimal order {order} is not a power of 2")
    factor_orders = (2,) * (order.bit_length() - 1)
    try:
        verdict = roots.is_prod_g(seq, factor_orders)
    except roots.DegenerateRootsError as exc:
        return report(factor_orders, None, False, str(exc))
    return report(factor_orders, verdict, True, "")
