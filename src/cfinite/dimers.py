"""Domino tilings of m x n grid strips, counted by Kasteleyn's product.

Kasteleyn (1961) and Temperley-Fisher (1961) write the tiling count of the
m x n grid as a product over the roots of the Chebyshev factor Q_m, whose
roots are y_j = 4cos^2(j pi/(m+1)).  Every count here is therefore a norm:
the product of the values of one element of Z[Y]/Q'_m at the roots of Q'_m,
the determinant of multiplication by it, taken by fraction-free elimination
on integer rows (_norm, core._det), where Q'_m is Q_m with its root 0
divided out for odd m, of degree floor(m/2).  The constants of Z[Y]/Q'_m
are built once per width and cached (_algebra); the cache holds no counts.

kasteleyn_count takes the norm of Q_n(-Y) mod Q'_m, m the shorter side: for
odd m, n is even and Q_n(0) = +-1, so the root 0 of Q_m changes no absolute
value.  The weighted strip counts of dimer_terms and dimer_seq take the
norms of one element G_n of Z[Y]/Q'_m, stepped once in n (_strip_steps).
Each root contributes an order-2 sequence in n, so the strip counts have
order at most B = 2^floor(m/2).  _construction builds that recurrence from
the power sums of its B roots, the norms of L_n = G_n + V^2 G_(n-2) read
off the same steps; dimer_seq hands it to the one encoder (guess._built),
and dimer_terms steps it on the integer counts past the norms it takes.

The same product makes the strip sequence, up to a geometric factor, the
termwise product of floor(m/2) order-2 sequences.  dimer_product_report
reads that split off the construction: when the minimal order is B, the B
root products are distinct and each factor has order exactly 2, so the
split holds by construction; it measures no ratio profile and imports
nothing from roots.py.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, count, islice, repeat
from math import comb
from operator import mul

from . import guess
from .core import CFiniteSeq, _clear_denominators, _det, _from_power_sums, _over, _shiftmod
from .core import _step

PRACTICAL_WIDTH_LIMIT = 10


def _check_width(m: int):
    if not 1 <= m <= PRACTICAL_WIDTH_LIMIT:
        raise ValueError(f"width must be between 1 and {PRACTICAL_WIDTH_LIMIT}")


def _chebyshev_q(k: int) -> list:
    """Q_k ascending: U_k(x/2) = sum_j (-1)^j C(k-j, j) x^(k-2j), so the
    coefficient of y^(ceil(k/2) - j) is (-1)^j C(k-j, j), and y^0 has a 0
    for odd k."""
    return [0] * (k % 2) + [(-1) ** j * comb(k - j, j) for j in range(k // 2, -1, -1)]


def _norm(w: list, r: list) -> int:
    """The norm of r in Z[y]/f, f = y^k - w_1 y^(k-1) - ... - w_k: the
    product of the values of r at the roots of f, which is Res(f, r) and
    the determinant of multiplication by r, whose rows r, r y, ...,
    r y^(k-1) mod f are exact integer lists (core._det); k = 0 gives 1."""
    return _det(list(islice(accumulate(repeat(w), _shiftmod, initial=r), len(w))))


@lru_cache(maxsize=None)
def _algebra(m: int) -> tuple:
    """The record (w, cols, g) of one integer m <= 32, as tuples, that every
    count reads; keyed by m alone, it holds no counts.  As a width: Q'_m =
    y^k - w_1 y^(k-1) - ... - w_k, the modulus of _norm, and cols[i] the i-th
    coordinates of y^j mod Q'_m for j <= 16, so that a polynomial with at
    most 17 coefficients reduces by one dot product per coordinate.  As a
    height: g = +-Q_m(-y), at most 17 coefficients, the absolute values of
    those of Q_m, whose signs alternate."""
    q = _chebyshev_q(m)
    w = [-c for c in reversed(q[m % 2 : -1])]
    k, rows, y = len(w), [], [1] + [0] * (len(w) - 1)
    for _ in range(17):
        rows.append(y[:k])
        y = _shiftmod(y, w) if k else y
    return tuple(w), tuple(zip(*rows)), tuple(map(abs, q))


def _strip_steps(m: int, weights) -> tuple:
    """(e, q, steps): steps yields, for each length n the strip sequence
    reads (every n for even m, even n for odd m, whose odd-area counts are
    0), the scale s and the integer elements G_n and L_n of Z[Y]/Q'_m,
    Q'_m = Y^k - q_1 Y^(k-1) - ... - q_k, so that s N(G_n) = e^(n/step)
    count(m, n), step = 1 + m mod 2, and s N(L_n) is a power sum
    (_construction).

    With the weights h = H/d and v = V/d, G_0 = 1, G_1 = H and
    G_n = H Y G_(n-1) + V^2 G_(n-2) at even n, G_n = H G_(n-1) + V^2 G_(n-2)
    at odd n.  L_n = G_n + V^2 G_(n-2), with G_(-1) = 0, is the same
    recurrence started at L_0 = 2, L_1 = H, as the Lucas numbers are
    F_(n+1) + F_(n-1).  The scale is 1 for even m and V^(n/2) for odd m,
    and e = d^(m step/2).
    """
    d, (H, V) = _clear_denominators([Fraction(x) for x in weights])
    q, _, _ = _algebra(m)
    k, V2, step = len(q), V * V, 1 + m % 2

    def steps():
        before, prev, g = [0] * k, [1] + [0] * (k - 1), [H] + [0] * (k - 1)
        for n in count(1):
            if n % step == 0:
                s = V ** (n // 2) if step == 2 else 1
                yield s, g, [a + V2 * b for a, b in zip(g, before)]
            # G_(n+1); with k = 0 (m = 1) every norm is 1 and G is not read
            y = _shiftmod(g, q) if n % 2 and k else g
            before, prev, g = prev, g, [H * a + V2 * b for a, b in zip(y, prev)]

    return d ** (m * step // 2), q, steps()


def dimer_terms(m: int, N: int, weights=(1, 1)) -> list:
    """Weighted tiling counts of the m x n grid for n = 1..N, exactly.

    The integer image x of the lengths the strip sequence reads: up to as
    many as _construction takes norms, one count norm per term; past them,
    its checked recurrence stepped on the integer counts.  Interleaved with
    0 at odd lengths for odd m."""
    _check_width(m)
    if N < 1:
        raise ValueError("N must be >= 1")
    # _construction takes 2^floor(m/2) power sums and 2^floor(m/2) +
    # SAFETY_TERMS counts, one norm per length it reads
    step = 1 + m % 2
    if N > ((2 << m // 2) + guess.SAFETY_TERMS) * step:
        e, w, x = _construction(m, weights)
        guess._check_built(f"width-{m} strip counts", w, x)
        x = _step(w, x[: len(w)], N // step)
    else:
        e, q, steps = _strip_steps(m, weights)
        x = [s * _norm(q, g) for s, g, _ in islice(steps, N // step)]
    out = [Fraction(0)] * N
    out[step - 1 :: step] = _over(x, e, e)
    return out


def _construction(m: int, weights) -> tuple:
    """(e, w, x): the strip recurrence w of order B = 2^floor(m/2) built from
    the B power sums read off the first B steps of _strip_steps, and the
    integer counts x of its first B + SAFETY_TERMS steps that check it,
    a(n) = x(n) / e^(n+1) (dimer_seq)."""
    B = 1 << m // 2
    e, q, steps = _strip_steps(m, weights)
    taken = list(islice(steps, B + guess.SAFETY_TERMS))
    p = [B, *(s * _norm(q, L) for s, _, L in taken[:B])]
    return e, _from_power_sums(p, B), [s * _norm(q, G) for s, G, _ in taken]


def dimer_seq(m: int, weights=(1, 1)) -> CFiniteSeq:
    """Minimal recurrence for the width-m strip counts, constructed.

    Even widths index straight: a(n) = count(m, n+1).  Odd widths have
    every odd-area count equal to 0, so the even-index subsequence
    a(n) = count(m, 2n+2) is returned instead, keeping the minimality
    analysis meaningful.

    At a root y = x^2 of Q'_m, x > 0, h_n = x^(n mod 2) G_n(y) (_strip_steps)
    has h_n = H x h_(n-1) + V^2 h_(n-2), with roots alpha, beta, and
    h_n = (alpha^(n+1) - beta^(n+1)) / (alpha - beta); as alpha beta = -V^2,
    L_n = G_n + V^2 G_(n-2) gives the Lucas sequence alpha^n + beta^n.
    A count is the product of the k = floor(m/2) values h_n over
    (prod x)^(n mod 2), and for even m,
    prod x = prod_j 2cos(j pi/(m+1)) = 1: a has the B = 2^k roots
    prod_j (alpha_j or beta_j), whose power sums prod_j (alpha_j^s + beta_j^s)
    are the norms of L_s.  For odd m, V^(n/2) makes the roots
    V prod_j (alpha_j^2 or beta_j^2), the scaled norms of L_2s.  Newton's
    identities give the recurrence of order B (_construction), checked on
    B + SAFETY_TERMS counts, put in lowest terms and encoded by the one
    encoder (guess._built).  The counts enter as integers x(n):
    a(n) = x(n) / e^(n+1), e = d^(m/2) for even m and d^m for odd m.
    """
    _check_width(m)
    e, w, x = _construction(m, weights)
    return guess._built(f"width-{m} strip counts", e, e, w, x)


def kasteleyn_count(m: int, n: int) -> int:
    """Closed-form tiling count of the m x n grid, exactly.

    Q_k(x^2) = x^(k mod 2) U_k(x/2) is monic over Z with roots 4cos^2(j pi/(k+1)),
    j <= ceil(k/2).  Kasteleyn's halved double product of their pairwise sums is
    |Res_y(Q_m(y), Q_n(-y))|, symmetric in m and n, so the shorter side is
    taken as m, the width, whose algebra is the smaller.  For odd m, n is even,
    Q_m = y Q'_m and Q_n(0) = +-1, so this is |Res_y(Q'_m(y), Q_n(-y))| at
    every width: the norm of +-Q_n(-y) mod Q'_m, reduced with one dot product
    per coordinate, both read from the cached records (_algebra) of m and of
    n, which hold no counts.  It is never 0: the roots of Q'_m are > 0, those
    of Q_n(-y) <= 0.
    """
    if m < 1 or n < 1:
        raise ValueError("grid sides must be >= 1")
    if m * n % 2:
        raise ValueError("m * n must be even (odd-area grids have no tilings)")
    if m > 32 or n > 32:
        raise ValueError("grid sides limited to 32")
    if n < m:
        m, n = n, m
    (w, cols, _), g = _algebra(m), _algebra(n)[2]
    return abs(_norm(w, [sum(map(mul, g, col)) for col in cols]))


class StripSplit(namedtuple("StripSplit", "orders field")):
    """A split of a strip sequence into factors of the given orders over a
    number field given by its name, read off Kasteleyn's product
    (dimer_product_report): a theorem, so it is always a product."""

    __slots__ = ()
    is_product = True

    def __str__(self):
        return f"YES: product of orders {'x'.join(map(str, self.orders))} over {self.field}"


class DimerProductReport(
    namedtuple(
        "DimerProductReport",
        "width weights seq minimal_order factor_orders verdict applicable note",
    )
):
    """The width-m strip sequence seq, its minimal order and, when the report
    applies, the factor orders and the StripSplit that Kasteleyn's product
    gives, with the note naming that construction; otherwise verdict None
    and the note saying why the report does not apply."""

    __slots__ = ()

    def __str__(self):
        head = (
            f"width {self.width}, weights "
            f"({self.weights[0]}, {self.weights[1]}): minimal order "
            f"{self.minimal_order}"
        )
        if not self.applicable:
            return f"{head}; product test inapplicable: {self.note}"
        return f"{head}; {self.verdict}, by {self.note}"


def _split_field(m: int) -> str:
    """The field of the width-m factors' recurrences: Q(2cos(pi/N)), N = m + 1
    for even m and (m + 1)/2 for odd m, whose factors read only the squares
    4cos^2(j pi/(m+1)) = 2 + 2cos(2j pi/(m+1)); Q for N <= 3."""
    N = (m + 1) >> (m % 2)
    return "Q" if N <= 3 else f"Q(2cos(pi/{N}))"


def dimer_product_report(m: int, digits=None, weights=(1, 1)) -> DimerProductReport:
    """The split of the width-m strip sequence into order-2 factors that
    Kasteleyn's product gives, checked against its minimal order.

    With h, v the weights, k = floor(m/2) and x_j = 2cos(j pi/(m+1)), the
    count is a geometric factor times the product of the k sequences h_j of
    recurrence [h x_j, v^2] (see dimer_seq): a(n) = prod_j h_j(n+1) for even
    m, and v^(n+1) prod_j h_j(2n+2), of roots alpha_j^2 and beta_j^2, for
    odd m.  Its B = 2^k roots are the products of one root per factor, so
    when the minimal order is B they are distinct, every factor has two
    distinct nonzero roots, and the split into k factors of order 2 is a
    theorem over the field of their recurrences (_split_field); no profile
    is measured.  Minimal order 2 (h = 0 for k >= 2) is its own order-2
    factor, over Q.  Order 1, an order that is not a power of 2, and one
    strictly between 2 and B, where root products coincide, are
    inapplicable.  `digits` is accepted and ignored: it is kept for a
    benchmark caller (perfbench's primer passes digits=30) and goes with
    the next benchmark change.
    """
    seq = dimer_seq(m, weights)
    order = seq.order

    def report(*rest):
        return DimerProductReport(m, tuple(weights), seq, order, *rest)

    if order == 1:
        return report((), None, False, "order 1; nothing to factor")
    if order & (order - 1):
        return report((), None, False, f"minimal order {order} is not a power of 2")
    k = order.bit_length() - 1
    if order != 2 and k != m // 2:
        note = f"minimal order {order} < {1 << m // 2}: root products coincide"
        return report((), None, False, note)
    field = "Q" if order == 2 else _split_field(m)
    return report((2,) * k, StripSplit((2,) * k, field), True, "Kasteleyn's product")
