"""Transfer-matrix enumeration of domino tilings of m x n grid strips.

Rows have m cells; the state between two consecutive rows is the set of
cells covered by a vertical domino protruding into the next row, encoded
as a bitmask.  A row transition fills every non-protruded cell either by a
horizontal domino (weight h per domino) or by starting a new vertical
domino (weight v, counted once, at the start).  The 2^m x 2^m transfer
matrix is kept as its transitions grouped by source state, 985 of 65,536
cells at width 8, built once per width.  Each count weights every
transition once and pushes a dense row vector of Python ints through the
groups, skipping its zero entries.

kasteleyn_count checks the counts exactly against Kasteleyn's closed-form
product, a resultant computed as a norm on integer coefficient lists; the
Chebyshev factors are read off their closed form, no table is built.
The same product (Kasteleyn 1961; Temperley-Fisher 1961) makes the strip
count a termwise product over j <= ceil(m/2) of order-2 sequences in n,
rec [2h cos(j pi/(m+1)), v^2]; for odd m the middle factor (cos = 0) has
order 1 at even n.  dimer_seq takes its order bound 2^floor(m/2) from there.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb, log2

from . import guess, roots
from .core import CFiniteSeq, _clear_denominators, _from_power_sums, _mulmod, _power_sums
from .core import _shiftmod

PRACTICAL_WIDTH_LIMIT = 10


@cache
def _transitions(m: int) -> tuple:
    """Every row transition of width m once, grouped by source state: entry
    s lists the (next, h count, v count) of the transitions out of s."""
    out = []

    def fill(col, occupied, protrude, nh, nv):
        # `occupied` marks cells of the current row already covered
        if col == m:
            out[-1].append((protrude, nh, nv))
            return
        if occupied >> col & 1:
            fill(col + 1, occupied, protrude, nh, nv)
            return
        # vertical domino into the next row
        fill(col + 1, occupied, protrude | (1 << col), nh, nv + 1)
        # horizontal domino with the right neighbor
        if col + 1 < m and not (occupied >> (col + 1) & 1):
            fill(col + 2, occupied, protrude, nh + 1, nv)

    for state in range(1 << m):
        out.append([])
        fill(0, state, 0, 0, 0)
    return tuple(map(tuple, out))


def _check_width(m: int):
    if not 1 <= m <= PRACTICAL_WIDTH_LIMIT:
        raise ValueError(f"width must be between 1 and {PRACTICAL_WIDTH_LIMIT}")


def _counts(m: int, N: int, weights):
    """(d, counts): the weighted tiling count of the m x n grid is
    counts[n - 1] / d^(m*n/2) for n = 1..N, counts a list of ints.

    The weights scaled to integers d*h, d*v: a step from s to t lays
    (m - |s| + |t|) / 2 dominoes, so every path from the empty state back
    to it over n rows lays m*n/2 of them and its count is scaled by
    d^(m*n/2).  The row vector e_0^T * M^n is iterated over ints and its
    component 0 read; the rows drop their zero-weight transitions.
    """
    d, (hd, vd) = _clear_denominators([Fraction(w) for w in weights])
    rows = [
        [(t, w) for t, nh, nv in row if (w := hd**nh * vd**nv)]
        for row in _transitions(m)
    ]
    vec, out = [1] + [0] * (len(rows) - 1), []
    for _ in range(N):
        nxt = [0] * len(rows)
        for x, row in zip(vec, rows):
            if x:
                for t, w in row:
                    nxt[t] += x * w
        vec = nxt
        out.append(vec[0])
    return d, out


def dimer_terms(m: int, N: int, weights=(1, 1)) -> list:
    """Weighted tiling counts of the m x n grid for n = 1..N, exact."""
    _check_width(m)
    if N < 1:
        raise ValueError("N must be >= 1")
    d, counts = _counts(m, N, weights)
    return [Fraction(c, d ** (m * n // 2)) for n, c in enumerate(counts, start=1)]


def dimer_seq(m: int, weights=(1, 1)) -> CFiniteSeq:
    """Minimal recurrence for the width-m strip counts.

    Even widths index straight: a(n) = count(m, n+1).  Odd widths have
    every odd-area count equal to 0, so the even-index subsequence
    a(n) = count(m, 2n+2) is returned instead, keeping the minimality
    analysis meaningful.  Either sequence has order at most B = 2^floor(m/2)
    by Kasteleyn's product (Kasteleyn 1961; Temperley-Fisher 1961), not just
    the transfer-matrix size 2^m.  The recurrence is guessed at order <= B
    from 2B + 4 transfer-matrix counts and checked on all of them; two
    sequences of order <= B that agree on 2B terms are equal.  The counts
    go to the guesser as integers x(n): a(n) = x(n) / s^(n+1), s = d^(m/2)
    for even m and d^m for odd m (_counts).
    """
    _check_width(m)

    def make(n):
        if m % 2 == 0:
            d, counts = _counts(m, n, weights)
            return d ** (m // 2), d ** (m // 2), counts
        d, counts = _counts(m, 2 * n, weights)
        return d**m, d**m, counts[1::2]

    return guess._close(f"width-{m} strip counts", 1 << (m // 2), make)


def _resultant(f: list, g: list) -> int:
    """Res(f, g) for integer lists (ascending), f monic of degree d >= 1: the
    norm of g in Z[y]/f.  Newton's identities turn the traces of g^k, k <= d,
    into the product of the values g(alpha) at the roots of f, with exact
    divisions, the values being algebraic integers."""
    w = [-x for x in reversed(f[:-1])]  # f = y^d - w_1 y^(d-1) - ... - w_d
    d, r = len(w), [0] * len(w)
    for c in reversed(g):  # g mod f, by Horner
        r = _shiftmod(r, w)
        r[0] += c
    p, h, traces = _power_sums(w, d - 1), [1] + [0] * (d - 1), [d]
    for _ in range(d):
        h = _mulmod(h, r, w)
        traces.append(sum(x * y for x, y in zip(h, p)))
    return (-1) ** (d + 1) * _from_power_sums(traces, d)[-1]


def kasteleyn_count(m: int, n: int) -> int:
    """Closed-form tiling count of the m x n grid, exactly.

    Q_k(x^2) = x^(k mod 2) U_k(x/2) is monic over Z with roots 4cos^2(j pi/(k+1)),
    j <= ceil(k/2).  Kasteleyn's halved double product of their pairwise sums is
    |Res_y(Q_m(y), Q_n(-y))|, never 0: roots >= 0 and <= 0 meet only at 0 (odd m, n).
    """
    if m < 1 or n < 1:
        raise ValueError("grid sides must be >= 1")
    if m * n % 2:
        raise ValueError("m * n must be even (odd-area grids have no tilings)")
    if m > 32 or n > 32:
        raise ValueError("grid sides limited to 32")
    q_n = _chebyshev_q(n)
    return abs(_resultant(_chebyshev_q(m), [c * (-1) ** i for i, c in enumerate(q_n)]))


def _chebyshev_q(k: int) -> list:
    """Q_k ascending: U_k(x/2) = sum_j (-1)^j C(k-j, j) x^(k-2j), so the
    coefficient of y^(ceil(k/2) - j) is (-1)^j C(k-j, j), and y^0 has a 0
    for odd k."""
    return [0] * (k % 2) + [(-1) ** j * comb(k - j, j) for j in range(k // 2, -1, -1)]


@dataclass(frozen=True)
class DimerProductReport:
    width: int
    weights: tuple
    seq: CFiniteSeq
    minimal_order: int
    factor_orders: tuple
    verdict: roots.ProductVerdict | None
    applicable: bool
    note: str

    def __str__(self):
        head = (
            f"width {self.width}, weights "
            f"({self.weights[0]}, {self.weights[1]}): minimal order "
            f"{self.minimal_order}"
        )
        if not self.applicable:
            return f"{head}; product test inapplicable: {self.note}"
        return f"{head}; {self.verdict}"


def dimer_product_report(
    m: int, digits: int = roots.DEFAULT_DIGITS, weights=(1, 1)
) -> DimerProductReport:
    """Test whether the width-m strip sequence is a product of order-2 parts.

    The minimal order must be a power of 2 for the all-order-2 hypothesis
    to make sense; log2(order) factors of order 2 are then tested, so the
    product of the hypothesized orders equals the minimal order, which is
    at most 2^floor(m/2) (see dimer_seq).
    """
    seq = dimer_seq(m, weights)
    order = seq.order

    def report(*rest):
        return DimerProductReport(m, tuple(weights), seq, order, *rest)

    if order == 1:
        return report((), None, False, "order 1; nothing to factor")
    k = log2(order)
    if k != int(k):
        return report((), None, False, f"minimal order {order} is not a power of 2")
    factor_orders = (2,) * int(k)
    try:
        verdict = roots.is_prod_g(seq, factor_orders, digits)
    except roots.DegenerateRootsError as exc:
        return report(factor_orders, None, False, str(exc))
    return report(factor_orders, verdict, True, "")
