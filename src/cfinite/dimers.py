"""Transfer-matrix enumeration of domino tilings of m x n grid strips.

Rows have m cells; the state between two consecutive rows is the set of
cells covered by a vertical domino protruding into the next row, encoded
as a bitmask.  A row transition fills every non-protruded cell either by a
horizontal domino (weight h per domino) or by starting a new vertical
domino (weight v, counted once, at the start).  The 2^m x 2^m transfer
matrix is kept as its list of transitions, 985 of 65,536 cells at width 8;
a sparse row vector of Python ints is pushed through it.

kasteleyn_count checks the counts exactly against Kasteleyn's closed-form
product, a resultant computed as a norm on integer coefficient lists.
The same product (Kasteleyn 1961; Temperley-Fisher 1961) makes the strip
count a termwise product over j <= ceil(m/2) of order-2 sequences in n,
rec [2h cos(j pi/(m+1)), v^2]; for odd m the middle factor (cos = 0) has
order 1 at even n.  dimer_seq takes its order bound 2^floor(m/2) from there.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import log2

from . import guess, roots
from .core import CFiniteSeq, _clear_denominators, _from_power_sums, _mulmod, _power_sums
from .core import _shiftmod

PRACTICAL_WIDTH_LIMIT = 10


def _transitions(m: int) -> list:
    """Every row transition of width m once: (state, next, h count, v count)."""
    out = []

    def fill(col, occupied, protrude, nh, nv, state):
        # `occupied` marks cells of the current row already covered
        if col == m:
            out.append((state, protrude, nh, nv))
            return
        if occupied >> col & 1:
            fill(col + 1, occupied, protrude, nh, nv, state)
            return
        # vertical domino into the next row
        fill(col + 1, occupied, protrude | (1 << col), nh, nv + 1, state)
        # horizontal domino with the right neighbor
        if col + 1 < m and not (occupied >> (col + 1) & 1):
            fill(col + 2, occupied, protrude, nh + 1, nv, state)

    for state in range(1 << m):
        fill(0, state, 0, 0, 0, state)
    return out


def _check_width(m: int):
    if not 1 <= m <= PRACTICAL_WIDTH_LIMIT:
        raise ValueError(f"width must be between 1 and {PRACTICAL_WIDTH_LIMIT}")


def dimer_terms(m: int, N: int, weights=(1, 1)) -> list:
    """Weighted tiling counts of the m x n grid for n = 1..N, exact."""
    _check_width(m)
    if N < 1:
        raise ValueError("N must be >= 1")
    # integer weights d*h, d*v: a step from s to t lays (m - |s| + |t|) / 2
    # dominoes, so every path from the empty state back to it over n rows
    # lays m*n/2 of them and its count is scaled by d^(m*n/2)
    d, (hd, vd) = _clear_denominators([Fraction(w) for w in weights])
    steps = [(s, t, hd**nh * vd**nv) for s, t, nh, nv in _transitions(m)]
    # iterate the row vector e_0^T * M^n over ints and read component 0
    vec, out = {0: 1}, []
    for n in range(1, N + 1):
        nxt = {}
        for s, t, w in steps:
            x = vec.get(s)
            if x and w:
                nxt[t] = nxt.get(t, 0) + x * w
        vec = nxt
        out.append(Fraction(vec.get(0, 0), d ** (m * n // 2)))
    return out


def dimer_seq(m: int, weights=(1, 1)) -> CFiniteSeq:
    """Minimal recurrence for the width-m strip counts.

    Even widths index straight: a(n) = count(m, n+1).  Odd widths have
    every odd-area count equal to 0, so the even-index subsequence
    a(n) = count(m, 2n+2) is returned instead, keeping the minimality
    analysis meaningful.  Either sequence has order at most B = 2^floor(m/2)
    by Kasteleyn's product (Kasteleyn 1961; Temperley-Fisher 1961), not just
    the transfer-matrix size 2^m.  The recurrence is guessed at order <= B
    from 2B + 4 transfer-matrix terms and checked on all of them; two
    sequences of order <= B that agree on 2B terms are equal.
    """
    _check_width(m)

    def make(n):
        if m % 2 == 0:
            return dimer_terms(m, n, weights)
        return dimer_terms(m, 2 * n, weights)[1::2]

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
    P = [[1], [0, 1]]  # P_k(x) = U_k(x/2), ascending integer coefficients
    while len(P) <= max(m, n):
        P.append([a - b for a, b in zip([0, *P[-1]], P[-2] + [0, 0])])
    q_m, q_n = (([0] * (k % 2) + P[k])[::2] for k in (m, n))
    return abs(_resultant(q_m, [c * (-1) ** i for i, c in enumerate(q_n)]))


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
