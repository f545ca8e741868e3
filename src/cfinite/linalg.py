"""Exact linear algebra over Q: reduced row echelon form and solvers.

Rows may hold ints, Fractions or both.  Elimination is fraction-free, in
Python ints, and every result comes back as Fractions.  rref is the one
engine; solve and nullspace read their answers off it.  Everything is
deterministic: pivots are chosen left-to-right, top-to-bottom, no
reordering heuristics.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def rref(rows):
    """Reduced row echelon form of rows: (new rows of Fractions, pivot_cols).

    The input is left unchanged.  Fraction-free Gauss-Jordan elimination
    (Bareiss 1968): each row is scaled to integers by the lcm of its
    denominators, and each pivot step with pivot pv in row p replaces
    every other row a by (pv a - f p) // prev, where f is a's entry in the
    pivot column and prev the previous pivot (1 at the first step).  Every
    entry then is a minor of the scaled matrix, so each division is exact,
    and at the end every pivot equals the last one, which one division
    turns into the reduced form over Q.  The rows below the last pivot
    row are then zero.
    """
    rows = [_integral(r) for r in rows]
    if not rows:
        return rows, []
    pivots = []
    prev = 1
    r = 0
    for c in range(len(rows[0])):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        prow = rows[r]
        pv = prow[c]
        for i, row in enumerate(rows):
            if i == r:
                continue
            f = row[c]
            if f:
                rows[i] = [(pv * a - f * b) // prev for a, b in zip(row, prow)]
            else:
                rows[i] = [pv * a // prev for a in row]
        prev = pv
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    red = [[Fraction(x, prev) for x in row] for row in rows[:r]]
    return red + [[Fraction(0)] * len(row) for row in rows[r:]], pivots


def _integral(row) -> list:
    """The row times the lcm of its denominators, as ints."""
    if all(type(x) is int for x in row):
        return list(row)
    d = lcm(*(x.denominator for x in row))
    return [x.numerator * (d // x.denominator) for x in row]


def solve(A, b):
    """One solution of A x = b over Q, or None if inconsistent.

    Underdetermined systems get the particular solution with all free
    variables set to 0 (deterministic tie-break).
    """
    if not A:
        return []
    n = len(A[0])
    aug = [list(row) + [rhs] for row, rhs in zip(A, b)]
    red, pivots = rref(aug)
    if n in pivots:  # pivot in the rhs column: inconsistent
        return None
    x = [Fraction(0)] * n
    for r, c in enumerate(pivots):
        x[c] = red[r][n]
    return x


def nullspace(A):
    """Basis of {x : A x = 0}, one vector per free (non-pivot) column.

    Vectors come in column order; the one for free column f has a 1 in
    position f and 0 in every other free position.  One rref in total.
    """
    if not A:
        return []
    red, pivots = rref(A)
    n = len(A[0])
    piv = set(pivots)
    basis = []
    for f in range(n):
        if f in piv:
            continue
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -red[r][f]
        basis.append(v)
    return basis
