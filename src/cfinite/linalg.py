"""Exact linear algebra over Q: reduced row echelon form and solvers.

Rows may hold ints, Fractions or both.  Elimination is fraction-free, in
Python ints, and so are rref's and nullspace's answers; solve builds one
Fraction per unknown.  rref is the one engine; solve and nullspace read
their answers off it.  Everything is deterministic: pivots are chosen
left-to-right, top-to-bottom, no reordering heuristics.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .core import _clear_denominators


def rref(rows):
    """Reduced row echelon form of rows, over Z: (int rows, pivot_cols, d).

    The input is left unchanged.  Fraction-free Gauss-Jordan elimination
    (Bareiss 1968): each row is scaled to integers by the lcm of its
    denominators, and each pivot step with pivot pv in row p replaces
    every other row a by (pv a - f p) // prev, where f is a's entry in the
    pivot column and prev the previous pivot (1 at the first step).  Every
    entry then is a minor of the scaled matrix, so each division is exact,
    and at the end every pivot equals the last one, d (1 when there is
    none, and possibly negative): rows / d is the reduced form over Q.
    The rows below the last pivot row are zero.
    """
    rows = [_clear_denominators(r)[1] for r in rows]
    if not rows:
        return rows, [], 1
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
    return rows, pivots, prev


def solve(A, b):
    """One solution of A x = b over Q, or None if inconsistent.

    Underdetermined systems get the particular solution with all free
    variables set to 0 (deterministic tie-break).
    """
    if not A:
        return []
    n = len(A[0])
    aug = [list(row) + [rhs] for row, rhs in zip(A, b)]
    red, pivots, d = rref(aug)
    if n in pivots:  # pivot in the rhs column: inconsistent
        return None
    x = [Fraction(0)] * n
    for r, c in enumerate(pivots):
        x[c] = Fraction(red[r][n], d)
    return x


def nullspace(A):
    """Basis of {x : A x = 0}, one vector per free (non-pivot) column.

    Vectors come in column order, as primitive integer vectors; the one
    for free column f is positive in position f and 0 in every other free
    position.  One rref in total.
    """
    if not A:
        return []
    red, pivots, d = rref(A)
    n = len(A[0])
    piv = set(pivots)
    basis = []
    for f in range(n):
        if f in piv:
            continue
        v = [0] * n
        v[f] = d
        for r, c in enumerate(pivots):
            v[c] = -red[r][f]
        g = gcd(*v) if d > 0 else -gcd(*v)
        basis.append([x // g for x in v])
    return basis
