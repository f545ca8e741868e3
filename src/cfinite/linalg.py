"""Exact linear algebra over Q: reduced row echelon form and solvers.

Everything here works on lists of lists of Fractions and is deterministic:
pivots are chosen left-to-right, top-to-bottom, no reordering heuristics.
"""

from __future__ import annotations

from fractions import Fraction


def rref(rows):
    """Reduced row echelon form in place semantics (returns new rows).

    Returns (rows, pivot_cols).
    """
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


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
