"""Independent reference computations used to check every benchmark answer.

Nothing here imports cfinite: each routine uses a different (mostly more
naive) algorithm than the program, so a bug in the program cannot hide
behind shared code.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction


def unroll(init, rec, n):
    """First n terms of a(k) = sum_i rec[i] * a(k-1-i), by direct iteration."""
    out = [Fraction(x) for x in init][:n]
    rec = [Fraction(c) for c in rec]
    while len(out) < n:
        k = len(out)
        out.append(sum(c * out[k - 1 - i] for i, c in enumerate(rec)))
    return out


def berlekamp_massey(terms):
    """Shortest recurrence (c_1..c_L) that the finite sequence satisfies.

    L is the linear complexity: the smallest L with
    a(n) = c_1 a(n-1) + ... + c_L a(n-L) for every L <= n < len(terms).
    """
    s = [Fraction(t) for t in terms]
    C, B = [Fraction(1)], [Fraction(1)]
    L, m, b = 0, 1, Fraction(1)
    for n in range(len(s)):
        d = sum(C[i] * s[n - i] for i in range(min(len(C), n + 1)))
        if d == 0:
            m += 1
            continue
        T = list(C)
        coef = d / b
        C += [Fraction(0)] * (len(B) + m - len(C))
        for i, bi in enumerate(B):
            C[i + m] -= coef * bi
        if 2 * L <= n:
            L, B, b, m = n + 1 - L, T, d, 1
        else:
            m += 1
    return [-(C[i] if i < len(C) else Fraction(0)) for i in range(1, L + 1)]


def series(num, den, n):
    """First n Taylor coefficients of num(z)/den(z), den[0] != 0."""
    out = []
    for k in range(n):
        c = Fraction(num[k]) if k < len(num) else Fraction(0)
        for j in range(1, min(k, len(den) - 1) + 1):
            c -= den[j] * out[k - j]
        out.append(c / den[0])
    return out


def tilings(m, N, h=1, v=1):
    """Weighted domino tilings of the m-wide grids of heights 1..N.

    A cell-by-cell broken-profile count: bit c of the state says whether
    the next cell of column c is already covered.  After row r the empty
    state carries the (r+1)-row count.  Weight h per horizontal domino and
    v per vertical one.
    """
    states = {0: Fraction(1)}
    out = []
    for _ in range(N):
        for c in range(m):
            bit = 1 << c
            nxt = {}
            for mask, w in states.items():
                if mask & bit:
                    nxt[mask & ~bit] = nxt.get(mask & ~bit, 0) + w
                    continue
                nxt[mask | bit] = nxt.get(mask | bit, 0) + w * v
                if c + 1 < m and not mask & (bit << 1):
                    key = mask | (bit << 1)
                    nxt[key] = nxt.get(key, 0) + w * h
            states = nxt
        out.append(Fraction(states.get(0, 0)))
    return out


def indicator(orders):
    """Generic ratio-class sizes of a product with the given factor orders.

    Per factor a ratio either cancels (a class of size m) or is one of the
    m(m-1) ordered pairs of distinct roots (size 1); sizes multiply.
    """
    sizes = [1]
    for m in orders:
        sizes = [a * b for a in sizes for b in [m] + [1] * (m * (m - 1))]
    return sorted(sizes)


def evaluate_relation(support, coefficients, window):
    total = Fraction(0)
    for exps, c in zip(support, coefficients):
        term = Fraction(c)
        for x, e in zip(window, exps):
            term *= x**e
        total += term
    return total


_NUMBER = re.compile(r"-?\d+(?:/\d+)?")


def parse_literal(text):
    """Nested lists of Fractions from program output like [[1/2, 3], [1, -1]]."""
    quoted = _NUMBER.sub(lambda mt: f'"{mt.group(0)}"', text.strip())

    def conv(x):
        return [conv(y) for y in x] if isinstance(x, list) else Fraction(x)

    return conv(json.loads(quoted))


def parse_csv(text):
    return [Fraction(t) for t in text.strip().split(",")]
