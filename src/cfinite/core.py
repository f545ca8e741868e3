"""Exact arithmetic foundation: value types and integer polynomial kernels.

A sequence is stored as ``[[d_1, ..., d_L], [c_1, ..., c_L]]``: the first
block holds the initial terms a(0)..a(L-1), the second the recurrence
coefficients of

    a(n) = c_1 a(n-1) + c_2 a(n-2) + ... + c_L a(n-L).

All values are `fractions.Fraction`; nothing in this module ever touches
floating point.  The term kernels do not step over Fractions, though:
with D the scale of the recurrence (den c_k | D^k, _rec_scale) and E the
lcm of the initial-term denominators, x(n) = E D^n a(n) is an integer
sequence with the integer recurrence w_k = c_k D^k (_integer_image).
_image steps it on Python ints and returns (E, D, x).  The closure ops
build their results' integer recurrences from their operands' w and
build no Fraction per term; dimer_seq builds its own from power sums.
_lowest_terms reads an image's minimal integer recurrence off its
generating function in lowest terms (int_poly_gcd), and _encoding, the one
encoder, turns the image into a CFiniteSeq, for minimize, the closure ops
and dimer_seq.  eval_terms wraps _image with one Fraction per output term,
and eval_at computes one term of the image.  The same w scales the
characteristic roots of the product test in roots.py.

Polynomial is the value type of generating functions.  Polynomial arithmetic
runs on ascending integer lists, and all of its kernels live here: the gcd with
its cofactors (one integer gcd at 2^k), exact division, products, the Taylor
shift, Yun's square-free parts, Horner evaluation, power sums, _mulmod, _zpow,
the fraction-free determinant _det (dimers' norms) and factor.py's Euclid
over Z/p.
Polynomials in several parameters, over Z, are dicts from exponent tuples to
ints (mpoly_dot, mpoly_eval): guess.verify_parametric_identity works on them.
This module imports no other module of the package.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import zip_longest
from math import gcd, isqrt, lcm
from operator import add, mul


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def _clear_denominators(values):
    """(d, ints): d the lcm of the denominators of values (ints or Fractions)
    and ints a new list of the values times d; all-int input gives d = 1."""
    values = list(values)
    if all(type(x) is int for x in values):
        return 1, values
    d = lcm(*(x.denominator for x in values))
    return d, [x.numerator * (d // x.denominator) for x in values]


def content(values) -> Fraction:
    """The positive rational c for which values / c are coprime integers.

    All-zero (or empty) input has content 1.
    """
    d, ints = _clear_denominators(values)
    g = gcd(*ints)
    return Fraction(g, d) if g else Fraction(1)


class Polynomial:
    """Dense univariate polynomial over Q; index = exponent.

    Immutable.  Trailing zero coefficients are stripped, so the zero
    polynomial has an empty coefficient tuple and degree -1.  The package
    runs none of its operators; +, * and divmod stay for the benchmark.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("Polynomial is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(self[k] + other[k] for k in range(n))

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.is_zero() or other.is_zero():
            return Polynomial()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    def __divmod__(self, other: "Polynomial"):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(self.coeffs) - len(other.coeffs)
        if dq < 0:
            return Polynomial(), self
        quo = [Fraction(0)] * (dq + 1)
        lead = other.coeffs[-1]
        for k in range(dq, -1, -1):
            c = rem[k + other.degree] / lead
            quo[k] = c
            if c != 0:
                for j, b in enumerate(other.coeffs):
                    rem[k + j] -= c * b
        return Polynomial(quo), Polynomial(rem[: other.degree])

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"

    def __str__(self):
        return format_poly(self)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; these bases decide every n < 3.3 * 10^24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2:
        return False
    for b in bases:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primitive(f: list) -> list:
    """f over its content, with positive leading coefficient (f = [] stays)."""
    if not f:
        return f
    c = gcd(*f) if f[-1] > 0 else -gcd(*f)
    return [x // c for x in f]


def _gcd_mod(a: list, b: list, p: int) -> list:
    """Monic gcd of two nonzero polynomials over Z/p, ascending lists: the
    root grid's kernel, called by factor._split_prime and factor._roots_mod.

    Remainders are reduced mod p once per division, not per step, and a
    nonzero constant remainder ends the loop: the gcd is 1, with no
    further inverse mod p.
    """
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        inv, db, r = pow(b[-1], -1, p), len(b) - 1, list(a)
        for k in range(len(r) - 1 - db, -1, -1):
            c = r[k + db] * inv % p
            if c:
                r[k : k + db] = [x - c * y for x, y in zip(r[k : k + db], b)]
        r = [x % p for x in r[:db]]
        while r and not r[-1]:
            r.pop()
        a, b = b, r
    if b:
        return [1]
    inv = pow(a[-1], -1, p)
    return [x * inv % p for x in a]


def int_poly_quo(a: list, b: list, bound: int = 0):
    """a / b for integer coefficient lists (ascending), or None if b does not
    divide a in Z[z].

    With a bound, gives up (None) as soon as a quotient coefficient exceeds
    it in absolute value.
    """
    db, lead = len(b) - 1, b[-1]
    if len(a) <= db:
        return None if any(a) else []
    rem, quo = list(a), [0] * (len(a) - db)
    for k in range(len(quo) - 1, -1, -1):
        c, r = divmod(rem[k + db], lead)
        if r or (bound and abs(c) > bound):
            return None
        quo[k] = c
        if c:
            rem[k : k + db] = [x - c * y for x, y in zip(rem[k : k + db], b)]
    return None if any(rem[:db]) else quo


def int_poly_mul(f: list, g: list) -> list:
    """f g for nonempty integer coefficient lists (ascending), of length
    len(f) + len(g) - 1: trailing zeros are kept, not stripped."""
    prod = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        if x:
            for j, y in enumerate(g):
                prod[i + j] += x * y
    return prod


def _taylor_shift(f: list, a: int) -> list:
    """f(z + a) for the integer coefficient list f (ascending), by the
    classical O(n^2) repeated synthetic division."""
    f = list(f)
    for i in range(len(f) - 1):
        for j in range(len(f) - 2, i - 1, -1):
            f[j] += a * f[j + 1]
    return f


def int_poly_gcd(a: list, b: list):
    """(g, a / g, b / g): g the primitive gcd with positive leading
    coefficient of two integer coefficient lists (ascending, no trailing
    zeros; ([], [], []) for two zero operands), by the heuristic gcd of
    Char, Geddes and Gonnet (1989) at xi = 2^k.

    The symmetric base-xi digits of G = gcd(a(xi), b(xi)) form H, H(xi) = G,
    and the candidate h is H's primitive part.  With xi > 2 m + 2,
    m = min(||a||, ||b||), an h that divides both operands is the gcd: g = h q
    and g(xi) | cont(H) h(xi) give q(xi) | cont(H), |cont(H)| <= xi / 2, but
    a non-constant q, its roots below 1 + m, has |q(xi)| > xi / 2.  A failed
    candidate doubles k; G is |g(xi)| times a divisor of Res(a / g, b / g),
    so a large enough xi gives h = g.
    A trial division of f ends at the first quotient coefficient beyond
    Mignotte's bound 2^j * ||f||_2 (j the quotient's degree): the quotient by
    the true gcd is a factor of f in Z[z], so it never gets there, and an h
    of higher degree than f fails at once.  The two cofactors are the
    quotients of the check that succeeds.
    """
    if not a or not b:
        g = _primitive(a or b)
        return g, *([f[-1] // g[-1]] if f else [] for f in (a, b))
    k, norms = (2 * min(max(map(abs, a)), max(map(abs, b))) + 2).bit_length(), None
    while True:
        h = _primitive(_unpack(gcd(_pack(a, k), _pack(b, k)), k))
        if len(h) == 1:
            return [1], a, b
        norms = norms or [isqrt(sum(x * x for x in f)) + 1 for f in (a, b)]
        quos = []
        for f, n in zip((a, b), norms):
            if (q := int_poly_quo(f, h, n << max(len(f) - len(h), 0))) is None:
                break
            quos.append(q)
        else:
            return h, *quos
        k *= 2


# _pack and _unpack cut longer lists in halves: one shift of the whole
# growing integer per coefficient would be quadratic
_LEAF = 32


def _pack(f: list, k: int) -> int:
    """f(2^k) for the integer coefficient list f (ascending)."""
    if len(f) > _LEAF:
        m = len(f) // 2
        return _pack(f[:m], k) + (_pack(f[m:], k) << m * k)
    v = 0
    for c in reversed(f):
        v = (v << k) + c
    return v


def _unpack(v: int, k: int) -> list:
    """The ascending digits of v in base 2^k (k >= 2), each in
    (-2^(k-1), 2^(k-1)]; above _LEAF digits, those of the low and high
    halves, the low half's digits carrying at most 1 into the high half."""
    if v.bit_length() > _LEAF * k:
        m = -(-v.bit_length() // k) // 2
        low = _unpack(v & ((1 << m * k) - 1), k)
        carry = low.pop() if len(low) > m else 0
        return low + [0] * (m - len(low)) + _unpack((v >> m * k) + carry, k)
    mask, half, digits = (1 << k) - 1, 1 << (k - 1), []
    while v:
        c = v & mask
        if c > half:
            c -= 1 << k
        digits.append(c)
        v = (v >> k) + (c < 0)
    return digits


def _derivative(f) -> list:
    return [k * f[k] for k in range(1, len(f))]


def _sub(f: list, g: list) -> list:
    out = [x - y for x, y in zip_longest(f, g, fillvalue=0)]
    while out and not out[-1]:
        out.pop()
    return out


def _square_free(f: list) -> list:
    """Yun's square-free decomposition of the integer polynomial f (ascending
    coefficients): the pairs (k, a_k), a_k the primitive product of the
    distinct roots of multiplicity k, for each k with a_k not constant.

    Every gcd is primitive, so each division is exact in Z[z] (Gauss's
    lemma); int_poly_gcd's cofactors are those quotients, so no division
    runs twice.
    """
    _, c, d = int_poly_gcd(f, _derivative(f))
    d = _sub(d, _derivative(c))
    parts, k = [], 1
    while len(c) > 1:
        a, c, d = int_poly_gcd(c, d)
        d = _sub(d, _derivative(c))
        if len(a) > 1:
            parts.append((k, a))
        k += 1
    return parts


def _horner(f: list, x: int) -> int:
    """f(x) for the integer coefficient list f (ascending)."""
    v = 0
    for a in reversed(f):
        v = v * x + a
    return v


def format_signed_sum(terms) -> str:
    """``c1*m1 + c2*m2 - ...`` from (coefficient, monomial text) pairs.

    Zero coefficients are skipped and a magnitude of 1 is elided before a
    monomial; an empty monomial text is a constant term.
    """
    parts = []
    for c, mono in terms:
        if not c:
            continue
        mag = abs(c)
        if not mono:
            body = str(mag)
        else:
            body = mono if mag == 1 else f"{mag}*{mono}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def format_poly(p: Polynomial) -> str:
    """Sparse ascending-power rendering, e.g. ``1 - z - z^2``."""

    def power(k):
        return "" if k == 0 else "z" if k == 1 else f"z^{k}"

    return format_signed_sum((c, power(k)) for k, c in enumerate(p.coeffs)) or "0"


class CFiniteSeq:
    """A linear recurrence with constant coefficients plus initial terms.

    Immutable; ``init`` and ``rec`` are equal-length tuples of Fractions,
    length >= 1.
    """

    __slots__ = ("init", "rec")

    def __init__(self, init: Sequence, rec: Sequence):
        init = tuple(_as_fraction(x) for x in init)
        rec = tuple(_as_fraction(x) for x in rec)
        if len(init) != len(rec) or not init:
            raise ValueError("init and rec must have equal length L >= 1")
        object.__setattr__(self, "init", init)
        object.__setattr__(self, "rec", rec)

    def __setattr__(self, *a):
        raise AttributeError("CFiniteSeq is immutable")

    @property
    def order(self) -> int:
        return len(self.rec)

    def __eq__(self, other) -> bool:
        """Representation equality (same init and rec), not sequence equality."""
        return (
            isinstance(other, CFiniteSeq)
            and self.init == other.init
            and self.rec == other.rec
        )

    def __hash__(self):
        return hash((self.init, self.rec))

    def __repr__(self):
        return f"CFiniteSeq({list(self.init)!r}, {list(self.rec)!r})"

    def __str__(self):
        return format_seq(self)


def _coprime_base(numbers) -> list:
    """Pairwise coprime integers > 1 of which each number is a product.

    Gcds only, no factoring (a coprime base; Bernstein 2005).  Replacing
    b and n by g = gcd(b, n), b/g and n/g keeps every number a product of
    the pool and shrinks the pool's product, so the loop ends.
    """
    base, todo = [], [n for n in numbers if n > 1]
    while todo:
        n = todo.pop()
        for i, b in enumerate(base):
            g = gcd(n, b)
            if g > 1:
                del base[i]
                todo += [x for x in (g, b // g, n // g) if x > 1]
                break
        else:
            base.append(n)
    return base


def _valuation(n: int, b: int) -> int:
    k = 0
    while n % b == 0:
        n, k = n // b, k + 1
    return k


def _rec_scale(rec) -> int:
    """A D > 0 with den(c_k) | D^k for every k, far smaller than the lcm
    of the denominators when the den(c_k) grow like a k-th power.

    Over a coprime base of the denominators, each base element b enters D
    with the exponent max_k ceil(v_b(den c_k) / k).  That is the least such
    D when the base elements are primes; a composite one (27 for den c_3 =
    27, where D = 3 would do) costs its k-th root, not a factoring.
    """
    dens = [c.denominator for c in rec]
    D = 1
    for b in _coprime_base(dens):
        D *= b ** max(-(-_valuation(d, b) // k) for k, d in enumerate(dens, start=1))
    return D


def _integral_rec(rec, D=None) -> list:
    """The integer recurrence w_k = c_k D^k (D = _rec_scale(rec) by default).

    If a(n) has the recurrence c, then D^n a(n) has the recurrence w, and
    the scaled characteristic roots D gamma_i are algebraic integers.
    """
    if D is None:
        D = _rec_scale(rec)
    w = []
    for k, c in enumerate(rec, start=1):
        scale, r = divmod(D**k, c.denominator)
        assert r == 0, (D, k, c)
        w.append(c.numerator * scale)
    return w


def _integer_image(seq: CFiniteSeq):
    """(E, D, w, b0): the integer sequence b(n) = E D^n a(n) has the
    recurrence w = _integral_rec(seq.rec) and the initial terms b0.

    D is _rec_scale(seq.rec) and E the lcm of the initial-term denominators.
    """
    D = _rec_scale(seq.rec)
    E, b0 = _clear_denominators(seq.init)
    b0 = [x * D**i for i, x in enumerate(b0)]
    return E, D, _integral_rec(seq.rec, D), b0


def _step(w: list, x: list, N: int) -> list:
    """x, its len(w) initial terms extended in place to the first N terms
    of the integer sequence with the recurrence w."""
    del x[N:]
    L, wr = len(w), w[::-1]
    for n in range(L, N):
        x.append(sum(map(mul, wr, x[n - L :])))
    return x


def _image(seq: CFiniteSeq, N: int):
    """(E, D, x): x the first N terms of the integer image x(n) = E D^n a(n)
    (_integer_image), stepped on Python ints by the recurrence w."""
    E, D, w, x = _integer_image(seq)
    return E, D, _step(w, x, N)


def eval_terms(seq: CFiniteSeq, N: int) -> list:
    """First N terms, exactly, as Fractions.

    The terms past the initial ones are the integer image (_image) over
    E D^n, one Fraction each; the initial terms are seq.init's.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    terms = list(seq.init[:N])
    L = len(terms)
    if N <= L:
        return terms
    E, D, x = _image(seq, N)
    return terms + _over(x[L:], E * D**L, D)


def _over(x: list, den: int, D: int) -> list:
    """The Fractions x(n) / (den D^n), n = 0, 1, ..., of the ints x."""
    if den == D == 1:
        return list(map(Fraction, x))
    out = []
    for v in x:
        out.append(Fraction(v, den))
        den *= D
    return out


def _mulmod(f: list, g: list, w: list) -> list:
    """f g modulo the monic z^L - w_1 z^(L-1) - ... - w_L, on int lists
    (ascending, length L)."""
    L, prod = len(w), int_poly_mul(f, g)
    for k in range(2 * L - 2, L - 1, -1):
        x = prod.pop()
        if x:
            for j, y in enumerate(w, start=1):
                prod[k - j] += x * y
    return prod


def _shiftmod(f: list, w: list) -> list:
    """z f modulo the same monic polynomial as _mulmod."""
    x, out = f[-1], [0] + f[:-1]
    return [u + x * v for u, v in zip(out, reversed(w))] if x else out


def _det(rows) -> int:
    """The determinant of a square int matrix, given as its rows, by
    Bareiss's fraction-free elimination: each step's entries are minors of
    the matrix, so the division by the previous pivot is exact.  A row swap
    flips the sign, a column with no pivot gives 0, and k = 0 gives 1."""
    a, k, sign, prev = [list(row) for row in rows], len(rows), 1, 1
    for c in range(k):
        if not a[c][c]:
            i = next((i for i in range(c + 1, k) if a[i][c]), None)
            if i is None:
                return 0
            a[c], a[i], sign = a[i], a[c], -sign
        top = a[c]
        p = top[c]
        for row in a[c + 1 :]:
            f = row[c]
            for j in range(c + 1, k):
                row[j] = (p * row[j] - f * top[j]) // prev
        prev = p
    return sign * prev


def _zpow(n: int, w: list, mulmod=_mulmod, shiftmod=_shiftmod) -> list:
    """z^n modulo the monic polynomial of _mulmod, squaring and shifting down
    the bits of n; the steps may also reduce mod p (factor._zpow_mod)."""
    r = [1] + [0] * (len(w) - 1)
    for bit in bin(n)[2:]:
        r = mulmod(r, r, w)
        if bit == "1":
            r = shiftmod(r, w)
    return r


def _power_sums(rec, K) -> list:
    """Power sums p(0..K) of the roots of z^L - c_1 z^(L-1) - ... - c_L.

    Newton's identities give p(1..L); past L they are the recurrence itself.
    """
    L, p = len(rec), [len(rec)]
    for k in range(1, K + 1):
        s = sum(rec[i] * p[k - 1 - i] for i in range(min(k - 1, L)))
        p.append(s + k * rec[k - 1] if k <= L else s)
    return p


def _from_power_sums(p, N) -> list:
    """The c_1, ..., c_N of z^N - c_1 z^(N-1) - ... - c_N whose roots have
    the power sums p(1..N), by Newton's identities: _power_sums inverted.

    Integer power sums divide exactly by k when the roots are algebraic
    integers, whose c_k are then integers; Fractions divide as Fractions.
    """
    c = []
    for k in range(1, N + 1):
        x = p[k] - sum(c[i] * p[k - 1 - i] for i in range(k - 1))
        c.append(x // k if isinstance(x, int) else x / k)
    return c


# --- multivariate integer polynomials ----------------------------------------
#
# A polynomial in parameters x_1, ..., x_k is a dict from exponent tuples
# (e_1, ..., e_k) to nonzero ints; {} is 0.

def mpoly_dot(ps, qs) -> dict:
    """sum_i ps[i] * qs[i] over the pairs zip gives."""
    out = {}
    get = out.get
    for p, q in zip(ps, qs):
        for e, c in p.items():
            for f, d in q.items():
                k = tuple(map(add, e, f))
                out[k] = get(k, 0) + c * d
    return {k: v for k, v in out.items() if v}


def mpoly_eval(p: dict, point):
    """The value of p at a point, one value per parameter."""
    total = 0
    for exps, c in p.items():
        for x, e in zip(point, exps):
            if e:
                c *= x**e
        total += c
    return total


def format_mpoly(p: dict, names) -> str:
    """``4*a^2*b - 1``: the terms by descending exponent tuple."""

    def monomial(exps):
        return "*".join(x if e == 1 else f"{x}^{e}" for x, e in zip(names, exps) if e)

    return format_signed_sum((c, monomial(e)) for e, c in sorted(p.items(), reverse=True)) or "0"


def eval_at(seq: CFiniteSeq, n: int):
    """Single term a(n) by Fiduccia's method, as a Fraction.

    The integer image b(n) = E D^n a(n) (_integer_image) is annihilated by
    the monic integer polynomial P = z^L - w_1 z^(L-1) - ... - w_L, so with
    r(z) = z^n mod P we get b(n) = sum_i r_i b(i), and a(n) is the one
    Fraction b(n) / (E D^n).  r is found by binary powering (_zpow) in
    O(L^2 log n) integer operations, so large n is cheap as long as the
    terms themselves stay printable.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    L = seq.order
    if n < L:
        return seq.init[n]
    E, D, w, b = _integer_image(seq)
    return Fraction(sum(map(mul, _zpow(n, w), b)), E * D**n)


def shift(seq: CFiniteSeq, k: int) -> CFiniteSeq:
    """The sequence n -> a(n+k); same recurrence, shifted initial terms."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return seq
    terms = eval_terms(seq, seq.order + k)
    return CFiniteSeq(terms[k:], seq.rec)


def scale(seq: CFiniteSeq, r) -> CFiniteSeq:
    """The sequence n -> r * a(n)."""
    r = _as_fraction(r)
    return CFiniteSeq([r * d for d in seq.init], seq.rec)


def _lowest_terms(w: list, b: list) -> list:
    """The minimal integer recurrence of the integer sequence b, read off
    its generating function in lowest terms: w itself when w already has
    the minimal order, [0] for the zero sequence.

    b holds at least L = len(w) terms of an integer sequence with the
    recurrence w.  A sequence is C-finite exactly when its generating
    function is rational, and with N/Q in lowest terms, Q(0) = 1, its
    minimal order is M = max(deg Q, deg N + 1) (Stanley 1986, EC I,
    Thm 4.1.1).  b has the generating function N/Q with
    Q = 1 - w_1 z - ... - w_L z^L and N = b Q mod z^L, and int_poly_gcd
    cancels their gcd exactly; its evaluation points only decide how soon
    it finishes.  The test is M = L, not a trivial gcd: w_L = 0 with a gcd
    of 1 has M < L.  Otherwise the recurrence is -Q_k / Q_0 = -Q_k Q_0,
    Q padded to degree M; Q_0 = +-1, since Q times the gcd is the Q above.
    """
    L = len(w)
    Q = _sub([1], [0, *w])
    N = [sum(map(mul, Q[: k + 1], reversed(b[: k + 1]))) for k in range(L)]
    while N and not N[-1]:
        N.pop()
    if not N:
        return w if w == [0] else [0]
    _, N, Q = int_poly_gcd(N, Q)
    M = max(len(Q) - 1, len(N))
    if M == L:
        return w
    return [-q * Q[0] for q in Q[1:]] + [0] * (M + 1 - len(Q))


def _encoding(E, D, w, b) -> CFiniteSeq:
    """The one encoder: a(n) = b(n) / (E D^n) for the integer image b with
    the recurrence w, as its first len(w) terms and c_k = w_k / D^k."""
    return CFiniteSeq(
        [Fraction(x, E * D**n) for n, x in enumerate(b[: len(w)])],
        [Fraction(c, D**k) for k, c in enumerate(w, start=1)],
    )


def minimize(seq: CFiniteSeq) -> CFiniteSeq:
    """Unique minimal-order representation of the same sequence: the
    integer image's recurrence in lowest terms (_lowest_terms), encoded.

    An input already of minimal order is returned itself; the zero
    sequence gives [[0], [0]].
    """
    E, D, w, b = _integer_image(seq)
    found = _lowest_terms(w, b)
    return seq if found is w else _encoding(E, D, found, b)


# --- canonical text encoding ------------------------------------------------

def format_rational(x: Fraction) -> str:
    x = _as_fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def format_seq(seq: CFiniteSeq) -> str:
    """Canonical ``[[d1, ..., dL], [c1, ..., cL]]`` encoding."""
    init = ", ".join(format_rational(d) for d in seq.init)
    rec = ", ".join(format_rational(c) for c in seq.rec)
    return f"[[{init}], [{rec}]]"


_SEQ_RE = re.compile(
    r"^\s*\[\s*\[(?P<init>[^\]]*)\]\s*,\s*\[(?P<rec>[^\]]*)\]\s*\]\s*$"
)


def parse_rational(text: str) -> Fraction:
    """A literal like ``-3/4`` or ``0.5``; ValueError on bad input, x/0 and 1e9 included."""
    if "e" in text.lower():
        raise ValueError(f"not a rational literal (exponent notation is refused): {text.strip()!r}")
    literal = text.strip().replace(" ", "")
    # int reads the integer forms that Fraction reads, without its regex;
    # Fraction reads "_" only from Python 3.11 on, and words the errors
    if "/" not in literal and "." not in literal and "_" not in literal:
        try:
            return Fraction(int(literal))
        except ValueError:
            pass
    try:
        return Fraction(literal)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text.strip()!r}") from None


def parse_seq(text: str) -> CFiniteSeq:
    """Parse the ``[[...],[...]]`` encoding (whitespace-insensitive)."""
    m = _SEQ_RE.match(text)
    if not m:
        raise ValueError(f"not a sequence literal: {text!r}")
    init = [parse_rational(t) for t in m.group("init").split(",") if t.strip()]
    rec = [parse_rational(t) for t in m.group("rec").split(",") if t.strip()]
    return CFiniteSeq(init, rec)
