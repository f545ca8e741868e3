"""Exact arithmetic foundation: value types and integer polynomial kernels.

A sequence is stored as ``[[d_1, ..., d_L], [c_1, ..., c_L]]``: the first
block holds the initial terms a(0)..a(L-1), the second the recurrence
coefficients of

    a(n) = c_1 a(n-1) + c_2 a(n-2) + ... + c_L a(n-L).

All values are `fractions.Fraction`; nothing in this module ever touches
floating point.  The term kernels (eval_terms, eval_at) do not step over
Fractions, though: with D the scale of the recurrence (den c_k | D^k,
_rec_scale) and E the lcm of the initial-term denominators,
b(n) = E D^n a(n) is an integer sequence with the integer recurrence
w_k = c_k D^k (_integer_image), so they run on Python ints and build one
Fraction per output term.  The same w scales the characteristic roots of
the product test in roots.py.

Polynomial is the value type of generating functions.  Polynomial arithmetic
runs on ascending integer lists, and all of its kernels live here: the modular
gcd, exact division, Yun's square-free parts, power sums, _mulmod and _zpow.
Polynomials in several parameters, over Z, are dicts from exponent tuples to
ints (mpoly_dot, mpoly_eval): guess.verify_parametric_identity works on them.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache
from itertools import count, zip_longest
from math import gcd, isqrt, lcm
from operator import add, mul
from typing import Iterable, Sequence


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


@cache
def _prime(i: int) -> int:
    """The i-th prime below 2^61, counting down from 2^61 - 1 (i = 0)."""
    n = _prime(i - 1) - 2 if i else (1 << 61) - 1
    while not _is_prime(n):
        n -= 2
    return n


def _primitive(f: list) -> list:
    """f over its content, with positive leading coefficient (f = [] stays)."""
    if not f:
        return f
    c = gcd(*f) if f[-1] > 0 else -gcd(*f)
    return [x // c for x in f]


def _gcd_mod(a: list, b: list, p: int) -> list:
    """Monic gcd of two nonzero polynomials over Z/p, ascending lists.

    Remainders are reduced mod p once per division, not per step.
    """
    if len(a) < len(b):
        a, b = b, a
    while b:
        inv, db, r = pow(b[-1], -1, p), len(b) - 1, list(a)
        for k in range(len(r) - 1 - db, -1, -1):
            c = r[k + db] * inv % p
            if c:
                r[k : k + db] = [x - c * y for x, y in zip(r[k : k + db], b)]
        r = [x % p for x in r[:db]]
        while r and not r[-1]:
            r.pop()
        a, b = b, r
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


def int_poly_gcd(a: list, b: list) -> list:
    """Primitive gcd with positive leading coefficient of two integer
    coefficient lists (ascending, no trailing zeros; [] for two zero
    operands), by Brown's modular algorithm.

    The gcd is computed modulo 61-bit primes that divide neither leading
    coefficient; each monic image is scaled to lc = gcd(lc a, lc b), images
    of the smallest degree seen are joined by CRT, and the primitive part of
    the symmetric lift is returned once it divides both inputs over Z.  No
    image has a smaller degree than the true gcd, and no common divisor a
    larger one, so the answer is exact: the primes only decide how soon it is
    found.  The trial division runs after the first image of a degree (small
    gcds are found there) and afterwards only when a new prime leaves the
    symmetric lift unchanged, which it does once the modulus exceeds twice
    the scaled gcd's coefficients; a failed check only means more primes.
    A trial division of f ends at the first quotient coefficient beyond
    Mignotte's bound 2^k * ||f||_2 (k the quotient's degree): the quotient
    by the true gcd is a factor of f in Z[z], so it never gets there.
    """
    if not a or not b:
        return _primitive(a or b)
    gamma = gcd(a[-1], b[-1])
    norms = [isqrt(sum(x * x for x in f)) + 1 for f in (a, b)]
    modulus, lift = 1, []
    for p in map(_prime, count()):
        if a[-1] % p == 0 or b[-1] % p == 0:
            continue
        image = _gcd_mod([x % p for x in a], [x % p for x in b], p)
        if len(image) == 1:
            return [1]
        if lift and len(image) > len(lift):
            continue
        g = gamma % p
        image = [x * g % p for x in image]
        if not lift or len(image) < len(lift):
            modulus, lift, prev = p, image, None
        else:
            inv = pow(modulus, -1, p)
            lift = [u + modulus * ((v - u) * inv % p) for u, v in zip(lift, image)]
            modulus *= p
            prev = sym
        half = modulus // 2
        sym = [x - modulus if x > half else x for x in lift]
        if prev is not None and sym != prev:
            continue
        cand = _primitive(sym)
        if all(
            int_poly_quo(f, cand, n << (len(f) - len(cand))) is not None
            for f, n in zip((a, b), norms)
        ):
            return cand


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

    Every gcd is primitive, so each division is exact in Z[z] (Gauss's lemma).
    """
    df = _derivative(f)
    g = int_poly_gcd(f, df)
    c = int_poly_quo(f, g)
    d = _sub(int_poly_quo(df, g), _derivative(c))
    parts, k = [], 1
    while len(c) > 1:
        a = int_poly_gcd(c, d)
        c = int_poly_quo(c, a)
        d = _sub(int_poly_quo(d, a), _derivative(c))
        if len(a) > 1:
            parts.append((k, a))
        k += 1
    return parts


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


def eval_terms(seq: CFiniteSeq, N: int) -> list:
    """First N terms, exactly, as Fractions.

    The terms past the initial ones come from the integer image
    b(n) = E D^n a(n) (_integer_image), stepped on Python ints; each output
    term is one Fraction b(n) / (E D^n).  The initial terms are seq.init's.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    terms = list(seq.init[:N])
    L = len(terms)
    if N <= L:
        return terms
    E, D, w, b = _integer_image(seq)
    wr = w[::-1]
    for n in range(L, N):
        b.append(sum(map(mul, wr, b[n - L :])))
    if E == D == 1:
        terms += map(Fraction, b[L:])
    else:
        den = E * D**L
        for x in b[L:]:
            terms.append(Fraction(x, den))
            den *= D
    return terms


def _mulmod(f: list, g: list, w: list) -> list:
    """f g modulo the monic z^L - w_1 z^(L-1) - ... - w_L, on int lists
    (ascending, length L)."""
    L = len(w)
    prod = [0] * (2 * L - 1)
    for i, x in enumerate(f):
        if x:
            for j, y in enumerate(g):
                prod[i + j] += x * y
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


def minimize(seq: CFiniteSeq) -> CFiniteSeq:
    """Unique minimal-order representation of the same sequence.

    The shortest recurrence of 2L + 4 terms (one Berlekamp-Massey pass,
    through the closure driver with order bound L): the sequence has order
    at most L, so that fit is its minimal form, and guess_rec checks it
    against every term it is given.
    """
    from .guess import _close

    return _close("minimize", seq.order, lambda n: eval_terms(seq, n))


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
    try:
        return Fraction(text.strip().replace(" ", ""))
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
