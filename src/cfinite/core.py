"""Exact arithmetic foundation: polynomials over Q and the sequence object.

A sequence is stored as ``[[d_1, ..., d_L], [c_1, ..., c_L]]``: the first
block holds the initial terms a(0)..a(L-1), the second the recurrence
coefficients of

    a(n) = c_1 a(n-1) + c_2 a(n-2) + ... + c_L a(n-L).

All values are `fractions.Fraction`; nothing in this module ever touches
floating point.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence


Rational = Fraction


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def content(values) -> Fraction:
    """The positive rational c for which values / c are coprime integers.

    All-zero (or empty) input has content 1.
    """
    values = [_as_fraction(v) for v in values]
    num = gcd(*(v.numerator for v in values))
    if num == 0:
        return Fraction(1)
    return Fraction(num, lcm(*(v.denominator for v in values)))


class Polynomial:
    """Dense univariate polynomial over Q; index = exponent.

    Immutable.  Trailing zero coefficients are stripped, so the zero
    polynomial has an empty coefficient tuple and degree -1.
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

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(self[k] - other[k] for k in range(n))

    def __neg__(self) -> "Polynomial":
        return Polynomial(-c for c in self.coeffs)

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

    def scale(self, r) -> "Polynomial":
        r = _as_fraction(r)
        return Polynomial(c * r for c in self.coeffs)

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

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def eval(self, x):
        acc = Fraction(0) if isinstance(x, (int, Fraction)) else 0 * x
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def monic(self) -> "Polynomial":
        if self.is_zero():
            return self
        return self.scale(1 / self.coeffs[-1])

    def primitive(self) -> "Polynomial":
        """Integer-content-1 version with positive leading coefficient."""
        if self.is_zero():
            return self
        c = content(self.coeffs)
        if self.coeffs[-1] < 0:
            c = -c
        return self.scale(1 / c)

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"

    def __str__(self):
        return format_poly(self, "z")


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd by the Euclidean algorithm over Q.

    Operands are taken primitive first so intermediate coefficient blow-up
    stays modest at the orders this package handles.
    """
    a, b = a.primitive(), b.primitive()
    while not b.is_zero():
        a, b = b, (a % b).primitive()
    return a.monic() if not a.is_zero() else a


def format_poly(p: Polynomial, var: str = "z") -> str:
    """Sparse ascending-power rendering, e.g. ``1 - z - z^2``."""
    if p.is_zero():
        return "0"
    parts = []
    for k, c in enumerate(p.coeffs):
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            x = var if k == 1 else f"{var}^{k}"
            body = x if mag == 1 else f"{mag}*{x}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


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

    def char_poly(self) -> Polynomial:
        """z^L - c_1 z^(L-1) - ... - c_L."""
        L = self.order
        cs = [Fraction(0)] * (L + 1)
        cs[L] = Fraction(1)
        for i, c in enumerate(self.rec, start=1):
            cs[L - i] = -c
        return Polynomial(cs)


ZERO_SEQ = CFiniteSeq([0], [0])


def eval_terms(seq: CFiniteSeq, N: int) -> list:
    """First N terms, exactly."""
    if N < 0:
        raise ValueError("N must be >= 0")
    L = seq.order
    terms = list(seq.init[:N])
    for n in range(len(terms), N):
        terms.append(sum(seq.rec[i] * terms[n - 1 - i] for i in range(L)))
    return terms


def eval_at(seq: CFiniteSeq, n: int):
    """Single term a(n) by Fiduccia's method.

    The shift operator annihilates the sequence through char_poly(), so
    with r(z) = z^n mod char_poly() we get a(n) = sum_i r_i a(i).  r is
    found by binary powering with Polynomial products and remainders:
    O(L^2 log n) coefficient operations, so large n is cheap as long as
    the terms themselves stay printable.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    L = seq.order
    if n < L:
        return seq.init[n]
    modulus = seq.char_poly()
    r, base = Polynomial([1]), Polynomial([0, 1]) % modulus
    while n:
        if n & 1:
            r = (r * base) % modulus
        n >>= 1
        if n:
            base = (base * base) % modulus
    return sum((r[i] * seq.init[i] for i in range(L)), Fraction(0))


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
    """A rational literal like ``-3/4``; ValueError on bad input, x/0 included."""
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
