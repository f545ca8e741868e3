"""Rational ordinary generating functions and conversion to/from recurrences.

The normal form used everywhere: denominator has constant term 1, the
numerator/denominator gcd is cancelled, and the numerator carries whatever
sign falls out.  Under that convention GF equality is a syntactic check.
It is computed on integer coefficient lists, by core.int_poly_gcd.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .core import CFiniteSeq, Polynomial, _clear_denominators, format_poly
from .core import int_poly_gcd, int_poly_quo, parse_rational


class RationalGF:
    """numerator / denominator in one formal variable, normalized on build."""

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial):
        if den.is_zero() or den[0] == 0:
            raise ValueError("denominator must have nonzero constant term")
        num, den = _normalize(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("RationalGF is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, RationalGF)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"RationalGF({self.num!r}, {self.den!r})"

    def __str__(self):
        return format_gf(self)


def _normalize(num: Polynomial, den: Polynomial):
    k = len(num.coeffs)
    _, ints = _clear_denominators(num.coeffs + den.coeffs)
    N, M = ints[:k], ints[k:]
    g = int_poly_gcd(N, M)  # primitive, so it divides both over Z (Gauss)
    N, M = int_poly_quo(N, g), int_poly_quo(M, g)
    return tuple(Polynomial(Fraction(x, M[0]) for x in f) for f in (N, M))


def c_to_r(seq: CFiniteSeq) -> RationalGF:
    """Generating function of a recurrence-defined sequence.

    Denominator is 1 - c_1 z - ... - c_L z^L; the numerator is the degree
    < L polynomial forced by the initial terms.
    """
    L = seq.order
    den = Polynomial([Fraction(1)] + [-c for c in seq.rec])
    # numerator = (series truncated to degree < L) * den, truncated again
    num = [Fraction(0)] * L
    for k in range(L):
        num[k] = sum(den[j] * seq.init[k - j] for j in range(k + 1))
    return RationalGF(Polynomial(num), den)


def r_to_c(gf: RationalGF) -> CFiniteSeq:
    """Recurrence representation of a rational power series.

    A numerator of degree >= the denominator's is absorbed by raising the
    order to deg(num) + 1, so non-proper inputs still convert.
    """
    if gf.num.is_zero():
        return CFiniteSeq([0], [0])
    L = max(gf.num.degree + 1, gf.den.degree)
    rec = [-gf.den[i] for i in range(1, L + 1)]
    init = taylor(gf, L)
    return CFiniteSeq(init, rec)


def taylor(gf: RationalGF, N: int) -> list:
    """First N power-series coefficients, exact (long division)."""
    if N < 0:
        raise ValueError("N must be >= 0")
    out = []
    d0 = gf.den[0]
    # only the nonzero d_j cost work, so sparse denominators stay cheap
    tail = [(j, d) for j, d in enumerate(gf.den.coeffs) if j and d]
    for n in range(N):
        acc = gf.num[n]
        for j, d in tail:
            if j > n:
                break
            acc -= d * out[n - j]
        out.append(acc / d0)
    return out


# --- text form ---------------------------------------------------------------

def format_gf(gf: RationalGF) -> str:
    return f"({format_poly(gf.num)})/({format_poly(gf.den)})"


_TERM_RE = re.compile(
    r"""\s*(?P<sign>[+-]?)\s*
        (?:
            (?P<coef>\d+(?:/\d+)?)\s*(?:\*\s*)?(?:(?P<var1>[zt])\s*(?:\^\s*(?P<exp1>\d+))?)?
          | (?P<var2>[zt])\s*(?:\^\s*(?P<exp2>\d+))?
        )""",
    re.VERBOSE,
)


def parse_poly(text: str) -> Polynomial:
    """Parse a sparse polynomial like ``1 - z - z^2`` or ``3/2*t^3``."""
    text = text.strip()
    if not text:
        raise ValueError("empty polynomial literal")
    if text == "0":
        return Polynomial()
    coeffs: dict[int, Fraction] = {}
    pos = 0
    varname = None
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot parse polynomial at: {text[pos:]!r}")
        sign = -1 if m.group("sign") == "-" else 1
        if m.group("var2"):
            v, e, c = m.group("var2"), m.group("exp2"), Fraction(1)
        else:
            c = parse_rational(m.group("coef"))
            v, e = m.group("var1"), m.group("exp1")
        if v is not None:
            if varname is None:
                varname = v
            elif v != varname:
                raise ValueError(f"mixed variables {varname!r} and {v!r}")
            k = int(e) if e else 1
        else:
            k = 0
        coeffs[k] = coeffs.get(k, Fraction(0)) + sign * c
        pos = m.end()
    n = max(coeffs) + 1
    return Polynomial([coeffs.get(k, Fraction(0)) for k in range(n)])


def parse_gf(text: str) -> RationalGF:
    """Parse ``(<num>)/(<den>)``; whitespace is free, variable z or t."""
    m = re.match(r"^\s*\((?P<num>[^()]*)\)\s*/\s*\((?P<den>[^()]*)\)\s*$", text)
    if m:
        return RationalGF(parse_poly(m.group("num")), parse_poly(m.group("den")))
    # a bare polynomial is fine too; it denotes itself over 1
    try:
        return RationalGF(parse_poly(text), Polynomial([1]))
    except ValueError:
        raise ValueError(f"not a GF literal: {text!r}") from None
