"""Registry of named sequences and parametric families.

The registry's Chebyshev families are built at a rational value of the
parameter.  The product-of-Chebyshev identities are written once, over
Z[params] (integer polynomials as in core.mpoly_dot): the left side as its
factors' recurrences and initial terms, the right side as N(t)/D(t).  The
point builders evaluate these forms and carry them as `.symbolic`, and
guess.verify_parametric_identity proves them by one exact check in Z[params].
"""

from __future__ import annotations

import functools
from collections import namedtuple
from fractions import Fraction

from .core import CFiniteSeq, Polynomial, mpoly_eval
from .gf import RationalGF
from .guess import mul


class UnknownSequenceError(KeyError):
    pass


class ArityMismatchError(ValueError):
    pass


class NamedSequence(namedtuple("NamedSequence", "name arity builder description")):
    __slots__ = ()


def _u(i, k):
    """U_n(x_i) over Z[x_1, ..., x_k]: U_0 = 1, U_1 = 2x_i,
    U_{n+1} = 2x_i U_n - U_{n-1}."""
    one, x = (0,) * k, tuple(int(j == i) for j in range(k))
    return [{one: 1}, {x: 2}], [{x: 2}, {one: -1}]


def _seq_at(factor, point) -> CFiniteSeq:
    init, rec = factor
    return CFiniteSeq([mpoly_eval(p, point) for p in init], [mpoly_eval(p, point) for p in rec])


def chebyshev_u(x) -> CFiniteSeq:
    """U_n(x): U_0 = 1, U_1 = 2x, U_{n+1} = 2x U_n - U_{n-1}."""
    return _seq_at(_u(0, 1), [Fraction(x)])


def chebyshev_t(x) -> CFiniteSeq:
    """T_n(x): T_0 = 1, T_1 = x, same three-term recurrence as U."""
    x = Fraction(x)
    return CFiniteSeq([1, x], [2 * x, -1])


def geometric(r) -> CFiniteSeq:
    return CFiniteSeq([1], [Fraction(r)])


_REGISTRY: dict[str, NamedSequence] = {}


def _register(name, arity, builder, description):
    if name in _REGISTRY:
        raise ValueError(f"duplicate sequence name {name!r}")
    _REGISTRY[name] = NamedSequence(name, arity, builder, description)


_register("fibonacci", 0, lambda: CFiniteSeq([0, 1], [1, 1]), "Fibonacci numbers")
_register("lucas", 0, lambda: CFiniteSeq([2, 1], [1, 1]), "Lucas numbers")
_register("pell", 0, lambda: CFiniteSeq([0, 1], [2, 1]), "Pell numbers")
_register(
    "chebyshev_u", 1, chebyshev_u, "Chebyshev U_n(x) at a rational point x"
)
_register(
    "chebyshev_t", 1, chebyshev_t, "Chebyshev T_n(x) at a rational point x"
)
_register("geometric", 1, geometric, "geometric sequence r^n")
_register("natural", 0, lambda: CFiniteSeq([0, 1], [2, -1]), "0, 1, 2, 3, ...")
_register("zero", 0, lambda: CFiniteSeq([0], [1]), "the zero sequence")
_register("one", 0, lambda: CFiniteSeq([1], [1]), "the all-ones sequence")


def names() -> list[str]:
    return sorted(_REGISTRY)


def describe(name: str) -> NamedSequence:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownSequenceError(name) from None


def lookup(name: str, params=()) -> CFiniteSeq:
    entry = describe(name)
    params = [Fraction(p) for p in params]
    if len(params) != entry.arity:
        raise ArityMismatchError(
            f"{name} takes {entry.arity} parameter(s), got {len(params)}"
        )
    return entry.builder(*params)


# --- product-of-Chebyshev identities -----------------------------------------
#
# Closed-form generating functions of products of Chebyshev U values.  Each
# identity is typed once, as the `.symbolic` form of its two point builders.

def _product_at(factors, point) -> CFiniteSeq:
    point = [Fraction(x) for x in point]
    return functools.reduce(mul, (_seq_at(f, point) for f in factors))


def _gf_at(gf, point) -> RationalGF:
    point = [Fraction(x) for x in point]
    num, den = ([mpoly_eval(p, point) for p in f] for f in gf)
    return RationalGF(Polynomial(num), Polynomial(den))


def shapiro_product_lhs(a, b) -> CFiniteSeq:
    """The sequence n -> U_n(a) U_n(b)."""
    return _product_at(shapiro_product_lhs.symbolic, (a, b))


def shapiro_product_gf(a, b):
    """GF of U_n(a) U_n(b): (1 - t^2) / (1 - 4abt - (-4a^2+2-4b^2)t^2 - 4abt^3 + t^4)."""
    return _gf_at(shapiro_product_gf.symbolic, (a, b))


def ekhad_product_lhs(a, b, c) -> CFiniteSeq:
    """The sequence n -> U_n(a) U_n(b) U_n(c)."""
    return _product_at(ekhad_product_lhs.symbolic, (a, b, c))


def ekhad_product_gf(a, b, c):
    """GF of U_n(a) U_n(b) U_n(c): degree-6 numerator over degree-8 denominator."""
    return _gf_at(ekhad_product_gf.symbolic, (a, b, c))


shapiro_product_lhs.symbolic = [_u(0, 2), _u(1, 2)]
shapiro_product_gf.symbolic = (
    [{(0, 0): 1}, {}, {(0, 0): -1}],
    [
        {(0, 0): 1},
        {(1, 1): -4},
        {(2, 0): 4, (0, 0): -2, (0, 2): 4},
        {(1, 1): -4},
        {(0, 0): 1},
    ],
)

ekhad_product_lhs.symbolic = [_u(0, 3), _u(1, 3), _u(2, 3)]
# even = -4a^2 - 4b^2 - 4c^2 + 3
_EVEN = {(2, 0, 0): -4, (0, 2, 0): -4, (0, 0, 2): -4, (0, 0, 0): 3}
# d6 = 16a^2b^2 + 16a^2c^2 + 16b^2c^2 - 8a^2 - 8b^2 - 8c^2 + 4
_D6 = {
    (2, 2, 0): 16, (2, 0, 2): 16, (0, 2, 2): 16,
    (2, 0, 0): -8, (0, 2, 0): -8, (0, 0, 2): -8, (0, 0, 0): 4,
}
# d5 = -32a^3bc - 32ab^3c - 32abc^3 + 40abc
_D5 = {(3, 1, 1): -32, (1, 3, 1): -32, (1, 1, 3): -32, (1, 1, 1): 40}
# d4 = 16a^4 + 16b^4 + 16c^4 + 64a^2b^2c^2 - 16a^2 - 16b^2 - 16c^2 + 6
_D4 = {
    (4, 0, 0): 16, (0, 4, 0): 16, (0, 0, 4): 16, (2, 2, 2): 64,
    (2, 0, 0): -16, (0, 2, 0): -16, (0, 0, 2): -16, (0, 0, 0): 6,
}
_ONE, _ABC = {(0, 0, 0): 1}, {(1, 1, 1): -8}
ekhad_product_gf.symbolic = (
    [_ONE, {}, _EVEN, {(1, 1, 1): 16}, _EVEN, {}, _ONE],
    [_ONE, _ABC, _D6, _D5, _D4, _D5, _D6, _ABC, _ONE],
)
