"""Registry of named sequences and parametric families.

Chebyshev families are stored at rational specializations of the
parameter, never symbolically; parametric identities are proved by grid
specialization in the guess module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .core import CFiniteSeq, Polynomial
from .gf import RationalGF
from .guess import mul


class UnknownSequenceError(KeyError):
    pass


class ArityMismatchError(ValueError):
    pass


@dataclass(frozen=True)
class NamedSequence:
    name: str
    arity: int
    builder: Callable
    description: str


def chebyshev_u(x) -> CFiniteSeq:
    """U_n(x): U_0 = 1, U_1 = 2x, U_{n+1} = 2x U_n - U_{n-1}."""
    x = Fraction(x)
    return CFiniteSeq([1, 2 * x], [2 * x, -1])


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
# Closed-form generating functions for products of Chebyshev U values,
# usable as right-hand sides for grid-based identity verification.

def shapiro_product_lhs(a, b) -> CFiniteSeq:
    """The sequence n -> U_n(a) U_n(b)."""
    return mul(chebyshev_u(a), chebyshev_u(b))


def shapiro_product_gf(a, b):
    """GF of U_n(a) U_n(b): (1 - t^2) / (1 - 4abt - (-4a^2+2-4b^2)t^2 - 4abt^3 + t^4)."""
    a, b = Fraction(a), Fraction(b)
    num = Polynomial([1, 0, -1])
    den = Polynomial(
        [1, -4 * a * b, -(-4 * a**2 + 2 - 4 * b**2), -4 * a * b, 1]
    )
    return RationalGF(num, den)


def ekhad_product_lhs(a, b, c) -> CFiniteSeq:
    """The sequence n -> U_n(a) U_n(b) U_n(c)."""
    return mul(mul(chebyshev_u(a), chebyshev_u(b)), chebyshev_u(c))


def ekhad_product_gf(a, b, c):
    """GF of U_n(a) U_n(b) U_n(c): degree-6 numerator over degree-8 denominator."""
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    even = -4 * a**2 - 4 * b**2 - 4 * c**2 + 3
    num = Polynomial([1, 0, even, 16 * a * b * c, even, 0, 1])
    d6 = (
        16 * a**2 * b**2
        + 16 * a**2 * c**2
        - 8 * a**2
        + 16 * b**2 * c**2
        - 8 * b**2
        - 8 * c**2
        + 4
    )
    d5 = -32 * a**3 * b * c + 40 * a * b * c - 32 * a * b**3 * c - 32 * a * b * c**3
    d4 = (
        16 * a**4
        + 64 * a**2 * b**2 * c**2
        - 16 * a**2
        + 16 * b**4
        - 16 * b**2
        + 6
        + 16 * c**4
        - 16 * c**2
    )
    den = Polynomial(
        [1, -8 * a * b * c, d6, d5, d4, d5, d6, -8 * a * b * c, 1]
    )
    return RationalGF(num, den)
