"""The product test: exact repetition profiles of characteristic-root ratios.

A sequence of order L with distinct characteristic roots alpha_i has a
Binet form sum C_i alpha_i^n.  If the sequence is a termwise product, its
root set is the Cartesian product of the factors' root sets, and the
multiset of the L^2 pairwise root ratios then shows a telltale
repetition pattern.  prod_indicator computes that pattern
combinatorially for generic factors; is_prod / is_prod_g measure it
exactly and compare the two.

The measurement is on integers.  With z scaled by a D built over a
coprime base of the denominators, the L^2 - L off-diagonal ratios times
a constant c are algebraic integers r_ij, and they pair up:
r_ij r_ji = c^2.  So their polynomial folds to S(w) of degree
(L^2 - L)/2 in w = z + c^2/z, with one root r_ij + r_ji per pair.
Power sums and Newton's identities give S exactly.  The profile is read
in u = w/|c|: the primitive polynomial with S's roots over |c| drops the
factor c^(N-k) that S's coefficient of w^k carries, so its coefficients
are far smaller.  Yun's square-free decomposition (with the integer gcd of
core) gives its multiplicities, and each u-root of multiplicity k unfolds
into two ratios of multiplicity k.  The one exception is u = -2 sign(c)
(w = -2c, gamma_i = -gamma_j), which unfolds into the single ratio -c of
multiplicity 2k.

The product test and both factorisers share one front, _minimal: it
checks the orders, minimises, and refuses a minimal order other than
their product (OrderMismatchError) and a root z = 0 (ValueError), so
nothing past it meets either.

A "yes" means the observed profile matches or coarsens the generic one;
only a factor certificate (factorize_roots, factorize_integer) proves
that the sequence is a product.  A "no" is definitive only generically.
Diagnostics always carry both profiles.  Repeated roots are refused
after the front, where each method finds them cheapest: the product test
reads them off T, whose root u = 2 sign(c) (w = 2c) means gamma_i =
gamma_j, and the factorisers, whose root grid builds no T, test
gcd(P, P') (_require_simple_roots) before any route.  Nothing here finds
a root: the root grid of factorize_roots, over Z/p^N, is in factor.py, and
the integer kernels (power sums, Yun's decomposition, the integer gcd) are
core's.  The exact order-2 route of factorize_roots reads the u-polynomial
from _ratio_quotient.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple

from .core import CFiniteSeq, _integral_rec, int_poly_gcd, int_poly_quo, minimize
from .core import _derivative, _from_power_sums, _horner, _power_sums, _primitive, _square_free

# largest product L of factor orders prod_indicator accepts; its profile
# classifies the L^2 root ratios, which this caps at 2^20
PROFILE_ORDER_LIMIT = 1024


class OrderMismatchError(ValueError):
    """Minimal order does not match the requested factor orders."""


class DegenerateRootsError(ArithmeticError):
    """Multiple characteristic roots (found exactly, off T or by gcd(P, P'))."""


_DEGENERATE = "multiple characteristic roots: the ratio profile is undefined"


class PrecisionError(ArithmeticError):
    """The root grid certified no answer: its p-adic lift or split-prime search ran out."""


class RepetitionProfile(namedtuple("RepetitionProfile", "multiplicities")):
    """Sorted multiset of ratio-class multiplicities."""

    __slots__ = ()

    def __new__(cls, multiplicities):
        return tuple.__new__(cls, (tuple(sorted(multiplicities)),))

    @property
    def total(self) -> int:
        return sum(self.multiplicities)

    def __str__(self):
        return "[" + ", ".join(str(m) for m in self.multiplicities) + "]"


def _require_simple_roots(m: CFiniteSeq):
    """DegenerateRootsError for a repeated root."""
    # the characteristic polynomial of _integral_rec(m.rec), with the roots
    # D gamma_i: repeated exactly when the gamma_i are
    P = [-w for w in reversed(_integral_rec(m.rec))] + [1]
    if len(int_poly_gcd(P, _derivative(P))[0]) > 1:
        raise DegenerateRootsError(_DEGENERATE)


def _check_orders(orders) -> tuple:
    """orders as a tuple; ValueError unless nonempty and each >= 1."""
    orders = tuple(orders)
    if not orders or any(m < 1 for m in orders):
        raise ValueError("orders must be a nonempty list of counts >= 1")
    return orders


def _minimal(seq: CFiniteSeq, orders) -> CFiniteSeq:
    """minimize(seq) after _check_orders; OrderMismatchError unless its
    order is the product of the orders, ValueError for a root z = 0."""
    L = math.prod(_check_orders(orders))
    m = minimize(seq)
    if m.order != L:
        raise OrderMismatchError(f"minimal order {m.order} != product of orders {L}")
    if m.rec[-1] == 0:
        raise ValueError(
            "trailing recurrence coefficient is 0, so z = 0 is a "
            "characteristic root, which root-based methods cannot handle; "
            "minimizing removes it unless the sequence has a transient start "
            "(e.g. it is eventually 0)"
        )
    return m


def prod_indicator(orders) -> RepetitionProfile:
    """Generic repetition profile of a product of the given orders.

    Entirely combinatorial: a ratio gamma_I / gamma_J of Cartesian-product
    roots is classified per factor by "cancelled" (same index) or the
    ordered index pair; the class sizes are products of the factor orders
    over the cancelled slots.
    """
    orders = _check_orders(orders)
    total = math.prod(orders)
    if total > PROFILE_ORDER_LIMIT:
        raise ValueError(f"product of orders {total} exceeds {PROFILE_ORDER_LIMIT}")
    # per factor: the cancelled slot (size m) or one of m^2 - m index pairs
    per_factor = [[m] + [1] * (m * m - m) for m in orders]
    return RepetitionProfile(tuple(map(math.prod, itertools.product(*per_factor))))


def _is_coarsening(observed, generic):
    """Can ``observed`` be obtained by merging classes of ``generic``?

    For a genuine product, equal symbolic root ratios force equal actual
    ratios, so every observed ratio class is a union of generic symbolic
    classes.  Extra multiplicative coincidences among the factor roots
    (e.g. both +1 and -1 occurring) therefore coarsen the generic profile
    but never refine it.  An exact match is one; more observed classes than
    generic ones, or another total, is none.  Otherwise backtracking over
    the class-size multisets; the inputs are tiny (at most L^2 entries).
    """
    obs = sorted(observed, reverse=True)
    gen = sorted(generic, reverse=True)
    if obs == gen:
        return True
    if len(obs) > len(gen) or sum(obs) != sum(gen):
        return False

    def fill(bins, pool):
        if not pool:
            return all(b == 0 for b in bins)
        x = pool[0]
        seen = set()
        for i, b in enumerate(bins):
            if b >= x and b not in seen:
                seen.add(b)
                bins[i] -= x
                if fill(bins, pool[1:]):
                    bins[i] += x
                    return True
                bins[i] += x
        return False

    return fill(list(obs), gen)


class ProductVerdict(
    namedtuple(
        "ProductVerdict",
        "is_product orders expected observed note",
        defaults=("",),
    )
):
    __slots__ = ()

    def __str__(self):
        verdict = "YES" if self.is_product else "NO"
        orders = "x".join(str(m) for m in self.orders)
        return (
            f"{verdict}: product of orders {orders} "
            f"(expected {self.expected}, observed {self.observed})"
        )


def _ratio_poly(fwd) -> list:
    """Integer coefficients (ascending) of the monic polynomial S of degree
    N = (L^2 - L)/2 whose roots are the N values r_ij + r_ji, i < j, where
    r_ij = c gamma_i / gamma_j and c = c'_L.

    fwd is the integer recurrence c'_k = c_k D^k (_integral_rec) of the
    roots D gamma_i, which are therefore algebraic integers.  The backward
    recurrence (c'_L = c_L D^L != 0) has the roots 1 / (D gamma_i); scaled
    by c'_L, whose roots c'_L / (D gamma_i) are products of the other
    D gamma_j and so algebraic integers too, it is integral as well.
    q(m) = p(m) p'(m) - L c'_L^m is then the m-th power sum of the
    off-diagonal ratios r_ij, which are algebraic integers.

    The ratios pair up, r_ij r_ji = c^2, so the polynomial R(z) of the
    L^2 - L ratios folds: R(z) = z^N S(z + c^2/z).  The k-th power sum of
    S is sum_{i<j} (r_ij + r_ji)^k = sum_{t<k/2} C(k,t) c^(2t) q(k - 2t),
    plus C(k, k/2) c^k N for even k, so q is needed only up to N, and
    Newton's identities give S with exact division by k.
    """
    L = len(fwd)
    N = (L * L - L) // 2
    c = fwd[-1]
    bwd = [-x * c ** (k - 1) for k, x in enumerate(fwd[-2::-1], start=1)]
    bwd.append(c ** (L - 1))
    sums = zip(_power_sums(fwd, N), _power_sums(bwd, N))
    q = [x * y - L * c**k for k, (x, y) in enumerate(sums)]
    c2 = [(c * c) ** t for t in range(N // 2 + 1)]
    s = [0]
    for k in range(1, N + 1):
        s.append(sum(math.comb(k, t) * c2[t] * q[k - 2 * t] for t in range((k + 1) // 2)))
        if k % 2 == 0:
            s[k] += math.comb(k, k // 2) * c2[k // 2] * N
    a = _from_power_sums(s, N)  # S is w^N - a_1 w^(N-1) - ... - a_N
    return [-x for x in reversed(a)] + [1]


def _root_multiplicities(f: list) -> list:
    """Multiplicity of each distinct complex root of the integer polynomial f."""
    return [k for k, a in _square_free(f) for _ in range(len(a) - 1)]


def _ratio_quotient(rec):
    """(sign c, mu, T / (u + 2 sign c)^mu) for the folded ratio polynomial S
    (_ratio_poly), its scale c = c'_L and T the primitive polynomial with
    the roots u = w / |c| of S, mu being the multiplicity of the root
    u = -2 sign c (w = -2c): a Horner evaluation tests the root, and only
    a root is divided out, exactly.

    The coefficient of w^k in S carries c^(N-k), which T drops: at width 8
    with weights (2/3, 5/7) its coefficients have about 1,400 bits, against
    30,000 for S.  The product test and the exact order-2 route of factor.py
    both read the square-free decomposition of this quotient; |c| > 0 keeps
    the roots in order, so the route proposes its candidates in the same order.
    """
    fwd = _integral_rec(rec)
    c, S, mu = fwd[-1], _ratio_poly(fwd), 0
    sign = 1 if c > 0 else -1
    T = _primitive([x * abs(c) ** k for k, x in enumerate(S)])
    while not _horner(T, -2 * sign):
        T, mu = int_poly_quo(T, [2 * sign, 1]), mu + 1
    return sign, mu, T


def _ratio_multiplicities(rec) -> list:
    """Multiplicities of the distinct off-diagonal root ratios r_ij, for the
    nonzero roots of rec; DegenerateRootsError when two roots coincide.

    Each root w of the folded polynomial S (_ratio_poly) is r + c^2/r for
    the two ratios r and c^2/r, which differ unless w = 2c or w = -2c.
    w = 2c (u = 2 sign c) holds exactly when r = c, that is gamma_i =
    gamma_j, so one Horner evaluation of T finds a repeated root.  w = -2c
    means gamma_i = -gamma_j, and since w + 2c = (z + c)^2 / z it gives the
    one ratio -c, doubled.  So a w-root of multiplicity k gives two ratios
    of multiplicity k, and -2c of multiplicity mu gives one ratio of
    multiplicity 2 mu; mu comes from exact division, and Yun runs on the
    quotient, both in u = w/|c| (_ratio_quotient).
    """
    sign, mu, T = _ratio_quotient(rec)
    if not _horner(T, 2 * sign):
        raise DegenerateRootsError(_DEGENERATE)
    mults = [k for k in _root_multiplicities(T) for _ in (0, 1)]
    return mults + [2 * mu] if mu else mults


def is_prod_g(seq: CFiniteSeq, orders, digits=None) -> ProductVerdict:
    """Product test against an arbitrary list of factor orders.

    "YES" means the exact ratio profile matches the generic profile of
    such a product, either exactly or as a merge-coarsening of it (a true
    product can only coarsen the generic profile, never refine it); only
    a factor certificate proves that the sequence is a product.  "NO" is
    generic-only evidence; the note records non-exact matches.  Multiple
    characteristic roots raise DegenerateRootsError.  `digits` is accepted
    and ignored: it is kept for a benchmark caller (perfbench's product jobs
    and primer pass it positionally) and goes with the next benchmark change.
    """
    orders = tuple(orders)
    expected = prod_indicator(orders)
    m = _minimal(seq, orders)
    # the L diagonal ratios are 1, and no other ratio is, the roots being distinct
    observed = RepetitionProfile((m.order, *_ratio_multiplicities(m.rec)))
    is_product = _is_coarsening(observed.multiplicities, expected.multiplicities)
    note = ""
    if is_product and observed != expected:
        note = "degenerate match: observed profile coarsens the generic one"
    return ProductVerdict(
        is_product=is_product,
        orders=orders,
        expected=expected,
        observed=observed,
        note=note,
    )


def is_prod(seq: CFiniteSeq, L1: int, L2: int) -> ProductVerdict:
    """Two-factor special case of is_prod_g."""
    return is_prod_g(seq, (L1, L2))
