"""Characteristic-root analysis and the empirical product test.

A sequence of order L generically has a Binet form sum C_i alpha_i^n over
the L roots of its characteristic polynomial.  If the sequence is a
termwise product, its root set is the Cartesian product of the factors'
root sets, and the multiset of the L^2 pairwise root ratios then shows a
telltale repetition pattern.  prod_indicator computes that pattern
combinatorially for generic factors; ratio_profile measures it on
high-precision numerical roots; is_prod / is_prod_g compare the two.

The verdicts match the source semantics of this style of test: a "yes" is
an empirical proof (exact to the working precision), a "no" is definitive
only generically.  Diagnostics always carry both profiles.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import mpmath

from .core import CFiniteSeq, eval_terms, minimize

DEFAULT_DIGITS = 100

_JITTER_SEED = 20110716


class OrderMismatchError(ValueError):
    """Minimal order does not match the requested factor orders."""


class DegenerateRootsError(ArithmeticError):
    """Near-multiple characteristic roots; profile tests are unreliable."""


@dataclass(frozen=True)
class BinetForm:
    """High-precision characteristic roots, optionally with Binet coefficients."""

    roots: tuple
    coefficients: Optional[tuple]
    precision_digits: int
    near_multiple: bool


@dataclass(frozen=True)
class RepetitionProfile:
    """Sorted multiset of ratio-class multiplicities."""

    multiplicities: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "multiplicities", tuple(sorted(self.multiplicities))
        )

    @property
    def total(self) -> int:
        return sum(self.multiplicities)

    def __str__(self):
        return "[" + ", ".join(str(m) for m in self.multiplicities) + "]"


def _to_mpf(x: Fraction):
    x = Fraction(x)
    return mpmath.mpf(x.numerator) / mpmath.mpf(x.denominator)


def _aberth(coeffs, digits):
    """All roots of a monic polynomial by simultaneous Aberth iteration.

    `coeffs` are the mpf/mpc coefficients ascending, leading coefficient 1.
    Starts from a jittered circle of radius the Cauchy bound; the jitter
    RNG is fixed-seeded so runs are reproducible.
    """
    L = len(coeffs) - 1
    deriv = [k * coeffs[k] for k in range(1, L + 1)]

    def horner(cs, z):
        acc = mpmath.mpc(0)
        for c in reversed(cs):
            acc = acc * z + c
        return acc

    cauchy = 1 + max(abs(c) for c in coeffs[:-1])
    rng = random.Random(_JITTER_SEED)
    zs = [
        cauchy
        * (mpmath.mpf("0.7") + mpmath.mpf("0.3") * rng.random())
        * mpmath.exp(1j * (2 * mpmath.pi * k / L + mpmath.mpf("0.43") + rng.random() / 10))
        for k in range(L)
    ]
    eps = mpmath.mpf(10) ** (-(digits + 5))
    for _ in range(200 + 20 * digits):
        converged = True
        new = list(zs)
        for i in range(L):
            z = zs[i]
            pz = horner(coeffs, z)
            dpz = horner(deriv, z)
            if dpz == 0:
                new[i] = z + eps
                converged = False
                continue
            newton = pz / dpz
            s = mpmath.mpc(0)
            for j in range(L):
                if j != i:
                    s += 1 / (z - zs[j])
            denom = 1 - newton * s
            w = newton if denom == 0 else newton / denom
            new[i] = z - w
            if abs(w) > eps * max(mpmath.mpf(1), abs(z)):
                converged = False
        zs = new
        if converged:
            break
    return zs


def char_roots(
    seq: CFiniteSeq, digits: int = DEFAULT_DIGITS, with_coefficients: bool = False
) -> BinetForm:
    """Roots of z^L - c_1 z^(L-1) - ... - c_L to `digits` decimal digits.

    The input should already be minimal.  A zero trailing coefficient means
    z = 0 is a root, which has no Binet term, so it is a ValueError.  Even
    a minimal recurrence keeps that root when the sequence has a transient
    start (e.g. it is eventually 0).  With `with_coefficients` the
    Vandermonde system for the Binet coefficients is solved as well
    (simple roots only).
    """
    if seq.rec[-1] == 0:
        raise ValueError(
            "trailing recurrence coefficient is 0, so z = 0 is a "
            "characteristic root, which root-based methods cannot handle; "
            "minimizing removes it unless the sequence has a transient start "
            "(e.g. it is eventually 0)"
        )
    L = seq.order
    with mpmath.workdps(digits + 20):
        coeffs = [-_to_mpf(c) for c in reversed(seq.rec)] + [mpmath.mpf(1)]
        zs = _aberth(coeffs, digits)
        zs.sort(key=lambda z: (mpmath.re(z), mpmath.im(z)))

        # residual guard: every claimed root must actually annihilate p
        height = 1 + max(abs(c) for c in coeffs[:-1])
        limit = mpmath.mpf(10) ** (-(digits - 10)) * height

        def horner(z):
            acc = mpmath.mpc(0)
            for c in reversed(coeffs):
                acc = acc * z + c
            return acc

        for z in zs:
            if abs(horner(z)) > limit:
                raise ArithmeticError(
                    f"root residual exceeds tolerance at {digits} digits"
                )

        # a root of multiplicity m scatters like 10^(-digits/m) under the
        # iteration, so the gap threshold must scale with the worst case
        # multiplicity L or true multiple roots slip through as "distinct"
        near_tol = mpmath.mpf(10) ** (-max(digits // (2 * L), 3))
        near = any(
            abs(zs[i] - zs[j]) < near_tol * max(1, abs(zs[i]))
            for i in range(L)
            for j in range(i + 1, L)
        )

        cs = None
        if with_coefficients:
            if near:
                raise DegenerateRootsError(
                    "near-multiple roots: Binet coefficients are ill-defined"
                )
            V = mpmath.matrix(L, L)
            for n in range(L):
                for i in range(L):
                    V[n, i] = zs[i] ** n
            rhs = mpmath.matrix([_to_mpf(d) for d in seq.init])
            sol = mpmath.lu_solve(V, rhs)
            cs = tuple(sol[i] for i in range(L))
            # the Binet form must reproduce the sequence it came from
            check = eval_terms(seq, 2 * L)
            rel_tol = mpmath.mpf(10) ** (-digits // 2)
            for n, want in enumerate(check):
                got = sum(cs[i] * zs[i] ** n for i in range(L))
                if abs(got - _to_mpf(want)) > rel_tol * (1 + abs(_to_mpf(want))):
                    raise ArithmeticError(
                        "Binet form fails to reproduce the sequence terms"
                    )
        return BinetForm(
            roots=tuple(zs),
            coefficients=cs,
            precision_digits=digits,
            near_multiple=near,
        )


def prod_indicator(orders) -> RepetitionProfile:
    """Generic repetition profile of a product of the given orders.

    Entirely combinatorial: a ratio gamma_I / gamma_J of Cartesian-product
    roots is classified per factor by "cancelled" (same index) or the
    ordered index pair; the class sizes are products of the factor orders
    over the cancelled slots.
    """
    orders = list(orders)
    if not orders or any(m < 1 for m in orders):
        raise ValueError("orders must be a nonempty list of counts >= 1")
    per_factor = []
    for m in orders:
        options = [("canc", m)]
        options += [((i, k), 1) for i in range(m) for k in range(m) if i != k]
        per_factor.append(options)
    mults = []
    for combo in itertools.product(*per_factor):
        size = 1
        for _, s in combo:
            size *= s
        mults.append(size)
    return RepetitionProfile(tuple(mults))


def ratio_profile(bf: BinetForm, rel_tol=None, allow_degenerate=False) -> RepetitionProfile:
    """Cluster the L^2 pairwise root ratios; return sorted class sizes.

    Single-linkage with relative tolerance (default 10^(-digits/2)); the
    ratios are sorted by (real, imaginary) first, so the clustering is
    deterministic for a given root set.
    """
    if bf.near_multiple and not allow_degenerate:
        raise DegenerateRootsError(
            "near-multiple roots: the ratio profile is unreliable"
        )
    with mpmath.workdps(bf.precision_digits + 20):
        if rel_tol is None:
            rel_tol = mpmath.mpf(10) ** (-bf.precision_digits // 2)
        else:
            rel_tol = mpmath.mpf(rel_tol)
        small = mpmath.mpf(10) ** (-bf.precision_digits // 2)
        if any(abs(z) < small for z in bf.roots):
            raise ValueError("root magnitude below tolerance; cannot form ratios")
        ratios = [a / b for a in bf.roots for b in bf.roots]
        ratios.sort(key=lambda z: (mpmath.re(z), mpmath.im(z)))
        n = len(ratios)
        parent = list(range(n))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for i in range(n):
            for j in range(i + 1, n):
                if abs(ratios[i] - ratios[j]) <= rel_tol * max(
                    abs(ratios[i]), abs(ratios[j])
                ):
                    ri, rj = find(i), find(j)
                    if ri != rj:
                        parent[ri] = rj
        sizes = {}
        for i in range(n):
            r = find(i)
            sizes[r] = sizes.get(r, 0) + 1
        return RepetitionProfile(tuple(sizes.values()))


def _is_coarsening(observed, generic):
    """Can ``observed`` be obtained by merging classes of ``generic``?

    For a genuine product, equal symbolic root ratios force equal numeric
    ratios, so every numeric ratio class is a union of generic symbolic
    classes.  Extra multiplicative coincidences among the factor roots
    (e.g. both +1 and -1 occurring) therefore coarsen the generic profile
    but never refine it.  Backtracking over the class-size multisets; the
    inputs are tiny (at most L^2 entries).
    """
    obs = sorted(observed, reverse=True)
    gen = sorted(generic, reverse=True)
    if sum(obs) != sum(gen):
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


@dataclass(frozen=True)
class ProductVerdict:
    is_product: bool
    orders: tuple
    expected: RepetitionProfile
    observed: RepetitionProfile
    digits: int
    note: str = ""

    def __str__(self):
        verdict = "YES" if self.is_product else "NO"
        orders = "x".join(str(m) for m in self.orders)
        return (
            f"{verdict}: product of orders {orders} "
            f"(expected {self.expected}, observed {self.observed}, "
            f"{self.digits} digits)"
        )


def is_prod_g(seq: CFiniteSeq, orders, digits: int = DEFAULT_DIGITS) -> ProductVerdict:
    """Empirical product test against an arbitrary list of factor orders.

    "YES" means the observed ratio profile matches the generic profile of
    such a product, either exactly or as a merge-coarsening of it (a true
    product can only coarsen the generic profile, never refine it).  "NO"
    is generic-only evidence; the diagnostics carry both profiles for
    inspection, and the note records non-exact matches.
    """
    orders = tuple(orders)
    m = minimize(seq)
    expected_order = 1
    for o in orders:
        expected_order *= o
    if m.order != expected_order:
        raise OrderMismatchError(
            f"minimal order {m.order} != product of orders {expected_order}"
        )
    bf = char_roots(m, digits)
    observed = ratio_profile(bf)
    expected = prod_indicator(orders)
    if observed == expected:
        is_product, note = True, ""
    elif _is_coarsening(observed.multiplicities, expected.multiplicities):
        is_product = True
        note = "degenerate match: observed profile coarsens the generic one"
    else:
        is_product, note = False, ""
    return ProductVerdict(
        is_product=is_product,
        orders=orders,
        expected=expected,
        observed=observed,
        digits=digits,
        note=note,
    )


def is_prod(seq: CFiniteSeq, L1: int, L2: int, digits: int = DEFAULT_DIGITS) -> ProductVerdict:
    """Two-factor special case of is_prod_g."""
    return is_prod_g(seq, (L1, L2), digits)
