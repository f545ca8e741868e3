"""Recurrence guessing and everything built on top of it.

guess_rec finds the shortest recurrence of the supplied terms with one
exact Berlekamp-Massey pass over Q (Massey 1969): O(N L) rational
operations for N terms and order L, no linear system, no order search.
The order is capped so that N >= 2L + safety_terms; with N >= 2L the
shortest recurrence of N terms is unique, so the answer does not depend
on the algorithm that finds it.  Every supplied term is re-checked against
the result before it is returned.  Closure operations (sum, Hadamard
product, binomial transform, partial sums, subsequences) generate enough
terms for their theoretical order bound and then guess; a guessing failure
at the bound means an arithmetic bug, never a mathematical possibility,
and raises InvariantViolation.

Equality of two sequences is decidable by a finite check: the difference
satisfies a recurrence of order at most L1 + L2, so that many matching
terms force identical sequences.  prove_equal implements exactly that and
returns a certificate recording the bound.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from . import linalg
from .core import CFiniteSeq, Rational, content, eval_terms, format_rational
from .gf import RationalGF, taylor


class InvariantViolation(AssertionError):
    """A guaranteed-by-theory step failed; indicates a bug, not bad input."""


@dataclass(frozen=True)
class GuessConfig:
    max_order: int
    safety_terms: int = 4

    def __post_init__(self):
        if self.max_order < 1:
            raise ValueError("max_order must be >= 1")
        if self.safety_terms < 0:
            raise ValueError("safety_terms must be >= 0")


@dataclass(frozen=True)
class ProofCertificate:
    order_bound: int
    terms_checked: int
    statement: str
    verified: bool

    def __str__(self):
        status = "VERIFIED" if self.verified else "NOT VERIFIED"
        return (
            f"{status}: {self.statement} "
            f"(order bound {self.order_bound}, {self.terms_checked} terms checked)"
        )


def _berlekamp_massey(terms, max_l):
    """Linear complexity L and connection polynomial of `terms`, or None.

    The connection polynomial C = [1, C_1, ..., C_L] (trailing zeros
    possible) satisfies sum_i C_i a(n - i) = 0 for every L <= n < N.
    Returns None as soon as L exceeds max_l; L never decreases.
    """
    C, B = [Fraction(1)], [Fraction(1)]  # current; before the last length change
    L, m, b = 0, 1, Fraction(1)
    for n, t in enumerate(terms):
        d = t
        for i in range(1, len(C)):
            d += C[i] * terms[n - i]
        if not d:
            m += 1
            continue
        q = d / b
        prev = C
        C = C + [Fraction(0)] * (len(B) + m - len(C))
        for i, x in enumerate(B):
            C[i + m] -= q * x
        if 2 * L <= n:
            L = n + 1 - L
            if L > max_l:
                return None
            B, b, m = prev, d, 1
        else:
            m += 1
    return L, C


def guess_rec(terms, cfg: GuessConfig):
    """Shortest recurrence fitting every supplied term, or None.

    One Berlekamp-Massey pass gives the linear complexity L of all N
    terms: the least L with a(n) = c_1 a(n-1) + ... + c_L a(n-L) for every
    L <= n < N.  L is capped by max_l = min(max_order, (N - safety_terms)
    // 2), which keeps at least `safety_terms` equations beyond the 2L
    terms that barely determine an order-L fit; above the cap (or when the
    cap is below 1) the answer is None.  Because N >= 2L, the shortest
    recurrence is unique, so this is also the recurrence an order-by-order
    search of the full linear systems would find first.  c_L = 0 is kept
    (rec is padded with zeros up to L), and all-zero terms give [[0], [0]].
    The result is checked against every supplied term; a mismatch is a bug
    and raises InvariantViolation.

    The fit is already what `minimize` would return: a lower-order form of
    the same sequence (after cancelling a generating-function gcd) would
    fit the same terms with a smaller L.
    """
    terms = [Fraction(t) for t in terms]
    if len(terms) < 4:
        raise ValueError("need at least 4 terms to guess")
    max_l = min(cfg.max_order, (len(terms) - cfg.safety_terms) // 2)
    if max_l < 1:
        return None
    found = _berlekamp_massey(terms, max_l)
    if found is None:
        return None
    L, C = found
    L = max(1, L)  # all-zero terms: [[0], [0]]
    rec = [-c for c in C[1 : L + 1]]
    cand = CFiniteSeq(terms[:L], rec + [Fraction(0)] * (L - len(rec)))
    if eval_terms(cand, len(terms)) != terms:
        raise InvariantViolation("Berlekamp-Massey recurrence failed verification")
    return cand


def _close(what: str, bound: int, make) -> CFiniteSeq:
    """Closure-op driver: guess at order <= bound from make(2 * bound + 4) terms.

    Theory guarantees a fit, so finding none raises InvariantViolation.
    """
    found = guess_rec(make(2 * bound + 4), GuessConfig(max_order=bound))
    if found is None:
        raise InvariantViolation(
            f"{what}: no recurrence of order <= {bound} fits, "
            "which contradicts the closure bound"
        )
    return found


def add(s1: CFiniteSeq, s2: CFiniteSeq) -> CFiniteSeq:
    """Termwise sum; order at most L1 + L2."""
    return _close(
        "add",
        s1.order + s2.order,
        lambda n: [a + b for a, b in zip(eval_terms(s1, n), eval_terms(s2, n))],
    )


def mul(s1: CFiniteSeq, s2: CFiniteSeq) -> CFiniteSeq:
    """Hadamard (termwise) product; order at most L1 * L2."""
    return _close(
        "mul",
        s1.order * s2.order,
        lambda n: [a * b for a, b in zip(eval_terms(s1, n), eval_terms(s2, n))],
    )


def binomial_transform(s: CFiniteSeq) -> CFiniteSeq:
    """n -> sum_k C(n,k) s(k); preserves the order bound L."""

    def make(n):
        base = eval_terms(s, n)
        return [sum(comb(m, k) * base[k] for k in range(m + 1)) for m in range(n)]

    return _close("binomial_transform", s.order, make)


def partial_sums(s: CFiniteSeq) -> CFiniteSeq:
    """n -> sum_{k<=n} s(k); order at most L + 1."""
    return _close(
        "partial_sums",
        s.order + 1,
        lambda n: list(itertools.accumulate(eval_terms(s, n))),
    )


def subsequence(s: CFiniteSeq, step: int, offset: int = 0) -> CFiniteSeq:
    """n -> s(step * n + offset); order at most L."""
    if step < 1:
        raise ValueError("step must be >= 1")
    if offset < 0:
        raise ValueError("offset must be >= 0")
    return _close(
        "subsequence",
        s.order,
        lambda n: eval_terms(s, step * (n - 1) + offset + 1)[offset::step],
    )


def prove_equal(s1: CFiniteSeq, s2: CFiniteSeq, verify_extra: int = 10) -> ProofCertificate:
    """Finite-check equality proof.

    The difference of the two sequences satisfies a recurrence of order at
    most L1 + L2, so agreement on that many initial terms proves equality
    everywhere.  `verify_extra` additional terms are compared as a sanity
    margin; a disagreement there would be an arithmetic bug.
    """
    bound = s1.order + s2.order
    checked = bound + verify_extra
    t1, t2 = eval_terms(s1, checked), eval_terms(s2, checked)
    for n in range(checked):
        if t1[n] != t2[n]:
            if n >= bound:
                raise InvariantViolation(
                    f"terms agree through the order bound {bound} but differ "
                    f"at n={n}"
                )
            return ProofCertificate(
                order_bound=bound,
                terms_checked=checked,
                statement=(
                    f"sequences differ first at n={n}: "
                    f"{format_rational(t1[n])} != {format_rational(t2[n])}"
                ),
                verified=False,
            )
    return ProofCertificate(
        order_bound=bound,
        terms_checked=checked,
        statement=(
            f"first {bound} terms agree; the difference satisfies a "
            f"recurrence of order <= {bound}, hence the sequences are equal"
        ),
        verified=True,
    )


# --- nonlinear (polynomial) recurrence guessing ------------------------------

@dataclass(frozen=True)
class PolyRelation:
    """A polynomial relation among a(n-order), ..., a(n) and 1.

    `support` lists exponent vectors (one entry per variable, the variable
    for a(n-order+i) at index i); `coefficients` are the matching integer
    coefficients.  The relation evaluates to 0 at every verified index.
    """

    order: int
    degree: int
    support: tuple
    coefficients: tuple

    def evaluate(self, window):
        """Value of the relation on a window (a(n-order), ..., a(n))."""
        total = Fraction(0)
        for exps, c in zip(self.support, self.coefficients):
            term = c
            for x, e in zip(window, exps):
                if e:
                    term *= x**e
            total += term
        return total

    def __str__(self):
        parts = []
        for exps, c in zip(self.support, self.coefficients):
            if not c:
                continue
            factors = []
            for i in range(len(exps) - 1, -1, -1):
                e = exps[i]
                if not e:
                    continue
                j = self.order - i
                name = "a(n)" if j == 0 else f"a(n-{j})"
                factors.append(name if e == 1 else f"{name}^{e}")
            mono = "*".join(factors)
            mag = abs(c)
            if mono:
                body = mono if mag == 1 else f"{mag}*{mono}"
            else:
                body = str(mag)
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts) + " = 0"


def _monomials(nvars: int, degree: int):
    """All exponent vectors of total degree <= degree.

    Ordered by total degree descending, lexicographically within a degree;
    the constant monomial therefore comes last.
    """
    out = []
    for exps in itertools.product(range(degree + 1), repeat=nvars):
        if sum(exps) <= degree:
            out.append(exps)
    out.sort(key=lambda e: (-sum(e), e))
    return out


def guess_nlr(terms, order: int, degree: int):
    """Polynomial recurrence of the given window and degree, or None.

    The monomial basis runs over a(n-order), ..., a(n) and the constant
    monomial.  The returned relation is the kernel vector attached to the
    last free column of the evaluation matrix (a deterministic choice that
    prefers relations involving the constant), normalized to integer
    coefficients with content 1 and positive first nonzero coefficient.
    """
    if order < 0 or degree < 1:
        raise ValueError("order must be >= 0 and degree >= 1")
    terms = [Fraction(t) for t in terms]
    nvars = order + 1
    monos = _monomials(nvars, degree)
    if len(terms) < order + 2 * len(monos) + 4:
        raise ValueError(
            f"need at least {order + 2 * len(monos) + 4} terms for "
            f"order {order}, degree {degree}"
        )
    rows = []
    for n in range(order, len(terms)):
        window = terms[n - order : n + 1]
        row = []
        for exps in monos:
            v = Fraction(1)
            for x, e in zip(window, exps):
                if e:
                    v *= x**e
            row.append(v)
        rows.append(row)
    basis = linalg.nullspace(rows)
    if not basis:
        return None
    vec = basis[-1]
    # normalize: integer content 1, first nonzero positive
    c = content(vec)
    if next(v for v in vec if v) < 0:
        c = -c
    ints = [int(v / c) for v in vec]
    relation = PolyRelation(order, degree, tuple(monos), tuple(ints))
    for n in range(order, len(terms)):
        if relation.evaluate(terms[n - order : n + 1]) != 0:
            raise InvariantViolation("kernel relation failed re-verification")
    return relation


# --- parametric identities via grid specialization ---------------------------

def verify_parametric_identity(
    lhs_builder,
    rhs_gf_builder,
    param_degrees,
    series_terms: int,
    grids=None,
) -> ProofCertificate:
    """Prove a polynomial identity in parameters by finite specialization.

    Every series coefficient of both sides is assumed polynomial in
    parameter i of degree at most param_degrees[i]; checking on a grid of
    degree+1 distinct rational points per parameter then proves the
    identity for the first `series_terms` coefficients.  Larger grids may
    be supplied explicitly via `grids`.
    """
    if grids is None:
        grids = [[Fraction(j) for j in range(d + 1)] for d in param_degrees]
    if len(grids) != len(param_degrees):
        raise ValueError("one grid per parameter required")
    for d, g in zip(param_degrees, grids):
        if len(g) < d + 1:
            raise ValueError(f"grid needs at least {d + 1} points for degree {d}")
    npoints = 1
    for g in grids:
        npoints *= len(g)
    for point in itertools.product(*grids):
        lhs_seq = lhs_builder(*point)
        rhs_gf = rhs_gf_builder(*point)
        lhs_coeffs = eval_terms(lhs_seq, series_terms)
        rhs_coeffs = taylor(rhs_gf, series_terms)
        for n in range(series_terms):
            if lhs_coeffs[n] != rhs_coeffs[n]:
                pt = ", ".join(format_rational(x) for x in point)
                return ProofCertificate(
                    order_bound=series_terms,
                    terms_checked=series_terms,
                    statement=(
                        f"mismatch at grid point ({pt}), coefficient {n}: "
                        f"{format_rational(lhs_coeffs[n])} != "
                        f"{format_rational(rhs_coeffs[n])}"
                    ),
                    verified=False,
                )
    return ProofCertificate(
        order_bound=series_terms,
        terms_checked=series_terms,
        statement=(
            f"identity verified on all {npoints} grid points, "
            f"{series_terms} coefficients each; grid sizes exceed the stated "
            "coefficient degrees, so the identity holds identically"
        ),
        verified=True,
    )
