"""Recurrence guessing and everything built on top of it.

guess_rec finds the shortest recurrence of the supplied terms with one
exact Berlekamp-Massey pass (Massey 1969): O(N L) operations for N terms
and order L, no linear system, no order search.  The pass is
fraction-free, on the terms scaled to integers, and returns the same
connection polynomial as the pass over Q.
The order is capped so that N >= 2L + SAFETY_TERMS, a module constant of
4; with N >= 2L the shortest recurrence of N terms is unique, so the
answer does not depend on the algorithm that finds it.  Every supplied
term is re-checked against the result before it is returned.  Closure
operations (sum, Hadamard product, binomial transform, partial sums,
subsequences) generate enough terms for their theoretical order bound and
then guess; a guessing failure at the bound means an arithmetic bug, never
a mathematical possibility, and raises InvariantViolation.

Equality of two sequences is decidable by a finite check: the difference
satisfies a recurrence of order at most L1 + L2, so that many matching
terms force identical sequences.  prove_equal implements exactly that and
returns a certificate recording the bound.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd

from . import linalg
from .core import CFiniteSeq, _as_fraction, _clear_denominators, eval_terms
from .core import format_rational, format_signed_sum
from .gf import taylor


class InvariantViolation(AssertionError):
    """A guaranteed-by-theory step failed; indicates a bug, not bad input."""


# equations guess_rec keeps beyond the 2L terms that barely determine an
# order-L fit
SAFETY_TERMS = 4


@dataclass(frozen=True)
class GuessConfig:
    max_order: int

    def __post_init__(self):
        if self.max_order < 1:
            raise ValueError("max_order must be >= 1")


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

    Fraction-free: the terms are scaled to integers by the lcm E of their
    denominators, and the update C <- b C - d x^m B is the update over Q
    times b, with C divided by its integer content after each update.  b
    starts at E, the scale of every discrepancy.  C stays a scalar
    multiple of the C of the pass over Q, and B and b share one scalar, so
    the discrepancies vanish at the same steps, L and the lengths follow
    the same path, and C / C_0 is exactly the connection polynomial over Q.
    """
    E, s = _clear_denominators(terms)
    C, B = [1], [1]  # current; before the last length change
    L, m, b = 0, 1, E  # b: the last discrepancy, scaled like the terms
    for n in range(len(s)):
        d = sum(map(operator.mul, C, reversed(s[max(n + 1 - len(C), 0) : n + 1])))
        if not d:
            m += 1
            continue
        prev = C
        C = [b * x for x in C] + [0] * (len(B) + m - len(C))
        for i, x in enumerate(B, start=m):
            C[i] -= d * x
        g = gcd(*C)
        if g > 1:
            C = [x // g for x in C]
        if 2 * L <= n:
            L = n + 1 - L
            if L > max_l:
                return None
            B, b, m = prev, d, 1
        else:
            m += 1
    return L, [Fraction(x, C[0]) for x in C]


def guess_rec(terms, cfg: GuessConfig):
    """Shortest recurrence fitting every supplied term, or None.

    One Berlekamp-Massey pass gives the linear complexity L of all N
    terms: the least L with a(n) = c_1 a(n-1) + ... + c_L a(n-L) for every
    L <= n < N.  L is capped by max_l = min(max_order, (N - SAFETY_TERMS)
    // 2), which keeps at least SAFETY_TERMS equations beyond the 2L
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
    terms = [t if type(t) is int else _as_fraction(t) for t in terms]
    if len(terms) < 4:
        raise ValueError("need at least 4 terms to guess")
    max_l = min(cfg.max_order, (len(terms) - SAFETY_TERMS) // 2)
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
    """Closure-op driver: guess at order <= bound from make(2 * bound + SAFETY_TERMS) terms.

    Theory guarantees a fit, so finding none raises InvariantViolation.
    """
    found = guess_rec(make(2 * bound + SAFETY_TERMS), GuessConfig(max_order=bound))
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


_VERIFY_EXTRA = 10  # terms prove_equal compares past the order bound


def prove_equal(s1: CFiniteSeq, s2: CFiniteSeq) -> ProofCertificate:
    """Finite-check equality proof.

    The difference of the two sequences satisfies a recurrence of order at
    most L1 + L2, so agreement on that many initial terms proves equality
    everywhere.  _VERIFY_EXTRA additional terms are compared as a sanity
    margin; a disagreement there would be an arithmetic bug.
    """
    bound = s1.order + s2.order
    checked = bound + _VERIFY_EXTRA
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
        values = _monomial_values(window, self.support)
        return sum(map(operator.mul, self.coefficients, values))

    def __str__(self):
        def monomial(exps):
            # variable i is a(n-order+i); a(n) is printed first
            factors = []
            for i in reversed(range(len(exps))):
                if exps[i]:
                    j = self.order - i
                    name = "a(n)" if j == 0 else f"a(n-{j})"
                    factors.append(name if exps[i] == 1 else f"{name}^{exps[i]}")
            return "*".join(factors)

        pairs = ((c, monomial(e)) for e, c in zip(self.support, self.coefficients))
        return format_signed_sum(pairs) + " = 0"


# the most monomials guess_nlr counts exactly: each needs two terms, so a
# basis this large could never be supplied, let alone built
MAX_MONOMIALS = 10**12


def _monomial_count(nvars: int, degree: int):
    """C(nvars + degree, degree), the number of exponent vectors of total
    degree <= degree, or None once it exceeds MAX_MONOMIALS.

    The running values C(nvars + degree, i) rise with i up to
    min(nvars, degree), so the first one past the cap settles it.
    """
    count = 1
    for i in range(1, min(nvars, degree) + 1):
        count = count * (nvars + degree + 1 - i) // i
        if count > MAX_MONOMIALS:
            return None
    return count


def _monomials(nvars: int, degree: int):
    """All exponent vectors of total degree <= degree.

    Ordered by total degree descending, lexicographically within a degree;
    the constant monomial therefore comes last.  Each multiset of d
    variables is one vector of degree d, so no other vector is built.
    """
    out = []
    for d in range(degree, -1, -1):
        out += sorted(
            tuple(picks.count(i) for i in range(nvars))
            for picks in itertools.combinations_with_replacement(range(nvars), d)
        )
    return out


def _monomial_values(window, monos) -> list:
    """The value of each exponent vector of monos on the window, in the
    window's own number type (ints for ints, Fractions for Fractions)."""
    values = []
    for exps in monos:
        v = 1
        for x, e in zip(window, exps):
            if e:
                v *= x**e
        values.append(v)
    return values


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
    terms = [t if type(t) is int else _as_fraction(t) for t in terms]
    nvars = order + 1
    # the monomial count first: building the basis can take far longer
    count = _monomial_count(nvars, degree)
    if count is None:
        raise ValueError(
            f"order {order}, degree {degree} has more than {MAX_MONOMIALS} monomials"
        )
    need = order + 2 * count + 4
    if len(terms) < need:
        raise ValueError(f"need at least {need} terms for order {order}, degree {degree}")
    monos = _monomials(nvars, degree)
    # window times D, the lcm of its denominators, and monomial of degree d
    # times D^(degree - d): the row over Q times D^degree, in ints
    scale = [degree - sum(exps) for exps in monos]
    rows = []
    for n in range(order, len(terms)):
        window = terms[n - order : n + 1]
        D, ints = _clear_denominators(window)
        values = _monomial_values(ints, monos)
        rows.append([v * D**k for v, k in zip(values, scale)])
    basis = linalg.nullspace(rows)
    if not basis:
        return None
    # a primitive integer vector: make its first nonzero entry positive
    ints = basis[-1]
    if next(v for v in ints if v) < 0:
        ints = [-v for v in ints]
    if any(sum(map(operator.mul, ints, row)) for row in rows):
        raise InvariantViolation("kernel relation failed re-verification")
    return PolyRelation(order, degree, tuple(monos), tuple(ints))


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
    be supplied explicitly via `grids`.  ValueError for series_terms < 1,
    which would prove nothing.
    """
    if series_terms < 1:
        raise ValueError(f"series_terms must be >= 1, got {series_terms}")
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
