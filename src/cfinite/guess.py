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

Every fit runs on an integer image x(n) = E D^n a(n) (_fit): the closure
ops build the image of their result from their operands' images
(core._image) on Python ints, the pass and its check run there, and only
the L initial terms and L coefficients of the answer become Fractions.
The map n -> D^n is geometric, so x has a's linear complexity and its
recurrence is c_k D^k.  dimers.dimer_seq fits the same way, and guess_rec
fits its terms cleared to integers (D = 1).

Equality of two sequences is decidable by a finite check: the difference
satisfies a recurrence of order at most L1 + L2, so that many matching
terms force identical sequences.  prove_equal implements exactly that and
returns a certificate recording the bound.  verify_parametric_identity
applies the same rule to generating functions with symbolic parameters:
one exact check in Z[params] up to a stated order bound.
"""

from __future__ import annotations

import itertools
import operator
from collections import namedtuple
from fractions import Fraction
from math import gcd, prod

from . import linalg
from .core import CFiniteSeq, _as_fraction, _clear_denominators, _image
from .core import format_mpoly, format_rational, format_signed_sum, mpoly_dot


class InvariantViolation(AssertionError):
    """A guaranteed-by-theory step failed; indicates a bug, not bad input."""


# equations guess_rec keeps beyond the 2L terms that barely determine an
# order-L fit
SAFETY_TERMS = 4


class GuessConfig(namedtuple("GuessConfig", "max_order")):
    __slots__ = ()

    def __new__(cls, max_order):
        if max_order < 1:
            raise ValueError("max_order must be >= 1")
        return tuple.__new__(cls, (max_order,))


class ProofCertificate(
    namedtuple("ProofCertificate", "order_bound terms_checked statement verified")
):
    __slots__ = ()

    def __str__(self):
        status = "VERIFIED" if self.verified else "NOT VERIFIED"
        return (
            f"{status}: {self.statement} "
            f"(order bound {self.order_bound}, {self.terms_checked} terms checked)"
        )


def _berlekamp_massey(s, max_l):
    """Linear complexity L and connection polynomial of the ints s, or None.

    The connection polynomial C = [C_0, C_1, ..., C_L] (ints, C_0 != 0,
    trailing zeros possible) satisfies sum_i C_i s(n - i) = 0 for every
    L <= n < N.  Returns None as soon as L exceeds max_l; L never
    decreases.

    Fraction-free: the update C <- b C - d x^m B is the update over Q
    times b, the last nonzero discrepancy (1 at the start), with C divided
    by its integer content after each update.  C stays a scalar multiple
    of the C of the pass over Q on s, and B and b share one scalar, so
    the discrepancies vanish at the same steps, L and the lengths follow
    the same path, and C / C_0 is exactly that pass's connection
    polynomial.
    """
    C, B = [1], [1]  # current; before the last length change
    L, m, b = 0, 1, 1  # b: the last nonzero discrepancy
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
    return L, C


def _fit(E, D, x, max_l):
    """Shortest recurrence of a(n) = x(n) / (E D^n), n < N = len(x), at order
    <= max_l, or None; x is a list of ints and E, D are positive ints.

    The map n -> D^n is geometric, so x and a have the same linear
    complexity L, and a connection polynomial C of x gives a's recurrence
    c_k = -C_k / (C_0 D^k).  C is checked in ints against every supplied
    term, sum_{i<=L} C_i x(n - i) = 0 for L <= n < N, which is the same as
    checking the recurrence with the initial terms x(i) / (E D^i), i < L,
    term by term; a mismatch is a bug and raises InvariantViolation.  Only
    those L terms and L coefficients become Fractions.  c_L = 0 is kept,
    and all-zero terms give [[0], [0]].
    """
    found = _berlekamp_massey(x, max_l)
    if found is None:
        return None
    L, C = found
    L = max(1, L)
    C = C[: L + 1] + [0] * (L + 1 - len(C))
    Cr = C[::-1]
    if any(sum(map(operator.mul, Cr, x[n - L : n + 1])) for n in range(L, len(x))):
        raise InvariantViolation("Berlekamp-Massey recurrence failed verification")
    init, rec = [], []
    for i in range(L):
        init.append(Fraction(x[i], E))
        E *= D
    scale = C[0]
    for k in range(1, L + 1):
        scale *= D
        rec.append(Fraction(-C[k], scale))
    return CFiniteSeq(init, rec)


def guess_rec(terms, cfg: GuessConfig):
    """Shortest recurrence fitting every supplied term, or None.

    One Berlekamp-Massey pass gives the linear complexity L of all N
    terms: the least L with a(n) = c_1 a(n-1) + ... + c_L a(n-L) for every
    L <= n < N.  L is capped by max_l = min(max_order, (N - SAFETY_TERMS)
    // 2), which keeps at least SAFETY_TERMS equations beyond the 2L
    terms that barely determine an order-L fit; above the cap (or when the
    cap is below 1) the answer is None.  Because N >= 2L, the shortest
    recurrence is unique, so this is also the recurrence an order-by-order
    search of the full linear systems would find first.  c_L = 0 is kept,
    and all-zero terms give [[0], [0]].  The result is checked against
    every supplied term, and a mismatch is a bug that raises
    InvariantViolation; the pass and its check run on the terms times the
    lcm of their denominators (_fit).

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
    E, ints = _clear_denominators(terms)
    return _fit(E, 1, ints, max_l)


def _close(what: str, bound: int, make) -> CFiniteSeq:
    """Closure-op driver: fit at order <= bound to the image (E, D, x) that
    make(2 * bound + SAFETY_TERMS) returns, x(n) = E D^n a(n) in ints.

    Theory guarantees a fit, so finding none raises InvariantViolation.
    """
    found = _fit(*make(2 * bound + SAFETY_TERMS), bound)
    if found is None:
        raise InvariantViolation(
            f"{what}: no recurrence of order <= {bound} fits, "
            "which contradicts the closure bound"
        )
    return found


def add(s1: CFiniteSeq, s2: CFiniteSeq) -> CFiniteSeq:
    """Termwise sum; order at most L1 + L2."""

    def make(n):
        (E1, D1, x1), (E2, D2, x2) = _image(s1, n), _image(s2, n)
        x, p1, p2 = [], E2, E1  # E2 D2^k and E1 D1^k
        for u, v in zip(x1, x2):
            x.append(p1 * u + p2 * v)
            p1, p2 = p1 * D2, p2 * D1
        return E1 * E2, D1 * D2, x

    return _close("add", s1.order + s2.order, make)


def mul(s1: CFiniteSeq, s2: CFiniteSeq) -> CFiniteSeq:
    """Hadamard (termwise) product; order at most L1 * L2."""

    def make(n):
        (E1, D1, x1), (E2, D2, x2) = _image(s1, n), _image(s2, n)
        return E1 * E2, D1 * D2, list(map(operator.mul, x1, x2))

    return _close("mul", s1.order * s2.order, make)


def binomial_transform(s: CFiniteSeq) -> CFiniteSeq:
    """n -> sum_k C(n,k) s(k); preserves the order bound L.

    On the image, x'(m) = sum_k C(m,k) D^(m-k) x(k) = ((D + shift)^m x)(0),
    read off one difference-table row at a time.
    """

    def make(n):
        E, D, row = _image(s, n)
        x = []
        while row:
            x.append(row[0])
            row = [D * u + v for u, v in zip(row, row[1:])]
        return E, D, x

    return _close("binomial_transform", s.order, make)


def partial_sums(s: CFiniteSeq) -> CFiniteSeq:
    """n -> sum_{k<=n} s(k); order at most L + 1."""

    def make(n):
        E, D, x = _image(s, n)
        return E, D, list(itertools.accumulate(x, lambda acc, v: D * acc + v))

    return _close("partial_sums", s.order + 1, make)


def subsequence(s: CFiniteSeq, step: int, offset: int = 0) -> CFiniteSeq:
    """n -> s(step * n + offset); order at most L."""
    if step < 1:
        raise ValueError("step must be >= 1")
    if offset < 0:
        raise ValueError("offset must be >= 0")

    def make(n):
        E, D, x = _image(s, step * (n - 1) + offset + 1)
        return E * D**offset, D**step, x[offset::step]

    return _close("subsequence", s.order, make)


_VERIFY_EXTRA = 10  # terms prove_equal compares past the order bound


def prove_equal(s1: CFiniteSeq, s2: CFiniteSeq) -> ProofCertificate:
    """Finite-check equality proof.

    The difference of the two sequences satisfies a recurrence of order at
    most L1 + L2, so agreement on that many initial terms proves equality
    everywhere.  _VERIFY_EXTRA additional terms are compared as a sanity
    margin; a disagreement there would be an arithmetic bug.  The terms are
    compared on the integer images x_i(n) = E_i D_i^n a_i(n) (core._image):
    a_1(n) = a_2(n) exactly when x_1(n) E_2 D_2^n = x_2(n) E_1 D_1^n.
    """
    bound = s1.order + s2.order
    checked = bound + _VERIFY_EXTRA
    (E1, D1, x1), (E2, D2, x2) = _image(s1, checked), _image(s2, checked)
    k1, k2 = E2, E1  # E_2 D_2^n and E_1 D_1^n
    for n in range(checked):
        if x1[n] * k1 != x2[n] * k2:
            if n >= bound:
                raise InvariantViolation(
                    f"terms agree through the order bound {bound} but differ "
                    f"at n={n}"
                )
            t1, t2 = Fraction(x1[n], E1 * D1**n), Fraction(x2[n], E2 * D2**n)
            return ProofCertificate(
                order_bound=bound,
                terms_checked=checked,
                statement=(
                    f"sequences differ first at n={n}: "
                    f"{format_rational(t1)} != {format_rational(t2)}"
                ),
                verified=False,
            )
        k1, k2 = k1 * D2, k2 * D1
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

class PolyRelation(namedtuple("PolyRelation", "order degree support coefficients")):
    """A polynomial relation among a(n-order), ..., a(n) and 1.

    `support` lists exponent vectors (one entry per variable, the variable
    for a(n-order+i) at index i); `coefficients` are the matching integer
    coefficients.  The relation evaluates to 0 at every verified index.
    """

    __slots__ = ()

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


# --- parametric identities in Z[params] -------------------------------------

def _product_terms(factors, T) -> list:
    """Terms 0..T-1 of the termwise product of C-finite factors over Z[params].

    Each factor is (init, rec), equal-length lists of integer polynomials in
    the parameters (core.mpoly_dot), and its terms come from its own
    recurrence a(n) = rec[0] a(n-1) + ... + rec[L-1] a(n-L).
    """
    product = None
    for init, rec in factors:
        terms = list(init[:T])
        while len(terms) < T:
            terms.append(mpoly_dot(rec, reversed(terms[-len(rec) :])))
        if product is not None:
            terms = [mpoly_dot([a], [b]) for a, b in zip(product, terms)]
        product = terms
    return product


def _degree(coeffs) -> int:
    return max((i for i, c in enumerate(coeffs) if c), default=-1)


def verify_parametric_identity(
    lhs, rhs, param_degrees=None, series_terms: int = 20
) -> ProofCertificate:
    """Prove that a termwise product of C-finite factors has the generating
    function N(t)/D(t), identically in the parameters, by one exact check.

    `lhs` is a list of factors (init, rec) and `rhs` the pair (N, D), lists
    of coefficients in ascending powers of t; every entry is an integer
    polynomial in the parameters (core.mpoly_dot).  A point builder of
    corpus that carries its identity's form as `.symbolic` may stand in for
    either.  The check computes the factors' terms by their recurrences over
    Z[params] and tests D*LHS - N = 0 mod t^T exactly.

    The bound: over Q(params) the left side has order at most K1, the
    product of the factor orders, so LHS = P/Q with deg P < K1 and
    deg Q <= K1, Q(0) = 1.  Then D*LHS - N = (D P - N Q)/Q, whose numerator
    has degree below M = K1 + max(K2, deg N + 1), K2 = deg D; M vanishing
    coefficients make it 0, and no coefficient past them can: exactly M are
    checked, and M is the certificate's order_bound and terms_checked.
    When the check fails, the first nonzero coefficient of D*LHS - N,
    which lies below M, is the first coefficient at which the two series
    differ, and terms_checked counts up to it.

    `param_degrees` and `series_terms` are accepted and ignored: they are
    kept for a benchmark caller and go with the next benchmark change.
    ValueError for D(0) = 0.
    """
    factors = getattr(lhs, "symbolic", lhs)
    num, den = getattr(rhs, "symbolic", rhs)
    if not den or not den[0]:
        raise ValueError("D(0) must be nonzero")
    K1, K2, deg_n = prod(len(rec) for _, rec in factors), _degree(den), _degree(num)
    M = K1 + max(K2, deg_n + 1)
    k = len(next(iter(den[0])))
    names = [chr(ord("a") + i) if i < 26 else f"x{i}" for i in range(k)]
    ring = ", ".join(names)
    minus_one = {(0,) * k: -1}
    terms = _product_terms(factors, M)
    for n in range(M):
        j = min(n, K2)
        ps, qs = den[: j + 1], terms[n - j : n + 1][::-1]
        if n < len(num):
            ps, qs = [*ps, minus_one], [*qs, num[n]]
        if c := mpoly_dot(ps, qs):
            return ProofCertificate(
                order_bound=M,
                terms_checked=n + 1,
                statement=(
                    f"D*LHS - N has the coefficient {format_mpoly(c, names)} "
                    f"at t^{n}, so the series differ first at coefficient {n}"
                ),
                verified=False,
            )
    return ProofCertificate(
        order_bound=M,
        terms_checked=M,
        statement=(
            f"D*LHS - N = 0 mod t^{M} in Z[{ring}]; the left side has order "
            f"<= K1 = {K1} over Q({ring}), deg D = K2 = {K2} and deg N = {deg_n}, "
            f"so the first M = K1 + max(K2, deg N + 1) = {M} coefficients force "
            "LHS = N/D identically"
        ),
        verified=True,
    )
