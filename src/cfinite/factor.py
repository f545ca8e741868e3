"""Actual factorization of C-finite sequences into termwise products.

Two routes:

* factorize_roots - reconstructs the factors from the structure of the
  characteristic roots.  If the sequence is a product, its roots arrange
  into an L1 x L2 grid of rank 1 (gamma_ij = alpha_i * beta_j).  The grid
  is searched numerically at high precision, the scaling gauge is fixed so
  the factor polynomials have rational coefficients (recovered by rational
  reconstruction), initial terms are solved exactly, and the candidate is
  accepted only after an exact equality proof.

* factorize_integer - brute force over integer candidate factors with
  bounded coefficients, divisibility screening, and the same exact final
  verification.

Nothing is ever reported on numerical evidence alone: every returned pair
carries a verified equality certificate.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from . import guess
from .core import CFiniteSeq, content, eval_terms, minimize, scale
from .linalg import solve
from .roots import DEFAULT_DIGITS, OrderMismatchError, PrecisionError, char_roots


class BudgetExhausted(RuntimeError):
    """The brute-force search ran out of time before exhausting its space."""


RECONSTRUCT_DEN_BOUND = 10**6


@dataclass(frozen=True)
class FactorPair:
    left: CFiniteSeq
    right: CFiniteSeq
    normalization: str
    certificate: guess.ProofCertificate

    def __str__(self):
        return (
            f"left  = {self.left}\n"
            f"right = {self.right}\n"
            f"normalization: {self.normalization}\n"
            f"{self.certificate}"
        )


def _seq_sort_key(s: CFiniteSeq):
    return (s.order, s.rec, s.init)


def _ordered_pair(left, right, normalization, certificate) -> FactorPair:
    if _seq_sort_key(right) < _seq_sort_key(left):
        left, right = right, left
    return FactorPair(left, right, normalization, certificate)


def _mpf_to_fraction(x) -> Fraction:
    sign, man, exp, _ = mpmath.mpf(x)._mpf_
    if man == 0:
        return Fraction(0)
    v = Fraction(man) * (Fraction(2) ** exp)
    return -v if sign else v


def _reconstruct(z, digits, den_bound=RECONSTRUCT_DEN_BOUND):
    """Rational value of a high-precision (near-real) number, or None."""
    tol = mpmath.mpf(10) ** (-digits // 2)
    if abs(mpmath.im(z)) > tol * (1 + abs(z)):
        return None
    x = mpmath.re(z)
    f = _mpf_to_fraction(x).limit_denominator(den_bound)
    fx = mpmath.mpf(f.numerator) / mpmath.mpf(f.denominator)
    if abs(x - fx) > tol * (1 + abs(x)):
        return None
    return f


def _poly_from_roots(roots):
    """Coefficients (ascending, monic) of prod (z - r)."""
    coeffs = [mpmath.mpc(1)]
    for r in roots:
        coeffs = [mpmath.mpc(0)] + coeffs
        for k in range(len(coeffs) - 1):
            coeffs[k] -= r * coeffs[k + 1]
    return coeffs


def _rec_from_monic(coeffs):
    """Recurrence coefficients c_1..c_L from monic ascending coefficients."""
    L = len(coeffs) - 1
    return [-coeffs[L - i] for i in range(1, L + 1)]


def _right_init_system(left_terms, right_rec, target):
    """Solve for right-factor initial terms from left(n)*right(n) = target(n).

    right(n) is linear in the unknown initial terms, so each product
    equation is linear too; positions where the left factor vanishes just
    demand target(n) = 0.
    """
    L2 = len(right_rec)
    n_eq = len(target)
    # units[j][n] = coefficient of init[j] in right(n): the terms of the
    # right recurrence started from the j-th unit vector
    units = [
        eval_terms(CFiniteSeq([int(i == j) for i in range(L2)], right_rec), n_eq)
        for j in range(L2)
    ]
    rows, rhs = [], []
    for n in range(n_eq):
        if left_terms[n] == 0:
            if target[n] != 0:
                return None
            continue
        rows.append([left_terms[n] * u[n] for u in units])
        rhs.append(target[n])
    if not rows:
        return None
    return solve(rows, rhs)


def _factorize_small(n: int):
    """Prime factorization by trial division (coefficients here are small)."""
    n = abs(n)
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _gauge_scale(rec) -> Fraction:
    """The lambda with lambda^i c_i weighted-primitive (and a sign fix).

    A factor pair carries the gauge freedom (left, right) ->
    (lambda^n left, lambda^-n right).  This picks the unique positive
    lambda for which the rescaled recurrence coefficients are integers
    with no prime removable from every weighted slot, then flips the sign
    so the first odd-position coefficient is positive.
    """
    from math import ceil

    primes = set()
    for c in rec:
        if c != 0:
            primes |= set(_factorize_small(c.numerator))
            primes |= set(_factorize_small(c.denominator))
    lam = Fraction(1)
    for p in sorted(primes):
        exps = []
        for i, c in enumerate(rec, start=1):
            if c == 0:
                continue
            v = 0
            num, den = c.numerator, c.denominator
            while num % p == 0:
                v += 1
                num //= p
            while den % p == 0:
                v -= 1
                den //= p
            exps.append(ceil(Fraction(-v, i)))
        lam *= Fraction(p) ** max(exps)
    return -lam if _sign_flipped(rec) else lam


def _sign_flipped(rec) -> bool:
    """Whether the gauge lambda is negative: the first nonzero c_i at odd i is."""
    return next((c for c in rec[0::2] if c), 0) < 0


def _apply_gauge(seq: CFiniteSeq, lam: Fraction) -> CFiniteSeq:
    """Term n scaled by lambda^n (recurrence coefficient i by lambda^i)."""
    init = [d * lam**n for n, d in enumerate(seq.init)]
    rec = [c * lam**i for i, c in enumerate(seq.rec, start=1)]
    return CFiniteSeq(init, rec)


def _normalize_rational_pair(left, right):
    """Canonical gauge plus first-nonzero-initial-term-1 scaling."""
    notes = []
    lam = _gauge_scale(left.rec)
    if lam != 1:
        left = _apply_gauge(left, lam)
        right = _apply_gauge(right, 1 / lam)
        notes.append(f"gauge lambda = {lam}")
    kappa = next((d for d in left.init if d != 0), None)
    if kappa is not None and kappa != 1:
        left, right = scale(left, 1 / kappa), scale(right, kappa)
        notes.append(f"left factor divided by {kappa}")
    return left, right, "; ".join(notes) or "already canonical"


def factorize_roots(seq: CFiniteSeq, L1: int, L2: int, digits: int = DEFAULT_DIGITS):
    """Factor into an order-L1 times an order-L2 sequence, or None.

    Tries a precision ladder (digits, 2x, 4x) when rational reconstruction
    fails; returns None only when no root grid of rank 1 exists, raises
    PrecisionError when a grid exists but could not be pinned down
    rationally even at the top of the ladder.
    """
    m = minimize(seq)
    if m.order != L1 * L2:
        raise OrderMismatchError(
            f"minimal order {m.order} != {L1} * {L2}; cannot factor at these orders"
        )
    saw_grid = False
    for d in (digits, 2 * digits, 4 * digits):
        found, saw = _factorize_roots_at(seq, m, L1, L2, d)
        saw_grid = saw_grid or saw
        if found is not None:
            return found
        if not saw:
            return None
    if saw_grid:
        raise PrecisionError(
            "a consistent root grid exists but rational reconstruction failed "
            f"even at {4 * digits} digits"
        )
    return None


def _factorize_roots_at(original, m, L1, L2, digits):
    L = L1 * L2
    bf = char_roots(m, digits, with_coefficients=True)
    with mpmath.workdps(digits + 20):
        tol = mpmath.mpf(10) ** (-digits // 2)
        roots = list(bf.roots)
        coefs = list(bf.coefficients)
        saw_grid = False
        scale_abs = max(abs(z) for z in roots)

        rest = list(range(1, L))
        for col in itertools.combinations(rest, L1 - 1):
            after_col = [i for i in rest if i not in col]
            for row in itertools.combinations(after_col, L2 - 1):
                grid = _match_grid(roots, col, row, tol, scale_abs)
                if grid is None:
                    continue
                saw_grid = True
                pair = _extract_factors(
                    original, m, grid, roots, coefs, L1, L2, digits, tol
                )
                if pair is not None:
                    return pair, True
        return None, saw_grid


def _match_grid(roots, col, row, tol, scale_abs):
    """Index grid with gamma_ij = gamma_i0 * gamma_0j / gamma_00, or None."""
    L1, L2 = len(col) + 1, len(row) + 1
    grid = [[None] * L2 for _ in range(L1)]
    grid[0][0] = 0
    for i, idx in enumerate(col, start=1):
        grid[i][0] = idx
    for j, idx in enumerate(row, start=1):
        grid[0][j] = idx
    used = {0, *col, *row}
    remaining = [k for k in range(len(roots)) if k not in used]
    g00 = roots[0]
    for i in range(1, L1):
        for j in range(1, L2):
            predicted = roots[grid[i][0]] * roots[grid[0][j]] / g00
            best, best_d = None, None
            for k in remaining:
                d = abs(roots[k] - predicted)
                if best_d is None or d < best_d:
                    best, best_d = k, d
            if best is None or best_d > tol * max(1, abs(predicted)):
                return None
            grid[i][j] = best
            remaining.remove(best)
    return grid


def _extract_factors(original, m, grid, roots, coefs, L1, L2, digits, tol):
    alphas = [roots[grid[i][0]] for i in range(L1)]
    betas = [roots[grid[0][j]] / roots[grid[0][0]] for j in range(L2)]

    # Binet coefficients must be rank 1 on the same grid
    C = [[coefs[grid[i][j]] for j in range(L2)] for i in range(L1)]
    cscale = max(abs(C[i][j]) for i in range(L1) for j in range(L2))
    for i in range(L1):
        for j in range(L2):
            if abs(C[i][j] * C[0][0] - C[i][0] * C[0][j]) > tol * max(1, cscale**2):
                return None

    # gauge: pick s with s^k = 1/e_k(alpha) for the first nonzero e_k;
    # e_k is (-1)^k times the z^(L1-k) coefficient of prod (z - alpha_i)
    poly = _poly_from_roots(alphas)
    es = [(-1) ** k * poly[L1 - k] for k in range(L1 + 1)]
    escale = max(abs(e) for e in es)
    k = next(
        (k for k in range(1, L1 + 1) if abs(es[k]) > tol * max(1, escale)), None
    )
    if k is None:
        return None
    s0 = es[k] ** (mpmath.mpf(-1) / k)
    for branch in range(k):
        s = s0 * mpmath.exp(2j * mpmath.pi * branch / k)
        pair = _try_gauge(original, m, alphas, betas, C, s, L1, L2, digits, tol)
        if pair is not None:
            return pair
    return None


def _try_gauge(original, m, alphas, betas, C, s, L1, L2, digits, tol):
    left_poly = _poly_from_roots([s * a for a in alphas])
    right_poly = _poly_from_roots([b / s for b in betas])
    left_rec = [_reconstruct(c, digits) for c in _rec_from_monic(left_poly)]
    right_rec = [_reconstruct(c, digits) for c in _rec_from_monic(right_poly)]
    if any(c is None for c in left_rec) or any(c is None for c in right_rec):
        return None

    # left initial terms: Binet sum in the column gauge, rescaled so the
    # first nonzero term is 1, then reconstructed rationally
    u_star = [
        sum(C[i][0] * (s * alphas[i]) ** n for i in range(L1)) for n in range(L1)
    ]
    uscale = max(abs(u) for u in u_star)
    if uscale == 0:
        return None
    n0 = next(n for n in range(L1) if abs(u_star[n]) > tol * uscale)
    left_init = [_reconstruct(u / u_star[n0], digits) for u in u_star]
    if any(d is None for d in left_init):
        return None
    left = CFiniteSeq(left_init, left_rec)

    n_terms = 2 * L1 * L2 + 4
    target = eval_terms(m, n_terms)
    right_init = _right_init_system(eval_terms(left, n_terms), right_rec, target)
    if right_init is None:
        return None
    right = CFiniteSeq(right_init, right_rec)

    cert = guess.prove_equal(guess.mul(left, right), original)
    if not cert.verified:
        return None
    left, right, note = _normalize_rational_pair(left, right)
    cert = guess.prove_equal(guess.mul(left, right), original)
    if not cert.verified:
        return None
    return _ordered_pair(left, right, note, cert)


def factorize_integer(
    seq: CFiniteSeq,
    L1: int,
    L2: int,
    bound: int,
    budget: float = 60.0,
    stats: dict | None = None,
):
    """Brute-force integer factorization, or None.

    Enumerates order-L1 candidates with integer recurrence and initial
    terms bounded by `bound` (lexicographic order, first nonzero initial
    term positive), screens by exact divisibility of the first
    2*L1*L2 + 4 terms, guesses the cofactor, and verifies exactly.
    Raises BudgetExhausted when `budget` seconds pass before the space is
    exhausted; that is a different outcome than a completed "not found".
    """
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    deadline = time.monotonic() + budget
    n_terms = 2 * L1 * L2 + 4
    head = eval_terms(seq, max(n_terms, 50))
    if any(t.denominator != 1 for t in head):
        raise ValueError("factorize_integer requires an integer sequence")
    m = minimize(seq)
    if m.order != L1 * L2:
        raise OrderMismatchError(
            f"minimal order {m.order} != {L1} * {L2}; cannot factor at these orders"
        )
    target = [int(t) for t in head[:n_terms]]
    if stats is not None:
        stats["candidates"] = 0
        stats["screened"] = 0

    values = range(-bound, bound + 1)
    for rec in itertools.product(values, repeat=L1):
        for init in itertools.product(values, repeat=L1):
            first = next((d for d in init if d), None)
            if first is None or first < 0:
                continue
            if time.monotonic() > deadline:
                raise BudgetExhausted(
                    f"brute-force search did not finish within {budget} s"
                )
            if stats is not None:
                stats["candidates"] += 1
            cand = CFiniteSeq(init, rec)
            u = eval_terms(cand, n_terms)
            if not _divides(u, target):
                continue
            if stats is not None:
                stats["screened"] += 1
            pair = _cofactor(seq, cand, u, target, L2)
            if pair is not None:
                return pair
    return None


def _divides(u, target):
    for a, b in zip(u, target):
        if a == 0:
            if b != 0:
                return False
        elif b % int(a) != 0:
            return False
    return True


def _longest_run(u):
    """(start, length) of the longest zero-free stretch of u."""
    best = (0, 0)
    start = None
    for n, v in enumerate(u + [Fraction(0)]):
        if v != 0:
            if start is None:
                start = n
        elif start is not None:
            if n - start > best[1]:
                best = (start, n - start)
            start = None
    return best


def _cofactor(original, cand, u, target, L2):
    start, length = _longest_run(u)
    if length < 2 * L2 + 4:
        return None
    quotient = [Fraction(target[n], int(u[n])) for n in range(start, start + length)]
    run = guess.guess_rec(quotient, guess.GuessConfig(max_order=L2))
    if run is None:
        return None
    right_init = _right_init_system(u, list(run.rec), [Fraction(t) for t in target])
    if right_init is None:
        return None
    right = CFiniteSeq(right_init, run.rec)
    cert = guess.prove_equal(guess.mul(cand, right), original)
    if not cert.verified:
        return None
    left, right, note = _normalize_integer_pair(cand, right)
    cert = guess.prove_equal(guess.mul(left, right), original)
    if not cert.verified:
        return None
    return _ordered_pair(left, right, note, cert)


def _normalize_integer_pair(left, right):
    """Sign gauge, content 1, positive first nonzero term (integers kept)."""
    notes = []
    # only the sign part of the gauge preserves integrality
    if _sign_flipped(left.rec):
        left, right = _apply_gauge(left, Fraction(-1)), _apply_gauge(right, Fraction(-1))
        notes.append("sign gauge lambda = -1")
    terms = eval_terms(left, 2 * left.order + 4)
    g = content(terms)
    if next((t for t in terms if t != 0), 1) < 0:
        g = -g
    if g != 1:
        left, right = scale(left, 1 / g), scale(right, g)
        notes.append(f"left factor divided by content {g}")
    return left, right, "; ".join(notes) or "already canonical"
