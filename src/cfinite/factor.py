"""Actual factorization of C-finite sequences into termwise products.

After one front (roots._minimal), the routes only propose pairs of
factor recurrences.  factorize_roots first tries, when one order is 2,
an exact route (_order_2_candidates): the order-2 factor's root ratio is
a rational root of the folded ratio polynomial of roots.py, and the
cofactor's power sums are the product's divided by the factor's.  Only
when that certifies nothing, or no order is 2, does it read the
recurrences off an L1 x L2 grid of characteristic roots
(gamma_ij = alpha_i * beta_j) in one gauge (alpha_i s, beta_j / s),
which a Euclid over the indices of the nonzero elementary symmetric
functions of the alphas and betas makes rational (_extract_factors);
floating point only finds the grid and s, and rational reconstruction
recovers the recurrences.  factorize_integer searches integer left
factors with bounded coefficients, screens them by divisibility in
Python ints and guesses the cofactor's recurrence from the quotient.

One back (_pair) takes the initial terms from one exact rank-1 solve
(_split), puts the pair in one normal form (_normal_form) in the route's
own gauge and returns it only with a verified equality certificate:
nothing is ever reported on numerical evidence alone.

This module holds the package's whole numeric precision policy for
factoring: the working precision of the root finder (_char_roots),
the precision ladder of factorize_roots, the grid and gauge tolerances,
the reconstruction denominator bound, which grows with the precision, and
the trial-division bound of the canonical gauge.  mpmath is imported
inside the functions of the root grid, so importing the package, and any
factorization the exact order-2 route finds, leave it unloaded.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from . import guess
from .core import CFiniteSeq, _valuation, content, eval_terms, scale
from .linalg import solve
from .roots import (
    DEFAULT_DIGITS,
    PrecisionError,
    _from_power_sums,
    _minimal,
    _power_sums,
    _ratio_quotient,
    _require_simple_roots,
    _square_free,
)


class BudgetExhausted(RuntimeError):
    """The brute-force search ran out of time before exhausting its space."""


# the gauge needs a base for the left recurrence's coefficients; trial
# division past this bound could run for hours on a large prime squared
_TRIAL_LIMIT = 10**6


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


def _split(m, left_rec, right_rec):
    """Initial terms (x, y) with m = (x, left_rec) * (y, right_rec).

    With u_k, v_l the unit-initial-term sequences of the two recurrences,
    any such product is sum M_kl u_k(n) v_l(n) with M = x y^T.  If m lies in
    the span of the u_k v_l at all, its minimal order L1 * L2 makes them a
    basis, so M is the unique solution of one exact linear system, and m
    splits over these recurrences exactly when M has rank 1.  Returns None
    when the system is inconsistent (the recurrences are not m's factor
    recurrences) and False when M has rank 0 or > 1 (m is no product over
    them).  x is scaled so its first nonzero entry is 1.
    """
    L1, L2 = len(left_rec), len(right_rec)
    n_terms = 2 * L1 * L2 + 4
    us, vs = (
        [
            eval_terms(CFiniteSeq([int(i == j) for i in range(L)], rec), n_terms)
            for j in range(L)
        ]
        for rec, L in ((left_rec, L1), (right_rec, L2))
    )
    rows = [[u[n] * v[n] for u in us for v in vs] for n in range(n_terms)]
    flat = solve(rows, eval_terms(m, n_terms))
    if flat is None:
        return None
    if not any(flat):
        return False
    M = [flat[k * L2 : (k + 1) * L2] for k in range(L1)]
    y = next(row for row in M if any(row))
    j0 = next(j for j, v in enumerate(y) if v)
    x = [row[j0] / y[j0] for row in M]
    if any(M[k][j] != x[k] * y[j] for k in range(L1) for j in range(L2)):
        return False
    return x, y


def _pair(original, m, left_rec, right_rec, gauge):
    """The one back of every route: _split, _normal_form under gauge, proof.

    The certified FactorPair; None when the recurrences do not span m or
    the proof fails, False when m is no product over them (see _split).
    """
    split = _split(m, left_rec, right_rec)
    if not split:
        return split
    left, right, note = _normal_form(
        CFiniteSeq(split[0], left_rec), CFiniteSeq(split[1], right_rec), gauge
    )
    cert = guess.prove_equal(guess.mul(left, right), original)
    return FactorPair(left, right, note, cert) if cert.verified else None


def _mpf_to_fraction(x) -> Fraction:
    import mpmath
    sign, man, exp, _ = mpmath.mpf(x)._mpf_
    if man == 0:
        return Fraction(0)
    v = Fraction(man) * (Fraction(2) ** exp)
    return -v if sign else v


def _reconstruct(z, digits):
    """Rational value of a high-precision (near-real) number, or None.

    Denominators up to 10^(digits // 5) are tried, so each rung of the
    precision ladder can recover larger ones.  A real number is typically
    within only about 10^(-2 digits / 5) of a fraction that small, so the
    required match to 10^(-digits/2) rarely holds by chance (and the
    certificate checks every pair in the end).
    """
    import mpmath
    tol = mpmath.mpf(10) ** (-digits // 2)
    if abs(mpmath.im(z)) > tol * (1 + abs(z)):
        return None
    x = mpmath.re(z)
    f = _mpf_to_fraction(x).limit_denominator(10 ** (digits // 5))
    fx = mpmath.mpf(f.numerator) / mpmath.mpf(f.denominator)
    if abs(x - fx) > tol * (1 + abs(x)):
        return None
    return f


def _elementary(roots):
    """The elementary symmetric functions e_0, ..., e_L of the roots."""
    import mpmath
    es = [mpmath.mpc(1)]
    for r in roots:
        es = [a + r * b for a, b in zip(es + [0], [0] + es)]
    return es


def _gauge_base(n: int):
    """The primes up to _TRIAL_LIMIT dividing n, plus the root of the rest.

    Trial division stops at _TRIAL_LIMIT, so the cofactor left over after it
    is a product of primes above the limit.  It joins the base as the r of
    r^k with k as large as possible, whether or not r is prime, so the
    base is found for every n.  _gauge_scale calls it on the gcd of the
    numerators and on each denominator, nothing else.
    """
    n = abs(n)
    out = set()
    d = 2
    while d * d <= n and d <= _TRIAL_LIMIT:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1 if d == 2 else 2
    if n < d * d:
        return out | {n} if n > 1 else out
    # every prime of the cofactor exceeds 2^(bit length of the limit - 1)
    top = n.bit_length() // (_TRIAL_LIMIT.bit_length() - 1)
    return out | {next(r for k in range(top, 0, -1) if (r := _iroot(n, k)) ** k == n)}


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 1, by Newton's method on integers."""
    r = 1 << -(-n.bit_length() // k)
    while (y := ((k - 1) * r + n // r ** (k - 1)) // k) < r:
        r = y
    return r


def _gauge_scale(rec) -> Fraction:
    """The lambda with lambda^i c_i weighted-primitive, times _sign_gauge.

    A factor pair carries the gauge freedom (left, right) ->
    (lambda^n left, lambda^-n right).  This picks the positive lambda, a
    product of powers of base elements, for which the rescaled recurrence
    coefficients are integers with no base element removable from every
    weighted slot.  When the base holds only primes, that lambda is unique.

    The base is _gauge_base of the gcd of the numerators and of each
    denominator.  No other prime p can enter lambda: some nonzero c_j then
    has v_p(c_j) = 0 and no c_i has v_p(c_i) < 0, so its exponent
    max_i ceil(-v_p(c_i) / i) is 0.
    """
    base = _gauge_base(gcd(*(c.numerator for c in rec))).union(
        *(_gauge_base(c.denominator) for c in rec)
    )
    lam = Fraction(1)
    for p in sorted(base):
        # ceil(-v_p(c_i) / i), the least exponent making lambda^i c_i p-integral
        lam *= Fraction(p) ** max(
            -((_valuation(c.numerator, p) - _valuation(c.denominator, p)) // i)
            for i, c in enumerate(rec, start=1)
            if c
        )
    return lam * _sign_gauge(rec)


def _sign_gauge(rec) -> Fraction:
    """-1 when the first nonzero c_i at odd i is negative, else 1.

    The only gauge that keeps integer factors integral.
    """
    return Fraction(-1 if next((c for c in rec[0::2] if c), 0) < 0 else 1)


def _apply_gauge(seq: CFiniteSeq, lam: Fraction) -> CFiniteSeq:
    """Term n scaled by lambda^n (recurrence coefficient i by lambda^i)."""
    init = [d * lam**n for n, d in enumerate(seq.init)]
    rec = [c * lam**i for i, c in enumerate(seq.rec, start=1)]
    return CFiniteSeq(init, rec)


def _normal_form(left, right, gauge):
    """The canonical representative of the split left * right, with a note.

    A split is unique up to the gauge (lambda^n left, lambda^-n right) and a
    constant.  The factor printed on the left is rescaled by gauge(rec) and
    divided by the signed content of its initial terms.  It is the
    lower-order factor; for equal orders, and for the sign of lambda when no
    c_i at odd i is nonzero, the choice whose pair sorts first by (order,
    rec, init) wins, so the argument order does not matter.
    """

    def form(a, b, lam):
        a, b = _apply_gauge(a, lam), _apply_gauge(b, 1 / lam)
        g = content(a.init) * (1 if next(d for d in a.init if d) > 0 else -1)
        notes = [f"gauge lambda = {lam}"] * (lam != 1)
        notes += [f"left factor divided by {g}"] * (g != 1)
        return scale(a, 1 / g), scale(b, g), "; ".join(notes) or "already canonical"

    if left.order > right.order:
        left, right = right, left
    forms = []
    for a, b in [(left, right), (right, left)][: 1 + (left.order == right.order)]:
        lam = gauge(a.rec)
        forms.append(form(a, b, lam))
        if not any(a.rec[0::2]):
            forms.append(form(a, b, -lam))
    return min(forms, key=lambda f: ([(s.order, s.rec, s.init) for s in f[:2]], f[2]))


def factorize_roots(seq: CFiniteSeq, L1: int, L2: int, digits: int = DEFAULT_DIGITS):
    """Factor into an order-L1 times an order-L2 sequence, or None.

    When one order is 2, the exact order-2 route (_order_2_candidates)
    proposes recurrence pairs first.  If _pair certifies none of them, or
    no order is 2, the root grid tries a precision ladder (digits, 2x, 4x)
    while some grid is unresolved: its factor recurrences could not be
    reconstructed rationally, or they do not span the sequence.  Returns
    None when no grid is left unresolved and none splits (the exact
    coefficient matrix of _split has rank other than 1), and raises
    PrecisionError when a grid is still unresolved at the top of the
    ladder.
    """
    m = _minimal(seq, (L1, L2))
    _require_simple_roots(m)
    if 2 in (L1, L2):
        for A, B in _order_2_candidates(m):
            if pair := _pair(seq, m, A, B, _gauge_scale):
                return pair
    return _grid_ladder(seq, m, L1, L2, digits)


def _order_2_candidates(m):
    """Recurrence pairs (A, B), A of order 2, read off m exactly.

    If A = z^2 - a z - b is a factor of m and B, of order K = m.order / 2,
    the other, the ratio alpha_1 / alpha_2 of A's roots and its inverse
    occur once for each root of B among the root ratios of m, so the
    folded ratio polynomial S (roots._ratio_quotient) has the root w = c t
    with multiplicity at least K, where t = alpha_1/alpha_2 +
    alpha_2/alpha_1 = -(a^2 + 2b)/b.  The candidates t are the rational roots of the
    square-free parts of S of multiplicity at least K and degree 1 or 2.
    In the gauge a = 1, b = -1/(t + 2) (the root -2c, t = -2, is divided
    out of S).  B's power sums are p_P(k) / p_A(k) (the composed product;
    Brawley-Carlitz 1987), and Newton's identities give B's recurrence
    when no p_A(k), k <= K, is 0.  _pair certifies each pair like one
    from the root grid.
    """
    K = m.order // 2
    c, _, S = _ratio_quotient(m.rec)
    p_P = _power_sums(m.rec, K)
    for t in _rational_roots(_square_free(S), K, c):
        A = [Fraction(1), -1 / (t + 2)]
        p_A = _power_sums(A, K)
        if 0 not in p_A:
            yield A, _from_power_sums([x / y for x, y in zip(p_P, p_A)], K)


def _rational_roots(parts, K, c):
    """The rational roots w / c of the linear and quadratic square-free parts
    of multiplicity at least K; a quadratic's roots are rational exactly
    when its discriminant is a square."""
    for k, f in parts:
        if k < K:
            continue
        if len(f) == 2:
            yield Fraction(-f[0], f[1] * c)
        elif len(f) == 3:
            disc = f[1] * f[1] - 4 * f[0] * f[2]
            if disc >= 0 and (r := isqrt(disc)) ** 2 == disc:
                yield Fraction(r - f[1], 2 * f[2] * c)
                yield Fraction(-r - f[1], 2 * f[2] * c)


def _grid_ladder(original, m, L1, L2, digits):
    """The root grid at digits, 2x, 4x (see factorize_roots)."""
    import mpmath
    rest = list(range(1, L1 * L2))
    for d in (digits, 2 * digits, 4 * digits):
        roots = _char_roots(m, d)
        unresolved = False
        with mpmath.workdps(d + 20):
            tol = mpmath.mpf(10) ** (-d // 2)
            for col in itertools.combinations(rest, L1 - 1):
                after_col = [i for i in rest if i not in col]
                for row in itertools.combinations(after_col, L2 - 1):
                    grid = _match_grid(roots, col, row, tol)
                    if grid is None:
                        continue
                    recs = _extract_factors(grid, roots, L1, L2, d, tol)
                    pair = recs and _pair(original, m, *recs, _gauge_scale)
                    if pair:
                        return pair
                    unresolved = unresolved or pair is None
        if not unresolved:
            return None
    raise PrecisionError(
        "a consistent root grid exists but rational reconstruction failed "
        f"even at {4 * digits} digits"
    )


def _char_roots(m: CFiniteSeq, digits: int) -> list:
    """Roots of z^L - c_1 z^(L-1) - ... - c_L to `digits` digits, sorted.

    m must have c_L != 0 and simple roots (_require_simple_roots).
    mpmath.polyroots stops once every correction is below an absolute
    epsilon.  The working digits therefore add the decimal digits of the
    reciprocal Cauchy bound 1 + max |c_i / c_L| on 1/|z|, and polyroots
    iterates at twice that precision plus the bits of the Cauchy bound on
    |z|, so every root, however large or small, gets `digits` significant
    digits.  Cleanup, which would set a root below the epsilon to 0, is off.
    PrecisionError if it does not converge.  Sorted by (real, imag) part.
    """
    import mpmath
    reciprocal = 1 + max(abs(c) for c in [1, *m.rec]) / abs(m.rec[-1])
    with mpmath.workdps(digits + 20 + len(str(int(reciprocal)))):
        cauchy_bits = int(1 + max(abs(c) for c in m.rec)).bit_length()
        try:
            zs = mpmath.polyroots(
                [1] + [-c for c in m.rec],
                maxsteps=200 + 20 * digits,
                cleanup=False,
                extraprec=mpmath.mp.prec + cauchy_bits,
            )
        except mpmath.mp.NoConvergence:
            raise PrecisionError(
                f"characteristic roots did not converge at {digits} digits"
            ) from None
    return sorted(zs, key=lambda z: (mpmath.re(z), mpmath.im(z)))


def _match_grid(roots, col, row, tol):
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
            if best is None or best_d > tol * abs(predicted):
                return None
            grid[i][j] = best
            remaining.remove(best)
    return grid


def _extract_factors(grid, roots, L1, L2, digits, tol):
    """The two factor recurrences of one root grid; None if reconstruction fails."""
    import mpmath
    alphas = [roots[grid[i][0]] for i in range(L1)]
    betas = [roots[grid[0][j]] / roots[grid[0][0]] for j in range(L2)]
    ea, eb = _elementary(alphas), _elementary(betas)

    # gauge: alpha_i = a_i b_0 and beta_j = b_j / b_0 for a true split (a, b),
    # so e_k(alpha) is b_0^k and e_j(beta) b_0^-j times a rational.  Euclid on
    # the exponents, carrying the values, ends at t = b_0^g times a rational,
    # g = +-1 (a gcd G > 1 would close both root sets under a G-th root of
    # unity: a repeated root), and s = t^-g makes s b_0 rational.  Stopping
    # at |g| = 1 keeps s = 1 / e_1(alpha); e_0, at n = 0, changes nothing.
    ra, rb = max(abs(a) for a in alphas), max(abs(b) for b in betas)
    g, t = 0, mpmath.mpf(1)
    for n, x in [*enumerate(ea), *((-j, e) for j, e in enumerate(eb))]:
        if abs(x) <= tol * (ra if n > 0 else rb) ** abs(n):
            continue
        while n:
            (g, t), (n, x) = (n, x), (g % n, t / x ** (g // n))
        if abs(g) == 1:
            break
    s = t**-g
    # c_k = (-1)^(k+1) e_k(u * roots) = -e_k (-u)^k
    left_rec, right_rec = (
        [_reconstruct(-e * (-u) ** k, digits) for k, e in enumerate(es) if k]
        for es, u in ((ea, s), (eb, 1 / s))
    )
    if None in left_rec or None in right_rec:
        return None
    return left_rec, right_rec


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
    ValueError for bound < 1, a budget that is not positive or a sequence
    that is not integral.
    """
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    if not budget > 0:
        raise ValueError(f"budget must be > 0 seconds, got {budget}")
    deadline = time.monotonic() + budget
    m = _minimal(seq, (L1, L2))
    # Fatou's lemma: an integer sequence has an integral minimal recurrence
    if any(x.denominator != 1 for x in (*m.init, *m.rec)):
        raise ValueError("factorize_integer requires an integer sequence")
    target = [int(t) for t in eval_terms(m, 2 * L1 * L2 + 4)]
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
            u = _screen(init, rec, target)
            if u is None:
                continue
            if stats is not None:
                stats["screened"] += 1
            right_rec = _cofactor(u, target, L2)
            if right_rec and (pair := _pair(seq, m, rec, right_rec, _sign_gauge)):
                return pair
    return None


def _screen(init, rec, target):
    """The integer terms of (init, rec) while each divides its target term;
    None at the first that does not."""
    u = list(init)
    for n, b in enumerate(target):
        if n >= len(u):
            u.append(sum(c * v for c, v in zip(rec, reversed(u))))
        a = u[n]
        if b % a if a else b:
            return None
    return u


def _longest_run(u):
    """(start, length) of the longest zero-free stretch of u."""
    best = (0, 0)
    start = None
    for n, v in enumerate(u + [0]):
        if v != 0:
            if start is None:
                start = n
        elif start is not None:
            if n - start > best[1]:
                best = (start, n - start)
            start = None
    return best


def _cofactor(u, target, L2):
    """The right recurrence guessed from target / u on u's longest
    zero-free run, or None."""
    start, length = _longest_run(u)
    if length < 2 * L2 + 4:
        return None
    quotient = [Fraction(target[n], u[n]) for n in range(start, start + length)]
    run = guess.guess_rec(quotient, guess.GuessConfig(max_order=L2))
    return None if run is None else run.rec
