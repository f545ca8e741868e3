"""Actual factorization of C-finite sequences into termwise products.

After one front (roots._minimal), the routes only propose pairs of
factor recurrences.  The pair (1, m) comes first when an order is 1 (m
= 1^n m) and, when one is 2, an exact route (_order_2_candidates): the
order-2 factor's root ratio is a rational root of the folded ratio
polynomial of roots.py, and the cofactor's power sums are the product's
divided by the factor's.  Only when these certify nothing, or no order
is 1 or 2, are the recurrences read off an L1 x L2 grid of roots
(gamma_ij = alpha_i * beta_j) over Z/p^N (_grid_ladder): the roots are
found and matched exactly mod a prime p, lifted to p^N, put in one
rational gauge (_extract_factors) and recovered by rational
reconstruction.

One back (_pair) takes the initial terms from one exact rank-1 solve
(_split), puts the pair in one normal form (_normal_form) and returns it
only with a verified equality certificate: nothing is ever reported on
modular evidence alone.  Both factorisers run this pipeline (_factorize)
with their own gauge magnitude, _gauge_scale or _integer_gauge.

No floating point is used.  `digits` of factorize_roots sets the p-adic
working precision p^N >= 10^digits of the lift and its ladder (digits,
2x, 4x); the other bounds are the number of good primes the split-prime
search tries and the trial-division bound of the canonical gauge.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd, isqrt

from . import guess
from .core import CFiniteSeq, _coprime_base, _image, _integer_image, _step, _valuation
from .core import content, scale
from .core import _derivative, _from_power_sums, _power_sums, _square_free, _sub
from .core import _gcd_mod, _is_prime, _mulmod, _shiftmod, _zpow
from .linalg import solve
from .roots import DEFAULT_DIGITS, PrecisionError, _minimal, _ratio_quotient
from .roots import _require_simple_roots


class BudgetExhausted(RuntimeError):
    """factorize_integer's budget ran out before it tried every gauge."""


# the gauge needs a base for the left recurrence's coefficients; trial
# division past this bound could run for hours on a large prime squared
_TRIAL_LIMIT = 10**6


@dataclass(frozen=True)
class FactorPair:
    left: CFiniteSeq
    right: CFiniteSeq
    certificate: guess.ProofCertificate

    def __str__(self):
        return (
            f"left  = {self.left}\n"
            f"right = {self.right}\n"
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

    The system is built on integer images (core._image): u_k(n) = X_k(n) /
    D1^n, v_l(n) = Y_l(n) / D2^n and m(n) = Z(n) / (E D^n), so equation n
    times E D^n (D1 D2)^n has the int row E D^n X_k(n) Y_l(n) and the
    right side (D1 D2)^n Z(n), with the same solution.
    """
    L1, L2 = len(left_rec), len(right_rec)
    n_terms = 2 * L1 * L2 + 4
    (D1, us), (D2, vs) = (_unit_images(rec, n_terms) for rec in (left_rec, right_rec))
    E, D, z = _image(m, n_terms)
    rows, rhs, left, right = [], [], E, 1
    for n in range(n_terms):
        rows.append([left * u[n] * v[n] for u in us for v in vs])
        rhs.append(right * z[n])
        left, right = left * D, right * D1 * D2
    flat = solve(rows, rhs)
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


def _unit_images(rec, N):
    """(D, images): images[j] the first N terms of D^n u_j(n), u_j the
    sequence with the recurrence rec and the unit initial terms e_j.

    One integer image (core._integer_image, whose E is 1 here) gives D and
    the integer recurrence w; each D^n u_j starts at D^j e_j and is stepped
    on that w."""
    L = len(rec)
    _, D, w, _ = _integer_image(CFiniteSeq([1] + [0] * (L - 1), rec))
    return D, [_step(w, [0] * j + [D**j] + [0] * (L - 1 - j), N) for j in range(L)]


def _pair(original, m, left_rec, right_rec, gauge):
    """The one back of every route: _split, _normal_form under gauge, proof.

    The certified FactorPair; None when the recurrences do not span m,
    False when m is no product over them (_split) or the gauge rejects it.
    A split proves itself (_split solves on more than 2 L1 L2 terms), so a
    failed proof raises InvariantViolation.
    """
    split = _split(m, left_rec, right_rec)
    if not split:
        return split
    form = _normal_form(CFiniteSeq(split[0], left_rec), CFiniteSeq(split[1], right_rec), gauge)
    if form is None:
        return False
    left, right = form
    cert = guess.prove_equal(guess.mul(left, right), original)
    if not cert.verified:
        raise guess.InvariantViolation(f"split factors failed their proof: {cert}")
    return FactorPair(left, right, cert)


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
    """The positive lambda with lambda^i c_i weighted-primitive.

    A factor pair carries the gauge freedom (left, right) ->
    (lambda^n left, lambda^-n right).  This picks the positive lambda, a
    product of powers of base elements, for which the rescaled recurrence
    coefficients are integers with no base element removable from every
    weighted slot.  When the base holds only primes, that lambda is unique.

    The base is the coprime base of the _gauge_base elements of the gcd of
    the numerators and of each denominator, so a shared cofactor above
    _TRIAL_LIMIT splits.  No other prime p can enter lambda: some nonzero
    c_j then has v_p(c_j) = 0 and no c_i has v_p(c_i) < 0, so its exponent
    max_i ceil(-v_p(c_i) / i) is 0.
    """
    base = _gauge_base(gcd(*(c.numerator for c in rec))).union(
        *(_gauge_base(c.denominator) for c in rec)
    )
    lam = Fraction(1)
    for p in sorted(_coprime_base(base)):
        # ceil(-v_p(c_i) / i), the least exponent making lambda^i c_i p-integral
        lam *= Fraction(p) ** max(
            -((_valuation(c.numerator, p) - _valuation(c.denominator, p)) // i)
            for i, c in enumerate(rec, start=1)
            if c
        )
    return lam


def _apply_gauge(seq: CFiniteSeq, lam: Fraction) -> CFiniteSeq:
    """Term n scaled by lambda^n (recurrence coefficient i by lambda^i)."""
    init = [d * lam**n for n, d in enumerate(seq.init)]
    rec = [c * lam**i for i, c in enumerate(seq.rec, start=1)]
    return CFiniteSeq(init, rec)


def _normal_form(left, right, gauge):
    """The canonical representative (left, right) of the split left * right.

    Canonical per class of splits under the gauge (lambda^n left,
    lambda^-n right) and a constant; a product may split in several classes
    (README), and the factorisers print the first that _pair certifies.
    The left factor a is the lower-order one.  It is rescaled by lambda =
    +-gauge(a, b) (None rejects the split), the sign making its first
    nonzero c_i at odd i positive, and divided by the signed content of its
    initial terms.  For equal orders, and for the sign when no c_i at odd i
    is nonzero, the pair that sorts first by (order, rec, init) wins, so
    the argument order does not matter.
    """

    def form(a, b, lam):
        a, b = _apply_gauge(a, lam), _apply_gauge(b, 1 / lam)
        g = content(a.init) * (1 if next(d for d in a.init if d) > 0 else -1)
        return scale(a, 1 / g), scale(b, g)

    if left.order > right.order:
        left, right = right, left
    forms = []
    for a, b in [(left, right), (right, left)][: 1 + (left.order == right.order)]:
        lam = gauge(a, b)
        if lam is None:
            return None
        odd = next((c for c in a.rec[0::2] if c), 0)
        forms += [form(a, b, s * lam) for s in (1, -1) if s * odd >= 0]
    return min(forms, key=lambda f: [(s.order, s.rec, s.init) for s in f])


def factorize_roots(seq: CFiniteSeq, L1: int, L2: int, digits: int = DEFAULT_DIGITS):
    """Factor into an order-L1 times an order-L2 sequence, or None.

    The pair (1, m) when an order is 1 (m = 1^n m) and, when one is 2, the
    exact order-2 route (_order_2_candidates) propose recurrence pairs
    first.  If _pair certifies none, or no order is 1 or 2, the root grid
    over Z/p^N (_grid_ladder) climbs a precision ladder, p^N >= 10^digits,
    10^(2 digits), 10^(4 digits), while some grid is unresolved: its
    factor recurrences could not be reconstructed rationally, or they do
    not span the sequence.  None when a good prime refutes the split
    (_split_prime), when the split prime has no grid, or when no grid is
    left unresolved and none splits (the exact coefficient matrix of
    _split has rank other than 1).  PrecisionError when a grid is still
    unresolved at the top of the ladder or no split prime turns up;
    ValueError for digits < 1.
    """
    if digits < 1:
        raise ValueError(f"digits must be >= 1, got {digits}")
    m = _minimal(seq, (L1, L2))
    return _factorize(seq, m, L1, L2, digits, lambda a, b: _gauge_scale(a.rec))


def _factorize(original, m, L1, L2, digits, gauge):
    """Both factorisers on the front's m: _require_simple_roots, then each
    proposal (order 1, exact order 2, the grid ladder) to _pair, in turn."""
    _require_simple_roots(m)
    exact = [([Fraction(1)], m.rec)] if 1 in (L1, L2) else []
    for A, B in itertools.chain(exact, _order_2_candidates(m) if 2 in (L1, L2) else ()):
        if pair := _pair(original, m, A, B, gauge):
            return pair
    return _grid_ladder(original, m, L1, L2, digits, gauge)


def _order_2_candidates(m):
    """Recurrence pairs (A, B), A of order 2, read off m exactly.

    If A = z^2 - a z - b is a factor of m and B, of order K = m.order / 2,
    the other, the ratio alpha_1 / alpha_2 of A's roots and its inverse
    occur once for each root of B among the root ratios of m, so the
    folded ratio polynomial S has the root w = c t with multiplicity at
    least K, where t = alpha_1/alpha_2 + alpha_2/alpha_1 = -(a^2 + 2b)/b.
    roots._ratio_quotient gives S in u = w / |c| = sign(c) t, primitive, so
    the candidates t = sign(c) u are the rational roots u of its square-free
    parts of multiplicity at least K and degree 1 or 2, times sign(c).
    In the gauge a = 1, b = -1/(t + 2) (the root t = -2 is divided out).
    B's power sums are p_P(k) / p_A(k) (the composed product;
    Brawley-Carlitz 1987), and Newton's identities give B's recurrence
    when no p_A(k), k <= K, is 0.  _pair certifies each pair like one
    from the root grid.
    """
    K = m.order // 2
    sign, _, T = _ratio_quotient(m.rec)
    p_P = _power_sums(m.rec, K)
    for t in _rational_roots(_square_free(T), K, sign):
        A = [Fraction(1), -1 / (t + 2)]
        p_A = _power_sums(A, K)
        if 0 not in p_A:
            yield A, _from_power_sums([x / y for x, y in zip(p_P, p_A)], K)


def _rational_roots(parts, K, sign):
    """The rational roots u / sign (sign = +-1) of the linear and quadratic
    square-free parts of multiplicity at least K, larger u first; a
    quadratic's roots are rational exactly when its discriminant is a square."""
    for k, f in parts:
        if k < K:
            continue
        if len(f) == 2:
            yield Fraction(-f[0], f[1] * sign)
        elif len(f) == 3:
            disc = f[1] * f[1] - 4 * f[0] * f[2]
            if disc >= 0 and (r := isqrt(disc)) ** 2 == disc:
                yield Fraction(r - f[1], 2 * f[2] * sign)
                yield Fraction(-r - f[1], 2 * f[2] * sign)


def _grid_ladder(original, m, L1, L2, digits, gauge):
    """The root grid over Z/p^N, p^N >= 10^digits, 10^(2 digits), 10^(4 digits)."""
    found = _split_prime(m.rec, L1, L2)
    grids = found and list(_grids(*found, L1, L2))
    if not grids:
        return None
    p, roots = found
    for d in (digits, 2 * digits, 4 * digits):
        q = p ** next(N for N in itertools.count(1) if p**N >= 10**d)
        P = _char_mod(m.rec, q)
        gammas = [_lift(P, r, p, q) for r in roots]
        unresolved = False
        for grid in grids:
            recs = _extract_factors(grid, gammas, p, q)
            if pair := recs and _pair(original, m, *recs, gauge):
                return pair
            unresolved = unresolved or pair is None
        if not unresolved:
            return None
    raise PrecisionError(
        "a consistent root grid exists but rational reconstruction failed "
        f"even at {4 * digits} digits"
    )


def _fixed_point_counts(L1, L2) -> set:
    """How many of the L1 x L2 grid's points a pair of row and column
    permutations fixes: a b, a != L1 - 1, b != L2 - 1 (none fixes n - 1 of n)."""
    return {a * b for a in range(L1 + 1) if a != L1 - 1 for b in range(L2 + 1) if b != L2 - 1}


def _char_mod(rec, n) -> list:
    """z^L - c_1 z^(L-1) - ... - c_L mod n, prime to every denominator."""
    return [-c.numerator * pow(c.denominator, -1, n) % n for c in reversed(rec)] + [1]


def _split_prime(rec, L1, L2):
    """(p, the sorted roots of P = _char_mod(rec, p)) at the first good
    prime p > 2^20 where P has all L roots; None when a good prime refutes
    every split of orders L1, L2 over Q.  p is good when it divides no
    denominator and P(0) and P is square-free mod p; deg gcd(P, z^p - z)
    counts the roots Frobenius fixes, a pair (sigma, tau) on the grid of a
    rational split, so a count outside _fixed_point_counts refutes it.  A
    product's split primes have density >= 1 / (L1! L2!) (Chebotarev), so
    20 L1! L2! good primes without one (odds about e^-20): PrecisionError.
    """
    counts, p, good = _fixed_point_counts(L1, L2), (1 << 20) - 1, 0
    while good < 20 * factorial(L1) * factorial(L2):
        p += 2
        if not _is_prime(p) or not all(c.denominator % p for c in rec):
            continue
        P = _char_mod(rec, p)
        if not P[0] or len(_gcd_mod(P, _derivative(P), p)) > 1:
            continue
        good += 1
        k = len(_gcd_mod(P, _sub(_zpow_mod(p, P, p), [0, 1]), p)) - 1
        if k not in counts:
            return None
        if k == L1 * L2:
            return p, sorted(_roots_mod(P, p))
    raise PrecisionError(f"none of the first {good} good primes splits the recurrence")


def _zpow_mod(e, f, p, a=0) -> list:
    """(z + a)^e modulo p and the monic f: core._zpow with each step reduced
    mod p and each shift by z followed by + a."""
    return _zpow(e, [-x % p for x in reversed(f[:-1])],
                 lambda u, v, w: [x % p for x in _mulmod(u, v, w)],
                 lambda u, w: [(x + a * y) % p for x, y in zip(_shiftmod(u, w), u)])


def _roots_mod(f, p) -> list:
    """The roots of the monic f, a product of distinct linear factors mod the
    odd prime p (Cantor-Zassenhaus 1981): gcd(f, (z + a)^((p-1)/2) -+ 1) part
    them by whether r + a is a nonzero square, for the first a that splits f."""
    if len(f) == 2:
        return [-f[0] % p]
    for a in itertools.count(1):
        h = _zpow_mod((p - 1) // 2, f, p, a)
        g, c = (_gcd_mod(f, _sub(h, [x]), p) for x in (1, p - 1))
        if 1 < len(g) < len(f):
            roots = _roots_mod(g, p) + (_roots_mod(c, p) if len(c) > 1 else [])
            return roots + [-a % p] * (len(roots) < len(f) - 1)


def _grids(p, roots, L1, L2):
    """Index grids with r_ij r_00 = r_i0 r_0j that cover the roots mod p,
    r_00 the first.  Only roots that map L2 roots into the root set under
    multiplication by r / r_00 can head a column, and L1 roots a row."""
    index = {r: k for k, r in enumerate(roots)}
    inv = pow(roots[0], -1, p)
    hits = [sum(r * x * inv % p in index for x in roots) for r in roots]
    cols, rows = ([k for k in range(1, len(roots)) if hits[k] >= n] for n in (L2, L1))
    for col in itertools.combinations(cols, L1 - 1):
        for row in itertools.combinations([k for k in rows if k not in col], L2 - 1):
            grid = [[index.get(roots[i] * roots[j] * inv % p) for j in (0, *row)]
                    for i in (0, *col)]
            if {k for line in grid for k in line} == set(range(len(roots))):
                yield grid


def _lift(P, r, m, q) -> int:
    """The root of P that is the simple root r mod m, mod q = m^k (Newton, Horner)."""
    while m < q:
        m, v, d = min(m * m, q), 0, 0
        for c in reversed(P):
            v, d = (v * r + c) % m, (d * r + v) % m
        r = (r - v * pow(d, -1, m)) % m
    return r


def _elementary(roots, q) -> list:
    """The elementary symmetric functions e_0, ..., e_L of the roots mod q."""
    es = [1]
    for r in roots:
        es = [(a + r * b) % q for a, b in zip(es + [0], [0] + es)]
    return es


def _extract_factors(grid, gammas, p, q):
    """The two factor recurrences of a grid of roots mod q = p^N; None unless rational."""
    inv = pow(gammas[grid[0][0]], -1, q)
    ea = _elementary([gammas[line[0]] for line in grid], q)
    eb = _elementary([gammas[j] * inv for j in grid[0]], q)
    # gauge: alpha_i = a_i b_0 and beta_j = b_j / b_0 for a true split (a, b),
    # so e_k(alpha) is b_0^k and e_j(beta) b_0^-j times a rational.  Euclid on
    # the exponents, carrying the values, ends at t = b_0^g times a rational,
    # g = +-1 (a gcd G > 1 would close both root sets under a G-th root of
    # unity: a repeated root), and s = t^-g makes s b_0 rational.  Stopping
    # at |g| = 1 keeps s = 1 / e_1(alpha); e_0, at n = 0, changes nothing.
    # Values that are 0 mod p have no inverse mod q and are skipped.
    g, t = 0, 1
    for n, x in [*enumerate(ea), *((-j, e) for j, e in enumerate(eb))]:
        if x % p == 0:
            continue
        while n:
            (g, t), (n, x) = (n, x), (g % n, t * pow(x, -(g // n), q) % q)
        if abs(g) == 1:
            break
    s = pow(t, -g, q)
    # c_k = (-1)^(k+1) e_k(u * roots) = -e_k (-u)^k
    recs = [[_rational(-e * pow(-u, k, q), q) for k, e in enumerate(es) if k]
            for es, u in ((ea, s), (eb, pow(s, -1, q)))]
    return None if None in recs[0] + recs[1] else recs


def _rational(x, q):
    """The one fraction a / b = x mod q with |a|, |b| <= sqrt(q / 2), or
    None: Wang's (1981) rational reconstruction, a half extended Euclid."""
    bound = isqrt(q // 2)
    r0, r1, t0, t1 = q, x % q, 0, 1
    while r1 > bound:
        k = r0 // r1
        r0, r1, t0, t1 = r1, r0 - k * r1, t1, t0 - k * t1
    return Fraction(r1, t1) if abs(t1) <= bound and gcd(r1, t1) == 1 else None


def factorize_integer(
    seq: CFiniteSeq,
    L1: int,
    L2: int,
    bound: int,
    budget: float = 60.0,
    stats: dict | None = None,
):
    """Factor an integer sequence into integer factors, or None.

    factorize_roots' pipeline in the integer gauge (_integer_gauge): the
    order-L1 factor's recurrence and primitive initial terms are integers
    in [-bound, bound], and the cofactor is integral.  The first proposal
    with such a gauge wins; None when none has one.  Repeated roots raise
    DegenerateRootsError, and the split-prime search or the ladder (at
    DEFAULT_DIGITS) PrecisionError when it gives up.  `budget` is a
    deadline in seconds, checked as gauges are tried (BudgetExhausted).
    `stats` gets "candidates", the gauges lambda tried (>= 1 when a pair
    is returned), and "screened", those accepted.  ValueError for bound <
    1, a budget that is not positive or a sequence that is not integral.
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
    stats = {} if stats is None else stats
    stats.update(candidates=0, screened=0)
    gauge = _integer_gauge(L1, bound, deadline, stats)
    return _factorize(seq, m, L1, L2, DEFAULT_DIGITS, gauge)


def _integer_gauge(L1, bound, deadline, stats):
    """gauge(a, b), the |lambda| for a, or None; F is the one of order L1.

    lambda is accepted when F(lambda) divided by the content c of its
    initial terms has integer data in [-bound, bound] and c G(1 / lambda),
    G the other factor, is integral (Fatou).  With mu = _gauge_scale(F.rec),
    no prime is removable from every weighted slot, so F's recurrence is
    integral only at lambda = +-mu t, t >= 1 an integer, and G's only when
    t^j divides its j-th coefficient at 1 / mu.  The accepted lambda whose F recurrence
    sorts first wins, unsigned: _normal_form picks the sign.  It asks for
    both argument orders of an equal-order split; the search for each
    factor runs once per split and serves both.
    """

    @functools.cache
    def accepted(f, g):
        """The (sort key, lambda) of each lambda accepted for F = f, in order."""
        out = []
        mu = _gauge_scale(f.rec)
        rest = [d / mu**j for j, d in enumerate(g.rec, start=1)]
        if any(d.denominator != 1 for d in rest):
            return out
        for lam in (s * mu * t for t in _weighted_divisors(rest) for s in (-1, 1)):
            if time.monotonic() > deadline:
                raise BudgetExhausted("the gauge search ran past the budget")
            stats["candidates"] += 1
            F = _apply_gauge(f, lam)
            c = content(F.init)
            if max(abs(x) for x in (*F.rec, *(d / c for d in F.init))) > bound or any(
                (d * c / lam**n).denominator != 1 for n, d in enumerate(g.init)
            ):
                continue
            stats["screened"] += 1
            # f breaks 1 x 1 ties, so both argument orders pick one split
            out.append(((F.rec, f.rec, f.init), lam))
        return out

    def gauge(a, b):
        best = None
        for f, g, power in ((a, b, 1), (b, a, -1)):
            for key, lam in accepted(f, g) if f.order == L1 else ():
                if best is None or key < best[0]:
                    best = key, lam**power
        return best and abs(best[1])

    return gauge


def _weighted_divisors(rec) -> list:
    """The t >= 1 with t^j | c_j for each c_j of the integer rec, over
    _gauge_base of their gcd."""
    out = [1]
    for p in _gauge_base(gcd(*(int(c) for c in rec))):
        k = min(_valuation(int(c), p) // j for j, c in enumerate(rec, start=1) if c)
        out = [t * p**e for t in out for e in range(k + 1)]
    return out
