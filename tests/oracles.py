"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from scratch with the most naive
algorithm available (direct recursion, dense Gaussian elimination over
Fractions, exhaustive backtracking, mpmath.polyroots and numeric
clustering of root ratios, Kasteleyn's product in floating point) so a bug
in the package cannot hide behind shared code.  The one exception,
integer_factor_pair, shares factor._pair with the package and checks only
which split and gauge factorize_integer picks.
"""

import itertools
from fractions import Fraction
from math import comb, gcd, lcm, prod

import mpmath
from mpmath.libmp import NoConvergence


def recurrence_terms(init, rec, n):
    """First n terms of a(k) = sum_i rec[i] * a(k-1-i), naively."""
    out = [Fraction(x) for x in init][:n]
    rec = [Fraction(c) for c in rec]
    while len(out) < n:
        k = len(out)
        out.append(sum(c * out[k - 1 - i] for i, c in enumerate(rec)))
    return out


def series_of_rational(num, den, n):
    """First n Taylor coefficients of num(z)/den(z), den[0] != 0."""
    num = [Fraction(c) for c in num]
    den = [Fraction(c) for c in den]
    assert den[0] != 0
    out = []
    for k in range(n):
        c = num[k] if k < len(num) else Fraction(0)
        for j in range(1, min(k, len(den) - 1) + 1):
            c -= den[j] * out[k - j]
        out.append(c / den[0])
    return out


def gaussian_solve(rows, rhs):
    """Solve A x = b over Q; None if inconsistent, free unknowns set to 0.

    Independent of the package's solver: plain partial elimination on a
    dense augmented matrix.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    aug = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    pivots = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        pv = aug[r][c]
        aug[r] = [v / pv for v in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][n] != 0:
            return None
    x = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        x[c] = aug[i][n]
    return x


def rref_fractions(rows):
    """Reduced row echelon form over Fractions: (new rows, pivot_cols).

    Gauss-Jordan with pivots chosen left-to-right, top-to-bottom: each
    pivot row is divided by its pivot, then subtracted from every other row
    with a nonzero entry in the pivot column.
    """
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = Fraction(rows[r][c])
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(rows):
    """Rank over Q by forward elimination (no back substitution, no scaling)."""
    m = [[Fraction(v) for v in row] for row in rows]
    r = 0
    for c in range(len(m[0]) if m else 0):
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        for i in range(r + 1, len(m)):
            f = m[i][c] / m[r][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def poly_gcd_euclid(a, b):
    """Monic gcd over Q of two ascending coefficient lists, [] if both are 0.

    The schoolbook Euclidean algorithm on Fractions, with no content
    removal: coefficients swell, so keep the degrees small.
    """

    def trim(p):
        p = [Fraction(c) for c in p]
        while p and p[-1] == 0:
            p.pop()
        return p

    a, b = trim(a), trim(b)
    while b:
        r = list(a)
        while len(r) >= len(b):
            c, shift = r[-1] / b[-1], len(r) - len(b)
            for j, y in enumerate(b):
                r[shift + j] -= c * y
            r = trim(r)
        a, b = b, r
    return [c / a[-1] for c in a] if a else []



def sylvester_resultant(f, g):
    """Res(f, g) of two ascending coefficient lists with nonzero leading terms.

    The determinant of the Sylvester matrix (deg g shifted rows of f, then
    deg f shifted rows of g, coefficients from the top), by fraction_det;
    the package's norm-based resultant shares none of it.
    """
    p, q = len(f) - 1, len(g) - 1
    rows = [[0] * i + list(reversed(f)) + [0] * (q - 1 - i) for i in range(q)]
    rows += [[0] * i + list(reversed(g)) + [0] * (p - 1 - i) for i in range(p)]
    return fraction_det(rows)


def fraction_det(rows):
    """The determinant of a square matrix by dense Fraction elimination with
    row swaps counted; the package's fraction-free core._det shares none of
    it."""
    m = [[Fraction(v) for v in row] for row in rows]
    size, det = len(m), Fraction(1)
    for c in range(size):
        pr = next((i for i in range(c, size) if m[i][c] != 0), None)
        if pr is None:
            return Fraction(0)
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, size):
            k = m[i][c] / m[c][c]
            m[i] = [a - k * b for a, b in zip(m[i], m[c])]
    return det


def brute_force_guess(terms, max_order):
    """Smallest-order recurrence fitting all terms, or None.

    Returns (init, rec) as plain lists; verification is part of the
    search, not delegated anywhere.
    """
    terms = [Fraction(t) for t in terms]
    for L in range(1, max_order + 1):
        if 2 * L > len(terms):
            return None
        rows = [[terms[k - 1 - i] for i in range(L)] for k in range(L, len(terms))]
        rhs = [terms[k] for k in range(L, len(terms))]
        sol = gaussian_solve(rows, rhs)
        if sol is None:
            continue
        if recurrence_terms(terms[:L], sol, len(terms)) == terms:
            return terms[:L], sol
    return None


def berlekamp_massey_q(terms, max_l):
    """Linear complexity L and connection polynomial [1, C_1, ...] of the
    terms by Berlekamp-Massey over Q, or None once L exceeds max_l.

    The textbook update C <- C - (d / b) x^m B on Fractions: every
    multiply-add normalises, and nothing is scaled to integers.
    """
    terms = [Fraction(t) for t in terms]
    C, B = [Fraction(1)], [Fraction(1)]
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


def berlekamp_massey_fit(terms, max_l):
    """(init, rec) of the shortest recurrence of the terms at order
    <= max_l, by berlekamp_massey_q, or None: c_L = 0 is kept, and
    all-zero terms give ([0], [0])."""
    found = berlekamp_massey_q(terms, max_l)
    if found is None:
        return None
    L, C = found
    L = max(1, L)
    rec = [-c for c in C[1 : L + 1]]
    return [Fraction(t) for t in terms[:L]], rec + [Fraction(0)] * (L - len(rec))


def binomial_transform_terms(terms):
    return [
        sum(comb(n, k) * terms[k] for k in range(n + 1)) for n in range(len(terms))
    ]


def count_tilings(m, n):
    """Number of domino tilings of the m x n grid by raw backtracking.

    Cells are filled in row-major order; each empty cell is covered by a
    horizontal or vertical domino.  Exponential, so keep m * n small.
    """
    if m * n % 2:
        return 0
    grid = [[False] * n for _ in range(m)]

    def first_empty():
        for i in range(m):
            for j in range(n):
                if not grid[i][j]:
                    return i, j
        return None

    def rec():
        pos = first_empty()
        if pos is None:
            return 1
        i, j = pos
        total = 0
        if j + 1 < n and not grid[i][j + 1]:
            grid[i][j] = grid[i][j + 1] = True
            total += rec()
            grid[i][j] = grid[i][j + 1] = False
        if i + 1 < m and not grid[i + 1][j]:
            grid[i][j] = grid[i + 1][j] = True
            total += rec()
            grid[i][j] = grid[i + 1][j] = False
        return total

    return rec()


def weighted_tilings(m, n, h, v):
    """Sum of h^(#horizontal) * v^(#vertical) over all tilings, naively."""
    h, v = Fraction(h), Fraction(v)
    if m * n % 2:
        return Fraction(0)
    grid = [[False] * n for _ in range(m)]

    def first_empty():
        for i in range(m):
            for j in range(n):
                if not grid[i][j]:
                    return i, j
        return None

    def rec():
        pos = first_empty()
        if pos is None:
            return Fraction(1)
        i, j = pos
        total = Fraction(0)
        if j + 1 < n and not grid[i][j + 1]:
            grid[i][j] = grid[i][j + 1] = True
            total += h * rec()
            grid[i][j] = grid[i][j + 1] = False
        if i + 1 < m and not grid[i + 1][j]:
            grid[i][j] = grid[i + 1][j] = True
            total += v * rec()
            grid[i][j] = grid[i + 1][j] = False
        return total

    return rec()


def transfer_transitions(m):
    """Every row transition of the width-m transfer matrix once, grouped by
    source state: entry s lists the (next, h count, v count) of the
    transitions out of s.

    A state is the bitmask of the cells covered by a domino protruding
    into the next row; a transition fills every other cell of the row by a
    domino lying across the width (weight h) or by starting one along the
    strip (weight v, counted at its start).
    """
    out = []

    def fill(col, occupied, protrude, nh, nv):
        if col == m:
            out[-1].append((protrude, nh, nv))
            return
        if occupied >> col & 1:
            fill(col + 1, occupied, protrude, nh, nv)
            return
        fill(col + 1, occupied, protrude | (1 << col), nh, nv + 1)
        if col + 1 < m and not (occupied >> (col + 1) & 1):
            fill(col + 2, occupied, protrude, nh + 1, nv)

    for state in range(1 << m):
        out.append([])
        fill(0, state, 0, 0, 0)
    return out


def transfer_matrix_counts(m, N, h=1, v=1):
    """Weighted tiling counts of the m x n grid for n = 1..N, as Fractions:
    component 0 of e_0^T M^n for the 2^m x 2^m transfer matrix M.

    h weights the dominoes lying across the width, v those along the
    strip.  The weights are scaled to integers d h, d v; every path from
    the empty state back to it over n rows lays m n / 2 dominoes, so the
    integer count is divided by d^(m n/2).
    """
    h, v = Fraction(h), Fraction(v)
    d = lcm(h.denominator, v.denominator)
    hd, vd = int(h * d), int(v * d)
    rows = [[(t, hd**nh * vd**nv) for t, nh, nv in row] for row in transfer_transitions(m)]
    vec, out = [1] + [0] * (len(rows) - 1), []
    for n in range(1, N + 1):
        nxt = [0] * len(rows)
        for x, row in zip(vec, rows):
            if x:
                for t, w in row:
                    nxt[t] += x * w
        vec = nxt
        out.append(Fraction(vec[0], d ** (m * n // 2)))
    return out


def chebyshev_q(k: int) -> list:
    """Q_k (ascending) with Q_k(x^2) = x^(k mod 2) U_k(x/2), from the table
    P_0 = 1, P_1 = x, P_j = x P_(j-1) - P_(j-2) of P_j(x) = U_j(x/2)."""
    P = [[1], [0, 1]]
    while len(P) <= k:
        P.append([a - b for a, b in zip([0, *P[-1]], P[-2] + [0, 0])])
    return ([0] * (k % 2) + P[k])[::2]


def kasteleyn_product(m: int, n: int) -> int:
    """Closed-form tiling count of the m x n grid, via the double product.

    Evaluated in floating point at a precision scaled to the grid area and
    rounded; errors out rather than return a dubious rounding.
    """
    if m * n % 2:
        raise ValueError("m * n must be even (odd-area grids have no tilings)")
    if m > 32 or n > 32:
        raise ValueError("grid sides limited to 32")
    with mpmath.workdps(15 + m * n):
        prod = mpmath.mpf(1)
        for j in range(1, m + 1):
            cj = 4 * mpmath.cos(j * mpmath.pi / (m + 1)) ** 2
            for k in range(1, n + 1):
                ck = 4 * mpmath.cos(k * mpmath.pi / (n + 1)) ** 2
                prod *= mpmath.sqrt(mpmath.sqrt(cj + ck))
        nearest = mpmath.nint(prod)
        if abs(prod - nearest) > mpmath.mpf("1e-5"):
            raise ArithmeticError(
                f"product formula for {m}x{n} did not round cleanly: {prod}"
            )
        return int(nearest)

def ratio_profile(rec, digits=50):
    """Sorted class sizes of the L^2 pairwise root ratios, clustered numerically.

    The roots of z^L - rec[0] z^(L-1) - ... - rec[L-1] come from
    mpmath.polyroots at `digits` digits.  Single-linkage clustering with
    relative tolerance 10^(-digits/2) over the ratios sorted by (real,
    imaginary); O(L^4).  ArithmeticError on near-multiple roots: a root of
    multiplicity k is only found to about 10^(-digits/k), so roots closer
    than 10^(-digits/(2L)) (the worst case k = L) are rejected.
    ValueError on a root too close to 0.
    """
    L = len(rec)
    with mpmath.workdps(digits + 20):
        coeffs = [mpmath.mpf(1)] + [
            -mpmath.mpf(Fraction(c).numerator) / Fraction(c).denominator for c in rec
        ]
        try:
            roots = mpmath.polyroots(coeffs, maxsteps=100 + 10 * digits, extraprec=2 * digits)
        except NoConvergence:
            raise ArithmeticError("root iteration did not converge: near-multiple roots?")
        roots = [mpmath.mpc(z) for z in roots]
        gap = mpmath.mpf(10) ** (-max(digits // (2 * L), 3))
        if any(
            abs(roots[i] - roots[j]) < gap * max(1, abs(roots[i]))
            for i in range(L)
            for j in range(i + 1, L)
        ):
            raise ArithmeticError("near-multiple roots: the ratio profile is unreliable")
        rel_tol = mpmath.mpf(10) ** (-digits // 2)
        if any(abs(z) < rel_tol for z in roots):
            raise ValueError("root magnitude below tolerance; cannot form ratios")
        ratios = [a / b for a in roots for b in roots]
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
                    parent[find(i)] = find(j)
        sizes = {}
        for i in range(n):
            r = find(i)
            sizes[r] = sizes.get(r, 0) + 1
        return tuple(sorted(sizes.values()))


def random_sequence(rng, max_order=6, value_range=(-5, 5), rational=False):
    """A random CFiniteSeq-shaped (init, rec) pair with nonzero trailing rec."""
    lo, hi = value_range
    L = rng.randint(1, max_order)

    def draw():
        if rational and rng.random() < 0.3:
            return Fraction(rng.randint(lo, hi), rng.randint(1, 4))
        return Fraction(rng.randint(lo, hi))

    rec = [draw() for _ in range(L)]
    if rec[-1] == 0:
        rec[-1] = Fraction(rng.choice([1, -1]))
    init = [draw() for _ in range(L)]
    return init, rec


def monomials_cube(nvars, degree):
    """Exponent vectors of total degree <= degree, by filtering the whole
    cube [0, degree]^nvars; sorted by degree descending, then
    lexicographically."""
    out = [e for e in itertools.product(range(degree + 1), repeat=nvars) if sum(e) <= degree]
    return sorted(out, key=lambda e: (-sum(e), e))


def prime_exponents(n):
    """{p: v_p(n)} for n != 0, by trial division up to sqrt(|n|)."""
    n, out, p = abs(n), {}, 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def gauge_scale(rec):
    """The gauge lambda of a recurrence, from full prime factorisations.

    For every prime p of a numerator or denominator, lambda carries
    p^max_i ceil(-v_p(c_i) / i) over the nonzero c_i (c_i at i = 1, 2, ...):
    the least power making every lambda^i c_i p-integral.  The sign is -1
    when the first nonzero c_i at odd i is negative.
    """
    rec = [Fraction(c) for c in rec]
    vals = {}
    for i, c in enumerate(rec, start=1):
        if c:
            up, down = prime_exponents(c.numerator), prime_exponents(c.denominator)
            for p in up.keys() | down.keys():
                vals.setdefault(p, {})[i] = up.get(p, 0) - down.get(p, 0)
    lam = Fraction(1)
    for p, by_index in vals.items():
        lam *= Fraction(p) ** max(
            -(by_index.get(i, 0) // i) for i, c in enumerate(rec, start=1) if c
        )
    odd = [c for c in rec[0::2] if c]
    return -lam if odd and odd[0] < 0 else lam


def grid_fixed_point_counts(L1, L2):
    """How many points of the L1 x L2 grid some pair (sigma, tau) of
    permutations of its rows and columns fixes, over all pairs: a point
    (i, j) is fixed when sigma(i) = i and tau(j) = j."""
    grid = list(itertools.product(range(L1), range(L2)))
    return {
        sum(sigma[i] == i and tau[j] == j for i, j in grid)
        for sigma in itertools.permutations(range(L1))
        for tau in itertools.permutations(range(L2))
    }


def rational_mod(x, q):
    """The fraction a / b with b * x = a mod q, gcd(a, b) = 1 and |a|, b
    at most sqrt(q / 2), or None, by trying every denominator b."""
    bound = 0
    while (bound + 1) ** 2 <= q // 2:
        bound += 1
    for b in range(1, bound + 1):
        a = b * x % q
        a = a - q if a > q // 2 else a
        if abs(a) <= bound and gcd(a, b) == 1:
            return Fraction(a, b)
    return None


def nlr_relation(terms, order, degree):
    """(support, coefficients) of guess_nlr's relation, over Fractions.

    The kernel vector of the last free column of the Fraction monomial
    matrix (one row per window a(n-order), ..., a(n)), from
    rref_fractions, scaled to integers with content 1 and first nonzero
    coefficient positive; None when the kernel is 0.
    """
    support = monomials_cube(order + 1, degree)
    rows = [
        [prod((Fraction(x) ** e for x, e in zip(terms[n - order : n + 1], exps)), start=Fraction(1))
         for exps in support]
        for n in range(order, len(terms))
    ]
    red, pivots = rref_fractions(rows)
    free = [c for c in range(len(support)) if c not in pivots]
    if not free:
        return None
    v = [Fraction(0)] * len(support)
    v[free[-1]] = Fraction(1)
    for r, c in enumerate(pivots):
        v[c] = -red[r][free[-1]]
    den = lcm(*(x.denominator for x in v))
    ints = [int(x * den) for x in v]
    g = gcd(*ints) * (1 if next(x for x in ints if x) > 0 else -1)
    return support, [x // g for x in ints]


def integer_factor_pair(seq, L1, L2, bound):
    """(left, right) from a brute-force integer factoriser, or None.

    The reference for factor.factorize_integer's choice of gauge.  It
    enumerates order-L1 candidates with integer recurrence and initial
    terms in [-bound, bound] (lexicographic order, first nonzero initial
    term positive), screens them by exact divisibility of the first
    2 L1 L2 + 4 terms, guesses the cofactor's recurrence from the quotient
    on the candidate's longest zero-free run and certifies the pair with
    factor._pair in the unit gauge.  It shares that back (_split, the
    normal form, the proof) with the package, so it checks the search
    only.

    Its blind spot: a candidate with zero terms has no zero-free run of
    2 L2 + SAFETY_TERMS terms when it vanishes often enough, so its
    cofactor is never guessed.  [[0,1],[0,2]] x [[1,0],[3,1]] at bound 2
    returns None, though the left factor is in the search space.
    """
    from cfinite import factor, guess
    from cfinite.core import eval_terms
    from cfinite.roots import _minimal

    m = _minimal(seq, (L1, L2))
    if any(x.denominator != 1 for x in (*m.init, *m.rec)):
        raise ValueError("integer_factor_pair requires an integer sequence")
    target = [int(t) for t in eval_terms(m, 2 * L1 * L2 + 4)]

    def screen(init, rec):
        u = list(init)
        for n, b in enumerate(target):
            if n >= len(u):
                u.append(sum(c * v for c, v in zip(rec, reversed(u))))
            a = u[n]
            if b % a if a else b:
                return None
        return u

    def longest_run(u):
        best, start = (0, 0), None
        for n, v in enumerate(u + [0]):
            if v != 0:
                if start is None:
                    start = n
            elif start is not None:
                if n - start > best[1]:
                    best = (start, n - start)
                start = None
        return best

    def cofactor(u):
        start, length = longest_run(u)
        if length < 2 * L2 + guess.SAFETY_TERMS:
            return None
        quotient = [Fraction(target[n], u[n]) for n in range(start, start + length)]
        run = guess.guess_rec(quotient, guess.GuessConfig(max_order=L2))
        return None if run is None else run.rec

    def unit_gauge(a, b):
        return Fraction(1)

    values = range(-bound, bound + 1)
    for rec in itertools.product(values, repeat=L1):
        for init in itertools.product(values, repeat=L1):
            first = next((d for d in init if d), None)
            if first is None or first < 0:
                continue
            u = screen(init, rec)
            if u is None:
                continue
            right_rec = cofactor(u)
            if right_rec and (pair := factor._pair(seq, m, rec, right_rec, unit_gauge)):
                return pair.left, pair.right
    return None
