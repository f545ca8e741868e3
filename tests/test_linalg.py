from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from cfinite import linalg

import oracles

small_fracs = st.fractions(min_value=-6, max_value=6, max_denominator=4)
small_ints = st.integers(min_value=-6, max_value=6)


@st.composite
def matrices(draw, max_rows=6, max_cols=7):
    """Small rational or integer matrices, often rank-deficient
    (repeated/combined rows)."""
    entries = draw(st.sampled_from([small_fracs, small_ints]))
    cols = draw(st.integers(min_value=1, max_value=max_cols))
    n = draw(st.integers(min_value=1, max_value=max_rows))
    rows = [draw(st.lists(entries, min_size=cols, max_size=cols)) for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        k = draw(entries)
        rows[i] = [a + k * b for a, b in zip(rows[i], rows[j])]
        rows.append(list(rows[i]))
    return rows


big_ints = st.integers(min_value=-(10**30), max_value=10**30)
big_fracs = st.fractions(min_value=-(10**30), max_value=10**30, max_denominator=10**12)
ENTRIES = {
    "int": st.one_of(small_ints, big_ints),
    "fraction": st.one_of(small_fracs, big_fracs),
    "mixed": st.one_of(small_ints, small_fracs, big_ints, big_fracs),
}


@st.composite
def wide_matrices(draw):
    """Int-only, Fraction-only or mixed rows up to 10^30 in size, tall or
    wide, with zero rows, zero columns and rows combined from others."""
    kind = draw(st.sampled_from(sorted(ENTRIES)))
    zero = Fraction(0) if kind == "fraction" else 0
    entries = st.one_of(st.just(zero), ENTRIES[kind])
    n = draw(st.integers(min_value=1, max_value=9))
    cols = draw(st.integers(min_value=1, max_value=9))
    rows = [draw(st.lists(entries, min_size=cols, max_size=cols)) for _ in range(n)]
    for c in draw(st.sets(st.integers(0, cols - 1), max_size=cols)):
        for row in rows:
            row[c] = zero
    for r in draw(st.sets(st.integers(0, n - 1), max_size=2)):
        rows[r] = [zero] * cols
    for _ in range(draw(st.integers(0, 3))):
        i, j, k = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)), draw(entries)
        rows.append([a + k * b for a, b in zip(rows[i], rows[j])])
    return rows


class TestRref:
    @given(wide_matrices())
    @settings(max_examples=300, deadline=None)
    def test_equals_the_fraction_elimination(self, A):
        before = [list(row) for row in A]
        rows, pivots, d = linalg.rref(A)
        assert ([[Fraction(x, d) for x in row] for row in rows], pivots) == oracles.rref_fractions(A)
        assert all(type(x) is int for row in rows for x in [*row, d])
        assert A == before

    def test_needs_the_exact_division_of_every_entry(self):
        # the zero row's 2 becomes 2 * 1 // 2 = 1 at the second pivot,
        # although the pivot ratio 1 / 2 is no integer
        A = [[2, 1, 0], [1, 1, 0], [0, 0, 1]]
        rows, pivots, d = linalg.rref(A)
        assert (rows, pivots, d) == ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [0, 1, 2], 1)
        assert all(type(x) is int for row in rows for x in row)


def test_empty_systems():
    # no rows: rref has no pivots and d = 1, solve and nullspace give []
    assert linalg.rref([]) == ([], [], 1)
    assert linalg.solve([], []) == []
    assert linalg.nullspace([]) == []


def mat_vec(A, x):
    return [sum(a * v for a, v in zip(row, x)) for row in A]


class TestNullspace:
    @given(matrices())
    @settings(max_examples=150, deadline=None)
    def test_basis_spans_kernel(self, A):
        basis = linalg.nullspace(A)
        cols = len(A[0])
        assert len(basis) == cols - oracles.rank(A)
        for v in basis:
            assert len(v) == cols
            assert mat_vec(A, v) == [0] * len(A)
        if basis:
            assert oracles.rank(basis) == len(basis)

    @given(wide_matrices())
    @settings(max_examples=150, deadline=None)
    def test_basis_is_primitive_and_scales_the_fraction_basis(self, A):
        basis = linalg.nullspace(A)
        red, pivots = oracles.rref_fractions(A)
        free = [f for f in range(len(A[0])) if f not in pivots]
        assert len(basis) == len(free)
        for v, f in zip(basis, free):
            assert all(type(x) is int for x in v)
            assert gcd(*v) == 1 and v[f] > 0
            assert [v[g] for g in free if g != f] == [0] * (len(free) - 1)
            # the Fraction basis vector: 1 at f, minus the reduced column f
            w = [Fraction(0)] * len(A[0])
            w[f] = Fraction(1)
            for r, c in enumerate(pivots):
                w[c] = -red[r][f]
            assert v == [v[f] * x for x in w]

    def test_free_column_structure(self):
        # x + 2y = 0 with z free: free columns 1 and 2, in that order
        A = [[Fraction(1), Fraction(2), Fraction(0)]]
        assert linalg.nullspace(A) == [[-2, 1, 0], [0, 0, 1]]


class TestSolve:
    @given(matrices(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_gaussian_oracle(self, A, data):
        if data.draw(st.booleans()):
            x0 = data.draw(st.lists(small_fracs, min_size=len(A[0]), max_size=len(A[0])))
            b = mat_vec(A, x0)
        else:
            b = data.draw(st.lists(small_fracs, min_size=len(A), max_size=len(A)))
        got = linalg.solve(A, b)
        assert got == oracles.gaussian_solve(A, b)
        if got is not None:
            assert mat_vec(A, got) == b

    @given(wide_matrices(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_integer_systems_agree_with_gaussian_oracle(self, A, data):
        A = [[int(x) for x in row] for row in A]
        x0 = data.draw(st.lists(small_ints, min_size=len(A[0]), max_size=len(A[0])))
        b = mat_vec(A, x0)
        inconsistent = data.draw(st.booleans())
        if inconsistent:
            # a repeated row with another right-hand side
            A, b = A + [A[0]], b + [b[0] + data.draw(st.integers(1, 10**30))]
        got = linalg.solve(A, b)
        assert got == oracles.gaussian_solve(A, b)
        assert (got is None) == inconsistent
        if got is not None:
            assert mat_vec(A, got) == b
