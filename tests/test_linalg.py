from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from cfinite import linalg

import oracles

small_fracs = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@st.composite
def matrices(draw, max_rows=6, max_cols=7):
    """Small rational matrices, often rank-deficient (repeated/combined rows)."""
    cols = draw(st.integers(min_value=1, max_value=max_cols))
    n = draw(st.integers(min_value=1, max_value=max_rows))
    rows = [draw(st.lists(small_fracs, min_size=cols, max_size=cols)) for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        k = draw(small_fracs)
        rows[i] = [a + k * b for a, b in zip(rows[i], rows[j])]
        rows.append(list(rows[i]))
    return rows


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
