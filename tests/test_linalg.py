from fractions import Fraction

import pytest

from fanolab.linalg import nullspace, solve_affine, unimodular_inverse


def test_solve_affine_without_rows_is_unconstrained():
    particular, basis = solve_affine([], [], ncols=3)
    assert particular == [0, 0, 0]
    assert basis == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_solve_affine_without_unknowns():
    assert solve_affine([[], []], [0, 0], ncols=0) == ([], [])
    assert solve_affine([[], []], [0, Fraction(1, 2)], ncols=0) is None


def test_solve_affine_empty_system_needs_ncols():
    with pytest.raises(ValueError):
        solve_affine([], [])


def test_solve_affine_particular_and_null_basis():
    rows = [[1, 1, 0], [0, 1, 1]]
    particular, basis = solve_affine(rows, [2, 3])
    assert particular == [-1, 3, 0]
    assert basis == [(1, -1, 1)]
    assert solve_affine(rows + [[1, 2, 1]], [2, 3, 4]) is None


def test_solve_affine_null_basis_matches_nullspace():
    # the null basis is read from the elimination of [A | b]
    rows = [[2, 4, 0, 6], [1, 2, 1, 1], [3, 6, 1, 7]]
    particular, basis = solve_affine(rows, [2, 3, 5])
    assert basis == nullspace(rows)
    assert [sum(a * x for a, x in zip(row, particular)) for row in rows] == \
        [2, 3, 5]


def test_unimodular_inverse():
    m = [[2, 1, 0], [1, 1, 0], [0, 3, -1]]
    inv = unimodular_inverse(m)
    assert inv == ((1, -1, 0), (-1, 2, 0), (-3, 6, -1))
    assert [[sum(a * b for a, b in zip(row, col)) for col in zip(*inv)]
            for row in m] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_unimodular_inverse_rejects_singular_matrix():
    with pytest.raises(ValueError, match="singular"):
        unimodular_inverse([[1, 2], [2, 4]])


def test_unimodular_inverse_rejects_non_integral_inverse():
    with pytest.raises(ValueError, match="not integral"):
        unimodular_inverse([[2, 0], [0, 1]])
