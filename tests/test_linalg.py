from fractions import Fraction

import pytest

from fanolab.linalg import solve_affine


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
