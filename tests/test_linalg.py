"""Integer elimination, checked against the Fraction elimination it
replaced, and the Hermite normal form with its transform, checked against
the Euclid loop and the elimination it replaced."""

from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest
from hypothesis import assume, given, settings, strategies as st

from fanolab.linalg import (complete_to_basis_last_row, full_column_rank_mod,
                            hnf_rows, identity, is_primitive, nullspace,
                            primitive_part, rref, solve_affine,
                            unimodular_inverse)
import linalg_oracle

SETTINGS = settings(max_examples=100, deadline=None)


# -- the Fraction oracle -------------------------------------------------------


def fraction_rref(matrix):
    """Reduced row echelon form over Fractions, every pivot 1."""
    a = [[Fraction(x) for x in row] for row in matrix]
    if not a:
        return [], []
    m, n = len(a), len(a[0])
    pivots = []
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, m) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = Fraction(1) / a[r][col]
        a[r] = [x * inv for x in a[r]]
        for i in range(m):
            if i != r and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(col)
        r += 1
        if r == m:
            break
    return a[:r], pivots


def fraction_null_basis(rows, pivots, ncols):
    """Nullspace basis from ``fraction_rref``, 1 at each free column."""
    basis = []
    for j in range(ncols):
        if j in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[j] = Fraction(1)
        for r, pc in zip(rows, pivots):
            vec[pc] = -r[j]
        basis.append(tuple(vec))
    return basis


def cleared(vec):
    """A rational vector times the lcm of its denominators, as ints."""
    d = lcm(*(Fraction(x).denominator for x in vec))
    return [int(x * d) for x in vec]


@st.composite
def matrices(draw):
    """Int or Fraction matrices of up to 6 x 7, with zero rows and columns,
    repeated and scaled rows, and pivots of either sign."""
    entry = draw(st.sampled_from((
        st.integers(-5, 5),
        st.fractions(min_value=-4, max_value=4, max_denominator=6))))
    ncols = draw(st.integers(1, 7))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         max_size=4))
    for j in draw(st.lists(st.integers(0, ncols - 1), max_size=2)):
        for row in rows:
            row[j] = 0
    if rows and draw(st.booleans()):
        k = draw(st.sampled_from((1, -1, 2, Fraction(-1, 3))))
        rows.append([k * x for x in draw(st.sampled_from(rows))])
    if draw(st.booleans()):
        rows.append([0] * ncols)
    return draw(st.permutations(rows)), ncols


# -- integer elimination against the oracle ----------------------------------


@SETTINGS
@given(matrices())
def test_rref_rows_are_primitive_multiples_of_the_oracle(case):
    matrix, _ = case
    rows, pivots = rref(matrix)
    ref_rows, ref_pivots = fraction_rref(matrix)
    assert pivots == ref_pivots
    assert len(rows) == len(ref_rows)
    for row, ref, pc in zip(rows, ref_rows, pivots):
        assert all(type(x) is int for x in row)
        assert row[pc] > 0
        assert tuple(row) == primitive_part(cleared(ref))


@SETTINGS
@given(matrices())
def test_nullspace_is_the_primitive_oracle_basis(case):
    matrix, ncols = case
    basis = nullspace(matrix, ncols=ncols)
    ref = fraction_null_basis(*fraction_rref(matrix), ncols)
    assert basis == [primitive_part(cleared(v)) for v in ref]
    assert all(type(x) is int for v in basis for x in v)
    for v in basis:
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in matrix)


# -- the rank screen modulo a prime ------------------------------------------


def determinant(m):
    """Exact determinant by expansion along the first row."""
    if not m:
        return 1
    return sum((-1) ** j * x * determinant([row[:j] + row[j + 1:]
                                            for row in m[1:]])
               for j, x in enumerate(m[0]) if x)


@SETTINGS
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n),
             max_size=6), st.just(n))),
       st.sampled_from((2, 3, 5, 7, 2 ** 31 - 1)))
def test_full_column_rank_mod_matches_the_minors(case, prime):
    rows, ncols = case
    # full column rank modulo p exactly when some maximal minor is not
    # divisible by p
    expect = any(determinant([list(r) for r in sub]) % prime
                 for sub in combinations(rows, ncols))
    assert full_column_rank_mod(rows, ncols, prime) == expect
    assert not full_column_rank_mod([[prime * x for x in row]
                                     for row in rows], ncols, prime)
    if expect:  # rank modulo p is at most the rank over Q
        assert len(rref(rows)[0]) == ncols


def test_full_column_rank_mod_stops_at_the_last_pivot():
    def rows():
        yield [0, 3]
        yield [0, 6]  # dependent modulo every prime
        yield [5, 1]
        raise AssertionError("read past the second pivot")

    assert full_column_rank_mod(rows(), 2, 7)
    assert not full_column_rank_mod(iter([[0, 3], [5, 1]]), 2, 5)


@SETTINGS
@given(matrices(), st.data())
def test_solve_affine_matches_the_oracle(case, data):
    matrix, ncols = case
    rhs = data.draw(st.lists(
        st.one_of(st.integers(-5, 5),
                  st.fractions(min_value=-3, max_value=3, max_denominator=4)),
        min_size=len(matrix), max_size=len(matrix)))
    got = solve_affine(matrix, rhs, ncols=ncols)
    rows, pivots = fraction_rref([list(r) + [b] for r, b in zip(matrix, rhs)])
    if ncols in pivots:
        assert got is None
        return
    x = [Fraction(0)] * ncols
    for r, pc in zip(rows, pivots):
        x[pc] = r[ncols]
    particular, basis = got
    assert particular == x
    assert basis == nullspace(matrix, ncols=ncols)


def _elementary_product(ops, n=3):
    m = identity(n)
    for i, j, s in ops:
        if i != j:
            m[i] = [a + s * b for a, b in zip(m[i], m[j])]
        else:
            m[i] = [-x for x in m[i]]
    return m


gl3 = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                         st.integers(-3, 3)), max_size=10).map(
    _elementary_product)


@SETTINGS
@given(gl3)
def test_unimodular_inverse_of_random_gl3_products(m):
    inv = unimodular_inverse(m)
    assert all(type(x) is int for row in inv for x in row)
    assert [[sum(a * b for a, b in zip(row, col)) for col in zip(*inv)]
            for row in m] == [[int(i == j) for j in range(3)]
                              for i in range(3)]
    with pytest.raises(ValueError, match="singular"):
        unimodular_inverse([m[0], m[1], [a + b for a, b in zip(m[0], m[1])]])
    with pytest.raises(ValueError, match="not integral"):
        unimodular_inverse([[2 * x for x in m[0]], m[1], m[2]])


# -- the Hermite normal form and its transform ---------------------------------


def _product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


@SETTINGS
@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(st.integers(-20, 20), min_size=n, max_size=n),
    min_size=1, max_size=8)))
def test_hnf_rows_carries_its_transform(matrix):
    m, n = len(matrix), len(matrix[0])
    rows, rank = hnf_rows([row + e for row, e in zip(matrix, identity(m))],
                          ncols=n)
    h, u = [row[:n] for row in rows], [row[n:] for row in rows]
    assert _product(u, matrix) == h
    assert _product(u, linalg_oracle.unimodular_inverse(u)) == identity(m)
    assert (h, rank) == hnf_rows(matrix)
    assert all(not any(row) for row in h[rank:])
    pivots = [next(j for j, x in enumerate(row) if x) for row in h[:rank]]
    assert pivots == sorted(set(pivots))
    for r, pc in enumerate(pivots):
        assert h[r][pc] > 0
        assert all(0 <= h[i][pc] < h[r][pc] for i in range(r))


@SETTINGS
@given(st.integers(2, 6).flatmap(lambda n: st.lists(
    st.integers(-50, 50), min_size=n, max_size=n)))
def test_basis_completion_matches_the_euclid_oracle(w):
    assume(is_primitive(w))
    t, t_inv = complete_to_basis_last_row(w)
    assert (t, t_inv) == linalg_oracle.complete_to_basis_last_row(w)
    assert t[-1] == tuple(w)
    assert _product(t, t_inv) == identity(len(w))


def _outcome(inverse, m):
    """The inverse, or the message of the ValueError it raises."""
    try:
        return inverse(m)
    except ValueError as exc:
        return str(exc)


@st.composite
def square_matrices(draw):
    """A GL(n, Z) product, or one with a row replaced by a combination of
    the others (singular) or scaled by k (determinant +-k), n <= 5."""
    n = draw(st.integers(1, 5))
    m = _elementary_product(draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                  st.integers(-3, 3)), max_size=12)), n)
    i = draw(st.integers(0, n - 1))
    kind = draw(st.sampled_from(("unimodular", "singular", "scaled")))
    if kind == "singular":
        ks = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        m[i] = [sum(k * row[j] for r, (k, row) in enumerate(zip(ks, m))
                    if r != i) for j in range(n)]
    elif kind == "scaled":
        k = draw(st.sampled_from((2, -2, 3, -5)))
        m[i] = [k * x for x in m[i]]
    return m


@SETTINGS
@given(square_matrices())
def test_unimodular_inverse_matches_the_elimination_oracle(m):
    got = _outcome(unimodular_inverse, m)
    assert got == _outcome(linalg_oracle.unimodular_inverse, m)
    if not isinstance(got, str):
        assert all(type(x) is int for row in got for x in row)
        assert _product(m, got) == identity(len(m))


# -- fixed cases ---------------------------------------------------------------


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
