"""Exact integer linear algebra helpers.

Everything here works over Python ints: one Hermite normal form, which
also yields unimodular transforms, inverses and basis completions, one
Gauss-Jordan elimination on primitive integer rows, and a rank test modulo
a prime that screens systems before the exact elimination.
Fractions appear only in clearing rational input rows of denominators and
in the particular solution of ``solve_affine``.  Matrices are row lists.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import index


def is_primitive(v):
    return gcd(*v) == 1


def primitive_part(v):
    """The primitive integer vector on the ray of an integer vector, signs
    kept; the zero vector maps to itself."""
    g = gcd(*v)
    return tuple(x // g for x in v) if g > 1 else tuple(v)


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def hnf_rows(matrix, ncols=None):
    """Row-style Hermite normal form of the first ``ncols`` columns (all of
    them by default).

    Returns ``(H, rank)``: the nonzero rows of H are an echelon basis of the
    row lattice, pivots positive, entries above each pivot reduced into
    [0, pivot).  Pivots lie in the first ``ncols`` columns only; the other
    columns are carried through the same row operations, so for M with k
    columns the form of [M | I] with ``ncols=k`` is [H | U], where U is
    unimodular and U M = H.  The cost is linear in the number of rows.
    """
    if not matrix:
        return [], 0
    a = [list(map(index, row)) for row in matrix]
    m, n = len(a), len(a[0])
    r = 0
    for col in range(n if ncols is None else ncols):
        # clear column below row r using gcd row operations
        pivot_row = None
        for i in range(r, m):
            if a[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        for i in range(r + 1, m):
            while a[i][col] != 0:
                q = a[r][col] // a[i][col]
                for j in range(n):
                    a[r][j] -= q * a[i][j]
                a[r], a[i] = a[i], a[r]
        if a[r][col] < 0:
            a[r] = [-x for x in a[r]]
        for i in range(r):
            q = a[i][col] // a[r][col]
            if q:
                for j in range(n):
                    a[i][j] -= q * a[r][j]
        r += 1
        if r == m:
            break
    return a, r


def unimodular_inverse(matrix):
    """Exact integer inverse of a matrix with determinant +-1: the Hermite
    normal form of [M | I] is [I | M^-1] exactly then.

    Raises ValueError for any other square matrix.
    """
    n = len(matrix)
    rows, rank = hnf_rows([list(row) + e
                           for row, e in zip(matrix, identity(n))], ncols=n)
    if rank < n:
        raise ValueError("matrix is singular")
    # H = I exactly when every pivot is 1, as entries above a pivot lie
    # in [0, pivot)
    if any(row[i] != 1 for i, row in enumerate(rows)):
        raise ValueError("matrix inverse is not integral")
    return tuple(tuple(row[n:]) for row in rows)


def complete_to_basis_last_row(w):
    """Unimodular integer matrices ``(T, T^-1)``, the last row of T being
    the primitive covector w.

    Used to slice exponent lattices: under e -> T e the last coordinate of
    the image is w(e).  The Hermite normal form of the column w beside I,
    pivoting in that column only, is [e_1 | U] with U w = e_1, so w is the
    first column of U^-1.  T is the transpose of U^-1 with its first row
    moved last, and T^-1 is the transpose of U with its first column moved
    last.
    """
    w = tuple(map(index, w))
    if not is_primitive(w):
        raise ValueError("weight must be primitive")
    rows, _ = hnf_rows([[x] + e for x, e in zip(w, identity(len(w)))],
                       ncols=1)
    u = [row[1:] for row in rows]
    t = tuple(zip(*unimodular_inverse(u)))
    return t[1:] + t[:1], tuple(r[1:] + r[:1] for r in zip(*u))


# ---------------------------------------------------------------------------
# elimination over the integers


def _integer_row(row):
    """The row times the lcm of its denominators, as a list of ints."""
    if all(type(x) is int for x in row):
        return list(row)
    d = lcm(*(Fraction(x).denominator for x in row))
    return [int(x * d) for x in row]


def rref(matrix):
    """Reduced row echelon form over the integers.

    Returns ``(rows, pivot_columns)``; input is not modified.  Each row is
    the reduced row over Q scaled to a primitive integer vector with a
    positive pivot.
    """
    a = [_integer_row(row) for row in matrix]
    if not a:
        return [], []
    m, n = len(a), len(a[0])
    pivots = []
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, m) if a[i][col]), None)
        if piv is None:
            continue
        row = primitive_part(a[piv])
        if row[col] < 0:
            row = tuple(-x for x in row)
        a[piv], a[r] = a[r], row
        p = row[col]
        for i in range(m):
            f = a[i][col]
            if f and i != r:
                # p > 0, so the pivots of earlier rows keep their signs
                a[i] = primitive_part([p * x - f * y
                                       for x, y in zip(a[i], row)])
        pivots.append(col)
        r += 1
        if r == m:
            break
    return a[:r], pivots


def full_column_rank_mod(rows, ncols, prime):
    """Whether the integer rows reach rank ``ncols`` modulo the prime.

    The rows are read one at a time, reduced modulo the prime and inserted
    into an echelon basis over GF(prime); reading stops at the ``ncols``-th
    pivot, so ``rows`` may be a lazy iterable.  Reduction modulo a prime
    cannot raise the rank, so True implies full column rank over Q and an
    empty nullspace, while False decides nothing over Q.
    """
    basis = [None] * ncols  # pivot column -> tail of its row, 1 at the pivot
    rank = 0
    for row in rows:
        v = [x % prime for x in row]
        for c in range(ncols):
            x = v[c]
            if not x:
                continue
            tail = basis[c]
            if tail is None:
                inv = pow(x, -1, prime)
                basis[c] = [y * inv % prime for y in v[c:]]
                rank += 1
                if rank == ncols:
                    return True
                break
            # entries before c are zero in v and in the tail alike
            v[c:] = [(y - x * z) % prime for y, z in zip(v[c:], tail)]
    return False


def nullspace(matrix, ncols=None):
    """Primitive integer basis of the nullspace (rows may be empty)."""
    if ncols is None:
        if not matrix:
            raise ValueError("need ncols for an empty matrix")
        ncols = len(matrix[0])
    return _null_basis(*rref(matrix), ncols)


def _null_basis(rows, pivots, ncols):
    """Nullspace basis of the first ``ncols`` columns of a matrix in the
    reduced row echelon form of ``rref``, whose pivots all lie in those
    columns: one primitive integer vector per free column, positive there."""
    scale = lcm(*(r[pc] for r, pc in zip(rows, pivots)))
    basis = []
    for j in range(ncols):
        if j in pivots:
            continue
        vec = [0] * ncols
        vec[j] = scale
        for r, pc in zip(rows, pivots):
            vec[pc] = -r[j] * (scale // r[pc])
        basis.append(primitive_part(vec))
    return basis


def solve_affine(matrix, rhs, ncols=None):
    """Solve A x = b exactly in ``ncols`` unknowns (rows may be empty).

    Returns ``(particular, null_basis)`` or None when inconsistent.  The
    particular solution is 0 at free variables and Fractions elsewhere; the
    null basis is that of ``nullspace``.  One elimination of [A | b] gives
    both: when it is consistent, its pivots lie in A, and its rows
    restricted to A are the reduced row echelon form of A.
    """
    if ncols is None:
        if not matrix:
            raise ValueError("need ncols for an empty system")
        ncols = len(matrix[0])
    rows, pivots = rref([list(row) + [b] for row, b in zip(matrix, rhs)])
    if ncols in pivots:
        return None
    x = [0] * ncols
    for r, pc in zip(rows, pivots):
        x[pc] = Fraction(r[ncols], r[pc])
    return x, _null_basis(rows, pivots, ncols)
