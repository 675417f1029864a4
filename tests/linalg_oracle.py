"""Basis completion by an extended-Euclid loop and unimodular inversion by
Gauss-Jordan elimination: the reference routines.

``complete_to_basis_last_row`` reduces a primitive covector to (1, 0, ...)
by column operations, recording them and their inverses side by side, and
``unimodular_inverse`` reads the inverse off the reduced row echelon form of
[M | I].  The library now reads both off the Hermite normal form of a matrix
with an identity block beside it; these serve only as its oracles.
"""

from fanolab.linalg import identity, is_primitive, rref


def unimodular_inverse(matrix):
    """Exact integer inverse of a matrix with determinant +-1, read from
    the reduced row echelon form of [M | I].

    Raises ValueError for any other square matrix.
    """
    n = len(matrix)
    rows, pivots = rref([list(row) + [int(i == j) for j in range(n)]
                         for i, row in enumerate(matrix)])
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    # a primitive row with pivot p is p times the rational row of M^-1
    if any(row[i] != 1 for i, row in enumerate(rows)):
        raise ValueError("matrix inverse is not integral")
    return tuple(row[n:] for row in rows)


def complete_to_basis_last_row(w):
    """Unimodular integer matrices ``(T, T^-1)``, the last row of T being
    the primitive covector w.

    Used to slice exponent lattices: under e -> T e the last coordinate of
    the image is w(e).  Column operations reduce w to (1, 0, ..., 0) and are
    recorded in V, while the inverse row operations build V^-1 alongside;
    T is V^-1 with its first row (which is w) moved last, so T^-1 is V with
    its first column moved last.
    """
    w = tuple(int(x) for x in w)
    if not is_primitive(w):
        raise ValueError("weight must be primitive")
    n = len(w)
    row = list(w)
    v, v_inv = identity(n), identity(n)

    def swap(j):
        row[0], row[j] = row[j], row[0]
        for r in v:
            r[0], r[j] = r[j], r[0]
        v_inv[0], v_inv[j] = v_inv[j], v_inv[0]

    swap(next(i for i in range(n) if row[i] != 0))
    for j in range(1, n):
        while row[j] != 0:
            # column 0 -= q * column j, undone by row j += q * row 0
            q = row[0] // row[j]
            row[0] -= q * row[j]
            for r in v:
                r[0] -= q * r[j]
            v_inv[j] = [a + q * b for a, b in zip(v_inv[j], v_inv[0])]
            swap(j)
    if row[0] < 0:
        row[0] = -row[0]
        for r in v:
            r[0] = -r[0]
        v_inv[0] = [-x for x in v_inv[0]]
    assert row[0] == 1 and all(x == 0 for x in row[1:])
    t = tuple(tuple(r) for r in v_inv[1:] + v_inv[:1])
    t_inv = tuple(tuple(r[1:] + r[:1]) for r in v)
    return t, t_inv
