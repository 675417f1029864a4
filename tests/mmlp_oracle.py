"""The tuple kernels of ``mmlp``: the reference for its packed ones.

``minkowski_difference_points`` tests every translate of the slice by one
point of B on exponent tuples, ``higher_rank_factors`` stops each chain of
the sweep by it, and ``coefficient_space`` builds every span column on
tuple-keyed level maps.  They are ``mmlp``'s kernels before points were
read as packed keys, and serve only as the oracle for them.
"""

from itertools import groupby
from operator import attrgetter, neg

from fanolab.laurent import factor_powers
from fanolab.linalg import nullspace, primitive_part, solve_affine
from fanolab.mmlp import CoefficientSpace
from fanolab.mutation import factor_sweep, weight_value
from fanolab.polytopes import lattice_points


def minkowski_difference_points(a_points, b_points):
    """Yield the integer points u with u + conv(b_points) contained in
    conv(a_points), in sorted order.

    a_points is a set, or a dict keyed by the points, that holds every
    lattice point of conv(a_points), as the lattice points of a polytope on
    one hyperplane do.  Then u + conv(b_points) lies in conv(a_points)
    exactly when u + b is in a_points for every b, and each such u is
    a - b0 for some a, whichever b0 of b_points is taken.
    """
    b0 = next(iter(b_points))
    for u in sorted({tuple(x - y for x, y in zip(a, b0)) for a in a_points}):
        if all(tuple(x + y for x, y in zip(u, b)) in a_points
               for b in b_points):
            yield u


def higher_rank_factors(face_pts, height, bounds):
    """The sweep's powers F with a translate of supp(F^height) in the face,
    each chain stopped at its first power without one."""
    diffs = sorted({primitive_part(tuple(b - a for a, b in zip(s0, s1)))
                    for s0 in face_pts for s1 in face_pts if s0 != s1})
    face = set(face_pts)
    for chain in factor_sweep(diffs, bounds.deg_max):
        for power in chain:
            fits = minkowski_difference_points(face, (power ** height).terms)
            if next(fits, None) is None:
                break
            yield power


def coefficient_space(p, seeds):
    """``mmlp.coefficient_space`` on tuple-keyed level maps."""
    pts = lattice_points(p).all
    origin = tuple([0] * p.rank)
    fixed = {v: 1 for v in p.vertices}
    fixed[origin] = 0
    free = tuple(q for q in pts if q not in fixed)
    index = {q: j for j, q in enumerate(free)}
    eq_rows, eq_rhs = [], []
    for w, run in groupby(seeds, key=attrgetter("weight")):
        by_level = {}  # level -> {point: index}, in the sorted order of pts
        for q in pts:
            at = by_level.setdefault(weight_value(w, q), {})
            at[q] = len(at)
        levels = sorted([i for i in by_level if i < 0], reverse=True)
        for seed in run:
            powers = factor_powers(seed.factor, map(neg, levels))
            for level, fpow in zip(levels, powers):
                at = by_level[level]
                cols = []
                for u in minkowski_difference_points(at, fpow.terms):
                    col = [0] * len(at)
                    for e, cf in fpow.terms.items():
                        col[at[tuple(x + y for x, y in zip(u, e))]] = cf
                    cols.append(col)
                for r in nullspace(cols, ncols=len(at)):
                    row = [0] * len(free)
                    rhs = 0
                    for coef, q in zip(r, at):
                        if q in index:
                            row[index[q]] += coef
                        else:
                            rhs -= coef * fixed[q]
                    if any(row) or rhs:
                        eq_rows.append(row)
                        eq_rhs.append(rhs)
    solved = solve_affine(eq_rows, eq_rhs, ncols=len(free))
    if solved is None:
        return CoefficientSpace(p, free, (), (), True)
    particular, null_basis = solved
    return CoefficientSpace(p, free, tuple(particular), tuple(null_basis),
                            False)
