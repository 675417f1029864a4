"""Maximally-mutable Laurent polynomials on a fixed Fano polytope.

Fix a polytope P with the origin strictly interior.  Candidate polynomials
are supported on the lattice points of P with coefficient 1 at every vertex
and 0 at the origin; the remaining coefficients are unknowns.  Requiring
mutability with respect to a set of seed mutations imposes exact linear
conditions on the unknowns, and the solution set is an affine subspace whose
dimension decides rigidity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .laurent import LaurentPolynomial
from .linalg import (nullspace, primitive_part, primitive_vector, rref,
                     solve_affine)
from .mutation import (InvalidWeightError, MutationBounds, MutationData,
                       factor_sweep, weight_value)
from .polytopes import (LatticePolytope, OriginNotInteriorError, affine_chart,
                        lattice_points, newton_polytope)


# ---------------------------------------------------------------------------
# Minkowski differences of possibly lower-dimensional point sets


def _minkowski_difference_points(a_points, b_points):
    """Integer points u with u + conv(b_points) contained in conv(a_points).

    conv(a_points) is cut out of its affine span by the facets of its image
    in the span's chart (``affine_chart``), so u qualifies exactly when
    e.(u + b) = e.a0 for every b and every equation e of the span, and
    <n, u> >= -c - min_b <n, b> for every facet (n, c) of that image, with n
    read on the chart's pivot coordinates.
    """
    n = len(a_points[0])
    lo = [min(q[i] for q in a_points) - min(q[i] for q in b_points)
          for i in range(n)]
    hi = [max(q[i] for q in a_points) - max(q[i] for q in b_points)
          for i in range(n)]
    if any(a > b for a, b in zip(lo, hi)):
        return []
    basis, pivots = affine_chart(a_points)
    equations = []
    for e in nullspace(basis, ncols=n):
        e = primitive_vector(e)
        targets = {weight_value(e, a_points[0]) - weight_value(e, q)
                   for q in b_points}
        if len(targets) > 1:
            return []  # conv(b_points) is not parallel to the span
        equations.append((e, targets.pop()))
    facets = []
    if pivots:
        hull = LatticePolytope.from_points(
            [[q[j] for j in pivots] for q in a_points], rank=len(pivots))
        for (u, c) in hull.facets:
            lifted = [0] * n
            for i, j in enumerate(pivots):
                lifted[j] = u[i]
            lowest = min(weight_value(lifted, q) for q in b_points)
            facets.append((lifted, -c - lowest))
    return [v for v in product(*(range(a, b + 1) for a, b in zip(lo, hi)))
            if all(weight_value(e, v) == t for e, t in equations)
            and all(weight_value(u, v) >= t for u, t in facets)]


# ---------------------------------------------------------------------------
# seed sets


@dataclass(frozen=True)
class SeedSet:
    seeds: tuple
    complete: bool
    bounds: MutationBounds


def seed_set(p, bounds=None):
    """Candidate mutations every maximally-mutable polynomial on p must admit.

    In two variables the list is complete within the bounds: one weight per
    edge, with factors the binomial powers (1 + x^d)^m along the edge that
    can possibly divide the matching slice.  In higher rank the factors are
    a heuristic sweep (binomials and trinomials from facet-point
    differences) and the result is flagged partial.
    """
    if bounds is None:
        bounds = MutationBounds()
    p.require_full_dim()
    if not p.origin_strictly_interior():
        raise OriginNotInteriorError(
            "mutability analysis needs the origin strictly interior")
    if p.rank < 2:
        raise InvalidWeightError("need at least two variables")
    pts = lattice_points(p).all
    seeds = []
    complete = p.rank == 2
    for (u, c) in p.facets:
        if c > bounds.w_max:
            complete = False
            continue
        face_pts = [q for q in pts
                    if sum(a * b for a, b in zip(u, q)) == -c]
        if len(face_pts) < 2:
            continue
        if p.rank == 2:
            face_pts.sort()
            d = primitive_part(tuple(b - a for a, b in
                                     zip(face_pts[0], face_pts[-1])))
            length = len(face_pts) - 1
            for m in range(1, min(bounds.deg_max, length // c) + 1):
                base = LaurentPolynomial.one(2) + \
                    LaurentPolynomial.monomial(2, d)
                seeds.append(MutationData(u, base ** m).canonical())
        else:
            for factor in _higher_rank_factors(face_pts, c, bounds):
                if all(weight_value(u, e) == 0 for e in factor.support()):
                    seeds.append(MutationData(u, factor).canonical())
    unique = {}
    for s in seeds:
        unique[(s.weight, tuple(sorted(s.factor.terms.items())))] = s
    return SeedSet(tuple(unique[k] for k in sorted(unique)), complete, bounds)


def _higher_rank_factors(face_pts, height, bounds):
    diffs = sorted({primitive_part(tuple(b - a for a, b in zip(s0, s1)))
                    for s0 in face_pts for s1 in face_pts if s0 != s1})
    return [power for power in factor_sweep(diffs, bounds.deg_max)
            if _minkowski_difference_points(face_pts,
                                            (power ** height).support())]


# ---------------------------------------------------------------------------
# coefficient spaces


@dataclass(frozen=True)
class CoefficientSpace:
    """Affine space of polynomials on a polytope meeting mutability seeds.

    ``free_points`` lists the lattice points whose coefficients are
    unknowns; ``basepoint``/``directions`` describe the solution set in that
    coordinate order.  ``empty`` means the constraints are inconsistent.
    """

    polytope: LatticePolytope
    free_points: tuple
    basepoint: tuple
    directions: tuple
    empty: bool

    @property
    def dimension(self):
        return -1 if self.empty else len(self.directions)

    def member(self, free_values=None):
        """The polynomial for given unknown values (defaults to basepoint)."""
        if self.empty:
            raise ValueError("the coefficient space is empty")
        if free_values is None:
            free_values = self.basepoint
        terms = {}
        for v in self.polytope.vertices:
            terms[v] = 1
        for pt, val in zip(self.free_points, free_values):
            if val:
                terms[pt] = val
        return LaurentPolynomial.from_terms(self.polytope.rank, terms.items())

    def contains_polynomial(self, f):
        if self.empty:
            return False
        vals = []
        for pt in self.free_points:
            vals.append(Fraction(f.coefficient(pt)))
        diff = [a - b for a, b in zip(vals, self.basepoint)]
        if not self.directions:
            return all(x == 0 for x in diff)
        cols = [[d[i] for d in self.directions]
                for i in range(len(self.free_points))]
        aug = [row + [t] for row, t in zip(cols, diff)]
        rows, pivots = rref(aug)
        k = len(self.directions)
        return all(pc != k for _, pc in zip(rows, pivots))


def coefficient_space(p, seeds):
    """Solve the mutability constraints exactly.

    Unknowns are the lattice points of p other than the vertices (held at 1)
    and the origin (held at 0).  Each seed demands, slice by slice, that the
    negative part of the polynomial is divisible by the matching power of
    the factor; each demand is the membership of the slice in the span of
    monomial multiples of that power, which is linear in the unknowns.
    """
    p.require_full_dim()
    if not p.origin_strictly_interior():
        raise OriginNotInteriorError(
            "mutability analysis needs the origin strictly interior")
    pts = lattice_points(p).all
    origin = tuple([0] * p.rank)
    fixed = {v: Fraction(1) for v in p.vertices}
    fixed[origin] = Fraction(0)
    free = tuple(q for q in pts if q not in fixed)
    index = {q: j for j, q in enumerate(free)}
    eq_rows, eq_rhs = [], []
    for seed in seeds:
        w = seed.weight
        by_level = {}
        for q in pts:
            by_level.setdefault(weight_value(w, q), []).append(q)
        for level in sorted(by_level):
            if level >= 0:
                continue
            a_pts = sorted(by_level[level])
            fpow = seed.factor ** (-level)
            cands = _minkowski_difference_points(
                a_pts, [tuple(e) for e in fpow.support()])
            # columns of the span matrix, in the a_pts coordinate order
            cols = []
            for u in cands:
                col = [Fraction(0)] * len(a_pts)
                for e, cf in fpow.terms.items():
                    key = tuple(x + y for x, y in zip(u, e))
                    col[a_pts.index(key)] = Fraction(cf)
                cols.append(col)
            if cols:
                # left null space of the span matrix = null space of its
                # transpose, whose rows are exactly the columns built above
                left_null = nullspace(cols, ncols=len(a_pts))
            else:
                left_null = [tuple(Fraction(1) if i == j else Fraction(0)
                                   for i in range(len(a_pts)))
                             for j in range(len(a_pts))]
            for r in left_null:
                row = [Fraction(0)] * len(free)
                rhs = Fraction(0)
                for coef, q in zip(r, a_pts):
                    if q in index:
                        row[index[q]] += coef
                    else:
                        rhs -= coef * fixed[q]
                if any(row) or rhs:
                    eq_rows.append(row)
                    eq_rhs.append(rhs)
    if not free:
        empty = any(r for r in eq_rhs)
        return CoefficientSpace(p, (), (), (), empty)
    if not eq_rows:
        basis = tuple(tuple(Fraction(1) if i == j else Fraction(0)
                            for i in range(len(free)))
                      for j in range(len(free)))
        return CoefficientSpace(p, free, tuple([Fraction(0)] * len(free)),
                                basis, False)
    solved = solve_affine(eq_rows, eq_rhs)
    if solved is None:
        return CoefficientSpace(p, free, (), (), True)
    particular, null_basis = solved
    return CoefficientSpace(p, free, tuple(particular),
                            tuple(tuple(b) for b in null_basis), False)


# ---------------------------------------------------------------------------
# rigidity


@dataclass(frozen=True)
class RigidityReport:
    verdict: str  # "rigid-within-bounds" | "not-rigid" | "inconclusive"
    space: CoefficientSpace
    seed_count: int
    complete: bool
    bounds: MutationBounds


def is_rigid(f, bounds=None):
    """Decide whether f is the unique maximally-mutable polynomial on its
    Newton polytope, within the search bounds.

    Two-variable searches are complete within bounds, so a zero-dimensional
    space equal to f gives "rigid-within-bounds" and anything else
    "not-rigid".  Higher-rank seed searches are partial, so a positive
    dimension or a mismatch is only ever "inconclusive" there.
    """
    if bounds is None:
        bounds = MutationBounds()
    p = newton_polytope(f)
    seeds = seed_set(p, bounds)
    space = coefficient_space(p, seeds.seeds)
    pinned = not space.empty and space.dimension == 0 and \
        space.member() == f
    if seeds.complete:
        verdict = "rigid-within-bounds" if pinned else "not-rigid"
    else:
        verdict = "rigid-within-bounds" if pinned else "inconclusive"
    return RigidityReport(verdict, space, len(seeds.seeds), seeds.complete,
                          bounds)
