"""Maximally-mutable Laurent polynomials on a fixed Fano polytope.

Fix a polytope P with the origin strictly interior.  Candidate polynomials
are supported on the lattice points of P with coefficient 1 at every vertex
and 0 at the origin; the remaining coefficients are unknowns.  Requiring
mutability with respect to a set of seed mutations imposes exact linear
conditions on the unknowns, and the solution set is an affine subspace whose
dimension decides rigidity.

Each condition lives on the slice of P's lattice points where a weight takes
one value.  A slice holds every lattice point of P on its hyperplane, so the
monomial multiples of a factor power that fit in it are found by lookups in
that point set; no hull is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from operator import attrgetter, neg

from .laurent import LaurentPolynomial, factor_powers
from .linalg import nullspace, primitive_part, solve_affine
from .mutation import (InvalidWeightError, MutationBounds, MutationData,
                       factor_sweep, weight_value)
from .polytopes import (LatticePolytope, OriginNotInteriorError,
                        lattice_points, newton_polytope)


# ---------------------------------------------------------------------------
# Minkowski differences of hyperplane slices


def _minkowski_difference_points(a_points, b_points):
    """Yield the integer points u with u + conv(b_points) contained in
    conv(a_points), in sorted order.

    a_points is a set, or a dict keyed by the points, that holds every
    lattice point of conv(a_points), as the lattice points of a polytope on
    one hyperplane do.  Then u + conv(b_points) lies in conv(a_points)
    exactly when u + b is in a_points for every b, and each such u is
    a - b0 for some a, whichever b0 of b_points is taken.  b_points may be
    any iterable that can be read twice, such as the keys of a term map.
    The points are tested as they are asked for, so a caller that needs
    only one stops there.
    """
    b0 = next(iter(b_points))
    for u in sorted({tuple(x - y for x, y in zip(a, b0)) for a in a_points}):
        if all(tuple(x + y for x, y in zip(u, b)) in a_points
               for b in b_points):
            yield u


# ---------------------------------------------------------------------------
# seed sets

# the most lattice points of P (the unknowns, and the points of every slice)
# that seed_set and coefficient_space take.  Measured through the library on
# a 2-core 2.1 GHz Xeon: the (+-3, +-3, +-1) box, 147 points and 4,260 seeds,
# took 36 s, the 289-point square 2.2 s, and the pyramid over the 17 x 3
# rectangle at height 2 (68 points, 550 seeds) 2.0 s; the slowest input
# found within both caps, that over the 15 x 3 rectangle (60 points, 436
# seeds), took 1.1 s
MMLP_POINT_CAP = 64
# the most seeds seed_set finds before it refuses: the pyramid over the
# 7 x 7 square at height 1 (59 points, 2,136 seeds) took 1.4 s in seed_set
# and 8.5 s more in coefficient_space; below the cap, the (+-2, +-1, +-1)
# box (45 points, 724 seeds) took 0.36 s, and the simplex with 35 points and
# 936 seeds 0.52 s
MMLP_SEED_CAP = 1000


def _lattice_points(p):
    """The lattice points of p, refused past ``MMLP_POINT_CAP``."""
    pts = lattice_points(p).all
    if len(pts) > MMLP_POINT_CAP:
        raise ValueError(f"the polytope holds {len(pts)} lattice points, "
                         f"above {MMLP_POINT_CAP}")
    return pts


@dataclass(frozen=True)
class SeedSet:
    seeds: tuple
    complete: bool


def seed_set(p, bounds=None):
    """Candidate mutations every maximally-mutable polynomial on p must admit.

    In two variables the list is complete within the bounds: one weight per
    edge, with factors the binomial powers (1 + x^d)^m along the edge that
    can possibly divide the matching slice.  In higher rank the factors are
    a heuristic sweep (powers of binomials and trinomials from facet-point
    differences, each chain stopped at its first power that does not fit
    in the facet) and the result is flagged partial.  A polytope of more
    than ``MMLP_POINT_CAP`` lattice points, or one past ``MMLP_SEED_CAP``
    seeds, raises ValueError.
    """
    if bounds is None:
        bounds = MutationBounds()
    if not p.origin_strictly_interior():
        raise OriginNotInteriorError(
            "mutability analysis needs the origin strictly interior")
    if p.rank < 2:
        raise InvalidWeightError("need at least two variables")
    pts = _lattice_points(p)
    seeds = []
    complete = p.rank == 2
    for (u, c) in p.facets:
        if c > bounds.w_max:
            complete = False
            continue
        # sorted, as pts is, and at least rank >= 2 of them: the vertices
        face_pts = [q for q in pts
                    if sum(a * b for a, b in zip(u, q)) == -c]
        if p.rank == 2:
            d = primitive_part(tuple(b - a for a, b in
                                     zip(face_pts[0], face_pts[-1])))
            base = LaurentPolynomial.one(2) + LaurentPolynomial.monomial(2, d)
            top = min(bounds.deg_max, (len(face_pts) - 1) // c)
            factors = factor_powers(base, range(1, top + 1))
        else:
            factors = _higher_rank_factors(face_pts, c, bounds)
        for factor in factors:
            if len(seeds) == MMLP_SEED_CAP:
                raise ValueError(
                    f"the polytope has more than {MMLP_SEED_CAP} seeds")
            seeds.append(MutationData(u, factor))
    # distinct by construction (see ``enumerate_mutations``)
    return SeedSet(tuple(sorted(seeds, key=attrgetter("key"))), complete)


def _higher_rank_factors(face_pts, height, bounds):
    """The sweep's powers F with a translate of supp(F^height) in the face.

    Each chain stops at its first power without one, because no higher
    power of its base has one (see ``factor_sweep``).
    """
    diffs = sorted({primitive_part(tuple(b - a for a, b in zip(s0, s1)))
                    for s0 in face_pts for s1 in face_pts if s0 != s1})
    face = set(face_pts)
    for chain in factor_sweep(diffs, bounds.deg_max):
        for power in chain:
            fits = _minkowski_difference_points(face, (power ** height).terms)
            if next(fits, None) is None:
                break
            yield power


# ---------------------------------------------------------------------------
# coefficient spaces


@dataclass(frozen=True)
class CoefficientSpace:
    """Affine space of polynomials on a polytope meeting mutability seeds.

    ``free_points`` lists the lattice points whose coefficients are
    unknowns; in that coordinate order, the solution set is ``basepoint``
    (rational) plus the rational span of ``directions`` (primitive integer
    vectors).  ``empty`` means the constraints are inconsistent.
    """

    polytope: LatticePolytope
    free_points: tuple
    basepoint: tuple
    directions: tuple
    empty: bool

    @property
    def dimension(self):
        return -1 if self.empty else len(self.directions)

    def member(self):
        """The polynomial at the basepoint."""
        if self.empty:
            raise ValueError("the coefficient space is empty")
        return LaurentPolynomial(self.polytope.rank, {
            **dict.fromkeys(self.polytope.vertices, 1),
            **dict(zip(self.free_points, self.basepoint))})

    def contains_polynomial(self, f):
        """Whether f is a member: coefficient 1 at every vertex, support
        inside the vertices and free points (so no constant term), and free
        coefficients on the solution set."""
        if self.empty or f.rank != self.polytope.rank:
            return False
        vertices = self.polytope.vertices
        if any(f.coefficient(v) != 1 for v in vertices):
            return False
        allowed = set(vertices).union(self.free_points)
        if any(e not in allowed for e in f.terms):
            return False
        diff = [f.coefficient(pt) - b
                for pt, b in zip(self.free_points, self.basepoint)]
        cols = [[d[i] for d in self.directions]
                for i in range(len(self.free_points))]
        return solve_affine(cols, diff,
                            ncols=len(self.directions)) is not None


def coefficient_space(p, seeds):
    """Solve the mutability constraints exactly.

    Unknowns are the lattice points of p other than the vertices (held at 1)
    and the origin (held at 0).  Each seed demands, slice by slice, that the
    negative part of the polynomial is divisible by the matching power of
    the factor; each demand is the membership of the slice in the span of
    monomial multiples of that power, which is linear in the unknowns.  A
    polytope of more than ``MMLP_POINT_CAP`` lattice points raises
    ValueError.
    """
    if not p.origin_strictly_interior():
        raise OriginNotInteriorError(
            "mutability analysis needs the origin strictly interior")
    pts = _lattice_points(p)
    origin = tuple([0] * p.rank)
    fixed = {v: 1 for v in p.vertices}
    fixed[origin] = 0
    free = tuple(q for q in pts if q not in fixed)
    index = {q: j for j, q in enumerate(free)}
    eq_rows, eq_rhs = [], []
    # one level map per run of seeds of equal weight, as seed_set sorts
    # them; the negative levels are walked nearest first
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
                cols = []  # of the span matrix, in the coordinate order of at
                for u in _minkowski_difference_points(at, fpow.terms):
                    col = [0] * len(at)
                    for e, cf in fpow.terms.items():
                        col[at[tuple(x + y for x, y in zip(u, e))]] = cf
                    cols.append(col)
                # left null space of the span matrix = null space of its
                # transpose, whose rows are exactly the columns built above
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


# ---------------------------------------------------------------------------
# rigidity


@dataclass(frozen=True)
class RigidityReport:
    verdict: str  # "rigid-within-bounds" | "not-rigid" | "inconclusive"
    space: CoefficientSpace
    seed_count: int
    complete: bool


def is_rigid(f, bounds=None):
    """Decide whether f is the unique maximally-mutable polynomial on its
    Newton polytope, within the search bounds.

    Two-variable searches are complete within bounds, so a zero-dimensional
    space equal to f gives "rigid-within-bounds" and anything else
    "not-rigid".  Higher-rank seed searches are partial, so a positive
    dimension or a mismatch is only ever "inconclusive" there.
    """
    p = newton_polytope(f)
    seeds = seed_set(p, bounds)
    space = coefficient_space(p, seeds.seeds)
    pinned = space.dimension == 0 and space.member() == f
    verdict = ("rigid-within-bounds" if pinned
               else "not-rigid" if seeds.complete else "inconclusive")
    return RigidityReport(verdict, space, len(seeds.seeds), seeds.complete)
