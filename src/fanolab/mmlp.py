"""Maximally-mutable Laurent polynomials on a fixed Fano polytope.

Fix a polytope P with the origin strictly interior.  Candidate polynomials
are supported on the lattice points of P with coefficient 1 at every vertex
and 0 at the origin; the remaining coefficients are unknowns.  Requiring
mutability with respect to a set of seed mutations imposes exact linear
conditions on the unknowns, and the solution set is an affine subspace whose
dimension decides rigidity.

Each condition lives on the slice of P's lattice points where a weight takes
one value.  A slice holds every lattice point of P on its hyperplane, so the
monomial multiples of a factor power that fit in it are the points u with
u + b in the slice for every exponent b of the power: the intersection of
the translates of the slice by -b, found by lookups and not by a hull.
Points and exponents are read as the packed integer keys of
``laurent._pack``, where a translate is one integer add.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import groupby
from operator import attrgetter, neg

from .laurent import LaurentPolynomial, _pack, factor_powers
from .linalg import nullspace, primitive_part, solve_affine
from .mutation import (InvalidWeightError, MutationBounds, MutationData,
                       factor_sweep, weight_value)
from .polytopes import (OriginNotInteriorError, lattice_points,
                        newton_polytope)


# ---------------------------------------------------------------------------
# Minkowski differences of hyperplane slices


def _minkowski_difference(a, b):
    """The packed points u with u + b in a for every packed b of b.

    a is a set, or a dict keyed by the points, that holds every packed
    lattice point of conv(a), as the lattice points of P on one hyperplane
    do; then u + conv(b) lies in conv(a) exactly when u + b is in a for
    every b.  b is the packed map of a factor power, which holds the
    origin, so every such u is in a, and the answer is the intersection of
    the translates a - b.  They are intersected one b at a time, and the
    loop stops at the first empty intersection.

    Packed sums are exact here.  The box of P holds the origin and at most
    ``LATTICE_BOX_CAP`` points, so every |a_i| < LATTICE_BOX_CAP, and a
    packed b has every |b_i| < _HALF.  So u + b - a has every entry below
    2 * LATTICE_BOX_CAP + _HALF <= 2^PACK_BITS in size, and its key, the
    difference of the keys, is 0 only when it is the zero vector.  A power
    that cannot be packed (b is None) has some |b_i| >= _HALF, more than
    2 * LATTICE_BOX_CAP, which no two points of a differ by: it has no fit.
    """
    if b is None:
        return ()
    fits = a
    for k in b:
        if k:
            fits = {u for u in fits if u + k in a}
            if not fits:
                break
    return fits


# ---------------------------------------------------------------------------
# seed sets

# the most lattice points of P (the unknowns, and the points of every slice)
# that seed_set takes.  Measured through the library on a 2-core Xeon (Python
# 3.11): the (+-3, +-3, +-1) box, 147 points and 4,260 seeds, took 8.1 s, the
# 289-point square 1.4-1.5 s, and the pyramid over the 17 x 3 rectangle at
# height 2 (68 points, 550 seeds) 0.5 s; the slowest input found within both
# caps when they were set, that over the 15 x 3 rectangle (60 points, 436
# seeds), took 0.33-0.36 s
MMLP_POINT_CAP = 64
# the most seeds seed_set finds before it refuses: the pyramid over the
# 7 x 7 square at height 1 (59 points, 2,136 seeds) took 0.13-0.14 s in
# seed_set and 1.6-1.7 s more in coefficient_space; below the cap, the
# (+-2, +-1, +-1) box (45 points, 724 seeds) took 0.10-0.11 s, and the
# simplex with 35 points and 936 seeds 0.12 s
MMLP_SEED_CAP = 1000


class SeedSet(namedtuple("SeedSet", "seeds complete points")):
    """The seeds of p and the sorted lattice points of p that the search
    read, once it found the origin interior and the points within
    ``MMLP_POINT_CAP``; ``seeds._replace(seeds=other)`` keeps both checks.
    """

    __slots__ = ()


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
    pts = lattice_points(p).all
    if len(pts) > MMLP_POINT_CAP:
        raise ValueError(f"the polytope holds {len(pts)} lattice points, "
                         f"above {MMLP_POINT_CAP}")
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
    return SeedSet(tuple(sorted(seeds, key=attrgetter("key"))), complete,
                   pts)


def _higher_rank_factors(face_pts, height, bounds):
    """The sweep's powers F with a translate of supp(F^height) in the face.

    Each chain stops at its first power without one, because no higher
    power of its base has one (see ``factor_sweep``).
    """
    diffs = sorted({primitive_part(tuple(b - a for a, b in zip(s0, s1)))
                    for s0 in face_pts for s1 in face_pts if s0 != s1})
    face = set(map(_pack, face_pts))
    for chain in factor_sweep(diffs, bounds.deg_max):
        for power in chain:
            if not _minkowski_difference(face, (power ** height).packed()):
                break
            yield power


# ---------------------------------------------------------------------------
# coefficient spaces


class CoefficientSpace(namedtuple(
        "CoefficientSpace",
        "polytope free_points basepoint directions empty")):
    """Affine space of polynomials on a polytope meeting mutability seeds.

    ``free_points`` lists the lattice points whose coefficients are
    unknowns; in that coordinate order, the solution set is ``basepoint``
    (rational) plus the rational span of ``directions`` (primitive integer
    vectors).  ``empty`` means the constraints are inconsistent.
    """

    __slots__ = ()

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
    """Solve the mutability constraints of a seed set exactly.

    ``seeds`` is the ``SeedSet`` of p, or a ``replace`` of it with other
    seeds.  Unknowns are its points other than the vertices (held at 1) and
    the origin (held at 0).  Each seed demands, slice by slice, that the
    negative part of the polynomial is divisible by the matching power of
    the factor; each demand is the membership of the slice in the span of
    monomial multiples of that power, which is linear in the unknowns.
    """
    keys = list(map(_pack, seeds.points))
    fixed = dict.fromkeys(map(_pack, p.vertices), 1)
    fixed[0] = 0  # the origin
    free = tuple(q for q, k in zip(seeds.points, keys) if k not in fixed)
    index = {k: j for j, k in enumerate(map(_pack, free))}
    # each distinct equation (row, rhs) once: seeds repeat most of them (the
    # cubic mirror's 836 equations hold 92), and the reduced echelon form
    # that solve_affine reads is the same without the repeats
    eqs = {}
    # one level map per run of seeds of equal weight, as seed_set sorts
    # them; the negative levels are walked nearest first
    for w, run in groupby(seeds.seeds, key=attrgetter("weight")):
        by_level = {}  # level -> {key: index}, in the sorted order of points
        for q, k in zip(seeds.points, keys):
            at = by_level.setdefault(weight_value(w, q), {})
            at[k] = len(at)
        levels = sorted([i for i in by_level if i < 0], reverse=True)
        for seed in run:
            powers = factor_powers(seed.factor, map(neg, levels))
            for level, fpow in zip(levels, powers):
                at = by_level[level]
                terms = fpow.packed()
                fits = _minkowski_difference(at, terms)
                cols = []  # of the span matrix, in the coordinate order of at
                for u in at:
                    if u in fits:
                        col = [0] * len(at)
                        for e, cf in terms.items():
                            col[at[u + e]] = cf
                        cols.append(col)
                # left null space of the span matrix = null space of its
                # transpose, whose rows are exactly the columns built above
                for r in nullspace(cols, ncols=len(at)):
                    row = [0] * len(free)
                    rhs = 0
                    for coef, k in zip(r, at):
                        if k in index:
                            row[index[k]] += coef
                        else:
                            rhs -= coef * fixed[k]
                    if any(row) or rhs:
                        eqs[tuple(row), rhs] = None
    solved = solve_affine([row for row, _ in eqs], [rhs for _, rhs in eqs],
                          ncols=len(free))
    if solved is None:
        return CoefficientSpace(p, free, (), (), True)
    particular, null_basis = solved
    return CoefficientSpace(p, free, tuple(particular), tuple(null_basis),
                            False)


# ---------------------------------------------------------------------------
# rigidity


class RigidityReport(namedtuple("RigidityReport",
                                "verdict space seed_count complete")):
    """``verdict`` is "rigid-within-bounds", "not-rigid" or
    "inconclusive"."""

    __slots__ = ()


def is_rigid(f, bounds=None):
    """Decide whether f is the unique maximally-mutable polynomial on its
    Newton polytope, within the search bounds.

    Two-variable searches are complete within bounds, so a zero-dimensional
    space equal to f gives "rigid-within-bounds" and anything else
    "not-rigid".  Higher-rank seed searches are partial, so a positive
    dimension or a mismatch is only ever "inconclusive" there.  The seed
    set goes whole to ``coefficient_space``: p is checked and walked once.
    """
    p = newton_polytope(f)
    seeds = seed_set(p, bounds)
    space = coefficient_space(p, seeds)
    pinned = space.dimension == 0 and space.member() == f
    verdict = ("rigid-within-bounds" if pinned
               else "not-rigid" if seeds.complete else "inconclusive")
    return RigidityReport(verdict, space, len(seeds.seeds), seeds.complete)
