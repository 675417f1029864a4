"""Lattice polytope geometry with exact rational arithmetic.

Hulls come from Andrew's monotone chain with integer cross products in rank
2, and from one double-description pass in every other rank, which reads the
vertices off the point-facet incidences.  No floating point anywhere.

The hull is the one test of whether the points span: it finds at most rank
vertices exactly when they do not.  Only such point sets go through the
chart, ``affine_chart``: a single Hermite normal form of the differences
gives the affine dimension and pivot columns, and projection onto those
columns carries the hull onto a full-dimensional one in fewer coordinates;
``from_points`` lifts that hull's vertices back.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import reduce
from itertools import product
from math import prod
from operator import and_, index

from .laurent import ZeroPolynomialError, json_value
from .linalg import (hnf_rows, identity, is_primitive, nullspace,
                     primitive_part, rref)


class DegeneratePolytopeError(ValueError):
    pass


class OriginNotInteriorError(ValueError):
    pass


class NotSimplexError(ValueError):
    pass


def affine_chart(points):
    """Chart of the affine span of integer points.

    Returns the pivot columns of the Hermite normal form of the differences
    p - points[0], one per affine dimension.  Projection onto the pivot
    columns is injective on the affine span, so it carries conv(points) onto
    a full-dimensional polytope in that many coordinates.
    """
    p0 = points[0]
    diffs = [[x - y for x, y in zip(p, p0)] for p in points[1:]]
    h, dim = hnf_rows(diffs)
    return [next(j for j, x in enumerate(row) if x) for row in h[:dim]]


def _hull(points, rank):
    """Vertices and facets of sorted, distinct points by double description
    (Fukuda-Prodon, 1996), or ([], []) when the points do not span.

    The facets (u, c) are the extreme rays of the pointed cone of (u, c)
    with <u, p> + c >= 0 at every point.  It starts as the simplicial cone
    of the first rank + 1 affinely independent points, read off the one
    ``rref`` that tests whether they span, and cuts by the others in order.
    Each ray carries the bitmask, distinct per ray, of the points so far on
    its facet.  Rays either side of a point span a new ray when adjacent:
    they share rank - 1 points and no third mask holds the shared ones.  A
    point is a vertex when the masks through it meet in it alone.
    """
    lifted = [p + (1,) for p in points]
    # rref([lifted^T | I]) = [R | T]: if every pivot is a point, T = D M^-1
    # for M the lifted start points as columns and D > 0 diagonal, so row i
    # of T is the normal of the facet that misses start point i
    rows, start = rref([list(c) + e for c, e in
                        zip(zip(*lifted), identity(rank + 1))])
    if start[-1] >= len(points):
        return [], []
    full = sum(1 << i for i in start)
    rays = [(primitive_part(r[len(points):]), full ^ (1 << i))
            for r, i in zip(rows, start)]
    for i, q in enumerate(lifted):
        if i in start:
            continue
        bit = 1 << i
        signed = [(sum(a * b for a, b in zip(r, q)), r, m) for r, m in rays]
        rays = [(r, m | bit if s == 0 else m) for s, r, m in signed if s >= 0]
        above = [x for x in signed if x[0] > 0]
        below = [x for x in signed if x[0] < 0]
        for (s, r, m1), (t, r2, m2) in product(above, below):
            shared = m1 & m2
            if shared.bit_count() >= rank - 1 and not any(
                    m & shared == shared
                    for _, _, m in signed if m not in (m1, m2)):
                rays.append((primitive_part([s * y - t * x
                                             for x, y in zip(r, r2)]),
                             shared | bit))
    verts = [p for i, p in enumerate(points)
             if reduce(and_, (m for _, m in rays if m >> i & 1), -1) == 1 << i]
    return verts, sorted((r[:-1], r[-1]) for r, _ in rays)


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _polygon(points):
    """Vertices and facets of rank-2 points; at most 2 vertices if collinear.

    ``points`` are sorted and distinct.  Andrew's monotone chain keeps the
    strict turns only, so points inside edges are not vertices; each edge
    (a, b) of the counter-clockwise boundary has the interior on its left,
    so its inner normal is the primitive part of (a1 - b1, b0 - a0).
    """
    def chain(pts):
        hull = []
        for p in pts:
            while len(hull) >= 2 and _cross(hull[-2], hull[-1], p) <= 0:
                hull.pop()
            hull.append(p)
        return hull[:-1]

    ring = chain(points) + chain(points[::-1])
    facets = []
    for a, b in zip(ring, ring[1:] + ring[:1]):
        u = primitive_part((a[1] - b[1], b[0] - a[0]))
        facets.append((u, -(u[0] * a[0] + u[1] * a[1])))
    return ring, sorted(facets)


class LatticePolytope(namedtuple("LatticePolytope",
                                 "rank vertices facets dim")):
    """Convex hull of integer points, stored by vertices and facet data.

    ``facets`` is a tuple of ``(u, c)`` with u a primitive inner normal and
    the polytope cut out by <u, v> >= -c; it is empty for lower-dimensional
    polytopes.
    """

    __slots__ = ()

    @classmethod
    def from_points(cls, points, rank=None):
        pts = sorted({tuple(map(index, p)) for p in points})
        if not pts:
            raise ValueError("need at least one point")
        if rank is None:
            rank = len(pts[0])
        if rank < 1:
            raise ValueError("rank must be a positive integer")
        if any(len(p) != rank for p in pts):
            raise ValueError("points of mixed dimension")
        verts, facets = _polygon(pts) if rank == 2 else _hull(pts, rank)
        if len(verts) > rank:
            return cls(rank, tuple(sorted(verts)), tuple(facets), rank)
        pivots = affine_chart(pts)
        if not pivots:
            return cls(rank, (pts[0],), (), 0)
        preimage = {tuple(p[j] for j in pivots): p for p in pts}
        inner = cls.from_points(list(preimage), rank=len(pivots))
        verts = sorted(preimage[v] for v in inner.vertices)
        return cls(rank, tuple(verts), (), inner.dim)

    @property
    def is_full_dimensional(self):
        return self.dim == self.rank

    def require_full_dim(self):
        if not self.is_full_dimensional:
            raise DegeneratePolytopeError(
                f"polytope has dimension {self.dim} < rank {self.rank}")

    def contains(self, point):
        self.require_full_dim()
        return all(sum(a * b for a, b in zip(u, point)) >= -c
                   for (u, c) in self.facets)

    def bounding_box(self):
        lo = [min(v[i] for v in self.vertices) for i in range(self.rank)]
        hi = [max(v[i] for v in self.vertices) for i in range(self.rank)]
        return lo, hi

    def origin_strictly_interior(self):
        self.require_full_dim()
        return all(c > 0 for (_, c) in self.facets)

    @classmethod
    def from_json_dict(cls, data):
        """The hull of ``data["vertices"]`` in rank ``data["n"]``.  The rank
        and the coordinates must be JSON integers; input of another shape
        raises TypeError."""
        vertices = [[json_value(x, int, "a vertex coordinate")
                     for x in json_value(v, list, "a vertex")]
                    for v in json_value(data["vertices"], list, "vertices")]
        return cls.from_points(vertices, rank=json_value(data["n"], int, "n"))


# ---------------------------------------------------------------------------
# operations


def newton_polytope(f):
    """Convex hull of the exponent vectors of a nonzero Laurent polynomial."""
    if f.is_zero():
        raise ZeroPolynomialError("Newton polytope of 0 is undefined")
    return LatticePolytope.from_points(f.terms, rank=f.rank)


def is_fano(p):
    """Whether the origin lies strictly inside p and every vertex is
    primitive."""
    return p.origin_strictly_interior() and all(map(is_primitive, p.vertices))


class DualPolytope(namedtuple("DualPolytope", "rank vertices integral")):
    """Polar dual; vertices are exact rationals, one per facet of the input."""

    __slots__ = ()

    def to_lattice_polytope(self):
        if not self.integral:
            raise ValueError("dual polytope is not integral")
        return LatticePolytope.from_points(
            [tuple(int(x) for x in v) for v in self.vertices], rank=self.rank)


def dual_polytope(p):
    if not p.origin_strictly_interior():
        raise OriginNotInteriorError(
            "polar dual is unbounded: origin not strictly interior")
    verts = []
    for (u, c) in p.facets:
        verts.append(tuple(Fraction(x, c) for x in u))
    integral = all(x.denominator == 1 for v in verts for x in v)
    return DualPolytope(p.rank, tuple(sorted(verts)), integral)


def is_reflexive(p):
    """True iff the polar dual is integral; equivalently every offset is 1."""
    if not p.origin_strictly_interior():
        raise OriginNotInteriorError("reflexivity needs the origin interior")
    return all(c == 1 for (_, c) in p.facets)


class LatticePointSet(namedtuple("LatticePointSet",
                                 "all boundary interior")):
    __slots__ = ()


# the most bounding-box points lattice_points visits: boxes of 10,404, 91,204
# and 1,004,004 points took 0.34, 1.0 and 12 s through ``points --json`` on a
# 2-core 2.0 GHz Xeon
LATTICE_BOX_CAP = 100_000


def lattice_points(p):
    """Exhaustive bounding-box enumeration with exact membership tests; a
    box of more than ``LATTICE_BOX_CAP`` points raises ValueError first."""
    p.require_full_dim()
    lo, hi = p.bounding_box()
    box = prod(b - a + 1 for a, b in zip(lo, hi))
    if box > LATTICE_BOX_CAP:
        raise ValueError(f"the bounding box holds {box} lattice points, "
                         f"above {LATTICE_BOX_CAP}")
    pts, bdry, intr = [], [], []
    for q in product(*(range(a, b + 1) for a, b in zip(lo, hi))):
        vals = [sum(a * b for a, b in zip(u, q)) + c for (u, c) in p.facets]
        if any(v < 0 for v in vals):
            continue
        pts.append(q)
        if any(v == 0 for v in vals):
            bdry.append(q)
        else:
            intr.append(q)
    return LatticePointSet(tuple(pts), tuple(bdry), tuple(intr))


# ---------------------------------------------------------------------------
# normal form


class NormalForm(namedtuple("NormalForm", "matrix")):
    """Canonical vertex matrix under GL(n,Z), plus a stable byte encoding.

    The key of a column order sigma is the list of rows of the vertex-facet
    pairing matrix, with columns in order sigma, sorted descending.  The
    candidates are the vertex matrices V_sigma of the orders of largest
    key, and the normal form is the least row HNF among them.

    Equality of encodings decides lattice equivalence in every rank.  Let V
    be the vertex matrix of P (a column per vertex) and g in GL(n,Z).  gP
    has vertex matrix gV and facets u g^-1 with P's offsets, so g permutes
    the rows and columns of the pairing matrix: the candidates of gP are
    the g V_sigma.  The row HNF depends only on the row lattice, which g
    keeps, so HNF(g V_sigma) = HNF(V_sigma).  Conversely, if HNF(V_sigma)
    = HNF(W_tau) for Q, then, V_sigma having full row rank, the rows of
    V_sigma and of W_tau are bases of one lattice: W_tau = g V_sigma with
    g unimodular, and Q = gP.

    ``_maximising_orders`` finds the same orders as trying all k!, so the
    argument holds.  The orders of blocks B list B's blocks in turn, each
    in any order.  Let L_1, ..., L_i be the best lines kept in the first i
    steps.  Claim: every kept state (R, B) has each order of B take the
    rows in R to L_1, ..., L_i and every other row to at most L_i, and the
    orders whose key begins L_1, ..., L_i are the orders of the kept
    states.  It holds at the start.  If the key of sigma begins L_1, ...,
    L_(i+1), then sigma is an order of a kept (R, B), so its (i+1)-th row is
    its largest row r outside R.  r sigma is at most r's best line under B,
    which is at most L_(i+1), so they are equal: (B, r) is kept, and sigma
    sorts r descending within each block, so it is an order of the split.
    Conversely, an order of a kept split takes r to L_(i+1) and every other
    unused row to at most its best line under B, at most L_(i+1), so its
    key begins L_1, ..., L_(i+1).  The claim uses only B and the lines of
    R, so one state per B suffices.  Distinct vertices have distinct
    pairing columns, as the normals span, so the blocks become single
    columns by the last row.  Then each state is one order, whose key is
    L_1, ..., L_i and its unused rows sorted, and the largest of those keys
    is the largest key.
    """

    __slots__ = ()

    @property
    def encoding(self):
        # the matrix has one row per coordinate, so its length is the rank
        return repr((len(self.matrix), self.matrix)).encode()


# the most states _maximising_orders keeps after a step: the 5-D
# cross-polytope peaks at 3,840 (2.2-2.4 s for its normal form on a 2-core
# 2.1 GHz Xeon), while the 6-D one keeps 7,680 from the fifth step on and
# was still running after 43 s, at 23,040 states
NORMAL_FORM_STATE_CAP = 5_000


def _maximising_orders(pairing):
    """The column orders that maximise the rows of ``pairing`` sorted
    descending, built one row at a time.

    A state is an ordered partition of the columns into blocks, with the
    rows used to split it.  A row's best line under the blocks is its
    entries sorted descending within each block, in block order.  Each step
    keeps every (state, unused row) whose best line is the largest, and
    splits each block by that row's values, descending; states with equal
    blocks are kept once.  Once every block is a single column, each state
    is one order, scored by its unused rows sorted descending.  Returns the
    orders, sorted, as tuples.  A step that keeps more than
    ``NORMAL_FORM_STATE_CAP`` states raises ValueError.
    """
    states = {(tuple(range(len(pairing[0]))),): frozenset()}
    while any(len(b) > 1 for blocks in states for b in blocks):
        best, kept = [], []
        for blocks, used in states.items():
            for i, row in enumerate(pairing):
                if i in used:
                    continue
                line = [x for b in blocks
                        for x in sorted((row[j] for j in b), reverse=True)]
                if line > best:
                    best, kept = line, []
                if line == best:
                    kept.append((blocks, used, i))
        states = {}
        for blocks, used, i in kept:
            row = pairing[i]
            split = tuple(tuple(j for j in b if row[j] == x)
                          for b in blocks
                          for x in sorted({row[j] for j in b}, reverse=True))
            states.setdefault(split, used | {i})
        if len(states) > NORMAL_FORM_STATE_CAP:
            raise ValueError(f"the normal form search keeps {len(states)} "
                             f"partial vertex orders, above "
                             f"{NORMAL_FORM_STATE_CAP}")
    rest = {}
    for blocks, used in states.items():
        sigma = tuple(j for (j,) in blocks)
        rest[sigma] = sorted((tuple(row[j] for j in sigma)
                              for i, row in enumerate(pairing)
                              if i not in used), reverse=True)
    best = max(rest.values())
    return sorted(sigma for sigma, key in rest.items() if key == best)


def normal_form(p):
    """GL(n,Z)-canonical form: the least row HNF of the vertex matrix over
    the column orders that maximise the sorted pairing matrix."""
    p.require_full_dim()
    verts = p.vertices
    pairing = [[sum(a * b for a, b in zip(u, v)) for v in verts]
               for (u, _) in p.facets]
    matrix = min(tuple(map(tuple, hnf_rows([[verts[j][i] for j in sigma]
                                            for i in range(p.rank)])[0]))
                 for sigma in _maximising_orders(pairing))
    return NormalForm(matrix)


# ---------------------------------------------------------------------------
# weighted projective recognition


def simplex_weights(p):
    """The ascending weights of the weighted projective space given by the
    spanning fan of a simplex: the primitive positive relation among the
    fan's rays, the primitive parts of the vertices.
    """
    p.require_full_dim()
    if len(p.vertices) != p.rank + 1:
        raise NotSimplexError(
            f"{len(p.vertices)} vertices; a rank-{p.rank} simplex needs "
            f"{p.rank + 1}")
    if not p.origin_strictly_interior():
        raise OriginNotInteriorError("weights need the origin interior")
    cols = list(zip(*map(primitive_part, p.vertices)))
    # one relation, the origin's barycentric coordinates times the vertex
    # gcds: of one sign, and positive at the basis vector's free coordinate
    (weights,) = nullspace(cols, ncols=p.rank + 1)
    return tuple(sorted(weights))
