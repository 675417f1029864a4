"""Reference hulls.

Subset enumeration of facets and vertices: every rank-subset of the points
that spans a hyperplane with all points on one side gives a facet; a point
is a vertex when its active facet normals have full rank.  The cost grows
with the number of point subsets, so it only serves as the oracle that
``_hull`` and ``_polygon`` are checked against.

``chart_first_from_points`` is ``LatticePolytope.from_points`` as it was
when every point set went through ``affine_chart`` before its hull, the
oracle for the hull deciding whether the points span.

``start_cone_hull`` is ``_hull`` as it was when the start simplex's facets
came from one ``nullspace`` each, after the ``rref`` that found the start
points: the oracle for reading them off that ``rref``.
"""

from functools import reduce
from itertools import combinations, product
from operator import and_, index

from fanolab.linalg import nullspace, primitive_part, rref
from fanolab.polytopes import (DegeneratePolytopeError, LatticePolytope,
                               _hull, _polygon, affine_chart)


def start_cone_hull(points, rank):
    """``_hull`` with the start cone's rays found one nullspace per facet:
    the null vector of the other start points, signed positive on the one
    its facet misses."""
    lifted = [p + (1,) for p in points]
    start = rref(list(zip(*lifted)))[1]
    if len(start) <= rank:
        return [], []
    rays = []
    for i in start:
        others = [j for j in start if j != i]
        r = nullspace([lifted[j] for j in others], ncols=rank + 1)[0]
        if sum(a * b for a, b in zip(r, lifted[i])) < 0:
            r = tuple(-x for x in r)
        rays.append((r, sum(1 << j for j in others)))
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


def _hyperplane_normal(points, rank):
    """Primitive integer normal of the hyperplane through the given points.

    Returns None when the points do not span an affine hyperplane.
    """
    p0 = points[0]
    diffs = [[x - y for x, y in zip(p, p0)] for p in points[1:]]
    basis = nullspace(diffs, ncols=rank)
    return basis[0] if len(basis) == 1 else None


def _facets_full_dim(points, rank):
    """All facets of conv(points) as (inner primitive normal u, offset c).

    The polytope is { v : <u,v> >= -c }.  Assumes the points affinely span.
    """
    facets = {}
    for subset in combinations(points, rank):
        u = _hyperplane_normal(list(subset), rank)
        if u is None:
            continue
        alpha = sum(a * b for a, b in zip(u, subset[0]))
        lo = hi = False
        for p in points:
            val = sum(a * b for a, b in zip(u, p))
            if val < alpha:
                lo = True
            elif val > alpha:
                hi = True
            if lo and hi:
                break
        if lo and hi:
            continue
        if hi:  # points on the >= side: u is already the inner normal
            facets[(u, -alpha)] = None
        elif lo:
            u = tuple(-x for x in u)
            facets[(u, alpha)] = None
        else:
            # all points on the hyperplane: degenerate input
            raise DegeneratePolytopeError("points do not span the space")
    return sorted(facets)


def _vertices_full_dim(points, facets, rank):
    """The points whose active facet normals have full rank."""
    verts = []
    for p in points:
        active = [u for (u, c) in facets
                  if sum(a * b for a, b in zip(u, p)) == -c]
        if len(active) >= rank:
            _, pivots = rref(active)
            if len(pivots) == rank:
                verts.append(p)
    return verts


def chart_first_from_points(points, rank=None):
    """The hull of nonempty integer points, charted first: the affine
    dimension comes from ``affine_chart``, and only full-dimensional sets
    reach ``_polygon`` or ``_hull``."""
    pts = sorted({tuple(map(index, p)) for p in points})
    if rank is None:
        rank = len(pts[0])
    pivots = affine_chart(pts)
    dim = len(pivots)
    if dim == 0:
        return LatticePolytope(rank, (pts[0],), (), 0)
    if dim < rank:
        preimage = {tuple(p[j] for j in pivots): p for p in pts}
        inner = chart_first_from_points(list(preimage), rank=dim)
        verts = sorted(preimage[v] for v in inner.vertices)
        return LatticePolytope(rank, tuple(verts), (), dim)
    verts, facets = _polygon(pts) if rank == 2 else _hull(pts, rank)
    return LatticePolytope(rank, tuple(sorted(verts)), tuple(facets), dim)
