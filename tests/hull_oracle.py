"""Subset enumeration of facets and vertices: the reference hull.

Every rank-subset of the points that spans a hyperplane with all points on
one side gives a facet; a point is a vertex when its active facet normals
have full rank.  The cost grows with the number of point subsets, so it
only serves as the oracle that ``_hull`` and ``_polygon`` are checked
against.
"""

from itertools import combinations

from fanolab.linalg import nullspace, rref
from fanolab.polytopes import DegeneratePolytopeError


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
