import random
import time
from fractions import Fraction
from itertools import product
from math import gcd

import pytest

from fanolab import polytopes
from fanolab.laurent import parse_polynomial
from fanolab.linalg import is_primitive, nullspace, rref
from fanolab.mutation_graph import build_graph, export_dot
from fanolab.polytopes import (LATTICE_BOX_CAP, DegeneratePolytopeError,
                               LatticePolytope, NotSimplexError,
                               OriginNotInteriorError,
                               dual_polytope, is_fano, is_reflexive,
                               lattice_points, newton_polytope, normal_form,
                               simplex_weights)
from hull_oracle import _facets_full_dim, _vertices_full_dim


def shoelace_twice_area(vertices):
    """Twice the area of a polygon with the vertices in hull order."""
    ordered = sorted(vertices)
    import math
    cx = Fraction(sum(v[0] for v in ordered), len(ordered))
    cy = Fraction(sum(v[1] for v in ordered), len(ordered))
    ordered = sorted(ordered, key=lambda v: math.atan2(v[1] - cy, v[0] - cx))
    s = 0
    for i in range(len(ordered)):
        x1, y1 = ordered[i]
        x2, y2 = ordered[(i + 1) % len(ordered)]
        s += x1 * y2 - x2 * y1
    return abs(s)


def boundary_count_by_edge_gcd(p):
    """Independent boundary lattice point count for a polygon."""
    verts = sorted(p.vertices)
    import math
    cx = Fraction(sum(v[0] for v in verts), len(verts))
    cy = Fraction(sum(v[1] for v in verts), len(verts))
    verts = sorted(verts, key=lambda v: math.atan2(v[1] - cy, v[0] - cx))
    total = 0
    for i in range(len(verts)):
        a, b = verts[i], verts[(i + 1) % len(verts)]
        total += gcd(abs(b[0] - a[0]), abs(b[1] - a[1]))
    return total


def test_newton_polytope_vertices():
    f = parse_polynomial("x + y + x^-1*y^-1")
    p = newton_polytope(f)
    assert p.vertices == ((-1, -1), (0, 1), (1, 0))
    assert p.is_full_dimensional


def test_non_vertex_support_point_dropped():
    f = parse_polynomial("x^2 + x + 1 + y")
    p = newton_polytope(f)
    assert (1, 0) not in p.vertices
    assert p.contains((1, 0))


def test_lower_dimensional_newton_polytope():
    f = parse_polynomial("x*y + x^-1*y^-1 + 1")
    p = newton_polytope(f)
    assert p.dim == 1
    assert p.vertices == ((-1, -1), (1, 1))
    with pytest.raises(DegeneratePolytopeError):
        p.require_full_dim()


def test_fano_report():
    p = newton_polytope(parse_polynomial("x + y + x^-1*y^-1"))
    assert is_fano(p) is True
    shifted = LatticePolytope.from_points([(1, 0), (2, 1), (1, 2)])
    assert not is_fano(shifted) and not shifted.origin_strictly_interior()
    non_primitive = LatticePolytope.from_points([(2, 0), (0, 2), (-2, -2)])
    assert not is_fano(non_primitive)
    assert non_primitive.origin_strictly_interior()
    assert not all(map(is_primitive, non_primitive.vertices))


def test_dual_of_reflexive_triangle():
    p = newton_polytope(parse_polynomial("x + y + x^-1*y^-1"))
    d = dual_polytope(p)
    assert d.integral
    assert is_reflexive(p)
    dd = d.to_lattice_polytope()
    assert sorted(dd.vertices) == [(-1, -1), (-1, 2), (2, -1)]
    # polarity is an involution on reflexive polytopes
    back = dual_polytope(dd).to_lattice_polytope()
    assert back.vertices == p.vertices


def test_dual_non_integral():
    p = LatticePolytope.from_points([(1, 0), (0, 1), (-3, -5)])
    # one facet sits at lattice distance 5, so the dual vertex is fractional
    d = dual_polytope(p)
    assert not d.integral
    assert not is_reflexive(p)


def test_dual_requires_interior_origin():
    p = LatticePolytope.from_points([(1, 0), (2, 1), (1, 2)])
    with pytest.raises(OriginNotInteriorError):
        dual_polytope(p)


def test_lattice_points_pick_consistency():
    for pts in [
        [(1, 0), (0, 1), (-1, -1)],
        [(2, -1), (-1, 2), (-1, -1)],
        [(1, 1), (-1, 1), (-1, -1), (1, -1)],
        [(3, 4), (1, 0), (-1, -1)],
    ]:
        p = LatticePolytope.from_points(pts)
        counted = lattice_points(p)
        b = len(counted.boundary)
        i = len(counted.interior)
        assert boundary_count_by_edge_gcd(p) == b
        # Pick: 2A = 2I + B - 2
        assert shoelace_twice_area(p.vertices) == 2 * i + b - 2


def test_lattice_points_3d():
    nabla = LatticePolytope.from_points(
        [(2, 0, -1), (0, 2, -1), (-2, -2, -1), (0, 0, 1)])
    pts = lattice_points(nabla)
    assert len(pts.boundary) == 14
    assert pts.interior == ((0, 0, 0),)


def test_normal_form_detects_equivalence():
    p = newton_polytope(parse_polynomial("x + y + x^-1*y^-1"))
    from fanolab.laurent import substitute_unimodular
    f2 = substitute_unimodular(parse_polynomial("x + y + x^-1*y^-1"),
                               ((1, 3), (2, 7)))
    q = newton_polytope(f2)
    assert normal_form(p) == normal_form(q)
    other = newton_polytope(parse_polynomial("x + x^-1 + y + y^-1"))
    assert normal_form(p) != normal_form(other)


def _a3_dual():
    """The polar dual of the A3 root polytope conv(+-e_i, e_i - e_j)."""
    units = [tuple(s * (k == i) for k in range(3))
             for i in range(3) for s in (1, -1)]
    roots = [tuple((k == i) - (k == j) for k in range(3))
             for i in range(3) for j in range(3) if i != j]
    return dual_polytope(
        LatticePolytope.from_points(units + roots)).to_lattice_polytope()


# polytopes whose k! vertex orders are out of reach or slow
LARGER_POLYTOPES = {
    "a3-dual": (_a3_dual().vertices, 14),
    "4-cube": (list(product((-1, 1), repeat=4)), 16),
    "cube-with-apex": (list(product((-1, 1), repeat=3)) + [(0, 0, 2)], 9),
}


def _random_gl(rng, n, steps=8):
    """A product of random elementary +-1 matrices in GL(n, Z)."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((-1, 1))
        m[i] = [a + s * b for a, b in zip(m[i], m[j])]
    return m


@pytest.mark.parametrize("name", sorted(LARGER_POLYTOPES))
def test_normal_form_of_larger_polytopes(name):
    points, k = LARGER_POLYTOPES[name]
    p = LatticePolytope.from_points(points)
    assert len(p.vertices) == k
    start = time.perf_counter()
    nf = normal_form(p)
    assert time.perf_counter() - start < 1
    g = _random_gl(random.Random(name), p.rank)
    image = LatticePolytope.from_points(
        [[sum(a * b for a, b in zip(row, v)) for row in g] for v in points])
    assert normal_form(image) == nf


def test_a3_dual_is_reflexive():
    assert is_reflexive(_a3_dual())


def test_simplex_weights():
    p = newton_polytope(parse_polynomial("x + y + x^-1*y^-1"))
    assert simplex_weights(p) == (1, 1, 1)
    q = LatticePolytope.from_points([(-1, -1), (1, 0), (3, 4)])
    assert simplex_weights(q) == (1, 1, 4)
    square = LatticePolytope.from_points([(1, 1), (-1, 1), (-1, -1), (1, -1)])
    with pytest.raises(NotSimplexError):
        simplex_weights(square)


@pytest.mark.parametrize("scale", [(2, 1, 1), (1, 3, 2), (5, 5, 5)])
def test_simplex_weights_read_the_rays_of_the_fan(scale):
    # a vertex's multiple spans the same ray, so the weights of the fan of
    # P^2 and of P(1, 1, 4) do not change when the vertices are scaled
    for vertices, weights in (([(1, 0), (0, 1), (-1, -1)], (1, 1, 1)),
                              ([(-1, -1), (1, 0), (3, 4)], (1, 1, 4))):
        p = LatticePolytope.from_points([tuple(k * x for x in v)
                                         for k, v in zip(scale, vertices)])
        assert simplex_weights(p) == weights
    assert simplex_weights(LatticePolytope.from_points([(2,), (-3,)])) \
        == (1, 1)
    f = parse_polynomial("4*x^2 + y + x^-1*y^-1")
    assert "| (1, 1, 1)\"" in export_dot(build_graph(f, 0))


def subset_hull(points):
    """Vertices and facets by the subset enumeration that rank >= 3 uses."""
    pts = sorted(set(points))
    facets = _facets_full_dim(pts, 2)
    return tuple(_vertices_full_dim(pts, facets, 2)), tuple(facets)


TRIANGLE_WITH_EDGE_POINTS = [(0, 0), (1, 0), (2, 0), (3, 0), (2, 1), (1, 2),
                             (0, 3), (0, 2), (0, 1), (1, 1)]


def test_polygon_edge_points_are_not_vertices():
    p = LatticePolytope.from_points(TRIANGLE_WITH_EDGE_POINTS)
    assert p.vertices == ((0, 0), (0, 3), (3, 0))
    assert p.facets == (((-1, -1), 3), ((0, 1), 0), ((1, 0), 0))
    assert (p.vertices, p.facets) == subset_hull(TRIANGLE_WITH_EDGE_POINTS)


def test_polygon_ignores_point_order():
    shuffled = list(TRIANGLE_WITH_EDGE_POINTS)
    random.Random(5).shuffle(shuffled)
    p = LatticePolytope.from_points(TRIANGLE_WITH_EDGE_POINTS)
    assert LatticePolytope.from_points(TRIANGLE_WITH_EDGE_POINTS[::-1]) == p
    assert LatticePolytope.from_points(shuffled) == p


def test_polygon_of_largest_depth3_p2_node():
    graph = build_graph(parse_polynomial("x + y + x^-1*y^-1"), 3)
    f = max((n.polynomial for n in graph.nodes_at_depth(3)),
            key=lambda g: len(g.terms))
    assert len(f.terms) == 118
    p = newton_polytope(f)
    assert (p.vertices, p.facets) == subset_hull(f.support())


def test_hull_of_a_286_point_rank3_support():
    p = newton_polytope(parse_polynomial("(x + y + z + 1)^10"))
    assert p.vertices == ((0, 0, 0), (0, 0, 10), (0, 10, 0), (10, 0, 0))
    assert p.facets == (((-1, -1, -1), 10), ((0, 0, 1), 0), ((0, 1, 0), 0),
                        ((1, 0, 0), 0))


HULL_INPUTS = [
    ([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1)],
     3),  # the octahedron
    ([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)], 3),  # a square: no span
    ([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
      (-1, -1, -1, -1), (1, 1, 0, 0)], 4),
    ([(-3,), (0,), (2,)], 1),
    ([(0, 0), (1, 0), (0, 1), (1, 1), (2, 3)], 2),
]


@pytest.mark.parametrize("points, rank", HULL_INPUTS)
def test_hull_runs_one_rref_and_no_nullspace(points, rank, monkeypatch):
    # the spanning test's one elimination also gives the start facets
    calls = []

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(polytopes, "rref", counted("rref", rref))
    monkeypatch.setattr(polytopes, "nullspace",
                        counted("nullspace", nullspace))
    verts, facets = polytopes._hull(sorted(points), rank)
    assert calls == ["rref"]
    assert (len(facets) > rank) == (len(verts) > rank)


@pytest.mark.parametrize("points, rank", [([()], None), ([()], 0),
                                          ([(1,)], 0), ([(1,)], -1)])
def test_rank_below_one_is_refused(points, rank):
    with pytest.raises(ValueError, match="rank must be a positive integer"):
        LatticePolytope.from_points(points, rank=rank)


def test_lattice_box_past_the_cap_is_refused():
    # the box of the triangle holds (n + 2)^2 points, the least square
    # above the cap
    n = 315
    assert (n + 1) ** 2 <= LATTICE_BOX_CAP < (n + 2) ** 2
    p = LatticePolytope.from_points([(n, 0), (0, n), (-1, -1)])
    with pytest.raises(ValueError, match=f"holds {(n + 2) ** 2} lattice"):
        lattice_points(p)
