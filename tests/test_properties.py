"""Randomized algebraic invariants, exercised with hypothesis."""

import functools
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from fanolab import polytopes
from fanolab.laurent import (LaurentPolynomial, format_polynomial,
                             parse_polynomial, substitute_unimodular)
from fanolab.linalg import is_primitive, nullspace, unimodular_inverse
from fanolab.mmlp import _minkowski_difference_points
from fanolab.mutation import (MutationData, canonicalize_shear,
                              enumerate_mutations, exact_divide, mutate,
                              shear_equivalent, weight_decomposition)
from fanolab.periods import classical_period, periods_agree
from fanolab.polytopes import (LatticePolytope, _hull, _polygon,
                               affine_chart, dual_polytope, is_fano,
                               is_reflexive, _maximising_orders,
                               lattice_points, newton_polytope, normal_form,
                               simplex_weights)
from hull_oracle import (_facets_full_dim, _vertices_full_dim,
                         chart_first_from_points)
from nf_oracle import normal_form_by_permutations
from shear_oracle import shear

SETTINGS = settings(max_examples=60, deadline=None)

coeffs = st.one_of(
    st.integers(min_value=-9, max_value=9).filter(lambda x: x != 0),
    st.fractions(min_value=-5, max_value=5,
                 max_denominator=6).filter(lambda x: x != 0))
exponents2 = st.tuples(st.integers(-4, 4), st.integers(-4, 4))


def polys(rank_exponents=exponents2, min_terms=1):
    return st.dictionaries(rank_exponents, coeffs, min_size=min_terms,
                           max_size=6).map(
        lambda d: LaurentPolynomial.from_terms(2, d.items()))


unimodular2 = st.tuples(
    st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)).map(
    lambda t: ((1 + t[0] * t[1], t[0]), (t[1], 1)) if t[2] % 2 == 0
    else ((t[0], 1 + t[0] * t[1]), (1, t[1])))


@SETTINGS
@given(polys(), polys(), polys())
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) * h == f * h + g * h
    assert (f * g) * h == f * (g * h)


@SETTINGS
@given(polys(min_terms=1))
def test_parse_format_round_trip(f):
    assert parse_polynomial(format_polynomial(f), rank_hint=2) == f


@SETTINGS
@given(st.integers(5, 6).flatmap(lambda n: st.dictionaries(
    st.tuples(*[st.integers(-3, 3)] * n), coeffs, min_size=1,
    max_size=6).map(lambda d: LaurentPolynomial.from_terms(n, d.items()))))
def test_parse_format_round_trip_with_indexed_names(f):
    # past rank 4 the names are x1..xn; the highest index may be absent
    assert parse_polynomial(format_polynomial(f), rank_hint=f.rank) == f


@SETTINGS
@given(polys(min_terms=1), polys(min_terms=1))
def test_exact_divide_inverts_multiplication(f, g):
    q = exact_divide(f * g, g)
    assert q == f


@SETTINGS
@given(polys(min_terms=2), unimodular2)
def test_period_invariant_under_gl2(f, m):
    g = substitute_unimodular(f, m)
    assert periods_agree(f, g, 6) == (True, None)


@SETTINGS
@given(polys(min_terms=2), unimodular2)
def test_newton_lattice_points_invariant(f, m):
    g = substitute_unimodular(f, m)
    p, q = newton_polytope(f), newton_polytope(g)
    if p.is_full_dimensional:
        assert q.is_full_dimensional
        assert len(lattice_points(p).all) == len(lattice_points(q).all)
        assert normal_form(p) == normal_form(q)


@SETTINGS
@given(polys(min_terms=3), st.integers(-3, 3), st.integers(-3, 3))
def test_shear_canonicalization(f, a, b):
    w = (2, -1)
    s = (a, 2 * a)  # on the wall of w
    canon = canonicalize_shear(f, w)
    assert canonicalize_shear(canon, w) == canon
    assert canonicalize_shear(shear(f, w, s), w) == canon
    assert shear_equivalent(f, shear(f, w, s), w)


@SETTINGS
@given(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                min_size=3, max_size=7))
def test_dual_involution_on_reflexive(points):
    try:
        p = LatticePolytope.from_points(points)
        if not p.is_full_dimensional or not p.origin_strictly_interior():
            return
        if not is_reflexive(p):
            return
    except ValueError:
        return
    d = dual_polytope(p).to_lattice_polytope()
    assert is_reflexive(d)
    assert dual_polytope(d).to_lattice_polytope().vertices == p.vertices


@SETTINGS
@given(polys(min_terms=2))
def test_constant_term_power_consistency(f):
    # the period calculator agrees with direct powering
    seq = classical_period(f, 5)
    for k in range(5):
        assert seq[k] == (f ** k).constant_term()


# -- polytope geometry against brute-force oracles ---------------------------


def _hull_oracle(vertices):
    """Membership in conv(vertices): adding an integer point p leaves the
    vertex set unchanged exactly when p lies in the hull."""
    vertices = tuple(vertices)

    @functools.cache
    def contains(p):
        return LatticePolytope.from_points(vertices + (p,)).vertices == \
            vertices
    return contains


@st.composite
def point_sets2(draw):
    """Rank-2 point sets with points inside edges, duplicates and dense
    interiors; few corners also give segments and single points."""
    coord = st.integers(-4, 4)
    corners = draw(st.lists(st.tuples(coord, coord), min_size=1,
                            max_size=5))
    pts = list(corners)
    for a, b in draw(st.lists(st.tuples(st.sampled_from(corners),
                                        st.sampled_from(corners)),
                              max_size=4)):
        d = (b[0] - a[0], b[1] - a[1])
        g = gcd(*d)
        pts += [(a[0] + k * d[0] // g, a[1] + k * d[1] // g)
                for k in range(1, g)]
    if draw(st.booleans()):
        xs, ys = [q[0] for q in corners], [q[1] for q in corners]
        pts += product(range(min(xs), max(xs) + 1),
                       range(min(ys), max(ys) + 1))
    pts += draw(st.lists(st.sampled_from(pts), max_size=4))
    return draw(st.permutations(pts))


@SETTINGS
@given(point_sets2(), unimodular2)
def test_polygon_matches_subset_hull(points, g):
    p = LatticePolytope.from_points(points)
    pts = sorted(set(points))
    if p.is_full_dimensional:
        facets = _facets_full_dim(pts, 2)
        assert p.facets == tuple(facets)
        assert p.vertices == tuple(_vertices_full_dim(pts, facets, 2))
    else:
        assert p.facets == ()
        assert p.vertices == tuple(sorted({pts[0], pts[-1]}))
    # g moves vertices along, normals by the inverse, offsets not at all
    image = LatticePolytope.from_points([_apply(g, q) for q in points])
    assert image.vertices == tuple(sorted(_apply(g, v) for v in p.vertices))
    ginv_t = list(zip(*unimodular_inverse([list(r) for r in g])))
    assert image.facets == tuple(sorted((_apply(ginv_t, u), c)
                                        for u, c in p.facets))


@st.composite
def point_sets(draw, rank):
    """Point sets of any rank with the lattice points of segments between
    corners (on edges, on higher faces or inside) and repeated points."""
    coord = st.integers(-2, 2)
    corners = draw(st.lists(st.tuples(*[coord] * rank), min_size=rank + 1,
                            max_size=rank + 4))
    pts = list(corners)
    for a, b in draw(st.lists(st.tuples(st.sampled_from(corners),
                                        st.sampled_from(corners)),
                              max_size=3)):
        d = [y - x for x, y in zip(a, b)]
        g = gcd(*d)
        pts += [tuple(x + k * e // g for x, e in zip(a, d))
                for k in range(1, g)]
    pts += draw(st.lists(st.sampled_from(pts), max_size=3))
    return draw(st.permutations(pts))


@pytest.mark.parametrize("rank", (1, 3, 4))
@settings(max_examples=50, deadline=None)
@given(st.data())
def test_hull_matches_subset_oracle(rank, data):
    points = data.draw(point_sets(rank))
    p = LatticePolytope.from_points(points)
    assume(p.is_full_dimensional)
    pts = sorted(set(points))
    facets = _facets_full_dim(pts, rank)
    assert p.facets == tuple(facets)
    assert p.vertices == tuple(_vertices_full_dim(pts, facets, rank))


@SETTINGS
@given(point_sets2())
def test_double_description_matches_the_chain_in_rank2(points):
    pts = sorted(set(points))
    assume(len(affine_chart(pts)) == 2)
    ring, facets = _polygon(pts)
    assert _hull(pts, 2) == (sorted(ring), facets)


def _minkowski_oracle(a_points, b_points):
    """Every u of a box one wider than the bounding-box bound with
    u + b in conv(a_points) for every b, in the order of that box."""
    n = len(a_points[0])
    lo = [min(q[i] for q in a_points) - min(q[i] for q in b_points) - 1
          for i in range(n)]
    hi = [max(q[i] for q in a_points) - max(q[i] for q in b_points) + 1
          for i in range(n)]
    contains = _hull_oracle(LatticePolytope.from_points(a_points).vertices)
    return [u for u in product(*(range(a, b + 1) for a, b in zip(lo, hi)))
            if all(contains(tuple(x + y for x, y in zip(u, b)))
                   for b in b_points)]


def _check_minkowski_difference(data, rank, span):
    coord = st.integers(-span, span)
    points = data.draw(st.lists(st.tuples(*[coord] * rank),
                                min_size=rank + 1, max_size=rank + 3))
    p = LatticePolytope.from_points(points)
    assume(p.is_full_dimensional)
    lattice = lattice_points(p).all
    # A is a weight slice of the lattice points (w = 0 keeps them all) or
    # the lattice points of a facet
    if data.draw(st.booleans()):
        w, c = data.draw(st.sampled_from(p.facets))
        level = -c
    else:
        w = data.draw(st.one_of(st.just((0,) * rank),
                                st.tuples(*[st.integers(-1, 1)] * rank)))
        level = sum(a * b for a, b in
                    zip(w, data.draw(st.sampled_from(lattice))))
    a_points = [q for q in lattice
                if sum(a * b for a, b in zip(w, q)) == level]
    b_points = data.draw(st.lists(st.tuples(*[st.integers(-1, 1)] * rank),
                                  min_size=1, max_size=3, unique=True))
    if data.draw(st.booleans()):  # keep B on the wall w = 0
        b_points = [b for b in b_points
                    if sum(x * y for x, y in zip(w, b)) == 0] or [b_points[0]]
    assert list(_minkowski_difference_points(set(a_points), b_points)) == \
        _minkowski_oracle(a_points, b_points)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_minkowski_difference_matches_oracle_rank2(data):
    _check_minkowski_difference(data, 2, 2)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_minkowski_difference_matches_oracle_rank3(data):
    _check_minkowski_difference(data, 3, 1)


def test_minkowski_difference_needs_b_parallel_to_the_span():
    # u + b lands in conv(A) for b = (0, 0) but off its line for b = (1, 0)
    for a_points, b_points in ((((-1, 1), (0, 0), (1, -1)), ((0, 0), (1, 0))),
                               (((-1, 1), (0, 0), (1, -1)), ((1, 0), (0, 0))),
                               (((-1, 0, 1), (0, 0, 0), (1, 0, -1)),
                                ((0, 0, 0), (1, 0, 0)))):
        assert list(_minkowski_difference_points(set(a_points),
                                                 b_points)) == []
        assert _minkowski_oracle(a_points, b_points) == []


def _gl(n, ops, flip):
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for i, j, s in ops:
        if i != j:
            m[i] = [a + s * b for a, b in zip(m[i], m[j])]
    if flip:
        m[0] = [-x for x in m[0]]
    return m


def gl(n):
    """Products of up to 6 elementary matrices in GL(n, Z)."""
    index = st.integers(0, n - 1)
    return st.builds(functools.partial(_gl, n),
                     st.lists(st.tuples(index, index,
                                        st.sampled_from((-1, 1))),
                              max_size=6),
                     st.booleans())


gl3 = gl(3)


def _apply(m, v):
    return tuple(sum(a * b for a, b in zip(row, v)) for row in m)


@SETTINGS
@given(st.integers(0, 2),
       st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                min_size=1, max_size=7),
       st.integers(-2, 2), gl3, gl3)
def test_lower_dim_vertices_commute_with_gl3(dim, coords, height, m, g):
    # points of a dim-dimensional affine sublattice, tilted by m
    pts = [_apply(m, (a if dim else 0, b if dim == 2 else 0, height))
           for a, b in coords]
    p = LatticePolytope.from_points(pts)
    assert p.dim <= dim
    image = LatticePolytope.from_points([_apply(g, q) for q in pts])
    assert image.dim == p.dim
    assert image.vertices == tuple(sorted(_apply(g, v) for v in p.vertices))


@st.composite
def flat_point_sets(draw, rank):
    """Points p0 + sum c_i v_i on a flat of k directions v_i, with k = rank,
    rank - 1, 1 or 0: sets that span, lie on a hyperplane or on a line, or
    are a single point, with repeated points."""
    coord = st.integers(-2, 2)
    vector = st.tuples(*[coord] * rank)
    k = draw(st.sampled_from(sorted({rank, rank - 1, 1, 0})))
    p0 = draw(vector)
    dirs = draw(st.lists(vector, min_size=k, max_size=k))
    combos = draw(st.lists(st.tuples(*[coord] * k), min_size=1,
                           max_size=rank + 4))
    pts = [tuple(x + sum(c * v[i] for c, v in zip(cs, dirs))
                 for i, x in enumerate(p0)) for cs in combos]
    return pts + draw(st.lists(st.sampled_from(pts), max_size=3))


@pytest.mark.parametrize("rank", (1, 2, 3, 4))
@settings(max_examples=50, deadline=None)
@given(st.data())
def test_from_points_matches_the_chart_first_oracle(rank, data):
    points = data.draw(flat_point_sets(rank))
    g = data.draw(gl(rank))
    for pts in (points, [_apply(g, q) for q in points]):
        assert LatticePolytope.from_points(pts) == \
            chart_first_from_points(pts)


@pytest.mark.parametrize("rank", (1, 2, 3, 4))
@settings(max_examples=30, deadline=None)
@given(st.data())
def test_only_point_sets_that_do_not_span_are_charted(rank, data):
    """``affine_chart`` runs 0 times on a set that spans and once on one
    that does not, counting the call on its projection."""
    points = data.draw(flat_point_sets(rank))
    spans = chart_first_from_points(points).dim == rank
    calls = []

    def counted(pts):
        calls.append(pts)
        return affine_chart(pts)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(polytopes, "affine_chart", counted)
        LatticePolytope.from_points(points)
    assert len(calls) == (0 if spans else 1)


@pytest.mark.parametrize("rank", (3, 4))
@settings(max_examples=40, deadline=None)
@given(st.data())
def test_normal_form_invariant_under_gl(rank, data):
    coord = st.integers(-2, 2)
    points = data.draw(st.lists(st.tuples(*[coord] * rank),
                                min_size=rank + 1, max_size=6))
    p = LatticePolytope.from_points(points)
    assume(p.is_full_dimensional)
    g = data.draw(gl(rank))
    image = LatticePolytope.from_points([_apply(g, q) for q in points])
    assert normal_form(image) == normal_form(p)


@pytest.mark.parametrize("rank", (2, 3, 4))
@settings(max_examples=40, deadline=None)
@given(st.data())
def test_fano_simplex_vertices_have_one_positive_relation(rank, data):
    """What ``simplex_weights`` relies on without checking: the vertices of
    a Fano simplex satisfy exactly one relation, positive in every entry.
    The simplex is the GL(n, Z) image g of the columns b_i of a lower
    triangular L and of a = -sum mu_i b_i, so (1, mu) is its relation.
    L's last diagonal entry is 1, so its last column is primitive."""
    mu = data.draw(st.lists(st.integers(1, 4), min_size=rank,
                            max_size=rank))
    lower = [[data.draw(st.integers(1, 3 if i < rank - 1 else 1)) if i == j
              else data.draw(st.integers(-2, 2)) if j < i else 0
              for j in range(rank)] for i in range(rank)]
    g = data.draw(gl(rank))
    basis = [_apply(g, col) for col in zip(*lower)]
    apex = tuple(-sum(m * b[i] for m, b in zip(mu, basis))
                 for i in range(rank))
    assume(all(is_primitive(v) for v in basis + [apex]))
    p = LatticePolytope.from_points(basis + [apex])
    assert is_fano(p) and len(p.vertices) == rank + 1
    relations = nullspace([[v[i] for v in p.vertices] for i in range(rank)],
                          ncols=rank + 1)
    assert len(relations) == 1 and all(x > 0 for x in relations[0])
    assert sorted(relations[0]) == sorted([1] + mu)
    assert simplex_weights(p) == tuple(sorted([1] + mu))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_normal_form_matches_the_permutation_oracle(data):
    # at most 8 points, so at most 8 vertices and 8! orders for the oracle
    rank = data.draw(st.integers(1, 4))
    coord = st.integers(-3, 3)
    points = data.draw(st.lists(st.tuples(*[coord] * rank),
                                min_size=rank + 1, max_size=8))
    p = LatticePolytope.from_points(points)
    assume(p.is_full_dimensional)
    pairing = [[sum(a * b for a, b in zip(u, v)) for v in p.vertices]
               for u, _ in p.facets]
    best_perms, matrix = normal_form_by_permutations(p)
    assert _maximising_orders(pairing) == best_perms
    assert normal_form(p).matrix == matrix


exponents3 = st.tuples(*[st.integers(-2, 2)] * 3)


@SETTINGS
@given(st.dictionaries(st.tuples(*[st.integers(-1, 1)] * 3), coeffs,
                       min_size=4, max_size=6), gl3)
def test_newton_lattice_points_invariant_under_gl3(terms, m):
    f = LaurentPolynomial.from_terms(3, terms.items())
    p, q = newton_polytope(f), newton_polytope(substitute_unimodular(f, m))
    assert q.dim == p.dim
    if p.is_full_dimensional:
        assert len(lattice_points(p).all) == len(lattice_points(q).all)
        assert normal_form(p) == normal_form(q)


@SETTINGS
@given(st.dictionaries(exponents3, coeffs, min_size=2, max_size=6), gl3)
def test_period_invariant_under_gl3(terms, m):
    f = LaurentPolynomial.from_terms(3, terms.items())
    g = substitute_unimodular(f, m)
    assert periods_agree(f, g, 10) == (True, None)


# ---------------------------------------------------------------------------
# mutation chains


def reslicing_mutate(f, data):
    """Oracle for ``mutate``: slice f by the weight afresh, divide each
    negative slice by its factor power and multiply each positive one."""
    terms = {}
    for i, piece in weight_decomposition(f, data.weight):
        if i < 0:
            piece = exact_divide(piece, data.factor ** -i)
            assert piece is not None
        elif i > 0:
            piece = piece * data.factor ** i
        terms.update(piece.terms)
    return canonicalize_shear(LaurentPolynomial(f.rank, terms), data.weight)


@functools.cache
def _witnesses(f):
    return enumerate_mutations(f).witnesses


# start -> how many steps a chain takes from it
CHAIN_STARTS = {
    "x + y + x^-1*y^-1": 3,
    "2*x + x*y + 2*y + y*x^-1 + 2*x^-1 + x^-1*y^-1 + 2*y^-1 + x*y^-1": 3,
    "(x + y + 1)^3/(x*y*z) + z": 1,
}


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(CHAIN_STARTS)),
       st.lists(st.integers(0, 99), min_size=1, max_size=3))
def test_period_invariant_along_mutation_chains(start, picks):
    f = g = parse_polynomial(start)
    for pick in picks[:CHAIN_STARTS[start]]:
        witnesses = _witnesses(g)
        witness = witnesses[pick % len(witnesses)]
        h = mutate(g, witness.data, witness)
        assert h == reslicing_mutate(g, witness.data)
        g = h
    assert periods_agree(f, g, 8) == (True, None)
